//! Running one application under one (possibly perturbed) schedule and
//! collecting everything the checkers need — even out of a panicking run.

use std::panic::{catch_unwind, AssertUnwindSafe};

use cvm_apps::{build_app, AppId, Scale};
use cvm_dsm::{
    CvmBuilder, CvmConfig, FaultPlan, Finding, FindingSink, InjectFault, LatencyModel,
    ProtocolKind, RunReport,
};
use cvm_sim::{ExploreSpec, PickPolicy, ScheduleScript, StepRecord};

use crate::race::replay_race_check;

/// Everything a single checked run produced.
#[derive(Debug)]
pub struct ScheduleResult {
    /// The perturbation that was applied (`None` = the configured
    /// scheduling policy, unmodified).
    pub spec: Option<ExploreSpec>,
    /// Online oracle findings plus offline race-replay findings.
    pub findings: Vec<Finding>,
    /// Scheduler pick decisions the exploration actually perturbed.
    pub decisions: u64,
    /// Panic message if the run aborted (oracle findings recorded before
    /// the panic are still salvaged into `findings`).
    pub panic: Option<String>,
    /// Protocol events dropped because the trace filled; nonzero means
    /// the race replay was skipped as unsound.
    pub trace_dropped: u64,
}

impl ScheduleResult {
    /// True if this schedule demonstrated a protocol violation.
    pub fn failed(&self) -> bool {
        !self.findings.is_empty() || self.panic.is_some()
    }
}

/// What to run and how hard to shake it.
#[derive(Debug, Clone, Copy)]
pub struct RunPlan {
    /// Application under test.
    pub app: AppId,
    /// Problem size.
    pub scale: Scale,
    /// Cluster geometry.
    pub nodes: usize,
    /// Threads per node.
    pub threads: usize,
    /// Coherence protocol under test.
    pub protocol: ProtocolKind,
    /// Deliberate protocol mutation (oracle self-test), if any.
    pub inject: Option<InjectFault>,
    /// Named fault plan (from [`cvm_dsm::PLAN_CATALOG`]) layered under
    /// the explored schedules, if any.
    pub faults: Option<&'static str>,
    /// Trace capacity for the offline replay.
    pub trace_capacity: usize,
}

/// One checked run of `plan.app` under `pick`: the online oracle records
/// into `sink`, the trace is enabled, and a panic inside the run is caught
/// and returned as its message (findings recorded before it survive in
/// `sink`). A completed run returns its report, the report's findings
/// extended by the offline race replay (skipped as unsound when the trace
/// overflowed) and the count of dropped trace events. `scripted` runs
/// also record every scheduling point.
fn run_plan(
    plan: RunPlan,
    pick: PickPolicy,
    scripted: bool,
    sink: &FindingSink,
) -> Result<(RunReport, Vec<Finding>, u64), String> {
    let run_sink = sink.clone();
    let report = catch_unwind(AssertUnwindSafe(move || {
        let mut cfg = CvmConfig::small(plan.nodes, plan.threads);
        cfg.protocol = plan.protocol;
        cfg.verify = true;
        cfg.verify_sink = run_sink;
        cfg.inject = plan.inject;
        if let Some(name) = plan.faults {
            cfg.faults = Some(FaultPlan::named(name, plan.nodes).expect("fault plan in catalog"));
        }
        cfg.trace_capacity = plan.trace_capacity;
        cfg.pick = pick;
        cfg.record_steps = scripted;
        if scripted && plan.scale == Scale::Tiny {
            cfg.latency = LatencyModel::check();
        }
        let mut builder = CvmBuilder::new(cfg);
        let body = build_app(&mut builder, plan.app, plan.scale);
        builder.run(body)
    }))
    .map_err(|payload| cvm_sim::coop::panic_message(payload.as_ref()))?;
    let mut findings = report.findings.clone();
    let trace = report.trace.as_ref().expect("tracing was enabled");
    let dropped = trace.overflow();
    if dropped == 0 {
        findings.extend(replay_race_check(trace, plan.nodes));
    }
    Ok((report, findings, dropped))
}

/// Runs `plan.app` once under `spec`, with the online oracle recording
/// and the trace enabled, then replays the trace through the race
/// detector. Panics inside the run are caught; findings recorded before
/// the panic survive.
pub fn run_schedule(plan: RunPlan, spec: Option<ExploreSpec>) -> ScheduleResult {
    let sink = FindingSink::new();
    let pick = spec.map_or_else(PickPolicy::default, PickPolicy::seeded);
    match run_plan(plan, pick, false, &sink) {
        Ok((report, findings, trace_dropped)) => ScheduleResult {
            spec,
            findings,
            decisions: report.explore_decisions,
            panic: None,
            trace_dropped,
        },
        Err(msg) => ScheduleResult {
            spec,
            findings: sink.snapshot(),
            decisions: 0,
            panic: Some(msg),
            trace_dropped: 0,
        },
    }
}

/// Everything a script-pinned (DPOR) run produced.
#[derive(Debug)]
pub struct ScriptedResult {
    /// Online oracle findings plus offline race-replay findings.
    pub findings: Vec<Finding>,
    /// Panic message if the run aborted (oracle findings recorded before
    /// the panic are still salvaged into `findings`).
    pub panic: Option<String>,
    /// The full scheduling-point log: one record per scheduler pick, with
    /// the enabled set, the chosen thread, and the step's page footprint.
    pub steps: Vec<StepRecord>,
    /// FNV-1a fingerprint of the terminal state (memories, page states,
    /// vector clocks); `0` when the run panicked.
    pub state_hash: u64,
    /// Protocol events dropped because the trace filled; nonzero means
    /// the race replay was skipped as unsound.
    pub trace_dropped: u64,
    /// Step records dropped because the step log filled; nonzero means
    /// the DPOR analysis of this execution is incomplete.
    pub steps_dropped: u64,
}

impl ScriptedResult {
    /// True if this execution demonstrated a protocol violation.
    pub fn failed(&self) -> bool {
        !self.findings.is_empty() || self.panic.is_some()
    }
}

/// Runs `plan.app` once with the scheduler pinned to `choices` (index `i`
/// picks the `choices[i]`-th ready thread, clamped; past the end the
/// default policy resumes), recording every scheduling point. Used by the
/// DPOR explorer, which needs deterministic re-execution plus the enabled
/// sets and per-step page footprints.
///
/// [`Scale::Tiny`] plans swap in the wire-dominant
/// [`LatencyModel::check`] model: under the default instant model,
/// causality pins every flush ahead of the request that needs it, hiding
/// the protocol's parked-request paths from the checker.
pub fn run_scripted(plan: RunPlan, choices: &[u32]) -> ScriptedResult {
    let sink = FindingSink::new();
    let pick = PickPolicy::scripted(ScheduleScript::new(choices.to_vec()));
    match run_plan(plan, pick, true, &sink) {
        Ok((report, findings, trace_dropped)) => {
            let log = report.steps.as_ref().expect("step recording was enabled");
            ScriptedResult {
                findings,
                panic: None,
                steps: log.steps().to_vec(),
                state_hash: report.state_hash,
                trace_dropped,
                steps_dropped: log.dropped(),
            }
        }
        Err(msg) => ScriptedResult {
            findings: sink.snapshot(),
            panic: Some(msg),
            steps: Vec::new(),
            state_hash: 0,
            trace_dropped: 0,
            steps_dropped: 0,
        },
    }
}

/// Shrinks a failing schedule to the smallest perturbation budget that
/// still fails, probing budgets `0..=probes` linearly (budget 0 is the
/// default schedule, so a hit there means the bug is schedule-independent).
/// Returns the original spec when no smaller budget reproduces.
pub fn minimize(plan: RunPlan, failing: ExploreSpec, probes: u64) -> ExploreSpec {
    for budget in 0..failing.budget.min(probes + 1) {
        let candidate = ExploreSpec {
            seed: failing.seed,
            budget,
        };
        if run_schedule(plan, Some(candidate)).failed() {
            return candidate;
        }
    }
    failing
}
