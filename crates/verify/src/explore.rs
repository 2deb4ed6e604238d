//! The one checked run ([`checked_run`]): an application under the online
//! oracle, with the run's panic caught and everything the checkers need
//! collected — even out of a panicking run. `cvm check`, the DPOR
//! explorer and `cvm faults` all run through it.

use std::panic::{catch_unwind, AssertUnwindSafe};

use cvm_apps::{build_app, AppId, Scale};
use cvm_dsm::{
    CvmBuilder, CvmConfig, FaultPlan, Finding, FindingSink, InjectFault, LatencyModel,
    ProtocolKind, RunReport,
};
use cvm_sim::{ExploreSpec, PickPolicy, ScheduleScript, StepLog, StepRecord};

use crate::race::replay_race_check;

/// What to run under the oracle, and over which wire.
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
    /// Named fault plan (from [`cvm_dsm::PLAN_CATALOG`]) under the run,
    /// if any.
    pub faults: Option<&'static str>,
    /// Trace capacity for the offline race replay (0 = no trace, no
    /// replay).
    pub trace_capacity: usize,
    /// Master seed of the run.
    pub seed: u64,
}

/// Everything one checked run produced.
#[derive(Debug)]
pub struct CheckedRun {
    /// The run report (`None` when the run panicked).
    pub report: Option<RunReport>,
    /// Online oracle findings, plus the offline race replay's when the
    /// plan asked for a trace. Findings recorded before a panic survive.
    pub findings: Vec<Finding>,
    /// Panic message if the run aborted.
    pub panic: Option<String>,
    /// Protocol events dropped because the trace filled; nonzero means
    /// the race replay was skipped as unsound.
    pub trace_dropped: u64,
}

impl CheckedRun {
    /// True if this run demonstrated a protocol violation.
    pub fn failed(&self) -> bool {
        !self.findings.is_empty() || self.panic.is_some()
    }

    fn step_log(&self) -> Option<&StepLog> {
        self.report.as_ref()?.steps.as_ref()
    }

    /// A `record_steps` run's scheduling points: one record per pick, with
    /// the enabled set, the chosen thread and the step's page footprint.
    pub fn steps(&self) -> &[StepRecord] {
        self.step_log().map_or(&[], StepLog::steps)
    }

    /// Step records dropped because the step log filled; nonzero means
    /// the DPOR analysis of this execution is incomplete.
    pub fn steps_dropped(&self) -> u64 {
        self.step_log().map_or(0, StepLog::dropped)
    }

    /// FNV-1a fingerprint of a `record_steps` run's terminal state
    /// (memories, page states, vector clocks); `0` when the run panicked.
    pub fn state_hash(&self) -> u64 {
        self.report.as_ref().map_or(0, |r| r.state_hash)
    }
}

/// Runs `plan.app` once under `pick` with the online oracle armed, and
/// catches a panic inside the run as its message. `record_steps` runs
/// also record every scheduling point and fingerprint the terminal state;
/// on [`Scale::Tiny`] they swap in the wire-dominant
/// [`LatencyModel::check`] model: under the default instant model,
/// causality pins every flush ahead of the request that needs it, hiding
/// the protocol's parked-request paths from the checker.
pub fn checked_run(plan: RunPlan, pick: PickPolicy, record_steps: bool) -> CheckedRun {
    let sink = FindingSink::new();
    let run_sink = sink.clone();
    let outcome = catch_unwind(AssertUnwindSafe(move || {
        let mut cfg = CvmConfig::small(plan.nodes, plan.threads);
        cfg.protocol = plan.protocol;
        cfg.seed = plan.seed;
        cfg.verify = true;
        cfg.verify_sink = run_sink;
        cfg.inject = plan.inject;
        cfg.faults = plan
            .faults
            .map(|name| FaultPlan::named(name, plan.nodes).expect("fault plan in catalog"));
        cfg.trace_capacity = plan.trace_capacity;
        cfg.pick = pick;
        cfg.record_steps = record_steps;
        if record_steps && plan.scale == Scale::Tiny {
            cfg.latency = LatencyModel::check();
        }
        let mut builder = CvmBuilder::new(cfg);
        let body = build_app(&mut builder, plan.app, plan.scale);
        builder.run(body)
    }));
    match outcome {
        Ok(report) => {
            let (findings, trace_dropped) = findings_with_races(&report, plan.nodes);
            CheckedRun {
                report: Some(report),
                findings,
                panic: None,
                trace_dropped,
            }
        }
        Err(payload) => CheckedRun {
            report: None,
            findings: sink.snapshot(),
            panic: Some(cvm_sim::coop::panic_message(payload.as_ref())),
            trace_dropped: 0,
        },
    }
}

/// The report's oracle findings extended by the offline race replay of
/// its trace, and the count of trace events dropped. A run without a
/// trace, or whose trace overflowed, skips the replay as unsound.
pub fn findings_with_races(report: &RunReport, nodes: usize) -> (Vec<Finding>, u64) {
    let mut findings = report.findings.clone();
    let Some(trace) = &report.trace else {
        return (findings, 0);
    };
    let dropped = trace.overflow();
    if dropped == 0 {
        findings.extend(replay_race_check(trace, nodes));
    }
    (findings, dropped)
}

/// Runs `plan.app` once under the perturbation `spec` (`None` = the
/// default policy, unmodified).
pub fn run_schedule(plan: RunPlan, spec: Option<ExploreSpec>) -> CheckedRun {
    checked_run(
        plan,
        spec.map_or_else(PickPolicy::default, PickPolicy::seeded),
        false,
    )
}

/// Runs `plan.app` once with the scheduler pinned to `choices` (index `i`
/// picks the `choices[i]`-th ready thread, clamped; past the end the
/// default policy resumes), recording every scheduling point. Used by the
/// DPOR explorer, which needs deterministic re-execution plus the enabled
/// sets and per-step page footprints.
pub fn run_scripted(plan: RunPlan, choices: &[u32]) -> CheckedRun {
    let pick = PickPolicy::scripted(ScheduleScript::new(choices.to_vec()));
    checked_run(plan, pick, true)
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
