//! `cvm check`'s cell ([`check_app`]: schedule exploration of one
//! application) and its report, with lint-style findings and replayable
//! failure seeds. The harness runs the cells as a campaign.

use std::fmt::Write as _;

use cvm_apps::{AppId, Scale};
use cvm_dsm::{Finding, InjectFault, ProtocolKind, DEFAULT_SEED};
use cvm_sim::json::JsonValue;
use cvm_sim::ExploreSpec;

use crate::dpor::{dpor_check, DporCounterexample, DporOptions, DporStats};
use crate::explore::{minimize, run_schedule, RunPlan};

/// What `cvm check` should do.
#[derive(Debug, Clone)]
pub struct CheckOptions {
    /// Applications to check.
    pub apps: Vec<AppId>,
    /// Cluster geometry.
    pub nodes: usize,
    /// Threads per node.
    pub threads: usize,
    /// Coherence protocol to explore (every protocol must survive the
    /// same schedule shaking as the default).
    pub protocol: ProtocolKind,
    /// Perturbed schedules to explore per application (an unperturbed
    /// baseline always runs first, on top of this count).
    pub schedules: u64,
    /// Base exploration seed; schedule `i` derives its seed from it
    /// (schedule 0 uses it verbatim, so a reported seed replays with
    /// `--schedules 1 --seed <seed>`).
    pub seed: u64,
    /// Scheduler pick decisions each explored schedule may perturb.
    pub budget: u64,
    /// Deliberate protocol mutation (oracle self-test), if any.
    pub inject: Option<InjectFault>,
    /// Named fault plan (from [`cvm_dsm::PLAN_CATALOG`]) layered under
    /// every explored schedule: the oracle and race replay then run over
    /// a faulty wire repaired by the reliability layer.
    pub faults: Option<&'static str>,
    /// Trace capacity per run for the offline race replay.
    pub trace_capacity: usize,
    /// Problem size.
    pub scale: Scale,
    /// Exhaustive DPOR exploration instead of seeded random shaking:
    /// every inequivalent interleaving of each application's kernel is
    /// executed (normally paired with [`Scale::Tiny`], the only scale
    /// where exhaustion terminates).
    pub dpor: bool,
    /// DPOR execution cap (see [`DporOptions::max_traces`]).
    pub max_traces: u64,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            apps: AppId::ALL.to_vec(),
            nodes: 2,
            threads: 2,
            protocol: ProtocolKind::LazyMultiWriter,
            schedules: 8,
            seed: 0xC11E_C4ED,
            budget: 64,
            inject: None,
            faults: None,
            trace_capacity: 4_000_000,
            scale: Scale::Small,
            dpor: false,
            max_traces: 20_000,
        }
    }
}

impl CheckOptions {
    /// The exploration spec of schedule `i` (0-based). Schedule 0 uses
    /// the base seed verbatim so printed seeds replay directly.
    pub fn spec_of(&self, i: u64) -> ExploreSpec {
        ExploreSpec {
            seed: self.seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            budget: self.budget,
        }
    }

    /// The [`RunPlan`] these options induce for one application (the
    /// harness uses it to serialize schedule files for DPOR failures).
    pub fn plan(&self, app: AppId) -> RunPlan {
        RunPlan {
            app,
            scale: self.scale,
            nodes: self.nodes,
            threads: self.threads,
            protocol: self.protocol,
            inject: self.inject,
            faults: self.faults,
            trace_capacity: self.trace_capacity,
            seed: DEFAULT_SEED,
        }
    }
}

/// A failing schedule, minimized and ready to replay.
#[derive(Debug)]
pub struct ScheduleFailure {
    /// The schedule that first failed (`None` = the unperturbed
    /// baseline).
    pub spec: Option<ExploreSpec>,
    /// The smallest perturbation budget that still fails (present only
    /// when `spec` is a perturbed schedule).
    pub minimized: Option<ExploreSpec>,
    /// Findings of the failing run (online oracle + offline replay).
    pub findings: Vec<Finding>,
    /// Panic message if the failing run aborted.
    pub panic: Option<String>,
    /// DPOR mode: the minimized pick sequence, ready to serialize as a
    /// schedule file and replay byte-identically with `cvm run --replay`.
    pub script: Option<DporCounterexample>,
}

/// One application's check outcome.
#[derive(Debug)]
pub struct AppCheck {
    /// Application checked.
    pub app: AppId,
    /// Schedules actually run (exploration stops at the first failure).
    pub schedules_run: u64,
    /// Total scheduler decisions perturbed across all runs.
    pub decisions: u64,
    /// The first failing schedule, if any.
    pub failure: Option<ScheduleFailure>,
    /// Non-fatal caveats (e.g. trace overflow disabling the race replay).
    pub warnings: Vec<String>,
    /// Schedules whose analysis was incomplete: the protocol trace
    /// overflowed, so the offline race replay was silently skipped for
    /// that run.
    pub truncated_schedules: u64,
    /// DPOR mode: the exploration statistics.
    pub dpor: Option<DporStats>,
}

impl AppCheck {
    /// True if every schedule of this application came back clean.
    pub fn clean(&self) -> bool {
        self.failure.is_none()
    }
}

/// The full `cvm check` outcome.
#[derive(Debug)]
pub struct CheckReport {
    /// Options the check ran with (used to render replay commands).
    pub options: CheckOptions,
    /// Per-application outcomes.
    pub apps: Vec<AppCheck>,
}

impl CheckReport {
    /// True if every application came back clean.
    pub fn clean(&self) -> bool {
        self.apps.iter().all(AppCheck::clean)
    }

    /// Total incomplete-analysis schedules across all applications.
    pub fn truncated_schedules(&self) -> u64 {
        self.apps.iter().map(|a| a.truncated_schedules).sum()
    }

    /// Lint-style rendering: one status line per application, indented
    /// findings and a copy-pastable replay command per failure, closed by
    /// a one-line summary (failures and truncated schedules are always
    /// surfaced there, even when individually warned about).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for app in &self.apps {
            if let Some(stats) = &app.dpor {
                self.render_dpor(&mut out, app, stats);
                continue;
            }
            if let Some(fail) = &app.failure {
                let which = match fail.spec {
                    Some(spec) => format!("schedule seed={:#x} budget={}", spec.seed, spec.budget),
                    None => "the unperturbed baseline".to_owned(),
                };
                let _ = writeln!(
                    out,
                    "{}: FAIL after {} schedule(s) — {which}",
                    app.app, app.schedules_run
                );
                if let Some(min) = fail.minimized {
                    if min.budget == 0 {
                        let _ = writeln!(
                            out,
                            "  minimized: fails with budget 0 (schedule-independent)"
                        );
                    } else {
                        let _ = writeln!(
                            out,
                            "  minimized: seed={:#x} budget={}",
                            min.seed, min.budget
                        );
                    }
                }
                for f in &fail.findings {
                    let _ = writeln!(out, "  finding: {f}");
                }
                if let Some(p) = &fail.panic {
                    let _ = writeln!(out, "  panic: {p}");
                }
                let replay = fail.minimized.or(fail.spec);
                if let Some(spec) = replay {
                    let mut proto = if self.options.protocol == ProtocolKind::default() {
                        String::new()
                    } else {
                        format!(" --protocol {}", self.options.protocol.slug())
                    };
                    if let Some(faults) = self.options.faults {
                        let _ = write!(proto, " --faults {faults}");
                    }
                    let _ = writeln!(
                        out,
                        "  replay: cvm check --app {} --nodes {} --threads {}{proto} \
                         --schedules 1 --seed {:#x} --budget {}",
                        app.app.name().to_lowercase(),
                        self.options.nodes,
                        self.options.threads,
                        spec.seed,
                        spec.budget
                    );
                }
            } else {
                let _ = writeln!(
                    out,
                    "{}: ok — {} schedule(s), {} perturbed decisions, 0 findings",
                    app.app, app.schedules_run, app.decisions
                );
            }
            for w in &app.warnings {
                let _ = writeln!(out, "  warning: {w}");
            }
        }
        let failures = self.apps.iter().filter(|a| !a.clean()).count();
        let _ = writeln!(
            out,
            "summary: {} app(s), {failures} failure(s), {} truncated schedule(s)",
            self.apps.len(),
            self.truncated_schedules()
        );
        out
    }

    /// One application's DPOR outcome: explored-vs-naive counts on the
    /// status line, minimized schedule and replay command on failure.
    fn render_dpor(&self, out: &mut String, app: &AppCheck, stats: &DporStats) {
        if let Some(fail) = &app.failure {
            let _ = writeln!(
                out,
                "{}: FAIL after {} trace(s) — DPOR found a failing interleaving",
                app.app, stats.traces
            );
            for f in &fail.findings {
                let _ = writeln!(out, "  finding: {f}");
            }
            if let Some(p) = &fail.panic {
                let _ = writeln!(out, "  panic: {p}");
            }
            if let Some(cx) = &fail.script {
                let _ = writeln!(
                    out,
                    "  minimized: {} pick(s), {} differing from the default policy",
                    cx.choices.len(),
                    cx.perturbations
                );
                let _ = writeln!(
                    out,
                    "  replay: cvm run {} --replay {}",
                    app.app.slug(),
                    schedule_file_name(app.app)
                );
            }
        } else {
            let verdict = if stats.exhausted {
                "exhaustive".to_owned()
            } else {
                format!("CAPPED at {} traces — not exhaustive", stats.traces)
            };
            let _ = writeln!(
                out,
                "{}: ok — {verdict}, {} trace(s) explored (naive ~{}), \
                 {} sleep-set prune(s), {} backtrack(s), max frontier {}, \
                 {} distinct terminal state(s)",
                app.app,
                stats.traces,
                naive_estimate(stats),
                stats.sleep_prunes,
                stats.backtracks,
                stats.max_frontier,
                stats.distinct_states
            );
        }
        for w in &app.warnings {
            let _ = writeln!(out, "  warning: {w}");
        }
    }

    /// Machine-readable form (`"schema": "cvm-check"`), committed as
    /// `baselines/BENCH_check.json` so the regression gate covers the
    /// exploration statistics: a protocol change that silently doubles
    /// the reachable interleavings (or halves the reduction) moves these
    /// leaves past the gate.
    pub fn to_json(&self) -> JsonValue {
        let mut obj = JsonValue::object();
        obj.set("schema", "cvm-check");
        obj.set("mode", if self.options.dpor { "dpor" } else { "random" });
        obj.set("nodes", self.options.nodes);
        obj.set("threads", self.options.threads);
        obj.set("protocol", self.options.protocol.slug());
        obj.set("scale", self.options.scale.slug());
        if let Some(inject) = self.options.inject {
            obj.set("mutate", inject.to_string());
        }
        let failures = self.apps.iter().filter(|a| !a.clean()).count();
        obj.set("failures", failures);
        obj.set("truncated_schedules", self.truncated_schedules());
        let mut apps = JsonValue::array();
        for app in &self.apps {
            let mut a = JsonValue::object();
            a.set("app", app.app.slug());
            a.set("clean", app.clean());
            a.set("schedules_run", app.schedules_run);
            a.set("truncated_schedules", app.truncated_schedules);
            if let Some(stats) = &app.dpor {
                let mut d = JsonValue::object();
                d.set("traces", stats.traces);
                d.set("naive_log10", stats.naive_log10);
                d.set("sleep_prunes", stats.sleep_prunes);
                d.set("backtracks", stats.backtracks);
                d.set("max_frontier", stats.max_frontier);
                d.set("max_depth", stats.max_depth);
                d.set("distinct_states", stats.distinct_states);
                d.set("exhausted", stats.exhausted);
                a.set("dpor", d);
            }
            if let Some(fail) = &app.failure {
                let mut f = JsonValue::object();
                let findings: Vec<String> = fail.findings.iter().map(ToString::to_string).collect();
                f.set("findings", findings);
                if let Some(p) = &fail.panic {
                    f.set("panic", p.as_str());
                }
                if let Some(cx) = &fail.script {
                    f.set("perturbations", cx.perturbations);
                    f.set("picks", cx.choices.len());
                }
                a.set("failure", f);
            }
            apps.push(a);
        }
        obj.set("apps", apps);
        obj
    }
}

/// The schedule file `cvm check --dpor` writes for a failing app (and
/// the render's replay command references).
pub fn schedule_file_name(app: AppId) -> String {
    format!("cvm-schedule-{}.json", app.slug())
}

/// Human form of the naive interleaving count: exact while it fits
/// comfortably, order-of-magnitude beyond that.
fn naive_estimate(stats: &DporStats) -> String {
    if stats.naive < 1_000_000_000 {
        format!("{}", stats.naive)
    } else {
        format!("10^{:.1}", stats.naive_log10)
    }
}

fn check_app_dpor(options: &CheckOptions, app: AppId) -> AppCheck {
    let report = dpor_check(
        options.plan(app),
        &DporOptions {
            max_traces: options.max_traces,
        },
    );
    let mut warnings = Vec::new();
    if report.stats.truncated {
        warnings.push(format!(
            "exploration capped at {} trace(s); raise --max-traces for an \
             exhaustive verdict",
            report.stats.traces
        ));
    }
    if report.stats.overflowed > 0 {
        warnings.push(format!(
            "{} trace(s) overflowed the protocol trace buffer — race \
             replay skipped for those terminal states",
            report.stats.overflowed
        ));
    }
    let failure = report.counterexample.map(|cx| ScheduleFailure {
        spec: None,
        minimized: None,
        findings: cx.findings.clone(),
        panic: cx.panic.clone(),
        script: Some(cx),
    });
    AppCheck {
        app,
        schedules_run: report.stats.traces,
        decisions: 0,
        failure,
        warnings,
        truncated_schedules: report.stats.overflowed,
        dpor: Some(report.stats),
    }
}

/// Checks one application — one cell of the `cvm check` campaign. Random
/// mode: an unperturbed baseline followed by `schedules` seeded
/// perturbations, stopping at (and minimizing) the first failure. DPOR
/// mode: exhaustive exploration of every inequivalent interleaving.
pub fn check_app(options: &CheckOptions, app: AppId) -> AppCheck {
    if options.dpor {
        return check_app_dpor(options, app);
    }
    let plan = options.plan(app);
    let mut decisions = 0;
    let mut warnings = Vec::new();
    let mut schedules_run = 0;
    let mut truncated_schedules = 0;
    // Baseline first: the configured policy, no perturbation.
    let specs =
        std::iter::once(None).chain((0..options.schedules).map(|i| Some(options.spec_of(i))));
    for spec in specs {
        let mut result = run_schedule(plan, spec);
        schedules_run += 1;
        // Free the report (and its trace) before any minimizing re-run.
        decisions += result.report.take().map_or(0, |r| r.explore_decisions);
        if result.trace_dropped > 0 {
            truncated_schedules += 1;
            if warnings.is_empty() {
                warnings.push(format!(
                    "trace overflowed ({} events dropped) — race replay skipped; \
                     raise the trace capacity to restore it",
                    result.trace_dropped
                ));
            }
        }
        if result.failed() {
            let minimized = spec.map(|s| minimize(plan, s, 16));
            return AppCheck {
                app,
                schedules_run,
                decisions,
                failure: Some(ScheduleFailure {
                    spec,
                    minimized,
                    findings: result.findings,
                    panic: result.panic,
                    script: None,
                }),
                warnings,
                truncated_schedules,
                dpor: None,
            };
        }
    }
    AppCheck {
        app,
        schedules_run,
        decisions,
        failure: None,
        warnings,
        truncated_schedules,
        dpor: None,
    }
}
