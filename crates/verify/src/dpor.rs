//! Exhaustive stateless model checking via dynamic partial-order
//! reduction (Flanagan & Godefroid, POPL 2005), over the scheduler's
//! only source of nondeterminism: the per-node ready-queue pick.
//!
//! Every run of a [`RunPlan`] is a deterministic function of the sequence
//! of pick decisions, so the checker explores the tree of pick sequences
//! depth-first, re-executing from scratch with the prefix pinned by a
//! [`ScheduleScript`](cvm_sim::ScheduleScript) (stateless search: no
//! state saving, just replay). At each scheduling point the executed run
//! reports the *enabled* set and the step's page/lock footprint; the
//! analysis then decides which alternative picks can be skipped:
//!
//! * An alternative thread `u` at point `k` whose next step commutes
//!   (per [`dependent`]) with everything executed between `k` and that
//!   step leads to a Mazurkiewicz-equivalent trace — pruned, counted in
//!   [`DporStats::sleep_prunes`].
//! * Otherwise the reordering is observable and `u` joins the backtrack
//!   set of point `k` ([`DporStats::backtracks`]). Alternatives whose
//!   thread never runs again in the observed suffix are conservatively
//!   explored too (they may be blocked *because* of the current order).
//!
//! Every terminal state runs the full oracle battery (lost-update /
//! exactly-once invariants online, vector-clock race replay offline), so
//! "explored exhaustively with 0 findings" means: no interleaving of
//! this kernel, under this protocol, violates the coherence contract.
//!
//! Failures are minimized (each scripted pick is reverted to the default
//! policy if the failure persists) and exported as a replayable schedule
//! file — `cvm run <app> --replay FILE` re-executes it byte-identically,
//! asserting the terminal state fingerprint, the findings and the panic
//! all match.

use std::collections::{BTreeSet, HashSet};

use cvm_apps::{AppId, Scale};
use cvm_dsm::{Finding, InjectFault, ProtocolKind};
use cvm_sim::json::JsonValue;
use cvm_sim::StepRecord;

use crate::explore::{run_scripted, CheckedRun, RunPlan};
use crate::indep::dependent;

/// Tuning knobs for the DPOR exploration.
#[derive(Debug, Clone, Copy)]
pub struct DporOptions {
    /// Hard cap on executions; hitting it sets [`DporStats::truncated`]
    /// instead of looping for hours on an unexpectedly wide kernel.
    pub max_traces: u64,
}

impl Default for DporOptions {
    fn default() -> Self {
        DporOptions { max_traces: 20_000 }
    }
}

/// Exploration statistics, reported next to the verdict.
#[derive(Debug, Clone, Copy, Default)]
pub struct DporStats {
    /// Executions actually run.
    pub traces: u64,
    /// Naive interleaving count (product of enabled-set sizes along the
    /// first trace — what a schedule enumerator without reduction would
    /// face), saturating at `u128::MAX`.
    pub naive: u128,
    /// `log10` of the naive count, for rendering astronomically large
    /// products.
    pub naive_log10: f64,
    /// Alternatives skipped because they provably lead to an equivalent
    /// trace (the sleep-set side of the reduction).
    pub sleep_prunes: u64,
    /// Alternatives added to backtrack sets (each is one future trace).
    pub backtracks: u64,
    /// Largest pending-alternative frontier (sum of backtrack-set sizes
    /// over the DFS stack) at any point.
    pub max_frontier: usize,
    /// Deepest execution, in scheduling points.
    pub max_depth: usize,
    /// Distinct terminal-state fingerprints among clean executions.
    pub distinct_states: usize,
    /// Executions whose protocol trace overflowed, silently skipping the
    /// offline race replay for that terminal state (surfaced as
    /// truncated schedules in `cvm check`).
    pub overflowed: u64,
    /// True if `max_traces` stopped the search before the frontier
    /// emptied, or a step log overflowed (analysis incomplete).
    pub truncated: bool,
    /// True if the frontier emptied: every Mazurkiewicz class reachable
    /// under the dependence over-approximation has been executed.
    pub exhausted: bool,
}

/// A failing pick sequence, minimized and ready to replay.
#[derive(Debug, Clone)]
pub struct DporCounterexample {
    /// Scheduler picks reproducing the failure (index `i` picks the
    /// `choices[i]`-th ready thread at scheduling point `i`).
    pub choices: Vec<u32>,
    /// Picks that differ from the default (FIFO) policy — the
    /// counterexample's size in the sense the minimizer optimizes.
    pub perturbations: usize,
    /// Findings of the failing run.
    pub findings: Vec<Finding>,
    /// Panic message if the failing run aborted.
    pub panic: Option<String>,
    /// Terminal-state fingerprint of the failing run (`0` on panic) —
    /// replays assert against it.
    pub state_hash: u64,
}

/// The outcome of one DPOR exploration.
#[derive(Debug)]
pub struct DporReport {
    /// Exploration statistics.
    pub stats: DporStats,
    /// The first failure found, if any (the search stops at it).
    pub counterexample: Option<DporCounterexample>,
}

/// One scheduling point on the DFS stack.
#[derive(Debug)]
struct Point {
    /// Ready thread ids (per-node) observed at this point.
    enabled: Vec<u32>,
    /// Owning node of this scheduling point.
    node: u32,
    /// Index into `enabled` currently pinned by the script.
    chosen: u32,
    /// Indices already executed from this point.
    done: BTreeSet<u32>,
    /// Indices still to execute (the backtrack set).
    todo: BTreeSet<u32>,
    /// Indices pruned as equivalent so far. A pruned alternative is
    /// re-examined on every execution through this point — a later
    /// suffix can reveal a dependence the first one hid — but is only
    /// counted once, and graduates to `todo` if that happens.
    pruned: BTreeSet<u32>,
}

/// Explores all inequivalent schedules of `plan`, stopping at the first
/// failure. Rejects plans with fault injection via the wire (`faults`):
/// lossy-wire timer nondeterminism is not captured by the pick script,
/// so replay would not be deterministic.
///
/// # Panics
///
/// Panics if `plan.faults` is set.
pub fn dpor_check(plan: RunPlan, options: &DporOptions) -> DporReport {
    assert!(
        plan.faults.is_none(),
        "DPOR requires a deterministic wire; fault plans are not supported"
    );
    let mut stats = DporStats::default();
    let mut stack: Vec<Point> = Vec::new();
    let mut terminal = HashSet::new();
    loop {
        let choices: Vec<u32> = stack.iter().map(|p| p.chosen).collect();
        let result = run_scripted(plan, &choices);
        stats.traces += 1;
        if stats.traces == 1 {
            let mut product: u128 = 1;
            let mut log10 = 0.0f64;
            for s in result.steps() {
                let n = s.enabled.len().max(1) as u128;
                product = product.saturating_mul(n);
                log10 += (n as f64).log10();
            }
            stats.naive = product;
            stats.naive_log10 = log10;
        }
        if result.failed() {
            let cx = minimize_counterexample(plan, choices, &result);
            stats.distinct_states = terminal.len();
            return DporReport {
                stats,
                counterexample: Some(cx),
            };
        }
        if result.steps_dropped() > 0 {
            stats.truncated = true;
        }
        if result.trace_dropped > 0 {
            stats.overflowed += 1;
        }
        terminal.insert(result.state_hash());
        stats.max_depth = stats.max_depth.max(result.steps().len());

        // Extend the stack with the scheduling points beyond the pinned
        // prefix (the prefix itself replayed identically by construction).
        for s in &result.steps()[stack.len()..] {
            stack.push(Point {
                enabled: s.enabled.clone(),
                node: s.node,
                chosen: s.chosen,
                done: BTreeSet::from([s.chosen]),
                todo: BTreeSet::new(),
                pruned: BTreeSet::new(),
            });
        }
        analyze(&mut stack, result.steps(), &mut stats);
        let frontier: usize = stack.iter().map(|p| p.todo.len()).sum();
        stats.max_frontier = stats.max_frontier.max(frontier);

        if stats.truncated || stats.traces >= options.max_traces {
            stats.truncated = true;
            break;
        }
        // Deepest-first backtracking: pop exhausted points, then take the
        // smallest pending alternative of the deepest live point.
        let mut advanced = false;
        while let Some(p) = stack.last_mut() {
            if let Some(&u) = p.todo.iter().next() {
                p.todo.remove(&u);
                p.done.insert(u);
                p.chosen = u;
                advanced = true;
                break;
            }
            stack.pop();
        }
        if !advanced {
            stats.exhausted = true;
            break;
        }
    }
    stats.distinct_states = terminal.len();
    DporReport {
        stats,
        counterexample: None,
    }
}

/// The Flanagan–Godefroid update: for every point `k` with more than one
/// enabled thread and every untried alternative `u`, find `u`'s next step
/// `m` in the observed trace. If anything in `steps[k..m]` is dependent
/// with `steps[m]`, running `u` first is observably different — add it to
/// the backtrack set. Otherwise the swap commutes all the way and the
/// resulting trace is equivalent — prune. Alternatives that never run
/// again are explored conservatively.
fn analyze(stack: &mut [Point], steps: &[StepRecord], stats: &mut DporStats) {
    for (k, point) in stack.iter_mut().enumerate() {
        if point.enabled.len() < 2 {
            continue;
        }
        for ui in 0..point.enabled.len() {
            let ui = u32::try_from(ui).expect("enabled set fits u32");
            if point.done.contains(&ui) || point.todo.contains(&ui) {
                continue;
            }
            let tid = point.enabled[ui as usize];
            let next = steps[k + 1..]
                .iter()
                .position(|s| s.node == point.node && s.thread == tid)
                .map(|off| k + 1 + off);
            let must_explore = match next {
                // Never ran again: possibly blocked by the current order.
                None => true,
                Some(m) => steps[k..m].iter().any(|l| dependent(l, &steps[m])),
            };
            if must_explore {
                point.pruned.remove(&ui);
                point.todo.insert(ui);
                stats.backtracks += 1;
            } else if point.pruned.insert(ui) {
                stats.sleep_prunes += 1;
            }
        }
    }
}

/// Minimizes a failing pick sequence: reverts each non-default pick to
/// the default policy (index 0, FIFO) one at a time, keeping reversions
/// that still fail, then drops the now-redundant zero tail.
fn minimize_counterexample(
    plan: RunPlan,
    mut choices: Vec<u32>,
    first: &CheckedRun,
) -> DporCounterexample {
    let mut findings = first.findings.clone();
    let mut panic = first.panic.clone();
    let mut state_hash = first.state_hash();
    for i in 0..choices.len() {
        if choices[i] == 0 {
            continue;
        }
        let saved = choices[i];
        choices[i] = 0;
        let probe = run_scripted(plan, &choices);
        if probe.failed() {
            state_hash = probe.state_hash();
            findings = probe.findings;
            panic = probe.panic;
        } else {
            choices[i] = saved;
        }
    }
    while choices.last() == Some(&0) {
        choices.pop();
    }
    let perturbations = choices.iter().filter(|&&c| c != 0).count();
    DporCounterexample {
        choices,
        perturbations,
        findings,
        panic,
        state_hash,
    }
}

/// A parsed schedule file: everything needed to re-execute a
/// counterexample byte-identically.
#[derive(Debug)]
pub struct ScheduleFile {
    /// The run to repeat (fault plans are never carried — DPOR rejects
    /// them).
    pub plan: RunPlan,
    /// The pinned pick sequence.
    pub choices: Vec<u32>,
    /// Expected terminal-state fingerprint (`0` when the failing run
    /// panicked before reaching a terminal state).
    pub state_hash: u64,
    /// The recorded run's findings, rendered.
    pub findings: Vec<String>,
    /// The recorded run's panic message, if it aborted.
    pub panic: Option<String>,
}

/// Serializes a counterexample as a replayable schedule document
/// (`"schema": "cvm-schedule"`).
pub fn schedule_to_json(plan: &RunPlan, cx: &DporCounterexample) -> JsonValue {
    let mut obj = JsonValue::object();
    obj.set("schema", "cvm-schedule");
    obj.set("app", plan.app.slug());
    obj.set("scale", plan.scale.slug());
    obj.set("nodes", plan.nodes);
    obj.set("threads", plan.threads);
    obj.set("protocol", plan.protocol.slug());
    obj.set("seed", plan.seed);
    if let Some(inject) = plan.inject {
        obj.set("mutate", inject.to_string());
    }
    obj.set("choices", cx.choices.clone());
    obj.set("state_hash", format!("{:016x}", cx.state_hash));
    obj.set("perturbations", cx.perturbations);
    let findings: Vec<String> = cx.findings.iter().map(ToString::to_string).collect();
    obj.set("findings", findings);
    if let Some(p) = &cx.panic {
        obj.set("panic", p.as_str());
    }
    obj
}

/// Parses a schedule document produced by [`schedule_to_json`], refusing
/// a geometry the run could not start with.
pub fn schedule_from_json(doc: &JsonValue) -> Result<ScheduleFile, String> {
    if doc.get("schema").and_then(JsonValue::as_str) != Some("cvm-schedule") {
        return Err("not a cvm-schedule document".to_owned());
    }
    let field = |name: &str| doc.get(name).ok_or_else(|| format!("missing '{name}'"));
    let app = field("app")?
        .as_str()
        .and_then(AppId::parse)
        .ok_or("bad 'app'")?;
    let scale = field("scale")?
        .as_str()
        .and_then(Scale::parse)
        .ok_or("bad 'scale'")?;
    let count = |name: &str, ok: &dyn Fn(usize) -> bool| {
        let n = field(name)?.as_u64().and_then(|n| usize::try_from(n).ok());
        n.filter(|&n| n > 0 && ok(n))
            .ok_or_else(|| format!("bad '{name}'"))
    };
    let nodes = count("nodes", &|_| true)?;
    let threads = count("threads", &|t| app.supports_threads(t))?;
    let seed = field("seed")?.as_u64().ok_or("bad 'seed'")?;
    let protocol = field("protocol")?
        .as_str()
        .and_then(ProtocolKind::parse)
        .ok_or("bad 'protocol'")?;
    let inject = match doc.get("mutate") {
        None | Some(JsonValue::Null) => None,
        Some(v) => Some(
            v.as_str()
                .and_then(InjectFault::parse)
                .ok_or("bad 'mutate'")?,
        ),
    };
    let choices = field("choices")?
        .as_array()
        .ok_or("bad 'choices'")?
        .iter()
        .map(|v| {
            v.as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or("bad pick in 'choices'")
        })
        .collect::<Result<Vec<u32>, _>>()?;
    let state_hash = field("state_hash")?
        .as_str()
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or("bad 'state_hash'")?;
    let findings = field("findings")?
        .as_array()
        .ok_or("bad 'findings'")?
        .iter()
        .map(|f| f.as_str().map(str::to_owned).ok_or("bad 'findings'"))
        .collect::<Result<Vec<String>, _>>()?;
    let panic = doc.get("panic").map(|p| p.as_str().map(str::to_owned));
    let panic = panic.map(|p| p.ok_or("bad 'panic'")).transpose()?;
    Ok(ScheduleFile {
        plan: RunPlan {
            app,
            scale,
            nodes,
            threads,
            protocol,
            inject,
            faults: None,
            trace_capacity: 4_000_000,
            seed,
        },
        choices,
        state_hash,
        findings,
        panic,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cx() -> DporCounterexample {
        DporCounterexample {
            choices: vec![0, 1, 0, 1],
            perturbations: 2,
            findings: Vec::new(),
            panic: Some("boom".to_owned()),
            state_hash: 0xDEAD_BEEF,
        }
    }

    fn plan(app: AppId, threads: usize) -> RunPlan {
        RunPlan {
            app,
            scale: Scale::Tiny,
            nodes: 2,
            threads,
            protocol: ProtocolKind::HomeLazy,
            inject: Some(InjectFault::SkipHomeWatermark { nth: 1 }),
            faults: None,
            trace_capacity: 4_000_000,
            seed: 0xFACE_F00D_0000_0001,
        }
    }

    #[test]
    fn schedule_document_round_trips() {
        let plan = plan(AppId::Sor, 2);
        let doc = schedule_to_json(&plan, &cx());
        let parsed = schedule_from_json(&doc).expect("round trip");
        assert_eq!(parsed.plan.app, plan.app);
        assert_eq!(parsed.plan.scale, plan.scale);
        assert_eq!(parsed.plan.nodes, plan.nodes);
        assert_eq!(parsed.plan.protocol, plan.protocol);
        assert_eq!(parsed.plan.inject, plan.inject);
        assert_eq!(parsed.plan.seed, plan.seed);
        assert_eq!(parsed.choices, vec![0, 1, 0, 1]);
        assert_eq!(parsed.state_hash, 0xDEAD_BEEF);
        assert_eq!(parsed.findings, Vec::<String>::new());
        assert_eq!(parsed.panic.as_deref(), Some("boom"));
    }

    #[test]
    fn schedule_parse_rejects_garbage() {
        assert!(schedule_from_json(&JsonValue::object()).is_err());
        let doc = schedule_to_json(&plan(AppId::Fft, 1), &cx());
        for (key, value, error) in [
            ("protocol", JsonValue::from("bogus"), "bad 'protocol'"),
            ("nodes", JsonValue::from(0u64), "bad 'nodes'"),
            ("threads", JsonValue::from(0u64), "bad 'threads'"),
            ("seed", JsonValue::from("x"), "bad 'seed'"),
            ("findings", JsonValue::from(7u64), "bad 'findings'"),
        ] {
            let mut bad = doc.clone();
            bad.set(key, value);
            assert_eq!(schedule_from_json(&bad).unwrap_err(), error, "{key}");
        }
        // Ocean runs only power-of-two threads per node.
        let mut ocean = schedule_to_json(&plan(AppId::Ocean, 2), &cx());
        ocean.set("threads", 3u64);
        assert_eq!(schedule_from_json(&ocean).unwrap_err(), "bad 'threads'");
    }
}
