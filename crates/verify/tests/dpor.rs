//! The DPOR model checker end-to-end: deterministic scripted replay,
//! exhaustive exploration of tiny kernels under all three protocols, and
//! mutation self-tests (a checker that cannot find seeded bugs proves
//! nothing by finding none).

use cvm_apps::{AppId, Scale};
use cvm_dsm::{InjectFault, ProtocolKind};
use cvm_verify::{dpor_check, run_scripted, DporOptions};
use cvm_verify::{schedule_from_json, schedule_to_json};

fn plan(app: AppId, protocol: ProtocolKind) -> cvm_verify::explore::RunPlan {
    cvm_verify::explore::RunPlan {
        app,
        scale: Scale::Tiny,
        nodes: 2,
        threads: 2,
        protocol,
        inject: None,
        faults: None,
        trace_capacity: 4_000_000,
        seed: cvm_dsm::DEFAULT_SEED,
    }
}

#[test]
fn scripted_replay_is_byte_identical() {
    let p = plan(AppId::Sor, ProtocolKind::LazyMultiWriter);
    let a = run_scripted(p, &[]);
    let b = run_scripted(p, &[]);
    assert!(!a.failed(), "baseline must be clean: {:?}", a.findings);
    assert_eq!(a.state_hash(), b.state_hash(), "terminal state must replay");
    assert_eq!(a.steps(), b.steps(), "step log must replay");
    assert!(!a.steps().is_empty(), "scheduling points were recorded");
    // Re-pinning the observed choices reproduces the same execution.
    let choices: Vec<u32> = a.steps().iter().map(|s| s.chosen).collect();
    let c = run_scripted(p, &choices);
    assert_eq!(a.state_hash(), c.state_hash());
    assert_eq!(a.steps(), c.steps());
}

#[test]
fn perturbed_prefix_changes_the_pick() {
    let p = plan(AppId::Sor, ProtocolKind::LazyMultiWriter);
    let base = run_scripted(p, &[]);
    // Find the first point with a real choice and flip it.
    let k = base
        .steps()
        .iter()
        .position(|s| s.enabled.len() > 1)
        .expect("a 2-thread node has contended picks");
    let mut choices = vec![0u32; k + 1];
    choices[k] = 1;
    let flipped = run_scripted(p, &choices);
    assert_eq!(
        flipped.steps()[k].chosen,
        1,
        "the scripted pick must be honored"
    );
    assert_eq!(
        base.steps()[..k],
        flipped.steps()[..k],
        "the unperturbed prefix must replay identically"
    );
}

#[test]
fn dpor_exhausts_tiny_sor_under_every_protocol() {
    for protocol in [
        ProtocolKind::LazyMultiWriter,
        ProtocolKind::EagerUpdate,
        ProtocolKind::HomeLazy,
    ] {
        let report = dpor_check(plan(AppId::Sor, protocol), &DporOptions::default());
        assert!(
            report.counterexample.is_none(),
            "{protocol:?}: unexpected counterexample: {:?}",
            report.counterexample
        );
        assert!(
            report.stats.exhausted,
            "{protocol:?}: search must terminate (ran {} traces)",
            report.stats.traces
        );
        assert!(report.stats.traces >= 1);
        assert!(
            report.stats.naive_log10 >= (report.stats.traces as f64).log10(),
            "{protocol:?}: reduction must not exceed the naive count"
        );
    }
}

#[test]
fn dpor_catches_skip_watermark_mutant() {
    let mut p = plan(AppId::Sor, ProtocolKind::HomeLazy);
    p.inject = Some(InjectFault::SkipHomeWatermark { nth: 1 });
    let report = dpor_check(p, &DporOptions::default());
    let cx = report
        .counterexample
        .expect("DPOR must find the skipped watermark check");
    assert!(
        !cx.findings.is_empty() || cx.panic.is_some(),
        "counterexample carries evidence"
    );
    // The minimized schedule replays to the same failure and state.
    let replay = run_scripted(p, &cx.choices);
    assert!(replay.failed(), "minimized counterexample must reproduce");
    assert_eq!(
        replay.state_hash(),
        cx.state_hash,
        "replay is byte-identical"
    );
}

#[test]
fn dpor_catches_drop_grant_notice_mutant() {
    let mut p = plan(AppId::Sor, ProtocolKind::LazyMultiWriter);
    p.inject = Some(InjectFault::DropGrantNotice { nth: 1 });
    let report = dpor_check(p, &DporOptions::default());
    let cx = report
        .counterexample
        .expect("DPOR must find the dropped lock-grant notice");
    let replay = run_scripted(p, &cx.choices);
    assert!(replay.failed(), "minimized counterexample must reproduce");
    assert_eq!(
        replay.state_hash(),
        cx.state_hash,
        "replay is byte-identical"
    );
    // The schedule file round-trips into the same replay.
    let doc = schedule_to_json(&p, &cx);
    let parsed = schedule_from_json(&doc).expect("parse back");
    let again = run_scripted(parsed.plan, &parsed.choices);
    assert!(again.failed());
    assert_eq!(again.state_hash(), parsed.state_hash);
}

#[test]
fn dpor_cap_reports_truncation() {
    let report = dpor_check(
        plan(AppId::Sor, ProtocolKind::LazyMultiWriter),
        &DporOptions { max_traces: 1 },
    );
    assert!(report.counterexample.is_none());
    assert!(!report.stats.exhausted);
    assert!(report.stats.truncated, "cap must be surfaced, not silent");
    assert_eq!(report.stats.traces, 1);
}

/// Not an assertion-heavy test: prints the exploration statistics so CI
/// logs show the explored-vs-naive reduction at a glance.
#[test]
fn dpor_stats_probe() {
    let report = dpor_check(
        plan(AppId::Sor, ProtocolKind::LazyMultiWriter),
        &DporOptions::default(),
    );
    let s = &report.stats;
    println!(
        "sor/lazy-mw tiny 2x2: traces={} naive~10^{:.1} prunes={} backtracks={} \
         frontier={} depth={} states={} exhausted={}",
        s.traces,
        s.naive_log10,
        s.sleep_prunes,
        s.backtracks,
        s.max_frontier,
        s.max_depth,
        s.distinct_states,
        s.exhausted
    );
    assert!(s.exhausted || s.truncated);
}
