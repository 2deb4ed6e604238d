//! Qualitative claims of the paper, asserted as tests. These are the
//! "shape" checks of the reproduction: who wins, what grows, what stays
//! flat. All run at laptop scale under the paper network.

use cvm_apps::water_nsq::WaterNsqOpt;
use cvm_apps::{AppId, Scale, Variant};
use cvm_harness::runner::{run_app, RunOutcome, RunSpec};
use cvm_net::MsgClass;

fn run(app: AppId, nodes: usize, threads: usize) -> RunOutcome {
    run_app(RunSpec::new(app, Scale::Small, nodes, threads))
}

/// One of Table 5's Water-Nsq programs at P=8.
fn nsq(opt: WaterNsqOpt, threads: usize) -> RunOutcome {
    run_app(RunSpec {
        variant: Some(Variant::WaterNsq(opt)),
        ..RunSpec::new(AppId::WaterNsq, Scale::Small, 8, threads)
    })
}

/// "There is essentially no change in the number of lock messages as the
/// degree of multi-threading increases" (Table 2 discussion).
#[test]
fn lock_messages_flat_across_thread_levels() {
    let base = run(AppId::WaterNsq, 8, 1).msgs(MsgClass::Lock);
    let t4 = run(AppId::WaterNsq, 8, 4).msgs(MsgClass::Lock);
    let drift = (t4 as f64 - base as f64).abs() / base as f64;
    assert!(
        drift < 0.10,
        "lock messages should stay ~flat: {base} -> {t4}"
    );
}

/// SOR's diffs are essentially constant across thread levels: inner
/// boundaries created by extra threads are node-local (Table 2: 1162 at
/// every T; our 768-column rows straddle page boundaries, so a ~1% wiggle
/// from boundary-page timing is tolerated).
#[test]
fn sor_diff_traffic_independent_of_threads() {
    let base = run(AppId::Sor, 8, 1).report.stats.diffs_created as f64;
    for t in [2usize, 4] {
        let o = run(AppId::Sor, 8, t).report.stats.diffs_created as f64;
        assert!(
            (o - base).abs() / base < 0.02,
            "SOR diffs must stay ~flat (T={t}): {base} -> {o}"
        );
    }
}

/// The famous FFT three-thread spike: misaligned row blocks cause extra
/// diff traffic at T=3 but not at T=2 or T=4 (Figure 1 / Table 2).
#[test]
fn fft_three_thread_spike() {
    let d2 = run(AppId::Fft, 8, 2).msgs(MsgClass::Diff);
    let d3 = run(AppId::Fft, 8, 3).msgs(MsgClass::Diff);
    let d4 = run(AppId::Fft, 8, 4).msgs(MsgClass::Diff);
    assert!(
        d3 as f64 > 1.2 * d2 as f64 && d3 as f64 > 1.2 * d4 as f64,
        "expected spike at 3 threads: {d2} / {d3} / {d4}"
    );
}

/// Multi-threading must actually overlap remote requests: outstanding
/// counters are zero at one thread and positive beyond.
#[test]
fn request_overlap_appears_with_threads() {
    for app in [AppId::Sor, AppId::Ocean] {
        let t1 = run(app, 8, 1);
        let t4 = run(app, 8, 4);
        assert_eq!(t1.report.stats.outstanding_faults, 0, "{app}: T=1");
        assert!(
            t4.report.stats.outstanding_faults > 0,
            "{app}: no overlap at T=4"
        );
        assert_eq!(t1.report.stats.thread_switches, 0);
        assert!(t4.report.stats.thread_switches > 0);
    }
}

/// Table 5's contrast: transparent multi-threading makes threads pile up
/// on the same locks; the local-barrier modification eliminates that
/// entirely ("we never had multiple threads block on the same lock").
#[test]
fn water_nsq_opts_eliminate_block_same_lock() {
    let noopt = nsq(WaterNsqOpt::NoOpts, 4);
    let both = nsq(WaterNsqOpt::BothOpts, 4);
    assert!(
        noopt.report.stats.block_same_lock > 0,
        "NoOpts must show local lock contention"
    );
    assert_eq!(
        both.report.stats.block_same_lock, 0,
        "BothOpts must never block two threads on one lock"
    );
    assert!(
        noopt.time_ms() > both.time_ms(),
        "the optimizations must pay off ({} vs {} ms)",
        noopt.time_ms(),
        both.time_ms()
    );
}

/// Read reordering (the `s` modification) reduces Block Same Page
/// relative to the plain local-barrier variant... or at least never
/// worsens the run (the paper saw a small win for two threads).
#[test]
fn read_reordering_helps_block_same_page() {
    let lb = nsq(WaterNsqOpt::LocalBarrier, 2);
    let both = nsq(WaterNsqOpt::BothOpts, 2);
    assert!(
        both.report.stats.block_same_page <= lb.report.stats.block_same_page,
        "reordering should not increase BSP: {} vs {}",
        both.report.stats.block_same_page,
        lb.report.stats.block_same_page
    );
}

/// Multi-threading speeds up the latency-bound applications at 8 nodes.
#[test]
fn multithreading_speeds_up_latency_bound_apps() {
    for app in [AppId::Ocean, AppId::WaterNsq] {
        let t1 = run(app, 8, 1).time_ms();
        let t4 = run(app, 8, 4).time_ms();
        assert!(
            t4 < t1,
            "{app}: expected T=4 ({t4} ms) faster than T=1 ({t1} ms)"
        );
    }
}

/// Barrier-arrival aggregation: disabling it multiplies barrier messages
/// by the thread count.
#[test]
fn barrier_aggregation_saves_messages() {
    let mut spec = RunSpec::new(AppId::Sor, Scale::Small, 4, 4);
    let with = run_app(spec);
    spec.aggregate_barriers = false;
    let without = run_app(spec);
    assert_eq!(
        without.msgs(MsgClass::Barrier),
        4 * with.msgs(MsgClass::Barrier),
        "non-aggregated barriers cost T x messages"
    );
}
