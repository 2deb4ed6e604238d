//! API-surface tests: the pieces a downstream user composes directly —
//! context metadata, yields, work charging, shared matrices, run-report
//! accessors, the harness runner — behave as documented.

use cvm_dsm::{CvmBuilder, CvmConfig, SharedMat};
use cvm_harness::runner::{run_app, RunSpec};
use cvm_harness::{AppId, Scale};
use cvm_net::MsgClass;
use cvm_sim::SimDuration;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[test]
fn ctx_metadata_is_consistent() {
    let seen = Arc::new(AtomicU64::new(0));
    let seen2 = Arc::clone(&seen);
    let b = CvmBuilder::new(CvmConfig::small(3, 2));
    b.run(move |ctx| {
        assert_eq!(ctx.nodes(), 3);
        assert_eq!(ctx.threads_per_node(), 2);
        assert_eq!(ctx.total_threads(), 6);
        assert_eq!(ctx.global_id(), ctx.node() * 2 + ctx.local_id());
        assert!(ctx.local_id() < 2);
        seen2.fetch_or(1 << ctx.global_id(), Ordering::SeqCst);
        ctx.barrier();
    });
    assert_eq!(
        seen.load(Ordering::SeqCst),
        0b11_1111,
        "all six threads ran"
    );
}

#[test]
fn work_charges_virtual_time() {
    let run = |work_us: u64| {
        let b = CvmBuilder::new(CvmConfig::small(1, 1));
        let report = b.run(move |ctx| {
            ctx.startup_done();
            ctx.work(SimDuration::from_us(work_us));
            ctx.barrier();
        });
        report.total_time.as_us_f64()
    };
    let short = run(100);
    let long = run(10_100);
    assert!(
        (long - short - 10_000.0).abs() < 1.0,
        "work must charge exactly: {short} vs {long}"
    );
}

#[test]
fn yield_now_round_robins_without_messages() {
    let b = CvmBuilder::new(CvmConfig::small(1, 3));
    let report = b.run(move |ctx| {
        ctx.startup_done();
        for _ in 0..10 {
            ctx.yield_now();
        }
    });
    assert!(report.stats.thread_switches >= 20, "yields must switch");
    assert_eq!(report.net.total_count(), 0);
}

#[test]
fn shared_mat_round_trips_values() {
    let mut b = CvmBuilder::new(CvmConfig::small(2, 1));
    let m: SharedMat<i64> = b.alloc_mat(5, 7);
    let ok = Arc::new(AtomicU64::new(0));
    let ok2 = Arc::clone(&ok);
    b.run(move |ctx| {
        if ctx.global_id() == 0 {
            for r in 0..5 {
                for c in 0..7 {
                    m.write(ctx, r, c, (r * 10 + c) as i64);
                }
            }
        }
        ctx.startup_done();
        ctx.barrier();
        if ctx.node() == 1 {
            let mut good = true;
            for r in 0..5 {
                for c in 0..7 {
                    good &= m.read(ctx, r, c) == (r * 10 + c) as i64;
                }
            }
            ok2.store(good as u64, Ordering::SeqCst);
        }
        ctx.barrier();
    });
    assert_eq!(ok.load(Ordering::SeqCst), 1);
}

#[test]
fn per_thread_rngs_are_independent_and_reproducible() {
    let sample = || {
        let draws = Arc::new(parking_lot_mutex());
        let d2 = Arc::clone(&draws);
        let b = CvmBuilder::new(CvmConfig::small(2, 2));
        b.run(move |ctx| {
            let v = ctx.rng().next_u64();
            d2.lock().unwrap().push((ctx.global_id(), v));
            ctx.barrier();
        });
        let mut out = Arc::try_unwrap(draws).unwrap().into_inner().unwrap();
        out.sort();
        out
    };
    let a = sample();
    let b = sample();
    assert_eq!(a, b, "same seed, same per-thread draws");
    let values: std::collections::HashSet<u64> = a.iter().map(|&(_, v)| v).collect();
    assert_eq!(values.len(), 4, "threads draw distinct streams");
}

fn parking_lot_mutex() -> std::sync::Mutex<Vec<(usize, u64)>> {
    std::sync::Mutex::new(Vec::new())
}

#[test]
fn runner_outcome_accessors_are_consistent() {
    let o = run_app(RunSpec::new(AppId::Sor, Scale::Small, 4, 1));
    assert!(o.time_ms() > 0.0);
    let sum = o.msgs(MsgClass::Barrier) + o.msgs(MsgClass::Lock) + o.msgs(MsgClass::Diff);
    assert!(sum <= o.total_msgs());
    assert!(o.bw_kb() > 0);
    assert!(o.delay_ms(MsgClass::Other) == 0.0);
}

#[test]
fn table_emitters_mention_every_app() {
    use cvm_harness::tables::{self, Runs};
    let t1 = tables::table1(&Runs::default(), Scale::Small);
    for app in AppId::ALL {
        assert!(t1.contains(app.name()), "table1 missing {app}");
    }
}
