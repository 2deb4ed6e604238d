use super::*;
use crate::config::CvmConfig;

/// Smoke test: two nodes, two threads each, write/barrier/read.
#[test]
fn spmd_write_barrier_read() {
    let mut b = CvmBuilder::new(CvmConfig::small(2, 2));
    let v = b.alloc::<u64>(64);
    let report = b.run(move |ctx| {
        ctx.startup_done();
        let me = ctx.global_id() as u64;
        let (lo, hi) = ctx.partition(64);
        for i in lo..hi {
            v.write(ctx, i, me + 1);
        }
        ctx.barrier();
        let mut sum = 0;
        for i in 0..64 {
            sum += v.read(ctx, i);
        }
        // 4 threads x 16 elements each, values 1..=4.
        assert_eq!(sum, 16 * (1 + 2 + 3 + 4));
    });
    assert_eq!(report.stats.barriers_crossed, 1);
    assert!(report.stats.remote_faults > 0);
    assert!(report.stats.diffs_used > 0);
}

#[test]
fn lock_protected_counter_is_exact() {
    let mut b = CvmBuilder::new(CvmConfig::small(3, 2));
    let v = b.alloc::<u64>(1);
    let report = b.run(move |ctx| {
        if ctx.global_id() == 0 {
            v.write(ctx, 0, 0);
        }
        ctx.startup_done();
        for _ in 0..5 {
            ctx.acquire(7);
            let x = v.read(ctx, 0);
            v.write(ctx, 0, x + 1);
            ctx.release(7);
        }
        ctx.barrier();
        assert_eq!(v.read(ctx, 0), 30, "6 threads x 5 increments");
    });
    assert!(report.stats.remote_locks > 0);
    assert!(report.stats.barriers_crossed >= 1);
}

#[test]
fn single_node_needs_no_messages() {
    let mut b = CvmBuilder::new(CvmConfig::small(1, 4));
    let v = b.alloc::<f64>(256);
    let report = b.run(move |ctx| {
        ctx.startup_done();
        let (lo, hi) = ctx.partition(256);
        for i in lo..hi {
            v.write(ctx, i, 1.0);
        }
        ctx.barrier();
        let total: f64 = (0..256).map(|i| v.read(ctx, i)).sum();
        assert_eq!(total, 256.0);
    });
    assert_eq!(report.net.total_count(), 0);
    assert_eq!(report.stats.remote_faults, 0);
}

#[test]
fn local_reduce_aggregates_per_node() {
    let mut b = CvmBuilder::new(CvmConfig::small(2, 3));
    let v = b.alloc::<f64>(2);
    let report = b.run(move |ctx| {
        ctx.startup_done();
        let r = ctx.local_reduce(crate::barrier::ReduceOp::Sum, 1.0);
        assert_eq!(r, 3.0, "three local threads contribute 1.0 each");
        if ctx.local_id() == 0 {
            v.write(ctx, ctx.node(), r);
        }
        ctx.barrier();
        assert_eq!(v.read(ctx, 0) + v.read(ctx, 1), 6.0);
    });
    assert_eq!(report.stats.local_barriers, 2);
}

#[test]
fn determinism_same_seed_same_report() {
    let run = || {
        let mut b = CvmBuilder::new(CvmConfig::small(2, 2));
        let v = b.alloc::<u64>(512);
        b.run(move |ctx| {
            ctx.startup_done();
            let (lo, hi) = ctx.partition(512);
            for it in 0..3 {
                for i in lo..hi {
                    v.write(ctx, i, it + i as u64);
                }
                ctx.barrier();
                let _ = v.read(ctx, (lo + 256) % 512);
                ctx.barrier();
            }
        })
    };
    let a = run();
    let b = run();
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.net, b.net);
    assert_eq!(a.total_time, b.total_time);
}

#[test]
fn global_reduce_combines_across_cluster() {
    let b = CvmBuilder::new(CvmConfig::small(3, 2));
    let report = b.run(move |ctx| {
        ctx.startup_done();
        let me = ctx.global_id() as f64;
        let sum = ctx.global_reduce(crate::barrier::ReduceOp::Sum, me + 1.0);
        assert_eq!(sum, 21.0, "1+2+...+6");
        let max = ctx.global_reduce(crate::barrier::ReduceOp::Max, me);
        assert_eq!(max, 5.0);
        let min = ctx.global_reduce(crate::barrier::ReduceOp::Min, me);
        assert_eq!(min, 0.0);
    });
    assert_eq!(report.stats.global_reduces, 3);
    // One arrival + one release per non-master node per episode.
    use cvm_net::MsgKind;
    assert_eq!(report.net.kind_count(MsgKind::BarrierArrive), 3 * 2);
    assert_eq!(report.net.kind_count(MsgKind::BarrierRelease), 3 * 2);
}

#[test]
fn lifo_schedule_is_deterministic_and_correct() {
    let run = |lifo: bool| {
        let mut cfg = CvmConfig::small(2, 3);
        if lifo {
            cfg.pick.base = cvm_sim::BaseOrder::Lifo;
        }
        let mut b = CvmBuilder::new(cfg);
        let v = b.alloc::<u64>(128);
        b.run(move |ctx| {
            ctx.startup_done();
            let (lo, hi) = ctx.partition(128);
            for r in 0..3u64 {
                for i in lo..hi {
                    v.write(ctx, i, r + i as u64);
                }
                ctx.barrier();
            }
            let sum: u64 = (0..128).map(|i| v.read(ctx, i)).sum();
            assert_eq!(sum, (0..128u64).map(|i| 2 + i).sum::<u64>());
        })
    };
    let fifo = run(false);
    let lifo = run(true);
    // Both complete correctly; scheduling order differs, so the exact
    // switch pattern may differ while total work matches.
    assert_eq!(fifo.stats.barriers_crossed, lifo.stats.barriers_crossed);
}

#[test]
#[should_panic(expected = "deadlock")]
fn missing_barrier_participant_deadlocks() {
    let b = CvmBuilder::new(CvmConfig::small(2, 1));
    let _ = b.run(move |ctx| {
        ctx.startup_done();
        if ctx.global_id() == 0 {
            ctx.barrier(); // node 1 never arrives
        }
    });
}

/// Each protocol runs the smoke workload to the same application result.
#[test]
fn all_protocols_complete_smoke_workload() {
    for kind in crate::protocol::ProtocolKind::ALL {
        let mut cfg = CvmConfig::small(2, 2);
        cfg.protocol = kind;
        let mut b = CvmBuilder::new(cfg);
        let v = b.alloc::<u64>(64);
        let report = b.run(move |ctx| {
            ctx.startup_done();
            let me = ctx.global_id() as u64;
            let (lo, hi) = ctx.partition(64);
            for i in lo..hi {
                v.write(ctx, i, me + 1);
            }
            ctx.barrier();
            let sum: u64 = (0..64).map(|i| v.read(ctx, i)).sum();
            assert_eq!(sum, 16 * (1 + 2 + 3 + 4), "under {kind}");
        });
        assert_eq!(report.stats.barriers_crossed, 1, "under {kind}");
    }
}

/// The layering promise of this module's header and DESIGN §3a: the
/// protocol kind selects behaviour at one point, `make_protocol`, and the
/// configured kind is read once, to call it. Checked on the source text of
/// every file of this directory but this one.
#[test]
fn protocol_kind_is_consulted_only_by_make_protocol() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/driver");
    let mut seen_make_protocol = false;
    for entry in std::fs::read_dir(&dir).expect("driver sources") {
        let path = entry.expect("dir entry").path();
        if path.file_name().is_some_and(|n| n == "tests.rs") {
            continue;
        }
        let mut text = std::fs::read_to_string(&path).expect("source is text");
        if let Some(start) = text.find("\nfn make_protocol(") {
            let len = text[start..].find("\n}\n").expect("make_protocol ends");
            text.replace_range(start..start + len, "");
            seen_make_protocol = true;
        }
        for (idx, line) in text.lines().enumerate() {
            let code = line.trim_start();
            if code.starts_with("//") {
                continue;
            }
            let at = format!("{}:{}: {code}", path.display(), idx + 1);
            assert!(!code.contains("ProtocolKind::"), "{at}");
            assert!(
                !code.contains(".protocol") || code.contains("make_protocol(cfg.protocol)"),
                "{at}"
            );
        }
    }
    assert!(seen_make_protocol, "make_protocol moved; update this check");
}
