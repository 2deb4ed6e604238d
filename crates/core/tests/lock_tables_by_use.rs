//! The lock tables (`lock_mgrs`, every node's `locks`) cover the ids a
//! program has acquired, not `MAX_LOCKS`. These tests pin what growing
//! them on first use must not change: a lock's token starts cached at its
//! manager whichever node asks first and in whatever order ids appear,
//! nodes that never touch a lock still answer for it (the oracle reads
//! `cached` on all of them; a manager forwards and grants locks its own
//! threads never acquire), and the bound on ids is still `MAX_LOCKS`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use cvm_dsm::driver::MAX_LOCKS;
use cvm_dsm::{CvmBuilder, CvmConfig, ProtocolKind};
use cvm_sim::coop::panic_message;

/// Highest id first, so the tables grow past every later id in one step.
/// Managers at three nodes: 4095 → n0, 0 → n0, 17 → n2.
const IDS: [usize; 3] = [MAX_LOCKS - 1, 0, 17];
/// One counter per lock, each on a page of its own (ROADMAP item 4).
const STRIDE: usize = 1024;

#[test]
fn sparse_ids_out_of_order_under_the_oracle() {
    for protocol in ProtocolKind::ALL {
        let mut cfg = CvmConfig::small(3, 2);
        cfg.protocol = protocol;
        cfg.verify = true;
        let sink = cfg.verify_sink.clone();
        let mut b = CvmBuilder::new(cfg);
        let counters = b.alloc::<u64>(IDS.len() * STRIDE);
        let report = b.run(move |ctx| {
            if ctx.global_id() == 0 {
                for k in 0..IDS.len() {
                    counters.write(ctx, k * STRIDE, 0);
                }
            }
            ctx.startup_done();
            for round in 0..3 {
                for (k, &lock) in IDS.iter().enumerate() {
                    // Node 2 manages lock 17 and never acquires it.
                    if lock == 17 && ctx.node() == 2 {
                        continue;
                    }
                    ctx.acquire(lock);
                    let v = counters.read(ctx, k * STRIDE);
                    counters.write(ctx, k * STRIDE, v + 1);
                    ctx.release(lock);
                }
                if round == 1 {
                    ctx.barrier();
                }
            }
            ctx.barrier();
            for (k, &lock) in IDS.iter().enumerate() {
                let want = if lock == 17 { 4 * 3 } else { 6 * 3 };
                assert_eq!(counters.read(ctx, k * STRIDE), want, "lock {lock}");
            }
        });
        let name = protocol.name();
        assert!(sink.is_empty(), "{name}: {:?}", sink.snapshot());
        assert!(report.findings.is_empty(), "{name}");
        assert!(report.stats.remote_locks >= 3, "{name}: tokens moved");
    }
}

fn run_panics(body: impl Fn(&mut cvm_dsm::ThreadCtx) + Send + Sync + 'static) -> String {
    let b = CvmBuilder::new(CvmConfig::small(2, 1));
    let payload = catch_unwind(AssertUnwindSafe(move || b.run(body))).expect_err("must panic");
    panic_message(payload.as_ref())
}

#[test]
fn first_id_past_the_bound_is_refused_as_before() {
    let msg = run_panics(|ctx| {
        ctx.startup_done();
        if ctx.global_id() == 0 {
            ctx.acquire(MAX_LOCKS);
        }
    });
    assert_eq!(
        msg,
        "invariant LockIndexInRange violated: lock index 4096 outside the static table of 4096"
    );
}

#[test]
fn release_of_a_lock_nobody_acquired_says_so() {
    let msg = run_panics(|ctx| {
        ctx.startup_done();
        if ctx.global_id() == 0 {
            ctx.release(5);
        }
    });
    assert_eq!(msg, "release of lock 5, which nobody has acquired");
}
