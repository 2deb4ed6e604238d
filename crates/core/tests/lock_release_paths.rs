//! Driver-level tests of the lock release policy (the paper's
//! unfair-but-fast preference for co-located waiters).
//!
//! Scenario engineered with staggered virtual-time work so arrival order
//! is deterministic: thread g0 (node 0) holds the lock while a *remote*
//! waiter (node 1) queues first and a *local* waiter (node 0) queues
//! second. Under the default policy the release must hand off locally
//! despite the remote's earlier request — and the remote must still
//! acquire eventually (the policy is unfair, not unsound).

use cvm_dsm::{CvmBuilder, CvmConfig};
use cvm_sim::SimDuration;

/// Runs the contention scenario; returns (acquisition events, local
/// handoffs, remote acquires). A hand-off is its own acquisition path in
/// the stats — not a `local_lock_acquires` — so the three threads'
/// acquires are split across all three counters.
fn run_contended(prefer_local: bool) -> (u64, u64, u64) {
    let mut cfg = CvmConfig::small(2, 2);
    cfg.prefer_local_lock_waiters = prefer_local;
    let mut b = CvmBuilder::new(cfg);
    let counter = b.alloc::<u64>(1);
    let report = b.run(move |ctx| {
        if ctx.global_id() == 0 {
            counter.write(ctx, 0, 0);
        }
        ctx.startup_done();
        // Node 0: g0, g1. Node 1: g2, g3 (g3 only synchronizes).
        match ctx.global_id() {
            0 => {
                // Acquire uncontended, then hold long enough for both
                // waiters to queue: the remote first, the local second.
                ctx.acquire(0);
                ctx.work(SimDuration::from_us(500));
                let v = counter.read(ctx, 0);
                counter.write(ctx, 0, v + 1);
                ctx.release(0);
            }
            2 => {
                // Remote waiter: requests while g0 holds, before g1.
                ctx.work(SimDuration::from_us(50));
                ctx.acquire(0);
                let v = counter.read(ctx, 0);
                counter.write(ctx, 0, v + 1);
                ctx.release(0);
            }
            1 => {
                // Local waiter: requests after the remote is queued.
                ctx.work(SimDuration::from_us(150));
                ctx.acquire(0);
                let v = counter.read(ctx, 0);
                counter.write(ctx, 0, v + 1);
                ctx.release(0);
            }
            _ => {}
        }
        ctx.barrier();
        let total = counter.read(ctx, 0);
        assert_eq!(total, 3, "an increment was lost");
    });
    (
        report.stats.local_lock_acquires
            + report.stats.remote_locks
            + report.stats.local_lock_handoffs,
        report.stats.local_lock_handoffs,
        report.stats.remote_locks,
    )
}

#[test]
fn release_prefers_local_waiter_over_earlier_remote() {
    let (acquires, handoffs, remote) = run_contended(true);
    assert_eq!(acquires, 3, "three threads acquired the lock");
    assert!(
        handoffs >= 1,
        "the release must hand off to the co-located waiter even though \
         the remote queued first (got {handoffs} handoffs)"
    );
    assert!(
        remote >= 1,
        "the remote waiter must still acquire eventually"
    );
}

#[test]
fn ablated_policy_serves_remote_first_without_handoff() {
    let (acquires, handoffs, remote) = run_contended(false);
    assert_eq!(acquires, 3, "three threads acquired the lock");
    assert_eq!(
        handoffs, 0,
        "with the preference ablated the release grants the earlier \
         remote; the local waiter is served by a re-request, not a handoff"
    );
    assert!(
        remote >= 2,
        "remote grant plus the node's re-request for its local waiter"
    );
}

/// The same scenario driven through the exploration hook: perturbing
/// scheduler picks must not change lock-queue integrity or the count.
#[test]
fn contended_locks_survive_schedule_perturbation() {
    for seed in [1u64, 2, 3] {
        let mut cfg = CvmConfig::small(2, 2);
        cfg.pick = cvm_sim::PickPolicy::seeded(cvm_sim::ExploreSpec { seed, budget: 32 });
        let mut b = CvmBuilder::new(cfg);
        let counter = b.alloc::<u64>(1);
        let report = b.run(move |ctx| {
            if ctx.global_id() == 0 {
                counter.write(ctx, 0, 0);
            }
            ctx.startup_done();
            for _ in 0..4 {
                ctx.acquire(0);
                let v = counter.read(ctx, 0);
                counter.write(ctx, 0, v + 1);
                ctx.release(0);
            }
            ctx.barrier();
            let total = counter.read(ctx, 0);
            assert_eq!(total, 16, "an increment was lost under exploration");
        });
        assert_eq!(report.stats.barriers_crossed, 1);
    }
}
