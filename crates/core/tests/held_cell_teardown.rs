//! A running application thread holds its node's cell for the whole
//! burst. These tests pin what that must not break: a thread that dies
//! holding the cell reports its panic instead of wedging the driver, and
//! a run that ends with threads still parked — a deadlock, a degraded run
//! — tears down, which it can only do if a parked thread owns no cell.
//!
//! "Tears down" is observed through a token the application closure
//! captures: the closure is shared by every application thread, so the
//! token's count returns to one only when every thread has been joined
//! and the driver dropped.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use cvm_dsm::{CvmBuilder, CvmConfig, FaultPlan};
use cvm_net::{AdaptiveRto, LossConfig, Partition, RtoPolicy};
use cvm_sim::coop::panic_message;
use cvm_sim::VirtualTime;

#[test]
fn panic_with_the_cell_held_reaches_the_caller() {
    let token = Arc::new(());
    let captured = Arc::clone(&token);
    let mut b = CvmBuilder::new(CvmConfig::small(2, 2));
    let v = b.alloc::<u64>(8);
    let outcome = catch_unwind(AssertUnwindSafe(move || {
        b.run(move |ctx| {
            let _token = &captured;
            ctx.startup_done();
            v.write(ctx, ctx.global_id(), 7);
            // Still inside the burst of the write: the cell is held.
            assert!(ctx.global_id() != 3, "thread three gives up");
            ctx.barrier();
        })
    }));
    let payload = outcome.expect_err("the run must panic, not return");
    let msg = panic_message(payload.as_ref());
    assert!(
        msg.starts_with("application thread coop#3 panicked: thread three gives up"),
        "got: {msg}"
    );
    assert_eq!(Arc::strong_count(&token), 1, "every thread was joined");
}

#[test]
fn deadlocked_run_tears_down() {
    let token = Arc::new(());
    let captured = Arc::clone(&token);
    let mut b = CvmBuilder::new(CvmConfig::small(2, 2));
    let v = b.alloc::<u64>(8);
    let outcome = catch_unwind(AssertUnwindSafe(move || {
        b.run(move |ctx| {
            let _token = &captured;
            ctx.startup_done();
            v.write(ctx, ctx.global_id(), 1);
            if ctx.node() == 0 {
                ctx.barrier(); // node 1 never arrives: node 0 stays parked
            }
        })
    }));
    let payload = outcome.expect_err("a deadlock is a panic");
    let msg = panic_message(payload.as_ref());
    assert!(msg.starts_with("deadlock: 2 of 4 threads"), "got: {msg}");
    assert_eq!(Arc::strong_count(&token), 1, "parked threads were joined");
}

#[test]
fn degraded_run_with_abandoned_traffic_tears_down() {
    let token = Arc::new(());
    let captured = Arc::clone(&token);
    // Node 1 is cut off for good and the retry budget is tiny, so its
    // traffic is given up on and threads stay parked at the barrier.
    let mut cfg = CvmConfig::small(3, 2);
    cfg.loss = Some(LossConfig {
        loss_probability: 0.0,
        rto: RtoPolicy::Adaptive(AdaptiveRto::default()),
        max_retries: 4,
    });
    cfg.faults = Some(FaultPlan {
        partitions: vec![Partition {
            island: vec![1],
            from: VirtualTime::ZERO,
            until: VirtualTime::MAX,
        }],
        ..FaultPlan::default()
    });
    let mut b = CvmBuilder::new(cfg);
    let v = b.alloc::<u64>(8);
    let report = b.run(move |ctx| {
        let _token = &captured;
        ctx.startup_done();
        v.write(ctx, ctx.global_id(), ctx.global_id() as u64);
        ctx.barrier();
        let _ = v.read(ctx, 0);
    });
    assert!(report.loss.gave_up > 0, "traffic was abandoned");
    assert!(report.unfinished_threads > 0, "threads were left parked");
    assert_eq!(Arc::strong_count(&token), 1, "parked threads were joined");
}
