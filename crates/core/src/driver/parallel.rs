//! The parallel event core: conservative-lookahead burst pre-execution.
//!
//! The driver loop itself stays *sequential* — events are handled one at
//! a time in global `(time, seq)` order, which is what makes reports
//! byte-identical at any shard count. What runs in parallel is the part
//! that dominates wall-clock time at scale: *application bursts*, the
//! node-local compute an application thread performs between two blocking
//! points. When the planner can prove that the next `NodeResume` of
//! several shards will (a) be reached and (b) pick a known thread, it
//! *starts* those threads' bursts concurrently ([`CoopScheduler::start`])
//! and lets the loop *collect* each result when its event is actually
//! popped ([`CoopScheduler::wait`]). `resume = start + wait`, so the
//! simulated execution is unchanged — only the host-time overlap is new.
//!
//! # Why pre-execution is invisible
//!
//! A burst on node `n` is pre-started at event time `t` only when all of
//! the following hold at planning time (the instant the network has
//! delivered every event at or before the queue head `t0`):
//!
//! 1. **Lookahead**: `t < t0 + lookahead`, where `lookahead` is the
//!    latency model's fixed floor ([`LatencyModel::lookahead`]). Any
//!    message sent by an event processed from `t0` onward arrives after
//!    the whole window, so it cannot invalidate the plan.
//! 2. **Delivery floors**: `t` is strictly below the earliest pending
//!    network delivery (or live retransmission timer) addressed to `n`
//!    ([`NetworkSim::delivery_floors`]). Strictly, because the loop
//!    drains deliveries at time `t` *before* popping a main event at
//!    `t` — an equal-time delivery could still reorder `n`'s run queue.
//! 3. **Head of its shard**: the event is its shard's earliest, and at
//!    most one burst per shard is in flight, planned only when none are.
//! 4. **Predictable pick**: replay scripts, schedule exploration, step
//!    recording, fault injection and the verifying oracle are all off
//!    (see `par_enabled`), so the pick is `PickPolicy::peek` of `n`'s
//!    ready queue — which conditions 1–2 freeze until `t`.
//!
//! Everything a handler or another node's burst does between planning and
//! collection either touches only its own node's state or travels through
//! the network (arriving ≥ `lookahead` later), so the pre-started burst
//! reads exactly the state it would have read sequentially. The pick
//! prediction is re-checked at collection and divergence is a panic, not
//! a wrong answer.
//!
//! [`CoopScheduler::start`]: cvm_sim::coop::CoopScheduler::start
//! [`CoopScheduler::wait`]: cvm_sim::coop::CoopScheduler::wait
//! [`LatencyModel::lookahead`]: cvm_net::LatencyModel::lookahead
//! [`NetworkSim::delivery_floors`]: cvm_net::NetworkSim::delivery_floors

use cvm_sim::VirtualTime;

use super::{DriverCore, MainEvent};

impl DriverCore {
    /// Plans one lookahead window: pre-starts the burst of every shard
    /// head that is provably safe to run early. Called only when no
    /// bursts are in flight; a no-op unless at least two shard heads fall
    /// inside the window (overlapping a single burst with nothing is the
    /// sequential loop with extra bookkeeping).
    pub(super) fn plan_window(&mut self) {
        debug_assert_eq!(self.planned_n, 0, "planning over in-flight bursts");
        // The previous window is fully collected by now; retire its
        // burst-time accumulators into the overlap ledger (`sum - max` is
        // the burst time a one-core-per-shard host keeps off the critical
        // path). The run's final window is retired at report time.
        self.overlap_saved_ns += self.win_sum_ns - self.win_max_ns;
        self.win_sum_ns = 0;
        self.win_max_ns = 0;
        let Some(t0) = self.mainq.peek_time() else {
            return;
        };
        let horizon = t0 + self.lookahead;
        let shards = self.mainq.map().shards();
        let mut candidates = 0usize;
        for s in 0..shards {
            if let Some((t, _)) = self.mainq.shard_head(s) {
                if t < horizon {
                    candidates += 1;
                }
            }
        }
        if candidates < 2 {
            return;
        }
        self.floors.fill(VirtualTime::MAX);
        self.net.delivery_floors(&mut self.floors);
        for s in 0..shards {
            let Some((t, &MainEvent::NodeResume(n))) = self.mainq.shard_head(s) else {
                continue;
            };
            if t >= horizon || t >= self.floors[n] {
                continue;
            }
            let Some(tid) = self.peek_pick(n) else {
                continue;
            };
            self.coop.start(self.threads[tid].coop);
            self.planned[s] = Some((n, tid));
            self.planned_n += 1;
            self.planned_bursts += 1;
        }
    }

    /// The thread `run_node` will pick on node `n`, predicted without
    /// consuming it — valid only under the planner's freeze conditions
    /// (no pick override, ready queue can't change before the event
    /// fires).
    fn peek_pick(&self, n: usize) -> Option<usize> {
        let ready = &self.ctl[n].sched.ready;
        let idx = self.cfg.pick.peek(ready.len())?;
        ready.get(idx).copied()
    }

    /// Claims the pre-started burst for node `n`, if one is in flight on
    /// `n`'s shard: returns the thread whose burst must be collected with
    /// `wait` instead of `resume`.
    pub(super) fn take_planned(&mut self, n: usize) -> Option<usize> {
        if self.planned_n == 0 {
            return None;
        }
        let s = self.mainq.map().shard_of(n);
        match self.planned[s] {
            Some((planned_node, tid)) if planned_node == n => {
                self.planned[s] = None;
                self.planned_n -= 1;
                Some(tid)
            }
            _ => None,
        }
    }
}
