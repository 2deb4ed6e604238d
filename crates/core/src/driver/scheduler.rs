//! Scheduler layer: per-node run queues, wait-class accounting and the
//! non-preemptive thread switch (the paper's core mechanism — switch to
//! another ready thread on a remote request instead of spinning).
//!
//! This layer never branches on the protocol kind: a page-fault block is
//! handed to the active [`Coherence`] impl, everything else to the sync
//! services.

use cvm_sim::coop::Burst;
use cvm_sim::{SimDuration, StepRecord, SyncOp, VirtualTime};

use crate::ctx::BlockReason;
use crate::sched::WaitClass;
use crate::trace::TraceEvent;

use super::hosttime::Seam;
use super::{Coherence, DriverCore, MainEvent};

impl DriverCore {
    pub(super) fn schedule_resume(&mut self, n: usize, t: VirtualTime) {
        if !self.ctl[n].sched.resume_scheduled {
            self.ctl[n].sched.resume_scheduled = true;
            self.mainq.push(t, MainEvent::NodeResume(n));
        }
    }

    pub(super) fn make_ready(&mut self, n: usize, tid: usize, t: VirtualTime) {
        self.ctl[n].sched.ready.push_back(tid);
        let at = self.ctl[n].sched.clock.max(t);
        self.schedule_resume(n, at);
    }

    /// Snapshot of what an idle node is waiting for, by priority.
    fn wait_class(&self, n: usize) -> WaitClass {
        let ctl = &self.ctl[n];
        if ctl.out_faults > 0 {
            WaitClass::Fault
        } else if ctl.out_locks > 0 || ctl.locks.iter().any(|l| !l.local_queue.is_empty()) {
            WaitClass::Lock
        } else if !ctl.nb.blocked.is_empty() {
            WaitClass::Barrier
        } else if ctl.sched.sleeping > 0 {
            WaitClass::Idle
        } else {
            WaitClass::Other
        }
    }

    fn begin_idle_if_needed(&mut self, n: usize) {
        let all_done = self.ctl[n].sched.all_finished();
        if !all_done && self.ctl[n].sched.idle_since.is_none() {
            let class = self.wait_class(n);
            let clock = self.ctl[n].sched.clock;
            self.ctl[n].sched.idle_since = Some((clock, class));
        }
    }

    fn settle_idle(&mut self, n: usize, until: VirtualTime) {
        if let Some((since, class)) = self.ctl[n].sched.idle_since.take() {
            if until > since {
                let d = until - since;
                let b = &mut self.ctl[n].breakdown;
                match class {
                    WaitClass::Fault => b.fault += d,
                    WaitClass::Lock => b.lock += d,
                    WaitClass::Idle => b.idle += d,
                    WaitClass::Barrier | WaitClass::Other => b.barrier += d,
                }
            }
        }
    }

    pub(super) fn run_node(&mut self, proto: &mut dyn Coherence, n: usize, t: VirtualTime) {
        self.ctl[n].sched.resume_scheduled = false;
        if !self.ctl[n].sched.has_ready() {
            return;
        }
        let clock0 = self.ctl[n].sched.clock.max(t);
        self.settle_idle(n, clock0);
        self.ctl[n].sched.clock = clock0;
        let ready_len = self.ctl[n].sched.ready.len();
        // The enabled set of this transition (queue order), recorded for
        // the model checker before the pick consumes it.
        let enabled: Vec<u32> = if self.steps.is_some() {
            self.ctl[n]
                .sched
                .ready
                .iter()
                .map(|&t| u32::try_from(t).expect("tid fits u32"))
                .collect()
        } else {
            Vec::new()
        };
        // The one pick: the override (replay script or seeded exploration)
        // while it lasts, then the FIFO/LIFO base order.
        let chosen = self.cfg.pick.pick(ready_len);
        let tid = self.ctl[n]
            .sched
            .ready
            .remove(chosen)
            .expect("pick in range");
        if let Some(prev) = self.ctl[n].sched.last_ran {
            if prev != tid {
                self.ctl[n].sched.clock += self.cfg.thread_switch;
                self.ctl[n].breakdown.user += self.cfg.thread_switch;
                self.stats.thread_switches += 1;
            }
        }
        if let Some(prev) = self.ctl[n].sched.last_ran {
            if prev != tid && self.trace.enabled() {
                let at = self.ctl[n].sched.clock;
                self.trace.record(
                    at,
                    TraceEvent::ThreadSwitch {
                        node: n,
                        from: prev,
                        to: tid,
                    },
                );
            }
        }
        self.ctl[n].sched.last_ran = Some(tid);
        let t0 = self.host.start();
        let burst = self.coop.resume(self.threads[tid].coop);
        self.host.stop(Seam::Resume, t0);
        let consumed = SimDuration::from_ns(self.cell(n).drain_burst());
        self.ctl[n].sched.clock += consumed;
        self.ctl[n].breakdown.user += consumed;
        if self.steps.is_some() {
            self.record_step(n, tid, enabled, chosen, &burst);
        }
        match burst {
            Burst::Finished => {
                self.threads[tid].finished = true;
                self.ctl[n].sched.finished += 1;
                self.finished_total += 1;
            }
            Burst::Blocked(reason) => {
                let (t0, seam) = (self.host.start(), Seam::reason(&reason));
                self.handle_reason(proto, n, tid, reason);
                self.host.stop(seam, t0);
            }
        }
        if self.ctl[n].sched.has_ready() {
            let at = self.ctl[n].sched.clock;
            self.schedule_resume(n, at);
        } else {
            self.begin_idle_if_needed(n);
        }
        self.sample_twin_live(n);
    }

    /// Logs one scheduling point for the model checker: the enabled set
    /// and chosen index, plus the finished burst's page footprint and the
    /// synchronization operation that ended it.
    fn record_step(
        &mut self,
        n: usize,
        tid: usize,
        enabled: Vec<u32>,
        chosen: usize,
        burst: &Burst<BlockReason>,
    ) {
        let (reads, writes) = self.cell(n).drain_step_pages();
        let sync = match burst {
            Burst::Finished => SyncOp::Finish,
            Burst::Blocked(reason) => match reason {
                BlockReason::Fault { page, write } => SyncOp::Fault {
                    page: u32::try_from(page.0).expect("page fits u32"),
                    write: *write,
                },
                BlockReason::Acquire { lock } => SyncOp::Acquire {
                    lock: u32::try_from(*lock).expect("lock fits u32"),
                },
                BlockReason::Release { lock } => SyncOp::Release {
                    lock: u32::try_from(*lock).expect("lock fits u32"),
                },
                BlockReason::Barrier => SyncOp::Barrier,
                BlockReason::LocalBarrier { reduce: None } => SyncOp::LocalBarrier,
                BlockReason::LocalBarrier { reduce: Some(_) }
                | BlockReason::GlobalReduce { .. } => SyncOp::Reduce,
                BlockReason::Startup | BlockReason::EndMeasure => SyncOp::Rendezvous,
                BlockReason::Yield | BlockReason::Now | BlockReason::SleepUntil { .. } => {
                    SyncOp::Yield
                }
            },
        };
        let log = self.steps.as_mut().expect("record_step gated on steps");
        log.record(StepRecord {
            node: u32::try_from(n).expect("node fits u32"),
            thread: u32::try_from(tid).expect("tid fits u32"),
            enabled,
            chosen: u32::try_from(chosen).expect("index fits u32"),
            reads,
            writes,
            sync,
        });
    }

    /// Routes an application block reason to the owning layer.
    fn handle_reason(
        &mut self,
        proto: &mut dyn Coherence,
        n: usize,
        tid: usize,
        reason: BlockReason,
    ) {
        match reason {
            BlockReason::Fault { page, write } => proto.on_fault(self, n, tid, page, write),
            BlockReason::Acquire { lock } => self.handle_acquire(proto, n, tid, lock),
            BlockReason::Release { lock } => self.handle_release(proto, n, tid, lock),
            BlockReason::Barrier => self.handle_barrier(proto, n, tid),
            BlockReason::LocalBarrier { reduce } => self.handle_local_barrier(n, tid, reduce),
            BlockReason::GlobalReduce { reduce } => {
                self.handle_global_reduce(proto, n, tid, reduce);
            }
            BlockReason::Startup => self.handle_startup(proto),
            BlockReason::EndMeasure => self.handle_end_measure(tid),
            BlockReason::Yield => self.ctl[n].sched.ready.push_back(tid),
            BlockReason::Now => {
                // Publish the node clock (which already includes the burst
                // just drained) and resume the same thread immediately —
                // front of the queue, so no switch is charged and the read
                // is a pure observation.
                let now = self.ctl[n].sched.clock;
                self.cell(n).now_ns = now.as_ns();
                self.ctl[n].sched.ready.push_front(tid);
            }
            BlockReason::SleepUntil { ns } => {
                let at = self.ctl[n].sched.clock.max(VirtualTime::from_ns(ns));
                self.ctl[n].sched.sleeping += 1;
                self.mainq.push(at, MainEvent::ThreadWake(n, tid));
            }
        }
    }

    pub(super) fn note_request_initiated(&mut self, n: usize) {
        self.stats.outstanding_faults += self.ctl[n].out_faults as u64;
        self.stats.outstanding_locks += self.ctl[n].out_locks as u64;
    }
}
