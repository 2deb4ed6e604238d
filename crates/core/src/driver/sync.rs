//! Sync services: the distributed lock manager (with local-queue
//! preference), the barrier master, local and global reductions, and the
//! startup / end-of-measurement rendezvous.
//!
//! Synchronization is where lazy consistency information travels — lock
//! grants and barrier releases carry vector times and write notices — so
//! this layer calls into the shared coherence mechanism
//! (`close_interval`, `apply_notices`, `checked_merge`) but never into a
//! specific protocol.

use cvm_sim::{EventQueue, SimRng, VirtualTime};

use cvm_memsim::MemSystem;

use crate::barrier::ReduceOp;
use crate::interval::{VectorTime, WriteNotice};
use crate::lock::{AcquireOutcome, ForwardOutcome, LockLocal, LockManager, ReleaseOutcome};
use crate::msg::Payload;
use crate::oracle::{InjectFault, Invariant};
use crate::page::PageState;
use crate::report::NodeBreakdown;
use crate::span::{SpanKind, SpanResource};
use crate::trace::TraceEvent;

use super::{network, Coherence, DriverCore, MAX_LOCKS};

impl DriverCore {
    /// Extends the manager table and every node's lock table to cover
    /// `lock`. Every lock message follows an acquire of its id, so this
    /// is the only place the tables grow. A new lock's token starts
    /// cached at its manager node, `l % nodes`.
    fn grow_locks(&mut self, lock: usize) {
        let nodes = self.cfg.nodes;
        for l in self.lock_mgrs.len()..=lock {
            self.lock_mgrs.push(LockManager::new(l % nodes));
            for (q, ctl) in self.ctl.iter_mut().enumerate() {
                ctl.locks.push(LockLocal {
                    cached: l % nodes == q,
                    ..LockLocal::default()
                });
            }
        }
    }

    pub(super) fn handle_acquire(
        &mut self,
        proto: &mut dyn Coherence,
        n: usize,
        tid: usize,
        lock: usize,
    ) {
        Invariant::LockIndexInRange.require(lock < MAX_LOCKS, || {
            format!("lock index {lock} outside the static table of {MAX_LOCKS}")
        });
        self.grow_locks(lock);
        match self.ctl[n].locks[lock].try_acquire(tid) {
            AcquireOutcome::LocalGrant => {
                self.stats.local_lock_acquires += 1;
                self.attr.lock_mut(lock).local_acquires += 1;
                self.ctl[n].sched.ready.push_back(tid);
            }
            AcquireOutcome::QueuedLocally => {
                self.stats.block_same_lock += 1;
                self.attr.lock_mut(lock).contended += 1;
            }
            AcquireOutcome::SendRequest => {
                self.note_request_initiated(n);
                let at = self.ctl[n].sched.clock;
                self.trace
                    .record(at, TraceEvent::LockRequested { node: n, lock });
                self.stats.remote_locks += 1;
                self.ctl[n].out_locks += 1;
                self.attr.lock_mut(lock).remote_acquires += 1;
                self.lock_req_at.insert((n, lock), at);
                let now = self.ctl[n].sched.clock;
                // The acquire span covers request to grant; the request
                // (and any forward the manager issues inside the same
                // ambient context) rides in it.
                let span =
                    self.spans
                        .open(SpanKind::LockAcquire, n, SpanResource::Lock(lock), 0, now);
                self.lock_span.insert((n, lock), span);
                self.cur_span = span;
                let vt = self.ctl[n].vt.clone();
                let mgr = lock % self.cfg.nodes;
                if mgr == n {
                    self.manager_handle(proto, n, lock, n, vt, now);
                } else {
                    self.send(
                        proto,
                        n,
                        mgr,
                        Payload::LockRequest {
                            lock,
                            acquirer: n,
                            vt,
                        },
                        now,
                    );
                }
                self.cur_span = 0;
            }
        }
    }

    pub(super) fn handle_release(
        &mut self,
        proto: &mut dyn Coherence,
        n: usize,
        tid: usize,
        lock: usize,
    ) {
        let now = self.ctl[n].sched.clock;
        let prefer_local = self.cfg.prefer_local_lock_waiters;
        let grant_cap = self.cfg.local_grant_cap;
        assert!(
            lock < self.lock_mgrs.len(),
            "release of lock {lock}, which nobody has acquired"
        );
        match self.ctl[n].locks[lock].release(tid, prefer_local, grant_cap) {
            ReleaseOutcome::LocalHandoff(next) => {
                self.stats.local_lock_handoffs += 1;
                self.attr.lock_mut(lock).local_handoffs += 1;
                self.trace
                    .record(now, TraceEvent::LockLocalHandoff { node: n, lock });
                self.ctl[n].sched.ready.push_back(next);
            }
            ReleaseOutcome::GrantRemote(node, avt) => {
                self.grant_lock(proto, n, lock, node, &avt, now);
                // Ablation path: with fair ordering, remaining local
                // waiters must re-request the token remotely.
                if !self.ctl[n].locks[lock].local_queue.is_empty()
                    && !self.ctl[n].locks[lock].requested
                {
                    self.ctl[n].locks[lock].requested = true;
                    self.note_request_initiated(n);
                    self.stats.remote_locks += 1;
                    self.ctl[n].out_locks += 1;
                    self.attr.lock_mut(lock).remote_acquires += 1;
                    self.lock_req_at.insert((n, lock), now);
                    let span =
                        self.spans
                            .open(SpanKind::LockAcquire, n, SpanResource::Lock(lock), 0, now);
                    self.lock_span.insert((n, lock), span);
                    self.cur_span = span;
                    let vt = self.ctl[n].vt.clone();
                    let mgr = lock % self.cfg.nodes;
                    if mgr == n {
                        self.manager_handle(proto, n, lock, n, vt, now);
                    } else {
                        self.send(
                            proto,
                            n,
                            mgr,
                            Payload::LockRequest {
                                lock,
                                acquirer: n,
                                vt,
                            },
                            now,
                        );
                    }
                    self.cur_span = 0;
                }
            }
            ReleaseOutcome::KeepCached => {}
        }
        // The releasing thread continues immediately (front of the queue,
        // no switch charge since it is the same thread).
        self.ctl[n].sched.ready.push_front(tid);
    }

    pub(super) fn handle_barrier(&mut self, proto: &mut dyn Coherence, n: usize, tid: usize) {
        let last = self.ctl[n].nb.arrive_local(tid, self.cfg.threads_per_node);
        let now = self.ctl[n].sched.clock;
        if !last {
            if !self.cfg.aggregate_barriers {
                // Ablation: every thread sends its own arrival message
                // (consistency information still flows once, with the
                // node's final arrival).
                let vt = self.ctl[n].vt.clone();
                self.arrive_at_master(proto, n, vt, Vec::new(), now);
            }
            return;
        }
        self.close_interval(proto, n);
        let latest = self.ctl[n].log.latest();
        let since = self.ctl[n].nb.notices_sent_upto;
        let mut notices = self.ctl[n].log.notices_between(n, since, latest);
        self.ctl[n].nb.notices_sent_upto = latest;
        if self.cfg.inject.is_some() {
            notices.retain(|_| {
                !self.inject_hits(|f| match f {
                    InjectFault::DropWriteNotice { nth } => Some(*nth),
                    _ => None,
                })
            });
        }
        let vt = self.ctl[n].vt.clone();
        self.arrive_at_master(proto, n, vt, notices, now);
    }

    fn arrive_at_master(
        &mut self,
        proto: &mut dyn Coherence,
        n: usize,
        vt: VectorTime,
        notices: Vec<WriteNotice>,
        now: VirtualTime,
    ) {
        self.trace.record(
            now,
            TraceEvent::BarrierArrived {
                node: n,
                epoch: self.master.epoch(),
            },
        );
        // First arrival starts the node's stall clock (the non-aggregated
        // ablation arrives once per thread).
        if self.barrier_arrived_at[n].is_none() {
            self.barrier_arrived_at[n] = Some(now);
            // One Barrier span per node per episode: arrival to release.
            self.barrier_span[n] = self.spans.open(
                SpanKind::Barrier,
                n,
                SpanResource::Barrier(self.master.epoch()),
                0,
                now,
            );
        }
        let saved = self.cur_span;
        self.cur_span = self.barrier_span[n];
        if n == 0 {
            self.master_arrive(proto, n, vt, notices, now);
        } else {
            let epoch = self.master.epoch();
            self.send(
                proto,
                n,
                0,
                Payload::BarrierArrive {
                    epoch,
                    node: n,
                    vt,
                    notices,
                },
                now,
            );
        }
        self.cur_span = saved;
    }

    /// Feeds one arrival to the barrier master, auditing the arrival count
    /// first so a broken episode records a finding instead of tripping the
    /// master's internal assert.
    pub(super) fn master_arrive(
        &mut self,
        proto: &mut dyn Coherence,
        from: usize,
        vt: VectorTime,
        notices: Vec<WriteNotice>,
        t: VirtualTime,
    ) {
        if self.master.arrived() >= self.master.expected() {
            self.oracle
                .check(Invariant::BarrierArrivalCount, false, Some(from), t, || {
                    format!(
                        "arrival past the {} expected in episode {}",
                        self.master.expected(),
                        self.master.epoch()
                    )
                });
            return;
        }
        if self.master.arrive(&vt, notices) {
            self.barrier_release(proto, t);
        }
    }

    pub(super) fn handle_local_barrier(
        &mut self,
        n: usize,
        tid: usize,
        reduce: Option<(ReduceOp, f64)>,
    ) {
        let last = self.ctl[n]
            .lb
            .arrive(tid, reduce, self.cfg.threads_per_node);
        if !last {
            return;
        }
        self.stats.local_barriers += 1;
        let (woken, val) = self.ctl[n].lb.complete();
        self.cell(n).lb_result = val.unwrap_or(0.0);
        for t in woken {
            self.ctl[n].sched.ready.push_back(t);
        }
    }

    pub(super) fn handle_end_measure(&mut self, _tid: usize) {
        self.endm_arrived += 1;
        if self.endm_arrived < self.threads.len() {
            return;
        }
        self.endm_arrived = 0;
        self.snapshot = Some(self.snapshot_report());
        // Wake everyone; the rendezvous acts as a barrier without cost.
        for tid in 0..self.threads.len() {
            let n = self.threads[tid].node;
            self.ctl[n].sched.ready.push_back(tid);
        }
        for n in 0..self.cfg.nodes {
            let at = self.ctl[n].sched.clock;
            self.schedule_resume(n, at);
        }
    }

    pub(super) fn handle_global_reduce(
        &mut self,
        proto: &mut dyn Coherence,
        n: usize,
        tid: usize,
        reduce: (ReduceOp, f64),
    ) {
        let last = self.ctl[n]
            .gred
            .arrive(tid, Some(reduce), self.cfg.threads_per_node);
        if !last {
            return;
        }
        // Threads stay parked in `gred.blocked` until the release; only
        // the per-node combined value travels.
        let acc = self.ctl[n].gred.reduce_acc.expect("contributions present");
        let now = self.ctl[n].sched.clock;
        // One Reduce span per node per episode: last local arrival to
        // release, mirroring the barrier span.
        self.reduce_span[n] = self
            .spans
            .open(SpanKind::Reduce, n, SpanResource::None, 0, now);
        let saved = self.cur_span;
        self.cur_span = self.reduce_span[n];
        if n == 0 {
            self.reduce_arrive_at_master(proto, 0, reduce.0, acc, now);
        } else {
            self.send(
                proto,
                n,
                0,
                Payload::ReduceArrive {
                    node: n,
                    op: reduce.0,
                    value: acc,
                },
                now,
            );
        }
        self.cur_span = saved;
    }

    pub(super) fn reduce_arrive_at_master(
        &mut self,
        proto: &mut dyn Coherence,
        _node: usize,
        op: ReduceOp,
        value: f64,
        t: VirtualTime,
    ) {
        self.gred_count += 1;
        self.gred_acc = Some(match self.gred_acc {
            Some(acc) => op.combine(acc, value),
            None => value,
        });
        self.gred_op = Some(op);
        if self.gred_count < self.cfg.nodes {
            return;
        }
        let result = self.gred_acc.take().expect("accumulated");
        self.gred_count = 0;
        self.gred_op = None;
        self.stats.global_reduces += 1;
        let saved = self.cur_span;
        for q in 1..self.cfg.nodes {
            // As with barriers, each release rides in the recipient's span.
            self.cur_span = self.reduce_span[q];
            self.send(proto, 0, q, Payload::ReduceRelease { value: result }, t);
        }
        self.cur_span = saved;
        self.apply_reduce_release(0, result, t);
    }

    pub(super) fn apply_reduce_release(&mut self, n: usize, value: f64, t: VirtualTime) {
        let span = std::mem::replace(&mut self.reduce_span[n], 0);
        self.spans.close(span, t);
        self.cell(n).gr_result = value;
        let (woken, _) = self.ctl[n].gred.complete();
        for tid in woken {
            self.make_ready(n, tid, t);
        }
    }

    pub(super) fn handle_startup(&mut self, proto: &mut dyn Coherence) {
        self.startup_arrived += 1;
        if self.startup_arrived < self.threads.len() {
            return;
        }
        self.startup_reset(proto);
    }

    /// Makes global data uniform across nodes and zeroes all measurements:
    /// the paper's "global data is consistent across all nodes until
    /// startup has finished".
    fn startup_reset(&mut self, proto: &mut dyn Coherence) {
        self.oracle.check(
            Invariant::QuiescentStartup,
            self.net.in_flight() == 0,
            None,
            VirtualTime::ZERO,
            || format!("{} messages in flight at startup", self.net.in_flight()),
        );
        let init_mem = {
            let mut c0 = self.cell(0);
            c0.clear_twins();
            c0.dirty.clear();
            c0.twin_creations = 0;
            c0.mem.clone()
        };
        for n in 0..self.cfg.nodes {
            let mut c = self.cell(n);
            if n != 0 {
                c.mem.copy_from_slice(&init_mem);
                c.twin_creations = 0;
            }
            for s in &mut c.state {
                *s = PageState::ReadOnly;
            }
            if self.cfg.memsim_enabled {
                c.memsim = Some(MemSystem::new(self.cfg.mem));
            }
            // Warm-up twins must not count toward the measured peaks.
            c.reset_mem_peaks();
            // Measurement starts here: requests recorded during init
            // (there should be none, but the reset is what guarantees it)
            // and any stale clock reads are discarded.
            c.req_hist = cvm_sim::Log2Hist::default();
            c.now_ns = 0;
            let live = c.twin_bytes_live;
            drop(c);
            self.twin_live_seen[n] = live;
        }
        self.twin_live_sum = self.twin_live_seen.iter().sum();
        self.twin_global_peak = self.twin_live_sum;
        for ctl in &mut self.ctl {
            ctl.sched.clock = VirtualTime::ZERO;
            ctl.sched.last_ran = None;
            ctl.sched.idle_since = None;
            ctl.breakdown = NodeBreakdown::default();
            ctl.cache_peak = ctl.cache_bytes;
            debug_assert!(ctl.fetches.is_empty());
            debug_assert!(ctl.pending.is_empty());
        }
        self.cache_live_sum = self.ctl.iter().map(|c| c.cache_bytes).sum();
        self.cache_global_peak = self.cache_live_sum;
        self.stats.reset();
        self.trace.reset();
        self.hist.reset();
        self.attr.reset();
        self.lock_req_at.clear();
        self.lock_hops.clear();
        for slot in &mut self.barrier_arrived_at {
            *slot = None;
        }
        // Span ids restart at 1 so the measured region's forest is
        // identical no matter what startup did.
        self.spans.reset();
        self.cur_span = 0;
        self.page_cause.clear();
        self.barrier_span.fill(0);
        self.reduce_span.fill(0);
        self.lock_span.clear();
        proto.reset(self);
        self.net = network(&self.cfg, &mut SimRng::seed_from(self.cfg.seed ^ 0xBEEF));
        self.mainq = EventQueue::with_capacity(self.cfg.nodes * self.cfg.threads_per_node);
        for n in 0..self.cfg.nodes {
            self.ctl[n].sched.resume_scheduled = false;
        }
        for tid in 0..self.threads.len() {
            let n = self.threads[tid].node;
            self.ctl[n].sched.ready.push_back(tid);
        }
        for n in 0..self.cfg.nodes {
            self.schedule_resume(n, VirtualTime::ZERO);
        }
        self.startup_arrived = 0;
    }

    /// Notices for every interval (any writer) in `granter`'s vector time
    /// but not in `acq_vt` — the LRC grant payload.
    fn notices_for_grant(&self, granter: usize, acq_vt: &VectorTime) -> Vec<WriteNotice> {
        let ctl = &self.ctl[granter];
        let mut out = Vec::new();
        for q in 0..self.cfg.nodes {
            let from = acq_vt.get(q);
            let to = ctl.vt.get(q);
            if to <= from {
                continue;
            }
            for (&ivl, pages) in ctl.notice_store[q].range(from + 1..=to) {
                for &page in pages {
                    out.push(WriteNotice {
                        writer: q,
                        interval: ivl,
                        page,
                    });
                }
            }
        }
        out
    }

    fn grant_lock(
        &mut self,
        proto: &mut dyn Coherence,
        granter: usize,
        lock: usize,
        to: usize,
        acq_vt: &VectorTime,
        t: VirtualTime,
    ) {
        // Whatever context we grant from (a release, a parked forward, a
        // just-arrived forward), the grant belongs to the *acquirer's*
        // LockAcquire span.
        let saved = self.cur_span;
        self.cur_span = self.lock_span.get(&(to, lock)).copied().unwrap_or(0);
        self.close_interval(proto, granter);
        let mut notices = self.notices_for_grant(granter, acq_vt);
        // Mutation self-test hook: strip the nth notice-carrying grant.
        // The grant's vector time still travels, so the grantee's clock
        // advances past writes it was never told to invalidate.
        if !notices.is_empty()
            && self.inject_hits(|f| match f {
                InjectFault::DropGrantNotice { nth } => Some(*nth),
                _ => None,
            })
        {
            notices.clear();
        }
        let vt = self.ctl[granter].vt.clone();
        if self.cfg.verify {
            self.trace.record(
                t,
                TraceEvent::LockTransfer {
                    lock,
                    from: granter,
                    to,
                },
            );
        }
        self.send(
            proto,
            granter,
            to,
            Payload::LockGrant { lock, vt, notices },
            t,
        );
        self.cur_span = saved;
    }

    pub(super) fn manager_handle(
        &mut self,
        proto: &mut dyn Coherence,
        mgr_node: usize,
        lock: usize,
        acquirer: usize,
        vt: VectorTime,
        t: VirtualTime,
    ) {
        let prev = self.lock_mgrs[lock].enqueue(acquirer);
        self.oracle.check(
            Invariant::SingleLockRequest,
            prev != acquirer,
            Some(acquirer),
            t,
            || format!("double request for lock {lock} from n{acquirer}"),
        );
        if prev == acquirer {
            // Recording mode: forwarding a node to itself would wedge the
            // distributed queue; stop after the finding.
            return;
        }
        // The manager decides the grant's path length here: token at the
        // manager → 2 hops, forwarded to the current owner → 3 hops.
        let hops = if prev == mgr_node { 2 } else { 3 };
        self.lock_hops.insert((lock, acquirer), hops);
        if prev == mgr_node {
            self.forward_at(proto, prev, lock, acquirer, vt, t);
        } else {
            self.send(
                proto,
                mgr_node,
                prev,
                Payload::LockForward { lock, acquirer, vt },
                t,
            );
        }
    }

    pub(super) fn forward_at(
        &mut self,
        proto: &mut dyn Coherence,
        owner: usize,
        lock: usize,
        acquirer: usize,
        vt: VectorTime,
        t: VirtualTime,
    ) {
        match self.ctl[owner].locks[lock].handle_forward(acquirer, vt) {
            ForwardOutcome::GrantNow(to, avt) => self.grant_lock(proto, owner, lock, to, &avt, t),
            ForwardOutcome::Parked => {}
        }
    }

    /// A lock grant arrived at the acquirer: absorb the consistency
    /// information it carries and wake the waiting thread.
    pub(super) fn handle_lock_grant(
        &mut self,
        proto: &mut dyn Coherence,
        n: usize,
        lock: usize,
        vt: VectorTime,
        notices: Vec<WriteNotice>,
        t: VirtualTime,
    ) {
        if self.oracle.enabled() {
            // The token is in flight to us: no node may still hold
            // it cached, and we must have an outstanding request
            // with a thread waiting — otherwise the wakeup is lost.
            let owners = (0..self.cfg.nodes)
                .filter(|&q| self.ctl[q].locks[lock].cached)
                .count();
            self.oracle
                .check(Invariant::LockSingleToken, owners == 0, Some(n), t, || {
                    format!("lock {lock} granted while {owners} node(s) hold the token")
                });
            let lk = &self.ctl[n].locks[lock];
            let has_waiter = lk.requested && !lk.local_queue.is_empty();
            self.oracle.check(
                Invariant::LockGrantHasWaiter,
                has_waiter,
                Some(n),
                t,
                || format!("grant of lock {lock} with no requesting waiter"),
            );
            if !has_waiter {
                return;
            }
        }
        self.apply_notices(proto, n, &notices);
        self.checked_merge(n, &vt, t);
        self.trace
            .record(t, TraceEvent::LockGranted { node: n, lock });
        let span = self.lock_span.remove(&(n, lock)).unwrap_or(0);
        self.spans.close(span, t);
        if let Some(started) = self.lock_req_at.remove(&(n, lock)) {
            let ns = t.since(started).as_ns();
            match self.lock_hops.remove(&(lock, n)) {
                Some(3) => {
                    self.hist.lock_3hop_ns.record(ns);
                    self.attr.lock_mut(lock).three_hop += 1;
                    self.spans.set_hop_count(span, 3);
                }
                _ => {
                    self.hist.lock_2hop_ns.record(ns);
                    self.spans.set_hop_count(span, 2);
                }
            }
        }
        if let Some(rec) = self.spans.get(span) {
            self.attr.lock_mut(lock).acquire_span_ns += rec.duration_ns();
        }
        let tid = self.ctl[n].locks[lock].apply_grant();
        self.ctl[n].out_locks -= 1;
        self.make_ready(n, tid, t);
    }

    fn barrier_release(&mut self, proto: &mut dyn Coherence, t: VirtualTime) {
        let (vt, notices) = self.master.release();
        self.stats.barriers_crossed += 1;
        self.trace.record(
            t,
            TraceEvent::BarrierReleased {
                epoch: self.master.epoch(),
                notices: notices.len(),
            },
        );
        // Aggregated: one release per node; ablation: one per thread.
        let copies = if self.cfg.aggregate_barriers {
            1
        } else {
            self.cfg.threads_per_node
        };
        let saved = self.cur_span;
        for q in 1..self.cfg.nodes {
            // Each release rides in the *recipient's* Barrier span, so
            // its wire and handler time land on that node's episode.
            self.cur_span = self.barrier_span[q];
            for _ in 0..copies {
                self.send(
                    proto,
                    0,
                    q,
                    Payload::BarrierRelease {
                        epoch: self.master.epoch(),
                        vt: vt.clone(),
                        notices: notices.clone(),
                    },
                    t,
                );
            }
        }
        self.ctl[0].release_seen = self.master.epoch();
        self.cur_span = self.barrier_span[0];
        self.apply_release(proto, 0, vt, notices, t);
        self.cur_span = saved;
    }

    pub(super) fn apply_release(
        &mut self,
        proto: &mut dyn Coherence,
        n: usize,
        vt: VectorTime,
        notices: Vec<WriteNotice>,
        t: VirtualTime,
    ) {
        if let Some(started) = self.barrier_arrived_at[n].take() {
            // Node clocks diverge, so the master-side release time can
            // precede a fast node's arrival clock; its stall is then zero.
            let stall = t.max(started).since(started);
            self.hist.barrier_stall_ns.record(stall.as_ns());
            let span = std::mem::replace(&mut self.barrier_span[n], 0);
            self.spans.close(span, t.max(started));
        }
        self.apply_notices(proto, n, &notices);
        self.checked_merge(n, &vt, t);
        let woken = self.ctl[n].nb.take_blocked();
        for tid in woken {
            self.make_ready(n, tid, t);
        }
    }
}
