//! The system driver, decomposed into a layered protocol stack.
//!
//! CVM "was created specifically as a platform for protocol
//! experimentation"; this module keeps that property by separating the
//! *mechanism* every protocol shares from the *policy* each protocol
//! defines. The layers, and what each may call:
//!
//! ```text
//!  run loop (mod.rs)
//!     │  polls network + event queue, routes to:
//!     ├─► transport dispatch (transport.rs)
//!     │      send / send_remote, typed payload handlers
//!     │      ├─► sync services          (lock/barrier/reduce payloads)
//!     │      └─► Coherence::on_message  (data payloads)
//!     └─► scheduler (scheduler.rs)
//!            run queues, wait classes, thread-switch accounting
//!            ├─► sync services          (acquire/release/barrier blocks)
//!            └─► Coherence::on_fault    (page-fault blocks)
//!
//!  sync services (sync.rs)
//!     lock manager, barrier master, reductions, startup/end-measure
//!     └─► coherence mechanism (close_interval, apply_notices, merge)
//!
//!  coherence engine (coherence.rs)
//!     Coherence trait + shared mechanism (twins, diffs, intervals,
//!     notices, fetch assembly) — policy impls in:
//!        lazy.rs   (LazyMultiWriter: invalidate, pull diffs on fault)
//!        eager.rs  (EagerUpdate: push diffs to copysets at close)
//!        home.rs   (HomeLazy: flush diffs to a home, pull whole pages)
//!
//!  report assembly (report.rs)
//!     reads every layer's counters; calls nothing
//! ```
//!
//! The scheduler, sync and transport layers never branch on
//! [`ProtocolKind`](crate::ProtocolKind): the single point where the kind
//! is consulted is [`make_protocol`], which picks the [`Coherence`] impl
//! for the run. See `DESIGN.md` at the repository root for the layer map
//! and a guide to writing a new protocol.

mod coherence;
mod eager;
mod home;
mod hosttime;
mod lazy;
mod report;
mod scheduler;
mod start;
mod sync;
#[cfg(test)]
mod tests;
mod transport;

pub use coherence::Coherence;
pub use hosttime::{enable as enable_host_time, table as host_time_table};
pub use start::StartError;

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use cvm_net::NetworkSim;
use cvm_sim::coop::{CoopScheduler, CoopThreadId, Yielder};
use cvm_sim::sync::{Mutex, MutexGuard};
use cvm_sim::{EventQueue, Fnv64, SimRng, StepLog, VirtualTime};

use cvm_memsim::MemSystem;

use crate::attr::ResourceAttr;
use crate::barrier::{BarrierMaster, LocalBarrier, NodeBarrier, ReduceOp};
use crate::config::CvmConfig;
use crate::ctx::{BlockReason, CtxCosts, ThreadCtx};
use crate::diff::Diff;
use crate::hist::DsmHistograms;
use crate::interval::{IntervalLog, VectorTime};
use crate::lock::{LockLocal, LockManager};
use crate::msg::Payload;
use crate::node::NodeCell;
use crate::oracle::{InjectFault, Invariant, Oracle};
use crate::page::{PageId, PageState};
use crate::protocol::ProtocolKind;
use crate::report::{NodeBreakdown, RunReport};
use crate::sched::NodeSched;
use crate::shared::{Shareable, SharedMat, SharedVec};
use crate::span::SpanForest;
use crate::stats::DsmStats;
use crate::trace::Trace;

use coherence::PendingFetch;
use eager::EagerUpdate;
use home::HomeLazy;
use hosttime::{HostTime, Seam};
use lazy::LazyMultiWriter;

/// Builder for a CVM system: allocate shared memory, then run an SPMD
/// application. See the crate-level example.
#[derive(Debug)]
pub struct CvmBuilder {
    cfg: CvmConfig,
    next_addr: u64,
}

impl CvmBuilder {
    /// Starts building a system under `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: CvmConfig) -> Self {
        Invariant::ConfigPositive.require(cfg.nodes > 0 && cfg.threads_per_node > 0, || {
            format!(
                "need at least one node and one thread per node, got {}x{}",
                cfg.nodes, cfg.threads_per_node
            )
        });
        CvmBuilder { cfg, next_addr: 0 }
    }

    /// The configuration being built.
    pub fn config(&self) -> &CvmConfig {
        &self.cfg
    }

    /// Allocates a shared array of `len` elements, page-aligned so that
    /// independent arrays never share pages.
    pub fn alloc<T: Shareable>(&mut self, len: usize) -> SharedVec<T> {
        let base = self.next_addr;
        let bytes = (len * T::SIZE) as u64;
        let ps = self.cfg.page_size as u64;
        self.next_addr = (base + bytes).div_ceil(ps) * ps;
        SharedVec::from_raw(base, len)
    }

    /// Allocates a shared row-major matrix.
    pub fn alloc_mat<T: Shareable>(&mut self, rows: usize, cols: usize) -> SharedMat<T> {
        let v = self.alloc::<T>(rows * cols);
        let _ = v;
        // Recompute the base the alloc used.
        let bytes = (rows * cols * T::SIZE) as u64;
        let ps = self.cfg.page_size as u64;
        let base = self.next_addr - bytes.div_ceil(ps) * ps;
        SharedMat::from_raw(base, rows, cols)
    }

    /// Runs the SPMD application `app` on every thread and returns the run
    /// report. Statistics cover the portion after
    /// [`startup_done`](crate::ThreadCtx::startup_done) (or the whole run
    /// if it is never called).
    ///
    /// # Panics
    ///
    /// Panics if an application thread panics, on protocol deadlock
    /// (threads blocked with no pending events — an application
    /// synchronization bug), or with the [`StartError`] of
    /// [`try_run`](Self::try_run).
    pub fn run<F>(self, app: F) -> RunReport
    where
        F: Fn(&mut ThreadCtx<'_>) + Send + Sync + 'static,
    {
        self.try_run(app).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`run`](Self::run) for a caller that chose the system's size from
    /// outside input: a host that cannot hold one OS thread per
    /// application thread is an error here, with every thread it did
    /// start already shut down.
    ///
    /// # Errors
    ///
    /// Returns which thread the host refused, and why.
    ///
    /// # Panics
    ///
    /// As [`run`](Self::run), except for the refused thread.
    pub fn try_run<F>(mut self, app: F) -> Result<RunReport, StartError>
    where
        F: Fn(&mut ThreadCtx<'_>) + Send + Sync + 'static,
    {
        self.cfg.segment_size = (self.next_addr as usize)
            .div_ceil(self.cfg.page_size)
            .max(1)
            * self.cfg.page_size;
        self.cfg.validate();
        let host = HostTime::begin();
        let t0 = host.start();
        let mut driver = Driver::new(self.cfg, Arc::new(app), host)?;
        driver.core.host.stop(Seam::DriverNew, t0);
        let report = driver.run();
        let mut host = std::mem::take(&mut driver.core.host);
        let t0 = host.start();
        drop(driver);
        host.stop(Seam::Drop, t0);
        host.publish();
        Ok(report)
    }
}

/// Events in the driver's own queue (network events live in `cvm-net`).
#[derive(Debug, Clone, Copy)]
enum MainEvent {
    /// The node should schedule its next ready thread.
    NodeResume(usize),
    /// A thread's `sleep_until` deadline arrived: make `(node, tid)`
    /// ready again.
    ThreadWake(usize, usize),
}

/// Driver-private per-node control state.
struct NodeCtl {
    sched: NodeSched,
    /// Indexed by lock id; as long as `DriverCore::lock_mgrs`, which
    /// `grow_locks` extends on the first acquire of an id.
    locks: Vec<LockLocal>,
    nb: NodeBarrier,
    lb: LocalBarrier,
    /// Node-local aggregation for global reductions.
    gred: LocalBarrier,
    vt: VectorTime,
    log: IntervalLog,
    /// Per writer: interval → pages (everything this node has learned).
    notice_store: Vec<BTreeMap<u32, Vec<PageId>>>,
    /// Page → un-applied write notices `(writer, interval)`.
    pending: HashMap<usize, Vec<(usize, u32)>>,
    /// `(page, writer)` → highest applied diff tag (diff-tag namespace,
    /// used as the `since` filter for diff requests).
    applied_dtag: HashMap<(usize, usize), u32>,
    /// `(page, writer)` → highest *interval* of the writer known to be
    /// reflected in our copy (used to retire write notices). Never runs
    /// ahead of the writer's actually-closed intervals.
    applied_ivl: HashMap<(usize, usize), u32>,
    fetches: HashMap<usize, PendingFetch>,
    /// This node's own diffs: page → `(tag, close gseq, diff)` ascending.
    diff_cache: HashMap<usize, Vec<(u32, u64, Diff)>>,
    /// Page → global sequence of its most recent interval close here.
    page_close_gseq: HashMap<usize, u64>,
    /// Page → highest close gseq whose diff is reflected in our copy.
    /// Push-style protocols consult this to refuse a diff arriving after
    /// a causally later one (the network reorders across message sizes);
    /// the refused diff is recovered through the notice/refault path.
    applied_gseq: HashMap<usize, u64>,
    out_faults: usize,
    out_locks: usize,
    /// Latest barrier-release epoch applied (filters stale duplicate
    /// releases in the non-aggregated ablation mode).
    release_seen: u32,
    breakdown: NodeBreakdown,
    /// Bytes currently held in `diff_cache` (modelled wire size).
    cache_bytes: u64,
    /// High-water mark of `cache_bytes`.
    cache_peak: u64,
}

impl NodeCtl {
    fn new(nodes: usize, threads_per_node: usize) -> Self {
        NodeCtl {
            sched: NodeSched::new(threads_per_node),
            locks: Vec::new(),
            nb: NodeBarrier::default(),
            lb: LocalBarrier::default(),
            gred: LocalBarrier::default(),
            vt: VectorTime::new(nodes),
            log: IntervalLog::new(),
            notice_store: vec![BTreeMap::new(); nodes],
            pending: HashMap::new(),
            applied_dtag: HashMap::new(),
            applied_ivl: HashMap::new(),
            fetches: HashMap::new(),
            diff_cache: HashMap::new(),
            page_close_gseq: HashMap::new(),
            applied_gseq: HashMap::new(),
            out_faults: 0,
            out_locks: 0,
            release_seen: 0,
            breakdown: NodeBreakdown::default(),
            cache_bytes: 0,
            cache_peak: 0,
        }
    }

    fn applied_dtag(&self, page: usize, writer: usize) -> u32 {
        self.applied_dtag.get(&(page, writer)).copied().unwrap_or(0)
    }

    fn applied_ivl(&self, page: usize, writer: usize) -> u32 {
        self.applied_ivl.get(&(page, writer)).copied().unwrap_or(0)
    }
}

/// Upper bound on lock ids (CVM's table size). The tables themselves
/// cover only the ids a program has acquired: see `DriverCore::grow_locks`.
pub const MAX_LOCKS: usize = 4096;

struct ThreadInfo {
    node: usize,
    coop: CoopThreadId,
    finished: bool,
}

/// The protocol-independent mechanism state: cluster cells, per-node
/// control state, scheduler queues, network, sync services and
/// measurement sinks. [`Coherence`] impls receive `&mut DriverCore` at
/// each hook point and drive the run through its `pub(super)` methods;
/// outside the driver the type is opaque.
pub struct DriverCore {
    cfg: CvmConfig,
    cells: Vec<Arc<Mutex<NodeCell>>>,
    ctl: Vec<NodeCtl>,
    threads: Vec<ThreadInfo>,
    coop: CoopScheduler<BlockReason>,
    net: NetworkSim<Payload>,
    mainq: EventQueue<MainEvent>,
    /// Per node: `twin_bytes_live` as last observed at a sequential
    /// sample point (end of `run_node`, end of a handler). Caching the
    /// per-node values lets the cluster-wide sum be maintained in O(1)
    /// per sample instead of a sweep over every cell.
    twin_live_seen: Vec<u64>,
    /// Sum of `twin_live_seen`: cluster-wide live twin bytes.
    twin_live_sum: u64,
    /// High-water mark of `twin_live_sum` — the whole-run twin peak.
    twin_global_peak: u64,
    /// Cluster-wide live diff-cache bytes (sum of `NodeCtl::cache_bytes`).
    cache_live_sum: u64,
    /// High-water mark of `cache_live_sum`.
    cache_global_peak: u64,
    lock_mgrs: Vec<LockManager>,
    master: BarrierMaster,
    stats: DsmStats,
    startup_arrived: usize,
    endm_arrived: usize,
    /// Master-side global-reduction episode: arrivals and accumulator.
    gred_count: usize,
    gred_acc: Option<f64>,
    gred_op: Option<ReduceOp>,
    snapshot: Option<RunReport>,
    finished_total: usize,
    /// Global interval-close sequence: a total order consistent with
    /// happens-before, used to order diff application (stands in for the
    /// vector-timestamp comparison of the real protocol).
    gseq: u64,
    /// Protocol event trace (capacity 0 = disabled).
    trace: Trace,
    /// Latency/size distributions (always on).
    hist: DsmHistograms,
    /// Per-page / per-lock attribution (always on).
    attr: ResourceAttr,
    /// `(node, lock)` → when the node's remote request left (histogram
    /// sample start, consumed at the grant).
    lock_req_at: HashMap<(usize, usize), VirtualTime>,
    /// `(lock, acquirer)` → hop count the manager decided for the grant
    /// in flight (2 = manager owned the token, 3 = forwarded to owner).
    lock_hops: HashMap<(usize, usize), u8>,
    /// Per node: first arrival time of the current barrier episode.
    barrier_arrived_at: Vec<Option<VirtualTime>>,
    /// Causal span forest (`cfg.spans` gates recording).
    spans: SpanForest,
    /// Ambient span context: the span of the message being handled (or
    /// of the operation being driven), stamped onto outgoing messages.
    cur_span: u64,
    /// Page → span that invalidated it, linking the
    /// notice→refault→pull recovery chain into one causal tree.
    page_cause: HashMap<usize, u64>,
    /// Per node: the open Barrier span of the current episode (0 none).
    barrier_span: Vec<u64>,
    /// Per node: the open Reduce span of the current episode (0 none).
    reduce_span: Vec<u64>,
    /// `(node, lock)` → open LockAcquire span awaiting its grant.
    lock_span: HashMap<(usize, usize), u64>,
    /// Invariant checker: panics on violation normally, records findings
    /// under `cfg.verify`.
    oracle: Oracle,
    /// Scheduling-point log, when `cfg.record_steps`.
    steps: Option<StepLog>,
    /// Occurrences of the configured injection's fault site seen so far
    /// (the injection corrupts occurrence `nth` only).
    inject_seen: u64,
    /// Host-time ledger of this run's dispatch seams (`--host-time`).
    host: HostTime,
}

/// Step-log capacity: far above any tiny-kernel run, bounded so a
/// misconfigured paper-scale run cannot exhaust host memory.
const STEP_LOG_CAP: usize = 1 << 20;

impl std::fmt::Debug for DriverCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DriverCore")
            .field("nodes", &self.cfg.nodes)
            .field("threads", &self.threads.len())
            .field("finished_total", &self.finished_total)
            .finish_non_exhaustive()
    }
}

/// The assembled system: the shared mechanism plus the protocol policy
/// selected by [`make_protocol`].
struct Driver {
    core: DriverCore,
    proto: Box<dyn Coherence>,
}

type AppFn = Arc<dyn Fn(&mut ThreadCtx<'_>) + Send + Sync>;

/// The single place where [`ProtocolKind`] selects behaviour: every other
/// layer goes through the [`Coherence`] trait object this returns.
fn make_protocol(kind: ProtocolKind) -> Box<dyn Coherence> {
    match kind {
        ProtocolKind::LazyMultiWriter => Box::new(LazyMultiWriter),
        ProtocolKind::EagerUpdate => Box::new(EagerUpdate::default()),
        ProtocolKind::HomeLazy => Box::new(HomeLazy::default()),
    }
}

/// The wire `cfg` describes — jitter, loss, fault plan — drawing its
/// streams from `rng` in that order. Used at start-up and again when the
/// measured region begins.
fn network(cfg: &CvmConfig, rng: &mut SimRng) -> NetworkSim<Payload> {
    let mut net = NetworkSim::new(cfg.nodes, cfg.latency.clone());
    if !cfg.jitter_max.is_zero() {
        net.set_jitter(rng.derive(0x7177), cfg.jitter_max);
    }
    if let Some(loss) = cfg.loss {
        net.enable_loss(rng.derive(0xDEAD), loss);
    }
    if let Some(plan) = cfg.faults.as_ref().filter(|p| !p.is_empty()) {
        // A fault plan needs the reliability layer underneath; give it the
        // default adaptive configuration if none was requested. The
        // derives happen only for a non-empty plan, so `None` and
        // `Some(empty)` produce byte-identical reports — no acks, no loss
        // counters, untouched seed streams.
        if cfg.loss.is_none() {
            net.enable_loss(rng.derive(0xDEAD), cvm_net::LossConfig::clean_adaptive());
        }
        net.set_faults(rng.derive(0xFA17), plan.clone());
    }
    net
}

impl Driver {
    /// On a refused thread, returns with the threads spawned so far
    /// joined (`coop` is dropped) and nothing else left behind.
    fn new(cfg: CvmConfig, app: AppFn, host: HostTime) -> Result<Self, StartError> {
        let nodes = cfg.nodes;
        let tpn = cfg.threads_per_node;
        let pages = cfg.pages();
        let mut rng = SimRng::seed_from(cfg.seed);
        let cells: Vec<Arc<Mutex<NodeCell>>> = (0..nodes)
            .map(|_| {
                let mem = cfg.memsim_enabled.then(|| MemSystem::new(cfg.mem));
                Arc::new(Mutex::new(NodeCell::new(cfg.page_size, pages, mem)))
            })
            .collect();
        // Node 0 performs initialization: its pages start writable.
        {
            let mut c0 = cells[0].lock();
            for s in &mut c0.state {
                *s = PageState::ReadWrite;
            }
        }
        let ctl: Vec<NodeCtl> = (0..nodes).map(|_| NodeCtl::new(nodes, tpn)).collect();
        let costs = CtxCosts {
            page_size: cfg.page_size,
            access_base_ns: cfg.access_base.as_ns(),
            signal_ns: cfg.signal.as_ns(),
            mprotect_ns: cfg.mprotect.as_ns(),
            twin_copy_ns: cfg.twin_copy.as_ns(),
            code_pages: cfg.code_pages,
        };
        let mut coop: CoopScheduler<BlockReason> = CoopScheduler::new();
        let mut threads = Vec::with_capacity(nodes * tpn);
        // Index loop intentional: `node` is both an id stored in thread
        // info and an index into `cells`.
        #[allow(clippy::needless_range_loop)]
        for node in 0..nodes {
            for local in 0..tpn {
                let gid = node * tpn + local;
                let cell = Arc::clone(&cells[node]);
                let app = Arc::clone(&app);
                let trng = rng.derive(gid as u64);
                // The closure owns the `Arc`; the context borrows the cell
                // from it and holds it locked while the thread runs.
                let spawned = coop.try_spawn(move |y: &Yielder<BlockReason>| {
                    let mut ctx =
                        ThreadCtx::new(y, &cell, costs, gid, node, local, nodes, tpn, trng);
                    app(&mut ctx);
                    ctx.flush_burst();
                });
                let coop_id = spawned.map_err(|source| StartError {
                    started: gid,
                    wanted: nodes * tpn,
                    source,
                })?;
                threads.push(ThreadInfo {
                    node,
                    coop: coop_id,
                    finished: false,
                });
            }
        }
        let cfg2_trace = cfg.trace_capacity;
        let cfg2_spans = cfg.spans;
        let oracle = if cfg.verify {
            Oracle::recording(cfg.verify_sink.clone())
        } else {
            Oracle::disabled()
        };
        let steps = cfg.record_steps.then(|| StepLog::new(STEP_LOG_CAP));
        if cfg.record_steps {
            for cell in &cells {
                cell.lock().track_steps = true;
            }
        }
        let net = network(&cfg, &mut rng);
        let barrier_expected = if cfg.aggregate_barriers {
            nodes
        } else {
            nodes * tpn
        };
        let proto = make_protocol(cfg.protocol);
        let core = DriverCore {
            cfg,
            cells,
            ctl,
            threads,
            coop,
            net,
            mainq: EventQueue::with_capacity(nodes * tpn),
            twin_live_seen: vec![0; nodes],
            twin_live_sum: 0,
            twin_global_peak: 0,
            cache_live_sum: 0,
            cache_global_peak: 0,
            lock_mgrs: Vec::new(),
            master: BarrierMaster::new(nodes, barrier_expected),
            stats: DsmStats::new(),
            startup_arrived: 0,
            endm_arrived: 0,
            gred_count: 0,
            gred_acc: None,
            gred_op: None,
            snapshot: None,
            finished_total: 0,
            gseq: 0,
            trace: Trace::new(cfg2_trace),
            hist: DsmHistograms::new(),
            attr: ResourceAttr::new(),
            lock_req_at: HashMap::new(),
            lock_hops: HashMap::new(),
            barrier_arrived_at: vec![None; nodes],
            spans: SpanForest::new(cfg2_spans),
            cur_span: 0,
            page_cause: HashMap::new(),
            barrier_span: vec![0; nodes],
            reduce_span: vec![0; nodes],
            lock_span: HashMap::new(),
            oracle,
            steps,
            inject_seen: 0,
            host,
        };
        Ok(Driver { core, proto })
    }

    fn run(&mut self) -> RunReport {
        let proto = self.proto.as_mut();
        let core = &mut self.core;
        proto.reset(core);
        for tid in 0..core.threads.len() {
            let n = core.threads[tid].node;
            core.ctl[n].sched.ready.push_back(tid);
        }
        for n in 0..core.cfg.nodes {
            core.schedule_resume(n, VirtualTime::ZERO);
        }
        loop {
            let limit = core.mainq.peek_time().unwrap_or(VirtualTime::MAX);
            let t0 = core.host.start();
            let polled = core.net.poll(limit);
            core.host.stop(Seam::NetPoll, t0);
            if let Some((t, msg)) = polled {
                if core.spans.enabled() {
                    if let Some(info) = core.net.last_delivery() {
                        core.spans
                            .record_hop(msg.span, msg.src.0, msg.dst.0, msg.kind, info);
                    }
                }
                // Handlers run inside the delivered message's causal
                // span: their own sends inherit it via send_remote.
                let dst = msg.dst.0;
                let t0 = core.host.start();
                core.cur_span = msg.span;
                core.handle_payload(&mut *proto, dst, msg.src.0, msg.payload, t);
                core.cur_span = 0;
                core.sample_twin_live(dst);
                core.host.stop(Seam::Payload(msg.kind), t0);
                continue;
            }
            match core.mainq.pop() {
                Some((t, MainEvent::NodeResume(n))) => core.run_node(&mut *proto, n, t),
                Some((t, MainEvent::ThreadWake(n, tid))) => {
                    core.ctl[n].sched.sleeping -= 1;
                    core.make_ready(n, tid, t);
                }
                None => break,
            }
        }
        let unfinished = core.threads.len() - core.finished_total;
        // Unfinished threads with no abandoned traffic is a protocol bug
        // (a genuine deadlock) and still panics. Unfinished threads whose
        // traffic was abandoned at retry exhaustion is the structured
        // peer-unresponsive outcome: report it as degradation.
        assert!(
            unfinished == 0 || !core.net.delivery_failures().is_empty(),
            "deadlock: {} of {} threads never finished (blocked on \
             unsatisfied synchronization)",
            unfinished,
            core.threads.len()
        );
        let t0 = core.host.start();
        let report = core.build_report();
        core.host.stop(Seam::BuildReport, t0);
        report
    }
}

impl DriverCore {
    /// Node `n`'s cell — the driver's only way to it. A running thread
    /// holds its node's cell for the whole burst, so the driver may reach
    /// for it only between that node's bursts. `resume` returns with the
    /// burst over, so the sequential loop keeps the rule by construction;
    /// debug builds check it.
    pub(super) fn cell(&self, n: usize) -> MutexGuard<'_, NodeCell> {
        let tpn = self.cfg.threads_per_node;
        debug_assert!(
            // Threads are numbered node by node.
            !self.threads[n * tpn..(n + 1) * tpn]
                .iter()
                .any(|t| self.coop.is_running(t.coop)),
            "driver reached for node {n}'s cell while a burst of one of its threads is in flight"
        );
        self.cells[n].lock()
    }

    /// Re-samples node `n`'s live twin bytes into the cluster-wide sum
    /// and advances the whole-run peak. Called at the two sequential
    /// points where a cell's twins can just have changed — the end of
    /// `run_node` and the end of a message handler — so the peak is a
    /// property of the simulated execution.
    pub(super) fn sample_twin_live(&mut self, n: usize) {
        let live = self.cell(n).twin_bytes_live;
        let old = std::mem::replace(&mut self.twin_live_seen[n], live);
        self.twin_live_sum = self.twin_live_sum + live - old;
        self.twin_global_peak = self.twin_global_peak.max(self.twin_live_sum);
    }

    /// True when the configured injection's fault site is at its targeted
    /// occurrence; advances the occurrence counter either way.
    pub(super) fn inject_hits(&mut self, want: fn(&InjectFault) -> Option<u64>) -> bool {
        let Some(fault) = &self.cfg.inject else {
            return false;
        };
        let Some(nth) = want(fault) else {
            return false;
        };
        let seen = self.inject_seen;
        self.inject_seen += 1;
        seen == nth
    }

    /// FNV-1a fingerprint of the terminal protocol-visible state: every
    /// node's memory image, page protection states and vector time. Two
    /// runs with the same fingerprint are indistinguishable to the
    /// application; the model checker uses it for byte-identical replay
    /// assertions and duplicate-terminal-state counting.
    fn state_fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        for n in 0..self.cfg.nodes {
            let c = self.cell(n);
            h.write_u64(n as u64);
            h.write(&c.mem);
            for s in &c.state {
                h.write_u64(match s {
                    PageState::Unmapped => 0,
                    PageState::Invalid => 1,
                    PageState::ReadOnly => 2,
                    PageState::ReadWrite => 3,
                });
            }
            for q in 0..self.cfg.nodes {
                h.write_u64(u64::from(self.ctl[n].vt.get(q)));
            }
        }
        h.finish()
    }
}
