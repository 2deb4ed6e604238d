//! The application thread context — the DSM system-call surface.
//!
//! Every simulated application thread receives a [`ThreadCtx`]. Shared
//! reads and writes funnel through it so the page-protection state machine
//! fires exactly where `mprotect`/`SIGSEGV` would in the real CVM; the
//! synchronization calls (`acquire`, `release`, `barrier`, `local_barrier`)
//! yield to the driver, which runs the protocol and the non-preemptive
//! scheduler.
//!
//! A running thread *holds its node's cell*: the context locks the
//! [`NodeCell`] when the thread is resumed and keeps the guard until the
//! next blocking call, so a resident access is a shift, a state-table load
//! and a copy — no atomic operation. The paper's `ReadWrite` page is one
//! on which "all accesses proceed at full speed"; the protocol pays only
//! at faults. See [`node`](crate::node) for who holds the cell when.

use cvm_sim::coop::Yielder;
use cvm_sim::sync::{Mutex, MutexGuard};
use cvm_sim::{SimDuration, SimRng};

use crate::node::NodeCell;
use crate::page::{Addr, PageId, PageState};
use crate::shared::Shareable;

pub use crate::barrier::ReduceOp;

/// Why an application thread yielded to the driver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BlockReason {
    /// Access to a page needing remote data.
    Fault {
        /// Faulting page.
        page: PageId,
        /// True for a write access.
        write: bool,
    },
    /// Lock acquire.
    Acquire {
        /// Lock index.
        lock: usize,
    },
    /// Lock release (non-blocking; the driver performs grant/hand-off and
    /// resumes the thread).
    Release {
        /// Lock index.
        lock: usize,
    },
    /// Global barrier arrival.
    Barrier,
    /// Local (intra-node) barrier arrival with an optional reduction
    /// contribution.
    LocalBarrier {
        /// Contribution, if this is a reducing barrier.
        reduce: Option<(ReduceOp, f64)>,
    },
    /// Global reduction arrival (CVM's built-in reduction types).
    GlobalReduce {
        /// Operator and this thread's contribution.
        reduce: (ReduceOp, f64),
    },
    /// End-of-initialization rendezvous.
    Startup,
    /// End-of-measurement rendezvous (statistics snapshot).
    EndMeasure,
    /// Voluntary yield.
    Yield,
    /// Virtual-clock read (the driver writes the node clock into the cell
    /// and resumes the thread immediately; see [`ThreadCtx::now_ns`]).
    Now,
    /// Sleep until the given absolute virtual time (open-loop arrival
    /// pacing; see [`ThreadCtx::sleep_until`]).
    SleepUntil {
        /// Absolute virtual nanoseconds to wake at (clamped to now if in
        /// the past).
        ns: u64,
    },
}

/// Per-thread cost constants copied out of the system configuration.
#[derive(Debug, Clone, Copy)]
pub struct CtxCosts {
    /// Coherence page size.
    pub page_size: usize,
    /// Base cost of one shared access, ns.
    pub access_base_ns: u64,
    /// SIGSEGV user-level handling cost, ns.
    pub signal_ns: u64,
    /// `mprotect` cost, ns.
    pub mprotect_ns: u64,
    /// Twin page copy cost, ns.
    pub twin_copy_ns: u64,
    /// Instruction pages in the code footprint (I-TLB model).
    pub code_pages: usize,
}

/// Handle through which an application thread touches the DSM.
///
/// Obtained inside the closure passed to
/// [`CvmBuilder::run`](crate::CvmBuilder::run); see the crate-level example.
#[derive(Debug)]
pub struct ThreadCtx<'a> {
    yielder: &'a Yielder<BlockReason>,
    cell: &'a Mutex<NodeCell>,
    /// The node's cell, held for the whole burst: `Some` from the moment
    /// the thread is resumed until it hands the baton back.
    held: Option<MutexGuard<'a, NodeCell>>,
    /// `log2(page_size)`; `CvmConfig::validate` asserts the power of two.
    page_shift: u32,
    meter: Meter,
    global_id: usize,
    node: usize,
    local_id: usize,
    nodes: usize,
    threads_per_node: usize,
    started: bool,
    rng: SimRng,
}

/// The thread's virtual-time meter. Its own struct so that the access
/// path can charge it while it borrows the held cell.
#[derive(Debug)]
struct Meter {
    costs: CtxCosts,
    /// Virtual nanoseconds of the current burst, moved into the cell when
    /// the burst ends.
    burst_ns: u64,
    // Synthetic private-data and instruction streams for the memory-system
    // simulator.
    priv_counter: u64,
    pc: u64,
    access_counter: u64,
}

/// The one way `held` can be empty is a bug in this module.
const HELD: &str = "a running thread holds its node's cell";

/// Base virtual address of per-thread private regions (memsim only).
const PRIVATE_BASE: u64 = 0x1000_0000_0000;
/// Per-thread private working-set bytes (memsim only).
const PRIVATE_WS: u64 = 8 * 1024;
/// Base virtual address of the code segment (memsim only).
const CODE_BASE: u64 = 0x2000_0000_0000;

impl<'a> ThreadCtx<'a> {
    /// Assembles a context; called by the system when spawning threads.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        yielder: &'a Yielder<BlockReason>,
        cell: &'a Mutex<NodeCell>,
        costs: CtxCosts,
        global_id: usize,
        node: usize,
        local_id: usize,
        nodes: usize,
        threads_per_node: usize,
        rng: SimRng,
    ) -> Self {
        ThreadCtx {
            yielder,
            cell,
            // The engine runs a thread's closure only once it is resumed:
            // this is the start of its first burst.
            held: Some(cell.lock()),
            page_shift: costs.page_size.trailing_zeros(),
            meter: Meter {
                costs,
                burst_ns: 0,
                priv_counter: 0,
                // Distinct starting offsets within the thread's code window.
                pc: (global_id as u64 * 7919 * 64) % (costs.code_pages.max(1) as u64 * 4096),
                access_counter: 0,
            },
            global_id,
            node,
            local_id,
            nodes,
            threads_per_node,
            started: false,
            rng,
        }
    }

    /// Global thread id in `0..total_threads()`; threads of one node are
    /// consecutive, so contiguous chunk distributions keep node locality.
    pub fn global_id(&self) -> usize {
        self.global_id
    }

    /// This thread's node.
    pub fn node(&self) -> usize {
        self.node
    }

    /// Thread index within the node, `0..threads_per_node()`.
    pub fn local_id(&self) -> usize {
        self.local_id
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Threads per node.
    pub fn threads_per_node(&self) -> usize {
        self.threads_per_node
    }

    /// Total threads in the system.
    pub fn total_threads(&self) -> usize {
        self.nodes * self.threads_per_node
    }

    /// The contiguous chunk `[lo, hi)` of `len` items owned by this thread
    /// under the paper's block distribution (divide by total threads,
    /// consecutive chunks to co-located threads).
    pub fn partition(&self, len: usize) -> (usize, usize) {
        partition_for(self.global_id, self.total_threads(), len)
    }

    /// Deterministic per-thread random stream.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Charges `d` of pure computation to this thread's virtual time.
    pub fn work(&mut self, d: SimDuration) {
        self.meter.burst_ns += d.as_ns();
    }

    /// Reads a shared value (application-facing sugar lives on
    /// [`SharedVec`](crate::SharedVec)).
    pub fn read_val<T: Shareable>(&mut self, addr: Addr) -> T {
        let page = (addr.0 >> self.page_shift) as usize;
        loop {
            let cell = self.held.as_deref_mut().expect(HELD);
            if cell.state[page].readable() {
                self.meter.charge_access(self.global_id, cell, addr);
                if cell.track_steps {
                    cell.note_step_read(page);
                }
                let off = addr.0 as usize;
                return T::from_bytes(&cell.mem[off..off + T::SIZE]);
            }
            self.block(BlockReason::Fault {
                page: PageId(page),
                write: false,
            });
        }
    }

    /// Writes a shared value.
    ///
    /// # Panics
    ///
    /// Panics if called before [`startup_done`](Self::startup_done) by any
    /// thread other than global thread 0 (initialization is single-writer
    /// so that global data is uniform at startup, per the paper's
    /// programming model).
    pub fn write_val<T: Shareable>(&mut self, addr: Addr, v: T) {
        assert!(
            self.started || self.global_id == 0,
            "pre-startup writes must come from global thread 0"
        );
        let page = (addr.0 >> self.page_shift) as usize;
        loop {
            let cell = self.held.as_deref_mut().expect(HELD);
            match cell.state[page] {
                PageState::ReadWrite => {
                    self.meter.charge_access(self.global_id, cell, addr);
                    if cell.track_steps {
                        cell.note_step_write(page);
                    }
                    let off = addr.0 as usize;
                    cell.mem[off..off + T::SIZE].copy_from_slice(&v.to_bytes());
                    return;
                }
                PageState::ReadOnly => {
                    // Local write fault: signal + twin (if first) + upgrade.
                    let fresh = cell.ensure_twin(page);
                    cell.state[page] = PageState::ReadWrite;
                    let costs = &self.meter.costs;
                    self.meter.burst_ns += costs.signal_ns + costs.mprotect_ns;
                    if fresh {
                        self.meter.burst_ns += costs.twin_copy_ns;
                    }
                    // Retry takes the ReadWrite arm.
                }
                PageState::Invalid | PageState::Unmapped => self.block(BlockReason::Fault {
                    page: PageId(page),
                    write: true,
                }),
            }
        }
    }

    /// Acquires global lock `lock`, blocking until held.
    pub fn acquire(&mut self, lock: usize) {
        self.block(BlockReason::Acquire { lock });
    }

    /// Releases global lock `lock`.
    ///
    /// The release itself does not block, but control passes through the
    /// driver so grants and local hand-offs happen immediately.
    pub fn release(&mut self, lock: usize) {
        self.block(BlockReason::Release { lock });
    }

    /// Arrives at the global barrier; returns when all threads in the
    /// system have arrived and the release has reached this node.
    pub fn barrier(&mut self) {
        self.block(BlockReason::Barrier);
    }

    /// Arrives at the node-local barrier (no network traffic).
    pub fn local_barrier(&mut self) {
        self.block(BlockReason::LocalBarrier { reduce: None });
    }

    /// Local barrier carrying a reduction: all co-located threads
    /// contribute `value` under `op`; every participant receives the
    /// combined result. Used to aggregate local updates into a single
    /// remote update, the paper's `r` modification.
    pub fn local_reduce(&mut self, op: ReduceOp, value: f64) -> f64 {
        self.block(BlockReason::LocalBarrier {
            reduce: Some((op, value)),
        });
        self.held().lb_result
    }

    /// Marks the end of single-threaded initialization. All threads must
    /// call it exactly once; global data becomes uniformly visible and all
    /// statistics and clocks reset to zero.
    pub fn startup_done(&mut self) {
        self.block(BlockReason::Startup);
        self.started = true;
    }

    /// Performs a system-wide reduction using CVM's built-in reduction
    /// support: contributions aggregate per node first (one arrival
    /// message per node, like barriers), then across nodes at the master;
    /// every thread receives the combined result. Synchronizes the
    /// *value* only — unlike [`barrier`](Self::barrier) it does not
    /// exchange write notices, so pair it with a barrier when memory
    /// ordering is also required.
    pub fn global_reduce(&mut self, op: ReduceOp, value: f64) -> f64 {
        self.block(BlockReason::GlobalReduce {
            reduce: (op, value),
        });
        self.held().gr_result
    }

    /// Marks the end of the measured region. All threads must call it
    /// (like a barrier); the run report snapshots statistics, clocks and
    /// traffic at this point, so verification code executed afterwards
    /// (checksums, assertions) does not perturb the measurements. If never
    /// called, the report covers the whole run.
    pub fn end_measured(&mut self) {
        self.block(BlockReason::EndMeasure);
    }

    /// Voluntarily yields the processor (CVM's explicit thread-switch
    /// system call).
    pub fn yield_now(&mut self) {
        self.block(BlockReason::Yield);
    }

    /// Reads this node's virtual clock, in nanoseconds.
    ///
    /// This is a blocking operation (control passes through the driver so
    /// the accumulated burst is charged first and the answer reflects all
    /// work done so far), which keeps reports byte-identical at any
    /// `--workers` count: the clock is never observed mid-burst.
    pub fn now_ns(&mut self) -> u64 {
        self.block(BlockReason::Now);
        self.held().now_ns
    }

    /// Sleeps until the absolute virtual time `ns` (no-op if already
    /// past). The open-loop primitive: arrival pacing independent of
    /// completion times, so queueing delay is visible in request latency
    /// instead of silently throttling the generator.
    pub fn sleep_until(&mut self, ns: u64) {
        self.block(BlockReason::SleepUntil { ns });
    }

    /// Records one end-to-end request latency into the run's `request`
    /// histogram (serving workloads; see
    /// [`DsmHistograms::request_ns`](crate::DsmHistograms)).
    pub fn record_request(&mut self, latency_ns: u64) {
        self.held().req_hist.record(latency_ns);
    }

    /// The held cell, for the calls off the access path.
    fn held(&mut self) -> &mut NodeCell {
        self.held.as_deref_mut().expect(HELD)
    }

    /// Ends the burst, hands the baton to the driver and starts the next
    /// burst when the driver hands it back. A parked thread holds nothing.
    fn block(&mut self, reason: BlockReason) {
        self.flush_burst();
        self.yielder.block(reason);
        self.held = Some(self.cell.lock());
    }

    /// Ends the burst: moves its time into the cell and lets the cell go.
    /// Called by the runtime when the thread body returns.
    pub(crate) fn flush_burst(&mut self) {
        let mut cell = self.held.take().expect(HELD);
        cell.burst_ns += std::mem::take(&mut self.meter.burst_ns);
    }
}

impl Meter {
    fn charge_access(&mut self, global_id: usize, cell: &mut NodeCell, addr: Addr) {
        self.burst_ns += self.costs.access_base_ns;
        self.access_counter += 1;
        let Some(mem) = cell.memsim.as_mut() else {
            return;
        };
        let tid = global_id as u64;
        let window = self.costs.code_pages.max(1) as u64 * 4096;
        // Advance the synthetic instruction pointer within this thread's
        // current code window; different threads occupy different windows
        // (they execute different phases of the shared program), so the
        // combined hot instruction footprint grows with interleaving.
        self.pc = (self.pc + 64) % window;
        let window_base = CODE_BASE + (tid % 4) * window;
        let priv_addr = PRIVATE_BASE + tid * PRIVATE_WS * 4 + (self.priv_counter * 64) % PRIVATE_WS;
        let do_private = self.access_counter.is_multiple_of(4);
        if do_private {
            self.priv_counter += 1;
        }
        let pc = window_base + self.pc;
        let data = mem.data_access(addr.0);
        self.burst_ns += data.cost_ns;
        self.burst_ns += mem.inst_access(pc);
        if do_private {
            let p = mem.data_access(priv_addr);
            self.burst_ns += p.cost_ns;
        }
    }
}

/// Contiguous block partition of `len` items among `parts` owners.
pub fn partition_for(owner: usize, parts: usize, len: usize) -> (usize, usize) {
    let base = len / parts;
    let extra = len % parts;
    let lo = owner * base + owner.min(extra);
    let hi = lo + base + usize::from(owner < extra);
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_everything_once() {
        for parts in 1..10 {
            for len in [0usize, 1, 7, 100, 101] {
                let mut covered = 0;
                let mut prev_hi = 0;
                for owner in 0..parts {
                    let (lo, hi) = partition_for(owner, parts, len);
                    assert_eq!(lo, prev_hi, "chunks are contiguous");
                    assert!(hi >= lo);
                    covered += hi - lo;
                    prev_hi = hi;
                }
                assert_eq!(covered, len);
                assert_eq!(prev_hi, len);
            }
        }
    }

    #[test]
    fn partition_is_balanced() {
        for owner in 0..8 {
            let (lo, hi) = partition_for(owner, 8, 100);
            assert!(hi - lo == 12 || hi - lo == 13, "owner {owner}: {}", hi - lo);
        }
    }
}
