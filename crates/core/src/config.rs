//! System configuration.

use cvm_memsim::MemConfig;
use cvm_net::{FaultPlan, LatencyModel, LossConfig};
use cvm_sim::{PickPolicy, SimDuration};

use crate::oracle::{FindingSink, InjectFault};
use crate::protocol::ProtocolKind;

/// The master seed of a run that is not given its own: the paper tables'
/// cells, the sweep's default master seed and `cvm check`'s runs.
pub const DEFAULT_SEED: u64 = 0x5EED_CAFE;

/// Complete configuration of a CVM run.
///
/// The defaults reproduce the paper's environment: 8 KB coherence pages,
/// the Alpha/ATM latency constants, an 8 µs thread switch, and the SP-2
/// memory-system geometry used for Figure 2.
#[derive(Debug, Clone)]
pub struct CvmConfig {
    /// Number of nodes (physical processors). The paper uses 4, 8 and a
    /// virtualized 16.
    pub nodes: usize,
    /// Application threads per node (the paper's multi-threading level,
    /// 1–4).
    pub threads_per_node: usize,
    /// Coherence page size in bytes (8 KB on the Alphas; the SP-2 runs were
    /// forced to the same value).
    pub page_size: usize,
    /// Total shared segment size in bytes; must be a multiple of
    /// `page_size`. Usually set by [`CvmBuilder`](crate::CvmBuilder)
    /// allocation.
    pub segment_size: usize,
    /// Network latency model.
    pub latency: LatencyModel,
    /// Cost of one user-level thread switch (8 µs in the paper).
    pub thread_switch: SimDuration,
    /// Cost of an `mprotect` call (49 µs).
    pub mprotect: SimDuration,
    /// Cost of user-level SIGSEGV handling (98 µs).
    pub signal: SimDuration,
    /// Cost of copying one page to create a twin.
    pub twin_copy: SimDuration,
    /// Cost per 8-byte word compared when creating a diff.
    pub diff_word_create: SimDuration,
    /// Cost per 8-byte word applied from a diff.
    pub diff_word_apply: SimDuration,
    /// Base virtual-time cost of one shared-memory access (instruction +
    /// L1 hit), excluding simulated cache/TLB penalties.
    pub access_base: SimDuration,
    /// Whether to run the cache/TLB simulators (Figure 2). Off by default:
    /// they roughly double simulation time.
    pub memsim_enabled: bool,
    /// Memory-system geometry when `memsim_enabled`.
    pub mem: MemConfig,
    /// Instruction pages in one thread's *active code window* (feeds the
    /// I-TLB model): each thread executes a different phase of the shared
    /// code at any instant, so interleaving more threads enlarges the hot
    /// instruction footprint past the I-TLB capacity.
    pub code_pages: usize,
    /// Which coherence protocol to run (the paper's lazy multi-writer by
    /// default; CVM is a protocol-experimentation platform and ships an
    /// eager-update alternative for comparison).
    pub protocol: ProtocolKind,
    /// Aggregate barrier arrivals per node (the paper's multi-threading
    /// modification: all but the last local thread switch out and the last
    /// sends a single per-node arrival). Disable for the ablation: every
    /// thread then sends its own arrival and receives its own release.
    pub aggregate_barriers: bool,
    /// How each node chooses its next ready thread: FIFO (the paper's
    /// scheduler) or LIFO base order (see the `ablation` harness and
    /// benches), optionally overridden for a prefix of the run by a
    /// replay script (`cvm check --dpor`) or a seeded perturbation (the
    /// schedule-exploration checker).
    pub pick: PickPolicy,
    /// Lock releases prefer local queue inhabitants over remote waiters
    /// (the paper's unfair-but-fast policy). Disable for the ablation:
    /// remote waiters are served first and the node re-requests the lock
    /// for its remaining local waiters.
    pub prefer_local_lock_waiters: bool,
    /// Maximum consecutive local lock hand-offs past a *parked remote
    /// waiter* before the waiter is served despite
    /// `prefer_local_lock_waiters`. `0` (the default) reproduces the
    /// paper's unbounded policy — "neither fair nor guaranteed to make
    /// progress" — which can starve remote acquires indefinitely under
    /// sustained open-loop load; serving scenarios set a small cap.
    pub local_grant_cap: u32,
    /// Uniform random extra wire delay in `[0, jitter_max)` per message
    /// (zero disables). Models the timing perturbation the paper lists as
    /// its fourth limiting factor; deterministic per seed.
    pub jitter_max: SimDuration,
    /// Packet-loss injection (None = reliable wire). When set, messages
    /// travel over the acknowledgement/retransmission layer — CVM's
    /// "efficient, end-to-end protocols built on top of UDP".
    pub loss: Option<LossConfig>,
    /// Deterministic fault plan layered over every transmission: per-link
    /// loss, duplication, reordering, corruption drops, node stalls,
    /// transient partitions. A non-empty plan implies the reliability
    /// layer (a default adaptive [`LossConfig`] is enabled if `loss` is
    /// `None`). Seeded independently, so `None` and `Some(empty)` produce
    /// identical runs.
    pub faults: Option<FaultPlan>,
    /// Protocol-trace capacity in events (0 disables tracing). The trace
    /// is returned on the run report.
    pub trace_capacity: usize,
    /// Record the causal span forest (see [`crate::span`]). Off by
    /// default: span bookkeeping is pure observation — it never touches
    /// modelled time — but costs host memory and report size.
    pub spans: bool,
    /// Master seed for all deterministic randomness.
    pub seed: u64,
    /// Run the online invariant oracle: violations are recorded as
    /// [`Finding`](crate::Finding)s into `verify_sink` (and onto the run
    /// report) instead of panicking, and extra protocol checks — notice
    /// coverage at merges, twin/diff round trips, diff apply order,
    /// pending-implies-invalid — are enabled.
    pub verify: bool,
    /// Shared sink the oracle records into. Keep a clone to read findings
    /// out even when the application itself panics on corrupted state.
    pub verify_sink: FindingSink,
    /// Deliberate protocol mutation for oracle self-tests (None = faithful
    /// protocol).
    pub inject: Option<InjectFault>,
    /// Record every scheduling point (enabled set, chosen index, burst
    /// page/sync footprint) onto the run report's step log and fingerprint
    /// the terminal protocol state — the observation channel the DPOR
    /// explorer's independence relation and duplicate detection consume.
    pub record_steps: bool,
}

impl CvmConfig {
    /// The paper's environment with `nodes` × `threads_per_node` threads.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` or `threads_per_node` is zero.
    pub fn paper(nodes: usize, threads_per_node: usize) -> Self {
        assert!(nodes > 0, "need at least one node");
        assert!(threads_per_node > 0, "need at least one thread per node");
        CvmConfig {
            nodes,
            threads_per_node,
            page_size: 8192,
            segment_size: 0,
            latency: LatencyModel::paper(),
            thread_switch: SimDuration::from_us(8),
            mprotect: SimDuration::from_us(49),
            signal: SimDuration::from_us(98),
            twin_copy: SimDuration::from_us(30),
            diff_word_create: SimDuration::from_ns(15),
            diff_word_apply: SimDuration::from_ns(15),
            access_base: SimDuration::from_ns(25),
            memsim_enabled: false,
            mem: MemConfig::sp2(),
            code_pages: 20,
            protocol: ProtocolKind::LazyMultiWriter,
            aggregate_barriers: true,
            pick: PickPolicy::default(),
            prefer_local_lock_waiters: true,
            local_grant_cap: 0,
            jitter_max: SimDuration::ZERO,
            loss: None,
            faults: None,
            trace_capacity: 0,
            spans: false,
            seed: DEFAULT_SEED,
            verify: false,
            verify_sink: FindingSink::new(),
            inject: None,
            record_steps: false,
        }
    }

    /// A small fast configuration for tests and examples: paper semantics,
    /// idealised (microsecond) network.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` or `threads_per_node` is zero.
    pub fn small(nodes: usize, threads_per_node: usize) -> Self {
        let mut c = Self::paper(nodes, threads_per_node);
        c.latency = LatencyModel::instant();
        c.thread_switch = SimDuration::from_ns(100);
        c.mprotect = SimDuration::ZERO;
        c.signal = SimDuration::ZERO;
        c.twin_copy = SimDuration::ZERO;
        c
    }

    /// Total number of application threads in the system.
    pub fn total_threads(&self) -> usize {
        self.nodes * self.threads_per_node
    }

    /// Number of pages in the shared segment.
    pub fn pages(&self) -> usize {
        self.segment_size / self.page_size
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if the segment size is not page-aligned or the page size is
    /// not a power of two.
    pub fn validate(&self) {
        assert!(self.nodes > 0 && self.threads_per_node > 0);
        assert!(self.page_size.is_power_of_two(), "page size power of two");
        assert!(
            self.segment_size.is_multiple_of(self.page_size),
            "segment must be page aligned"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_4_1() {
        let c = CvmConfig::paper(8, 4);
        assert_eq!(c.page_size, 8192);
        assert_eq!(c.thread_switch, SimDuration::from_us(8));
        assert_eq!(c.mprotect, SimDuration::from_us(49));
        assert_eq!(c.signal, SimDuration::from_us(98));
        assert_eq!(c.total_threads(), 32);
    }

    #[test]
    fn small_is_fast_but_same_shape() {
        let c = CvmConfig::small(2, 2);
        assert_eq!(c.page_size, 8192);
        assert!(c.latency.fixed < LatencyModel::paper().fixed);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let _ = CvmConfig::paper(0, 1);
    }

    #[test]
    #[should_panic(expected = "page aligned")]
    fn unaligned_segment_rejected() {
        let mut c = CvmConfig::small(1, 1);
        c.segment_size = 100;
        c.validate();
    }
}
