//! The scheduler's pick policy — the one way a node chooses its next
//! ready thread — and the per-step observation records the stateless
//! model checker (`cvm check --dpor`) consumes.
//!
//! A [`PickPolicy`] is a base order (FIFO, or the memory-conscious LIFO)
//! plus at most one override that pins or perturbs a prefix of the run's
//! picks: a [`ScheduleScript`] replayed verbatim (DPOR), or a seeded
//! random stream bounded by a budget ([`ExploreSpec`], the schedule
//! shaker). Once the override is exhausted the base order resumes.
//!
//! The only nondeterminism in a CVM run is *which ready thread a node
//! resumes* at each scheduling point — message deliveries, lock grants
//! and timer events are all deterministic functions of virtual time,
//! which is itself a deterministic function of the pick sequence. A
//! [`ScheduleScript`] therefore pins an entire execution: entry `i` is
//! the index into the node-local ready queue taken at the `i`-th pick
//! (across all nodes, in global scheduling order); past the end of the
//! script the configured FIFO/LIFO policy resumes. Re-running the same
//! script reproduces the run byte for byte.
//!
//! With step recording enabled the driver logs a [`StepRecord`] per
//! pick: the enabled set, the chosen index, and the burst's footprint
//! (shared pages read/written plus the synchronization operation that
//! ended it). The DPOR explorer's independence relation is computed
//! from exactly these footprints.

use crate::json::JsonValue;
use crate::rng::SimRng;

/// A fixed sequence of scheduler pick decisions replayed verbatim.
///
/// Entry `i` is clamped into the ready queue's range at the `i`-th
/// scheduling point (so `0` always means "the default FIFO pick");
/// beyond the script the normal policy resumes. The empty script is
/// observationally identical to an unscripted run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ScheduleScript {
    /// Pick indices, one per scheduling point from the start of the run.
    pub choices: Vec<u32>,
}

impl ScheduleScript {
    /// Wraps a raw choice sequence.
    #[must_use]
    pub fn new(choices: Vec<u32>) -> Self {
        ScheduleScript { choices }
    }

    /// Number of scripted picks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.choices.len()
    }

    /// Whether the script pins no picks at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.choices.is_empty()
    }

    /// How many entries deviate from the default FIFO pick (index 0) —
    /// the size measure counterexample minimization shrinks.
    #[must_use]
    pub fn perturbations(&self) -> usize {
        self.choices.iter().filter(|&&c| c != 0).count()
    }
}

/// Consumes a [`ScheduleScript`] one scheduling point at a time.
#[derive(Debug, Clone)]
pub struct ScriptCursor {
    choices: Vec<u32>,
    pos: usize,
}

impl ScriptCursor {
    /// Starts replaying `script` from its first entry.
    #[must_use]
    pub fn new(script: ScheduleScript) -> Self {
        ScriptCursor {
            choices: script.choices,
            pos: 0,
        }
    }

    /// The scripted pick for the next scheduling point with `len` ready
    /// threads, or `None` once the script is exhausted (the caller's
    /// default policy then applies). Out-of-range entries clamp to the
    /// last queue slot so every serialized script stays replayable.
    pub fn next(&mut self, len: usize) -> Option<usize> {
        let c = *self.choices.get(self.pos)?;
        self.pos += 1;
        Some((c as usize).min(len.saturating_sub(1)))
    }
}

/// A replayable description of one explored schedule: the random seed and
/// how many scheduler decisions to perturb before reverting to the base
/// order. Both the random stream and the budget are functions of
/// `(seed, budget)` alone, so any failing schedule is replayable from
/// those two integers — the checker prints them as the reproduction seed
/// and minimizes by shrinking the budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreSpec {
    /// Seed for the decision stream.
    pub seed: u64,
    /// Number of pick decisions to perturb; after these, the scheduler's
    /// base order resumes.
    pub budget: u64,
}

/// Live state while a perturbed run executes: the decision stream plus a
/// count of decisions taken (reported back for minimization diagnostics).
#[derive(Debug, Clone)]
pub struct ExploreSchedule {
    rng: SimRng,
    remaining: u64,
    decisions: u64,
}

impl ExploreSchedule {
    /// Starts the decision stream for `spec`.
    #[must_use]
    pub fn new(spec: ExploreSpec) -> Self {
        ExploreSchedule {
            rng: SimRng::seed_from(spec.seed).derive(0x5C4E_D01E),
            remaining: spec.budget,
            decisions: 0,
        }
    }

    /// Picks an index into a ready queue of length `len`, or `None` to
    /// defer to the base order (budget exhausted, or the choice is
    /// forced). Counts only real decisions against the budget.
    pub fn pick(&mut self, len: usize) -> Option<usize> {
        if len < 2 || self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.decisions += 1;
        Some(self.rng.below(len as u64) as usize)
    }

    /// Perturbation decisions actually taken so far.
    #[must_use]
    pub fn decisions(&self) -> u64 {
        self.decisions
    }
}

/// The order a node resumes ready threads in when nothing overrides it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BaseOrder {
    /// Longest-ready first (the paper's scheduler).
    #[default]
    Fifo,
    /// Most recently readied first. The paper notes a "memory-system
    /// aware thread scheduler would use an approach closer to LIFO than
    /// FIFO. Our scheduler does not make this optimization" — this adds
    /// it, trading fairness for cache/TLB locality.
    Lifo,
}

impl BaseOrder {
    fn index(self, ready_len: usize) -> usize {
        match self {
            BaseOrder::Fifo => 0,
            BaseOrder::Lifo => ready_len.saturating_sub(1),
        }
    }
}

/// What, if anything, overrides the base order for a prefix of the run.
#[derive(Debug, Clone, Default)]
pub enum PickOverride {
    /// Nothing: every pick is the base order's.
    #[default]
    None,
    /// Replay picks from a fixed script (the stateless model checker):
    /// entry `i` indexes the ready queue at the `i`-th scheduling point.
    Script(ScriptCursor),
    /// Perturb a budget of picks with a seeded random stream (the
    /// schedule-exploration checker).
    Seeded(ExploreSchedule),
}

/// How a node chooses the next ready thread: the single pick path of the
/// scheduler. The live override state advances as the run picks, so a
/// policy is built fresh per run.
#[derive(Debug, Clone, Default)]
pub struct PickPolicy {
    /// Order used when no override decides.
    pub base: BaseOrder,
    /// Override consulted first.
    pub over: PickOverride,
}

impl PickPolicy {
    /// FIFO with `script` pinning the first `script.len()` picks.
    #[must_use]
    pub fn scripted(script: ScheduleScript) -> Self {
        PickPolicy {
            base: BaseOrder::Fifo,
            over: PickOverride::Script(ScriptCursor::new(script)),
        }
    }

    /// FIFO with `spec.budget` picks perturbed by `spec.seed`'s stream.
    #[must_use]
    pub fn seeded(spec: ExploreSpec) -> Self {
        PickPolicy {
            base: BaseOrder::Fifo,
            over: PickOverride::Seeded(ExploreSchedule::new(spec)),
        }
    }

    /// The index into a ready queue of `ready_len > 0` threads to resume
    /// next; advances the override.
    #[inline]
    pub fn pick(&mut self, ready_len: usize) -> usize {
        let over = match &mut self.over {
            PickOverride::None => None,
            PickOverride::Script(cursor) => cursor.next(ready_len),
            PickOverride::Seeded(explore) => explore.pick(ready_len),
        };
        over.unwrap_or_else(|| self.base.index(ready_len))
    }

    /// Seeded perturbation decisions taken so far (0 unless seeded).
    #[must_use]
    pub fn decisions(&self) -> u64 {
        match &self.over {
            PickOverride::Seeded(explore) => explore.decisions(),
            _ => 0,
        }
    }
}

/// The synchronization operation that ended a thread burst — the
/// non-page channel through which two steps can conflict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncOp {
    /// Page fault on `page` (`write` distinguishes the access mode). The
    /// faulted page joins the burst's footprint in that mode.
    Fault {
        /// Faulted page index.
        page: u32,
        /// Whether the faulting access was a write.
        write: bool,
    },
    /// Blocked acquiring `lock`.
    Acquire {
        /// Lock index.
        lock: u32,
    },
    /// Released `lock` (publishes this node's write notices to the next
    /// holder).
    Release {
        /// Lock index.
        lock: u32,
    },
    /// Arrived at a global barrier (closes the node's interval and
    /// publishes notices to everyone).
    Barrier,
    /// Arrived at a node-local barrier with no reduction.
    LocalBarrier,
    /// Arrived at a barrier carrying a floating-point reduction, whose
    /// accumulation order is arrival order.
    Reduce,
    /// A startup/end-of-measurement rendezvous (global-barrier class).
    Rendezvous,
    /// Voluntarily yielded the processor.
    Yield,
    /// The thread ran to completion.
    Finish,
}

/// One scheduling point as the driver executed it: who was runnable,
/// who ran, and what the burst touched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepRecord {
    /// Node the pick happened on.
    pub node: u32,
    /// Global thread id that ran.
    pub thread: u32,
    /// The ready queue (global thread ids) in queue order, before the
    /// pick — the enabled set of this transition.
    pub enabled: Vec<u32>,
    /// Index into `enabled` that was chosen.
    pub chosen: u32,
    /// Shared pages read during the burst (deduplicated, insertion
    /// order).
    pub reads: Vec<u32>,
    /// Shared pages written during the burst (deduplicated, insertion
    /// order).
    pub writes: Vec<u32>,
    /// How the burst ended.
    pub sync: SyncOp,
}

/// A capacity-bounded log of [`StepRecord`]s; overflow is counted, not
/// silently dropped, so exhaustiveness claims stay honest.
#[derive(Debug, Clone, Default)]
pub struct StepLog {
    steps: Vec<StepRecord>,
    cap: usize,
    dropped: u64,
}

impl StepLog {
    /// An empty log holding at most `cap` records.
    #[must_use]
    pub fn new(cap: usize) -> Self {
        StepLog {
            steps: Vec::new(),
            cap,
            dropped: 0,
        }
    }

    /// Appends a record, or bumps the drop counter once full.
    pub fn record(&mut self, step: StepRecord) {
        if self.steps.len() < self.cap {
            self.steps.push(step);
        } else {
            self.dropped += 1;
        }
    }

    /// The recorded steps, in execution order.
    #[must_use]
    pub fn steps(&self) -> &[StepRecord] {
        &self.steps
    }

    /// Number of records discarded because the log was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of records kept.
    #[must_use]
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Summary for the run-report JSON (never the full step list — a
    /// deep exploration would dwarf the report).
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let mut o = JsonValue::object();
        o.set("recorded", JsonValue::from(self.steps.len() as u64));
        o.set("dropped", JsonValue::from(self.dropped));
        o
    }
}

/// FNV-1a 64-bit hasher: the deterministic, dependency-free fingerprint
/// used for terminal-state hashing and duplicate detection.
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    /// The FNV-1a offset basis.
    #[must_use]
    pub fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Folds a byte slice into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a little-endian `u64` into the hash.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The current hash value.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursor_clamps_and_exhausts() {
        let mut c = ScriptCursor::new(ScheduleScript::new(vec![0, 2, 9]));
        assert_eq!(c.next(3), Some(0));
        assert_eq!(c.next(2), Some(1)); // 2 clamped into a 2-slot queue
        assert_eq!(c.next(4), Some(3)); // 9 clamped
        assert_eq!(c.next(4), None); // exhausted: default policy resumes
        assert_eq!(c.next(1), None);
    }

    #[test]
    fn base_order_picks_the_queue_ends() {
        let mut fifo = PickPolicy::default();
        let mut lifo = PickPolicy {
            base: BaseOrder::Lifo,
            ..PickPolicy::default()
        };
        for len in [1usize, 2, 5] {
            assert_eq!(fifo.pick(len), 0);
            assert_eq!(lifo.pick(len), len - 1);
        }
    }

    #[test]
    fn script_falls_back_to_the_base_exactly_where_the_cursor_ends() {
        let script = ScheduleScript::new(vec![0, 2, 9]);
        let mut cursor = ScriptCursor::new(script.clone());
        let mut policy = PickPolicy::scripted(script);
        policy.base = BaseOrder::Lifo;
        for len in [3usize, 2, 4, 4, 1] {
            let want = cursor.next(len).unwrap_or(len - 1);
            assert_eq!(policy.pick(len), want, "len {len}");
        }
        assert_eq!(policy.decisions(), 0);
    }

    #[test]
    fn seeded_is_the_explore_stream_and_forced_picks_are_free() {
        let spec = ExploreSpec { seed: 7, budget: 3 };
        let mut stream = ExploreSchedule::new(spec);
        let mut policy = PickPolicy::seeded(spec);
        assert_eq!(policy.pick(1), 0, "singleton queue is forced");
        assert_eq!(policy.decisions(), 0, "a forced pick spends no budget");
        let _ = stream.pick(1);
        for len in [4usize, 2, 1, 9, 6, 6] {
            assert_eq!(policy.pick(len), stream.pick(len).unwrap_or(0));
        }
        assert_eq!(policy.decisions(), 3, "budget bounds the decisions");
        assert_eq!(policy.decisions(), stream.decisions());
    }

    #[test]
    fn same_spec_same_decisions() {
        let spec = ExploreSpec {
            seed: 42,
            budget: 16,
        };
        let mut a = ExploreSchedule::new(spec);
        let mut b = ExploreSchedule::new(spec);
        for len in [2usize, 5, 3, 7, 2, 9, 4, 6] {
            assert_eq!(a.pick(len), b.pick(len));
        }
        assert_eq!(a.decisions(), b.decisions());
    }

    #[test]
    fn budget_bounds_decisions_and_forced_picks_are_free() {
        let mut s = ExploreSchedule::new(ExploreSpec { seed: 7, budget: 3 });
        assert_eq!(s.pick(1), None, "singleton queue is forced");
        assert_eq!(s.decisions(), 0);
        for _ in 0..3 {
            let pick = s.pick(4).expect("within budget");
            assert!(pick < 4);
        }
        assert_eq!(s.pick(4), None, "budget exhausted");
        assert_eq!(s.decisions(), 3);
    }

    #[test]
    fn zero_budget_never_perturbs() {
        let mut s = ExploreSchedule::new(ExploreSpec { seed: 9, budget: 0 });
        assert_eq!(s.pick(8), None);
        assert_eq!(s.decisions(), 0);
    }

    #[test]
    fn picks_stay_in_range() {
        let mut s = ExploreSchedule::new(ExploreSpec {
            seed: 0xDEAD,
            budget: 1000,
        });
        for len in 2..50usize {
            for _ in 0..4 {
                let p = s.pick(len).unwrap();
                assert!(p < len, "pick {p} out of range for len {len}");
            }
        }
    }

    #[test]
    fn perturbations_counts_nonzero_entries() {
        assert_eq!(ScheduleScript::new(vec![0, 0, 0]).perturbations(), 0);
        assert_eq!(ScheduleScript::new(vec![0, 1, 0, 2]).perturbations(), 2);
        assert!(ScheduleScript::default().is_empty());
    }

    #[test]
    fn step_log_caps_and_counts_drops() {
        let step = StepRecord {
            node: 0,
            thread: 0,
            enabled: vec![0],
            chosen: 0,
            reads: vec![],
            writes: vec![],
            sync: SyncOp::Finish,
        };
        let mut log = StepLog::new(2);
        log.record(step.clone());
        log.record(step.clone());
        log.record(step);
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 1);
    }

    #[test]
    fn fnv_matches_reference_vector() {
        // FNV-1a("a") from the published reference tables.
        let mut h = Fnv64::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        // Order sensitivity.
        let (mut x, mut y) = (Fnv64::new(), Fnv64::new());
        x.write(b"ab");
        y.write(b"ba");
        assert_ne!(x.finish(), y.finish());
    }
}
