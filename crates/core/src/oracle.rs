//! The online invariant oracle: named protocol invariants, violation
//! findings, and protocol fault injection for mutation self-tests.
//!
//! The paper's latency-hiding argument rests on the LRC protocol staying
//! correct under every interleaving the cooperative scheduler can produce.
//! This module gives each protocol invariant a *name* and a single
//! reporting path: when verification is off, a violation panics with the
//! invariant's name and the triggering event (replacing the former
//! scattered `assert!`s); when verification is on
//! ([`CvmConfig::verify`](crate::CvmConfig)), violations are recorded as
//! [`Finding`]s in a [`FindingSink`] shared with the caller, so the run
//! continues best-effort and the findings survive even if the application
//! later panics on the corrupted state.
//!
//! [`InjectFault`] mutates the protocol on purpose — dropping a write
//! notice, reordering a diff application, skipping an invalidation — so
//! the checker can prove each invariant actually fires (the mutation
//! self-tests of `cvm check`).

use std::fmt;
use std::sync::Arc;

use cvm_sim::sync::Mutex;
use cvm_sim::VirtualTime;

/// Upper bound on recorded findings; a genuinely broken protocol can
/// violate an invariant at every synchronization, and one representative
/// prefix is enough to diagnose it.
pub const MAX_FINDINGS: usize = 4096;

/// Every named invariant the oracle (or the offline race detector) can
/// report. `DESIGN.md` lists each with its paper justification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Invariant {
    /// A system needs at least one node and one thread per node.
    ConfigPositive,
    /// Lock indices must be below `MAX_LOCKS`.
    LockIndexInRange,
    /// `startup_done` must find the wire quiescent: statistics are zeroed
    /// and memory made uniform, which is only sound with nothing in flight.
    QuiescentStartup,
    /// A node keeps at most one remote request per lock outstanding (the
    /// local queue aggregates later acquires).
    SingleLockRequest,
    /// Barrier arrival and reduction messages go to the master (node 0).
    BarrierMasterRouting,
    /// Arrivals and releases must carry the master's current episode
    /// number; a node may never skip an episode.
    BarrierEpochAgreement,
    /// An episode sees exactly the expected number of arrivals.
    BarrierArrivalCount,
    /// A node's own vector-time component equals its closed-interval
    /// count, and closes are contiguous (interval `i` is followed by
    /// `i + 1`).
    VtMonotonic,
    /// Interval indices are assigned contiguously per node.
    IntervalContiguity,
    /// No vector time names an interval its writer has not closed.
    VtBounded,
    /// When a node's vector time advances past a writer's interval, the
    /// write notices of that interval must have reached the node — a
    /// dropped notice means a silently stale copy.
    NoticeCoverage,
    /// A page with un-applied write notices must not be readable.
    PendingImpliesInvalid,
    /// A home node serves a page request only once its per-writer
    /// watermarks cover every `(writer, interval)` the request named —
    /// serving earlier hands out a copy missing flushed writes.
    HomeServeCoverage,
    /// Applying a freshly created diff to the twin it was diffed against
    /// must reproduce the current page contents.
    TwinDiffRoundTrip,
    /// Diffs are applied in happens-before order: ascending
    /// `(close gseq, writer, tag)`.
    DiffApplyOrder,
    /// At most one node caches a lock's token, and a holder implies the
    /// token is present.
    LockSingleToken,
    /// A lock grant arrives only where a request is outstanding and a
    /// local thread is waiting — otherwise a wakeup has been lost.
    LockGrantHasWaiter,
    /// Offline (race detector): a node's time advanced past a concurrent
    /// write to a page it still holds a valid copy of, without an
    /// invalidation or diff — a true lost update, as opposed to benign
    /// multiple-writer concurrency.
    LostUpdate,
    /// The trace overflowed its capacity, so offline analyses are
    /// incomplete.
    TraceOverflow,
}

impl Invariant {
    /// Hard precondition form: panics immediately (never records) when
    /// `cond` is false, naming the invariant. Used for caller errors that
    /// precede any run — invalid configurations, out-of-range lock ids.
    ///
    /// # Panics
    ///
    /// Panics if `cond` is false.
    pub fn require(self, cond: bool, detail: impl FnOnce() -> String) {
        assert!(cond, "invariant {self} violated: {}", detail());
    }
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Invariant::ConfigPositive => "ConfigPositive",
            Invariant::LockIndexInRange => "LockIndexInRange",
            Invariant::QuiescentStartup => "QuiescentStartup",
            Invariant::SingleLockRequest => "SingleLockRequest",
            Invariant::BarrierMasterRouting => "BarrierMasterRouting",
            Invariant::BarrierEpochAgreement => "BarrierEpochAgreement",
            Invariant::BarrierArrivalCount => "BarrierArrivalCount",
            Invariant::VtMonotonic => "VtMonotonic",
            Invariant::IntervalContiguity => "IntervalContiguity",
            Invariant::VtBounded => "VtBounded",
            Invariant::NoticeCoverage => "NoticeCoverage",
            Invariant::PendingImpliesInvalid => "PendingImpliesInvalid",
            Invariant::HomeServeCoverage => "HomeServeCoverage",
            Invariant::TwinDiffRoundTrip => "TwinDiffRoundTrip",
            Invariant::DiffApplyOrder => "DiffApplyOrder",
            Invariant::LockSingleToken => "LockSingleToken",
            Invariant::LockGrantHasWaiter => "LockGrantHasWaiter",
            Invariant::LostUpdate => "LostUpdate",
            Invariant::TraceOverflow => "TraceOverflow",
        };
        f.write_str(name)
    }
}

/// One recorded invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which invariant was violated.
    pub invariant: Invariant,
    /// Node the violation was observed at, if attributable to one.
    pub node: Option<usize>,
    /// Virtual time of the triggering event.
    pub at: VirtualTime,
    /// Human-readable description of the triggering event.
    pub detail: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invariant {} violated", self.invariant)?;
        if let Some(n) = self.node {
            write!(f, " on n{n}")?;
        }
        write!(f, " at {:.3}us: {}", self.at.as_us_f64(), self.detail)
    }
}

/// Shared, clonable collection of [`Finding`]s.
///
/// The sink is held by both the driver and the caller (via
/// [`CvmConfig::verify_sink`](crate::CvmConfig)), so findings recorded
/// before an application panic remain readable after `catch_unwind`.
/// Recording saturates at [`MAX_FINDINGS`].
#[derive(Debug, Clone, Default)]
pub struct FindingSink {
    inner: Arc<Mutex<Vec<Finding>>>,
}

impl FindingSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a finding (dropped silently past [`MAX_FINDINGS`]).
    pub fn record(&self, finding: Finding) {
        let mut v = self.inner.lock();
        if v.len() < MAX_FINDINGS {
            v.push(finding);
        }
    }

    /// Copies out everything recorded so far.
    pub fn snapshot(&self) -> Vec<Finding> {
        self.inner.lock().clone()
    }

    /// Number of findings recorded.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }
}

/// The driver-side invariant checker.
///
/// Disabled (the default), a failing check panics with the invariant's
/// name — the promoted form of the old ad-hoc asserts. Recording
/// (`CvmConfig::verify`), a failing check appends a [`Finding`] to the
/// sink and lets the run continue best-effort.
#[derive(Debug, Clone)]
pub struct Oracle {
    sink: Option<FindingSink>,
}

impl Oracle {
    /// An oracle that panics on violations (normal runs).
    pub fn disabled() -> Self {
        Oracle { sink: None }
    }

    /// An oracle that records violations into `sink` (verify runs).
    pub fn recording(sink: FindingSink) -> Self {
        Oracle { sink: Some(sink) }
    }

    /// True when violations are recorded rather than panicking. Call
    /// sites guard *new* (non-promoted) checks on this, so runs without
    /// `verify` behave exactly as before.
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Checks one invariant instance. `detail` is only evaluated on
    /// violation.
    ///
    /// # Panics
    ///
    /// Panics on violation when the oracle is disabled.
    pub fn check(
        &self,
        invariant: Invariant,
        ok: bool,
        node: Option<usize>,
        at: VirtualTime,
        detail: impl FnOnce() -> String,
    ) {
        if ok {
            return;
        }
        let finding = Finding {
            invariant,
            node,
            at,
            detail: detail(),
        };
        match &self.sink {
            Some(sink) => sink.record(finding),
            None => panic!("{finding}"),
        }
    }
}

/// A deliberate protocol mutation, used by the `cvm check` mutation
/// self-tests to prove the oracle catches real faults. `nth` selects which
/// occurrence of the fault site to corrupt (0 = the first).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectFault {
    /// Drop the `nth` write notice a node would send with a barrier
    /// arrival (caught by `NoticeCoverage` online and `LostUpdate`
    /// offline).
    DropWriteNotice {
        /// Which notice emission to drop.
        nth: u64,
    },
    /// Reverse the diff application order of the `nth` multi-diff fetch
    /// (caught by `DiffApplyOrder`).
    ReorderDiffApply {
        /// Which multi-diff fetch to corrupt.
        nth: u64,
    },
    /// Skip the `nth` invalidation of a resident copy, leaving a stale
    /// page readable (caught by `PendingImpliesInvalid` online and
    /// `LostUpdate` offline).
    SkipInvalidate {
        /// Which invalidation to skip.
        nth: u64,
    },
    /// Home-lazy only: serve the `nth` uncovered home request (or parked
    /// retry) as if its per-writer watermark check passed, returning a
    /// possibly stale page (caught by `PendingImpliesInvalid` online and
    /// `LostUpdate` offline).
    SkipHomeWatermark {
        /// Which uncovered serve to corrupt.
        nth: u64,
    },
    /// Drop the write notices riding the `nth` notice-carrying lock
    /// grant; the grantee still merges the granter's vector time, so its
    /// clock advances past writes it was never told about (caught by
    /// `NoticeCoverage` at the merge).
    DropGrantNotice {
        /// Which notice-carrying grant to strip.
        nth: u64,
    },
}

impl InjectFault {
    /// Parses the CLI syntax `kind[:nth]` where kind is `drop-notice`,
    /// `reorder-diff` or `skip-invalidate`.
    pub fn parse(s: &str) -> Option<Self> {
        let (kind, nth) = match s.split_once(':') {
            Some((k, n)) => (k, n.parse().ok()?),
            None => (s, 0),
        };
        Some(match kind {
            "drop-notice" => InjectFault::DropWriteNotice { nth },
            "reorder-diff" => InjectFault::ReorderDiffApply { nth },
            "skip-invalidate" => InjectFault::SkipInvalidate { nth },
            "skip-watermark" => InjectFault::SkipHomeWatermark { nth },
            "drop-grant-notice" => InjectFault::DropGrantNotice { nth },
            _ => return None,
        })
    }
}

impl fmt::Display for InjectFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InjectFault::DropWriteNotice { nth } => write!(f, "drop-notice:{nth}"),
            InjectFault::ReorderDiffApply { nth } => write!(f, "reorder-diff:{nth}"),
            InjectFault::SkipInvalidate { nth } => write!(f, "skip-invalidate:{nth}"),
            InjectFault::SkipHomeWatermark { nth } => write!(f, "skip-watermark:{nth}"),
            InjectFault::DropGrantNotice { nth } => write!(f, "drop-grant-notice:{nth}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_oracle_panics_with_invariant_name() {
        let o = Oracle::disabled();
        let err = std::panic::catch_unwind(|| {
            o.check(
                Invariant::NoticeCoverage,
                false,
                Some(2),
                VirtualTime::ZERO,
                || "missing notices".to_owned(),
            );
        })
        .unwrap_err();
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("NoticeCoverage"), "{msg}");
        assert!(msg.contains("n2"), "{msg}");
    }

    #[test]
    fn recording_oracle_collects_instead_of_panicking() {
        let sink = FindingSink::new();
        let o = Oracle::recording(sink.clone());
        o.check(Invariant::VtBounded, true, None, VirtualTime::ZERO, || {
            unreachable!("detail must not be evaluated on success")
        });
        o.check(
            Invariant::DiffApplyOrder,
            false,
            Some(1),
            VirtualTime::from_us(7),
            || "out of order".to_owned(),
        );
        assert_eq!(sink.len(), 1);
        let f = &sink.snapshot()[0];
        assert_eq!(f.invariant, Invariant::DiffApplyOrder);
        assert_eq!(f.node, Some(1));
        assert!(format!("{f}").contains("DiffApplyOrder"));
    }

    #[test]
    fn sink_saturates_at_cap() {
        let sink = FindingSink::new();
        for i in 0..(MAX_FINDINGS + 10) {
            sink.record(Finding {
                invariant: Invariant::LostUpdate,
                node: None,
                at: VirtualTime::ZERO,
                detail: format!("f{i}"),
            });
        }
        assert_eq!(sink.len(), MAX_FINDINGS);
    }

    #[test]
    fn inject_fault_parse_round_trip() {
        for text in [
            "drop-notice:0",
            "reorder-diff:3",
            "skip-invalidate:17",
            "skip-watermark:1",
            "drop-grant-notice:2",
        ] {
            let f = InjectFault::parse(text).expect("parses");
            assert_eq!(format!("{f}"), text);
        }
        assert_eq!(
            InjectFault::parse("drop-notice"),
            Some(InjectFault::DropWriteNotice { nth: 0 })
        );
        assert_eq!(InjectFault::parse("unknown"), None);
        assert_eq!(InjectFault::parse("drop-notice:x"), None);
    }

    #[test]
    #[should_panic(expected = "invariant LockIndexInRange violated")]
    fn require_panics_with_name() {
        Invariant::LockIndexInRange.require(false, || "lock 9999".to_owned());
    }
}
