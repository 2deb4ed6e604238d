//! Reliable delivery over a lossy datagram network.
//!
//! CVM's communication layer consists of "efficient, end-to-end protocols
//! built on top of UDP" — the wire may drop packets, and the runtime
//! recovers with acknowledgements and retransmission. This module supplies
//! that machinery for [`NetworkSim`](crate::NetworkSim): when loss
//! injection is enabled, every protocol message carries a per-(src → dst)
//! sequence number; the receiver acknowledges and deduplicates, and the
//! sender retransmits after a timeout until acknowledged. With loss
//! disabled (the default) none of this machinery runs.
//!
//! Delivery guarantee under loss: **exactly once** to the protocol layer
//! (at-least-once on the wire plus receiver-side dedup), with no ordering
//! guarantee across retransmissions — which the DSM protocol tolerates by
//! construction (requests are idempotent at the protocol layer and
//! replies are matched to outstanding state). When a sender exhausts its
//! retries the message becomes a structured [`DeliveryFailure`] instead of
//! a panic — at that point the guarantee weakens to *at most once* for
//! that message (it is tombstoned so a straggling copy can never be
//! delivered late), and the driver reports the run as degraded.
//!
//! The retransmission timeout is adaptive by default
//! ([`RtoPolicy::Adaptive`]): per-link SRTT/RTTVAR estimation in the style
//! of RFC 6298, exponential backoff across retries, Karn's rule (never
//! sample the RTT of a retransmitted message), and a per-message floor of
//! the round trip it cannot possibly beat (wire + handler + ack wire).
//! [`RtoPolicy::Fixed`] preserves the legacy fixed-timeout behaviour —
//! including its spurious-retransmission bug for messages slower than the
//! timeout — for regression tests and comparison experiments.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use cvm_sim::{JsonValue, SimDuration, SimRng};

use crate::message::{MsgKind, NodeId};

/// How the retransmission timeout is chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RtoPolicy {
    /// The same timeout for every message, with no backoff and no floor.
    /// A message whose delivery takes longer than this is retransmitted
    /// while still in flight.
    Fixed(SimDuration),
    /// RFC 6298-style estimation (see [`AdaptiveRto`]).
    Adaptive(AdaptiveRto),
}

/// Parameters of the adaptive timeout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveRto {
    /// Timeout before the first RTT sample on a link.
    pub initial: SimDuration,
    /// Lower clamp on the estimated timeout (the per-message wire floor
    /// applies on top of this).
    pub min: SimDuration,
    /// Upper clamp, also the backoff ceiling.
    pub max: SimDuration,
}

impl Default for AdaptiveRto {
    fn default() -> Self {
        AdaptiveRto {
            initial: SimDuration::from_ms(5),
            min: SimDuration::from_us(500),
            max: SimDuration::from_ms(200),
        }
    }
}

/// Sender-side retransmission configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossConfig {
    /// Probability each transmission (including retransmissions and acks)
    /// is dropped on the wire, uniformly across links. Per-link rates come
    /// from a [`FaultPlan`](crate::FaultPlan) instead.
    pub loss_probability: f64,
    /// Retransmission-timeout policy.
    pub rto: RtoPolicy,
    /// Give up after this many retransmissions: the message becomes a
    /// [`DeliveryFailure`] and the run degrades instead of panicking.
    pub max_retries: u32,
}

impl LossConfig {
    /// A typical test configuration: 10% loss, adaptive RTO.
    pub fn lossy_10pct() -> Self {
        LossConfig {
            loss_probability: 0.10,
            rto: RtoPolicy::Adaptive(AdaptiveRto::default()),
            max_retries: 64,
        }
    }

    /// Reliability machinery with no uniform loss — the configuration to
    /// pair with a [`FaultPlan`](crate::FaultPlan), which injects its own.
    pub fn clean_adaptive() -> Self {
        LossConfig {
            loss_probability: 0.0,
            rto: RtoPolicy::Adaptive(AdaptiveRto::default()),
            max_retries: 64,
        }
    }
}

/// A message the reliability layer gave up on: `max_retries`
/// retransmissions went unacknowledged. Surfaced in the RunReport as
/// graceful degradation (the simulated peer is treated as unresponsive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveryFailure {
    /// Sending node.
    pub src: NodeId,
    /// Unresponsive destination node.
    pub dst: NodeId,
    /// Link-level sequence number of the abandoned message.
    pub seq: u64,
    /// Protocol kind of the abandoned message.
    pub kind: MsgKind,
    /// Causal span the abandoned message belonged to (0 = none), so a
    /// degraded run's explain output can still anchor the failure in its
    /// causal chain.
    pub span: u64,
}

/// RFC 6298 smoothed RTT estimation, in integer nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
struct RttEstimator {
    /// Smoothed RTT (ns); 0 = no sample yet.
    srtt: u64,
    /// RTT variance (ns).
    rttvar: u64,
    sampled: bool,
}

impl RttEstimator {
    fn sample(&mut self, rtt: SimDuration) {
        let r = rtt.as_ns();
        if self.sampled {
            // RTTVAR := 3/4 RTTVAR + 1/4 |SRTT - R|, then
            // SRTT := 7/8 SRTT + 1/8 R (integer arithmetic: exact,
            // deterministic, and within a nanosecond of the float form).
            // Saturating: a pathological RTT (storm plans at serve-length
            // runs can stack stall + partition delays) must pin the
            // estimate at the top, not wrap it around to a tiny RTO.
            self.rttvar = self
                .rttvar
                .saturating_mul(3)
                .saturating_add(self.srtt.abs_diff(r))
                / 4;
            self.srtt = self.srtt.saturating_mul(7).saturating_add(r) / 8;
        } else {
            self.srtt = r;
            self.rttvar = r / 2;
            self.sampled = true;
        }
    }

    /// RTO = SRTT + 4·RTTVAR, unclamped (saturating at `u64::MAX` ns; the
    /// policy ceiling clamps it down afterwards).
    fn rto(&self) -> Option<SimDuration> {
        self.sampled
            .then(|| SimDuration::from_ns(self.srtt.saturating_add(self.rttvar.saturating_mul(4))))
    }
}

/// Receiver-side dedup with bounded memory: a cumulative watermark plus a
/// sparse set of out-of-order sequences above it.
///
/// `contiguous` is the count of consecutively-delivered sequences from 0,
/// i.e. every `seq < contiguous` has been seen; `above` holds only the
/// gaps' survivors. In-order traffic keeps `above` empty forever, where
/// the old per-link `HashSet<u64>` grew by one entry per message.
#[derive(Debug, Default)]
struct DedupWindow {
    contiguous: u64,
    above: BTreeSet<u64>,
}

impl DedupWindow {
    /// Records `seq`; returns `true` the first time it is seen.
    fn insert(&mut self, seq: u64) -> bool {
        if seq < self.contiguous || !self.above.insert(seq) {
            return false;
        }
        while self.above.remove(&self.contiguous) {
            self.contiguous += 1;
        }
        true
    }

    fn len_above(&self) -> usize {
        self.above.len()
    }
}

/// Per-direction sequence numbering, dedup and RTT state.
#[derive(Debug, Default)]
pub struct ReliabilityState {
    /// Next sequence number per (src, dst).
    next_seq: HashMap<(usize, usize), u64>,
    /// Delivered-sequence tracking per (src, dst), bounded by the
    /// out-of-order window rather than the message count.
    delivered: HashMap<(usize, usize), DedupWindow>,
    /// Per-link RTT estimators (adaptive RTO).
    rtt: HashMap<(usize, usize), RttEstimator>,
    /// Messages abandoned after `max_retries` (BTreeMap for deterministic
    /// report order), with the causal span each belonged to.
    failed: BTreeMap<(usize, usize, u64), (MsgKind, u64)>,
    /// RNG deciding uniform drops.
    rng: Option<SimRng>,
    /// Configuration, if loss is enabled.
    config: Option<LossConfig>,
    /// Counters.
    stats: LossStats,
}

/// Observability counters for the reliability layer.
///
/// At quiescence `delivered + gave_up == sends`: every logical send either
/// reached the protocol exactly once or was abandoned as a
/// [`DeliveryFailure`] — never both, never neither.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LossStats {
    /// Logical sends entering the reliability layer.
    pub sends: u64,
    /// Messages delivered to the protocol (exactly once each).
    pub delivered: u64,
    /// Messages abandoned after `max_retries` retransmissions.
    pub gave_up: u64,
    /// Data transmissions dropped by uniform loss or a fault-plan loss
    /// rule.
    pub dropped: u64,
    /// Acknowledgement transmissions dropped (previously conflated with
    /// `dropped`, and counted in `acks_sent` even when dropped).
    pub ack_drops: u64,
    /// Transmissions discarded by the receiver's checksum (fault plan).
    pub corrupt_drops: u64,
    /// Transmissions discarded while crossing an active partition.
    pub partition_drops: u64,
    /// Wire duplicates injected by the fault plan.
    pub duplicates_injected: u64,
    /// Transmissions delayed by a reordering rule.
    pub reorders_injected: u64,
    /// Retransmissions performed.
    pub retransmissions: u64,
    /// Duplicate deliveries suppressed by the receiver.
    pub duplicates_suppressed: u64,
    /// Acknowledgements actually transmitted (drops excluded).
    pub acks_sent: u64,
}

impl LossStats {
    /// True if every send was resolved: delivered exactly once or
    /// abandoned, with nothing lost in between.
    pub fn balanced(&self) -> bool {
        self.delivered + self.gave_up == self.sends
    }

    /// Every counter as one JSON object, in declaration order (the `loss`
    /// section of run reports and fault-campaign cells).
    pub fn to_json(&self) -> JsonValue {
        let mut loss = JsonValue::object();
        loss.set("sends", self.sends);
        loss.set("delivered", self.delivered);
        loss.set("gave_up", self.gave_up);
        loss.set("dropped", self.dropped);
        loss.set("ack_drops", self.ack_drops);
        loss.set("corrupt_drops", self.corrupt_drops);
        loss.set("partition_drops", self.partition_drops);
        loss.set("duplicates_injected", self.duplicates_injected);
        loss.set("reorders_injected", self.reorders_injected);
        loss.set("retransmissions", self.retransmissions);
        loss.set("duplicates_suppressed", self.duplicates_suppressed);
        loss.set("acks_sent", self.acks_sent);
        loss
    }
}

impl ReliabilityState {
    /// Enables loss injection with the given RNG and configuration.
    pub fn enable(&mut self, rng: SimRng, config: LossConfig) {
        assert!(
            (0.0..1.0).contains(&config.loss_probability),
            "loss probability must be in [0, 1)"
        );
        self.rng = Some(rng);
        self.config = Some(config);
    }

    /// True if the reliability machinery is active.
    pub fn enabled(&self) -> bool {
        self.config.is_some()
    }

    /// The active configuration.
    pub fn config(&self) -> Option<LossConfig> {
        self.config
    }

    /// Counters so far.
    pub fn stats(&self) -> LossStats {
        self.stats
    }

    /// Direct access to the counters (fault-layer bookkeeping).
    pub(crate) fn stats_mut(&mut self) -> &mut LossStats {
        &mut self.stats
    }

    /// Allocates the next sequence number for `src → dst` and counts the
    /// logical send.
    pub fn next_seq(&mut self, src: usize, dst: usize) -> u64 {
        self.stats.sends += 1;
        let e = self.next_seq.entry((src, dst)).or_insert(0);
        let s = *e;
        *e += 1;
        s
    }

    /// Rolls the dice: should this data transmission be dropped by the
    /// uniform loss probability?
    pub fn should_drop(&mut self) -> bool {
        let drop = self.roll_uniform();
        if drop {
            self.stats.dropped += 1;
        }
        drop
    }

    /// Like [`should_drop`](Self::should_drop) but for acknowledgements:
    /// same probability, separate counter.
    pub fn should_drop_ack(&mut self) -> bool {
        let drop = self.roll_uniform();
        if drop {
            self.stats.ack_drops += 1;
        }
        drop
    }

    fn roll_uniform(&mut self) -> bool {
        match (&mut self.rng, &self.config) {
            (Some(rng), Some(cfg)) if cfg.loss_probability > 0.0 => {
                rng.unit_f64() < cfg.loss_probability
            }
            _ => false,
        }
    }

    /// Records an arrival; returns `true` the first time `(src, dst, seq)`
    /// is ever seen and `false` for a duplicate (suppress and re-ack). A
    /// fresh arrival is not yet a delivery — out-of-order messages are held
    /// back until their link gap fills; call [`count_delivered`]
    /// (Self::count_delivered) when the message is actually handed to the
    /// destination handler.
    pub fn first_arrival(&mut self, src: usize, dst: usize, seq: u64) -> bool {
        let fresh = self.delivered.entry((src, dst)).or_default().insert(seq);
        if !fresh {
            self.stats.duplicates_suppressed += 1;
        }
        fresh
    }

    /// Counts one exactly-once delivery to the protocol.
    pub fn count_delivered(&mut self) {
        self.stats.delivered += 1;
    }

    /// True if `(src, dst, seq)` was abandoned at retry exhaustion — a
    /// tombstone that will never arrive, which in-order delivery must skip
    /// over so later sequences on the link are not blocked forever.
    pub fn is_failed(&self, src: usize, dst: usize, seq: u64) -> bool {
        self.failed.contains_key(&(src, dst, seq))
    }

    /// Abandons `src → dst` sequence `seq` after retry exhaustion. The
    /// sequence is tombstoned in the dedup window so a copy still on the
    /// wire can never be delivered late — the failure is final. Returns
    /// `false` if the message had in fact already been delivered (the ack
    /// is merely slow): that is not a failure and is not recorded as one.
    pub fn give_up(&mut self, src: usize, dst: usize, seq: u64, kind: MsgKind, span: u64) -> bool {
        let undelivered = self.delivered.entry((src, dst)).or_default().insert(seq);
        if undelivered {
            self.stats.gave_up += 1;
            self.failed.insert((src, dst, seq), (kind, span));
        }
        undelivered
    }

    /// Messages abandoned so far, in deterministic (src, dst, seq) order.
    pub fn delivery_failures(&self) -> Vec<DeliveryFailure> {
        self.failed
            .iter()
            .map(|(&(src, dst, seq), &(kind, span))| DeliveryFailure {
                src: NodeId(src),
                dst: NodeId(dst),
                seq,
                kind,
                span,
            })
            .collect()
    }

    /// Total out-of-order dedup entries held above the watermarks — the
    /// reliability layer's only unbounded-looking state, bounded in
    /// practice by the reorder window, not the message count.
    pub fn dedup_entries(&self) -> usize {
        self.delivered.values().map(DedupWindow::len_above).sum()
    }

    /// Feeds one RTT measurement for `src → dst` into the adaptive
    /// estimator. Callers must respect Karn's rule: only sample messages
    /// that were never retransmitted.
    pub fn sample_rtt(&mut self, src: usize, dst: usize, rtt: SimDuration) {
        self.rtt.entry((src, dst)).or_default().sample(rtt);
    }

    /// The retransmission timeout for the next (re)transmission of a
    /// message on `src → dst` that has been retransmitted `retries` times:
    /// policy estimate, exponentially backed off, clamped, and never below
    /// `floor` (the round trip this particular message cannot beat).
    pub fn rto_for(&self, src: usize, dst: usize, retries: u32, floor: SimDuration) -> SimDuration {
        let cfg = self.config.expect("reliability enabled");
        match cfg.rto {
            // Legacy semantics exactly: no backoff, no floor.
            RtoPolicy::Fixed(rto) => rto,
            RtoPolicy::Adaptive(a) => {
                let base = self
                    .rtt
                    .get(&(src, dst))
                    .and_then(RttEstimator::rto)
                    .unwrap_or(a.initial);
                let backed = SimDuration::from_ns(
                    base.as_ns()
                        .saturating_shl(retries.min(16))
                        .min(a.max.as_ns()),
                );
                SimDuration::from_ns(backed.as_ns().max(a.min.as_ns()).max(floor.as_ns()))
            }
        }
    }

    /// Counts a retransmission.
    pub fn count_retransmission(&mut self) {
        self.stats.retransmissions += 1;
    }

    /// Counts an acknowledgement actually put on the wire.
    pub fn count_ack(&mut self) {
        self.stats.acks_sent += 1;
    }
}

/// `<<` with saturation (backoff can overflow 64 bits long before the
/// clamp applies).
///
/// `u64::checked_shl` is the wrong tool here: it only returns `None` when
/// the *shift amount* is ≥ 64 — a shift that discards set high bits is
/// considered fine and silently returns the truncated value. With a large
/// SRTT and enough retries that truncation can shift every set bit out,
/// producing an RTO of *zero* that the policy then clamps up to `min` —
/// exponential backoff collapsing to the most aggressive timeout exactly
/// when the network is at its worst. True saturation checks the operand's
/// leading zeros instead.
trait SaturatingShl {
    fn saturating_shl(self, rhs: u32) -> u64;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, rhs: u32) -> u64 {
        if self == 0 {
            0
        } else if rhs > self.leading_zeros() {
            u64::MAX
        } else {
            self << rhs
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequences_are_per_direction() {
        let mut r = ReliabilityState::default();
        assert_eq!(r.next_seq(0, 1), 0);
        assert_eq!(r.next_seq(0, 1), 1);
        assert_eq!(r.next_seq(1, 0), 0, "reverse direction is independent");
        assert_eq!(r.next_seq(0, 2), 0);
        assert_eq!(r.stats().sends, 4);
    }

    #[test]
    fn dedup_suppresses_repeats() {
        let mut r = ReliabilityState::default();
        assert!(r.first_arrival(0, 1, 0));
        r.count_delivered();
        assert!(!r.first_arrival(0, 1, 0));
        assert!(r.first_arrival(1, 0, 0), "direction matters");
        r.count_delivered();
        assert_eq!(r.stats().duplicates_suppressed, 1);
        assert_eq!(r.stats().delivered, 2);
    }

    #[test]
    fn dedup_window_memory_stays_bounded_in_order() {
        let mut r = ReliabilityState::default();
        for seq in 0..10_000 {
            assert!(r.first_arrival(0, 1, seq));
        }
        assert_eq!(
            r.dedup_entries(),
            0,
            "in-order delivery must not accumulate dedup state"
        );
        // And the watermark still rejects everything already seen.
        for seq in [0, 1, 4_999, 9_999] {
            assert!(!r.first_arrival(0, 1, seq));
        }
    }

    #[test]
    fn dedup_window_handles_reordering_and_collapses() {
        let mut r = ReliabilityState::default();
        // Deliver 0..100 in a scrambled order with a hole at 50.
        let mut order: Vec<u64> = (0..100).filter(|&s| s != 50).collect();
        order.reverse();
        for seq in order {
            assert!(r.first_arrival(0, 1, seq));
        }
        // 0..=49 collapsed into the watermark once 0 arrived; only the 49
        // sequences above the hole at 50 remain sparse.
        assert_eq!(
            r.dedup_entries(),
            49,
            "only entries above the hole are sparse"
        );
        assert!(r.first_arrival(0, 1, 50), "the hole itself is fresh");
        assert_eq!(r.dedup_entries(), 0, "watermark advanced through the gap");
        assert!(
            !r.first_arrival(0, 1, 73),
            "still remembered below watermark"
        );
    }

    #[test]
    fn drops_follow_probability_roughly() {
        let mut r = ReliabilityState::default();
        r.enable(SimRng::seed_from(42), LossConfig::lossy_10pct());
        let drops = (0..10_000).filter(|_| r.should_drop()).count();
        assert!((800..1200).contains(&drops), "~10% of 10k, got {drops}");
    }

    #[test]
    fn ack_drops_count_separately() {
        let mut r = ReliabilityState::default();
        r.enable(
            SimRng::seed_from(7),
            LossConfig {
                loss_probability: 0.5,
                ..LossConfig::lossy_10pct()
            },
        );
        for _ in 0..100 {
            r.should_drop_ack();
        }
        let s = r.stats();
        assert_eq!(s.dropped, 0, "ack drops must not pollute the data counter");
        assert!((30..70).contains(&s.ack_drops), "got {}", s.ack_drops);
    }

    #[test]
    fn disabled_never_drops() {
        let mut r = ReliabilityState::default();
        assert!(!r.enabled());
        for _ in 0..100 {
            assert!(!r.should_drop());
        }
    }

    #[test]
    fn estimator_follows_rfc_6298() {
        let mut e = RttEstimator::default();
        e.sample(SimDuration::from_us(1000));
        // First sample: SRTT = R, RTTVAR = R/2, RTO = R + 4·R/2 = 3R.
        assert_eq!(e.rto(), Some(SimDuration::from_us(3000)));
        // A stream of identical samples converges the variance toward 0,
        // so the RTO decays toward SRTT.
        for _ in 0..64 {
            e.sample(SimDuration::from_us(1000));
        }
        let rto = e.rto().unwrap();
        assert!(rto >= SimDuration::from_us(1000));
        assert!(rto < SimDuration::from_us(1100), "rto = {rto}");
    }

    #[test]
    fn adaptive_rto_backs_off_and_clamps() {
        let mut r = ReliabilityState::default();
        r.enable(SimRng::seed_from(1), LossConfig::clean_adaptive());
        r.sample_rtt(0, 1, SimDuration::from_ms(2));
        let base = r.rto_for(0, 1, 0, SimDuration::ZERO);
        assert_eq!(base, SimDuration::from_ms(6), "3R on the first sample");
        assert_eq!(r.rto_for(0, 1, 1, SimDuration::ZERO), base * 2);
        assert_eq!(
            r.rto_for(0, 1, 60, SimDuration::ZERO),
            SimDuration::from_ms(200),
            "backoff saturates at the ceiling, even past shift width"
        );
        // Unmeasured links fall back to the initial timeout.
        assert_eq!(
            r.rto_for(2, 3, 0, SimDuration::ZERO),
            SimDuration::from_ms(5)
        );
        // The per-message floor wins when it exceeds the estimate.
        assert_eq!(
            r.rto_for(0, 1, 0, SimDuration::from_ms(50)),
            SimDuration::from_ms(50)
        );
    }

    /// Regression: the old `saturating_shl` was `checked_shl(..).unwrap_or(MAX)`,
    /// which only saturates when the *shift amount* is ≥ 64 — a shift that
    /// discards set high bits silently truncated instead.
    #[test]
    fn saturating_shl_saturates_on_bit_loss_not_just_wide_shifts() {
        assert_eq!(0u64.saturating_shl(1000), 0);
        assert_eq!(1u64.saturating_shl(63), 1 << 63, "exact fit is exact");
        assert_eq!(
            3u64.saturating_shl(62),
            3 << 62,
            "rhs == leading_zeros fits"
        );
        assert_eq!(1u64.saturating_shl(64), u64::MAX, "wide shift saturates");
        // The bug: 2^61 << 16 has rhs < 64, so checked_shl "succeeds" —
        // returning 0 after every set bit is shifted out.
        assert_eq!((1u64 << 61).saturating_shl(16), u64::MAX);
        assert_eq!(u64::MAX.saturating_shl(1), u64::MAX);
    }

    /// Regression: pathological RTT samples (storm fault plans stack stall
    /// and partition delays at serve-length runs) overflowed the estimator's
    /// `7 * srtt` / `srtt + 4 * rttvar` in debug builds.
    #[test]
    fn estimator_survives_pathological_rtts() {
        let mut e = RttEstimator::default();
        e.sample(SimDuration::from_ns(u64::MAX / 2));
        // Second identical sample: 7·SRTT would overflow without saturation.
        e.sample(SimDuration::from_ns(u64::MAX / 2));
        let rto = e.rto().expect("sampled");
        assert!(
            rto.as_ns() > u64::MAX / 4,
            "huge RTTs must pin the estimate high, not wrap: rto = {rto}"
        );
    }

    /// Regression for the end-to-end failure mode: with bit-loss
    /// truncation, a large SRTT at high retry counts shifted to *zero*,
    /// and the min-clamp then produced the most aggressive timeout exactly
    /// when the link was at its worst. Post-fix the backoff saturates and
    /// the ceiling clamp wins.
    #[test]
    fn backoff_of_large_srtt_hits_ceiling_not_floor() {
        let mut r = ReliabilityState::default();
        r.enable(SimRng::seed_from(1), LossConfig::clean_adaptive());
        // One sample: SRTT = R, RTTVAR = R/2, base RTO = 3R = 3·2^61 ns.
        r.sample_rtt(0, 1, SimDuration::from_ns(1 << 61));
        let a = AdaptiveRto::default();
        let rto = r.rto_for(0, 1, 16, SimDuration::ZERO);
        // Pre-fix: 3·2^61 << 16 truncated to 0, clamped *up* to min (500µs).
        assert_eq!(
            rto, a.max,
            "saturated backoff must clamp to the 200 ms ceiling, got {rto}"
        );
    }

    #[test]
    fn fixed_rto_ignores_backoff_and_floor() {
        let mut r = ReliabilityState::default();
        r.enable(
            SimRng::seed_from(1),
            LossConfig {
                loss_probability: 0.0,
                rto: RtoPolicy::Fixed(SimDuration::from_ms(5)),
                max_retries: 8,
            },
        );
        r.sample_rtt(0, 1, SimDuration::from_ms(40));
        assert_eq!(
            r.rto_for(0, 1, 3, SimDuration::from_ms(90)),
            SimDuration::from_ms(5),
            "legacy fixed policy: no estimation, no backoff, no floor"
        );
    }

    #[test]
    fn give_up_tombstones_and_balances() {
        let mut r = ReliabilityState::default();
        let seq = r.next_seq(0, 1);
        assert!(r.give_up(0, 1, seq, MsgKind::DiffReply, 42));
        assert!(
            !r.first_arrival(0, 1, seq),
            "an abandoned message must never be delivered late"
        );
        assert!(r.is_failed(0, 1, seq), "the tombstone is queryable");
        let s = r.stats();
        assert!(s.balanced(), "gave_up resolves the send: {s:?}");
        assert_eq!(s.gave_up, 1);
        assert_eq!(s.delivered, 0);
        assert_eq!(
            r.delivery_failures(),
            vec![DeliveryFailure {
                src: NodeId(0),
                dst: NodeId(1),
                seq,
                kind: MsgKind::DiffReply,
                span: 42,
            }]
        );
    }

    #[test]
    fn give_up_after_delivery_is_not_a_failure() {
        // The retry timer can exhaust while the ack (not the message) is
        // the thing that's slow — the message reached the protocol, so the
        // send resolved as delivered, not abandoned.
        let mut r = ReliabilityState::default();
        let seq = r.next_seq(0, 1);
        assert!(r.first_arrival(0, 1, seq));
        r.count_delivered();
        assert!(!r.give_up(0, 1, seq, MsgKind::LockGrant, 0));
        assert!(
            !r.is_failed(0, 1, seq),
            "no tombstone for a delivered message"
        );
        let s = r.stats();
        assert!(s.balanced(), "{s:?}");
        assert_eq!(s.gave_up, 0);
        assert!(r.delivery_failures().is_empty());
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn full_loss_rejected() {
        let mut r = ReliabilityState::default();
        r.enable(
            SimRng::seed_from(1),
            LossConfig {
                loss_probability: 1.0,
                rto: RtoPolicy::Fixed(SimDuration::from_ms(1)),
                max_retries: 3,
            },
        );
    }
}
