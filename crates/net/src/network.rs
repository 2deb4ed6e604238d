//! The in-flight message scheduler.
//!
//! [`NetworkSim`] owns the set of messages currently on the wire or queued
//! at a busy destination handler. Message delivery is a two-phase event:
//! the *arrival* (wire time after the send) and the *service completion*
//! (after waiting for the destination's handler to be free and being
//! processed for the per-kind service time). [`NetworkSim::next`] returns
//! messages in service-completion order, which is the instant their effects
//! become visible to the protocol — so the DSM driver can simply apply each
//! message as it pops.
//!
//! With the reliability layer enabled ([`NetworkSim::enable_loss`])
//! delivery is exactly-once and *in order per link*: an out-of-order
//! arrival is acknowledged immediately but held back until its gap fills,
//! so a retransmission delay never reorders a link's traffic (retransmitted
//! messages arrive a full RTO late — far beyond the wire size-skew the
//! protocols tolerate). An in-order message is acknowledged when its
//! *service* completes — not when it arrives — so the sender's measured
//! round trip includes handler queueing, exactly the component that makes
//! a fixed timeout fire while a message is still waiting in line. A
//! [`FaultPlan`] layered on top
//! ([`NetworkSim::set_faults`]) injects per-link loss, duplication,
//! reordering, corruption drops, node stalls and transient partitions,
//! deterministically from its own RNG stream.

use std::collections::{BTreeMap, HashMap};

use cvm_sim::{EventQueue, SimDuration, SimRng, VirtualTime};

use crate::fault::{DropCause, FaultInjector, FaultPlan, TxFate};
use crate::latency::LatencyModel;
use crate::message::{Message, MsgKind};
use crate::parked::ParkedBytes;
use crate::reliable::{DeliveryFailure, LossConfig, LossStats, ReliabilityState};
use crate::stats::NetStats;

/// Wire size of an acknowledgement (reliability layer).
pub const ACK_BYTES: usize = 32;

struct Envelope<P> {
    msg: Message<P>,
    /// Sequence number when the reliability layer is active.
    seq: Option<u64>,
    /// Original send time (constant across retransmissions).
    sent_at: VirtualTime,
    /// When this copy went on the wire (later than `sent_at` only for
    /// retransmitted copies).
    tx_at: VirtualTime,
    /// Retransmissions preceding this copy.
    retries: u32,
}

/// Per-delivery timing metadata, kept for the causal-span layer: when
/// the message was originally sent, when the delivered copy was
/// transmitted (differs from `sent_at` only after retransmission), when
/// it arrived at the destination, when its handler completed, and how
/// many retransmissions preceded the delivered copy. The segments the
/// critical-path engine wants fall out by subtraction: backoff =
/// `tx_at - sent_at`, wire = `arrived_at - tx_at`, handler (including
/// queueing and reorder hold) = `serviced_at - arrived_at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveryInfo {
    /// Original send time.
    pub sent_at: VirtualTime,
    /// Transmit time of the delivered copy.
    pub tx_at: VirtualTime,
    /// Arrival time at the destination NIC.
    pub arrived_at: VirtualTime,
    /// Handler service completion (the delivery instant).
    pub serviced_at: VirtualTime,
    /// Retransmissions before the delivered copy.
    pub retries: u32,
}

enum Phase<P> {
    Arrival(Envelope<P>),
    /// Service completion; the key, when present, is the `(src, dst, seq)`
    /// to acknowledge at this instant (fresh reliable deliveries only).
    Serviced(Message<P>, Option<(usize, usize, u64)>, DeliveryInfo),
    /// Retransmission timer for `(src, dst, seq)`.
    Retry(usize, usize, u64),
    /// An acknowledgement for `(src, dst, seq)` arriving back at `src`.
    AckArrival(usize, usize, u64),
}

/// A sent-but-unacknowledged message awaiting possible retransmission.
struct PendingMsg<P> {
    msg: Message<P>,
    retries: u32,
    /// Original send time; the RTT sample when the ack returns (Karn's
    /// rule: only taken if the message was never retransmitted).
    sent_at: VirtualTime,
}

/// Per-link hold buffer: arrived-but-out-of-order messages keyed by
/// sequence, each with the arrival metadata delivery needs.
type ReorderBuf<P> = BTreeMap<u64, (Message<P>, DeliveryInfo)>;

/// Simulated network connecting `n` nodes.
///
/// # Example
///
/// ```
/// use cvm_net::{LatencyModel, Message, MsgKind, NetworkSim, NodeId};
/// use cvm_sim::VirtualTime;
///
/// let mut net: NetworkSim<&str> = NetworkSim::new(2, LatencyModel::paper());
/// net.send(
///     VirtualTime::ZERO,
///     Message::new(NodeId(0), NodeId(1), MsgKind::Other, 64, "ping"),
/// );
/// let (when, msg) = net.next().expect("one message in flight");
/// assert_eq!(msg.payload, "ping");
/// assert!(when > VirtualTime::ZERO);
/// ```
pub struct NetworkSim<P> {
    queue: EventQueue<Phase<P>>,
    handler_free: Vec<VirtualTime>,
    model: LatencyModel,
    stats: NetStats,
    jitter: Option<(SimRng, SimDuration)>,
    in_flight: usize,
    reliability: ReliabilityState,
    faults: Option<FaultInjector>,
    pending: HashMap<(usize, usize, u64), PendingMsg<P>>,
    /// Next sequence to hand to the protocol per link: the reliability
    /// layer delivers in order, like any transport built over a lossy
    /// datagram network. Without this, a retransmitted message arrives a
    /// full RTO late — a reordering orders of magnitude beyond the wire
    /// size-skew the protocols are built to tolerate.
    deliver_next: HashMap<(usize, usize), u64>,
    /// Arrived-but-out-of-order messages per link, held until their gap
    /// fills (or the gap's sender gives up). Bounded by the reorder
    /// window, like the dedup state. Each entry keeps its arrival
    /// metadata so delivery timing survives the hold.
    reorder_buf: HashMap<(usize, usize), ReorderBuf<P>>,
    /// Timing metadata of the message most recently returned by
    /// [`poll`](Self::poll)/[`next`](Self::next).
    last_delivery: Option<DeliveryInfo>,
    /// Bytes held in `pending` (per src) and `reorder_buf` (per dst).
    parked: ParkedBytes,
}

impl<P> std::fmt::Debug for NetworkSim<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetworkSim")
            .field("nodes", &self.handler_free.len())
            .field("in_flight", &self.in_flight)
            .finish_non_exhaustive()
    }
}

impl<P> NetworkSim<P> {
    /// Creates a network of `nodes` nodes under `model`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(nodes: usize, model: LatencyModel) -> Self {
        assert!(nodes > 0, "network needs at least one node");
        NetworkSim {
            queue: EventQueue::new(),
            handler_free: vec![VirtualTime::ZERO; nodes],
            model,
            stats: NetStats::new(),
            jitter: None,
            in_flight: 0,
            reliability: ReliabilityState::default(),
            faults: None,
            pending: HashMap::new(),
            deliver_next: HashMap::new(),
            reorder_buf: HashMap::new(),
            last_delivery: None,
            parked: ParkedBytes::new(nodes),
        }
    }

    /// High-water marks of parked bytes (retransmission copies and
    /// reorder-buffer holds) since creation.
    pub fn parked(&self) -> &ParkedBytes {
        &self.parked
    }

    /// Enables packet-loss injection; delivery then runs over the
    /// acknowledgement/retransmission layer of [`crate::reliable`], still
    /// exactly-once to the protocol. Deterministic under the given RNG.
    pub fn enable_loss(&mut self, rng: SimRng, config: LossConfig) {
        self.reliability.enable(rng, config);
    }

    /// Layers a [`FaultPlan`] over every transmission, evaluated with its
    /// own RNG stream (independent of the uniform-loss stream, so adding a
    /// plan never perturbs unrelated random decisions).
    ///
    /// # Panics
    ///
    /// Panics if the plan can discard or duplicate traffic while the
    /// reliability layer is disabled — without acknowledgements those
    /// faults would silently break exactly-once delivery instead of
    /// degrading gracefully.
    pub fn set_faults(&mut self, rng: SimRng, plan: FaultPlan) {
        let needs_reliability = plan.can_drop() || plan.rules.iter().any(|r| r.duplicate > 0.0);
        assert!(
            !needs_reliability || self.reliability.enabled(),
            "fault plans that drop or duplicate traffic require the reliability layer"
        );
        self.faults = Some(FaultInjector::new(rng, plan));
    }

    /// Reliability-layer counters (drops, retransmissions, duplicates).
    pub fn loss_stats(&self) -> LossStats {
        self.reliability.stats()
    }

    /// Messages the reliability layer gave up on (retry exhaustion), in
    /// deterministic order. Empty in a healthy run.
    pub fn delivery_failures(&self) -> Vec<DeliveryFailure> {
        self.reliability.delivery_failures()
    }

    /// Out-of-order dedup entries currently held (memory-bound metric).
    pub fn dedup_entries(&self) -> usize {
        self.reliability.dedup_entries()
    }

    /// Enables uniform random extra delay in `[0, max)` per message, for
    /// perturbation/failure-injection experiments. Deterministic under the
    /// given RNG.
    pub fn set_jitter(&mut self, rng: SimRng, max: SimDuration) {
        self.jitter = if max.is_zero() {
            None
        } else {
            Some((rng, max))
        };
    }

    fn wire_delay(&mut self, bytes: usize) -> SimDuration {
        let mut wire = self.model.wire_time(bytes);
        if let Some((rng, max)) = &mut self.jitter {
            wire += SimDuration::from_ns(rng.below(max.as_ns().max(1)));
        }
        wire
    }

    /// The round trip this message cannot possibly beat: its own wire
    /// time, its handler service time, and the ack's wire time back, plus
    /// 12.5% headroom so an ack that arrives exactly on the uncontended
    /// round trip still beats the timer. The adaptive RTO never fires
    /// below this, so an uncontended slow message is never retransmitted
    /// while in flight.
    fn rto_floor(&self, msg: &Message<P>) -> SimDuration {
        let round_trip = self.model.wire_time(msg.payload_bytes)
            + self.model.handler_time(msg.kind)
            + self.model.wire_time(ACK_BYTES);
        round_trip + round_trip / 8
    }

    /// Puts one copy of `msg` on the wire: rolls uniform loss, then the
    /// fault plan, and schedules the arrival(s) that survive. `sent_at`
    /// is the original send time and `retries` the copy's retransmission
    /// count — both ride along for delivery timing.
    fn transmit(
        &mut self,
        now: VirtualTime,
        msg: Message<P>,
        seq: Option<u64>,
        sent_at: VirtualTime,
        retries: u32,
    ) where
        P: Clone,
    {
        let (src, dst) = (msg.src.0, msg.dst.0);
        if seq.is_some() && self.reliability.should_drop() {
            return;
        }
        let fate = match &mut self.faults {
            Some(f) => f.roll(src, dst, now),
            None => TxFate::Deliver {
                delay: SimDuration::ZERO,
                duplicate: None,
            },
        };
        match fate {
            TxFate::Drop(cause) => {
                let s = self.reliability.stats_mut();
                match cause {
                    DropCause::Loss => s.dropped += 1,
                    DropCause::Corrupt => s.corrupt_drops += 1,
                    DropCause::Partition => s.partition_drops += 1,
                }
            }
            TxFate::Deliver { delay, duplicate } => {
                if !delay.is_zero() {
                    self.reliability.stats_mut().reorders_injected += 1;
                }
                let wire = self.wire_delay(msg.payload_bytes);
                if let Some(lag) = duplicate {
                    self.reliability.stats_mut().duplicates_injected += 1;
                    let copy = Envelope {
                        msg: msg.clone(),
                        seq,
                        sent_at,
                        tx_at: now,
                        retries,
                    };
                    self.queue
                        .push(now + wire + delay + lag, Phase::Arrival(copy));
                }
                self.queue.push(
                    now + wire + delay,
                    Phase::Arrival(Envelope {
                        msg,
                        seq,
                        sent_at,
                        tx_at: now,
                        retries,
                    }),
                );
            }
        }
    }

    /// Sends the acknowledgement for `(src, dst, seq)` from `dst` back to
    /// `src`, subject to the same loss and fault plan as data (on the
    /// reverse link). Ack bandwidth is accounted in [`NetStats`] under
    /// [`MsgKind::Ack`]; drops land in `ack_drops`, never in the data-loss
    /// counter.
    fn send_ack(&mut self, now: VirtualTime, src: usize, dst: usize, seq: u64) {
        if self.reliability.should_drop_ack() {
            return;
        }
        let fate = match &mut self.faults {
            Some(f) => f.roll(dst, src, now),
            None => TxFate::Deliver {
                delay: SimDuration::ZERO,
                duplicate: None,
            },
        };
        match fate {
            TxFate::Drop(cause) => {
                let s = self.reliability.stats_mut();
                s.ack_drops += 1;
                match cause {
                    DropCause::Loss => {}
                    DropCause::Corrupt => s.corrupt_drops += 1,
                    DropCause::Partition => s.partition_drops += 1,
                }
            }
            TxFate::Deliver { delay, duplicate } => {
                self.reliability.count_ack();
                self.stats.record(MsgKind::Ack, ACK_BYTES);
                let wire = self.wire_delay(ACK_BYTES);
                self.queue
                    .push(now + wire + delay, Phase::AckArrival(src, dst, seq));
                if let Some(lag) = duplicate {
                    // A duplicated ack still costs wire bandwidth; the
                    // second arrival is a no-op at the sender.
                    self.reliability.count_ack();
                    self.stats.record(MsgKind::Ack, ACK_BYTES);
                    self.queue
                        .push(now + wire + delay + lag, Phase::AckArrival(src, dst, seq));
                }
            }
        }
    }

    /// Pops the next message in service-completion order, returning the
    /// virtual time at which its effects apply at the destination.
    // Deliberately named like an iterator: the network *is* consumed as a
    // stream of deliveries, but it cannot implement Iterator (the item
    // borrows nothing, yet delivery mutates shared handler state and the
    // type parameter needs Clone only here).
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(VirtualTime, Message<P>)>
    where
        P: Clone,
    {
        self.poll(VirtualTime::MAX)
    }

    /// Like [`next`](Self::next), but only returns a message whose service
    /// completes at or before `until`; otherwise leaves it queued and
    /// returns `None`.
    ///
    /// Arrivals up to `until` are expanded into service completions, which
    /// is safe because any message sent later arrives later than every
    /// expanded arrival — handler-occupancy order at each node is
    /// preserved. This is what lets a driver interleave network events with
    /// its own event queue in strict time order.
    pub fn poll(&mut self, until: VirtualTime) -> Option<(VirtualTime, Message<P>)>
    where
        P: Clone,
    {
        loop {
            match self.queue.peek_time() {
                None => return None,
                Some(t) if t > until => return None,
                Some(_) => {}
            }
            match self.queue.pop().expect("peeked nonempty") {
                (arrived, Phase::Arrival(env)) => self.handle_arrival(arrived, env),
                (done, Phase::Serviced(msg, ack, info)) => {
                    if let Some((src, dst, seq)) = ack {
                        self.send_ack(done, src, dst, seq);
                    }
                    self.in_flight -= 1;
                    self.last_delivery = Some(info);
                    return Some((done, msg));
                }
                (now, Phase::Retry(src, dst, seq)) => self.handle_retry(now, src, dst, seq),
                (t, Phase::AckArrival(src, dst, seq)) => {
                    if let Some(p) = self.pending.remove(&(src, dst, seq)) {
                        self.parked.unpark(src, p.msg.payload_bytes as u64);
                        if p.retries == 0 {
                            // Karn's rule: the RTT of a retransmitted
                            // message is ambiguous; never sample it.
                            self.reliability.sample_rtt(src, dst, t.since(p.sent_at));
                        }
                    }
                }
            }
        }
    }

    fn handle_arrival(&mut self, arrived: VirtualTime, env: Envelope<P>) {
        let (src, dst) = (env.msg.src.0, env.msg.dst.0);
        let info = DeliveryInfo {
            sent_at: env.sent_at,
            tx_at: env.tx_at,
            arrived_at: arrived,
            serviced_at: arrived, // finalized in schedule_service
            retries: env.retries,
        };
        let Some(seq) = env.seq else {
            self.schedule_service(arrived, env.msg, None, info);
            return;
        };
        if !self.reliability.first_arrival(src, dst, seq) {
            // Duplicate: the sender is evidently missing our ack, so
            // re-ack immediately — but never re-deliver.
            self.send_ack(arrived, src, dst, seq);
            return;
        }
        let next = self.deliver_next.get(&(src, dst)).copied().unwrap_or(0);
        if seq != next {
            // Out of order: the message has arrived — ack it now, so the
            // sender does not retransmit something we already hold — but
            // its delivery waits for the link gap to fill.
            self.send_ack(arrived, src, dst, seq);
            self.parked.park(dst, env.msg.payload_bytes as u64);
            self.reorder_buf
                .entry((src, dst))
                .or_default()
                .insert(seq, (env.msg, info));
            return;
        }
        // In order: service now, ack at service completion (so the
        // sender's RTT sample includes handler queueing).
        self.reliability.count_delivered();
        self.deliver_next.insert((src, dst), seq + 1);
        self.schedule_service(arrived, env.msg, Some((src, dst, seq)), info);
        self.drain_in_order(arrived, src, dst);
    }

    /// Queues `msg` for its destination handler starting no earlier than
    /// `at`; `ack`, when present, is acknowledged at service completion.
    fn schedule_service(
        &mut self,
        at: VirtualTime,
        msg: Message<P>,
        ack: Option<(usize, usize, u64)>,
        mut info: DeliveryInfo,
    ) {
        let dst = msg.dst.0;
        let mut start = at.max(self.handler_free[dst]);
        if let Some(release) = self
            .faults
            .as_ref()
            .and_then(|f| f.stall_release(dst, start))
        {
            start = release;
        }
        let done = start + self.model.handler_time(msg.kind);
        self.handler_free[dst] = done;
        info.serviced_at = done;
        self.queue.push(done, Phase::Serviced(msg, ack, info));
    }

    /// Delivers every buffered message on `src → dst` that is now in
    /// order, skipping tombstoned sequences (abandoned at retry
    /// exhaustion — they will never arrive, and must not block the link).
    /// Held-back messages were already acknowledged at arrival, so their
    /// service completion carries no ack.
    fn drain_in_order(&mut self, now: VirtualTime, src: usize, dst: usize) {
        loop {
            let next = self.deliver_next.get(&(src, dst)).copied().unwrap_or(0);
            let held = self
                .reorder_buf
                .get_mut(&(src, dst))
                .and_then(|b| b.remove(&next));
            if let Some((m, info)) = held {
                self.parked.unpark(dst, m.payload_bytes as u64);
                self.reliability.count_delivered();
                self.deliver_next.insert((src, dst), next + 1);
                self.schedule_service(now, m, None, info);
            } else if self.reliability.is_failed(src, dst, next) {
                self.deliver_next.insert((src, dst), next + 1);
            } else {
                return;
            }
        }
    }

    fn handle_retry(&mut self, now: VirtualTime, src: usize, dst: usize, seq: u64)
    where
        P: Clone,
    {
        let Some(p) = self.pending.remove(&(src, dst, seq)) else {
            return; // already acknowledged
        };
        self.parked.unpark(src, p.msg.payload_bytes as u64);
        let cfg = self.reliability.config().expect("loss enabled");
        if p.retries >= cfg.max_retries {
            // Retry exhaustion is a structured outcome, not a crash: the
            // message becomes a DeliveryFailure and its sequence is
            // tombstoned so a late copy can never resurrect it.
            if self
                .reliability
                .give_up(src, dst, seq, p.msg.kind, p.msg.span)
            {
                self.in_flight -= 1;
                // The tombstoned sequence will never arrive; unblock any
                // later messages held behind it in the reorder buffer.
                self.drain_in_order(now, src, dst);
            }
            return;
        }
        self.reliability.count_retransmission();
        // Retransmissions consume real bandwidth.
        self.stats.record(p.msg.kind, p.msg.payload_bytes);
        let floor = self.rto_floor(&p.msg);
        let retries = p.retries + 1;
        self.parked.park(src, p.msg.payload_bytes as u64);
        self.pending.insert(
            (src, dst, seq),
            PendingMsg {
                msg: p.msg.clone(),
                retries,
                sent_at: p.sent_at,
            },
        );
        self.transmit(now, p.msg, Some(seq), p.sent_at, retries);
        let rto = self.reliability.rto_for(src, dst, retries, floor);
        self.queue.push(now + rto, Phase::Retry(src, dst, seq));
    }

    /// Sends `msg` at virtual time `now`. Arrival and service are scheduled
    /// automatically; the message is eventually returned by
    /// [`next`](Self::next) exactly once, even under injected loss — or, if
    /// the peer stays unresponsive past `max_retries`, it surfaces in
    /// [`delivery_failures`](Self::delivery_failures) instead.
    ///
    /// # Panics
    ///
    /// Panics if the destination node is out of range.
    pub fn send(&mut self, now: VirtualTime, msg: Message<P>)
    where
        P: Clone,
    {
        assert!(
            msg.dst.0 < self.handler_free.len(),
            "destination {} out of range",
            msg.dst
        );
        self.stats.record(msg.kind, msg.payload_bytes);
        self.in_flight += 1;
        if self.reliability.enabled() {
            let (src, dst) = (msg.src.0, msg.dst.0);
            let seq = self.reliability.next_seq(src, dst);
            let floor = self.rto_floor(&msg);
            self.parked.park(src, msg.payload_bytes as u64);
            self.pending.insert(
                (src, dst, seq),
                PendingMsg {
                    msg: msg.clone(),
                    retries: 0,
                    sent_at: now,
                },
            );
            self.transmit(now, msg, Some(seq), now, 0);
            let rto = self.reliability.rto_for(src, dst, 0, floor);
            self.queue.push(now + rto, Phase::Retry(src, dst, seq));
        } else {
            self.transmit(now, msg, None, now, 0);
        }
    }

    /// Drops bookkeeping events at the head of the queue that can no
    /// longer do anything: a retry timer or ack arrival whose pending
    /// entry is gone (the message was acknowledged or abandoned). Without
    /// this, a cleared timer makes the network look busy for up to one
    /// RTO after the last real delivery.
    fn purge_dead(&mut self) {
        while let Some((_, phase)) = self.queue.peek() {
            let dead = match phase {
                Phase::Retry(src, dst, seq) | Phase::AckArrival(src, dst, seq) => {
                    !self.pending.contains_key(&(*src, *dst, *seq))
                }
                Phase::Arrival(_) | Phase::Serviced(..) => false,
            };
            if !dead {
                break;
            }
            self.queue.pop();
        }
    }

    /// Timing metadata of the most recent delivery (the message last
    /// returned by [`poll`](Self::poll)); `None` before any delivery.
    pub fn last_delivery(&self) -> Option<DeliveryInfo> {
        self.last_delivery
    }

    /// Completion time of the earliest *live* pending event (arrival,
    /// service, or an armed retransmission timer). `None` means the
    /// network is quiescent: dead timer residue does not count.
    pub fn peek_time(&mut self) -> Option<VirtualTime> {
        self.purge_dead();
        self.queue.peek_time()
    }

    /// Number of messages sent but not yet returned by `next` (abandoned
    /// messages leave this count when the sender gives up).
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Accumulated traffic statistics.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// The latency model in force.
    pub fn model(&self) -> &LatencyModel {
        &self.model
    }
}
