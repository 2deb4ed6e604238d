//! The global event queue.
//!
//! Events are ordered by `(time, sequence)`: two events scheduled for the
//! same instant fire in the order they were pushed. This total order is what
//! makes the whole simulation deterministic — no wall-clock or thread
//! scheduling effect can reorder event processing.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::VirtualTime;

/// A deterministic priority queue of timed events.
///
/// # Example
///
/// ```
/// use cvm_sim::{EventQueue, VirtualTime};
///
/// let mut q = EventQueue::new();
/// q.push(VirtualTime::from_us(2), 'b');
/// q.push(VirtualTime::from_us(1), 'a');
/// q.push(VirtualTime::from_us(2), 'c'); // same instant as 'b', pushed later
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, ['a', 'b', 'c']);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    seq: u64,
}

#[derive(Debug)]
struct Scheduled<E> {
    time: VirtualTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so earliest (time, seq) pops first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Creates an empty queue whose heap can hold `cap` events before
    /// reallocating. Sized from the config's node×thread count, the heap
    /// never grows during the warm-up burst.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            seq: 0,
        }
    }

    /// Number of events the heap can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.heap.capacity()
    }

    /// Schedules `event` to fire at `time`.
    pub fn push(&mut self, time: VirtualTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Scheduled { time, seq, event });
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(VirtualTime, E)> {
        self.heap.pop().map(|s| (s.time, s.event))
    }

    /// The firing time of the earliest pending event.
    pub fn peek_time(&self) -> Option<VirtualTime> {
        self.heap.peek().map(|s| s.time)
    }

    /// The earliest pending event and its firing time, without removing it.
    /// Lets a caller decide whether the head is still meaningful (e.g. a
    /// cancelled timer) before popping it.
    pub fn peek(&self) -> Option<(VirtualTime, &E)> {
        self.heap.peek().map(|s| (s.time, &s.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events ever pushed (used as a liveness metric).
    pub fn pushed_total(&self) -> u64 {
        self.seq
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for us in [5u64, 1, 4, 2, 3] {
            q.push(VirtualTime::from_us(us), us);
        }
        let mut got = Vec::new();
        while let Some((t, e)) = q.pop() {
            assert_eq!(t, VirtualTime::from_us(e));
            got.push(e);
        }
        assert_eq!(got, [1, 2, 3, 4, 5]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = VirtualTime::from_us(7);
        for i in 0..100 {
            q.push(t, i);
        }
        let got: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        assert!(q.peek_time().is_none());
        q.push(VirtualTime::from_us(3), ());
        q.push(VirtualTime::from_us(1), ());
        assert_eq!(q.peek_time(), Some(VirtualTime::from_us(1)));
        q.pop();
        assert_eq!(q.peek_time(), Some(VirtualTime::from_us(3)));
    }

    #[test]
    fn presized_heap_never_reallocates_within_capacity() {
        let mut q = EventQueue::with_capacity(64);
        let cap = q.capacity();
        assert!(cap >= 64);
        for i in 0..64u64 {
            q.push(VirtualTime::from_us(i), i);
            debug_assert!(q.len() <= q.capacity(), "heap grew past its pre-size");
        }
        assert_eq!(q.capacity(), cap, "64 pushes fit the pre-sized heap");
        let got: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(got, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn len_and_pushed_total_track() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(VirtualTime::ZERO, ());
        q.push(VirtualTime::ZERO, ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.pushed_total(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.pushed_total(), 2);
    }
}
