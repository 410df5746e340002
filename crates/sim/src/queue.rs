//! The event queue: a cancellable priority queue over virtual time.
//!
//! Events at equal times are delivered in the order they were scheduled
//! (FIFO), which makes runs fully deterministic. Cancellation is O(1);
//! a cancelled entry is skipped (and dropped) when it surfaces.
//!
//! Two implementations share the API and the exact `(time, sequence)` pop
//! order: the production [`EventQueue`] is the hierarchical timer wheel of
//! [`crate::wheel`] (O(1) schedule/placement, payloads in a slab, cancel
//! by stamp compare); `HeapEventQueue` (test builds only) is the original
//! binary-heap queue with a pending-id set, kept as the independent
//! reference implementation for the wheel's differential test.

/// The event queue used by the simulator: the timer wheel.
pub type EventQueue<E> = crate::wheel::TimerWheel<E>;

/// Handle identifying one scheduling of an event, usable to cancel it.
///
/// It carries the scheduling's sequence number, which no queue ever hands
/// out twice, so an id stays unambiguous for the life of the queue:
/// cancelling an event that already fired or was already cancelled returns
/// `false` and disturbs nothing, whatever has been scheduled since. (The
/// wheel also records which slab cell held the payload; the cell may be
/// reused, the sequence number is what is compared.)
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventId {
    seq: u64,
    cell: u32,
}

impl EventId {
    #[inline]
    pub(crate) fn new(seq: u64, cell: u32) -> EventId {
        EventId { seq, cell }
    }

    #[inline]
    pub(crate) fn seq(self) -> u64 {
        self.seq
    }

    #[inline]
    pub(crate) fn cell(self) -> u32 {
        self.cell
    }
}

#[cfg(test)]
pub(crate) use heap::HeapEventQueue;

#[cfg(test)]
mod heap {
    use super::EventId;
    use crate::time::SimTime;
    use std::cmp::{Ordering, Reverse};
    use std::collections::{BinaryHeap, HashSet};

    /// One scheduled event of the heap queue, ordered by `(at, seq)`.
    struct Entry<E> {
        at: SimTime,
        seq: u64,
        payload: E,
    }

    impl<E> PartialEq for Entry<E> {
        fn eq(&self, other: &Self) -> bool {
            self.at == other.at && self.seq == other.seq
        }
    }
    impl<E> Eq for Entry<E> {}
    impl<E> PartialOrd for Entry<E> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<E> Ord for Entry<E> {
        fn cmp(&self, other: &Self) -> Ordering {
            (self.at, self.seq).cmp(&(other.at, other.seq))
        }
    }

    /// A deterministic, cancellable event queue over a binary heap.
    ///
    /// Sequence numbers are never reused, so an [`EventId`] unambiguously names
    /// one scheduling. Cancelling an event that already fired (or was already
    /// cancelled) is a no-op that returns `false`.
    pub struct HeapEventQueue<E> {
        heap: BinaryHeap<Reverse<Entry<E>>>,
        /// Ids scheduled but neither popped nor cancelled yet.
        pending: HashSet<u64>,
        next_seq: u64,
        now: SimTime,
        depth_high_water: usize,
    }

    impl<E> HeapEventQueue<E> {
        pub fn new() -> Self {
            HeapEventQueue {
                heap: BinaryHeap::new(),
                pending: HashSet::new(),
                next_seq: 0,
                now: SimTime::ZERO,
                depth_high_water: 0,
            }
        }

        /// Current virtual time: the timestamp of the most recently popped event.
        #[inline]
        pub fn now(&self) -> SimTime {
            self.now
        }

        /// Schedule `payload` for delivery at absolute time `at`.
        ///
        /// Panics if `at` is in the past — scheduling backwards in time is
        /// always a logic error in a DES.
        pub fn schedule(&mut self, at: SimTime, payload: E) -> EventId {
            assert!(
                at >= self.now,
                "cannot schedule into the past: at={at:?} now={:?}",
                self.now
            );
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Reverse(Entry { at, seq, payload }));
            self.pending.insert(seq);
            self.depth_high_water = self.depth_high_water.max(self.pending.len());
            EventId::new(seq, 0)
        }

        /// Cancel a previously scheduled event. Returns `true` iff the event was
        /// still pending (and is now guaranteed not to fire).
        pub fn cancel(&mut self, id: EventId) -> bool {
            self.pending.remove(&id.seq())
        }

        /// Remove and return the next event `(time, payload)`, advancing `now`.
        pub fn pop(&mut self) -> Option<(SimTime, E)> {
            while let Some(Reverse(entry)) = self.heap.pop() {
                if !self.pending.remove(&entry.seq) {
                    continue; // cancelled
                }
                debug_assert!(entry.at >= self.now);
                self.now = entry.at;
                return Some((entry.at, entry.payload));
            }
            None
        }

        /// Timestamp of the next pending event without popping it.
        pub fn peek_time(&mut self) -> Option<SimTime> {
            while let Some(Reverse(entry)) = self.heap.peek() {
                if self.pending.contains(&entry.seq) {
                    return Some(entry.at);
                }
                self.heap.pop();
            }
            None
        }

        /// True when no live events remain.
        pub fn is_empty(&self) -> bool {
            self.pending.is_empty()
        }

        /// Number of live (scheduled, not fired, not cancelled) events.
        pub fn len(&self) -> usize {
            self.pending.len()
        }

        /// Total number of events ever scheduled (diagnostic).
        pub fn scheduled_total(&self) -> u64 {
            self.next_seq
        }

        /// Highest number of simultaneously live events ever observed
        /// (diagnostic; maintained on every `schedule`, so it is always on and
        /// costs one comparison).
        pub fn depth_high_water(&self) -> usize {
            self.depth_high_water
        }

        /// Advance the clock to `t` without popping anything. Panics if a live
        /// event earlier than `t` is still pending (that event must be popped
        /// first) or if `t` is in the past.
        pub fn advance_to(&mut self, t: SimTime) {
            assert!(t >= self.now, "cannot advance backwards");
            if let Some(next) = self.peek_time() {
                assert!(
                    next >= t,
                    "cannot advance past pending event at {next:?} to {t:?}"
                );
            }
            self.now = t;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{SimDuration, SimTime};

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(3), "c");
        q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        assert_eq!(q.pop(), Some((t(1), "a")));
        assert_eq!(q.pop(), Some((t(2), "b")));
        assert_eq!(q.pop(), Some((t(3), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_within_same_instant() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn cancel_prevents_delivery() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        assert!(q.cancel(a));
        assert_eq!(q.pop(), Some((t(2), "b")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cancel_unknown_or_fired_id_is_false() {
        let mut q: EventQueue<&str> = EventQueue::new();
        assert!(!q.cancel(EventId::new(42, 42)));
        let a = q.schedule(t(1), "a");
        q.pop();
        assert!(!q.cancel(a), "cancelling a fired event must be a no-op");
        // Double-cancel is also a no-op.
        let b = q.schedule(t(2), "b");
        assert!(q.cancel(b));
        assert!(!q.cancel(b));
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(t(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), t(7));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn schedule_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(t(5), ());
        q.pop();
        q.schedule(t(1), ());
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(2)));
        assert_eq!(q.pop(), Some((t(2), "b")));
    }

    #[test]
    fn is_empty_after_cancelling_everything() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..10).map(|i| q.schedule(t(i), i)).collect();
        for id in ids {
            q.cancel(id);
        }
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(t(1), 1u32);
        assert_eq!(q.pop(), Some((t(1), 1)));
        let later = q.now() + SimDuration::from_secs(1);
        q.schedule(later, 2u32);
        assert_eq!(q.pop(), Some((t(2), 2)));
    }

    #[test]
    fn len_counts_only_live_events() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), ());
        q.schedule(t(2), ());
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        q.pop();
        assert_eq!(q.len(), 0);
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    fn depth_high_water_tracks_peak_live_events() {
        let mut q = EventQueue::new();
        assert_eq!(q.depth_high_water(), 0);
        let a = q.schedule(t(1), ());
        q.schedule(t(2), ());
        q.schedule(t(3), ());
        assert_eq!(q.depth_high_water(), 3);
        q.cancel(a);
        q.pop();
        q.pop();
        // Draining does not lower the high-water mark.
        assert_eq!(q.depth_high_water(), 3);
        q.schedule(t(4), ());
        assert_eq!(q.depth_high_water(), 3, "peak was 3, new peak is only 1");
    }
}
