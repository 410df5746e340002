//! The event queue: a cancellable priority queue over virtual time.
//!
//! Events at equal times are delivered in the order they were scheduled
//! (FIFO), which makes runs fully deterministic. Cancellation is O(1);
//! a cancelled entry is skipped (and dropped) when it surfaces.
//!
//! The queue is the hierarchical timer wheel of [`crate::wheel`] (O(1)
//! schedule/placement, payloads in a slab, cancel by stamp compare). Test
//! builds add `SortedVecQueue`, a sorted `Vec` with the same API and the
//! same `(time, sequence)` pop order: the wheel's differential test
//! checks it against that model.

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
pub(crate) use model::SortedVecQueue;

#[cfg(test)]
mod model {
    use super::EventId;
    use crate::time::SimTime;

    /// The wheel's reference model (test builds only): every pending event
    /// in one `Vec` sorted by `(at, seq)`, so the next pop is the first
    /// element. `cancel` removes the entry: an id is pending iff its `seq` is
    /// still in the vector.
    pub struct SortedVecQueue<E> {
        pending: Vec<(SimTime, u64, E)>,
        next_seq: u64,
        now: SimTime,
        depth_high_water: usize,
    }

    impl<E> SortedVecQueue<E> {
        pub fn new() -> Self {
            SortedVecQueue {
                pending: Vec::new(),
                next_seq: 0,
                now: SimTime::ZERO,
                depth_high_water: 0,
            }
        }

        pub fn now(&self) -> SimTime {
            self.now
        }

        pub fn schedule(&mut self, at: SimTime, payload: E) -> EventId {
            assert!(at >= self.now, "cannot schedule into the past");
            let seq = self.next_seq;
            self.next_seq += 1;
            // `seq` outranks every pending one: the entry goes after all at `at`.
            let pos = self.pending.partition_point(|e| e.0 <= at);
            self.pending.insert(pos, (at, seq, payload));
            self.depth_high_water = self.depth_high_water.max(self.pending.len());
            EventId::new(seq, 0)
        }

        pub fn cancel(&mut self, id: EventId) -> bool {
            let found = self.pending.iter().position(|e| e.1 == id.seq());
            found.map(|pos| self.pending.remove(pos)).is_some()
        }

        pub fn pop(&mut self) -> Option<(SimTime, E)> {
            if self.pending.is_empty() {
                return None;
            }
            let (at, _, payload) = self.pending.remove(0);
            self.now = at;
            Some((at, payload))
        }

        pub fn peek_time(&self) -> Option<SimTime> {
            self.pending.first().map(|e| e.0)
        }

        pub fn is_empty(&self) -> bool {
            self.pending.is_empty()
        }

        pub fn len(&self) -> usize {
            self.pending.len()
        }

        pub fn scheduled_total(&self) -> u64 {
            self.next_seq
        }

        pub fn depth_high_water(&self) -> usize {
            self.depth_high_water
        }

        pub fn advance_to(&mut self, t: SimTime) {
            assert!(t >= self.now && self.peek_time().is_none_or(|next| next >= t));
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
