//! A hierarchical timer wheel: a cancellable event queue popping in
//! `(time, sequence)` order, checked by its differential test against a
//! sorted-`Vec` reference model.
//!
//! The protocol stack schedules two very different kinds of events: frame
//! deliveries a few tens of microseconds ahead (link delay + serialization)
//! and soft-state timers seconds to minutes ahead (MLD queries every 125 s,
//! PIM prune holds of 210 s, binding lifetimes of 256 s). A binary heap
//! pays `O(log n)` per operation on the *total* population; the wheel
//! places every event in `O(1)` by the position of the highest bit in
//! which its tick differs from the wheel's current tick.
//!
//! Layout: ticks are `2^16` ns (~65.5 µs) wide; each of the 8 levels holds
//! 64 slots, so level `L` resolves bits `[6L, 6L+6)` of the tick and the
//! top level spans the entire `u64` nanosecond range — nothing ever
//! overflows. Events whose tick is at or below the current tick sit in a
//! small binary heap (`bottom`) that resolves sub-tick ordering exactly by
//! `(time, sequence)`; everything else hangs in the wheel. Advancing pops
//! the earliest non-empty slot: level-0 slots drain straight into the
//! bottom heap (one slot = one tick), higher slots cascade down one level
//! at a time.
//!
//! Storage: payloads live in a slab of cells (a `Vec` plus a LIFO free
//! list) and never move once scheduled; the wheel slots and the bottom
//! heap hold only a small `Copy` key `(at, seq, cell)`. A cell is stamped
//! with the sequence number of the scheduling that occupies it, and an
//! [`EventId`] names `(cell, seq)`. Sequence numbers are never reused, so
//! both liveness tests are one integer compare: `cancel` frees the cell
//! (dropping the payload at once) iff its stamp equals the id's, and a key
//! reaching the top of the bottom heap is live iff its cell still carries
//! the key's `seq`. A key whose event was cancelled simply goes stale in
//! place and is discarded when it surfaces; a recycled cell can never be
//! mistaken for its previous occupant.
//!
//! Determinism: pops are globally ordered by `(time, sequence)`. The
//! differential test at the bottom drives the wheel and the sorted-`Vec`
//! model through identical random workloads and asserts identical pop
//! sequences.
//!
//! Invariants maintained:
//! * every wheel key's tick is strictly greater than `current_tick`;
//! * every bottom-heap key's tick is at or below `current_tick`;
//! * `current_tick` only advances, and only to the base of the earliest
//!   non-empty slot — never past a pending event;
//! * a cell is occupied iff its stamp is the `seq` of exactly one key
//!   still held in the wheel or the bottom heap.

use crate::queue::EventId;
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// log2 of the tick width in nanoseconds (~65.5 µs per tick).
const TICK_BITS: u32 = 16;
/// log2 of the slots per level.
const LEVEL_BITS: u32 = 6;
const SLOTS: usize = 1 << LEVEL_BITS;
const SLOT_MASK: u64 = (SLOTS - 1) as u64;
/// Levels needed so the top level spans every representable tick:
/// ticks fit in `64 - TICK_BITS = 48` bits and `8 * LEVEL_BITS = 48`.
const LEVELS: usize = 8;

#[inline]
fn tick_of(at: SimTime) -> u64 {
    at.as_nanos() >> TICK_BITS
}

/// What the wheel slots and the bottom heap order and move around: the
/// pop-order key `(at, seq)` plus the slab cell holding the payload.
/// `seq` is unique, so the derived order never reaches `cell`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: SimTime,
    seq: u64,
    cell: u32,
}

/// One slab cell: the payload of the scheduling numbered `seq`, or a free
/// cell (`payload` is `None` and `seq` is [`FREE`]).
struct Cell<E> {
    seq: u64,
    payload: Option<E>,
}

/// Stamp of a free cell; no scheduling ever carries it (`next_seq` would
/// have to count through all of `u64` first).
const FREE: u64 = u64::MAX;

/// A deterministic, cancellable event queue over a hierarchical timer
/// wheel.
pub struct TimerWheel<E> {
    /// `LEVELS * SLOTS` buckets; bucket `level * SLOTS + slot` holds
    /// keys whose tick matches `current_tick` above bit `6*(level+1)`
    /// and has `slot` in bits `[6*level, 6*level+6)`.
    slots: Vec<Vec<Key>>,
    /// Keys with tick <= `current_tick`, ordered exactly by `(at, seq)`.
    bottom: BinaryHeap<Reverse<Key>>,
    /// Payload slab, addressed by `Key::cell` / [`EventId`].
    cells: Vec<Cell<E>>,
    /// Free cells, reused last-freed-first.
    free: Vec<u32>,
    /// The buffer a cascading slot is swapped with, so a drained bucket
    /// keeps an allocation instead of regrowing from empty.
    spare: Vec<Key>,
    /// Number of keys physically stored in `slots` (including keys whose
    /// event was cancelled and that have not surfaced yet).
    in_wheel: usize,
    current_tick: u64,
    /// Events scheduled but neither popped nor cancelled yet.
    live: usize,
    next_seq: u64,
    now: SimTime,
    depth_high_water: usize,
}

impl<E> Default for TimerWheel<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> TimerWheel<E> {
    pub fn new() -> Self {
        TimerWheel {
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            bottom: BinaryHeap::new(),
            cells: Vec::new(),
            free: Vec::new(),
            spare: Vec::new(),
            in_wheel: 0,
            current_tick: 0,
            live: 0,
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

    /// Place a key: at or below the current tick goes to the bottom
    /// heap (which resolves sub-tick order), the future goes in the wheel
    /// at the level of the highest differing tick bit.
    fn place(&mut self, key: Key) {
        let tick = tick_of(key.at);
        if tick <= self.current_tick {
            self.bottom.push(Reverse(key));
            return;
        }
        let level = ((63 - (tick ^ self.current_tick).leading_zeros()) / LEVEL_BITS) as usize;
        debug_assert!(level < LEVELS);
        let slot = ((tick >> (LEVEL_BITS * level as u32)) & SLOT_MASK) as usize;
        self.slots[level * SLOTS + slot].push(key);
        self.in_wheel += 1;
    }

    /// Advance to the earliest non-empty wheel slot: drain a level-0 slot
    /// into the bottom heap, or cascade a higher slot one step down.
    /// Returns `false` when the wheel holds nothing.
    fn pull_next_slot(&mut self) -> bool {
        if self.in_wheel == 0 {
            return false;
        }
        for level in 0..LEVELS as u32 {
            let cur_slot = ((self.current_tick >> (LEVEL_BITS * level)) & SLOT_MASK) as usize;
            for slot in cur_slot + 1..SLOTS {
                let bucket = level as usize * SLOTS + slot;
                if self.slots[bucket].is_empty() {
                    continue;
                }
                self.in_wheel -= self.slots[bucket].len();
                let width = LEVEL_BITS * level;
                // Clear this level's and all lower bits, then re-apply the
                // slot index: the least tick the slot can hold.
                let base = (self.current_tick >> (width + LEVEL_BITS)) << (width + LEVEL_BITS);
                self.current_tick = base | ((slot as u64) << width);
                if level == 0 {
                    // One level-0 slot = exactly one tick.
                    self.bottom
                        .extend(self.slots[bucket].drain(..).map(Reverse));
                } else {
                    // Every key lands strictly below `level`, never back
                    // in this bucket, so the bucket can hold the spare
                    // buffer while its keys are re-placed.
                    let mut keys = std::mem::take(&mut self.spare);
                    std::mem::swap(&mut keys, &mut self.slots[bucket]);
                    for &key in &keys {
                        self.place(key);
                    }
                    keys.clear();
                    self.spare = keys;
                }
                return true;
            }
        }
        unreachable!("in_wheel > 0 but every slot above current_tick is empty");
    }

    /// Make the globally earliest live key (if any) the bottom-heap top
    /// and return it. Returns `None` when no live events remain anywhere.
    fn settle(&mut self) -> Option<Key> {
        loop {
            while let Some(&Reverse(key)) = self.bottom.peek() {
                if self.cells[key.cell as usize].seq == key.seq {
                    return Some(key);
                }
                self.bottom.pop(); // stale: its event was cancelled
            }
            if !self.pull_next_slot() {
                return None;
            }
        }
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
        let occupant = Cell {
            seq,
            payload: Some(payload),
        };
        let cell = match self.free.pop() {
            Some(cell) => {
                self.cells[cell as usize] = occupant;
                cell
            }
            None => {
                let cell = u32::try_from(self.cells.len()).expect("more than 2^32 live events");
                self.cells.push(occupant);
                cell
            }
        };
        self.live += 1;
        self.depth_high_water = self.depth_high_water.max(self.live);
        self.place(Key { at, seq, cell });
        EventId::new(seq, cell)
    }

    /// Free an occupied cell and hand back its payload.
    fn release(&mut self, cell: u32) -> Option<E> {
        let slot = &mut self.cells[cell as usize];
        slot.seq = FREE;
        self.free.push(cell);
        self.live -= 1;
        slot.payload.take()
    }

    /// Cancel a previously scheduled event. Returns `true` iff the event was
    /// still pending (and is now guaranteed not to fire). An id whose event
    /// already fired or was already cancelled is refused even when its cell
    /// has since been reused: the cell's stamp is the occupant's `seq`.
    pub fn cancel(&mut self, id: EventId) -> bool {
        match self.cells.get(id.cell() as usize) {
            Some(cell) if cell.seq == id.seq() => {
                self.release(id.cell());
                true
            }
            _ => false,
        }
    }

    /// Remove and return the next event `(time, payload)` if it is due at
    /// or before `limit`, advancing `now` to it.
    pub fn pop_due(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        let key = self.settle()?;
        if key.at > limit {
            return None;
        }
        self.bottom.pop();
        debug_assert!(key.at >= self.now);
        self.now = key.at;
        let payload = self.release(key.cell).expect("live cell holds a payload");
        Some((key.at, payload))
    }

    /// Remove and return the next event `(time, payload)`, advancing `now`.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_due(SimTime::MAX)
    }

    /// Timestamp of the next pending event without popping it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.settle().map(|key| key.at)
    }

    /// True when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of live (scheduled, not fired, not cancelled) events.
    pub fn len(&self) -> usize {
        self.live
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::SortedVecQueue;
    use crate::time::SimDuration;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// Schedules spanning every wheel level pop in global time order.
    #[test]
    fn cross_level_ordering() {
        let mut q: TimerWheel<u64> = TimerWheel::new();
        // Nanosecond offsets hitting bottom, level 0, and several higher
        // levels (1 tick = 2^16 ns; level L spans 2^(16+6L) ns).
        let offsets: [u64; 12] = [
            0,
            1,
            0xffff,          // same tick as 0 (bottom)
            0x1_0000,        // level 0
            0x2_0001,        // level 0
            0x40_0000,       // level 1
            0x41_1234,       // level 1
            0x1000_0000,     // level 2
            0x4_0000_0000,   // level 3
            0x100_0000_0000, // level 4
            3_600_000_000_000,
            86_400_000_000_000,
        ];
        let mut expect: Vec<u64> = offsets.to_vec();
        for &n in offsets.iter().rev() {
            q.schedule(SimTime::from_nanos(n), n);
        }
        expect.sort_unstable();
        let mut got = Vec::new();
        while let Some((at, v)) = q.pop() {
            assert_eq!(at.as_nanos(), v);
            got.push(v);
        }
        assert_eq!(got, expect);
    }

    /// A cascaded slot keeps FIFO order for entries at the same instant.
    #[test]
    fn cascade_preserves_fifo_within_instant() {
        let mut q = TimerWheel::new();
        // Far enough out to start at a high level, forcing cascades.
        let far = SimTime::from_secs(300);
        for i in 0..50 {
            q.schedule(far, i);
        }
        // An earlier event so the cascade happens on pop, not at once.
        q.schedule(t(1), 999);
        assert_eq!(q.pop(), Some((t(1), 999)));
        for i in 0..50 {
            assert_eq!(q.pop(), Some((far, i)));
        }
        assert_eq!(q.pop(), None);
    }

    /// Scheduling between `now` and a far-pending event after the wheel
    /// has advanced lands in the correct order (the regression the bottom
    /// heap exists for: `advance_to` may leave `current_tick` beyond a
    /// later schedule's tick).
    #[test]
    fn schedule_below_current_tick_after_advance() {
        let mut q = TimerWheel::new();
        q.schedule(t(100), "far");
        // peek advances the wheel cursor toward t=100.
        assert_eq!(q.peek_time(), Some(t(100)));
        q.advance_to(t(50));
        // New event between now (50 s) and the pending one.
        q.schedule(t(60), "mid");
        q.schedule(t(55), "near");
        assert_eq!(q.pop(), Some((t(55), "near")));
        assert_eq!(q.pop(), Some((t(60), "mid")));
        assert_eq!(q.pop(), Some((t(100), "far")));
    }

    /// Cancelled entries inside un-cascaded wheel slots are skipped.
    #[test]
    fn cancel_inside_wheel_slot() {
        let mut q = TimerWheel::new();
        let a = q.schedule(t(200), "a");
        q.schedule(t(200), "b");
        let c = q.schedule(t(300), "c");
        assert!(q.cancel(a));
        assert!(q.cancel(c));
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(t(200)));
        assert_eq!(q.pop(), Some((t(200), "b")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    /// A payload that counts its own drops, so the slab can be checked for
    /// leaks and double drops.
    struct Counted {
        n: usize,
        drops: Rc<RefCell<Vec<u32>>>,
    }

    impl Drop for Counted {
        fn drop(&mut self) {
            self.drops.borrow_mut()[self.n] += 1;
        }
    }

    /// The differential harness: the wheel and the sorted-`Vec` model
    /// process an identical randomized schedule/cancel/pop/advance script
    /// and must emit identical pop sequences and identical diagnostics
    /// after every operation. Cancels aim at every id ever handed out —
    /// live, already fired, already cancelled — so stale ids keep hitting
    /// cells the LIFO free list has since given to a new event; had one of
    /// them killed the new occupant, the pop sequences would part. Each
    /// payload must be dropped exactly once, however it left the wheel.
    #[test]
    fn differential_against_sorted_vec_model() {
        for seed in 0..8u64 {
            let mut rng = SmallRng::seed_from_u64(diff_seed(seed));
            let drops = Rc::new(RefCell::new(Vec::new()));
            let mut wheel: TimerWheel<Counted> = TimerWheel::new();
            let mut model: SortedVecQueue<usize> = SortedVecQueue::new();
            // Per payload number: both ids and whether the event is live.
            let mut ids: Vec<(EventId, EventId, bool)> = Vec::new();
            let mut stale_cancels = 0u32;
            let pop_both = |wheel: &mut TimerWheel<Counted>,
                            model: &mut SortedVecQueue<usize>,
                            ids: &mut Vec<(EventId, EventId, bool)>| {
                let got = wheel.pop().map(|(at, p)| (at, p.n));
                assert_eq!(got, model.pop());
                assert_eq!(wheel.now(), model.now());
                if let Some((_, n)) = got {
                    ids[n].2 = false;
                }
                got.is_some()
            };
            for _ in 0..4000 {
                match rng.random_range(0..11u32) {
                    // Schedule with a mix of horizons: sub-tick, sub-ms,
                    // seconds, minutes — every level gets traffic.
                    0..=5 => {
                        let horizon = match rng.random_range(0..4u32) {
                            0 => rng.random_range(0..0x1_0000u64),
                            1 => rng.random_range(0..1_000_000),
                            2 => rng.random_range(0..5_000_000_000),
                            _ => rng.random_range(0..400_000_000_000),
                        };
                        let at =
                            SimTime::from_nanos(wheel.now().as_nanos().saturating_add(horizon));
                        let n = ids.len();
                        drops.borrow_mut().push(0);
                        let payload = Counted {
                            n,
                            drops: drops.clone(),
                        };
                        ids.push((wheel.schedule(at, payload), model.schedule(at, n), true));
                    }
                    6..=7 => {
                        pop_both(&mut wheel, &mut model, &mut ids);
                    }
                    8..=9 => {
                        if !ids.is_empty() {
                            let pick = rng.random_range(0..ids.len());
                            let (iw, ih, live) = &mut ids[pick];
                            assert_eq!(wheel.cancel(*iw), *live);
                            assert_eq!(model.cancel(*ih), *live);
                            stale_cancels += u32::from(!*live);
                            *live = false;
                        }
                    }
                    _ => {
                        assert_eq!(wheel.peek_time(), model.peek_time());
                        if let Some(next) = wheel.peek_time() {
                            // Advance halfway to the next event.
                            let mid = SimTime::from_nanos(
                                wheel.now().as_nanos()
                                    + (next.as_nanos() - wheel.now().as_nanos()) / 2,
                            );
                            wheel.advance_to(mid);
                            model.advance_to(mid);
                        }
                    }
                }
                assert_eq!(wheel.len(), model.len());
                assert_eq!(wheel.is_empty(), model.is_empty());
                assert_eq!(wheel.scheduled_total(), model.scheduled_total());
                assert_eq!(wheel.depth_high_water(), model.depth_high_water());
                assert_eq!(wheel.len(), ids.iter().filter(|id| id.2).count());
            }
            assert!(stale_cancels > 100, "script must exercise stale ids");
            assert_eq!(
                wheel.cells.len(),
                wheel.depth_high_water(),
                "freed cells are reused before the slab grows"
            );
            assert!(wheel.cells.len() < ids.len());
            // Drain the first half of what is left, drop the wheel with
            // the rest still queued.
            for _ in 0..wheel.len() / 2 {
                assert!(pop_both(&mut wheel, &mut model, &mut ids));
            }
            assert!(!wheel.is_empty());
            drop(wheel);
            assert!(
                drops.borrow().iter().all(|&d| d == 1),
                "every payload dropped exactly once: {:?}",
                drops.borrow()
            );
        }
    }

    /// An id whose event fired or was cancelled stays dead after its cell
    /// is handed to a new event: cancelling it is refused and the new
    /// occupant still pops.
    #[test]
    fn stale_id_cannot_cancel_recycled_cell() {
        let mut q = TimerWheel::new();
        let fired = q.schedule(t(1), "fired");
        assert_eq!(q.pop(), Some((t(1), "fired")));
        let cancelled = q.schedule(t(2), "cancelled");
        assert_eq!(
            cancelled.cell(),
            fired.cell(),
            "LIFO free list reuses the cell"
        );
        assert!(q.cancel(cancelled));
        let occupant = q.schedule(t(3), "occupant");
        assert_eq!(occupant.cell(), fired.cell());
        assert!(!q.cancel(fired), "cancel after fire");
        assert!(!q.cancel(cancelled), "double cancel");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(3), "occupant")));
        assert!(!q.cancel(occupant), "cancel after fire");
        assert_eq!(q.pop(), None);
    }

    /// Timer churn: one cell recycled thousands of times while a standing
    /// event waits. Every superseded id is refused, the stale keys left in
    /// the wheel are skipped, and the slab does not grow.
    #[test]
    fn cancel_schedule_churn_recycles_one_cell() {
        let mut q = TimerWheel::new();
        q.schedule(t(500), u32::MAX);
        let mut prev: Option<EventId> = None;
        for i in 0..5000u32 {
            let id = q.schedule(t(1 + u64::from(i % 300)), i);
            if let Some(prev) = prev {
                assert!(!q.cancel(prev), "superseded id {i}");
            }
            assert_eq!(q.len(), 2);
            if i < 4999 {
                assert!(q.cancel(id));
                prev = Some(id);
            }
        }
        assert_eq!(q.cells.len(), 2, "one standing cell, one recycled cell");
        assert_eq!(q.depth_high_water(), 2);
        assert_eq!(q.scheduled_total(), 5001);
        assert_eq!(q.pop(), Some((t(1 + 4999 % 300), 4999)));
        assert_eq!(q.pop(), Some((t(500), u32::MAX)));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    /// `pop_due` leaves an event later than the limit queued and the
    /// clock untouched.
    #[test]
    fn pop_due_stops_at_the_limit() {
        let mut q = TimerWheel::new();
        q.schedule(t(1), "a");
        q.schedule(t(3), "b");
        assert_eq!(q.pop_due(t(2)), Some((t(1), "a")));
        assert_eq!(q.pop_due(t(2)), None);
        assert_eq!((q.now(), q.len()), (t(1), 1));
        assert_eq!(q.pop_due(t(3)), Some((t(3), "b")));
    }

    /// Domain-separate the differential seeds from other tests.
    fn diff_seed(seed: u64) -> u64 {
        seed ^ 0x51f7_d1ff
    }

    #[test]
    fn advance_to_far_future_then_reschedule() {
        let mut q = TimerWheel::new();
        q.advance_to(SimTime::from_secs(1000));
        q.schedule(SimTime::from_secs(1000), "same-instant");
        q.schedule(SimTime::from_secs(1001), "later");
        assert_eq!(q.pop(), Some((SimTime::from_secs(1000), "same-instant")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(1001), "later")));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn schedule_into_past_panics() {
        let mut q = TimerWheel::new();
        q.schedule(t(5), ());
        q.pop();
        q.schedule(t(1), ());
    }

    #[test]
    fn dense_same_tick_burst_stays_fifo() {
        let mut q = TimerWheel::new();
        let base = SimTime::from_nanos(123_456_789);
        for i in 0..500u32 {
            // All inside one tick (spread < 2^16 ns), many at equal times.
            q.schedule(base + SimDuration::from_nanos(u64::from(i % 7)), i);
        }
        let mut last: Option<(SimTime, u32)> = None;
        while let Some((at, v)) = q.pop() {
            if let Some((lat, lv)) = last {
                assert!(at > lat || (at == lat && v > lv), "order violated");
            }
            last = Some((at, v));
        }
    }
}
