//! A hierarchical timer wheel with the exact semantics of the original
//! binary-heap [`HeapEventQueue`](crate::queue::HeapEventQueue).
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
//! Determinism: pops are globally ordered by `(time, sequence)` — the
//! same total order the heap produced — so replacing the queue cannot
//! perturb a single run. The differential tests at the bottom drive both
//! implementations through identical random workloads and assert identical
//! pop sequences.
//!
//! Invariants maintained:
//! * every wheel entry's tick is strictly greater than `current_tick`;
//! * every bottom-heap entry's tick is at or below `current_tick`;
//! * `current_tick` only advances, and only to the base of the earliest
//!   non-empty slot — never past a pending event.

use crate::queue::{Entry, EventId};
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

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

/// A deterministic, cancellable event queue over a hierarchical timer
/// wheel. Drop-in replacement for the heap-based queue: identical API,
/// identical pop order, identical panics.
pub struct TimerWheel<E> {
    /// `LEVELS * SLOTS` buckets; bucket `level * SLOTS + slot` holds
    /// entries whose tick matches `current_tick` above bit `6*(level+1)`
    /// and has `slot` in bits `[6*level, 6*level+6)`.
    slots: Vec<Vec<Entry<E>>>,
    /// Entries with tick <= `current_tick`, ordered exactly by `(at, seq)`.
    bottom: BinaryHeap<Reverse<Entry<E>>>,
    /// Number of entries physically stored in `slots` (including entries
    /// already cancelled but not yet swept out).
    in_wheel: usize,
    current_tick: u64,
    /// Ids scheduled but neither popped nor cancelled yet.
    pending: HashSet<u64>,
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
            in_wheel: 0,
            current_tick: 0,
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

    /// Place an entry: at or below the current tick goes to the bottom
    /// heap (which resolves sub-tick order), the future goes in the wheel
    /// at the level of the highest differing tick bit.
    fn place(&mut self, entry: Entry<E>) {
        let tick = tick_of(entry.at);
        if tick <= self.current_tick {
            self.bottom.push(Reverse(entry));
            return;
        }
        let level = ((63 - (tick ^ self.current_tick).leading_zeros()) / LEVEL_BITS) as usize;
        debug_assert!(level < LEVELS);
        let slot = ((tick >> (LEVEL_BITS * level as u32)) & SLOT_MASK) as usize;
        self.slots[level * SLOTS + slot].push(entry);
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
                let entries = std::mem::take(&mut self.slots[bucket]);
                self.in_wheel -= entries.len();
                let width = LEVEL_BITS * level;
                // Clear this level's and all lower bits, then re-apply the
                // slot index: the least tick the slot can hold.
                let base = (self.current_tick >> (width + LEVEL_BITS)) << (width + LEVEL_BITS);
                self.current_tick = base | ((slot as u64) << width);
                if level == 0 {
                    // One level-0 slot = exactly one tick.
                    self.bottom.extend(entries.into_iter().map(Reverse));
                } else {
                    for e in entries {
                        self.place(e);
                    }
                }
                return true;
            }
        }
        unreachable!("in_wheel > 0 but every slot above current_tick is empty");
    }

    /// Make the globally earliest live entry (if any) the bottom-heap top.
    /// Returns `false` when no live entries remain anywhere.
    fn settle_bottom(&mut self) -> bool {
        loop {
            while let Some(Reverse(entry)) = self.bottom.peek() {
                if self.pending.contains(&entry.seq) {
                    return true;
                }
                self.bottom.pop(); // drop cancelled
            }
            if !self.pull_next_slot() {
                return false;
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
        self.pending.insert(seq);
        self.depth_high_water = self.depth_high_water.max(self.pending.len());
        self.place(Entry { at, seq, payload });
        EventId::from_raw(seq)
    }

    /// Cancel a previously scheduled event. Returns `true` iff the event was
    /// still pending (and is now guaranteed not to fire).
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.pending.remove(&id.raw())
    }

    /// Remove and return the next event `(time, payload)`, advancing `now`.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if !self.settle_bottom() {
            return None;
        }
        let Reverse(entry) = self.bottom.pop().expect("settled bottom is non-empty");
        let removed = self.pending.remove(&entry.seq);
        debug_assert!(removed, "settled top must be live");
        debug_assert!(entry.at >= self.now);
        self.now = entry.at;
        Some((entry.at, entry.payload))
    }

    /// Timestamp of the next pending event without popping it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if !self.settle_bottom() {
            return None;
        }
        self.bottom.peek().map(|Reverse(e)| e.at)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::HeapEventQueue;
    use crate::time::SimDuration;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

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

    /// The differential harness: the wheel and the reference heap queue
    /// process an identical randomized schedule/cancel/pop/advance script
    /// and must emit identical pop sequences and identical diagnostics.
    #[test]
    fn differential_against_heap_queue() {
        for seed in 0..8u64 {
            let mut rng = SmallRng::seed_from_u64(diff_seed(seed));
            let mut wheel: TimerWheel<u64> = TimerWheel::new();
            let mut heap: HeapEventQueue<u64> = HeapEventQueue::new();
            let mut live: Vec<(EventId, EventId)> = Vec::new();
            let mut payload = 0u64;
            for _ in 0..4000 {
                match rng.random_range(0..10u32) {
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
                        payload += 1;
                        let iw = wheel.schedule(at, payload);
                        let ih = heap.schedule(at, payload);
                        live.push((iw, ih));
                    }
                    6..=7 => {
                        assert_eq!(wheel.pop(), heap.pop());
                        assert_eq!(wheel.now(), heap.now());
                    }
                    8 => {
                        if !live.is_empty() {
                            let k = rng.random_range(0..live.len());
                            let (iw, ih) = live.swap_remove(k);
                            assert_eq!(wheel.cancel(iw), heap.cancel(ih));
                        }
                    }
                    _ => {
                        assert_eq!(wheel.peek_time(), heap.peek_time());
                        if let Some(next) = wheel.peek_time() {
                            // Advance halfway to the next event.
                            let mid = SimTime::from_nanos(
                                wheel.now().as_nanos()
                                    + (next.as_nanos() - wheel.now().as_nanos()) / 2,
                            );
                            wheel.advance_to(mid);
                            heap.advance_to(mid);
                        }
                    }
                }
                assert_eq!(wheel.len(), heap.len());
                assert_eq!(wheel.is_empty(), heap.is_empty());
            }
            // Drain both completely.
            loop {
                let (a, b) = (wheel.pop(), heap.pop());
                assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
            assert_eq!(wheel.scheduled_total(), heap.scheduled_total());
            assert_eq!(wheel.depth_high_water(), heap.depth_high_water());
        }
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
