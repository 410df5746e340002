//! [`SoftTable`], the one keyed soft-state table behind MLD listener
//! records, PIM-DM (S,G) entries and the home agent's binding cache.
//!
//! All three pieces of router state are the same thing — a key, an expiry
//! timer that reports / data / Binding Updates refresh, and a protocol
//! row that dies with the timer — so the slot machinery is written once
//! here: key column, `expires` column, one protocol-supplied row per
//! slot, LIFO free list, an `order` index sorted by key (iteration
//! matches a `BTreeMap` byte-for-byte), a conservative min-expiry
//! watermark and a mutation epoch. The key is stored as itself; a
//! protocol crate supplies its key type and its row.
//!
//! The table is deterministic: slots are reused in LIFO free-list order
//! and nothing but its own call sequence is consulted — so two runs
//! performing the same operations produce identical slots on every
//! platform (the property the model-based test in `tests/arena_props.rs`
//! pins against a `BTreeMap` reference).

use crate::time::SimTime;
use std::convert::Infallible;

/// A keyed soft-state table: struct-of-arrays columns indexed by a
/// reusable `u32` slot, iterated in key order.
///
/// A slot stays valid until its key is removed; holding one across a
/// `remove` is a bug, caught in debug builds by every slot accessor.
/// `R::default()` is what a retired slot holds until it is reused, so it
/// should own no heap memory.
#[derive(Debug)]
pub struct SoftTable<K: Ord + Copy, R: Default> {
    /// Columns, indexed by slot. A slot is live iff `live[slot]`.
    keys: Vec<K>,
    expires: Vec<SimTime>,
    rows: Vec<R>,
    live: Vec<bool>,
    /// Retired slots available for reuse (LIFO).
    free: Vec<u32>,
    /// Live slots sorted by key — the iteration order a `BTreeMap` gives
    /// for free, preserved so traces stay byte-identical.
    order: Vec<u32>,
    /// Conservative lower bound on every live expiry (`SimTime::MAX` when
    /// empty): removals and refreshes leave it stale-low, which is safe
    /// for its one consumer, the O(1) "anything possibly overdue?" guard.
    min_expires: SimTime,
    /// Bumped by every potentially state-changing access (insert, remove,
    /// expiry refresh, `row_mut`).
    mutations: u64,
}

impl<K: Ord + Copy, R: Default> Default for SoftTable<K, R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Copy, R: Default> SoftTable<K, R> {
    pub fn new() -> Self {
        SoftTable {
            keys: Vec::new(),
            expires: Vec::new(),
            rows: Vec::new(),
            live: Vec::new(),
            free: Vec::new(),
            order: Vec::new(),
            min_expires: SimTime::MAX,
            mutations: 0,
        }
    }

    #[inline]
    fn index(&self, slot: u32) -> usize {
        debug_assert!(self.live[slot as usize], "slot {slot} is retired");
        slot as usize
    }

    /// Binary search `order` for `key`: `Ok(pos)` if present, `Err(pos)`
    /// at the insertion point. The key comes by reference so a 16-byte
    /// address is compared where the caller left it, not copied to the
    /// stack first.
    fn locate(&self, key: &K) -> Result<usize, usize> {
        self.order
            .binary_search_by(|&slot| self.keys[slot as usize].cmp(key))
    }

    pub fn len(&self) -> usize {
        self.order.len()
    }

    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    pub fn contains(&self, key: K) -> bool {
        self.locate(&key).is_ok()
    }

    /// The slot holding `key`, if any.
    pub fn slot_of(&self, key: K) -> Option<u32> {
        self.locate(&key).ok().map(|pos| self.order[pos])
    }

    /// Slot at position `pos` of the key-ordered index.
    pub fn slot_at(&self, pos: usize) -> u32 {
        self.order[pos]
    }

    /// Live slots in key order.
    pub fn slots(&self) -> impl Iterator<Item = u32> + '_ {
        self.order.iter().copied()
    }

    /// Live keys in order.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.slots().map(|slot| self.key_of(slot))
    }

    /// The key stored in `slot`.
    pub fn key_of(&self, slot: u32) -> K {
        self.keys[self.index(slot)]
    }

    /// Insert an entry; the caller ensures `key` is absent.
    ///
    /// Cannot fail. The `Result` is kept only because the frozen
    /// `benchmark/` package calls `.is_err()` on it.
    pub fn insert(&mut self, key: K, expires: SimTime, row: R) -> Result<u32, Infallible> {
        let pos = match self.locate(&key) {
            Ok(_) => unreachable!("insert of a present key"),
            Err(pos) => pos,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                let i = slot as usize;
                self.keys[i] = key;
                self.expires[i] = expires;
                self.rows[i] = row;
                self.live[i] = true;
                slot
            }
            None => {
                let slot = self.keys.len() as u32;
                self.keys.push(key);
                self.expires.push(expires);
                self.rows.push(row);
                self.live.push(true);
                slot
            }
        };
        self.order.insert(pos, slot);
        self.min_expires = self.min_expires.min(expires);
        self.mutations += 1;
        Ok(slot)
    }

    /// Remove `key`'s entry and hand back its row; `None` if absent.
    pub fn remove(&mut self, key: K) -> Option<R> {
        let pos = self.locate(&key).ok()?;
        let slot = self.order.remove(pos);
        self.live[slot as usize] = false;
        self.free.push(slot);
        if self.order.is_empty() {
            self.min_expires = SimTime::MAX;
        }
        self.mutations += 1;
        Some(std::mem::take(&mut self.rows[slot as usize]))
    }

    pub fn expires_at(&self, slot: u32) -> SimTime {
        self.expires[self.index(slot)]
    }

    pub fn set_expires(&mut self, slot: u32, t: SimTime) {
        let i = self.index(slot);
        self.expires[i] = t;
        self.min_expires = self.min_expires.min(t);
        self.mutations += 1;
    }

    pub fn row(&self, slot: u32) -> &R {
        &self.rows[self.index(slot)]
    }

    pub fn row_mut(&mut self, slot: u32) -> &mut R {
        self.mutations += 1;
        let i = self.index(slot);
        &mut self.rows[i]
    }

    /// O(1) conservative lower bound on all live expiries. If this is in
    /// the future, no entry can be overdue — the guard that keeps oracle
    /// polls flat as tables grow.
    pub fn min_expires(&self) -> SimTime {
        self.min_expires
    }

    /// Recompute the exact expiry watermark (called from expiry sweeps,
    /// which walk the columns anyway).
    pub fn refresh_min_expires(&mut self) {
        self.min_expires = self
            .slots()
            .map(|slot| self.expires[slot as usize])
            .min()
            .unwrap_or(SimTime::MAX);
    }

    /// The mutation epoch: changes whenever the table *may* have changed
    /// since it was last read (overcounting is safe; missing a change is
    /// not). Readers that cache derived facts compare epochs instead of
    /// re-walking an unchanged table.
    pub fn mutation_epoch(&self) -> u64 {
        self.mutations
    }
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;

    /// The `live` column has a reader: a slot held across the `remove`
    /// of its key must not silently read the next occupant's row.
    #[test]
    #[should_panic(expected = "slot 0 is retired")]
    fn touching_a_retired_slot_panics_in_debug() {
        let mut tab: SoftTable<u16, u8> = SoftTable::new();
        let Ok(slot) = tab.insert(7, SimTime::from_secs(1), 0);
        tab.insert(9, SimTime::from_secs(2), 0).unwrap();
        assert_eq!(tab.remove(7), Some(0));
        tab.expires_at(slot);
    }
}
