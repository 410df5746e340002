//! Compact-state primitives for the million-host hot path: a dense
//! [`Interner`] turning wide keys (128-bit IPv6 addresses, group
//! addresses, link ids) into `u32` handles, and [`SoftTable`], the one
//! keyed soft-state table behind MLD listener records, PIM-DM (S,G)
//! entries and the home agent's binding cache.
//!
//! All three pieces of router state are the same thing — a key, an expiry
//! timer that reports / data / Binding Updates refresh, and a protocol
//! row that dies with the timer — so the slot machinery is written once
//! here: interned key-id column, `expires` column, one protocol-supplied
//! row per slot, LIFO free list, an `order` index sorted by the
//! *resolved* key (iteration matches a `BTreeMap` byte-for-byte), a
//! conservative min-expiry watermark, a mutation epoch and the
//! deterministic [`SoftTable::state_bytes`] audit. A protocol crate
//! supplies its key space ([`KeySpace`]) and its row ([`Row`]).
//!
//! Both are deterministic: interner ids are assigned in first-intern
//! order, table slots are reused in LIFO free-list order, and neither
//! consults anything but its own call sequence — so two runs performing
//! the same operations produce identical ids and slots on every platform
//! (the property the model-based test in `tests/arena_props.rs` pins
//! against a `BTreeMap` reference).
//!
//! Interner exhaustion is a typed error, never a panic: callers on the
//! wire-facing paths turn [`InternExhausted`] into shed/evict decisions
//! instead of aborting the simulation.

use crate::time::SimTime;
use std::collections::BTreeMap;
use std::fmt;

/// Dense identifier minted by an [`Interner`].
///
/// Ids are assigned contiguously from zero in first-intern order, so they
/// double as indices into side tables (`Vec<T>` keyed by id).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct InternId(pub u32);

impl InternId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Typed interner failure: the id space (or the configured capacity) is
/// exhausted. Interning an *already known* key never fails.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct InternExhausted {
    /// The capacity that was hit.
    pub capacity: u32,
}

impl fmt::Display for InternExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "interner exhausted: capacity {} ids", self.capacity)
    }
}

impl std::error::Error for InternExhausted {}

/// A deterministic key → dense-`u32` interner.
///
/// Lookups are `O(log n)` (sorted map), resolves are `O(1)` (vector
/// index). Ids are never recycled: a key, once interned, keeps its id for
/// the interner's lifetime — the id-stability property the proptests pin.
#[derive(Clone, Debug)]
pub struct Interner<K: Ord + Clone> {
    ids: BTreeMap<K, InternId>,
    keys: Vec<K>,
    capacity: u32,
}

impl<K: Ord + Clone> Default for Interner<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Clone> Interner<K> {
    /// An interner spanning the full `u32` id space.
    pub fn new() -> Self {
        Self::with_capacity(u32::MAX)
    }

    /// An interner refusing to mint more than `capacity` distinct ids.
    pub fn with_capacity(capacity: u32) -> Self {
        Interner {
            ids: BTreeMap::new(),
            keys: Vec::new(),
            capacity,
        }
    }

    /// Intern `key`, minting a fresh id on first sight.
    pub fn intern(&mut self, key: K) -> Result<InternId, InternExhausted> {
        if let Some(&id) = self.ids.get(&key) {
            return Ok(id);
        }
        if self.keys.len() >= self.capacity as usize {
            return Err(InternExhausted {
                capacity: self.capacity,
            });
        }
        let id = InternId(self.keys.len() as u32);
        self.keys.push(key.clone());
        self.ids.insert(key, id);
        Ok(id)
    }

    /// The id of an already-interned key.
    pub fn get(&self, key: &K) -> Option<InternId> {
        self.ids.get(key).copied()
    }

    /// The key behind `id`. `None` for ids this interner never minted.
    pub fn resolve(&self, id: InternId) -> Option<&K> {
        self.keys.get(id.index())
    }

    /// Number of distinct keys interned so far.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Documented-model byte audit: key storage counted twice (once for
    /// the sorted map, once for the resolve vector) plus one id per map
    /// entry. No allocator introspection — this is the model the
    /// memory-accounting tests check table audits against.
    pub fn state_bytes(&self) -> usize {
        self.keys.len() * (2 * std::mem::size_of::<K>() + std::mem::size_of::<InternId>())
    }
}

/// Shared world-level interner: one id space across every node's tables.
/// Runs are single-threaded, so plain `Rc<RefCell<..>>` sharing suffices.
pub type SharedInterner<K> = std::rc::Rc<std::cell::RefCell<Interner<K>>>;

/// Create a fresh [`SharedInterner`].
pub fn shared_interner<K: Ord + Clone>() -> SharedInterner<K> {
    std::rc::Rc::new(std::cell::RefCell::new(Interner::new()))
}

/// Where a [`SoftTable`]'s keys live: one [`SharedInterner`], or a tuple
/// of key spaces for a compound key such as `(source, group)`.
pub trait KeySpace {
    /// The resolved key the table is ordered by.
    type Key: Ord + Copy;
    /// Its interned form, stored once per slot.
    type Id: Copy;
    /// Audited bytes of one [`KeySpace::Id`].
    const ID_BYTES: usize;

    fn intern(&self, key: Self::Key) -> Result<Self::Id, InternExhausted>;

    /// The key behind an id this space minted.
    fn resolve(&self, id: Self::Id) -> Self::Key;
}

impl<K: Ord + Copy> KeySpace for SharedInterner<K> {
    type Key = K;
    type Id = InternId;
    const ID_BYTES: usize = 4;

    fn intern(&self, key: K) -> Result<InternId, InternExhausted> {
        self.borrow_mut().intern(key)
    }

    #[inline]
    fn resolve(&self, id: InternId) -> K {
        *self
            .borrow()
            .resolve(id)
            .unwrap_or_else(|| unreachable!("a table slot holds an id its interner minted"))
    }
}

impl<A: KeySpace, B: KeySpace> KeySpace for (A, B) {
    type Key = (A::Key, B::Key);
    type Id = (A::Id, B::Id);
    const ID_BYTES: usize = A::ID_BYTES + B::ID_BYTES;

    fn intern(&self, key: Self::Key) -> Result<Self::Id, InternExhausted> {
        Ok((self.0.intern(key.0)?, self.1.intern(key.1)?))
    }

    #[inline]
    fn resolve(&self, id: Self::Id) -> Self::Key {
        (self.0.resolve(id.0), self.1.resolve(id.1))
    }
}

/// The protocol state a [`SoftTable`] keeps per slot. `Default` is what a
/// retired slot holds until it is reused, so it should own no heap memory.
pub trait Row: Default {
    /// Audited bytes of the row's inline columns (the documented model,
    /// not `size_of`, where the two differ).
    const SLOT_BYTES: usize;

    /// Audited heap bytes a live row owns beyond its inline columns.
    fn heap_bytes(&self) -> usize {
        0
    }
}

/// A keyed soft-state table: struct-of-arrays columns indexed by a
/// reusable `u32` slot, iterated in resolved-key order.
///
/// A slot stays valid until its key is removed; holding one across a
/// `remove` is a bug, caught in debug builds by every slot accessor.
#[derive(Debug)]
pub struct SoftTable<K: KeySpace, R> {
    keys: K,
    /// Columns, indexed by slot. A slot is live iff `live[slot]`.
    ids: Vec<K::Id>,
    expires: Vec<SimTime>,
    rows: Vec<R>,
    live: Vec<bool>,
    /// Retired slots available for reuse (LIFO).
    free: Vec<u32>,
    /// Live slots sorted by resolved key — the iteration order a
    /// `BTreeMap` gives for free, preserved so traces stay byte-identical.
    order: Vec<u32>,
    /// Conservative lower bound on every live expiry (`SimTime::MAX` when
    /// empty): removals and refreshes leave it stale-low, which is safe
    /// for its one consumer, the O(1) "anything possibly overdue?" guard.
    min_expires: SimTime,
    /// Bumped by every potentially state-changing access (insert, remove,
    /// expiry refresh, `row_mut`).
    mutations: u64,
}

impl<K: KeySpace + Default, R: Row> Default for SoftTable<K, R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: KeySpace, R: Row> SoftTable<K, R> {
    /// A table with its own private id space (unit tests, kernels).
    pub fn new() -> Self
    where
        K: Default,
    {
        Self::with_keys(K::default())
    }

    /// A table drawing key ids from `keys` (the world-level interners).
    pub fn with_keys(keys: K) -> Self {
        SoftTable {
            keys,
            ids: Vec::new(),
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
    /// at the insertion point. Comparisons resolve through the key space
    /// (an O(1) vector index per interner). The key comes by reference so
    /// a 16-byte address is compared where the caller left it, not copied
    /// to the stack first (measured: 9 vs 14 ns per binding lookup).
    fn locate(&self, key: &K::Key) -> Result<usize, usize> {
        self.order
            .binary_search_by(|&slot| self.keys.resolve(self.ids[slot as usize]).cmp(key))
    }

    pub fn len(&self) -> usize {
        self.order.len()
    }

    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    pub fn contains(&self, key: K::Key) -> bool {
        self.locate(&key).is_ok()
    }

    /// The slot holding `key`, if any.
    pub fn slot_of(&self, key: K::Key) -> Option<u32> {
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
    pub fn keys(&self) -> impl Iterator<Item = K::Key> + '_ {
        self.slots().map(|slot| self.key_of(slot))
    }

    /// The key stored in `slot`.
    pub fn key_of(&self, slot: u32) -> K::Key {
        self.keys.resolve(self.ids[self.index(slot)])
    }

    /// Insert an entry; the caller ensures `key` is absent.
    pub fn insert(
        &mut self,
        key: K::Key,
        expires: SimTime,
        row: R,
    ) -> Result<u32, InternExhausted> {
        let id = self.keys.intern(key)?;
        let pos = match self.locate(&key) {
            Ok(_) => unreachable!("insert of a present key"),
            Err(pos) => pos,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                let i = slot as usize;
                self.ids[i] = id;
                self.expires[i] = expires;
                self.rows[i] = row;
                self.live[i] = true;
                slot
            }
            None => {
                let slot = self.ids.len() as u32;
                self.ids.push(id);
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
    pub fn remove(&mut self, key: K::Key) -> Option<R> {
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

    /// The eviction victim: minimum `(expires, key)`, by a linear sweep.
    pub fn stalest(&self) -> Option<K::Key> {
        self.slots()
            .map(|slot| (self.expires[slot as usize], self.key_of(slot)))
            .min()
            .map(|(_, key)| key)
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

    /// Deterministic byte audit, per the documented model: every
    /// allocated slot costs its key ids + expiry (8) + live flag (1) +
    /// [`Row::SLOT_BYTES`], every live row its [`Row::heap_bytes`], and
    /// the sorted index and free list 4 bytes per entry. No allocator
    /// introspection — the same numbers on every run and platform.
    pub fn state_bytes(&self) -> usize {
        let per_slot = K::ID_BYTES + 8 + 1 + R::SLOT_BYTES;
        let heap: usize = self
            .slots()
            .map(|slot| self.rows[slot as usize].heap_bytes())
            .sum();
        self.ids.len() * per_slot + heap + (self.order.len() + self.free.len()) * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_stable_and_dense() {
        let mut i: Interner<&str> = Interner::new();
        let a = i.intern("a").unwrap();
        let b = i.intern("b").unwrap();
        assert_eq!(a, InternId(0));
        assert_eq!(b, InternId(1));
        assert_eq!(i.intern("a").unwrap(), a, "re-intern returns same id");
        assert_eq!(i.resolve(a), Some(&"a"));
        assert_eq!(i.resolve(InternId(9)), None);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn intern_exhaustion_is_typed_not_panic() {
        let mut i: Interner<u64> = Interner::with_capacity(2);
        i.intern(1).unwrap();
        i.intern(2).unwrap();
        assert_eq!(i.intern(3), Err(InternExhausted { capacity: 2 }));
        // Known keys still intern fine at capacity.
        assert_eq!(i.intern(2).unwrap(), InternId(1));
    }

    impl Row for u8 {
        const SLOT_BYTES: usize = 1;
    }

    /// The `live` column has a reader: a slot held across the `remove`
    /// of its key must not silently read the next occupant's row.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "slot 0 is retired")]
    fn touching_a_retired_slot_panics_in_debug() {
        let mut tab: SoftTable<SharedInterner<u16>, u8> = SoftTable::new();
        let slot = tab.insert(7, SimTime::from_secs(1), 0).unwrap();
        tab.insert(9, SimTime::from_secs(2), 0).unwrap();
        assert_eq!(tab.remove(7), Some(0));
        tab.expires_at(slot);
    }
}
