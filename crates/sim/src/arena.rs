//! Compact-state primitives for the million-host hot path: a dense
//! [`Interner`] turning wide keys (128-bit IPv6 addresses, group
//! addresses, link ids) into `u32` handles, and a generation-indexed
//! [`Arena`] backing struct-of-arrays state tables.
//!
//! Both are deterministic: interner ids are assigned in first-intern
//! order, arena slots are reused in LIFO free-list order, and neither
//! consults anything but its own call sequence — so two runs performing
//! the same operations produce identical ids and handles on every
//! platform (the property the differential state-model tests pin).
//!
//! Exhaustion is a typed error, never a panic: the interner refuses to
//! mint ids past its capacity and the arena refuses inserts past
//! `u32::MAX` live generations — callers on the wire-facing paths turn
//! that into shed/evict decisions instead of aborting the simulation.

use std::collections::BTreeMap;
use std::fmt;

/// Dense identifier minted by an [`Interner`].
///
/// Ids are assigned contiguously from zero in first-intern order, so they
/// double as indices into side tables (`Vec<T>` keyed by id).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
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

/// Generation-indexed handle into an [`Arena`].
///
/// The generation makes dangling handles detectable: a slot reused after
/// removal carries a bumped generation, so a stale handle resolves to
/// `None` instead of aliasing the new occupant.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Handle {
    idx: u32,
    generation: u32,
}

impl Handle {
    #[inline]
    pub fn index(self) -> usize {
        self.idx as usize
    }

    #[inline]
    pub fn generation(self) -> u32 {
        self.generation
    }
}

/// Typed arena failure.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArenaError {
    /// The arena's slot space (or configured capacity) is exhausted.
    Exhausted { capacity: u32 },
    /// A slot's generation counter reached `u32::MAX` and can no longer
    /// guarantee stale-handle detection; the slot is retired instead of
    /// reused.
    GenerationOverflow,
}

impl fmt::Display for ArenaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArenaError::Exhausted { capacity } => {
                write!(f, "arena exhausted: capacity {capacity} slots")
            }
            ArenaError::GenerationOverflow => write!(f, "arena slot generation overflow"),
        }
    }
}

impl std::error::Error for ArenaError {}

struct Slot<T> {
    generation: u32,
    value: Option<T>,
}

/// A generation-indexed slot arena: `O(1)` insert/remove/get, slots
/// reused LIFO with a generation bump, dense storage for struct-of-arrays
/// tables. Iteration over live slots is a linear sweep in slot order —
/// the access pattern the expiry scans and gauge samplers rely on.
pub struct Arena<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    live: usize,
    capacity: u32,
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Arena<T> {
    pub fn new() -> Self {
        Self::with_capacity(u32::MAX)
    }

    /// An arena refusing to hold more than `capacity` live values.
    pub fn with_capacity(capacity: u32) -> Self {
        Arena {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            capacity,
        }
    }

    /// Insert a value, returning its handle.
    pub fn insert(&mut self, value: T) -> Result<Handle, ArenaError> {
        if self.live >= self.capacity as usize {
            return Err(ArenaError::Exhausted {
                capacity: self.capacity,
            });
        }
        // Reuse the most recently freed slot (deterministic LIFO).
        while let Some(idx) = self.free.pop() {
            let slot = &mut self.slots[idx as usize];
            debug_assert!(slot.value.is_none());
            // A slot at the generation ceiling is retired, not reused:
            // handing it out again would let a stale handle alias.
            let Some(generation) = slot.generation.checked_add(1) else {
                continue;
            };
            slot.generation = generation;
            slot.value = Some(value);
            self.live += 1;
            return Ok(Handle { idx, generation });
        }
        if self.slots.len() >= u32::MAX as usize {
            return Err(ArenaError::Exhausted {
                capacity: self.capacity,
            });
        }
        let idx = self.slots.len() as u32;
        self.slots.push(Slot {
            generation: 0,
            value: Some(value),
        });
        self.live += 1;
        Ok(Handle { idx, generation: 0 })
    }

    /// The value behind `h`, or `None` for stale/removed handles.
    pub fn get(&self, h: Handle) -> Option<&T> {
        let slot = self.slots.get(h.index())?;
        if slot.generation != h.generation {
            return None;
        }
        slot.value.as_ref()
    }

    pub fn get_mut(&mut self, h: Handle) -> Option<&mut T> {
        let slot = self.slots.get_mut(h.index())?;
        if slot.generation != h.generation {
            return None;
        }
        slot.value.as_mut()
    }

    /// Remove and return the value behind `h`. Stale handles return `None`
    /// and change nothing.
    pub fn remove(&mut self, h: Handle) -> Option<T> {
        let slot = self.slots.get_mut(h.index())?;
        if slot.generation != h.generation {
            return None;
        }
        let value = slot.value.take()?;
        self.free.push(h.idx);
        self.live -= 1;
        Some(value)
    }

    /// Number of live values (the occupancy counter gauge samplers read).
    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total slots ever allocated (live + free).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Linear sweep over live values in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (Handle, &T)> {
        self.slots.iter().enumerate().filter_map(|(i, s)| {
            s.value.as_ref().map(|v| {
                (
                    Handle {
                        idx: i as u32,
                        generation: s.generation,
                    },
                    v,
                )
            })
        })
    }

    /// Linear sweep over live values in slot order, mutably.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (Handle, &mut T)> {
        self.slots.iter_mut().enumerate().filter_map(|(i, s)| {
            let generation = s.generation;
            s.value.as_mut().map(move |v| {
                (
                    Handle {
                        idx: i as u32,
                        generation,
                    },
                    v,
                )
            })
        })
    }

    /// Documented-model byte audit: every allocated slot costs the value
    /// footprint plus the generation word; the free list costs one index
    /// per retired slot. No allocator introspection.
    pub fn state_bytes(&self) -> usize {
        self.slots.len() * (std::mem::size_of::<T>() + std::mem::size_of::<u32>() * 2)
            + self.free.len() * std::mem::size_of::<u32>()
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

    #[test]
    fn arena_insert_get_remove() {
        let mut a: Arena<String> = Arena::new();
        let h = a.insert("x".into()).unwrap();
        assert_eq!(a.get(h).map(String::as_str), Some("x"));
        assert_eq!(a.len(), 1);
        assert_eq!(a.remove(h), Some("x".into()));
        assert_eq!(a.get(h), None, "stale handle after remove");
        assert_eq!(a.remove(h), None, "double remove is a no-op");
        assert!(a.is_empty());
    }

    #[test]
    fn slot_reuse_bumps_generation() {
        let mut a: Arena<u32> = Arena::new();
        let h1 = a.insert(1).unwrap();
        a.remove(h1);
        let h2 = a.insert(2).unwrap();
        assert_eq!(h2.index(), h1.index(), "slot reused");
        assert_eq!(h2.generation(), h1.generation() + 1);
        assert_eq!(a.get(h1), None, "old generation stays dangling");
        assert_eq!(a.get(h2), Some(&2));
    }

    #[test]
    fn arena_capacity_is_typed_error() {
        let mut a: Arena<u8> = Arena::with_capacity(1);
        let h = a.insert(1).unwrap();
        assert_eq!(a.insert(2), Err(ArenaError::Exhausted { capacity: 1 }));
        a.remove(h);
        assert!(a.insert(3).is_ok(), "room again after removal");
    }

    #[test]
    fn iteration_is_slot_ordered() {
        let mut a: Arena<u32> = Arena::new();
        let h0 = a.insert(10).unwrap();
        let _h1 = a.insert(11).unwrap();
        let _h2 = a.insert(12).unwrap();
        a.remove(h0);
        let live: Vec<u32> = a.iter().map(|(_, v)| *v).collect();
        assert_eq!(live, vec![11, 12]);
        for (_, v) in a.iter_mut() {
            *v += 1;
        }
        let live: Vec<u32> = a.iter().map(|(_, v)| *v).collect();
        assert_eq!(live, vec![12, 13]);
    }
}
