//! The model-based test of [`SoftTable`] — the one table behind MLD
//! listeners, PIM (S,G) entries and the binding cache — against a
//! `BTreeMap<K, (SimTime, Row)>` reference after every single operation.

use mobicast_sim::arena::SoftTable;
use mobicast_sim::SimTime;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::fmt::Debug;

proptest! {
    /// One-field key (the MLD listener / binding-cache shape), 24 keys
    /// so inserts, refreshes and removals collide constantly.
    #[test]
    fn table_matches_btreemap_model_one_field_key(
        ops in proptest::collection::vec(any::<u32>(), 1..400),
    ) {
        // Spread the keys so first-insert order and key order disagree
        // whatever the op sequence.
        check_against_model(|i| (i % 24).wrapping_mul(0x9e37) as u16, &ops);
    }

    /// Compound key (the PIM `(source, group)` shape), 8 × 6 keys:
    /// ordering must be by source first, then group.
    #[test]
    fn table_matches_btreemap_model_compound_key(
        ops in proptest::collection::vec(any::<u32>(), 1..400),
    ) {
        check_against_model(
            |i| ((i % 8) as u8 ^ 0x5, u64::from(i / 8 % 6).wrapping_mul(0x9e37_79b9)),
            &ops,
        );
    }
}

/// A row with heap contents, so rows handed back by `remove` are checked.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Tag(Vec<u8>);

fn t(secs: u64) -> SimTime {
    SimTime::from_secs(secs)
}

/// Drive a [`SoftTable`] and a `BTreeMap` reference through the op
/// sequence encoded in `ops` (insert / refresh-expiry / shorten-expiry /
/// row-mutate / remove / expiry-sweep + `refresh_min_expires`) and
/// compare every observable after every op.
fn check_against_model<K: Ord + Copy + Debug>(key_at: impl Fn(u32) -> K, ops: &[u32]) {
    let mut table: SoftTable<K, Tag> = SoftTable::new();
    let mut model: BTreeMap<K, (SimTime, Tag)> = BTreeMap::new();
    // Slot allocation is part of the determinism contract: LIFO reuse,
    // fresh slots only when the free list is empty.
    let mut retired = Vec::new();
    let mut allocated = 0u32;
    let mut now = 0u64;

    for (step, &w) in ops.iter().enumerate() {
        let key = key_at((w >> 3) & 0xff);
        now += u64::from((w >> 11) % 30);
        let before: Vec<_> = model.iter().map(|(k, v)| (*k, v.clone())).collect();
        let epoch = table.mutation_epoch();
        let mut remove_both =
            |table: &mut SoftTable<K, Tag>, model: &mut BTreeMap<K, (SimTime, Tag)>, key: K| {
                retired.extend(table.slot_of(key));
                assert_eq!(
                    table.remove(key),
                    model.remove(&key).map(|(_, row)| row),
                    "step {step}: removal result diverged"
                );
            };
        match w & 7 {
            // Insert, or refresh the expiry (a Report / data / BU arrived).
            0..=2 => {
                let exp = t(now + 260);
                match table.slot_of(key) {
                    Some(slot) => table.set_expires(slot, exp),
                    None => {
                        let slot = table.insert(key, exp, Tag::default()).unwrap();
                        let expected = retired.pop().unwrap_or_else(|| {
                            allocated += 1;
                            allocated - 1
                        });
                        assert_eq!(slot, expected, "step {step}: slot reuse is not LIFO");
                    }
                }
                model.entry(key).or_default().0 = exp;
            }
            // Shorten the expiry (a Done armed the last-listener query).
            3 => {
                if let Some(slot) = table.slot_of(key) {
                    table.set_expires(slot, t(now + 2));
                }
                if let Some(e) = model.get_mut(&key) {
                    e.0 = t(now + 2);
                }
            }
            // Mutate the protocol row.
            4 => {
                if let Some(slot) = table.slot_of(key) {
                    table.row_mut(slot).0.push((w >> 16) as u8);
                }
                if let Some(e) = model.get_mut(&key) {
                    e.1 .0.push((w >> 16) as u8);
                }
            }
            // Expiry sweep at `now`, then retighten the watermark.
            6 => {
                let due: Vec<K> = table
                    .slots()
                    .filter(|&slot| table.expires_at(slot) <= t(now))
                    .map(|slot| table.key_of(slot))
                    .collect();
                let model_due: Vec<K> = model
                    .iter()
                    .filter(|(_, (exp, _))| *exp <= t(now))
                    .map(|(k, _)| *k)
                    .collect();
                assert_eq!(due, model_due, "step {step}: sweep diverged");
                for k in due {
                    remove_both(&mut table, &mut model, k);
                }
                table.refresh_min_expires();
                assert_eq!(
                    table.min_expires(),
                    model.values().map(|e| e.0).min().unwrap_or(SimTime::MAX),
                    "step {step}: refreshed watermark is exact"
                );
            }
            // Hard remove.
            _ => remove_both(&mut table, &mut model, key),
        }

        // Full observable state must match after every op.
        let snapshot: Vec<_> = table
            .slots()
            .map(|slot| {
                (
                    table.key_of(slot),
                    (table.expires_at(slot), table.row(slot).clone()),
                )
            })
            .collect();
        let expected: Vec<_> = model.iter().map(|(k, v)| (*k, v.clone())).collect();
        assert_eq!(snapshot, expected, "step {step}: state diverged");
        assert_eq!(table.len(), model.len());
        assert_eq!(table.is_empty(), model.is_empty());
        assert_eq!(table.contains(key), model.contains_key(&key));
        assert!(table.keys().eq(model.keys().copied()));
        for (pos, k) in model.keys().enumerate() {
            assert_eq!(table.slot_of(*k), Some(table.slot_at(pos)));
        }
        // Watermark invariant: never later than any live expiry.
        for (exp, _) in model.values() {
            assert!(
                table.min_expires() <= *exp,
                "step {step}: watermark too late"
            );
        }
        if model.is_empty() {
            assert_eq!(table.min_expires(), SimTime::MAX);
        }
        // The epoch may overcount but must never miss a change.
        if expected != before {
            assert_ne!(table.mutation_epoch(), epoch, "step {step}: change missed");
        }
    }
}
