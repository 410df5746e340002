//! The binding cache kept by a home agent (draft-ietf-mobileip-ipv6-10 §4.4)
//! extended with the paper's per-binding multicast group list (the data the
//! proposed Multicast Group List Sub-Option carries, §4.3.2).
//!
//! Bindings live in the shared [`SoftTable`] keyed by home address
//! (iteration in home-address order, expiry column, watermark); each row
//! holds the care-of address, the sequence number and the list of groups.
//! What is the cache's own sits above the table: per-group subscriber
//! counts aggregated in `group_refs` (the paper's aggregation level: one
//! entry per group per home agent, however many bindings subscribe) and
//! the [`CacheDelta`] they produce.

use mobicast_ipv6::addr::GroupAddr;
use mobicast_sim::arena::SoftTable;
use mobicast_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::net::Ipv6Addr;

/// A read-only view of one binding: home address → care-of address, plus
/// registration metadata. Copied out of the columns on lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BindingView {
    pub care_of: Ipv6Addr,
    pub expires: SimTime,
    pub sequence: u16,
}

/// Effect of a cache update, as seen by the multicast proxy machinery.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheDelta {
    /// Groups whose subscriber count went 0 → 1 (proxy must join).
    pub groups_added: Vec<GroupAddr>,
    /// Groups whose subscriber count went 1 → 0 (proxy must leave).
    pub groups_removed: Vec<GroupAddr>,
}

/// Everything a binding holds besides its home address and expiry.
#[derive(Debug)]
pub(crate) struct BindingRow {
    care_of: Ipv6Addr,
    sequence: u16,
    /// The groups the binding subscribes to, in the order the Binding
    /// Update listed them.
    pub(crate) groups: Vec<GroupAddr>,
}

impl Default for BindingRow {
    fn default() -> Self {
        BindingRow {
            care_of: Ipv6Addr::UNSPECIFIED,
            sequence: 0,
            groups: Vec::new(),
        }
    }
}

/// Subscriber counts per group across all bindings.
type GroupRefs = BTreeMap<GroupAddr, usize>;

/// The home agent's binding cache.
#[derive(Debug)]
pub struct BindingCache {
    /// Bindings by home address.
    pub(crate) table: SoftTable<Ipv6Addr, BindingRow>,
    group_refs: GroupRefs,
}

impl Default for BindingCache {
    fn default() -> Self {
        Self::new()
    }
}

/// Count one more subscriber for each of `groups`.
fn ref_groups(refs: &mut GroupRefs, groups: &[GroupAddr], delta: &mut CacheDelta) {
    for &g in groups {
        let c = refs.entry(g).or_insert(0);
        *c += 1;
        if *c == 1 {
            delta.groups_added.push(g);
        }
    }
}

/// Count one subscriber fewer for each of `groups`.
fn unref_groups(refs: &mut GroupRefs, groups: &[GroupAddr], delta: &mut CacheDelta) {
    for g in groups {
        if let Some(c) = refs.get_mut(g) {
            *c -= 1;
            if *c == 0 {
                refs.remove(g);
                delta.groups_removed.push(*g);
            }
        }
    }
}

impl BindingCache {
    pub fn new() -> Self {
        BindingCache {
            table: SoftTable::new(),
            group_refs: BTreeMap::new(),
        }
    }

    fn view(&self, slot: u32) -> BindingView {
        let row = self.table.row(slot);
        BindingView {
            care_of: row.care_of,
            expires: self.table.expires_at(slot),
            sequence: row.sequence,
        }
    }

    pub fn len(&self) -> usize {
        self.table.len()
    }

    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    pub fn lookup(&self, home: Ipv6Addr) -> Option<BindingView> {
        self.table.slot_of(home).map(|slot| self.view(slot))
    }

    pub fn contains(&self, home: Ipv6Addr) -> bool {
        self.table.contains(home)
    }

    /// All `(home, binding)` pairs, in home-address order (oracle
    /// freshness checks walk the whole cache — guarded by
    /// [`BindingCache::min_expires`] so they rarely have to).
    pub fn entries(&self) -> impl Iterator<Item = (Ipv6Addr, BindingView)> + '_ {
        self.table
            .slots()
            .map(|slot| (self.table.key_of(slot), self.view(slot)))
    }

    /// Care-of addresses of every binding subscribed to `group`, in home
    /// address order (the fan-out set for tunnelled multicast).
    pub fn subscribers(&self, group: GroupAddr) -> Vec<(Ipv6Addr, Ipv6Addr)> {
        self.table
            .slots()
            .filter(|&slot| self.table.row(slot).groups.contains(&group))
            .map(|slot| (self.table.key_of(slot), self.table.row(slot).care_of))
            .collect()
    }

    /// Is any binding subscribed to `group`?
    pub(crate) fn has_subscribers(&self, group: GroupAddr) -> bool {
        self.group_refs.contains_key(&group)
    }

    fn remove(&mut self, home: Ipv6Addr, delta: &mut CacheDelta) {
        if let Some(row) = self.table.remove(home) {
            unref_groups(&mut self.group_refs, &row.groups, delta);
        }
    }

    /// Register or refresh a binding. `lifetime` of zero deregisters.
    /// Returns the proxy-group delta.
    pub fn update(
        &mut self,
        home: Ipv6Addr,
        care_of: Ipv6Addr,
        lifetime: SimDuration,
        sequence: u16,
        groups: Vec<GroupAddr>,
        now: SimTime,
    ) -> CacheDelta {
        let mut delta = CacheDelta::default();
        if lifetime.is_zero() {
            self.remove(home, &mut delta);
            return delta;
        }
        let expires = now + lifetime;
        let refs = &mut self.group_refs;
        ref_groups(refs, &groups, &mut delta);
        match self.table.slot_of(home) {
            Some(slot) => {
                let row = self.table.row_mut(slot);
                row.care_of = care_of;
                row.sequence = sequence;
                let old_groups = std::mem::replace(&mut row.groups, groups);
                unref_groups(refs, &old_groups, &mut delta);
                self.table.set_expires(slot, expires);
            }
            None => {
                let row = BindingRow {
                    care_of,
                    sequence,
                    groups,
                };
                let Ok(_) = self.table.insert(home, expires, row);
            }
        }
        delta
    }

    /// Earliest binding expiry (linear sweep over the expiry column).
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.table
            .slots()
            .map(|slot| self.table.expires_at(slot))
            .min()
    }

    /// O(1) conservative lower bound on all binding expiries. If this is
    /// in the future, no binding can be overdue — the guard that keeps
    /// oracle polls flat as binding counts grow.
    pub fn min_expires(&self) -> SimTime {
        self.table.min_expires()
    }

    /// Drop expired bindings (the paper: a missing refresh lets the home
    /// agent "give up the representation of the host as member of its
    /// multicast group"). Returns the proxy delta.
    pub fn expire(&mut self, now: SimTime) -> CacheDelta {
        let mut delta = CacheDelta::default();
        let dead: Vec<Ipv6Addr> = self
            .table
            .slots()
            .filter(|&slot| self.table.expires_at(slot) <= now)
            .map(|slot| self.table.key_of(slot))
            .collect();
        for h in &dead {
            self.remove(*h, &mut delta);
        }
        // The sweep visited everything anyway: recompute the watermark
        // exactly so the next poll-guard read is tight again.
        self.table.refresh_min_expires();
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }
    fn g(i: u16) -> GroupAddr {
        GroupAddr::test_group(i)
    }
    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }
    const LIFE: SimDuration = SimDuration::from_secs(256);

    #[test]
    fn register_and_lookup() {
        let mut c = BindingCache::new();
        let d = c.update(
            a("2001:db8:4::9"),
            a("2001:db8:1::9"),
            LIFE,
            1,
            vec![],
            t(0),
        );
        assert_eq!(d, CacheDelta::default());
        let e = c.lookup(a("2001:db8:4::9")).unwrap();
        assert_eq!(e.care_of, a("2001:db8:1::9"));
        assert_eq!(e.expires, t(256));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn group_refcounting_across_hosts() {
        let mut c = BindingCache::new();
        let d1 = c.update(a("::a"), a("::a1"), LIFE, 1, vec![g(1)], t(0));
        assert_eq!(d1.groups_added, vec![g(1)], "first subscriber joins");
        let d2 = c.update(a("::b"), a("::b1"), LIFE, 1, vec![g(1), g(2)], t(0));
        assert_eq!(d2.groups_added, vec![g(2)], "g1 already subscribed");
        // First host drops g1.
        let d3 = c.update(a("::a"), a("::a1"), LIFE, 2, vec![], t(1));
        assert!(d3.groups_removed.is_empty(), "::b still holds g1");
        // Second host deregisters entirely.
        let d4 = c.update(a("::b"), a("::b1"), SimDuration::ZERO, 3, vec![], t(2));
        let mut removed = d4.groups_removed.clone();
        removed.sort();
        assert_eq!(removed, vec![g(1), g(2)]);
        assert!(c.group_refs.is_empty());
    }

    #[test]
    fn subscribers_fan_out() {
        let mut c = BindingCache::new();
        c.update(a("::a"), a("::a1"), LIFE, 1, vec![g(1)], t(0));
        c.update(a("::b"), a("::b1"), LIFE, 1, vec![g(1)], t(0));
        c.update(a("::c"), a("::c1"), LIFE, 1, vec![g(2)], t(0));
        let subs = c.subscribers(g(1));
        assert_eq!(subs, vec![(a("::a"), a("::a1")), (a("::b"), a("::b1"))]);
    }

    #[test]
    fn refresh_moves_expiry_and_coa() {
        let mut c = BindingCache::new();
        c.update(a("::a"), a("::a1"), LIFE, 1, vec![g(1)], t(0));
        let d = c.update(a("::a"), a("::a2"), LIFE, 2, vec![g(1)], t(100));
        assert_eq!(d, CacheDelta::default(), "same groups: no proxy change");
        let e = c.lookup(a("::a")).unwrap();
        assert_eq!(e.care_of, a("::a2"));
        assert_eq!(e.expires, t(356));
        assert_eq!(e.sequence, 2);
    }

    #[test]
    fn expiry_releases_groups() {
        let mut c = BindingCache::new();
        c.update(a("::a"), a("::a1"), LIFE, 1, vec![g(1)], t(0));
        c.update(a("::b"), a("::b1"), LIFE, 1, vec![g(1)], t(50));
        assert_eq!(c.next_deadline(), Some(t(256)));
        let delta = c.expire(t(256));
        assert_eq!(c.lookup(a("::a")), None);
        assert!(delta.groups_removed.is_empty(), "::b still subscribed");
        let delta = c.expire(t(306));
        assert_eq!(c.lookup(a("::b")), None);
        assert_eq!(delta.groups_removed, vec![g(1)]);
        assert!(c.is_empty());
    }

    #[test]
    fn dereg_of_unknown_home_is_noop() {
        let mut c = BindingCache::new();
        let d = c.update(a("::a"), a("::a1"), SimDuration::ZERO, 1, vec![], t(0));
        assert_eq!(d, CacheDelta::default());
        assert!(c.is_empty());
    }

    #[test]
    fn group_churn_within_one_host() {
        let mut c = BindingCache::new();
        c.update(a("::a"), a("::a1"), LIFE, 1, vec![g(1), g(2)], t(0));
        let d = c.update(a("::a"), a("::a1"), LIFE, 2, vec![g(2), g(3)], t(1));
        assert_eq!(d.groups_added, vec![g(3)]);
        assert_eq!(d.groups_removed, vec![g(1)]);
    }

    #[test]
    fn watermark_guards_expiry_polls() {
        let mut c = BindingCache::new();
        assert_eq!(c.min_expires(), SimTime::MAX);
        c.update(a("::a"), a("::a1"), LIFE, 1, vec![], t(0));
        c.update(a("::b"), a("::b1"), LIFE, 1, vec![], t(40));
        assert_eq!(c.min_expires(), t(256));
        // Nothing can be overdue before the watermark.
        assert!(c.min_expires() > t(100));
        c.expire(t(256));
        assert!(!c.contains(a("::a")) && c.contains(a("::b")));
        assert_eq!(c.min_expires(), t(296), "sweep retightens the watermark");
    }

    /// The refcount/delta layer restated over a plain `BTreeMap` with full
    /// addresses: the reference the differential test below compares
    /// every returned delta against.
    #[derive(Default)]
    struct RefCache {
        entries: BTreeMap<Ipv6Addr, RefEntry>,
        group_refs: BTreeMap<GroupAddr, usize>,
    }

    struct RefEntry {
        care_of: Ipv6Addr,
        expires: SimTime,
        sequence: u16,
        groups: Vec<GroupAddr>,
    }

    impl RefCache {
        fn ref_groups(&mut self, groups: &[GroupAddr], delta: &mut CacheDelta) {
            for g in groups {
                let c = self.group_refs.entry(*g).or_insert(0);
                *c += 1;
                if *c == 1 {
                    delta.groups_added.push(*g);
                }
            }
        }

        fn unref_groups(&mut self, groups: &[GroupAddr], delta: &mut CacheDelta) {
            for g in groups {
                if let Some(c) = self.group_refs.get_mut(g) {
                    *c -= 1;
                    if *c == 0 {
                        self.group_refs.remove(g);
                        delta.groups_removed.push(*g);
                    }
                }
            }
        }

        fn remove(&mut self, home: Ipv6Addr, delta: &mut CacheDelta) {
            if let Some(e) = self.entries.remove(&home) {
                self.unref_groups(&e.groups, delta);
            }
        }

        fn subscribers(&self, group: GroupAddr) -> Vec<(Ipv6Addr, Ipv6Addr)> {
            self.entries
                .iter()
                .filter(|(_, e)| e.groups.contains(&group))
                .map(|(home, e)| (*home, e.care_of))
                .collect()
        }

        fn update(
            &mut self,
            home: Ipv6Addr,
            care_of: Ipv6Addr,
            lifetime: SimDuration,
            sequence: u16,
            groups: Vec<GroupAddr>,
            now: SimTime,
        ) -> CacheDelta {
            let mut delta = CacheDelta::default();
            if lifetime.is_zero() {
                self.remove(home, &mut delta);
                return delta;
            }
            self.ref_groups(&groups, &mut delta);
            let new = RefEntry {
                care_of,
                expires: now + lifetime,
                sequence,
                groups,
            };
            if let Some(old) = self.entries.insert(home, new) {
                self.unref_groups(&old.groups, &mut delta);
            }
            delta
        }

        fn expire(&mut self, now: SimTime) -> CacheDelta {
            let mut delta = CacheDelta::default();
            let dead: Vec<Ipv6Addr> = self
                .entries
                .iter()
                .filter(|(_, e)| e.expires <= now)
                .map(|(h, _)| *h)
                .collect();
            for h in dead {
                self.remove(h, &mut delta);
            }
            delta
        }
    }

    /// Differential state model: the cache and its `BTreeMap` reference
    /// driven through identical randomized register/refresh/move/
    /// deregister/expiry ops must return identical deltas and
    /// expose identical observable state after every single op — 8
    /// seeds' worth.
    #[test]
    fn differential_vs_btreemap_reference() {
        use mobicast_sim::RngFactory;
        use rand::Rng;

        fn home(i: u16) -> Ipv6Addr {
            Ipv6Addr::from(0x2001_0db8_0004_0000_0000_0000_0000_0000u128 + u128::from(i))
        }
        fn coa(i: u16) -> Ipv6Addr {
            Ipv6Addr::from(0x2001_0db8_0001_0000_0000_0000_0000_0000u128 + u128::from(i))
        }

        for seed in 0..8u64 {
            let rng_factory = RngFactory::new(seed);
            let mut rng = rng_factory.stream("bc-diff");
            let mut soa = BindingCache::new();
            let mut old = RefCache::default();
            let mut now = 0u64;
            let mut seq = 0u16;
            for step in 0..400 {
                now += rng.random_range(0u64..40);
                seq = seq.wrapping_add(1);
                let h = home(rng.random_range(0u16..16));
                match rng.random_range(0u32..5) {
                    // Register / refresh / move with a random group list.
                    0..=2 => {
                        let n_groups = rng.random_range(0usize..4);
                        let groups: Vec<GroupAddr> = (0..n_groups)
                            .map(|_| GroupAddr::test_group(rng.random_range(0u16..12)))
                            .collect();
                        // Duplicate groups in one BU are possible on the
                        // wire; both models must agree on them too.
                        let c = coa(rng.random_range(0u16..8));
                        let life = SimDuration::from_secs(rng.random_range(1u64..300));
                        let d1 = soa.update(h, c, life, seq, groups.clone(), t(now));
                        let d2 = old.update(h, c, life, seq, groups, t(now));
                        assert_eq!(d1, d2, "seed {seed} step {step}: delta diverged");
                    }
                    // Deregister.
                    3 => {
                        let d1 = soa.update(h, coa(0), SimDuration::ZERO, seq, vec![], t(now));
                        let d2 = old.update(h, coa(0), SimDuration::ZERO, seq, vec![], t(now));
                        assert_eq!(d1, d2, "seed {seed} step {step}: dereg diverged");
                    }
                    // Expiry sweep.
                    _ => {
                        let (d1, d2) = (soa.expire(t(now)), old.expire(t(now)));
                        assert_eq!(d1, d2, "seed {seed} step {step}: expiry diverged");
                    }
                }
                // Full observable state must match after every op.
                assert_eq!(soa.len(), old.entries.len());
                assert_eq!(
                    soa.next_deadline(),
                    old.entries.values().map(|e| e.expires).min()
                );
                assert!(soa.group_refs.keys().eq(old.group_refs.keys()));
                let snap1: Vec<(Ipv6Addr, Ipv6Addr, SimTime, u16)> = soa
                    .entries()
                    .map(|(h, v)| (h, v.care_of, v.expires, v.sequence))
                    .collect();
                let snap2: Vec<(Ipv6Addr, Ipv6Addr, SimTime, u16)> = old
                    .entries
                    .iter()
                    .map(|(h, e)| (*h, e.care_of, e.expires, e.sequence))
                    .collect();
                assert_eq!(snap1, snap2, "seed {seed} step {step}: entries diverged");
                for grp in (0u16..12).map(GroupAddr::test_group) {
                    let subs = old.subscribers(grp);
                    assert_eq!(soa.subscribers(grp), subs);
                    assert_eq!(soa.has_subscribers(grp), !subs.is_empty());
                }
                // Watermark invariant: never later than any live expiry.
                for (_, v) in soa.entries() {
                    assert!(soa.min_expires() <= v.expires);
                }
            }
        }
    }
}
