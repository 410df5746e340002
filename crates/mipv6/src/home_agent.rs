//! The home agent: binding registration, proxy group membership, and the
//! decision logic for tunnelling intercepted traffic to mobile hosts.
//!
//! The paper's "second (and more general) scenario" (§4.3.2) is implemented:
//! the home agent is *not* assumed to be a PIM-DM router; it learns the
//! mobile host's multicast subscriptions from the extended Binding Update
//! (Multicast Group List Sub-Option) and acts as an ordinary MLD listener
//! on the home link on the host's behalf. The owning router node feeds
//! [`HaOutput::ProxyJoin`]/[`HaOutput::ProxyLeave`] into its local MLD host
//! machine.

use crate::binding::{BindingCache, CacheDelta};
use mobicast_ipv6::addr::GroupAddr;
use mobicast_ipv6::exthdr::{BindingAck, BindingUpdate};
use mobicast_sim::{ShedPolicy, SimDuration, SimTime};
use std::net::Ipv6Addr;

/// Outputs of the home-agent machine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HaOutput {
    /// Send a Binding Acknowledgement to the mobile host's care-of address.
    SendBindingAck {
        care_of: Ipv6Addr,
        home: Ipv6Addr,
        ack: BindingAck,
    },
    /// Start proxy MLD membership for `0` on the home link.
    ProxyJoin(GroupAddr),
    /// Stop proxy MLD membership.
    ProxyLeave(GroupAddr),
}

/// Admission-control transitions, buffered for the owner to drain with
/// [`HomeAgent::take_notes`] and convert into counters and trace events.
/// Notes carry no behavioural weight: dropping them changes nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HaNote {
    /// A first-time registration was refused because the binding cache is
    /// at capacity under [`ShedPolicy::RejectNew`].
    BindingShed { home: Ipv6Addr },
    /// The stalest binding was evicted to admit a new registration under
    /// [`ShedPolicy::EvictStalest`].
    BindingEvicted { home: Ipv6Addr },
    /// A Binding Update older than the cached binding (modulo-2^16
    /// sequence comparison, draft-10 §4.4) was discarded — a replayed or
    /// reordered update must not reinstall a stale care-of address.
    BindingStaleSeq { home: Ipv6Addr },
}

/// Home-agent state for one router.
#[derive(Debug, Default)]
pub struct HomeAgent {
    cache: BindingCache,
    /// Processing-load metrics (the paper's "system load" measure).
    pub binding_updates_processed: u64,
    pub packets_tunneled: u64,
    /// Binding-cache capacity; `None` = unbounded (the default).
    budget: Option<u32>,
    shed_policy: ShedPolicy,
    notes: Vec<HaNote>,
}

impl HomeAgent {
    pub fn new() -> Self {
        Self::default()
    }

    /// Bound the binding cache at `capacity` entries, shedding per
    /// `policy`. `None` restores the unbounded default.
    pub fn set_budget(&mut self, capacity: Option<u32>, policy: ShedPolicy) {
        self.budget = capacity;
        self.shed_policy = policy;
    }

    /// Drain buffered admission-control notes (see [`HaNote`]).
    pub fn take_notes(&mut self) -> Vec<HaNote> {
        std::mem::take(&mut self.notes)
    }

    pub fn cache(&self) -> &BindingCache {
        &self.cache
    }

    /// Number of bindings currently held (state-load metric) — an O(1)
    /// occupancy counter read.
    pub fn binding_count(&self) -> usize {
        self.cache.len()
    }

    fn delta_outputs(delta: CacheDelta) -> Vec<HaOutput> {
        let mut out = Vec::new();
        for g in delta.groups_added {
            out.push(HaOutput::ProxyJoin(g));
        }
        for g in delta.groups_removed {
            out.push(HaOutput::ProxyLeave(g));
        }
        out
    }

    /// Process a Binding Update received from `care_of` for `home`.
    pub fn on_binding_update(
        &mut self,
        home: Ipv6Addr,
        care_of: Ipv6Addr,
        bu: &BindingUpdate,
        now: SimTime,
    ) -> Vec<HaOutput> {
        self.binding_updates_processed += 1;
        // Sequence freshness (draft-10 §4.4): an update strictly older than
        // the cached one — in the modulo-2^16 half-window sense — is a
        // replay or reordering artifact and must not clobber newer state.
        // Equal sequence numbers pass: retransmissions of the current BU
        // are idempotent and still deserve an acknowledgement.
        if let Some(e) = self.cache.lookup(home) {
            if bu.sequence != e.sequence && bu.sequence.wrapping_sub(e.sequence) & 0x8000 != 0 {
                self.notes.push(HaNote::BindingStaleSeq { home });
                return Vec::new();
            }
        }
        let groups = bu
            .multicast_groups()
            .map(<[GroupAddr]>::to_vec)
            .unwrap_or_default();
        let lifetime = SimDuration::from_secs(u64::from(bu.lifetime_secs));
        let mut out = Vec::new();
        // Admission control: only first-time registrations can grow the
        // cache; refreshes and deregistrations always pass.
        if !lifetime.is_zero() && !self.cache.contains(home) {
            if let Some(cap) = self.budget {
                if self.cache.len() >= cap as usize {
                    match self.shed_policy {
                        // Also taken when eviction cannot make room
                        // (capacity zero).
                        ShedPolicy::EvictStalest if !self.cache.is_empty() => {
                            if let Some((victim, delta)) = self.cache.evict_stalest() {
                                self.notes.push(HaNote::BindingEvicted { home: victim });
                                out.extend(Self::delta_outputs(delta));
                            }
                        }
                        _ => {
                            // Silent drop: the mobile host's BU retransmit
                            // machinery retries once load subsides.
                            self.notes.push(HaNote::BindingShed { home });
                            return out;
                        }
                    }
                }
            }
        }
        let delta = self
            .cache
            .update(home, care_of, lifetime, bu.sequence, groups, now);
        out.extend(Self::delta_outputs(delta));
        if bu.ack_requested() {
            out.push(HaOutput::SendBindingAck {
                care_of,
                home,
                ack: BindingAck {
                    status: 0,
                    sequence: bu.sequence,
                    lifetime_secs: bu.lifetime_secs,
                    refresh_secs: bu.lifetime_secs / 2,
                },
            });
        }
        out
    }

    /// Should a unicast packet for `dst` be intercepted and tunnelled?
    /// Returns the care-of address if so.
    pub fn intercept(&self, dst: Ipv6Addr) -> Option<Ipv6Addr> {
        self.cache.lookup(dst).map(|e| e.care_of)
    }

    /// `(home, care-of)` pairs to tunnel a multicast datagram for `group`
    /// to (the paper's observation that co-located receivers each get
    /// their own unicast copy falls straight out of this list). The home
    /// address lets the caller attribute the tunnel copy to its agent role
    /// — home agent for on-link homes, regional MAP otherwise.
    pub fn multicast_tunnel_targets(&mut self, group: GroupAddr) -> Vec<(Ipv6Addr, Ipv6Addr)> {
        let targets = self.cache.subscribers(group);
        self.packets_tunneled += targets.len() as u64;
        targets
    }

    /// Is any binding subscribed to `group`?
    pub fn has_group_subscribers(&self, group: GroupAddr) -> bool {
        !self.cache.subscribers(group).is_empty()
    }

    /// Earliest binding expiry.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.cache.next_deadline()
    }

    /// Expire stale bindings; returns proxy-leave outputs.
    pub fn on_deadline(&mut self, now: SimTime) -> Vec<HaOutput> {
        let (_dead, delta) = self.cache.expire(now);
        Self::delta_outputs(delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobicast_ipv6::exthdr::{SubOption, BU_FLAG_ACK, BU_FLAG_HOME};

    fn a(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }
    fn g(i: u16) -> GroupAddr {
        GroupAddr::test_group(i)
    }
    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn bu(seq: u16, lifetime: u32, groups: Vec<GroupAddr>) -> BindingUpdate {
        let mut sub_options = Vec::new();
        if !groups.is_empty() {
            sub_options.push(SubOption::MulticastGroupList(groups));
        }
        BindingUpdate {
            flags: BU_FLAG_ACK | BU_FLAG_HOME,
            sequence: seq,
            lifetime_secs: lifetime,
            sub_options,
        }
    }

    #[test]
    fn binding_update_acked_and_cached() {
        let mut ha = HomeAgent::new();
        let out = ha.on_binding_update(a("::aa"), a("::c"), &bu(1, 256, vec![]), t(0));
        assert_eq!(out.len(), 1);
        match &out[0] {
            HaOutput::SendBindingAck { care_of, home, ack } => {
                assert_eq!(*care_of, a("::c"));
                assert_eq!(*home, a("::aa"));
                assert!(ack.accepted());
                assert_eq!(ack.sequence, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(ha.intercept(a("::aa")), Some(a("::c")));
        assert_eq!(ha.intercept(a("::ee")), None);
        assert_eq!(ha.binding_count(), 1);
        assert_eq!(ha.binding_updates_processed, 1);
    }

    #[test]
    fn group_list_triggers_proxy_join_and_leave() {
        let mut ha = HomeAgent::new();
        let out = ha.on_binding_update(a("::aa"), a("::c"), &bu(1, 256, vec![g(1)]), t(0));
        assert!(out.contains(&HaOutput::ProxyJoin(g(1))));
        // Deregistration releases the proxy membership.
        let out = ha.on_binding_update(a("::aa"), a("::c"), &bu(2, 0, vec![]), t(10));
        assert!(out.contains(&HaOutput::ProxyLeave(g(1))));
        assert_eq!(ha.binding_count(), 0);
    }

    #[test]
    fn multicast_fanout_counts_tunnel_load() {
        let mut ha = HomeAgent::new();
        ha.on_binding_update(a("::a1"), a("::c1"), &bu(1, 256, vec![g(1)]), t(0));
        ha.on_binding_update(a("::a2"), a("::c2"), &bu(1, 256, vec![g(1)]), t(0));
        ha.on_binding_update(a("::a3"), a("::c3"), &bu(1, 256, vec![g(2)]), t(0));
        assert!(ha.has_group_subscribers(g(1)));
        let targets = ha.multicast_tunnel_targets(g(1));
        assert_eq!(
            targets,
            vec![(a("::a1"), a("::c1")), (a("::a2"), a("::c2"))]
        );
        assert_eq!(ha.packets_tunneled, 2, "one tunnel copy per subscriber");
    }

    #[test]
    fn binding_expiry_releases_proxy_membership() {
        let mut ha = HomeAgent::new();
        ha.on_binding_update(a("::aa"), a("::c"), &bu(1, 256, vec![g(1)]), t(0));
        assert_eq!(ha.next_deadline(), Some(t(256)));
        let out = ha.on_deadline(t(256));
        assert_eq!(out, vec![HaOutput::ProxyLeave(g(1))]);
        assert_eq!(ha.intercept(a("::aa")), None);
    }

    #[test]
    fn budget_reject_new_sheds_registration_but_allows_refresh() {
        let mut ha = HomeAgent::new();
        ha.set_budget(Some(1), ShedPolicy::RejectNew);
        let out = ha.on_binding_update(a("::a1"), a("::c1"), &bu(1, 256, vec![g(1)]), t(0));
        assert!(out.contains(&HaOutput::ProxyJoin(g(1))));
        // Second host: shed silently — no ack, no proxy change.
        let out = ha.on_binding_update(a("::a2"), a("::c2"), &bu(1, 256, vec![g(2)]), t(1));
        assert!(out.is_empty());
        assert_eq!(ha.binding_count(), 1);
        assert_eq!(
            ha.take_notes(),
            vec![HaNote::BindingShed { home: a("::a2") }]
        );
        // Refreshing the admitted binding still works.
        let out = ha.on_binding_update(a("::a1"), a("::c9"), &bu(2, 256, vec![g(1)]), t(2));
        assert!(out
            .iter()
            .any(|o| matches!(o, HaOutput::SendBindingAck { .. })));
        assert_eq!(ha.intercept(a("::a1")), Some(a("::c9")));
        assert!(ha.take_notes().is_empty());
        // Deregistration always passes and frees the slot.
        ha.on_binding_update(a("::a1"), a("::c9"), &bu(3, 0, vec![]), t(3));
        let out = ha.on_binding_update(a("::a2"), a("::c2"), &bu(2, 256, vec![g(2)]), t(4));
        assert!(out.contains(&HaOutput::ProxyJoin(g(2))));
    }

    #[test]
    fn budget_evict_stalest_releases_victim_groups() {
        let mut ha = HomeAgent::new();
        ha.set_budget(Some(2), ShedPolicy::EvictStalest);
        ha.on_binding_update(a("::a1"), a("::c1"), &bu(1, 100, vec![g(1)]), t(0));
        ha.on_binding_update(a("::a2"), a("::c2"), &bu(1, 256, vec![g(2)]), t(0));
        // ::a1 expires first -> evicted; its proxy membership is released.
        let out = ha.on_binding_update(a("::a3"), a("::c3"), &bu(1, 256, vec![g(3)]), t(5));
        assert!(out.contains(&HaOutput::ProxyLeave(g(1))));
        assert!(out.contains(&HaOutput::ProxyJoin(g(3))));
        assert_eq!(ha.binding_count(), 2);
        assert_eq!(
            ha.take_notes(),
            vec![HaNote::BindingEvicted { home: a("::a1") }]
        );
        assert_eq!(ha.intercept(a("::a1")), None);
        assert_eq!(ha.intercept(a("::a3")), Some(a("::c3")));
    }

    #[test]
    fn no_ack_when_not_requested() {
        let mut ha = HomeAgent::new();
        let quiet = BindingUpdate {
            flags: BU_FLAG_HOME,
            sequence: 1,
            lifetime_secs: 256,
            sub_options: vec![],
        };
        let out = ha.on_binding_update(a("::aa"), a("::c"), &quiet, t(0));
        assert!(out.is_empty());
    }
}
