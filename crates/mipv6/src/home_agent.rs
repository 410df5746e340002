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
use mobicast_sim::{SimDuration, SimTime};
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
    /// at capacity.
    BindingShed { home: Ipv6Addr },
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
    pub(crate) budget: Option<u32>,
    notes: Vec<HaNote>,
}

impl HomeAgent {
    pub fn new() -> Self {
        Self::default()
    }

    /// Bound the binding cache at `capacity` entries: a full cache refuses
    /// first-time registrations. `None` restores the unbounded default.
    pub fn set_budget(&mut self, capacity: Option<u32>) {
        self.budget = capacity;
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
        // Admission control: only first-time registrations can grow the
        // cache; refreshes and deregistrations always pass. A refused one
        // is dropped silently: the mobile host's BU retransmit machinery
        // retries once load subsides.
        if !lifetime.is_zero()
            && !self.cache.contains(home)
            && self
                .budget
                .is_some_and(|cap| self.cache.len() >= cap as usize)
        {
            self.notes.push(HaNote::BindingShed { home });
            return Vec::new();
        }
        let delta = self
            .cache
            .update(home, care_of, lifetime, bu.sequence, groups, now);
        let mut out = Self::delta_outputs(delta);
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
        self.cache.has_subscribers(group)
    }

    /// Earliest binding expiry.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.cache.next_deadline()
    }

    /// Expire stale bindings; returns the groups whose proxy membership
    /// ends with them (an expiry adds no subscriber, so joins none).
    pub fn on_deadline(&mut self, now: SimTime) -> Vec<GroupAddr> {
        self.cache.expire(now).groups_removed
    }
}
