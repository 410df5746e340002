//! The (S,G) table backing [`PimRouter`]: the shared [`SoftTable`] keyed
//! by `(source, group)` with the data-timeout expiry as its hot
//! column. The colder per-entry protocol state (upstream machine, per-oif
//! prune/assert state) rides along as one [`SgDetail`] row per slot.
//!
//! [`PimRouter`]: crate::router::PimRouter

use mobicast_ipv6::addr::GroupAddr;
use mobicast_sim::arena::SoftTable;
use mobicast_sim::SimTime;
use std::net::Ipv6Addr;

/// Interface index local to the owning router.
pub type IfIndex = u8;

#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum UpstreamState {
    /// Not pruned toward the source.
    #[default]
    Forwarding,
    /// We sent a Prune; traffic should stop until `until`.
    Pruned { until: SimTime },
    /// We sent a Graft and await the ack.
    AckPending { retry_at: SimTime },
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DownstreamPrune {
    #[default]
    NoInfo,
    /// Prune received; waiting out the join-override window.
    PrunePending { fire_at: SimTime },
    /// Interface pruned until the hold time passes.
    Pruned { until: SimTime },
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OifState {
    pub prune: DownstreamPrune,
    /// We lost an assert on this interface; don't forward until then.
    pub assert_loser_until: Option<SimTime>,
    /// Rate limiting for data-triggered asserts.
    pub last_assert_tx: Option<SimTime>,
}

/// Cold per-entry protocol state (everything except the key and expiry).
#[derive(Clone, Debug, Default)]
pub struct SgDetail {
    pub iif: IfIndex,
    pub upstream: Option<Ipv6Addr>,
    pub upstream_state: UpstreamState,
    /// Per-oif state, sorted by interface index (the order the old
    /// `BTreeMap<IfIndex, OifState>` iterated in).
    pub oifs: Vec<(IfIndex, OifState)>,
    /// Scheduled join to override an overheard prune on the iif LAN.
    pub override_join_at: Option<SimTime>,
    /// Rate limiting for data-triggered prunes.
    pub last_prune_tx: Option<SimTime>,
    /// Best assert winner seen on the iif (pref, metric, addr).
    pub iif_assert_winner: Option<(u32, u32, Ipv6Addr)>,
}

impl SgDetail {
    pub fn oif(&self, iface: IfIndex) -> Option<&OifState> {
        self.oifs
            .binary_search_by_key(&iface, |(i, _)| *i)
            .ok()
            .map(|pos| &self.oifs[pos].1)
    }

    pub fn oif_mut(&mut self, iface: IfIndex) -> Option<&mut OifState> {
        self.oifs
            .binary_search_by_key(&iface, |(i, _)| *i)
            .ok()
            .map(|pos| &mut self.oifs[pos].1)
    }
}

/// (S,G) table for one PIM-DM router, ordered by `(source, group)`.
pub type SgTable = SoftTable<(Ipv6Addr, GroupAddr), SgDetail>;
