//! The PIM-DM router state machine (draft-ietf-pim-v2-dm-03).
//!
//! Sans-IO: the owning node feeds in data-packet notifications, PIM control
//! messages, MLD membership changes and clock deadlines; the machine returns
//! the interfaces to forward data onto plus control messages to transmit.
//!
//! Implemented behaviour (all of it exercised by the paper's experiments):
//! * **Flood-and-prune**: a new (S,G) floods to every interface with PIM
//!   neighbors or local members; leaf routers with no interested parties
//!   send Prunes; upstream routers wait `T_PruneDel` (default 3 s) for Join
//!   overrides before pruning a LAN.
//! * **(S,G) state expiry** after the data timeout (210 s) — the stale-tree
//!   lifetime the paper charges against mobile senders.
//! * **Graft / Graft-Ack** with retransmission, reattaching a pruned branch
//!   when a new member appears (mobile receiver arrives on a pruned link).
//! * **Assert** election of a single forwarder per LAN, triggered by data
//!   arriving on an outgoing interface — including the spurious asserts a
//!   mobile sender with a stale source address provokes (paper §4.3.1).
//! * **Hello / neighbor liveness**; a new neighbor on a pruned interface
//!   clears the prune so the newcomer receives data.

use crate::config::PimConfig;
use crate::message::{PimMessage, Sg};
use crate::table::{DownstreamPrune, OifState, SgDetail, SgTable, UpstreamState};
use mobicast_ipv6::addr::GroupAddr;
use mobicast_sim::{ShedPolicy, SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv6Addr;

pub use crate::table::IfIndex;

/// Result of a unicast RPF lookup toward a source.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RpfInfo {
    /// Interface toward the source.
    pub iif: IfIndex,
    /// Upstream PIM neighbor on `iif` (None when the source's link is
    /// directly attached — this router is the origin router).
    pub upstream: Option<Ipv6Addr>,
    /// Metric preference of the route (lower is better).
    pub metric_pref: u32,
    /// Route metric (lower is better).
    pub metric: u32,
}

/// Unicast routing oracle the PIM machine consults.
pub trait RpfLookup {
    fn rpf(&self, src: Ipv6Addr) -> Option<RpfInfo>;
}

impl<F: Fn(Ipv6Addr) -> Option<RpfInfo>> RpfLookup for F {
    fn rpf(&self, src: Ipv6Addr) -> Option<RpfInfo> {
        self(src)
    }
}

/// Where a control message should be sent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PimDest {
    /// The ALL-PIM-ROUTERS link-scope group.
    AllRouters,
    /// Unicast to a specific neighbor.
    Unicast(Ipv6Addr),
}

/// A control transmission requested by the machine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PimSend {
    pub iface: IfIndex,
    pub dest: PimDest,
    pub msg: PimMessage,
}

/// A state transition worth telling the operator about.
///
/// The machine is sans-IO, so it cannot trace directly; it appends notes to
/// an internal buffer and the owning node drains them with
/// [`PimRouter::take_notes`] after every call, turning them into typed
/// trace events and MIB counters. Notes carry no behavioural weight —
/// dropping them changes nothing about the protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PimNote {
    /// An assert election on outgoing interface `iface` resolved at this
    /// router: won (we keep forwarding) or lost (we stop until the assert
    /// timer runs out).
    AssertResolved {
        sg: Sg,
        iface: IfIndex,
        won: bool,
        peer: Ipv6Addr,
    },
    /// An assert winner overheard on the incoming interface replaced the
    /// RPF upstream neighbor.
    AssertWinnerAdopted {
        sg: Sg,
        iface: IfIndex,
        winner: Ipv6Addr,
    },
    /// We pruned ourselves toward the source.
    UpstreamPruned { sg: Sg, until: SimTime },
    /// The upstream prune lapsed; flooding resumes.
    UpstreamResumed { sg: Sg },
    /// We sent a Graft upstream and await the ack.
    UpstreamGraftPending { sg: Sg },
    /// The pending Graft was acknowledged.
    GraftAcked { sg: Sg, from: Ipv6Addr },
    /// A downstream prune took effect on `iface`.
    OifPruned {
        sg: Sg,
        iface: IfIndex,
        until: SimTime,
    },
    /// Prune state on `iface` was cleared (join, graft, member, expiry).
    OifResumed { sg: Sg, iface: IfIndex },
    /// The (S,G) entry hit its data timeout and was deleted.
    EntryExpired { sg: Sg },
    /// A new (S,G) was refused because the entry table is at capacity
    /// under [`ShedPolicy::RejectNew`].
    SgShed { sg: Sg },
    /// The stalest (S,G) entry was evicted to admit a new one under
    /// [`ShedPolicy::EvictStalest`].
    SgEvicted { sg: Sg },
}

#[derive(Debug)]
struct IfaceState {
    my_addr: Ipv6Addr,
    /// PIM neighbor -> liveness deadline.
    neighbors: BTreeMap<Ipv6Addr, SimTime>,
    /// Local group members (from MLD).
    members: BTreeSet<GroupAddr>,
}

/// Externally visible snapshot of one (S,G) entry (test/metrics support).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SgSnapshot {
    pub iif: IfIndex,
    pub upstream: Option<Ipv6Addr>,
    /// Interfaces currently forwarding.
    pub forwarding: Vec<IfIndex>,
    /// Interfaces in pruned state.
    pub pruned: Vec<IfIndex>,
    pub upstream_pruned: bool,
    /// Data-timeout deadline: the entry is deleted when this passes without
    /// data (the oracle checks no entry outlives it).
    pub expires: SimTime,
}

/// The PIM-DM protocol instance of one router. (S,G) state lives in a
/// struct-of-arrays [`SgTable`].
pub struct PimRouter {
    cfg: PimConfig,
    rng: SmallRng,
    ifaces: BTreeMap<IfIndex, IfaceState>,
    entries: SgTable,
    next_hello: Option<SimTime>,
    notes: Vec<PimNote>,
    /// (S,G) table capacity; `None` = unbounded (the default).
    budget: Option<u32>,
    shed_policy: ShedPolicy,
    /// Bumped whenever an interface's member or neighbor *set* changes —
    /// the non-table inputs of the forwarding predicate (see
    /// [`PimRouter::mutation_epoch`]).
    iface_epoch: u64,
}

impl PimRouter {
    pub fn new(cfg: PimConfig, rng: SmallRng) -> Self {
        debug_assert!(cfg.validate().is_ok(), "invalid PIM config");
        PimRouter {
            cfg,
            rng,
            ifaces: BTreeMap::new(),
            entries: SgTable::new(),
            next_hello: None,
            notes: Vec::new(),
            budget: None,
            shed_policy: ShedPolicy::default(),
            iface_epoch: 0,
        }
    }

    /// Bound the (S,G) table at `capacity` entries, shedding per `policy`.
    /// `None` restores the unbounded default.
    pub fn set_budget(&mut self, capacity: Option<u32>, policy: ShedPolicy) {
        self.budget = capacity;
        self.shed_policy = policy;
    }

    /// Drain the state-transition notes accumulated since the last call.
    pub fn take_notes(&mut self) -> Vec<PimNote> {
        std::mem::take(&mut self.notes)
    }

    /// Register an interface before `start`. `my_addr` is this router's
    /// link-local address on the interface.
    pub fn add_iface(&mut self, iface: IfIndex, my_addr: Ipv6Addr) {
        let prev = self.ifaces.insert(
            iface,
            IfaceState {
                my_addr,
                neighbors: BTreeMap::new(),
                members: BTreeSet::new(),
            },
        );
        assert!(prev.is_none(), "iface {iface} registered twice");
    }

    pub fn my_addr(&self, iface: IfIndex) -> Option<Ipv6Addr> {
        self.ifaces.get(&iface).map(|i| i.my_addr)
    }

    /// Begin operating: send initial Hellos.
    pub fn start(&mut self, now: SimTime) -> Vec<PimSend> {
        self.next_hello = Some(now + self.cfg.hello_period);
        self.hellos()
    }

    fn hellos(&self) -> Vec<PimSend> {
        self.ifaces
            .keys()
            .map(|iface| PimSend {
                iface: *iface,
                dest: PimDest::AllRouters,
                msg: PimMessage::Hello {
                    holdtime: self.cfg.hello_holdtime,
                },
            })
            .collect()
    }

    /// Number of (S,G) entries held (the paper's router state-load
    /// metric) — an O(1) occupancy counter read.
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// O(1) conservative lower bound on all (S,G) data timeouts.
    pub fn min_entry_expiry(&self) -> SimTime {
        self.entries.min_expires()
    }

    /// O(1) monotone epoch covering every input of the forwarding
    /// predicate: (S,G) table mutations plus interface member/neighbor
    /// set changes. If two reads return the same epoch, every per-entry
    /// fact derived in between (oif legality, forwarding sets) still
    /// holds — the guard that lets the oracle's 5 s poll skip the full
    /// table walk on quiescent routers.
    pub fn mutation_epoch(&self) -> u64 {
        self.entries.mutation_epoch() + self.iface_epoch
    }

    /// Snapshot of an entry for assertions and metrics.
    pub fn snapshot(&self, s: Ipv6Addr, g: GroupAddr) -> Option<SgSnapshot> {
        let slot = self.entries.slot_of((s, g))?;
        let e = self.entries.row(slot);
        let mut forwarding = Vec::new();
        let mut pruned = Vec::new();
        for (iface, oif) in &e.oifs {
            if self.oif_forwards(oif, *iface, g) {
                forwarding.push(*iface);
            }
            if matches!(oif.prune, DownstreamPrune::Pruned { .. }) {
                pruned.push(*iface);
            }
        }
        Some(SgSnapshot {
            iif: e.iif,
            upstream: e.upstream,
            forwarding,
            pruned,
            upstream_pruned: matches!(e.upstream_state, UpstreamState::Pruned { .. }),
            expires: self.entries.expires_at(slot),
        })
    }

    /// All (S,G) keys currently held.
    pub fn entry_keys(&self) -> Vec<Sg> {
        self.entries.keys().collect()
    }

    pub fn neighbor_count(&self, iface: IfIndex) -> usize {
        self.ifaces
            .get(&iface)
            .map(|i| i.neighbors.len())
            .unwrap_or(0)
    }

    fn oif_forwards(&self, oif: &OifState, iface: IfIndex, g: GroupAddr) -> bool {
        if oif.assert_loser_until.is_some() {
            return false;
        }
        let Some(st) = self.ifaces.get(&iface) else {
            return false;
        };
        // Local members keep the interface in the oif list regardless of
        // prune state: a downstream router's Prune only withdraws *its*
        // interest, never that of directly attached listeners.
        if st.members.contains(&g) {
            return true;
        }
        !st.neighbors.is_empty() && !matches!(oif.prune, DownstreamPrune::Pruned { .. })
    }

    fn forward_list(&self, key: &Sg) -> Vec<IfIndex> {
        let Some(slot) = self.entries.slot_of(*key) else {
            return Vec::new();
        };
        self.entries
            .row(slot)
            .oifs
            .iter()
            .filter(|(iface, oif)| self.oif_forwards(oif, *iface, key.1))
            .map(|(iface, _)| *iface)
            .collect()
    }

    fn ensure_entry(
        &mut self,
        s: Ipv6Addr,
        g: GroupAddr,
        now: SimTime,
        rpf: &dyn RpfLookup,
    ) -> Option<u32> {
        if let Some(slot) = self.entries.slot_of((s, g)) {
            return Some(slot);
        }
        let info = rpf.rpf(s)?;
        if let Some(cap) = self.budget {
            if self.entries.len() >= cap as usize {
                match self.shed_policy {
                    // Also taken when eviction cannot make room
                    // (capacity zero).
                    ShedPolicy::EvictStalest if let Some(victim) = self.entries.stalest() => {
                        self.entries.remove(victim);
                        self.notes.push(PimNote::SgEvicted { sg: victim });
                    }
                    _ => {
                        self.notes.push(PimNote::SgShed { sg: (s, g) });
                        return None;
                    }
                }
            }
        }
        let oifs = self
            .ifaces
            .keys()
            .filter(|i| **i != info.iif)
            .map(|i| (*i, OifState::default()))
            .collect();
        let detail = SgDetail {
            iif: info.iif,
            upstream: info.upstream,
            upstream_state: UpstreamState::Forwarding,
            oifs,
            override_join_at: None,
            last_prune_tx: None,
            iif_assert_winner: None,
        };
        let Ok(slot) = self
            .entries
            .insert((s, g), now + self.cfg.data_timeout, detail);
        Some(slot)
    }

    /// A multicast data packet for `(s, g)` arrived on `iface`. Returns the
    /// interfaces to forward it onto plus any triggered control traffic.
    pub fn on_data(
        &mut self,
        iface: IfIndex,
        s: Ipv6Addr,
        g: GroupAddr,
        now: SimTime,
        rpf: &dyn RpfLookup,
    ) -> (Vec<IfIndex>, Vec<PimSend>) {
        let mut sends = Vec::new();
        let Some(slot) = self.ensure_entry(s, g, now, rpf) else {
            return (Vec::new(), sends); // unroutable source
        };
        let key = (s, g);
        let e = self.entries.row(slot);
        if iface != e.iif {
            // Wrong interface. If we actively forward onto it, there is a
            // parallel forwarder on that LAN: start the assert process.
            let forwards_here = e
                .oif(iface)
                .map(|oif| self.oif_forwards(oif, iface, g))
                .unwrap_or(false);
            if forwards_here {
                let rate_ok = match e.oif(iface).and_then(|oif| oif.last_assert_tx) {
                    Some(t) => now.saturating_since(t) >= self.cfg.control_rate_limit,
                    None => true,
                };
                if rate_ok {
                    if let Some(info) = rpf.rpf(s) {
                        sends.push(PimSend {
                            iface,
                            dest: PimDest::AllRouters,
                            msg: PimMessage::Assert {
                                group: g,
                                source: s,
                                metric_pref: info.metric_pref,
                                metric: info.metric,
                            },
                        });
                        if let Some(oif) = self.entries.row_mut(slot).oif_mut(iface) {
                            oif.last_assert_tx = Some(now);
                        }
                    }
                }
            }
            return (Vec::new(), sends);
        }

        // Correct (RPF) interface: refresh and forward.
        self.entries.set_expires(slot, now + self.cfg.data_timeout);
        let fwd = self.forward_list(&key);
        if fwd.is_empty() {
            // No interested downstream interfaces: prune toward the source
            // (rate-limited; spec sends a Prune whenever data arrives on the
            // iif while the oif list is null).
            let e = self.entries.row_mut(slot);
            if let Some(upstream) = e.upstream {
                let rate_ok = match e.last_prune_tx {
                    Some(t) => now.saturating_since(t) >= self.cfg.control_rate_limit,
                    None => true,
                };
                if rate_ok {
                    e.last_prune_tx = Some(now);
                    let until = now + self.cfg.prune_hold_time;
                    e.upstream_state = UpstreamState::Pruned { until };
                    let iif = e.iif;
                    sends.push(PimSend {
                        iface: iif,
                        dest: PimDest::AllRouters,
                        msg: PimMessage::JoinPrune {
                            upstream,
                            joins: vec![],
                            prunes: vec![key],
                        },
                    });
                    self.notes.push(PimNote::UpstreamPruned { sg: key, until });
                }
            }
        }
        (fwd, sends)
    }

    /// A PIM control message arrived on `iface` from `from`.
    pub fn on_message(
        &mut self,
        iface: IfIndex,
        from: Ipv6Addr,
        msg: &PimMessage,
        now: SimTime,
        rpf: &dyn RpfLookup,
    ) -> Vec<PimSend> {
        match msg {
            PimMessage::Hello { holdtime } => self.on_hello(iface, from, *holdtime, now),
            PimMessage::JoinPrune {
                upstream,
                joins,
                prunes,
            } => self.on_join_prune(iface, *upstream, joins, prunes, now, rpf),
            PimMessage::Graft { upstream, entries } => {
                self.on_graft(iface, from, *upstream, entries, now, rpf)
            }
            PimMessage::GraftAck { entries, .. } => self.on_graft_ack(from, entries),
            PimMessage::Assert {
                group,
                source,
                metric_pref,
                metric,
            } => self.on_assert(
                iface,
                from,
                *source,
                *group,
                *metric_pref,
                *metric,
                now,
                rpf,
            ),
        }
    }

    fn on_hello(
        &mut self,
        iface: IfIndex,
        from: Ipv6Addr,
        holdtime: SimDuration,
        now: SimTime,
    ) -> Vec<PimSend> {
        let Some(st) = self.ifaces.get_mut(&iface) else {
            return Vec::new();
        };
        let is_new = st.neighbors.insert(from, now + holdtime).is_none();
        if is_new {
            self.iface_epoch += 1;
            // A new PIM router appeared on this link: clear prune state on
            // the interface so it receives data (it has no prune state).
            for pos in 0..self.entries.len() {
                let slot = self.entries.slot_at(pos);
                let key = self.entries.key_of(slot);
                if let Some(oif) = self.entries.row_mut(slot).oif_mut(iface) {
                    if matches!(
                        oif.prune,
                        DownstreamPrune::Pruned { .. } | DownstreamPrune::PrunePending { .. }
                    ) {
                        oif.prune = DownstreamPrune::NoInfo;
                        self.notes.push(PimNote::OifResumed { sg: key, iface });
                    }
                }
            }
        }
        Vec::new()
    }

    #[allow(clippy::too_many_arguments)]
    fn on_join_prune(
        &mut self,
        iface: IfIndex,
        upstream: Ipv6Addr,
        joins: &[Sg],
        prunes: &[Sg],
        now: SimTime,
        rpf: &dyn RpfLookup,
    ) -> Vec<PimSend> {
        let my_addr = match self.ifaces.get(&iface) {
            Some(st) => st.my_addr,
            None => return Vec::new(),
        };
        let for_me = upstream == my_addr;
        for key in prunes {
            if for_me {
                // A downstream router pruned this interface. Wait the
                // join-override window before stopping forwarding.
                if let Some(slot) = self.entries.slot_of(*key) {
                    if let Some(oif) = self.entries.row_mut(slot).oif_mut(iface) {
                        if matches!(oif.prune, DownstreamPrune::NoInfo) {
                            oif.prune = DownstreamPrune::PrunePending {
                                fire_at: now + self.cfg.prune_delay,
                            };
                        }
                    }
                }
            } else {
                // Overheard another router pruning our upstream on our iif
                // LAN. If we still need the traffic, schedule a Join
                // override at a random point inside the override window.
                let still_needed = !self.forward_list(key).is_empty();
                let window = self.cfg.prune_delay.as_nanos().saturating_mul(2) / 3;
                let delay = if window == 0 {
                    SimDuration::ZERO
                } else {
                    SimDuration::from_nanos(self.rng.random_range(0..window))
                };
                if let Some(slot) = self.entries.slot_of(*key) {
                    let e = self.entries.row_mut(slot);
                    if e.iif == iface && e.upstream == Some(upstream) && still_needed {
                        let candidate = now + delay;
                        match e.override_join_at {
                            Some(t) if t <= candidate => {}
                            _ => e.override_join_at = Some(candidate),
                        }
                    }
                }
            }
        }
        for key in joins {
            if for_me {
                // Join cancels a pending (or held) prune on this interface.
                if !self.entries.contains(*key) {
                    let _ = self.ensure_entry(key.0, key.1, now, rpf);
                }
                if let Some(slot) = self.entries.slot_of(*key) {
                    if let Some(oif) = self.entries.row_mut(slot).oif_mut(iface) {
                        if !matches!(oif.prune, DownstreamPrune::NoInfo) {
                            self.notes.push(PimNote::OifResumed { sg: *key, iface });
                        }
                        oif.prune = DownstreamPrune::NoInfo;
                    }
                }
            } else if let Some(slot) = self.entries.slot_of(*key) {
                // Another downstream router already overrode the prune:
                // suppress our own scheduled override join.
                let e = self.entries.row_mut(slot);
                if e.iif == iface {
                    e.override_join_at = None;
                }
            }
        }
        Vec::new()
    }

    fn on_graft(
        &mut self,
        iface: IfIndex,
        from: Ipv6Addr,
        upstream: Ipv6Addr,
        grafted: &[Sg],
        now: SimTime,
        rpf: &dyn RpfLookup,
    ) -> Vec<PimSend> {
        let my_addr = match self.ifaces.get(&iface) {
            Some(st) => st.my_addr,
            None => return Vec::new(),
        };
        if upstream != my_addr {
            return Vec::new();
        }
        let mut sends = Vec::new();
        let mut acked = Vec::new();
        for key in grafted {
            if !self.entries.contains(*key) {
                let _ = self.ensure_entry(key.0, key.1, now, rpf);
            }
            let Some(slot) = self.entries.slot_of(*key) else {
                continue;
            };
            let e = self.entries.row_mut(slot);
            if let Some(oif) = e.oif_mut(iface) {
                if !matches!(oif.prune, DownstreamPrune::NoInfo) {
                    self.notes.push(PimNote::OifResumed { sg: *key, iface });
                }
                oif.prune = DownstreamPrune::NoInfo;
            }
            acked.push(*key);
            // Propagate the graft upstream if we are pruned there.
            let e = self.entries.row_mut(slot);
            if let (UpstreamState::Pruned { .. }, Some(up)) = (e.upstream_state, e.upstream) {
                e.upstream_state = UpstreamState::AckPending {
                    retry_at: now + self.cfg.graft_retry,
                };
                let iif = e.iif;
                sends.push(PimSend {
                    iface: iif,
                    dest: PimDest::Unicast(up),
                    msg: PimMessage::Graft {
                        upstream: up,
                        entries: vec![*key],
                    },
                });
                self.notes.push(PimNote::UpstreamGraftPending { sg: *key });
            }
        }
        if !acked.is_empty() {
            sends.push(PimSend {
                iface,
                dest: PimDest::Unicast(from),
                msg: PimMessage::GraftAck {
                    upstream: my_addr,
                    entries: acked,
                },
            });
        }
        sends
    }

    fn on_graft_ack(&mut self, from: Ipv6Addr, entries: &[Sg]) -> Vec<PimSend> {
        for key in entries {
            if let Some(slot) = self.entries.slot_of(*key) {
                let e = self.entries.row_mut(slot);
                if matches!(e.upstream_state, UpstreamState::AckPending { .. })
                    && e.upstream == Some(from)
                {
                    e.upstream_state = UpstreamState::Forwarding;
                    self.notes.push(PimNote::GraftAcked { sg: *key, from });
                }
            }
        }
        Vec::new()
    }

    #[allow(clippy::too_many_arguments)]
    fn on_assert(
        &mut self,
        iface: IfIndex,
        from: Ipv6Addr,
        s: Ipv6Addr,
        g: GroupAddr,
        their_pref: u32,
        their_metric: u32,
        now: SimTime,
        rpf: &dyn RpfLookup,
    ) -> Vec<PimSend> {
        let mut sends = Vec::new();
        let Some(slot) = self.ensure_entry(s, g, now, rpf) else {
            return sends;
        };
        let key = (s, g);
        let my_info = rpf.rpf(s);
        let e = self.entries.row_mut(slot);
        if iface == e.iif {
            // Assert heard on the incoming interface: the winner becomes the
            // RPF neighbor for subsequent Joins/Prunes/Grafts (paper §3.1:
            // "downstream PIM-DM routers listen to the ASSERT messages and
            // store the elected forwarder").
            let theirs = (their_pref, their_metric, from);
            let adopt = match e.iif_assert_winner {
                // Lower (pref, metric) wins; ties broken by *higher* address.
                Some((p, m, a)) => {
                    (their_pref, their_metric) < (p, m)
                        || ((their_pref, their_metric) == (p, m) && from > a)
                }
                None => true,
            };
            if adopt {
                e.iif_assert_winner = Some(theirs);
                e.upstream = Some(from);
                self.notes.push(PimNote::AssertWinnerAdopted {
                    sg: key,
                    iface,
                    winner: from,
                });
            }
            return sends;
        }
        // Assert heard on an outgoing interface: compare metrics.
        let Some(my) = my_info else {
            return sends;
        };
        let my_addr = self.ifaces[&iface].my_addr;
        let i_win = (my.metric_pref, my.metric) < (their_pref, their_metric)
            || ((my.metric_pref, my.metric) == (their_pref, their_metric) && my_addr > from);
        let Some(oif) = self.entries.row_mut(slot).oif_mut(iface) else {
            return sends;
        };
        if i_win {
            oif.assert_loser_until = None;
            let rate_ok = match oif.last_assert_tx {
                Some(t) => now.saturating_since(t) >= self.cfg.control_rate_limit,
                None => true,
            };
            if rate_ok {
                oif.last_assert_tx = Some(now);
                sends.push(PimSend {
                    iface,
                    dest: PimDest::AllRouters,
                    msg: PimMessage::Assert {
                        group: g,
                        source: s,
                        metric_pref: my.metric_pref,
                        metric: my.metric,
                    },
                });
            }
        } else {
            oif.assert_loser_until = Some(now + self.cfg.assert_time);
        }
        self.notes.push(PimNote::AssertResolved {
            sg: key,
            iface,
            won: i_win,
            peer: from,
        });
        sends
    }

    /// MLD reported a membership change on `iface` for `group`.
    pub fn set_membership(
        &mut self,
        iface: IfIndex,
        group: GroupAddr,
        joined: bool,
        now: SimTime,
        _rpf: &dyn RpfLookup,
    ) -> Vec<PimSend> {
        let mut sends = Vec::new();
        {
            let Some(st) = self.ifaces.get_mut(&iface) else {
                return sends;
            };
            let changed = if joined {
                st.members.insert(group)
            } else {
                st.members.remove(&group)
            };
            if changed {
                self.iface_epoch += 1;
            }
        }
        let keys: Vec<Sg> = self.entries.keys().filter(|(_, g)| *g == group).collect();
        for key in keys {
            if joined {
                // Clear prune state on the member's interface and graft
                // upstream if we had pruned ourselves off the tree.
                let Some(slot) = self.entries.slot_of(key) else {
                    continue; // unreachable: key came from this table
                };
                let e = self.entries.row_mut(slot);
                if e.iif == iface {
                    // Members on the incoming link are served by the
                    // upstream forwarder on that link, not by us.
                    continue;
                }
                if let Some(oif) = e.oif_mut(iface) {
                    if !matches!(oif.prune, DownstreamPrune::NoInfo) {
                        self.notes.push(PimNote::OifResumed { sg: key, iface });
                    }
                    oif.prune = DownstreamPrune::NoInfo;
                }
                let e = self.entries.row_mut(slot);
                if let (UpstreamState::Pruned { .. }, Some(up)) = (e.upstream_state, e.upstream) {
                    e.upstream_state = UpstreamState::AckPending {
                        retry_at: now + self.cfg.graft_retry,
                    };
                    let iif = e.iif;
                    sends.push(PimSend {
                        iface: iif,
                        dest: PimDest::Unicast(up),
                        msg: PimMessage::Graft {
                            upstream: up,
                            entries: vec![key],
                        },
                    });
                    self.notes.push(PimNote::UpstreamGraftPending { sg: key });
                }
            } else {
                // Member left. If nothing downstream needs traffic any more,
                // prune immediately (paper §3.2: MLD "notifies the multicast
                // routing protocol", which stops forwarding).
                let now_empty = self.forward_list(&key).is_empty();
                let Some(slot) = self.entries.slot_of(key) else {
                    continue; // unreachable: key came from this table
                };
                let e = self.entries.row_mut(slot);
                if now_empty && matches!(e.upstream_state, UpstreamState::Forwarding) {
                    if let Some(up) = e.upstream {
                        let until = now + self.cfg.prune_hold_time;
                        e.upstream_state = UpstreamState::Pruned { until };
                        e.last_prune_tx = Some(now);
                        let iif = e.iif;
                        sends.push(PimSend {
                            iface: iif,
                            dest: PimDest::AllRouters,
                            msg: PimMessage::JoinPrune {
                                upstream: up,
                                joins: vec![],
                                prunes: vec![key],
                            },
                        });
                        self.notes.push(PimNote::UpstreamPruned { sg: key, until });
                    }
                }
            }
        }
        sends
    }

    /// Earliest pending protocol deadline.
    pub fn next_deadline(&self) -> Option<SimTime> {
        let mut min: Option<SimTime> = None;
        let mut consider = |t: Option<SimTime>| {
            if let Some(t) = t {
                min = Some(match min {
                    Some(m) => m.min(t),
                    None => t,
                });
            }
        };
        consider(self.next_hello);
        for st in self.ifaces.values() {
            for dl in st.neighbors.values() {
                consider(Some(*dl));
            }
        }
        for pos in 0..self.entries.len() {
            let slot = self.entries.slot_at(pos);
            consider(Some(self.entries.expires_at(slot)));
            let e = self.entries.row(slot);
            consider(e.override_join_at);
            match e.upstream_state {
                UpstreamState::Pruned { until } => consider(Some(until)),
                UpstreamState::AckPending { retry_at } => consider(Some(retry_at)),
                UpstreamState::Forwarding => {}
            }
            for (_, oif) in &e.oifs {
                match oif.prune {
                    DownstreamPrune::PrunePending { fire_at } => consider(Some(fire_at)),
                    DownstreamPrune::Pruned { until } => consider(Some(until)),
                    DownstreamPrune::NoInfo => {}
                }
                consider(oif.assert_loser_until);
            }
        }
        min
    }

    /// Fire all deadlines due at `now`.
    pub fn on_deadline(&mut self, now: SimTime, _rpf: &dyn RpfLookup) -> Vec<PimSend> {
        let mut sends = Vec::new();

        if matches!(self.next_hello, Some(t) if t <= now) {
            sends.extend(self.hellos());
            self.next_hello = Some(now + self.cfg.hello_period);
        }

        // Neighbor expiry.
        for st in self.ifaces.values_mut() {
            let before = st.neighbors.len();
            st.neighbors.retain(|_, dl| *dl > now);
            if st.neighbors.len() != before {
                self.iface_epoch += 1;
            }
        }

        // Entry timers.
        let mut expired = Vec::new();
        for pos in 0..self.entries.len() {
            let slot = self.entries.slot_at(pos);
            let key = self.entries.key_of(slot);
            if self.entries.expires_at(slot) <= now {
                expired.push(key);
                continue;
            }
            let e = self.entries.row_mut(slot);
            if matches!(e.override_join_at, Some(t) if t <= now) {
                e.override_join_at = None;
                if let Some(up) = e.upstream {
                    let iif = e.iif;
                    sends.push(PimSend {
                        iface: iif,
                        dest: PimDest::AllRouters,
                        msg: PimMessage::JoinPrune {
                            upstream: up,
                            joins: vec![key],
                            prunes: vec![],
                        },
                    });
                }
            }
            match e.upstream_state {
                UpstreamState::Pruned { until } if until <= now => {
                    // Upstream prune expired; flooding resumes.
                    e.upstream_state = UpstreamState::Forwarding;
                    self.notes.push(PimNote::UpstreamResumed { sg: key });
                }
                UpstreamState::AckPending { retry_at } if retry_at <= now => {
                    if let Some(up) = e.upstream {
                        let iif = e.iif;
                        sends.push(PimSend {
                            iface: iif,
                            dest: PimDest::Unicast(up),
                            msg: PimMessage::Graft {
                                upstream: up,
                                entries: vec![key],
                            },
                        });
                    }
                    e.upstream_state = UpstreamState::AckPending {
                        retry_at: now + self.cfg.graft_retry,
                    };
                }
                _ => {}
            }
            let e = self.entries.row_mut(slot);
            for (iface, oif) in e.oifs.iter_mut() {
                match oif.prune {
                    DownstreamPrune::PrunePending { fire_at } if fire_at <= now => {
                        let until = now + self.cfg.prune_hold_time;
                        oif.prune = DownstreamPrune::Pruned { until };
                        self.notes.push(PimNote::OifPruned {
                            sg: key,
                            iface: *iface,
                            until,
                        });
                    }
                    DownstreamPrune::Pruned { until } if until <= now => {
                        oif.prune = DownstreamPrune::NoInfo;
                        self.notes.push(PimNote::OifResumed {
                            sg: key,
                            iface: *iface,
                        });
                    }
                    _ => {}
                }
                if matches!(oif.assert_loser_until, Some(t) if t <= now) {
                    oif.assert_loser_until = None;
                }
            }
        }
        for key in expired {
            // The paper's stale-state lifetime: "only after expiration of
            // the (S,G) timer, an (S,G) entry will be deleted" (210 s).
            self.entries.remove(key);
            self.notes.push(PimNote::EntryExpired { sg: key });
        }
        self.entries.refresh_min_expires();
        sends
    }
}
