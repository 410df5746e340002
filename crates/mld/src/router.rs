//! MLD router-side state machine (RFC 2710, querier part).
//!
//! One instance per router interface. Tracks which multicast groups have
//! listeners on the link, elects the querier (lowest link-local address
//! wins), schedules General Queries, runs the last-listener specific-query
//! process after a Done, and expires memberships after the Multicast
//! Listener Interval — the expiry that produces the paper's **leave delay**
//! when a mobile receiver departs without being able to send Done.
//!
//! Membership changes are reported to the owner as
//! [`RouterOutput::ListenerAdded`] / [`RouterOutput::ListenerRemoved`];
//! the owner forwards them to the multicast routing protocol (PIM-DM),
//! mirroring RFC 2710 §2: "MLD provides the collected information to the
//! multicast routing protocol".

use crate::config::{
    MldConfig, LAST_LISTENER_QUERY_COUNT, LAST_LISTENER_QUERY_INTERVAL, QUERY_RESPONSE_INTERVAL,
    STARTUP_QUERY_COUNT,
};
use crate::message::MldMessage;
use mobicast_ipv6::addr::GroupAddr;
use mobicast_sim::arena::SoftTable;
use mobicast_sim::SimTime;
use std::net::Ipv6Addr;

#[cfg(test)]
#[path = "spec.rs"]
pub(crate) mod spec;

/// Outputs of the router machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouterOutput {
    Send(MldMessage),
    /// A group gained its first listener on this link.
    ListenerAdded(GroupAddr),
    /// The last listener of a group on this link is gone (timer expiry or
    /// completed last-listener query process).
    ListenerRemoved(GroupAddr),
}

/// Notable internal transitions, buffered for the owner to drain with
/// [`MldRouterPort::take_notes`]. The sans-IO machine cannot reach a tracer
/// or counter registry directly, so it records *what happened* and the
/// owning node converts the notes into typed trace events and MIB counters.
/// Notes carry no behavioural weight: dropping them changes nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MldNote {
    /// We (re)took the querier role after the other querier fell silent.
    QuerierElected,
    /// We yielded the querier role to a lower-addressed router.
    QuerierResigned { other: Ipv6Addr },
    /// A Report for a new group was refused because the listener table is
    /// at capacity.
    ListenerShed { group: GroupAddr },
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Role {
    Querier,
    NonQuerier,
}

/// Router-side MLD state for one interface: the querier machinery and
/// the memberships.
#[derive(Debug)]
pub struct MldRouterPort {
    cfg: MldConfig,
    /// Our link-local address on this interface (querier election key).
    my_addr: Ipv6Addr,
    role: Role,
    other_querier_deadline: Option<SimTime>,
    /// Next scheduled General Query (only meaningful as querier).
    next_general_query: Option<SimTime>,
    startup_left: u32,
    /// The memberships, keyed by group, in the shared struct-of-arrays
    /// [`SoftTable`]. A row is the specific-query retransmission after a
    /// Done, `(queries left, next send)`; `None` when nothing is pending.
    groups: SoftTable<GroupAddr, Option<(u32, SimTime)>>,
    notes: Vec<MldNote>,
    /// Listener-table capacity; `None` = unbounded (the default).
    budget: Option<u32>,
}

impl MldRouterPort {
    pub fn new(cfg: MldConfig, my_addr: Ipv6Addr) -> Self {
        debug_assert!(cfg.validate().is_ok(), "invalid MLD config");
        MldRouterPort {
            cfg,
            my_addr,
            role: Role::Querier,
            other_querier_deadline: None,
            next_general_query: None,
            startup_left: STARTUP_QUERY_COUNT,
            groups: SoftTable::new(),
            notes: Vec::new(),
            budget: None,
        }
    }

    /// Bound the listener table at `capacity` entries: a full table
    /// refuses Reports for new groups. `None` restores the unbounded
    /// default.
    pub fn set_budget(&mut self, capacity: Option<u32>) {
        self.budget = capacity;
    }

    /// Drain buffered transition notes (see [`MldNote`]).
    pub fn take_notes(&mut self) -> Vec<MldNote> {
        std::mem::take(&mut self.notes)
    }

    /// Begin operating: emits the first startup General Query.
    pub fn start(&mut self, now: SimTime) -> Vec<RouterOutput> {
        self.next_general_query = Some(now);
        self.on_deadline(now)
    }

    pub fn is_querier(&self) -> bool {
        self.role == Role::Querier
    }

    pub fn has_listener(&self, group: GroupAddr) -> bool {
        self.groups.contains(group)
    }

    /// Number of tracked group memberships (router state load metric) —
    /// an O(1) occupancy counter read.
    pub fn membership_count(&self) -> usize {
        self.groups.len()
    }

    /// An MLD message was heard on the link from `from`.
    pub fn on_message(
        &mut self,
        from: Ipv6Addr,
        msg: &MldMessage,
        now: SimTime,
    ) -> Vec<RouterOutput> {
        match msg {
            MldMessage::Query { .. } => {
                // Querier election: lowest address wins (RFC 2710 §6).
                if from < self.my_addr {
                    if self.role == Role::Querier {
                        self.notes.push(MldNote::QuerierResigned { other: from });
                    }
                    self.role = Role::NonQuerier;
                    self.next_general_query = None;
                    self.other_querier_deadline =
                        Some(now + self.cfg.other_querier_present_interval());
                }
                Vec::new()
            }
            MldMessage::Report { group } => {
                let expires = now + self.cfg.multicast_listener_interval();
                match self.groups.slot_of(*group) {
                    Some(slot) => {
                        self.groups.set_expires(slot, expires);
                        // A listener answered the specific query.
                        *self.groups.row_mut(slot) = None;
                        Vec::new()
                    }
                    None => {
                        if self
                            .budget
                            .is_some_and(|cap| self.groups.len() >= cap as usize)
                        {
                            self.notes.push(MldNote::ListenerShed { group: *group });
                            return Vec::new();
                        }
                        let Ok(_) = self.groups.insert(*group, expires, None);
                        vec![RouterOutput::ListenerAdded(*group)]
                    }
                }
            }
            MldMessage::Done { group } => {
                // Only the querier runs the last-listener query process.
                if self.role != Role::Querier {
                    return Vec::new();
                }
                let Some(slot) = self.groups.slot_of(*group) else {
                    return Vec::new();
                };
                let llqi = LAST_LISTENER_QUERY_INTERVAL;
                let count = LAST_LISTENER_QUERY_COUNT;
                self.groups
                    .set_expires(slot, now + llqi.saturating_mul(u64::from(count)));
                *self.groups.row_mut(slot) = if count > 1 {
                    Some((count - 1, now + llqi))
                } else {
                    None
                };
                vec![RouterOutput::Send(MldMessage::Query {
                    max_response_delay: llqi,
                    group: Some(*group),
                })]
            }
        }
    }

    /// Earliest pending deadline (query schedule, querier election fallback,
    /// membership expiry, specific-query retransmission).
    pub fn next_deadline(&self) -> Option<SimTime> {
        // One linear sweep over the SoA columns.
        let groups = self.groups.slots().map(|slot| {
            let expires = self.groups.expires_at(slot);
            self.groups
                .row(slot)
                .map_or(expires, |(_, at)| expires.min(at))
        });
        [
            self.next_general_query,
            self.other_querier_deadline,
            groups.min(),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    /// Fire all deadlines due at `now`.
    pub fn on_deadline(&mut self, now: SimTime) -> Vec<RouterOutput> {
        let mut out = Vec::new();

        // Other-querier-present timer: take over as querier.
        if matches!(self.other_querier_deadline, Some(t) if t <= now) {
            self.other_querier_deadline = None;
            self.role = Role::Querier;
            self.next_general_query = Some(now);
            self.notes.push(MldNote::QuerierElected);
        }

        // Scheduled General Query.
        if matches!(self.next_general_query, Some(t) if t <= now) {
            debug_assert_eq!(self.role, Role::Querier);
            out.push(RouterOutput::Send(MldMessage::Query {
                max_response_delay: QUERY_RESPONSE_INTERVAL,
                group: None,
            }));
            let interval = if self.startup_left > 1 {
                self.startup_left -= 1;
                self.cfg.startup_query_interval()
            } else {
                self.cfg.query_interval
            };
            self.next_general_query = Some(now + interval);
        }

        // Per-group: specific-query retransmissions, then expiries — a
        // linear sweep over the table in address order.
        let mut removed = Vec::new();
        for pos in 0..self.groups.len() {
            let slot = self.groups.slot_at(pos);
            if let Some((left, at)) = *self.groups.row(slot) {
                if at <= now {
                    out.push(RouterOutput::Send(MldMessage::Query {
                        max_response_delay: LAST_LISTENER_QUERY_INTERVAL,
                        group: Some(self.groups.key_of(slot)),
                    }));
                    *self.groups.row_mut(slot) = if left > 1 {
                        Some((left - 1, now + LAST_LISTENER_QUERY_INTERVAL))
                    } else {
                        None
                    };
                }
            }
            if self.groups.expires_at(slot) <= now {
                removed.push(self.groups.key_of(slot));
            }
        }
        for g in removed {
            self.groups.remove(g);
            out.push(RouterOutput::ListenerRemoved(g));
        }
        self.groups.refresh_min_expires();
        out
    }
}
