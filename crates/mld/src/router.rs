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

use crate::config::MldConfig;
use crate::message::MldMessage;
use crate::table::{min_deadline, ListenerTable, Rexmt};
use mobicast_ipv6::addr::GroupAddr;
use mobicast_sim::{ShedPolicy, SimTime};
use std::net::Ipv6Addr;

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
    /// at capacity under [`ShedPolicy::RejectNew`].
    ListenerShed { group: GroupAddr },
    /// The stalest membership was evicted to admit a new group under
    /// [`ShedPolicy::EvictStalest`].
    ListenerEvicted { group: GroupAddr },
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Role {
    Querier,
    NonQuerier,
}

/// Router-side MLD state for one interface. Memberships live in a
/// struct-of-arrays [`ListenerTable`]; the port keeps only the querier
/// machinery around it.
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
    groups: ListenerTable,
    notes: Vec<MldNote>,
    /// Listener-table capacity; `None` = unbounded (the default).
    budget: Option<u32>,
    shed_policy: ShedPolicy,
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
            startup_left: cfg.startup_query_count,
            groups: ListenerTable::new(),
            notes: Vec::new(),
            budget: None,
            shed_policy: ShedPolicy::default(),
        }
    }

    /// Bound the listener table at `capacity` entries, shedding per
    /// `policy`. `None` restores the unbounded default.
    pub fn set_budget(&mut self, capacity: Option<u32>, policy: ShedPolicy) {
        self.budget = capacity;
        self.shed_policy = policy;
    }

    /// Drain buffered transition notes (see [`MldNote`]).
    pub fn take_notes(&mut self) -> Vec<MldNote> {
        std::mem::take(&mut self.notes)
    }

    pub fn config(&self) -> &MldConfig {
        &self.cfg
    }

    /// Begin operating: emits the first startup General Query.
    pub fn start(&mut self, now: SimTime) -> Vec<RouterOutput> {
        self.next_general_query = Some(now);
        self.on_deadline(now)
    }

    pub fn is_querier(&self) -> bool {
        self.role == Role::Querier
    }

    /// Groups with listeners on this link, in address order.
    pub fn listener_groups(&self) -> impl Iterator<Item = GroupAddr> + '_ {
        self.groups.keys()
    }

    pub fn has_listener(&self, group: GroupAddr) -> bool {
        self.groups.contains(group)
    }

    /// Number of tracked group memberships (router state load metric) —
    /// an O(1) occupancy counter read.
    pub fn membership_count(&self) -> usize {
        self.groups.len()
    }

    /// O(1) conservative lower bound on all membership expiries.
    pub fn min_membership_expiry(&self) -> SimTime {
        self.groups.min_expires()
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
                        self.groups.row_mut(slot).0 = None;
                        Vec::new()
                    }
                    None => {
                        let mut out = Vec::new();
                        if let Some(cap) = self.budget {
                            if self.groups.len() >= cap as usize {
                                match self.shed_policy {
                                    // Also taken when eviction cannot make
                                    // room (capacity zero).
                                    ShedPolicy::EvictStalest
                                        if let Some(victim) = self.groups.stalest() =>
                                    {
                                        self.groups.remove(victim);
                                        self.notes.push(MldNote::ListenerEvicted { group: victim });
                                        out.push(RouterOutput::ListenerRemoved(victim));
                                    }
                                    _ => {
                                        self.notes.push(MldNote::ListenerShed { group: *group });
                                        return out;
                                    }
                                }
                            }
                        }
                        let Ok(_) = self.groups.insert(*group, expires, Rexmt::default());
                        out.push(RouterOutput::ListenerAdded(*group));
                        out
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
                let llqi = self.cfg.last_listener_query_interval;
                let count = self.cfg.last_listener_query_count;
                self.groups
                    .set_expires(slot, now + llqi.saturating_mul(u64::from(count)));
                self.groups.row_mut(slot).0 = if count > 1 {
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
        let mut min: Option<SimTime> = None;
        let mut consider = |t: Option<SimTime>| {
            if let Some(t) = t {
                min = Some(match min {
                    Some(m) => m.min(t),
                    None => t,
                });
            }
        };
        consider(self.next_general_query);
        consider(self.other_querier_deadline);
        // One linear sweep over the SoA columns.
        consider(min_deadline(&self.groups));
        min
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
                max_response_delay: self.cfg.query_response_interval,
                group: None,
            }));
            let interval = if self.startup_left > 1 {
                self.startup_left -= 1;
                self.cfg.startup_query_interval
            } else {
                self.startup_left = self.startup_left.min(1);
                self.cfg.query_interval
            };
            self.next_general_query = Some(now + interval);
        }

        // Per-group: specific-query retransmissions, then expiries — a
        // linear sweep over the table in address order.
        let mut removed = Vec::new();
        for pos in 0..self.groups.len() {
            let slot = self.groups.slot_at(pos);
            if let Some((left, at)) = self.groups.row(slot).0 {
                if at <= now {
                    out.push(RouterOutput::Send(MldMessage::Query {
                        max_response_delay: self.cfg.last_listener_query_interval,
                        group: Some(self.groups.key_of(slot)),
                    }));
                    self.groups.row_mut(slot).0 = if left > 1 {
                        Some((left - 1, now + self.cfg.last_listener_query_interval))
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

#[cfg(test)]
mod tests {
    use super::*;
    use mobicast_sim::SimDuration;

    fn g(i: u16) -> GroupAddr {
        GroupAddr::test_group(i)
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn a(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    fn querier() -> MldRouterPort {
        MldRouterPort::new(MldConfig::default(), a("fe80::10"))
    }

    fn expect_general_query(out: &[RouterOutput]) {
        assert!(
            out.iter()
                .any(|o| matches!(o, RouterOutput::Send(MldMessage::Query { group: None, .. }))),
            "expected a general query in {out:?}"
        );
    }

    #[test]
    fn startup_sends_immediate_query_then_periodic() {
        let mut r = querier();
        let out = r.start(t(0));
        expect_general_query(&out);
        // Startup: second query after startup interval (125/4 s), then 125 s.
        let d1 = r.next_deadline().unwrap();
        assert_eq!(d1, SimTime::from_nanos(31_250_000_000));
        expect_general_query(&r.on_deadline(d1));
        let d2 = r.next_deadline().unwrap();
        assert_eq!(d2, d1 + SimDuration::from_secs(125));
    }

    #[test]
    fn report_adds_listener_once() {
        let mut r = querier();
        r.start(t(0));
        let out = r.on_message(a("fe80::99"), &MldMessage::Report { group: g(1) }, t(1));
        assert_eq!(out, vec![RouterOutput::ListenerAdded(g(1))]);
        let out = r.on_message(a("fe80::98"), &MldMessage::Report { group: g(1) }, t(2));
        assert!(out.is_empty(), "second report refreshes, no new add");
        assert!(r.has_listener(g(1)));
        assert_eq!(r.membership_count(), 1);
    }

    #[test]
    fn membership_expires_after_mli_without_reports() {
        // This is the paper's leave-delay mechanism: a moved receiver is
        // noticed only after T_MLI = 260 s with defaults.
        let mut r = querier();
        r.start(t(0));
        r.on_message(a("fe80::99"), &MldMessage::Report { group: g(1) }, t(100));
        // Drain intermediate deadlines (queries) up to expiry.
        let mut removed_at = None;
        while let Some(dl) = r.next_deadline() {
            if dl > t(100) + MldConfig::default().multicast_listener_interval() {
                break;
            }
            let out = r.on_deadline(dl);
            if out.contains(&RouterOutput::ListenerRemoved(g(1))) {
                removed_at = Some(dl);
                break;
            }
        }
        assert_eq!(
            removed_at,
            Some(t(100) + SimDuration::from_secs(260)),
            "listener removed exactly at report time + T_MLI"
        );
        assert!(!r.has_listener(g(1)));
    }

    #[test]
    fn reports_refresh_expiry() {
        let mut r = querier();
        r.start(t(0));
        r.on_message(a("fe80::99"), &MldMessage::Report { group: g(1) }, t(0));
        r.on_message(a("fe80::99"), &MldMessage::Report { group: g(1) }, t(200));
        // At t=260 (original expiry) the listener must still be present.
        r.on_deadline(t(260));
        assert!(r.has_listener(g(1)));
    }

    #[test]
    fn querier_election_lowest_address_wins() {
        let mut r = querier(); // fe80::10
        r.start(t(0));
        assert!(r.is_querier());
        // A query from a higher address: we stay querier.
        r.on_message(
            a("fe80::20"),
            &MldMessage::Query {
                max_response_delay: SimDuration::from_secs(10),
                group: None,
            },
            t(1),
        );
        assert!(r.is_querier());
        // From a lower address: we yield.
        r.on_message(
            a("fe80::1"),
            &MldMessage::Query {
                max_response_delay: SimDuration::from_secs(10),
                group: None,
            },
            t(2),
        );
        assert!(!r.is_querier());
        // No general query scheduled while non-querier; only the
        // other-querier-present deadline remains (no groups).
        let dl = r.next_deadline().unwrap();
        assert_eq!(
            dl,
            t(2) + MldConfig::default().other_querier_present_interval()
        );
        // When the other querier falls silent, we take over and query again.
        let out = r.on_deadline(dl);
        expect_general_query(&out);
        assert!(r.is_querier());
    }

    #[test]
    fn querier_transitions_are_noted() {
        let mut r = querier(); // fe80::10
        r.start(t(0));
        assert!(r.take_notes().is_empty(), "no transition yet");
        r.on_message(
            a("fe80::1"),
            &MldMessage::Query {
                max_response_delay: SimDuration::from_secs(10),
                group: None,
            },
            t(1),
        );
        assert_eq!(
            r.take_notes(),
            vec![MldNote::QuerierResigned {
                other: a("fe80::1")
            }]
        );
        // A second query from the same querier is not a transition.
        r.on_message(
            a("fe80::1"),
            &MldMessage::Query {
                max_response_delay: SimDuration::from_secs(10),
                group: None,
            },
            t(2),
        );
        assert!(r.take_notes().is_empty());
        // Takeover when the other querier falls silent.
        let dl = r.next_deadline().unwrap();
        r.on_deadline(dl);
        assert_eq!(r.take_notes(), vec![MldNote::QuerierElected]);
    }

    #[test]
    fn non_querier_still_tracks_membership() {
        let mut r = querier();
        r.start(t(0));
        r.on_message(
            a("fe80::1"),
            &MldMessage::Query {
                max_response_delay: SimDuration::from_secs(10),
                group: None,
            },
            t(1),
        );
        assert!(!r.is_querier());
        let out = r.on_message(a("fe80::99"), &MldMessage::Report { group: g(2) }, t(3));
        assert_eq!(out, vec![RouterOutput::ListenerAdded(g(2))]);
    }

    #[test]
    fn done_triggers_specific_queries_then_removal() {
        let mut r = querier();
        r.start(t(0));
        r.on_message(a("fe80::99"), &MldMessage::Report { group: g(1) }, t(10));
        let out = r.on_message(a("fe80::99"), &MldMessage::Done { group: g(1) }, t(20));
        // Immediate first specific query.
        assert_eq!(
            out,
            vec![RouterOutput::Send(MldMessage::Query {
                max_response_delay: SimDuration::from_secs(1),
                group: Some(g(1)),
            })]
        );
        // Second specific query at +1 s.
        let dl = r.next_deadline().unwrap();
        assert_eq!(dl, t(21));
        let out = r.on_deadline(dl);
        assert!(out.iter().any(|o| matches!(
            o,
            RouterOutput::Send(MldMessage::Query { group: Some(gr), .. }) if *gr == g(1)
        )));
        // No report arrives: removal at 20 + 2 * LLQI = 22 s.
        let dl = r.next_deadline().unwrap();
        assert_eq!(dl, t(22));
        let out = r.on_deadline(dl);
        assert!(out.contains(&RouterOutput::ListenerRemoved(g(1))));
        // Fast leave: 2 s instead of 260 s.
    }

    #[test]
    fn report_cancels_last_listener_process() {
        let mut r = querier();
        r.start(t(0));
        r.on_message(a("fe80::99"), &MldMessage::Report { group: g(1) }, t(10));
        r.on_message(a("fe80::99"), &MldMessage::Done { group: g(1) }, t(20));
        // Another listener answers the specific query.
        r.on_message(a("fe80::98"), &MldMessage::Report { group: g(1) }, t(21));
        // Membership must survive well past the fast-leave deadline.
        r.on_deadline(t(30));
        assert!(r.has_listener(g(1)));
    }

    #[test]
    fn non_querier_ignores_done() {
        let mut r = querier();
        r.start(t(0));
        r.on_message(
            a("fe80::1"),
            &MldMessage::Query {
                max_response_delay: SimDuration::from_secs(10),
                group: None,
            },
            t(1),
        );
        r.on_message(a("fe80::99"), &MldMessage::Report { group: g(1) }, t(2));
        let out = r.on_message(a("fe80::99"), &MldMessage::Done { group: g(1) }, t(3));
        assert!(out.is_empty());
        assert!(r.has_listener(g(1)));
    }

    #[test]
    fn done_for_unknown_group_is_ignored() {
        let mut r = querier();
        r.start(t(0));
        let out = r.on_message(a("fe80::99"), &MldMessage::Done { group: g(9) }, t(1));
        assert!(out.is_empty());
    }

    #[test]
    fn tuned_query_interval_shortens_leave_detection() {
        // Paper §4.4: decreasing T_Query decreases the leave delay.
        let cfg = MldConfig::with_query_interval(SimDuration::from_secs(20));
        let mut r = MldRouterPort::new(cfg, a("fe80::10"));
        r.start(t(0));
        r.on_message(a("fe80::99"), &MldMessage::Report { group: g(1) }, t(0));
        let mut removed_at = None;
        while let Some(dl) = r.next_deadline() {
            if dl > t(120) {
                break;
            }
            if r.on_deadline(dl)
                .contains(&RouterOutput::ListenerRemoved(g(1)))
            {
                removed_at = Some(dl);
                break;
            }
        }
        assert_eq!(
            removed_at,
            Some(t(0) + cfg.multicast_listener_interval()),
            "MLI = 2*20+10 = 50 s with the tuned profile"
        );
    }

    #[test]
    fn reject_new_sheds_over_budget_reports() {
        let mut r = querier();
        r.set_budget(Some(2), ShedPolicy::RejectNew);
        let h = a("fe80::99");
        assert_eq!(
            r.on_message(h, &MldMessage::Report { group: g(1) }, t(0)),
            vec![RouterOutput::ListenerAdded(g(1))]
        );
        assert_eq!(
            r.on_message(h, &MldMessage::Report { group: g(2) }, t(1)),
            vec![RouterOutput::ListenerAdded(g(2))]
        );
        // Third distinct group: refused, established state untouched.
        assert!(r
            .on_message(h, &MldMessage::Report { group: g(3) }, t(2))
            .is_empty());
        assert!(r.has_listener(g(1)) && r.has_listener(g(2)) && !r.has_listener(g(3)));
        assert_eq!(r.take_notes(), vec![MldNote::ListenerShed { group: g(3) }]);
        // A refresh of an admitted group is never shed.
        assert!(r
            .on_message(h, &MldMessage::Report { group: g(1) }, t(3))
            .is_empty());
        assert!(r.take_notes().is_empty());
    }

    #[test]
    fn evict_stalest_makes_room_deterministically() {
        let mut r = querier();
        r.set_budget(Some(2), ShedPolicy::EvictStalest);
        let h = a("fe80::99");
        r.on_message(h, &MldMessage::Report { group: g(1) }, t(0));
        r.on_message(h, &MldMessage::Report { group: g(2) }, t(5));
        r.take_notes();
        // g(1) expires first -> it is the stalest victim.
        let out = r.on_message(h, &MldMessage::Report { group: g(3) }, t(10));
        assert_eq!(
            out,
            vec![
                RouterOutput::ListenerRemoved(g(1)),
                RouterOutput::ListenerAdded(g(3)),
            ]
        );
        assert_eq!(
            r.take_notes(),
            vec![MldNote::ListenerEvicted { group: g(1) }]
        );
        assert_eq!(r.membership_count(), 2);
    }

    #[test]
    fn evict_stalest_ties_break_on_group_order() {
        let mut r = querier();
        r.set_budget(Some(2), ShedPolicy::EvictStalest);
        let h = a("fe80::99");
        // Same expiry instant: the lower group address loses.
        r.on_message(h, &MldMessage::Report { group: g(7) }, t(0));
        r.on_message(h, &MldMessage::Report { group: g(4) }, t(0));
        r.take_notes();
        let out = r.on_message(h, &MldMessage::Report { group: g(9) }, t(1));
        assert_eq!(out[0], RouterOutput::ListenerRemoved(g(4)));
    }

    #[test]
    fn zero_capacity_evict_budget_degrades_to_reject() {
        let mut r = querier();
        r.set_budget(Some(0), ShedPolicy::EvictStalest);
        assert!(r
            .on_message(a("fe80::99"), &MldMessage::Report { group: g(1) }, t(0))
            .is_empty());
        assert_eq!(r.membership_count(), 0);
        assert_eq!(r.take_notes(), vec![MldNote::ListenerShed { group: g(1) }]);
    }
}
