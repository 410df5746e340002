//! MLD host-side state machine (RFC 2710, listener part).
//!
//! Sans-IO: the owner feeds in messages heard on the link and clock
//! deadlines; the machine returns messages to transmit. One instance per
//! host interface.
//!
//! Behaviours relevant to the paper:
//! * **Unsolicited Reports on join** — the paper recommends mobile hosts
//!   send these immediately after moving to a new link to cut the join
//!   delay from `O(T_Query)` to milliseconds.
//! * **Report suppression** — if another listener reports the group first,
//!   a host cancels its own delayed report, so a router cannot tell *which*
//!   hosts listen, only *that* someone does (this is why the leave delay
//!   exists at all).
//! * **Done on leave** — sent only when the host believes it was the last
//!   reporter. A *mobile* host that leaves the link entirely cannot send
//!   Done on the old link (paper §4.4), which the simulation models by the
//!   mover never calling [`MldHostPort::leave`].

use crate::config::{MldConfig, ROBUSTNESS, UNSOLICITED_REPORT_INTERVAL};
use crate::message::MldMessage;
use mobicast_ipv6::addr::GroupAddr;
use mobicast_sim::{SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::BTreeMap;

/// What the host machine wants transmitted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HostOutput {
    Send(MldMessage),
}

#[derive(Debug)]
struct HostGroupState {
    /// Next scheduled report transmission, if any.
    pending: Option<SimTime>,
    /// Remaining transmissions in the unsolicited join burst (including the
    /// pending one when nonzero).
    burst: u32,
    /// True if we were the most recent reporter of this group on the link.
    last_reporter: bool,
}

/// Host-side MLD state for one interface.
#[derive(Debug)]
pub struct MldHostPort {
    rng: SmallRng,
    groups: BTreeMap<GroupAddr, HostGroupState>,
}

impl MldHostPort {
    pub fn new(cfg: MldConfig, rng: SmallRng) -> Self {
        debug_assert!(cfg.validate().is_ok(), "invalid MLD config");
        MldHostPort {
            rng,
            groups: BTreeMap::new(),
        }
    }

    /// Join `group`: send an unsolicited Report immediately and schedule
    /// `RV - 1` retransmissions. Idempotent for already-joined
    /// groups.
    pub fn join(&mut self, group: GroupAddr, now: SimTime) -> Vec<HostOutput> {
        if self.groups.contains_key(&group) {
            return Vec::new();
        }
        let burst = ROBUSTNESS - 1;
        self.groups.insert(
            group,
            HostGroupState {
                pending: (burst > 0).then(|| now + UNSOLICITED_REPORT_INTERVAL),
                burst,
                last_reporter: true,
            },
        );
        vec![HostOutput::Send(MldMessage::Report { group })]
    }

    /// Join `group` without sending an unsolicited Report: the host waits
    /// for the next Query before announcing itself. This is the paper's
    /// §4.3.1 worst case ("if the mobile host is configured to wait for the
    /// next Query, it may experience quite a long join delay").
    pub fn join_quiet(&mut self, group: GroupAddr) {
        self.groups.entry(group).or_insert(HostGroupState {
            pending: None,
            burst: 0,
            last_reporter: false,
        });
    }

    /// Leave `group` deliberately (host stays on the link). Sends Done if
    /// we were the last reporter, per RFC 2710 §5.
    pub fn leave(&mut self, group: GroupAddr, _now: SimTime) -> Vec<HostOutput> {
        match self.groups.remove(&group) {
            Some(st) if st.last_reporter => {
                vec![HostOutput::Send(MldMessage::Done { group })]
            }
            _ => Vec::new(),
        }
    }

    /// The host vanished from the link (mobility). All per-link report
    /// state is dropped **without** sending Done — a moved host cannot
    /// signal the old link (paper §4.4). Returns the set of groups that
    /// were joined, so the caller can re-join them on the new link.
    pub fn depart_link(&mut self) -> Vec<GroupAddr> {
        let groups: Vec<GroupAddr> = self.groups.keys().copied().collect();
        self.groups.clear();
        groups
    }

    /// A Query was heard on the link.
    pub fn on_query(
        &mut self,
        group: Option<GroupAddr>,
        max_response_delay: SimDuration,
        now: SimTime,
    ) -> Vec<HostOutput> {
        // Deterministic iteration (BTreeMap) keeps RNG draws reproducible.
        for (g, st) in self.groups.iter_mut() {
            if let Some(q) = group {
                if q != *g {
                    continue;
                }
            }
            let delay_ns = if max_response_delay.is_zero() {
                0
            } else {
                self.rng.random_range(0..max_response_delay.as_nanos())
            };
            let candidate = now + SimDuration::from_nanos(delay_ns);
            match st.pending {
                Some(existing) if existing <= candidate => {}
                _ => st.pending = Some(candidate),
            }
        }
        Vec::new()
    }

    /// Another host's Report for `group` was heard: suppress our own.
    pub fn on_report_heard(&mut self, group: GroupAddr) {
        if let Some(st) = self.groups.get_mut(&group) {
            st.pending = None;
            st.burst = 0;
            st.last_reporter = false;
        }
    }

    /// Earliest pending transmission.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.groups.values().filter_map(|s| s.pending).min()
    }

    /// Fire everything due at `now`.
    pub fn on_deadline(&mut self, now: SimTime) -> Vec<HostOutput> {
        let mut out = Vec::new();
        for (g, st) in self.groups.iter_mut() {
            let due = matches!(st.pending, Some(t) if t <= now);
            if !due {
                continue;
            }
            out.push(HostOutput::Send(MldMessage::Report { group: *g }));
            st.last_reporter = true;
            if st.burst > 0 {
                st.burst -= 1;
            }
            st.pending = (st.burst > 0).then(|| now + UNSOLICITED_REPORT_INTERVAL);
        }
        out
    }

    pub fn is_joined(&self, group: GroupAddr) -> bool {
        self.groups.contains_key(&group)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobicast_sim::RngFactory;

    fn host(cfg: MldConfig) -> MldHostPort {
        MldHostPort::new(cfg, RngFactory::new(1).stream("host"))
    }

    fn g(i: u16) -> GroupAddr {
        GroupAddr::test_group(i)
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn join_sends_unsolicited_report_immediately() {
        let mut h = host(MldConfig::default());
        let out = h.join(g(1), t(0));
        assert_eq!(
            out,
            vec![HostOutput::Send(MldMessage::Report { group: g(1) })]
        );
        assert!(h.is_joined(g(1)));
        // Robustness 2 => one retransmission scheduled at +URI (10 s).
        assert_eq!(h.next_deadline(), Some(t(10)));
        let out = h.on_deadline(t(10));
        assert_eq!(out.len(), 1);
        assert_eq!(h.next_deadline(), None, "burst exhausted");
    }

    #[test]
    fn join_is_idempotent() {
        let mut h = host(MldConfig::default());
        h.join(g(1), t(0));
        assert!(h.join(g(1), t(1)).is_empty());
    }

    #[test]
    fn query_schedules_random_delayed_report_within_mrd() {
        let mut h = host(MldConfig::default());
        h.join(g(1), t(0));
        h.on_deadline(t(10)); // drain the join burst
        h.on_query(None, SimDuration::from_secs(10), t(100));
        let dl = h.next_deadline().expect("report scheduled");
        assert!(dl >= t(100) && dl < t(110), "delay in [0, MRD): {dl:?}");
        let out = h.on_deadline(dl);
        assert_eq!(
            out,
            vec![HostOutput::Send(MldMessage::Report { group: g(1) })]
        );
        assert_eq!(h.next_deadline(), None);
    }

    #[test]
    fn specific_query_only_matches_its_group() {
        let mut h = host(MldConfig::default());
        h.join(g(1), t(0));
        h.join(g(2), t(0));
        h.on_deadline(t(10));
        h.on_query(Some(g(2)), SimDuration::from_secs(1), t(50));
        let dl = h.next_deadline().unwrap();
        let out = h.on_deadline(dl);
        assert_eq!(
            out,
            vec![HostOutput::Send(MldMessage::Report { group: g(2) })]
        );
    }

    #[test]
    fn report_suppression() {
        let mut h = host(MldConfig::default());
        h.join(g(1), t(0));
        h.on_deadline(t(10));
        h.on_query(None, SimDuration::from_secs(10), t(100));
        assert!(h.next_deadline().is_some());
        h.on_report_heard(g(1));
        assert_eq!(h.next_deadline(), None, "suppressed by peer report");
        // Suppressed host no longer considers itself last reporter:
        let out = h.leave(g(1), t(120));
        assert!(out.is_empty(), "no Done when someone else reported last");
    }

    #[test]
    fn leave_sends_done_when_last_reporter() {
        let mut h = host(MldConfig::default());
        h.join(g(1), t(0));
        let out = h.leave(g(1), t(5));
        assert_eq!(
            out,
            vec![HostOutput::Send(MldMessage::Done { group: g(1) })]
        );
        assert!(!h.is_joined(g(1)));
    }

    #[test]
    fn depart_link_sends_nothing_and_returns_groups() {
        // Paper §4.4: "Mobile hosts cannot use the Done message when they
        // leave a link."
        let mut h = host(MldConfig::default());
        h.join(g(1), t(0));
        h.join(g(2), t(0));
        let groups = h.depart_link();
        assert_eq!(groups, vec![g(1), g(2)]);
        assert!(!h.is_joined(g(1)));
        assert_eq!(h.next_deadline(), None);
    }

    #[test]
    fn earlier_existing_report_not_postponed_by_query() {
        let mut h = host(MldConfig::default());
        h.join(g(1), t(0)); // pending retransmission at t=10
        let pending = h.next_deadline().unwrap();
        // A query with a huge MRD must not delay the earlier transmission.
        h.on_query(None, SimDuration::from_secs(10), t(5));
        assert!(h.next_deadline().unwrap() <= pending);
    }

    #[test]
    fn zero_mrd_query_means_immediate_report() {
        let mut h = host(MldConfig::default());
        h.join(g(1), t(0));
        h.on_deadline(t(10));
        h.on_query(None, SimDuration::ZERO, t(42));
        assert_eq!(h.next_deadline(), Some(t(42)));
    }

    #[test]
    fn rng_determinism_across_instances() {
        let mk = || MldHostPort::new(MldConfig::default(), RngFactory::new(9).stream("h"));
        let mut a = mk();
        let mut b = mk();
        a.join(g(1), t(0));
        b.join(g(1), t(0));
        a.on_query(None, SimDuration::from_secs(10), t(1));
        b.on_query(None, SimDuration::from_secs(10), t(1));
        assert_eq!(a.next_deadline(), b.next_deadline());
    }
}

#[cfg(test)]
mod quiet_tests {
    use super::*;
    use mobicast_sim::RngFactory;

    #[test]
    fn join_quiet_waits_for_query() {
        let mut h = MldHostPort::new(MldConfig::default(), RngFactory::new(3).stream("h"));
        let g = GroupAddr::test_group(1);
        h.join_quiet(g);
        assert!(h.is_joined(g));
        assert_eq!(h.next_deadline(), None, "no unsolicited report");
        // Only a query provokes a report.
        h.on_query(None, SimDuration::from_secs(10), SimTime::from_secs(50));
        let dl = h.next_deadline().expect("delayed report scheduled");
        let out = h.on_deadline(dl);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn join_quiet_does_not_downgrade_active_join() {
        let mut h = MldHostPort::new(MldConfig::default(), RngFactory::new(3).stream("h"));
        let g = GroupAddr::test_group(1);
        h.join(g, SimTime::ZERO);
        let pending = h.next_deadline();
        h.join_quiet(g);
        assert_eq!(h.next_deadline(), pending, "existing state untouched");
    }
}
