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

#[derive(Debug)]
pub(crate) struct HostGroupState {
    /// Next scheduled report transmission, if any.
    pub(crate) pending: Option<SimTime>,
    /// Remaining transmissions in the unsolicited join burst (including the
    /// pending one when nonzero).
    burst: u32,
    /// True if we were the most recent reporter of this group on the link.
    pub(crate) last_reporter: bool,
}

/// Host-side MLD state for one interface.
#[derive(Debug)]
pub struct MldHostPort {
    rng: SmallRng,
    pub(crate) groups: BTreeMap<GroupAddr, HostGroupState>,
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
    pub fn join(&mut self, group: GroupAddr, now: SimTime) -> Option<MldMessage> {
        if self.groups.contains_key(&group) {
            return None;
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
        Some(MldMessage::Report { group })
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
    pub fn leave(&mut self, group: GroupAddr) -> Option<MldMessage> {
        let st = self.groups.remove(&group)?;
        st.last_reporter.then_some(MldMessage::Done { group })
    }

    /// The host vanished from the link (mobility). All per-link report
    /// state is dropped **without** sending Done — a moved host cannot
    /// signal the old link (paper §4.4).
    pub fn depart_link(&mut self) {
        self.groups.clear();
    }

    /// A Query was heard on the link.
    pub fn on_query(
        &mut self,
        group: Option<GroupAddr>,
        max_response_delay: SimDuration,
        now: SimTime,
    ) {
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
    pub fn on_deadline(&mut self, now: SimTime) -> Vec<MldMessage> {
        let mut out = Vec::new();
        for (g, st) in self.groups.iter_mut() {
            let due = matches!(st.pending, Some(t) if t <= now);
            if !due {
                continue;
            }
            out.push(MldMessage::Report { group: *g });
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

    #[test]
    fn rng_determinism_across_instances() {
        let mk = || MldHostPort::new(MldConfig::default(), RngFactory::new(9).stream("h"));
        let (mut a, mut b) = (mk(), mk());
        let (g, t) = (GroupAddr::test_group(1), SimTime::from_secs(1));
        a.join(g, SimTime::ZERO);
        b.join(g, SimTime::ZERO);
        a.on_query(None, SimDuration::from_secs(10), t);
        b.on_query(None, SimDuration::from_secs(10), t);
        assert_eq!(a.next_deadline(), b.next_deadline());
    }
}
