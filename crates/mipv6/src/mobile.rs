//! The mobile node side of Mobile IPv6 (draft-ietf-mobileip-ipv6-10,
//! simplified to what the paper's scenarios exercise).
//!
//! Movement detection is driven by Router Advertisements: when the mobile
//! node hears an RA for a prefix other than its home prefix, it forms a
//! care-of address by stateless autoconfiguration (RFC 2462) and registers
//! it with its home agent via a Binding Update. The machine optionally
//! appends the paper's Multicast Group List Sub-Option so the home agent
//! joins groups on the host's behalf (receive-via-tunnel strategies).
//! Every entry point sends at most one Binding Update; `spec.rs` holds
//! the table each one follows.

use mobicast_ipv6::addr::{GroupAddr, Prefix};
use mobicast_ipv6::exthdr::{BindingUpdate, SubOption, BU_FLAG_ACK, BU_FLAG_HOME};
use mobicast_sim::{SimDuration, SimTime};
use std::net::Ipv6Addr;

/// Default binding lifetime; the paper cites
/// `MAX_BINDACK_TIMEOUT = 256 s` from the draft.
pub const DEFAULT_BINDING_LIFETIME: SimDuration = SimDuration::from_secs(256);

/// First retransmission timeout for an unacknowledged Binding Update
/// (draft §11.8: `INITIAL_BINDACK_TIMEOUT`).
pub const INITIAL_BINDACK_TIMEOUT: SimDuration = SimDuration::from_secs(1);

/// Retransmission backoff cap (draft §11.8: `MAX_BINDACK_TIMEOUT`).
pub const MAX_BINDACK_TIMEOUT: SimDuration = SimDuration::from_secs(256);

/// Transmit a Binding Update to the current mobility agent (the home
/// agent, or a regional MAP-style agent after [`MobileNode::set_agent`]).
/// The glue wraps it in an IPv6 packet from `source` carrying a Home
/// Address option.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BuSend {
    pub home_agent: Ipv6Addr,
    pub source: Ipv6Addr,
    pub binding_update: BindingUpdate,
}

/// The last Binding Update sent, kept until acknowledged so it can be
/// retransmitted verbatim (same sequence number, draft §11.8).
#[derive(Debug)]
pub(crate) struct PendingBu {
    pub(crate) bu: BindingUpdate,
    /// When to retransmit it.
    pub(crate) at: SimTime,
    /// Current retransmission timeout; doubles per retry up to
    /// [`MAX_BINDACK_TIMEOUT`].
    pub(crate) timeout: SimDuration,
}

/// Mobile IPv6 state of one mobile host.
#[derive(Debug)]
pub struct MobileNode {
    home_address: Ipv6Addr,
    home_prefix: Prefix,
    home_agent: Ipv6Addr,
    /// Where Binding Updates currently go: the home agent by default, or a
    /// regional (MAP-style) agent selected by a hierarchical delivery
    /// policy via [`MobileNode::set_agent`].
    pub(crate) agent: Ipv6Addr,
    /// Interface identifier used for stateless autoconfiguration.
    iid: u64,
    pub(crate) sequence: u16,
    /// The care-of address while away; `None` at home.
    pub(crate) care_of: Option<Ipv6Addr>,
    /// When to refresh the binding (armed only while away).
    pub(crate) refresh_at: Option<SimTime>,
    pub(crate) pending: Option<PendingBu>,
    /// Groups to advertise in the Multicast Group List Sub-Option.
    pub(crate) groups: Vec<GroupAddr>,
    /// Whether Binding Updates carry the group list (paper Fig. 5) —
    /// enabled by the receive-via-home-tunnel strategies.
    include_group_list: bool,
    binding_updates_sent: u64,
    /// Times a fresh Binding Update replaced a still-unacknowledged one
    /// (rapid-roaming signalling churn metric).
    bu_replaced: u64,
}

impl MobileNode {
    pub fn new(
        home_address: Ipv6Addr,
        home_prefix: Prefix,
        home_agent: Ipv6Addr,
        iid: u64,
        include_group_list: bool,
    ) -> Self {
        debug_assert!(home_prefix.contains(home_address));
        MobileNode {
            home_address,
            home_prefix,
            home_agent,
            agent: home_agent,
            iid,
            sequence: 0,
            care_of: None,
            refresh_at: None,
            pending: None,
            groups: Vec::new(),
            include_group_list,
            binding_updates_sent: 0,
            bu_replaced: 0,
        }
    }

    pub fn home_address(&self) -> Ipv6Addr {
        self.home_address
    }

    pub fn home_agent(&self) -> Ipv6Addr {
        self.home_agent
    }

    /// Retarget registration at a different mobility agent (hierarchical
    /// policies: the domain MAP while roaming inside its domain, the home
    /// agent elsewhere). A no-op when `agent` is already the target.
    ///
    /// When the target changes while the node holds (or is establishing) a
    /// binding away from home, the previous agent is released with a
    /// fire-and-forget zero-lifetime Binding Update — no ack is requested
    /// because the reply would race the handoff the retarget is part of.
    /// In-flight registration state is dropped; the next Router
    /// Advertisement registers cleanly with the new agent.
    pub fn set_agent(&mut self, agent: Ipv6Addr) -> Option<BuSend> {
        if agent == self.agent {
            return None;
        }
        let old = std::mem::replace(&mut self.agent, agent);
        self.pending = None;
        self.refresh_at = None;
        let source = self.care_of?;
        self.sequence = self.sequence.wrapping_add(1);
        self.binding_updates_sent += 1;
        Some(BuSend {
            home_agent: old,
            source,
            binding_update: BindingUpdate {
                flags: BU_FLAG_HOME,
                sequence: self.sequence,
                lifetime_secs: 0,
                sub_options: Vec::new(),
            },
        })
    }

    pub fn at_home(&self) -> bool {
        self.care_of.is_none()
    }

    /// The source address this host currently uses on the wire: the care-of
    /// address when away (Mobile IPv6 §10.1), the home address at home.
    pub fn current_address(&self) -> Ipv6Addr {
        self.care_of.unwrap_or(self.home_address)
    }

    /// Signalling load metric: number of Binding Updates sent.
    pub fn binding_updates_sent(&self) -> u64 {
        self.binding_updates_sent
    }

    /// Pending (unacknowledged) Binding Updates: 0 or 1 in this
    /// single-slot implementation. Feeds the retransmit-queue
    /// high-water metric.
    pub fn pending_bu_depth(&self) -> usize {
        usize::from(self.pending.is_some())
    }

    /// Times a fresh Binding Update replaced a still-unacknowledged one.
    pub fn bu_replaced(&self) -> u64 {
        self.bu_replaced
    }

    /// Send a fresh Binding Update: a registration for
    /// [`DEFAULT_BINDING_LIFETIME`] while away, a zero-lifetime
    /// deregistration at home.
    fn build_bu(&mut self, now: SimTime) -> Option<BuSend> {
        self.sequence = self.sequence.wrapping_add(1);
        self.binding_updates_sent += 1;
        let away = !self.at_home();
        let lifetime = if away {
            DEFAULT_BINDING_LIFETIME
        } else {
            SimDuration::ZERO
        };
        let mut sub_options = Vec::new();
        if self.include_group_list && away {
            sub_options.push(SubOption::MulticastGroupList(self.groups.clone()));
        }
        let bu = BindingUpdate {
            flags: BU_FLAG_ACK | BU_FLAG_HOME,
            sequence: self.sequence,
            lifetime_secs: (lifetime.as_nanos() / 1_000_000_000) as u32,
            sub_options,
        };
        // Refresh at 80 % of the lifetime so the binding never lapses.
        self.refresh_at = away.then(|| now + lifetime.mul_f64(0.8));
        // Every BU requests an ack; retransmit until one arrives. A BU
        // still awaiting its ack is superseded, not queued.
        if self.pending.is_some() {
            self.bu_replaced += 1;
        }
        self.pending = Some(PendingBu {
            bu: bu.clone(),
            at: now + INITIAL_BINDACK_TIMEOUT,
            timeout: INITIAL_BINDACK_TIMEOUT,
        });
        Some(BuSend {
            home_agent: self.agent,
            source: self.current_address(),
            binding_update: bu,
        })
    }

    /// A Router Advertisement for `prefix` was heard on the host's
    /// interface. Performs movement detection and, when a new foreign link
    /// is detected, care-of address configuration + Binding Update; back
    /// on the home link, the binding is deregistered.
    pub fn on_router_advert(&mut self, prefix: Prefix, now: SimTime) -> Option<BuSend> {
        let care_of = (prefix != self.home_prefix).then(|| prefix.addr_with_iid(self.iid));
        if care_of == self.care_of {
            return None;
        }
        self.care_of = care_of;
        self.build_bu(now)
    }

    /// A Binding Acknowledgement arrived. An accepted ack confirms the
    /// pending Binding Update and stops its retransmission; a rejected ack
    /// (while away) triggers an immediate retry with a fresh sequence.
    pub fn on_binding_ack(&mut self, accepted: bool, now: SimTime) -> Option<BuSend> {
        self.pending = None;
        if accepted || self.at_home() {
            return None;
        }
        self.build_bu(now)
    }

    /// Update the group list the host wants its home agent to serve. While
    /// away (and when the sub-option is enabled), a fresh Binding Update
    /// carries the change immediately — the paper's extended BU.
    pub fn set_groups(&mut self, groups: Vec<GroupAddr>, now: SimTime) -> Option<BuSend> {
        self.groups = groups;
        if self.at_home() || !self.include_group_list {
            return None;
        }
        self.build_bu(now)
    }

    /// Send an unscheduled Binding Update refreshing the current binding
    /// (used by storm scripts to model BU floods: a buggy or hostile mobile
    /// re-registering far faster than the refresh timer requires). At home
    /// there is no binding to refresh, so nothing happens.
    pub fn force_refresh(&mut self, now: SimTime) -> Option<BuSend> {
        if self.at_home() {
            return None;
        }
        self.build_bu(now)
    }

    /// Next instant the machine needs a timer callback: the earlier of the
    /// binding refresh and the pending-BU retransmission.
    pub fn next_deadline(&self) -> Option<SimTime> {
        let retransmit = self.pending.as_ref().map(|p| p.at);
        match (self.refresh_at, retransmit) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Fire the timer: refresh the binding, or retransmit an
    /// unacknowledged Binding Update (same sequence number, with
    /// exponential backoff, draft §11.8). The two never fall due together:
    /// the BU that arms both puts its retries whole seconds after it and
    /// the refresh 204.8 s after it.
    pub fn on_deadline(&mut self, now: SimTime) -> Option<BuSend> {
        if self.refresh_at.is_some_and(|t| t <= now) {
            return self.build_bu(now);
        }
        let source = self.current_address();
        let p = self.pending.as_mut().filter(|p| p.at <= now)?;
        p.timeout = (p.timeout * 2).min(MAX_BINDACK_TIMEOUT);
        p.at = now + p.timeout;
        self.binding_updates_sent += 1;
        Some(BuSend {
            home_agent: self.agent,
            source,
            binding_update: p.bu.clone(),
        })
    }
}
