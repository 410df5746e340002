//! Delivery policies: the paper's four approaches to multicast for mobile
//! hosts (Table 1) plus the hierarchical proxy, as a table of values.
//!
//! The paper's approaches are the cross product of how a mobile host
//! *receives* (locally via MLD on the foreign link, or through a tunnel
//! from its mobility agent) and how it *sends* (locally on the foreign
//! link, or reverse-tunnelled to its home agent). A [`Policy`] is one row:
//! its two planes plus one flag, `regional`, which the fifth approach,
//! [`Policy::HIERARCHICAL_PROXY`], sets — register with the destination
//! link's MAP-style regional agent when it has one, so intra-domain
//! handoffs never touch the home agent. Every decision the host and agent
//! glue makes derives from those three facts.

use serde::{Deserialize, Serialize, Value};
use std::fmt;
use std::net::Ipv6Addr;
use std::str::FromStr;

/// How a mobile host away from home receives multicast traffic.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum RecvPath {
    /// §4.2.1 A: join via the local multicast router on the foreign link.
    Local,
    /// §4.2.1 B: a mobility agent (the home agent, or a regional MAP under
    /// hierarchical policies) joins on the host's behalf — extended
    /// Binding Update with the Multicast Group List Sub-Option — and
    /// tunnels group traffic to the care-of address.
    HomeTunnel,
}

/// How a mobile host away from home sends multicast traffic.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum SendPath {
    /// §4.2.2 A: send on the foreign link with the care-of address as
    /// source (a brand-new source-rooted tree is built).
    Local,
    /// §4.2.2 B: reverse-tunnel to the home agent, which decapsulates and
    /// sends on the home link (the existing tree is reused).
    HomeTunnel,
}

/// One approach to multicast delivery for mobile hosts: a row of the
/// table [`Policy::all`] lists. Equal rows are the same policy; ids are
/// the serialization format and are distinct.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Policy {
    id: &'static str,
    name: &'static str,
    recv: RecvPath,
    send: SendPath,
    /// Register with the destination link's regional agent (MAP) when it
    /// has one, instead of the home agent.
    regional: bool,
}

impl Policy {
    /// Approach 1: local group membership on the foreign link.
    pub const LOCAL: Policy = Policy {
        id: "local",
        name: "local group membership",
        recv: RecvPath::Local,
        send: SendPath::Local,
        regional: false,
    };
    /// Approach 2: bi-directional tunnel between home agent and mobile host.
    pub const BIDIRECTIONAL_TUNNEL: Policy = Policy {
        id: "bidir-tunnel",
        name: "bi-directional tunnel",
        recv: RecvPath::HomeTunnel,
        send: SendPath::HomeTunnel,
        regional: false,
    };
    /// Approach 3: uni-directional tunnel from the mobile host to the home
    /// agent (send tunnelled, receive local).
    pub const TUNNEL_MH_TO_HA: Policy = Policy {
        id: "tunnel-mh-ha",
        name: "uni-dir tunnel MH->HA",
        recv: RecvPath::Local,
        send: SendPath::HomeTunnel,
        regional: false,
    };
    /// Approach 4: uni-directional tunnel from the home agent to the mobile
    /// host (receive tunnelled, send local).
    pub const TUNNEL_HA_TO_MH: Policy = Policy {
        id: "tunnel-ha-mh",
        name: "uni-dir tunnel HA->MH",
        recv: RecvPath::HomeTunnel,
        send: SendPath::Local,
        regional: false,
    };
    /// Approach 5: hierarchical multicast proxy. A MAP-style router joins
    /// on behalf of roaming receivers in its domain and tunnels the stream
    /// over the (short) intra-domain path; handoffs between the domain's
    /// links re-register with the MAP only, so the home agent never hears
    /// about them. Outside any domain it is plain home registration
    /// (tunnelled receive, local send).
    pub const HIERARCHICAL_PROXY: Policy = Policy {
        id: "hier-proxy",
        name: "hierarchical proxy",
        recv: RecvPath::HomeTunnel,
        send: SendPath::Local,
        regional: true,
    };

    /// The paper's four approaches in Table-1 order.
    pub const PAPER: [Policy; 4] = [
        Policy::LOCAL,
        Policy::BIDIRECTIONAL_TUNNEL,
        Policy::TUNNEL_MH_TO_HA,
        Policy::TUNNEL_HA_TO_MH,
    ];

    /// Every policy, the paper's four first, then the hierarchical proxy.
    /// Sweeps and CLI flags enumerate this.
    pub fn all() -> Vec<Policy> {
        ALL.to_vec()
    }

    /// The same as [`Policy::all`]. A sweep pinned to one policy says so in
    /// its [`Settings`](crate::experiments::Settings).
    pub fn active() -> Vec<Policy> {
        Policy::all()
    }

    /// Find a policy by its stable id.
    pub fn lookup(id: &str) -> Option<Policy> {
        ALL.into_iter().find(|p| p.id == id)
    }

    /// Stable machine identifier (CLI flags, serialized output, lookups).
    pub fn id(&self) -> &'static str {
        self.id
    }

    /// Human-readable label used in tables and report rows.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// How the mobile receives group traffic while away from home.
    pub fn recv_plane(&self) -> RecvPath {
        self.recv
    }

    /// How the mobile sends group traffic while away from home.
    pub fn send_plane(&self) -> SendPath {
        self.send
    }

    /// Attach the paper's Multicast Group List Sub-Option to Binding
    /// Updates: exactly when the agent must proxy-join (tunnelled receive
    /// plane).
    pub fn include_group_list(&self) -> bool {
        self.recv == RecvPath::HomeTunnel
    }

    /// The mobility agent to register with after a move: the destination
    /// link's regional agent (`map_agent`) when the policy is regional and
    /// the link is not home, else the home agent.
    pub fn agent_after_move(
        &self,
        to_home_link: bool,
        map_agent: Option<Ipv6Addr>,
        home_agent: Ipv6Addr,
    ) -> Ipv6Addr {
        match map_agent {
            Some(map) if self.regional && !to_home_link => map,
            _ => home_agent,
        }
    }

    /// Does this approach require the paper's Mobile IPv6 draft extension
    /// (the Multicast Group List Sub-Option) or PIM-capable agents?
    /// (Static property discussed in §4.3; reported in the Table-1
    /// comparison.)
    pub fn requires_draft_changes(&self) -> bool {
        self.include_group_list()
    }
}

/// The table: the paper's four approaches in Table-1 order, then the
/// hierarchical proxy.
const ALL: [Policy; 5] = [
    Policy::LOCAL,
    Policy::BIDIRECTIONAL_TUNNEL,
    Policy::TUNNEL_MH_TO_HA,
    Policy::TUNNEL_HA_TO_MH,
    Policy::HIERARCHICAL_PROXY,
];

impl fmt::Debug for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Policy").field(&self.id).finish()
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error parsing a policy id, listing every known id.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParsePolicyError {
    input: String,
}

impl fmt::Display for ParsePolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let known: Vec<&str> = Policy::all().iter().map(|p| p.id()).collect();
        write!(
            f,
            "unknown delivery policy {:?} (registered: {})",
            self.input,
            known.join(", ")
        )
    }
}

impl std::error::Error for ParsePolicyError {}

impl FromStr for Policy {
    type Err = ParsePolicyError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Policy::lookup(s).ok_or_else(|| ParsePolicyError { input: s.into() })
    }
}

impl Serialize for Policy {
    fn to_json_value(&self) -> Value {
        Value::Str(self.id().to_string())
    }
}

impl Deserialize for Policy {
    fn from_json_value(v: &Value) -> Result<Self, serde::Error> {
        let s = v
            .as_str()
            .ok_or_else(|| serde::Error::custom("expected policy id string"))?;
        s.parse().map_err(serde::Error::custom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policies_are_distinct() {
        let all = Policy::all();
        assert!(all.len() >= 5);
        let mut ids: Vec<_> = all.iter().map(|p| p.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), all.len());
        let mut names: Vec<_> = all.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
    }

    #[test]
    fn paper_policies_lead_the_table() {
        let all = Policy::all();
        assert_eq!(&all[..4], &Policy::PAPER[..]);
        assert_eq!(all[4], Policy::HIERARCHICAL_PROXY);
    }

    #[test]
    fn ids_round_trip_via_fromstr_and_serde() {
        for p in Policy::all() {
            assert_eq!(p.id().parse::<Policy>().unwrap(), p);
            let v = p.to_json_value();
            assert_eq!(Policy::from_json_value(&v).unwrap(), p);
        }
        let err = "no-such-policy".parse::<Policy>().unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("no-such-policy") && msg.contains("local"),
            "{msg}"
        );
    }

    #[test]
    fn hier_proxy_prefers_the_domain_agent() {
        let map: Ipv6Addr = "2001:db8:3::d".parse().unwrap();
        let ha: Ipv6Addr = "2001:db8:1::a".parse().unwrap();
        let p = Policy::HIERARCHICAL_PROXY;
        assert_eq!(p.agent_after_move(false, Some(map), ha), map);
        // No MAP on the destination → fall back to the home agent.
        assert_eq!(p.agent_after_move(false, None, ha), ha);
        // Returning home always re-registers (deregisters) at the HA.
        assert_eq!(p.agent_after_move(true, Some(map), ha), ha);
        // The paper's four never leave the home agent.
        for q in Policy::PAPER {
            assert_eq!(q.agent_after_move(false, Some(map), ha), ha);
        }
        // The group list rides along: the MAP must learn what to join.
        assert!(p.include_group_list());
    }

    #[test]
    fn paper_policies_keep_their_plane_semantics() {
        assert_eq!(Policy::LOCAL.recv_plane(), RecvPath::Local);
        assert_eq!(Policy::LOCAL.send_plane(), SendPath::Local);
        assert_eq!(
            Policy::BIDIRECTIONAL_TUNNEL.recv_plane(),
            RecvPath::HomeTunnel
        );
        assert_eq!(
            Policy::BIDIRECTIONAL_TUNNEL.send_plane(),
            SendPath::HomeTunnel
        );
        assert_eq!(Policy::TUNNEL_MH_TO_HA.recv_plane(), RecvPath::Local);
        assert_eq!(Policy::TUNNEL_MH_TO_HA.send_plane(), SendPath::HomeTunnel);
        assert_eq!(Policy::TUNNEL_HA_TO_MH.recv_plane(), RecvPath::HomeTunnel);
        assert_eq!(Policy::TUNNEL_HA_TO_MH.send_plane(), SendPath::Local);
        // Group-list sub-option exactly on the tunnelled-receive approaches.
        for p in Policy::PAPER {
            assert_eq!(
                p.include_group_list(),
                p.recv_plane() == RecvPath::HomeTunnel
            );
        }
    }
}
