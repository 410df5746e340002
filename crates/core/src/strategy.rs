//! Delivery policies: the paper's four approaches to multicast for mobile
//! hosts (Table 1) plus an open registry for approaches beyond them.
//!
//! The paper's approaches are the cross product of how a mobile host
//! *receives* (locally via MLD on the foreign link, or through a tunnel
//! from its mobility agent) and how it *sends* (locally on the foreign
//! link, or reverse-tunnelled to its home agent). Rather than hardwiring
//! that 2×2 everywhere, the host/agent glue consults a [`DeliveryPolicy`]
//! — an object-safe trait whose hooks ([`DeliveryPolicy::recv_plane`],
//! [`DeliveryPolicy::send_plane`], [`DeliveryPolicy::on_move`],
//! [`DeliveryPolicy::binding_update_extras`]) cover every decision the
//! glue used to switch on. The four paper approaches are four registered
//! policies; a fifth, [`Policy::HIERARCHICAL_PROXY`], registers a
//! MAP-style regional agent so intra-domain handoffs never touch the home
//! agent. Adding approach N+1 means one `impl DeliveryPolicy` plus a line
//! in the static registry — sweeps, CLI flags and report labels pick it up
//! from there.

use serde::{Deserialize, Serialize, Value};
use std::fmt;
use std::net::Ipv6Addr;
use std::str::FromStr;
use std::sync::{Mutex, MutexGuard, PoisonError};

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

/// Extra content a policy wants carried in Binding Updates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BuExtras {
    /// Attach the paper's Multicast Group List Sub-Option, so the mobility
    /// agent learns which groups to proxy-join on the host's behalf.
    pub include_group_list: bool,
}

/// What the host glue knows when a mobile attaches to a new link, handed
/// to [`DeliveryPolicy::on_move`].
#[derive(Clone, Copy, Debug)]
pub struct MoveContext {
    /// The destination is the mobile's home link.
    pub to_home_link: bool,
    /// The mobile's home agent address.
    pub home_agent: Ipv6Addr,
    /// Regional mobility agent (MAP) serving the destination link, if the
    /// network advertises one there.
    pub map_agent: Option<Ipv6Addr>,
}

/// A policy's registration decision on attach, returned by
/// [`DeliveryPolicy::on_move`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MoveAction {
    /// Bind the new care-of address at the home agent (plain Mobile IPv6).
    RegisterHome,
    /// Bind at a regional mobility agent instead; the home agent is left
    /// untouched while the mobile stays inside the agent's domain.
    RegisterWithAgent(Ipv6Addr),
}

/// One approach to multicast delivery for mobile hosts.
///
/// Object-safe: the simulation stores policies as `&'static dyn
/// DeliveryPolicy` (see [`Policy`]). Implementations are stateless —
/// per-host state lives in the host, keyed by what these hooks return.
/// The provided defaults derive every secondary property from the two
/// planes, so a plane-only policy needs nothing but `id`, `name`,
/// `recv_plane` and `send_plane`.
pub trait DeliveryPolicy: Sync {
    /// Stable machine identifier (CLI flags, serialized output, lookups).
    fn id(&self) -> &'static str;

    /// Human-readable label used in tables and report rows.
    fn name(&self) -> &'static str;

    /// How the mobile receives group traffic while away from home.
    fn recv_plane(&self) -> RecvPath;

    /// How the mobile sends group traffic while away from home.
    fn send_plane(&self) -> SendPath;

    /// Which mobility agent the mobile registers with after a move.
    fn on_move(&self, _ctx: &MoveContext) -> MoveAction {
        MoveAction::RegisterHome
    }

    /// Extra Binding Update content. By default the Multicast Group List
    /// Sub-Option rides along exactly when the agent must proxy-join
    /// (tunnelled receive plane).
    fn binding_update_extras(&self) -> BuExtras {
        BuExtras {
            include_group_list: self.recv_plane() == RecvPath::HomeTunnel,
        }
    }

    /// Does this approach require the paper's Mobile IPv6 draft extension
    /// (the Multicast Group List Sub-Option) or PIM-capable agents?
    /// (Static property discussed in §4.3; reported in the Table-1
    /// comparison.)
    fn requires_draft_changes(&self) -> bool {
        self.binding_update_extras().include_group_list
    }

    /// Is routing to mobile *receivers* optimal under this approach (§4.3)?
    fn receiver_routing_optimal(&self) -> bool {
        self.recv_plane() == RecvPath::Local
    }

    /// Is routing from mobile *senders* optimal under this approach?
    fn sender_routing_optimal(&self) -> bool {
        self.send_plane() == SendPath::Local
    }

    /// Does a moving sender force a new distribution tree (flood + prune)?
    fn sender_move_rebuilds_tree(&self) -> bool {
        self.send_plane() == SendPath::Local
    }
}

/// A handle to a registered [`DeliveryPolicy`] — `Copy`, comparable by
/// [`DeliveryPolicy::id`], and `Deref`s to the trait so hook calls read
/// naturally (`policy.recv_plane()`).
#[derive(Clone, Copy)]
pub struct Policy(&'static dyn DeliveryPolicy);

/// One of the paper's plane-product approaches: everything derives from
/// the `(recv, send)` pair.
struct PlanePolicy {
    id: &'static str,
    name: &'static str,
    recv: RecvPath,
    send: SendPath,
}

impl DeliveryPolicy for PlanePolicy {
    fn id(&self) -> &'static str {
        self.id
    }
    fn name(&self) -> &'static str {
        self.name
    }
    fn recv_plane(&self) -> RecvPath {
        self.recv
    }
    fn send_plane(&self) -> SendPath {
        self.send
    }
}

static LOCAL_POLICY: PlanePolicy = PlanePolicy {
    id: "local",
    name: "local group membership",
    recv: RecvPath::Local,
    send: SendPath::Local,
};
static BIDIR_POLICY: PlanePolicy = PlanePolicy {
    id: "bidir-tunnel",
    name: "bi-directional tunnel",
    recv: RecvPath::HomeTunnel,
    send: SendPath::HomeTunnel,
};
static MH_HA_POLICY: PlanePolicy = PlanePolicy {
    id: "tunnel-mh-ha",
    name: "uni-dir tunnel MH->HA",
    recv: RecvPath::Local,
    send: SendPath::HomeTunnel,
};
static HA_MH_POLICY: PlanePolicy = PlanePolicy {
    id: "tunnel-ha-mh",
    name: "uni-dir tunnel HA->MH",
    recv: RecvPath::HomeTunnel,
    send: SendPath::Local,
};

/// Approach 5: hierarchical multicast proxy. A MAP-style router joins on
/// behalf of roaming receivers in its domain and tunnels the stream over
/// the (short) intra-domain path; handoffs between the domain's links
/// re-register with the MAP only, so the home agent never hears about
/// them. Outside any domain the policy degrades to plain home
/// registration (bi-directional-tunnel receive, local send).
struct HierarchicalProxy;

impl DeliveryPolicy for HierarchicalProxy {
    fn id(&self) -> &'static str {
        "hier-proxy"
    }
    fn name(&self) -> &'static str {
        "hierarchical proxy"
    }
    fn recv_plane(&self) -> RecvPath {
        RecvPath::HomeTunnel
    }
    fn send_plane(&self) -> SendPath {
        SendPath::Local
    }
    fn on_move(&self, ctx: &MoveContext) -> MoveAction {
        match (ctx.to_home_link, ctx.map_agent) {
            (false, Some(map)) => MoveAction::RegisterWithAgent(map),
            _ => MoveAction::RegisterHome,
        }
    }
}

static HIER_POLICY: HierarchicalProxy = HierarchicalProxy;

/// Process-global single-approach override backing the experiment
/// binaries' `--approach <id>` flag (see [`set_approach_override`]).
static APPROACH_OVERRIDE: Mutex<Option<Policy>> = Mutex::new(None);

/// Pin policy-sweeping experiments to a single approach — the `--approach
/// <id>` CLI flag of `exp_all` / `exp_stress`. `None` restores the full
/// registry sweep. Affects [`Policy::active`] only; [`Policy::all`] and
/// [`Policy::PAPER`] always report the complete sets.
pub fn set_approach_override(policy: Option<Policy>) {
    *lock_override() = policy;
}

/// The approach pinned by [`set_approach_override`], if any.
pub fn approach_override() -> Option<Policy> {
    *lock_override()
}

/// A poisoned guard is recovered: the slot holds a `Copy` value, which no
/// panic can leave half-written.
fn lock_override() -> MutexGuard<'static, Option<Policy>> {
    APPROACH_OVERRIDE
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Every policy, in registration order (the paper's four first, then
/// extensions). Ids are the serialization format and must stay distinct.
static REGISTRY: [Policy; 5] = [
    Policy::LOCAL,
    Policy::BIDIRECTIONAL_TUNNEL,
    Policy::TUNNEL_MH_TO_HA,
    Policy::TUNNEL_HA_TO_MH,
    Policy::HIERARCHICAL_PROXY,
];

impl Policy {
    /// Approach 1: local group membership on the foreign link.
    pub const LOCAL: Policy = Policy(&LOCAL_POLICY);
    /// Approach 2: bi-directional tunnel between home agent and mobile host.
    pub const BIDIRECTIONAL_TUNNEL: Policy = Policy(&BIDIR_POLICY);
    /// Approach 3: uni-directional tunnel from the mobile host to the home
    /// agent (send tunnelled, receive local).
    pub const TUNNEL_MH_TO_HA: Policy = Policy(&MH_HA_POLICY);
    /// Approach 4: uni-directional tunnel from the home agent to the mobile
    /// host (receive tunnelled, send local).
    pub const TUNNEL_HA_TO_MH: Policy = Policy(&HA_MH_POLICY);
    /// Approach 5: hierarchical multicast proxy (regional MAP agent).
    pub const HIERARCHICAL_PROXY: Policy = Policy(&HIER_POLICY);

    /// The paper's four approaches in Table-1 order.
    pub const PAPER: [Policy; 4] = [
        Policy::LOCAL,
        Policy::BIDIRECTIONAL_TUNNEL,
        Policy::TUNNEL_MH_TO_HA,
        Policy::TUNNEL_HA_TO_MH,
    ];

    /// Every registered policy, in registration order (the paper's four
    /// first, then extensions). Sweeps and CLI flags enumerate this.
    pub fn all() -> Vec<Policy> {
        REGISTRY.to_vec()
    }

    /// The policies a sweep should cover: the single [`approach_override`]
    /// when one is pinned, otherwise every registered policy.
    pub fn active() -> Vec<Policy> {
        approach_override().map_or_else(Policy::all, |p| vec![p])
    }

    /// Find a registered policy by its stable id.
    pub fn lookup(id: &str) -> Option<Policy> {
        REGISTRY.iter().copied().find(|p| p.id() == id)
    }
}

impl std::ops::Deref for Policy {
    type Target = dyn DeliveryPolicy;
    fn deref(&self) -> &Self::Target {
        self.0
    }
}

impl PartialEq for Policy {
    fn eq(&self, other: &Self) -> bool {
        self.id() == other.id()
    }
}

impl Eq for Policy {}

impl fmt::Debug for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Policy").field(&self.id()).finish()
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error parsing a policy id, listing the registered ids.
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
    fn registered_policies_are_distinct() {
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
    fn paper_policies_lead_the_registry() {
        let all = Policy::all();
        assert_eq!(&all[..4], &Policy::PAPER[..]);
        assert_eq!(all[4], Policy::HIERARCHICAL_PROXY);
    }

    #[test]
    fn table1_static_properties() {
        // §4.3.1: local membership — optimal routing, no draft changes.
        assert!(Policy::LOCAL.receiver_routing_optimal());
        assert!(Policy::LOCAL.sender_routing_optimal());
        assert!(!Policy::LOCAL.requires_draft_changes());
        assert!(Policy::LOCAL.sender_move_rebuilds_tree());

        // §4.3.2: bi-directional tunnel — suboptimal both ways, needs the
        // sub-option, no tree rebuild.
        assert!(!Policy::BIDIRECTIONAL_TUNNEL.receiver_routing_optimal());
        assert!(!Policy::BIDIRECTIONAL_TUNNEL.sender_routing_optimal());
        assert!(Policy::BIDIRECTIONAL_TUNNEL.requires_draft_changes());
        assert!(!Policy::BIDIRECTIONAL_TUNNEL.sender_move_rebuilds_tree());

        // §4.3.3: MH->HA — optimal receive, suboptimal send, no changes.
        assert!(Policy::TUNNEL_MH_TO_HA.receiver_routing_optimal());
        assert!(!Policy::TUNNEL_MH_TO_HA.sender_routing_optimal());
        assert!(!Policy::TUNNEL_MH_TO_HA.requires_draft_changes());

        // §4.3.4: HA->MH — "combines most disadvantages".
        assert!(!Policy::TUNNEL_HA_TO_MH.receiver_routing_optimal());
        assert!(Policy::TUNNEL_HA_TO_MH.sender_move_rebuilds_tree());
        assert!(Policy::TUNNEL_HA_TO_MH.requires_draft_changes());
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
        let ctx = MoveContext {
            to_home_link: false,
            home_agent: ha,
            map_agent: Some(map),
        };
        assert_eq!(p.on_move(&ctx), MoveAction::RegisterWithAgent(map));
        // No MAP on the destination → fall back to the home agent.
        assert_eq!(
            p.on_move(&MoveContext {
                map_agent: None,
                ..ctx
            }),
            MoveAction::RegisterHome
        );
        // Returning home always re-registers (deregisters) at the HA.
        assert_eq!(
            p.on_move(&MoveContext {
                to_home_link: true,
                ..ctx
            }),
            MoveAction::RegisterHome
        );
        // The group list rides along: the MAP must learn what to join.
        assert!(p.binding_update_extras().include_group_list);
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
                p.binding_update_extras().include_group_list,
                p.recv_plane() == RecvPath::HomeTunnel
            );
        }
    }
}
