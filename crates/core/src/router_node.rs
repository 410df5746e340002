//! The composed router node: IPv6 forwarding + MLD router + PIM-DM +
//! home agent, wired to the simulated network.
//!
//! This is the paper's "router" — every router is simultaneously a PIM-DM
//! router and a home agent (paper §4.2: "The five routers act as PIM-DM
//! routers and home agents"). The home-agent proxy membership is realised
//! with an embedded MLD *host* port per interface, so proxy subscriptions
//! behave exactly like a listener on the home link: they answer queries,
//! are suppressed by other listeners' reports, and send Done when the
//! binding (and thus the proxied membership) goes away.

use crate::netplan::{self, frame_for, RoutingTable};
use crate::node_kit::{
    self, account_note, malformed, mld_packet, span_close, span_open, Malformed, Note, TimerSlot,
};
use crate::parsed::{parsed, Layers, Upper};
use crate::recorder::SharedRecorder;
use bytes::Bytes;
use mobicast_ipv6::addr::{self, GroupAddr, Prefix};
use mobicast_ipv6::icmpv6::{
    AdvertisedPrefix, Icmpv6, PARAM_PROBLEM_ERRONEOUS_FIELD, PARAM_PROBLEM_UNRECOGNIZED_OPTION,
};
use mobicast_ipv6::packet::{proto, Packet};
use mobicast_ipv6::tunnel;
use mobicast_mipv6::{packets as mip_packets, HaOutput, HomeAgent};
use mobicast_mld::{MldConfig, MldHostPort, MldMessage, MldRouterPort, RouterOutput};
use mobicast_net::{Ctx, Frame, IfIndex, LinkId, NodeBehavior, NodeId, TimerKey};
use mobicast_pimdm::{PimConfig, PimDest, PimMessage, PimNote, PimRouter, PimSend, RpfLookup};
use mobicast_sim::{
    bump, counter, Counter, Counters, RateLimit, RngFactory, SimDuration, SimTime, SpanId, Stage,
    TokenBucket, TraceCategory,
};
use std::any::Any;
use std::cell::OnceCell;
use std::net::Ipv6Addr;

/// One kind of control message: its name, the recorder counter
/// `<prefix><kind>` and the MIB counter.
type PerKind = (&'static str, &'static Counter, &'static Counter);
macro_rules! per_kind {
    ($prefix:literal, $kind:literal, $mib:literal) => {
        ($kind, counter!(concat!($prefix, $kind)), counter!($mib))
    };
}
macro_rules! rate_limited {
    ($kind:literal, $mib:literal) => {
        per_kind!("overload.rate_limited.", $kind, $mib)
    };
}

/// Timer keys used by router nodes.
const TIMER_MLD: u64 = 1;
const TIMER_PIM: u64 = 2;
const TIMER_HA: u64 = 3;
const TIMER_RA: u64 = 4;
/// RA responses are `TIMER_RA_RESPONSE + ifindex`.
const TIMER_RA_RESPONSE: u64 = 0x100;

/// Period of unsolicited Router Advertisements.
const RA_INTERVAL: SimDuration = SimDuration::from_secs(1);
/// Delay before answering a Router Solicitation.
const RA_RESPONSE_DELAY: SimDuration = SimDuration::from_millis(20);

/// Per-node control-plane resource budget: capacities for every state
/// table a router keeps (a full table refuses the newcomer; established
/// state is never disturbed) and an optional token-bucket rate limit on
/// control-plane ingress.
///
/// The default budget is unbounded (every field `None`): behaviour is then
/// bit-for-bit identical to a router without admission control — no RNG
/// draws, no counters, no trace events.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ResourceBudget {
    /// Cap on MLD listener entries *per interface port*.
    pub mld_listeners: Option<u32>,
    /// Cap on PIM (S,G) entries.
    pub pim_sg_entries: Option<u32>,
    /// Cap on home-agent binding-cache entries.
    pub binding_cache: Option<u32>,
    /// Token-bucket limit on control-plane ingress (MLD Report/Done,
    /// PIM Join/Prune/Graft/Assert, Binding Updates) — one shared bucket
    /// per router.
    pub control_rate: Option<RateLimit>,
    /// Bound the simulator event-queue high-water mark (checked by the
    /// oracle, not enforced by the router).
    pub event_queue_depth: Option<u64>,
}

impl ResourceBudget {
    pub fn validate(&self) -> Result<(), String> {
        if let Some(rl) = &self.control_rate {
            rl.validate()?;
        }
        if self.event_queue_depth == Some(0) {
            return Err("event_queue_depth must be at least 1".into());
        }
        Ok(())
    }
}

/// Router behaviour configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct RouterConfig {
    pub mld: MldConfig,
    pub pim: PimConfig,
    /// Control-plane resource budget (default: unbounded).
    pub budget: ResourceBudget,
}

/// Static interface facts.
#[derive(Clone, Copy, Debug)]
pub struct RouterIfaceInfo {
    pub link: LinkId,
    pub prefix: Prefix,
    pub ll: Ipv6Addr,
    pub global: Ipv6Addr,
}

/// The Router Advertisement a router sends on the interface `info`
/// describes, solicited or not.
fn router_advert(info: &RouterIfaceInfo) -> Packet {
    let ra = Icmpv6::RouterAdvert {
        router_lifetime_secs: 1800,
        prefixes: vec![AdvertisedPrefix {
            prefix: info.prefix,
            autonomous: true,
            valid_lifetime_secs: 86_400,
            preferred_lifetime_secs: 14_400,
        }],
    };
    let body = ra.encode(info.ll, addr::ALL_NODES);
    Packet::new(info.ll, addr::ALL_NODES, proto::ICMPV6, body).with_hop_limit(255)
}

/// Everything a router keeps per interface. `RouterNode::ports` is
/// indexed by the dense `IfIndex` that `RouterNode::new` assigns `0..n`.
struct Port {
    info: RouterIfaceInfo,
    mld: MldRouterPort,
    /// HA proxy listener state.
    proxy: MldHostPort,
    /// A solicited Router Advertisement is waiting for its response delay.
    ra_pending: bool,
    /// The Router Advertisement frame — bytes and parse memo — built by
    /// the first send and cloned by every later one: prefix, lifetimes,
    /// source and destination never change. (Not built in `new`: world
    /// construction is timed, and many built routers never run.)
    ra_frame: OnceCell<Frame>,
}

/// The composed router node behaviour.
pub struct RouterNode {
    pub id: NodeId,
    cfg: RouterConfig,
    ports: Vec<Port>,
    table: RoutingTable,
    pim: PimRouter,
    ha: HomeAgent,
    /// Shared control-plane ingress rate limiter (None = unlimited).
    bucket: Option<TokenBucket>,
    recorder: SharedRecorder,
    mld_timer: TimerSlot,
    pim_timer: TimerSlot,
    ha_timer: TimerSlot,
    /// High-water mark of (S,G) entries (paper: router storage load).
    pub max_sg_entries: usize,
    /// Open `graft` spans keyed by (S,G): opened when the upstream graft
    /// goes pending, closed by the matching ack. Linear search — routers
    /// hold at most a handful of simultaneous pending grafts.
    graft_spans: Vec<(mobicast_pimdm::Sg, SpanId)>,
    /// RFC-MIB-flavoured per-node counters (camelCase names), snapshotted
    /// into `RunReport.node_stats` at the end of a run.
    mib: Counters,
    /// What `record_high_waters` last wrote to each of its gauges in `mib`
    /// (`None`: not created yet).
    high_waters: [Option<usize>; 3],
}

impl RouterNode {
    pub fn new(
        id: NodeId,
        cfg: RouterConfig,
        ifaces: Vec<RouterIfaceInfo>,
        table: RoutingTable,
        rng: &RngFactory,
        recorder: SharedRecorder,
    ) -> Self {
        let mut pim = PimRouter::new(cfg.pim, rng.indexed_stream("pim-router", u64::from(id.0)));
        pim.set_budget(cfg.budget.pim_sg_entries);
        let port = |(i, info): (usize, RouterIfaceInfo)| {
            let ifx = i as IfIndex;
            pim.add_iface(ifx, info.ll);
            let mut mld = MldRouterPort::new(cfg.mld, info.ll);
            mld.set_budget(cfg.budget.mld_listeners);
            let proxy_rng = rng.indexed_stream("ha-proxy", u64::from(id.0) * 16 + u64::from(ifx));
            Port {
                info,
                mld,
                proxy: MldHostPort::new(cfg.mld, proxy_rng),
                ra_pending: false,
                ra_frame: OnceCell::new(),
            }
        };
        let ports = ifaces.into_iter().enumerate().map(port).collect();
        let mut ha = HomeAgent::new();
        ha.set_budget(cfg.budget.binding_cache);
        RouterNode {
            id,
            cfg,
            ports,
            table,
            pim,
            ha,
            bucket: cfg.budget.control_rate.map(TokenBucket::new),
            recorder,
            mld_timer: TimerSlot::default(),
            pim_timer: TimerSlot::default(),
            ha_timer: TimerSlot::default(),
            max_sg_entries: 0,
            graft_spans: Vec::new(),
            mib: Counters::new(),
            high_waters: [None; 3],
        }
    }

    /// Per-node MIB-style counters maintained by this behavior.
    pub fn mib(&self) -> &Counters {
        &self.mib
    }

    /// Immutable access to the home-agent state (metrics).
    pub fn home_agent(&self) -> &HomeAgent {
        &self.ha
    }

    /// Immutable access to the PIM instance (assertions in tests).
    pub fn pim(&self) -> &PimRouter {
        &self.pim
    }

    /// The configured control-plane resource budget.
    pub fn budget(&self) -> &ResourceBudget {
        &self.cfg.budget
    }

    /// Tokens left in the control-plane rate limiter right now (`None`
    /// when the router runs unlimited). Gauge samplers poll this.
    pub fn bucket_available(&self) -> Option<u32> {
        self.bucket.as_ref().map(|b| b.available())
    }

    fn mld_listener_counts(&self) -> impl Iterator<Item = usize> + '_ {
        self.ports.iter().map(|p| p.mld.membership_count())
    }

    /// Total MLD listener entries across all router ports (the
    /// bounded-memory oracle polls this against the budget).
    pub fn mld_listener_total(&self) -> usize {
        self.mld_listener_counts().sum()
    }

    /// Largest single-port MLD listener table (the per-port cap applies
    /// per interface, so the oracle bound is on the max, not the sum).
    pub fn mld_listener_port_max(&self) -> usize {
        self.mld_listener_counts().max().unwrap_or(0)
    }

    /// Admit one control-plane message through the shared token bucket.
    /// Returns false when the message must be shed; the drop is counted
    /// (MIB + recorder ground truth) and traced.
    fn admit_control(&mut self, ctx: &mut Ctx<'_>, (kind, limited, mib): PerKind) -> bool {
        let Some(bucket) = self.bucket.as_mut() else {
            return true;
        };
        if bucket.try_take(ctx.now()) {
            return true;
        }
        self.recorder.bump(limited, 1);
        self.mib.bump(mib, 1);
        ctx.trace_event(TraceCategory::Overload, "rate_limited", || {
            vec![("kind", kind.into())]
        });
        false
    }

    /// Update the per-table high-water gauges (snapshotted into
    /// `RunReport.node_stats` and reconciled against the budget). Runs after
    /// every frame and timer, so `mib` — cold memory on a large topology —
    /// is touched only when a reading rises (or on the first call, which
    /// creates each gauge even at 0). A data frame can grow the (S,G) table
    /// only, so after one (`data`) only that table is read once every gauge
    /// exists.
    fn record_high_waters(&mut self, data: bool) {
        let all = !data || self.high_waters[0].is_none();
        let listeners = all.then(|| self.mld_listener_port_max());
        let bindings = all.then(|| self.ha.binding_count());
        let readings = [
            (counter!("mldListenersHighWater"), listeners),
            (counter!("pimSgHighWater"), Some(self.pim.entry_count())),
            (counter!("bindingCacheHighWater"), bindings),
        ];
        for ((gauge, value), recorded) in readings.into_iter().zip(&mut self.high_waters) {
            let Some(value) = value else { continue };
            if recorded.is_none_or(|r| value > r) {
                self.mib.raise(gauge, value as u64);
                *recorded = Some(value);
            }
        }
    }

    /// Account notes drained from a protocol machine, right after the
    /// interaction that buffered them. All a note does beyond its
    /// `account_note` row: a graft going pending opens its span (one per
    /// pending (S,G): retransmissions stay inside it), the ack closes it.
    fn drain_notes(&mut self, ctx: &mut Ctx<'_>, notes: impl Iterator<Item = Note>) {
        let outer = ctx.stage(Stage::Account);
        for note in notes {
            account_note(ctx, &mut self.mib, &self.recorder, &note);
            match note {
                Note::Pim(PimNote::UpstreamGraftPending { sg })
                    if !self.graft_spans.iter().any(|(k, _)| *k == sg) =>
                {
                    let id = span_open(ctx, &self.recorder, "graft", ctx.now(), None);
                    self.recorder.span_annotate(id, "src", sg.0.to_string());
                    self.recorder
                        .span_annotate(id, "group", sg.1.addr().to_string());
                    self.graft_spans.push((sg, id));
                }
                Note::Pim(PimNote::GraftAcked { sg, .. }) => {
                    if let Some(pos) = self.graft_spans.iter().position(|(k, _)| *k == sg) {
                        let (_, id) = self.graft_spans.remove(pos);
                        span_close(ctx, &self.recorder, id, "graft");
                    }
                }
                _ => {}
            }
        }
        ctx.stage(outer);
    }

    pub fn iface_info(&self, ifx: IfIndex) -> &RouterIfaceInfo {
        &self.ports[usize::from(ifx)].info
    }

    fn iface_containing(&self, a: Ipv6Addr) -> Option<IfIndex> {
        self.ports
            .iter()
            .position(|p| p.info.prefix.contains(a))
            .map(|i| i as IfIndex)
    }

    fn is_my_addr(&self, a: Ipv6Addr) -> bool {
        self.ports
            .iter()
            .any(|p| p.info.ll == a || p.info.global == a)
    }

    /// [`node_kit::transmit`] as this router.
    fn transmit(&self, ctx: &mut Ctx<'_>, oifs: &[IfIndex], frame: &Frame, parent: Option<u64>) {
        node_kit::transmit(ctx, &self.recorder, self.id, oifs, frame, parent);
    }

    /// [`node_kit::emit`] as this router.
    fn emit(
        &self,
        ctx: &mut Ctx<'_>,
        ifx: IfIndex,
        packet: &Packet,
        l2_to: Option<NodeId>,
        parent: Option<u64>,
    ) {
        node_kit::emit(ctx, &self.recorder, self.id, ifx, packet, l2_to, parent);
    }

    fn emit_pim(&mut self, ctx: &mut Ctx<'_>, send: &PimSend) {
        let src = self.iface_info(send.iface).ll;
        let (dst, l2) = match send.dest {
            PimDest::AllRouters => (addr::ALL_PIM_ROUTERS, None),
            PimDest::Unicast(a) => (a, netplan::node_of_addr(a)),
        };
        let body = send.msg.encode(src, dst);
        let packet = Packet::new(src, dst, proto::PIM, body).with_hop_limit(1);
        let (kind, sent, mib): PerKind = match send.msg {
            PimMessage::Hello { .. } => per_kind!("pim.sent.", "hello", "pimHellosSent"),
            PimMessage::JoinPrune { ref joins, .. } if joins.is_empty() => {
                per_kind!("pim.sent.", "prune", "pimPrunesSent")
            }
            PimMessage::JoinPrune { .. } => per_kind!("pim.sent.", "join", "pimJoinsSent"),
            PimMessage::Assert { .. } => per_kind!("pim.sent.", "assert", "pimAssertsSent"),
            PimMessage::Graft { .. } => per_kind!("pim.sent.", "graft", "pimGraftsSent"),
            PimMessage::GraftAck { .. } => per_kind!("pim.sent.", "graft_ack", "pimGraftAcksSent"),
        };
        ctx.in_stage(Stage::Account, || {
            self.recorder.bump(sent, 1);
            self.mib.bump(mib, 1);
        });
        ctx.trace_event(TraceCategory::Pim, "pim_tx", || {
            vec![
                ("kind", kind.into()),
                ("iface", u64::from(send.iface).into()),
            ]
        });
        self.emit(ctx, send.iface, &packet, l2, None);
    }

    fn emit_mld(&mut self, ctx: &mut Ctx<'_>, ifx: IfIndex, src: Ipv6Addr, msg: MldMessage) {
        let (_, sent, mib): PerKind = match msg {
            MldMessage::Query { .. } => per_kind!("mld.sent.", "query", "mldOutQueries"),
            MldMessage::Report { .. } => per_kind!("mld.sent.", "report", "mldOutReports"),
            MldMessage::Done { .. } => per_kind!("mld.sent.", "done", "mldOutDones"),
        };
        ctx.in_stage(Stage::Account, || {
            self.recorder.bump(sent, 1);
            self.mib.bump(mib, 1);
        });
        let packet = mld_packet(src, msg);
        self.emit(ctx, ifx, &packet, None, None);
    }

    fn pim_sends(&mut self, ctx: &mut Ctx<'_>, sends: Vec<PimSend>) {
        for s in &sends {
            self.emit_pim(ctx, s);
        }
        self.max_sg_entries = self.max_sg_entries.max(self.pim.entry_count());
        let notes = self.pim.take_notes();
        self.drain_notes(ctx, notes.into_iter().map(Note::Pim));
    }

    /// Apply MLD router-port outputs for `ifx`.
    fn apply_mld_outputs(&mut self, ctx: &mut Ctx<'_>, ifx: IfIndex, outs: Vec<RouterOutput>) {
        let port = usize::from(ifx);
        let notes = self.ports[port].mld.take_notes();
        self.drain_notes(ctx, notes.into_iter().map(|n| Note::Mld(ifx, n)));
        for o in outs {
            match o {
                RouterOutput::Send(msg) => {
                    let src = self.ports[port].info.ll;
                    self.emit_mld(ctx, ifx, src, msg);
                    // Our own HA proxy listener must hear our own queries
                    // (a node does not receive its own frames) — on a
                    // single-router home link the proxy membership would
                    // otherwise expire after T_MLI and collapse the tree.
                    if let MldMessage::Query {
                        max_response_delay,
                        group,
                    } = msg
                    {
                        let proxy = &mut self.ports[port].proxy;
                        proxy.on_query(group, max_response_delay, ctx.now());
                    }
                }
                RouterOutput::ListenerAdded(g) => {
                    ctx.trace(TraceCategory::Mld, || {
                        format!("listener for {g} appeared on if{ifx}")
                    });
                    ctx.in_stage(Stage::Account, || {
                        bump!(self.recorder, "mld.listener_added")
                    });
                    let sends = self
                        .pim
                        .set_membership(ifx, g, true, ctx.now(), &self.table);
                    self.pim_sends(ctx, sends);
                }
                RouterOutput::ListenerRemoved(g) => {
                    ctx.trace(TraceCategory::Mld, || {
                        format!("listener for {g} gone from if{ifx}")
                    });
                    ctx.in_stage(Stage::Account, || {
                        bump!(self.recorder, "mld.listener_removed")
                    });
                    let sends = self
                        .pim
                        .set_membership(ifx, g, false, ctx.now(), &self.table);
                    self.pim_sends(ctx, sends);
                }
            }
        }
    }

    /// Apply MLD host-port (HA proxy) outputs: transmit on the link and
    /// loop back into our own router port (a node does not hear its own
    /// frames).
    fn apply_proxy_outputs(
        &mut self,
        ctx: &mut Ctx<'_>,
        ifx: IfIndex,
        outs: impl IntoIterator<Item = MldMessage>,
    ) {
        for msg in outs {
            let src = self.iface_info(ifx).global;
            self.emit_mld(ctx, ifx, src, msg);
            ctx.in_stage(Stage::Account, || bump!(self.recorder, "ha.proxy_mld_sent"));
            let port = &mut self.ports[usize::from(ifx)];
            let router_outs = port.mld.on_message(src, &msg, ctx.now());
            self.apply_mld_outputs(ctx, ifx, router_outs);
        }
    }

    /// Release the HA proxy membership of `g` on `ifx`, traced as `role`'s
    /// doing when a Binding Update (not a lifetime expiry) is the cause.
    fn proxy_leave(&mut self, ctx: &mut Ctx<'_>, ifx: IfIndex, g: GroupAddr, role: Option<&str>) {
        if let Some(role) = role {
            ctx.trace(TraceCategory::MobileIp, || {
                format!("{role} proxy-leaves {g} on if{ifx}")
            });
        }
        let outs = self.ports[usize::from(ifx)].proxy.leave(g);
        self.apply_proxy_outputs(ctx, ifx, outs);
    }

    /// Release the proxy membership of `g` wherever it is held: machine
    /// outputs that lack the home address (expiry), or a regional binding
    /// whose join anchor may have drifted with the care-of address.
    fn proxy_leave_everywhere(&mut self, ctx: &mut Ctx<'_>, g: GroupAddr, role: Option<&str>) {
        for port in 0..self.ports.len() {
            if self.ports[port].proxy.is_joined(g) {
                self.proxy_leave(ctx, port as IfIndex, g, role);
            }
        }
    }

    /// Is this router the *home* agent for `home` (the address is on one of
    /// our links), as opposed to a regional MAP serving a visiting mobile?
    fn is_home_for(&self, home: Ipv6Addr) -> bool {
        self.iface_containing(home).is_some()
    }

    /// Apply home-agent machine outputs for a Binding Update from
    /// `care_of` covering `home`. Proxy membership anchors on the home
    /// interface when we are the home agent; a regional MAP has no home
    /// interface for the mobile, so the join anchors on the interface its
    /// care-of route leaves through — pulling the PIM-DM tree toward the
    /// visited region.
    fn apply_ha_outputs(
        &mut self,
        ctx: &mut Ctx<'_>,
        home: Ipv6Addr,
        care_of: Ipv6Addr,
        outs: Vec<HaOutput>,
    ) {
        let role = if self.is_home_for(home) { "HA" } else { "MAP" };
        for o in outs {
            match o {
                HaOutput::SendBindingAck { care_of, home, ack } => {
                    // Source the ack from the global address of the
                    // interface the care-of route leaves on.
                    let Some(route) = self.table.lookup(care_of) else {
                        continue;
                    };
                    let src = self.iface_info(route.iface).global;
                    let packet = mip_packets::binding_ack_packet(src, care_of, ack);
                    ctx.in_stage(Stage::Account, || {
                        bump!(self.recorder, "ha.binding_acks_sent");
                        bump!(self.mib, "haBindingAcksSent");
                    });
                    ctx.trace_event(TraceCategory::MobileIp, "back_tx", || {
                        vec![("home", home.into()), ("care_of", care_of.into())]
                    });
                    self.route_unicast(ctx, &packet, None, None);
                }
                HaOutput::ProxyJoin(g) => {
                    let anchor = self
                        .iface_containing(home)
                        .or_else(|| self.table.lookup(care_of).map(|r| r.iface));
                    let Some(ifx) = anchor else {
                        continue;
                    };
                    ctx.trace(TraceCategory::MobileIp, || {
                        format!("{role} proxy-joins {g} on if{ifx}")
                    });
                    let outs = self.ports[usize::from(ifx)].proxy.join(g, ctx.now());
                    self.apply_proxy_outputs(ctx, ifx, outs);
                }
                HaOutput::ProxyLeave(g) => match self.iface_containing(home) {
                    Some(ifx) => self.proxy_leave(ctx, ifx, g, Some(role)),
                    None => self.proxy_leave_everywhere(ctx, g, Some(role)),
                },
            }
        }
    }

    /// RFC 8200 §4.2: discard a packet carrying an unrecognized option whose
    /// high-order type bits demand it, sending ICMPv6 Parameter Problem
    /// code 2 when required. Returns true if the packet was discarded.
    fn drop_for_unknown_option(
        &mut self,
        ctx: &mut Ctx<'_>,
        ifx: IfIndex,
        layers: &Layers,
    ) -> bool {
        let Some((action, pointer)) = layers.unknown_option_problem() else {
            return false;
        };
        let packet = layers.packet();
        bump!(self.recorder, "router.unknown_option_drops");
        bump!(self.mib, "unknownOptionDrops");
        ctx.trace_event(TraceCategory::Fault, "unknown_option", || {
            vec![
                ("src", packet.src.into()),
                ("pointer", u64::from(pointer).into()),
                ("action", format!("{action:?}").into()),
            ]
        });
        // RFC 4443 §2.4: never answer a packet whose source cannot be a
        // valid destination for the error report.
        if action.sends_icmp(packet.is_multicast())
            && !packet.src.is_unspecified()
            && !addr::is_multicast(packet.src)
        {
            let src = self.iface_info(ifx).global;
            let body = Icmpv6::ParamProblem {
                code: PARAM_PROBLEM_UNRECOGNIZED_OPTION,
                pointer,
            }
            .encode(src, packet.src);
            let report = Packet::new(src, packet.src, proto::ICMPV6, body);
            bump!(self.recorder, "router.param_problem_sent");
            bump!(self.mib, "paramProblemsSent");
            self.route_unicast(ctx, &report, None, None);
        }
        true
    }

    /// Encapsulate `inner`, whose encoding is `inner_wire`, toward `dst`,
    /// enforcing the RFC 2473 Tunnel Encapsulation Limit. On refusal the
    /// packet is discarded and an ICMPv6 Parameter Problem (code 0, pointer
    /// at the exhausted limit option, RFC 2473 §6.7) is sent to the inner
    /// source.
    fn encap_checked(
        &mut self,
        ctx: &mut Ctx<'_>,
        src: Ipv6Addr,
        dst: Ipv6Addr,
        inner: &Packet,
        inner_wire: Bytes,
    ) -> Option<Packet> {
        match tunnel::encapsulate_limited_wire(src, dst, inner, inner_wire) {
            Ok(outer) => {
                ctx.in_stage(Stage::Account, || bump!(self.mib, "tunnelEncaps"));
                ctx.trace_event(TraceCategory::MobileIp, "tunnel_encap", || {
                    vec![("dst", dst.into()), ("inner_src", inner.src.into())]
                });
                Some(outer)
            }
            Err(tunnel::EncapLimitExceeded) => {
                bump!(self.recorder, "tunnel.encap_limit_exceeded");
                ctx.trace(TraceCategory::MobileIp, || {
                    format!("encap limit exhausted tunnelling {} to {dst}", inner.src)
                });
                // Pointer: fixed header (40) + destination-options header
                // (2) = offset of the Tunnel Encapsulation Limit option.
                let body = Icmpv6::ParamProblem {
                    code: PARAM_PROBLEM_ERRONEOUS_FIELD,
                    pointer: 42,
                }
                .encode(src, inner.src);
                let report = Packet::new(src, inner.src, proto::ICMPV6, body);
                bump!(self.recorder, "tunnel.param_problem_sent");
                self.route_unicast(ctx, &report, None, None);
                None
            }
        }
    }

    /// Forward a unicast packet according to the routing table, applying
    /// home-agent interception for destinations on attached (home) links.
    /// `arrived` is the frame `packet` was parsed from, when it is being
    /// forwarded rather than originated or decapsulated here: its bytes go
    /// back on the wire (`netplan::forwarded`) instead of an encoding.
    fn route_unicast(
        &mut self,
        ctx: &mut Ctx<'_>,
        packet: &Packet,
        arrived: Option<&Frame>,
        parent: Option<u64>,
    ) {
        if netplan::hop_limit(packet, arrived) <= 1 {
            bump!(self.recorder, "router.hop_limit_drops");
            return;
        }
        let Some(route) = self.table.lookup(packet.dst) else {
            bump!(self.recorder, "router.no_route_drops");
            return;
        };
        // Home-agent interception: destination is on an attached link and
        // has a binding — tunnel to the care-of address instead.
        if route.next_hop.is_none() && !tunnel::is_tunnel(packet) {
            if let Some(coa) = self.ha.intercept(packet.dst) {
                if coa != packet.dst {
                    let Some(out_route) = self.table.lookup(coa) else {
                        return;
                    };
                    let src = self.iface_info(out_route.iface).global;
                    let (inner, wire) = wire_of(packet, arrived);
                    let Some(outer) = self.encap_checked(ctx, src, coa, &inner, wire) else {
                        return;
                    };
                    bump!(self.recorder, "ha.unicast_tunnel_encap");
                    self.route_unicast(ctx, &outer, None, parent);
                    return;
                }
            }
        }
        let l2 = route
            .next_hop_node
            .or_else(|| netplan::node_of_addr(packet.dst));
        let frame = ctx.in_stage(Stage::Emit, || one_hop_on(packet, arrived, l2));
        self.transmit(ctx, &[route.iface], &frame, parent);
    }

    /// Handle an accepted or flooded multicast data packet, which arrived
    /// in `arrived`.
    fn handle_multicast_data(
        &mut self,
        ctx: &mut Ctx<'_>,
        ifx: IfIndex,
        packet: &Packet,
        arrived: &Frame,
    ) {
        let Some(group) = GroupAddr::try_new(packet.dst) else {
            return;
        };
        // Link-scope multicast is never routed.
        if addr::multicast_scope(packet.dst) <= Some(2) {
            return;
        }
        let s = packet.src;
        let now = ctx.now();
        let (fwd, sends) = self.pim.on_data(ifx, s, group, now, &self.table);
        ctx.in_stage(Stage::Account, || {
            bump!(self.recorder, "router.mcast_data_processed")
        });
        self.pim_sends(ctx, sends);
        let parent = (arrived.tag != 0).then_some(arrived.tag);
        if !self.forward_multicast(ctx, packet, Some((ifx, arrived)), group, fwd, parent) {
            bump!(self.recorder, "router.hop_limit_drops");
        }
    }

    /// The tail of multicast data handling, native or decapsulated:
    /// forward `packet` out of `fwd` and send a unicast copy to every
    /// mobile host subscribed through us — of native data only if it came
    /// in on its RPF interface (checked only when someone is subscribed).
    /// Native data comes with its ingress interface and the frame it
    /// arrived in. Returns false, having done neither, when there is
    /// somewhere to forward to but no hop limit left.
    fn forward_multicast(
        &mut self,
        ctx: &mut Ctx<'_>,
        packet: &Packet,
        native: Option<(IfIndex, &Frame)>,
        group: GroupAddr,
        fwd: Vec<IfIndex>,
        parent: Option<u64>,
    ) -> bool {
        let arrived = native.map(|(_, frame)| frame);
        if !fwd.is_empty() {
            if netplan::hop_limit(packet, arrived) <= 1 {
                return false;
            }
            // One frame for the whole decision, one transmission per oif.
            let frame = ctx.in_stage(Stage::Emit, || one_hop_on(packet, arrived, None));
            self.transmit(ctx, &fwd, &frame, parent);
        }
        // Home-agent multicast tunnelling: one unicast copy per subscribed
        // mobile host (paper §4.3.2 — this is where the "same datagrams
        // sent via unicast to each group member" cost comes from).
        let accepted = |(ifx, _)| self.table.rpf(packet.src).is_some_and(|i| i.iif == ifx);
        if self.ha.has_group_subscribers(group) && native.is_none_or(accepted) {
            let targets = self.ha.multicast_tunnel_targets(group);
            // One inner encoding for every target.
            let mut wire = None;
            for (home, coa) in targets {
                let Some(out_route) = self.table.lookup(coa) else {
                    continue;
                };
                let src = self.iface_info(out_route.iface).global;
                let (inner, bytes) = wire.get_or_insert_with(|| wire_of(packet, arrived));
                let Some(outer) = self.encap_checked(ctx, src, coa, inner, bytes.clone()) else {
                    continue;
                };
                ctx.in_stage(Stage::Account, || {
                    if self.is_home_for(home) {
                        bump!(self.recorder, "ha.mcast_tunnel_encap");
                    } else {
                        bump!(self.recorder, "map.mcast_tunnel_encap");
                        bump!(self.mib, "mapTunnelEncaps");
                    }
                });
                self.route_unicast(ctx, &outer, None, parent);
            }
        }
        true
    }

    /// A packet addressed to this router itself. `tag` is the provenance
    /// tag of the arriving frame.
    fn handle_local(&mut self, ctx: &mut Ctx<'_>, layers: &Layers, tag: u64) {
        let now = ctx.now();
        let packet = layers.packet();
        // Reverse tunnel endpoint: decapsulate and forward on the home link.
        if let Upper::Tunnel(inner) = layers.upper() {
            let inner = match inner {
                Ok(inner) => inner,
                Err(err) => {
                    bump!(self.recorder, "ha.decap_errors");
                    bump!(self.mib, "tunnelDecapErrors");
                    malformed(ctx, &mut self.mib, Malformed::Tunnel(packet.src), err);
                    return;
                }
            };
            ctx.in_stage(Stage::Account, || {
                bump!(self.recorder, "ha.tunnel_decap");
                bump!(self.mib, "tunnelDecaps");
            });
            ctx.trace_event(TraceCategory::MobileIp, "tunnel_decap", || {
                vec![
                    ("outer_src", packet.src.into()),
                    ("inner_src", inner.src.into()),
                    ("inner_dst", inner.dst.into()),
                ]
            });
            let parent = (tag != 0).then_some(tag);
            if inner.is_multicast() {
                // Paper §4.2.2 B: "The home agent then decapsulates the
                // inner datagram and forwards it on the home link. From
                // there, the datagram is distributed … over the usual
                // multicast distribution tree."
                let Some(home_ifx) = self.iface_containing(inner.src) else {
                    bump!(self.recorder, "ha.decap_no_home_link");
                    return;
                };
                let mut onto_link = inner.clone();
                if onto_link.hop_limit > 1 {
                    onto_link.hop_limit -= 1;
                    self.emit(ctx, home_ifx, &onto_link, None, parent);
                } else {
                    bump!(self.recorder, "router.hop_limit_drops");
                }
                // Process it ourselves as the origin router on the home
                // link (our own transmission is not looped back to us).
                self.handle_multicast_data_from_decap(ctx, home_ifx, inner, parent);
            } else {
                self.route_unicast(ctx, inner, None, parent);
            }
            return;
        }
        // Binding updates.
        let update = ctx.in_stage(Stage::Parse, || layers.binding_update());
        if let Some(&(home, ref bu)) = update {
            ctx.trace_event(TraceCategory::MobileIp, "bu_rx", || {
                vec![
                    ("home", home.into()),
                    ("care_of", packet.src.into()),
                    ("seq", u64::from(bu.sequence).into()),
                ]
            });
            ctx.in_stage(Stage::Account, || {
                if self.is_home_for(home) {
                    bump!(self.recorder, "ha.binding_updates_rx");
                    bump!(self.mib, "haBindingUpdatesRx");
                } else {
                    bump!(self.recorder, "map.binding_updates_rx");
                    bump!(self.mib, "mapBindingUpdatesRx");
                }
            });
            if !self.admit_control(ctx, rate_limited!("bu", "buRateLimited")) {
                return;
            }
            let outs = self.ha.on_binding_update(home, packet.src, bu, now);
            let notes = self.ha.take_notes();
            self.drain_notes(ctx, notes.into_iter().map(Note::Ha));
            self.apply_ha_outputs(ctx, home, packet.src, outs);
            self.arm_ha(ctx);
        }
    }

    /// Multicast data entering via our own decapsulation: like
    /// `handle_multicast_data`, but the logical ingress is the home link.
    fn handle_multicast_data_from_decap(
        &mut self,
        ctx: &mut Ctx<'_>,
        home_ifx: IfIndex,
        packet: &Packet,
        parent: Option<u64>,
    ) {
        let Some(group) = GroupAddr::try_new(packet.dst) else {
            return;
        };
        let now = ctx.now();
        let (fwd, sends) = self
            .pim
            .on_data(home_ifx, packet.src, group, now, &self.table);
        self.pim_sends(ctx, sends);
        if !self.forward_multicast(ctx, packet, None, group, fwd, parent) {
            bump!(self.recorder, "router.hop_limit_drops");
        }
    }

    fn send_router_advert(&mut self, ctx: &mut Ctx<'_>, ifx: IfIndex) {
        ctx.in_stage(Stage::Account, || bump!(self.recorder, "nd.ra_sent"));
        let outer = ctx.stage(Stage::Emit);
        let port = &self.ports[usize::from(ifx)];
        let frame = port.ra_frame.get_or_init(|| {
            let frame = frame_for(&router_advert(&port.info), None);
            // Parsed before the first clone, so that every send shares it.
            let _ = parsed(&frame).map(Layers::upper);
            frame
        });
        ctx.send(ifx, frame.clone());
        ctx.stage(outer);
    }

    fn arm_mld(&mut self, ctx: &mut Ctx<'_>) {
        let deadlines = |p: &Port| [p.mld.next_deadline(), p.proxy.next_deadline()];
        let next = self.ports.iter().flat_map(deadlines).flatten().min();
        self.mld_timer.arm(ctx, TIMER_MLD, next);
    }

    fn arm_pim(&mut self, ctx: &mut Ctx<'_>) {
        let next = self.pim.next_deadline();
        self.pim_timer.arm(ctx, TIMER_PIM, next);
    }

    fn arm_ha(&mut self, ctx: &mut Ctx<'_>) {
        let next = self.ha.next_deadline();
        self.ha_timer.arm(ctx, TIMER_HA, next);
    }
}

/// `packet`, which arrived in `arrived` if it is being forwarded, one hop
/// on: the arriving frame with the hop limit one lower when its bytes may
/// go on the wire again as they are, else `packet` so decremented and
/// encoded. The caller has checked the hop limit is above 1.
fn one_hop_on(packet: &Packet, arrived: Option<&Frame>, l2_to: Option<NodeId>) -> Frame {
    arrived
        .and_then(|frame| netplan::forwarded(frame, l2_to))
        .unwrap_or_else(|| {
            let next = Packet {
                hop_limit: netplan::hop_limit(packet, arrived) - 1,
                ..packet.clone()
            };
            frame_for(&next, l2_to)
        })
}

/// `packet`, which arrived in `arrived` if it is being forwarded, as it is
/// on the wire, and its encoding: the wire it arrived in when that may go
/// on the wire again as it is, else a new one.
fn wire_of(packet: &Packet, arrived: Option<&Frame>) -> (Packet, Bytes) {
    let packet = Packet {
        hop_limit: netplan::hop_limit(packet, arrived),
        ..packet.clone()
    };
    let wire = arrived.and_then(netplan::intact);
    let wire = wire.unwrap_or_else(|| packet.encode());
    (packet, wire)
}

impl NodeBehavior for RouterNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let sends = self.pim.start(now);
        self.pim_sends(ctx, sends);
        for port in 0..self.ports.len() {
            let outs = self.ports[port].mld.start(now);
            self.apply_mld_outputs(ctx, port as IfIndex, outs);
        }
        // Stagger the first RA slightly per router so LANs with several
        // routers do not advertise in lockstep.
        let stagger = SimDuration::from_millis(u64::from(self.id.0) * 7 + 3);
        ctx.set_timer_at(now + stagger, TimerKey(TIMER_RA));
        self.arm_mld(ctx);
        self.arm_pim(ctx);
        self.arm_ha(ctx);
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, ifx: IfIndex, frame: &Frame) {
        ctx.stage(Stage::Parse);
        let layers = match parsed(frame) {
            Ok(layers) => layers,
            Err(err) => {
                bump!(self.recorder, "router.decode_errors");
                malformed(ctx, &mut self.mib, Malformed::Frame("ipv6", frame), err);
                return;
            }
        };
        let packet = layers.packet();
        // Gate order, router: damaged signalling, then unknown option (a
        // host runs the two the other way round). A frame that is both
        // counts under the first gate only, so the order is part of what
        // the counters mean.
        //
        // Binding Updates and Acknowledgements carry a mandatory
        // authenticator (draft-ietf-mobileip-ipv6-10 §4.4); any in-flight
        // mutation fails verification, so a damaged copy must never install
        // or acknowledge binding state. Dropped at the first receiving node
        // — forwarding would re-encode the bytes and lose the marker. The
        // sender's BU retransmission machinery recovers the lost update.
        if frame.damaged && layers.is_binding_signalling() {
            bump!(self.recorder, "ha.bu_auth_failed");
            bump!(self.mib, "buAuthFailures");
            ctx.trace_event(TraceCategory::MobileIp, "bu_auth_failed", || {
                vec![("src", packet.src.into()), ("dst", packet.dst.into())]
            });
            return;
        }
        if self.drop_for_unknown_option(ctx, ifx, layers) {
            return;
        }
        let now = ctx.now();
        let upper = layers.upper();
        ctx.stage(Stage::Protocol);
        match upper {
            Upper::Pim(msg) => {
                if packet.dst == addr::ALL_PIM_ROUTERS || self.is_my_addr(packet.dst) {
                    match msg {
                        Ok(msg) => {
                            ctx.in_stage(Stage::Account, || bump!(self.mib, "pimInMessages"));
                            // Hellos and Graft-Acks keep neighbor and
                            // retransmit state sane; only the state-building
                            // messages compete for the ingress budget.
                            let limited = matches!(
                                msg,
                                PimMessage::JoinPrune { .. }
                                    | PimMessage::Graft { .. }
                                    | PimMessage::Assert { .. }
                            );
                            if limited
                                && !self.admit_control(ctx, rate_limited!("pim", "pimRateLimited"))
                            {
                                return;
                            }
                            let sends = self.pim.on_message(ifx, packet.src, msg, now, &self.table);
                            self.pim_sends(ctx, sends);
                            self.arm_pim(ctx);
                        }
                        Err(err) => {
                            bump!(self.recorder, "router.pim_decode_errors");
                            malformed(ctx, &mut self.mib, Malformed::Frame("pim", frame), err);
                        }
                    }
                }
            }
            Upper::Icmpv6(icmp) => {
                let icmp = match icmp {
                    Ok(i) => i,
                    Err(err) => {
                        bump!(self.recorder, "router.icmp_decode_errors");
                        malformed(ctx, &mut self.mib, Malformed::Frame("icmpv6", frame), err);
                        return;
                    }
                };
                if let Some(msg) = MldMessage::from_icmp(icmp) {
                    ctx.in_stage(Stage::Account, || match msg {
                        MldMessage::Query { .. } => bump!(self.mib, "mldInQueries"),
                        MldMessage::Report { .. } => bump!(self.mib, "mldInReports"),
                        MldMessage::Done { .. } => bump!(self.mib, "mldInDones"),
                    });
                    // Queries drive the querier election and must never be
                    // shed; listener-state traffic (Report/Done) competes
                    // for the ingress budget.
                    let limited = !matches!(msg, MldMessage::Query { .. });
                    if limited && !self.admit_control(ctx, rate_limited!("mld", "mldRateLimited")) {
                        return;
                    }
                    let port = usize::from(ifx);
                    let outs = self.ports[port].mld.on_message(packet.src, &msg, now);
                    self.apply_mld_outputs(ctx, ifx, outs);
                    // The HA proxy listener also hears link traffic.
                    let proxy = &mut self.ports[port].proxy;
                    match msg {
                        MldMessage::Query {
                            max_response_delay,
                            group,
                        } => proxy.on_query(group, max_response_delay, now),
                        MldMessage::Report { group } => proxy.on_report_heard(group),
                        MldMessage::Done { .. } => {}
                    }
                    self.arm_mld(ctx);
                    self.arm_pim(ctx);
                } else if matches!(icmp, Icmpv6::RouterSolicit) {
                    let port = &mut self.ports[usize::from(ifx)];
                    if !port.ra_pending {
                        port.ra_pending = true;
                        ctx.set_timer_after(
                            RA_RESPONSE_DELAY,
                            TimerKey(TIMER_RA_RESPONSE + u64::from(ifx)),
                        );
                    }
                }
            }
            _ if packet.is_multicast() => {
                self.handle_multicast_data(ctx, ifx, packet, frame);
                self.arm_pim(ctx);
                ctx.stage(Stage::Account);
                self.record_high_waters(true);
                return;
            }
            _ if self.is_my_addr(packet.dst) => {
                self.handle_local(ctx, layers, frame.tag);
                self.arm_pim(ctx);
                self.arm_mld(ctx);
            }
            _ => {
                let parent = (frame.tag != 0).then_some(frame.tag);
                self.route_unicast(ctx, packet, Some(frame), parent);
            }
        }
        ctx.stage(Stage::Account);
        self.record_high_waters(false);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, key: TimerKey) {
        let now = ctx.now();
        ctx.stage(Stage::Protocol);
        match key.0 {
            TIMER_MLD => {
                self.mld_timer.fired();
                let due = |deadline: Option<SimTime>| deadline.is_some_and(|t| t <= now);
                for port in 0..self.ports.len() {
                    let ifx = port as IfIndex;
                    while due(self.ports[port].mld.next_deadline()) {
                        let outs = self.ports[port].mld.on_deadline(now);
                        self.apply_mld_outputs(ctx, ifx, outs);
                    }
                    while due(self.ports[port].proxy.next_deadline()) {
                        let outs = self.ports[port].proxy.on_deadline(now);
                        self.apply_proxy_outputs(ctx, ifx, outs);
                    }
                }
                self.arm_mld(ctx);
                self.arm_pim(ctx);
            }
            TIMER_PIM => {
                self.pim_timer.fired();
                let sends = self.pim.on_deadline(now);
                self.pim_sends(ctx, sends);
                self.arm_pim(ctx);
            }
            TIMER_HA => {
                self.ha_timer.fired();
                let outs = self.ha.on_deadline(now);
                let notes = self.ha.take_notes();
                self.drain_notes(ctx, notes.into_iter().map(Note::Ha));
                // Expired bindings release their proxy memberships.
                for o in outs {
                    if let HaOutput::ProxyLeave(g) = o {
                        self.proxy_leave_everywhere(ctx, g, None);
                    }
                }
                self.arm_ha(ctx);
                self.arm_mld(ctx);
            }
            TIMER_RA => {
                for ifx in 0..self.ports.len() as IfIndex {
                    self.send_router_advert(ctx, ifx);
                }
                ctx.set_timer_after(RA_INTERVAL, TimerKey(TIMER_RA));
            }
            k if k >= TIMER_RA_RESPONSE => {
                let ifx = (k - TIMER_RA_RESPONSE) as IfIndex;
                self.ports[usize::from(ifx)].ra_pending = false;
                self.send_router_advert(ctx, ifx);
            }
            _ => {}
        }
        ctx.stage(Stage::Account);
        self.record_high_waters(false);
    }

    fn on_link_change(&mut self, _ctx: &mut Ctx<'_>, _ifx: IfIndex, _link: Option<LinkId>) {
        // Routers are stationary in all scenarios.
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addressing::{global_addr, link_local_addr, link_prefix};
    use crate::netplan::{DataPayload, NextHop, MCAST_UDP_PORT};
    use crate::node_kit::tests::Sink;
    use crate::recorder::Recorder;
    use mobicast_ipv6::udp::UdpDatagram;
    use mobicast_net::{ExecPlan, LinkParams, World};

    /// A mobile sender's datagram, reverse-tunnelled to its home agent with
    /// one hop left, can go neither onto the home link nor out toward a
    /// listener: each drop is counted.
    #[test]
    fn a_decapsulated_datagram_out_of_hops_is_counted_where_it_drops() {
        let mut w = World::new();
        let params = LinkParams {
            bandwidth_bps: 8_000_000,
            delay: SimDuration::from_micros(10),
        };
        let (home, away) = (w.add_link(params), w.add_link(params));
        let (ha, mobile) = (NodeId(0), NodeId(1));
        let ifaces: Vec<RouterIfaceInfo> = [home, away]
            .into_iter()
            .enumerate()
            .map(|(ifx, link)| RouterIfaceInfo {
                link,
                prefix: link_prefix(link),
                ll: link_local_addr(ha, ifx as IfIndex),
                global: global_addr(ha, ifx as IfIndex, link),
            })
            .collect();
        let routes = [0, 1].map(|iface| Some((NextHop { iface, via: None }, 0)));
        let recorder = Recorder::new_shared();
        let rng = RngFactory::new(1);
        let cfg = RouterConfig::default();
        let router = RouterNode::new(
            ha,
            cfg,
            ifaces.clone(),
            routes.into_iter().collect(),
            &rng,
            recorder.clone(),
        );
        w.add_node(2, Box::new(router));
        w.add_node(2, Box::new(Sink::default()));
        for (node, ifx, link) in [
            (ha, 0, home),
            (ha, 1, away),
            (mobile, 0, home),
            (mobile, 1, away),
        ] {
            w.attach(node, ifx, link);
        }
        // A listener away from home gives the group an oif there.
        let group = GroupAddr::test_group(1);
        let report = mld_packet(link_local_addr(mobile, 1), MldMessage::Report { group });
        w.with_node(mobile, |_, ctx| ctx.send(1, frame_for(&report, None)));
        w.run(SimTime::from_millis(10), &ExecPlan::Sequential);

        let home_addr = global_addr(mobile, 0, home);
        let payload = DataPayload {
            pkt: 1,
            sent_nanos: 0,
        }
        .encode(64);
        let udp = UdpDatagram::new(MCAST_UDP_PORT, MCAST_UDP_PORT, payload);
        let body = udp.encode(home_addr, group.addr());
        let inner = Packet::new(home_addr, group.addr(), proto::UDP, body).with_hop_limit(1);
        let outer = tunnel::encapsulate(global_addr(mobile, 1, away), ifaces[0].global, &inner);
        w.with_node(mobile, |_, ctx| ctx.send(1, frame_for(&outer, Some(ha))));
        w.run(SimTime::from_millis(20), &ExecPlan::Sequential);
        let count = |name| recorder.with(|r| r.counters.get(name));
        assert_eq!(count("ha.tunnel_decap"), 1);
        assert_eq!(count("router.hop_limit_drops"), 2);
    }
}
