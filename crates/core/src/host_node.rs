//! The composed (mobile) host node: MLD listener, Mobile IPv6 mobile node
//! and the multicast sender/receiver applications, parameterised by a
//! [`Policy`] — one of the paper's four approaches or a registered
//! extension such as the hierarchical proxy.

use crate::netplan::{DataPayload, SharedDirectory, MCAST_UDP_PORT};
use crate::node_kit::{self, malformed, mld_packet, span_close, span_open, Malformed, TimerSlot};
use crate::parsed::{parsed, Upper};
use crate::recorder::{packet_id, Delivery, MoveEvent, PacketId, PacketMeta, SharedRecorder};
use crate::strategy::{Policy, RecvPath, SendPath};
use mobicast_ipv6::addr::{self, GroupAddr};
use mobicast_ipv6::icmpv6::Icmpv6;
use mobicast_ipv6::packet::{proto, Packet};
use mobicast_ipv6::tunnel;
use mobicast_ipv6::udp::UdpDatagram;
use mobicast_mipv6::{packets as mip_packets, MnOutput, MobileNode};
use mobicast_mld::{MldConfig, MldHostPort, MldMessage};
use mobicast_net::{Ctx, Frame, IfIndex, LinkId, NodeBehavior, NodeId, TimerKey};
use mobicast_sim::{
    bump, counter, Counters, RngFactory, SimDuration, SimTime, SpanId, Stage, TraceCategory,
};
use std::any::Any;
use std::collections::BTreeSet;
use std::net::Ipv6Addr;

const TIMER_MLD: u64 = 1;
const TIMER_MN: u64 = 2;
const TIMER_APP: u64 = 3;

/// Smallest inter-delivery silence recorded as a `delivery_gap` span.
/// Gaps inside a handoff episode are covered by its `interruption` span
/// and not double-counted.
const DELIVERY_GAP_MIN: SimDuration = SimDuration::from_secs(1);

/// Host behaviour configuration.
#[derive(Clone, Copy, Debug)]
pub struct HostConfig {
    pub policy: Policy,
    /// Send unsolicited MLD Reports when (re)joining after a move — the
    /// paper's recommended optimization. With `false` the host waits for
    /// the next General Query (the paper's worst case).
    pub unsolicited_reports: bool,
    pub mld: MldConfig,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            policy: Policy::LOCAL,
            unsolicited_reports: true,
            mld: MldConfig::default(),
        }
    }
}

/// The multicast source application (CBR over UDP).
#[derive(Clone, Copy, Debug)]
pub struct SenderApp {
    pub group: GroupAddr,
    pub interval: SimDuration,
    /// UDP payload size in bytes (≥ 16).
    pub payload_size: usize,
    pub start: SimTime,
    pub stop: SimTime,
}

/// The datagrams a receiver has had a copy of: an exact set of packet ids
/// kept as words of 64 — `(id / 64, one bit per id)` — sorted by word. A
/// sender's consecutive sequence numbers cost 16 bytes per 64 datagrams;
/// a sparse or corrupted id costs one word of its own, never a bitmap
/// reaching up to it, and nothing is hashed.
#[derive(Debug, Default)]
struct SeenSet {
    words: Vec<(u64, u64)>,
}

impl SeenSet {
    /// Add `pkt`: true when it was not in the set yet.
    fn insert(&mut self, pkt: PacketId) -> bool {
        let (word, bit) = (pkt / 64, 1u64 << (pkt % 64));
        // Copies arrive in sequence order but for a few stragglers: the
        // last word answers most of them.
        let at = match self.words.last() {
            Some(&(last, _)) if last == word => self.words.len() - 1,
            Some(&(last, _)) if last > word => {
                match self.words.binary_search_by_key(&word, |&(w, _)| w) {
                    Ok(at) => at,
                    Err(at) => {
                        self.words.insert(at, (word, 0));
                        at
                    }
                }
            }
            _ => {
                self.words.push((word, 0));
                self.words.len() - 1
            }
        };
        let mask = &mut self.words[at].1;
        let fresh = *mask & bit == 0;
        *mask |= bit;
        fresh
    }
}

#[derive(Debug, Default)]
struct ReceiverState {
    seen: SeenSet,
    /// Set when the (subscribed) host attaches to a link; cleared by the
    /// first delivery — the paper's join delay.
    attach_pending: Option<SimTime>,
    pub received: u64,
    pub duplicates: u64,
}

/// Open causal spans of the current handoff episode, plus the delivery
/// bookkeeping the `interruption` and `delivery_gap` spans need. One
/// episode at a time: a second move before recovery supersedes the first.
#[derive(Default)]
struct HandoffSpans {
    handoff: Option<SpanId>,
    interruption: Option<SpanId>,
    interruption_start: Option<SimTime>,
    bu: Option<SpanId>,
    tunnel: Option<SpanId>,
    rejoin: Option<SpanId>,
    /// Time of the most recent delivery at this host (any copy).
    last_delivery: Option<SimTime>,
}

/// The composed host node behaviour.
pub struct HostNode {
    pub id: NodeId,
    cfg: HostConfig,
    home_link: LinkId,
    home_addr: Ipv6Addr,
    ll_addr: Ipv6Addr,
    mn: MobileNode,
    mld: MldHostPort,
    dir: SharedDirectory,
    recorder: SharedRecorder,
    subscribed: BTreeSet<GroupAddr>,
    sender: Option<SenderApp>,
    receiver: ReceiverState,
    receiver_group: Option<GroupAddr>,
    current_link: Option<LinkId>,
    next_seq: u32,
    mld_timer: TimerSlot,
    mn_timer: TimerSlot,
    app_timer: TimerSlot,
    spans: HandoffSpans,
    /// RFC-MIB-flavoured per-node counters (camelCase names), snapshotted
    /// into `RunReport.node_stats` at the end of a run.
    mib: Counters,
}

impl HostNode {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: NodeId,
        cfg: HostConfig,
        home_link: LinkId,
        home_agent: Ipv6Addr,
        sender: Option<SenderApp>,
        receiver_group: Option<GroupAddr>,
        rng: &RngFactory,
        dir: SharedDirectory,
        recorder: SharedRecorder,
    ) -> Self {
        let home_prefix = crate::addressing::link_prefix(home_link);
        let iid = crate::addressing::iid(id, 0);
        let home_addr = home_prefix.addr_with_iid(iid);
        let ll_addr = crate::addressing::link_local_addr(id, 0);
        let include_group_list = cfg.policy.include_group_list();
        HostNode {
            id,
            cfg,
            home_link,
            home_addr,
            ll_addr,
            mn: MobileNode::new(home_addr, home_prefix, home_agent, iid, include_group_list),
            mld: MldHostPort::new(cfg.mld, rng.indexed_stream("mld-host", u64::from(id.0))),
            dir,
            recorder,
            subscribed: BTreeSet::new(),
            sender,
            receiver: ReceiverState::default(),
            receiver_group,
            current_link: None,
            next_seq: 0,
            mld_timer: TimerSlot::default(),
            mn_timer: TimerSlot::default(),
            app_timer: TimerSlot::default(),
            spans: HandoffSpans::default(),
            mib: Counters::new(),
        }
    }

    /// Per-node MIB-style counters maintained by this behavior.
    pub fn mib(&self) -> &Counters {
        &self.mib
    }

    pub fn home_address(&self) -> Ipv6Addr {
        self.home_addr
    }

    pub fn mobile(&self) -> &MobileNode {
        &self.mn
    }

    /// Packets the receiver application accepted (deduplicated).
    pub fn received_count(&self) -> u64 {
        self.receiver.received
    }

    pub fn duplicate_count(&self) -> u64 {
        self.receiver.duplicates
    }

    fn at_home(&self) -> bool {
        self.current_link == Some(self.home_link)
    }

    fn default_router(&self) -> Option<NodeId> {
        let link = self.current_link?;
        self.dir.default_router.get(link.index()).copied().flatten()
    }

    /// [`node_kit::emit`] on the host's one interface. A host originates:
    /// its emissions have no parent.
    fn emit(&self, ctx: &mut Ctx<'_>, packet: &Packet, l2_to: Option<NodeId>) {
        node_kit::emit(ctx, &self.recorder, self.id, 0, packet, l2_to, None);
    }

    fn emit_mld(&mut self, ctx: &mut Ctx<'_>, outs: impl IntoIterator<Item = MldMessage>) {
        for msg in outs {
            ctx.in_stage(Stage::Account, || {
                bump!(self.recorder, "host.mld_reports_sent");
                match msg {
                    MldMessage::Query { .. } => bump!(self.mib, "mldOutQueries"),
                    MldMessage::Report { .. } => bump!(self.mib, "mldOutReports"),
                    MldMessage::Done { .. } => bump!(self.mib, "mldOutDones"),
                }
            });
            self.emit(ctx, &mld_packet(self.ll_addr, msg), None);
        }
    }

    fn emit_mn(&mut self, ctx: &mut Ctx<'_>, outs: Vec<MnOutput>) {
        for o in outs {
            let MnOutput::SendBindingUpdate {
                home_agent,
                source,
                binding_update,
            } = o;
            let seq = binding_update.sequence;
            let packet = mip_packets::binding_update_packet(
                source,
                home_agent,
                self.home_addr,
                binding_update,
            );
            ctx.in_stage(Stage::Account, || {
                bump!(self.recorder, "host.binding_updates_sent");
                bump!(self.mib, "buSent");
            });
            ctx.trace_event(TraceCategory::MobileIp, "bu_tx", || {
                vec![
                    ("home_agent", home_agent.into()),
                    ("care_of", source.into()),
                    ("seq", u64::from(seq).into()),
                ]
            });
            self.emit(ctx, &packet, self.default_router());
            // First BU of a handoff episode: open the round-trip span (and
            // the tunnel-establishment span when this policy receives via
            // a tunnel), closed by the Binding Ack / first tunneled copy.
            if let Some(h) = self.spans.handoff {
                if self.spans.bu.is_none() && self.spans.interruption.is_some() {
                    let now = ctx.now();
                    self.spans.bu = Some(span_open(ctx, &self.recorder, "bu", now, Some(h)));
                    if self.cfg.policy.recv_plane() != RecvPath::Local && !self.at_home() {
                        let t = span_open(ctx, &self.recorder, "tunnel", now, Some(h));
                        self.spans.tunnel = Some(t);
                    }
                }
            }
        }
        let (pending, replaced) = (self.mn.pending_bu_depth() as u64, self.mn.bu_replaced());
        ctx.in_stage(Stage::Account, || {
            self.mib.raise(counter!("buPendingHighWater"), pending);
            self.mib.raise(counter!("buReplaced"), replaced);
        });
        self.arm_mn(ctx);
    }

    fn send_router_solicit(&mut self, ctx: &mut Ctx<'_>) {
        let body = Icmpv6::RouterSolicit.encode(self.ll_addr, addr::ALL_ROUTERS);
        let packet =
            Packet::new(self.ll_addr, addr::ALL_ROUTERS, proto::ICMPV6, body).with_hop_limit(255);
        bump!(self.recorder, "host.rs_sent");
        bump!(self.mib, "rsSent");
        self.emit(ctx, &packet, None);
    }

    /// Application-level unsubscribe: the host *stays on the link* and
    /// leaves the group deliberately, so MLD can send Done and the router
    /// can fast-leave via the last-listener query process — the contrast
    /// to a mobile host that departs silently (paper §4.4: "mobile hosts
    /// cannot use the Done message when they leave a link").
    pub fn app_unsubscribe(&mut self, ctx: &mut Ctx<'_>, group: GroupAddr) {
        self.subscribed.remove(&group);
        let outs = self.mld.leave(group);
        self.emit_mld(ctx, outs);
        self.arm_mld(ctx);
        let groups: Vec<GroupAddr> = self.subscribed.iter().copied().collect();
        let outs = self.mn.set_groups(groups, ctx.now());
        self.emit_mn(ctx, outs);
    }

    /// Application-level subscribe (used by scenario scripts to add
    /// subscriptions at runtime).
    pub fn app_subscribe(&mut self, ctx: &mut Ctx<'_>, group: GroupAddr) {
        self.subscribe(ctx, group);
    }

    /// Force an unscheduled Binding Update refresh (storm scripts: a mobile
    /// re-registering far faster than its refresh timer requires). No-op
    /// while the host is at home.
    pub fn app_rebind(&mut self, ctx: &mut Ctx<'_>) {
        let outs = self.mn.force_refresh(ctx.now());
        self.emit_mn(ctx, outs);
    }

    /// Application-level subscription (receiver side).
    fn subscribe(&mut self, ctx: &mut Ctx<'_>, group: GroupAddr) {
        self.subscribed.insert(group);
        self.join_on_current_link(ctx, group);
        let groups: Vec<GroupAddr> = self.subscribed.iter().copied().collect();
        let outs = self.mn.set_groups(groups, ctx.now());
        self.emit_mn(ctx, outs);
    }

    /// Perform the local MLD join appropriate for the current link and
    /// strategy.
    fn join_on_current_link(&mut self, ctx: &mut Ctx<'_>, group: GroupAddr) {
        let local_join = self.at_home() || self.cfg.policy.recv_plane() == RecvPath::Local;
        if !local_join {
            return;
        }
        if self.cfg.unsolicited_reports {
            let outs = self.mld.join(group, ctx.now());
            self.emit_mld(ctx, outs);
        } else {
            self.mld.join_quiet(group);
        }
        self.arm_mld(ctx);
    }

    /// Start the causal span tree of a handoff episode: a `handoff` root
    /// plus its `interruption` child (last packet before the move → first
    /// packet after). The `bu`/`tunnel`/`mld_rejoin` children open later,
    /// when their phase actually starts.
    fn open_handoff_spans(&mut self, ctx: &mut Ctx<'_>, from: Option<LinkId>, to: LinkId) {
        self.close_handoff_spans(ctx, true);
        let now = ctx.now();
        let h = span_open(ctx, &self.recorder, "handoff", now, None);
        self.recorder
            .span_annotate(h, "policy", self.cfg.policy.id());
        if let Some(f) = from {
            self.recorder.span_annotate(h, "from_link", f.index());
        }
        self.recorder.span_annotate(h, "to_link", to.index());
        let istart = self.spans.last_delivery.unwrap_or(now);
        let i = span_open(ctx, &self.recorder, "interruption", istart, Some(h));
        self.spans.handoff = Some(h);
        self.spans.interruption = Some(i);
        self.spans.interruption_start = Some(istart);
    }

    /// End every span of the current episode at `now`. Used when a new
    /// move supersedes an unrecovered handoff (`superseded = true`) —
    /// phases that never completed end here rather than dangling.
    fn close_handoff_spans(&mut self, ctx: &mut Ctx<'_>, superseded: bool) {
        for (slot, name) in [
            (self.spans.bu.take(), "bu"),
            (self.spans.tunnel.take(), "tunnel"),
            (self.spans.rejoin.take(), "mld_rejoin"),
            (self.spans.interruption.take(), "interruption"),
        ] {
            if let Some(id) = slot {
                span_close(ctx, &self.recorder, id, name);
            }
        }
        self.spans.interruption_start = None;
        if let Some(h) = self.spans.handoff.take() {
            if superseded {
                self.recorder.span_annotate(h, "superseded", true);
            }
            span_close(ctx, &self.recorder, h, "handoff");
        }
    }

    fn deliver(
        &mut self,
        ctx: &mut Ctx<'_>,
        payload: DataPayload,
        group: GroupAddr,
        via: u64,
        tunneled: bool,
    ) {
        let Some(link) = self.current_link else {
            return;
        };
        if self.receiver_group != Some(group) {
            return;
        }
        let now = ctx.now();
        let outer = ctx.stage(Stage::Account);
        // Per-flow delivery gap: silence between consecutive deliveries
        // outside a handoff episode (inside one, the `interruption` span
        // already measures it) becomes a closed `delivery_gap` span.
        if let Some(prev) = self.spans.last_delivery {
            let gap = now.saturating_since(prev);
            if gap >= DELIVERY_GAP_MIN && self.spans.interruption.is_none() {
                let g = span_open(ctx, &self.recorder, "delivery_gap", prev, None);
                self.recorder.span_annotate(g, "gap_s", gap.as_secs_f64());
                span_close(ctx, &self.recorder, g, "delivery_gap");
            }
        }
        self.spans.last_delivery = Some(now);
        // Any copy arriving ends the interruption (and the handoff root);
        // the matching transport phase closes with it.
        if let Some(i) = self.spans.interruption.take() {
            span_close(ctx, &self.recorder, i, "interruption");
            if let Some(h) = self.spans.handoff.take() {
                if let Some(start) = self.spans.interruption_start.take() {
                    self.recorder.span_annotate(
                        h,
                        "interruption_s",
                        now.saturating_since(start).as_secs_f64(),
                    );
                }
                span_close(ctx, &self.recorder, h, "handoff");
            }
        }
        let phase = if tunneled {
            self.spans.tunnel.take().map(|id| (id, "tunnel"))
        } else {
            self.spans.rejoin.take().map(|id| (id, "mld_rejoin"))
        };
        if let Some((id, name)) = phase {
            span_close(ctx, &self.recorder, id, name);
        }
        let first = self.receiver.seen.insert(payload.pkt);
        if first {
            self.receiver.received += 1;
            bump!(self.mib, "dataReceived");
            let delay = now.as_nanos().saturating_sub(payload.sent_nanos);
            self.recorder.sample("e2e_delay", delay as f64 / 1e9);
            if let Some(attached) = self.receiver.attach_pending.take() {
                let join_delay = (now - attached).as_secs_f64();
                self.recorder.sample("join_delay", join_delay);
                ctx.trace(TraceCategory::App, || {
                    format!("join delay {join_delay:.3}s on {link}")
                });
            }
        } else {
            self.receiver.duplicates += 1;
            bump!(self.mib, "dataDuplicates");
        }
        self.recorder.record_delivery(Delivery {
            pkt: payload.pkt,
            host: self.id,
            link,
            time: now,
            first,
            via,
        });
        ctx.stage(outer);
    }

    fn send_data(&mut self, ctx: &mut Ctx<'_>, app: SenderApp) {
        let now = ctx.now();
        let Some(link) = self.current_link else {
            return;
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        let pkt = packet_id(self.id, seq);
        let payload = DataPayload {
            pkt,
            sent_nanos: now.as_nanos(),
        }
        .encode(app.payload_size);

        // Source address selection per strategy (paper §4.2.2). With local
        // sending, the address is whatever Mobile IPv6 currently believes —
        // right after a move this is the *stale* previous address until a
        // Router Advertisement triggers care-of address configuration,
        // reproducing the paper's "erroneous IPv6 source address" window.
        let (wire_packet, src_used, tunneled) =
            if self.cfg.policy.send_plane() == SendPath::HomeTunnel && !self.mn.at_home() {
                let inner_src = self.home_addr;
                let udp = UdpDatagram::new(MCAST_UDP_PORT, MCAST_UDP_PORT, payload);
                let body = udp.encode(inner_src, app.group.addr());
                let inner = Packet::new(inner_src, app.group.addr(), proto::UDP, body);
                let coa = self.mn.current_address();
                let outer = tunnel::encapsulate(coa, self.mn.home_agent(), &inner);
                bump!(self.recorder, "host.data_tunnel_encap");
                bump!(self.mib, "tunnelEncaps");
                ctx.trace_event(TraceCategory::MobileIp, "tunnel_encap", || {
                    vec![
                        ("dst", self.mn.home_agent().into()),
                        ("inner_src", inner_src.into()),
                    ]
                });
                (outer, inner_src, true)
            } else {
                let src = self.mn.current_address();
                let udp = UdpDatagram::new(MCAST_UDP_PORT, MCAST_UDP_PORT, payload);
                let body = udp.encode(src, app.group.addr());
                (
                    Packet::new(src, app.group.addr(), proto::UDP, body),
                    src,
                    false,
                )
            };
        ctx.in_stage(Stage::Account, || {
            self.recorder.record_packet(PacketMeta {
                pkt,
                group: app.group,
                sender: self.id,
                sent_at: now,
                origin_link: link,
                src_addr: src_used,
            });
            bump!(self.recorder, "host.data_sent");
            bump!(self.mib, "dataSent");
        });
        let l2 = if tunneled {
            self.default_router()
        } else {
            None
        };
        self.emit(ctx, &wire_packet, l2);
    }

    fn arm_mld(&mut self, ctx: &mut Ctx<'_>) {
        let next = self.mld.next_deadline();
        self.mld_timer.arm(ctx, TIMER_MLD, next);
    }

    fn arm_mn(&mut self, ctx: &mut Ctx<'_>) {
        let next = self.mn.next_deadline();
        self.mn_timer.arm(ctx, TIMER_MN, next);
    }

    fn arm_app(&mut self, ctx: &mut Ctx<'_>) {
        let Some(app) = self.sender else {
            return;
        };
        let now = ctx.now();
        let next = if now < app.start {
            Some(app.start)
        } else if now >= app.stop {
            None
        } else {
            // Next multiple of the interval after `now`.
            let elapsed = now - app.start;
            let n = elapsed.as_nanos() / app.interval.as_nanos() + 1;
            let t = app.start + SimDuration::from_nanos(n * app.interval.as_nanos());
            (t <= app.stop).then_some(t)
        };
        self.app_timer.arm(ctx, TIMER_APP, next);
    }
}

impl NodeBehavior for HostNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.current_link = ctx.link_on(0);
        if let Some(g) = self.receiver_group {
            self.subscribe(ctx, g);
        }
        if let Some(app) = self.sender {
            let start = app.start.max(ctx.now());
            self.app_timer.arm(ctx, TIMER_APP, Some(start));
        }
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, _ifx: IfIndex, frame: &Frame) {
        ctx.stage(Stage::Parse);
        let layers = match parsed(frame) {
            Ok(layers) => layers,
            Err(err) => {
                bump!(self.recorder, "host.decode_errors");
                malformed(ctx, &mut self.mib, Malformed::Frame("ipv6", frame), err);
                return;
            }
        };
        let packet = layers.packet();
        // Gate order, host: unknown option, then damaged signalling (a
        // router runs the two the other way round). A frame that is both
        // counts under the first gate only, so the order is part of what
        // the counters mean.
        //
        // RFC 8200 §4.2: hosts too must discard packets carrying an
        // unrecognized option with discard semantics. Hosts drop silently
        // (the simulator's routers own the Parameter Problem reporting).
        if let Some((_, pointer)) = layers.unknown_option_problem() {
            bump!(self.recorder, "host.unknown_option_drops");
            bump!(self.mib, "unknownOptionDrops");
            ctx.trace_event(TraceCategory::Fault, "unknown_option", || {
                vec![
                    ("src", packet.src.into()),
                    ("pointer", u64::from(pointer).into()),
                ]
            });
            return;
        }
        // Mobility signalling is authenticated end-to-end (draft-10 §4.4):
        // a damaged Binding Ack must not clear or corrupt the pending-BU
        // state, so it is discarded like its router-side counterpart.
        if frame.damaged && layers.is_binding_signalling() {
            bump!(self.recorder, "host.bu_auth_failed");
            bump!(self.mib, "buAuthFailures");
            ctx.trace_event(TraceCategory::MobileIp, "bu_auth_failed", || {
                vec![("src", packet.src.into()), ("dst", packet.dst.into())]
            });
            return;
        }
        let now = ctx.now();
        match layers.upper() {
            Upper::Icmpv6(icmp) => {
                let icmp = match icmp {
                    Ok(i) => i,
                    Err(err) => {
                        bump!(self.recorder, "host.icmp_decode_errors");
                        malformed(ctx, &mut self.mib, Malformed::Frame("icmpv6", frame), err);
                        return;
                    }
                };
                ctx.stage(Stage::Protocol);
                match icmp {
                    Icmpv6::RouterAdvert { prefixes, .. } => {
                        if let Some(p) = prefixes.first() {
                            let outs = self.mn.on_router_advert(p.prefix, now);
                            self.emit_mn(ctx, outs);
                        }
                    }
                    _ => {
                        if let Some(msg) = MldMessage::from_icmp(icmp) {
                            match msg {
                                MldMessage::Query {
                                    max_response_delay,
                                    group,
                                } => {
                                    bump!(self.mib, "mldInQueries");
                                    self.mld.on_query(group, max_response_delay, now);
                                }
                                MldMessage::Report { group } => {
                                    bump!(self.mib, "mldInReports");
                                    self.mld.on_report_heard(group);
                                }
                                MldMessage::Done { .. } => {}
                            }
                            self.arm_mld(ctx);
                        }
                    }
                }
            }
            Upper::Tunnel(inner) => {
                // Tunnelled traffic from the home agent.
                if packet.dst != self.mn.current_address() && packet.dst != self.home_addr {
                    return;
                }
                let inner = match inner {
                    Ok(inner) => inner,
                    Err(err) => {
                        bump!(self.recorder, "host.decap_errors");
                        malformed(ctx, &mut self.mib, Malformed::Tunnel(packet.src), err);
                        return;
                    }
                };
                ctx.in_stage(Stage::Account, || {
                    bump!(self.recorder, "host.data_tunnel_decap");
                    bump!(self.mib, "tunnelDecaps");
                });
                ctx.trace_event(TraceCategory::MobileIp, "tunnel_decap", || {
                    vec![
                        ("outer_src", packet.src.into()),
                        ("inner_src", inner.src.into()),
                        ("inner_dst", inner.dst.into()),
                    ]
                });
                if let Some(g) = GroupAddr::try_new(inner.dst) {
                    if let Some(info) = layers.data() {
                        ctx.stage(Stage::Protocol);
                        if self.subscribed.contains(&g) {
                            self.deliver(ctx, info.payload, g, frame.tag, true);
                        }
                    }
                }
            }
            Upper::Opaque if packet.payload_proto == proto::UDP && packet.is_multicast() => {
                // Native multicast data: accepted only where we joined via
                // MLD (models NIC multicast filtering).
                let Some(g) = GroupAddr::try_new(packet.dst) else {
                    return;
                };
                if !self.mld.is_joined(g) {
                    return;
                }
                if let Some(info) = layers.data() {
                    ctx.stage(Stage::Protocol);
                    self.deliver(ctx, info.payload, g, frame.tag, false);
                }
            }
            // Binding acknowledgements.
            Upper::Opaque
                if packet.payload_proto == proto::NONE
                    && (packet.dst == self.mn.current_address()
                        || packet.dst == self.home_addr) =>
            {
                if let Some(ack) = layers.binding_ack() {
                    ctx.stage(Stage::Account);
                    bump!(self.recorder, "host.binding_acks_rx");
                    bump!(self.mib, "buAcksRx");
                    ctx.stage(Stage::Protocol);
                    ctx.trace_event(TraceCategory::MobileIp, "back_rx", || {
                        vec![
                            ("from", packet.src.into()),
                            ("accepted", ack.accepted().into()),
                        ]
                    });
                    if ack.accepted() {
                        if let Some(b) = self.spans.bu.take() {
                            span_close(ctx, &self.recorder, b, "bu");
                        }
                    }
                    let outs = self.mn.on_binding_ack(ack.accepted(), now);
                    self.emit_mn(ctx, outs);
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, key: TimerKey) {
        let now = ctx.now();
        ctx.stage(Stage::Protocol);
        match key.0 {
            TIMER_MLD => {
                self.mld_timer.fired();
                let outs = self.mld.on_deadline(now);
                self.emit_mld(ctx, outs);
                self.arm_mld(ctx);
            }
            TIMER_MN => {
                self.mn_timer.fired();
                let outs = self.mn.on_deadline(now);
                self.emit_mn(ctx, outs);
            }
            TIMER_APP => {
                self.app_timer.fired();
                if let Some(app) = self.sender {
                    if now >= app.start && now < app.stop {
                        self.send_data(ctx, app);
                    }
                }
                self.arm_app(ctx);
            }
            _ => {}
        }
    }

    fn on_link_change(&mut self, ctx: &mut Ctx<'_>, _ifx: IfIndex, link: Option<LinkId>) {
        let now = ctx.now();
        match link {
            None => {
                // Departed: per the paper, no Done can be sent on the old
                // link; MLD state for it simply evaporates host-side.
                self.mld.depart_link();
                self.arm_mld(ctx);
            }
            Some(l) => {
                let from = self.current_link;
                self.current_link = Some(l);
                let subscribed = self.receiver_group.is_some() && !self.subscribed.is_empty();
                let sending = self
                    .sender
                    .map(|a| now >= a.start && now < a.stop)
                    .unwrap_or(false);
                self.recorder.record_move(MoveEvent {
                    host: self.id,
                    time: now,
                    from,
                    to: l,
                    subscribed,
                    sending,
                });
                if subscribed {
                    self.receiver.attach_pending = Some(now);
                    self.open_handoff_spans(ctx, from, l);
                }
                // Let the delivery policy pick the mobility agent for the
                // new link (hierarchical policies register with the domain
                // MAP; the paper's four approaches always pick the home
                // agent, making the retarget a no-op).
                let target = self.cfg.policy.agent_after_move(
                    l == self.home_link,
                    self.dir.map_agent.get(l.index()).copied().flatten(),
                    self.mn.home_agent(),
                );
                let outs = self.mn.set_agent(target);
                if !outs.is_empty() {
                    self.emit_mn(ctx, outs);
                }
                // Movement detection: solicit an RA immediately.
                self.send_router_solicit(ctx);
                // Re-join groups on the new link per strategy.
                let groups: Vec<GroupAddr> = self.subscribed.iter().copied().collect();
                let rejoining = !groups.is_empty()
                    && (self.at_home() || self.cfg.policy.recv_plane() == RecvPath::Local);
                for g in groups {
                    self.join_on_current_link(ctx, g);
                }
                // The MLD rejoin phase runs until the first native copy
                // arrives on the new link.
                if rejoining {
                    if let Some(h) = self.spans.handoff {
                        let r = span_open(ctx, &self.recorder, "mld_rejoin", now, Some(h));
                        self.spans.rejoin = Some(r);
                    }
                }
            }
        }
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
    use super::SeenSet;
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// A packet id as a receiver may see it: one of a few origins with a
    /// sequence number near either end of `u32`, or any 64 bits at all (a
    /// corrupted id).
    fn pkt() -> impl Strategy<Value = u64> {
        any::<u64>().prop_map(|w| {
            let (origin, seq) = (w >> 8 & 3, w >> 16 & 0xff);
            match w % 5 {
                0 => w,
                1 | 2 => origin << 32 | seq,
                _ => origin << 32 | (u64::from(u32::MAX) - seq),
            }
        })
    }

    proptest! {
        /// The set answers every insert as a `HashSet` does, and its words
        /// cost at most 32 bytes per distinct id however far apart the ids
        /// lie.
        #[test]
        fn seen_set_agrees_with_a_hash_set(ids in proptest::collection::vec(pkt(), 0..600)) {
            let mut set = SeenSet::default();
            let mut model = HashSet::new();
            for id in ids {
                prop_assert_eq!(set.insert(id), model.insert(id), "insert {:#x}", id);
            }
            let held: u32 = set.words.iter().map(|(_, mask)| mask.count_ones()).sum();
            prop_assert_eq!(held as usize, model.len());
            prop_assert!(set.words.windows(2).all(|w| w[0].0 < w[1].0));
            let bytes = set.words.capacity() * std::mem::size_of::<(u64, u64)>();
            prop_assert!(bytes <= 32 * model.len().max(2), "{} bytes for {} ids", bytes, model.len());
        }
    }

    #[test]
    fn a_sequence_costs_sixteen_bytes_per_sixty_four_ids() {
        let mut set = SeenSet::default();
        for seq in 0..6400 {
            assert!(set.insert(7 << 32 | seq));
        }
        assert!(!set.insert(7 << 32 | 6399));
        assert_eq!(set.words.len(), 100);
    }
}
