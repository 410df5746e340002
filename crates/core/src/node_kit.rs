//! The node kit: the glue `RouterNode` and `HostNode` share, one copy each.
//!
//! * [`TimerSlot`] — a slot is armed to at most one instant.
//! * [`transmit`] — the only caller of the journal's `record`, where a
//!   provenance tag is minted, once per transmission; [`emit`] is it for
//!   a packet the caller built.
//! * [`mld_packet`] — the hop-limit-1, Router-Alert framing of every MLD
//!   message.
//! * [`malformed`] — `framesMalformed` plus the typed trace event.
//! * [`account_note`] — the only place a protocol machine's note becomes a
//!   counter and a trace event.
//! * [`span_open`] / [`span_close`] — the only way a causal span opens or
//!   closes: in the recorder's span book and, in the same call, as a
//!   `span_open` / `span_close` trace event.
//!
//! What differs by role stays with the caller: the `router.*` / `host.*`
//! recorder counters, the router's ICMPv6 Parameter Problem, the host's
//! silent drop, and the order in which each role runs its receive gates.

use crate::netplan::frame_for;
use crate::parsed::frame_data;
use crate::recorder::SharedRecorder;
use mobicast_ipv6::exthdr::{ExtHeader, Option6};
use mobicast_ipv6::packet::{proto, Packet};
use mobicast_ipv6::DecodeError;
use mobicast_mipv6::HaNote;
use mobicast_mld::{MldMessage, MldNote};
use mobicast_net::{Ctx, Frame, IfIndex, NodeId, TimerKey};
use mobicast_pimdm::PimNote;
use mobicast_sim::{bump, Counters, EventId, SimTime, SpanId, Stage, TraceCategory};
use std::net::Ipv6Addr;

/// One re-armable timer of a node: pending at no instant or at exactly one.
#[derive(Default)]
pub(crate) struct TimerSlot(Option<(SimTime, EventId)>);

impl TimerSlot {
    /// Ensure timer `key` fires at `want` (`None` cancels). Re-arming to
    /// the instant already pending schedules nothing.
    pub(crate) fn arm(&mut self, ctx: &mut Ctx<'_>, key: u64, want: Option<SimTime>) {
        match (self.0, want) {
            (Some((t, _)), Some(w)) if t == w => {}
            (prev, Some(w)) => {
                if let Some((_, id)) = prev {
                    ctx.cancel_timer(id);
                }
                let id = ctx.set_timer_at(w, TimerKey(key));
                self.0 = Some((w, id));
            }
            (Some((_, id)), None) => {
                ctx.cancel_timer(id);
                self.0 = None;
            }
            (None, None) => {}
        }
    }

    /// The pending timer has just been delivered to `on_timer`: nothing is
    /// pending any more, so the next `arm` schedules anew.
    pub(crate) fn fired(&mut self) {
        self.0 = None;
    }
}

/// Transmit `packet` from `node` on `ifx`: [`transmit`] of its frame.
pub(crate) fn emit(
    ctx: &mut Ctx<'_>,
    recorder: &SharedRecorder,
    node: NodeId,
    ifx: IfIndex,
    packet: &Packet,
    l2_to: Option<NodeId>,
    parent: Option<u64>,
) {
    let frame = ctx.in_stage(Stage::Emit, || frame_for(packet, l2_to));
    transmit(ctx, recorder, node, &[ifx], &frame, parent);
}

/// Transmit `frame` from `node` on each of `oifs`: one transmission per
/// interface, all sharing the frame's bytes and parse memo. If it carries
/// the multicast application stream, each transmission on an attached
/// interface gets its own entry in the recorder's journal and its copy the
/// provenance tag minted for it; `parent` is the tag of the frame whose
/// processing caused this emission (`None` at an origin).
pub(crate) fn transmit(
    ctx: &mut Ctx<'_>,
    recorder: &SharedRecorder,
    node: NodeId,
    oifs: &[IfIndex],
    frame: &Frame,
    parent: Option<u64>,
) {
    let outer = ctx.stage(Stage::Emit);
    // Asked before the first clone, so that every copy shares the parse.
    let info = ctx.in_stage(Stage::Parse, || frame_data(frame));
    let size = u32::try_from(frame.len()).expect("a frame is far below 4 GiB");
    for &ifx in oifs {
        let mut copy = frame.clone();
        if let (Some(info), Some(link)) = (info, ctx.link_on(ifx)) {
            ctx.stage(Stage::Account);
            copy.tag = recorder.record_data(
                node,
                info.payload.pkt,
                parent,
                link,
                ctx.now(),
                size,
                info.tunnel_depth > 0,
            );
            ctx.stage(Stage::Emit);
        }
        ctx.send(ifx, copy);
    }
    ctx.stage(outer);
}

/// The IPv6 packet carrying MLD message `msg` from `src` (RFC 2710 §3:
/// hop limit 1, Router Alert in a Hop-by-Hop Options header).
pub(crate) fn mld_packet(src: Ipv6Addr, msg: MldMessage) -> Packet {
    let dst = msg.ip_destination();
    let body = msg.to_icmp().encode(src, dst);
    Packet::new(src, dst, proto::ICMPV6, body)
        .with_hop_limit(1)
        .with_ext(ExtHeader::HopByHop(vec![Option6::RouterAlert(0)]))
}

/// Where a decode failed.
pub(crate) enum Malformed<'a> {
    /// In the frame's own bytes, at this protocol layer ("ipv6", "icmpv6",
    /// "pim").
    Frame(&'static str, &'a Frame),
    /// In the inner packet of a tunnel whose outer source is this address.
    Tunnel(Ipv6Addr),
}

/// Account bytes that failed to decode: the `framesMalformed` MIB counter
/// the oracle / fuzz reconciliation reads, and a typed trace event for
/// `explain`. The caller bumps its role's recorder counter first.
pub(crate) fn malformed(ctx: &Ctx<'_>, mib: &mut Counters, what: Malformed<'_>, err: &DecodeError) {
    bump!(mib, "framesMalformed");
    ctx.trace_event(TraceCategory::Fault, "malformed", || {
        let mut fields = match what {
            Malformed::Frame(layer, frame) => vec![
                ("layer", layer.into()),
                ("class", frame.class.name().into()),
                ("len", frame.len().into()),
            ],
            Malformed::Tunnel(outer_src) => {
                vec![("layer", "tunnel".into()), ("outer_src", outer_src.into())]
            }
        };
        fields.push(("error", err.to_string().into()));
        fields
    });
}

/// A transition note drained from one of a router's protocol machines
/// (`ifx`: the port an MLD note came from).
pub(crate) enum Note {
    Pim(PimNote),
    Mld(IfIndex, MldNote),
    Ha(HaNote),
}

/// Account `note` as its row says: a MIB counter, for admission control
/// and anti-replay also the recorder ground-truth counter the overload
/// reconciliation reads, and a typed trace event. One row per variant and
/// no wildcard: a new note does not compile until it has a row.
pub(crate) fn account_note(
    ctx: &Ctx<'_>,
    mib: &mut Counters,
    recorder: &SharedRecorder,
    note: &Note,
) {
    // row!(MIB counter [+ recorder counter], category, event, {fields})
    macro_rules! row {
        ($mib:literal $(+ $truth:literal)?, $category:ident, $event:literal,
         {$($key:ident: $value:expr),*}) => {{
            bump!(mib, $mib);
            $(bump!(recorder, $truth);)?
            ctx.trace_event(TraceCategory::$category, $event, || {
                vec![$((stringify!($key), $value.into())),*]
            });
        }};
    }
    match *note {
        Note::Pim(ref pim) => match *pim {
            PimNote::AssertResolved {
                sg,
                iface,
                won,
                peer,
            } if won => row!(
                "pimAssertsWon", Pim, "pim_assert_resolved",
                {src: sg.0, group: sg.1.addr(), iface: u64::from(iface), won: won, peer: peer}),
            PimNote::AssertResolved {
                sg,
                iface,
                won,
                peer,
            } => row!(
                "pimAssertsLost", Pim, "pim_assert_resolved",
                {src: sg.0, group: sg.1.addr(), iface: u64::from(iface), won: won, peer: peer}),
            PimNote::AssertWinnerAdopted { sg, iface, winner } => row!(
                "pimAssertWinnersAdopted", Pim, "pim_assert_winner_adopted",
                {src: sg.0, group: sg.1.addr(), iface: u64::from(iface), winner: winner}),
            PimNote::UpstreamPruned { sg, until } => row!(
                "pimUpstreamPrunes", Pim, "pim_upstream_pruned",
                {src: sg.0, group: sg.1.addr(), until_ns: until.as_nanos()}),
            PimNote::UpstreamResumed { sg } => row!(
                "pimUpstreamResumes", Pim, "pim_upstream_resumed",
                {src: sg.0, group: sg.1.addr()}),
            PimNote::UpstreamGraftPending { sg } => row!(
                "pimGraftsPending", Pim, "pim_graft_pending",
                {src: sg.0, group: sg.1.addr()}),
            PimNote::GraftAcked { sg, from } => row!(
                "pimGraftsAcked", Pim, "pim_graft_acked",
                {src: sg.0, group: sg.1.addr(), from: from}),
            PimNote::OifPruned { sg, iface, until } => row!(
                "pimOifPrunes", Pim, "pim_oif_pruned",
                {src: sg.0, group: sg.1.addr(), iface: u64::from(iface),
                 until_ns: until.as_nanos()}),
            PimNote::OifResumed { sg, iface } => row!(
                "pimOifResumes", Pim, "pim_oif_resumed",
                {src: sg.0, group: sg.1.addr(), iface: u64::from(iface)}),
            PimNote::EntryExpired { sg } => row!(
                "pimEntriesExpired", Pim, "pim_entry_expired",
                {src: sg.0, group: sg.1.addr()}),
            PimNote::SgShed { sg } => row!(
                "pimSgShed" + "overload.pim_sg_shed", Overload, "pim_sg_shed",
                {src: sg.0, group: sg.1.addr()}),
        },
        Note::Mld(ifx, mld) => match mld {
            MldNote::QuerierElected => row!(
                "mldQuerierElections", Mld, "mld_querier_elected",
                {iface: u64::from(ifx)}),
            MldNote::QuerierResigned { other } => row!(
                "mldQuerierResignations", Mld, "mld_querier_resigned",
                {iface: u64::from(ifx), other: other}),
            MldNote::ListenerShed { group } => row!(
                "mldReportsShed" + "overload.mld_listeners_shed", Overload, "mld_listener_shed",
                {iface: u64::from(ifx), group: group.addr()}),
        },
        Note::Ha(ha) => match ha {
            HaNote::BindingShed { home } => row!(
                "haBindingsShed" + "overload.ha_bindings_shed", Overload, "binding_shed",
                {home: home}),
            // Anti-replay, not admission control: kept out of the
            // `overload.*` ground truth, visible in the same places.
            HaNote::BindingStaleSeq { home } => row!(
                "buStaleSeqDropped" + "ha.bu_stale_seq", MobileIp, "bu_stale_seq",
                {home: home}),
        },
    }
}

/// Open span `name` on the dispatched node, starting at `start` (now, or
/// earlier for a span that covers the past), and mirror it into the trace
/// as a `span_open` event at now.
pub(crate) fn span_open(
    ctx: &Ctx<'_>,
    recorder: &SharedRecorder,
    name: &'static str,
    start: SimTime,
    parent: Option<SpanId>,
) -> SpanId {
    let id = recorder.span_open(name, ctx.node, start, parent);
    ctx.trace_event(TraceCategory::Span, "span_open", || {
        let mut f = vec![("id", id.0.into()), ("name", name.into())];
        if let Some(p) = parent {
            f.push(("parent", p.0.into()));
        }
        f
    });
    id
}

/// Close span `id` (named `name`) at now, and mirror it into the trace as
/// a `span_close` event.
pub(crate) fn span_close(ctx: &Ctx<'_>, recorder: &SharedRecorder, id: SpanId, name: &'static str) {
    recorder.span_close(id, ctx.now());
    ctx.trace_event(TraceCategory::Span, "span_close", || {
        vec![("id", id.0.into()), ("name", name.into())]
    });
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::netplan::{DataPayload, MCAST_UDP_PORT};
    use crate::recorder::Recorder;
    use bytes::Bytes;
    use mobicast_ipv6::addr::GroupAddr;
    use mobicast_ipv6::tunnel;
    use mobicast_ipv6::udp::UdpDatagram;
    use mobicast_net::{FrameClass, LinkId, LinkParams, NodeBehavior, World};
    use mobicast_sim::trace::jsonl_line;
    use mobicast_sim::{RingBufferTracer, SimDuration};
    use std::any::Any;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Logs the tag of every frame and the key of every timer it gets.
    #[derive(Default)]
    pub(crate) struct Sink {
        tags: Rc<RefCell<Vec<u64>>>,
        timers: Rc<RefCell<Vec<u64>>>,
    }

    impl NodeBehavior for Sink {
        fn on_start(&mut self, _: &mut Ctx<'_>) {}
        fn on_frame(&mut self, _: &mut Ctx<'_>, _: IfIndex, frame: &Frame) {
            self.tags.borrow_mut().push(frame.tag);
        }
        fn on_timer(&mut self, _: &mut Ctx<'_>, key: TimerKey) {
            self.timers.borrow_mut().push(key.0);
        }
        fn on_link_change(&mut self, _: &mut Ctx<'_>, _: IfIndex, _: Option<LinkId>) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Arm `slot` of `node` to `want` seconds; returns (events ever
    /// scheduled, events pending) afterwards.
    fn arm(w: &mut World, node: NodeId, slot: &mut TimerSlot, want: Option<u64>) -> (u64, usize) {
        let want = want.map(SimTime::from_secs);
        w.with_node(node, |_, ctx| slot.arm(ctx, 7, want));
        (w.events_scheduled(), w.queue_len())
    }

    #[test]
    fn a_slot_is_armed_to_at_most_one_instant() {
        let sink = Sink::default();
        let timers = sink.timers.clone();
        let mut w = World::new();
        let n = w.add_node(1, Box::new(sink));
        let mut slot = TimerSlot::default();
        assert_eq!(arm(&mut w, n, &mut slot, Some(5)), (1, 1));
        assert_eq!(arm(&mut w, n, &mut slot, Some(5)), (1, 1), "same instant");
        assert_eq!(
            arm(&mut w, n, &mut slot, Some(9)),
            (2, 1),
            "cancel + schedule"
        );
        assert_eq!(arm(&mut w, n, &mut slot, None), (2, 0), "None cancels");
        assert_eq!(arm(&mut w, n, &mut slot, None), (2, 0));
        assert_eq!(arm(&mut w, n, &mut slot, Some(3)), (3, 1));
        w.run_to_quiescence(10);
        assert_eq!(*timers.borrow(), [7], "only the last arming fires");
        // Until told the timer fired, the slot believes t = 3 is pending.
        assert_eq!(arm(&mut w, n, &mut slot, Some(3)), (3, 0));
        slot.fired();
        assert_eq!(arm(&mut w, n, &mut slot, Some(3)), (4, 1), "armed anew");
    }

    #[test]
    fn emit_tags_and_records_data_iff_the_interface_is_attached() {
        let sink = Sink::default();
        let tags = sink.tags.clone();
        let mut w = World::new();
        let link = w.add_link(LinkParams {
            bandwidth_bps: 8_000_000,
            delay: SimDuration::from_micros(10),
        });
        // Interface 0 of the sender is attached, interface 1 is not.
        let sender = w.add_node(2, Box::new(Sink::default()));
        let receiver = w.add_node(1, Box::new(sink));
        w.attach(sender, 0, link);
        w.attach(receiver, 0, link);

        let src: Ipv6Addr = "2001:db8:1::5".parse().unwrap();
        let group = GroupAddr::test_group(1);
        let payload = DataPayload {
            pkt: 42,
            sent_nanos: 0,
        };
        let udp = UdpDatagram::new(MCAST_UDP_PORT, MCAST_UDP_PORT, payload.encode(64));
        let body = udp.encode(src, group.addr());
        let native = Packet::new(src, group.addr(), proto::UDP, body);
        let tunnelled = tunnel::encapsulate(src, "2001:db8:2::1".parse().unwrap(), &native);
        let control = mld_packet(src, MldMessage::Report { group });
        assert_eq!(control.hop_limit, 1);
        assert_eq!(
            control.ext,
            [ExtHeader::HopByHop(vec![Option6::RouterAlert(0)])]
        );

        let recorder = Recorder::new_shared();
        let tag = |seq: u64| (u64::from(sender.0) + 1) << 32 | seq;
        let receiver_l2 = Some(receiver);
        w.with_node(sender, |_, ctx| {
            emit(ctx, &recorder, sender, 0, &native, None, Some(9));
            emit(ctx, &recorder, sender, 0, &tunnelled, receiver_l2, None);
            emit(ctx, &recorder, sender, 0, &control, None, None);
            emit(ctx, &recorder, sender, 1, &native, None, None);
            emit(ctx, &recorder, sender, 0, &native, None, Some(tag(2)));
        });
        w.run_to_quiescence(10);

        let size = |p: &Packet| frame_for(p, None).len() as u32;
        let recorded: Vec<_> = recorder.with(|r| {
            r.data_events
                .iter()
                .map(|e| (e.pkt, e.id, e.parent, e.link, e.time, e.size, e.tunneled))
                .collect()
        });
        let now = SimTime::ZERO;
        assert_eq!(
            recorded,
            [
                // Tag 9 names no event: the parent reads as tag 0.
                (42, tag(1), Some(0), link, now, size(&native), false),
                (42, tag(2), None, link, now, size(&native) + 40, true),
                // The control packet and the detached interface mint no
                // tag and record nothing.
                (42, tag(3), Some(tag(2)), link, now, size(&native), false),
            ]
        );
        assert_eq!(*tags.borrow(), [tag(1), tag(2), 0, tag(3)]);
    }
    #[test]
    fn malformed_counts_once_and_names_the_layer() {
        let (tracer, ring) = RingBufferTracer::new(8);
        let mut w = World::with_tracer(tracer);
        let n = w.add_node(1, Box::new(Sink::default()));
        let frame = Frame::new(Bytes::from_static(b"xyz"), FrameClass::Other);
        let err = Packet::decode_shared(frame.buffer()).unwrap_err();
        let mut mib = Counters::new();
        w.with_node(n, |_, ctx| {
            malformed(ctx, &mut mib, Malformed::Frame("pim", &frame), &err);
            malformed(ctx, &mut mib, Malformed::Tunnel(Ipv6Addr::LOCALHOST), &err);
        });
        assert_eq!(mib.get("framesMalformed"), 2);
        let lines: Vec<String> = ring.drain().iter().map(jsonl_line).collect();
        let event = |fields: &str| {
            format!(
                r#"{{"v":2,"t_ns":0,"node":0,"cat":"fault","kind":"malformed","fields":{{{fields},"error":"{err}"}}}}"#
            )
        };
        assert_eq!(
            lines,
            [
                event(r#""layer":"pim","class":"other","len":3"#),
                event(r#""layer":"tunnel","outer_src":"::1""#),
            ]
        );
    }
}
