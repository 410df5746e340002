//! Layer kernels: each layer's public functions driven standalone, at the
//! volume and table size the traced pass counted, reported as ns per
//! operation. Codec kernels first assert `decode(encode(x)) == x`.

use bytes::Bytes;
use mobicast_core::recorder::{Delivery, Recorder};
use mobicast_core::{observability, scenario};
use mobicast_ipv6::addr::{GroupAddr, ALL_PIM_ROUTERS};
use mobicast_ipv6::exthdr::{BindingUpdate, SubOption, BU_FLAG_ACK, BU_FLAG_HOME};
use mobicast_ipv6::{decapsulate, encapsulate, proto, Icmpv6, Packet, UdpDatagram};
use mobicast_mipv6::packets::{binding_update_packet, parse_binding_update};
use mobicast_mipv6::HomeAgent;
use mobicast_mld::{MldConfig, MldHostPort, MldMessage, MldRouterPort};
use mobicast_net::{
    CorruptionModel, Ctx, ExecPlan, Frame, FrameClass, IfIndex, LinkFault, LinkFaultState, LinkId,
    LinkParams, LossModel, NodeBehavior, NodeId, TimerKey, World,
};
use mobicast_pimdm::table::{OifState, SgDetail, UpstreamState};
use mobicast_pimdm::{PimConfig, PimMessage, PimRouter, RpfInfo, SgTable};
use mobicast_sim::{Counters, EventQueue, RngFactory, SimDuration, SimTime};
use rand::RngCore;
use std::any::Any;
use std::hint::black_box;
use std::net::Ipv6Addr;
use std::time::Instant;

/// Table sizes and volumes taken from the traced pass's exact counts.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Standing event population (`sim.wheel.depth_high_water`).
    pub queue_depth: u64,
    pub members_per_link: usize,
    pub sg_entries: u64,
    pub listeners: u64,
    pub bindings: u64,
    /// Divides every iteration count (`--smoke`).
    pub shrink: u64,
}

type Kernel = fn(&Sizes) -> Result<f64, String>;

/// Name, unit and body of every kernel, in report order. `Err` from a
/// body is a failed correctness check.
pub const KERNELS: [(&str, &str, Kernel); 21] = [
    ("sim.wheel.schedule_pop_ns", "ns", wheel_schedule_pop),
    ("sim.metrics.counter_add_ns", "ns", counter_add),
    ("sim.rng.stream_derive_ns", "ns", rng_stream_derive),
    ("net.world.frame_copy_ns", "ns", |s| frame_copy(s, false)),
    ("net.fault.frame_copy_ns", "ns", |s| frame_copy(s, true)),
    ("ipv6.packet.encode_ns", "ns", packet_encode),
    ("ipv6.packet.decode_ns", "ns", packet_decode),
    ("ipv6.tunnel.encap_ns", "ns", tunnel_encap),
    ("ipv6.tunnel.decap_ns", "ns", tunnel_decap),
    ("ipv6.icmpv6.mld_roundtrip_ns", "ns", mld_roundtrip),
    ("pimdm.message.roundtrip_ns", "ns", pim_roundtrip),
    ("pimdm.router.on_data_ns", "ns", pim_on_data),
    ("pimdm.table.lookup_ns", "ns", sg_lookup),
    ("mld.router.on_report_ns", "ns", mld_on_report),
    ("mld.host.on_query_ns", "ns", mld_on_query),
    ("mipv6.packets.bu_roundtrip_ns", "ns", bu_roundtrip),
    ("mipv6.home_agent.on_bu_ns", "ns", ha_on_bu),
    ("mipv6.binding.lookup_ns", "ns", binding_lookup),
    ("core.recorder.count_ns", "ns", recorder_count),
    ("core.recorder.record_delivery_ns", "ns", recorder_delivery),
    ("core.observability.export_ms", "ms", |_| {
        observability_export()
    }),
];

/// Median over three batches of `f`'s nanoseconds per operation; `f` runs
/// `ops` operations per call.
fn ns_per_op(ops: u64, mut f: impl FnMut()) -> f64 {
    let mut samples = [0.0f64; 3];
    for s in &mut samples {
        let t = Instant::now();
        f();
        *s = t.elapsed().as_nanos() as f64 / ops as f64;
    }
    samples.sort_by(f64::total_cmp);
    samples[1]
}

fn iters(base: u64, sizes: &Sizes) -> u64 {
    (base / sizes.shrink.max(1)).max(100)
}

fn addr(s: &str) -> Ipv6Addr {
    s.parse().expect("literal address")
}

fn nth_addr(prefix: u128, i: u64) -> Ipv6Addr {
    Ipv6Addr::from(prefix + u128::from(i))
}

const HOME_PREFIX: u128 = 0x2001_0db8_00bb_0000_0000_0000_0000_0000;
const SRC_PREFIX: u128 = 0x2001_0db8_00aa_0000_0000_0000_0000_0000;

fn group_n(i: u64) -> GroupAddr {
    GroupAddr::test_group((i % 60_000) as u16)
}

/// Pop + re-schedule against a standing population of long-dated timers:
/// three in four re-arm 1 ms ahead (frame deliveries), one 30 s ahead.
fn wheel_schedule_pop(sizes: &Sizes) -> Result<f64, String> {
    let depth = sizes.queue_depth.max(1);
    let n = iters(400_000, sizes);
    let mut q = EventQueue::<u64>::new();
    let step = 200_000_000_000 / depth;
    for i in 0..depth {
        q.schedule(SimTime::from_nanos(1_000_000 + i * step), i);
    }
    let ns = ns_per_op(n, || {
        for i in 0..n {
            let Some((t, v)) = q.pop() else { return };
            let ahead = if i % 4 == 0 {
                SimDuration::from_secs(30)
            } else {
                SimDuration::from_millis(1)
            };
            q.schedule(t + ahead, v);
        }
    });
    if q.len() as u64 != depth {
        return Err(format!("wheel lost events: {} of {depth} left", q.len()));
    }
    Ok(ns)
}

fn counter_add(sizes: &Sizes) -> Result<f64, String> {
    const NAMES: [&str; 8] = [
        "faults.frames_dropped_loss",
        "faults.frames_corrupted",
        "world.frames_missed_due_to_move",
        "tunnelEncaps",
        "tunnelDecaps",
        "pimInMessages",
        "mldInReports",
        "dataReceived",
    ];
    let n = iters(1_000_000, sizes);
    let mut c = Counters::new();
    let ns = ns_per_op(n, || {
        for i in 0..n {
            c.add(NAMES[(i % 8) as usize], 1);
        }
    });
    let total: u64 = NAMES.iter().map(|k| c.get(k)).sum();
    if total != 3 * n {
        return Err(format!("counters lost increments: {total} of {}", 3 * n));
    }
    Ok(ns)
}

fn rng_stream_derive(sizes: &Sizes) -> Result<f64, String> {
    let n = iters(400_000, sizes);
    let f = RngFactory::new(42);
    let mut acc = 0u64;
    let ns = ns_per_op(n, || {
        for i in 0..n {
            acc = acc.wrapping_add(f.indexed_stream("bench", i).next_u64());
        }
    });
    black_box(acc);
    Ok(ns)
}

/// Sends one frame per millisecond until `remaining` runs out.
struct Talker {
    remaining: u64,
    frame: Frame,
}

impl NodeBehavior for Talker {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer_after(SimDuration::from_millis(1), TimerKey(0));
    }
    fn on_frame(&mut self, _: &mut Ctx<'_>, _: IfIndex, _: &Frame) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, key: TimerKey) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.send(0, self.frame.clone());
            ctx.set_timer_after(SimDuration::from_millis(1), key);
        }
    }
    fn on_link_change(&mut self, _: &mut Ctx<'_>, _: IfIndex, _: Option<LinkId>) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[derive(Default)]
struct Sink {
    frames: u64,
}

impl NodeBehavior for Sink {
    fn on_start(&mut self, _: &mut Ctx<'_>) {}
    fn on_frame(&mut self, _: &mut Ctx<'_>, _: IfIndex, _: &Frame) {
        self.frames += 1;
    }
    fn on_timer(&mut self, _: &mut Ctx<'_>, _: TimerKey) {}
    fn on_link_change(&mut self, _: &mut Ctx<'_>, _: IfIndex, _: Option<LinkId>) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// One talker and `members − 1` sinks on one link: host ns per receiver
/// copy through `Ctx::send` → link → `on_frame`, the talker's timer event
/// included. With `faulty`, i.i.d. loss and corruption are armed, so the
/// per-copy fault roll and the mangling paths run.
fn frame_copy(sizes: &Sizes, faulty: bool) -> Result<f64, String> {
    let sinks = sizes.members_per_link.max(2) as u64 - 1;
    let sends = iters(200_000, sizes) / sinks.max(1) + 1;
    let frame = Frame::new(Bytes::from(vec![0u8; 304]), FrameClass::MulticastData);
    let mut delivered = 0u64;
    let ns = ns_per_op(sends * sinks, || {
        let mut world = World::new();
        let link = world.add_link(LinkParams::default());
        let talker = world.add_node(
            1,
            Box::new(Talker {
                remaining: sends,
                frame: frame.clone(),
            }),
        );
        world.attach(talker, 0, link);
        let sink_ids: Vec<NodeId> = (0..sinks)
            .map(|_| {
                let id = world.add_node(1, Box::<Sink>::default());
                world.attach(id, 0, link);
                id
            })
            .collect();
        if faulty {
            let cfg = LinkFault {
                loss: LossModel::iid(0.02),
                jitter: SimDuration::ZERO,
                corruption: CorruptionModel::uniform(0.02),
            };
            let rng = RngFactory::new(7).indexed_stream("fault.link", 0);
            world.set_link_fault(link, Some(LinkFaultState::new(cfg, rng)));
        }
        let end = SimTime::ZERO + SimDuration::from_millis(sends + 100);
        world.run(end, &ExecPlan::sequential());
        delivered = sink_ids
            .iter()
            .filter_map(|id| world.behavior::<Sink>(*id))
            .map(|s| s.frames)
            .sum();
    });
    let expected = sends * sinks;
    let ok = if faulty {
        // 2% loss, 2% corruption (some of it duplicating): within ±10%.
        delivered * 10 > expected * 9 && delivered * 10 < expected * 11
    } else {
        delivered == expected
    };
    if !ok {
        return Err(format!(
            "frame copies: {delivered} delivered of {expected} sent"
        ));
    }
    Ok(ns)
}

/// The stress workloads' datagram: 256 bytes of UDP payload to the group.
fn data_packet() -> Packet {
    let g = GroupAddr::test_group(1);
    let src = addr("2001:db8:1::500");
    let udp = UdpDatagram::new(5001, 5001, Bytes::from(vec![0u8; 256]));
    Packet::new(src, g.addr(), proto::UDP, udp.encode(src, g.addr()))
}

fn packet_encode(sizes: &Sizes) -> Result<f64, String> {
    let p = data_packet();
    if Packet::decode(&p.encode()).ok().as_ref() != Some(&p) {
        return Err("ipv6 packet: decode(encode(x)) != x".into());
    }
    let n = iters(400_000, sizes);
    Ok(ns_per_op(n, || {
        for _ in 0..n {
            black_box(black_box(&p).encode());
        }
    }))
}

fn packet_decode(sizes: &Sizes) -> Result<f64, String> {
    let p = data_packet();
    let wire = p.encode();
    let n = iters(400_000, sizes);
    let mut ok = true;
    let ns = ns_per_op(n, || {
        for _ in 0..n {
            ok &= black_box(Packet::decode(black_box(&wire))).is_ok();
        }
    });
    if !ok {
        return Err("ipv6 packet: decode failed".into());
    }
    Ok(ns)
}

fn tunnel_encap(sizes: &Sizes) -> Result<f64, String> {
    let inner = data_packet();
    let (ha, coa) = (addr("2001:db8:4::1"), addr("2001:db8:6::9"));
    if decapsulate(&encapsulate(ha, coa, &inner)).ok().as_ref() != Some(&inner) {
        return Err("tunnel: decapsulate(encapsulate(x)) != x".into());
    }
    let n = iters(400_000, sizes);
    Ok(ns_per_op(n, || {
        for _ in 0..n {
            black_box(encapsulate(ha, coa, black_box(&inner)));
        }
    }))
}

fn tunnel_decap(sizes: &Sizes) -> Result<f64, String> {
    let outer = encapsulate(addr("2001:db8:4::1"), addr("2001:db8:6::9"), &data_packet());
    let n = iters(400_000, sizes);
    let mut ok = true;
    let ns = ns_per_op(n, || {
        for _ in 0..n {
            ok &= black_box(decapsulate(black_box(&outer))).is_ok();
        }
    });
    if !ok {
        return Err("tunnel: decapsulate failed".into());
    }
    Ok(ns)
}

fn mld_roundtrip(sizes: &Sizes) -> Result<f64, String> {
    let g = GroupAddr::test_group(1);
    let from = addr("fe80::1");
    let m = Icmpv6::MldReport { group: g.addr() };
    let n = iters(400_000, sizes);
    let mut ok = true;
    let ns = ns_per_op(n, || {
        for _ in 0..n {
            let wire = black_box(&m).encode(from, g.addr());
            ok &= Icmpv6::decode(from, g.addr(), &wire).ok().as_ref() == Some(&m);
        }
    });
    if !ok {
        return Err("icmpv6/mld: decode(encode(x)) != x".into());
    }
    Ok(ns)
}

fn pim_roundtrip(sizes: &Sizes) -> Result<f64, String> {
    let from = addr("fe80::2");
    let m = PimMessage::JoinPrune {
        upstream: addr("fe80::1"),
        joins: vec![(addr("2001:db8:1::5"), GroupAddr::test_group(1))],
        prunes: vec![(addr("2001:db8:1::6"), GroupAddr::test_group(2))],
    };
    let n = iters(200_000, sizes);
    let mut ok = true;
    let ns = ns_per_op(n, || {
        for _ in 0..n {
            let wire = black_box(&m).encode(from, ALL_PIM_ROUTERS);
            ok &= PimMessage::decode(from, ALL_PIM_ROUTERS, &wire)
                .ok()
                .as_ref()
                == Some(&m);
        }
    });
    if !ok {
        return Err("pim: decode(encode(x)) != x".into());
    }
    Ok(ns)
}

/// Data arriving on the RPF interface of an established (S,G) with a
/// listener downstream: the per-packet forwarding decision.
fn pim_on_data(sizes: &Sizes) -> Result<f64, String> {
    let rng = RngFactory::new(3).stream("pim");
    let mut r = PimRouter::new(PimConfig::default(), rng);
    for i in 0..3u8 {
        r.add_iface(i, nth_addr(0xfe80 << 112, u64::from(i) + 1));
    }
    let rpf = |_src: Ipv6Addr| {
        Some(RpfInfo {
            iif: 0,
            upstream: Some(addr("fe80::99")),
            metric_pref: 1,
            metric: 2,
        })
    };
    let g = GroupAddr::test_group(1);
    let s = addr("2001:db8:1::500");
    let t0 = SimTime::from_secs(1);
    r.start(t0);
    r.set_membership(1, g, true, t0, &rpf);
    let n = iters(400_000, sizes);
    let mut forwarded = 0u64;
    let mut tick = 0u64;
    let ns = ns_per_op(n, || {
        for _ in 0..n {
            tick += 1;
            let now = t0 + SimDuration::from_millis(tick);
            let (fwd, _) = r.on_data(0, s, g, now, &rpf);
            forwarded += fwd.len() as u64;
        }
    });
    r.take_notes();
    if forwarded != 3 * n {
        return Err(format!(
            "pim on_data: forwarded {forwarded} copies, expected {}",
            3 * n
        ));
    }
    Ok(ns)
}

fn sg_lookup(sizes: &Sizes) -> Result<f64, String> {
    let entries = sizes.sg_entries.max(1);
    let mut table = SgTable::new();
    let expires = SimTime::from_secs(210);
    for i in 0..entries {
        let detail = SgDetail {
            iif: 0,
            upstream: None,
            upstream_state: UpstreamState::Forwarding,
            oifs: vec![(1, OifState::default()), (2, OifState::default())],
            override_join_at: None,
            last_prune_tx: None,
            iif_assert_winner: None,
        };
        if table
            .insert((nth_addr(SRC_PREFIX, i), group_n(i)), expires, detail)
            .is_err()
        {
            return Err("sg table: insert failed".into());
        }
    }
    let n = iters(1_000_000, sizes);
    let mut hits = 0u64;
    let ns = ns_per_op(n, || {
        for i in 0..n {
            let k = i % entries;
            hits += u64::from(
                table
                    .slot_of((nth_addr(SRC_PREFIX, k), group_n(k)))
                    .is_some(),
            );
        }
    });
    if hits != 3 * n {
        return Err(format!("sg table: {hits} hits of {}", 3 * n));
    }
    Ok(ns)
}

fn mld_on_report(sizes: &Sizes) -> Result<f64, String> {
    let groups = sizes.listeners.max(1);
    let mut port = MldRouterPort::new(MldConfig::default(), addr("fe80::1"));
    let t0 = SimTime::from_secs(1);
    port.start(t0);
    let from = addr("fe80::77");
    let n = iters(400_000, sizes);
    let mut tick = 0u64;
    let ns = ns_per_op(n, || {
        for _ in 0..n {
            tick += 1;
            let msg = MldMessage::Report {
                group: group_n(tick % groups),
            };
            black_box(port.on_message(from, &msg, t0 + SimDuration::from_millis(tick)));
        }
    });
    if port.membership_count() as u64 != groups {
        return Err(format!(
            "mld router: {} memberships, expected {groups}",
            port.membership_count()
        ));
    }
    Ok(ns)
}

fn mld_on_query(sizes: &Sizes) -> Result<f64, String> {
    let mut host = MldHostPort::new(MldConfig::default(), RngFactory::new(5).stream("mld"));
    let g = GroupAddr::test_group(1);
    let t0 = SimTime::from_secs(1);
    host.join(g, t0);
    let n = iters(1_000_000, sizes);
    let mut tick = 0u64;
    let ns = ns_per_op(n, || {
        for _ in 0..n {
            tick += 1;
            let now = t0 + SimDuration::from_millis(tick);
            black_box(host.on_query(None, SimDuration::from_secs(10), now));
        }
    });
    if host.next_deadline().is_none() {
        return Err("mld host: query armed no report".into());
    }
    Ok(ns)
}

/// A home-registration Binding Update carrying the paper's Figure-5
/// Multicast Group List sub-option with four groups.
fn figure5_bu(sequence: u16) -> BindingUpdate {
    BindingUpdate {
        flags: BU_FLAG_ACK | BU_FLAG_HOME,
        sequence,
        lifetime_secs: 256,
        sub_options: vec![SubOption::MulticastGroupList(
            (0..4).map(GroupAddr::test_group).collect(),
        )],
    }
}

fn bu_roundtrip(sizes: &Sizes) -> Result<f64, String> {
    let (coa, ha, home) = (
        addr("2001:db8:6::9"),
        addr("2001:db8:4::1"),
        addr("2001:db8:4::9"),
    );
    let bu = figure5_bu(1);
    let p = binding_update_packet(coa, ha, home, bu.clone());
    let n = iters(200_000, sizes);
    let mut ok = true;
    let ns = ns_per_op(n, || {
        for _ in 0..n {
            let wire = black_box(&p).encode();
            let parsed = Packet::decode(&wire)
                .ok()
                .and_then(|q| parse_binding_update(&q));
            ok &= parsed.as_ref() == Some(&(home, bu.clone()));
        }
    });
    if !ok {
        return Err("binding update: parse(decode(encode(x))) != x".into());
    }
    Ok(ns)
}

fn populated_home_agent(bindings: u64) -> HomeAgent {
    let mut ha = HomeAgent::new();
    let coa = addr("2001:db8:6::9");
    for i in 0..bindings {
        ha.on_binding_update(nth_addr(HOME_PREFIX, i), coa, &figure5_bu(1), SimTime::ZERO);
    }
    ha
}

/// Refreshing registrations against a cache at the workload's high water.
fn ha_on_bu(sizes: &Sizes) -> Result<f64, String> {
    let bindings = sizes.bindings.max(1);
    let mut ha = populated_home_agent(bindings);
    let coa = addr("2001:db8:6::a");
    let per_pass = iters(200_000, sizes);
    let mut seq = 1u16;
    let mut tick = 0u64;
    let ns = ns_per_op(per_pass, || {
        // A fresh sequence number per batch keeps every update acceptable
        // under the modulo-2^16 freshness rule.
        seq += 1;
        let bu = figure5_bu(seq);
        for _ in 0..per_pass {
            tick += 1;
            let now = SimTime::from_secs(1) + SimDuration::from_millis(tick);
            let home = nth_addr(HOME_PREFIX, tick % bindings);
            black_box(ha.on_binding_update(home, coa, &bu, now));
        }
    });
    ha.take_notes();
    if ha.binding_count() as u64 != bindings {
        return Err(format!(
            "home agent: {} bindings, expected {bindings}",
            ha.binding_count()
        ));
    }
    Ok(ns)
}

fn binding_lookup(sizes: &Sizes) -> Result<f64, String> {
    let bindings = sizes.bindings.max(1);
    let ha = populated_home_agent(bindings);
    let n = iters(1_000_000, sizes);
    let mut hits = 0u64;
    let ns = ns_per_op(n, || {
        for i in 0..n {
            hits += u64::from(ha.intercept(nth_addr(HOME_PREFIX, i % bindings)).is_some());
        }
    });
    if hits != 3 * n {
        return Err(format!("binding cache: {hits} hits of {}", 3 * n));
    }
    Ok(ns)
}

fn recorder_count(sizes: &Sizes) -> Result<f64, String> {
    let rec = Recorder::new_shared();
    let n = iters(1_000_000, sizes);
    let ns = ns_per_op(n, || {
        for _ in 0..n {
            rec.count("tunnelEncaps", 1);
        }
    });
    let got = rec.with(|r| r.counters.get("tunnelEncaps"));
    if got != 3 * n {
        return Err(format!("recorder: counted {got} of {}", 3 * n));
    }
    Ok(ns)
}

fn recorder_delivery(sizes: &Sizes) -> Result<f64, String> {
    let n = iters(200_000, sizes);
    let mut kept = 0u64;
    let ns = ns_per_op(n, || {
        let rec = Recorder::new_shared();
        for i in 0..n {
            rec.record_delivery(Delivery {
                pkt: i,
                host: NodeId(7),
                link: LinkId(3),
                time: SimTime::from_nanos(i),
                first: true,
                via: i + 1,
            });
        }
        kept = rec.with(|r| r.deliveries.len() as u64);
    });
    if kept != n {
        return Err(format!("recorder: kept {kept} deliveries of {n}"));
    }
    Ok(ns)
}

/// Milliseconds to render one run's Perfetto trace plus its OpenMetrics
/// snapshot (the observability golden scenario's report).
fn observability_export() -> Result<f64, String> {
    let report = scenario::run(&observability::golden_scenario()).report;
    let mut bytes = 0usize;
    let ns = ns_per_op(1, || {
        bytes = observability::run_perfetto("bench", &report).len()
            + observability::run_openmetrics(&report).len();
    });
    if bytes == 0 {
        return Err("observability: empty export".into());
    }
    Ok(ns / 1e6)
}
