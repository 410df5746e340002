//! Criterion benchmarks for the wire codecs: IPv6 packets with extension
//! headers (copying and zero-copy decode), ICMPv6/MLD with checksums, PIM
//! messages, tunneling, the per-emission data-stream probe, the per-frame
//! parse memo (first ask vs every later one), and the Figure-5 Multicast
//! Group List Sub-Option.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mobicast_core::netplan::{extract_data_info, frame_for};
use mobicast_core::parsed::parsed;
use mobicast_ipv6::addr::GroupAddr;
use mobicast_ipv6::exthdr::{BindingUpdate, SubOption, BU_FLAG_ACK, BU_FLAG_HOME};
use mobicast_ipv6::icmpv6::AdvertisedPrefix;
use mobicast_ipv6::packet::{proto, Packet};
use mobicast_ipv6::udp::UdpDatagram;
use mobicast_ipv6::{encapsulate, Icmpv6};
use mobicast_pimdm::PimMessage;
use std::hint::black_box;
use std::net::Ipv6Addr;

fn a(s: &str) -> Ipv6Addr {
    s.parse().unwrap()
}

fn data_packet(payload: usize) -> Packet {
    let g = GroupAddr::test_group(1);
    let udp = UdpDatagram::new(5001, 5001, Bytes::from(vec![0u8; payload]));
    let body = udp.encode(a("2001:db8:1::500"), g.addr());
    Packet::new(a("2001:db8:1::500"), g.addr(), proto::UDP, body)
}

fn bench_packet_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("ipv6_codec");
    for payload in [64usize, 512, 1400] {
        let p = data_packet(payload);
        let wire = p.encode();
        group.throughput(Throughput::Bytes(wire.len() as u64));
        group.bench_function(format!("encode_{payload}B"), |b| {
            b.iter(|| black_box(p.encode()));
        });
        group.bench_function(format!("decode_{payload}B"), |b| {
            b.iter(|| black_box(Packet::decode(&wire).unwrap()));
        });
        // What the node glue and the oracle probe do with a received frame.
        group.bench_function(format!("packet_decode_shared_{payload}B"), |b| {
            b.iter(|| black_box(Packet::decode_shared(&wire).unwrap()));
        });
    }
    group.finish();
}

/// `netplan::extract_data_info`: run on every emission (sender, routers)
/// and by the oracle on every transmitted frame — UDP checksum and data
/// header of the stream datagram, behind one tunnel level or none.
fn bench_extract_data_info(c: &mut Criterion) {
    let native = data_packet(256);
    let tunnelled = encapsulate(a("2001:db8:6::1"), a("2001:db8:4::1"), &native);
    let mut group = c.benchmark_group("extract_data_info");
    for (label, packet) in [("native", &native), ("tunnelled", &tunnelled)] {
        assert!(extract_data_info(packet).is_some());
        group.bench_function(label, |b| {
            b.iter(|| black_box(extract_data_info(black_box(packet))));
        });
    }
    group.finish();
}

/// What one transmission costs to parse — packet, upper layer and data
/// probe, as the emitter, the oracle and the receivers between them ask —
/// the first time (`first`: a frame nobody has asked yet) and every time
/// after (`reuse`: the filled memo), for the four frames that make up
/// nearly all traffic.
fn bench_frame_parse(c: &mut Criterion) {
    let (ll, all_nodes) = (a("fe80::1"), mobicast_ipv6::addr::ALL_NODES);
    let ra = Icmpv6::RouterAdvert {
        router_lifetime_secs: 1800,
        prefixes: vec![AdvertisedPrefix {
            prefix: "2001:db8:4::/64".parse().unwrap(),
            autonomous: true,
            valid_lifetime_secs: 86_400,
            preferred_lifetime_secs: 14_400,
        }],
    };
    let ra = Packet::new(ll, all_nodes, proto::ICMPV6, ra.encode(ll, all_nodes));
    let all_pim = mobicast_ipv6::addr::ALL_PIM_ROUTERS;
    let hello = PimMessage::Hello {
        holdtime: mobicast_sim::SimDuration::from_secs(105),
    };
    let hello = Packet::new(ll, all_pim, proto::PIM, hello.encode(ll, all_pim));
    let native = data_packet(256);
    let tunnelled = encapsulate(a("2001:db8:6::1"), a("2001:db8:4::1"), &native);
    let ask = |frame: &mobicast_net::Frame| {
        let layers = parsed(frame).unwrap();
        black_box((layers.upper(), layers.data()));
    };
    let mut group = c.benchmark_group("frame_parse");
    for (label, packet) in [
        ("ra", &ra),
        ("pim_hello", &hello),
        ("native_data", &native),
        ("tunnelled_data", &tunnelled),
    ] {
        let frame = frame_for(packet, None);
        group.bench_function(format!("first/{label}"), |b| {
            // `with_bytes` hands back the frame with an empty memo.
            b.iter(|| ask(&frame.clone().with_bytes(frame.bytes().clone())));
        });
        ask(&frame);
        group.bench_function(format!("reuse/{label}"), |b| {
            b.iter(|| ask(black_box(&frame)));
        });
    }
    group.finish();
}

fn bench_tunnel(c: &mut Criterion) {
    let inner = data_packet(512);
    c.bench_function("tunnel/encapsulate_512B", |b| {
        b.iter(|| black_box(encapsulate(a("2001:db8:6::1"), a("2001:db8:4::1"), &inner)));
    });
    let outer = encapsulate(a("2001:db8:6::1"), a("2001:db8:4::1"), &inner);
    c.bench_function("tunnel/decapsulate_512B", |b| {
        b.iter(|| black_box(mobicast_ipv6::decapsulate(&outer).unwrap()));
    });
}

fn bench_mld_message(c: &mut Criterion) {
    let g = GroupAddr::test_group(1);
    c.bench_function("mld/report_encode_decode", |b| {
        b.iter(|| {
            let m = Icmpv6::MldReport { group: g.addr() };
            let wire = m.encode(a("fe80::1"), g.addr());
            black_box(Icmpv6::decode(a("fe80::1"), g.addr(), &wire).unwrap())
        });
    });
}

fn bench_pim_message(c: &mut Criterion) {
    c.bench_function("pim/join_prune_encode_decode", |b| {
        let m = PimMessage::JoinPrune {
            upstream: a("fe80::1"),
            joins: vec![(a("2001:db8:1::5"), GroupAddr::test_group(1))],
            prunes: vec![(a("2001:db8:1::6"), GroupAddr::test_group(2))],
        };
        b.iter(|| {
            let wire = m.encode(a("fe80::2"), mobicast_ipv6::addr::ALL_PIM_ROUTERS);
            black_box(
                PimMessage::decode(a("fe80::2"), mobicast_ipv6::addr::ALL_PIM_ROUTERS, &wire)
                    .unwrap(),
            )
        });
    });
}

fn bench_fig5_suboption(c: &mut Criterion) {
    // Figure 5 throughput: Binding Updates carrying growing group lists.
    let mut group = c.benchmark_group("fig5_group_list");
    for n in [1u16, 4, 15] {
        let groups: Vec<GroupAddr> = (0..n).map(GroupAddr::test_group).collect();
        let bu = BindingUpdate {
            flags: BU_FLAG_ACK | BU_FLAG_HOME,
            sequence: 1,
            lifetime_secs: 256,
            sub_options: vec![SubOption::MulticastGroupList(groups)],
        };
        let p = mobicast_mipv6::packets::binding_update_packet(
            a("2001:db8:6::9"),
            a("2001:db8:4::1"),
            a("2001:db8:4::9"),
            bu,
        );
        group.bench_function(format!("bu_roundtrip_{n}_groups"), |b| {
            b.iter(|| {
                let wire = p.encode();
                let q = Packet::decode(&wire).unwrap();
                black_box(mobicast_mipv6::packets::parse_binding_update(&q).unwrap())
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_packet_codec,
    bench_extract_data_info,
    bench_frame_parse,
    bench_tunnel,
    bench_mld_message,
    bench_pim_message,
    bench_fig5_suboption
);
criterion_main!(benches);
