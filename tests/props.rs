//! Property-based tests (proptest) on the wire codecs and core data
//! structures: arbitrary inputs must round-trip, never panic, and preserve
//! the protocol invariants the simulator relies on.

mod common;

use common::{arb_addr, arb_group, arb_unicast};

use bytes::Bytes;
use mobicast::ipv6::addr::Prefix;
use mobicast::ipv6::exthdr::{BindingUpdate, ExtHeader, Option6, SubOption};
use mobicast::ipv6::packet::{proto, Packet};
use mobicast::ipv6::udp::UdpDatagram;
use mobicast::ipv6::{decapsulate, encapsulate, Icmpv6};
use mobicast::sim::{EventQueue, SimDuration, SimTime};
use proptest::prelude::*;
use std::net::Ipv6Addr;

proptest! {
    #[test]
    fn ipv6_packet_roundtrip(
        src in arb_addr(),
        dst in arb_addr(),
        hop in any::<u8>(),
        tc in any::<u8>(),
        flow in 0u32..0x100000,
        payload in proptest::collection::vec(any::<u8>(), 0..1400),
        next in any::<u8>(),
    ) {
        // Avoid next-header values that claim extension headers the
        // payload bytes cannot satisfy.
        prop_assume!(![proto::HOP_BY_HOP, proto::ROUTING, proto::DEST_OPTS].contains(&next));
        let mut p = Packet::new(src, dst, next, Bytes::from(payload));
        p.hop_limit = hop;
        p.traffic_class = tc;
        p.flow_label = flow;
        let q = Packet::decode(&p.encode()).unwrap();
        prop_assert_eq!(p, q);
    }

    #[test]
    fn udp_roundtrip(
        src in arb_addr(),
        dst in arb_addr(),
        sp in any::<u16>(),
        dp in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..1000),
    ) {
        let d = UdpDatagram::new(sp, dp, Bytes::from(payload));
        let wire = d.encode(src, dst);
        prop_assert_eq!(UdpDatagram::decode(src, dst, &wire).unwrap(), d);
    }

    #[test]
    fn udp_corruption_detected(
        payload in proptest::collection::vec(any::<u8>(), 1..64),
        flip_byte in 0usize..32,
        flip_bit in 0u8..8,
    ) {
        let src: Ipv6Addr = "2001:db8::1".parse().unwrap();
        let dst: Ipv6Addr = "2001:db8::2".parse().unwrap();
        let d = UdpDatagram::new(7, 9, Bytes::from(payload));
        let mut wire = d.encode(src, dst).to_vec();
        let idx = flip_byte % wire.len();
        // Skip flips inside the length field, which trigger BadLength
        // rather than checksum errors.
        prop_assume!(!(4..6).contains(&idx));
        wire[idx] ^= 1 << flip_bit;
        prop_assert!(UdpDatagram::decode(src, dst, &wire).is_err());
    }

    #[test]
    fn group_list_suboption_roundtrip(groups in proptest::collection::vec(arb_group(), 0..16)) {
        // Figure 5: Sub-Option Len must be 16*N and the list must survive
        // a full Binding Update wire round trip.
        let bu = BindingUpdate {
            flags: 0xC0,
            sequence: 1,
            lifetime_secs: 256,
            sub_options: vec![SubOption::MulticastGroupList(groups.clone())],
        };
        let h = ExtHeader::DestinationOptions(vec![Option6::BindingUpdate(bu)]);
        let mut out = bytes::BytesMut::new();
        h.encode(proto::NONE, &mut out);
        let (decoded, _, _) = ExtHeader::decode(proto::DEST_OPTS, &out).unwrap();
        match &decoded.dest_options().unwrap()[0] {
            Option6::BindingUpdate(got) => {
                prop_assert_eq!(got.multicast_groups().unwrap(), groups.as_slice());
            }
            other => prop_assert!(false, "unexpected {:?}", other),
        }
    }

    #[test]
    fn tunnel_nesting_roundtrip(
        depth in 1usize..4,
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        outer_src in arb_unicast(),
        outer_dst in arb_unicast(),
    ) {
        let inner = Packet::new(
            "2001:db8:1::1".parse().unwrap(),
            "ff1e::1".parse().unwrap(),
            proto::UDP,
            Bytes::from(payload),
        );
        let mut p = inner.clone();
        for _ in 0..depth {
            p = encapsulate(outer_src, outer_dst, &p);
        }
        prop_assert_eq!(p.wire_len(), inner.wire_len() + 40 * depth);
        for _ in 0..depth {
            p = decapsulate(&p).unwrap();
        }
        prop_assert_eq!(p, inner);
    }

    #[test]
    fn icmp_checksum_binds_content(
        group in arb_group(),
        flip in 1usize..20,
    ) {
        let src: Ipv6Addr = "fe80::1".parse().unwrap();
        let m = Icmpv6::MldReport { group: group.addr() };
        let mut wire = m.encode(src, group.addr()).to_vec();
        let idx = flip % wire.len();
        wire[idx] ^= 0x40;
        prop_assert!(Icmpv6::decode(src, group.addr(), &wire).is_err());
    }

    #[test]
    fn prefix_contains_its_own_derivations(
        net in any::<u64>(),
        iid in any::<u64>(),
        len in 1u8..=64,
    ) {
        let base = Ipv6Addr::from((u128::from(net)) << 64);
        let p = Prefix::new(base, len);
        prop_assert!(p.contains(p.network()));
        prop_assert!(p.contains(p.addr_with_iid(iid)));
    }

    #[test]
    fn event_queue_is_a_stable_priority_queue(
        times in proptest::collection::vec(0u64..1000, 1..200),
    ) {
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(*t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((at, idx)) = q.pop() {
            if let Some((lt, lidx)) = last {
                prop_assert!(at > lt || (at == lt && idx > lidx),
                    "time order with FIFO ties");
            }
            prop_assert_eq!(SimTime::from_nanos(times[idx]), at);
            last = Some((at, idx));
        }
    }

    #[test]
    fn provenance_chains_terminate_at_an_origin(
        seed in 1u64..64,
        strategy_idx in 0usize..4,
        move_at in 8u32..16,
    ) {
        use mobicast::core::scenario::{run_with_recorder, PaperHost, ScenarioConfig};
        let cfg = ScenarioConfig::builder()
            .seed(seed)
            .duration(SimDuration::from_secs(30))
            .policy(mobicast::core::Policy::PAPER[strategy_idx])
            .move_at(f64::from(move_at), PaperHost::R3, 6)
            .build();
        let (_, rec) = run_with_recorder(&cfg);
        use mobicast::core::recorder::{DataEvent, Parent};
        // The live-run reference: a map built by scanning, which the
        // journal's own lookups must agree with on every event.
        let journal = &rec.data_events;
        let by_tag: std::collections::HashMap<u64, (usize, DataEvent)> =
            journal.iter().enumerate().map(|(pos, ev)| (ev.id, (pos, ev))).collect();
        prop_assert!(!journal.is_empty());
        prop_assert_eq!(by_tag.len(), journal.len(), "a tag names one event");
        // Every recorded emission's parent chain must reach an origin
        // (`parent == None`) through recorded emissions only, within the
        // topology's diameter bound — i.e. no cycles, no dangling parents.
        for (pos, ev) in journal.iter().enumerate() {
            prop_assert_eq!(journal.by_tag(ev.id), Some(ev));
            prop_assert_eq!(journal.position(ev.id), Some(pos));
            let parent_pos = match ev.parent {
                None => Parent::Origin,
                Some(tag) => by_tag.get(&tag).map_or(Parent::Dangling, |(at, _)| Parent::At(*at)),
            };
            prop_assert_eq!(journal.parent_pos(pos), parent_pos);
            let mut tag = ev.id;
            let mut steps = 0;
            loop {
                let cur = by_tag.get(&tag);
                prop_assert!(cur.is_some(), "dangling provenance tag {tag}");
                match cur.unwrap().1.parent {
                    Some(parent) => tag = parent,
                    None => break,
                }
                steps += 1;
                prop_assert!(steps <= 64, "provenance cycle at tag {}", ev.id);
            }
        }
    }

    #[test]
    fn explainer_is_deterministic_across_identical_seeds(
        seed in 1u64..32,
        strategy_idx in 0usize..4,
    ) {
        use mobicast::core::scenario::{run_with_recorder, PaperHost, ScenarioConfig};
        let cfg = ScenarioConfig::builder()
            .seed(seed)
            .duration(SimDuration::from_secs(30))
            .policy(mobicast::core::Policy::PAPER[strategy_idx])
            .move_at(10.0, PaperHost::R3, 6)
            .build();
        let (_, rec_a) = run_with_recorder(&cfg);
        let (_, rec_b) = run_with_recorder(&cfg);
        prop_assert_eq!(rec_a.packets.len(), rec_b.packets.len());
        for m in rec_a.packets.iter().take(5) {
            let a = mobicast::core::explain::render(
                &mobicast::core::explain::explain(&rec_a, m.pkt), None);
            let b = mobicast::core::explain::render(
                &mobicast::core::explain::explain(&rec_b, m.pkt), None);
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn sim_duration_arithmetic_is_consistent(a in 0u64..1u64<<40, b in 0u64..1u64<<40) {
        let da = SimDuration::from_nanos(a);
        let db = SimDuration::from_nanos(b);
        prop_assert_eq!((da + db).as_nanos(), a + b);
        let t = SimTime::from_nanos(a) + db;
        prop_assert_eq!(t.saturating_since(SimTime::from_nanos(a)), db);
    }
}
