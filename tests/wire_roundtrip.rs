//! Wire-codec round-trip property tests: every protocol message the
//! simulator puts on the wire — MLD (RFC 2710 over ICMPv6), PIM-DM
//! (draft-ietf-pim-v2-dm-03), ICMPv6 control, and RFC 2473 IPv6-in-IPv6
//! tunnel encapsulation — must encode/decode losslessly, and the decoders
//! must never panic on truncated or corrupted input (they see every byte a
//! faulty link delivers).

mod common;

use common::{arb_addr, arb_group, arb_unicast, assert_shared_decoders_agree};

use bytes::Bytes;
use mobicast::ipv6::addr::GroupAddr;
use mobicast::ipv6::packet::pseudo_header_checksum;
use mobicast::ipv6::packet::{proto, Packet};
use mobicast::ipv6::tunnel::{
    decapsulate, encapsulate, encapsulate_limited, is_tunnel, DEFAULT_ENCAP_LIMIT,
};
use mobicast::ipv6::udp::UdpDatagram;
use mobicast::ipv6::Icmpv6;
use mobicast::mld::MldMessage;
use mobicast::pimdm::message::TYPE_JOIN_PRUNE;
use mobicast::pimdm::{PimMessage, Sg};
use mobicast::sim::SimDuration;
use proptest::prelude::*;
use std::net::Ipv6Addr;

/// An (S,G) list derived from raw 128-bit words (the shim has no tuple
/// strategies): low bits give the source, high bits pick the group.
fn arb_sg_list() -> impl Strategy<Value = Vec<Sg>> {
    proptest::collection::vec(any::<u128>(), 0..5).prop_map(|words| {
        words
            .into_iter()
            .map(|w| {
                let src = Ipv6Addr::from(w & !(0xff_u128 << 120));
                let group = GroupAddr::test_group((w >> 64) as u16);
                (src, group)
            })
            .collect()
    })
}

proptest! {
    /// A UDP datagram under 0–8 plain tunnel levels, intact and then with
    /// one bit flipped, truncated, or with one level's payload-length field
    /// lying: copying and zero-copy decoders agree all the way down.
    #[test]
    fn shared_decoders_agree_through_mutated_tunnel_nests(
        depth in 0usize..9,
        src in arb_unicast(),
        g in arb_group(),
        hop in arb_unicast(),
        payload in proptest::collection::vec(any::<u8>(), 0..48),
        mutation in any::<u8>(),
        at in any::<u16>(),
    ) {
        let udp = UdpDatagram::new(4000, 5001, Bytes::from(payload));
        let mut p = Packet::new(src, g.addr(), proto::UDP, udp.encode(src, g.addr()));
        for _ in 0..depth {
            p = encapsulate(hop, hop, &p);
        }
        let wire = p.encode();
        assert_shared_decoders_agree(&wire);
        // Intact, the nest unwinds to the datagram through views alone.
        let mut inner = Packet::decode_shared(&wire).expect("valid nest decodes");
        for _ in 0..depth {
            inner = decapsulate(&inner).expect("level decapsulates");
        }
        prop_assert_eq!(
            UdpDatagram::decode_shared(inner.src, inner.dst, &inner.payload).ok(),
            Some(udp)
        );

        let mut m = wire.to_vec();
        let at = usize::from(at);
        match mutation % 3 {
            0 => {
                let bit = at % (m.len() * 8);
                m[bit / 8] ^= 1 << (bit % 8);
            }
            1 => m.truncate(at % m.len()),
            _ => {
                // Payload length of tunnel level `at % (depth + 1)`.
                let field = (at % (depth + 1)) * 40 + 4;
                m[field] ^= mutation | 1;
            }
        }
        assert_shared_decoders_agree(&m);
    }

    #[test]
    fn mld_roundtrip(
        kind in any::<u8>(),
        delay_ms in any::<u16>(),
        g in arb_group(),
        src in arb_unicast(),
        dst in arb_addr(),
    ) {
        let msg = match kind % 3 {
            0 => MldMessage::Query {
                max_response_delay: SimDuration::from_millis(u64::from(delay_ms)),
                // General Query (no group) or Multicast-Address-Specific.
                group: (kind & 4 != 0).then_some(g),
            },
            1 => MldMessage::Report { group: g },
            _ => MldMessage::Done { group: g },
        };
        let bytes = msg.to_icmp().encode(src, dst);
        let decoded = Icmpv6::decode(src, dst, &bytes).expect("valid encoding decodes");
        prop_assert_eq!(MldMessage::from_icmp(&decoded), Some(msg));
    }

    #[test]
    fn pim_roundtrip(
        kind in any::<u8>(),
        holdtime_s in any::<u16>(),
        upstream in arb_unicast(),
        joins in arb_sg_list(),
        prunes in arb_sg_list(),
        g in arb_group(),
        source in arb_unicast(),
        metric_pref in any::<u32>(),
        metric in any::<u32>(),
        src in arb_unicast(),
        dst in arb_addr(),
    ) {
        let msg = match kind % 5 {
            0 => PimMessage::Hello {
                holdtime: SimDuration::from_secs(u64::from(holdtime_s)),
            },
            1 => PimMessage::JoinPrune { upstream, joins, prunes },
            2 => PimMessage::Graft { upstream, entries: joins },
            3 => PimMessage::GraftAck { upstream, entries: prunes },
            _ => PimMessage::Assert { group: g, source, metric_pref, metric },
        };
        let bytes = msg.encode(src, dst);
        let decoded = PimMessage::decode(src, dst, &bytes).expect("valid encoding decodes");
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn icmpv6_roundtrip(
        kind in any::<u8>(),
        a in any::<u16>(),
        b in any::<u16>(),
        pointer in any::<u32>(),
        g in arb_group(),
        src in arb_unicast(),
        dst in arb_addr(),
    ) {
        let msg = match kind % 5 {
            0 => Icmpv6::MldQuery { max_response_delay_ms: a, group: g.into() },
            1 => Icmpv6::ParamProblem { code: kind % 3, pointer },
            2 => Icmpv6::RouterSolicit,
            3 => Icmpv6::EchoRequest { id: a, seq: b },
            _ => Icmpv6::EchoReply { id: a, seq: b },
        };
        let bytes = msg.encode(src, dst);
        let decoded = Icmpv6::decode(src, dst, &bytes).expect("valid encoding decodes");
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn tunnel_encap_decap_roundtrip(
        inner_src in arb_unicast(),
        inner_dst in arb_addr(),
        outer_src in arb_unicast(),
        outer_dst in arb_unicast(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let inner = Packet::new(inner_src, inner_dst, proto::UDP, Bytes::from(payload));
        let outer = encapsulate(outer_src, outer_dst, &inner);
        prop_assert!(is_tunnel(&outer));
        // The tunnel must survive a wire round-trip of the outer packet.
        let wire = Packet::decode(&outer.encode()).expect("outer packet decodes");
        prop_assert_eq!(decapsulate(&wire).expect("decapsulates"), inner);
    }

    #[test]
    fn nested_encapsulation_is_bounded_and_unwinds(
        src in arb_unicast(),
        dst in arb_addr(),
        hop in arb_unicast(),
        payload in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        let inner = Packet::new(src, dst, proto::UDP, Bytes::from(payload));
        let mut stack = inner.clone();
        let mut depth = 0u32;
        // RFC 2473 §4.1.1: recursive encapsulation must be refused after a
        // bounded number of levels, never loop forever.
        while let Ok(outer) = encapsulate_limited(hop, hop, &stack) {
            stack = outer;
            depth += 1;
            prop_assert!(depth <= u32::from(DEFAULT_ENCAP_LIMIT) + 1);
        }
        prop_assert!(depth >= 1, "plain packets must be encapsulable");
        // Unwind every level and recover the original datagram.
        for _ in 0..depth {
            stack = decapsulate(&stack).expect("nested level decapsulates");
        }
        prop_assert_eq!(stack, inner);
    }

    #[test]
    fn decoders_never_panic_on_arbitrary_bytes(
        raw in proptest::collection::vec(any::<u8>(), 0..200),
        src in arb_unicast(),
        dst in arb_addr(),
    ) {
        // Any result is fine — decoding must simply not panic.
        let _ = Icmpv6::decode(src, dst, &raw);
        let _ = PimMessage::decode(src, dst, &raw);
        let _ = Packet::decode(&raw);
        assert_shared_decoders_agree(&raw);
    }

    #[test]
    fn decoders_never_panic_on_truncation_or_corruption(
        kind in any::<u8>(),
        g in arb_group(),
        upstream in arb_unicast(),
        joins in arb_sg_list(),
        src in arb_unicast(),
        dst in arb_addr(),
        cut in any::<u8>(),
        flip_at in any::<u8>(),
        flip_bits in any::<u8>(),
    ) {
        // Start from a valid frame of either protocol family…
        let bytes: Bytes = if kind & 1 == 0 {
            PimMessage::Graft { upstream, entries: joins }.encode(src, dst)
        } else {
            MldMessage::Report { group: g }.to_icmp().encode(src, dst)
        };
        // …then truncate it at an arbitrary point,
        let cut = usize::from(cut) % (bytes.len() + 1);
        let _ = Icmpv6::decode(src, dst, &bytes[..cut]);
        let _ = PimMessage::decode(src, dst, &bytes[..cut]);
        assert_shared_decoders_agree(&bytes[..cut]);
        // …and separately corrupt one byte. A checksum failure or decode
        // error is expected; a panic is not.
        let mut corrupt = bytes.to_vec();
        let at = usize::from(flip_at) % corrupt.len();
        corrupt[at] ^= flip_bits | 1;
        let _ = Icmpv6::decode(src, dst, &corrupt);
        let _ = PimMessage::decode(src, dst, &corrupt);
        assert_shared_decoders_agree(&corrupt);
    }

    /// Mutation fuzz, bit-flip class: start from a *valid* frame of each
    /// family and flip exactly one bit. The decoder must return a typed
    /// error or a value — never panic — and anything it accepts must
    /// re-encode canonically (encode→decode agrees with the accepted
    /// value; the simulator's single encoder is the canonical form).
    #[test]
    fn single_bit_flip_is_rejected_or_canonical(
        kind in any::<u8>(),
        g in arb_group(),
        upstream in arb_unicast(),
        joins in arb_sg_list(),
        pointer in any::<u32>(),
        src in arb_unicast(),
        dst in arb_addr(),
        flip in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        match kind % 4 {
            0 => {
                let bytes = MldMessage::Query {
                    max_response_delay: SimDuration::from_millis(u64::from(pointer as u16)),
                    group: Some(g),
                }.to_icmp().encode(src, dst);
                let mut m = bytes.to_vec();
                let bit = usize::from(flip) % (m.len() * 8);
                m[bit / 8] ^= 1 << (bit % 8);
                assert_shared_decoders_agree(&m);
                if let Ok(decoded) = Icmpv6::decode(src, dst, &m) {
                    let re = decoded.encode(src, dst);
                    prop_assert_eq!(Icmpv6::decode(src, dst, &re).unwrap(), decoded);
                }
            }
            1 => {
                let bytes = PimMessage::JoinPrune {
                    upstream, joins: joins.clone(), prunes: vec![],
                }.encode(src, dst);
                let mut m = bytes.to_vec();
                let bit = usize::from(flip) % (m.len() * 8);
                m[bit / 8] ^= 1 << (bit % 8);
                assert_shared_decoders_agree(&m);
                if let Ok(decoded) = PimMessage::decode(src, dst, &m) {
                    let re = decoded.encode(src, dst);
                    prop_assert_eq!(PimMessage::decode(src, dst, &re).unwrap(), decoded);
                }
            }
            2 => {
                let bytes = Icmpv6::ParamProblem { code: kind % 3, pointer }.encode(src, dst);
                let mut m = bytes.to_vec();
                let bit = usize::from(flip) % (m.len() * 8);
                m[bit / 8] ^= 1 << (bit % 8);
                assert_shared_decoders_agree(&m);
                if let Ok(decoded) = Icmpv6::decode(src, dst, &m) {
                    let re = decoded.encode(src, dst);
                    prop_assert_eq!(Icmpv6::decode(src, dst, &re).unwrap(), decoded);
                }
            }
            _ => {
                let inner = Packet::new(src, dst, proto::UDP, Bytes::from(payload));
                let bytes = encapsulate(upstream, upstream, &inner).encode();
                let mut m = bytes.to_vec();
                let bit = usize::from(flip) % (m.len() * 8);
                m[bit / 8] ^= 1 << (bit % 8);
                assert_shared_decoders_agree(&m);
                if let Ok(decoded) = Packet::decode(&m) {
                    // Tunnel unwrap of a mangled outer packet must not panic.
                    let _ = decapsulate(&decoded);
                    let re = decoded.encode();
                    prop_assert_eq!(Packet::decode(&re).unwrap(), decoded);
                }
            }
        }
    }

    /// Mutation fuzz, truncation class: every strict prefix of a valid
    /// frame, at every offset, must decode to a typed error or an accepted
    /// value that re-encodes canonically — never panic.
    #[test]
    fn truncation_at_every_offset_is_typed(
        kind in any::<u8>(),
        g in arb_group(),
        upstream in arb_unicast(),
        joins in arb_sg_list(),
        src in arb_unicast(),
        dst in arb_addr(),
        payload in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        let frames: Vec<Bytes> = vec![
            MldMessage::Report { group: g }.to_icmp().encode(src, dst),
            PimMessage::Graft { upstream, entries: joins }.encode(src, dst),
            Icmpv6::EchoRequest { id: u16::from(kind), seq: 7 }.encode(src, dst),
            encapsulate(upstream, upstream,
                &Packet::new(src, dst, proto::UDP, Bytes::from(payload))).encode(),
        ];
        for bytes in &frames {
            for cut in 0..bytes.len() {
                let prefix = &bytes[..cut];
                assert_shared_decoders_agree(prefix);
                // Frames below the minimal header must always be errors.
                if cut < 4 {
                    prop_assert!(Icmpv6::decode(src, dst, prefix).is_err());
                    prop_assert!(PimMessage::decode(src, dst, prefix).is_err());
                    prop_assert!(Packet::decode(prefix).is_err());
                    continue;
                }
                if let Ok(d) = Icmpv6::decode(src, dst, prefix) {
                    let re = d.encode(src, dst);
                    prop_assert_eq!(Icmpv6::decode(src, dst, &re).unwrap(), d);
                }
                if let Ok(d) = PimMessage::decode(src, dst, prefix) {
                    let re = d.encode(src, dst);
                    prop_assert_eq!(PimMessage::decode(src, dst, &re).unwrap(), d);
                }
                if let Ok(d) = Packet::decode(prefix) {
                    let re = d.encode();
                    prop_assert_eq!(Packet::decode(&re).unwrap(), d);
                }
            }
        }
    }

    /// Mutation fuzz, length-field lies: take valid frames and make their
    /// internal length/count fields claim more data than the buffer holds
    /// (fixing checksums so only the lie is under test). The decoders must
    /// report typed truncation errors, not read out of bounds.
    #[test]
    fn length_field_lies_are_rejected(
        g in arb_group(),
        upstream in arb_unicast(),
        source in arb_unicast(),
        src in arb_unicast(),
        dst in arb_addr(),
        lie in any::<u16>().prop_map(|x| x.max(1)),
        payload in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        // IPv6 payload-length lying long: header claims more payload bytes
        // than the wire carries.
        let pkt = Packet::new(src, dst, proto::UDP, Bytes::from(payload.clone()));
        let mut m = pkt.encode().to_vec();
        let claimed = u16::from_be_bytes([m[4], m[5]]).saturating_add(lie);
        m[4..6].copy_from_slice(&claimed.to_be_bytes());
        prop_assert!(Packet::decode(&m).is_err(), "payload-length lie accepted");
        assert_shared_decoders_agree(&m);

        // PIM Join/Prune source-count lying long: the per-group join count
        // claims sources beyond the end of the message.
        let jp = PimMessage::JoinPrune {
            upstream,
            joins: vec![(source, g)],
            prunes: vec![],
        };
        let mut m = jp.encode(src, dst).to_vec();
        // Body starts at 4; upstream(16) + reserved(1) + ngroups(1) +
        // holdtime(2) + group(16) puts the join count at offset 40.
        let njoins = u16::from_be_bytes([m[40], m[41]]).saturating_add(lie);
        m[40..42].copy_from_slice(&njoins.to_be_bytes());
        m[2] = 0;
        m[3] = 0;
        let sum = pseudo_header_checksum(src, dst, proto::PIM, &m);
        m[2..4].copy_from_slice(&sum.to_be_bytes());
        prop_assert_eq!(m[0] & 0x0f, TYPE_JOIN_PRUNE);
        prop_assert!(
            PimMessage::decode(src, dst, &m).is_err(),
            "join-count lie accepted"
        );
        assert_shared_decoders_agree(&m);

        // …and lying short: fewer groups than encoded leaves trailing bytes
        // but must still parse without panicking (or err — never read past
        // the claimed count).
        let mut m2 = jp.encode(src, dst).to_vec();
        m2[21] = 0; // ngroups
        m2[2] = 0;
        m2[3] = 0;
        let sum = pseudo_header_checksum(src, dst, proto::PIM, &m2);
        m2[2..4].copy_from_slice(&sum.to_be_bytes());
        assert_shared_decoders_agree(&m2);
        if let Ok(d) = PimMessage::decode(src, dst, &m2) {
            prop_assert_eq!(
                d,
                PimMessage::JoinPrune { upstream, joins: vec![], prunes: vec![] }
            );
        }
    }
}
