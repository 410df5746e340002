//! Shared by the frame-corpus, wire round-trip and property tests: the
//! reference every frame's parse memo is compared against, the copying
//! decoders the zero-copy ones are, and the address strategies.
#![allow(dead_code)]

use bytes::Bytes;
use mobicast::core::netplan::{extract_data_info, hop_limit};
use mobicast::core::parsed::{parsed, Layers, Upper};
use mobicast::ipv6::addr::GroupAddr;
use mobicast::ipv6::packet::{proto, Packet};
use mobicast::ipv6::udp::UdpDatagram;
use mobicast::ipv6::{tunnel, Icmpv6};
use mobicast::mipv6::packets::{parse_binding_ack, parse_binding_update};
use mobicast::net::{Frame, FrameClass};
use mobicast::pimdm::PimMessage;
use proptest::prelude::*;
use std::net::Ipv6Addr;

pub fn arb_addr() -> impl Strategy<Value = Ipv6Addr> {
    any::<u128>().prop_map(Ipv6Addr::from)
}

/// Any address but a multicast one (`ff00::/8`).
pub fn arb_unicast() -> impl Strategy<Value = Ipv6Addr> {
    any::<u128>().prop_map(|x| Ipv6Addr::from(x & !(0xff_u128 << 120)))
}

pub fn arb_group() -> impl Strategy<Value = GroupAddr> {
    any::<u16>().prop_map(GroupAddr::test_group)
}

/// What a check of one frame found, so a corpus can show it was not vacuous.
#[derive(Default, Debug)]
pub struct Seen {
    pub frames: u64,
    pub undecodable: u64,
    pub upper_errors: u64,
    pub tunnels: u64,
    pub data: u64,
    pub signalling: u64,
}

/// Every answer of `frame`'s parse memo equals the plain decoder run on
/// its wire — `Ok` values and every typed `Err` — with the hop limit read
/// as the nodes read it (`netplan::hop_limit`: a forwarded frame shares
/// its predecessor's parse and patches the hop limit). Asked of the frame
/// as captured (its memo may have been filled during a run, or shared
/// along a chain of hops) and of two new frames over the wire bytes, in
/// opposite orders.
pub fn assert_memo_matches_fresh_decode(frame: &Frame, seen: &mut Seen) {
    let wire = frame.wire();
    let fresh = Packet::decode_shared(&wire);
    let forward = Frame::new(wire.clone(), frame.class);
    let backward = Frame::new(wire, frame.class);
    for (asked, reversed) in [(frame, false), (&forward, false), (&backward, true)] {
        match (parsed(asked), &fresh) {
            (Err(got), Err(want)) => assert_eq!(got, want),
            (Ok(layers), Ok(p)) => {
                let mut asks: [fn(&Frame, &Layers, &Packet); 4] =
                    [ask_packet, ask_upper, ask_data, ask_signalling];
                if reversed {
                    asks.reverse();
                }
                for ask in asks {
                    ask(asked, layers, p);
                }
            }
            (got, want) => panic!("memo {got:?}, fresh decode {want:?}"),
        }
    }
    seen.frames += 1;
    let Ok(p) = fresh else {
        seen.undecodable += 1;
        return;
    };
    seen.tunnels += u64::from(tunnel::is_tunnel(&p));
    seen.data += u64::from(extract_data_info(&p).is_some());
    seen.signalling +=
        u64::from(parse_binding_update(&p).is_some() || parse_binding_ack(&p).is_some());
    seen.upper_errors += u64::from(match p.payload_proto {
        proto::ICMPV6 => Icmpv6::decode(p.src, p.dst, &p.payload).is_err(),
        proto::PIM => PimMessage::decode(p.src, p.dst, &p.payload).is_err(),
        proto::IPV6 => tunnel::decapsulate(&p).is_err(),
        _ => false,
    });
}

/// [`assert_memo_matches_fresh_decode`] for bare bytes.
pub fn assert_memo_matches_fresh_decode_of(raw: &[u8]) {
    let frame = Frame::new(Bytes::copy_from_slice(raw), FrameClass::Other);
    assert_memo_matches_fresh_decode(&frame, &mut Seen::default());
}

/// The zero-copy decoders the frame path uses must agree with the copying
/// ones on every input — the same value or the same typed error — at every
/// level of a tunnel nest (to depth 8) and for the UDP datagram inside.
/// `raw` is checked as a view at a non-zero offset of a larger buffer,
/// which is what a decapsulated payload is. A frame carrying `raw` must
/// read the same through its parse memo.
pub fn assert_shared_decoders_agree(raw: &[u8]) {
    assert_memo_matches_fresh_decode_of(raw);
    let mut framed = vec![0xee; 3];
    framed.extend_from_slice(raw);
    framed.extend_from_slice(&[0xee; 2]);
    let mut bytes = Bytes::from(framed).slice(3..3 + raw.len());
    for level in 0..=8 {
        let shared = Packet::decode_shared(&bytes);
        assert_eq!(shared, Packet::decode(&bytes), "IPv6, tunnel level {level}");
        let Ok(p) = shared else { return };
        match p.payload_proto {
            proto::UDP => {
                assert_eq!(
                    UdpDatagram::decode_shared(p.src, p.dst, &p.payload),
                    UdpDatagram::decode(p.src, p.dst, &p.payload),
                    "UDP, tunnel level {level}"
                );
                return;
            }
            proto::IPV6 => {
                assert_eq!(
                    tunnel::decapsulate(&p),
                    Packet::decode(&p.payload),
                    "decapsulate, tunnel level {level}"
                );
                bytes = p.payload;
            }
            _ => return,
        }
    }
}

fn ask_packet(frame: &Frame, layers: &Layers, p: &Packet) {
    let on_wire = Packet {
        hop_limit: hop_limit(layers.packet(), Some(frame)),
        ..layers.packet().clone()
    };
    assert_eq!(&on_wire, p);
    assert_eq!(layers.unknown_option_problem(), p.unknown_option_problem());
}

fn ask_upper(_: &Frame, layers: &Layers, p: &Packet) {
    let want = match p.payload_proto {
        proto::ICMPV6 => Upper::Icmpv6(Icmpv6::decode(p.src, p.dst, &p.payload)),
        proto::PIM => Upper::Pim(PimMessage::decode(p.src, p.dst, &p.payload)),
        proto::IPV6 => Upper::Tunnel(tunnel::decapsulate(p)),
        _ => Upper::Opaque,
    };
    assert_eq!(layers.upper(), &want);
}

fn ask_data(_: &Frame, layers: &Layers, p: &Packet) {
    assert_eq!(layers.data().copied(), extract_data_info(p));
}

fn ask_signalling(_: &Frame, layers: &Layers, p: &Packet) {
    let (update, ack) = (parse_binding_update(p), parse_binding_ack(p));
    assert_eq!(layers.binding_update(), update.as_ref());
    assert_eq!(layers.binding_ack(), ack.as_ref());
    assert_eq!(
        layers.is_binding_signalling(),
        update.is_some() || ack.is_some()
    );
}
