//! Generic IPv6-in-IPv6 packet tunneling (RFC 2473).
//!
//! Mobile IPv6 home agents tunnel intercepted packets to a mobile host's
//! care-of address, and mobile senders may reverse-tunnel multicast
//! datagrams to their home agent (Section 4.2.2 B of the paper). Each level
//! of encapsulation costs exactly [`TUNNEL_OVERHEAD`] bytes on the wire —
//! the "protocol overhead" the paper's comparison charges to the tunnel
//! approaches.

use crate::error::DecodeError;
use crate::exthdr::{ExtHeader, Option6};
use crate::packet::{proto, Packet, FIXED_HEADER_LEN};
use bytes::Bytes;
use std::net::Ipv6Addr;

/// Per-packet byte overhead of one encapsulation level (the outer fixed
/// IPv6 header).
pub const TUNNEL_OVERHEAD: usize = FIXED_HEADER_LEN;

/// Default Tunnel Encapsulation Limit (RFC 2473 §6.7 "TunnelEncapLim"):
/// how many further tunnel levels a packet without an explicit limit option
/// may be wrapped in.
pub const DEFAULT_ENCAP_LIMIT: u8 = 4;

/// Encapsulation refused: the inner packet's Tunnel Encapsulation Limit is
/// exhausted (RFC 2473 §4.1.1). The would-be encapsulator must discard the
/// packet and report an ICMPv6 Parameter Problem to the inner source.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EncapLimitExceeded;

/// Encapsulate `inner` in an outer packet from `outer_src` to `outer_dst`.
pub fn encapsulate(outer_src: Ipv6Addr, outer_dst: Ipv6Addr, inner: &Packet) -> Packet {
    Packet::new(outer_src, outer_dst, proto::IPV6, inner.encode())
}

/// The Tunnel Encapsulation Limit option of `p`, if it carries one.
pub fn tunnel_encap_limit(p: &Packet) -> Option<u8> {
    p.dest_options()?.iter().find_map(|o| match o {
        Option6::TunnelEncapLimit(l) => Some(*l),
        _ => None,
    })
}

/// Encapsulate with the RFC 2473 §4.1.1 nesting check.
///
/// The inner packet's remaining limit is its Tunnel Encapsulation Limit
/// option if present, else [`DEFAULT_ENCAP_LIMIT`]. A remaining limit of 0
/// refuses the encapsulation ([`EncapLimitExceeded`]). When the inner packet
/// is itself a tunnel packet the outer header carries a Tunnel Encapsulation
/// Limit option of `remaining - 1`, so each nesting level counts down and
/// recursive encapsulation is bounded. Plain (non-nested) tunnels carry no
/// option and keep the paper's exact 40-byte overhead.
pub fn encapsulate_limited(
    outer_src: Ipv6Addr,
    outer_dst: Ipv6Addr,
    inner: &Packet,
) -> Result<Packet, EncapLimitExceeded> {
    encapsulate_limited_wire(outer_src, outer_dst, inner, inner.encode())
}

/// [`encapsulate_limited`] over `inner_wire`, the encoding of `inner` the
/// caller already holds (the bytes it arrived in, or one encoding shared by
/// every copy of a fan-out), so that nothing is encoded again per copy.
/// `inner` is read for its limit option and its protocol only.
pub fn encapsulate_limited_wire(
    outer_src: Ipv6Addr,
    outer_dst: Ipv6Addr,
    inner: &Packet,
    inner_wire: Bytes,
) -> Result<Packet, EncapLimitExceeded> {
    debug_assert_eq!(
        Packet::decode_shared(&inner_wire).as_ref(),
        Ok(inner),
        "inner_wire is not the encoding of inner"
    );
    let remaining = tunnel_encap_limit(inner).unwrap_or(DEFAULT_ENCAP_LIMIT);
    if remaining == 0 {
        return Err(EncapLimitExceeded);
    }
    let mut outer = Packet::new(outer_src, outer_dst, proto::IPV6, inner_wire);
    if is_tunnel(inner) {
        outer.ext.push(ExtHeader::DestinationOptions(vec![
            Option6::TunnelEncapLimit(remaining - 1),
        ]));
    }
    Ok(outer)
}

/// Decapsulate one tunnel level. Fails if the packet is not IPv6-in-IPv6 or
/// the inner bytes do not parse. The inner packet's payload is a view of the
/// outer packet's (no copy).
pub fn decapsulate(outer: &Packet) -> Result<Packet, DecodeError> {
    if outer.payload_proto != proto::IPV6 {
        return Err(DecodeError::Unsupported {
            what: "decapsulation of non-tunnel packet",
            value: u32::from(outer.payload_proto),
        });
    }
    Packet::decode_shared(&outer.payload)
}

/// Is this packet a tunnel packet?
pub fn is_tunnel(p: &Packet) -> bool {
    p.payload_proto == proto::IPV6
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    fn sample_inner() -> Packet {
        Packet::new(
            a("2001:db8:1::5"),
            a("ff1e::1"),
            proto::UDP,
            Bytes::from_static(&[0xab; 64]),
        )
    }

    #[test]
    fn encap_decap_roundtrip() {
        let inner = sample_inner();
        let outer = encapsulate(a("2001:db8:4::d"), a("2001:db8:1::c0a"), &inner);
        assert!(is_tunnel(&outer));
        assert_eq!(outer.payload_proto, proto::IPV6);
        let back = decapsulate(&outer).unwrap();
        assert_eq!(back, inner);
    }

    #[test]
    fn overhead_is_exactly_forty_bytes() {
        let inner = sample_inner();
        let outer = encapsulate(a("::1"), a("::2"), &inner);
        assert_eq!(outer.wire_len(), inner.wire_len() + TUNNEL_OVERHEAD);
    }

    #[test]
    fn nested_tunnels() {
        let inner = sample_inner();
        let mid = encapsulate(a("::1"), a("::2"), &inner);
        let outer = encapsulate(a("::3"), a("::4"), &mid);
        assert_eq!(outer.wire_len(), inner.wire_len() + 2 * TUNNEL_OVERHEAD);
        let back = decapsulate(&decapsulate(&outer).unwrap()).unwrap();
        assert_eq!(back, inner);
    }

    #[test]
    fn limited_encap_counts_down_and_refuses_at_zero() {
        let inner = sample_inner();
        // First level: plain tunnel, no option, exact 40-byte overhead.
        let t1 = encapsulate_limited(a("::1"), a("::2"), &inner).unwrap();
        assert_eq!(tunnel_encap_limit(&t1), None);
        assert_eq!(t1.wire_len(), inner.wire_len() + TUNNEL_OVERHEAD);
        // Nesting attaches a decrementing limit option.
        let t2 = encapsulate_limited(a("::3"), a("::4"), &t1).unwrap();
        assert_eq!(tunnel_encap_limit(&t2), Some(DEFAULT_ENCAP_LIMIT - 1));
        let mut level = t2;
        for expect in (0..DEFAULT_ENCAP_LIMIT - 1).rev() {
            level = encapsulate_limited(a("::5"), a("::6"), &level).unwrap();
            assert_eq!(tunnel_encap_limit(&level), Some(expect));
        }
        // Remaining limit 0: further encapsulation is refused.
        assert_eq!(
            encapsulate_limited(a("::7"), a("::8"), &level),
            Err(EncapLimitExceeded)
        );
        // The whole nest still unwraps back to the original packet.
        let mut p = level;
        while is_tunnel(&p) {
            p = decapsulate(&p).unwrap();
        }
        assert_eq!(p, inner);
    }

    #[test]
    fn limit_option_survives_wire_roundtrip() {
        let inner = sample_inner();
        let t1 = encapsulate_limited(a("::1"), a("::2"), &inner).unwrap();
        let t2 = encapsulate_limited(a("::3"), a("::4"), &t1).unwrap();
        let parsed = Packet::decode(&t2.encode()).unwrap();
        assert_eq!(tunnel_encap_limit(&parsed), Some(DEFAULT_ENCAP_LIMIT - 1));
        assert_eq!(decapsulate(&parsed).unwrap(), t1);
    }

    #[test]
    fn supplied_inner_wire_encapsulates_as_the_packet_does() {
        let inner = sample_inner();
        let t1 = encapsulate_limited(a("::1"), a("::2"), &inner).unwrap();
        let wire = t1.encode();
        let supplied = encapsulate_limited_wire(a("::3"), a("::4"), &t1, wire.clone()).unwrap();
        assert_eq!(
            supplied,
            encapsulate_limited(a("::3"), a("::4"), &t1).unwrap()
        );
        assert_eq!(tunnel_encap_limit(&supplied), Some(DEFAULT_ENCAP_LIMIT - 1));
        assert_eq!(supplied.payload.as_ptr(), wire.as_ptr(), "not copied");
    }

    #[test]
    fn decap_of_plain_packet_fails() {
        let plain = sample_inner();
        assert!(matches!(
            decapsulate(&plain),
            Err(DecodeError::Unsupported { .. })
        ));
        assert!(!is_tunnel(&plain));
    }

    #[test]
    fn tunnel_survives_wire_roundtrip() {
        let inner = sample_inner();
        let outer = encapsulate(a("2001:db8:4::d"), a("2001:db8:6::beef"), &inner);
        let wire = outer.encode();
        let parsed = Packet::decode(&wire).unwrap();
        assert_eq!(decapsulate(&parsed).unwrap(), inner);
    }
}
