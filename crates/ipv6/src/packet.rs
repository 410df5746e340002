//! The IPv6 packet: fixed header, chained extension headers, payload.
//!
//! Packets are carried through the simulated network as real wire bytes
//! (`encode` / `decode` round-trip), which is what gives the experiment
//! harness byte-accurate bandwidth accounting — e.g. the 40-byte-per-packet
//! encapsulation overhead of the tunnel approaches falls out of the math
//! instead of being asserted.

use crate::error::{need, DecodeError};
use crate::exthdr::{encoded_option_len, read_addr, ExtHeader, Option6, UnknownOptionAction};
use bytes::{BufMut, Bytes, BytesMut};
use std::net::Ipv6Addr;
use std::ops::Range;

/// Protocol numbers used in `next_header` fields.
pub mod proto {
    /// Hop-by-Hop options extension header.
    pub const HOP_BY_HOP: u8 = 0;
    pub const TCP: u8 = 6;
    pub const UDP: u8 = 17;
    /// IPv6-in-IPv6 encapsulation (RFC 2473).
    pub const IPV6: u8 = 41;
    pub const ROUTING: u8 = 43;
    pub const ICMPV6: u8 = 58;
    /// No next header.
    pub const NONE: u8 = 59;
    pub const DEST_OPTS: u8 = 60;
    /// Protocol Independent Multicast.
    pub const PIM: u8 = 103;
}

/// Size of the fixed IPv6 header in bytes — also the per-packet overhead of
/// IPv6-in-IPv6 tunneling.
pub const FIXED_HEADER_LEN: usize = 40;

/// Default hop limit for ordinary packets.
pub const DEFAULT_HOP_LIMIT: u8 = 64;

/// A parsed IPv6 packet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Packet {
    pub src: Ipv6Addr,
    pub dst: Ipv6Addr,
    pub hop_limit: u8,
    pub traffic_class: u8,
    pub flow_label: u32,
    /// Extension headers in wire order.
    pub ext: Vec<ExtHeader>,
    /// Protocol of `payload` (`proto::*`).
    pub payload_proto: u8,
    /// Upper-layer payload bytes (already encoded by the upper protocol).
    pub payload: Bytes,
}

impl Packet {
    /// A plain packet with no extension headers.
    pub fn new(src: Ipv6Addr, dst: Ipv6Addr, payload_proto: u8, payload: Bytes) -> Self {
        Packet {
            src,
            dst,
            hop_limit: DEFAULT_HOP_LIMIT,
            traffic_class: 0,
            flow_label: 0,
            ext: Vec::new(),
            payload_proto,
            payload,
        }
    }

    pub fn with_hop_limit(mut self, hop_limit: u8) -> Self {
        self.hop_limit = hop_limit;
        self
    }

    pub fn with_ext(mut self, ext: ExtHeader) -> Self {
        self.ext.push(ext);
        self
    }

    /// Total length on the wire, in bytes.
    pub fn wire_len(&self) -> usize {
        FIXED_HEADER_LEN
            + self.ext.iter().map(ExtHeader::wire_len).sum::<usize>()
            + self.payload.len()
    }

    /// Serialize to wire bytes.
    pub fn encode(&self) -> Bytes {
        let mut out = BytesMut::with_capacity(self.wire_len());
        let payload_len: usize =
            self.ext.iter().map(ExtHeader::wire_len).sum::<usize>() + self.payload.len();
        assert!(payload_len <= usize::from(u16::MAX), "payload too large");

        let first_proto = self
            .ext
            .first()
            .map(ExtHeader::protocol)
            .unwrap_or(self.payload_proto);

        let vtf: u32 =
            (6u32 << 28) | (u32::from(self.traffic_class) << 20) | (self.flow_label & 0xfffff);
        out.put_u32(vtf);
        out.put_u16(payload_len as u16);
        out.put_u8(first_proto);
        out.put_u8(self.hop_limit);
        out.put_slice(&self.src.octets());
        out.put_slice(&self.dst.octets());

        for (i, h) in self.ext.iter().enumerate() {
            let next = self
                .ext
                .get(i + 1)
                .map(ExtHeader::protocol)
                .unwrap_or(self.payload_proto);
            h.encode(next, &mut out);
        }
        out.put_slice(&self.payload);
        debug_assert_eq!(out.len(), self.wire_len());
        out.freeze()
    }

    /// Parse from wire bytes, copying the payload into a buffer of its own.
    pub fn decode(buf: &[u8]) -> Result<Packet, DecodeError> {
        Self::decode_with(buf, |payload| Bytes::copy_from_slice(&buf[payload]))
    }

    /// Parse a received frame without copying: the payload is a view of
    /// `frame` and keeps the whole frame alive, so a packet stored past the
    /// handler that received it should be built with [`Packet::decode`].
    /// Same checks, same result (`decode_shared(&b) == decode(&b)`).
    pub fn decode_shared(frame: &Bytes) -> Result<Packet, DecodeError> {
        Self::decode_with(frame, |payload| frame.slice(payload))
    }

    /// Parse and check `buf`; `payload_of` turns the payload's position in
    /// `buf` into the packet's payload bytes.
    fn decode_with(
        buf: &[u8],
        payload_of: impl FnOnce(Range<usize>) -> Bytes,
    ) -> Result<Packet, DecodeError> {
        need(buf, FIXED_HEADER_LEN, "IPv6 fixed header")?;
        let version = buf[0] >> 4;
        if version != 6 {
            return Err(DecodeError::BadVersion(version));
        }
        let vtf = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]);
        let traffic_class = ((vtf >> 20) & 0xff) as u8;
        let flow_label = vtf & 0xfffff;
        let payload_len = usize::from(u16::from_be_bytes([buf[4], buf[5]]));
        let mut next = buf[6];
        let hop_limit = buf[7];
        let src = read_addr(&buf[8..24])?;
        let dst = read_addr(&buf[24..40])?;
        need(&buf[FIXED_HEADER_LEN..], payload_len, "IPv6 payload")?;
        let end = FIXED_HEADER_LEN + payload_len;
        let body = &buf[FIXED_HEADER_LEN..end];

        let mut ext = Vec::new();
        let mut offset = 0usize;
        while matches!(next, proto::HOP_BY_HOP | proto::ROUTING | proto::DEST_OPTS) {
            let (h, n, used) = ExtHeader::decode(next, &body[offset..])?;
            ext.push(h);
            next = n;
            offset += used;
        }
        Ok(Packet {
            src,
            dst,
            hop_limit,
            traffic_class,
            flow_label,
            ext,
            payload_proto: next,
            payload: payload_of(FIXED_HEADER_LEN + offset..end),
        })
    }

    /// True if the destination is a multicast address.
    pub fn is_multicast(&self) -> bool {
        crate::addr::is_multicast(self.dst)
    }

    /// First destination-options extension header, if any.
    pub fn dest_options(&self) -> Option<&[crate::exthdr::Option6]> {
        self.ext.iter().find_map(ExtHeader::dest_options)
    }

    /// RFC 8200 §4.2: scan the extension headers for an option whose type
    /// the node does not recognize and whose high-order bits demand more
    /// than skipping it. Returns the mandated action together with the
    /// Parameter Problem pointer — the byte offset of the offending Option
    /// Type within the packet as this node would re-encode it.
    ///
    /// Interior padding is normalized away during decode, so for frames that
    /// were mangled in flight the pointer is the canonical offset, which is
    /// what the simulator's single encoder would have produced.
    pub fn unknown_option_problem(&self) -> Option<(UnknownOptionAction, u32)> {
        let mut offset = FIXED_HEADER_LEN;
        for h in &self.ext {
            if let ExtHeader::HopByHop(opts) | ExtHeader::DestinationOptions(opts) = h {
                // 2 bytes of next-header + length precede the first option.
                let mut inner = offset + 2;
                for o in opts {
                    if let Option6::Unknown { kind, .. } = o {
                        let action = UnknownOptionAction::for_option_type(*kind);
                        if action.discards() {
                            return Some((action, inner as u32));
                        }
                    }
                    inner += encoded_option_len(o);
                }
            }
            offset += h.wire_len();
        }
        None
    }
}

/// Internet checksum (RFC 1071) over the IPv6 pseudo-header plus a message
/// body; used by ICMPv6 (and therefore MLD) and available to UDP.
///
/// The one's-complement sum is taken over 64-bit big-endian words (RFC 1071
/// §2(B): the sum is independent of the word size, since 2⁶⁴ ≡ 1 modulo
/// 2¹⁶ − 1) into a 128-bit accumulator, whose carries are folded once at
/// the end. A body whose length is not a multiple of 8 ends in a word
/// padded with zero bytes, as the 16-bit sum pads an odd last byte.
pub fn pseudo_header_checksum(src: Ipv6Addr, dst: Ipv6Addr, next_header: u8, body: &[u8]) -> u16 {
    let halves = |a: Ipv6Addr| {
        let a = u128::from(a);
        u128::from(a as u64) + (a >> 64)
    };
    // The pseudo-header's last eight octets: 32-bit length, 24 zero bits,
    // next header.
    let tail = ((body.len() as u64) << 32) | u64::from(next_header);
    let mut sum = halves(src) + halves(dst) + u128::from(tail);
    let mut words = body.chunks_exact(8);
    for word in &mut words {
        sum += u128::from(u64::from_be_bytes(word.try_into().unwrap_or([0; 8])));
    }
    let mut last = [0u8; 8];
    last[..words.remainder().len()].copy_from_slice(words.remainder());
    sum += u128::from(u64::from_be_bytes(last));
    // Fold 128 → 16 bits, adding each carry back in (end-around carry).
    let mut folded = (sum as u64 as u128) + (sum >> 64);
    while folded > 0xffff {
        folded = (folded & 0xffff) + (folded >> 16);
    }
    !(folded as u16)
}

/// The RFC 1071 sum as a plain 16-bit loop: the reference
/// [`pseudo_header_checksum`] is checked against.
#[cfg(test)]
fn pseudo_header_checksum_16(src: Ipv6Addr, dst: Ipv6Addr, next_header: u8, body: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let mut add16 = |hi: u8, lo: u8| {
        sum += u32::from(u16::from_be_bytes([hi, lo]));
    };
    for chunk in src.octets().chunks_exact(2) {
        add16(chunk[0], chunk[1]);
    }
    for chunk in dst.octets().chunks_exact(2) {
        add16(chunk[0], chunk[1]);
    }
    let len = body.len() as u32;
    sum += len >> 16;
    sum += len & 0xffff;
    sum += u32::from(next_header);
    let mut iter = body.chunks_exact(2);
    for chunk in &mut iter {
        sum += u32::from(u16::from_be_bytes([chunk[0], chunk[1]]));
    }
    if let [last] = iter.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exthdr::{Option6, RoutingHeader};

    fn addr(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    #[test]
    fn plain_packet_roundtrip() {
        let p = Packet::new(
            addr("2001:db8:1::1"),
            addr("2001:db8:2::2"),
            proto::UDP,
            Bytes::from_static(b"hello world"),
        );
        let wire = p.encode();
        assert_eq!(wire.len(), p.wire_len());
        assert_eq!(wire.len(), 40 + 11);
        let q = Packet::decode(&wire).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn packet_with_ext_headers_roundtrip() {
        let p = Packet::new(
            addr("fe80::1"),
            crate::addr::ALL_NODES,
            proto::ICMPV6,
            Bytes::from_static(&[1, 2, 3, 4]),
        )
        .with_hop_limit(1)
        .with_ext(ExtHeader::HopByHop(vec![Option6::RouterAlert(0)]))
        .with_ext(ExtHeader::DestinationOptions(vec![Option6::HomeAddress(
            addr("2001:db8:1::9"),
        )]));
        let wire = p.encode();
        let q = Packet::decode(&wire).unwrap();
        assert_eq!(p, q);
        assert!(q.is_multicast());
    }

    #[test]
    fn routing_ext_roundtrip() {
        let p = Packet::new(
            addr("2001:db8:1::1"),
            addr("2001:db8:6::abcd"),
            proto::NONE,
            Bytes::new(),
        )
        .with_ext(ExtHeader::Routing(RoutingHeader {
            segments_left: 1,
            addresses: vec![addr("2001:db8:1::42")],
        }));
        let q = Packet::decode(&p.encode()).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn version_check() {
        let p = Packet::new(addr("::1"), addr("::2"), proto::NONE, Bytes::new());
        let mut wire = p.encode().to_vec();
        wire[0] = 0x40; // version 4
        assert_eq!(Packet::decode(&wire), Err(DecodeError::BadVersion(4)));
    }

    #[test]
    fn truncation_checks() {
        let p = Packet::new(
            addr("::1"),
            addr("::2"),
            proto::UDP,
            Bytes::from_static(&[0; 32]),
        );
        let wire = p.encode();
        assert!(Packet::decode(&wire[..20]).is_err());
        assert!(Packet::decode(&wire[..wire.len() - 1]).is_err());
    }

    #[test]
    fn extra_trailing_bytes_are_ignored() {
        // L2 padding after the declared payload length must not confuse us.
        let p = Packet::new(
            addr("::1"),
            addr("::2"),
            proto::UDP,
            Bytes::from_static(b"x"),
        );
        let mut wire = p.encode().to_vec();
        wire.extend_from_slice(&[0xee; 7]);
        let q = Packet::decode(&wire).unwrap();
        assert_eq!(q.payload, Bytes::from_static(b"x"));
    }

    #[test]
    fn checksum_matches_known_vector() {
        // Independent reference: sum computed by hand for a tiny message.
        let src = addr("::1");
        let dst = addr("::2");
        let sum = pseudo_header_checksum(src, dst, proto::ICMPV6, &[0x80, 0x00, 0x00, 0x00]);
        // Verify the fundamental property instead of a magic constant:
        // embedding the checksum makes the total sum 0xffff.
        let mut body = vec![0x80, 0x00, 0x00, 0x00];
        body[2..4].copy_from_slice(&sum.to_be_bytes());
        let verify = pseudo_header_checksum(src, dst, proto::ICMPV6, &body);
        assert_eq!(verify, 0);
    }

    #[test]
    fn checksum_odd_length_body() {
        let src = addr("2001:db8::1");
        let dst = addr("2001:db8::2");
        let sum = pseudo_header_checksum(src, dst, proto::UDP, &[1, 2, 3]);
        assert_ne!(sum, 0);
        // Padding with an explicit zero byte must give the same sum.
        let sum2 = pseudo_header_checksum(src, dst, proto::UDP, &[1, 2, 3, 0]);
        // Length differs, so sums differ in general; just exercise the path.
        let _ = sum2;
    }

    #[test]
    fn wire_len_includes_everything() {
        let p = Packet::new(
            addr("::1"),
            addr("::2"),
            proto::UDP,
            Bytes::from_static(&[0; 100]),
        )
        .with_ext(ExtHeader::HopByHop(vec![Option6::RouterAlert(0)]));
        assert_eq!(p.wire_len(), 40 + 8 + 100);
        assert_eq!(p.encode().len(), p.wire_len());
    }

    #[test]
    fn unknown_option_problem_points_at_offending_type() {
        // A skip-class unknown option followed by a discard-class one: the
        // scan must skip the first and point at the second, after the
        // 40-byte fixed header + 2-byte options-header prelude + 5 bytes of
        // the first (skippable) option.
        let p = Packet::new(
            addr("2001:db8::1"),
            addr("2001:db8::2"),
            proto::NONE,
            Bytes::new(),
        )
        .with_ext(ExtHeader::DestinationOptions(vec![
            Option6::Unknown {
                kind: 0x3e,
                data: vec![0; 3],
            },
            Option6::Unknown {
                kind: 0xbe,
                data: vec![7],
            },
        ]));
        let (action, pointer) = p.unknown_option_problem().unwrap();
        assert_eq!(action, crate::exthdr::UnknownOptionAction::DiscardSendIcmp);
        assert_eq!(pointer, 40 + 2 + 5);
        // Decoding its own wire bytes gives the same verdict.
        let q = Packet::decode(&p.encode()).unwrap();
        assert_eq!(q.unknown_option_problem(), Some((action, pointer)));
    }

    #[test]
    fn known_and_skippable_options_raise_no_problem() {
        let clean = Packet::new(addr("::1"), addr("::2"), proto::NONE, Bytes::new())
            .with_ext(ExtHeader::HopByHop(vec![Option6::RouterAlert(0)]))
            .with_ext(ExtHeader::DestinationOptions(vec![Option6::Unknown {
                kind: 0x12, // high bits 00: skip
                data: vec![1, 2],
            }]));
        assert_eq!(clean.unknown_option_problem(), None);
    }

    #[test]
    fn traffic_class_and_flow_label_roundtrip() {
        let mut p = Packet::new(addr("::1"), addr("::2"), proto::NONE, Bytes::new());
        p.traffic_class = 0xb8;
        p.flow_label = 0xabcde;
        let q = Packet::decode(&p.encode()).unwrap();
        assert_eq!(q.traffic_class, 0xb8);
        assert_eq!(q.flow_label, 0xabcde);
    }

    proptest::proptest! {
        /// The 64-bit-word sum against the 16-bit reference loop, on
        /// bodies of every length up to 1 600 bytes (odd ones included),
        /// random or dense with ones (long carry chains), and random
        /// addresses and next header.
        #[test]
        fn checksum_equals_the_sixteen_bit_reference(
            body in proptest::collection::vec(proptest::any::<u8>(), 0..1601),
            dense in proptest::any::<bool>(),
            src in proptest::any::<u128>(),
            dst in proptest::any::<u128>(),
            next_header in proptest::any::<u8>(),
        ) {
            let body: Vec<u8> = body.iter().map(|b| if dense { b | 0xf0 } else { *b }).collect();
            let (src, dst) = (Ipv6Addr::from(src), Ipv6Addr::from(dst));
            for end in [body.len(), body.len().saturating_sub(1), body.len() / 2] {
                proptest::prop_assert_eq!(
                    pseudo_header_checksum(src, dst, next_header, &body[..end]),
                    pseudo_header_checksum_16(src, dst, next_header, &body[..end])
                );
            }
        }
    }

    #[test]
    fn checksum_folds_every_carry_of_an_all_ones_body() {
        let ones = Ipv6Addr::from(u128::MAX);
        for len in [0, 1, 2, 7, 8, 9, 15, 16, 512, 1_499, 1_600, 65_535] {
            let body = vec![0xff; len];
            for (src, dst) in [(ones, ones), (addr("::1"), addr("ff02::1"))] {
                assert_eq!(
                    pseudo_header_checksum(src, dst, 0xff, &body),
                    pseudo_header_checksum_16(src, dst, 0xff, &body),
                    "{len} bytes of 0xff"
                );
            }
        }
    }

    /// A sum of zero: the pseudo-header and body add up to nothing, so the
    /// checksum is `0xffff`; and a body whose sum is all ones gives a
    /// checksum of 0, which UDP must send as `0xffff` (RFC 2460 §8.1).
    #[test]
    fn checksum_of_a_zero_sum_and_udp_zero_rule() {
        let zero = Ipv6Addr::UNSPECIFIED;
        assert_eq!(pseudo_header_checksum(zero, zero, 0, &[]), 0xffff);
        assert_eq!(pseudo_header_checksum_16(zero, zero, 0, &[]), 0xffff);
        // Pseudo-header: 10 (length) + 17 (next header); UDP header: 10
        // (length). The payload word completes the sum to 0xffff, so the
        // checksum computes as 0.
        let (src, dst) = (zero, zero);
        let filler = 0xffff - 10 - 17 - 10;
        let payload = Bytes::copy_from_slice(&(filler as u16).to_be_bytes());
        let udp = crate::udp::UdpDatagram::new(0, 0, payload.clone());
        let mut zeroed = vec![0, 0, 0, 0, 0, 10, 0, 0];
        zeroed.extend_from_slice(&payload);
        assert_eq!(pseudo_header_checksum(src, dst, proto::UDP, &zeroed), 0);
        assert_eq!(pseudo_header_checksum_16(src, dst, proto::UDP, &zeroed), 0);
        let wire = udp.encode(src, dst);
        assert_eq!(
            &wire[6..8],
            &[0xff, 0xff],
            "a zero checksum goes out as 0xffff"
        );
        assert_eq!(
            crate::udp::UdpDatagram::decode(src, dst, &wire).map(|d| d.payload),
            Ok(payload)
        );
    }
}
