//! Minimal UDP datagram codec. The multicast application traffic in the
//! simulation is carried over UDP so that data packets have realistic
//! framing (8-byte UDP header) and checksums.

use crate::error::{need, DecodeError};
use crate::packet::{proto, pseudo_header_checksum};
use bytes::{BufMut, Bytes, BytesMut};
use std::net::Ipv6Addr;
use std::ops::Range;

/// Fixed UDP header size in bytes.
pub const UDP_HEADER_LEN: usize = 8;

/// A UDP datagram (header + payload).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UdpDatagram {
    pub src_port: u16,
    pub dst_port: u16,
    pub payload: Bytes,
}

impl UdpDatagram {
    pub fn new(src_port: u16, dst_port: u16, payload: Bytes) -> Self {
        UdpDatagram {
            src_port,
            dst_port,
            payload,
        }
    }

    pub fn wire_len(&self) -> usize {
        UDP_HEADER_LEN + self.payload.len()
    }

    /// Encode with a valid checksum (mandatory for UDP over IPv6).
    pub fn encode(&self, src: Ipv6Addr, dst: Ipv6Addr) -> Bytes {
        let len = self.wire_len();
        assert!(len <= usize::from(u16::MAX), "UDP datagram too large");
        let mut out = BytesMut::with_capacity(len);
        out.put_u16(self.src_port);
        out.put_u16(self.dst_port);
        out.put_u16(len as u16);
        out.put_u16(0);
        out.put_slice(&self.payload);
        let mut sum = pseudo_header_checksum(src, dst, proto::UDP, &out);
        if sum == 0 {
            sum = 0xffff; // RFC 2460 §8.1: zero is transmitted as all-ones
        }
        out[6..8].copy_from_slice(&sum.to_be_bytes());
        out.freeze()
    }

    /// Parse and verify a datagram, copying the payload into a buffer of
    /// its own.
    pub fn decode(src: Ipv6Addr, dst: Ipv6Addr, buf: &[u8]) -> Result<Self, DecodeError> {
        Self::decode_with(src, dst, buf, |payload| {
            Bytes::copy_from_slice(&buf[payload])
        })
    }

    /// [`UdpDatagram::decode`] without the copy: the payload is a view of
    /// `buf` (and keeps alive whatever `buf` is a view of). Same checks,
    /// same result.
    pub fn decode_shared(src: Ipv6Addr, dst: Ipv6Addr, buf: &Bytes) -> Result<Self, DecodeError> {
        Self::decode_with(src, dst, buf, |payload| buf.slice(payload))
    }

    /// Check length and checksum of `buf`; `payload_of` turns the payload's
    /// position in `buf` into the datagram's payload bytes.
    fn decode_with(
        src: Ipv6Addr,
        dst: Ipv6Addr,
        buf: &[u8],
        payload_of: impl FnOnce(Range<usize>) -> Bytes,
    ) -> Result<Self, DecodeError> {
        need(buf, UDP_HEADER_LEN, "UDP header")?;
        let len = usize::from(u16::from_be_bytes([buf[4], buf[5]]));
        if len < UDP_HEADER_LEN || len > buf.len() {
            return Err(DecodeError::BadLength {
                what: "UDP length",
                value: len,
            });
        }
        if pseudo_header_checksum(src, dst, proto::UDP, &buf[..len]) != 0 {
            return Err(DecodeError::Invalid {
                what: "UDP checksum",
            });
        }
        Ok(UdpDatagram {
            src_port: u16::from_be_bytes([buf[0], buf[1]]),
            dst_port: u16::from_be_bytes([buf[2], buf[3]]),
            payload: payload_of(UDP_HEADER_LEN..len),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    #[test]
    fn roundtrip() {
        let d = UdpDatagram::new(4000, 5001, Bytes::from_static(b"stream data"));
        let wire = d.encode(a("2001:db8::1"), a("ff1e::1"));
        assert_eq!(wire.len(), d.wire_len());
        let q = UdpDatagram::decode(a("2001:db8::1"), a("ff1e::1"), &wire).unwrap();
        assert_eq!(q, d);
    }

    #[test]
    fn empty_payload() {
        let d = UdpDatagram::new(1, 2, Bytes::new());
        let wire = d.encode(a("::1"), a("::2"));
        assert_eq!(wire.len(), 8);
        assert_eq!(UdpDatagram::decode(a("::1"), a("::2"), &wire).unwrap(), d);
    }

    #[test]
    fn corrupt_payload_rejected() {
        let d = UdpDatagram::new(1, 2, Bytes::from_static(&[7; 32]));
        let mut wire = d.encode(a("::1"), a("::2")).to_vec();
        wire[12] ^= 1;
        assert!(UdpDatagram::decode(a("::1"), a("::2"), &wire).is_err());
    }

    #[test]
    fn wrong_pseudo_header_rejected() {
        let d = UdpDatagram::new(1, 2, Bytes::from_static(&[7; 8]));
        let wire = d.encode(a("::1"), a("::2"));
        assert!(UdpDatagram::decode(a("::1"), a("::3"), &wire).is_err());
    }

    #[test]
    fn bad_length_field_rejected() {
        let d = UdpDatagram::new(1, 2, Bytes::from_static(&[7; 8]));
        let mut wire = d.encode(a("::1"), a("::2")).to_vec();
        wire[4] = 0xff;
        wire[5] = 0xff;
        assert!(matches!(
            UdpDatagram::decode(a("::1"), a("::2"), &wire),
            Err(DecodeError::BadLength { .. })
        ));
    }
}
