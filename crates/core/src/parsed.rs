//! What a frame's bytes parse to, computed once per transmission.
//!
//! Every question a node or the oracle asks of a frame — the IPv6 packet,
//! its ICMPv6 / PIM message or tunnelled inner packet, the application
//! data under any tunnels, a discard-demanding unknown option, a Binding
//! Update or Acknowledgement — is a pure function of the bytes. [`parsed`]
//! answers them from the frame's parse memo (`Frame::memo`): the first
//! asker decodes, always from the frame's buffer and never from the packet
//! the emitter encoded; the emitter, the oracle and every receiver of a
//! fan-out read the same answers, `Ok` or typed `Err`. A copy mangled in
//! flight is new bytes, so it has a memo of its own. Each part is filled on
//! first ask, so nobody pays for an answer no one wanted.
//!
//! A forwarded frame shares the arriving frame's buffer and memo, and
//! carries its lowered hop limit as a patch (`netplan::forwarded`): the
//! memo's packet has the hop limit of the buffer, and the one field a
//! patch changes is read through `netplan::hop_limit`. Every other answer
//! is the same for each hop of the chain, so it is computed once for all.
//!
//! The views borrow from the frame; anything kept past the handler must be
//! copied out.

use crate::netplan::{data_info_at, DataInfo};
use mobicast_ipv6::exthdr::{BindingAck, BindingUpdate, UnknownOptionAction};
use mobicast_ipv6::icmpv6::Icmpv6;
use mobicast_ipv6::packet::{proto, Packet};
use mobicast_ipv6::{tunnel, DecodeError};
use mobicast_mipv6::packets as mip_packets;
use mobicast_net::Frame;
use mobicast_pimdm::PimMessage;
use std::cell::OnceCell;
use std::net::Ipv6Addr;

/// What a frame's parse memo holds.
type Memo = Result<Layers, DecodeError>;

/// The parse of `frame`'s bytes: the layers of a well-formed IPv6 packet,
/// or why it is not one.
pub fn parsed(frame: &Frame) -> Result<&Layers, &DecodeError> {
    frame
        .memo::<Memo>(|bytes| Packet::decode_shared(bytes).map(Layers::new))
        .as_ref()
}

/// The application data `frame` carries, if any. Asked by an emitter of
/// the frame it just built, this reads the data back from the wire bytes
/// and leaves the parse behind for the oracle and every receiver.
pub fn frame_data(frame: &Frame) -> Option<DataInfo> {
    parsed(frame).ok()?.data().copied()
}

/// What the packet carries, by its `payload_proto`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Upper {
    /// `Icmpv6::decode` with the packet's own source and destination.
    Icmpv6(Result<Icmpv6, DecodeError>),
    /// `PimMessage::decode` with the packet's own source and destination.
    Pim(Result<PimMessage, DecodeError>),
    /// IPv6-in-IPv6: the packet one tunnel level in (`tunnel::decapsulate`).
    Tunnel(Result<Packet, DecodeError>),
    /// Anything else: nothing to decode at this layer.
    Opaque,
}

/// Mobile IPv6 signalling in a packet's destination options.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Signalling {
    update: Option<(Ipv6Addr, BindingUpdate)>,
    ack: Option<BindingAck>,
}

/// A decoded packet and everything above it that has been asked for.
#[derive(Debug)]
pub struct Layers {
    packet: Packet,
    unknown_option: Option<(UnknownOptionAction, u32)>,
    upper: OnceCell<Upper>,
    data: OnceCell<Option<DataInfo>>,
    /// `None` inside: no destination options, hence no signalling.
    signalling: OnceCell<Option<Box<Signalling>>>,
}

impl Layers {
    fn new(packet: Packet) -> Self {
        Layers {
            unknown_option: packet.unknown_option_problem(),
            packet,
            upper: OnceCell::new(),
            data: OnceCell::new(),
            signalling: OnceCell::new(),
        }
    }

    pub fn packet(&self) -> &Packet {
        &self.packet
    }

    /// `Packet::unknown_option_problem` of the packet.
    pub fn unknown_option_problem(&self) -> Option<(UnknownOptionAction, u32)> {
        self.unknown_option
    }

    pub fn upper(&self) -> &Upper {
        self.upper.get_or_init(|| {
            let p = &self.packet;
            match p.payload_proto {
                proto::ICMPV6 => Upper::Icmpv6(Icmpv6::decode(p.src, p.dst, &p.payload)),
                proto::PIM => Upper::Pim(PimMessage::decode(p.src, p.dst, &p.payload)),
                proto::IPV6 => Upper::Tunnel(tunnel::decapsulate(p)),
                _ => Upper::Opaque,
            }
        })
    }

    /// `netplan::extract_data_info` of the packet: the application data
    /// under any tunnel levels.
    pub fn data(&self) -> Option<&DataInfo> {
        self.data
            .get_or_init(|| match self.upper() {
                Upper::Tunnel(inner) => data_info_at(inner.as_ref().ok()?, 1),
                _ => data_info_at(&self.packet, 0),
            })
            .as_ref()
    }

    fn signalling(&self) -> Option<&Signalling> {
        self.signalling
            .get_or_init(|| {
                self.packet.dest_options()?;
                Some(Box::new(Signalling {
                    update: mip_packets::parse_binding_update(&self.packet),
                    ack: mip_packets::parse_binding_ack(&self.packet),
                }))
            })
            .as_deref()
    }

    /// `parse_binding_update` of the packet: `(home address, update)`.
    pub fn binding_update(&self) -> Option<&(Ipv6Addr, BindingUpdate)> {
        self.signalling()?.update.as_ref()
    }

    /// `parse_binding_ack` of the packet.
    pub fn binding_ack(&self) -> Option<&BindingAck> {
        self.signalling()?.ack.as_ref()
    }

    /// Does the packet carry Mobile IPv6 signalling (whose mandatory
    /// authenticator a copy damaged in flight fails)?
    pub fn is_binding_signalling(&self) -> bool {
        self.signalling()
            .is_some_and(|s| s.update.is_some() || s.ack.is_some())
    }
}
