//! Frames: what travels over links.
//!
//! The network layer is deliberately payload-agnostic — a frame is wire
//! bytes plus a small accounting class. Upper layers (the IPv6 stack) parse
//! the bytes. The class drives the per-link byte accounting that the
//! experiment harness turns into the paper's "bandwidth consumption"
//! figures.
//!
//! What the bytes parse to is a pure function of the bytes, so a frame
//! also carries an opaque *parse memo*: a once-cell the upper layer fills
//! the first time anyone asks ([`Frame::memo`]) and every later asker —
//! the emitter, the oracle, each receiver of a fan-out — reads. This layer
//! never looks inside it; it only guarantees the pairing: the buffer is
//! private and [`Frame::with_bytes`], the one way to change it, starts the
//! copy with an empty memo.
//!
//! A one-byte *patch* ([`Frame::with_patch`]) lets a router forward what
//! arrived with the hop limit one lower while sharing the arriving buffer
//! and its memo: the memo describes the buffer, the upper layer reads the
//! patched field through [`Frame::patch`], and [`Frame::wire`] applies it.

use bytes::Bytes;
use std::any::Any;
use std::cell::OnceCell;
use std::rc::Rc;

/// Accounting class of a frame. The simulator keeps per-link byte/frame
/// counters indexed by class.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum FrameClass {
    /// Multicast application data.
    MulticastData = 0,
    /// Unicast application data.
    UnicastData = 1,
    /// MLD control messages (queries/reports/done).
    MldControl = 2,
    /// PIM-DM control messages (hello/prune/join/graft/assert).
    PimControl = 3,
    /// Mobile IPv6 signalling (binding updates/acks, router adverts).
    MobilityControl = 4,
    /// Tunnelled packets (IPv6-in-IPv6) carrying multicast data.
    TunnelData = 5,
    /// Anything else.
    Other = 6,
}

/// Number of distinct frame classes (array sizing).
pub const FRAME_CLASS_COUNT: usize = 7;

impl FrameClass {
    pub const ALL: [FrameClass; FRAME_CLASS_COUNT] = [
        FrameClass::MulticastData,
        FrameClass::UnicastData,
        FrameClass::MldControl,
        FrameClass::PimControl,
        FrameClass::MobilityControl,
        FrameClass::TunnelData,
        FrameClass::Other,
    ];

    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    pub fn name(self) -> &'static str {
        match self {
            FrameClass::MulticastData => "mcast_data",
            FrameClass::UnicastData => "unicast_data",
            FrameClass::MldControl => "mld_ctrl",
            FrameClass::PimControl => "pim_ctrl",
            FrameClass::MobilityControl => "mip6_ctrl",
            FrameClass::TunnelData => "tunnel_data",
            FrameClass::Other => "other",
        }
    }

    /// Is this a control-plane class (signalling overhead in the paper's
    /// terms)?
    pub fn is_control(self) -> bool {
        matches!(
            self,
            FrameClass::MldControl | FrameClass::PimControl | FrameClass::MobilityControl
        )
    }
}

/// Link-layer destination of a frame: broadcast/multicast (delivered to
/// every attached interface) or a specific node's NIC. This mirrors
/// Ethernet MAC addressing — a unicast IPv6 packet is carried in a frame
/// addressed to one next hop, so the other routers on a multi-router LAN
/// do not also forward it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum L2Dest {
    Broadcast,
    Node(crate::ids::NodeId),
}

/// A frame on a link: wire bytes plus accounting class. Cloning is cheap
/// (`Bytes` and a filled memo are reference-counted), which matters because
/// multi-access links deliver one transmission to every attached interface.
#[derive(Clone, Debug)]
pub struct Frame {
    bytes: Bytes,
    /// `(offset, value)`: the wire carries `value` there instead.
    patch: Option<(u16, u8)>,
    /// What `bytes` parse to, in the upper layer's terms. A clone shares
    /// a filled memo; a clone taken before the first ask fills its own.
    memo: OnceCell<Rc<dyn Any>>,
    pub class: FrameClass,
    pub l2: L2Dest,
    /// Simulation-side provenance tag (not on the wire): set by the
    /// emitter so receivers can attribute a frame to the exact emission
    /// event that produced it. 0 = untagged.
    pub tag: u64,
    /// Simulation-side marker: the corruption process mutated this copy's
    /// bytes in flight. Receivers of integrity-protected signalling
    /// (Binding Updates/Acks carry a mandatory authenticator per
    /// draft-ietf-mobileip-ipv6-10 §4.4) consult it to model the
    /// verification failure an authenticator would produce; checksummed
    /// payloads (ICMPv6) catch the damage from the bytes themselves.
    pub damaged: bool,
}

impl Frame {
    /// A broadcast/multicast frame (delivered to everyone on the link).
    pub fn new(bytes: Bytes, class: FrameClass) -> Self {
        Frame {
            bytes,
            patch: None,
            memo: OnceCell::new(),
            class,
            l2: L2Dest::Broadcast,
            tag: 0,
            damaged: false,
        }
    }

    /// A frame addressed to one node's interface on the link.
    pub fn unicast(bytes: Bytes, class: FrameClass, to: crate::ids::NodeId) -> Self {
        Frame {
            l2: L2Dest::Node(to),
            ..Frame::new(bytes, class)
        }
    }

    /// The shared buffer: the wire bytes but for the patched byte, if any.
    /// The memo is its parse.
    #[inline]
    pub fn buffer(&self) -> &Bytes {
        &self.bytes
    }

    /// The bytes on the wire: the buffer, or a copy of it carrying the
    /// patched byte.
    pub fn wire(&self) -> Bytes {
        match self.patch {
            None => self.bytes.clone(),
            Some((at, value)) => {
                let mut wire = self.bytes.to_vec();
                wire[usize::from(at)] = value;
                Bytes::from(wire)
            }
        }
    }

    /// The patch, `(offset, value)`, if the wire differs from the buffer.
    #[inline]
    pub fn patch(&self) -> Option<(u16, u8)> {
        self.patch
    }

    /// This frame with the wire carrying `value` at `at` (replacing any
    /// earlier patch). The buffer and a filled memo stay shared.
    pub fn with_patch(mut self, at: u16, value: u8) -> Self {
        assert!(usize::from(at) < self.len(), "patch beyond the bytes");
        self.patch = Some((at, value));
        self
    }

    /// This frame carrying other bytes (a copy mangled in flight). The
    /// memo described the old buffer and is dropped, and so is the patch.
    pub fn with_bytes(mut self, bytes: Bytes) -> Self {
        self.bytes = bytes;
        self.patch = None;
        self.memo = OnceCell::new();
        self
    }

    /// What the buffer parses to: `parse` runs on the first ask and its
    /// result is kept for every later one, on this frame and on its
    /// clones. `parse` must be a pure function of the bytes, and a program
    /// uses one `T` for all its frames.
    pub fn memo<T: Any>(&self, parse: impl FnOnce(&Bytes) -> T) -> &T {
        let memo = self.memo.get_or_init(|| Rc::new(parse(&self.bytes)));
        // A second `T` in one program is a bug in the caller, not a
        // condition a typed error could describe.
        #[allow(clippy::expect_used)]
        memo.downcast_ref()
            .expect("one parse-memo type per program")
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_indices_are_dense_and_unique() {
        let mut seen = [false; FRAME_CLASS_COUNT];
        for c in FrameClass::ALL {
            assert!(!seen[c.index()], "duplicate index for {c:?}");
            seen[c.index()] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn control_classification() {
        assert!(FrameClass::MldControl.is_control());
        assert!(FrameClass::PimControl.is_control());
        assert!(FrameClass::MobilityControl.is_control());
        assert!(!FrameClass::MulticastData.is_control());
        assert!(!FrameClass::TunnelData.is_control());
    }

    #[test]
    fn frame_len() {
        let f = Frame::new(Bytes::from_static(&[1, 2, 3]), FrameClass::Other);
        assert_eq!(f.len(), 3);
        assert!(!f.is_empty());
    }

    #[test]
    fn memo_is_filled_once_and_shared_by_clones() {
        let f = Frame::new(Bytes::from_static(&[1, 2, 3]), FrameClass::Other);
        let early = f.clone();
        let mut runs = 0;
        assert_eq!(*f.memo(|b| (runs += 1, b.len()).1), 3);
        assert_eq!(*f.memo(|_| -> usize { unreachable!("filled") }), 3);
        let mut late = f.clone();
        late.tag = 7;
        assert_eq!(*late.memo(|_| -> usize { unreachable!("shared") }), 3);
        assert_eq!(runs, 1);
        // A clone taken before the first ask parses on its own.
        assert_eq!(*early.memo(|b| b.len() + 10), 13);
    }

    #[test]
    fn new_bytes_never_keep_the_old_memo() {
        let f = Frame::new(Bytes::from_static(&[1, 2, 3]), FrameClass::Other);
        assert_eq!(*f.memo(|b| b.len()), 3);
        let copy = f.clone().with_bytes(Bytes::from_static(&[9]));
        assert_eq!(copy.buffer().as_ref(), &[9]);
        assert_eq!(*copy.memo(|b| b.len()), 1, "parsed from its own bytes");
        assert_eq!(*f.memo(|_| -> usize { unreachable!("filled") }), 3);
        assert_eq!((copy.class, copy.l2, copy.tag), (f.class, f.l2, f.tag));
    }

    #[test]
    fn a_patch_changes_the_wire_and_shares_buffer_and_memo() {
        let f = Frame::new(Bytes::from_static(&[1, 2, 3]), FrameClass::Other);
        assert_eq!(*f.memo(|b| b.len()), 3);
        let patched = f.clone().with_patch(1, 9);
        assert_eq!(patched.wire().as_ref(), &[1, 9, 3]);
        assert_eq!(patched.patch(), Some((1, 9)));
        assert_eq!(patched.buffer().as_ptr(), f.buffer().as_ptr());
        assert_eq!(*patched.memo(|_| -> usize { unreachable!("shared") }), 3);
        assert_eq!((f.patch(), f.wire().as_ref()), (None, &[1u8, 2, 3][..]));
        // A second patch replaces the first; new bytes drop it.
        assert_eq!(patched.clone().with_patch(0, 7).wire().as_ref(), &[7, 2, 3]);
        let other = patched.with_bytes(Bytes::from_static(&[4]));
        assert_eq!((other.patch(), *other.memo(|b| b.len())), (None, 1));
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = FrameClass::ALL.iter().map(|c| c.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), FRAME_CLASS_COUNT);
    }
}

#[cfg(test)]
mod l2_tests {
    use super::*;
    use crate::ids::NodeId;

    #[test]
    fn constructors_set_l2() {
        let b = Frame::new(Bytes::from_static(&[1]), FrameClass::Other);
        assert_eq!(b.l2, L2Dest::Broadcast);
        let u = Frame::unicast(Bytes::from_static(&[1]), FrameClass::Other, NodeId(4));
        assert_eq!(u.l2, L2Dest::Node(NodeId(4)));
    }
}
