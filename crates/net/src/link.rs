//! Multi-access link model.
//!
//! A link is a broadcast medium (think Ethernet segment / wireless cell):
//! every frame transmitted by one attached interface is delivered to all
//! other attached interfaces after a serialization delay (`len / bandwidth`,
//! charged per sender) plus a fixed propagation delay. Contention between
//! senders is not modelled (each sender has its own transmit queue), which
//! is adequate here: the paper's quantities are protocol-timer driven and
//! links never run near saturation in the experiments.

use crate::fault::LinkFaultState;
use crate::frame::{Frame, FRAME_CLASS_COUNT};
use crate::ids::{IfIndex, NodeId};
use mobicast_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::rc::Rc;

/// Transmission parameters of a link.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct LinkParams {
    /// Bandwidth in bits per second (per sender).
    pub bandwidth_bps: u64,
    /// One-way propagation delay.
    pub delay: SimDuration,
}

impl Default for LinkParams {
    fn default() -> Self {
        // 100 Mbit/s LAN with 100 µs propagation delay.
        LinkParams {
            bandwidth_bps: 100_000_000,
            delay: SimDuration::from_micros(100),
        }
    }
}

impl LinkParams {
    /// Serialization time for a frame of `len` bytes.
    pub fn tx_time(&self, len: usize) -> SimDuration {
        assert!(self.bandwidth_bps > 0, "link bandwidth must be positive");
        let nanos = (len as u128 * 8 * 1_000_000_000) / self.bandwidth_bps as u128;
        SimDuration::from_nanos(nanos as u64)
    }
}

/// Per-link, per-class traffic counters.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct LinkStats {
    /// Bytes put onto the medium, by frame class.
    pub bytes: [u64; FRAME_CLASS_COUNT],
    /// Frames put onto the medium, by frame class.
    pub frames: [u64; FRAME_CLASS_COUNT],
    /// Bytes destroyed by fault injection (loss, outage, crashed receiver),
    /// by frame class. Counted per receiver copy, not per transmission.
    pub dropped_bytes: [u64; FRAME_CLASS_COUNT],
    /// Frame copies destroyed by fault injection, by frame class.
    pub dropped_frames: [u64; FRAME_CLASS_COUNT],
    /// Bytes of frame copies mangled in flight by the corruption process
    /// (original size), by frame class. Counted per receiver copy.
    pub corrupted_bytes: [u64; FRAME_CLASS_COUNT],
    /// Frame copies mangled in flight, by frame class.
    pub corrupted_frames: [u64; FRAME_CLASS_COUNT],
}

impl LinkStats {
    pub fn record(&mut self, frame: &Frame) {
        let i = frame.class.index();
        self.bytes[i] += frame.len() as u64;
        self.frames[i] += 1;
    }

    /// Account one frame copy destroyed by fault injection.
    pub fn record_drop(&mut self, frame: &Frame) {
        let i = frame.class.index();
        self.dropped_bytes[i] += frame.len() as u64;
        self.dropped_frames[i] += 1;
    }

    /// Account one frame copy mangled in flight by the corruption process.
    pub fn record_corruption(&mut self, frame: &Frame) {
        let i = frame.class.index();
        self.corrupted_bytes[i] += frame.len() as u64;
        self.corrupted_frames[i] += 1;
    }

    pub fn total_dropped_frames(&self) -> u64 {
        self.dropped_frames.iter().sum()
    }

    pub fn total_corrupted_frames(&self) -> u64 {
        self.corrupted_frames.iter().sum()
    }

    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    pub fn total_frames(&self) -> u64 {
        self.frames.iter().sum()
    }

    pub fn control_bytes(&self) -> u64 {
        crate::frame::FrameClass::ALL
            .iter()
            .filter(|c| c.is_control())
            .map(|c| self.bytes[c.index()])
            .sum()
    }
}

/// One endpoint attached to a link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Attachment {
    pub node: NodeId,
    pub ifindex: IfIndex,
}

/// Internal link state held by the world.
#[derive(Debug)]
pub struct Link {
    pub params: LinkParams,
    /// Attached endpoints, in attachment order.
    members: Vec<Attachment>,
    /// `members` as the shared slice in-flight transmissions hold on to.
    /// Dropped whenever membership changes and rebuilt by the next
    /// transmission, so a transmission costs a reference-count bump and
    /// keeps seeing the membership of the instant it was sent.
    snapshot: Option<Rc<[Attachment]>>,
    pub stats: LinkStats,
    /// Cleared during a scheduled outage; a downed link destroys every
    /// frame handed to it and every frame still in flight across it.
    pub up: bool,
    /// Loss/jitter process, when fault injection is installed.
    pub fault: Option<LinkFaultState>,
}

impl Link {
    pub fn new(params: LinkParams) -> Self {
        Link {
            params,
            members: Vec::new(),
            snapshot: None,
            stats: LinkStats::default(),
            up: true,
            fault: None,
        }
    }

    pub fn attach(&mut self, node: NodeId, ifindex: IfIndex) {
        debug_assert!(
            !self
                .members
                .iter()
                .any(|m| m.node == node && m.ifindex == ifindex),
            "{node} if{ifindex} already attached"
        );
        self.members.push(Attachment { node, ifindex });
        self.snapshot = None;
    }

    /// Detach an endpoint; returns true if it was attached.
    pub fn detach(&mut self, node: NodeId, ifindex: IfIndex) -> bool {
        let before = self.members.len();
        self.members
            .retain(|m| !(m.node == node && m.ifindex == ifindex));
        self.snapshot = None;
        self.members.len() != before
    }

    /// Endpoints currently attached, in attachment order.
    pub fn members(&self) -> &[Attachment] {
        &self.members
    }

    /// The current membership as a shared slice (see the field).
    pub fn snapshot(&mut self) -> Rc<[Attachment]> {
        self.snapshot
            .get_or_insert_with(|| Rc::from(self.members.as_slice()))
            .clone()
    }
}

/// Time at which a frame handed to the transmitter at `now` finishes
/// arriving at the receivers, given the sender's queue state.
///
/// Returns `(arrival_time, new_queue_free_time)`.
pub fn schedule_transmission(
    params: &LinkParams,
    now: SimTime,
    queue_free: SimTime,
    frame_len: usize,
) -> (SimTime, SimTime) {
    let start = now.max(queue_free);
    let done = start + params.tx_time(frame_len);
    (done + params.delay, done)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameClass;
    use bytes::Bytes;

    #[test]
    fn tx_time_math() {
        let p = LinkParams {
            bandwidth_bps: 8_000_000, // 1 byte per microsecond
            delay: SimDuration::ZERO,
        };
        assert_eq!(p.tx_time(1000), SimDuration::from_micros(1000));
        assert_eq!(p.tx_time(0), SimDuration::ZERO);
    }

    #[test]
    fn transmission_respects_queue() {
        let p = LinkParams {
            bandwidth_bps: 8_000,
            delay: SimDuration::from_millis(1),
        };
        let now = SimTime::from_secs(1);
        // Idle queue: starts immediately.
        let (arrival, free) = schedule_transmission(&p, now, SimTime::ZERO, 1000);
        assert_eq!(free, now + SimDuration::from_secs(1));
        assert_eq!(arrival, free + SimDuration::from_millis(1));
        // Busy queue: starts when free.
        let busy_until = now + SimDuration::from_millis(500);
        let (arrival2, free2) = schedule_transmission(&p, now, busy_until, 1000);
        assert_eq!(free2, busy_until + SimDuration::from_secs(1));
        assert_eq!(arrival2, free2 + SimDuration::from_millis(1));
    }

    #[test]
    fn stats_accumulate_by_class() {
        let mut s = LinkStats::default();
        s.record(&Frame::new(
            Bytes::from_static(&[0; 100]),
            FrameClass::MulticastData,
        ));
        s.record(&Frame::new(
            Bytes::from_static(&[0; 60]),
            FrameClass::MldControl,
        ));
        s.record(&Frame::new(
            Bytes::from_static(&[0; 60]),
            FrameClass::MldControl,
        ));
        assert_eq!(s.bytes[FrameClass::MulticastData.index()], 100);
        assert_eq!(s.bytes[FrameClass::MldControl.index()], 120);
        assert_eq!(s.total_bytes(), 220);
        assert_eq!(s.total_frames(), 3);
        assert_eq!(s.control_bytes(), 120);
    }

    #[test]
    fn attach_detach() {
        let mut l = Link::new(LinkParams::default());
        l.attach(NodeId(1), 0);
        l.attach(NodeId(2), 1);
        assert!(l.detach(NodeId(1), 0));
        assert!(!l.detach(NodeId(1), 0));
        assert_eq!(l.members().len(), 1);
    }

    #[test]
    fn snapshot_is_shared_until_membership_changes() {
        let mut l = Link::new(LinkParams::default());
        l.attach(NodeId(1), 0);
        l.attach(NodeId(2), 1);
        let sent = l.snapshot();
        assert!(Rc::ptr_eq(&sent, &l.snapshot()), "no allocation per send");
        l.attach(NodeId(3), 0);
        assert_eq!(sent.len(), 2, "an in-flight snapshot never changes");
        assert_eq!(&*l.snapshot(), l.members());
        l.detach(NodeId(1), 0);
        assert_eq!(&*l.snapshot(), l.members());
        assert_eq!(l.members().len(), 2);
    }
}
