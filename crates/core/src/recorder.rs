//! The scenario recorder: every multicast data movement and every mobility
//! event lands here, so the analysis pass can compute the paper's
//! quantities (join delay, leave delay, wasted bandwidth, routing stretch)
//! from ground truth instead of from per-node guesses.
//!
//! Nodes share one recorder via `Rc<RefCell<..>>` (a run is
//! single-threaded) and mutate it directly. Provenance tags and span ids
//! derive from per-node counters, so a node's values depend only on its own
//! emission order — the trace goldens pin them.

use mobicast_ipv6::addr::GroupAddr;
use mobicast_net::{LinkId, NodeId};
use mobicast_sim::span::AttrValue;
use mobicast_sim::{Counter, Counters, SeriesSet, SimTime, SpanBook, SpanId, TimeSeriesSet};
use std::cell::RefCell;
use std::collections::HashMap;
use std::net::Ipv6Addr;
use std::rc::Rc;

/// Identifier of one application datagram (origin host id << 32 | seq).
pub type PacketId = u64;

pub fn packet_id(origin: NodeId, seq: u32) -> PacketId {
    (u64::from(origin.0) << 32) | u64::from(seq)
}

/// Origin metadata of a datagram.
#[derive(Clone, Copy, Debug)]
pub struct PacketMeta {
    pub pkt: PacketId,
    pub group: GroupAddr,
    pub sender: NodeId,
    pub sent_at: SimTime,
    /// The link the datagram first entered.
    pub origin_link: LinkId,
    /// Source address the sender used on the wire (tells the analysis
    /// whether the stale-address window was active).
    pub src_addr: Ipv6Addr,
}

/// One appearance of (a copy of) a datagram on a link.
#[derive(Clone, Copy, Debug)]
pub struct DataEvent {
    pub pkt: PacketId,
    /// Provenance tag of this emission (unique per run, > 0).
    pub id: u64,
    /// Provenance tag of the emission the forwarding node received
    /// (`None` at the origin). Following parents yields the exact causal
    /// chain of every delivered copy.
    pub parent: Option<u64>,
    /// Link the frame was put onto.
    pub link: LinkId,
    pub time: SimTime,
    /// Frame size on the wire (tunnel overhead shows up here).
    pub size: u32,
    /// True when the frame was IPv6-in-IPv6 encapsulated.
    pub tunneled: bool,
}

/// A datagram reaching a receiver application.
#[derive(Clone, Copy, Debug)]
pub struct Delivery {
    pub pkt: PacketId,
    pub host: NodeId,
    pub link: LinkId,
    pub time: SimTime,
    /// Was this the first copy at this host (false = duplicate)?
    pub first: bool,
    /// Provenance tag of the frame that delivered this copy (0 if unknown).
    pub via: u64,
}

/// A subscribed host moving between links.
#[derive(Clone, Copy, Debug)]
pub struct MoveEvent {
    pub host: NodeId,
    pub time: SimTime,
    pub from: Option<LinkId>,
    pub to: LinkId,
    /// Was the host subscribed to the group at the time (receiver moves)?
    pub subscribed: bool,
    /// Was the host an active sender at the time?
    pub sending: bool,
}

/// Everything recorded during one run.
#[derive(Default)]
pub struct Recorder {
    pub packets: Vec<PacketMeta>,
    pub data_events: Vec<DataEvent>,
    pub deliveries: Vec<Delivery>,
    pub moves: Vec<MoveEvent>,
    /// Free-form counters contributed by nodes (control message counts,
    /// encapsulation operations, …).
    pub counters: Counters,
    /// Sample series contributed online (join delays measured by receiver
    /// apps, binding round-trips, …).
    pub series: SeriesSet,
    /// Causal spans opened/closed by node glue (handoff phases, grafts,
    /// delivery gaps). Ids derive from `(node, per-node open count)`.
    pub spans: SpanBook,
    /// Sim-time-stamped gauge timelines (table occupancy, queue depth,
    /// link inflight, token-bucket level), sampled by the scenario.
    pub timeline: TimeSeriesSet,
    /// Per-node emission tag counters (tags are > 0; 0 means untagged).
    tag_seq: HashMap<u32, u64>,
}

impl Recorder {
    pub fn new_shared() -> SharedRecorder {
        SharedRecorder(Rc::new(RefCell::new(Recorder::default())))
    }
}

/// Cheap-to-clone handle to the run's recorder.
#[derive(Clone)]
pub struct SharedRecorder(Rc<RefCell<Recorder>>);

impl SharedRecorder {
    /// Allocate a fresh provenance tag for an emission by `node`:
    /// `(node + 1) << 32 | per-node count`, so the value depends only on
    /// the node's own emission order.
    pub fn next_tag(&self, node: NodeId) -> u64 {
        let mut r = self.0.borrow_mut();
        let seq = r.tag_seq.entry(node.0).or_insert(0);
        *seq += 1;
        (u64::from(node.0) + 1) << 32 | *seq
    }

    pub fn record_packet(&self, meta: PacketMeta) {
        self.0.borrow_mut().packets.push(meta);
    }

    pub fn record_data(&self, ev: DataEvent) {
        self.0.borrow_mut().data_events.push(ev);
    }

    pub fn record_delivery(&self, d: Delivery) {
        self.0.borrow_mut().deliveries.push(d);
    }

    pub fn record_move(&self, m: MoveEvent) {
        self.0.borrow_mut().moves.push(m);
    }

    pub fn count(&self, name: &str, delta: u64) {
        self.0.borrow_mut().counters.add(name, delta);
    }

    /// [`count`](Self::count) through a counter handle: what the
    /// per-frame paths use.
    pub fn bump(&self, counter: &'static Counter, delta: u64) {
        self.0.borrow_mut().counters.bump(counter, delta);
    }

    pub fn sample(&self, name: &str, value: f64) {
        self.0.borrow_mut().series.record(name, value);
    }

    /// Open a causal span (see [`SpanBook::open`]).
    pub fn span_open(
        &self,
        name: &str,
        node: NodeId,
        at: SimTime,
        parent: Option<SpanId>,
    ) -> SpanId {
        self.0
            .borrow_mut()
            .spans
            .open(name, u64::from(node.0), at, parent)
    }

    /// Attach a typed attribute to a span.
    pub fn span_annotate(&self, id: SpanId, key: &str, value: impl Into<AttrValue>) {
        self.0.borrow_mut().spans.annotate(id, key, value);
    }

    /// Close a span (first close wins).
    pub fn span_close(&self, id: SpanId, at: SimTime) {
        self.0.borrow_mut().spans.close(id, at);
    }

    /// Append a sim-time-stamped gauge sample to the named timeline.
    pub fn sample_at(&self, name: &str, at: SimTime, value: f64) {
        self.0.borrow_mut().timeline.sample(name, at, value);
    }

    /// Run `f` against the recorder (post-run analysis reads).
    pub fn with<R>(&self, f: impl FnOnce(&Recorder) -> R) -> R {
        f(&self.0.borrow())
    }

    /// Take the recorded data out (consumes the contents).
    pub fn take(&self) -> Recorder {
        std::mem::take(&mut self.0.borrow_mut())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_unique_and_positive() {
        let rec = Recorder::new_shared();
        let a = rec.next_tag(NodeId(0));
        let b = rec.next_tag(NodeId(0));
        let c = rec.next_tag(NodeId(3));
        assert!(a > 0);
        assert_ne!(a, b);
        assert_ne!(b, c);
    }

    #[test]
    fn tags_depend_only_on_per_node_order() {
        // Interleave two nodes' allocations two different ways: each node
        // sees the same values regardless.
        let rec = Recorder::new_shared();
        let a1 = rec.next_tag(NodeId(1));
        let b1 = rec.next_tag(NodeId(2));
        let a2 = rec.next_tag(NodeId(1));
        let rec2 = Recorder::new_shared();
        let b1x = rec2.next_tag(NodeId(2));
        let a1x = rec2.next_tag(NodeId(1));
        let a2x = rec2.next_tag(NodeId(1));
        assert_eq!((a1, a2, b1), (a1x, a2x, b1x));
    }

    #[test]
    fn packet_id_packs_origin_and_seq() {
        let id = packet_id(NodeId(7), 42);
        assert_eq!(id >> 32, 7);
        assert_eq!(id & 0xffff_ffff, 42);
        assert_ne!(packet_id(NodeId(1), 0), packet_id(NodeId(0), 1));
    }

    #[test]
    fn shared_recorder_accumulates() {
        let rec = Recorder::new_shared();
        let rec2 = rec.clone();
        rec.count("x", 2);
        rec2.count("x", 3);
        rec.sample("d", 1.5);
        assert_eq!(rec.with(|r| r.counters.get("x")), 5);
        assert_eq!(rec.with(|r| r.series.summary("d").count), 1);
    }

    #[test]
    fn take_empties_the_recorder() {
        let rec = Recorder::new_shared();
        rec.record_delivery(Delivery {
            pkt: 1,
            host: NodeId(0),
            link: LinkId(0),
            time: SimTime::ZERO,
            first: true,
            via: 1,
        });
        let taken = rec.take();
        assert_eq!(taken.deliveries.len(), 1);
        assert!(rec.with(|r| r.deliveries.is_empty()));
    }
}
