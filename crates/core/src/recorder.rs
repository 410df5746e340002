//! The scenario recorder: every multicast data movement and every mobility
//! event lands here, so the analysis pass can compute the paper's
//! quantities (join delay, leave delay, wasted bandwidth, routing stretch)
//! from ground truth instead of from per-node guesses.
//!
//! Nodes share one recorder via `Rc<RefCell<..>>` (a run is
//! single-threaded) and mutate it directly. Provenance tags and span ids
//! derive from per-node counters, so a node's values depend only on its own
//! emission order — the trace goldens pin them.
//!
//! Data emissions go into the [`Journal`], which mints the provenance tag
//! as it records the event: a tag is an address — `(node, per-node count)`
//! — that the journal turns into the event's position with two indexed
//! loads, and a parent is stored as a position, resolved when the child is
//! recorded. None of that layout leaves this file: the post-run readers
//! (oracle, analysis, explainer, scenario and stress reports) ask
//! [`Journal::chain`] for an ancestry, [`Journal::latest_emissions`] for the
//! last emission onto a link inside a window, and [`Recorder::sent_in`] /
//! [`Recorder::copies`] for which datagrams count and how many arrived.

use mobicast_ipv6::addr::GroupAddr;
use mobicast_net::{LinkId, NodeId};
use mobicast_sim::span::AttrValue;
use mobicast_sim::{
    Counter, Counters, SeriesSet, SimDuration, SimTime, SpanBook, SpanId, TimeSeriesSet,
};
use std::cell::RefCell;
use std::collections::BTreeMap;
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

/// One appearance of (a copy of) a datagram on a link: the by-value view of
/// a [`Journal`] row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DataEvent {
    pub pkt: PacketId,
    /// Provenance tag of this emission (unique per run, > 0).
    pub id: u64,
    /// Provenance tag of the emission the forwarding node received: `None`
    /// at the origin, `Some(0)` — the tag no event carries — when the
    /// emission named a parent the journal never recorded. Following
    /// parents yields the exact causal chain of every delivered copy
    /// ([`Journal::chain`] is that walk).
    pub parent: Option<u64>,
    /// Link the frame was put onto.
    pub link: LinkId,
    pub time: SimTime,
    /// Frame size on the wire (tunnel overhead shows up here).
    pub size: u32,
    /// True when the frame was IPv6-in-IPv6 encapsulated.
    pub tunneled: bool,
}

/// Where the cause of a journal event sits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Parent {
    /// Nothing caused it: the event is the origin of its chain.
    Origin,
    /// It named a parent tag that no recorded event carries (tag 0, a node
    /// that never emitted, a count not issued when the child was recorded):
    /// the chain is broken here.
    Dangling,
    /// Position of the causing event — always before the child's own.
    At(usize),
}

/// `Row::parent` of an origin.
const ORIGIN: u32 = u32::MAX;
/// `Row::parent` of an event whose parent tag named nothing.
const DANGLING: u32 = u32::MAX - 1;
/// The bit of `Row::size_tunneled` that holds the tunnelled flag.
const TUNNELED_BIT: u32 = 1 << 31;
/// Table slots a node gets when it first emits. A node that forwards the
/// stream once goes on forwarding it; starting at `Vec`'s own 4 slots, a
/// thousand routers' tables doubling their way up leave 16 … 512-byte holes
/// all through the heap, and a world built after the run in the same process
/// (a sweep's next scenario) was measured 5–7 % slower for walking them.
const FIRST_EMISSIONS: usize = 64;

/// The most rows [`Journal::chain`] yields, the event it starts from
/// included. A chain is *too long* when its `CHAIN_GUARD`-th row still names
/// a recorded parent: the walk is cut there and every reader treats the cut
/// chain as it treats a broken one — no stretch sample, an incomplete
/// journey, an ended loop walk. A native segment is at most 64 hops (the
/// IPv6 hop limit), so only a tunnelled path across a very large topology
/// can reach the guard.
pub const CHAIN_GUARD: usize = 64;

/// Datagrams sent this long before a run ends may still be in flight when
/// it does: a window judged for delivery ends here, not at the end.
pub(crate) const IN_FLIGHT_TAIL: SimDuration = SimDuration::from_secs(1);

/// One journal entry, packed: what [`DataEvent`] shows, with the parent as
/// a position (or [`ORIGIN`] / [`DANGLING`]) and the tunnelled flag in the
/// top bit of the size.
#[derive(Clone, Copy)]
struct Row {
    pkt: PacketId,
    id: u64,
    time: SimTime,
    parent: u32,
    link: u32,
    size_tunneled: u32,
}

/// The append-only causal journal of data emissions.
///
/// [`record`](Self::record) is the only way in and the only place a
/// provenance tag is minted, so every tag names exactly one event and every
/// event sits under its own tag. A tag `(node + 1) << 32 | count` is an
/// address: `by_node[node][count - 1]` is the event's position. A parent is
/// resolved to a position when its child is recorded, which is sound because
/// a frame is recorded when it is emitted and can only cause another
/// emission after it arrived somewhere — a parent is always recorded before
/// its child (a replayed stale frame re-sends an old tag, it records
/// nothing).
#[derive(Default)]
pub struct Journal {
    rows: Vec<Row>,
    /// Per node (grown when a node first emits), the positions of its
    /// emissions in its own emission order.
    by_node: Vec<Vec<u32>>,
}

impl Journal {
    /// Record an emission by `node` and return the provenance tag minted
    /// for it: `(node + 1) << 32 | per-node count`, so the value depends
    /// only on the node's own emission order. `parent` is the tag of the
    /// frame whose processing caused the emission (`None` at an origin).
    ///
    /// # Panics
    /// When `size` does not fit in 31 bits, or the journal already holds as
    /// many events as a `u32` position can address.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        node: NodeId,
        pkt: PacketId,
        parent: Option<u64>,
        link: LinkId,
        time: SimTime,
        size: u32,
        tunneled: bool,
    ) -> u64 {
        let events = self.rows.len();
        assert!(
            events < DANGLING as usize,
            "journal full: {events} events recorded, a position must stay below {DANGLING}"
        );
        assert!(
            size < TUNNELED_BIT,
            "frame size {size} does not fit beside the tunnelled bit"
        );
        // Positions are below DANGLING, so the casts are exact.
        let pos = events as u32;
        let parent = match parent {
            None => ORIGIN,
            Some(tag) => self.position(tag).map_or(DANGLING, |p| p as u32),
        };
        if self.by_node.len() <= node.index() {
            self.by_node.resize_with(node.index() + 1, Vec::new);
        }
        let emitted = &mut self.by_node[node.index()];
        if emitted.capacity() == 0 {
            emitted.reserve(FIRST_EMISSIONS);
        }
        emitted.push(pos);
        let id = (u64::from(node.0) + 1) << 32 | emitted.len() as u64;
        self.rows.push(Row {
            pkt,
            id,
            time,
            parent,
            link: link.0,
            size_tunneled: size | if tunneled { TUNNELED_BIT } else { 0 },
        });
        id
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Position of the event recorded under `tag`.
    pub fn position(&self, tag: u64) -> Option<usize> {
        let node = usize::try_from((tag >> 32).checked_sub(1)?).ok()?;
        let count = (tag & 0xffff_ffff) as usize;
        let pos = self.by_node.get(node)?.get(count.checked_sub(1)?)?;
        Some(*pos as usize)
    }

    /// Where the cause of the event at `pos` sits.
    ///
    /// # Panics
    /// When `pos` is not a position of this journal.
    pub fn parent_pos(&self, pos: usize) -> Parent {
        match self.rows[pos].parent {
            ORIGIN => Parent::Origin,
            DANGLING => Parent::Dangling,
            at => Parent::At(at as usize),
        }
    }

    /// The event at `pos`.
    pub fn get(&self, pos: usize) -> Option<DataEvent> {
        self.rows.get(pos).map(|row| self.view(row))
    }

    /// The event recorded under `tag`.
    pub fn by_tag(&self, tag: u64) -> Option<DataEvent> {
        self.get(self.position(tag)?)
    }

    /// Every event, in the order recorded.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            journal: self,
            rows: self.rows.iter(),
        }
    }

    /// The causal chain of the event recorded under `tag`, walked back
    /// toward its origin: that event first, then its parent, and so on, at
    /// most [`CHAIN_GUARD`] rows. A tag that names no event (a delivery's
    /// unknown `via`) yields nothing and ends [`ChainEnd::Dangling`].
    pub fn chain(&self, tag: u64) -> Chain<'_> {
        Chain {
            journal: self,
            // Positions are below DANGLING, so the cast is exact.
            next: self.position(tag).map_or(DANGLING, |pos| pos as u32),
            left: CHAIN_GUARD,
        }
    }

    /// For each window `(link, after, before)`, the latest emission onto
    /// `link` strictly inside `(after, before)`: one pass over the rows, in
    /// whatever order they were recorded, each row offered to the windows
    /// that ask about its link.
    pub fn latest_emissions(&self, windows: &[(LinkId, SimTime, SimTime)]) -> Vec<Option<SimTime>> {
        let mut asking: Vec<Vec<usize>> = Vec::new();
        for (w, (link, ..)) in windows.iter().enumerate() {
            if asking.len() <= link.index() {
                asking.resize_with(link.index() + 1, Vec::new);
            }
            asking[link.index()].push(w);
        }
        let mut latest = vec![None; windows.len()];
        for row in &self.rows {
            for &w in asking.get(row.link as usize).into_iter().flatten() {
                let (_, after, before) = windows[w];
                if row.time > after && row.time < before && latest[w] < Some(row.time) {
                    latest[w] = Some(row.time);
                }
            }
        }
        latest
    }

    fn view(&self, row: &Row) -> DataEvent {
        DataEvent {
            pkt: row.pkt,
            id: row.id,
            parent: match row.parent {
                ORIGIN => None,
                at => Some(self.rows.get(at as usize).map_or(0, |parent| parent.id)),
            },
            link: LinkId(row.link),
            time: row.time,
            size: row.size_tunneled & !TUNNELED_BIT,
            tunneled: row.size_tunneled & TUNNELED_BIT != 0,
        }
    }
}

/// Iterator over a [`Journal`]'s events by value.
pub struct Iter<'a> {
    journal: &'a Journal,
    rows: std::slice::Iter<'a, Row>,
}

impl Iterator for Iter<'_> {
    type Item = DataEvent;

    fn next(&mut self) -> Option<DataEvent> {
        self.rows.next().map(|row| self.journal.view(row))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.rows.size_hint()
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a Journal {
    type Item = DataEvent;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// How a [`Chain`] walk ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChainEnd {
    /// At an event nothing caused: the chain is whole.
    Origin,
    /// At a parent the journal never recorded, or at a start tag that names
    /// no event: the chain is broken.
    Dangling,
    /// After [`CHAIN_GUARD`] rows with a recorded parent still ahead.
    Guard,
}

/// Iterator over a causal chain as `(position, event)`, the starting event
/// first (see [`Journal::chain`]).
pub struct Chain<'a> {
    journal: &'a Journal,
    /// `Row::parent` encoding of the row to yield next.
    next: u32,
    /// Rows the guard still allows.
    left: usize,
}

impl Chain<'_> {
    /// How the walk ended; meaningful once `next` has returned `None`.
    pub fn end(&self) -> ChainEnd {
        match self.next {
            ORIGIN => ChainEnd::Origin,
            DANGLING => ChainEnd::Dangling,
            _ => ChainEnd::Guard,
        }
    }
}

impl Iterator for Chain<'_> {
    type Item = (usize, DataEvent);

    fn next(&mut self) -> Option<(usize, DataEvent)> {
        if self.left == 0 || self.next >= DANGLING {
            return None;
        }
        let pos = self.next as usize;
        let row = &self.journal.rows[pos];
        self.next = row.parent;
        self.left -= 1;
        Some((pos, self.journal.view(row)))
    }
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
    pub data_events: Journal,
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
}

impl Recorder {
    pub fn new_shared() -> SharedRecorder {
        SharedRecorder(Rc::new(RefCell::new(Recorder::default())))
    }

    /// The datagrams sent in `[from, until)` with their send times, by
    /// packet id.
    pub fn sent_in(&self, from: SimTime, until: SimTime) -> BTreeMap<PacketId, SimTime> {
        let in_window = |m: &&PacketMeta| m.sent_at >= from && m.sent_at < until;
        let sent = self.packets.iter().filter(in_window);
        sent.map(|m| (m.pkt, m.sent_at)).collect()
    }

    /// `(first copies, duplicates)` among the deliveries.
    pub fn copies(&self) -> (u64, u64) {
        let first = self.deliveries.iter().filter(|d| d.first).count() as u64;
        (first, self.deliveries.len() as u64 - first)
    }
}

/// Cheap-to-clone handle to the run's recorder.
#[derive(Clone)]
pub struct SharedRecorder(Rc<RefCell<Recorder>>);

impl SharedRecorder {
    pub fn record_packet(&self, meta: PacketMeta) {
        self.0.borrow_mut().packets.push(meta);
    }

    /// [`Journal::record`] on the run's journal: returns the tag minted.
    #[allow(clippy::too_many_arguments)]
    pub fn record_data(
        &self,
        node: NodeId,
        pkt: PacketId,
        parent: Option<u64>,
        link: LinkId,
        time: SimTime,
        size: u32,
        tunneled: bool,
    ) -> u64 {
        self.0
            .borrow_mut()
            .data_events
            .record(node, pkt, parent, link, time, size, tunneled)
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

    /// Record an emission of packet 1 on link 0 at t = 0.
    fn emit(j: &mut Journal, node: u32, parent: Option<u64>) -> u64 {
        j.record(
            NodeId(node),
            1,
            parent,
            LinkId(0),
            SimTime::ZERO,
            100,
            false,
        )
    }

    #[test]
    fn tags_are_unique_and_positive() {
        let mut j = Journal::default();
        let a = emit(&mut j, 0, None);
        let b = emit(&mut j, 0, None);
        let c = emit(&mut j, 3, None);
        assert!(a > 0);
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_eq!((a, b, c), (1 << 32 | 1, 1 << 32 | 2, 4 << 32 | 1));
    }

    #[test]
    fn tags_depend_only_on_per_node_order() {
        // Interleave two nodes' emissions two different ways: each node
        // sees the same values regardless.
        let mut j = Journal::default();
        let a1 = emit(&mut j, 1, None);
        let b1 = emit(&mut j, 2, None);
        let a2 = emit(&mut j, 1, None);
        let mut j2 = Journal::default();
        let b1x = emit(&mut j2, 2, None);
        let a1x = emit(&mut j2, 1, None);
        let a2x = emit(&mut j2, 1, None);
        assert_eq!((a1, a2, b1), (a1x, a2x, b1x));
    }

    #[test]
    fn a_tag_is_the_address_of_its_event_and_parents_are_positions() {
        let mut j = Journal::default();
        let origin = emit(&mut j, 5, None);
        let hop = j.record(
            NodeId(2),
            1,
            Some(origin),
            LinkId(7),
            SimTime::from_secs(3),
            140,
            true,
        );
        let not_yet = (2 + 1) << 32 | 2; // node 2's second emission: not issued
        let orphans = [0, 9 << 32 | 1, not_yet].map(|tag| emit(&mut j, 5, Some(tag)));
        let late = emit(&mut j, 2, Some(hop)); // now `not_yet` names this one

        assert_eq!(j.len(), 6);
        assert_eq!(j.position(origin), Some(0));
        assert_eq!(j.position(hop), Some(1));
        assert_eq!((late, j.position(late)), (not_yet, Some(5)));
        for unknown in [0, 1, 9 << 32 | 1, 6 << 32, 6 << 32 | 5, u64::MAX] {
            assert_eq!(j.position(unknown), None, "{unknown:#x}");
            assert_eq!(j.by_tag(unknown), None);
        }
        assert_eq!(j.parent_pos(0), Parent::Origin);
        assert_eq!(j.parent_pos(1), Parent::At(0));
        assert_eq!(j.parent_pos(5), Parent::At(1));
        for orphan in orphans {
            // Resolved when recorded: a tag issued later does not adopt it.
            let pos = j.position(orphan).unwrap();
            assert_eq!(j.parent_pos(pos), Parent::Dangling);
            assert_eq!(j.get(pos).unwrap().parent, Some(0));
        }
        assert_eq!(
            j.by_tag(hop),
            Some(DataEvent {
                pkt: 1,
                id: hop,
                parent: Some(origin),
                link: LinkId(7),
                time: SimTime::from_secs(3),
                size: 140,
                tunneled: true,
            })
        );
        assert_eq!(j.get(0).unwrap().parent, None);
        assert_eq!(j.get(6), None);
        let ids: Vec<u64> = j.iter().map(|ev| ev.id).collect();
        assert_eq!(ids, [origin, hop, orphans[0], orphans[1], orphans[2], late]);
        assert_eq!((&j).into_iter().len(), 6);
    }

    #[test]
    fn an_emission_costs_one_packed_row_and_one_table_slot() {
        assert!(std::mem::size_of::<Row>() <= 40);
        let mut j = Journal::default();
        assert_eq!((j.rows.capacity(), j.by_node.capacity()), (0, 0));
        for _ in 0..1000 {
            emit(&mut j, 3, None);
        }
        // Node 3's table only: 4 B per event, nothing per silent node
        // beyond the empty slots below it.
        assert_eq!(j.by_node.len(), 4);
        assert!(j.by_node[3].capacity() <= 1024);
        assert_eq!(
            j.by_node[3].len() * std::mem::size_of_val(&j.by_node[3][0]),
            4000
        );
        assert!(j.by_node[..3].iter().all(|t| t.capacity() == 0));
    }

    #[test]
    #[should_panic(expected = "does not fit beside the tunnelled bit")]
    fn a_size_that_would_flip_the_tunnelled_bit_is_refused() {
        let mut j = Journal::default();
        j.record(NodeId(0), 1, None, LinkId(0), SimTime::ZERO, 1 << 31, false);
    }

    #[test]
    fn the_largest_size_keeps_its_flag() {
        let mut j = Journal::default();
        let max = (1 << 31) - 1;
        let plain = j.record(NodeId(0), 1, None, LinkId(0), SimTime::ZERO, max, false);
        let tunneled = j.record(NodeId(0), 1, None, LinkId(0), SimTime::ZERO, max, true);
        let seen = |tag| j.by_tag(tag).map(|ev| (ev.size, ev.tunneled));
        assert_eq!(seen(plain), Some((max, false)));
        assert_eq!(seen(tunneled), Some((max, true)));
    }

    /// The index the journal replaced — `(tag, position)` sorted by tag,
    /// answered by binary search — kept as a second reference model.
    struct TagIndex<'a> {
        events: &'a [DataEvent],
        by_tag: Vec<(u64, usize)>,
    }

    const NO_PARENT: usize = usize::MAX;

    impl<'a> TagIndex<'a> {
        fn build(events: &'a [DataEvent]) -> Self {
            let mut by_tag: Vec<(u64, usize)> = events
                .iter()
                .enumerate()
                .map(|(i, ev)| (ev.id, i))
                .collect();
            // Of two events under one tag the later one sorts last and
            // answers `position` (what collecting into a map did).
            by_tag.sort_unstable();
            TagIndex { events, by_tag }
        }

        fn position(&self, tag: u64) -> Option<usize> {
            let after = self.by_tag.partition_point(|&(t, _)| t <= tag);
            let &(found, i) = self.by_tag[..after].last()?;
            (found == tag).then_some(i)
        }

        fn get(&self, tag: u64) -> Option<&'a DataEvent> {
            self.position(tag).map(|i| &self.events[i])
        }

        /// For each event, the position of the event that caused it
        /// ([`NO_PARENT`] at an origin or when the parent was not recorded).
        fn parent_positions(&self) -> Vec<usize> {
            self.events
                .iter()
                .map(|ev| {
                    ev.parent
                        .filter(|&tag| tag != 0)
                        .and_then(|tag| self.position(tag))
                        .unwrap_or(NO_PARENT)
                })
                .collect()
        }
    }

    #[test]
    fn tag_index_resolves_tags_and_parents() {
        // Tags out of order, one unknown parent, one duplicate tag (the
        // later record answers, as it did when the index was a map).
        let ev = |id, parent, link, tunneled| DataEvent {
            pkt: 1,
            id,
            parent,
            link: LinkId(link),
            time: SimTime::from_secs(20),
            size: 100,
            tunneled,
        };
        let events = vec![
            ev(30, None, 0, false),
            ev(10, Some(30), 1, false),
            ev(20, Some(99), 2, true),
            ev(10, Some(20), 3, false),
            ev(40, Some(0), 0, false),
        ];
        let idx = TagIndex::build(&events);
        assert_eq!(idx.get(30).map(|e| e.link), Some(LinkId(0)));
        assert_eq!(idx.get(10).map(|e| e.link), Some(LinkId(3)));
        assert_eq!(idx.get(20).map(|e| e.tunneled), Some(true));
        assert!(idx.get(5).is_none() && idx.get(35).is_none() && idx.get(99).is_none());
        assert_eq!(
            idx.parent_positions(),
            vec![NO_PARENT, 0, NO_PARENT, 2, NO_PARENT]
        );
        assert!(TagIndex::build(&[]).get(1).is_none());
    }

    proptest::proptest! {
        /// The journal against the index it replaced, built over the
        /// journal's own events: every tag — issued or not — resolves to
        /// the same event, every parent to the same position.
        #[test]
        fn journal_agrees_with_the_tag_index_it_replaced(
            words in proptest::collection::vec(proptest::any::<u32>(), 0..120),
        ) {
            let mut rec = Recorder::default();
            let mut issued: Vec<u64> = Vec::new();
            for w in words {
                let pick = (w >> 8) as usize;
                let parent = match w % 5 {
                    0 => None,
                    1 => Some(u64::from(w >> 4 & 7) << 32 | u64::from(w >> 16 & 31)),
                    _ if issued.is_empty() => None,
                    _ => Some(issued[pick % issued.len()]),
                };
                let node = NodeId(w >> 4 & 3);
                issued.push(rec.data_events.record(
                    node, 1, parent, LinkId(w & 3), SimTime::from_secs(20), 100, w & 0x80 != 0,
                ));
            }
            let journal = &rec.data_events;
            let events: Vec<DataEvent> = journal.iter().collect();
            let idx = TagIndex::build(&events);
            for node in 0..6u64 {
                for count in 0..40u64 {
                    let tag = node << 32 | count;
                    assert_eq!(journal.position(tag), idx.position(tag), "{tag:#x}");
                    assert_eq!(journal.by_tag(tag), idx.get(tag).copied(), "{tag:#x}");
                }
            }
            let parents: Vec<usize> = (0..journal.len())
                .map(|pos| match journal.parent_pos(pos) {
                    Parent::At(at) => at,
                    Parent::Origin | Parent::Dangling => NO_PARENT,
                })
                .collect();
            assert_eq!(parents, idx.parent_positions());
        }
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
