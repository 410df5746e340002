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
//! recorded.
//!
//! The journal is a window, not an archive. Everything a reader asks of an
//! emission is settled while its cause is still held — the path and the
//! tunnelled bit of a delivery when the delivery is recorded
//! ([`Recorder::record_delivery`]), the last emission before an arrival
//! when the move is ([`Recorder::record_move`]), loop-freedom by the time
//! the emission is half a horizon old — and a row older than the journal's
//! horizon retires into per-link useful / wasted totals. A cause that had already retired when its effect
//! arrived is counted ([`Journal::beyond_horizon`]), never guessed. None of
//! that layout leaves this file: the post-run readers (oracle, analysis,
//! scenario and stress reports) read [`Journal::loops`],
//! [`Deliveries::with_settled`], [`Journal::link_usage`],
//! [`Recorder::latest_emission`] and [`Recorder::sent_in`] /
//! [`Recorder::copies`]; the explainer walks [`Journal::chain`] over a
//! journal whose horizon was lifted.

use crate::analysis::LinkDataUsage;
use mobicast_ipv6::addr::GroupAddr;
use mobicast_net::{LinkId, NodeId};
use mobicast_sim::{
    Counters, FieldValue, SeriesSet, SimDuration, SimTime, SpanBook, SpanId, TimeSeriesSet,
};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
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
    /// emission named a parent the journal never recorded or no longer
    /// holds. Following parents yields the exact causal chain of every
    /// delivered copy ([`Journal::chain`] is that walk).
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
    /// It named a parent that had retired when the child was recorded.
    Retired,
    /// Position of the causing event — always before the child's own.
    At(usize),
}

/// `Row::parent` of an origin.
const ORIGIN: u32 = u32::MAX;
/// `Row::parent` of an event whose parent tag named nothing.
const DANGLING: u32 = u32::MAX - 1;
/// `Row::parent` of an event whose parent had retired; what a walk's
/// cursor reads once it steps onto a retired position.
const RETIRED: u32 = u32::MAX - 2;
/// The bit of `Row::link_flags` that marks a row on the path of some first
/// delivery.
const USEFUL_BIT: u32 = 1 << 31;
/// The bit of `Row::link_flags` that holds the tunnelled flag: no link
/// index below 2³⁰ uses it or [`USEFUL_BIT`].
const TUNNELED_BIT: u32 = 1 << 30;
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
// A settled path length is kept in one byte.
const _: () = assert!(CHAIN_GUARD <= u8::MAX as usize);

/// Datagrams sent this long before a run ends may still be in flight when
/// it does: a window judged for delivery ends here, not at the end.
pub(crate) const IN_FLIGHT_TAIL: SimDuration = SimDuration::from_secs(1);

/// How long a built network's journal keeps a row (`builder::build` sets
/// it; a recorder made by hand keeps everything). Measured, not derived:
/// the longest cause → effect span any reader follows — an origin's
/// emission to the delivery at the end of its chain — is 68 ms over the five
/// benchmark workloads and the chaos, adversarial and overload campaigns
/// (jitter, stale replays and storm queues included; DESIGN.md, "Recorder:
/// the causal ground truth"). 5 s is 70 × that — 35 × for a loop walk,
/// made when the emission is half a horizon old. A shorter horizon buys
/// nothing: the most rows held at once are an initial flood's, emitted
/// within a second.
pub(crate) const JOURNAL_HORIZON: SimDuration = SimDuration::from_secs(5);

/// Rows a move of a journal's clock judges for loop-freedom before they
/// fall due, once that many wait (see [`Journal::advance`]). Judged that
/// many at a time, neighbouring rows' chains share their ancestors in the
/// cache: on `metro_flood`, 64 at a time cost ≈ 6 % of its wall time and
/// this many nothing measurable, for a longest handler of 4.2–8.4 ms.
const JUDGED_AHEAD: usize = 16_384;

/// The newest kinds a row's datagram and size are looked for among before a
/// kind is minted for them. A tunnel interleaves a datagram's native and
/// encapsulated copies, two kinds: looking among two already mints one kind
/// per `(pkt, size)` on `roam_tunnel` and `metro_flood` at seeds 11 and 29,
/// on a Figure-1 run under each policy and on the chaos plans of seeds 11
/// and 12; four leaves room for more copies in flight. A kind is reused only while it is this new, so the kinds held
/// are at most this many more than the rows held: the oldest kind held has
/// a row held, and fewer than this many kinds were minted between its mint
/// and that row.
const KIND_SCAN: usize = 4;

/// The least room a journal's ring shrinks to: a quiet run's few rows are
/// not worth a shrink and a regrowth.
const RING_FLOOR: usize = 4_096;

/// One journal entry, packed into 24 bytes: what [`DataEvent`] shows, with
/// the datagram and frame size as a [`Kind`], the emitting node in place of
/// the tag (the tag is derived from the node's table, [`Journal::tag_at`]),
/// the parent as a position (or [`ORIGIN`] / [`DANGLING`] / [`RETIRED`])
/// and, in the top two bits of the link, whether the row lies on the path
/// of some first delivery and whether the frame was tunnelled.
#[derive(Clone, Copy)]
struct Row {
    time: SimTime,
    /// Absolute index into the journal's kind table.
    kind: u32,
    node: u32,
    parent: u32,
    link_flags: u32,
}

impl Row {
    fn tunneled(&self) -> bool {
        self.link_flags & TUNNELED_BIT != 0
    }

    fn link(&self) -> u32 {
        self.link_flags & !(USEFUL_BIT | TUNNELED_BIT)
    }

    fn useful(&self) -> bool {
        self.link_flags & USEFUL_BIT != 0
    }
}

/// Add `row`'s `size`-byte frame to the useful or wasted total of `usage`.
fn tally(usage: &mut LinkDataUsage, row: &Row, size: u32) {
    let (bytes, frames) = if row.useful() {
        (&mut usage.useful_bytes, &mut usage.useful_frames)
    } else {
        (&mut usage.wasted_bytes, &mut usage.wasted_frames)
    };
    *bytes += u64::from(size);
    *frames += 1;
}

/// What the rows of one datagram in one frame size share: a fan-out records
/// many rows of one kind in a row, a tunnel its encapsulated copies under a
/// second, interleaved with the first.
#[derive(Clone, Copy)]
struct Kind {
    pkt: PacketId,
    size: u32,
    /// Position of the latest row of the kind: once it retires, so may the
    /// kind.
    last: u32,
}

/// One node's tag table: the positions of its emissions in its own emission
/// order, the oldest trimmed once their rows have retired.
#[derive(Default)]
struct Emitted {
    /// Emissions ever recorded: the count of the node's latest tag.
    issued: u32,
    /// Positions of the latest `held.len()` of them.
    held: VecDeque<u32>,
}

/// What the journal keeps per link beyond its rows.
#[derive(Clone, Copy, Default)]
struct LinkLedger {
    /// Bytes and frames of the rows that retired.
    retired: LinkDataUsage,
    /// The latest two distinct emission times: the later one, and the one
    /// before it for an arrival at the very instant of the later.
    latest: Option<SimTime>,
    previous: Option<SimTime>,
}

/// A native emission onto a link a native ancestor already crossed: the
/// datagram re-entered the link (a multicast forwarding loop).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LoopFinding {
    pub time: SimTime,
    pub pkt: PacketId,
    pub link: LinkId,
}

/// The causal journal of data emissions: append at the back, retire from
/// the front.
///
/// [`record`](Self::record) is the only way in and the only place a
/// provenance tag is minted, so every tag names exactly one event and every
/// event sits under its own tag. A tag `(node + 1) << 32 | count` is an
/// address: the node's table maps `count` to the event's position. A parent
/// is resolved to a position when its child is recorded, which is sound
/// because a frame is recorded when it is emitted and can only cause another
/// emission after it arrived somewhere — a parent is always recorded before
/// its child (a replayed stale frame re-sends an old tag, it records
/// nothing).
///
/// Positions are absolute — the `n`-th emission ever recorded has position
/// `n` — and the rows held are those of the last [horizon](Self::set_horizon)
/// of the journal's clock, which `record` and [`Recorder::record_move`]
/// move and which never runs backwards. By default the horizon is unbounded
/// and nothing retires.
pub struct Journal {
    /// The live rows, oldest first; `rows[0]` has position `retired`.
    rows: VecDeque<Row>,
    retired: usize,
    /// The most rows held at once.
    rows_high_water: usize,
    /// The kinds the rows held name, oldest first; `kinds[0]` has index
    /// `kinds_retired`. A kind retires, oldest first, once its last row has.
    kinds: VecDeque<Kind>,
    kinds_retired: usize,
    /// Position of the oldest row not yet judged for loop-freedom.
    judged: usize,
    horizon: SimDuration,
    clock: SimTime,
    /// Per node, grown when a node first emits.
    by_node: Vec<Emitted>,
    /// Per link, grown when a link first carries an emission.
    links: Vec<LinkLedger>,
    loops: Vec<LoopFinding>,
    beyond_horizon: u64,
}

impl Default for Journal {
    fn default() -> Self {
        Journal {
            rows: VecDeque::new(),
            retired: 0,
            rows_high_water: 0,
            kinds: VecDeque::new(),
            kinds_retired: 0,
            judged: 0,
            horizon: SimDuration::MAX,
            clock: SimTime::ZERO,
            by_node: Vec::new(),
            links: Vec::new(),
            loops: Vec::new(),
            beyond_horizon: 0,
        }
    }
}

impl Journal {
    /// Record an emission by `node` at `time`, the run's clock, and return
    /// the provenance tag minted for it: `(node + 1) << 32 | per-node
    /// count`, so the value depends only on the node's own emission order.
    /// `parent` is the tag of the frame whose processing caused the emission
    /// (`None` at an origin).
    ///
    /// # Panics
    /// When `time` is before the journal's clock, the link index does not
    /// fit in 30 bits, or the journal has recorded as many events as a `u32`
    /// position can address.
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
        self.advance(time);
        let events = self.len();
        assert!(
            events < RETIRED as usize,
            "journal full: {events} events recorded, a position must stay below {RETIRED}"
        );
        assert!(
            link.0 < TUNNELED_BIT,
            "link index {} does not fit beside the tunnelled and useful bits",
            link.0
        );
        // Positions are below RETIRED, so the cast is exact.
        let pos = events as u32;
        let parent = parent.map_or(ORIGIN, |tag| self.resolve(tag));
        let kind = self.kind_of(pkt, size, pos);

        if self.by_node.len() <= node.index() {
            self.by_node.resize_with(node.index() + 1, Emitted::default);
        }
        let emitted = &mut self.by_node[node.index()];
        if emitted.held.capacity() == 0 {
            emitted.held.reserve(FIRST_EMISSIONS);
        }
        while emitted
            .held
            .front()
            .is_some_and(|&at| (at as usize) < self.retired)
        {
            emitted.held.pop_front();
        }
        emitted.held.push_back(pos);
        emitted.issued += 1;
        let id = (u64::from(node.0) + 1) << 32 | u64::from(emitted.issued);

        if self.links.len() <= link.index() {
            self.links.resize(link.index() + 1, LinkLedger::default());
        }
        let ledger = &mut self.links[link.index()];
        if ledger.latest != Some(time) {
            ledger.previous = ledger.latest;
            ledger.latest = Some(time);
        }

        self.rows.push_back(Row {
            time,
            kind,
            node: node.0,
            parent,
            link_flags: link.0 | if tunneled { TUNNELED_BIT } else { 0 },
        });
        self.rows_high_water = self.rows_high_water.max(self.rows.len());
        id
    }

    /// The kind of an emission of `pkt` in a `size`-byte frame, recorded at
    /// `pos`: one of the [`KIND_SCAN`] newest when one is it, else a new one.
    fn kind_of(&mut self, pkt: PacketId, size: u32, pos: u32) -> u32 {
        let held = self.kinds.len();
        let newest = held.saturating_sub(KIND_SCAN)..held;
        let found = newest.rev().find(|&at| {
            let kind = &self.kinds[at];
            kind.pkt == pkt && kind.size == size
        });
        let at = found.unwrap_or_else(|| {
            self.kinds.push_back(Kind {
                pkt,
                size,
                last: pos,
            });
            held
        });
        self.kinds[at].last = pos;
        // Kinds are minted no more often than rows: the index fits beside a
        // position.
        (self.kinds_retired + at) as u32
    }

    /// The kind `row` names: held while the row is.
    fn kind(&self, row: &Row) -> &Kind {
        &self.kinds[row.kind as usize - self.kinds_retired]
    }

    /// Walk the ancestors of the native emission `row` for a native one on
    /// the same link: `None` when there is one, else how the walk ended;
    /// beside it, the time of the oldest ancestor the walk stepped onto.
    fn loop_walk(&self, row: &Row) -> (Option<ChainEnd>, SimTime) {
        let mut ancestors = Cursor {
            next: row.parent,
            left: CHAIN_GUARD - 1,
        };
        let mut oldest = row.time;
        while let Some((_, ancestor)) = ancestors.step(self) {
            // An ancestor was recorded before its child: no later in time.
            oldest = ancestor.time;
            if !ancestor.tunneled() && ancestor.link() == row.link() {
                return (None, oldest);
            }
        }
        (Some(ancestors.end()), oldest)
    }

    /// Judge the rows not yet judged for loop-freedom, oldest first: every
    /// one `due` says is due, then at most `ahead` more whose verdict
    /// cannot change before they fall due — a finding or a lost walk for
    /// each native one.
    ///
    /// A row falls due once it is more than half a horizon old, and until
    /// then no row at most half a horizon older than it has retired. So a
    /// walk that stepped onto no ancestor older than that, or that came to
    /// a retired row (which stays retired), reaches now what it would reach
    /// then. A walk that reached further back waits until its row is due,
    /// and the rows after it with it: verdicts are kept in row order.
    fn judge_while(
        &self,
        due: impl Fn(&Row) -> bool,
        ahead: usize,
        mut found: impl FnMut(LoopFinding),
    ) -> (usize, u64) {
        let half = self.horizon.as_nanos() / 2;
        let (mut judged, mut early, mut lost) = (0, 0, 0);
        for row in self.rows.range(self.judged - self.retired..) {
            let is_due = due(row);
            if !is_due && early == ahead {
                break;
            }
            if !row.tunneled() {
                let (end, oldest) = self.loop_walk(row);
                let reach = row.time.as_nanos() - oldest.as_nanos();
                if !is_due && reach > half && end != Some(ChainEnd::Retired) {
                    break;
                }
                match end {
                    None => found(LoopFinding {
                        time: row.time,
                        pkt: self.kind(row).pkt,
                        link: LinkId(row.link()),
                    }),
                    Some(ChainEnd::Retired) => lost += 1,
                    Some(_) => {}
                }
            }
            judged += 1;
            early += usize::from(!is_due);
        }
        (judged, lost)
    }

    /// [`Self::judge_while`], keeping the findings and the lost walks.
    fn judge(&mut self, due: impl Fn(&Row) -> bool, ahead: usize) {
        let mut loops = std::mem::take(&mut self.loops);
        let (judged, lost) = self.judge_while(due, ahead, |found| loops.push(found));
        self.loops = loops;
        self.judged += judged;
        self.beyond_horizon += lost;
    }

    /// Move the journal's clock to `now`: judge the loop-freedom of every
    /// row more than half the horizon older — and, once [`JUDGED_AHEAD`]
    /// rows wait to be judged, of that many — then retire every row more
    /// than the horizon older, folding its size into its link's useful or
    /// wasted total. Half a horizon early is early enough: every ancestor
    /// less than that much older is still held. Judging ahead is what keeps
    /// the work of a move bounded: a flood is judged over the emissions
    /// that make it up, and falls due with fewer than `JUDGED_AHEAD` rows
    /// left to judge, instead of all of them inside the first emission half
    /// a horizon later.
    ///
    /// # Panics
    /// When `now` is before the clock: rows retire oldest first, which is
    /// by time only while they were recorded in time order.
    fn advance(&mut self, now: SimTime) {
        assert!(
            now >= self.clock,
            "the journal's clock runs forward: {now:?} is before {:?}",
            self.clock
        );
        self.clock = now;
        let horizon = self.horizon;
        let half = SimDuration::from_nanos(horizon.as_nanos() / 2);
        let stale = |row: &Row| now.saturating_since(row.time) > horizon;
        let due = |row: &Row| now.saturating_since(row.time) > half;
        let waiting = self.len() - self.judged;
        let ahead = if waiting >= JUDGED_AHEAD {
            JUDGED_AHEAD
        } else {
            0
        };
        if ahead > 0 || self.rows.get(self.judged - self.retired).is_some_and(due) {
            self.judge(due, ahead);
        }
        while let Some(&oldest) = self.rows.front().filter(|row| stale(row)) {
            let size = self.kind(&oldest).size;
            tally(
                &mut self.links[oldest.link() as usize].retired,
                &oldest,
                size,
            );
            self.rows.pop_front();
            self.retired += 1;
        }
        while self
            .kinds
            .front()
            .is_some_and(|k| (k.last as usize) < self.retired)
        {
            self.kinds.pop_front();
            self.kinds_retired += 1;
        }
        // Give back what a burst grew: a ring less than a quarter full
        // shrinks to twice what it holds. A resize copies no more rows than
        // were recorded or retired since the last one, so the cost is
        // amortised O(1); positions and order do not move.
        let (held, capacity) = (self.rows.len(), self.rows.capacity());
        if capacity > RING_FLOOR && held * 4 < capacity {
            self.rows.shrink_to((held * 2).max(RING_FLOOR));
        }
    }

    /// Keep rows for `horizon` of the journal's clock from now on
    /// (`SimDuration::MAX`: keep every row not yet retired).
    pub fn set_horizon(&mut self, horizon: SimDuration) {
        self.horizon = horizon;
    }

    /// Emissions ever recorded, retired ones included.
    pub fn len(&self) -> usize {
        self.retired + self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rows that have retired: the position of the oldest row still held.
    pub fn retired(&self) -> usize {
        self.retired
    }

    /// Rows the journal has room for without growing: what its ring costs,
    /// whatever it holds.
    pub fn capacity(&self) -> usize {
        self.rows.capacity()
    }

    /// The most rows held at once.
    pub fn rows_high_water(&self) -> usize {
        self.rows_high_water
    }

    /// The bytes a held row takes in the ring.
    pub const ROW_BYTES: usize = std::mem::size_of::<Row>();

    /// `(pkt, size)` kinds the rows held name, with those waiting behind an
    /// older kind to retire.
    pub fn kinds_held(&self) -> usize {
        self.kinds.len()
    }

    /// The native emissions that re-entered a link a native ancestor —
    /// one of the at most `CHAIN_GUARD - 1` — had crossed, in the order
    /// recorded: those judged as the clock moved on, and now the rest.
    pub fn loops(&self) -> Vec<LoopFinding> {
        let mut loops = self.loops.clone();
        self.judge_while(|_| true, 0, |found| loops.push(found));
        loops
    }

    /// Emissions and deliveries whose cause had retired before the walk that
    /// judges them reached it — a loop walk that found no loop first, a
    /// delivery's path, a duplicate's delivering frame. Their loop-freedom,
    /// path and tunnelled bit were not decided; a journal with an unbounded
    /// horizon might have decided them otherwise. Zero means every answer
    /// is the one the whole journal gives.
    pub fn beyond_horizon(&self) -> u64 {
        if self.retired == 0 {
            // No walk comes to a retired row before a row retires.
            return 0;
        }
        self.beyond_horizon + self.judge_while(|_| true, 0, |_| {}).1
    }

    /// Per link (by link index, up to the last link that carried an
    /// emission), the bytes and frames on the path of some first delivery
    /// and those that were not: the retired rows' totals plus the rows
    /// still held.
    pub fn link_usage(&self) -> Vec<LinkDataUsage> {
        let mut usage: Vec<LinkDataUsage> = self.links.iter().map(|l| l.retired).collect();
        for row in &self.rows {
            tally(&mut usage[row.link() as usize], row, self.kind(row).size);
        }
        usage
    }

    /// The latest emission onto `link` strictly before `before`, an instant
    /// not before the journal's clock (so: now, or the end of the run).
    ///
    /// # Panics
    /// When `before` is before the clock — the journal keeps a link's latest
    /// two emission times, not its history.
    fn latest_before(&self, link: LinkId, before: SimTime) -> Option<SimTime> {
        assert!(
            before >= self.clock,
            "the latest emission before {before:?} is history at {:?}: ask at an arrival \
             as it is recorded, or at the end of the run",
            self.clock
        );
        let ledger = self.links.get(link.index())?;
        ledger.latest.filter(|at| *at < before).or(ledger.previous)
    }

    /// Position of the event recorded under `tag`, while the journal holds
    /// it.
    pub fn position(&self, tag: u64) -> Option<usize> {
        let at = self.resolve(tag);
        (at < RETIRED).then_some(at as usize)
    }

    /// Where the cause of the event at `pos` sits.
    ///
    /// # Panics
    /// When the journal does not hold position `pos`.
    pub fn parent_pos(&self, pos: usize) -> Parent {
        match self.rows[pos - self.retired].parent {
            ORIGIN => Parent::Origin,
            DANGLING => Parent::Dangling,
            RETIRED => Parent::Retired,
            at => Parent::At(at as usize),
        }
    }

    /// The event at `pos`, while the journal holds it.
    pub fn get(&self, pos: usize) -> Option<DataEvent> {
        let row = self.rows.get(pos.checked_sub(self.retired)?)?;
        Some(self.view(pos, row))
    }

    /// The event recorded under `tag`, while the journal holds it.
    pub fn by_tag(&self, tag: u64) -> Option<DataEvent> {
        self.get(self.position(tag)?)
    }

    /// Every event the journal holds, in the order recorded.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            journal: self,
            rows: self.rows.iter(),
            pos: self.retired,
        }
    }

    /// The causal chain of the event recorded under `tag`, walked back
    /// toward its origin: that event first, then its parent, and so on, at
    /// most [`CHAIN_GUARD`] rows. A tag that names no event (a delivery's
    /// unknown `via`) yields nothing and ends [`ChainEnd::Dangling`]; a walk
    /// that comes to a retired row ends there, [`ChainEnd::Retired`].
    pub fn chain(&self, tag: u64) -> Chain<'_> {
        Chain {
            journal: self,
            cursor: Cursor {
                next: self.resolve(tag),
                left: CHAIN_GUARD,
            },
        }
    }

    /// `tag` in `Row::parent` encoding: the position of the event recorded
    /// under it, [`RETIRED`] when that event has retired, [`DANGLING`] when
    /// no event ever carried the tag.
    fn resolve(&self, tag: u64) -> u32 {
        let node = (tag >> 32).checked_sub(1).map(|n| n as usize);
        let Some(emitted) = node.and_then(|n| self.by_node.get(n)) else {
            return DANGLING;
        };
        let count = tag & 0xffff_ffff;
        if count == 0 || count > u64::from(emitted.issued) {
            return DANGLING;
        }
        // How many of the node's emissions came after the one named.
        let newer = (u64::from(emitted.issued) - count) as usize;
        let slot = emitted.held.len().checked_sub(newer + 1);
        match slot.map(|slot| emitted.held[slot]) {
            Some(at) if at as usize >= self.retired => at,
            _ => RETIRED,
        }
    }

    /// Settle a delivery whose delivering frame carried `via`: whether that
    /// frame was tunnelled and, for a first copy, its causal chain — every
    /// row of it marked useful, its length and whether it reached an origin
    /// kept. (Nobody asks for a duplicate's path.)
    fn settle(&mut self, via: u64, first: bool) -> Settled {
        let start = self.resolve(via);
        let tunneled = start < RETIRED && self.rows[start as usize - self.retired].tunneled();
        let mut links = 0u8;
        let mut end = ChainEnd::Dangling;
        if first {
            let mut chain = Cursor {
                next: start,
                left: CHAIN_GUARD,
            };
            while let Some((held, _)) = chain.step(self) {
                self.rows[held].link_flags |= USEFUL_BIT;
                links += 1;
            }
            end = chain.end();
        }
        if start == RETIRED || end == ChainEnd::Retired {
            self.beyond_horizon += 1;
        }
        let mut flags = 0;
        if tunneled {
            flags |= Settled::TUNNELED;
        }
        if end == ChainEnd::Origin {
            flags |= Settled::WHOLE;
        }
        Settled { links, flags }
    }

    /// The tag [`record`](Self::record) minted for `row`, held at `pos`:
    /// its node's count, found by binary search in the node's table, which
    /// keeps the position of every row held. Only the post-run and
    /// explaining readers ask.
    fn tag_at(&self, pos: usize, row: &Row) -> u64 {
        let emitted = &self.by_node[row.node as usize];
        let slot = emitted
            .held
            .binary_search(&(pos as u32))
            .expect("a held row's position is in its node's table");
        let newer = (emitted.held.len() - 1 - slot) as u32;
        (u64::from(row.node) + 1) << 32 | u64::from(emitted.issued - newer)
    }

    fn view(&self, pos: usize, row: &Row) -> DataEvent {
        let parent = match row.parent {
            ORIGIN => None,
            at => {
                let held = (at as usize).checked_sub(self.retired);
                let parent = held.and_then(|i| self.rows.get(i));
                Some(parent.map_or(0, |parent| self.tag_at(at as usize, parent)))
            }
        };
        let kind = self.kind(row);
        DataEvent {
            pkt: kind.pkt,
            id: self.tag_at(pos, row),
            parent,
            link: LinkId(row.link()),
            time: row.time,
            size: kind.size,
            tunneled: row.tunneled(),
        }
    }
}

/// Iterator over the events a [`Journal`] holds, by value.
pub struct Iter<'a> {
    journal: &'a Journal,
    rows: std::collections::vec_deque::Iter<'a, Row>,
    /// Position of the next row.
    pos: usize,
}

impl Iterator for Iter<'_> {
    type Item = DataEvent;

    fn next(&mut self) -> Option<DataEvent> {
        let row = self.rows.next()?;
        self.pos += 1;
        Some(self.journal.view(self.pos - 1, row))
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
    /// At a row that has retired: broken as far as anyone can tell now.
    Retired,
    /// After [`CHAIN_GUARD`] rows with a recorded parent still ahead.
    Guard,
}

/// Where a walk toward an origin stands: the one stepping rule under the
/// loop walk, a delivery's settling and [`Chain`].
#[derive(Clone, Copy)]
struct Cursor {
    /// `Row::parent` encoding of the row to visit next.
    next: u32,
    /// Rows the guard still allows.
    left: usize,
}

impl Cursor {
    /// The next row of the walk, if it has one, and its index in
    /// `journal.rows`.
    fn step<'j>(&mut self, journal: &'j Journal) -> Option<(usize, &'j Row)> {
        if self.left == 0 || self.next >= RETIRED {
            return None;
        }
        let Some(held) = (self.next as usize).checked_sub(journal.retired) else {
            self.next = RETIRED;
            return None;
        };
        let row = &journal.rows[held];
        self.next = row.parent;
        self.left -= 1;
        Some((held, row))
    }

    /// How the walk ended; meaningful once `step` has returned `None`.
    fn end(&self) -> ChainEnd {
        match self.next {
            ORIGIN => ChainEnd::Origin,
            DANGLING => ChainEnd::Dangling,
            RETIRED => ChainEnd::Retired,
            _ => ChainEnd::Guard,
        }
    }
}

/// Iterator over a causal chain as `(position, event)`, the starting event
/// first (see [`Journal::chain`]).
pub struct Chain<'a> {
    journal: &'a Journal,
    cursor: Cursor,
}

impl Chain<'_> {
    /// How the walk ended; meaningful once `next` has returned `None`.
    pub fn end(&self) -> ChainEnd {
        self.cursor.end()
    }
}

impl Iterator for Chain<'_> {
    type Item = (usize, DataEvent);

    fn next(&mut self) -> Option<(usize, DataEvent)> {
        let (held, row) = self.cursor.step(self.journal)?;
        let pos = self.journal.retired + held;
        Some((pos, self.journal.view(pos, row)))
    }
}

/// A datagram reaching a receiver application: what
/// [`Recorder::record_delivery`] takes and what [`Deliveries`] yields.
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

/// The fields a delivery stores as deltas against the one recorded before
/// it, in column order: time (ns), `pkt`, `host`, `link` and the node half
/// of `via` (`via >> 32`).
type Deltas = [u64; 5];

fn deltas(d: &Delivery) -> Deltas {
    [
        d.time.as_nanos(),
        d.pkt,
        u64::from(d.host.0),
        u64::from(d.link.0),
        d.via >> 32,
    ]
}

/// The low half of `via`, a per-node count.
const VIA_LOW: u64 = 0xffff_ffff;

/// Append `v` as a LEB128 varint: seven bits a byte, low bits first, the
/// top bit set on every byte but the last.
fn put_varint(bytes: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        bytes.push(v as u8 | 0x80);
        v >>= 7;
    }
    bytes.push(v as u8);
}

/// The varint at `bytes[*at..]`, moving `at` past it. A one-byte varint
/// takes the first branch alone: peeled from the loop, it decodes the column
/// a third faster.
fn take_varint(bytes: &[u8], at: &mut usize) -> u64 {
    let first = bytes[*at];
    *at += 1;
    if first < 0x80 {
        return u64::from(first);
    }
    let mut v = u64::from(first & 0x7f);
    let mut shift = 7;
    loop {
        let b = bytes[*at];
        *at += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return v;
        }
        shift += 7;
    }
}

/// `now - before` as a zigzag code: small steps either way are small
/// numbers, and every pair of `u64`s has one (the difference wraps).
fn zigzag(now: u64, before: u64) -> u64 {
    let d = now.wrapping_sub(before);
    d << 1 ^ ((d as i64) >> 63) as u64
}

/// The value [`zigzag`] coded against `before`.
fn unzigzag(code: u64, before: u64) -> u64 {
    before.wrapping_add(code >> 1 ^ (code & 1).wrapping_neg())
}

/// Every delivery a run recorded, in the order recorded, with what its
/// `via` came to, held as one append-only byte column and read back by
/// value. A delivery is seven LEB128 varints: the zigzag delta of each of
/// its [`Deltas`] against the delivery before it (zero before the first),
/// then `via`'s low half shifted left by one with the first-copy flag in
/// bit 0, then its [`Settled`] as `links << 2 | flags`. Grown by
/// [`Recorder::record_delivery`] only.
#[derive(Default)]
pub struct Deliveries {
    bytes: Vec<u8>,
    len: usize,
    /// The last delivery's [`Deltas`]: what the next one is coded against.
    base: Deltas,
}

impl Deliveries {
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The length of the column in bytes.
    pub fn column_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// The first delivery recorded.
    pub fn first(&self) -> Option<Delivery> {
        self.iter().next()
    }

    /// Every delivery, in the order recorded, by value.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Delivery> + '_ {
        self.with_settled().map(|(d, _)| d)
    }

    /// Every delivery, in the order recorded, with what its `via` came to:
    /// the one decode of the column a reader that wants both makes.
    pub fn with_settled(&self) -> impl ExactSizeIterator<Item = (Delivery, Settled)> + '_ {
        Decode {
            bytes: &self.bytes,
            at: 0,
            base: Deltas::default(),
            left: self.len,
        }
    }

    fn push(&mut self, d: &Delivery, settled: Settled) {
        let now = deltas(d);
        for (v, before) in now.into_iter().zip(self.base) {
            put_varint(&mut self.bytes, zigzag(v, before));
        }
        self.base = now;
        put_varint(&mut self.bytes, (d.via & VIA_LOW) << 1 | u64::from(d.first));
        put_varint(
            &mut self.bytes,
            u64::from(settled.links) << 2 | u64::from(settled.flags),
        );
        self.len += 1;
    }
}

/// [`Deliveries::with_settled`]: the column decoded front to back.
struct Decode<'a> {
    bytes: &'a [u8],
    at: usize,
    base: Deltas,
    left: usize,
}

impl Iterator for Decode<'_> {
    type Item = (Delivery, Settled);

    fn next(&mut self) -> Option<(Delivery, Settled)> {
        self.left = self.left.checked_sub(1)?;
        for before in &mut self.base {
            *before = unzigzag(take_varint(self.bytes, &mut self.at), *before);
        }
        let low = take_varint(self.bytes, &mut self.at);
        let settled = take_varint(self.bytes, &mut self.at);
        let [time, pkt, host, link, via_node] = self.base;
        let d = Delivery {
            pkt,
            host: NodeId(host as u32),
            link: LinkId(link as u32),
            time: SimTime::from_nanos(time),
            first: low & 1 != 0,
            via: via_node << 32 | low >> 1,
        };
        let settled = Settled {
            links: (settled >> 2) as u8,
            flags: (settled & 3) as u8,
        };
        Some((d, settled))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Decode<'_> {}

/// What a delivery's `via` came to, settled as the delivery was recorded
/// and coded beside it in the column ([`Deliveries::with_settled`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Settled {
    links: u8,
    flags: u8,
}

impl Settled {
    const TUNNELED: u8 = 1;
    const WHOLE: u8 = 2;

    /// Was the delivering frame — the final hop — tunnelled? False when
    /// `via` named no event the journal held.
    pub fn tunneled(self) -> bool {
        self.flags & Self::TUNNELED != 0
    }

    /// Rows on the delivering chain, the delivering frame included, as far
    /// as the walk got (at most [`CHAIN_GUARD`]); 0 for a duplicate.
    pub fn path_links(self) -> u32 {
        u32::from(self.links)
    }

    /// Did the walk reach an origin — is `path_links` the whole path?
    pub fn whole(self) -> bool {
        self.flags & Self::WHOLE != 0
    }
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

/// Where a leave-delay window ends: the two instants at which the latest
/// emission onto a link is still known.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WindowEnd {
    /// At the arrival `moves[i]` recorded, on the link it arrived on.
    Arrival(usize),
    /// At this instant, not before the last thing recorded.
    EndOfRun(SimTime),
}

/// Everything recorded during one run.
#[derive(Default)]
pub struct Recorder {
    pub packets: Vec<PacketMeta>,
    pub data_events: Journal,
    pub deliveries: Deliveries,
    /// Grown by [`record_move`](Self::record_move) only.
    pub moves: Vec<MoveEvent>,
    /// The run's counter totals: every node's store folded in at run end
    /// and at a crash (`node_kit::retire`).
    pub counters: Counters,
    /// Sample series contributed online (join delays measured by receiver
    /// apps, binding round-trips, …).
    pub series: SeriesSet,
    /// Causal spans opened/closed by node glue (handoff phases, grafts,
    /// delivery gaps). Ids derive from `(node, per-node open count)`. A
    /// built network's book holds open spans only
    /// ([`SharedRecorder::drop_closed_spans`]).
    pub spans: SpanBook,
    /// Sim-time-stamped gauge timelines (table occupancy, queue depth,
    /// link inflight, token-bucket level), sampled by the scenario.
    pub timeline: TimeSeriesSet,
    /// Beside each of `moves`, the latest emission onto `to` strictly
    /// before the move.
    before_arrival: Vec<Option<SimTime>>,
}

impl Recorder {
    pub fn new_shared() -> SharedRecorder {
        SharedRecorder(Rc::new(RefCell::new(Recorder::default())))
    }

    /// Record a delivery and settle it against the journal while the chain
    /// that delivered it is still held.
    pub fn record_delivery(&mut self, d: Delivery) {
        let settled = self.data_events.settle(d.via, d.first);
        self.deliveries.push(&d, settled);
    }

    /// Record a move at `m.time`, the run's clock, and with it the latest
    /// emission onto the link arrived on, strictly before the arrival.
    ///
    /// # Panics
    /// When `m.time` is before the journal's clock.
    pub fn record_move(&mut self, m: MoveEvent) {
        self.data_events.advance(m.time);
        let latest = self.data_events.latest_before(m.to, m.time);
        self.before_arrival.push(latest);
        self.moves.push(m);
    }

    /// Where the window a departure from `link` at `after` opens ends: at the
    /// earliest later arrival there that `counts`, else when the run does.
    pub fn window_end(
        &self,
        link: LinkId,
        after: SimTime,
        end_of_run: SimTime,
        counts: impl Fn(&MoveEvent) -> bool,
    ) -> WindowEnd {
        let arrivals = self.moves.iter().enumerate();
        arrivals
            .filter(|(_, m)| m.to == link && m.time > after && counts(m))
            .min_by_key(|(_, m)| m.time)
            .map_or(WindowEnd::EndOfRun(end_of_run), |(i, _)| {
                WindowEnd::Arrival(i)
            })
    }

    /// The latest emission onto `link` strictly inside `(after, end)`.
    ///
    /// # Panics
    /// When a move was pushed onto `moves` directly, `end` names an arrival
    /// on another link, or an end of run before the last thing recorded.
    pub fn latest_emission(&self, link: LinkId, after: SimTime, end: WindowEnd) -> Option<SimTime> {
        assert_eq!(
            self.before_arrival.len(),
            self.moves.len(),
            "arrivals snapshotted vs moves held: one was not recorded through \
             Recorder::record_move"
        );
        let latest = match end {
            WindowEnd::Arrival(i) => {
                assert_eq!(self.moves[i].to, link, "moves[{i}] arrived elsewhere");
                self.before_arrival[i]
            }
            WindowEnd::EndOfRun(at) => self.data_events.latest_before(link, at),
        };
        latest.filter(|at| *at > after)
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
        self.0.borrow_mut().record_delivery(d);
    }

    pub fn record_move(&self, m: MoveEvent) {
        self.0.borrow_mut().record_move(m);
    }

    /// [`Journal::set_horizon`] on the run's journal. `builder::build`
    /// bounds it; a caller who will walk the journal after the run
    /// (`explain`) lifts it to `SimDuration::MAX` before the run starts.
    pub fn set_journal_horizon(&self, horizon: SimDuration) {
        self.0.borrow_mut().data_events.set_horizon(horizon);
    }

    /// [`SpanBook::drop_closed`] on the run's spans. `builder::build`
    /// drops them, since a run's own readers ask only for open spans; a
    /// caller that exports them (`scenario::stage`) keeps them before the
    /// run starts.
    pub fn drop_closed_spans(&self, drop: bool) {
        self.0.borrow_mut().spans.drop_closed(drop);
    }

    pub fn count(&self, name: &str, delta: u64) {
        self.0.borrow_mut().counters.add(name, delta);
    }

    pub fn sample(&self, name: &str, value: f64) {
        self.0.borrow_mut().series.record(name, value);
    }

    /// Open a causal span (see [`SpanBook::open`]); node glue opens
    /// through `node_kit::span_open`, which also mirrors it into the trace.
    pub(crate) fn span_open(
        &self,
        name: &'static str,
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
    pub fn span_annotate(&self, id: SpanId, key: &'static str, value: impl Into<FieldValue>) {
        self.0.borrow_mut().spans.annotate(id, key, value);
    }

    /// Close a span (first close wins); see `node_kit::span_close`.
    pub(crate) fn span_close(&self, id: SpanId, at: SimTime) {
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

    /// Take the recorded data out (consumes the contents), judging the rows
    /// the journal has left once, so that `loops` and `beyond_horizon` read
    /// what is stored. Causes the journal could not follow show up as a
    /// `journal.beyondHorizon` counter — present only when there were any.
    pub fn take(&self) -> Recorder {
        let mut taken = std::mem::take(&mut *self.0.borrow_mut());
        taken.data_events.judge(|_| true, 0);
        let undecided = taken.data_events.beyond_horizon();
        if undecided > 0 {
            taken.counters.add("journal.beyondHorizon", undecided);
        }
        taken
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Record an emission of packet 1 on link 0 at the journal's clock.
    fn emit(j: &mut Journal, node: u32, parent: Option<u64>) -> u64 {
        j.record(NodeId(node), 1, parent, LinkId(0), j.clock, 100, false)
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
        assert_eq!(std::mem::size_of::<Row>(), 24);
        assert_eq!(Journal::ROW_BYTES, 24);
        let mut j = Journal::default();
        assert_eq!((j.rows.capacity(), j.by_node.capacity()), (0, 0));
        for _ in 0..1000 {
            emit(&mut j, 3, None);
        }
        // Node 3's table only: 4 B per event, nothing per silent node
        // beyond the empty slots below it.
        assert_eq!(j.by_node.len(), 4);
        let table = |node: usize| &j.by_node[node].held;
        assert!(table(3).capacity() <= 1024);
        assert_eq!(table(3).len() * std::mem::size_of_val(&table(3)[0]), 4000);
        assert!((0..3).all(|node| table(node).capacity() == 0));
    }

    /// One emission per millisecond for ten seconds under a 100 ms horizon:
    /// rows and table slots follow the window, the counts follow the run.
    #[test]
    fn rows_and_table_slots_follow_the_horizon_not_the_run() {
        let mut j = Journal::default();
        j.set_horizon(SimDuration::from_millis(100));
        let mut last = None;
        for ms in 0..10_000 {
            let at = SimTime::from_millis(ms);
            last = Some(j.record(NodeId(3), 1, last, LinkId(2), at, 100, true));
        }
        // Held: the rows of 9 899 ms ..= 9 999 ms.
        assert_eq!((j.len(), j.retired(), j.rows.len()), (10_000, 9_899, 101));
        assert!(j.rows.capacity() <= 256 && j.by_node[3].held.capacity() <= 256);
        assert_eq!(j.by_node[3].held.len(), 101);
        assert_eq!(j.position(4 << 32 | 9_899), None);
        assert_eq!(j.position(4 << 32 | 9_900), Some(9_899));
        assert_eq!(j.position(last.unwrap()), Some(9_999));
        assert_eq!(j.iter().len(), 101);
        assert_eq!(j.get(9_898), None);
        // The oldest row held names a parent that has retired since.
        assert_eq!(j.parent_pos(9_899), Parent::At(9_898));
        assert_eq!(j.get(9_899).unwrap().parent, Some(0));
        let mut walk = j.chain(last.unwrap());
        assert_eq!(walk.by_ref().count(), 64);
        assert_eq!(walk.end(), ChainEnd::Guard);
        let mut walk = j.chain(4 << 32 | 9_910);
        assert_eq!(walk.by_ref().count(), 11);
        assert_eq!(walk.end(), ChainEnd::Retired);
        // Nothing was asked of a retired row while the run went.
        assert_eq!(j.beyond_horizon(), 0);
        let usage = j.link_usage();
        assert_eq!(
            (usage[2].wasted_frames, usage[2].wasted_bytes),
            (10_000, 1_000_000)
        );
    }

    /// A burst far above the floor, then a quiet stretch: once the burst
    /// has retired the ring is back at the floor, and what it still holds
    /// reads as before.
    #[test]
    fn a_retired_burst_gives_its_ring_back() {
        let mut j = Journal::default();
        j.set_horizon(SimDuration::from_millis(100));
        for _ in 0..10 * RING_FLOOR {
            emit(&mut j, 1, None);
        }
        assert!(j.capacity() >= 10 * RING_FLOOR);
        let mut last = None;
        for ms in 1..=300 {
            let at = SimTime::from_millis(ms);
            last = Some(j.record(NodeId(2), 1, last, LinkId(1), at, 100, false));
            assert!(
                j.capacity() <= 4 * j.rows.len().max(RING_FLOOR),
                "at {ms} ms"
            );
        }
        assert_eq!(j.capacity(), RING_FLOOR);
        assert_eq!((j.len(), j.rows.len()), (10 * RING_FLOOR + 300, 101));
        assert_eq!(j.position(last.unwrap()), Some(j.len() - 1));
        assert_eq!(j.chain(last.unwrap()).count(), 64);
    }

    #[test]
    #[should_panic(expected = "the journal's clock runs forward")]
    fn an_emission_before_the_clock_is_refused() {
        let mut j = Journal::default();
        j.record(
            NodeId(0),
            1,
            None,
            LinkId(0),
            SimTime::from_secs(2),
            100,
            false,
        );
        j.record(
            NodeId(0),
            1,
            None,
            LinkId(0),
            SimTime::from_secs(1),
            100,
            false,
        );
    }

    /// What the `n`-th delivery of [`reads_back`] settled to: every path
    /// length up to the guard's, every flag.
    fn settled_for(n: usize) -> Settled {
        Settled {
            links: (n * 29 % (CHAIN_GUARD + 1)) as u8,
            flags: (n % 4) as u8,
        }
    }

    /// Push `sent` and require the column to read it back exactly, by
    /// `iter`, `with_settled`, `first` and both lengths, after every
    /// delivery.
    fn reads_back(sent: &[Delivery]) {
        let show = |d: &Delivery| format!("{d:?}");
        let mut held = Deliveries::default();
        for (n, d) in sent.iter().enumerate() {
            held.push(d, settled_for(n));
            assert_eq!((held.len(), held.iter().len()), (n + 1, n + 1));
            let read: Vec<String> = held.iter().map(|d| show(&d)).collect();
            let want: Vec<String> = sent[..=n].iter().map(show).collect();
            assert_eq!(read, want, "after {} deliveries", n + 1);
            assert_eq!(held.first().map(|d| show(&d)), Some(show(&sent[0])));
            let settled: Vec<Settled> = held.with_settled().map(|(_, s)| s).collect();
            assert_eq!(settled, (0..=n).map(settled_for).collect::<Vec<_>>());
        }
    }

    /// Three deliveries that took a 32-byte row each read back as recorded
    /// and take 35 bytes of column together: 12 (`host` `u32::MAX` takes
    /// five, `via`'s node half two), 16 (the time's delta of 2⁶³ − 1 ns
    /// takes ten) and 7 (a byte a field); the last byte of each is what its
    /// `via` settled to.
    #[test]
    fn a_delivery_row_is_32_bytes_and_reads_back_as_recorded() {
        let last = SimTime::from_nanos((1 << 63) - 1);
        let sent =
            [(SimTime::ZERO, true), (last, false), (last, true)].map(|(time, first)| Delivery {
                pkt: u64::MAX - u64::from(first),
                host: NodeId(u32::MAX),
                link: LinkId(7),
                time,
                first,
                via: 1 << 40,
            });
        reads_back(&sent);
        let mut rec = Recorder::default();
        let bytes: Vec<usize> = sent
            .iter()
            .map(|d| {
                rec.record_delivery(*d);
                rec.deliveries.column_bytes()
            })
            .collect();
        assert_eq!(bytes, [12, 28, 35]);
    }

    #[test]
    fn extreme_deliveries_read_back_as_recorded() {
        let last = SimTime::from_nanos((1 << 63) - 1);
        let beyond = [1 << 63, u64::MAX].map(SimTime::from_nanos);
        let times = [(SimTime::ZERO, true), (last, false), (last, true)]
            .into_iter()
            .chain(beyond.map(|t| (t, false)))
            .chain([(SimTime::ZERO, false)]);
        let sent: Vec<Delivery> = times
            .enumerate()
            .map(|(k, (time, first))| Delivery {
                pkt: u64::MAX - u64::from(first),
                host: NodeId(u32::MAX),
                link: LinkId(if k % 2 == 0 { 7 } else { u32::MAX }),
                time,
                first,
                via: [1 << 40, u64::MAX, 0][k % 3],
            })
            .collect();
        reads_back(&sent);
        let mut empty = Recorder::default();
        assert!(empty.deliveries.is_empty() && empty.deliveries.first().is_none());
        assert_eq!(empty.deliveries.iter().len(), 0);
        empty.record_delivery(sent[1]);
        assert_eq!(empty.deliveries.first().map(|d| d.first), Some(false));
    }

    /// One value of a field up to `max`, drawn from `w`: zero, `max`, a
    /// power of two or one below it, or `w`'s other bits, a case each.
    fn pick(w: u64, max: u64) -> u64 {
        match w % 4 {
            0 => 0,
            1 => max,
            2 => (1u64 << ((w >> 2) % 64)).wrapping_sub(w >> 8 & 1) & max,
            _ => w >> 2 & max,
        }
    }

    proptest::proptest! {
        /// Arbitrary deliveries — times in any order, every field at its
        /// edges, both flags — read back exactly after every step.
        #[test]
        fn arbitrary_deliveries_read_back_exactly(
            words in proptest::collection::vec(proptest::any::<u128>(), 1..60),
        ) {
            let u32_max = u64::from(u32::MAX);
            let sent: Vec<Delivery> = words
                .iter()
                .map(|&w| (w as u64, (w >> 64) as u64))
                .map(|(a, b)| Delivery {
                    pkt: pick(a, u64::MAX),
                    host: NodeId(pick(b, u32_max) as u32),
                    link: LinkId(pick(a.rotate_left(17), u32_max) as u32),
                    time: SimTime::from_nanos(pick(b.rotate_left(29), u64::MAX)),
                    first: (a ^ b) >> 61 & 1 != 0,
                    via: pick(a.rotate_left(41) ^ b, u64::MAX),
                })
                .collect();
            reads_back(&sent);
        }
    }

    #[test]
    #[should_panic(expected = "does not fit beside the tunnelled and useful bits")]
    fn a_link_index_that_would_flip_the_tunnelled_bit_is_refused() {
        let mut j = Journal::default();
        j.record(
            NodeId(0),
            1,
            None,
            LinkId(1 << 30),
            SimTime::ZERO,
            100,
            false,
        );
    }

    /// The largest size reads back beside both flags, on a row marked
    /// useful too.
    #[test]
    fn the_largest_size_reads_back_with_its_flags() {
        let mut rec = Recorder::default();
        let j = &mut rec.data_events;
        let plain = j.record(
            NodeId(0),
            1,
            None,
            LinkId(0),
            SimTime::ZERO,
            u32::MAX,
            false,
        );
        let tunneled = j.record(NodeId(0), 1, None, LinkId(0), SimTime::ZERO, u32::MAX, true);
        rec.record_delivery(Delivery {
            pkt: 1,
            host: NodeId(1),
            link: LinkId(0),
            time: SimTime::ZERO,
            first: true,
            via: tunneled,
        });
        let j = &rec.data_events;
        let seen = |tag| j.by_tag(tag).map(|ev| (ev.size, ev.tunneled));
        assert_eq!(seen(plain), Some((u32::MAX, false)));
        assert_eq!(seen(tunneled), Some((u32::MAX, true)));
        let usage = j.link_usage()[0];
        let max = u64::from(u32::MAX);
        assert_eq!((usage.useful_bytes, usage.wasted_bytes), (max, max));
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
                    Parent::Retired => unreachable!("nothing retires from a whole journal"),
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

    /// One chain, an emission every 2 ms under a 100 ms horizon, each on a
    /// new link but every tenth, which re-enters its parent's link: `take`
    /// leaves no row unjudged, and the journal it hands back answers
    /// `loops` and `beyond_horizon` as the one it took did.
    #[test]
    fn take_judges_the_rows_left_once() {
        let rec = Recorder::new_shared();
        rec.set_journal_horizon(SimDuration::from_millis(100));
        let mut last = None;
        for k in 0..500u32 {
            let at = SimTime::from_millis(2 * u64::from(k));
            let link = LinkId(if k % 10 == 0 { k.saturating_sub(1) } else { k });
            let journal = &mut rec.0.borrow_mut().data_events;
            last = Some(journal.record(NodeId(1), 1, last, link, at, 100, false));
        }
        let answers = |j: &Journal| (j.loops(), j.beyond_horizon());
        let before = rec.with(|r| answers(&r.data_events));
        assert!(!before.0.is_empty() && before.1 > 0);
        assert!(rec.with(|r| r.data_events.judged < r.data_events.len()));
        let taken = rec.take();
        assert_eq!(taken.data_events.judged, taken.data_events.len());
        assert_eq!(answers(&taken.data_events), before);
    }
}
