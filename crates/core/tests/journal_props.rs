//! Model-based property tests of the recorder's causal [`Journal`].
//!
//! First the journal as an address book: random interleavings of emissions
//! from up to 8 nodes, with parents drawn from every kind the journal must
//! tell apart, checked after every single emission against a plain `Vec` of
//! the rows pushed and a `BTreeMap<tag, position>` built by scanning it,
//! and the chain guard's boundary through all three readers.
//!
//! Then the journal as a window ([`retiring`]): the model keeps every row,
//! the journal retires them. Random interleavings of `record` /
//! `record_delivery` / `record_move` on a non-decreasing clock, under a
//! horizon small enough that rows retire mid-sequence and with causes named
//! from beyond it; the journal's loop findings, settled deliveries, per-link
//! usage and both leave-delay readers must equal what the whole rows give
//! whenever no walk touched a row past the horizon — and the walks that did
//! are counted, exactly. And the window gives back what a burst grew: once
//! a burst has passed the horizon the ring's room follows the rows held,
//! and the `(pkt, size)` kinds it holds follow them too.

use mobicast_core::analysis::{analyze, LinkDataUsage};
use mobicast_core::explain::explain;
use mobicast_core::oracle::{FinalizeParams, Oracle};
use mobicast_core::recorder::{
    ChainEnd, DataEvent, Delivery, Journal, LoopFinding, MoveEvent, PacketMeta, Parent, Recorder,
    WindowEnd, CHAIN_GUARD,
};
use mobicast_ipv6::addr::GroupAddr;
use mobicast_net::{LinkGraph, LinkId, NodeId};
use mobicast_sim::{SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::BTreeMap;

const NODES: u32 = 8;

/// One emission as it was handed to `record`.
#[derive(Clone, Copy, Debug)]
struct Pushed {
    node: u32,
    pkt: u64,
    parent: Option<u64>,
    link: u32,
    time: u64,
    size: u32,
    tunneled: bool,
}

impl Pushed {
    fn record(&self, journal: &mut Journal, parent: Option<u64>) -> u64 {
        journal.record(
            NodeId(self.node),
            self.pkt,
            parent,
            LinkId(self.link),
            SimTime::from_nanos(self.time),
            self.size,
            self.tunneled,
        )
    }
}

/// The tag the `count`-th (from 1) emission of `node` must carry.
fn tag(node: u32, count: u64) -> u64 {
    (u64::from(node) + 1) << 32 | count
}

/// How many of `rows` `node` emitted.
fn emitted_by(rows: &[Pushed], node: u32) -> u64 {
    rows.iter().filter(|r| r.node == node).count() as u64
}

/// The model's tags: each row's node and its rank among that node's rows.
fn tags_by_scan(rows: &[Pushed]) -> Vec<u64> {
    (0..rows.len())
        .map(|i| {
            let node = rows[i].node;
            tag(node, emitted_by(&rows[..=i], node))
        })
        .collect()
}

/// What the journal must show for `rows`, built by scanning: the event
/// view of every row and where its parent sits. A parent is looked up
/// among the rows pushed before its child.
fn model(rows: &[Pushed]) -> (Vec<DataEvent>, Vec<Parent>) {
    let tags = tags_by_scan(rows);
    let mut by_tag: BTreeMap<u64, usize> = BTreeMap::new();
    let mut events = Vec::new();
    let mut parents = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let parent = match row.parent {
            None => Parent::Origin,
            Some(tag) => by_tag
                .get(&tag)
                .map_or(Parent::Dangling, |at| Parent::At(*at)),
        };
        events.push(DataEvent {
            pkt: row.pkt,
            id: tags[i],
            parent: match parent {
                Parent::Origin => None,
                Parent::Dangling => Some(0),
                Parent::At(at) => Some(tags[at]),
                Parent::Retired => unreachable!("the scan retires nothing"),
            },
            link: LinkId(row.link),
            time: SimTime::from_nanos(row.time),
            size: row.size,
            tunneled: row.tunneled,
        });
        parents.push(parent);
        by_tag.insert(tags[i], i);
    }
    (events, parents)
}

/// The model's answer to [`Journal::chain`] from position `pos`: the rows
/// of the whole chain cut at [`CHAIN_GUARD`], and how the cut walk ended.
fn guarded_chain(pos: usize, parents: &[Parent]) -> (Vec<usize>, ChainEnd) {
    let (mut walked, end) = chain(pos, |at| parents[at]);
    let end = match end {
        _ if walked.len() > CHAIN_GUARD => ChainEnd::Guard,
        Parent::Origin => ChainEnd::Origin,
        Parent::Dangling => ChainEnd::Dangling,
        Parent::At(_) | Parent::Retired => {
            unreachable!("a whole chain of a whole journal ends at an origin or breaks")
        }
    };
    walked.truncate(CHAIN_GUARD);
    (walked, end)
}

/// [`Journal::chain`] from `tag`, drained: the rows it yielded and its end.
fn drained_chain(journal: &Journal, tag: u64) -> (Vec<(usize, DataEvent)>, ChainEnd) {
    let mut walk = journal.chain(tag);
    let rows: Vec<(usize, DataEvent)> = walk.by_ref().collect();
    assert_eq!(walk.next(), None, "a drained chain stays drained");
    (rows, walk.end())
}

/// The chain of positions from `pos` back to where it ends, and how it
/// ended, following `parent_of`.
fn chain(mut pos: usize, parent_of: impl Fn(usize) -> Parent) -> (Vec<usize>, Parent) {
    let mut walked = vec![pos];
    loop {
        match parent_of(pos) {
            Parent::At(at) => {
                assert!(at < pos, "a parent precedes its child");
                walked.push(at);
                pos = at;
            }
            end => return (walked, end),
        }
    }
}

proptest! {
    #[test]
    fn journal_matches_the_scan_built_model_after_every_emission(
        ops in proptest::collection::vec(any::<u64>(), 1..150),
    ) {
        let mut journal = Journal::default();
        let mut rows: Vec<Pushed> = Vec::new();
        let mut issued: Vec<u64> = Vec::new();
        let mut clock = 0;
        for op in ops {
            // The run's clock: it stands still, or moves on.
            clock += (op >> 20) % 3 * 1_000;
            let node = (op >> 3) as u32 % NODES;
            let pick = (op >> 16) as usize;
            let parent = match op % 5 {
                0 => None,
                1 if !issued.is_empty() => Some(issued[pick % issued.len()]),
                // No earlier tag to name yet.
                1 => None,
                2 => Some(0),
                // A node that never emits.
                3 => Some(tag(NODES + pick as u32 % 3, 1 + (op >> 40) % 4)),
                // A count not issued yet — for `skip == 0` on the emitting
                // node itself, the very tag this emission is about to get.
                _ => {
                    let of = (op >> 6) as u32 % NODES;
                    let skip = (op >> 40) % 3;
                    Some(tag(of, emitted_by(&rows, of) + 1 + skip))
                }
            };
            let row = Pushed {
                node,
                pkt: op >> 50,
                parent,
                link: (op >> 9) as u32 % 6,
                time: clock,
                size: (op >> 12) as u32,
                tunneled: op & 0x100 != 0,
            };
            let minted = row.record(&mut journal, row.parent);
            rows.push(row);
            issued.push(minted);

            let (events, parents) = model(&rows);
            prop_assert_eq!(minted, events[rows.len() - 1].id);
            prop_assert_eq!(journal.len(), rows.len());
            prop_assert!(!journal.is_empty());
            // `iter()` returns the rows pushed, in order, both ways in.
            prop_assert_eq!(journal.iter().collect::<Vec<_>>(), events.clone());
            prop_assert_eq!((&journal).into_iter().len(), rows.len());
            for (i, ev) in events.iter().enumerate() {
                // A tag is the address of its event …
                prop_assert_eq!(journal.position(ev.id), Some(i));
                prop_assert_eq!(journal.get(i), Some(*ev));
                // … which is what at-most-once asks of a delivery's `via`.
                prop_assert_eq!(journal.by_tag(ev.id).map(|e| e.tunneled), Some(rows[i].tunneled));
                // Origin and dangling are told apart, and a resolved parent
                // is the position the scan finds.
                prop_assert_eq!(journal.parent_pos(i), parents[i]);
                prop_assert_eq!(parents[i] == Parent::Origin, rows[i].parent.is_none());
                // The whole ancestry, as loop-freedom, `analyze` and
                // `explain` walk it.
                prop_assert_eq!(
                    chain(i, |pos| journal.parent_pos(pos)),
                    chain(i, |pos| parents[pos])
                );
                let (walked, end) = guarded_chain(i, &parents);
                let want: Vec<(usize, DataEvent)> =
                    walked.into_iter().map(|pos| (pos, events[pos])).collect();
                prop_assert_eq!(drained_chain(&journal, ev.id), (want, end));
            }
            // Tags nobody was given name nothing.
            prop_assert_eq!(journal.get(rows.len()), None);
            for n in 0..NODES + 3 {
                let next = emitted_by(&rows, n) + 1;
                for unissued in [0, next, next + 1, u64::from(u32::MAX)] {
                    prop_assert_eq!(journal.position(tag(n, unissued)), None);
                    prop_assert_eq!(journal.by_tag(tag(n, unissued)), None);
                    // A delivery's unknown `via`: no rows, a broken chain.
                    prop_assert_eq!(
                        drained_chain(&journal, tag(n, unissued)),
                        (vec![], ChainEnd::Dangling)
                    );
                }
            }
            prop_assert_eq!(journal.position(0), None);
            prop_assert_eq!(journal.position(u64::from(u32::MAX)), None);
        }

        // Tags depend only on per-node order: the same emissions grouped
        // node by node mint, for each node, the tags it got interleaved.
        let mut grouped: Vec<(usize, Pushed)> = rows.iter().copied().enumerate().collect();
        grouped.sort_by_key(|(_, row)| row.node);
        let mut regrouped = Journal::default();
        for (i, row) in grouped {
            // Regrouped, the rows are out of time order: all at one instant.
            let row = Pushed { time: 0, ..row };
            prop_assert_eq!(row.record(&mut regrouped, None), issued[i]);
        }
    }
}

/// A coarse time grid, so that emissions land exactly on window bounds.
fn grid(step: u64) -> SimTime {
    SimTime::from_secs(step * 10)
}

proptest! {
    /// Chains long enough to meet the guard: most emissions continue the
    /// latest chain, some start one, some name a parent nobody recorded.
    /// From every position the journal yields the model's chain cut at
    /// `CHAIN_GUARD`, and says which way it ended.
    #[test]
    fn chain_is_the_model_chain_cut_at_the_guard(
        ops in proptest::collection::vec(any::<u32>(), 1..260),
    ) {
        let mut journal = Journal::default();
        let mut rows: Vec<Pushed> = Vec::new();
        let mut last = None;
        let mut clock = 0;
        for op in ops {
            clock += u64::from(op >> 12 & 3);
            let row = Pushed {
                node: op >> 4 & 3,
                pkt: 1,
                parent: match op % 128 {
                    0 => None,
                    1 => Some(tag(NODES, 1)),
                    _ => last,
                },
                link: op >> 8 & 3,
                time: clock,
                size: 100,
                tunneled: op & 0x800 != 0,
            };
            last = Some(row.record(&mut journal, row.parent));
            rows.push(row);
        }
        let (events, parents) = model(&rows);
        for (i, ev) in events.iter().enumerate() {
            let (walked, end) = guarded_chain(i, &parents);
            prop_assert!(walked.len() <= CHAIN_GUARD);
            let want: Vec<(usize, DataEvent)> =
                walked.into_iter().map(|pos| (pos, events[pos])).collect();
            prop_assert_eq!(drained_chain(&journal, ev.id), (want, end));
        }
    }

    /// Windows — empty, inverted, touching an emission on either end,
    /// unbounded, on links that carry nothing — over emissions and arrivals
    /// recorded in time order on a coarse grid: ended by every arrival the
    /// recorder saw and by ends of run from its last instant on, against a
    /// scan of all rows per window.
    #[test]
    fn latest_emission_matches_a_scan_per_window(
        ops in proptest::collection::vec(any::<u32>(), 0..80),
    ) {
        let mut ops = ops;
        ops.sort_by_key(|op| (op >> 8) % 12);
        let mut rec = Recorder::default();
        for op in &ops {
            let (at, link) = (grid(u64::from(op >> 8) % 12), LinkId(op % 4));
            if op & 0x300_0000 == 0 {
                rec.record_move(MoveEvent {
                    host: NodeId(op >> 4 & 3),
                    time: at,
                    from: None,
                    to: link,
                    subscribed: op & 0x80 != 0,
                    sending: false,
                });
            } else {
                let journal = &mut rec.data_events;
                journal.record(NodeId(op >> 4 & 3), 1, None, link, at, 100, op & 0x80 != 0);
            }
        }
        let last = ops.last().map_or(0, |op| u64::from(op >> 8) % 12);
        for link in (0..6).map(LinkId) {
            let arrivals = rec.moves.iter().enumerate().filter(|(_, m)| m.to == link);
            let mut ends: Vec<(WindowEnd, SimTime)> = arrivals
                .map(|(i, m)| (WindowEnd::Arrival(i), m.time))
                .collect();
            let runs_end = (last..13).map(grid).chain([SimTime::MAX]);
            ends.extend(runs_end.map(|at| (WindowEnd::EndOfRun(at), at)));
            for after in (0..13).map(grid).chain([SimTime::MAX]) {
                for &(end, before) in &ends {
                    let by_scan = rec
                        .data_events
                        .iter()
                        .filter(|ev| ev.link == link && ev.time > after && ev.time < before)
                        .map(|ev| ev.time)
                        .max();
                    let got = rec.latest_emission(link, after, end);
                    prop_assert_eq!(got, by_scan, "{:?} in ({:?}, {:?})", link, after, end);
                }
            }
        }
    }

    /// `sent_in` is the filter over `packets`, `copies` the count over
    /// `deliveries`.
    #[test]
    fn sent_window_and_copy_count_match_filter_and_count(
        sent_steps in proptest::collection::vec(0u64..12, 0..40),
        delivered in proptest::collection::vec(any::<bool>(), 0..60),
    ) {
        let mut rec = Recorder::default();
        for (i, step) in sent_steps.iter().enumerate() {
            // Ids descend as send times wander: neither order is the other's.
            rec.packets.push(meta(1000 - i as u64, grid(*step)));
        }
        for first in &delivered {
            rec.record_delivery(Delivery {
                pkt: 1000,
                host: NodeId(5),
                link: LinkId(0),
                time: SimTime::ZERO,
                first: *first,
                via: 0,
            });
        }
        let firsts = delivered.iter().filter(|first| **first).count() as u64;
        prop_assert_eq!(rec.copies(), (firsts, delivered.len() as u64 - firsts));
        for from in (0..13).map(grid) {
            for until in (0..13).map(grid).chain([SimTime::MAX]) {
                let by_filter: BTreeMap<u64, SimTime> = rec
                    .packets
                    .iter()
                    .filter(|m| m.sent_at >= from && m.sent_at < until)
                    .map(|m| (m.pkt, m.sent_at))
                    .collect();
                prop_assert_eq!(rec.sent_in(from, until), by_filter);
            }
        }
    }
}

fn meta(pkt: u64, sent_at: SimTime) -> PacketMeta {
    PacketMeta {
        pkt,
        group: GroupAddr::test_group(1),
        sender: NodeId(9),
        sent_at,
        origin_link: LinkId(0),
        src_addr: "2001:db8:1::1".parse().unwrap(),
    }
}

/// The guard's boundary through all three readers. A datagram leaves
/// natively on link 0, crosses `rows - 2` tunnelled hops and re-enters
/// link 0 natively: a forwarding loop, a path of `rows` links and a
/// complete journey — as long as the walk back from the last emission
/// still reaches the origin, i.e. up to `CHAIN_GUARD` rows and not one
/// more. (The three hand-written walks this replaced drew that line at
/// 65, 64 and 64 rows.)
#[test]
fn the_chain_guard_cuts_all_three_readers_at_the_same_row() {
    // String graph L0-R0-L1-R1-L2: L0 to L1 is 2 links at best.
    let l = LinkId;
    let graph = LinkGraph::new(
        3,
        &[(NodeId(0), vec![l(0), l(1)]), (NodeId(1), vec![l(1), l(2)])],
    );
    for rows in [CHAIN_GUARD - 1, CHAIN_GUARD, CHAIN_GUARD + 1] {
        let whole = rows <= CHAIN_GUARD;
        let mut rec = Recorder::default();
        rec.packets.push(meta(1, SimTime::from_secs(20)));
        let mut emit = |parent, link, tunneled| {
            let at = SimTime::from_secs(20);
            let journal = &mut rec.data_events;
            journal.record(NodeId(0), 1, parent, l(link), at, 100, tunneled)
        };
        let mut via = emit(None, 0, false);
        for _ in 0..rows - 2 {
            via = emit(Some(via), 2, true);
        }
        let via = emit(Some(via), 0, false);
        rec.record_delivery(Delivery {
            pkt: 1,
            host: NodeId(5),
            link: l(1),
            time: SimTime::from_secs(21),
            first: true,
            via,
        });

        let verdict = Oracle::default().finalize(
            &rec,
            &FinalizeParams {
                settle: SimTime::from_secs(10),
                t_mli: SimDuration::from_secs(260),
                receivers: vec![],
                end: SimTime::from_secs(600),
                disturbance_end: None,
                reconverge_bound: SimDuration::from_secs(60),
                protected_floor: None,
                protect_window: None,
            },
        );
        assert_eq!(verdict.violation_count, u64::from(whole), "{rows} rows");

        let a = analyze(&rec, &graph, 3);
        let stretch = if whole { rows as f64 / 2.0 } else { 0.0 };
        assert_eq!(a.mean_stretch, stretch, "{rows} rows");
        // The rows the walk reached are useful; the origin it was cut
        // short of is not.
        let useful = rows.min(CHAIN_GUARD) as u64;
        assert_eq!(a.total_useful_bytes, 100 * useful, "{rows} rows");
        assert_eq!(a.total_wasted_bytes, 100 * (rows as u64 - useful));
        assert_eq!(a.link_usage[0].wasted_frames, u64::from(!whole));

        let journey = explain(&rec, 1);
        let path = &journey.paths[0];
        assert_eq!(path.complete, whole, "{rows} rows");
        assert_eq!(path.hops.len(), rows.min(CHAIN_GUARD));
        assert_eq!(path.hops.last().map(|h| h.id), Some(via));
        assert_eq!(journey.wasted.len(), rows - rows.min(CHAIN_GUARD));
    }
}

/// The model keeps everything, the journal retires.
mod retiring {
    use super::*;

    /// One step of the clock.
    const TICK: u64 = 1_000_000;
    const LINKS: u32 = 4;
    const HOSTS: usize = 3;

    /// A defect planted in the model. The journal cannot be mutated from out
    /// here and the comparison is symmetric: a model that retires a row one
    /// tick early, forgets the useful mark or lets an arrival see an
    /// emission of its own instant must be told apart from the journal by
    /// the same assertions that would tell such a journal from the model.
    #[derive(Clone, Copy, PartialEq)]
    enum Mutant {
        None,
        RetiresOneTickEarly,
        SkipsTheUsefulMark,
        SnapshotsInclusive,
    }

    /// A row as the model keeps it: what was pushed, where its cause sits
    /// among all rows ever pushed, and whether a first delivery used it.
    struct ModelRow {
        pushed: Pushed,
        parent: Option<Result<usize, ()>>,
        useful: bool,
    }

    /// What the whole rows say a delivery's `via` came to.
    #[derive(Debug, PartialEq)]
    struct ModelSettled {
        tunneled: bool,
        path_links: u32,
        whole: bool,
    }

    struct Model {
        mutant: Mutant,
        horizon: u64,
        /// Time of the latest emission or move.
        clock: u64,
        rows: Vec<ModelRow>,
        by_tag: BTreeMap<u64, usize>,
        /// Rows judged for loop-freedom so far: those more than half a
        /// horizon old when the clock last moved.
        judged: usize,
        loops: Vec<LoopFinding>,
        settled: Vec<ModelSettled>,
        /// Walks that stepped onto a row past the horizon before they ended
        /// any other way.
        beyond_horizon: u64,
    }

    impl Model {
        /// Was the row past the horizon when the clock stood at `clock`?
        fn stale(&self, pos: usize, clock: u64) -> bool {
            let age = clock - self.rows[pos].pushed.time;
            match self.mutant {
                Mutant::RetiresOneTickEarly => age + TICK > self.horizon,
                _ => age > self.horizon,
            }
        }

        /// Walk at most `guard` rows from `start` toward an origin, until
        /// `stop` says so. Returns the rows walked and how the walk ended
        /// (`None`: stopped), with no notion of retirement — and, on the
        /// side, whether a journal whose clock stood at `clock` when it last
        /// retired rows could have followed.
        fn walk(
            &self,
            start: Option<Result<usize, ()>>,
            guard: usize,
            clock: u64,
            stop: impl Fn(&ModelRow) -> bool,
        ) -> (Vec<usize>, Option<ChainEnd>, bool) {
            let mut next = start;
            let mut walked = Vec::new();
            let mut lost = false;
            let end = loop {
                let at = match next {
                    None => break Some(ChainEnd::Origin),
                    Some(Err(())) => break Some(ChainEnd::Dangling),
                    Some(Ok(_)) if walked.len() == guard => break Some(ChainEnd::Guard),
                    Some(Ok(at)) => at,
                };
                lost |= self.stale(at, clock);
                walked.push(at);
                next = self.rows[at].parent;
                if stop(&self.rows[at]) {
                    break None;
                }
            };
            (walked, end, lost)
        }

        fn cause(&self, tag: u64) -> Result<usize, ()> {
            self.by_tag.get(&tag).copied().ok_or(())
        }

        /// Loop-freedom of the rows from `judged` on that are `due`, judged
        /// by a journal that last retired rows at `clock`: the findings,
        /// the walks lost, the rows judged.
        fn judge(
            &self,
            due: impl Fn(&ModelRow) -> bool,
            clock: u64,
        ) -> (Vec<LoopFinding>, u64, usize) {
            let (mut loops, mut lost) = (Vec::new(), 0);
            let rows = self.rows[self.judged..].iter().take_while(|row| due(row));
            let judged = rows.clone().count();
            for row in rows.filter(|row| !row.pushed.tunneled) {
                let revisits =
                    |anc: &ModelRow| !anc.pushed.tunneled && anc.pushed.link == row.pushed.link;
                let (_, end, was_lost) = self.walk(row.parent, CHAIN_GUARD - 1, clock, revisits);
                if end.is_none() {
                    loops.push(LoopFinding {
                        time: SimTime::from_nanos(row.pushed.time),
                        pkt: row.pushed.pkt,
                        link: LinkId(row.pushed.link),
                    });
                }
                lost += u64::from(was_lost);
            }
            (loops, lost, judged)
        }

        /// The clock moves to `now`: rows more than half a horizon old are
        /// judged — by a journal that still holds what it held — and then
        /// rows more than a horizon old retire.
        fn advance(&mut self, now: u64) {
            let half = self.horizon / 2;
            let (loops, lost, judged) = self.judge(|row| now - row.pushed.time > half, self.clock);
            self.loops.extend(loops);
            self.beyond_horizon += lost;
            self.judged += judged;
            self.clock = now;
        }

        /// What the journal must answer if asked now: the rows not yet
        /// judged are, as they stand.
        fn loops_and_lost_now(&self) -> (Vec<LoopFinding>, u64) {
            let (tail, lost, _) = self.judge(|_| true, self.clock);
            let loops = self.loops.iter().copied().chain(tail).collect();
            (loops, self.beyond_horizon + lost)
        }

        fn record(&mut self, pushed: Pushed, tag: u64) {
            self.advance(pushed.time);
            let parent = pushed.parent.map(|tag| self.cause(tag));
            self.by_tag.insert(tag, self.rows.len());
            self.rows.push(ModelRow {
                pushed,
                parent,
                useful: false,
            });
        }

        fn deliver(&mut self, via: u64, first: bool) {
            let start = self.cause(via);
            let tunneled = start.is_ok_and(|at| self.rows[at].pushed.tunneled);
            // A duplicate's delivering frame is looked at, its path is not.
            let guard = if first { CHAIN_GUARD } else { 1 };
            let (walked, end, lost) = self.walk(Some(start), guard, self.clock, |_| false);
            self.beyond_horizon += u64::from(lost);
            if first && self.mutant != Mutant::SkipsTheUsefulMark {
                for at in &walked {
                    self.rows[*at].useful = true;
                }
            }
            self.settled.push(ModelSettled {
                tunneled,
                path_links: if first { walked.len() as u32 } else { 0 },
                whole: first && end == Some(ChainEnd::Origin),
            });
        }

        fn link_usage(&self) -> Vec<LinkDataUsage> {
            let links = self.rows.iter().map(|row| row.pushed.link + 1).max();
            let mut usage = vec![LinkDataUsage::default(); links.unwrap_or(0) as usize];
            for row in &self.rows {
                let on = &mut usage[row.pushed.link as usize];
                let size = u64::from(row.pushed.size);
                if row.useful {
                    on.useful_bytes += size;
                    on.useful_frames += 1;
                } else {
                    on.wasted_bytes += size;
                    on.wasted_frames += 1;
                }
            }
            usage
        }

        /// The latest emission onto `link` strictly inside `(after,
        /// before)`, by scanning every row ever pushed. `at_arrival`: the
        /// window is ended by a recorded arrival.
        fn latest_emission_by_scan(
            &self,
            link: LinkId,
            after: SimTime,
            before: SimTime,
            at_arrival: bool,
        ) -> Option<SimTime> {
            let inclusive = at_arrival && self.mutant == Mutant::SnapshotsInclusive;
            let times = self.rows.iter().filter(|row| row.pushed.link == link.0);
            times
                .map(|row| SimTime::from_nanos(row.pushed.time))
                .filter(|at| *at > after && (*at < before || inclusive && *at == before))
                .max()
        }

        /// `analyze`'s rule by scan: a subscribed receiver leaves a link; the
        /// window runs to the next subscribed arrival there, unbounded when
        /// nobody comes back.
        fn leave_delays(&self, moves: &[MoveEvent]) -> Vec<f64> {
            let mut delays = Vec::new();
            for mv in moves.iter().filter(|m| m.subscribed) {
                let left = mv.from.expect("every scripted move leaves a link");
                let back = moves
                    .iter()
                    .filter(|m2| m2.subscribed && m2.to == left && m2.time > mv.time)
                    .map(|m2| m2.time)
                    .min();
                let before = back.unwrap_or(SimTime::MAX);
                let last = self.latest_emission_by_scan(left, mv.time, before, back.is_some());
                delays.extend(last.map(|last| (last - mv.time).as_secs_f64()));
            }
            delays
        }

        /// The oracle's rule by scan: the last receiver leaves a link; the
        /// window runs to the next arrival of any receiver there, or to the
        /// end of the run. Returns the worst delay and how many exceed
        /// `bound_secs`.
        fn worst_leave_delay(
            &self,
            moves: &[MoveEvent],
            homes: &[(NodeId, LinkId)],
            end: SimTime,
            bound_secs: f64,
        ) -> (f64, u64) {
            let whereabouts = |host: NodeId, at: SimTime| {
                let moved = moves.iter().rev().find(|m| m.host == host && m.time <= at);
                let home = homes.iter().find(|(h, _)| *h == host).map(|(_, l)| *l);
                moved.map(|m| m.to).or(home)
            };
            let (mut worst, mut over) = (0.0f64, 0);
            for mv in moves.iter().filter(|m| m.subscribed) {
                let left = mv.from.expect("every scripted move leaves a link");
                if homes
                    .iter()
                    .any(|(h, _)| whereabouts(*h, mv.time) == Some(left))
                {
                    continue;
                }
                let back = moves
                    .iter()
                    .filter(|m2| m2.to == left && m2.time > mv.time)
                    .map(|m2| m2.time)
                    .min();
                let before = back.unwrap_or(end);
                let last = self.latest_emission_by_scan(left, mv.time, before, back.is_some());
                if let Some(last) = last {
                    let delay = (last - mv.time).as_secs_f64();
                    worst = worst.max(delay);
                    over += u64::from(delay > bound_secs);
                }
            }
            (worst, over)
        }
    }

    macro_rules! ensure_eq {
        ($got:expr, $want:expr, $($what:tt)*) => {
            let (got, want) = (&$got, &$want);
            if got != want {
                return Err(format!("{}: journal {got:?}, model {want:?}", format!($($what)*)));
            }
        };
    }

    /// Drive a recorder whose journal keeps `horizon_ticks` and the model
    /// with the script `ops` spells, and compare them after every
    /// `compare_every`-th step and the last. With `stale_causes` off every
    /// cause named is one whose whole chain the journal still holds, and
    /// nothing may be counted beyond the horizon.
    fn check(
        ops: &[u64],
        horizon_ticks: u64,
        stale_causes: bool,
        mutant: Mutant,
        compare_every: usize,
    ) -> Result<(), String> {
        let horizon = horizon_ticks * TICK;
        let mut rec = Recorder::default();
        rec.data_events
            .set_horizon(SimDuration::from_nanos(horizon));
        // Every datagram has its origin record: link 0 of the string graph
        // L0 - L1 - L2 - L3.
        for pkt in 0..4 {
            rec.packets.push(meta(pkt, SimTime::ZERO));
        }
        let l = LinkId;
        let routers: Vec<(NodeId, Vec<LinkId>)> = (0..LINKS - 1)
            .map(|r| (NodeId(r), vec![l(r), l(r + 1)]))
            .collect();
        let graph = LinkGraph::new(LINKS as usize, &routers);
        let homes: Vec<(NodeId, LinkId)> = (0..HOSTS)
            .map(|h| (NodeId(h as u32), l(h as u32 % LINKS)))
            .collect();

        let mut model = Model {
            mutant,
            horizon,
            clock: 0,
            rows: Vec::new(),
            by_tag: BTreeMap::new(),
            judged: 0,
            loops: Vec::new(),
            settled: Vec::new(),
            beyond_horizon: 0,
        };
        let mut issued: Vec<u64> = Vec::new();
        // For each row, when the oldest row of its chain was emitted.
        let mut chain_since: Vec<u64> = Vec::new();
        let mut at_link: Vec<LinkId> = homes.iter().map(|(_, l)| *l).collect();
        let mut now = 0;

        for (step, &op) in ops.iter().enumerate() {
            now += [0, 0, 0, 1, 1, 2, 3, 8][(op & 7) as usize] * TICK;
            let pick = (op >> 44) as usize;
            let kind = (op >> 3) % 10;
            // A delivery is judged at once, by the clock as it stands, and
            // may reach a horizon back; an emission brings its clock and is
            // judged before it is half a horizon old, by when what is more
            // than half a horizon older than it may have gone.
            let (judged_at, reach) = match kind {
                6..=7 => (model.clock, horizon),
                _ => (now, horizon / 2),
            };
            // A cause to name: none, one nobody recorded, one of the last
            // few recorded, or — the point of the exercise — any ever
            // recorded, however long ago.
            let cause = |issued: &[u64], chain_since: &[u64]| {
                let recent = issued.len().saturating_sub(1 + pick % 3);
                let at = match (op >> 40) % 8 {
                    0 => return None,
                    1 => return Some(0),
                    2 => return Some(tag(NODES + 1, 1 + (op >> 50) % 3)),
                    3..=5 => recent,
                    _ => pick % issued.len().max(1),
                };
                let held = |at: usize| judged_at - chain_since[at] <= reach;
                match issued.get(at) {
                    Some(tag) if stale_causes || held(at) => Some(*tag),
                    _ => None,
                }
            };
            match kind {
                0..=5 => {
                    let parent = cause(&issued, &chain_since);
                    let pushed = Pushed {
                        node: (op >> 8) as u32 % 4,
                        pkt: (op >> 32) % 4,
                        parent,
                        link: (op >> 12) as u32 % LINKS,
                        time: now,
                        size: 40 + (op >> 20) as u32 % 1000,
                        tunneled: op >> 16 & 1 == 1,
                    };
                    let minted = pushed.record(&mut rec.data_events, parent);
                    ensure_eq!(
                        minted,
                        tag(pushed.node, emitted_by_node(&model, pushed.node) + 1),
                        "tag"
                    );
                    let since = parent.and_then(|tag| model.by_tag.get(&tag));
                    chain_since.push(since.map_or(now, |at| chain_since[*at]));
                    model.record(pushed, minted);
                    issued.push(minted);
                }
                6..=7 => {
                    // A delivery does not move the journal's clock.
                    let via = cause(&issued, &chain_since).unwrap_or(0);
                    let first = op >> 16 & 1 == 1;
                    rec.record_delivery(Delivery {
                        pkt: (op >> 32) % 4,
                        host: NodeId((op >> 8) as u32 % HOSTS as u32),
                        link: l((op >> 12) as u32 % LINKS),
                        time: SimTime::from_nanos(now),
                        first,
                        via,
                    });
                    model.deliver(via, first);
                }
                _ => {
                    let host = (op >> 8) as usize % HOSTS;
                    let to = l((op >> 12) as u32 % LINKS);
                    rec.record_move(MoveEvent {
                        host: NodeId(host as u32),
                        time: SimTime::from_nanos(now),
                        from: Some(at_link[host]),
                        to,
                        subscribed: op >> 16 & 3 != 0,
                        sending: false,
                    });
                    at_link[host] = to;
                    model.advance(now);
                }
            }
            if (step + 1) % compare_every != 0 && step + 1 != ops.len() {
                continue;
            }
            // Every row held shows the tag `record` minted for it, and its
            // parent's while that is held — after every trim of the node
            // tables too, which the tags are derived from.
            let retired = rec.data_events.retired();
            for (pos, ev) in (retired..).zip(rec.data_events.iter()) {
                ensure_eq!(ev.id, issued[pos], "the tag of row {pos}");
                let parent = model.rows[pos].parent.map(|cause| match cause {
                    Ok(at) if at >= retired => issued[at],
                    _ => 0,
                });
                ensure_eq!(ev.parent, parent, "the parent tag of row {pos}");
            }
            // Rows ever recorded, and causes lost: exact, always.
            let (loops, lost) = model.loops_and_lost_now();
            ensure_eq!(rec.data_events.len(), model.rows.len(), "len()");
            ensure_eq!(rec.data_events.beyond_horizon(), lost, "beyond_horizon()");
            if !stale_causes {
                ensure_eq!(lost, 0, "a held cause counted as lost");
            }
            if lost == 0 {
                ensure_eq!(rec.data_events.loops(), loops, "loops()");
                ensure_eq!(
                    rec.data_events.link_usage(),
                    model.link_usage(),
                    "link_usage()"
                );
            }
        }
        let (_, lost) = model.loops_and_lost_now();

        if lost == 0 {
            let settled: Vec<ModelSettled> = rec
                .deliveries
                .with_settled()
                .map(|(_, s)| ModelSettled {
                    tunneled: s.tunneled(),
                    path_links: s.path_links(),
                    whole: s.whole(),
                })
                .collect();
            ensure_eq!(settled, model.settled, "with_settled()");
        }

        // Both leave-delay readers, whatever retired.
        let a = analyze(&rec, &graph, LINKS as usize);
        ensure_eq!(
            a.leave_delays,
            model.leave_delays(&rec.moves),
            "analyze's leave delays"
        );
        let end = SimTime::from_nanos(model.clock + (ops.len() as u64 % 2) * TICK);
        let t_mli = SimDuration::from_nanos(2 * TICK);
        let verdict = Oracle::default().finalize(
            &rec,
            &FinalizeParams {
                settle: end,
                t_mli,
                receivers: homes.clone(),
                end,
                disturbance_end: None,
                reconverge_bound: SimDuration::from_secs(60),
                protected_floor: None,
                protect_window: None,
            },
        );
        // LEAVE_MARGIN_SECS, the oracle's slack on T_MLI.
        let bound_secs = t_mli.as_secs_f64() + 15.0;
        let (worst, stale) = model.worst_leave_delay(&rec.moves, &homes, end, bound_secs);
        ensure_eq!(
            verdict.worst_leave_delay_secs,
            worst,
            "the oracle's worst leave delay"
        );
        let lost = u64::from(lost > 0);
        let loops = rec.data_events.loops().len() as u64;
        ensure_eq!(verdict.violation_count, loops + lost + stale, "violations");

        if lost == 0 {
            // The path sums, in delivery order as `analyze` takes them.
            let (mut stretch, mut path, mut n) = (0.0f64, 0.0f64, 0u32);
            for (d, s) in rec.deliveries.iter().zip(&model.settled) {
                let optimal = graph.link_hop_distance(l(0), d.link).filter(|o| *o > 0);
                if let (true, Some(optimal)) = (s.whole, optimal) {
                    stretch += f64::from(s.path_links) / f64::from(optimal);
                    path += f64::from(s.path_links);
                    n += 1;
                }
            }
            let mean = |sum: f64| if n > 0 { sum / f64::from(n) } else { 0.0 };
            ensure_eq!(
                (a.mean_stretch, a.mean_path_links),
                (mean(stretch), mean(path)),
                "paths"
            );
            let mut usage = model.link_usage();
            usage.resize(LINKS as usize, LinkDataUsage::default());
            ensure_eq!(a.link_usage, usage, "analyze's link usage");
        }
        Ok(())
    }

    fn emitted_by_node(model: &Model, node: u32) -> u64 {
        model
            .rows
            .iter()
            .filter(|row| row.pushed.node == node)
            .count() as u64
    }

    proptest! {
        /// Every cause named is one the journal still holds the whole chain
        /// of: nothing is counted lost, and every answer is the whole rows'.
        #[test]
        fn a_journal_that_retires_answers_as_the_rows_it_retired_would(
            ops in proptest::collection::vec(any::<u64>(), 1..150),
            horizon_ticks in 0u64..12,
        ) {
            if let Err(why) = check(&ops, horizon_ticks, false, Mutant::None, 1) {
                panic!("{why}");
            }
        }

        /// Causes named from any time in the past: a walk that comes to a
        /// retired row is counted — never matched to a newer row under the
        /// same table slot, never passed off as dangling — and until the
        /// first one every answer is still the whole rows'.
        #[test]
        fn causes_beyond_the_horizon_are_counted_exactly(
            ops in proptest::collection::vec(any::<u64>(), 1..150),
            horizon_ticks in 0u64..12,
        ) {
            if let Err(why) = check(&ops, horizon_ticks, true, Mutant::None, 1) {
                panic!("{why}");
            }
        }
    }

    /// Rows a move of the journal's clock judges before they fall due, once
    /// that many wait (`recorder::JUDGED_AHEAD`).
    const JUDGED_AHEAD: usize = 16_384;

    /// `ops` with `ops[lead..lead + burst]` turned into emissions at one
    /// instant (no clock step, kind 0) and every other step one tick on,
    /// so that some move comes between a cause retiring and the rows that
    /// reach it falling due; everything else as drawn.
    fn bursty(ops: &[u64], lead: usize, burst: usize) -> Vec<u64> {
        let at_once = |op: u64| (op - (((op >> 3) % 10) << 3)) & !7;
        let ops = ops.iter().enumerate();
        ops.map(|(i, &op)| match i >= lead && i < lead + burst {
            true => at_once(op),
            false => op & !7 | 3,
        })
        .collect()
    }

    /// A flood: more rows than a move judges ahead, at one instant, chained
    /// to causes from any time — some further back than half a horizon, so
    /// that judging ahead stops at them — then the clock moving on. Judged
    /// ahead, a batch at a time, or all together by the move they fall due
    /// in, every answer is the one judging them as they fell due gives.
    #[test]
    fn a_flood_judged_ahead_answers_as_if_judged_as_it_fell_due() {
        let mut rng = proptest::test_runner::TestRng::for_test("flood").0;
        let words =
            proptest::collection::vec(any::<u64>(), JUDGED_AHEAD + 1_200..JUDGED_AHEAD + 1_201);
        for case in 0..4u64 {
            let lead = 20 + case as usize * 7;
            let ops = bursty(&words.generate(&mut rng), lead, JUDGED_AHEAD + 1_000);
            let horizon_ticks = [1, 4, 7, 11][case as usize];
            if let Err(why) = check(&ops, horizon_ticks, true, Mutant::None, 2_003) {
                panic!("case {case}: {why}");
            }
        }
    }

    /// Rows the journal's ring keeps room for however few it holds
    /// (`recorder::RING_FLOOR`).
    const RING_FLOOR: usize = 4_096;

    proptest! {
        /// A burst recorded at one instant, up to ten times the ring's floor,
        /// then a trickle: once the burst has passed the horizon the ring
        /// has room for at most four times the rows it holds, or for four
        /// floors — and every row still held reads back as recorded.
        #[test]
        fn a_burst_past_the_horizon_gives_its_ring_back(
            burst in 0usize..40_000,
            gaps in proptest::collection::vec(0u64..6, 1..200),
            horizon_ticks in 1u64..12,
        ) {
            let horizon = horizon_ticks * TICK;
            let mut journal = Journal::default();
            journal.set_horizon(SimDuration::from_nanos(horizon));
            let pushed = |i: usize, time: u64| Pushed {
                node: i as u32 % 4,
                pkt: i as u64 % 3,
                parent: None,
                link: i as u32 % LINKS,
                time,
                size: 40 + i as u32 % 1000,
                tunneled: i.is_multiple_of(5),
            };
            for i in 0..burst {
                pushed(i, 0).record(&mut journal, None);
            }
            let mut trickle = Vec::new();
            let mut now = 0;
            for (i, gap) in gaps.into_iter().enumerate() {
                now += gap * TICK;
                let row = pushed(i, now);
                trickle.push((row.record(&mut journal, None), row));
                if now > horizon {
                    let held = journal.len() - journal.retired();
                    prop_assert!(
                        journal.capacity() <= 4 * held.max(RING_FLOOR),
                        "room for {} rows holding {} at {} ns",
                        journal.capacity(),
                        held,
                        now
                    );
                }
            }
            prop_assert_eq!(journal.len(), burst + trickle.len());
            for (tag, row) in trickle {
                if let Some(ev) = journal.by_tag(tag) {
                    prop_assert_eq!(
                        (ev.time.as_nanos(), ev.link.0, ev.size, ev.tunneled),
                        (row.time, row.link, row.size, row.tunneled)
                    );
                }
            }
        }
    }

    /// The newest kinds a row's datagram and size are looked for among
    /// (`recorder::KIND_SCAN`).
    const KIND_SCAN: usize = 4;

    proptest! {
        /// Several datagrams in flight at once, each in a size of its own
        /// and copied native and tunnelled (40 bytes larger) in runs that
        /// switch size mid-datagram: every row held reads back its datagram
        /// and size, and however long the stream runs, the kinds held are
        /// at most `KIND_SCAN` more than the rows held.
        #[test]
        fn datagrams_in_many_sizes_read_back_and_their_kinds_stay_bounded(
            ops in proptest::collection::vec(any::<u64>(), 1..400),
            horizon_ticks in 1u64..8,
        ) {
            let horizon = horizon_ticks * TICK;
            let mut journal = Journal::default();
            journal.set_horizon(SimDuration::from_nanos(horizon));
            let mut rows: Vec<Pushed> = Vec::new();
            let mut now = 0;
            for op in ops {
                now += (op & 3) * TICK / 2;
                // A datagram is sent within one tick: its copies span less
                // than a horizon.
                let pkt = now / TICK * 4 + (op >> 2) % 4;
                let size = 40 + (pkt * 37 % 1000) as u32;
                for copy in 0..1 + (op >> 4) % 4 {
                    let tunneled = op >> (8 + copy) & 1 == 1;
                    let row = Pushed {
                        node: (op >> 16) as u32 % 4,
                        pkt,
                        parent: None,
                        link: (op >> 20) as u32 % LINKS,
                        time: now,
                        size: size + if tunneled { 40 } else { 0 },
                        tunneled,
                    };
                    row.record(&mut journal, None);
                    rows.push(row);
                }
                let held = &rows[journal.retired()..];
                let read: Vec<(u64, u32, bool, u32, u64)> = journal
                    .iter()
                    .map(|ev| (ev.pkt, ev.size, ev.tunneled, ev.link.0, ev.time.as_nanos()))
                    .collect();
                let want: Vec<(u64, u32, bool, u32, u64)> = held
                    .iter()
                    .map(|r| (r.pkt, r.size, r.tunneled, r.link, r.time))
                    .collect();
                prop_assert_eq!(read, want);
                prop_assert!(
                    journal.kinds_held() <= KIND_SCAN + held.len(),
                    "{} kinds held beside {} rows at {} ns",
                    journal.kinds_held(),
                    held.len(),
                    now
                );
            }
        }
    }

    /// How many of 64 scripts tell the mutated model from the journal.
    fn scripts_that_catch(mutant: Mutant) -> usize {
        let mut rng = proptest::test_runner::TestRng::for_test("mutants").0;
        let scripts = proptest::collection::vec(any::<u64>(), 1..150);
        let caught = (0..64).filter(|case| {
            let ops = scripts.generate(&mut rng);
            check(&ops, case % 12, case % 2 == 0, mutant, 1).is_err()
        });
        caught.count()
    }

    #[test]
    fn the_unmutated_model_is_never_told_apart() {
        assert_eq!(scripts_that_catch(Mutant::None), 0);
    }

    #[test]
    fn a_row_retired_one_tick_early_is_caught() {
        assert!(scripts_that_catch(Mutant::RetiresOneTickEarly) > 0);
    }

    #[test]
    fn a_skipped_useful_mark_is_caught() {
        assert!(scripts_that_catch(Mutant::SkipsTheUsefulMark) > 0);
    }

    #[test]
    fn an_arrival_that_sees_its_own_instant_is_caught() {
        assert!(scripts_that_catch(Mutant::SnapshotsInclusive) > 0);
    }
}
