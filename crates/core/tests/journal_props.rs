//! Model-based property test of the recorder's causal [`Journal`]: random
//! interleavings of emissions from up to 8 nodes, with parents drawn from
//! every kind the journal must tell apart, checked after every single
//! emission against a plain `Vec` of the rows pushed and a
//! `BTreeMap<tag, position>` built by scanning it — then the questions the
//! post-run readers ask ([`Journal::chain`], [`Journal::latest_emissions`],
//! [`Recorder::sent_in`], [`Recorder::copies`]) against the same kind of
//! scan, and the chain guard's boundary through all three readers.

use mobicast_core::analysis::analyze;
use mobicast_core::explain::explain;
use mobicast_core::oracle::{FinalizeParams, Oracle};
use mobicast_core::recorder::{
    ChainEnd, DataEvent, Delivery, Journal, PacketMeta, Parent, Recorder, CHAIN_GUARD,
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
        Parent::At(_) => unreachable!("a whole chain ends at an origin or breaks"),
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
        for op in ops {
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
                time: op >> 20,
                size: (op >> 12) as u32 & 0x7fff_ffff,
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
        for op in ops {
            let row = Pushed {
                node: op >> 4 & 3,
                pkt: 1,
                parent: match op % 128 {
                    0 => None,
                    1 => Some(tag(NODES, 1)),
                    _ => last,
                },
                link: op >> 8 & 3,
                time: u64::from(op >> 12),
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

    /// One batch of windows — empty, inverted, touching an emission on
    /// either end, unbounded, on links that carry nothing — over a journal
    /// recorded out of time order, against a scan of all rows per window.
    #[test]
    fn latest_emissions_match_a_scan_per_window(
        ops in proptest::collection::vec(any::<u32>(), 0..80),
    ) {
        let mut journal = Journal::default();
        for op in &ops {
            journal.record(
                NodeId(op >> 4 & 3), 1, None, LinkId(op % 4), grid(u64::from(op >> 8) % 12), 100,
                op & 0x80 != 0,
            );
        }
        let bounds = || (0..13).map(grid).chain([SimTime::MAX]);
        let mut windows = Vec::new();
        for link in (0..6).map(LinkId) {
            for after in bounds() {
                windows.extend(bounds().map(|before| (link, after, before)));
            }
        }
        let latest = journal.latest_emissions(&windows);
        prop_assert_eq!(latest.len(), windows.len());
        for (&(link, after, before), got) in windows.iter().zip(latest) {
            let by_scan = journal
                .iter()
                .filter(|ev| ev.link == link && ev.time > after && ev.time < before)
                .map(|ev| ev.time)
                .max();
            prop_assert_eq!(got, by_scan, "{:?} in ({:?}, {:?})", link, after, before);
        }
        prop_assert_eq!(journal.latest_emissions(&[]), vec![]);
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
            rec.deliveries.push(Delivery {
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
        rec.deliveries.push(Delivery {
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
