//! Model-based property test of the recorder's causal [`Journal`]: random
//! interleavings of emissions from up to 8 nodes, with parents drawn from
//! every kind the journal must tell apart, checked after every single
//! emission against a plain `Vec` of the rows pushed and a
//! `BTreeMap<tag, position>` built by scanning it.

use mobicast_core::recorder::{DataEvent, Journal, Parent};
use mobicast_net::{LinkId, NodeId};
use mobicast_sim::SimTime;
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
            }
            // Tags nobody was given name nothing.
            prop_assert_eq!(journal.get(rows.len()), None);
            for n in 0..NODES + 3 {
                let next = emitted_by(&rows, n) + 1;
                for unissued in [0, next, next + 1, u64::from(u32::MAX)] {
                    prop_assert_eq!(journal.position(tag(n, unissued)), None);
                    prop_assert_eq!(journal.by_tag(tag(n, unissued)), None);
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
