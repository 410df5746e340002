//! The unicast routes as they were searched before the routing plan: a
//! memoized BFS per target link and, per (router, link) pair, the lowest
//! first link and the lowest-id next router one hop closer, with each
//! router's ifindex read off its link list by position. It is built
//! from the topology as given, not from a [`LinkGraph`], and is the
//! reference that the plan's `route` and `link_hop_distance` are checked
//! against here, and that `builder`'s FIB differential reads.

use crate::builder::NetworkSpec;
use mobicast_net::{IfIndex, LinkGraph, LinkId, LinkParams, NodeId, Route};
use proptest::prelude::*;
use std::cell::OnceCell;
use std::collections::{BTreeMap, VecDeque};

/// Per-pair route search over a router/link topology.
pub(crate) struct Reference {
    /// Each router's links as given: a link's first position is its ifindex.
    given: BTreeMap<NodeId, Vec<LinkId>>,
    /// Each router's links, sorted and deduplicated.
    router_links: BTreeMap<NodeId, Vec<LinkId>>,
    /// Each link's routers, in ascending id order.
    link_routers: Vec<Vec<NodeId>>,
    /// Distances from every link to each target, computed on first use.
    dist_cache: Vec<OnceCell<Vec<u32>>>,
}

impl Reference {
    pub(crate) fn new(n_links: usize, routers: &[(NodeId, Vec<LinkId>)]) -> Self {
        let mut router_links = BTreeMap::new();
        let mut link_routers = vec![Vec::new(); n_links];
        for (node, links) in routers {
            let mut ls = links.clone();
            ls.sort();
            ls.dedup();
            for l in &ls {
                link_routers[l.index()].push(*node);
            }
            router_links.insert(*node, ls);
        }
        for on_link in &mut link_routers {
            on_link.sort();
        }
        Reference {
            given: routers.iter().cloned().collect(),
            router_links,
            link_routers,
            dist_cache: vec![OnceCell::new(); n_links],
        }
    }

    pub(crate) fn of_spec(spec: &NetworkSpec) -> Self {
        Self::new(spec.n_links, &spec.topology())
    }

    /// Distance in link hops from every link to `target`; `u32::MAX` =
    /// unreachable.
    fn distances(&self, target: LinkId) -> &[u32] {
        self.dist_cache[target.index()].get_or_init(|| {
            let mut dist = vec![u32::MAX; self.link_routers.len()];
            let mut q = VecDeque::from([target]);
            dist[target.index()] = 0;
            while let Some(l) = q.pop_front() {
                let d = dist[l.index()];
                for r in &self.link_routers[l.index()] {
                    for nl in &self.router_links[r] {
                        if dist[nl.index()] == u32::MAX {
                            dist[nl.index()] = d + 1;
                            q.push_back(*nl);
                        }
                    }
                }
            }
            dist
        })
    }

    /// The shortest route from `from` toward `target`: the lowest-id first
    /// link among the closest, then the lowest-id router on it (other than
    /// `from`) with a link one hop closer.
    pub(crate) fn route(&self, from: NodeId, target: LinkId) -> Option<Route> {
        let links = self.router_links.get(&from)?;
        let dist = self.distances(target);
        let (d, first_link) = links
            .iter()
            .map(|l| (dist[l.index()], *l))
            .filter(|(d, _)| *d != u32::MAX)
            .min()?;
        let ifindex = |r: &NodeId| {
            let at = self.given[r].iter().position(|l| *l == first_link);
            at.expect("a router on its link") as IfIndex
        };
        if d == 0 {
            return Some(Route {
                first_link,
                iface: ifindex(&from),
                next_router: None,
                link_hops: 1,
            });
        }
        let next = self.link_routers[first_link.index()]
            .iter()
            .filter(|r| **r != from)
            .find(|r| {
                self.router_links[*r]
                    .iter()
                    .any(|l| dist[l.index()] == d - 1)
            })?;
        Some(Route {
            first_link,
            iface: ifindex(&from),
            next_router: Some((*next, ifindex(next))),
            link_hops: d + 1,
        })
    }

    pub(crate) fn link_hop_distance(&self, from: LinkId, to: LinkId) -> Option<u32> {
        let d = self.distances(to)[from.index()];
        (d != u32::MAX).then(|| d + 1)
    }
}

/// The plan answers `route` for every (router, link) pair and
/// `link_hop_distance` for every pair of links as the reference does, and
/// names the same routers on each link; returns the pairs compared.
fn assert_plan_matches_reference(n_links: usize, routers: &[(NodeId, Vec<LinkId>)]) -> usize {
    let graph = LinkGraph::new(n_links, routers);
    let reference = Reference::new(n_links, routers);
    let links = || (0..n_links as u32).map(LinkId);
    let mut compared = 0;
    for target in links() {
        let on_link = graph.routers_on_link(target).iter().map(|(r, _)| r);
        assert!(
            on_link.eq(&reference.link_routers[target.index()]),
            "routers on {target}"
        );
        for (r, _) in routers {
            let want = reference.route(*r, target);
            assert_eq!(graph.route(*r, target), want, "route {r} → {target}");
            compared += 1;
        }
        for from in links() {
            let want = reference.link_hop_distance(from, target);
            assert_eq!(
                graph.link_hop_distance(from, target),
                want,
                "{from} → {target}"
            );
            compared += 1;
        }
    }
    compared
}

/// A star: one hub link and `n_leaves` leaf links, each leaf behind its
/// own router.
pub(crate) fn star(n_leaves: usize) -> NetworkSpec {
    NetworkSpec {
        n_links: n_leaves + 1,
        routers: (0..n_leaves).map(|i| vec![0, i + 1]).collect(),
        link_params: LinkParams::default(),
        domains: Vec::new(),
    }
}

/// Every shape the experiments build, a network in two pieces, and a
/// hub link with 300 routers on it, so a next router's index on its
/// link passes 255.
#[test]
fn the_plan_routes_as_the_per_pair_search_on_fixed_shapes() {
    let split = NetworkSpec {
        n_links: 4,
        routers: vec![vec![0, 1], vec![2, 3], vec![3]],
        link_params: LinkParams::default(),
        domains: Vec::new(),
    };
    let shapes = [
        NetworkSpec::metro(1_000),
        NetworkSpec::grid(10, 10),
        NetworkSpec::tree(3, 4),
        NetworkSpec::reference(),
        split,
        star(300),
    ];
    for spec in shapes {
        let compared = assert_plan_matches_reference(spec.n_links, &spec.topology());
        assert_eq!(compared, spec.n_links * (spec.routers.len() + spec.n_links));
    }
    let graph = LinkGraph::new(301, &star(300).topology());
    let far = graph.route(NodeId(0), LinkId(300)).unwrap();
    assert_eq!(far.next_router, Some((NodeId(299), 0)));
}

proptest! {
    /// Random topologies of up to 10 links and 8 routers with sparse
    /// ids, where a router may list a link twice and parts may be
    /// disconnected.
    #[test]
    fn the_plan_routes_as_the_per_pair_search_on_random_topologies(
        n_links in 1usize..11,
        draws in proptest::collection::vec(any::<u64>(), 0..9),
    ) {
        let routers: Vec<(NodeId, Vec<LinkId>)> = draws
            .iter()
            .enumerate()
            .map(|(i, draw)| {
                let id = NodeId(3 * i as u32 + (draw % 3) as u32);
                let degree = 1 + (draw >> 2) % 4;
                let links = (0..degree)
                    .map(|k| LinkId(((draw >> (8 + 8 * k)) % n_links as u64) as u32))
                    .collect();
                (id, links)
            })
            .collect();
        assert_plan_matches_reference(n_links, &routers);
    }
}
