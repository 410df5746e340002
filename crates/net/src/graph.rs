//! Static routing graph over routers and links.
//!
//! The unicast substrate of the simulation: shortest paths (in link hops)
//! from every router to every link, with deterministic tie-breaking (lowest
//! link id, then lowest node id). PIM-DM's RPF checks and the prefix routing
//! tables in the IPv6 stack are both derived from this graph.
//!
//! Only *routers* forward packets; hosts appear in the world but not in the
//! routing graph, so host mobility never changes unicast routes — exactly
//! the IPv6 model, where a moved host is reachable only via its new
//! (care-of) address or through its home agent.

use crate::ids::{LinkId, NodeId};
use std::cell::OnceCell;
use std::collections::VecDeque;

/// A route from a router toward a target link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Route {
    /// The directly attached link to send on first.
    pub first_link: LinkId,
    /// The next router on the path (None when `first_link` is the target,
    /// i.e. the destination link is directly attached).
    pub next_router: Option<NodeId>,
    /// Number of links on the path, counting the target (≥ 1).
    pub link_hops: u32,
}

/// Bipartite router/link adjacency with all-pairs router→link routes.
#[derive(Clone, Debug, Default)]
pub struct LinkGraph {
    /// For each router (dense index), attached links.
    router_links: Vec<Vec<LinkId>>,
    /// For each link (dense index), attached routers.
    link_routers: Vec<Vec<NodeId>>,
    /// Maps world NodeId to dense router index.
    router_index: Vec<Option<usize>>,
    /// Memoized BFS distance vectors, one cell per target link. The
    /// adjacency is immutable after construction, so entries never
    /// invalidate; without the memo every `route`/`link_hop_distance` call
    /// re-runs a full BFS, which made world *construction*
    /// O(routers × links × E) — the wall that capped metro grids (each
    /// router's table asks for every link).
    dist_cache: Vec<OnceCell<Box<[u32]>>>,
}

impl LinkGraph {
    /// Build from `(router, links-the-router-attaches)` pairs and the total
    /// number of links in the world.
    pub fn new(n_links: usize, routers: &[(NodeId, Vec<LinkId>)]) -> Self {
        let max_node = routers
            .iter()
            .map(|(n, _)| n.index() + 1)
            .max()
            .unwrap_or(0);
        let mut router_index = vec![None; max_node];
        let mut router_links = Vec::with_capacity(routers.len());
        let mut link_routers = vec![Vec::new(); n_links];
        for (dense, (node, links)) in routers.iter().enumerate() {
            router_index[node.index()] = Some(dense);
            let mut ls = links.clone();
            ls.sort();
            ls.dedup();
            for l in &ls {
                assert!(l.index() < n_links, "link {l} out of range");
                link_routers[l.index()].push(*node);
            }
            router_links.push(ls);
        }
        for routers_on_link in &mut link_routers {
            routers_on_link.sort();
        }
        LinkGraph {
            router_links,
            link_routers,
            router_index,
            dist_cache: vec![OnceCell::new(); n_links],
        }
    }

    fn dense(&self, n: NodeId) -> Option<usize> {
        self.router_index.get(n.index()).copied().flatten()
    }

    /// Routers attached to `link`, in ascending id order.
    pub fn routers_on_link(&self, link: LinkId) -> &[NodeId] {
        &self.link_routers[link.index()]
    }

    /// Distance in link hops from every link to `target` (BFS over the
    /// link adjacency through routers). `u32::MAX` = unreachable.
    pub fn link_distances(&self, target: LinkId) -> Vec<u32> {
        let n = self.link_routers.len();
        let mut dist = vec![u32::MAX; n];
        let mut q = VecDeque::new();
        dist[target.index()] = 0;
        q.push_back(target);
        while let Some(l) = q.pop_front() {
            let d = dist[l.index()];
            for r in &self.link_routers[l.index()] {
                let Some(dense) = self.dense(*r) else {
                    continue; // unreachable: link membership implies a graph row
                };
                for nl in &self.router_links[dense] {
                    if dist[nl.index()] == u32::MAX {
                        dist[nl.index()] = d + 1;
                        q.push_back(*nl);
                    }
                }
            }
        }
        dist
    }

    /// Memoized [`Self::link_distances`]: one BFS per distinct target over
    /// the graph's lifetime.
    fn distances(&self, target: LinkId) -> &[u32] {
        self.dist_cache[target.index()].get_or_init(|| self.link_distances(target).into())
    }

    /// Shortest route from router `from` toward `target` link.
    ///
    /// Tie-breaking is deterministic: among equal-cost first links the one
    /// with the lowest id wins, and among equal next routers the lowest
    /// node id wins. Returns `None` if `from` is not a router or `target`
    /// is unreachable from it.
    pub fn route(&self, from: NodeId, target: LinkId) -> Option<Route> {
        let dense = self.dense(from)?;
        let dist = self.distances(target);
        let mut best: Option<(u32, LinkId)> = None;
        for l in &self.router_links[dense] {
            let d = dist[l.index()];
            if d == u32::MAX {
                continue;
            }
            match best {
                Some((bd, bl)) if (d, *l) >= (bd, bl) => {}
                _ => best = Some((d, *l)),
            }
        }
        let (d, first_link) = best?;
        if d == 0 {
            return Some(Route {
                first_link,
                next_router: None,
                link_hops: 1,
            });
        }
        // The next router is the lowest-id router on `first_link` (other
        // than `from`) that is one hop closer to the target.
        let next_router = self.link_routers[first_link.index()]
            .iter()
            .filter(|r| **r != from)
            .find(|r| {
                self.dense(**r).is_some_and(|rd| {
                    self.router_links[rd]
                        .iter()
                        .any(|l| dist[l.index()] == d - 1)
                })
            })
            .copied();
        next_router.map(|next| Route {
            first_link,
            next_router: Some(next),
            link_hops: d + 1,
        })
    }

    /// Shortest distance in link hops between two links (1 = same link).
    pub fn link_hop_distance(&self, from: LinkId, to: LinkId) -> Option<u32> {
        let dist = self.distances(to);
        let d = dist[from.index()];
        (d != u32::MAX).then_some(d + 1)
    }

    /// Number of links in the graph.
    pub fn n_links(&self) -> usize {
        self.link_routers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }
    fn l(i: u32) -> LinkId {
        LinkId(i)
    }

    /// A string topology: L0 - R0 - L1 - R1 - L2 - R2 - L3.
    fn string_graph() -> LinkGraph {
        LinkGraph::new(
            4,
            &[
                (n(0), vec![l(0), l(1)]),
                (n(1), vec![l(1), l(2)]),
                (n(2), vec![l(2), l(3)]),
            ],
        )
    }

    #[test]
    fn directly_attached_link() {
        let g = string_graph();
        let r = g.route(n(0), l(0)).unwrap();
        assert_eq!(r.first_link, l(0));
        assert_eq!(r.next_router, None);
        assert_eq!(r.link_hops, 1);
    }

    #[test]
    fn multi_hop_route() {
        let g = string_graph();
        let r = g.route(n(0), l(3)).unwrap();
        assert_eq!(r.first_link, l(1));
        assert_eq!(r.next_router, Some(n(1)));
        assert_eq!(r.link_hops, 3);
    }

    #[test]
    fn unreachable_and_non_router() {
        let g = LinkGraph::new(3, &[(n(0), vec![l(0)]), (n(1), vec![l(1), l(2)])]);
        assert!(g.route(n(0), l(1)).is_none(), "disconnected");
        assert!(g.route(n(7), l(0)).is_none(), "not a router");
    }

    #[test]
    fn parallel_routers_tie_break_to_lowest_id() {
        // L0 - {R0, R1} - L1 : both routers connect the same two links.
        let g = LinkGraph::new(2, &[(n(0), vec![l(0), l(1)]), (n(1), vec![l(0), l(1)])]);
        // From a third router attached only to L0 we should pick R0.
        let g2 = LinkGraph::new(
            2,
            &[
                (n(0), vec![l(0), l(1)]),
                (n(1), vec![l(0), l(1)]),
                (n(2), vec![l(0)]),
            ],
        );
        let r = g2.route(n(2), l(1)).unwrap();
        assert_eq!(r.next_router, Some(n(0)), "lowest-id router wins ties");
        assert_eq!(r.link_hops, 2);
        let _ = g;
    }

    #[test]
    fn link_distances_from_target() {
        let g = string_graph();
        let d = g.link_distances(l(0));
        assert_eq!(d, vec![0, 1, 2, 3]);
    }

    #[test]
    fn link_hop_distance_counts_target() {
        let g = string_graph();
        assert_eq!(g.link_hop_distance(l(0), l(0)), Some(1));
        assert_eq!(g.link_hop_distance(l(0), l(3)), Some(4));
    }

    #[test]
    fn routers_on_link_sorted() {
        let g = LinkGraph::new(
            1,
            &[(n(5), vec![l(0)]), (n(1), vec![l(0)]), (n(3), vec![l(0)])],
        );
        assert_eq!(g.routers_on_link(l(0)), &[n(1), n(3), n(5)]);
    }

    #[test]
    fn reference_shape_route_through_lan() {
        // Models the paper's Fig. 1 core: A on {L1,L2}, B and C on {L2,L3},
        // D on {L3,L4,L5}, E on {L5,L6}. (0-indexed here: links 0..6.)
        let g = LinkGraph::new(
            6,
            &[
                (n(0), vec![l(0), l(1)]),       // A
                (n(1), vec![l(1), l(2)]),       // B
                (n(2), vec![l(1), l(2)]),       // C
                (n(3), vec![l(2), l(3), l(4)]), // D
                (n(4), vec![l(4), l(5)]),       // E
            ],
        );
        // D's route toward the sender link L0 goes via L2 and router B
        // (lowest id of the parallel pair B/C).
        let r = g.route(n(3), l(0)).unwrap();
        assert_eq!(r.first_link, l(2));
        assert_eq!(r.next_router, Some(n(1)));
        assert_eq!(r.link_hops, 3);
        // E is 4 links from L0 (L4, L2, L1, L0 path through D, B, A).
        let r = g.route(n(4), l(0)).unwrap();
        assert_eq!(r.first_link, l(4));
        assert_eq!(r.next_router, Some(n(3)));
        assert_eq!(r.link_hops, 4);
    }
}
