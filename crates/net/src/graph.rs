//! Static routing graph over routers and links.
//!
//! The unicast substrate of the simulation: shortest paths (in link hops)
//! from every router to every link, with deterministic tie-breaking (lowest
//! link id, then lowest node id). PIM-DM's RPF checks and the prefix routing
//! tables in the IPv6 stack are both derived from this graph.
//!
//! The routes are computed once, as one plan: a row per target link, filled
//! by one BFS from that link. The graph is undirected, so row `t` gives the
//! distance from every link to `t`, and each cell also names the next router
//! from its link toward `t`. A route is then one cell read per link of the
//! asking router.
//!
//! Only *routers* forward packets; hosts appear in the world but not in the
//! routing graph, so host mobility never changes unicast routes — exactly
//! the IPv6 model, where a moved host is reachable only via its new
//! (care-of) address or through its home agent.

use crate::ids::{IfIndex, LinkId, NodeId};

/// A route from a router toward a target link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Route {
    /// The directly attached link to send on first.
    pub first_link: LinkId,
    /// The asking router's ifindex on `first_link`.
    pub iface: IfIndex,
    /// The next router on the path and its ifindex on `first_link` (None
    /// when `first_link` is the target, i.e. the destination link is
    /// directly attached).
    pub next_router: Option<(NodeId, IfIndex)>,
    /// Number of links on the path, counting the target (≥ 1).
    pub link_hops: u32,
}

/// [`Cell::dist`] of a link the target cannot be reached from.
const UNREACHABLE: u16 = u16::MAX;

/// One cell of the routing plan: a link seen from one target link.
#[derive(Clone, Copy, Debug)]
struct Cell {
    /// Link hops from this link to the target (0: the target itself).
    dist: u16,
    /// Index, among the routers on this link in ascending id order, of the
    /// lowest-id router with a link one hop closer to the target. Every
    /// router asking from this link at its shortest distance gets the same
    /// answer, as it has no link that close itself. Unused at distance 0.
    next: u16,
}

/// Bipartite router/link adjacency with the all-pairs routing plan.
#[derive(Clone, Debug, Default)]
pub struct LinkGraph {
    /// Every router's links in the order given to [`LinkGraph::new`],
    /// router after router in id order: a link's first position in its
    /// router's run is the router's ifindex on it.
    ports: Vec<LinkId>,
    /// Node `n`'s links are `ports[port_start[n]..port_start[n + 1]]`
    /// (none for a node that is not a router).
    port_start: Vec<usize>,
    /// For each link (dense index), attached routers in ascending id order,
    /// each with its ifindex on the link.
    link_routers: Vec<Vec<(NodeId, IfIndex)>>,
    /// Row `t` (`n_links` cells) holds every link's cell toward link `t`.
    plan: Box<[Cell]>,
}

impl LinkGraph {
    /// Build from `(router, links-the-router-attaches)` pairs and the total
    /// number of links in the world, and compute the routing plan.
    pub fn new(n_links: usize, routers: &[(NodeId, Vec<LinkId>)]) -> Self {
        let mut by_id: Vec<_> = routers.iter().collect();
        by_id.sort_by_key(|(node, _)| *node);
        let (mut ports, mut port_start) = (Vec::new(), vec![0]);
        let mut link_routers = vec![Vec::new(); n_links];
        for (node, links) in by_id {
            port_start.resize(node.index() + 1, ports.len());
            assert_eq!(port_start.len(), node.index() + 1, "{node} listed twice");
            assert!(links.len() <= 1 << IfIndex::BITS, "{node}: ifindices fit");
            ports.extend(links);
            port_start.push(ports.len());
            for (ifx, l) in links.iter().enumerate() {
                assert!(l.index() < n_links, "link {l} out of range");
                link_routers[l.index()].push((*node, ifx as IfIndex));
            }
        }
        for routers_on_link in &mut link_routers {
            // By (router, ifindex): a link listed twice keeps its first.
            routers_on_link.sort();
            routers_on_link.dedup_by_key(|(r, _)| *r);
        }
        let mut graph = LinkGraph {
            ports,
            port_start,
            link_routers,
            plan: Box::default(),
        };
        graph.plan = graph.plan();
        graph
    }

    /// One BFS per target link over the link adjacency (through routers).
    /// A link's next router is settled when the link is popped: every link
    /// one hop closer to the target has its distance by then.
    fn plan(&self) -> Box<[Cell]> {
        let n = self.n_links();
        // Distances stay below `UNREACHABLE`: 65 535 links is a 17 GB plan.
        assert!(n < usize::from(UNREACHABLE), "a routing plan under 17 GB");
        // Per link, the other links of each of its routers in ascending
        // router id order, each with the router's index on the link.
        let mut start = Vec::with_capacity(n + 1);
        let mut reach: Vec<(u16, LinkId)> = Vec::new();
        for (l, on_link) in (0..).map(LinkId).zip(&self.link_routers) {
            start.push(reach.len());
            assert!(on_link.len() <= 1 << 16, "{l}: under 65 536 routers");
            for (i, (r, _)) in on_link.iter().enumerate() {
                let others = self.ports(*r).iter().filter(|x| **x != l);
                reach.extend(others.map(|x| (i as u16, *x)));
            }
        }
        start.push(reach.len());
        let unreached = Cell {
            dist: UNREACHABLE,
            next: 0,
        };
        let mut plan = vec![unreached; n * n].into_boxed_slice();
        let mut queue = Vec::with_capacity(n);
        for (target, row) in plan.chunks_exact_mut(n.max(1)).enumerate() {
            row[target].dist = 0;
            queue.clear();
            queue.push(target);
            let mut head = 0;
            while let Some(&l) = queue.get(head) {
                head += 1;
                let d = row[l].dist;
                let mut next = None;
                for &(i, x) in &reach[start[l]..start[l + 1]] {
                    match row[x.index()].dist {
                        UNREACHABLE => {
                            row[x.index()].dist = d + 1;
                            queue.push(x.index());
                        }
                        dx if next.is_none() && dx + 1 == d => next = Some(i),
                        _ => {}
                    }
                }
                debug_assert!(d == 0 || next.is_some(), "reached through a router");
                row[l].next = next.unwrap_or(0);
            }
        }
        plan
    }

    /// `n`'s links in interface order; none if it is not a router.
    fn ports(&self, n: NodeId) -> &[LinkId] {
        match self.port_start.get(n.index()..n.index() + 2) {
            Some(&[start, end]) => &self.ports[start..end],
            _ => &[],
        }
    }

    /// `from`'s cell toward `target`.
    fn cell(&self, from: LinkId, target: LinkId) -> Cell {
        self.plan[target.index() * self.n_links() + from.index()]
    }

    /// Routers attached to `link`, in ascending id order, each with its
    /// ifindex on the link.
    pub fn routers_on_link(&self, link: LinkId) -> &[(NodeId, IfIndex)] {
        &self.link_routers[link.index()]
    }

    /// Shortest route from router `from` toward `target` link.
    ///
    /// Tie-breaking is deterministic: among equal-cost first links the one
    /// with the lowest id wins, and among equal next routers the lowest
    /// node id wins. Returns `None` if `from` is not a router or `target`
    /// is unreachable from it.
    pub fn route(&self, from: NodeId, target: LinkId) -> Option<Route> {
        // The first minimum is the link's first mention: its ifindex.
        let (dist, first_link, iface, next) = self
            .ports(from)
            .iter()
            .enumerate()
            .map(|(ifx, l)| {
                let cell = self.cell(*l, target);
                // `new` checked that every position fits.
                (cell.dist, *l, ifx as IfIndex, cell.next)
            })
            .min_by_key(|&(dist, l, ..)| (dist, l))
            .filter(|&(dist, ..)| dist != UNREACHABLE)?;
        let next_router =
            (dist > 0).then(|| self.link_routers[first_link.index()][usize::from(next)]);
        Some(Route {
            first_link,
            iface,
            next_router,
            link_hops: u32::from(dist) + 1,
        })
    }

    /// Shortest distance in link hops between two links (1 = same link).
    pub fn link_hop_distance(&self, from: LinkId, to: LinkId) -> Option<u32> {
        let dist = self.cell(from, to).dist;
        (dist != UNREACHABLE).then(|| u32::from(dist) + 1)
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
        assert_eq!((r.first_link, r.iface), (l(1), 1));
        assert_eq!(r.next_router, Some((n(1), 0)));
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
        assert_eq!(r.next_router, Some((n(0), 0)), "lowest-id router wins ties");
        assert_eq!(r.link_hops, 2);
        let _ = g;
    }

    #[test]
    fn link_hop_distances_toward_a_target() {
        let g = string_graph();
        let d: Vec<_> = (0..4).map(|i| g.link_hop_distance(l(i), l(0))).collect();
        assert_eq!(d, [Some(1), Some(2), Some(3), Some(4)]);
    }

    #[test]
    fn ports_follow_the_given_link_order() {
        // A router listing L2 before L0, and L2 twice.
        let g = LinkGraph::new(
            3,
            &[(n(4), vec![l(2), l(0), l(2)]), (n(1), vec![l(1), l(2)])],
        );
        assert_eq!(g.routers_on_link(l(2)), &[(n(1), 1), (n(4), 0)]);
        assert_eq!(g.routers_on_link(l(0)), &[(n(4), 1)]);
        let r = g.route(n(4), l(1)).unwrap();
        assert_eq!(
            (r.first_link, r.iface, r.next_router, r.link_hops),
            (l(2), 0, Some((n(1), 1)), 2)
        );
        let r = g.route(n(4), l(0)).unwrap();
        assert_eq!((r.iface, r.next_router), (1, None));
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
        assert_eq!(g.routers_on_link(l(0)), &[(n(1), 0), (n(3), 0), (n(5), 0)]);
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
        assert_eq!(r.next_router, Some((n(1), 1)));
        assert_eq!(r.link_hops, 3);
        // E is 4 links from L0 (L4, L2, L1, L0 path through D, B, A).
        let r = g.route(n(4), l(0)).unwrap();
        assert_eq!(r.first_link, l(4));
        assert_eq!(r.next_router, Some((n(3), 2)));
        assert_eq!(r.link_hops, 4);
    }
}
