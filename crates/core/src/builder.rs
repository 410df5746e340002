//! Building simulated networks: generic router/link/host assembly plus the
//! paper's reference topology (Figure 1).

use crate::addressing;
use crate::host_node::{HostConfig, HostNode, SenderApp};
use crate::netplan::{Directory, RoutingTable, SharedDirectory};
use crate::recorder::{Recorder, SharedRecorder, JOURNAL_HORIZON};
use crate::router_node::{RouterConfig, RouterIfaceInfo, RouterNode};
use mobicast_ipv6::addr::GroupAddr;
use mobicast_net::{
    FaultPlan, IfIndex, LinkFaultState, LinkGraph, LinkId, LinkParams, NodeId, ShardPlan, World,
};
use mobicast_sim::{RngFactory, SimTime, Tracer};
use std::net::Ipv6Addr;
use std::rc::Rc;

/// A MAP domain for hierarchical delivery policies: while attached to any
/// of the domain's links, a roaming host registers with the domain's MAP
/// router instead of its home agent, so intra-domain handoffs never leave
/// the region.
#[derive(Clone, Debug)]
pub struct MapDomain {
    /// Links covered by the domain (indices into the link list).
    pub links: Vec<usize>,
    /// The router (index into `routers`) acting as the domain MAP; must be
    /// attached to at least one domain link.
    pub map_router: usize,
}

/// Which links each router attaches to (indices into the link list). The
/// order defines the router's interface indices.
#[derive(Clone, Debug)]
pub struct NetworkSpec {
    pub n_links: usize,
    pub routers: Vec<Vec<usize>>,
    pub link_params: LinkParams,
    /// MAP domains for hierarchical policies (empty: every link registers
    /// with the home agent, the paper's flat Mobile IPv6).
    pub domains: Vec<MapDomain>,
}

impl NetworkSpec {
    /// The paper's Figure-1 network: six links, five routers.
    /// Links are 0-indexed here (paper's Link 1 = index 0): A on {1,2},
    /// B and C in parallel on {2,3}, D on {3,4,5}, E on {5,6}.
    pub fn reference() -> NetworkSpec {
        NetworkSpec {
            n_links: 6,
            routers: vec![
                vec![0, 1],    // Router A: Link1, Link2
                vec![1, 2],    // Router B: Link2, Link3
                vec![1, 2],    // Router C: Link2, Link3 (parallel to B)
                vec![2, 3, 4], // Router D: Link3, Link4, Link5
                vec![4, 5],    // Router E: Link5, Link6
            ],
            link_params: LinkParams::default(),
            // Hierarchical-proxy extension (Approach 5): the far side of
            // the network — Links 4-6 — forms one MAP domain anchored at
            // router D, so hosts roaming among those links re-register
            // locally instead of signalling their distant home agent.
            domains: vec![MapDomain {
                links: vec![3, 4, 5],
                map_router: 3,
            }],
        }
    }

    /// A chain of `n` links: L0 - R0 - L1 - R1 - … - L(n-1); used for the
    /// network-size sweeps of the sender-cost experiment.
    pub fn string(n_links: usize) -> NetworkSpec {
        assert!(n_links >= 2);
        NetworkSpec {
            n_links,
            routers: (0..n_links - 1).map(|i| vec![i, i + 1]).collect(),
            link_params: LinkParams::default(),
            domains: Vec::new(),
        }
    }

    /// A `w × h` grid of links — link `(x, y)` has index `y*w + x` — with a
    /// router joining every pair of horizontally or vertically adjacent
    /// links. Heavily multipath (every inner face is a cycle), so floods
    /// arrive over parallel paths and the PIM Assert election is exercised
    /// everywhere. `grid(8, 8)` yields 64 links and 112 routers — the
    /// large-topology stress shape.
    pub fn grid(w: usize, h: usize) -> NetworkSpec {
        assert!(w >= 2 && h >= 2);
        let idx = |x: usize, y: usize| y * w + x;
        let mut routers = Vec::new();
        for y in 0..h {
            for x in 0..w - 1 {
                routers.push(vec![idx(x, y), idx(x + 1, y)]);
            }
        }
        for y in 0..h - 1 {
            for x in 0..w {
                routers.push(vec![idx(x, y), idx(x, y + 1)]);
            }
        }
        NetworkSpec {
            n_links: w * h,
            routers,
            link_params: LinkParams::default(),
            domains: Vec::new(),
        }
    }

    /// A metro-scale access network sized to approximately `n_routers`
    /// routers: a square link grid (`grid(w, w)` has `2·w·(w−1)` routers),
    /// the shape used by the compact-state scale experiments.
    /// `metro(1_000)` yields a 23×23 grid (1012 routers, 529 links);
    /// `metro(10_000)` a 71×71 grid (9940 routers, 5041 links). Combine
    /// with [`BuiltNetwork::shard_plan`] to run it sharded.
    pub fn metro(n_routers: usize) -> NetworkSpec {
        assert!(n_routers >= 4, "metro needs at least a 2x2 grid");
        let w = ((1.0 + (1.0 + 2.0 * n_routers as f64).sqrt()) / 2.0).round() as usize;
        Self::grid(w.max(2), w.max(2))
    }

    /// Each router with its links, in interface order: router `i` is
    /// `NodeId(i)` and link `l` is `LinkId(l)`, as [`build`] numbers them.
    pub(crate) fn topology(&self) -> Vec<(NodeId, Vec<LinkId>)> {
        let links = |ls: &Vec<usize>| ls.iter().map(|l| LinkId(*l as u32)).collect();
        let ids = (0..).map(NodeId);
        ids.zip(self.routers.iter().map(links)).collect()
    }

    /// A complete `fanout`-ary tree of links with `depth` levels, one
    /// router per parent–child edge. Links are BFS-indexed (root = 0, the
    /// children of link `i` are `i*fanout + 1 ..= i*fanout + fanout`).
    /// Loop-free by construction; `tree(3, 5)` yields 121 links and 120
    /// routers.
    pub fn tree(fanout: usize, depth: usize) -> NetworkSpec {
        assert!(fanout >= 2 && depth >= 2);
        let mut n_links = 1usize;
        let mut level = 1usize;
        for _ in 1..depth {
            level *= fanout;
            n_links += level;
        }
        let mut routers = Vec::new();
        for parent in 0..n_links {
            for c in 0..fanout {
                let child = parent * fanout + 1 + c;
                if child >= n_links {
                    break;
                }
                routers.push(vec![parent, child]);
            }
        }
        NetworkSpec {
            n_links,
            routers,
            link_params: LinkParams::default(),
            domains: Vec::new(),
        }
    }
}

/// A host to place in the network.
#[derive(Clone, Debug)]
pub struct HostSpec {
    pub home_link: usize,
    pub cfg: HostConfig,
    pub sender: Option<SenderApp>,
    pub receiver_group: Option<GroupAddr>,
}

/// A fully assembled network ready to run.
pub struct BuiltNetwork {
    pub world: World,
    pub routers: Vec<NodeId>,
    pub hosts: Vec<NodeId>,
    pub links: Vec<LinkId>,
    /// The routing plan every router's FIB is a view of.
    pub graph: Rc<LinkGraph>,
    pub recorder: SharedRecorder,
    pub directory: SharedDirectory,
}

impl BuiltNetwork {
    /// The home agent (lowest router) on a link.
    pub fn home_agent_of(&self, link: LinkId) -> NodeId {
        self.directory.default_router[link.index()].expect("link has a router")
    }

    /// Partition the network into `n_shards` contiguous link regions for
    /// sharded execution ([`World::run`] with a sharded plan). Each node
    /// lands in the shard of its
    /// first attached link; the lookahead is the minimum link delay in the
    /// topology — a strictly conservative bound on how fast any event can
    /// cross a shard boundary, and robust against hosts roaming between
    /// regions mid-run.
    pub fn shard_plan(&self, n_shards: usize) -> ShardPlan {
        let n_shards = n_shards.clamp(1, self.links.len().max(1));
        let n_links = self.links.len().max(1);
        let shard_of_link = |l: LinkId| (l.index() * n_shards / n_links) as u32;
        let node_shard: Vec<u32> = (0..self.world.n_nodes())
            .map(|n| {
                let node = NodeId(n as u32);
                (0..self.world.n_ifaces(node))
                    .filter_map(|ifx| self.world.link_of(node, ifx as IfIndex))
                    .map(shard_of_link)
                    .next()
                    .unwrap_or(0)
            })
            .collect();
        let lookahead = self
            .links
            .iter()
            .map(|l| self.world.link_params(*l).delay)
            .min()
            .unwrap_or(mobicast_sim::SimDuration::from_millis(1));
        ShardPlan::new(node_shard, lookahead)
    }
}

/// Build one router behavior for `r` (interface info + its view of the
/// routing plan in `graph`). Also used to construct the fresh, blank-state
/// replacement stack when a fault plan restarts a crashed router.
fn router_node(
    spec: &NetworkSpec,
    links: &[LinkId],
    graph: &Rc<LinkGraph>,
    r: NodeId,
    router_cfg: RouterConfig,
    rng: &RngFactory,
    recorder: &SharedRecorder,
) -> Box<RouterNode> {
    let attached = &spec.routers[r.index()];
    let ifaces: Vec<RouterIfaceInfo> = attached
        .iter()
        .enumerate()
        .map(|(ifx, l)| RouterIfaceInfo {
            link: links[*l],
            prefix: addressing::link_prefix(links[*l]),
            ll: addressing::link_local_addr(r, ifx as IfIndex),
            global: addressing::global_addr(r, ifx as IfIndex, links[*l]),
        })
        .collect();
    Box::new(RouterNode::new(
        r,
        router_cfg,
        ifaces,
        RoutingTable::new(r, graph.clone()),
        rng,
        recorder.clone(),
    ))
}

/// Assemble a world from a network spec and host list.
pub fn build(
    spec: &NetworkSpec,
    hosts: &[HostSpec],
    router_cfg: RouterConfig,
    seed: u64,
    tracer: Tracer,
) -> BuiltNetwork {
    let rng = RngFactory::new(seed);
    let recorder = Recorder::new_shared();
    recorder.set_journal_horizon(JOURNAL_HORIZON);
    recorder.drop_closed_spans(true);
    let mut world = World::with_tracer(tracer);

    let links: Vec<LinkId> = (0..spec.n_links)
        .map(|_| world.add_link(spec.link_params))
        .collect();
    debug_assert!(links.iter().enumerate().all(|(i, l)| l.index() == i));

    // Routers occupy the lowest node ids so "lowest router id on link" is
    // well defined and stable.
    let router_ids: Vec<NodeId> = (0..spec.routers.len() as u32).map(NodeId).collect();
    let graph = Rc::new(LinkGraph::new(spec.n_links, &spec.topology()));

    // Directory: default router per link.
    let mut default_router = vec![None; spec.n_links];
    for (slot, link) in default_router.iter_mut().zip(&links) {
        *slot = graph.routers_on_link(*link).first().map(|(r, _)| *r);
    }
    // MAP agent per link: the domain MAP's global address on its first
    // interface attached to a domain link.
    let mut map_agent = vec![None; spec.n_links];
    for d in &spec.domains {
        let r = NodeId(d.map_router as u32);
        let attached = &spec.routers[d.map_router];
        let ifx = attached
            .iter()
            .position(|l| d.links.contains(l))
            .expect("MAP router attached to a domain link");
        let addr = addressing::global_addr(r, ifx as IfIndex, links[attached[ifx]]);
        for l in &d.links {
            map_agent[*l] = Some(addr);
        }
    }
    let directory: SharedDirectory = Rc::new(Directory {
        default_router,
        map_agent,
    });

    // Per-router interface info + views of the routing plan.
    for (r, attached) in router_ids.iter().zip(&spec.routers) {
        let node = router_node(spec, &links, &graph, *r, router_cfg, &rng, &recorder);
        let id = world.add_node(attached.len(), node);
        debug_assert_eq!(id, *r);
        for (ifx, l) in attached.iter().enumerate() {
            world.attach(*r, ifx as IfIndex, links[*l]);
        }
    }

    // Hosts.
    let mut host_ids = Vec::new();
    for spec_h in hosts {
        let id = NodeId(world.n_nodes() as u32);
        let home_link = links[spec_h.home_link];
        let ha_node = directory.default_router[home_link.index()].expect("home link router");
        let ha_ifx = spec.routers[ha_node.index()]
            .iter()
            .position(|l| links[*l] == home_link)
            .expect("HA attached to home link") as IfIndex;
        let ha_addr: Ipv6Addr = addressing::global_addr(ha_node, ha_ifx, home_link);
        let node = Box::new(HostNode::new(
            id,
            spec_h.cfg,
            home_link,
            ha_addr,
            spec_h.sender,
            spec_h.receiver_group,
            &rng,
            directory.clone(),
            recorder.clone(),
        ));
        let got = world.add_node(1, node);
        debug_assert_eq!(got, id);
        world.attach(id, 0, home_link);
        host_ids.push(id);
    }

    BuiltNetwork {
        world,
        routers: router_ids,
        hosts: host_ids,
        links,
        graph,
        recorder,
        directory,
    }
}

/// Schedule a [`FaultPlan`] against a built network: installs the loss and
/// jitter processes (optionally windowed), the link flaps, and the router
/// crash/restart pairs. Restarted routers come back with a freshly built
/// protocol stack — all soft state lost — wired to RNG streams labelled
/// per restart, so the whole faulty run stays deterministic in `seed`.
pub fn apply_fault_plan(
    net: &mut BuiltNetwork,
    spec: &NetworkSpec,
    router_cfg: RouterConfig,
    plan: &FaultPlan,
    seed: u64,
) {
    if plan.is_none() {
        return;
    }
    plan.validate().expect("invalid fault plan");
    let at = |secs: f64| SimTime::from_nanos((secs * 1e9) as u64);
    let rng = RngFactory::new(seed).subfactory("faults");

    if !plan.link.is_none() {
        let states: Vec<(LinkId, LinkFaultState)> = net
            .links
            .iter()
            .map(|l| {
                (
                    *l,
                    LinkFaultState::new(plan.link, rng.indexed_stream("link", u64::from(l.0))),
                )
            })
            .collect();
        match plan.window {
            None => {
                for (l, s) in states {
                    net.world.set_link_fault(l, Some(s));
                }
            }
            Some(w) => {
                let cleared: Vec<LinkId> = net.links.clone();
                net.world.at(at(w.start_secs), move |world| {
                    for (l, s) in states {
                        world.set_link_fault(l, Some(s));
                    }
                });
                net.world.at(at(w.end_secs), move |world| {
                    for l in cleared {
                        world.set_link_fault(l, None);
                    }
                });
            }
        }
    }

    for flap in &plan.flaps {
        let link = net.links[flap.link as usize];
        net.world
            .at(at(flap.down_at_secs), move |w| w.set_link_up(link, false));
        net.world
            .at(at(flap.up_at_secs), move |w| w.set_link_up(link, true));
    }

    for (k, crash) in plan.crashes.iter().enumerate() {
        let node = net.routers[crash.router as usize];
        // The crash drops the router's counter store: its counts go first.
        let recorder = net.recorder.clone();
        net.world.at(at(crash.crash_at_secs), move |w| {
            crate::node_kit::retire(w, node, &recorder);
            w.crash_node(node);
        });
        // The replacement stack is built now (its state is inert until
        // `restart_node` delivers `on_start`) and moved into the closure.
        let fresh = router_node(
            spec,
            &net.links,
            &net.graph,
            node,
            router_cfg,
            &rng.subfactory(&format!("restart.{k}")),
            &net.recorder,
        );
        net.world.at(at(crash.restart_at_secs), move |w| {
            w.restart_node(node, fresh)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netplan::{rpf_info, RouteEntry};
    use crate::route_reference::{star, Reference};
    use mobicast_pimdm::RpfLookup;
    use rand::Rng;

    /// The FIB as it was before it was indexed by link: one `RouteEntry`
    /// per reachable link, built link by link from the per-pair search.
    fn route_list(
        spec: &NetworkSpec,
        links: &[LinkId],
        reference: &Reference,
        r: NodeId,
    ) -> Vec<RouteEntry> {
        let attached = &spec.routers[r.index()];
        let mut routes = Vec::new();
        for target in links {
            let Some(route) = reference.route(r, *target) else {
                continue;
            };
            let iface = attached
                .iter()
                .position(|l| links[*l] == route.first_link)
                .expect("first link attached") as IfIndex;
            let (next_hop, next_hop_node) = match route.next_router {
                Some((n, _)) => {
                    let n_ifx = spec.routers[n.index()]
                        .iter()
                        .position(|l| links[*l] == route.first_link)
                        .expect("next router on shared link")
                        as IfIndex;
                    (Some(addressing::link_local_addr(n, n_ifx)), Some(n))
                }
                None => (None, None),
            };
            routes.push(RouteEntry {
                prefix: addressing::link_prefix(*target),
                iface,
                next_hop,
                next_hop_node,
                metric: route.link_hops,
            });
        }
        routes
    }

    /// Longest-prefix match by scanning routes in insertion order.
    fn lookup_linear(routes: &[RouteEntry], dst: Ipv6Addr) -> Option<&RouteEntry> {
        routes
            .iter()
            .filter(|r| r.prefix.contains(dst))
            .max_by_key(|r| (r.prefix.len(), std::cmp::Reverse(r.metric)))
    }

    /// Addresses a FIB is asked about on `link`: a router's global address
    /// there, a host-style one and the network address.
    fn on_link_probes(net: &BuiltNetwork, link: usize) -> [Ipv6Addr; 3] {
        let l = net.links[link];
        let (router, ifx) = net.graph.routers_on_link(l)[0];
        let host = NodeId(net.world.n_nodes() as u32 + 7);
        [
            addressing::global_addr(router, ifx, l),
            addressing::global_addr(host, 0, l),
            addressing::link_prefix(l).network(),
        ]
    }

    /// Addresses no link of `net` holds.
    fn off_plan_probes(net: &BuiltNetwork) -> [Ipv6Addr; 6] {
        let beyond = LinkId(net.links.len() as u32);
        let a = |s: &str| s.parse().unwrap();
        [
            addressing::link_local_addr(NodeId(1), 0),
            a("ff1e::1"),
            a("2001:db9::1"),
            a("::"),
            addressing::global_addr(NodeId(1), 0, beyond),
            addressing::global_addr(NodeId(1), 0, LinkId(u32::MAX)),
        ]
    }

    /// `r`'s FIB answers `lookup` and `rpf` for every probe exactly as the
    /// linear scan over its route list does; returns how many it was asked.
    fn assert_fib_matches_route_list(
        net: &BuiltNetwork,
        spec: &NetworkSpec,
        reference: &Reference,
        r: NodeId,
        probes: impl IntoIterator<Item = Ipv6Addr>,
    ) -> usize {
        let table = RoutingTable::new(r, net.graph.clone());
        let routes = route_list(spec, &net.links, reference, r);
        let mut asked = 0;
        for dst in probes {
            let want = lookup_linear(&routes, dst);
            assert_eq!(table.lookup(dst).as_ref(), want, "{r}: lookup({dst})");
            assert_eq!(table.rpf(dst), want.map(rpf_info), "{r}: rpf({dst})");
            asked += 1;
        }
        asked
    }

    /// Every router × every link (three addresses each) and six off-plan
    /// addresses, on each shape the experiments build plus a network in
    /// two pieces, which has unreachable links.
    #[test]
    fn fib_answers_as_the_route_list_scan_everywhere() {
        let split = NetworkSpec {
            n_links: 4,
            routers: vec![vec![0, 1], vec![2, 3], vec![3]],
            link_params: LinkParams::default(),
            domains: Vec::new(),
        };
        let shapes = [
            NetworkSpec::reference(),
            NetworkSpec::string(8),
            star(5),
            NetworkSpec::tree(3, 4),
            NetworkSpec::grid(10, 10),
            split,
        ];
        for spec in shapes {
            let net = build(&spec, &[], RouterConfig::default(), 1, Tracer::null());
            let reference = Reference::of_spec(&spec);
            let mut asked = 0;
            for r in &net.routers {
                let on_plan = (0..spec.n_links).flat_map(|l| on_link_probes(&net, l));
                let probes = on_plan.chain(off_plan_probes(&net));
                asked += assert_fib_matches_route_list(&net, &spec, &reference, *r, probes);
            }
            assert_eq!(asked, net.routers.len() * (3 * spec.n_links + 6));
        }
    }

    /// The 1 012-router metro grid: 10 000 seeded (router, probe) pairs.
    #[test]
    fn fib_answers_as_the_route_list_scan_on_the_metro_grid() {
        let spec = NetworkSpec::metro(1_000);
        let net = build(&spec, &[], RouterConfig::default(), 1, Tracer::null());
        let mut rng = RngFactory::new(11).stream("fib-probes");
        let mut draw = |n: usize| rng.random_range(0..n);
        let (on_plan, off_plan) = (3 * spec.n_links, off_plan_probes(&net));
        let mut pairs: Vec<(usize, Ipv6Addr)> = (0..10_000)
            .map(|_| {
                let r = draw(net.routers.len());
                let dst = match draw(on_plan + off_plan.len()) {
                    k if k < on_plan => on_link_probes(&net, k / 3)[k % 3],
                    k => off_plan[k - on_plan],
                };
                (r, dst)
            })
            .collect();
        pairs.sort_by_key(|(r, _)| *r);
        let reference = Reference::of_spec(&spec);
        let mut asked = 0;
        for chunk in pairs.chunk_by(|a, b| a.0 == b.0) {
            let r = net.routers[chunk[0].0];
            let probes = chunk.iter().map(|p| p.1);
            asked += assert_fib_matches_route_list(&net, &spec, &reference, r, probes);
        }
        assert_eq!(asked, 10_000);
    }

    #[test]
    fn reference_topology_shape() {
        let spec = NetworkSpec::reference();
        let net = build(&spec, &[], RouterConfig::default(), 1, Tracer::null());
        assert_eq!(net.links.len(), 6);
        assert_eq!(net.routers.len(), 5);
        // Home agents per the paper: A on L1, B on L2, C on L3, D on L4/L5,
        // E on L6. ("B on L2" because A also sits on L2 — the paper assigns
        // B; we use the lowest router id, which is A. The assignment is a
        // naming choice with no protocol impact; D and E match exactly.)
        assert_eq!(net.home_agent_of(net.links[3]), NodeId(3)); // D for L4
        assert_eq!(net.home_agent_of(net.links[4]), NodeId(3)); // D for L5
        assert_eq!(net.home_agent_of(net.links[5]), NodeId(4)); // E for L6
        assert_eq!(net.home_agent_of(net.links[0]), NodeId(0)); // A for L1
    }

    #[test]
    fn reference_map_domain_covers_the_far_links() {
        let spec = NetworkSpec::reference();
        let net = build(&spec, &[], RouterConfig::default(), 1, Tracer::null());
        // Router D's global address on Link 4 anchors the domain.
        let map = addressing::global_addr(NodeId(3), 1, net.links[3]);
        for l in [3usize, 4, 5] {
            assert_eq!(
                net.directory.map_agent[l],
                Some(map),
                "L{} in domain",
                l + 1
            );
        }
        for l in [0usize, 1, 2] {
            assert_eq!(net.directory.map_agent[l], None, "L{} flat", l + 1);
        }
    }

    #[test]
    fn string_topology() {
        let spec = NetworkSpec::string(4);
        let net = build(&spec, &[], RouterConfig::default(), 1, Tracer::null());
        assert_eq!(net.routers.len(), 3);
        let r = net.graph.route(NodeId(0), net.links[3]).unwrap();
        assert_eq!(r.link_hops, 3);
    }

    #[test]
    fn star_topology() {
        let spec = star(4);
        let net = build(&spec, &[], RouterConfig::default(), 1, Tracer::null());
        assert_eq!(net.links.len(), 5);
        // Any leaf to any other leaf: 3 links (leaf, hub, leaf).
        assert_eq!(
            net.graph.link_hop_distance(net.links[1], net.links[2]),
            Some(3)
        );
    }

    #[test]
    fn hosts_attach_to_home_links() {
        let spec = NetworkSpec::reference();
        let hosts = vec![HostSpec {
            home_link: 3,
            cfg: HostConfig::default(),
            sender: None,
            receiver_group: Some(GroupAddr::test_group(1)),
        }];
        let net = build(&spec, &hosts, RouterConfig::default(), 1, Tracer::null());
        assert_eq!(net.hosts.len(), 1);
        let h = net.hosts[0];
        assert_eq!(net.world.link_of(h, 0), Some(net.links[3]));
    }
}
