//! Static network-plan data shared by the composed nodes: routing tables,
//! the link directory, data-payload framing and frame classification.

use bytes::{BufMut, Bytes, BytesMut};
use mobicast_ipv6::addr::{self, GroupAddr, Prefix};
use mobicast_ipv6::packet::{proto, Packet};
use mobicast_ipv6::udp::UdpDatagram;
use mobicast_net::{Frame, FrameClass, IfIndex, NodeId};
use std::cmp::Reverse;
use std::net::Ipv6Addr;
use std::rc::Rc;

/// UDP port carrying the simulated multicast application stream.
pub const MCAST_UDP_PORT: u16 = 5001;

/// One route in a router's static table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RouteEntry {
    pub prefix: Prefix,
    pub iface: IfIndex,
    /// Link-local address of the next-hop router (None: directly attached).
    pub next_hop: Option<Ipv6Addr>,
    /// Node id of the next hop (for L2 addressing).
    pub next_hop_node: Option<NodeId>,
    /// Link hops to the destination link.
    pub metric: u32,
}

/// A router's unicast routing table (longest prefix match, lowest metric).
#[derive(Clone, Debug, Default)]
pub struct RoutingTable {
    /// The forwarding table, as [`RoutingTable::new`] leaves it: sorted by
    /// (prefix length descending, network ascending) with one entry per
    /// prefix. [`RoutingTable::lookup`] relies on that order.
    pub routes: Vec<RouteEntry>,
}

impl RoutingTable {
    /// Build the forwarding table from routes in any order. Of several
    /// routes for one prefix the lowest metric wins, the last inserted among
    /// equal metrics. Input already in table order (as the builder pushes
    /// it: one /64 per link, ascending) costs one pass and is kept in place.
    pub fn new(mut routes: Vec<RouteEntry>) -> Self {
        if !in_table_order(&routes) {
            // Stable sort of the reversed input: the winner of each prefix
            // comes first in its group, and `dedup` keeps the first.
            routes.reverse();
            routes.sort_by_key(|r| (table_key(r), r.metric));
            routes.dedup_by_key(|r| r.prefix);
        }
        RoutingTable { routes }
    }

    /// Longest-prefix match: for each distinct prefix length, longest
    /// first, mask `dst` once and binary-search that length's networks.
    pub fn lookup(&self, dst: Ipv6Addr) -> Option<&RouteEntry> {
        let mut rest = &self.routes[..];
        while let (Some(first), Some(last)) = (rest.first(), rest.last()) {
            let len = first.prefix.len();
            // One length throughout (a /64 per link) needs no search for
            // where the length ends.
            let run = if last.prefix.len() == len {
                rest.len()
            } else {
                rest.partition_point(|r| r.prefix.len() == len)
            };
            let (same_len, shorter) = rest.split_at(run);
            let network = u128::from(Prefix::new(dst, len).network());
            if let Ok(i) = same_len.binary_search_by_key(&network, |r| table_key(r).1) {
                return Some(&same_len[i]);
            }
            rest = shorter;
        }
        None
    }
}

/// Where a route sorts in the table: longest prefixes first, networks
/// ascending (as integers, which compare faster than `Ipv6Addr`'s
/// segment-wise ordering and agree with it).
fn table_key(r: &RouteEntry) -> (Reverse<u8>, u128) {
    (Reverse(r.prefix.len()), u128::from(r.prefix.network()))
}

/// Strictly ascending by [`table_key`], hence one entry per prefix.
fn in_table_order(routes: &[RouteEntry]) -> bool {
    routes
        .windows(2)
        .all(|w| table_key(&w[0]) < table_key(&w[1]))
}

/// The linear scan `RoutingTable` replaced, over routes in insertion order:
/// the reference its tests compare against.
#[cfg(test)]
fn lookup_linear(routes: &[RouteEntry], dst: Ipv6Addr) -> Option<&RouteEntry> {
    routes
        .iter()
        .filter(|r| r.prefix.contains(dst))
        .max_by_key(|r| (r.prefix.len(), Reverse(r.metric)))
}

/// The RPF answer a route toward the source gives.
fn rpf_info(r: &RouteEntry) -> mobicast_pimdm::RpfInfo {
    mobicast_pimdm::RpfInfo {
        iif: r.iface,
        upstream: r.next_hop,
        metric_pref: 101, // static unicast routing preference
        metric: r.metric,
    }
}

impl mobicast_pimdm::RpfLookup for RoutingTable {
    fn rpf(&self, src: Ipv6Addr) -> Option<mobicast_pimdm::RpfInfo> {
        self.lookup(src).map(rpf_info)
    }
}

/// World-wide facts every node may consult (built once per scenario).
#[derive(Debug, Default)]
pub struct Directory {
    /// Default router per link (lowest router id attached), used by hosts
    /// as the L2 next hop for off-link unicast.
    pub default_router: Vec<Option<NodeId>>,
    /// Regional (MAP-style) mobility agent per link: the address hosts
    /// roaming under a hierarchical delivery policy register with while
    /// attached to the link; `None` outside any MAP domain. Stands in for
    /// the MAP discovery a real deployment would do via Router
    /// Advertisement options.
    pub map_agent: Vec<Option<Ipv6Addr>>,
}

pub type SharedDirectory = Rc<Directory>;

/// Derive the node that owns an address under the simulation address plan
/// (the interface identifier encodes the node id).
pub fn node_of_addr(a: Ipv6Addr) -> Option<NodeId> {
    if addr::is_multicast(a) {
        return None;
    }
    let iid = (u128::from(a) & 0xffff_ffff_ffff_ffff) as u64;
    let n = iid / 0x100;
    if n == 0 {
        return None;
    }
    Some(NodeId((n - 1) as u32))
}

/// The 16-byte application payload header: packet id + send timestamp.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DataPayload {
    pub pkt: u64,
    pub sent_nanos: u64,
}

impl DataPayload {
    /// Encode, padding with zeros up to `total_len` bytes (min 16).
    pub fn encode(&self, total_len: usize) -> Bytes {
        let len = total_len.max(16);
        let mut out = BytesMut::with_capacity(len);
        out.put_u64(self.pkt);
        out.put_u64(self.sent_nanos);
        out.put_bytes(0, len - 16);
        out.freeze()
    }

    pub fn decode(buf: &[u8]) -> Option<DataPayload> {
        if buf.len() < 16 {
            return None;
        }
        Some(DataPayload {
            pkt: u64::from_be_bytes(buf[0..8].try_into().ok()?),
            sent_nanos: u64::from_be_bytes(buf[8..16].try_into().ok()?),
        })
    }
}

/// What a packet carries, after unwrapping any levels of encapsulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DataInfo {
    pub payload: DataPayload,
    pub group: GroupAddr,
    /// Source address of the innermost packet.
    pub src: Ipv6Addr,
    /// Number of tunnel levels that wrapped it.
    pub tunnel_depth: u32,
}

/// Recursively unwrap tunnels and return the application data inside, if
/// this packet carries the simulated multicast stream. Nothing is copied:
/// each level is parsed as a view of `p.payload`.
pub fn extract_data_info(p: &Packet) -> Option<DataInfo> {
    data_info_at(p, 0)
}

/// [`extract_data_info`] for a packet found under `depth` tunnel levels.
pub(crate) fn data_info_at(p: &Packet, mut depth: u32) -> Option<DataInfo> {
    let mut inner;
    let mut current = p;
    while current.payload_proto == proto::IPV6 {
        inner = mobicast_ipv6::tunnel::decapsulate(current).ok()?;
        current = &inner;
        depth += 1;
        if depth > 8 {
            return None; // malformed nesting
        }
    }
    if current.payload_proto != proto::UDP {
        return None;
    }
    let udp = UdpDatagram::decode_shared(current.src, current.dst, &current.payload).ok()?;
    if udp.dst_port != MCAST_UDP_PORT {
        return None;
    }
    let payload = DataPayload::decode(&udp.payload)?;
    let group = GroupAddr::try_new(current.dst)?;
    Some(DataInfo {
        payload,
        group,
        src: current.src,
        tunnel_depth: depth,
    })
}

/// Accounting class for a packet about to go on the wire.
pub fn classify(p: &Packet) -> FrameClass {
    match p.payload_proto {
        proto::PIM => FrameClass::PimControl,
        proto::IPV6 => FrameClass::TunnelData,
        proto::ICMPV6 => {
            // MLD message types 130-132; ND 133/134.
            match p.payload.first() {
                Some(130..=132) => FrameClass::MldControl,
                Some(133..=137) => FrameClass::MobilityControl,
                _ => FrameClass::Other,
            }
        }
        proto::UDP if p.is_multicast() => FrameClass::MulticastData,
        proto::UDP => FrameClass::UnicastData,
        proto::NONE if p.dest_options().is_some() => FrameClass::MobilityControl,
        _ => FrameClass::Other,
    }
}

/// Build a wire frame from a packet, choosing L2 destination from the IPv6
/// destination (multicast → broadcast; unicast → the owner node derived
/// from the address plan, unless an explicit `l2_to` next hop is given).
pub fn frame_for(p: &Packet, l2_to: Option<NodeId>) -> Frame {
    let class = classify(p);
    let bytes = p.encode();
    if addr::is_multicast(p.dst) {
        Frame::new(bytes, class)
    } else {
        match l2_to.or_else(|| node_of_addr(p.dst)) {
            Some(n) => Frame::unicast(bytes, class, n),
            None => Frame::new(bytes, class),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addressing;
    use mobicast_ipv6::tunnel::encapsulate;
    use mobicast_net::LinkId;

    fn a(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    fn data_packet(src: &str, group: GroupAddr, pkt: u64, size: usize) -> Packet {
        let payload = DataPayload { pkt, sent_nanos: 5 }.encode(size);
        let udp = UdpDatagram::new(4000, MCAST_UDP_PORT, payload);
        let body = udp.encode(a(src), group.addr());
        Packet::new(a(src), group.addr(), proto::UDP, body)
    }

    #[test]
    fn routing_table_longest_prefix_match() {
        let t = RoutingTable::new(vec![
            RouteEntry {
                prefix: "2001:db8::/32".parse().unwrap(),
                iface: 0,
                next_hop: Some(a("fe80::1")),
                next_hop_node: Some(NodeId(1)),
                metric: 5,
            },
            RouteEntry {
                prefix: "2001:db8:4::/64".parse().unwrap(),
                iface: 1,
                next_hop: None,
                next_hop_node: None,
                metric: 1,
            },
        ]);
        assert_eq!(t.lookup(a("2001:db8:4::9")).unwrap().iface, 1);
        assert_eq!(t.lookup(a("2001:db8:9::9")).unwrap().iface, 0);
        assert!(t.lookup(a("2002::1")).is_none());
    }

    /// Route `i` of a random set, drawn so that sets collide: few networks,
    /// every interesting prefix length, metrics that tie. `iface` numbers
    /// the insertion order, which makes the "last inserted" tie-break
    /// observable.
    fn arb_route(i: usize, w: u128) -> RouteEntry {
        const LENS: [u8; 12] = [0, 1, 16, 32, 48, 63, 64, 64, 64, 65, 127, 128];
        let len = LENS[(w >> 120) as usize % LENS.len()];
        RouteEntry {
            prefix: Prefix::new(arb_dst(w), len),
            iface: i as IfIndex,
            next_hop: (w & 0x100 != 0).then(|| a("fe80::1")),
            next_hop_node: None,
            metric: (w >> 16) as u32 % 3,
        }
    }

    /// An address in one of five /64s of two /32s, host part 0–3.
    fn arb_dst(w: u128) -> Ipv6Addr {
        let site: u16 = if w & 0x10 == 0 { 0xdb8 } else { 0xdb9 };
        Ipv6Addr::new(0x2001, site, (w >> 32) as u16 % 5, 0, 0, 0, 0, w as u16 & 3)
    }

    proptest::proptest! {
        /// Model-based: on any route set — mixed lengths /0–/128, duplicate
        /// prefixes, equal metrics, any order, empty — the sorted table
        /// answers `lookup` and `rpf` exactly as the linear scan over the
        /// routes as inserted.
        #[test]
        fn fib_agrees_with_linear_scan(
            words in proptest::collection::vec(proptest::any::<u128>(), 0..24),
            probes in proptest::collection::vec(proptest::any::<u128>(), 1..24),
        ) {
            use mobicast_pimdm::RpfLookup;
            let routes: Vec<RouteEntry> =
                words.iter().enumerate().map(|(i, w)| arb_route(i, *w)).collect();
            let table = RoutingTable::new(routes.clone());
            assert!(in_table_order(&table.routes));
            // Rebuilding from table order changes nothing.
            assert_eq!(RoutingTable::new(table.routes.clone()).routes, table.routes);
            let dsts = probes
                .iter()
                .map(|w| arb_dst(*w))
                .chain(routes.iter().map(|r| r.prefix.network()))
                .chain([a("::"), a("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff")]);
            for dst in dsts {
                let want = lookup_linear(&routes, dst);
                assert_eq!(table.lookup(dst), want, "lookup({dst}) over {routes:?}");
                assert_eq!(table.rpf(dst), want.map(rpf_info), "rpf({dst})");
            }
        }
    }

    #[test]
    fn builder_order_is_kept_in_place() {
        // One /64 per link in link order, as `builder::router_node` pushes.
        let routes: Vec<RouteEntry> = (0..600u32)
            .map(|l| RouteEntry {
                prefix: addressing::link_prefix(LinkId(l)),
                iface: (l % 3) as IfIndex,
                next_hop: None,
                next_hop_node: None,
                metric: l,
            })
            .collect();
        let table = RoutingTable::new(routes.clone());
        assert_eq!(table.routes, routes);
        for l in [0u32, 1, 299, 598, 599] {
            let dst = addressing::global_addr(NodeId(7), 0, LinkId(l));
            assert_eq!(table.lookup(dst), Some(&routes[l as usize]));
        }
        assert_eq!(
            table.lookup(addressing::global_addr(NodeId(7), 0, LinkId(600))),
            None
        );
    }

    #[test]
    fn rpf_from_routing_table() {
        use mobicast_pimdm::RpfLookup;
        let t = RoutingTable::new(vec![RouteEntry {
            prefix: "2001:db8:1::/64".parse().unwrap(),
            iface: 2,
            next_hop: Some(a("fe80::1")),
            next_hop_node: Some(NodeId(1)),
            metric: 3,
        }]);
        let info = t.rpf(a("2001:db8:1::42")).unwrap();
        assert_eq!(info.iif, 2);
        assert_eq!(info.upstream, Some(a("fe80::1")));
        assert_eq!(info.metric, 3);
    }

    #[test]
    fn node_of_addr_follows_plan() {
        let h = addressing::global_addr(NodeId(5), 0, LinkId(3));
        assert_eq!(node_of_addr(h), Some(NodeId(5)));
        let ll = addressing::link_local_addr(NodeId(2), 1);
        assert_eq!(node_of_addr(ll), Some(NodeId(2)));
        assert_eq!(node_of_addr(a("ff1e::1")), None);
    }

    #[test]
    fn data_payload_roundtrip_and_padding() {
        let p = DataPayload {
            pkt: 77,
            sent_nanos: 123,
        };
        let b = p.encode(64);
        assert_eq!(b.len(), 64);
        assert_eq!(DataPayload::decode(&b), Some(p));
        assert_eq!(DataPayload::decode(&b[..10]), None);
        // Minimum size enforced.
        assert_eq!(p.encode(4).len(), 16);
    }

    #[test]
    fn extract_data_through_tunnels() {
        let g = GroupAddr::test_group(1);
        let inner = data_packet("2001:db8:4::9", g, 42, 100);
        let info = extract_data_info(&inner).unwrap();
        assert_eq!(info.payload.pkt, 42);
        assert_eq!(info.tunnel_depth, 0);
        assert_eq!(info.group, g);

        let outer = encapsulate(a("2001:db8:6::9"), a("2001:db8:4::d"), &inner);
        let info = extract_data_info(&outer).unwrap();
        assert_eq!(info.payload.pkt, 42);
        assert_eq!(info.tunnel_depth, 1);
        assert_eq!(info.src, a("2001:db8:4::9"));
    }

    #[test]
    fn non_data_packets_extract_none() {
        let p = Packet::new(a("::1"), a("::2"), proto::NONE, Bytes::new());
        assert!(extract_data_info(&p).is_none());
        let udp = UdpDatagram::new(1, 9, Bytes::from_static(&[0; 32]));
        let body = udp.encode(a("::1"), a("::2"));
        let p = Packet::new(a("::1"), a("::2"), proto::UDP, body);
        assert!(extract_data_info(&p).is_none(), "wrong port");
    }

    #[test]
    fn classification() {
        let g = GroupAddr::test_group(1);
        let data = data_packet("2001:db8:1::9", g, 1, 64);
        assert_eq!(classify(&data), FrameClass::MulticastData);
        let tun = encapsulate(a("::1"), a("::2"), &data);
        assert_eq!(classify(&tun), FrameClass::TunnelData);
        let mld = Packet::new(
            a("fe80::1"),
            addr::ALL_NODES,
            proto::ICMPV6,
            mobicast_ipv6::Icmpv6::MldReport { group: g.addr() }.encode(a("fe80::1"), g.addr()),
        );
        assert_eq!(classify(&mld), FrameClass::MldControl);
    }

    #[test]
    fn frame_l2_addressing() {
        let g = GroupAddr::test_group(1);
        let data = data_packet("2001:db8:1::9", g, 1, 64);
        assert_eq!(frame_for(&data, None).l2, mobicast_net::L2Dest::Broadcast);
        let uni = Packet::new(
            a("::1"),
            addressing::global_addr(NodeId(3), 0, LinkId(0)),
            proto::NONE,
            Bytes::new(),
        );
        assert_eq!(
            frame_for(&uni, None).l2,
            mobicast_net::L2Dest::Node(NodeId(3))
        );
        assert_eq!(
            frame_for(&uni, Some(NodeId(9))).l2,
            mobicast_net::L2Dest::Node(NodeId(9))
        );
    }
}
