//! Static network-plan data shared by the composed nodes: routing tables,
//! the link directory, data-payload framing and frame classification.

use crate::addressing;
use crate::parsed::parsed;
use bytes::{BufMut, Bytes, BytesMut};
use mobicast_ipv6::addr::{self, GroupAddr, Prefix};
use mobicast_ipv6::packet::{proto, Packet};
use mobicast_ipv6::udp::UdpDatagram;
use mobicast_net::{Frame, FrameClass, IfIndex, L2Dest, LinkGraph, NodeId};
use std::net::Ipv6Addr;
use std::rc::Rc;

/// UDP port carrying the simulated multicast application stream.
pub const MCAST_UDP_PORT: u16 = 5001;

/// One route of a router's table, as [`RoutingTable::lookup`] answers it.
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

/// A router's unicast routing table: a view of the network's routing plan
/// from one router. Every route is one link's /64, so
/// [`RoutingTable::lookup`] reads the link off the address
/// ([`addressing::link_of`]), asks the shared [`LinkGraph`] for the route
/// toward it, and derives the prefix and the next hop's address from the
/// address plan. Cloning one shares the plan.
#[derive(Clone, Debug)]
pub struct RoutingTable {
    router: NodeId,
    graph: Rc<LinkGraph>,
}

impl RoutingTable {
    /// `router`'s view of the plan in `graph`.
    pub(crate) fn new(router: NodeId, graph: Rc<LinkGraph>) -> Self {
        RoutingTable { router, graph }
    }

    /// The route toward `dst`: toward the link whose /64 holds it.
    pub fn lookup(&self, dst: Ipv6Addr) -> Option<RouteEntry> {
        let link = addressing::link_of(dst).filter(|l| l.index() < self.graph.n_links())?;
        let route = self.graph.route(self.router, link)?;
        let via = route.next_router;
        Some(RouteEntry {
            prefix: addressing::link_prefix(link),
            iface: route.iface,
            next_hop: via.map(|(n, ifx)| addressing::link_local_addr(n, ifx)),
            next_hop_node: via.map(|(n, _)| n),
            metric: route.link_hops,
        })
    }
}

/// The RPF answer a route toward the source gives.
pub(crate) fn rpf_info(r: &RouteEntry) -> mobicast_pimdm::RpfInfo {
    mobicast_pimdm::RpfInfo {
        iif: r.iface,
        upstream: r.next_hop,
        metric_pref: 101, // static unicast routing preference
        metric: r.metric,
    }
}

impl mobicast_pimdm::RpfLookup for RoutingTable {
    fn rpf(&self, src: Ipv6Addr) -> Option<mobicast_pimdm::RpfInfo> {
        self.lookup(src).as_ref().map(rpf_info)
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
    let mut frame = Frame::new(p.encode(), classify(p));
    frame.l2 = l2_dest(p.dst, l2_to);
    frame
}

/// The link-layer destination [`frame_for`] gives a packet to `dst`.
fn l2_dest(dst: Ipv6Addr, l2_to: Option<NodeId>) -> L2Dest {
    match l2_to.or_else(|| node_of_addr(dst)) {
        Some(n) if !addr::is_multicast(dst) => L2Dest::Node(n),
        _ => L2Dest::Broadcast,
    }
}

/// Offset of the hop limit in the IPv6 fixed header.
const HOP_LIMIT_AT: u16 = 7;

/// The hop limit `packet` has on the wire. `arrived` is the frame it was
/// parsed from, if any: a forwarded frame shares its predecessor's parse
/// and carries its own hop limit as a patch.
pub fn hop_limit(packet: &Packet, arrived: Option<&Frame>) -> u8 {
    match arrived.and_then(Frame::patch) {
        Some((HOP_LIMIT_AT, value)) => value,
        _ => packet.hop_limit,
    }
}

/// The bytes that arrived in `arrived`, if they may go on the wire again as
/// they are: not a copy damaged in flight (those are re-encoded from their
/// parse, so corrupted bytes are never propagated). They are then the
/// encoding of the packet they parse to, since every frame is built by an
/// encoder whose output re-encodes to itself.
pub(crate) fn intact(arrived: &Frame) -> Option<Bytes> {
    (!arrived.damaged).then(|| arrived.wire())
}

/// `arrived` forwarded one hop: a clone sharing its buffer and filled parse
/// memo, patched to the hop limit one lower and addressed as [`frame_for`]
/// addresses. Its wire is that of `frame_for` of the arriving packet with
/// the hop limit decremented, without the encode, the parse or a copy.
/// `None` (build it with `frame_for`) for a damaged copy, bytes that did
/// not parse, or a hop limit of 0.
pub(crate) fn forwarded(arrived: &Frame, l2_to: Option<NodeId>) -> Option<Frame> {
    let packet = parsed(arrived).ok()?.packet();
    let hops = hop_limit(packet, Some(arrived)).checked_sub(1)?;
    if arrived.damaged {
        return None;
    }
    let mut frame = arrived.clone().with_patch(HOP_LIMIT_AT, hops);
    (frame.class, frame.l2, frame.tag) = (classify(packet), l2_dest(packet.dst, l2_to), 0);
    // The shared parse is of the buffer, whose byte 7 is the hop limit it
    // parsed (the corpus test decodes every forwarded wire).
    debug_assert_eq!(frame.buffer()[usize::from(HOP_LIMIT_AT)], packet.hop_limit);
    Some(frame)
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// Unreachable links answer nothing, and what a lookup does not read
    /// off the plan it derives from the address plan: a router 4 on
    /// {L1, L0} and a router 2 on {L3, L2, L0}, with L4 on no router.
    #[test]
    fn a_table_reads_its_routes_off_the_shared_plan() {
        use mobicast_pimdm::RpfLookup;
        let l = LinkId;
        let graph = LinkGraph::new(
            5,
            &[
                (NodeId(4), vec![l(1), l(0)]),
                (NodeId(2), vec![l(3), l(2), l(0)]),
            ],
        );
        let table = RoutingTable::new(NodeId(4), Rc::new(graph));
        let on = |l: u32| addressing::global_addr(NodeId(9), 0, LinkId(l));
        let route = table.lookup(on(2)).unwrap();
        assert_eq!(route.prefix, addressing::link_prefix(LinkId(2)));
        assert_eq!(route.iface, 1);
        assert_eq!(
            route.next_hop,
            Some(addressing::link_local_addr(NodeId(2), 2))
        );
        assert_eq!(route.next_hop_node, Some(NodeId(2)));
        assert_eq!(route.metric, 2);
        assert_eq!(table.lookup(on(3)).unwrap().metric, 2);
        let attached = table.lookup(on(1)).unwrap();
        assert_eq!(
            (attached.iface, attached.next_hop, attached.metric),
            (0, None, 1)
        );
        for nothing in [on(4), on(5), a("2001:db9::1"), a("fe80::400")] {
            assert_eq!(table.lookup(nothing), None, "{nothing}");
        }
        let info = table.rpf(on(2)).unwrap();
        assert_eq!(info.iif, 1);
        assert_eq!(info.upstream, route.next_hop);
        assert_eq!(info.metric, 2);
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
