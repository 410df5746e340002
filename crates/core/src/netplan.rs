//! Static network-plan data shared by the composed nodes: routing tables,
//! the link directory, data-payload framing and frame classification.

use crate::addressing;
use bytes::{BufMut, Bytes, BytesMut};
use mobicast_ipv6::addr::{self, GroupAddr, Prefix};
use mobicast_ipv6::packet::{proto, Packet};
use mobicast_ipv6::udp::UdpDatagram;
use mobicast_net::{Frame, FrameClass, IfIndex, LinkId, NodeId};
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
    pub routes: Vec<RouteEntry>,
}

impl RoutingTable {
    pub fn lookup(&self, dst: Ipv6Addr) -> Option<&RouteEntry> {
        self.routes
            .iter()
            .filter(|r| r.prefix.contains(dst))
            .max_by_key(|r| (r.prefix.len(), std::cmp::Reverse(r.metric)))
    }
}

impl mobicast_pimdm::RpfLookup for RoutingTable {
    fn rpf(&self, src: Ipv6Addr) -> Option<mobicast_pimdm::RpfInfo> {
        let r = self.lookup(src)?;
        Some(mobicast_pimdm::RpfInfo {
            iif: r.iface,
            upstream: r.next_hop,
            metric_pref: 101, // static unicast routing preference
            metric: r.metric,
        })
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
/// this packet carries the simulated multicast stream.
pub fn extract_data_info(p: &Packet) -> Option<DataInfo> {
    let mut depth = 0u32;
    let mut current = p.clone();
    while current.payload_proto == proto::IPV6 {
        current = mobicast_ipv6::tunnel::decapsulate(&current).ok()?;
        depth += 1;
        if depth > 8 {
            return None; // malformed nesting
        }
    }
    if current.payload_proto != proto::UDP {
        return None;
    }
    let udp = UdpDatagram::decode(current.src, current.dst, &current.payload).ok()?;
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

/// Helpers for building the plan.
pub fn link_prefix(link: LinkId) -> Prefix {
    addressing::link_prefix(link)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobicast_ipv6::tunnel::encapsulate;

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
        let t = RoutingTable {
            routes: vec![
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
            ],
        };
        assert_eq!(t.lookup(a("2001:db8:4::9")).unwrap().iface, 1);
        assert_eq!(t.lookup(a("2001:db8:9::9")).unwrap().iface, 0);
        assert!(t.lookup(a("2002::1")).is_none());
    }

    #[test]
    fn rpf_from_routing_table() {
        use mobicast_pimdm::RpfLookup;
        let t = RoutingTable {
            routes: vec![RouteEntry {
                prefix: "2001:db8:1::/64".parse().unwrap(),
                iface: 2,
                next_hop: Some(a("fe80::1")),
                next_hop_node: Some(NodeId(1)),
                metric: 3,
            }],
        };
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
