//! The address plan of a simulated network.
//!
//! Every link gets a /64 (`2001:db8:<link+1>::/64`, the part of `link + 1`
//! above 16 bits spilling into the fourth hextet); every interface derives
//! a stable 64-bit interface identifier from its node id and interface
//! index, giving it one link-local address (constant across moves — real
//! IIDs come from the MAC address) and one global address per visited link
//! via stateless autoconfiguration. Deterministic addressing makes traces
//! readable and tests exact.

use mobicast_ipv6::addr::Prefix;
use mobicast_net::{IfIndex, LinkId, NodeId};
use std::net::Ipv6Addr;

/// The interface identifier of `(node, ifindex)`.
pub fn iid(node: NodeId, ifindex: IfIndex) -> u64 {
    (u64::from(node.0) + 1) * 0x100 + u64::from(ifindex)
}

/// The /64 prefix assigned to a link: `link + 1` in the third hextet, what
/// does not fit there in the fourth, so no two links share a prefix.
pub fn link_prefix(link: LinkId) -> Prefix {
    let n = u64::from(link.0) + 1;
    let addr = Ipv6Addr::new(0x2001, 0xdb8, n as u16, (n >> 16) as u16, 0, 0, 0, 0);
    Prefix::new(addr, 64)
}

/// The link whose [`link_prefix`] contains `addr`, or `None` for an address
/// outside `2001:db8::/32`: the exact inverse of [`link_prefix`], which
/// makes a FIB of one /64 per link an array indexed by link. `n` = 2³²
/// (link `u32::MAX`) wrapped to `2001:db8::/64`, and comes back from there.
pub fn link_of(addr: Ipv6Addr) -> Option<LinkId> {
    let [0x2001, 0xdb8, lo, hi, ..] = addr.segments() else {
        return None;
    };
    let n = u32::from(lo) | u32::from(hi) << 16;
    Some(LinkId(n.wrapping_sub(1)))
}

/// The link-local address of `(node, ifindex)` — the same on every link.
pub fn link_local_addr(node: NodeId, ifindex: IfIndex) -> Ipv6Addr {
    mobicast_ipv6::addr::link_local(iid(node, ifindex))
}

/// The global address `(node, ifindex)` autoconfigures on `link`.
pub fn global_addr(node: NodeId, ifindex: IfIndex, link: LinkId) -> Ipv6Addr {
    link_prefix(link).addr_with_iid(iid(node, ifindex))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iids_are_unique_per_interface() {
        let mut seen = std::collections::HashSet::new();
        for n in 0..20u32 {
            for i in 0..4u8 {
                assert!(seen.insert(iid(NodeId(n), i)));
            }
        }
    }

    #[test]
    fn link_prefixes_are_distinct() {
        // Past 16 bits too: a 257 x 257 metro grid has 66 049 links.
        let links = [0, 1, 65_534, 65_535, 65_536, 200_000, u32::MAX].map(LinkId);
        let texts = links.map(|l| link_prefix(l).to_string());
        assert_eq!(texts[0], "2001:db8:1::/64");
        assert_eq!(texts[1], "2001:db8:2::/64");
        assert_eq!(texts[2], "2001:db8:ffff::/64");
        assert_eq!(texts[3], "2001:db8:0:1::/64");
        assert_eq!(texts[4], "2001:db8:1:1::/64");
        for (i, link) in links.iter().enumerate() {
            let addr = global_addr(NodeId(3), 1, *link);
            for (j, other) in links.iter().enumerate() {
                assert_eq!(link_prefix(*other).contains(addr), i == j, "{i} in {j}");
            }
        }
    }

    #[test]
    fn link_of_inverts_link_prefix() {
        let links = [0, 1, 65_534, 65_535, 65_536, 200_000, u32::MAX].map(LinkId);
        for link in links {
            let prefix = link_prefix(link);
            for addr in [
                prefix.network(),
                global_addr(NodeId(3), 1, link),
                prefix.addr_with_iid(u64::MAX),
            ] {
                assert_eq!(link_of(addr), Some(link), "{addr}");
            }
        }
        for off_plan in ["fe80::400", "ff1e::1", "2001:db9::1", "::", "2001:db7:1::1"] {
            let addr: Ipv6Addr = off_plan.parse().unwrap();
            assert_eq!(link_of(addr), None, "{addr}");
        }
    }

    #[test]
    fn global_addr_is_in_link_prefix() {
        let a = global_addr(NodeId(3), 1, LinkId(5));
        assert!(link_prefix(LinkId(5)).contains(a));
        assert_eq!(a.to_string(), "2001:db8:6::401");
    }

    #[test]
    fn link_local_is_stable_across_links() {
        let a = link_local_addr(NodeId(3), 0);
        assert!(mobicast_ipv6::addr::is_link_local(a));
        // No dependence on any link: by construction.
        assert_eq!(a.to_string(), "fe80::400");
    }
}
