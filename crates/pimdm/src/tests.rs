//! Unit tests for what lies outside the one-(S,G) model that
//! `router::spec` checks cell by cell: Hellos on every interface, an
//! origin router, an unroutable source, a Graft for another router, and
//! the (S,G) budget across several sources.

use crate::message::PimMessage;
use crate::router::spec::router;
use crate::router::{PimDest, PimNote, PimRouter, RpfInfo};
use mobicast_ipv6::addr::GroupAddr;
use mobicast_sim::{SimDuration, SimTime};
use std::net::Ipv6Addr;

fn a(s: &str) -> Ipv6Addr {
    s.parse().unwrap()
}

fn g(i: u16) -> GroupAddr {
    GroupAddr::test_group(i)
}

fn t(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

/// Source reached via iface 0 with upstream neighbor fe80::1.
const REMOTE_SRC: &str = "2001:db8:1::5";
/// Source directly attached on iface 2.
const LOCAL_SRC: &str = "2001:db8:9::5";

fn rpf(src: Ipv6Addr) -> Option<RpfInfo> {
    if src == a(REMOTE_SRC) {
        Some(RpfInfo {
            iif: 0,
            upstream: Some(a("fe80::1")),
            metric_pref: 101,
            metric: 2,
        })
    } else if src == a(LOCAL_SRC) {
        Some(RpfInfo {
            iif: 2,
            upstream: None,
            metric_pref: 0,
            metric: 0,
        })
    } else {
        None
    }
}

/// Bring up a downstream PIM neighbor on `iface`.
fn neighbor(r: &mut PimRouter, iface: u8, addr: &str, now: SimTime) {
    r.on_message(
        iface,
        a(addr),
        &PimMessage::Hello {
            holdtime: SimDuration::from_secs(105),
        },
        now,
        &rpf,
    );
}

#[test]
fn start_sends_hello_on_every_iface() {
    let mut r = router();
    let sends = r.start(t(0));
    assert_eq!(sends.len(), 3);
    for s in &sends {
        assert!(matches!(s.msg, PimMessage::Hello { .. }));
        assert_eq!(s.dest, PimDest::AllRouters);
    }
    // Next hello scheduled at +30 s.
    assert_eq!(r.next_deadline(), Some(t(30)));
}

#[test]
fn directly_attached_source_floods_from_origin() {
    let mut r = router();
    r.start(t(0));
    neighbor(&mut r, 0, "fe80::1", t(1));
    neighbor(&mut r, 1, "fe80::21", t(1));
    let (fwd, _) = r.on_data(2, a(LOCAL_SRC), g(1), t(2), &rpf);
    assert_eq!(fwd, vec![0, 1]);
    let snap = r.snapshot(a(LOCAL_SRC), g(1)).unwrap();
    assert_eq!(snap.iif, 2);
    assert_eq!(snap.upstream, None, "origin router has no upstream");
}

#[test]
fn unroutable_source_is_dropped() {
    let mut r = router();
    r.start(t(0));
    let (fwd, sends) = r.on_data(0, a("2001:db8:ff::9"), g(1), t(1), &rpf);
    assert!(fwd.is_empty());
    assert!(sends.is_empty());
    assert_eq!(r.entry_count(), 0);
}

#[test]
fn graft_for_foreign_upstream_is_ignored() {
    let mut r = router();
    r.start(t(0));
    r.on_data(0, a(REMOTE_SRC), g(1), t(1), &rpf);
    let sends = r.on_message(
        1,
        a("fe80::21"),
        &PimMessage::Graft {
            upstream: a("fe80::99"), // not us
            entries: vec![(a(REMOTE_SRC), g(1))],
        },
        t(5),
        &rpf,
    );
    assert!(sends.is_empty());
}

#[test]
fn periodic_hellos_continue() {
    let mut r = router();
    r.start(t(0));
    let sends = r.on_deadline(t(30));
    assert_eq!(
        sends
            .iter()
            .filter(|s| matches!(s.msg, PimMessage::Hello { .. }))
            .count(),
        3
    );
    assert_eq!(r.next_deadline().unwrap(), t(60));
}

/// Every source is routable via iface 0 (used by the budget tests to
/// create arbitrarily many (S,G) entries).
fn rpf_flood(_src: Ipv6Addr) -> Option<RpfInfo> {
    Some(RpfInfo {
        iif: 0,
        upstream: Some(a("fe80::1")),
        metric_pref: 101,
        metric: 2,
    })
}

fn src(i: u16) -> Ipv6Addr {
    a(&format!("2001:db8:1::{:x}", 0x100 + i))
}

#[test]
fn sg_budget_reject_new_sheds_new_sources() {
    let mut r = router();
    r.set_budget(Some(2));
    r.start(t(0));
    r.on_data(0, src(1), g(1), t(1), &rpf_flood);
    r.on_data(0, src(2), g(1), t(2), &rpf_flood);
    r.take_notes();
    // A third source finds the table full: no entry, no forwarding.
    let (fwd, _) = r.on_data(0, src(3), g(1), t(3), &rpf_flood);
    assert!(fwd.is_empty());
    assert_eq!(r.entry_count(), 2);
    assert_eq!(r.take_notes(), vec![PimNote::SgShed { sg: (src(3), g(1)) }]);
    assert!(r.snapshot(src(1), g(1)).is_some());
    assert!(r.snapshot(src(3), g(1)).is_none());
}
