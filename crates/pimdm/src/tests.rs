//! Unit tests for the PIM-DM state machine. The scenarios mirror the
//! protocol walkthroughs in Section 3.1 of the paper.

use crate::config::PimConfig;
use crate::message::PimMessage;
use crate::router::{PimDest, PimNote, PimRouter, PimSend, RpfInfo};
use mobicast_ipv6::addr::GroupAddr;
use mobicast_sim::{RngFactory, SimDuration, SimTime};
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

/// A three-interface router: 0 (toward REMOTE_SRC), 1 and 2 downstream.
fn router() -> PimRouter {
    let mut r = PimRouter::new(PimConfig::default(), RngFactory::new(7).stream("pim"));
    r.add_iface(0, a("fe80::10"));
    r.add_iface(1, a("fe80::11"));
    r.add_iface(2, a("fe80::12"));
    r
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

fn find_send(sends: &[PimSend], pred: impl Fn(&PimSend) -> bool) -> Option<&PimSend> {
    sends.iter().find(|s| pred(s))
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
fn data_floods_to_interested_interfaces_only() {
    let mut r = router();
    r.start(t(0));
    neighbor(&mut r, 1, "fe80::21", t(1));
    // iface 2: no neighbors, no members -> leaf with nobody interested.
    let (fwd, sends) = r.on_data(0, a(REMOTE_SRC), g(1), t(2), &rpf);
    assert_eq!(fwd, vec![1], "flood only where someone listens");
    assert!(sends.is_empty());
    assert_eq!(r.entry_count(), 1);
}

#[test]
fn member_makes_leaf_interface_interested() {
    let mut r = router();
    r.start(t(0));
    r.set_membership(2, g(1), true, t(1), &rpf);
    let (fwd, _) = r.on_data(0, a(REMOTE_SRC), g(1), t(2), &rpf);
    assert_eq!(fwd, vec![2]);
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
fn leaf_router_prunes_when_nothing_interested() {
    let mut r = router();
    r.start(t(0));
    // No neighbors, no members anywhere: oif list empty.
    let (fwd, sends) = r.on_data(0, a(REMOTE_SRC), g(1), t(1), &rpf);
    assert!(fwd.is_empty());
    let prune = find_send(
        &sends,
        |s| matches!(&s.msg, PimMessage::JoinPrune { prunes, .. } if !prunes.is_empty()),
    )
    .expect("prune sent upstream");
    assert_eq!(prune.iface, 0);
    assert_eq!(prune.dest, PimDest::AllRouters);
    match &prune.msg {
        PimMessage::JoinPrune {
            upstream, prunes, ..
        } => {
            assert_eq!(*upstream, a("fe80::1"));
            assert_eq!(prunes, &vec![(a(REMOTE_SRC), g(1))]);
        }
        _ => unreachable!(),
    }
    assert!(r.snapshot(a(REMOTE_SRC), g(1)).unwrap().upstream_pruned);
}

#[test]
fn repeated_data_does_not_spam_prunes() {
    let mut r = router();
    r.start(t(0));
    let (_, s1) = r.on_data(0, a(REMOTE_SRC), g(1), t(1), &rpf);
    assert_eq!(s1.len(), 1);
    // 1 s later (inside the rate limit window): no second prune.
    let (_, s2) = r.on_data(0, a(REMOTE_SRC), g(1), t(2), &rpf);
    assert!(s2.is_empty(), "prune rate-limited: {s2:?}");
    // After the rate limit, a further prune may go out.
    let (_, s3) = r.on_data(0, a(REMOTE_SRC), g(1), t(6), &rpf);
    assert_eq!(s3.len(), 1);
}

#[test]
fn upstream_prune_respects_join_override_window() {
    // We are the upstream router on iface 1's LAN.
    let mut r = router();
    r.start(t(0));
    neighbor(&mut r, 1, "fe80::21", t(1));
    neighbor(&mut r, 1, "fe80::22", t(1));
    r.on_data(0, a(REMOTE_SRC), g(1), t(2), &rpf);
    // fe80::21 prunes (addressed to us).
    r.on_message(
        1,
        a("fe80::21"),
        &PimMessage::JoinPrune {
            upstream: a("fe80::11"),
            joins: vec![],
            prunes: vec![(a(REMOTE_SRC), g(1))],
        },
        t(2),
        &rpf,
    );
    // Still forwarding during the T_PruneDel window.
    let (fwd, _) = r.on_data(0, a(REMOTE_SRC), g(1), t(3), &rpf);
    assert_eq!(fwd, vec![1], "forwarding continues during override window");
    // After 3 s the prune fires.
    r.on_deadline(t(5), &rpf);
    let (fwd, _) = r.on_data(0, a(REMOTE_SRC), g(1), t(6), &rpf);
    assert!(fwd.is_empty(), "iface pruned after T_PruneDel");
    assert_eq!(r.snapshot(a(REMOTE_SRC), g(1)).unwrap().pruned, vec![1]);
}

#[test]
fn join_override_cancels_pending_prune() {
    let mut r = router();
    r.start(t(0));
    neighbor(&mut r, 1, "fe80::21", t(1));
    neighbor(&mut r, 1, "fe80::22", t(1));
    r.on_data(0, a(REMOTE_SRC), g(1), t(2), &rpf);
    r.on_message(
        1,
        a("fe80::21"),
        &PimMessage::JoinPrune {
            upstream: a("fe80::11"),
            joins: vec![],
            prunes: vec![(a(REMOTE_SRC), g(1))],
        },
        t(2),
        &rpf,
    );
    // fe80::22 overrides with a Join inside the window.
    r.on_message(
        1,
        a("fe80::22"),
        &PimMessage::JoinPrune {
            upstream: a("fe80::11"),
            joins: vec![(a(REMOTE_SRC), g(1))],
            prunes: vec![],
        },
        t(3),
        &rpf,
    );
    r.on_deadline(t(10), &rpf);
    let (fwd, _) = r.on_data(0, a(REMOTE_SRC), g(1), t(11), &rpf);
    assert_eq!(fwd, vec![1], "join override kept the interface alive");
}

#[test]
fn overheard_prune_schedules_join_override() {
    // We are a downstream router with members; a sibling prunes our shared
    // upstream on our incoming interface's LAN.
    let mut r = router();
    r.start(t(0));
    r.set_membership(1, g(1), true, t(1), &rpf);
    r.on_data(0, a(REMOTE_SRC), g(1), t(2), &rpf);
    r.on_message(
        0,
        a("fe80::9"), // sibling router on iface 0's LAN
        &PimMessage::JoinPrune {
            upstream: a("fe80::1"), // our upstream too
            joins: vec![],
            prunes: vec![(a(REMOTE_SRC), g(1))],
        },
        t(3),
        &rpf,
    );
    // An override join must be scheduled within the override window.
    let dl = r.next_deadline().expect("override scheduled");
    assert!(dl >= t(3) && dl <= t(3) + SimDuration::from_secs(3));
    let sends = r.on_deadline(dl, &rpf);
    let join = find_send(
        &sends,
        |s| matches!(&s.msg, PimMessage::JoinPrune { joins, .. } if !joins.is_empty()),
    )
    .expect("join override sent");
    assert_eq!(join.iface, 0);
    match &join.msg {
        PimMessage::JoinPrune {
            upstream, joins, ..
        } => {
            assert_eq!(*upstream, a("fe80::1"));
            assert_eq!(joins, &vec![(a(REMOTE_SRC), g(1))]);
        }
        _ => unreachable!(),
    }
}

#[test]
fn overheard_join_suppresses_our_override() {
    let mut r = router();
    r.start(t(0));
    r.set_membership(1, g(1), true, t(1), &rpf);
    r.on_data(0, a(REMOTE_SRC), g(1), t(2), &rpf);
    r.on_message(
        0,
        a("fe80::9"),
        &PimMessage::JoinPrune {
            upstream: a("fe80::1"),
            joins: vec![],
            prunes: vec![(a(REMOTE_SRC), g(1))],
        },
        t(3),
        &rpf,
    );
    assert!(r.next_deadline().unwrap() < t(6), "override pending");
    // Another router's join overrides first.
    r.on_message(
        0,
        a("fe80::8"),
        &PimMessage::JoinPrune {
            upstream: a("fe80::1"),
            joins: vec![(a(REMOTE_SRC), g(1))],
            prunes: vec![],
        },
        t(3),
        &rpf,
    );
    // Fire any remaining deadlines within the window: no join from us.
    let sends = r.on_deadline(t(6), &rpf);
    assert!(
        !sends
            .iter()
            .any(|s| matches!(&s.msg, PimMessage::JoinPrune { joins, .. } if !joins.is_empty())),
        "our override was suppressed: {sends:?}"
    );
}

#[test]
fn membership_join_on_pruned_entry_grafts_upstream() {
    let mut r = router();
    r.start(t(0));
    // Prune ourselves (no interest anywhere).
    r.on_data(0, a(REMOTE_SRC), g(1), t(1), &rpf);
    assert!(r.snapshot(a(REMOTE_SRC), g(1)).unwrap().upstream_pruned);
    // A member appears on iface 1: graft.
    let sends = r.set_membership(1, g(1), true, t(10), &rpf);
    let graft =
        find_send(&sends, |s| matches!(&s.msg, PimMessage::Graft { .. })).expect("graft sent");
    assert_eq!(graft.iface, 0);
    assert_eq!(graft.dest, PimDest::Unicast(a("fe80::1")));
    // Unacknowledged graft retransmits after graft_retry (3 s).
    let dl = r.next_deadline().unwrap();
    assert_eq!(dl, t(13));
    let sends = r.on_deadline(dl, &rpf);
    assert!(find_send(&sends, |s| matches!(&s.msg, PimMessage::Graft { .. })).is_some());
    // Ack stops the retransmissions.
    r.on_message(
        0,
        a("fe80::1"),
        &PimMessage::GraftAck {
            upstream: a("fe80::1"),
            entries: vec![(a(REMOTE_SRC), g(1))],
        },
        t(14),
        &rpf,
    );
    assert!(!r.snapshot(a(REMOTE_SRC), g(1)).unwrap().upstream_pruned);
    let sends = r.on_deadline(t(20), &rpf);
    assert!(
        !sends
            .iter()
            .any(|s| matches!(&s.msg, PimMessage::Graft { .. })),
        "no more graft retransmissions after ack"
    );
}

#[test]
fn upstream_handles_graft_with_ack_and_propagation() {
    let mut r = router();
    r.start(t(0));
    // Prune ourselves upstream first (nobody interested).
    r.on_data(0, a(REMOTE_SRC), g(1), t(1), &rpf);
    // Downstream router grafts through us on iface 1.
    let sends = r.on_message(
        1,
        a("fe80::21"),
        &PimMessage::Graft {
            upstream: a("fe80::11"), // our address on iface 1
            entries: vec![(a(REMOTE_SRC), g(1))],
        },
        t(5),
        &rpf,
    );
    // We ack the downstream graft...
    let ack = find_send(&sends, |s| matches!(&s.msg, PimMessage::GraftAck { .. }))
        .expect("graft-ack sent");
    assert_eq!(ack.iface, 1);
    assert_eq!(ack.dest, PimDest::Unicast(a("fe80::21")));
    // ...and propagate the graft upstream because we were pruned there.
    let graft = find_send(&sends, |s| matches!(&s.msg, PimMessage::Graft { .. }))
        .expect("graft propagated upstream");
    assert_eq!(graft.iface, 0);
    assert_eq!(graft.dest, PimDest::Unicast(a("fe80::1")));
    // The grafted interface forwards again.
    let snap = r.snapshot(a(REMOTE_SRC), g(1)).unwrap();
    assert!(snap.pruned.is_empty());
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
fn data_on_outgoing_interface_triggers_assert() {
    let mut r = router();
    r.start(t(0));
    neighbor(&mut r, 1, "fe80::21", t(1));
    r.on_data(0, a(REMOTE_SRC), g(1), t(2), &rpf);
    // The same stream arrives on iface 1 (parallel forwarder / loop).
    let (fwd, sends) = r.on_data(1, a(REMOTE_SRC), g(1), t(3), &rpf);
    assert!(fwd.is_empty(), "never forward from a wrong interface");
    let assert_msg = find_send(&sends, |s| matches!(&s.msg, PimMessage::Assert { .. }))
        .expect("assert triggered");
    assert_eq!(assert_msg.iface, 1);
    match &assert_msg.msg {
        PimMessage::Assert {
            metric_pref,
            metric,
            ..
        } => {
            assert_eq!((*metric_pref, *metric), (101, 2));
        }
        _ => unreachable!(),
    }
    // Rate limited: immediate repeat does not re-assert.
    let (_, sends) = r.on_data(1, a(REMOTE_SRC), g(1), t(4), &rpf);
    assert!(sends.is_empty());
}

#[test]
fn assert_loser_stops_forwarding_until_timeout() {
    let mut r = router();
    r.start(t(0));
    neighbor(&mut r, 1, "fe80::21", t(1));
    r.on_data(0, a(REMOTE_SRC), g(1), t(2), &rpf);
    // A competitor with a better metric asserts on iface 1.
    let sends = r.on_message(
        1,
        a("fe80::30"),
        &PimMessage::Assert {
            group: g(1),
            source: a(REMOTE_SRC),
            metric_pref: 101,
            metric: 1, // better than our 2
        },
        t(3),
        &rpf,
    );
    assert!(sends.is_empty(), "loser stays silent");
    let (fwd, _) = r.on_data(0, a(REMOTE_SRC), g(1), t(4), &rpf);
    assert!(fwd.is_empty(), "assert loser must not forward");
    // Keep the neighbor alive across the long wait (105 s holdtime).
    neighbor(&mut r, 1, "fe80::21", t(100));
    neighbor(&mut r, 1, "fe80::21", t(180));
    // Assert state expires after assert_time (180 s) and forwarding resumes.
    r.on_deadline(t(3) + SimDuration::from_secs(180), &rpf);
    let (fwd, _) = r.on_data(0, a(REMOTE_SRC), g(1), t(200), &rpf);
    assert_eq!(fwd, vec![1]);
}

#[test]
fn assert_winner_reasserts_its_claim() {
    let mut r = router();
    r.start(t(0));
    neighbor(&mut r, 1, "fe80::21", t(1));
    r.on_data(0, a(REMOTE_SRC), g(1), t(2), &rpf);
    // A competitor with a *worse* metric asserts: we answer.
    let sends = r.on_message(
        1,
        a("fe80::30"),
        &PimMessage::Assert {
            group: g(1),
            source: a(REMOTE_SRC),
            metric_pref: 101,
            metric: 9,
        },
        t(3),
        &rpf,
    );
    let ours = find_send(&sends, |s| matches!(&s.msg, PimMessage::Assert { .. }))
        .expect("winner re-asserts");
    assert_eq!(ours.iface, 1);
    let (fwd, _) = r.on_data(0, a(REMOTE_SRC), g(1), t(4), &rpf);
    assert_eq!(fwd, vec![1], "winner keeps forwarding");
}

#[test]
fn assert_tie_broken_by_higher_address() {
    let mut r = router(); // our iface-1 address: fe80::11
    r.start(t(0));
    neighbor(&mut r, 1, "fe80::21", t(1));
    r.on_data(0, a(REMOTE_SRC), g(1), t(2), &rpf);
    // Identical metrics from a higher address: they win.
    r.on_message(
        1,
        a("fe80::ff"),
        &PimMessage::Assert {
            group: g(1),
            source: a(REMOTE_SRC),
            metric_pref: 101,
            metric: 2,
        },
        t(3),
        &rpf,
    );
    let (fwd, _) = r.on_data(0, a(REMOTE_SRC), g(1), t(4), &rpf);
    assert!(fwd.is_empty(), "higher address wins the tie");
}

#[test]
fn assert_on_incoming_interface_updates_upstream() {
    let mut r = router();
    r.start(t(0));
    r.set_membership(1, g(1), true, t(1), &rpf);
    r.on_data(0, a(REMOTE_SRC), g(1), t(2), &rpf);
    assert_eq!(
        r.snapshot(a(REMOTE_SRC), g(1)).unwrap().upstream,
        Some(a("fe80::1"))
    );
    // The assert winner on the upstream LAN announces itself.
    r.on_message(
        0,
        a("fe80::2"),
        &PimMessage::Assert {
            group: g(1),
            source: a(REMOTE_SRC),
            metric_pref: 101,
            metric: 1,
        },
        t(3),
        &rpf,
    );
    assert_eq!(
        r.snapshot(a(REMOTE_SRC), g(1)).unwrap().upstream,
        Some(a("fe80::2")),
        "paper §3.1: downstream routers store the elected forwarder"
    );
}

#[test]
fn entry_expires_after_data_timeout() {
    // The paper: "(S,G) state for a silent source will be deleted …
    // default value is 210 s".
    let mut r = router();
    r.start(t(0));
    neighbor(&mut r, 1, "fe80::21", t(1));
    r.on_data(0, a(REMOTE_SRC), g(1), t(2), &rpf);
    assert_eq!(r.entry_count(), 1);
    r.on_deadline(t(2) + SimDuration::from_secs(210), &rpf);
    assert_eq!(r.entry_count(), 0, "stale entry deleted at data timeout");
}

#[test]
fn data_refreshes_entry_lifetime() {
    let mut r = router();
    r.start(t(0));
    neighbor(&mut r, 1, "fe80::21", t(1));
    r.on_data(0, a(REMOTE_SRC), g(1), t(2), &rpf);
    r.on_data(0, a(REMOTE_SRC), g(1), t(100), &rpf);
    r.on_deadline(t(2) + SimDuration::from_secs(210), &rpf);
    assert_eq!(r.entry_count(), 1, "refreshed by data at t=100");
}

#[test]
fn member_leaving_triggers_prune() {
    let mut r = router();
    r.start(t(0));
    r.set_membership(1, g(1), true, t(1), &rpf);
    r.on_data(0, a(REMOTE_SRC), g(1), t(2), &rpf);
    let sends = r.set_membership(1, g(1), false, t(10), &rpf);
    let prune = find_send(
        &sends,
        |s| matches!(&s.msg, PimMessage::JoinPrune { prunes, .. } if !prunes.is_empty()),
    )
    .expect("prune after last member left");
    assert_eq!(prune.iface, 0);
}

#[test]
fn new_neighbor_clears_prune_state() {
    let mut r = router();
    r.start(t(0));
    neighbor(&mut r, 1, "fe80::21", t(1));
    r.on_data(0, a(REMOTE_SRC), g(1), t(2), &rpf);
    // Downstream prunes, window passes, iface pruned.
    r.on_message(
        1,
        a("fe80::21"),
        &PimMessage::JoinPrune {
            upstream: a("fe80::11"),
            joins: vec![],
            prunes: vec![(a(REMOTE_SRC), g(1))],
        },
        t(2),
        &rpf,
    );
    r.on_deadline(t(6), &rpf);
    assert_eq!(r.snapshot(a(REMOTE_SRC), g(1)).unwrap().pruned, vec![1]);
    // A brand-new router appears on iface 1: flooding must resume for it.
    neighbor(&mut r, 1, "fe80::99", t(7));
    let (fwd, _) = r.on_data(0, a(REMOTE_SRC), g(1), t(8), &rpf);
    assert_eq!(fwd, vec![1]);
}

#[test]
fn pruned_interface_recovers_after_hold_time() {
    let mut r = router();
    r.start(t(0));
    neighbor(&mut r, 1, "fe80::21", t(1));
    r.on_data(0, a(REMOTE_SRC), g(1), t(2), &rpf);
    r.on_message(
        1,
        a("fe80::21"),
        &PimMessage::JoinPrune {
            upstream: a("fe80::11"),
            joins: vec![],
            prunes: vec![(a(REMOTE_SRC), g(1))],
        },
        t(2),
        &rpf,
    );
    r.on_deadline(t(5), &rpf); // prune fires at t=5
                               // Keep the entry and the neighbor alive while the hold time runs out.
    let mut now = 10;
    while now < 250 {
        r.on_data(0, a(REMOTE_SRC), g(1), t(now), &rpf);
        neighbor(&mut r, 1, "fe80::21", t(now));
        r.on_deadline(t(now + 1), &rpf);
        now += 50;
    }
    // Prune hold (210 s from t=5) has expired: flooding resumes.
    r.on_deadline(t(255), &rpf);
    let (fwd, _) = r.on_data(0, a(REMOTE_SRC), g(1), t(260), &rpf);
    assert_eq!(fwd, vec![1], "dense-mode re-flood after prune hold time");
}

#[test]
fn neighbor_expiry_removes_interest() {
    let mut r = router();
    r.start(t(0));
    neighbor(&mut r, 1, "fe80::21", t(1));
    assert_eq!(r.neighbor_count(1), 1);
    // Holdtime 105 s: expires at t=106.
    r.on_deadline(t(110), &rpf);
    assert_eq!(r.neighbor_count(1), 0);
    let (fwd, _) = r.on_data(0, a(REMOTE_SRC), g(1), t(111), &rpf);
    assert!(
        fwd.is_empty(),
        "no neighbors, no members: nothing to forward"
    );
}

#[test]
fn hello_refresh_keeps_neighbor() {
    let mut r = router();
    r.start(t(0));
    neighbor(&mut r, 1, "fe80::21", t(1));
    neighbor(&mut r, 1, "fe80::21", t(60));
    r.on_deadline(t(110), &rpf);
    assert_eq!(r.neighbor_count(1), 1, "refreshed at t=60, alive until 165");
}

#[test]
fn periodic_hellos_continue() {
    let mut r = router();
    r.start(t(0));
    let sends = r.on_deadline(t(30), &rpf);
    assert_eq!(
        sends
            .iter()
            .filter(|s| matches!(s.msg, PimMessage::Hello { .. }))
            .count(),
        3
    );
    assert_eq!(r.next_deadline().unwrap(), t(60));
}

#[test]
fn join_for_unknown_entry_creates_state() {
    let mut r = router();
    r.start(t(0));
    let sends = r.on_message(
        1,
        a("fe80::21"),
        &PimMessage::JoinPrune {
            upstream: a("fe80::11"),
            joins: vec![(a(REMOTE_SRC), g(1))],
            prunes: vec![],
        },
        t(1),
        &rpf,
    );
    assert!(sends.is_empty());
    assert_eq!(r.entry_count(), 1);
}

#[test]
fn prune_does_not_override_local_members() {
    // A downstream router prunes, but a local MLD member on the same LAN
    // still needs the traffic: forwarding must continue.
    let mut r = router();
    r.start(t(0));
    neighbor(&mut r, 1, "fe80::21", t(1));
    r.set_membership(1, g(1), true, t(1), &rpf);
    r.on_data(0, a(REMOTE_SRC), g(1), t(2), &rpf);
    r.on_message(
        1,
        a("fe80::21"),
        &PimMessage::JoinPrune {
            upstream: a("fe80::11"),
            joins: vec![],
            prunes: vec![(a(REMOTE_SRC), g(1))],
        },
        t(2),
        &rpf,
    );
    r.on_deadline(t(6), &rpf); // prune window passes
    let (fwd, _) = r.on_data(0, a(REMOTE_SRC), g(1), t(7), &rpf);
    assert_eq!(fwd, vec![1], "local member overrides the prune");
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
