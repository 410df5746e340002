//! Link-level MLD choreography: several host and router state machines
//! driven against each other through a tiny in-test "link" that relays
//! every output message to every other party — the protocol dance of
//! RFC 2710 without any simulator. Each machine call is classified into
//! the cells of `router::spec`'s tables as it is made, so the scenarios'
//! coverage can be set against the proptests'.

use crate::router::spec::{self, Call};
use crate::{MldConfig, MldHostPort, MldMessage, MldRouterPort, RouterOutput};
use mobicast_ipv6::addr::GroupAddr;
use mobicast_sim::{RngFactory, SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::net::Ipv6Addr;

thread_local! {
    /// The cells the scenarios reach.
    static CELLS: RefCell<BTreeSet<spec::Cell>> = const { RefCell::new(BTreeSet::new()) };
}

fn a(s: &str) -> Ipv6Addr {
    s.parse().unwrap()
}

fn g(i: u16) -> GroupAddr {
    GroupAddr::test_group(i)
}

fn t(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

/// A shared link with routers and hosts attached; relays messages and
/// drives deadlines in timestamp order.
struct Lan {
    routers: Vec<(Ipv6Addr, MldRouterPort)>,
    hosts: Vec<(Ipv6Addr, MldHostPort)>,
    /// Membership notifications from every router, in order.
    log: Vec<(Ipv6Addr, String)>,
}

/// Make `call` on router `r`, recording its cells.
fn on_router(r: &mut MldRouterPort, call: &Call, now: SimTime) -> Vec<RouterOutput> {
    let fx = spec::step_router(&mut spec::router_state(r), call, now);
    CELLS.with(|c| c.borrow_mut().extend(fx.cells));
    spec::on_router(r, call, now)
}

/// Make `call` on host `h`, recording its cells (classified against the
/// host after the call, whose report delays show which draws it took).
fn on_host(h: &mut MldHostPort, call: &Call, now: SimTime) -> Vec<MldMessage> {
    let mut before = spec::host_state(h);
    let outs = spec::on_host(h, call, now);
    let fx = spec::step_host(&mut before, call, now, &spec::host_state(h));
    CELLS.with(|c| c.borrow_mut().extend(fx.cells));
    outs
}

impl Lan {
    fn new(cfg: MldConfig, router_addrs: &[&str], host_addrs: &[&str], seed: u64) -> Lan {
        let rng = RngFactory::new(seed);
        Lan {
            routers: router_addrs
                .iter()
                .map(|r| (a(r), MldRouterPort::new(cfg, a(r))))
                .collect(),
            hosts: host_addrs
                .iter()
                .enumerate()
                .map(|(i, h)| {
                    (
                        a(h),
                        MldHostPort::new(cfg, rng.indexed_stream("host", i as u64)),
                    )
                })
                .collect(),
            log: Vec::new(),
        }
    }

    fn start(&mut self, now: SimTime) {
        let mut outs = Vec::new();
        for (addr, r) in self.routers.iter_mut() {
            for o in on_router(r, &Call::Start, now) {
                outs.push((*addr, o));
            }
        }
        for (from, o) in outs {
            self.apply_router_output(from, o, now);
        }
    }

    fn apply_router_output(&mut self, from: Ipv6Addr, o: RouterOutput, now: SimTime) {
        match o {
            RouterOutput::Send(msg) => self.broadcast(from, msg, now),
            RouterOutput::ListenerAdded(gr) => {
                self.log.push((from, format!("add {gr}")));
            }
            RouterOutput::ListenerRemoved(gr) => {
                self.log.push((from, format!("del {gr}")));
            }
        }
    }

    /// Deliver `msg` from `from` to every *other* party on the link.
    fn broadcast(&mut self, from: Ipv6Addr, msg: MldMessage, now: SimTime) {
        let heard = Call::Heard(from, msg);
        let mut router_outs = Vec::new();
        for (addr, r) in self.routers.iter_mut() {
            if *addr != from {
                router_outs.extend(on_router(r, &heard, now).into_iter().map(|o| (*addr, o)));
            }
        }
        for (addr, h) in self.hosts.iter_mut() {
            if *addr != from {
                on_host(h, &heard, now);
            }
        }
        for (fr, o) in router_outs {
            self.apply_router_output(fr, o, now);
        }
    }

    /// Make `call` on host `host` and put what it sends on the link.
    fn host(&mut self, host: usize, call: Call, now: SimTime) {
        let (from, port) = &mut self.hosts[host];
        let from = *from;
        for m in on_host(port, &call, now) {
            self.broadcast(from, m, now);
        }
    }

    /// Advance virtual time to `until`, firing all deadlines in order.
    fn run_until(&mut self, until: SimTime) {
        loop {
            let routers = self.routers.iter().filter_map(|(_, r)| r.next_deadline());
            let hosts = self.hosts.iter().filter_map(|(_, h)| h.next_deadline());
            let Some(now) = routers.chain(hosts).min().filter(|t| *t <= until) else {
                break;
            };
            let mut router_outs = Vec::new();
            for (addr, r) in self.routers.iter_mut() {
                if r.next_deadline().is_some_and(|d| d <= now) {
                    for o in on_router(r, &Call::Deadline, now) {
                        router_outs.push((*addr, o));
                    }
                }
            }
            let mut host_msgs = Vec::new();
            for (addr, h) in self.hosts.iter_mut() {
                if h.next_deadline().is_some_and(|d| d <= now) {
                    for m in on_host(h, &Call::Deadline, now) {
                        host_msgs.push((*addr, m));
                    }
                }
            }
            for (f, o) in router_outs {
                self.apply_router_output(f, o, now);
            }
            for (f, m) in host_msgs {
                self.broadcast(f, m, now);
            }
        }
    }

    fn querier_count(&self) -> usize {
        self.routers.iter().filter(|(_, r)| r.is_querier()).count()
    }

    fn all_know_listener(&self, gr: GroupAddr) -> bool {
        self.routers.iter().all(|(_, r)| r.has_listener(gr))
    }
}

#[test]
fn querier_election_converges_to_lowest_address() {
    let mut lan = Lan::new(
        MldConfig::default(),
        &["fe80::3", "fe80::1", "fe80::2"],
        &[],
        1,
    );
    lan.start(t(0));
    // After startup queries cross, only fe80::1 remains querier.
    assert_eq!(lan.querier_count(), 1);
    assert!(lan
        .routers
        .iter()
        .any(|(a_, r)| r.is_querier() && *a_ == a("fe80::1")));
}

#[test]
fn join_reaches_every_router_on_the_lan() {
    let mut lan = Lan::new(
        MldConfig::default(),
        &["fe80::1", "fe80::2"],
        &["fe80::aa"],
        2,
    );
    lan.start(t(0));
    lan.host(0, Call::Join(g(1)), t(5));
    assert!(lan.all_know_listener(g(1)), "both routers saw the report");
}

#[test]
fn report_suppression_between_hosts() {
    // Two hosts join the same group; queries must provoke at most one
    // report per cycle (the second host suppresses).
    let mut lan = Lan::new(
        MldConfig::default(),
        &["fe80::1"],
        &["fe80::aa", "fe80::bb"],
        3,
    );
    lan.start(t(0));
    lan.host(0, Call::Join(g(1)), t(1));
    lan.host(1, Call::Join(g(1)), t(1));
    // Run through several query cycles; membership must stay alive the
    // whole time purely via query-response.
    lan.run_until(t(800));
    assert!(lan.all_know_listener(g(1)));
}

#[test]
fn membership_survives_on_query_refresh_only() {
    let mut lan = Lan::new(MldConfig::default(), &["fe80::1"], &["fe80::aa"], 4);
    lan.start(t(0));
    lan.host(0, Call::Join(g(1)), t(1));
    lan.run_until(t(1000));
    assert!(
        lan.all_know_listener(g(1)),
        "reports answered queries for 1000 s; membership never expired"
    );
}

#[test]
fn leave_with_done_removes_membership_fast() {
    let mut lan = Lan::new(MldConfig::default(), &["fe80::1"], &["fe80::aa"], 5);
    lan.start(t(0));
    lan.host(0, Call::Join(g(1)), t(1));
    lan.host(0, Call::Leave(g(1)), t(50));
    // Last-listener queries go unanswered; removal within 2 s (2 × LLQI).
    lan.run_until(t(60));
    assert!(!lan.all_know_listener(g(1)));
    let removed = lan.log.iter().any(|(_, e)| e == &format!("del {}", g(1)));
    assert!(removed, "log: {:?}", lan.log);
}

#[test]
fn done_with_remaining_listener_keeps_membership() {
    let mut lan = Lan::new(
        MldConfig::default(),
        &["fe80::1"],
        &["fe80::aa", "fe80::bb"],
        6,
    );
    lan.start(t(0));
    lan.host(0, Call::Join(g(1)), t(1));
    lan.host(1, Call::Join(g(1)), t(2)); // suppressed or not, both joined
    lan.host(0, Call::Leave(g(1)), t(50));
    lan.run_until(t(70));
    assert!(
        lan.all_know_listener(g(1)),
        "the second listener answered the specific query"
    );
}

#[test]
fn silent_departure_expires_after_mli() {
    // The mobile-host case: the host vanishes without Done.
    let mut lan = Lan::new(MldConfig::default(), &["fe80::1"], &["fe80::aa"], 7);
    lan.start(t(0));
    lan.host(0, Call::Join(g(1)), t(1));
    // Host disappears at t=30: drop its state so it stops answering.
    lan.host(0, Call::Depart, t(30));
    lan.run_until(t(30 + 400));
    assert!(!lan.all_know_listener(g(1)), "expired after T_MLI");
    // And the removal happened no earlier than ~MLI after the last report.
    let removed = lan.log.iter().any(|(_, e)| e.starts_with("del"));
    assert!(removed);
}

#[test]
fn tuned_timers_expire_silent_listener_faster() {
    let cfg = MldConfig::with_query_interval(SimDuration::from_secs(15));
    let mut fast = Lan::new(cfg, &["fe80::1"], &["fe80::aa"], 8);
    fast.start(t(0));
    fast.host(0, Call::Join(g(1)), t(1));
    fast.host(0, Call::Depart, t(1));
    fast.run_until(t(100));
    assert!(
        !fast.all_know_listener(g(1)),
        "MLI = 2*15+10 = 40 s: expired well before t=100"
    );
}

/// Cells per table by kind: how many the eight LAN scenarios above
/// reach, and how many only the proptests do. A scenario may reach no
/// cell the proptests miss (so, with the proptests' own check, no
/// impossible one).
#[test]
fn scenarios_reach_only_cells_the_proptests_reach() {
    CELLS.with(|c| c.borrow_mut().clear());
    querier_election_converges_to_lowest_address();
    join_reaches_every_router_on_the_lan();
    report_suppression_between_hosts();
    membership_survives_on_query_refresh_only();
    leave_with_done_removes_membership_fast();
    done_with_remaining_listener_keeps_membership();
    silent_departure_expires_after_mli();
    tuned_timers_expire_silent_listener_faster();
    let scenarios = CELLS.with(|c| c.borrow().clone());
    let proptest = spec::proptest_cells();
    eprintln!("{}", spec::report(proptest, &scenarios));
    let extra: Vec<_> = scenarios.difference(proptest).collect();
    assert!(
        extra.is_empty(),
        "scenario cells the proptests never reach: {extra:?}"
    );
}
