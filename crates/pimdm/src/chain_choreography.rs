//! Multi-router PIM-DM choreography: a chain of three routers
//! (L0 - R0 - L1 - R1 - L2 - R2 - L3) driven message-by-message through a
//! tiny in-test relay — flood-and-prune propagation, graft chains, and
//! re-flood after prune expiry, without any simulator. Before each
//! machine call the relay classifies it into the cells of
//! `router::spec`'s tables, so the scenarios' coverage can be set
//! against the proptest's.

use crate::router::spec::{self, Call};
use crate::{PimConfig, PimDest, PimMessage, PimRouter, PimSend, RpfInfo};
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

const SRC: &str = "2001:db8:1::5"; // source on L0

/// Chain harness: router i has iface 0 on link i (toward the source) and
/// iface 1 on link i+1. Link-local address of router i, iface k is
/// fe80::(10*(i+1)+k).
struct Chain {
    routers: Vec<PimRouter>,
    /// Per-router membership is handled through set_membership directly.
    now: SimTime,
}

fn lladdr(router: usize, iface: u8) -> Ipv6Addr {
    a(&format!("fe80::{:x}", 10 * (router + 1) + iface as usize))
}

/// RPF toward SRC for router `i`: via iface 0; upstream neighbor is
/// router i-1's iface-1 address (None for router 0: source link attached).
fn rpf_for(i: usize) -> impl Fn(Ipv6Addr) -> Option<RpfInfo> {
    move |src: Ipv6Addr| {
        (src == a(SRC)).then(|| RpfInfo {
            iif: 0,
            upstream: (i > 0).then(|| lladdr(i - 1, 1)),
            metric_pref: 101,
            metric: i as u32 + 1,
        })
    }
}

impl Chain {
    /// Record the cells `call` on router `i` hits, before it is made.
    fn classify(&self, i: usize, call: Call) {
        let rpf = rpf_for(i)(a(SRC)).unwrap();
        let mut st = spec::state_of(&self.routers[i], (a(SRC), g(1)), rpf);
        let cells = spec::step(&mut st, &call, self.now, None).cells;
        CELLS.with(|c| c.borrow_mut().extend(cells));
    }

    fn new(n: usize, cfg: PimConfig) -> Chain {
        let rng = RngFactory::new(11);
        let mut routers: Vec<PimRouter> = (0..n)
            .map(|i| {
                let mut r = PimRouter::new(cfg, rng.indexed_stream("pim", i as u64));
                r.add_iface(0, lladdr(i, 0));
                r.add_iface(1, lladdr(i, 1));
                r
            })
            .collect();
        // Bring up neighbor relationships: router i sees router i+1 on its
        // iface 1 (link i+1), and router i+1 sees router i on its iface 0.
        let now = t(0);
        for r in routers.iter_mut().take(n) {
            let mut sends = Vec::new();
            sends.extend(r.start(now));
            drop(sends); // hellos relayed below
        }
        let mut chain = Chain { routers, now };
        // Exchange hellos manually.
        for i in 0..n {
            let hello = PimMessage::Hello {
                holdtime: SimDuration::from_secs(105),
            };
            if i > 0 {
                let from = lladdr(i, 0);
                chain.classify(i - 1, Call::Msg(1, from, hello.clone()));
                chain.routers[i - 1].on_message(1, from, &hello, now, &rpf_for(i - 1));
            }
            if i + 1 < n {
                let from = lladdr(i, 1);
                chain.classify(i + 1, Call::Msg(0, from, hello.clone()));
                chain.routers[i + 1].on_message(0, from, &hello, now, &rpf_for(i + 1));
            }
        }
        chain
    }

    /// Relay a control send from router `i` to its neighbor(s).
    fn relay(&mut self, i: usize, send: PimSend) {
        let now = self.now;
        let from = lladdr(i, send.iface);
        // iface 0 of router i is link i, shared with router i-1's iface 1.
        // iface 1 of router i is link i+1, shared with router i+1's iface 0.
        let neighbor = match send.iface {
            0 if i > 0 => Some((i - 1, 1u8)),
            1 if i + 1 < self.routers.len() => Some((i + 1, 0u8)),
            _ => None,
        };
        let Some((j, jiface)) = neighbor else { return };
        if let PimDest::Unicast(dst) = send.dest {
            if dst != lladdr(j, jiface) {
                return; // addressed to someone else (not on this chain)
            }
        }
        self.classify(j, Call::Msg(jiface, from, send.msg.clone()));
        let outs = self.routers[j].on_message(jiface, from, &send.msg, now, &rpf_for(j));
        for o in outs {
            self.relay(j, o);
        }
    }

    /// Source emits one data packet: walk it down the chain, collecting
    /// which links carried it. Returns the set of link indices (1-based:
    /// link k is between router k-1 and router k; link 0 is the source
    /// link).
    fn send_data(&mut self, group: GroupAddr) -> Vec<usize> {
        let now = self.now;
        let mut touched = vec![0usize];
        // Router 0 receives on iface 0 (from the source link).
        let mut frontier = vec![(0usize, 0u8)];
        while let Some((i, iface)) = frontier.pop() {
            self.classify(i, Call::Data(iface));
            let (fwd, sends) = self.routers[i].on_data(iface, a(SRC), group, now, &rpf_for(i));
            for s in sends {
                self.relay(i, s);
            }
            for out in fwd {
                if out == 1 && i + 1 < self.routers.len() {
                    touched.push(i + 1);
                    frontier.push((i + 1, 0u8));
                } else if out == 1 {
                    touched.push(i + 1); // leaf link at the end of the chain
                }
            }
        }
        touched.sort_unstable();
        touched.dedup();
        touched
    }

    fn advance(&mut self, to: SimTime) {
        // Fire deadlines in time order across routers.
        loop {
            let next = self.routers.iter().filter_map(|r| r.next_deadline()).min();
            let Some(when) = next else { break };
            if when > to {
                break;
            }
            self.now = when;
            for i in 0..self.routers.len() {
                if self.routers[i].next_deadline().is_some_and(|d| d <= when) {
                    self.classify(i, Call::Deadline);
                    let sends = self.routers[i].on_deadline(when);
                    for s in sends {
                        self.relay(i, s);
                    }
                }
            }
        }
        self.now = to;
    }

    fn join(&mut self, router: usize, group: GroupAddr) {
        let now = self.now;
        self.classify(router, Call::Member(1, true));
        let sends = self.routers[router].set_membership(1, group, true, now, &rpf_for(router));
        for s in sends {
            self.relay(router, s);
        }
    }

    fn leave(&mut self, router: usize, group: GroupAddr) {
        let now = self.now;
        self.classify(router, Call::Member(1, false));
        let sends = self.routers[router].set_membership(1, group, false, now, &rpf_for(router));
        for s in sends {
            self.relay(router, s);
        }
    }
}

#[test]
fn flood_then_prune_shrinks_to_member_path() {
    let mut c = Chain::new(3, PimConfig::default());
    // Member behind router 0 (on link 1).
    c.join(0, g(1));
    // First packet floods to every link with a router or member on it
    // (link 3 is an empty leaf: dense mode never floods it).
    let touched = c.send_data(g(1));
    assert_eq!(touched, vec![0, 1, 2], "initial flood");
    // Router 2 prunes link 2; router 1 then prunes link 1... but link 1
    // hosts the member, so router 0 must keep forwarding there. Prunes
    // cascade lazily (one hop per data packet), so drive a few packets.
    c.advance(t(10));
    let _ = c.send_data(g(1));
    c.advance(t(20));
    let touched = c.send_data(g(1));
    assert_eq!(
        touched,
        vec![0, 1],
        "pruned back to the member's link; member overrides router 1's prune"
    );
}

#[test]
fn graft_chain_reattaches_distant_member() {
    let mut c = Chain::new(3, PimConfig::default());
    // Nobody interested: everything prunes back to the source link
    // (lazily, one hop per packet).
    let _ = c.send_data(g(1));
    c.advance(t(10));
    let _ = c.send_data(g(1));
    c.advance(t(20));
    let touched = c.send_data(g(1));
    assert_eq!(touched, vec![0], "fully pruned");
    // Now a member appears at the far end: grafts must propagate
    // router 2 -> router 1 -> router 0 and re-open the whole chain.
    c.advance(t(30));
    c.join(2, g(1));
    c.advance(t(31));
    let touched = c.send_data(g(1));
    assert_eq!(touched, vec![0, 1, 2, 3], "graft chain re-opened the path");
}

#[test]
fn leave_prunes_back() {
    let mut c = Chain::new(3, PimConfig::default());
    c.join(2, g(1));
    let _ = c.send_data(g(1));
    c.advance(t(10));
    assert_eq!(c.send_data(g(1)), vec![0, 1, 2, 3]);
    // The member leaves: prunes cascade upstream over the next packets.
    c.advance(t(20));
    c.leave(2, g(1));
    c.advance(t(30));
    let _ = c.send_data(g(1));
    c.advance(t(40));
    let touched = c.send_data(g(1));
    assert_eq!(touched, vec![0], "pruned all the way back to the source");
}

#[test]
fn reflood_after_prune_hold_expires() {
    let mut c = Chain::new(2, PimConfig::default());
    let _ = c.send_data(g(1));
    c.advance(t(10));
    assert_eq!(c.send_data(g(1)), vec![0], "pruned");
    // Keep the (S,G) entry alive with data, then pass the 210 s hold time
    // (the Prune took effect at t = 3 s).
    c.advance(t(100));
    let _ = c.send_data(g(1));
    c.advance(t(200));
    let _ = c.send_data(g(1));
    c.advance(t(220));
    let touched = c.send_data(g(1));
    assert!(
        touched.contains(&1),
        "dense-mode re-flood after prune hold: {touched:?}"
    );
}

#[test]
fn state_expires_everywhere_after_data_timeout() {
    let mut c = Chain::new(3, PimConfig::default());
    c.join(2, g(1));
    let _ = c.send_data(g(1));
    assert!(c.routers.iter().all(|r| r.entry_count() == 1));
    // Silence for > 210 s: every router forgets the (S,G).
    c.advance(t(250));
    assert!(
        c.routers.iter().all(|r| r.entry_count() == 0),
        "stale source state deleted after the 210 s data timeout"
    );
}

/// Cells per table by kind: how many the scenarios above reach, and how
/// many only the proptest does. A scenario may reach no cell the
/// proptest misses (so, with the proptest's own check, no impossible
/// one).
#[test]
fn scenarios_reach_only_cells_the_proptest_reaches() {
    CELLS.with(|c| c.borrow_mut().clear());
    flood_then_prune_shrinks_to_member_path();
    graft_chain_reattaches_distant_member();
    leave_prunes_back();
    reflood_after_prune_hold_expires();
    state_expires_everywhere_after_data_timeout();
    let scenarios = CELLS.with(|c| c.borrow().clone());
    let proptest = spec::proptest_cells();
    eprintln!("{}", spec::report(proptest, &scenarios));
    let extra: Vec<_> = scenarios.difference(proptest).collect();
    assert!(
        extra.is_empty(),
        "scenario cells the proptest never reaches: {extra:?}"
    );
}
