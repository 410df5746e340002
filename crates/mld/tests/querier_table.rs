//! Querier election, cell by cell: every (state, event) pair of RFC 2710's
//! router state transition diagram (§6) for the Querier / Non-Querier
//! roles, one row and one direct sans-IO test on [`MldRouterPort`] each.
//!
//! The table is the contract. A *transition* row asserts the next state,
//! the outputs, the timers and the [`MldNote`] the owner turns into a
//! counter and a trace event; an *ignored* row asserts that the machine
//! stays put and emits nothing; an *impossible* row asserts that the timer
//! in question is not running in that state, so the event cannot occur.

// Test helpers may unwrap freely (the lint wall targets non-test code).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use mobicast_mld::config::{QUERY_RESPONSE_INTERVAL, ROBUSTNESS, STARTUP_QUERY_COUNT};
use mobicast_mld::{MldConfig, MldMessage, MldNote, MldRouterPort, RouterOutput};
use mobicast_sim::{SimDuration, SimTime};
use std::net::Ipv6Addr;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    Querier,
    NonQuerier,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Event {
    GeneralQueryTimer,
    OtherQuerierPresentTimer,
    QueryFromLowerAddress,
    QueryFromHigherAddress,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Cell {
    Transition,
    Ignored,
    Impossible,
}

use Cell::{Ignored, Impossible, Transition};
use Event::{
    GeneralQueryTimer, OtherQuerierPresentTimer, QueryFromHigherAddress, QueryFromLowerAddress,
};
use State::{NonQuerier, Querier};

/// (state, event, kind of cell, what RFC 2710 says and where, the test).
type Row = (State, Event, Cell, &'static str, fn());

const TABLE: &[Row] = &[
    (
        Querier,
        GeneralQueryTimer,
        Transition,
        "§6 Querier, 'gen. query timer expired': send general query, set gen. q. timer; \
         §7.2 [Query Interval] 125 s, §7.3 Maximum Response Delay = [Query Response Interval] \
         10 s, §7.6-7.7 the first [Startup Query Count] queries are [Startup Query Interval] apart",
        querier_general_query_timer_sends_a_query_and_rearms,
    ),
    (
        Querier,
        OtherQuerierPresentTimer,
        Impossible,
        "§6: the other-querier-present timer is set only on the arcs into Non-Querier",
        querier_has_no_other_querier_present_timer,
    ),
    (
        Querier,
        QueryFromLowerAddress,
        Transition,
        "§4 'MUST become a Non-Querier'; §6 Querier, 'query received from a router with a \
         lower IP address': set other querier present timer; §7.5 [Other Querier Present \
         Interval] = 2 x 125 + 10 / 2 = 255 s",
        querier_resigns_to_a_lower_address,
    ),
    (
        Querier,
        QueryFromHigherAddress,
        Ignored,
        "§4: only a Query whose source is 'numerically less than its own' address counts",
        querier_ignores_a_higher_address,
    ),
    (
        NonQuerier,
        GeneralQueryTimer,
        Impossible,
        "§6: the general query timer runs only in the Querier state",
        non_querier_has_no_general_query_timer,
    ),
    (
        NonQuerier,
        OtherQuerierPresentTimer,
        Transition,
        "§4 'resumes the role of Querier'; §6 Non-Querier, 'other querier present timer \
         expired': send general query, set gen. q. timer ([Query Interval], not the initial one)",
        non_querier_takes_over_when_the_other_querier_falls_silent,
    ),
    (
        NonQuerier,
        QueryFromLowerAddress,
        Transition,
        "§6 Non-Querier, 'query received from a router with a lower IP address': set other \
         querier present timer (a self-loop: the timer restarts, the role does not change)",
        non_querier_restarts_the_other_querier_present_timer,
    ),
    (
        NonQuerier,
        QueryFromHigherAddress,
        Ignored,
        "§4: only a Query from an address lower than its own keeps a router Non-Querier",
        non_querier_ignores_a_higher_address,
    ),
];

const ME: &str = "fe80::10";
const LOWER: &str = "fe80::1";
const HIGHER: &str = "fe80::20";

fn a(s: &str) -> Ipv6Addr {
    s.parse().unwrap()
}

fn t(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

fn cfg() -> MldConfig {
    MldConfig::default()
}

fn general_query() -> MldMessage {
    MldMessage::Query {
        max_response_delay: QUERY_RESPONSE_INTERVAL,
        group: None,
    }
}

/// A router at `ME`, started at t = 0 (the first startup query is out).
fn querier() -> MldRouterPort {
    let mut r = MldRouterPort::new(cfg(), a(ME));
    assert_eq!(r.start(t(0)), [RouterOutput::Send(general_query())]);
    assert!(r.is_querier() && r.take_notes().is_empty());
    r
}

/// The same router after it heard `LOWER`'s Query at t = 1.
fn non_querier() -> MldRouterPort {
    let mut r = querier();
    r.on_message(a(LOWER), &general_query(), t(1));
    assert!(!r.is_querier());
    r.take_notes();
    r
}

#[test]
fn the_table_has_exactly_one_row_per_cell_and_every_row_holds() {
    for state in [Querier, NonQuerier] {
        for event in [
            GeneralQueryTimer,
            OtherQuerierPresentTimer,
            QueryFromLowerAddress,
            QueryFromHigherAddress,
        ] {
            let rows = TABLE.iter().filter(|r| (r.0, r.1) == (state, event));
            assert_eq!(rows.count(), 1, "{state:?} x {event:?}");
        }
    }
    let count = |kind| TABLE.iter().filter(|r| r.2 == kind).count();
    assert_eq!(
        (count(Transition), count(Ignored), count(Impossible)),
        (4, 2, 2)
    );
    for (state, event, kind, rfc, check) in TABLE {
        eprintln!("{state:?} x {event:?}: {kind:?} — RFC 2710 {rfc}");
        check();
    }
}

#[test]
fn querier_general_query_timer_sends_a_query_and_rearms() {
    let mut r = querier();
    // Second (last) startup query after [Startup Query Interval] = 125 / 4 s.
    let startup = t(0) + cfg().startup_query_interval();
    assert_eq!(STARTUP_QUERY_COUNT, ROBUSTNESS);
    assert_eq!(
        cfg().startup_query_interval(),
        SimDuration::from_nanos(31_250_000_000)
    );
    assert_eq!(r.next_deadline(), Some(startup));
    assert_eq!(
        r.on_deadline(startup),
        [RouterOutput::Send(general_query())]
    );
    // From then on every [Query Interval].
    let mut due = startup;
    for _ in 0..3 {
        due += cfg().query_interval;
        assert_eq!(r.next_deadline(), Some(due));
        assert_eq!(r.on_deadline(due), [RouterOutput::Send(general_query())]);
    }
    assert!(r.is_querier());
    assert!(r.take_notes().is_empty(), "no transition, no note");
}

#[test]
fn querier_has_no_other_querier_present_timer() {
    let mut r = querier();
    // The only deadline a listener-less Querier has is its next General
    // Query, however long it runs; nothing ever re-elects it.
    for _ in 0..5 {
        let due = r.next_deadline().unwrap();
        assert_eq!(r.on_deadline(due), [RouterOutput::Send(general_query())]);
        assert!(r.is_querier());
    }
    assert!(r.take_notes().is_empty());
}

#[test]
fn querier_resigns_to_a_lower_address() {
    let mut r = querier();
    assert!(r.on_message(a(LOWER), &general_query(), t(1)).is_empty());
    assert!(!r.is_querier());
    assert_eq!(
        r.take_notes(),
        [MldNote::QuerierResigned { other: a(LOWER) }]
    );
    // The general query timer is stopped; only the other-querier-present
    // timer runs.
    assert_eq!(
        cfg().other_querier_present_interval(),
        SimDuration::from_secs(255)
    );
    assert_eq!(r.next_deadline(), Some(t(1 + 255)));
}

#[test]
fn querier_ignores_a_higher_address() {
    let mut r = querier();
    let before = r.next_deadline();
    assert!(r.on_message(a(HIGHER), &general_query(), t(1)).is_empty());
    assert!(r.is_querier());
    assert!(r.take_notes().is_empty());
    assert_eq!(r.next_deadline(), before, "the query schedule did not move");
}

#[test]
fn non_querier_has_no_general_query_timer() {
    let mut r = non_querier();
    assert_eq!(r.next_deadline(), Some(t(1 + 255)));
    // At the instant the startup query would have gone out, and at the
    // next periodic one: nothing to do.
    for due in [t(0) + cfg().startup_query_interval(), t(200)] {
        assert!(r.on_deadline(due).is_empty());
        assert!(!r.is_querier());
    }
    assert!(r.take_notes().is_empty());
    assert_eq!(r.next_deadline(), Some(t(1 + 255)));
}

#[test]
fn non_querier_takes_over_when_the_other_querier_falls_silent() {
    let mut r = non_querier();
    let due = t(1 + 255);
    assert_eq!(r.on_deadline(due), [RouterOutput::Send(general_query())]);
    assert!(r.is_querier());
    assert_eq!(r.take_notes(), [MldNote::QuerierElected]);
    // Not a startup: the next query is a whole [Query Interval] away.
    assert_eq!(r.next_deadline(), Some(due + cfg().query_interval));
}

#[test]
fn non_querier_restarts_the_other_querier_present_timer() {
    let mut r = non_querier();
    assert!(r.on_message(a(LOWER), &general_query(), t(100)).is_empty());
    assert!(!r.is_querier());
    assert!(r.take_notes().is_empty(), "a self-loop is not a transition");
    assert_eq!(r.next_deadline(), Some(t(100 + 255)));
    // Any lower address will do, not only the current querier's.
    assert!(r
        .on_message(a("fe80::2"), &general_query(), t(150))
        .is_empty());
    assert_eq!(r.next_deadline(), Some(t(150 + 255)));
    assert!(r.take_notes().is_empty());
}

#[test]
fn non_querier_ignores_a_higher_address() {
    let mut r = non_querier();
    assert!(r.on_message(a(HIGHER), &general_query(), t(100)).is_empty());
    assert!(!r.is_querier());
    assert!(r.take_notes().is_empty());
    assert_eq!(r.next_deadline(), Some(t(1 + 255)), "timer untouched");
}
