//! MLD specified once: RFC 2710's router tables — the querier roles and
//! the per-group listener states — and its host table as data, an
//! interpreter per machine that runs them as the model of one interface
//! with two groups, and one proptest per machine that feeds the model and
//! the machine the same random calls and compares the two after every
//! step: the state, the outputs, the notes and `next_deadline()`.
//!
//! A row is `(state, event, guard) → (next state, outputs, timers, kind,
//! citation)`. A *transition* is what the RFC prescribes, an *ignored*
//! row an event it leaves without effect in that state, an *impossible*
//! row an event that cannot occur in that state. A cell is a row in one
//! concrete state. Citations name RFC 2710's sections by topic or the
//! paper. Timer lengths are written from RFC 2710 §7, not read from
//! `config`. The query delay a host draws is not modelled: the model
//! checks the machine's draw lies in `[now, now + Maximum Response
//! Delay)` and adopts it.

use super::*;
use crate::host::MldHostPort;
use mobicast_sim::SimDuration;
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;
use {Ev::*, Kind::*, Out::*, St::*, Timer::*, Tm::*, G::*};

/// Router roles: Querier, NonQuerier. Router groups: NoListeners,
/// Present (Listeners Present), Checking (Checking Listeners). Host
/// groups: NonListener, Delaying, Idle (§5's Delaying and Idle
/// Listener). `Each` stands for every state of the table (as a next
/// state: unchanged).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum St {
    Querier,
    NonQuerier,
    NoListeners,
    Present,
    Checking,
    NonListener,
    Delaying,
    Idle,
    Each,
}

/// The general query, other querier present, rexmt, listener and report
/// delay timers. `Startup` is the general query timer at the [Startup
/// Query Interval], `LastListener` the listener timer at [Last Listener
/// Query Interval] × [Last Listener Query Count].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Timer {
    General,
    Startup,
    Other,
    Rexmt,
    Listener,
    LastListener,
    Delay,
}

/// The events. The guard each one asks, answered `Yes` or `No`:
/// `Expire(General)`: is the startup query still to come? `Report`: is
/// the listener table full? `Done`: are we Querier? `SpecificQuery`: are
/// we Querier after the election? `Leave`, `ReportHeard`: is our flag
/// set (were we the last to report)? `QueryAll`, `QueryThis`: is the
/// delay drawn earlier than the pending one?
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Ev {
    QueryLower,
    QueryHigher,
    Report,
    Done,
    SpecificQuery,
    Join,
    JoinQuiet,
    Leave,
    Depart,
    QueryAll,
    QueryThis,
    QueryOther,
    ReportHeard,
    Expire(Timer),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum G {
    Any,
    Yes,
    No,
}

/// Sends, membership changes, notes and the host's flag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Out {
    SendGeneral,
    SendSpecific,
    Added,
    Removed,
    Elected,
    Resigned,
    Shed,
    SendReport,
    SendDone,
    Flag,
    Unflag,
}

/// `Earliest` arms at the instant the machine drew.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Tm {
    Arm(Timer),
    Stop(Timer),
    Earliest(Timer),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Kind {
    Transition,
    Ignored,
    Impossible,
}

type Row = (
    St,
    Ev,
    G,
    St,
    &'static [Out],
    &'static [Tm],
    Kind,
    &'static str,
);

const GQ_STARTUP: &str = "§6 Querier, 'gen. query timer expired': send general query, set gen. \
    q. timer; §7.3 Maximum Response Delay = [Query Response Interval] 10 s; §7.6-7.7 the first \
    [Startup Query Count] = 2 queries are [Startup Query Interval] = 125 / 4 s apart";
const GQ: &str = "§6 Querier, 'gen. query timer expired': send general query, set gen. q. \
    timer; §7.2 [Query Interval] 125 s";
const RESIGN: &str = "§4 'MUST become a Non-Querier'; §6 Querier, 'query received from a \
    router with a lower IP address': set other querier present timer; §7.5 [Other Querier \
    Present Interval] = 2 x 125 + 10 / 2 = 255 s";
const HIGHER: &str = "§4: only a Query whose source is 'numerically less than its own' \
    address counts";
const TAKEOVER: &str = "§4 'resumes the role of Querier'; §6 Non-Querier, 'other querier \
    present timer expired': send general query, set gen. q. timer ([Query Interval], not the \
    initial one)";
const RESTART: &str = "§6 Non-Querier, 'query received from a router with a lower IP \
    address': set other querier present timer (a self-loop: the timer restarts, the role \
    does not change)";
const NEW: &str = "§4, §6 No Listeners, 'report received': notify routing +, start timer \
    [Multicast Listener Interval] (§7.4: 2 x 125 + 10 = 260 s)";
const FULL: &str = "DESIGN.md \"Overload model\": a full listener table refuses the newcomer";
const REFRESH: &str = "§4, §6 'report received': start timer; in Checking Listeners also \
    clear rexmt timer";
const DONE: &str = "§4, §6 'done received': start timer* ([LLQI] x [LLQC] = 2 s), start \
    rexmt timer, send m-a-s query; §4 again for every Done while listeners remain";
const NOT_QUERIER: &str = "§4: only the Querier acts on a Done";
const NO_ADDRESS: &str = "§4: a Done or m-a-s query names an address without listeners";
const MAS_NON_QUERIER: &str = "§4 has a Non-Querier lower the address's timer to [LLQC] x the \
    query's Maximum Response Delay ([LLQI] x [LLQC] = 2 s); the machine does not (open, \
    ROADMAP item 1)";
const MAS: &str = "§4: a Querier's timer does not follow other routers' queries; in \
    Checking Listeners it is [LLQI] x [LLQC] or less already";
const EXPIRED: &str = "§4, §6 'timer expired': notify routing - (paper §4.4: the leave \
    delay of a receiver that moved away without Done)";
const REXMT: &str = "§4, §6 'rexmt timer expired': send m-a-s query; with [LLQC] = 2 (§7.9) \
    it is the last, and Checking Listeners then answers every event as Listeners Present does";
const BEFORE: &str = "[LLQI] < [LLQI] x [LLQC]: the last query goes out before the timer \
    runs out";
const NO_TIMER: &str = "the timer does not run in this state";
const JOIN: &str = "§5 'start listening': send report, set flag, start timer; paper §4.3.1: \
    the unsolicited Report on join; §7.10 repeated after [Unsolicited Report Interval] 10 s";
const QUIET: &str = "paper §4.3.1: a host configured to wait for the next Query";
const LISTENING: &str = "the interface listens already";
const LEAVE: &str = "§5 'stop listening': stop timer, send done if flag set, clear flag";
const DEPART: &str = "paper §4.4: a host that moved away cannot send Done on the old link";
const NON_LISTENER: &str = "§5: the address is not listened to";
const DELAY: &str = "§5 'query received': start timer (a random delay in [0, Maximum \
    Response Delay)), or reset it if the delay drawn is shorter";
const KEEP: &str = "§5: a pending report due sooner is kept";
const OTHER_ADDRESS: &str = "§5: a m-a-s query for another address";
const SUPPRESS: &str = "§5 'report received': stop timer, clear flag (another listener \
    reported last)";
const SEND: &str = "§5 'timer expired': send report, set flag; §7.10 the join's one repeat \
    ([Robustness Variable] - 1) is then spent";

#[rustfmt::skip]
pub(crate) const ROLES: &[Row] = &[
    (Querier, Expire(General), Yes, Querier, &[SendGeneral], &[Arm(Startup)], Transition, GQ_STARTUP),
    (Querier, Expire(General), No, Querier, &[SendGeneral], &[Arm(General)], Transition, GQ),
    (Querier, Expire(Other), Any, Querier, &[], &[], Impossible, "§6: the other-querier-present timer is set only on the arcs into Non-Querier"),
    (Querier, QueryLower, Any, NonQuerier, &[Resigned], &[Stop(General), Arm(Other)], Transition, RESIGN),
    (Querier, QueryHigher, Any, Querier, &[], &[], Ignored, HIGHER),
    (NonQuerier, Expire(General), Any, NonQuerier, &[], &[], Impossible, "§6: the general query timer runs only in the Querier state"),
    (NonQuerier, Expire(Other), Any, Querier, &[SendGeneral, Elected], &[Arm(General)], Transition, TAKEOVER),
    (NonQuerier, QueryLower, Any, NonQuerier, &[], &[Arm(Other)], Transition, RESTART),
    (NonQuerier, QueryHigher, Any, NonQuerier, &[], &[], Ignored, "§4: only a Query from an address lower than its own keeps a router Non-Querier"),
];

#[rustfmt::skip]
pub(crate) const GROUPS: &[Row] = &[
    (NoListeners, Report, No, Present, &[Added], &[Arm(Listener)], Transition, NEW),
    (NoListeners, Report, Yes, NoListeners, &[Shed], &[], Transition, FULL),
    (Present, Report, Any, Present, &[], &[Arm(Listener)], Transition, REFRESH),
    (Checking, Report, Any, Present, &[], &[Arm(Listener), Stop(Rexmt)], Transition, REFRESH),
    (NoListeners, Done, Any, NoListeners, &[], &[], Ignored, NO_ADDRESS),
    (Present, Done, Yes, Checking, &[SendSpecific], &[Arm(LastListener), Arm(Rexmt)], Transition, DONE),
    (Checking, Done, Yes, Checking, &[SendSpecific], &[Arm(LastListener), Arm(Rexmt)], Transition, DONE),
    (Present, Done, No, Present, &[], &[], Ignored, NOT_QUERIER),
    (Checking, Done, No, Checking, &[], &[], Ignored, NOT_QUERIER),
    (NoListeners, SpecificQuery, Any, NoListeners, &[], &[], Ignored, NO_ADDRESS),
    (Present, SpecificQuery, No, Present, &[], &[], Ignored, MAS_NON_QUERIER),
    (Present, SpecificQuery, Yes, Present, &[], &[], Ignored, MAS),
    (Checking, SpecificQuery, Any, Checking, &[], &[], Ignored, MAS),
    (NoListeners, Expire(Listener), Any, NoListeners, &[], &[], Impossible, NO_TIMER),
    (Present, Expire(Listener), Any, NoListeners, &[Removed], &[], Transition, EXPIRED),
    (Checking, Expire(Listener), Any, Checking, &[], &[], Impossible, BEFORE),
    (NoListeners, Expire(Rexmt), Any, NoListeners, &[], &[], Impossible, NO_TIMER),
    (Present, Expire(Rexmt), Any, Present, &[], &[], Impossible, NO_TIMER),
    (Checking, Expire(Rexmt), Any, Present, &[SendSpecific], &[], Transition, REXMT),
];

#[rustfmt::skip]
pub(crate) const HOST: &[Row] = &[
    (NonListener, Join, Any, Delaying, &[SendReport, Flag], &[Arm(Delay)], Transition, JOIN),
    (Delaying, Join, Any, Delaying, &[], &[], Ignored, LISTENING),
    (Idle, Join, Any, Idle, &[], &[], Ignored, LISTENING),
    (NonListener, JoinQuiet, Any, Idle, &[], &[], Transition, QUIET),
    (Delaying, JoinQuiet, Any, Delaying, &[], &[], Ignored, LISTENING),
    (Idle, JoinQuiet, Any, Idle, &[], &[], Ignored, LISTENING),
    (NonListener, Leave, Any, NonListener, &[], &[], Ignored, NON_LISTENER),
    (Delaying, Leave, Yes, NonListener, &[SendDone], &[Stop(Delay)], Transition, LEAVE),
    (Delaying, Leave, No, NonListener, &[], &[Stop(Delay)], Transition, LEAVE),
    (Idle, Leave, Yes, NonListener, &[SendDone], &[], Transition, LEAVE),
    (Idle, Leave, No, NonListener, &[], &[], Transition, LEAVE),
    (NonListener, Depart, Any, NonListener, &[], &[], Ignored, NON_LISTENER),
    (Delaying, Depart, Any, NonListener, &[], &[Stop(Delay)], Transition, DEPART),
    (Idle, Depart, Any, NonListener, &[], &[], Transition, DEPART),
    (NonListener, QueryAll, Any, NonListener, &[], &[], Ignored, NON_LISTENER),
    (Delaying, QueryAll, Yes, Delaying, &[], &[Earliest(Delay)], Transition, DELAY),
    (Delaying, QueryAll, No, Delaying, &[], &[], Ignored, KEEP),
    (Idle, QueryAll, Any, Delaying, &[], &[Earliest(Delay)], Transition, DELAY),
    (NonListener, QueryThis, Any, NonListener, &[], &[], Ignored, NON_LISTENER),
    (Delaying, QueryThis, Yes, Delaying, &[], &[Earliest(Delay)], Transition, DELAY),
    (Delaying, QueryThis, No, Delaying, &[], &[], Ignored, KEEP),
    (Idle, QueryThis, Any, Delaying, &[], &[Earliest(Delay)], Transition, DELAY),
    (Each, QueryOther, Any, Each, &[], &[], Ignored, OTHER_ADDRESS),
    (NonListener, ReportHeard, Any, NonListener, &[], &[], Ignored, NON_LISTENER),
    (Delaying, ReportHeard, Any, Idle, &[Unflag], &[Stop(Delay)], Transition, SUPPRESS),
    (Idle, ReportHeard, Yes, Idle, &[Unflag], &[], Transition, SUPPRESS),
    (Idle, ReportHeard, No, Idle, &[], &[], Ignored, SUPPRESS),
    (NonListener, Expire(Delay), Any, NonListener, &[], &[], Impossible, NO_TIMER),
    (Delaying, Expire(Delay), Any, Idle, &[SendReport, Flag], &[], Transition, SEND),
    (Idle, Expire(Delay), Any, Idle, &[], &[], Impossible, NO_TIMER),
];

/// The tables, their names and the states a row stands for.
const TABLES: [(&str, &[Row], &[St]); 3] = [
    ("router roles", ROLES, &[Querier, NonQuerier]),
    ("router groups", GROUPS, &[NoListeners, Present, Checking]),
    ("host groups", HOST, &[NonListener, Delaying, Idle]),
];

/// A cell: (table, row, state).
pub(crate) type Cell = (usize, usize, St);

/// The row of table `t` for `(state, ev, g)`, its cell recorded; none or
/// two is a table bug.
fn look_up(cells: &mut Vec<Cell>, t: usize, state: St, ev: Ev, g: G) -> (usize, &'static Row) {
    let table = TABLES[t].1;
    let fits = |r: &Row| [Each, state].contains(&r.0) && r.1 == ev && [Any, g].contains(&r.2);
    let rows: Vec<usize> = (0..table.len()).filter(|&i| fits(&table[i])).collect();
    assert_eq!(rows.len(), 1, "{state:?} × {ev:?} × {g:?}: rows {rows:?}");
    cells.push((t, rows[0], state));
    (rows[0], &table[rows[0]])
}

fn yes(b: bool) -> G {
    [No, Yes][usize::from(b)]
}

/// §7.3 [Query Response Interval], the Maximum Response Delay of a
/// General Query.
const QRI: SimDuration = SimDuration::from_secs(10);
/// §7.8 [Last Listener Query Interval], the Maximum Response Delay of a
/// Multicast-Address-Specific Query and the time between two.
const LLQI: SimDuration = SimDuration::from_secs(1);

/// How long timer `t` runs once armed, with T_Query = `q`: RFC 2710 §7's
/// defaults, written from the text.
fn length(t: Timer, q: SimDuration) -> SimDuration {
    match t {
        General => q,                        // §7.2 [Query Interval]
        Startup => q / 4,                    // §7.6 [Startup Query Interval]
        Other => q * 2 + QRI / 2,            // §7.5 RV · [Query Interval] + [QRI] / 2
        Listener => q * 2 + QRI,             // §7.4 RV · [Query Interval] + [QRI]
        LastListener => LLQI * 2,            // §7.8-7.9 [LLQI] · [LLQC]
        Rexmt => LLQI,                       // §7.8
        Delay => SimDuration::from_secs(10), // §7.10 [Unsolicited Report Interval]
    }
}

/// Every running timer by subject (`None`: the router's role) and timer.
type Timers = BTreeMap<(Option<GroupAddr>, Timer), SimTime>;

/// Run a row's timer column for `subject`: the expired timer is spent,
/// then each entry in turn; `Earliest` arms at `chosen`.
fn run_timers(
    st: &mut Timers,
    subject: Option<GroupAddr>,
    ev: Ev,
    tms: &[Tm],
    now: SimTime,
    q: SimDuration,
    chosen: Option<SimTime>,
) {
    if let Expire(t) = ev {
        st.remove(&(subject, t));
    }
    for tm in tms {
        match *tm {
            Arm(t) => {
                let slot = [(Startup, General), (LastListener, Listener)];
                let slot = slot.into_iter().find_map(|(a, b)| (a == t).then_some(b));
                st.insert((subject, slot.unwrap_or(t)), now + length(t, q));
            }
            Stop(t) => {
                st.remove(&(subject, t));
            }
            Earliest(t) => {
                st.insert((subject, t), chosen.expect("the machine's draw"));
            }
        }
    }
}

/// What one call does, as the tables predict it: the router's sends come
/// out before its membership changes.
#[derive(Default)]
pub(crate) struct Effect {
    pub(crate) cells: Vec<Cell>,
    sends: Vec<MldMessage>,
    changes: Vec<RouterOutput>,
    notes: Vec<MldNote>,
}

/// The router as the tables read and write it.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Router {
    me: Ipv6Addr,
    q: SimDuration,
    budget: Option<u32>,
    role: St,
    /// The startup query is still to come.
    startup: bool,
    timers: Timers,
}

impl Router {
    /// A group's state: its listener timer runs while it has listeners,
    /// its rexmt timer while queries are still to go out after a Done.
    fn state(&self, g: GroupAddr) -> St {
        let has = |t| self.timers.contains_key(&(Some(g), t));
        [[NoListeners; 2], [Present, Checking]][usize::from(has(Listener))][usize::from(has(Rexmt))]
    }
}

pub(crate) fn router_state(r: &MldRouterPort) -> Router {
    let (t, mut timers) = (&r.groups, Timers::new());
    let role = [
        (r.next_general_query, General),
        (r.other_querier_deadline, Other),
    ];
    for (at, timer) in role {
        timers.extend(at.map(|at| ((None, timer), at)));
    }
    for slot in t.slots() {
        let g = Some(t.key_of(slot));
        timers.insert((g, Listener), t.expires_at(slot));
        timers.extend(t.row(slot).map(|(_, at)| ((g, Rexmt), at)));
    }
    Router {
        me: r.my_addr,
        q: r.cfg.query_interval,
        budget: r.budget,
        role: [NonQuerier, Querier][usize::from(r.is_querier())],
        startup: r.startup_left > 1,
        timers,
    }
}

/// A host as the table reads and writes it: the flag of each group
/// listened to, and the report delay timers.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Host {
    flags: BTreeMap<GroupAddr, bool>,
    timers: Timers,
}

impl Host {
    fn state(&self, g: GroupAddr) -> St {
        let delaying = self.timers.contains_key(&(Some(g), Delay));
        match self.flags.contains_key(&g) {
            false => NonListener,
            true => [Idle, Delaying][usize::from(delaying)],
        }
    }
}

pub(crate) fn host_state(h: &MldHostPort) -> Host {
    let flags = h.groups.iter().map(|(g, s)| (*g, s.last_reporter));
    let timers = h
        .groups
        .iter()
        .filter_map(|(g, s)| Some(((Some(*g), Delay), s.pending?)));
    Host {
        flags: flags.collect(),
        timers: timers.collect(),
    }
}

/// One machine call, as the harnesses make it: the router's `start`, a
/// message heard, the host's application calls and link departure, and
/// the deadline.
pub(crate) enum Call {
    Start,
    Heard(Ipv6Addr, MldMessage),
    Join(GroupAddr),
    JoinQuiet(GroupAddr),
    Leave(GroupAddr),
    Depart,
    Deadline,
}

pub(crate) fn on_router(r: &mut MldRouterPort, call: &Call, now: SimTime) -> Vec<RouterOutput> {
    match call {
        Call::Start => r.start(now),
        Call::Heard(from, msg) => r.on_message(*from, msg, now),
        _ => r.on_deadline(now),
    }
}

pub(crate) fn on_host(h: &mut MldHostPort, call: &Call, now: SimTime) -> Vec<MldMessage> {
    match *call {
        Call::Join(g) => return h.join(g, now).into_iter().collect(),
        Call::Leave(g) => return h.leave(g).into_iter().collect(),
        Call::Deadline => return h.on_deadline(now),
        Call::JoinQuiet(g) => h.join_quiet(g),
        Call::Depart => h.depart_link(),
        Call::Heard(
            _,
            MldMessage::Query {
                max_response_delay: mrd,
                group,
            },
        ) => h.on_query(group, mrd, now),
        Call::Heard(_, MldMessage::Report { group }) => h.on_report_heard(group),
        Call::Start | Call::Heard(..) => {}
    }
    Vec::new()
}

fn query(max_response_delay: SimDuration, group: Option<GroupAddr>) -> MldMessage {
    MldMessage::Query {
        max_response_delay,
        group,
    }
}

/// The timers of `timers` due at `now`, as expiry events.
fn due(timers: &Timers, now: SimTime) -> Vec<(Option<GroupAddr>, Timer)> {
    let due = timers.iter().filter(|(_, at)| **at <= now);
    due.map(|(k, _)| *k).collect()
}

/// The (subject, event, guard) of each cell `call` hits on the router, in
/// the order the machine takes them. The subject is the role (`None`) or
/// a group.
fn classify_router(st: &Router, call: &Call, now: SimTime) -> Vec<(Option<GroupAddr>, Ev, G)> {
    let querier = st.role == Querier;
    match call {
        Call::Heard(from, MldMessage::Query { group, .. }) => {
            let lower = *from < st.me;
            let role = (None, [QueryHigher, QueryLower][usize::from(lower)], Any);
            let group = group.map(|g| (Some(g), SpecificQuery, yes(querier && !lower)));
            [role].into_iter().chain(group).collect()
        }
        Call::Heard(_, MldMessage::Report { group }) => {
            let held = st.timers.keys().filter(|k| k.1 == Listener).count();
            let full = st.budget.is_some_and(|cap| held >= cap as usize);
            vec![(Some(*group), Report, yes(full))]
        }
        Call::Heard(_, MldMessage::Done { group }) => vec![(Some(*group), Done, yes(querier))],
        Call::Start | Call::Deadline => {
            let guard = |t| [Any, yes(st.startup)][usize::from(t == General)];
            let due = due(&st.timers, now).into_iter();
            due.map(|(s, t)| (s, Expire(t), guard(t))).collect()
        }
        _ => Vec::new(),
    }
}

/// Run `call` at `now` on the router model: classify it, then apply each
/// cell's row in turn.
pub(crate) fn step_router(st: &mut Router, call: &Call, now: SimTime) -> Effect {
    if let Call::Start = call {
        st.timers.insert((None, General), now);
    }
    let from = match call {
        Call::Heard(from, _) => *from,
        _ => st.me,
    };
    let mut fx = Effect::default();
    for (subject, ev, g) in classify_router(st, call, now) {
        let (t, cur) = subject.map_or((0, st.role), |grp| (1, st.state(grp)));
        let (i, &(_, _, _, next, outs, tms, _, _)) = look_up(&mut fx.cells, t, cur, ev, g);
        run_timers(&mut st.timers, subject, ev, tms, now, st.q, None);
        st.startup &= !tms.contains(&Arm(Startup));
        let group = || subject.expect("a group row");
        for out in outs {
            match out {
                SendGeneral => fx.sends.push(query(QRI, None)),
                SendSpecific => fx.sends.push(query(LLQI, subject)),
                Added => fx.changes.push(RouterOutput::ListenerAdded(group())),
                Removed => fx.changes.push(RouterOutput::ListenerRemoved(group())),
                Elected => fx.notes.push(MldNote::QuerierElected),
                Resigned => fx.notes.push(MldNote::QuerierResigned { other: from }),
                Shed => fx.notes.push(MldNote::ListenerShed { group: group() }),
                _ => unreachable!("{out:?} is a host output"),
            }
        }
        let next = if next == Each { cur } else { next };
        match subject {
            None => st.role = next,
            Some(grp) => assert_eq!(st.state(grp), next, "the timers of group row {i}"),
        }
    }
    fx
}

/// The two groups of the model.
pub(crate) fn groups() -> [GroupAddr; 2] {
    [GroupAddr::test_group(1), GroupAddr::test_group(2)]
}

/// The (group, event, guard) of each cell `call` hits on the host, in the
/// order the machine takes them; `after` is the machine after the call,
/// whose report delays say which draws were earlier.
fn classify_host(st: &Host, call: &Call, now: SimTime, after: &Host) -> Vec<(GroupAddr, Ev, G)> {
    let flag = |g: &GroupAddr| yes(st.flags.get(g) == Some(&true));
    let drew = |g: GroupAddr| {
        let k = (Some(g), Delay);
        yes(st.timers.get(&k) != after.timers.get(&k))
    };
    match call {
        Call::Join(g) => vec![(*g, Join, Any)],
        Call::JoinQuiet(g) => vec![(*g, JoinQuiet, Any)],
        Call::Leave(g) => vec![(*g, Leave, flag(g))],
        Call::Depart => groups().map(|g| (g, Depart, Any)).to_vec(),
        Call::Heard(_, MldMessage::Query { group, .. }) => groups()
            .map(|g| {
                let ev = match group {
                    None => QueryAll,
                    Some(q) => [QueryOther, QueryThis][usize::from(*q == g)],
                };
                (g, ev, drew(g))
            })
            .to_vec(),
        Call::Heard(_, MldMessage::Report { group }) => vec![(*group, ReportHeard, flag(group))],
        Call::Deadline => due(&st.timers, now)
            .into_iter()
            .map(|(g, t)| (g.expect("a group's timer"), Expire(t), Any))
            .collect(),
        Call::Start | Call::Heard(..) => Vec::new(),
    }
}

/// Run `call` at `now` on the host model; `after` is the machine after
/// the same call, whose report delay a query's cell adopts once checked.
pub(crate) fn step_host(st: &mut Host, call: &Call, now: SimTime, after: &Host) -> Effect {
    // The host arms no timer whose length is T_Query's.
    let (mut fx, q) = (Effect::default(), SimDuration::ZERO);
    for (g, ev, guard) in classify_host(st, call, now, after) {
        let cur = st.state(g);
        let (i, &(_, _, _, next, outs, tms, _, _)) = look_up(&mut fx.cells, 2, cur, ev, guard);
        if cur == NonListener && ![NonListener, Each].contains(&next) {
            st.flags.insert(g, false);
        }
        let chosen = after.timers.get(&(Some(g), Delay)).copied();
        if tms.contains(&Earliest(Delay)) {
            let Call::Heard(
                _,
                MldMessage::Query {
                    max_response_delay, ..
                },
            ) = call
            else {
                unreachable!("a draw without a query")
            };
            let (v, old) = (chosen.expect("a draw"), st.timers.get(&(Some(g), Delay)));
            let window = now <= v && (v == now || v < now + *max_response_delay);
            assert!(window && old.is_none_or(|o| v < *o), "report at {v}");
        }
        run_timers(&mut st.timers, Some(g), ev, tms, now, q, chosen);
        for out in outs {
            match out {
                SendReport => fx.sends.push(MldMessage::Report { group: g }),
                SendDone => fx.sends.push(MldMessage::Done { group: g }),
                Flag | Unflag => {
                    st.flags.insert(g, *out == Flag);
                }
                _ => unreachable!("{out:?} is a router output"),
            }
        }
        if next == NonListener {
            st.flags.remove(&g);
        }
        let next = if next == Each { cur } else { next };
        assert_eq!(st.state(g), next, "the timers of host row {i}");
    }
    fx
}

const fn fe80(last: u16) -> Ipv6Addr {
    Ipv6Addr::new(0xfe80, 0, 0, 0, 0, 0, 0, last)
}

/// The call one random `u64` makes on the router at fe80::10: a general
/// or specific Query from a lower (fe80::1) or higher address, or a
/// listener's Report or Done.
fn draw_router(x: u64) -> Call {
    let g = groups()[(x >> 4) as usize % 2];
    let from = [fe80(1), fe80(0x20), fe80(0x21), fe80(0x22)][(x >> 5) as usize % 4];
    let from_host = fe80(0x99);
    match x % 16 {
        0 | 1 => Call::Heard(from, query(QRI, None)),
        2 | 3 => Call::Heard(from, query(LLQI, Some(g))),
        4..=9 => Call::Heard(from_host, MldMessage::Report { group: g }),
        _ => Call::Heard(from_host, MldMessage::Done { group: g }),
    }
}

/// The call one random `u64` makes on the host: the application's join,
/// quiet join and leave, link departure, a Query with a Maximum Response
/// Delay of 0, 1 or 10 s, or another listener's Report.
fn draw_host(x: u64) -> Call {
    let g = groups()[(x >> 4) as usize % 2];
    let mrd = SimDuration::from_secs([0, 1, 10][(x >> 5) as usize % 3]);
    match x % 16 {
        0..=2 => Call::Join(g),
        3 => Call::JoinQuiet(g),
        4 | 5 => Call::Leave(g),
        6 => Call::Depart,
        7..=9 => Call::Heard(fe80(1), query(mrd, None)),
        10 | 11 => Call::Heard(fe80(1), query(mrd, Some(g))),
        _ => Call::Heard(fe80(0x98), MldMessage::Report { group: g }),
    }
}

/// The clock after a step drawn `y`: a short or a long advance, or a
/// running timer's deadline or 1 ns either side of it.
fn advance(now: SimTime, y: u64, timers: &Timers) -> SimTime {
    let at: Vec<SimTime> = timers.values().copied().collect();
    let at = at.get((y / 16) as usize % at.len().max(1)).copied();
    let (at, ns) = (at.unwrap_or(now), SimDuration::from_nanos(1));
    now.max(match y % 16 {
        0..=9 => now + SimDuration::from_millis(y / 16 % 3_000),
        10 => now + SimDuration::from_millis(y / 16 % 600_000),
        11 => at,
        12 => at - ns,
        13 => at + ns,
        _ => now,
    })
}

thread_local! {
    static REACHED: RefCell<BTreeSet<Cell>> = const { RefCell::new(BTreeSet::new()) };
}

/// Make `call` on the router and its model alike, compare everything,
/// and record the cells.
fn router_both(r: &mut MldRouterPort, model: &mut Router, call: &Call, now: SimTime) {
    let outs = on_router(r, call, now);
    let fx = step_router(model, call, now);
    let at = format!("at {now}, cells {:?}", fx.cells);
    let sends = fx.sends.into_iter().map(RouterOutput::Send);
    assert_eq!(
        outs,
        sends.chain(fx.changes).collect::<Vec<_>>(),
        "outputs {at}"
    );
    assert_eq!(r.take_notes(), fx.notes, "notes {at}");
    assert_eq!(router_state(r), *model, "state {at}");
    let deadline = model.timers.values().min().copied();
    assert_eq!(r.next_deadline(), deadline, "deadline {at}");
    REACHED.with(|c| c.borrow_mut().extend(fx.cells));
}

fn host_both(h: &mut MldHostPort, model: &mut Host, call: &Call, now: SimTime) {
    let outs = on_host(h, call, now);
    let after = host_state(h);
    let fx = step_host(model, call, now, &after);
    let at = format!("at {now}, cells {:?}", fx.cells);
    assert_eq!(outs, fx.sends, "outputs {at}");
    assert_eq!(after, *model, "state {at}");
    let deadline = model.timers.values().min().copied();
    assert_eq!(h.next_deadline(), deadline, "deadline {at}");
    REACHED.with(|c| c.borrow_mut().extend(fx.cells));
}

/// One random router run: T_Query of 10, 20 or 125 s, an unbounded table
/// or one of zero or one groups, then each `u64` draws a clock advance
/// and a call.
fn run_router(steps: &[u64]) {
    let q = SimDuration::from_secs([10, 20, 125][steps[0] as usize % 3]);
    let mut r = MldRouterPort::new(MldConfig::with_query_interval(q), fe80(0x10));
    r.set_budget([None, Some(0), Some(1)][(steps[0] >> 2) as usize % 3]);
    let (mut now, mut model) = (SimTime::from_secs(1), router_state(&r));
    router_both(&mut r, &mut model, &Call::Start, now);
    for &x in steps {
        now = advance(now, x >> 24, &model.timers);
        while let Some(d) = r.next_deadline().filter(|d| *d <= now) {
            router_both(&mut r, &mut model, &Call::Deadline, d);
        }
        router_both(&mut r, &mut model, &draw_router(x), now);
    }
}

fn run_host(steps: &[u64]) {
    let rng = mobicast_sim::RngFactory::new(7).stream("mld-host");
    let mut h = MldHostPort::new(MldConfig::default(), rng);
    let (mut now, mut model) = (SimTime::from_secs(1), host_state(&h));
    for &x in steps {
        now = advance(now, x >> 24, &model.timers);
        while let Some(d) = h.next_deadline().filter(|d| *d <= now) {
            host_both(&mut h, &mut model, &Call::Deadline, d);
        }
        host_both(&mut h, &mut model, &draw_host(x), now);
    }
}

proptest! {
    fn the_router_follows_its_tables(steps in proptest::collection::vec(any::<u64>(), 1..1000)) {
        run_router(&steps);
    }

    fn the_host_follows_its_table(steps in proptest::collection::vec(any::<u64>(), 1..1000)) {
        run_host(&steps);
    }
}

/// The cells the proptests reach, run once per test binary: the shim
/// seeds each from its name, so the set is the same on every run.
pub(crate) fn proptest_cells() -> &'static BTreeSet<Cell> {
    static CELLS: OnceLock<BTreeSet<Cell>> = OnceLock::new();
    CELLS.get_or_init(|| {
        the_router_follows_its_tables();
        the_host_follows_its_table();
        REACHED.with(|c| c.take())
    })
}

/// Every cell of the tables with its kind: each row in each state it
/// stands for.
fn cells() -> impl Iterator<Item = (Cell, Kind)> {
    TABLES
        .iter()
        .enumerate()
        .flat_map(|(t, (_, rows, states))| {
            rows.iter().enumerate().flat_map(move |(i, r)| {
                let of = states.iter().filter(|s| [Each, **s].contains(&r.0));
                of.map(move |s| ((t, i, *s), r.6))
            })
        })
}

/// Cells per table by kind, and how many the proptests and the scenarios
/// reach.
pub(crate) fn report(proptest: &BTreeSet<Cell>, scenarios: &BTreeSet<Cell>) -> String {
    let mut lines = Vec::new();
    for (t, (name, _, _)) in TABLES.iter().enumerate() {
        for kind in [Transition, Ignored, Impossible] {
            let of: Vec<Cell> = cells()
                .filter(|(c, k)| c.0 == t && *k == kind)
                .map(|(c, _)| c)
                .collect();
            let count = |f: &dyn Fn(&Cell) -> bool| of.iter().filter(|c| f(c)).count();
            let (p, s) = (
                count(&|c| proptest.contains(c)),
                count(&|c| scenarios.contains(c)),
            );
            let only = count(&|c| proptest.contains(c) && !scenarios.contains(c));
            let n = of.len();
            lines.push(format!(
                "{name} {kind:?}: {n} cells; proptest {p}, scenarios {s}, proptest only {only}"
            ));
        }
    }
    lines.join("\n")
}

#[test]
fn every_transition_cell_is_reached_and_no_impossible_one() {
    let reached = proptest_cells();
    eprintln!("{}", report(reached, &BTreeSet::new()));
    let bad = cells().filter(|(c, k)| *k != Ignored && (*k == Transition) != reached.contains(c));
    let bad: Vec<_> = bad.collect();
    assert!(
        bad.is_empty(),
        "unreached transition or reached impossible cells: {bad:?}"
    );
}
