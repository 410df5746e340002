//! Mobile IPv6 specified once: the mobile node's table and the home
//! agent's table as data, an interpreter per machine that runs them as the
//! model — one mobile node, or a home agent with two homes and two groups
//! so that proxy join / leave reference counting shows — and one proptest
//! per machine that feeds the model and the machine the same random calls
//! and compares the two after every step: the state, the outputs, the
//! notes, `next_deadline()`, the signalling counters and the home agent's
//! `intercept` / `multicast_tunnel_targets` answers.
//!
//! A row is `(state, event, guard) → (next state, outputs, timers, kind,
//! citation)`; a guard is a list of questions with the answer the row
//! needs (none: any answer). A *transition* is what the draft or the
//! paper prescribes, an *ignored* row an event left without effect on the
//! state, the sends and the timers, an *impossible* row an event that
//! cannot occur in that state. A cell is a row in one concrete state.
//! Citations name draft-ietf-mobileip-ipv6-10's sections by topic or the
//! paper; the repo holds no copy of the draft text. Timer lengths are
//! written from the text, not read from the machines' constants. What an
//! event carries is taken before its row applies: an RA's prefix is where
//! the node now is, a group list handed over is kept, a retarget names the
//! new agent (its release goes to the old one).

use crate::home_agent::{HaNote, HaOutput, HomeAgent};
use crate::mobile::{BuSend, MobileNode};
use mobicast_ipv6::addr::{GroupAddr, Prefix};
use mobicast_ipv6::exthdr::{BindingAck, BindingUpdate, SubOption, BU_FLAG_ACK, BU_FLAG_HOME};
use mobicast_sim::{SimDuration, SimTime};
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv6Addr;
use std::sync::OnceLock;
use {Ev::*, Kind::*, Out::*, St::*, Timer::*, Tm::*, Q::*};

/// Mobile node: Home; HomeDeregistering (the zero-lifetime BU awaits its
/// ack); Registering (away, BU unacked); Bound (away, acked, refresh
/// armed); Detached (away after a retarget released the old agent,
/// nothing armed). Home agent, per home address: NoBinding, Bound. `Each`
/// stands for every state of the table (as a next state: unchanged).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum St {
    Home,
    HomeDeregistering,
    Registering,
    Bound,
    Detached,
    NoBinding,
    Each,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Timer {
    Retransmit,
    Refresh,
    Lifetime,
}

/// An RA for the home prefix, the care-of address's prefix or another; an
/// accepted or rejected ack; `set_groups`; `force_refresh`; `set_agent` to
/// the agent already targeted or another; a Binding Update with a lifetime
/// above or at zero; a timer running out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Ev {
    RaHome,
    RaSame,
    RaOther,
    AckAccepted,
    AckRejected,
    SetGroups,
    ForceRefresh,
    AgentSame,
    AgentOther,
    BuLife,
    BuZero,
    Expire(Timer),
}

/// The guards' questions: is the ack's sequence number the pending BU's?
/// is the group list on? is the BU's sequence number older than the
/// cached one (modulo 2^16)? is the binding cache full? is an ack
/// requested (the A bit)?
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Q {
    Current,
    ListOn,
    Stale,
    Full,
    AckBit,
}

/// `Register` / `Deregister`: a fresh BU (A and H set) for 256 s or zero.
/// `Replaced`: it superseded an unacked one. `Resend`: the pending BU
/// again. `Release`: a zero-lifetime BU without the A bit to the old
/// agent. `Joins` / `Leaves`: proxy joins for the BU's groups no binding
/// held, proxy leaves for the binding's old groups no binding holds.
/// `Shed`, `StaleNote`: the home agent's notes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Out {
    Register,
    Deregister,
    Replaced,
    Resend,
    Release,
    Joins,
    Leaves,
    SendAck,
    Shed,
    StaleNote,
}

/// `Double` re-arms the retransmission at twice its last timeout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tm {
    Arm(Timer),
    Stop(Timer),
    Double(Timer),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Transition,
    Ignored,
    Impossible,
}

type Guard = &'static [(Q, bool)];

/// The answers the classifier gives a call's questions.
type Answers = Vec<(Q, bool)>;

type Row = (
    St,
    Ev,
    Guard,
    St,
    &'static [Out],
    &'static [Tm],
    Kind,
    &'static str,
);

const REGISTER: &str = "§10.1: a new care-of address (RFC 2462: the RA's prefix + the \
    interface id) is registered with a BU, A and H set, lifetime 256 s (paper §4.3.2), carrying \
    the Multicast Group List Sub-Option when the list is on (paper Fig. 5); §11.8: retransmit \
    after INITIAL_BINDACK_TIMEOUT 1 s; refresh at 0.8 x the lifetime (204.8 s); a BU still \
    awaiting its ack is superseded, not queued";
const DEREGISTER: &str = "§10.1: back on the home link, a zero-lifetime BU (A set) deregisters \
    the binding; nothing is refreshed at home";
const AT_HOME: &str = "movement detection: the node is on its home link already";
const NOT_AWAY: &str = "at home the node has no care-of address; an RA for its own prefix is a \
    home RA";
const SAME_LINK: &str = "movement detection: the RA's prefix is the care-of address's, no move";
const NO_PENDING: &str = "no BU awaits an ack";
const ACKED: &str = "§11.8: an accepted ack stops the retransmission; the refresh stays armed";
const ACKED_HOME: &str = "§11.8: the deregistration is acknowledged; nothing stays armed at home";
const STALE_ACK: &str = "today's behaviour: the machine takes no sequence number, so an ack for \
    an older BU clears the pending one; RFC 3775 §11.7.3 (draft-10's successor) discards an ack \
    whose sequence number does not match (open, ROADMAP item 1)";
const REJECTED: &str = "a rejected ack while away: retry at once with a fresh sequence number";
const REJECTED_HOME: &str = "a rejected ack at home: there is no binding to retry";
const LIST_HOME: &str = "at home the host joins on its own link; the list is kept for the next \
    BU";
const EXTENDED: &str = "paper §4.3.2, the extended BU: a group change while away is sent at once";
const LIST_OFF: &str = "the group list is off (paper §4.3: only the receive-via-tunnel \
    approaches send it); the list is kept";
const NO_BINDING: &str = "at home there is no binding to refresh";
const FORCED: &str = "a storm script's unscheduled refresh (DESIGN.md \"Overload model\")";
const SAME_AGENT: &str = "retargeting at the agent already targeted changes nothing";
const RETARGET_HOME: &str = "a retarget at home: no binding to release; a pending \
    deregistration is dropped";
const RELEASE: &str = "a retarget away: the old agent is released with a zero-lifetime BU \
    without the A bit (its ack would race the handoff); registration waits for the next RA";
const RESEND: &str = "§11.8: an unacked BU is retransmitted with the same sequence number, the \
    timeout doubling up to MAX_BINDACK_TIMEOUT 256 s";
const REFRESH: &str = "paper §4.3.2: the binding is refreshed before its 256 s lifetime runs \
    out, with a fresh sequence number";
const NO_RETRANSMIT: &str = "no BU awaits an ack, so no retransmission runs";
const NO_REFRESH: &str = "a refresh runs only while a registration away stands";
const HA_REGISTER: &str = "§4.4: the binding cache entry is created with the BU's care-of \
    address, sequence number and lifetime; paper §4.3.2: the home agent joins, as a listener on \
    the home link, each group of the sub-option no binding held";
const HA_ACK: &str = "draft-10, Binding Acknowledgement: sent when the A bit is set, status 0, \
    the BU's sequence number and lifetime, a refresh interval of half the lifetime";
const HA_FULL: &str = "DESIGN.md \"Overload model\": a full cache refuses a first registration \
    silently; the node's retransmission retries";
const HA_DEREG_NONE: &str = "a deregistration for no binding removes nothing; the ack still goes \
    out";
const HA_QUIET: &str = "a deregistration for no binding without the A bit";
const HA_STALE: &str = "§4.4: a BU whose sequence number is less than the cached one, modulo \
    2^16, is discarded (a replay must not reinstall an old care-of address); an equal one is a \
    retransmission";
const HA_REFRESH: &str = "§4.4: the entry takes the BU's care-of address, sequence number and \
    lifetime; paper §4.3.2: the proxy follows the new group list (join what no binding held, \
    leave what none holds)";
const HA_DEREG: &str = "§4.4: a zero lifetime deletes the entry; paper §4.3.2: the proxy \
    leaves the groups no binding holds";
const HA_EXPIRED: &str = "paper §4.3.2: without a refresh the home agent gives up 'the \
    representation of the host as member of its multicast group' when the lifetime runs out";
const HA_NO_TIMER: &str = "the lifetime runs only while a binding stands";

const ARM_BOTH: &[Tm] = &[Arm(Retransmit), Arm(Refresh)];

#[rustfmt::skip]
const MOBILE: &[Row] = &[
    (Home, RaHome, &[], Home, &[], &[], Ignored, AT_HOME),
    (HomeDeregistering, RaHome, &[], HomeDeregistering, &[], &[], Ignored, AT_HOME),
    (Registering, RaHome, &[], HomeDeregistering, &[Deregister, Replaced], &[Arm(Retransmit), Stop(Refresh)], Transition, DEREGISTER),
    (Bound, RaHome, &[], HomeDeregistering, &[Deregister], &[Arm(Retransmit), Stop(Refresh)], Transition, DEREGISTER),
    (Detached, RaHome, &[], HomeDeregistering, &[Deregister], &[Arm(Retransmit)], Transition, DEREGISTER),
    (Home, RaSame, &[], Home, &[], &[], Impossible, NOT_AWAY),
    (HomeDeregistering, RaSame, &[], HomeDeregistering, &[], &[], Impossible, NOT_AWAY),
    (Registering, RaSame, &[], Registering, &[], &[], Ignored, SAME_LINK),
    (Bound, RaSame, &[], Bound, &[], &[], Ignored, SAME_LINK),
    (Detached, RaSame, &[], Detached, &[], &[], Ignored, SAME_LINK),
    (Home, RaOther, &[], Registering, &[Register], ARM_BOTH, Transition, REGISTER),
    (HomeDeregistering, RaOther, &[], Registering, &[Register, Replaced], ARM_BOTH, Transition, REGISTER),
    (Registering, RaOther, &[], Registering, &[Register, Replaced], ARM_BOTH, Transition, REGISTER),
    (Bound, RaOther, &[], Registering, &[Register], ARM_BOTH, Transition, REGISTER),
    (Detached, RaOther, &[], Registering, &[Register], ARM_BOTH, Transition, REGISTER),
    (Home, AckAccepted, &[], Home, &[], &[], Ignored, NO_PENDING),
    (Home, AckRejected, &[], Home, &[], &[], Ignored, NO_PENDING),
    (HomeDeregistering, AckAccepted, &[(Current, true)], Home, &[], &[Stop(Retransmit)], Transition, ACKED_HOME),
    (HomeDeregistering, AckAccepted, &[(Current, false)], Home, &[], &[Stop(Retransmit)], Transition, STALE_ACK),
    (HomeDeregistering, AckRejected, &[], Home, &[], &[Stop(Retransmit)], Transition, REJECTED_HOME),
    (Registering, AckAccepted, &[(Current, true)], Bound, &[], &[Stop(Retransmit)], Transition, ACKED),
    (Registering, AckAccepted, &[(Current, false)], Bound, &[], &[Stop(Retransmit)], Transition, STALE_ACK),
    (Registering, AckRejected, &[], Registering, &[Register], ARM_BOTH, Transition, REJECTED),
    (Bound, AckAccepted, &[], Bound, &[], &[], Ignored, NO_PENDING),
    (Bound, AckRejected, &[], Registering, &[Register], ARM_BOTH, Transition, REJECTED),
    (Detached, AckAccepted, &[], Detached, &[], &[], Ignored, NO_PENDING),
    (Detached, AckRejected, &[], Registering, &[Register], ARM_BOTH, Transition, REJECTED),
    (Home, SetGroups, &[], Home, &[], &[], Ignored, LIST_HOME),
    (HomeDeregistering, SetGroups, &[], HomeDeregistering, &[], &[], Ignored, LIST_HOME),
    (Registering, SetGroups, &[(ListOn, true)], Registering, &[Register, Replaced], ARM_BOTH, Transition, EXTENDED),
    (Bound, SetGroups, &[(ListOn, true)], Registering, &[Register], ARM_BOTH, Transition, EXTENDED),
    (Detached, SetGroups, &[(ListOn, true)], Registering, &[Register], ARM_BOTH, Transition, EXTENDED),
    (Registering, SetGroups, &[(ListOn, false)], Registering, &[], &[], Ignored, LIST_OFF),
    (Bound, SetGroups, &[(ListOn, false)], Bound, &[], &[], Ignored, LIST_OFF),
    (Detached, SetGroups, &[(ListOn, false)], Detached, &[], &[], Ignored, LIST_OFF),
    (Home, ForceRefresh, &[], Home, &[], &[], Ignored, NO_BINDING),
    (HomeDeregistering, ForceRefresh, &[], HomeDeregistering, &[], &[], Ignored, NO_BINDING),
    (Registering, ForceRefresh, &[], Registering, &[Register, Replaced], ARM_BOTH, Transition, FORCED),
    (Bound, ForceRefresh, &[], Registering, &[Register], ARM_BOTH, Transition, FORCED),
    (Detached, ForceRefresh, &[], Registering, &[Register], ARM_BOTH, Transition, FORCED),
    (Each, AgentSame, &[], Each, &[], &[], Ignored, SAME_AGENT),
    (Home, AgentOther, &[], Home, &[], &[], Transition, RETARGET_HOME),
    (HomeDeregistering, AgentOther, &[], Home, &[], &[Stop(Retransmit)], Transition, RETARGET_HOME),
    (Registering, AgentOther, &[], Detached, &[Release], &[Stop(Retransmit), Stop(Refresh)], Transition, RELEASE),
    (Bound, AgentOther, &[], Detached, &[Release], &[Stop(Refresh)], Transition, RELEASE),
    (Detached, AgentOther, &[], Detached, &[Release], &[], Transition, RELEASE),
    (Home, Expire(Retransmit), &[], Home, &[], &[], Impossible, NO_RETRANSMIT),
    (HomeDeregistering, Expire(Retransmit), &[], HomeDeregistering, &[Resend], &[Double(Retransmit)], Transition, RESEND),
    (Registering, Expire(Retransmit), &[], Registering, &[Resend], &[Double(Retransmit)], Transition, RESEND),
    (Bound, Expire(Retransmit), &[], Bound, &[], &[], Impossible, NO_RETRANSMIT),
    (Detached, Expire(Retransmit), &[], Detached, &[], &[], Impossible, NO_RETRANSMIT),
    (Home, Expire(Refresh), &[], Home, &[], &[], Impossible, NO_REFRESH),
    (HomeDeregistering, Expire(Refresh), &[], HomeDeregistering, &[], &[], Impossible, NO_REFRESH),
    (Registering, Expire(Refresh), &[], Registering, &[Register, Replaced], ARM_BOTH, Transition, REFRESH),
    (Bound, Expire(Refresh), &[], Registering, &[Register], ARM_BOTH, Transition, REFRESH),
    (Detached, Expire(Refresh), &[], Detached, &[], &[], Impossible, NO_REFRESH),
];

#[rustfmt::skip]
const HOME_AGENT: &[Row] = &[
    (NoBinding, BuLife, &[(Full, false), (AckBit, true)], Bound, &[Joins, SendAck], &[Arm(Lifetime)], Transition, HA_ACK),
    (NoBinding, BuLife, &[(Full, false), (AckBit, false)], Bound, &[Joins], &[Arm(Lifetime)], Transition, HA_REGISTER),
    (NoBinding, BuLife, &[(Full, true)], NoBinding, &[Shed], &[], Transition, HA_FULL),
    (NoBinding, BuZero, &[(AckBit, true)], NoBinding, &[SendAck], &[], Transition, HA_DEREG_NONE),
    (NoBinding, BuZero, &[(AckBit, false)], NoBinding, &[], &[], Ignored, HA_QUIET),
    (NoBinding, Expire(Lifetime), &[], NoBinding, &[], &[], Impossible, HA_NO_TIMER),
    (Bound, BuLife, &[(Stale, true)], Bound, &[StaleNote], &[], Transition, HA_STALE),
    (Bound, BuZero, &[(Stale, true)], Bound, &[StaleNote], &[], Transition, HA_STALE),
    (Bound, BuLife, &[(Stale, false), (AckBit, true)], Bound, &[Joins, Leaves, SendAck], &[Arm(Lifetime)], Transition, HA_ACK),
    (Bound, BuLife, &[(Stale, false), (AckBit, false)], Bound, &[Joins, Leaves], &[Arm(Lifetime)], Transition, HA_REFRESH),
    (Bound, BuZero, &[(Stale, false), (AckBit, true)], NoBinding, &[Leaves, SendAck], &[Stop(Lifetime)], Transition, HA_ACK),
    (Bound, BuZero, &[(Stale, false), (AckBit, false)], NoBinding, &[Leaves], &[Stop(Lifetime)], Transition, HA_DEREG),
    (Bound, Expire(Lifetime), &[], NoBinding, &[Leaves], &[], Transition, HA_EXPIRED),
];

/// The tables, their names and the states a row stands for.
const TABLES: [(&str, &[Row], &[St]); 2] = [
    (
        "mobile node",
        MOBILE,
        &[Home, HomeDeregistering, Registering, Bound, Detached],
    ),
    ("home agent", HOME_AGENT, &[NoBinding, Bound]),
];

/// A cell: (table, row, state).
type Cell = (usize, usize, St);

/// The row of table `t` for `(state, ev)` whose guard the answers meet,
/// its cell recorded; none or two is a table bug.
fn look_up(
    cells: &mut Vec<Cell>,
    t: usize,
    state: St,
    ev: Ev,
    answers: &[(Q, bool)],
) -> (usize, &'static Row) {
    let table = TABLES[t].1;
    let fits = |r: &Row| {
        [Each, state].contains(&r.0) && r.1 == ev && r.2.iter().all(|a| answers.contains(a))
    };
    let rows: Vec<usize> = (0..table.len()).filter(|&i| fits(&table[i])).collect();
    assert_eq!(
        rows.len(),
        1,
        "{state:?} × {ev:?} × {answers:?}: rows {rows:?}"
    );
    cells.push((t, rows[0], state));
    (rows[0], &table[rows[0]])
}

/// §11.8 INITIAL_BINDACK_TIMEOUT and MAX_BINDACK_TIMEOUT.
const INITIAL: SimDuration = SimDuration::from_secs(1);
const MAX: SimDuration = SimDuration::from_secs(256);
/// 0.8 × the paper's 256 s lifetime.
const REFRESH_AFTER: SimDuration = SimDuration::from_millis(204_800);

/// Every running timer by subject (`None`: the mobile node; a home
/// address: its binding) and timer.
type Timers = BTreeMap<(Option<Ipv6Addr>, Timer), SimTime>;

/// The timers of `timers` due at `now`, as expiry events.
fn due(timers: &Timers, now: SimTime) -> Vec<(Option<Ipv6Addr>, Timer)> {
    let due = timers.iter().filter(|(_, at)| **at <= now);
    due.map(|(k, _)| *k).collect()
}

/// What one call does, as the tables predict it.
#[derive(Default)]
struct Effect {
    cells: Vec<Cell>,
    sends: Vec<BuSend>,
    ha: Vec<HaOutput>,
    notes: Vec<HaNote>,
}

/// One machine call: the mobile node's RA, ack (the machine gets only its
/// verdict, the model its sequence number too), application and policy
/// calls; the home agent's Binding Update; either's deadline.
enum Call {
    Ra(Prefix),
    Ack { accepted: bool, sequence: u16 },
    SetGroups(Vec<GroupAddr>),
    ForceRefresh,
    SetAgent(Ipv6Addr),
    Bu(Ipv6Addr, Ipv6Addr, BindingUpdate),
    Deadline,
}

/// What the mobile node's model is built with.
struct MnConf {
    home: Ipv6Addr,
    home_prefix: Prefix,
    iid: u64,
    list_on: bool,
}

/// The mobile node as the table reads and writes it.
#[derive(Clone, Debug, PartialEq)]
struct Mn {
    care_of: Option<Ipv6Addr>,
    agent: Ipv6Addr,
    sequence: u16,
    groups: Vec<GroupAddr>,
    /// The BU awaiting its ack and its last retransmission timeout.
    pending: Option<(BindingUpdate, SimDuration)>,
    timers: Timers,
    replaced: u64,
}

impl Mn {
    fn state(&self) -> St {
        let refresh = self.timers.contains_key(&(None, Refresh));
        let retransmit = self.timers.contains_key(&(None, Retransmit));
        assert_eq!(
            retransmit,
            self.pending.is_some(),
            "a retransmission without a BU"
        );
        match (self.care_of.is_some(), retransmit, refresh) {
            (false, false, false) => Home,
            (false, true, false) => HomeDeregistering,
            (true, true, true) => Registering,
            (true, false, true) => Bound,
            (true, false, false) => Detached,
            other => panic!("no mobile node state is {other:?}"),
        }
    }
}

fn mn_state(m: &MobileNode) -> Mn {
    let mut timers = Timers::new();
    timers.extend(m.refresh_at.map(|at| ((None, Refresh), at)));
    timers.extend(m.pending.as_ref().map(|p| ((None, Retransmit), p.at)));
    Mn {
        care_of: m.care_of,
        agent: m.agent,
        sequence: m.sequence,
        groups: m.groups.clone(),
        pending: m.pending.as_ref().map(|p| (p.bu.clone(), p.timeout)),
        timers,
        replaced: m.bu_replaced(),
    }
}

fn on_mn(m: &mut MobileNode, call: &Call, now: SimTime) -> Option<BuSend> {
    match call {
        Call::Ra(prefix) => m.on_router_advert(*prefix, now),
        Call::Ack { accepted, .. } => m.on_binding_ack(*accepted, now),
        Call::SetGroups(groups) => m.set_groups(groups.clone(), now),
        Call::ForceRefresh => m.force_refresh(now),
        Call::SetAgent(agent) => m.set_agent(*agent),
        Call::Deadline => m.on_deadline(now),
        Call::Bu(..) => unreachable!("a home agent call"),
    }
}

/// The (event, answers) of each cell `call` hits on the mobile node, in
/// the order the machine takes them.
fn classify_mn(st: &Mn, conf: &MnConf, call: &Call, now: SimTime) -> Vec<(Ev, Answers)> {
    let ev = match call {
        Call::Ra(p) if *p == conf.home_prefix => RaHome,
        Call::Ra(p) if st.care_of == Some(p.addr_with_iid(conf.iid)) => RaSame,
        Call::Ra(_) => RaOther,
        Call::Ack { accepted, sequence } => {
            let current = st
                .pending
                .as_ref()
                .map(|(bu, _)| (Current, bu.sequence == *sequence));
            let ev = [AckRejected, AckAccepted][usize::from(*accepted)];
            return vec![(ev, current.into_iter().collect())];
        }
        Call::SetGroups(_) => return vec![(SetGroups, vec![(ListOn, conf.list_on)])],
        Call::ForceRefresh => ForceRefresh,
        Call::SetAgent(a) => [AgentOther, AgentSame][usize::from(*a == st.agent)],
        Call::Deadline => {
            let due = due(&st.timers, now).into_iter();
            return due.map(|(_, t)| (Expire(t), Vec::new())).collect();
        }
        Call::Bu(..) => unreachable!("a home agent call"),
    };
    vec![(ev, Vec::new())]
}

/// Run `call` at `now` on the mobile node's model: classify it, then
/// apply each cell's row in turn.
fn step_mn(st: &mut Mn, conf: &MnConf, call: &Call, now: SimTime) -> Effect {
    let mut fx = Effect::default();
    for (ev, answers) in classify_mn(st, conf, call, now) {
        let cur = st.state();
        let (i, &(_, _, _, next, outs, tms, _, _)) = look_up(&mut fx.cells, 0, cur, ev, &answers);
        match call {
            Call::Ra(p) => st.care_of = (*p != conf.home_prefix).then(|| p.addr_with_iid(conf.iid)),
            Call::SetGroups(groups) => st.groups = groups.clone(),
            _ => {}
        }
        if let Expire(t) = ev {
            st.timers.remove(&(None, t));
        }
        let source = st.care_of.unwrap_or(conf.home);
        for out in outs {
            let (flags, lifetime_secs) = match out {
                Register => (BU_FLAG_ACK | BU_FLAG_HOME, 256),
                Deregister => (BU_FLAG_ACK | BU_FLAG_HOME, 0),
                Release => (BU_FLAG_HOME, 0),
                Replaced => {
                    st.replaced += 1;
                    continue;
                }
                Resend => {
                    let (bu, _) = st.pending.clone().expect("a pending BU");
                    fx.sends.push(send(st.agent, source, bu));
                    continue;
                }
                _ => unreachable!("{out:?} is a home agent output"),
            };
            let list = conf.list_on && *out == Register;
            let sub_options = list.then(|| SubOption::MulticastGroupList(st.groups.clone()));
            st.sequence = st.sequence.wrapping_add(1);
            let bu = BindingUpdate {
                flags,
                sequence: st.sequence,
                lifetime_secs,
                sub_options: sub_options.into_iter().collect(),
            };
            if *out != Release {
                st.pending = Some((bu.clone(), INITIAL));
            }
            fx.sends.push(send(st.agent, source, bu));
        }
        if let Call::SetAgent(agent) = call {
            st.agent = *agent;
        }
        for tm in tms {
            let k = |t| (None, t);
            match *tm {
                Arm(Retransmit) => st.timers.insert(k(Retransmit), now + INITIAL),
                Arm(Refresh) => st.timers.insert(k(Refresh), now + REFRESH_AFTER),
                Double(t) => {
                    let (_, timeout) = st.pending.as_mut().expect("a pending BU");
                    *timeout = (*timeout * 2).min(MAX);
                    st.timers.insert(k(t), now + *timeout)
                }
                Stop(t) => {
                    st.pending = st.pending.take().filter(|_| t != Retransmit);
                    st.timers.remove(&k(t))
                }
                Arm(Lifetime) => unreachable!("a home agent timer"),
            };
        }
        let next = if next == Each { cur } else { next };
        assert_eq!(st.state(), next, "mobile node row {i}");
    }
    fx
}

fn send(home_agent: Ipv6Addr, source: Ipv6Addr, binding_update: BindingUpdate) -> BuSend {
    BuSend {
        home_agent,
        source,
        binding_update,
    }
}

/// One binding as the home agent's table reads it.
#[derive(Clone, Debug, PartialEq)]
struct Binding {
    care_of: Ipv6Addr,
    sequence: u16,
    groups: Vec<GroupAddr>,
}

/// The home agent as its table reads and writes it.
#[derive(Clone, Debug, PartialEq)]
struct Ha {
    bindings: BTreeMap<Ipv6Addr, Binding>,
    timers: Timers,
    budget: Option<u32>,
    tunneled: u64,
}

impl Ha {
    fn state(&self, home: Ipv6Addr) -> St {
        let bound = self.bindings.contains_key(&home);
        let timer = self.timers.contains_key(&(Some(home), Lifetime));
        assert_eq!(
            bound, timer,
            "a binding without its lifetime or the reverse"
        );
        [NoBinding, Bound][usize::from(bound)]
    }

    /// The groups some binding holds.
    fn held(&self) -> BTreeSet<GroupAddr> {
        self.bindings
            .values()
            .flat_map(|b| b.groups.clone())
            .collect()
    }

    /// The bindings subscribed to `group`, in home address order.
    fn targets(&self, group: GroupAddr) -> Vec<(Ipv6Addr, Ipv6Addr)> {
        let of = self
            .bindings
            .iter()
            .filter(|(_, b)| b.groups.contains(&group));
        of.map(|(home, b)| (*home, b.care_of)).collect()
    }
}

fn ha_state(h: &HomeAgent) -> Ha {
    let cache = h.cache();
    let (mut bindings, mut timers) = (BTreeMap::new(), Timers::new());
    for (home, view) in cache.entries() {
        let slot = cache.table.slot_of(home).expect("a listed binding");
        let groups = cache.table.row(slot).groups.clone();
        let (care_of, sequence) = (view.care_of, view.sequence);
        let binding = Binding {
            care_of,
            sequence,
            groups,
        };
        bindings.insert(home, binding);
        timers.insert((Some(home), Lifetime), view.expires);
    }
    Ha {
        bindings,
        timers,
        budget: h.budget,
        tunneled: h.packets_tunneled,
    }
}

/// The (home, event, answers) of each cell `call` hits on the home agent,
/// in the order the machine takes them.
fn classify_ha(st: &Ha, call: &Call, now: SimTime) -> Vec<(Ipv6Addr, Ev, Answers)> {
    match call {
        Call::Bu(home, _, bu) => {
            let ev = [BuZero, BuLife][usize::from(bu.lifetime_secs > 0)];
            let ack = (AckBit, bu.flags & BU_FLAG_ACK != 0);
            let answers = match st.bindings.get(home) {
                // "Less than, modulo 2^16": the difference read as signed.
                Some(b) => vec![
                    (Stale, (bu.sequence.wrapping_sub(b.sequence) as i16) < 0),
                    ack,
                ],
                None => {
                    let full = st
                        .budget
                        .is_some_and(|cap| st.bindings.len() >= cap as usize);
                    vec![(Full, full), ack]
                }
            };
            vec![(*home, ev, answers)]
        }
        Call::Deadline => due(&st.timers, now)
            .into_iter()
            .map(|(home, t)| (home.expect("a binding's timer"), Expire(t), Vec::new()))
            .collect(),
        _ => unreachable!("a mobile node call"),
    }
}

/// Run `call` at `now` on the home agent's model.
fn step_ha(st: &mut Ha, call: &Call, now: SimTime) -> Effect {
    let mut fx = Effect::default();
    for (home, ev, answers) in classify_ha(st, call, now) {
        let cur = st.state(home);
        let (i, &(_, _, _, next, outs, tms, _, _)) = look_up(&mut fx.cells, 1, cur, ev, &answers);
        if let Expire(t) = ev {
            st.timers.remove(&(Some(home), t));
        }
        let before = st.held();
        let old = st.bindings.get(&home).map(|b| b.groups.clone());
        let (mut new, mut ack) = (None, None);
        if let Call::Bu(_, care_of, bu) = call {
            let (sequence, lifetime_secs) = (bu.sequence, bu.lifetime_secs);
            let refresh_secs = lifetime_secs / 2;
            let body = BindingAck {
                status: 0,
                sequence,
                lifetime_secs,
                refresh_secs,
            };
            ack = Some((*care_of, body));
            if tms.contains(&Arm(Lifetime)) {
                // The binding stands as long as its lifetime runs.
                let lifetime = SimDuration::from_secs(u64::from(lifetime_secs));
                st.timers.insert((Some(home), Lifetime), now + lifetime);
                new = bu.multicast_groups().map(<[GroupAddr]>::to_vec);
                let groups = new.clone().unwrap_or_default();
                let binding = Binding {
                    care_of: *care_of,
                    sequence,
                    groups,
                };
                st.bindings.insert(home, binding);
            }
        }
        if tms.contains(&Stop(Lifetime)) {
            st.timers.remove(&(Some(home), Lifetime));
        }
        if next == NoBinding {
            st.bindings.remove(&home);
        }
        let after = st.held();
        for out in outs {
            match out {
                Joins => {
                    let joins = new.iter().flatten().filter(|g| !before.contains(g));
                    fx.ha.extend(joins.map(|g| HaOutput::ProxyJoin(*g)));
                }
                Leaves => {
                    let leaves = old.iter().flatten().filter(|g| !after.contains(g));
                    fx.ha.extend(leaves.map(|g| HaOutput::ProxyLeave(*g)));
                }
                SendAck => {
                    let (care_of, ack) = ack.clone().expect("a Binding Update");
                    fx.ha.push(HaOutput::SendBindingAck { care_of, home, ack });
                }
                Shed => fx.notes.push(HaNote::BindingShed { home }),
                StaleNote => fx.notes.push(HaNote::BindingStaleSeq { home }),
                _ => unreachable!("{out:?} is a mobile node output"),
            }
        }
        let next = if next == Each { cur } else { next };
        assert_eq!(st.state(home), next, "home agent row {i}");
    }
    fx
}

fn prefix(s: &str) -> Prefix {
    s.parse().expect("a prefix")
}

const fn addr(net: u16, last: u16) -> Ipv6Addr {
    Ipv6Addr::new(0x2001, 0xdb8, net, 0, 0, 0, 0, last)
}

/// The home agent, a regional agent, and the two homes and three care-of
/// addresses of the home agent's model.
const HA: Ipv6Addr = addr(4, 0xd);
const MAP: Ipv6Addr = addr(5, 0xe);
const HOMES: [Ipv6Addr; 2] = [addr(4, 0xa1), addr(4, 0xa2)];
const CARE_OF: [Ipv6Addr; 3] = [addr(1, 0xc1), addr(6, 0xc2), addr(6, 0xc3)];

/// The two groups of the models.
fn groups() -> [GroupAddr; 2] {
    [GroupAddr::test_group(1), GroupAddr::test_group(2)]
}

/// A group list: none, either group, both in either order.
fn group_list(x: u64) -> Vec<GroupAddr> {
    let [a, b] = groups();
    [vec![], vec![a], vec![b], vec![a, b], vec![b, a]][x as usize % 5].clone()
}

/// The call one random `u64` makes on the mobile node: an RA for the home
/// or one of two foreign prefixes, an ack (accepted three times in four)
/// for the pending BU, an older one or any, a group list, a forced
/// refresh, a retarget at the home or a regional agent, a deadline call
/// with no timer due (a timer the glue armed for an instant since
/// moved), or none.
fn draw_mn(x: u64, st: &Mn, conf: &MnConf) -> Option<Call> {
    let prefixes = [
        conf.home_prefix,
        prefix("2001:db8:6::/64"),
        prefix("2001:db8:1::/64"),
    ];
    let pending = st
        .pending
        .as_ref()
        .map_or(st.sequence, |(bu, _)| bu.sequence);
    Some(match x % 16 {
        0..=3 => Call::Ra(prefixes[(x >> 4) as usize % 3]),
        4..=7 => Call::Ack {
            accepted: !(x >> 4).is_multiple_of(4),
            sequence: [pending, pending, pending.wrapping_sub(1), (x >> 8) as u16]
                [(x >> 6) as usize % 4],
        },
        8 | 9 => Call::SetGroups(group_list(x >> 4)),
        10 => Call::ForceRefresh,
        11 | 12 => Call::SetAgent([HA, MAP][(x >> 4) as usize % 2]),
        13 => Call::Deadline,
        _ => return None,
    })
}

/// The Binding Update one random `u64` sends the home agent: either home,
/// any care-of address, a sequence number 0, 1 or 2 past the cached one
/// or about half the number space away, a lifetime of 0, 5 or 256 s, the
/// A bit set or not, and no group list or one; or, one time in eight, a
/// deadline call with no binding due.
fn draw_ha(x: u64, st: &Ha) -> Call {
    if (x >> 17).is_multiple_of(8) {
        return Call::Deadline;
    }
    let home = HOMES[x as usize % 2];
    let last = st.bindings.get(&home).map_or(0, |b| b.sequence);
    let jump = [0, 1, 1, 2, 0x7fff, 0x8000, 0x8001, 0xffff][(x >> 1) as usize % 8];
    let flags = [BU_FLAG_ACK | BU_FLAG_HOME, BU_FLAG_HOME][(x >> 4) as usize % 2];
    let list = !(x >> 5).is_multiple_of(6);
    let sub_options = list.then(|| SubOption::MulticastGroupList(group_list(x >> 8)));
    let bu = BindingUpdate {
        flags,
        sequence: last.wrapping_add(jump),
        lifetime_secs: [0, 0, 5, 256, 256, 256][(x >> 11) as usize % 6],
        sub_options: sub_options.into_iter().collect(),
    };
    Call::Bu(home, CARE_OF[(x >> 14) as usize % 3], bu)
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

/// Make `call` on the mobile node and its model alike, compare
/// everything, and record the cells.
fn mn_both(m: &mut MobileNode, model: &mut Mn, conf: &MnConf, call: &Call, now: SimTime) {
    let out = on_mn(m, call, now);
    let fx = step_mn(model, conf, call, now);
    let at = format!("at {now}, cells {:?}", fx.cells);
    assert_eq!(out.into_iter().collect::<Vec<_>>(), fx.sends, "sends {at}");
    assert_eq!(mn_state(m), *model, "state {at}");
    let deadline = model.timers.values().min().copied();
    assert_eq!(m.next_deadline(), deadline, "deadline {at}");
    REACHED.with(|c| c.borrow_mut().extend(fx.cells));
}

fn ha_both(h: &mut HomeAgent, model: &mut Ha, call: &Call, now: SimTime) {
    let outs = match call {
        Call::Bu(home, care_of, bu) => h.on_binding_update(*home, *care_of, bu, now),
        _ => {
            let leaves = h.on_deadline(now).into_iter();
            leaves.map(HaOutput::ProxyLeave).collect()
        }
    };
    let fx = step_ha(model, call, now);
    let at = format!("at {now}, cells {:?}", fx.cells);
    assert_eq!(outs, fx.ha, "outputs {at}");
    assert_eq!(h.take_notes(), fx.notes, "notes {at}");
    for home in HOMES {
        let care_of = model.bindings.get(&home).map(|b| b.care_of);
        assert_eq!(h.intercept(home), care_of, "intercept {at}");
    }
    for g in groups() {
        let targets = model.targets(g);
        assert_eq!(h.has_group_subscribers(g), !targets.is_empty(), "{g} {at}");
        model.tunneled += targets.len() as u64;
        assert_eq!(h.multicast_tunnel_targets(g), targets, "{g} {at}");
    }
    assert_eq!(h.binding_count(), model.bindings.len(), "count {at}");
    assert_eq!(ha_state(h), *model, "state {at}");
    let deadline = model.timers.values().min().copied();
    assert_eq!(h.next_deadline(), deadline, "deadline {at}");
    REACHED.with(|c| c.borrow_mut().extend(fx.cells));
}

/// One random mobile node run, the group list on or off; each `u64` draws
/// a clock advance and a call.
fn run_mn(steps: &[u64]) {
    let conf = MnConf {
        home: addr(4, 0x1234),
        home_prefix: prefix("2001:db8:4::/64"),
        iid: 0x1234,
        list_on: steps[0] % 2 == 1,
    };
    let mut m = MobileNode::new(conf.home, conf.home_prefix, HA, conf.iid, conf.list_on);
    let (mut now, mut model) = (SimTime::from_secs(1), mn_state(&m));
    for &x in steps {
        now = advance(now, x >> 24, &model.timers);
        while let Some(d) = m.next_deadline().filter(|d| *d <= now) {
            mn_both(&mut m, &mut model, &conf, &Call::Deadline, d);
        }
        if let Some(call) = draw_mn(x, &model, &conf) {
            mn_both(&mut m, &mut model, &conf, &call, now);
        }
    }
}

/// One random home agent run: an unbounded cache or one of zero or one
/// bindings.
fn run_ha(steps: &[u64]) {
    let mut h = HomeAgent::new();
    h.set_budget([None, Some(0), Some(1)][steps[0] as usize % 3]);
    let (mut now, mut model) = (SimTime::from_secs(1), ha_state(&h));
    for &x in steps {
        now = advance(now, x >> 24, &model.timers);
        while let Some(d) = h.next_deadline().filter(|d| *d <= now) {
            ha_both(&mut h, &mut model, &Call::Deadline, d);
        }
        let call = draw_ha(x, &model);
        ha_both(&mut h, &mut model, &call, now);
    }
}

proptest! {
    fn the_mobile_node_follows_its_table(steps in proptest::collection::vec(any::<u64>(), 1..1000)) {
        run_mn(&steps);
    }

    fn the_home_agent_follows_its_table(steps in proptest::collection::vec(any::<u64>(), 1..1000)) {
        run_ha(&steps);
    }
}

/// The cells the proptests reach, run once per test binary: the shim
/// seeds each from its name, so the set is the same on every run.
fn proptest_cells() -> &'static BTreeSet<Cell> {
    static CELLS: OnceLock<BTreeSet<Cell>> = OnceLock::new();
    CELLS.get_or_init(|| {
        the_mobile_node_follows_its_table();
        the_home_agent_follows_its_table();
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

/// Cells per table by kind, and how many the proptests reach.
fn report(reached: &BTreeSet<Cell>) -> String {
    let mut lines = Vec::new();
    for (t, (name, _, _)) in TABLES.iter().enumerate() {
        for kind in [Transition, Ignored, Impossible] {
            let of: Vec<Cell> = cells()
                .filter(|(c, k)| c.0 == t && *k == kind)
                .map(|(c, _)| c)
                .collect();
            let hit = of.iter().filter(|c| reached.contains(c)).count();
            let n = of.len();
            lines.push(format!("{name} {kind:?}: {n} cells; proptest {hit}"));
        }
    }
    lines.join("\n")
}

#[test]
fn every_transition_cell_is_reached_and_no_impossible_one() {
    let reached = proptest_cells();
    eprintln!("{}", report(reached));
    let bad = cells().filter(|(c, k)| *k != Ignored && (*k == Transition) != reached.contains(c));
    let bad: Vec<_> = bad.collect();
    assert!(
        bad.is_empty(),
        "unreached transition or reached impossible cells: {bad:?}"
    );
}
