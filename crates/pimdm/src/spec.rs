//! PIM-DM specified once: the per-(S,G) upstream table and the
//! per-(S,G, oif) downstream table as data, an interpreter that runs them
//! as the model of one (S,G), and one proptest that feeds the model and
//! [`PimRouter`] the same random calls and compares the two after every
//! step: the (S,G) row, the forward list, the sends, the notes and
//! `next_deadline()`.
//!
//! A row is `(state, event, guard) → (next state, outputs, timers, kind,
//! citation)`. A *transition* is what the draft prescribes, an *ignored*
//! row an event it leaves without effect in that state, an *impossible*
//! row a timer that does not run in that state. A cell is a row in one
//! concrete state. Citations name draft-ietf-pim-v2-dm-03's sections by
//! topic ("dm-03 Prune") or the paper. The model is one (S,G) on a
//! three-interface router: iif 0 toward the source with upstream
//! neighbor U, oifs 1 and 2.

use super::*;
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::sync::OnceLock;
use {Ev::*, Kind::*, Out::*, St::*, Timer::*, Tm::*, G::*};

/// Upstream: Forwarding, Pruned, AckPending. Downstream: NoInfo,
/// PrunePending, Pruned. `Each` stands for every state of the table (as
/// a next state: unchanged); `Gone` is a deleted entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum St {
    Forwarding,
    Pruned,
    AckPending,
    NoInfo,
    PrunePending,
    Each,
    Gone,
}

/// Data timeout, prune-pending (`T_PruneDel`), prune-hold, graft-retry,
/// override-join and assert (the loser's timer).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Timer {
    Data,
    Pending,
    Hold,
    Retry,
    Override,
    Assert,
}

/// The events. The guard each one asks, answered `Yes` or `No`:
/// `DataIif`, `MemberLeave`: is the oif list null (after the leave)?
/// `DataOif`: does the oif forward? `AssertOif`: do we win? `PruneHeard`:
/// do we need the data? `AssertIif`: does the asserter beat the stored
/// winner? `GraftAck`: is it from the upstream neighbor? `Hello`: is the
/// neighbor new? `MemberJoin`: is it on an oif? `Limited` answers "yes,
/// but the Prune / Assert would come under 3 s after the last"; `Armed`
/// answers `JoinHeard` (and `PruneHeard`, with the data needed) when an
/// override join is armed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Ev {
    DataIif,
    DataOif,
    JoinToUs,
    PruneToUs,
    GraftToUs,
    JoinHeard,
    PruneHeard,
    GraftAck,
    AssertIif,
    AssertOif,
    Hello,
    NbrExpiry,
    MemberJoin,
    MemberLeave,
    Expire(Timer),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum G {
    Any,
    Yes,
    No,
    Limited,
    Armed,
}

/// Sends, the elected-forwarder update, then notes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Out {
    SendPrune,
    SendJoin,
    SendGraft,
    SendAck,
    SendAssert,
    Adopt,
    UpPruned,
    UpResumed,
    GraftPending,
    Acked,
    OifPruned,
    OifResumed,
    Expired,
    Won,
    Lost,
}

/// `Earliest` arms unless armed earlier, at the instant the machine drew
/// (checked against `[now, now + ⅔·T_PruneDel)`).
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

const FLOOD: &str = "dm-03 Forwarding: every oif with a neighbor or member; data refreshes";
const PRUNE: &str = "dm-03 Prune: data on the iif with a null oif list prunes upstream";
const RATE: &str = "dm-03 Prune, Assert: at most one data-triggered message per 3 s";
const OVERRIDE: &str = "dm-03 Join: a router that needs the data overrides within T_PruneDel";
const SUPPRESS: &str = "dm-03 Join: an overheard Join already overrode the Prune";
const UNNEEDED: &str = "dm-03 Join: only a router with a non-null oif list overrides";
const ACK: &str = "dm-03 Graft: the upstream neighbor's Graft-Ack ends the retries";
const NO_GRAFT: &str = "dm-03 Graft: a Graft-Ack acks a pending Graft to that neighbor";
const ELECTED: &str = "paper §3.1: downstream routers store the elected forwarder";
const GRAFT: &str = "dm-03 Graft: a pruned router that needs the data grafts upstream";
const ON_IIF: &str = "dm-03 Forwarding: the iif is never an oif";
const LEAVE: &str = "paper §3.2: MLD notifies PIM-DM; a null oif list prunes upstream";
const TIMEOUT: &str = "paper §3.1: the (S,G) entry is deleted when its timer expires";
const RESUME: &str = "dm-03 Prune: our Prune's holdtime runs out; the flood resumes";
const RETRY: &str = "dm-03 Graft: an unacknowledged Graft is resent every 3 s";
const PRUNE_DELAY: &str = "dm-03 Prune: a LAN Prune takes effect after T_PruneDel";
const HOLD: &str = "dm-03 Prune: a pruned oif forwards again after the holdtime";
const JOINED: &str = "dm-03 Join: a Join cancels a pending or held Prune";
const GRAFTED: &str = "dm-03 Graft: a Graft clears the oif's Prune and is acked";
const ASSERT: &str = "dm-03 Assert: lower (pref, metric), then higher address, wins";
const LOSER: &str = "dm-03 Assert: the loser forwards again after the assert time";
const NEW_NBR: &str = "dm-03 Hello: a new neighbor clears the Prune on its interface";
const MEMBER: &str = "paper §3.2: MLD reports a new member; its oif forwards again";
const OLIST: &str = "dm-03 Forwarding: changes the oif list, no (S,G) state";
const NO_TIMER: &str = "the timer does not run in this state";

#[rustfmt::skip]
pub(crate) const UPSTREAM: &[Row] = &[
    (Each, DataIif, No, Each, &[], &[Arm(Data)], Transition, FLOOD),
    (Forwarding, DataIif, Yes, Pruned, &[SendPrune, UpPruned], &[Arm(Data), Arm(Hold)], Transition, PRUNE),
    (Pruned, DataIif, Yes, Pruned, &[SendPrune, UpPruned], &[Arm(Data), Arm(Hold)], Transition, PRUNE),
    (AckPending, DataIif, Yes, Pruned, &[SendPrune, UpPruned], &[Arm(Data), Stop(Retry), Arm(Hold)], Transition, PRUNE),
    (Each, DataIif, Limited, Each, &[], &[Arm(Data)], Transition, RATE),
    (Each, PruneHeard, Yes, Each, &[], &[Earliest(Override)], Transition, OVERRIDE),
    (Each, PruneHeard, Armed, Each, &[], &[Earliest(Override)], Transition, OVERRIDE),
    (Each, PruneHeard, No, Each, &[], &[], Ignored, UNNEEDED),
    (Each, JoinHeard, Armed, Each, &[], &[Stop(Override)], Transition, SUPPRESS),
    (Each, JoinHeard, No, Each, &[], &[], Ignored, SUPPRESS),
    (Forwarding, GraftAck, Any, Forwarding, &[], &[], Ignored, NO_GRAFT),
    (Pruned, GraftAck, Any, Pruned, &[], &[], Ignored, NO_GRAFT),
    (AckPending, GraftAck, Yes, Forwarding, &[Acked], &[Stop(Retry)], Transition, ACK),
    (AckPending, GraftAck, No, AckPending, &[], &[], Ignored, NO_GRAFT),
    (Each, AssertIif, Yes, Each, &[Adopt], &[], Transition, ELECTED),
    (Each, AssertIif, No, Each, &[], &[], Ignored, ELECTED),
    (Forwarding, GraftToUs, Any, Forwarding, &[], &[], Ignored, GRAFT),
    (Pruned, GraftToUs, Any, AckPending, &[SendGraft, GraftPending], &[Stop(Hold), Arm(Retry)], Transition, GRAFT),
    (AckPending, GraftToUs, Any, AckPending, &[], &[], Ignored, GRAFT),
    (Forwarding, MemberJoin, Yes, Forwarding, &[], &[], Ignored, GRAFT),
    (Pruned, MemberJoin, Yes, AckPending, &[SendGraft, GraftPending], &[Stop(Hold), Arm(Retry)], Transition, GRAFT),
    (AckPending, MemberJoin, Yes, AckPending, &[], &[], Ignored, GRAFT),
    (Each, MemberJoin, No, Each, &[], &[], Ignored, ON_IIF),
    (Forwarding, MemberLeave, Yes, Pruned, &[SendPrune, UpPruned], &[Arm(Hold)], Transition, LEAVE),
    (Forwarding, MemberLeave, No, Forwarding, &[], &[], Ignored, LEAVE),
    (Pruned, MemberLeave, Any, Pruned, &[], &[], Ignored, LEAVE),
    (AckPending, MemberLeave, Any, AckPending, &[], &[], Ignored, LEAVE),
    (Each, Expire(Override), Any, Each, &[SendJoin], &[], Transition, OVERRIDE),
    (Forwarding, Expire(Hold), Any, Forwarding, &[], &[], Impossible, NO_TIMER),
    (Pruned, Expire(Hold), Any, Forwarding, &[UpResumed], &[], Transition, RESUME),
    (AckPending, Expire(Hold), Any, AckPending, &[], &[], Impossible, NO_TIMER),
    (Forwarding, Expire(Retry), Any, Forwarding, &[], &[], Impossible, NO_TIMER),
    (Pruned, Expire(Retry), Any, Pruned, &[], &[], Impossible, NO_TIMER),
    (AckPending, Expire(Retry), Any, AckPending, &[SendGraft], &[Arm(Retry)], Transition, RETRY),
    (Each, Expire(Data), Any, Gone, &[Expired], &[], Transition, TIMEOUT),
];

#[rustfmt::skip]
pub(crate) const DOWNSTREAM: &[Row] = &[
    (Each, DataOif, Yes, Each, &[SendAssert], &[], Transition, ASSERT),
    (Each, DataOif, Limited, Each, &[], &[], Ignored, RATE),
    (Each, DataOif, No, Each, &[], &[], Ignored, ASSERT),
    (NoInfo, JoinToUs, Any, NoInfo, &[], &[], Ignored, JOINED),
    (PrunePending, JoinToUs, Any, NoInfo, &[OifResumed], &[Stop(Pending)], Transition, JOINED),
    (Pruned, JoinToUs, Any, NoInfo, &[OifResumed], &[Stop(Hold)], Transition, JOINED),
    (NoInfo, PruneToUs, Any, PrunePending, &[], &[Arm(Pending)], Transition, PRUNE_DELAY),
    (PrunePending, PruneToUs, Any, PrunePending, &[], &[], Ignored, PRUNE_DELAY),
    (Pruned, PruneToUs, Any, Pruned, &[], &[], Ignored, HOLD),
    (NoInfo, GraftToUs, Any, NoInfo, &[SendAck], &[], Transition, GRAFTED),
    (PrunePending, GraftToUs, Any, NoInfo, &[SendAck, OifResumed], &[Stop(Pending)], Transition, GRAFTED),
    (Pruned, GraftToUs, Any, NoInfo, &[SendAck, OifResumed], &[Stop(Hold)], Transition, GRAFTED),
    (Each, AssertOif, Yes, Each, &[SendAssert, Won], &[Stop(Assert)], Transition, ASSERT),
    (Each, AssertOif, Limited, Each, &[Won], &[Stop(Assert)], Transition, ASSERT),
    (Each, AssertOif, No, Each, &[Lost], &[Arm(Assert)], Transition, ASSERT),
    (NoInfo, Hello, Yes, NoInfo, &[], &[], Ignored, NEW_NBR),
    (PrunePending, Hello, Yes, NoInfo, &[OifResumed], &[Stop(Pending)], Transition, NEW_NBR),
    (Pruned, Hello, Yes, NoInfo, &[OifResumed], &[Stop(Hold)], Transition, NEW_NBR),
    (Each, Hello, No, Each, &[], &[], Ignored, NEW_NBR),
    (Each, NbrExpiry, Any, Each, &[], &[], Ignored, OLIST),
    (NoInfo, MemberJoin, Any, NoInfo, &[], &[], Ignored, MEMBER),
    (PrunePending, MemberJoin, Any, NoInfo, &[OifResumed], &[Stop(Pending)], Transition, MEMBER),
    (Pruned, MemberJoin, Any, NoInfo, &[OifResumed], &[Stop(Hold)], Transition, MEMBER),
    (Each, MemberLeave, Any, Each, &[], &[], Ignored, OLIST),
    (NoInfo, Expire(Pending), Any, NoInfo, &[], &[], Impossible, NO_TIMER),
    (PrunePending, Expire(Pending), Any, Pruned, &[OifPruned], &[Arm(Hold)], Transition, PRUNE_DELAY),
    (Pruned, Expire(Pending), Any, Pruned, &[], &[], Impossible, NO_TIMER),
    (NoInfo, Expire(Hold), Any, NoInfo, &[], &[], Impossible, NO_TIMER),
    (PrunePending, Expire(Hold), Any, PrunePending, &[], &[], Impossible, NO_TIMER),
    (Pruned, Expire(Hold), Any, NoInfo, &[OifResumed], &[], Transition, HOLD),
    (Each, Expire(Assert), Any, Each, &[], &[], Transition, LOSER),
];

/// A cell: (upstream table?, row, state).
pub(crate) type Cell = (bool, usize, St);

/// The row of `table` for `(state, ev, g)`; none or two is a table bug.
fn row(table: &[Row], state: St, ev: Ev, g: G) -> usize {
    let fits = |r: &Row| [Each, state].contains(&r.0) && r.1 == ev && [Any, g].contains(&r.2);
    let rows: Vec<usize> = (0..table.len()).filter(|&i| fits(&table[i])).collect();
    assert_eq!(rows.len(), 1, "{state:?} × {ev:?} × {g:?}: rows {rows:?}");
    rows[0]
}

/// A machine state as a table state and the deadline of its timer.
fn up_of(u: UpstreamState) -> (St, Option<SimTime>) {
    match u {
        UpstreamState::Forwarding => (Forwarding, None),
        UpstreamState::Pruned { until } => (Pruned, Some(until)),
        UpstreamState::AckPending { retry_at } => (AckPending, Some(retry_at)),
    }
}

fn down_of(d: DownstreamPrune) -> (St, Option<SimTime>) {
    match d {
        DownstreamPrune::NoInfo => (NoInfo, None),
        DownstreamPrune::PrunePending { fire_at } => (PrunePending, Some(fire_at)),
        DownstreamPrune::Pruned { until } => (Pruned, Some(until)),
    }
}

/// The timer a state carries, if any.
fn timer_of(state: St) -> Option<Timer> {
    [(Pruned, Hold), (AckPending, Retry), (PrunePending, Pending)]
        .into_iter()
        .find_map(|(s, t)| (s == state).then_some(t))
}

/// An interface: its index, our address, the neighbors' liveness
/// deadlines, and whether a member of G is there.
type Iface = (IfIndex, Ipv6Addr, BTreeMap<Ipv6Addr, SimTime>, bool);

/// What the tables read and write, as the machine holds it.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct State {
    sg: Sg,
    rpf: RpfInfo,
    prune_delay: SimDuration,
    entry: Option<(SgDetail, SimTime)>,
    ifaces: Vec<Iface>,
    next_hello: Option<SimTime>,
}

pub(crate) fn state_of(r: &PimRouter, sg: Sg, rpf: RpfInfo) -> State {
    let iface = |(i, x): (&u8, &IfaceState)| {
        let member = x.members.contains(&sg.1);
        (*i, x.my_addr, x.neighbors.clone(), member)
    };
    let ifaces = r.ifaces.iter().map(iface).collect();
    let slot = r.entries.slot_of(sg);
    let entry = slot.map(|i| (r.entries.row(i).clone(), r.entries.expires_at(i)));
    let (prune_delay, next_hello) = (r.cfg.prune_delay, r.next_hello);
    State {
        sg,
        rpf,
        prune_delay,
        entry,
        ifaces,
        next_hello,
    }
}

/// One machine call, as the harnesses make it.
pub(crate) enum Call {
    Data(IfIndex),
    Msg(IfIndex, Ipv6Addr, PimMessage),
    Member(IfIndex, bool),
    Deadline,
}

/// What one call does, as the tables predict it.
#[derive(Default)]
pub(crate) struct Effect {
    pub(crate) cells: Vec<Cell>,
    fwd: Vec<IfIndex>,
    sends: Vec<PimSend>,
    notes: Vec<PimNote>,
}

impl State {
    fn iface(&self, i: IfIndex) -> Option<&Iface> {
        self.ifaces.iter().find(|x| x.0 == i)
    }

    fn mine(&self, i: IfIndex, addr: Ipv6Addr) -> bool {
        self.iface(i).is_some_and(|x| x.1 == addr)
    }

    /// The oif list, with the member on `left` gone.
    fn olist(&self, e: &SgDetail, left: Option<IfIndex>) -> Vec<IfIndex> {
        let forwards = |(k, o): &&(IfIndex, OifState)| {
            let (_, _, nbrs, member) = self.iface(*k).expect("an oif is an interface");
            let pruned = matches!(o.prune, DownstreamPrune::Pruned { .. });
            let wanted = (*member && left != Some(*k)) || (!nbrs.is_empty() && !pruned);
            o.assert_loser_until.is_none() && wanted
        };
        e.oifs.iter().filter(forwards).map(|(k, _)| *k).collect()
    }

    /// The deadline of every running timer.
    fn deadlines(&self) -> Vec<SimTime> {
        let nbrs = self.ifaces.iter().flat_map(|x| x.2.values().copied());
        let mut ts: Vec<SimTime> = self.next_hello.into_iter().chain(nbrs).collect();
        if let Some((e, expires)) = &self.entry {
            let up = [Some(*expires), e.override_join_at];
            let oif = |(_, o): &(u8, OifState)| [down_of(o.prune).1, o.assert_loser_until];
            let timers = e.oifs.iter().flat_map(oif).chain(up);
            ts.extend(timers.chain([up_of(e.upstream_state).1]).flatten());
        }
        ts
    }
}

impl Call {
    /// The interface the call comes in on, and who it is from.
    fn at(&self) -> (IfIndex, Ipv6Addr) {
        match self {
            Call::Msg(i, from, _) => (*i, *from),
            Call::Data(i) | Call::Member(i, _) => (*i, Ipv6Addr::UNSPECIFIED),
            Call::Deadline => (0, Ipv6Addr::UNSPECIFIED),
        }
    }

    /// An Assert for `sg`, as (preference, metric, sender).
    fn assert(&self, sg: Sg) -> Option<(u32, u32, Ipv6Addr)> {
        match self {
            Call::Msg(
                _,
                from,
                PimMessage::Assert {
                    group,
                    source,
                    metric_pref,
                    metric,
                },
            ) if (*source, *group) == sg => Some((*metric_pref, *metric, *from)),
            _ => None,
        }
    }
}

fn yes(b: bool) -> G {
    [No, Yes][usize::from(b)]
}

/// `yes(b)`, but `Limited` when the last Prune / Assert went out under
/// 3 s ago.
fn rated(b: bool, last: Option<SimTime>, now: SimTime) -> G {
    [No, [Limited, Yes][usize::from(rate_ok(last, now))]][usize::from(b)]
}

/// `a` beats `b` in an assert: lower (preference, metric), then the
/// higher address.
fn beats(a: (u32, u32, Ipv6Addr), b: (u32, u32, Ipv6Addr)) -> bool {
    (a.0, a.1) < (b.0, b.1) || ((a.0, a.1) == (b.0, b.1) && a.2 > b.2)
}

/// How long timer `t` runs once armed.
fn length(t: Timer, prune_delay: SimDuration) -> SimDuration {
    match t {
        Data => DATA_TIMEOUT,
        Pending => prune_delay,
        Hold => PRUNE_HOLD_TIME,
        Retry => GRAFT_RETRY,
        Assert => ASSERT_TIME,
        Override => prune_delay * 2 / 3,
    }
}

/// The (subject, event, guard) of each cell `call` hits, in the order the
/// machine takes them. The subject is the upstream machine (`None`) or
/// an oif's. An origin router (no upstream neighbor) is outside the model.
pub(crate) fn classify(st: &State, call: &Call, now: SimTime) -> Vec<(Option<IfIndex>, Ev, G)> {
    let Some((e, expires)) = st.entry.as_ref().filter(|(e, _)| e.upstream.is_some()) else {
        return Vec::new();
    };
    let ((i, from), sg, armed) = (call.at(), st.sg, e.override_join_at.is_some());
    let (iif, oif, to_us) = (i == e.iif, e.oif(i), |a: &Ipv6Addr| st.mine(i, *a));
    let due = |t: Option<SimTime>| t.is_some_and(|t| t <= now);
    let mut out = Vec::new();
    match call {
        Call::Data(_) if iif => {
            let g = rated(st.olist(e, None).is_empty(), e.last_prune_tx, now);
            out.push((None, DataIif, g));
        }
        Call::Data(_) => out.extend(oif.map(|o| {
            let g = rated(st.olist(e, None).contains(&i), o.last_assert_tx, now);
            (Some(i), DataOif, g)
        })),
        Call::Member(_, true) if iif => out.push((None, MemberJoin, No)),
        Call::Member(_, joined) => {
            let up = (MemberLeave, yes(st.olist(e, Some(i)).is_empty()));
            let (ev, g) = if *joined { (MemberJoin, Yes) } else { up };
            out.push((None, ev, g));
            out.extend(oif.map(|_| (Some(i), ev, Any)));
        }
        Call::Msg(.., PimMessage::Hello { .. }) => {
            let new = !st.iface(i).is_some_and(|x| x.2.contains_key(&from));
            out.extend(oif.map(|_| (Some(i), Hello, yes(new))));
        }
        Call::Msg(
            ..,
            PimMessage::JoinPrune {
                upstream,
                joins,
                prunes,
            },
        ) => {
            let (to_us, heard) = (to_us(upstream), iif && !to_us(upstream));
            if prunes.contains(&sg) && to_us && oif.is_some() {
                out.push((Some(i), PruneToUs, Any));
            } else if prunes.contains(&sg) && heard && e.upstream == Some(*upstream) {
                let need = !st.olist(e, None).is_empty();
                out.push((
                    None,
                    PruneHeard,
                    if need && armed { Armed } else { yes(need) },
                ));
            }
            if joins.contains(&sg) && to_us && oif.is_some() {
                out.push((Some(i), JoinToUs, Any));
            } else if joins.contains(&sg) && heard {
                out.push((None, JoinHeard, if armed { Armed } else { No }));
            }
        }
        Call::Msg(.., PimMessage::Graft { upstream, entries }) => {
            if to_us(upstream) && entries.contains(&sg) && oif.is_some() {
                out.extend([(None, GraftToUs, Any), (Some(i), GraftToUs, Any)]);
            }
        }
        Call::Msg(.., PimMessage::GraftAck { entries, .. }) if entries.contains(&sg) => {
            out.push((None, GraftAck, yes(e.upstream == Some(from))));
        }
        Call::Msg(..) => {
            let (theirs, ours) = (call.assert(sg), st.iface(i).map(|x| x.1));
            let ours = ours.map(|a| (st.rpf.metric_pref, st.rpf.metric, a));
            if let (Some(theirs), true) = (theirs, iif) {
                let better = e.iif_assert_winner.is_none_or(|w| beats(theirs, w));
                out.push((None, AssertIif, yes(better)));
            } else if let (Some(theirs), Some(o), Some(ours)) = (theirs, oif, ours) {
                let g = rated(beats(ours, theirs), o.last_assert_tx, now);
                out.push((Some(i), AssertOif, g));
            }
        }
        Call::Deadline => {
            let gone = |k| st.iface(k).is_some_and(|x| x.2.values().any(|d| *d <= now));
            let gone = e.oifs.iter().filter(|(k, _)| gone(*k));
            out.extend(gone.map(|(k, _)| (Some(*k), NbrExpiry, Any)));
            if *expires <= now {
                out.push((None, Expire(Data), Any));
                return out;
            }
            let (up, t) = up_of(e.upstream_state);
            let up = [(e.override_join_at, Some(Override)), (t, timer_of(up))];
            let up = up
                .into_iter()
                .filter_map(|(t, timer)| timer.filter(|_| due(t)));
            out.extend(up.map(|t| (None, Expire(t), Any)));
            for (k, o) in &e.oifs {
                let (down, t) = down_of(o.prune);
                for (t, timer) in [(t, timer_of(down)), (o.assert_loser_until, Some(Assert))] {
                    out.extend(timer.filter(|_| due(t)).map(|t| (Some(*k), Expire(t), Any)));
                }
            }
        }
    }
    out
}

/// Run `call` at `now` on the model: classify it, then apply each cell's
/// row in turn. `chosen` is the override-join instant the machine drew,
/// when the harness knows it.
pub(crate) fn step(st: &mut State, call: &Call, now: SimTime, chosen: Option<SimTime>) -> Effect {
    let ((iface, from), sg, rpf, mut fx) = (call.at(), st.sg, st.rpf, Effect::default());
    let delay = st.prune_delay;
    if matches!(call, Call::Deadline) && st.next_hello.is_some_and(|t| t <= now) {
        fx.sends.extend(st.ifaces.iter().map(|x| hello(x.0)));
        st.next_hello = Some(now + HELLO_PERIOD);
    }
    if st.entry.is_none() {
        let (mut e, mut fresh) = (SgDetail::default(), st.clone());
        let oifs = st.ifaces.iter().filter(|x| x.0 != rpf.iif);
        (e.iif, e.upstream) = (rpf.iif, rpf.upstream);
        e.oifs = oifs.map(|x| (x.0, OifState::default())).collect();
        fresh.entry = Some((e, now + DATA_TIMEOUT));
        // The events that create the (S,G) entry.
        let creates = [DataIif, DataOif, JoinToUs, GraftToUs, AssertIif, AssertOif];
        let cells = classify(&fresh, call, now);
        if cells.iter().any(|c| creates.contains(&c.1)) {
            *st = fresh;
        }
    }
    let cells = classify(st, call, now);
    for x in st.ifaces.iter_mut() {
        match call {
            Call::Msg(i, _, PimMessage::Hello { holdtime }) if *i == x.0 => {
                x.2.insert(from, now + *holdtime);
            }
            Call::Member(i, joined) if *i == x.0 => x.3 = *joined,
            Call::Deadline => x.2.retain(|_, d| *d > now),
            _ => {}
        }
    }
    for (subject, ev, g) in cells {
        let iface = subject.unwrap_or(iface);
        let my = st.iface(iface).map_or(from, |x| x.1);
        let (e, expires) = st.entry.as_mut().expect("a cell has an entry");
        let (table, (cur, t0)) = match subject {
            None => (UPSTREAM, up_of(e.upstream_state)),
            Some(k) => (DOWNSTREAM, down_of(e.oif(k).expect("an oif").prune)),
        };
        let i = row(table, cur, ev, g);
        let (_, _, _, next, outs, tms, _, _) = table[i];
        fx.cells.push((subject.is_none(), i, cur));
        let next = if next == Each { cur } else { next };
        let has = |tm| tms.contains(&tm);
        // The next state's timer: armed anew, or kept running.
        let t1 = timer_of(next).map(|t| match has(Arm(t)) {
            true => now + length(t, delay),
            false if next == cur && ev != Expire(t) => t0.expect("a running timer"),
            false => panic!("row {i} enters {next:?} without arming {t:?}"),
        });
        let left = timer_of(cur).filter(|t| next != cur && next != Gone && ev != Expire(*t));
        assert!(left.is_none_or(|t| has(Stop(t))), "row {i} leaves {left:?}");
        if has(Arm(Data)) {
            *expires = now + DATA_TIMEOUT;
        }
        if has(Stop(Override)) || ev == Expire(Override) {
            e.override_join_at = None;
        }
        if let (true, Some(v)) = (has(Earliest(Override)), chosen) {
            let window = now <= v && v < now + length(Override, delay);
            let kept = e.override_join_at == Some(v);
            assert!(
                kept || window && e.override_join_at.is_none_or(|o| v < o),
                "joins at {v}"
            );
            e.override_join_at = Some(v);
        }
        let until = t1.unwrap_or(now);
        match subject {
            None => {
                e.upstream_state = match next {
                    Pruned => UpstreamState::Pruned { until },
                    AckPending => UpstreamState::AckPending { retry_at: until },
                    _ => UpstreamState::Forwarding,
                }
            }
            Some(k) => {
                let o = e.oif_mut(k).expect("an oif");
                o.prune = match next {
                    PrunePending => DownstreamPrune::PrunePending { fire_at: until },
                    Pruned => DownstreamPrune::Pruned { until },
                    _ => DownstreamPrune::NoInfo,
                };
                let stop = has(Stop(Assert)) || ev == Expire(Assert);
                let armed = has(Arm(Assert)).then_some(now + ASSERT_TIME);
                o.assert_loser_until = armed.or(o.assert_loser_until.filter(|_| !stop));
            }
        }
        let up = e.upstream.expect("in the model");
        for out in outs {
            let (sends, notes) = (&mut fx.sends, &mut fx.notes);
            match out {
                SendPrune => {
                    e.last_prune_tx = Some(now);
                    sends.push(join_prune(e.iif, up, sg, false));
                }
                SendJoin => sends.push(join_prune(e.iif, up, sg, true)),
                SendGraft => sends.push(graft(e.iif, up, sg)),
                SendAck => {
                    let (upstream, entries, dest) = (my, vec![sg], PimDest::Unicast(from));
                    let msg = PimMessage::GraftAck { upstream, entries };
                    sends.push(PimSend { iface, dest, msg });
                }
                SendAssert => {
                    e.oif_mut(iface).expect("an oif").last_assert_tx = Some(now);
                    sends.push(assert_msg(iface, sg.0, sg.1, &rpf));
                }
                Adopt => {
                    let winner = from;
                    (e.iif_assert_winner, e.upstream) = (call.assert(sg), Some(winner));
                    notes.push(PimNote::AssertWinnerAdopted { sg, iface, winner });
                }
                UpPruned => notes.push(PimNote::UpstreamPruned { sg, until }),
                UpResumed => notes.push(PimNote::UpstreamResumed { sg }),
                GraftPending => notes.push(PimNote::UpstreamGraftPending { sg }),
                Acked => notes.push(PimNote::GraftAcked { sg, from }),
                Expired => notes.push(PimNote::EntryExpired { sg }),
                OifPruned => notes.push(PimNote::OifPruned { sg, iface, until }),
                OifResumed => notes.push(PimNote::OifResumed { sg, iface }),
                Won | Lost => {
                    let (won, peer) = (*out == Won, from);
                    notes.push(PimNote::AssertResolved {
                        sg,
                        iface,
                        won,
                        peer,
                    });
                }
            }
        }
        if next == Gone {
            st.entry = None;
        }
    }
    if let (Call::Data(i), Some((e, _))) = (call, &st.entry) {
        if *i == e.iif {
            fx.fwd = st.olist(e, None);
        }
    }
    fx
}

const fn fe80(last: u16) -> Ipv6Addr {
    Ipv6Addr::new(0xfe80, 0, 0, 0, 0, 0, 0, last)
}

/// S and G; our route to S is iif 0 via U = fe80::1, metric (101, 2).
fn sg() -> Sg {
    let s = Ipv6Addr::new(0x2001, 0xdb8, 1, 0, 0, 0, 0, 5);
    (s, GroupAddr::test_group(1))
}

fn rpf() -> RpfInfo {
    let (upstream, metric_pref, metric) = (Some(fe80(1)), 101, 2);
    RpfInfo {
        iif: 0,
        upstream,
        metric_pref,
        metric,
    }
}

/// The call one random `u64` draws: on oif `k` from the downstream
/// neighbor fe80::2k (Hellos also from fe80::3k), or on the iif from a
/// sibling (fe80::9), the upstream neighbor, someone else (fe80::77) or
/// an asserter. Asserters are (preference, metric, address); we are
/// fe80::1k with (101, 2).
fn draw(x: u64, st: &State) -> Call {
    let ((s, g), k, pick) = (sg(), 1 + (x >> 8) as u8 % 2, (x >> 12) as usize);
    let (me, down) = (fe80(0x10 + u16::from(k)), fe80(0x20 + u16::from(k)));
    let up = st.entry.as_ref().and_then(|(e, _)| e.upstream);
    let (up, hello_from) = (up.unwrap_or(fe80(1)), [down, fe80(0x30 + u16::from(k))]);
    let (upstream, entries) = ([up, up, up, fe80(0x77)][pick % 4], vec![sg()]);
    let (on_iif, on_oif) = (
        [(1, 2), (1, 3), (2, 4)],
        [(1, 0x30), (2, 0xff), (2, 1), (9, 0x30)],
    );
    let (i, (metric, from)) = [(0, on_iif[pick % 3]), (k, on_oif[pick % 4])][(x % 2) as usize];
    let rpf = RpfInfo { metric, ..rpf() };
    let member = (x >> 8) as u8 % 3;
    let (i, from, msg) = match (x % 16) as u8 {
        code @ (0 | 1) => (k, down, join_prune(k, me, sg(), code == 0).msg),
        2 => (k, down, graft(k, me, sg()).msg),
        code @ (3 | 4) => (0, fe80(9), join_prune(0, up, sg(), code == 3).msg),
        5 => (0, upstream, PimMessage::GraftAck { upstream, entries }),
        6 | 7 => (i, fe80(from), assert_msg(i, s, g, &rpf).msg),
        8 | 9 => (k, hello_from[pick % 2], hello(k).msg),
        10 | 15 => return Call::Data(0),
        11 | 12 => return Call::Data(k),
        _ => return Call::Member(member, !st.iface(member).is_some_and(|x| x.3)),
    };
    Call::Msg(i, from, msg)
}

thread_local! {
    static REACHED: RefCell<BTreeSet<Cell>> = const { RefCell::new(BTreeSet::new()) };
}

/// Make `call` on the machine and the model alike, compare everything,
/// and record the cells.
fn both(r: &mut PimRouter, model: &mut State, call: &Call, now: SimTime) {
    let ((s, g), lookup) = (sg(), |src: Ipv6Addr| (src == sg().0).then(rpf));
    let (fwd, sends) = match call {
        Call::Data(i) => r.on_data(*i, s, g, now, &lookup),
        Call::Msg(i, from, msg) => (Vec::new(), r.on_message(*i, *from, msg, now, &lookup)),
        Call::Member(i, joined) => (Vec::new(), r.set_membership(*i, g, *joined, now, &lookup)),
        Call::Deadline => (Vec::new(), r.on_deadline(now)),
    };
    let chosen = r
        .entries
        .slot_of(sg())
        .and_then(|i| r.entries.row(i).override_join_at);
    let fx = step(model, call, now, chosen);
    let sorted = |notes: &[PimNote]| {
        let mut v: Vec<String> = notes.iter().map(|n| format!("{n:?}")).collect();
        v.sort();
        v
    };
    let at = format!("at {now}, cells {:?}", fx.cells);
    assert_eq!(
        (fwd, sends),
        (fx.fwd, fx.sends),
        "forward list and sends {at}"
    );
    assert_eq!(sorted(&r.take_notes()), sorted(&fx.notes), "notes {at}");
    assert_eq!(state_of(r, sg(), rpf()), *model, "state {at}");
    assert_eq!(
        r.next_deadline(),
        model.deadlines().into_iter().min(),
        "deadline {at}"
    );
    REACHED.with(|c| c.borrow_mut().extend(fx.cells));
}

/// The modelled router: iif 0 and oifs 1, 2 at fe80::10, fe80::11 and
/// fe80::12.
pub(crate) fn router() -> PimRouter {
    let rng = mobicast_sim::RngFactory::new(7).stream("pim");
    let mut r = PimRouter::new(PimConfig::default(), rng);
    for k in 0..3 {
        r.add_iface(k, fe80(0x10 + u16::from(k)));
    }
    r
}

/// One random run: each `u64` draws a call and a clock advance, some of
/// which land on a running timer's deadline or 1 ns either side of it.
fn run(steps: &[u64]) {
    let mut r = router();
    let mut now = SimTime::from_secs(1);
    r.start(now);
    let mut model = state_of(&r, sg(), rpf());
    for &x in steps {
        let (y, timers) = (x >> 24, model.deadlines());
        let at = timers[(y / 16) as usize % timers.len()];
        now = now.max(match y % 16 {
            0..=9 => now + SimDuration::from_millis(y / 16 % 200),
            10 => now + SimDuration::from_millis(y / 16 % 240_000),
            11 => at,
            12 => at - SimDuration::from_nanos(1),
            13 => at + SimDuration::from_nanos(1),
            _ => now,
        });
        while let Some(d) = r.next_deadline().filter(|d| *d <= now) {
            both(&mut r, &mut model, &Call::Deadline, d);
        }
        let call = draw(x, &model);
        both(&mut r, &mut model, &call, now);
    }
}

proptest! {
    fn the_machine_follows_the_tables(steps in proptest::collection::vec(any::<u64>(), 1..1500)) {
        run(&steps);
    }
}

/// The cells the proptest reaches, run once per test binary: the shim
/// seeds it from its name, so the set is the same on every run.
pub(crate) fn proptest_cells() -> &'static BTreeSet<Cell> {
    static CELLS: OnceLock<BTreeSet<Cell>> = OnceLock::new();
    CELLS.get_or_init(|| {
        the_machine_follows_the_tables();
        REACHED.with(|c| c.take())
    })
}

/// Every cell of the tables with its kind: each row in each state it
/// stands for.
fn cells() -> impl Iterator<Item = (Cell, Kind)> {
    let up = UPSTREAM
        .iter()
        .map(|r| (true, r, [Forwarding, Pruned, AckPending]));
    let down = DOWNSTREAM
        .iter()
        .map(|r| (false, r, [NoInfo, PrunePending, Pruned]));
    let rows = up.enumerate().chain(down.enumerate());
    rows.flat_map(|(i, (t, r, states))| {
        let of = states.into_iter().filter(|s| [Each, *s].contains(&r.0));
        of.map(move |s| ((t, i, s), r.6))
    })
}

/// Cells per table by kind, and how many the proptest and the scenarios
/// reach.
pub(crate) fn report(proptest: &BTreeSet<Cell>, scenarios: &BTreeSet<Cell>) -> String {
    let mut lines = Vec::new();
    for (name, up) in [("upstream", true), ("downstream", false)] {
        for kind in [Transition, Ignored, Impossible] {
            let of: Vec<Cell> = cells()
                .filter(|(c, k)| c.0 == up && *k == kind)
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
