//! The network-wide protocol invariant oracle.
//!
//! A passive observer wired into the event loop (via [`WorldProbe`]) plus a
//! periodic state poll and a post-run pass over the recorder, asserting the
//! interoperation invariants the paper's hazards revolve around:
//!
//! * **Loop-freedom** — no causal forwarding chain re-enters a link
//!   natively (tunnel detours legally revisit links; a native revisit is a
//!   multicast forwarding loop).
//! * **At-most-once delivery** — once asserts have resolved and every
//!   scheduled disturbance (move, fault window, crash) has cleared,
//!   duplicate delivery of the same datagram to the same receiver must not
//!   persist. Short bursts are legal — PIM-DM re-runs its assert election
//!   whenever flooding resumes — so the invariant bounds the *run length*
//!   of consecutively duplicated datagrams, which a stuck dual-forwarder
//!   LAN violates within seconds.
//! * **(S,G) expiry** — no router holds an (S,G) entry past its
//!   data-timeout deadline (the paper's 210 s default) plus a timer-
//!   granularity margin.
//! * **Prune/graft legality** — an entry's incoming interface never
//!   appears in its own outgoing forwarding set.
//! * **Binding-cache freshness** — no home agent keeps (and therefore
//!   forwards to) a care-of binding past its lifetime.
//! * **Bounded encapsulation** — RFC 2473 nesting depth never exceeds the
//!   tunnel encapsulation limit budget ([`MAX_ENCAP_DEPTH`]).
//! * **Leave delay** — after the last member leaves a link, data stops
//!   flowing onto it within T_MLI (260 s with RFC 2710 defaults) plus a
//!   margin.
//!
//! The oracle is on by default in every scenario run; its summary (and any
//! violations, rendered as strings) lands in the JSON report.

use crate::parsed::parsed;
use crate::recorder::{Recorder, WindowEnd, IN_FLIGHT_TAIL};
use crate::router_node::RouterNode;
use mobicast_ipv6::DEFAULT_ENCAP_LIMIT;
use mobicast_net::{Frame, IfIndex, LinkId, NodeId, World, WorldProbe};
use mobicast_sim::{SimDuration, SimTime};
use serde::Serialize;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Hard ceiling on RFC 2473 nesting depth: one plain packet, one
/// unlimited first-level tunnel, then [`DEFAULT_ENCAP_LIMIT`] counted
/// levels. Anything deeper escaped the encapsulation-limit machinery.
pub const MAX_ENCAP_DEPTH: u32 = DEFAULT_ENCAP_LIMIT as u32 + 2;

/// Period of the router-state poll.
pub const EPOCH: SimDuration = SimDuration::from_secs(5);

/// Longest tolerated run of consecutively duplicated datagrams (per
/// receiver, per delivery kind) after the settle point. An assert
/// re-election duplicates a handful of datagrams; a permanent dual
/// forwarder duplicates every one.
pub const MAX_DUP_RUN: usize = 40;

/// Timer-granularity slack for the (S,G) data-timeout check.
const SG_EXPIRY_MARGIN: SimDuration = SimDuration::from_secs(5);
/// Timer-granularity slack for the binding-lifetime check.
const BINDING_MARGIN: SimDuration = SimDuration::from_secs(5);
/// Slack on the leave-delay bound (query jitter + one data interval).
const LEAVE_MARGIN_SECS: f64 = 15.0;
/// Violations kept verbatim (the count keeps climbing past the cap).
const MAX_VIOLATIONS: usize = 32;

/// Everything the oracle measured and every invariant it saw broken,
/// serialized into the run report.
#[derive(Clone, Debug, Default, Serialize)]
pub struct OracleSummary {
    /// False when the scenario ran with the oracle disabled.
    pub enabled: bool,
    /// Human-readable invariant violations (empty on a legal run).
    pub violations: Vec<String>,
    /// Total violations detected (may exceed `violations.len()`).
    pub violation_count: u64,
    /// Duplicate deliveries over the whole run (a measured phenomenon of
    /// the tunnel approaches and assert races, not by itself a violation).
    pub duplicates_observed: u64,
    /// Deepest RFC 2473 nesting seen on any wire frame.
    pub max_tunnel_depth: u32,
    /// Largest stale-traffic window after a last member left a link (s).
    pub worst_leave_delay_secs: f64,
    /// Largest observed (S,G) overstay past its data-timeout deadline (s).
    pub worst_stale_sg_secs: f64,
    /// Largest observed binding-cache overstay past its lifetime (s).
    pub worst_binding_overstay_secs: f64,
    /// Multicast data frames observed on the wire.
    pub data_frames_seen: u64,
    /// Reconvergence SLO: seconds from the end of the last scheduled
    /// disturbance until first-copy delivery returned to full coverage of
    /// every subscribed receiver — and stayed there for the rest of the
    /// run. `None` when the check was not armed (no disturbance, or a
    /// run-long fault with no recovery point) or delivery never recovered.
    pub reconverge_secs: Option<f64>,
    /// The configured SLO bound, echoed for the report (`None` = unarmed).
    pub reconverge_bound_secs: Option<f64>,
    /// SLO verdict: `Some(false)` when recovery took longer than the bound
    /// or never happened; `None` when the check was not armed.
    pub reconverge_ok: Option<bool>,
    /// Protected-flow invariant: the worst per-receiver first-copy delivery
    /// ratio over the disturbance window among the pre-existing receivers.
    /// `None` when no floor was configured.
    pub protected_flow_min: Option<f64>,
    /// The configured delivery floor, echoed (`None` = unarmed).
    pub protected_flow_floor: Option<f64>,
    /// `Some(false)` when any protected receiver fell below the floor
    /// while the storm raged.
    pub protected_flow_ok: Option<bool>,
}

/// Cost accounting of the periodic state poll. With the SoA tables'
/// O(1) watermarks (`min_expires`) and mutation epochs in place, the
/// per-entry walks only run when a table may actually have something to
/// report — on a quiescent network every poll is O(routers), not
/// O(routers × entries). `mem_accounting.rs` asserts the walk counters do
/// not grow as listener counts do.
#[derive(Clone, Debug, Default, Serialize, serde::Deserialize)]
pub struct PollStats {
    /// Router inspections performed (polled routers × epochs).
    pub router_polls: u64,
    /// Inspections where the per-(S,G) walk actually ran.
    pub sg_walks: u64,
    /// Total (S,G) entries visited across all walks.
    pub sg_entries_walked: u64,
    /// Inspections where the binding-cache walk actually ran.
    pub binding_walks: u64,
    /// Total binding-cache entries visited across all walks.
    pub binding_entries_walked: u64,
}

#[derive(Default)]
struct OracleState {
    violations: Vec<String>,
    violation_count: u64,
    max_tunnel_depth: u32,
    data_frames_seen: u64,
    worst_stale_sg_secs: f64,
    worst_binding_overstay_secs: f64,
    /// The event-queue high-water is monotone, so its budget breach is
    /// reported once instead of on every subsequent poll.
    queue_depth_reported: bool,
    poll_stats: PollStats,
    /// Last PIM mutation epoch inspected per router: an unchanged epoch
    /// means the legality walk would reproduce its previous verdict.
    pim_epoch_seen: BTreeMap<NodeId, u64>,
}

fn push_violation(st: &mut OracleState, msg: String) {
    st.violation_count += 1;
    if st.violations.len() < MAX_VIOLATIONS {
        st.violations.push(msg);
    }
}

/// Overstay bookkeeping of the poll: how long past `expires` a piece of
/// state is still held, tracked in `worst`, and returned when it outlasted
/// the timer-granularity `margin` too (a violation).
fn overstay(now: SimTime, expires: SimTime, margin: SimDuration, worst: &mut f64) -> Option<f64> {
    if now <= expires {
        return None;
    }
    let over = (now - expires).as_secs_f64();
    *worst = worst.max(over);
    (now > expires + margin).then_some(over)
}

/// Leave delay: when the last subscribed receiver leaves a link, data must
/// stop flowing onto it within T_MLI (+ margin). Each receiver's position
/// over time is reconstructed from its initial link and the recorded moves;
/// a stale window runs from the departure to the next arrival of a receiver
/// on the link, or to the end of the run, and `latest_emission` answers it
/// with the latest data emission strictly inside. Returns the largest
/// stale-traffic window seen (seconds).
fn leave_delay_pass(
    st: &mut OracleState,
    rec: &Recorder,
    p: &FinalizeParams,
    latest_emission: impl Fn(LinkId, SimTime, WindowEnd) -> Option<SimTime>,
) -> f64 {
    let mut timeline: BTreeMap<NodeId, Vec<(SimTime, LinkId)>> = p
        .receivers
        .iter()
        .map(|(h, l)| (*h, vec![(SimTime::ZERO, *l)]))
        .collect();
    for m in &rec.moves {
        if let Some(tl) = timeline.get_mut(&m.host) {
            tl.push((m.time, m.to));
        }
    }
    let locate = |h: NodeId, t: SimTime| -> Option<LinkId> {
        timeline
            .get(&h)?
            .iter()
            .rev()
            .find(|(at, _)| *at <= t)
            .map(|(_, l)| *l)
    };
    let mut worst_leave = 0.0f64;
    for mv in rec.moves.iter().filter(|m| m.subscribed) {
        let Some(left) = mv.from else { continue };
        // Anyone (including the mover, post-move) still on the link?
        let occupied = timeline.keys().any(|h| locate(*h, mv.time) == Some(left));
        if occupied {
            continue;
        }
        // Stale window ends when any receiver re-arrives.
        let window_end = rec.window_end(left, mv.time, p.end, |m| timeline.contains_key(&m.host));
        let Some(last) = latest_emission(left, mv.time, window_end) else {
            continue;
        };
        let delay = (last - mv.time).as_secs_f64();
        if delay > worst_leave {
            worst_leave = delay;
        }
        if delay > p.t_mli.as_secs_f64() + LEAVE_MARGIN_SECS {
            push_violation(
                st,
                format!(
                    "stale data on {left:?} {delay:.1}s after the last member \
                     left at t={:.0}s (T_MLI={:.0}s)",
                    mv.time.as_secs_f64(),
                    p.t_mli.as_secs_f64()
                ),
            );
        }
    }
    worst_leave
}

/// Inputs of the post-run pass (see [`Oracle::finalize`]).
pub struct FinalizeParams {
    /// Instant after which asserts must stay resolved and duplicates must
    /// not persist (last disturbance + reconvergence margin).
    pub settle: SimTime,
    /// The MLD Multicast Listener Interval bounding the leave delay.
    pub t_mli: SimDuration,
    /// Subscribed receivers with their initial link (for reconstructing
    /// who lived where when judging stale traffic).
    pub receivers: Vec<(NodeId, LinkId)>,
    /// End of the run.
    pub end: SimTime,
    /// When the last scheduled disturbance (move, fault window, flap,
    /// crash) cleared — the reconvergence SLO measures from here. `None`
    /// leaves the SLO unarmed (no disturbance, or a run-long fault).
    pub disturbance_end: Option<SimTime>,
    /// The reconvergence SLO bound: delivery must return to steady state
    /// within this long after `disturbance_end`.
    pub reconverge_bound: SimDuration,
    /// Protected-flow floor: each receiver in `receivers` must keep at
    /// least this fraction of first-copy deliveries for datagrams sent
    /// inside `protect_window`. `None` leaves the check unarmed.
    pub protected_floor: Option<f64>,
    /// The window (usually the signalling storm) the floor applies to.
    pub protect_window: Option<(SimTime, SimTime)>,
}

/// The invariant oracle. Shared as `Rc` between the world's probe slot and
/// the scheduled polls; all state behind a `RefCell` (single-threaded sim).
#[derive(Default)]
pub struct Oracle {
    state: RefCell<OracleState>,
}

impl Oracle {
    /// Attach a fresh oracle to a world: installs the frame probe and
    /// schedules the periodic router-state poll until `end`.
    pub fn attach(world: &mut World, routers: Vec<NodeId>, end: SimTime) -> Rc<Oracle> {
        let oracle = Rc::new(Oracle::default());
        world.set_probe(oracle.clone());
        schedule_poll(
            world,
            oracle.clone(),
            Rc::new(routers),
            SimTime::ZERO + EPOCH,
            end,
        );
        oracle
    }

    /// Violations recorded so far (real-time checks only until
    /// [`Oracle::finalize`] has run).
    pub fn violations(&self) -> Vec<String> {
        self.state.borrow().violations.clone()
    }

    /// Cost accounting of the polls performed so far.
    pub fn poll_stats(&self) -> PollStats {
        self.state.borrow().poll_stats.clone()
    }

    /// Per-epoch router-state inspection: (S,G) data-timeout compliance,
    /// oif-list legality, and binding-cache freshness. Crashed routers are
    /// skipped — their state is frozen, not held.
    ///
    /// The per-entry walks are guarded by the SoA tables' O(1) reads: the
    /// (S,G) walk runs only when the expiry watermark says something may
    /// be overdue or the router's mutation epoch moved since the last
    /// inspection (an unchanged epoch reproduces the previous legality
    /// verdict); the binding walk runs only when the cache's watermark is
    /// in the past. Quiescent routers therefore cost O(1) per poll no
    /// matter how much state they hold.
    pub fn poll(&self, world: &World, routers: &[NodeId]) {
        let now = world.now();
        let st = &mut *self.state.borrow_mut();
        for &r in routers {
            if world.node_crashed(r) {
                continue;
            }
            let Some(router) = world.behavior::<RouterNode>(r) else {
                continue;
            };
            st.poll_stats.router_polls += 1;
            let epoch = router.pim().mutation_epoch();
            let maybe_overdue = now > router.pim().min_entry_expiry();
            let dirty = st.pim_epoch_seen.get(&r) != Some(&epoch);
            if maybe_overdue || dirty {
                st.pim_epoch_seen.insert(r, epoch);
                st.poll_stats.sg_walks += 1;
                for (s, g) in router.pim().entry_keys() {
                    st.poll_stats.sg_entries_walked += 1;
                    let Some(snap) = router.pim().snapshot(s, g) else {
                        continue;
                    };
                    let worst = &mut st.worst_stale_sg_secs;
                    if let Some(over) = overstay(now, snap.expires, SG_EXPIRY_MARGIN, worst) {
                        push_violation(
                            st,
                            format!(
                                "t={:.0}s: {r} holds ({s}, {g}) {over:.1}s past its \
                                 data-timeout deadline",
                                now.as_secs_f64()
                            ),
                        );
                    }
                    if snap.forwarding.contains(&snap.iif) {
                        push_violation(
                            st,
                            format!(
                                "t={:.0}s: {r} ({s}, {g}) forwards onto its own incoming \
                                 interface {}",
                                now.as_secs_f64(),
                                snap.iif
                            ),
                        );
                    }
                }
            }
            // Bounded memory: with a ResourceBudget configured, no state
            // table may ever exceed its cap — admission control must shed
            // *before* insertion, so even a momentary overshoot
            // is a leak in the enforcement path.
            let budget = *router.budget();
            let tables = [
                (
                    budget.mld_listeners,
                    router.mld_listener_port_max(),
                    "MLD listeners on one port",
                ),
                (
                    budget.pim_sg_entries,
                    router.pim().entry_count(),
                    "PIM (S,G) entries",
                ),
                (
                    budget.binding_cache,
                    router.home_agent().binding_count(),
                    "binding-cache entries",
                ),
            ];
            for (cap, have, what) in tables {
                if let Some(cap) = cap.filter(|cap| have > *cap as usize) {
                    push_violation(
                        st,
                        format!(
                            "t={:.0}s: {r} holds {have} {what}, budget {cap} \
                             (admission control leak)",
                            now.as_secs_f64()
                        ),
                    );
                }
            }
            if let Some(cap) = budget.event_queue_depth {
                let depth = world.queue_depth_high_water() as u64;
                if depth > cap && !st.queue_depth_reported {
                    st.queue_depth_reported = true;
                    push_violation(
                        st,
                        format!(
                            "t={:.0}s: event-queue depth high-water {depth} exceeds \
                             budget {cap} (unbounded backlog)",
                            now.as_secs_f64()
                        ),
                    );
                }
            }
            if now > router.home_agent().cache().min_expires() {
                st.poll_stats.binding_walks += 1;
                for (home, e) in router.home_agent().cache().entries() {
                    st.poll_stats.binding_entries_walked += 1;
                    let worst = &mut st.worst_binding_overstay_secs;
                    if let Some(over) = overstay(now, e.expires, BINDING_MARGIN, worst) {
                        push_violation(
                            st,
                            format!(
                                "t={:.0}s: {r} still caches binding {home} -> {} \
                                 {over:.1}s past its lifetime",
                                now.as_secs_f64(),
                                e.care_of
                            ),
                        );
                    }
                }
            }
        }
    }

    /// Post-run pass over the recorded ground truth: loop-freedom,
    /// at-most-once delivery after the settle point, and the leave-delay
    /// bound. Returns the full summary.
    pub fn finalize(&self, rec: &Recorder, p: &FinalizeParams) -> OracleSummary {
        let st = &mut *self.state.borrow_mut();

        // Loop-freedom: the journal walks every native emission's causal
        // ancestry while it still holds it; a native ancestor on the same
        // link means the datagram re-entered the link it already crossed.
        let journal = &rec.data_events;
        for found in journal.loops() {
            push_violation(
                st,
                format!(
                    "t={:.1}s: datagram {} re-entered {:?} natively \
                     (forwarding loop)",
                    found.time.as_secs_f64(),
                    found.pkt,
                    found.link
                ),
            );
        }
        let undecided = journal.beyond_horizon();
        if undecided > 0 {
            push_violation(
                st,
                format!(
                    "{undecided} emissions or deliveries named a cause older than the journal \
                     horizon; loop-freedom and path checks were not decided for them"
                ),
            );
        }

        // One pass over the deliveries answers every check below that
        // counts them: the duplicates, the at-most-once copies, the first
        // copies of the reconvergence window and the protected flow's.
        let horizon = p.end - IN_FLIGHT_TAIL;
        let settled = rec.sent_in(p.settle, horizon);
        let n_receivers = p.receivers.len() as u32;
        let reconverge_from = p.disturbance_end.filter(|_| n_receivers > 0);
        let reconverge_sent =
            reconverge_from.map_or_else(BTreeMap::new, |from| rec.sent_in(from, horizon));
        let protect = p.protected_floor.zip(p.protect_window);
        let window =
            protect.map_or_else(BTreeMap::new, |(_, (from, until))| rec.sent_in(from, until));
        // (host, was the final hop tunnelled?) -> datagram -> copies delivered
        let mut copies: BTreeMap<(NodeId, bool), BTreeMap<u64, u32>> = BTreeMap::new();
        let mut first_copies: BTreeMap<u64, u32> = BTreeMap::new();
        let mut per_host: BTreeMap<NodeId, u64> = BTreeMap::new();
        if !window.is_empty() {
            per_host = p.receivers.iter().map(|(h, _)| (*h, 0)).collect();
        }
        let mut duplicates = 0;
        for (d, via) in rec.deliveries.with_settled() {
            if settled.contains_key(&d.pkt) {
                let of_kind = copies.entry((d.host, via.tunneled())).or_default();
                *of_kind.entry(d.pkt).or_default() += 1;
            }
            if !d.first {
                duplicates += 1;
                continue;
            }
            if reconverge_sent.contains_key(&d.pkt) {
                *first_copies.entry(d.pkt).or_default() += 1;
            }
            if window.contains_key(&d.pkt) {
                if let Some(got) = per_host.get_mut(&d.host) {
                    *got += 1;
                }
            }
        }

        // At-most-once after settle: per (receiver, datagram), count the
        // deliveries whose final hop was native vs tunneled. A run of more
        // than MAX_DUP_RUN consecutively duplicated datagrams of one kind
        // is a stuck duplicate-delivery path (e.g. an unresolved assert).
        for ((host, tunneled), of_kind) in &copies {
            let mut run = 0usize;
            let mut worst = 0usize;
            for pkt in settled.keys() {
                if of_kind.get(pkt).is_some_and(|n| *n >= 2) {
                    run += 1;
                    worst = worst.max(run);
                } else {
                    run = 0;
                }
            }
            if worst > MAX_DUP_RUN {
                let kind = if *tunneled { "tunneled" } else { "native" };
                push_violation(
                    st,
                    format!(
                        "{host}: {worst} consecutive datagrams delivered more than \
                         once via {kind} forwarding after settle (persistent \
                         duplicate delivery)"
                    ),
                );
            }
        }

        let worst_leave = leave_delay_pass(st, rec, p, |link, after, end| {
            rec.latest_emission(link, after, end)
        });

        // Reconvergence SLO: once the last disturbance has cleared, the
        // first-copy delivery stream must return to full coverage of every
        // subscribed receiver within the bound — and not relapse. The
        // recovery point is the first datagram after the latest
        // under-delivered one; a lossy tail means delivery never recovered.
        let mut reconverge_secs = None;
        let mut reconverge_bound_secs = None;
        let mut reconverge_ok = None;
        if let Some(from) = reconverge_from {
            reconverge_bound_secs = Some(p.reconverge_bound.as_secs_f64());
            let sent = reconverge_sent;
            let under_delivered = sent
                .iter()
                .filter(|(pkt, _)| first_copies.get(pkt).copied().unwrap_or(0) < n_receivers);
            let recovered_at = match under_delivered.map(|(_, at)| *at).max() {
                None => Some(from),
                Some(bad_at) => sent.values().copied().filter(|at| *at > bad_at).min(),
            };
            reconverge_secs = recovered_at.map(|at| (at - from).as_secs_f64());
            reconverge_ok =
                Some(reconverge_secs.is_some_and(|s| s <= p.reconverge_bound.as_secs_f64()));
        }

        // Protected flow: receivers that were up before the storm must keep
        // at least the configured fraction of first-copy deliveries for
        // datagrams sent while the storm raged — graceful degradation means
        // shedding the attacker's churn, not the established flows.
        let mut protected_flow_min = None;
        let mut protected_flow_floor = None;
        let mut protected_flow_ok = None;
        if let Some((floor, _)) = protect {
            protected_flow_floor = Some(floor);
            if window.is_empty() || p.receivers.is_empty() {
                protected_flow_ok = Some(true);
            } else {
                let total = window.len() as f64;
                let mut min_ratio = f64::INFINITY;
                for (host, got) in &per_host {
                    let ratio = *got as f64 / total;
                    if ratio < min_ratio {
                        min_ratio = ratio;
                    }
                    if ratio < floor {
                        push_violation(
                            st,
                            format!(
                                "protected flow: {host} received {:.1}% of datagrams \
                                 sent during the storm window, below the {:.1}% floor",
                                ratio * 100.0,
                                floor * 100.0
                            ),
                        );
                    }
                }
                protected_flow_min = Some(min_ratio);
                protected_flow_ok = Some(min_ratio >= floor);
            }
        }

        OracleSummary {
            enabled: true,
            violations: st.violations.clone(),
            violation_count: st.violation_count,
            duplicates_observed: duplicates,
            max_tunnel_depth: st.max_tunnel_depth,
            worst_leave_delay_secs: worst_leave,
            worst_stale_sg_secs: st.worst_stale_sg_secs,
            worst_binding_overstay_secs: st.worst_binding_overstay_secs,
            data_frames_seen: st.data_frames_seen,
            reconverge_secs,
            reconverge_bound_secs,
            reconverge_ok,
            protected_flow_min,
            protected_flow_floor,
            protected_flow_ok,
        }
    }

    fn inspect_frame(&self, now: SimTime, node: NodeId, link: LinkId, frame: &Frame) {
        let st = &mut *self.state.borrow_mut();
        let Ok(layers) = parsed(frame) else {
            push_violation(
                st,
                format!(
                    "t={:.1}s: undecodable frame from {node} on {link:?}",
                    now.as_secs_f64()
                ),
            );
            return;
        };
        if let Some(info) = layers.data() {
            st.data_frames_seen += 1;
            if info.tunnel_depth > st.max_tunnel_depth {
                st.max_tunnel_depth = info.tunnel_depth;
            }
            if info.tunnel_depth > MAX_ENCAP_DEPTH {
                push_violation(
                    st,
                    format!(
                        "t={:.1}s: frame from {node} on {link:?} carries tunnel depth \
                         {} > {MAX_ENCAP_DEPTH} (unbounded re-encapsulation)",
                        now.as_secs_f64(),
                        info.tunnel_depth
                    ),
                );
            }
        }
    }
}

impl WorldProbe for Oracle {
    fn on_transmit(
        &self,
        now: SimTime,
        node: NodeId,
        _ifindex: IfIndex,
        link: LinkId,
        frame: &Frame,
    ) {
        self.inspect_frame(now, node, link, frame);
    }
}

fn schedule_poll(
    world: &mut World,
    oracle: Rc<Oracle>,
    routers: Rc<Vec<NodeId>>,
    t: SimTime,
    end: SimTime,
) {
    if t > end {
        return;
    }
    world.at(t, move |w| {
        oracle.poll(w, &routers);
        schedule_poll(w, oracle, routers, t + EPOCH, end);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{Delivery, Journal, MoveEvent, PacketMeta, Recorder};
    use mobicast_ipv6::addr::GroupAddr;
    use mobicast_net::LinkGraph;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn params(receivers: Vec<(NodeId, LinkId)>) -> FinalizeParams {
        FinalizeParams {
            settle: t(10),
            t_mli: SimDuration::from_secs(260),
            receivers,
            end: t(600),
            disturbance_end: None,
            reconverge_bound: SimDuration::from_secs(60),
            protected_floor: None,
            protect_window: None,
        }
    }

    fn meta(pkt: u64, sent: u64) -> PacketMeta {
        PacketMeta {
            pkt,
            group: GroupAddr::test_group(1),
            sender: NodeId(9),
            sent_at: t(sent),
            origin_link: LinkId(0),
            src_addr: "2001:db8:1::1".parse().unwrap(),
        }
    }

    /// Journal an emission by node 0 onto `link` at `at` seconds; returns
    /// its tag.
    fn emit(
        rec: &mut Recorder,
        pkt: u64,
        parent: Option<u64>,
        link: u32,
        at: u64,
        tunneled: bool,
    ) -> u64 {
        rec.data_events
            .record(NodeId(0), pkt, parent, LinkId(link), t(at), 100, tunneled)
    }

    #[test]
    fn native_link_revisit_is_a_loop_violation() {
        let mut rec = Recorder::default();
        rec.packets.push(meta(1, 20));
        let origin = emit(&mut rec, 1, None, 0, 20, false);
        let out = emit(&mut rec, 1, Some(origin), 1, 20, false);
        emit(&mut rec, 1, Some(out), 0, 20, false); // back onto link 0
        let o = Oracle::default();
        let s = o.finalize(&rec, &params(vec![]));
        assert_eq!(s.violation_count, 1, "{:?}", s.violations);
        assert!(s.violations[0].contains("forwarding loop"));
    }

    #[test]
    fn tunnel_detour_revisit_is_legal() {
        let mut rec = Recorder::default();
        rec.packets.push(meta(1, 20));
        let origin = emit(&mut rec, 1, None, 0, 20, false);
        let out = emit(&mut rec, 1, Some(origin), 1, 20, true); // tunneled hop out
        emit(&mut rec, 1, Some(out), 0, 20, true); // tunnel crosses link 0
        let o = Oracle::default();
        let s = o.finalize(&rec, &params(vec![]));
        assert_eq!(s.violation_count, 0, "{:?}", s.violations);
    }

    #[test]
    fn persistent_native_duplicates_flagged_and_short_bursts_tolerated() {
        let host = NodeId(7);
        let mk = |n_dup: usize| {
            let mut rec = Recorder::default();
            for i in 0..(MAX_DUP_RUN + 10) as u64 {
                rec.packets.push(meta(i, 20 + i));
                let via = emit(&mut rec, i, None, 0, 20, false);
                let copies = if (i as usize) < n_dup { 2 } else { 1 };
                for c in 0..copies {
                    rec.record_delivery(Delivery {
                        pkt: i,
                        host,
                        link: LinkId(0),
                        time: t(21 + i),
                        first: c == 0,
                        via,
                    });
                }
            }
            rec
        };
        let o = Oracle::default();
        let s = o.finalize(&mk(5), &params(vec![]));
        assert_eq!(
            s.violation_count, 0,
            "assert-race burst: {:?}",
            s.violations
        );
        assert_eq!(s.duplicates_observed, 5);
        let o = Oracle::default();
        let s = o.finalize(&mk(MAX_DUP_RUN + 5), &params(vec![]));
        assert_eq!(s.violation_count, 1, "{:?}", s.violations);
        assert!(s.violations[0].contains("persistent duplicate delivery"));
    }

    /// Recorder with one receiver: packets every 10 s from t=100, each
    /// delivered except those in `missed`.
    fn slo_recorder(missed: &[u64]) -> Recorder {
        let host = NodeId(7);
        let mut rec = Recorder::default();
        for i in 0..20u64 {
            let at = 100 + 10 * i;
            rec.packets.push(PacketMeta {
                sent_at: t(at),
                ..meta(i, at)
            });
            if !missed.contains(&i) {
                rec.record_delivery(Delivery {
                    pkt: i,
                    host,
                    link: LinkId(0),
                    time: t(at + 1),
                    first: true,
                    via: 0,
                });
            }
        }
        rec
    }

    fn slo_params(bound: u64) -> FinalizeParams {
        FinalizeParams {
            disturbance_end: Some(t(100)),
            reconverge_bound: SimDuration::from_secs(bound),
            receivers: vec![(NodeId(7), LinkId(0))],
            ..params(vec![])
        }
    }

    #[test]
    fn reconvergence_within_bound_passes() {
        // Packets 0..3 lost during recovery; the stream is whole from the
        // packet sent at t=130, i.e. 30 s after the disturbance cleared.
        let o = Oracle::default();
        let s = o.finalize(&slo_recorder(&[0, 1, 2]), &slo_params(60));
        assert_eq!(s.reconverge_secs, Some(30.0));
        assert_eq!(s.reconverge_bound_secs, Some(60.0));
        assert_eq!(s.reconverge_ok, Some(true));
    }

    #[test]
    fn reconvergence_beyond_bound_fails() {
        let o = Oracle::default();
        let s = o.finalize(&slo_recorder(&[0, 1, 2]), &slo_params(20));
        assert_eq!(s.reconverge_secs, Some(30.0));
        assert_eq!(s.reconverge_ok, Some(false));
        // An SLO miss is a verdict, not an oracle violation: chaos and the
        // tier-1 gates key on violations, the adversarial gate on both.
        assert_eq!(s.violation_count, 0, "{:?}", s.violations);
    }

    #[test]
    fn lossy_tail_never_reconverges() {
        let o = Oracle::default();
        let s = o.finalize(&slo_recorder(&[19]), &slo_params(600));
        assert_eq!(s.reconverge_secs, None);
        assert_eq!(s.reconverge_ok, Some(false));
    }

    #[test]
    fn clean_recovery_is_instant() {
        let o = Oracle::default();
        let s = o.finalize(&slo_recorder(&[]), &slo_params(60));
        assert_eq!(s.reconverge_secs, Some(0.0));
        assert_eq!(s.reconverge_ok, Some(true));
    }

    #[test]
    fn slo_unarmed_without_disturbance() {
        let o = Oracle::default();
        let s = o.finalize(&slo_recorder(&[]), &params(vec![(NodeId(7), LinkId(0))]));
        assert_eq!(s.reconverge_secs, None);
        assert_eq!(s.reconverge_bound_secs, None);
        assert_eq!(s.reconverge_ok, None);
    }

    #[test]
    fn protected_flow_floor_verdicts() {
        // 20 datagrams sent from t=100; receiver misses 0..3 of them.
        let armed = |missed: &[u64], floor: f64| {
            let o = Oracle::default();
            o.finalize(
                &slo_recorder(missed),
                &FinalizeParams {
                    protected_floor: Some(floor),
                    protect_window: Some((t(100), t(300))),
                    receivers: vec![(NodeId(7), LinkId(0))],
                    ..params(vec![])
                },
            )
        };
        let s = armed(&[], 0.9);
        assert_eq!(s.protected_flow_min, Some(1.0));
        assert_eq!(s.protected_flow_ok, Some(true));
        assert_eq!(s.violation_count, 0, "{:?}", s.violations);

        let s = armed(&[0, 1, 2, 3], 0.9);
        assert_eq!(s.protected_flow_min, Some(0.8));
        assert_eq!(s.protected_flow_floor, Some(0.9));
        assert_eq!(s.protected_flow_ok, Some(false));
        assert_eq!(s.violation_count, 1, "{:?}", s.violations);
        assert!(s.violations[0].contains("protected flow"));

        let s = armed(&[0, 1, 2, 3], 0.75);
        assert_eq!(s.protected_flow_ok, Some(true));
        assert_eq!(s.violation_count, 0, "{:?}", s.violations);
    }

    #[test]
    fn protected_flow_unarmed_without_floor() {
        let o = Oracle::default();
        let s = o.finalize(&slo_recorder(&[]), &params(vec![(NodeId(7), LinkId(0))]));
        assert_eq!(s.protected_flow_min, None);
        assert_eq!(s.protected_flow_floor, None);
        assert_eq!(s.protected_flow_ok, None);
    }

    #[test]
    fn protected_flow_vacuous_window_passes() {
        // Window before any traffic: nothing to protect, nothing violated.
        let o = Oracle::default();
        let s = o.finalize(
            &slo_recorder(&[]),
            &FinalizeParams {
                protected_floor: Some(0.9),
                protect_window: Some((t(0), t(50))),
                receivers: vec![(NodeId(7), LinkId(0))],
                ..params(vec![])
            },
        );
        assert_eq!(s.protected_flow_min, None);
        assert_eq!(s.protected_flow_ok, Some(true));
        assert_eq!(s.violation_count, 0, "{:?}", s.violations);
    }

    #[test]
    fn leave_delay_beyond_t_mli_is_a_violation() {
        let mover = NodeId(7);
        let mut rec = Recorder::default();
        rec.record_move(MoveEvent {
            host: mover,
            time: t(100),
            from: Some(LinkId(3)),
            to: LinkId(5),
            subscribed: true,
            sending: false,
        });
        // Stale data keeps hitting the abandoned link for 300 s > T_MLI.
        for (i, at) in [(1u64, 150u64), (2, 250), (3, 400)] {
            rec.packets.push(meta(i, at - 1));
            emit(&mut rec, i, None, 3, at, false);
        }
        let o = Oracle::default();
        let s = o.finalize(&rec, &params(vec![(mover, LinkId(3))]));
        assert_eq!(s.violation_count, 1, "{:?}", s.violations);
        assert!((s.worst_leave_delay_secs - 300.0).abs() < 1e-9);
    }

    /// A recorder drawn on a coarse grid — four links, three receivers
    /// hopping among them every 10 s — so that moves re-enter links they
    /// left, windows come out empty, and emissions land exactly on a move
    /// time or a window end. Recorded in time order, as a run records; at
    /// one instant a word's bit says whether the emission or the move came
    /// first.
    fn grid_recorder(event_words: &[u64], move_words: &[u64]) -> Recorder {
        enum Step {
            Emit(u64),
            Move(usize, LinkId, bool),
        }
        let grid = |w: u64| t((w >> 8) % 31 * 10);
        let mut moves: Vec<(SimTime, usize, LinkId, bool)> = move_words
            .iter()
            .map(|w| {
                let to = LinkId((*w >> 4) as u32 % 4);
                (grid(*w), (*w % 3) as usize, to, w & 0xc != 0)
            })
            .collect();
        moves.sort();
        // (when, 0 / 1 / 2: an emission before, a move, an emission after)
        let emits = event_words
            .iter()
            .map(|w| (grid(*w), (w >> 5 & 2) as u8, Step::Emit(*w)));
        let mut script: Vec<(SimTime, u8, Step)> = emits.collect();
        for (time, host, to, subscribed) in moves {
            script.push((time, 1, Step::Move(host, to, subscribed)));
        }
        // Stable: the moves of one instant stay in their sorted order.
        script.sort_by_key(|(time, turn, _)| (*time, *turn));
        let mut rec = Recorder::default();
        let mut at = [LinkId(0), LinkId(1), LinkId(1)];
        for (time, _, step) in script {
            match step {
                Step::Emit(w) => {
                    let link = LinkId((w % 4) as u32);
                    let journal = &mut rec.data_events;
                    journal.record(NodeId(0), 1, None, link, time, 100, w & 0x80 != 0);
                }
                Step::Move(host, to, subscribed) => {
                    rec.record_move(MoveEvent {
                        host: NodeId(host as u32),
                        time,
                        from: Some(at[host]),
                        to,
                        subscribed,
                        sending: false,
                    });
                    at[host] = to;
                }
            }
        }
        rec
    }

    /// The scan of every recorded event per window: the reference the
    /// differential below compares [`Recorder::latest_emission`] against.
    fn latest_emission_by_scan(
        events: &Journal,
        link: LinkId,
        after: SimTime,
        before: SimTime,
    ) -> Option<SimTime> {
        events
            .iter()
            .filter(|ev| ev.link == link && ev.time > after && ev.time < before)
            .map(|ev| ev.time)
            .max()
    }

    /// `analyze`'s leave delays by the same scan: a subscribed receiver
    /// leaves a link; the window runs, strict on both ends, to the next
    /// subscribed arrival there (unbounded when nobody comes back).
    fn leave_delays_by_scan(rec: &Recorder) -> Vec<f64> {
        let mut delays = Vec::new();
        for mv in rec.moves.iter().filter(|m| m.subscribed) {
            let Some(left) = mv.from else { continue };
            let window_end = rec
                .moves
                .iter()
                .filter(|m2| m2.subscribed && m2.to == left && m2.time > mv.time)
                .map(|m2| m2.time)
                .min()
                .unwrap_or(SimTime::MAX);
            if let Some(last) = latest_emission_by_scan(&rec.data_events, left, mv.time, window_end)
            {
                delays.push((last - mv.time).as_secs_f64());
            }
        }
        delays
    }

    proptest::proptest! {
        /// Differential: the value snapshotted at an arrival, and the one
        /// kept to the end of the run, answer every window as the scan of
        /// all events does, and both users of the query — the leave-delay
        /// pass and `analyze` — reach on it what they reach on the scan:
        /// the same worst delay and violations, the same `leave_delays`.
        #[test]
        fn leave_delay_pass_agrees_with_the_scan_it_replaced(
            event_words in proptest::collection::vec(proptest::any::<u64>(), 0..80),
            move_words in proptest::collection::vec(proptest::any::<u64>(), 0..14),
        ) {
            let rec = grid_recorder(&event_words, &move_words);
            let by_scan = |link: LinkId, after: SimTime, end: WindowEnd| {
                let before = match end {
                    WindowEnd::Arrival(i) => rec.moves[i].time,
                    WindowEnd::EndOfRun(at) => at,
                };
                latest_emission_by_scan(&rec.data_events, link, after, before)
            };
            // Link 4 carries nothing; inverted, empty and unbounded windows
            // included: every arrival recorded, and every end of run from
            // the grid's last instant (an emission may sit exactly on it).
            for link in (0..5).map(LinkId) {
                let arrivals = rec.moves.iter().enumerate().filter(|(_, m)| m.to == link);
                let ends: Vec<WindowEnd> = arrivals
                    .map(|(i, _)| WindowEnd::Arrival(i))
                    .chain([t(300), t(310), SimTime::MAX].map(WindowEnd::EndOfRun))
                    .collect();
                for after in (0..=310).step_by(10).map(t) {
                    for end in &ends {
                        let got = rec.latest_emission(link, after, *end);
                        assert_eq!(got, by_scan(link, after, *end), "{link:?} {after:?} {end:?}");
                    }
                }
            }
            // T_MLI short enough for the grid to produce violations.
            let p = FinalizeParams {
                t_mli: SimDuration::from_secs(20),
                end: t(300),
                ..params(vec![
                    (NodeId(0), LinkId(0)),
                    (NodeId(1), LinkId(1)),
                    (NodeId(2), LinkId(1)),
                ])
            };
            let (mut fast, mut reference) = (OracleState::default(), OracleState::default());
            let worst = leave_delay_pass(&mut fast, &rec, &p, |link, after, end| {
                rec.latest_emission(link, after, end)
            });
            let worst_ref = leave_delay_pass(&mut reference, &rec, &p, by_scan);
            assert_eq!(worst, worst_ref);
            assert_eq!(fast.violations, reference.violations);
            assert_eq!(fast.violation_count, reference.violation_count);

            let analysis = crate::analysis::analyze(&rec, &LinkGraph::new(4, &[]), 4);
            assert_eq!(analysis.leave_delays, leave_delays_by_scan(&rec));
        }
    }

    #[test]
    fn leave_delay_ignored_while_another_member_remains() {
        let mover = NodeId(7);
        let resident = NodeId(8);
        let mut rec = Recorder::default();
        rec.record_move(MoveEvent {
            host: mover,
            time: t(100),
            from: Some(LinkId(3)),
            to: LinkId(5),
            subscribed: true,
            sending: false,
        });
        for (i, at) in [(1u64, 150u64), (2, 400)] {
            rec.packets.push(meta(i, at - 1));
            emit(&mut rec, i, None, 3, at, false);
        }
        // `resident` still lives on link 3: the traffic is for them.
        let o = Oracle::default();
        let s = o.finalize(
            &rec,
            &params(vec![(mover, LinkId(3)), (resident, LinkId(3))]),
        );
        assert_eq!(s.violation_count, 0, "{:?}", s.violations);
        assert_eq!(s.worst_leave_delay_secs, 0.0);
    }
}
