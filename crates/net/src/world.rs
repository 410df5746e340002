//! The simulation world: nodes, links, the event loop, timers and mobility.
//!
//! A [`World`] owns every node behavior and link, plus the event queue. Node
//! behaviors implement [`NodeBehavior`] and interact with the world through
//! a [`Ctx`] handed to each callback: sending frames, arming timers,
//! tracing, counting. Host mobility (the subject of the paper) is a world
//! operation — `move_iface` detaches an interface from one link and attaches
//! it to another, notifying the behavior so its protocol stack can react
//! (movement detection, care-of address, binding update, …).

use crate::exec::{ExecPlan, RunStats};
use crate::fault::LinkFaultState;
use crate::frame::Frame;
use crate::ids::{IfIndex, LinkId, NodeId, TimerKey};
use crate::link::{schedule_transmission, Attachment, Link, LinkParams, LinkStats};
use mobicast_sim::profile::{Profiler, SimProfile, Stage};
use mobicast_sim::trace::Fields;
use mobicast_sim::{
    bump, Counters, EventId, EventQueue, SimDuration, SimTime, TraceCategory, Tracer,
};
use std::any::Any;
use std::ops::Range;
use std::rc::Rc;

/// Handler categories the event-loop profiler distinguishes.
pub const HANDLER_CATEGORIES: &[&str] = &["deliver", "timer", "script"];

/// Passive observer of the event loop: sees every frame handed to a link and
/// every frame delivered to a node, before the receiving behavior runs.
///
/// Probes must not mutate the world (they get no `Ctx`); an invariant oracle
/// uses interior mutability to accumulate its model, exactly like the trace
/// recorder. All methods default to no-ops so probes implement only what
/// they watch.
pub trait WorldProbe {
    /// `node` transmitted `frame` on `ifindex` onto `link` at time `now`.
    /// Called once per transmission, before per-member loss is rolled.
    fn on_transmit(
        &self,
        now: SimTime,
        node: NodeId,
        ifindex: IfIndex,
        link: LinkId,
        frame: &Frame,
    ) {
        let _ = (now, node, ifindex, link, frame);
    }

    /// `frame` is about to be delivered to `node` on `ifindex` from `link`.
    /// Not called for frames destroyed by loss, moves, downed links or
    /// crashed receivers.
    fn on_deliver(
        &self,
        now: SimTime,
        node: NodeId,
        ifindex: IfIndex,
        link: LinkId,
        frame: &Frame,
    ) {
        let _ = (now, node, ifindex, link, frame);
    }
}

/// Implemented by every simulated node (host or router stack).
pub trait NodeBehavior: Any {
    /// Called once when the world starts, after all topology is built.
    fn on_start(&mut self, ctx: &mut Ctx<'_>);

    /// A frame arrived on interface `ifindex`.
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, ifindex: IfIndex, frame: &Frame);

    /// A timer armed via [`Ctx::set_timer_after`] fired.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, key: TimerKey);

    /// Interface `ifindex` was attached to (`Some`) or detached from
    /// (`None`) a link.
    fn on_link_change(&mut self, ctx: &mut Ctx<'_>, ifindex: IfIndex, link: Option<LinkId>);

    /// Downcasting support so the harness can inspect node state after the
    /// run (e.g. read the receiver application's packet log).
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

type Script = Box<dyn FnOnce(&mut World)>;

pub(crate) enum WorldEvent {
    /// One transmission arriving at a set of receivers: the members
    /// `members[receivers]` of the send-time snapshot, except `sender`.
    /// A fault-free broadcast is a single event covering the whole link;
    /// a copy whose arrival time, bytes or addressee is its own (fault
    /// injection, L2 unicast) is an event with a one-member range.
    Deliver {
        /// The link the frame was sent on; a receiver that has moved away
        /// in the meantime is skipped.
        link: LinkId,
        frame: Frame,
        /// The link's membership when the frame was sent.
        members: Rc<[Attachment]>,
        receivers: Range<usize>,
        sender: Attachment,
    },
    Timer {
        node: NodeId,
        key: TimerKey,
        /// Incarnation of the node at arming time; a crash bumps the
        /// node's incarnation, invalidating every timer armed before it.
        incarnation: u64,
    },
    Script(Script),
}

/// Indices into [`HANDLER_CATEGORIES`].
const DELIVER: usize = 0;
const TIMER: usize = 1;
const SCRIPT: usize = 2;

/// Partition of the world's nodes into topology regions ("shards") plus the
/// conservative lookahead for the sharded event loop.
///
/// The lookahead is the classic conservative-parallel-DES bound: an event
/// executing at time `t` in one shard can only affect another shard after
/// at least the minimum inter-shard link latency, so all events in the
/// window `[t, t + lookahead]` whose targets live in different shards are
/// causally independent and form one parallel batch. [`World::run`] under
/// [`ExecPlan::Sharded`] dispatches in the plain `(time, seq)` order and
/// only *accounts* the windows, which is what keeps traces, reports and
/// oracle verdicts byte-identical to the sequential plan for every shard
/// count — the parity contract `shard_parity.rs` gates.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    /// Shard index per node id; nodes beyond the vector (attached after
    /// planning) fall into shard 0.
    node_shard: Vec<u32>,
    n_shards: u32,
    /// Conservative lower bound on cross-shard influence latency.
    lookahead: SimDuration,
}

impl ShardPlan {
    /// Build a plan from an explicit node→shard assignment.
    pub fn new(node_shard: Vec<u32>, lookahead: SimDuration) -> ShardPlan {
        let n_shards = node_shard.iter().copied().max().map_or(1, |m| m + 1);
        ShardPlan {
            node_shard,
            n_shards,
            lookahead,
        }
    }

    /// The degenerate single-shard plan (the whole world is one region).
    pub fn single(n_nodes: usize) -> ShardPlan {
        ShardPlan {
            node_shard: vec![0; n_nodes],
            n_shards: 1,
            lookahead: SimDuration::from_millis(1),
        }
    }

    pub fn n_shards(&self) -> u32 {
        self.n_shards
    }

    pub fn lookahead(&self) -> SimDuration {
        self.lookahead
    }

    pub fn shard_of(&self, node: NodeId) -> u32 {
        self.node_shard.get(node.index()).copied().unwrap_or(0)
    }
}

/// What one sharded run actually did: window count, per-shard event load
/// and the critical path a parallel executor could not beat. The schedule
/// fields are deterministic in (scenario, seed, plan) —
/// [`same_schedule`](Self::same_schedule) compares exactly those.
///
/// `workers`, `handoff_events` and `barrier_stall_secs` are inert: the
/// threaded backend that filled them was cut (DESIGN.md, "Threaded
/// dispatch: decision record") and they survive only because the frozen
/// `benchmark/` package still reads them.
#[derive(Clone, Debug, Default, serde::Serialize, serde::Deserialize)]
pub struct ShardRunStats {
    /// Inert label copied from [`ExecutorConfig::threads`](crate::ExecutorConfig::threads);
    /// execution is always on the calling thread.
    pub workers: usize,
    /// Conservative lookahead windows executed.
    pub windows: u64,
    /// Windows cut short by a script event (global barrier: scripts may
    /// move nodes between shards or rewire links).
    pub barrier_syncs: u64,
    /// Events dispatched into each shard over the whole run.
    pub events_per_shard: Vec<u64>,
    /// Total events dispatched by the sharded loop.
    pub events_total: u64,
    /// Largest single-window batch observed.
    pub max_window_batch: u64,
    /// Sum over windows of the largest per-shard batch (plus barriers):
    /// the serial fraction no worker count can parallelize away.
    pub critical_path_events: u64,
    /// Inert, always 0 (no worker boundary exists to cross).
    pub handoff_events: u64,
    /// Inert, always 0 (nothing ever waits on a barrier).
    pub barrier_stall_secs: f64,
}

impl ShardRunStats {
    /// Upper bound on parallel speedup for this run under this plan
    /// (Amdahl over the conservative windows): total work divided by the
    /// critical path.
    pub fn achievable_speedup(&self) -> f64 {
        if self.critical_path_events == 0 {
            1.0
        } else {
            self.events_total as f64 / self.critical_path_events as f64
        }
    }

    /// True when `other` realized the exact same deterministic schedule:
    /// identical windows, barriers, per-shard loads and critical path.
    /// The worker label is not compared.
    pub fn same_schedule(&self, other: &ShardRunStats) -> bool {
        self.windows == other.windows
            && self.barrier_syncs == other.barrier_syncs
            && self.events_per_shard == other.events_per_shard
            && self.events_total == other.events_total
            && self.max_window_batch == other.max_window_batch
            && self.critical_path_events == other.critical_path_events
    }
}

/// The conservative-window bookkeeping of a sharded run: an observer fed
/// every dispatch in global `(time, seq)` order that reconstructs which
/// lookahead windows a parallel executor would have formed.
struct WindowRecon<'a> {
    plan: &'a ShardPlan,
    t_end: SimTime,
    horizon: Option<SimTime>,
    window_batch: Vec<u64>,
    window_events: u64,
    window_barriers: u64,
    stats: ShardRunStats,
}

impl<'a> WindowRecon<'a> {
    fn new(plan: &'a ShardPlan, workers: usize, t_end: SimTime) -> Self {
        let n_shards = plan.n_shards() as usize;
        WindowRecon {
            plan,
            t_end,
            horizon: None,
            window_batch: vec![0; n_shards],
            window_events: 0,
            window_barriers: 0,
            stats: ShardRunStats {
                workers: workers.max(1),
                events_per_shard: vec![0; n_shards],
                ..ShardRunStats::default()
            },
        }
    }

    /// Account one dispatched event (`target` is `None` for scripts, which
    /// may mutate arbitrary world state and therefore barrier the window).
    fn on_event(&mut self, at: SimTime, target: Option<NodeId>) {
        match self.horizon {
            Some(h) if at <= h => {}
            _ => {
                self.close_window();
                self.horizon = Some((at + self.plan.lookahead()).min(self.t_end));
                self.stats.windows += 1;
            }
        }
        self.window_events += 1;
        self.stats.events_total += 1;
        match target {
            Some(node) => self.window_batch[self.plan.shard_of(node) as usize] += 1,
            None => {
                self.window_barriers += 1;
                self.stats.barrier_syncs += 1;
                self.close_window();
            }
        }
    }

    fn close_window(&mut self) {
        if self.horizon.take().is_none() {
            return;
        }
        for (shard, n) in self.window_batch.iter().enumerate() {
            self.stats.events_per_shard[shard] += n;
        }
        self.stats.max_window_batch = self.stats.max_window_batch.max(self.window_events);
        self.stats.critical_path_events +=
            self.window_batch.iter().copied().max().unwrap_or(0) + self.window_barriers;
        self.window_batch.iter_mut().for_each(|c| *c = 0);
        self.window_events = 0;
        self.window_barriers = 0;
    }

    fn finish(mut self) -> ShardRunStats {
        self.close_window();
        self.stats
    }
}

struct IfaceState {
    link: Option<LinkId>,
    tx_free: SimTime,
}

struct NodeSlot {
    behavior: Option<Box<dyn NodeBehavior>>,
    ifaces: Vec<IfaceState>,
    /// Bumped on crash so stale timers can be recognized and discarded.
    incarnation: u64,
    /// While true, the node processes no frames or timers.
    crashed: bool,
}

/// The simulation world.
pub struct World {
    queue: EventQueue<WorldEvent>,
    nodes: Vec<NodeSlot>,
    links: Vec<Link>,
    tracer: Tracer,
    counters: Counters,
    /// Per-node MIB-style counters maintained by the world itself (fault
    /// drops attributed to a node); node behaviors keep their own registry
    /// and the harness merges both when snapshotting.
    node_counters: Vec<Counters>,
    probe: Option<Rc<dyn WorldProbe>>,
    started: bool,
    /// Events dispatched so far (always on; one increment per event).
    /// "Event" here and in every other count the world reports means one
    /// timer, one script or one *receiver copy* of a transmission — the
    /// unit reports and goldens have always used — however many copies
    /// share a queue entry.
    events_executed: u64,
    /// Receiver copies pending beyond the one-per-entry the queue itself
    /// counts: a fan-out entry with `k` receivers adds `k - 1` when it is
    /// scheduled and gives one back as each receiver after its first is
    /// dispatched.
    copies_pending: usize,
    /// Receiver copies ever scheduled beyond one per queue entry.
    copies_scheduled: u64,
    /// Highest `queue_len()` observed at any scheduling.
    depth_high_water: usize,
    /// Wall-clock profiler; `None` (the default) costs one branch per event.
    profiler: Option<Profiler>,
}

impl Default for World {
    fn default() -> Self {
        Self::new()
    }
}

impl World {
    pub fn new() -> Self {
        World {
            queue: EventQueue::new(),
            nodes: Vec::new(),
            links: Vec::new(),
            tracer: Tracer::null(),
            counters: Counters::new(),
            node_counters: Vec::new(),
            probe: None,
            started: false,
            events_executed: 0,
            copies_pending: 0,
            copies_scheduled: 0,
            depth_high_water: 0,
            profiler: None,
        }
    }

    pub fn with_tracer(tracer: Tracer) -> Self {
        World {
            tracer,
            ..World::new()
        }
    }

    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Create a link; returns its id.
    pub fn add_link(&mut self, params: LinkParams) -> LinkId {
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link::new(params));
        id
    }

    /// Create a node with `n_ifaces` interfaces driven by `behavior`.
    pub fn add_node(&mut self, n_ifaces: usize, behavior: Box<dyn NodeBehavior>) -> NodeId {
        assert!(!self.started, "cannot add nodes after start");
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeSlot {
            behavior: Some(behavior),
            ifaces: (0..n_ifaces)
                .map(|_| IfaceState {
                    link: None,
                    tx_free: SimTime::ZERO,
                })
                .collect(),
            incarnation: 0,
            crashed: false,
        });
        self.node_counters.push(Counters::new());
        id
    }

    /// Attach interface `ifindex` of `node` to `link`.
    pub fn attach(&mut self, node: NodeId, ifindex: IfIndex, link: LinkId) {
        let slot = &mut self.nodes[node.index()];
        let iface = &mut slot.ifaces[usize::from(ifindex)];
        assert!(
            iface.link.is_none(),
            "{node} if{ifindex} already attached to {:?}",
            iface.link
        );
        iface.link = Some(link);
        self.links[link.index()].attach(node, ifindex);
        if self.started {
            self.notify_link_change(node, ifindex, Some(link));
        }
    }

    /// Detach interface `ifindex` of `node` from its link, if any.
    pub fn detach(&mut self, node: NodeId, ifindex: IfIndex) {
        let slot = &mut self.nodes[node.index()];
        let iface = &mut slot.ifaces[usize::from(ifindex)];
        if let Some(link) = iface.link.take() {
            self.links[link.index()].detach(node, ifindex);
            if self.started {
                self.notify_link_change(node, ifindex, None);
            }
        }
    }

    /// Move an interface to a new link (detach + attach): host mobility.
    pub fn move_iface(&mut self, node: NodeId, ifindex: IfIndex, new_link: LinkId) {
        self.tracer
            .emit_with(self.now(), TraceCategory::Mobility, node.index(), || {
                format!("if{ifindex} moves to {new_link}")
            });
        self.detach(node, ifindex);
        self.attach(node, ifindex, new_link);
    }

    /// The link interface `ifindex` of `node` is attached to.
    pub fn link_of(&self, node: NodeId, ifindex: IfIndex) -> Option<LinkId> {
        self.nodes[node.index()].ifaces[usize::from(ifindex)].link
    }

    /// Number of interfaces on `node` (shard planning walks these).
    pub fn n_ifaces(&self, node: NodeId) -> usize {
        self.nodes[node.index()].ifaces.len()
    }

    /// Members `(node, ifindex)` currently attached to `link`.
    pub fn link_members(&self, link: LinkId) -> Vec<(NodeId, IfIndex)> {
        self.links[link.index()]
            .members()
            .iter()
            .map(|a| (a.node, a.ifindex))
            .collect()
    }

    pub fn link_stats(&self, link: LinkId) -> &LinkStats {
        &self.links[link.index()].stats
    }

    pub fn link_params(&self, link: LinkId) -> &LinkParams {
        &self.links[link.index()].params
    }

    /// Install (or clear) a loss/jitter fault process on a link.
    pub fn set_link_fault(&mut self, link: LinkId, fault: Option<LinkFaultState>) {
        self.links[link.index()].fault = fault;
    }

    /// Bring a link down (destroying all frames handed to it or in flight
    /// across it) or back up.
    pub fn set_link_up(&mut self, link: LinkId, up: bool) {
        self.tracer
            .emit_with(self.now(), TraceCategory::Fault, usize::MAX, || {
                format!("{link} {}", if up { "up" } else { "down" })
            });
        match up {
            true => bump!(self.counters, "faults.link_up"),
            false => bump!(self.counters, "faults.link_down"),
        }
        self.links[link.index()].up = up;
    }

    pub fn link_up(&self, link: LinkId) -> bool {
        self.links[link.index()].up
    }

    /// Crash a node: it stops processing frames and timers, and every timer
    /// armed before the crash is permanently invalidated (soft state dies
    /// with the process). The behavior object is dropped; the node stays
    /// dead until [`World::restart_node`].
    pub fn crash_node(&mut self, node: NodeId) {
        let slot = &mut self.nodes[node.index()];
        slot.crashed = true;
        slot.incarnation += 1;
        slot.behavior = None;
        bump!(self.counters, "faults.node_crashes");
        self.tracer
            .emit_with(self.now(), TraceCategory::Fault, node.index(), || {
                "crashed".to_string()
            });
    }

    /// Restart a crashed node with a freshly constructed behavior (all
    /// protocol state lost). Delivers `on_start` so the new stack can
    /// rebuild its soft state from the wire.
    pub fn restart_node(&mut self, node: NodeId, behavior: Box<dyn NodeBehavior>) {
        let slot = &mut self.nodes[node.index()];
        assert!(slot.crashed, "{node} restarted without crashing");
        slot.crashed = false;
        slot.behavior = Some(behavior);
        bump!(self.counters, "faults.node_restarts");
        self.tracer
            .emit_with(self.now(), TraceCategory::Fault, node.index(), || {
                "restarted".to_string()
            });
        self.with_node(node, |b, ctx| b.on_start(ctx));
    }

    pub fn node_crashed(&self, node: NodeId) -> bool {
        self.nodes[node.index()].crashed
    }

    pub fn n_links(&self) -> usize {
        self.links.len()
    }

    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Global world counters (frame drops etc.), merged by the harness into
    /// the run result.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// World-maintained MIB counters for one node (fault drops attributed
    /// to it). Complements the counters node behaviors keep themselves.
    pub fn node_counters(&self, node: NodeId) -> &Counters {
        &self.node_counters[node.index()]
    }

    /// Turn on wall-clock profiling of the event loop. Call before the run;
    /// collect with [`World::take_profile`] afterwards.
    pub fn enable_profiling(&mut self) {
        self.profiler = Some(Profiler::new(HANDLER_CATEGORIES));
    }

    /// Finish and detach the profiler, if one was enabled.
    pub fn take_profile(&mut self) -> Option<SimProfile> {
        self.profiler
            .take()
            .map(|p| p.finish(self.depth_high_water, self.events_scheduled()))
    }

    /// Events dispatched by the event loop so far.
    pub fn events_executed(&self) -> u64 {
        self.events_executed
    }

    /// Highest number of simultaneously pending events observed so far.
    pub fn queue_depth_high_water(&self) -> usize {
        self.depth_high_water
    }

    /// Number of live events pending right now (gauge samplers read this
    /// mid-run to build the queue-depth timeline).
    pub fn queue_len(&self) -> usize {
        self.queue.len() + self.copies_pending
    }

    /// Install a [`WorldProbe`] observing all transmissions and deliveries.
    /// At most one probe is active; installing replaces any previous one.
    pub fn set_probe(&mut self, probe: Rc<dyn WorldProbe>) {
        self.probe = Some(probe);
    }

    /// Schedule a closure to run against the world at time `t` (mobility
    /// scripts, workload events).
    pub fn at(&mut self, t: SimTime, f: impl FnOnce(&mut World) + 'static) {
        self.schedule(t, WorldEvent::Script(Box::new(f)), 1);
    }

    /// Put one entry standing for `copies` (at least one) events on the
    /// queue.
    fn schedule(&mut self, at: SimTime, ev: WorldEvent, copies: usize) -> EventId {
        let id = self.queue.schedule(at, ev);
        self.copies_pending += copies - 1;
        self.copies_scheduled += copies as u64 - 1;
        self.depth_high_water = self.depth_high_water.max(self.queue_len());
        id
    }

    /// Inspect a node behavior as a concrete type.
    pub fn behavior<T: NodeBehavior>(&self, node: NodeId) -> Option<&T> {
        self.nodes[node.index()]
            .behavior
            .as_ref()?
            .as_any()
            .downcast_ref::<T>()
    }

    /// Mutably access a node behavior as a concrete type.
    pub fn behavior_mut<T: NodeBehavior>(&mut self, node: NodeId) -> Option<&mut T> {
        self.nodes[node.index()]
            .behavior
            .as_mut()?
            .as_any_mut()
            .downcast_mut::<T>()
    }

    /// Run `f` with a [`Ctx`] for `node`, dispatching into its behavior.
    /// Used by the harness to poke nodes outside of frame/timer events
    /// (e.g. "application joins group now").
    pub fn with_node<R>(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut dyn NodeBehavior, &mut Ctx<'_>) -> R,
    ) -> R {
        // Re-entrancy guard: a behavior calling back into itself through
        // `with_node` is a programming error, not a runtime condition a
        // typed error could describe — panicking here is deliberate.
        #[allow(clippy::expect_used)]
        let mut behavior = self.nodes[node.index()]
            .behavior
            .take()
            .expect("node behavior re-entered");
        let mut ctx = Ctx { world: self, node };
        let r = f(behavior.as_mut(), &mut ctx);
        self.nodes[node.index()].behavior = Some(behavior);
        r
    }

    /// Deliver `on_start` to every node (id order). Idempotent.
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.nodes.len() {
            let node = NodeId(i as u32);
            self.with_node(node, |b, ctx| b.on_start(ctx));
        }
    }

    fn notify_link_change(&mut self, node: NodeId, ifindex: IfIndex, link: Option<LinkId>) {
        if self.nodes[node.index()].crashed {
            return;
        }
        self.with_node(node, |b, ctx| b.on_link_change(ctx, ifindex, link));
    }

    /// Dispatch one queue entry: a timer, a script, or a transmission
    /// arriving at each of its receivers in membership order. The copies
    /// of one transmission used to be separate entries with consecutive
    /// sequence numbers at one instant, so nothing could ever run between
    /// them; walking them here is the same order.
    fn dispatch(&mut self, ev: WorldEvent, windows: &mut Option<WindowRecon<'_>>) {
        match ev {
            WorldEvent::Deliver {
                link,
                frame,
                members,
                receivers,
                sender,
            } => {
                let receivers = members[receivers].iter().filter(|m| **m != sender);
                for (i, &to) in receivers.enumerate() {
                    if i > 0 {
                        self.copies_pending -= 1;
                    }
                    self.counted(DELIVER, Some(to.node), windows, |w| {
                        w.arrive(to, link, &frame)
                    });
                }
            }
            WorldEvent::Timer {
                node,
                key,
                incarnation,
            } => self.counted(TIMER, Some(node), windows, |w| {
                let slot = &w.nodes[node.index()];
                if slot.crashed || slot.incarnation != incarnation {
                    bump!(w.counters, "faults.timers_dropped_stale");
                    return;
                }
                w.with_node(node, |b, ctx| b.on_timer(ctx, key));
            }),
            WorldEvent::Script(f) => self.counted(SCRIPT, None, windows, f),
        }
    }

    /// One receiver's copy of a transmission on `link` arrives.
    fn arrive(&mut self, to: Attachment, link: LinkId, frame: &Frame) {
        let Attachment { node, ifindex } = to;
        // Skip delivery if the interface moved between transmission
        // and arrival (the host left the link).
        if self.nodes[node.index()].ifaces[usize::from(ifindex)].link != Some(link) {
            bump!(self.counters, "world.frames_missed_due_to_move");
            return;
        }
        // A link that went down mid-flight destroys the frame.
        if !self.links[link.index()].up {
            self.links[link.index()].stats.record_drop(frame);
            bump!(self.counters, "faults.frames_dropped_link_down");
            bump!(self.node_counters[node.index()], "framesDroppedByFault");
            return;
        }
        // A crashed receiver hears nothing.
        if self.nodes[node.index()].crashed {
            self.links[link.index()].stats.record_drop(frame);
            bump!(self.counters, "faults.frames_dropped_node_crashed");
            bump!(self.node_counters[node.index()], "framesDroppedByFault");
            return;
        }
        if let Some(probe) = self.probe.clone() {
            probe.on_deliver(self.queue.now(), node, ifindex, link, frame);
        }
        self.with_node(node, |b, ctx| b.on_frame(ctx, ifindex, frame));
    }

    /// Run one event's handler: account it to the sharded plan's windows
    /// (if any), count it and (if profiling is on) time it by category.
    fn counted(
        &mut self,
        category: usize,
        target: Option<NodeId>,
        windows: &mut Option<WindowRecon<'_>>,
        handler: impl FnOnce(&mut World),
    ) {
        if let Some(recon) = windows {
            recon.on_event(self.queue.now(), target);
        }
        self.events_executed += 1;
        if let Some(started) = self.profiler.as_mut().map(Profiler::begin_handler) {
            handler(self);
            if let Some(p) = self.profiler.as_mut() {
                p.record(category, started);
            }
        } else {
            handler(self);
        }
    }

    /// Run the event loop until (and including) time `t` under the given
    /// execution plan; the clock ends at exactly `t`.
    ///
    /// There is one loop: events pop in global `(time, seq)` order and
    /// dispatch on the calling thread. The plan never changes what the run
    /// produces — traces, counters, recorder contents, oracle verdicts and
    /// observability artifacts are byte-identical for every plan.
    /// [`ExecPlan::Sharded`] only attaches an observer that accounts each
    /// dispatch to the plan's conservative lookahead windows: a window
    /// spans `[next, next + lookahead]`, events inside it whose targets
    /// live in different shards are causally independent (no frame crosses
    /// a shard boundary faster than the lookahead), and script events are
    /// global barriers that end it (they may rewire topology — mobility!).
    /// The realized schedule comes back in [`RunStats::sharded`].
    pub fn run(&mut self, t: SimTime, plan: &ExecPlan) -> RunStats {
        let before = self.events_executed;
        let mut windows = match plan {
            ExecPlan::Sequential => None,
            ExecPlan::Sharded { plan, workers } => Some(WindowRecon::new(plan, *workers, t)),
        };
        self.start();
        while let Some((_, ev)) = self.queue.pop_due(t) {
            self.dispatch(ev, &mut windows);
        }
        self.queue.advance_to(t);
        RunStats {
            events_executed: self.events_executed - before,
            sharded: windows.map(WindowRecon::finish),
        }
    }

    /// Run until the event queue drains (useful for small tests). A safety
    /// cap bounds runaway event cascades.
    pub fn run_to_quiescence(&mut self, max_events: u64) {
        self.start();
        let before = self.events_executed;
        while let Some((_, ev)) = self.queue.pop() {
            self.dispatch(ev, &mut None);
            assert!(
                self.events_executed - before <= max_events,
                "exceeded {max_events} events"
            );
        }
    }

    /// Total events ever scheduled (diagnostic; `SimProfile` carries it).
    pub fn events_scheduled(&self) -> u64 {
        self.queue.scheduled_total() + self.copies_scheduled
    }

    /// Transmit `frame` from `node` on `ifindex` (backend of [`Ctx::send`]).
    fn send_from(&mut self, node: NodeId, ifindex: IfIndex, frame: Frame) -> bool {
        let now = self.now();
        let Some(link_id) = self.link_of(node, ifindex) else {
            bump!(self.counters, "world.frames_dropped_detached");
            return false;
        };
        let link = &mut self.links[link_id.index()];
        // A downed link eats the frame at the transmitter.
        if !link.up {
            link.stats.record_drop(&frame);
            bump!(self.counters, "faults.frames_dropped_link_down");
            bump!(self.node_counters[node.index()], "framesDroppedByFault");
            return true;
        }
        link.stats.record(&frame);
        let params = link.params;
        if let Some(probe) = self.probe.clone() {
            probe.on_transmit(now, node, ifindex, link_id, &frame);
        }
        let iface = &mut self.nodes[node.index()].ifaces[usize::from(ifindex)];
        let (arrival, free) = schedule_transmission(&params, now, iface.tx_free, frame.len());
        iface.tx_free = free;
        // The membership of this instant, shared by reference with every
        // arrival event scheduled below.
        let members = self.links[link_id.index()].snapshot();
        let sender = Attachment { node, ifindex };
        let broadcast = frame.l2 == crate::frame::L2Dest::Broadcast;
        if broadcast && self.links[link_id.index()].fault.is_none() {
            // Every copy is the same bytes at the same instant: one entry.
            let copies = members.iter().filter(|m| **m != sender).count();
            if copies > 0 {
                let receivers = 0..members.len();
                self.schedule(
                    arrival,
                    WorldEvent::Deliver {
                        link: link_id,
                        frame,
                        members,
                        receivers,
                        sender,
                    },
                    copies,
                );
            }
            return true;
        }
        for (mi, &member) in members.iter().enumerate() {
            if member == sender {
                continue;
            }
            let hearer = member.node.index();
            // NIC filtering: L2-unicast frames only reach their addressee.
            if let crate::frame::L2Dest::Node(to) = frame.l2 {
                if member.node != to {
                    continue;
                }
            }
            // Fault injection: each receiver copy independently rolls for
            // loss, surviving copies may pick up extra jitter, and the
            // corruption process may mangle the copy's bytes, duplicate it,
            // or delay it past frames transmitted later. The probe (and so
            // the invariant oracle) saw the clean transmission above;
            // corruption is strictly a receive-side disturbance.
            let mut arrival = arrival;
            let mut dropped = false;
            let mut corrupted = None;
            let mut deliver_bytes = None;
            let mut duplicate_at = None;
            if let Some(fault) = self.links[link_id.index()].fault.as_mut() {
                if fault.should_drop() {
                    dropped = true;
                } else {
                    arrival += fault.jitter();
                    if let Some(kind) = fault.corruption() {
                        corrupted = Some(kind);
                        match kind {
                            crate::fault::CorruptionKind::Duplicate => {
                                duplicate_at = Some(arrival + fault.replay_delay());
                            }
                            crate::fault::CorruptionKind::Replay => {
                                arrival += fault.replay_delay();
                            }
                            _ => deliver_bytes = Some(fault.corrupt_bytes(kind, &frame.wire())),
                        }
                    }
                }
            }
            if dropped {
                self.links[link_id.index()].stats.record_drop(&frame);
                bump!(self.counters, "faults.frames_dropped_loss");
                // Attributed to the receiver that would have heard the copy.
                bump!(self.node_counters[hearer], "framesDroppedByFault");
                continue;
            }
            if let Some(kind) = corrupted {
                self.links[link_id.index()].stats.record_corruption(&frame);
                bump!(self.counters, "faults.frames_corrupted");
                self.counters.bump(kind.counter(), 1);
                // Attributed to the receiver that hears the mangled copy.
                bump!(self.node_counters[hearer], "framesCorruptedOnLink");
                self.tracer
                    .emit_typed(now, TraceCategory::Fault, hearer, "corrupted", || {
                        vec![
                            ("link", link_id.0.into()),
                            ("kind", kind.name().into()),
                            ("class", frame.class.name().into()),
                        ]
                    });
            }
            let mut copy = frame.clone();
            if let Some(bytes) = deliver_bytes {
                copy = copy.with_bytes(bytes);
                copy.damaged = true;
            }
            let mut to_member = |at: SimTime, frame: Frame| {
                self.schedule(
                    at,
                    WorldEvent::Deliver {
                        link: link_id,
                        frame,
                        members: members.clone(),
                        receivers: mi..mi + 1,
                        sender,
                    },
                    1,
                );
            };
            if let Some(dup_at) = duplicate_at {
                to_member(dup_at, frame.clone());
            }
            to_member(arrival, copy);
        }
        true
    }
}

/// The world context handed to node behaviors during callbacks: the world
/// itself plus the identity of the node being dispatched, so every
/// operation is attributed to (and scoped by) that node.
pub struct Ctx<'a> {
    world: &'a mut World,
    /// The node being dispatched.
    pub node: NodeId,
}

impl Ctx<'_> {
    pub fn now(&self) -> SimTime {
        self.world.now()
    }

    /// The link the given interface is attached to, if any.
    pub fn link_on(&self, ifindex: IfIndex) -> Option<LinkId> {
        self.world.link_of(self.node, ifindex)
    }

    /// Number of interfaces on this node.
    pub fn n_ifaces(&self) -> usize {
        self.world.n_ifaces(self.node)
    }

    /// Transmit `frame` on `ifindex`. Returns `false` (and counts a drop)
    /// if the interface is not attached to any link.
    pub fn send(&mut self, ifindex: IfIndex, frame: Frame) -> bool {
        self.world.send_from(self.node, ifindex, frame)
    }

    /// Arm a timer that fires after `d`, delivering `key` to `on_timer`.
    pub fn set_timer_after(&mut self, d: SimDuration, key: TimerKey) -> EventId {
        let at = self.now() + d;
        self.set_timer_at(at, key)
    }

    /// Arm a timer for an absolute instant.
    pub fn set_timer_at(&mut self, at: SimTime, key: TimerKey) -> EventId {
        let node = self.node;
        let incarnation = self.world.nodes[node.index()].incarnation;
        self.world.schedule(
            at,
            WorldEvent::Timer {
                node,
                key,
                incarnation,
            },
            1,
        )
    }

    /// Cancel a pending timer. Returns false if it already fired.
    pub fn cancel_timer(&mut self, id: EventId) -> bool {
        self.world.queue.cancel(id)
    }

    /// Emit a trace event attributed to this node.
    pub fn trace(&self, category: TraceCategory, f: impl FnOnce() -> String) {
        self.world
            .tracer
            .emit_with(self.now(), category, self.node.index(), f)
    }

    /// Emit a typed trace event attributed to this node. The field closure
    /// runs only when the category is enabled.
    pub fn trace_event(
        &self,
        category: TraceCategory,
        kind: &'static str,
        fields: impl FnOnce() -> Fields,
    ) {
        self.world
            .tracer
            .emit_typed(self.now(), category, self.node.index(), kind, fields)
    }

    /// Attribute this handler's wall-clock time from here on to `stage`
    /// (see [`SimProfile::stages`]); one branch when profiling is off, no
    /// clock read unless this handler is one of the sampled ones. Returns
    /// the stage that was running so a nested section can hand control
    /// back; the end of the handler closes whatever is open.
    pub fn stage(&mut self, stage: Stage) -> Stage {
        match self.world.profiler.as_mut() {
            Some(p) => p.enter_stage(stage),
            None => Stage::Outside,
        }
    }

    /// Run `f` as a nested section of `stage`.
    pub fn in_stage<R>(&mut self, stage: Stage, f: impl FnOnce() -> R) -> R {
        if self.world.profiler.is_none() {
            return f();
        }
        let outer = self.stage(stage);
        let r = f();
        self.stage(outer);
        r
    }

    /// Mutable access to the global counters.
    pub fn counters(&mut self) -> &mut Counters {
        &mut self.world.counters
    }

    /// Members currently attached to a link (used by test harness nodes).
    pub fn link_members(&self, link: LinkId) -> Vec<(NodeId, IfIndex)> {
        self.world.link_members(link)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecPlan;
    use crate::frame::FrameClass;
    use bytes::Bytes;
    use std::cell::RefCell;
    use std::rc::Rc;

    type Log = Rc<RefCell<Vec<String>>>;

    fn new_log() -> Log {
        Log::default()
    }

    fn push(log: &Log, line: String) {
        log.borrow_mut().push(line);
    }

    fn read(log: &Log) -> Vec<String> {
        log.borrow().clone()
    }

    /// Records everything that happens to it; replies to "ping" frames.
    struct Probe {
        log: Log,
        reply: bool,
    }

    impl Probe {
        fn new(log: Log, reply: bool) -> Box<Self> {
            Box::new(Probe { log, reply })
        }
    }

    impl NodeBehavior for Probe {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            push(&self.log, format!("{}:start", ctx.node));
        }
        fn on_frame(&mut self, ctx: &mut Ctx<'_>, ifindex: IfIndex, frame: &Frame) {
            push(
                &self.log,
                format!(
                    "{}:rx if{} {}B @{}",
                    ctx.node,
                    ifindex,
                    frame.len(),
                    ctx.now()
                ),
            );
            if self.reply && frame.buffer().as_ref() == b"ping" {
                ctx.send(
                    ifindex,
                    Frame::new(Bytes::from_static(b"pong"), FrameClass::Other),
                );
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, key: TimerKey) {
            push(&self.log, format!("{}:timer {}", ctx.node, key.0));
        }
        fn on_link_change(&mut self, ctx: &mut Ctx<'_>, ifindex: IfIndex, link: Option<LinkId>) {
            push(
                &self.log,
                format!("{}:linkchange if{} {:?}", ctx.node, ifindex, link),
            );
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn quick_params() -> LinkParams {
        LinkParams {
            bandwidth_bps: 8_000_000,
            delay: SimDuration::from_micros(10),
        }
    }

    #[test]
    fn broadcast_delivery_to_all_members() {
        let log = new_log();
        let mut w = World::new();
        let l = w.add_link(quick_params());
        let a = w.add_node(1, Probe::new(log.clone(), false));
        let b = w.add_node(1, Probe::new(log.clone(), false));
        let c = w.add_node(1, Probe::new(log.clone(), false));
        for n in [a, b, c] {
            w.attach(n, 0, l);
        }
        w.start();
        w.with_node(a, |_b, ctx| {
            ctx.send(
                0,
                Frame::new(Bytes::from_static(b"hello"), FrameClass::Other),
            );
        });
        w.run_to_quiescence(100);
        let log = read(&log);
        // b and c each got it; a (the sender) did not.
        assert_eq!(log.iter().filter(|s| s.contains(":rx")).count(), 2);
        assert!(log.iter().any(|s| s.starts_with("n1:rx")));
        assert!(log.iter().any(|s| s.starts_with("n2:rx")));
    }

    #[test]
    fn ping_pong_round_trip_time() {
        let log = new_log();
        let mut w = World::new();
        let l = w.add_link(quick_params());
        let a = w.add_node(1, Probe::new(log.clone(), false));
        let b = w.add_node(1, Probe::new(log.clone(), true));
        w.attach(a, 0, l);
        w.attach(b, 0, l);
        w.start();
        w.with_node(a, |_n, ctx| {
            ctx.send(
                0,
                Frame::new(Bytes::from_static(b"ping"), FrameClass::Other),
            );
        });
        w.run_to_quiescence(100);
        // 4 bytes at 1 byte/µs = 4 µs + 10 µs propagation each way.
        let expect_one_way = SimDuration::from_micros(14);
        assert_eq!(w.now(), SimTime::ZERO + expect_one_way + expect_one_way);
        let log = read(&log);
        assert!(
            log.iter().any(|s| s.starts_with("n0:rx")),
            "got pong: {log:?}"
        );
    }

    #[test]
    fn serialization_queueing_delays_back_to_back_frames() {
        let log = new_log();
        let mut w = World::new();
        let l = w.add_link(LinkParams {
            bandwidth_bps: 8_000, // 1 ms per byte
            delay: SimDuration::ZERO,
        });
        let a = w.add_node(1, Probe::new(log.clone(), false));
        let b = w.add_node(1, Probe::new(log.clone(), false));
        w.attach(a, 0, l);
        w.attach(b, 0, l);
        w.start();
        w.with_node(a, |_n, ctx| {
            ctx.send(
                0,
                Frame::new(Bytes::from_static(&[0; 10]), FrameClass::Other),
            );
            ctx.send(
                0,
                Frame::new(Bytes::from_static(&[0; 10]), FrameClass::Other),
            );
        });
        w.run_to_quiescence(100);
        let log = read(&log);
        let rx: Vec<&String> = log.iter().filter(|s| s.contains("n1:rx")).collect();
        assert_eq!(rx.len(), 2);
        assert!(rx[0].contains("@0.01"), "first at 10ms: {rx:?}");
        assert!(rx[1].contains("@0.02"), "second at 20ms (queued): {rx:?}");
    }

    #[test]
    fn timers_fire_and_cancel() {
        let log = new_log();
        let mut w = World::new();
        let a = w.add_node(0, Probe::new(log.clone(), false));
        w.start();
        let cancelled = w.with_node(a, |_n, ctx| {
            ctx.set_timer_after(SimDuration::from_secs(1), TimerKey(1));
            let id = ctx.set_timer_after(SimDuration::from_secs(2), TimerKey(2));
            ctx.set_timer_after(SimDuration::from_secs(3), TimerKey(3));
            id
        });
        w.at(SimTime::from_millis(500), move |w| {
            w.with_node(NodeId(0), |_n, ctx| {
                assert!(ctx.cancel_timer(cancelled));
            });
        });
        w.run(SimTime::from_secs(10), &ExecPlan::sequential());
        let log = read(&log);
        assert!(log.contains(&"n0:timer 1".to_string()));
        assert!(!log.contains(&"n0:timer 2".to_string()));
        assert!(log.contains(&"n0:timer 3".to_string()));
    }

    #[test]
    fn mobility_notifies_and_redirects_delivery() {
        let log = new_log();
        let mut w = World::new();
        let l1 = w.add_link(quick_params());
        let l2 = w.add_link(quick_params());
        let fixed = w.add_node(1, Probe::new(log.clone(), false));
        let mobile = w.add_node(1, Probe::new(log.clone(), false));
        let fixed2 = w.add_node(1, Probe::new(log.clone(), false));
        w.attach(fixed, 0, l1);
        w.attach(mobile, 0, l1);
        w.attach(fixed2, 0, l2);
        w.start();
        w.at(SimTime::from_secs(1), move |w| {
            w.move_iface(mobile, 0, l2);
        });
        // After the move, a frame sent on l2 must reach the mobile node.
        w.at(SimTime::from_secs(2), move |w| {
            w.with_node(fixed2, |_n, ctx| {
                ctx.send(0, Frame::new(Bytes::from_static(b"hi"), FrameClass::Other));
            });
        });
        w.run(SimTime::from_secs(3), &ExecPlan::sequential());
        let log = read(&log);
        assert!(log.iter().any(|s| s.contains("n1:linkchange if0 None")));
        assert!(log.iter().any(|s| s.contains("n1:linkchange if0 Some(L1)")));
        assert!(log.iter().any(|s| s.starts_with("n1:rx")));
    }

    #[test]
    fn frame_in_flight_to_moved_node_is_dropped() {
        let log = new_log();
        let mut w = World::new();
        // Long propagation delay so we can move the node mid-flight.
        let l1 = w.add_link(LinkParams {
            bandwidth_bps: 100_000_000,
            delay: SimDuration::from_secs(1),
        });
        let l2 = w.add_link(quick_params());
        let a = w.add_node(1, Probe::new(log.clone(), false));
        let b = w.add_node(1, Probe::new(log.clone(), false));
        w.attach(a, 0, l1);
        w.attach(b, 0, l1);
        w.start();
        w.at(SimTime::from_millis(1), move |w| {
            w.with_node(a, |_n, ctx| {
                ctx.send(0, Frame::new(Bytes::from_static(b"x"), FrameClass::Other));
            });
        });
        w.at(SimTime::from_millis(500), move |w| {
            w.move_iface(b, 0, l2);
        });
        w.run(SimTime::from_secs(3), &ExecPlan::sequential());
        assert_eq!(w.counters().get("world.frames_missed_due_to_move"), 1);
        assert!(!read(&log).iter().any(|s| s.starts_with("n1:rx")));
    }

    /// A link with a one-second flight time and `n` attached nodes, plus
    /// one node (the last returned) attached to nothing; node 0 broadcasts
    /// one byte at t = 1 ms, so the copies arrive just after 1 s.
    fn slow_broadcast(log: &Log, n: usize) -> (World, LinkId, Vec<NodeId>) {
        let mut w = World::new();
        let l = w.add_link(LinkParams {
            bandwidth_bps: 100_000_000,
            delay: SimDuration::from_secs(1),
        });
        let nodes: Vec<NodeId> = (0..=n)
            .map(|i| {
                let id = w.add_node(1, Probe::new(log.clone(), false));
                if i < n {
                    w.attach(id, 0, l);
                }
                id
            })
            .collect();
        w.start();
        let sender = nodes[0];
        w.at(SimTime::from_millis(1), move |w| {
            w.with_node(sender, |_n, ctx| {
                ctx.send(0, Frame::new(Bytes::from_static(b"x"), FrameClass::Other));
            });
        });
        (w, l, nodes)
    }

    fn rx_count(log: &Log, node: NodeId) -> usize {
        let prefix = format!("{node}:rx");
        read(log).iter().filter(|s| s.starts_with(&prefix)).count()
    }

    #[test]
    fn node_attaching_after_the_send_gets_no_copy() {
        // The receivers of a transmission are the link's members when it
        // was sent, not when it arrives.
        let log = new_log();
        let (mut w, l, nodes) = slow_broadcast(&log, 3);
        let (gone, late) = (nodes[2], nodes[3]);
        w.at(SimTime::from_millis(400), move |w| w.detach(gone, 0));
        w.at(SimTime::from_millis(500), move |w| w.attach(late, 0, l));
        w.run(SimTime::from_secs(3), &ExecPlan::sequential());
        assert_eq!(rx_count(&log, nodes[1]), 1);
        assert_eq!(rx_count(&log, late), 0, "attached mid-flight");
        assert_eq!(w.counters().get("world.frames_missed_due_to_move"), 1);
        assert_eq!(w.events_scheduled(), 2 + 3, "two copies, three scripts");
    }

    #[test]
    fn node_reattached_before_arrival_still_gets_its_copy() {
        let log = new_log();
        let (mut w, l, nodes) = slow_broadcast(&log, 3);
        let b = nodes[1];
        w.at(SimTime::from_millis(300), move |w| w.detach(b, 0));
        w.at(SimTime::from_millis(600), move |w| w.attach(b, 0, l));
        w.run(SimTime::from_secs(3), &ExecPlan::sequential());
        assert_eq!(rx_count(&log, b), 1);
        assert_eq!(rx_count(&log, nodes[2]), 1);
        assert_eq!(w.counters().get("world.frames_missed_due_to_move"), 0);
    }

    #[test]
    fn receiver_crashed_mid_flight_loses_only_its_copy() {
        let log = new_log();
        let (mut w, l, nodes) = slow_broadcast(&log, 4);
        let c = nodes[2];
        w.at(SimTime::from_millis(500), move |w| w.crash_node(c));
        w.run(SimTime::from_secs(3), &ExecPlan::sequential());
        assert_eq!(rx_count(&log, nodes[1]), 1);
        assert_eq!(rx_count(&log, c), 0);
        assert_eq!(rx_count(&log, nodes[3]), 1, "later in member order");
        assert_eq!(w.counters().get("faults.frames_dropped_node_crashed"), 1);
        assert_eq!(w.link_stats(l).total_dropped_frames(), 1);
        assert_eq!(w.node_counters(c).get("framesDroppedByFault"), 1);
        assert_eq!(w.node_counters(nodes[3]).get("framesDroppedByFault"), 0);
        assert_eq!(w.events_executed(), 2 + 3, "two scripts, three copies");
    }

    #[test]
    fn link_downed_mid_flight_drops_every_copy() {
        let log = new_log();
        let (mut w, l, nodes) = slow_broadcast(&log, 4);
        w.at(SimTime::from_millis(500), move |w| w.set_link_up(l, false));
        w.run(SimTime::from_secs(3), &ExecPlan::sequential());
        assert!(!read(&log).iter().any(|s| s.contains(":rx")));
        // Counted per receiver copy, not per transmission.
        assert_eq!(w.counters().get("faults.frames_dropped_link_down"), 3);
        assert_eq!(w.link_stats(l).total_dropped_frames(), 3);
        for &n in &nodes[1..4] {
            assert_eq!(w.node_counters(n).get("framesDroppedByFault"), 1);
        }
        assert_eq!(w.node_counters(nodes[0]).get("framesDroppedByFault"), 0);
    }

    #[test]
    fn sending_while_detached_is_counted() {
        let mut w = World::new();
        let log = new_log();
        let a = w.add_node(1, Probe::new(log, false));
        w.start();
        let sent = w.with_node(a, |_n, ctx| {
            ctx.send(0, Frame::new(Bytes::from_static(b"x"), FrameClass::Other))
        });
        assert!(!sent);
        assert_eq!(w.counters().get("world.frames_dropped_detached"), 1);
    }

    #[test]
    fn link_stats_account_sent_bytes() {
        let log = new_log();
        let mut w = World::new();
        let l = w.add_link(quick_params());
        let a = w.add_node(1, Probe::new(log.clone(), false));
        let b = w.add_node(1, Probe::new(log, false));
        w.attach(a, 0, l);
        w.attach(b, 0, l);
        w.start();
        w.with_node(a, |_n, ctx| {
            ctx.send(
                0,
                Frame::new(Bytes::from_static(&[0; 64]), FrameClass::MulticastData),
            );
        });
        w.run_to_quiescence(10);
        let stats = w.link_stats(l);
        assert_eq!(stats.bytes[FrameClass::MulticastData.index()], 64);
        assert_eq!(stats.total_frames(), 1);
    }

    #[test]
    fn run_sets_clock_exactly() {
        let mut w = World::new();
        let stats = w.run(SimTime::from_secs(42), &ExecPlan::sequential());
        assert_eq!(w.now(), SimTime::from_secs(42));
        assert_eq!(stats.events_executed, 0);
        assert!(stats.sharded.is_none());
    }

    #[test]
    fn downed_link_destroys_frames_both_at_send_and_in_flight() {
        let log = new_log();
        let mut w = World::new();
        let l = w.add_link(LinkParams {
            bandwidth_bps: 100_000_000,
            delay: SimDuration::from_secs(1), // long flight time
        });
        let a = w.add_node(1, Probe::new(log.clone(), false));
        let b = w.add_node(1, Probe::new(log.clone(), false));
        w.attach(a, 0, l);
        w.attach(b, 0, l);
        w.start();
        // Frame 1 is in flight when the link goes down at t=0.5s.
        w.at(SimTime::from_millis(1), move |w| {
            w.with_node(a, |_n, ctx| {
                ctx.send(0, Frame::new(Bytes::from_static(b"x"), FrameClass::Other));
            });
        });
        w.at(SimTime::from_millis(500), move |w| w.set_link_up(l, false));
        // Frame 2 is handed to the downed link at t=0.6s.
        w.at(SimTime::from_millis(600), move |w| {
            w.with_node(a, |_n, ctx| {
                assert!(ctx.send(0, Frame::new(Bytes::from_static(b"y"), FrameClass::Other)));
            });
        });
        w.at(SimTime::from_secs(2), move |w| w.set_link_up(l, true));
        // Frame 3 after the link is back: delivered.
        w.at(SimTime::from_secs(3), move |w| {
            w.with_node(a, |_n, ctx| {
                ctx.send(0, Frame::new(Bytes::from_static(b"z"), FrameClass::Other));
            });
        });
        w.run(SimTime::from_secs(5), &ExecPlan::sequential());
        assert_eq!(w.counters().get("faults.frames_dropped_link_down"), 2);
        assert_eq!(w.link_stats(l).total_dropped_frames(), 2);
        let log = read(&log);
        assert_eq!(log.iter().filter(|s| s.contains("n1:rx")).count(), 1);
    }

    #[test]
    fn crash_kills_timers_and_restart_rebuilds() {
        let log = new_log();
        let mut w = World::new();
        let l = w.add_link(quick_params());
        let a = w.add_node(1, Probe::new(log.clone(), false));
        let b = w.add_node(1, Probe::new(log.clone(), false));
        w.attach(a, 0, l);
        w.attach(b, 0, l);
        w.start();
        // b arms a timer for t=2s, then crashes at t=1s.
        w.with_node(b, |_n, ctx| {
            ctx.set_timer_after(SimDuration::from_secs(2), TimerKey(7));
        });
        w.at(SimTime::from_secs(1), move |w| w.crash_node(b));
        // Frames to a crashed node vanish.
        w.at(SimTime::from_millis(1500), move |w| {
            w.with_node(a, |_n, ctx| {
                ctx.send(
                    0,
                    Frame::new(Bytes::from_static(b"lost"), FrameClass::Other),
                );
            });
        });
        let log2 = log.clone();
        w.at(SimTime::from_secs(3), move |w| {
            w.restart_node(b, Probe::new(log2, false));
        });
        // After restart, delivery works and fresh timers fire.
        w.at(SimTime::from_secs(4), move |w| {
            w.with_node(a, |_n, ctx| {
                ctx.send(
                    0,
                    Frame::new(Bytes::from_static(b"back"), FrameClass::Other),
                );
            });
            w.with_node(b, |_n, ctx| {
                ctx.set_timer_after(SimDuration::from_secs(1), TimerKey(8));
            });
        });
        w.run(SimTime::from_secs(10), &ExecPlan::sequential());
        assert_eq!(w.counters().get("faults.frames_dropped_node_crashed"), 1);
        assert_eq!(w.counters().get("faults.timers_dropped_stale"), 1);
        let log = read(&log);
        assert!(
            !log.contains(&"n1:timer 7".to_string()),
            "stale timer fired"
        );
        assert!(log.contains(&"n1:timer 8".to_string()), "fresh timer lost");
        // on_start ran twice (initial + restart), exactly one rx (post-restart).
        assert_eq!(log.iter().filter(|s| *s == "n1:start").count(), 2);
        assert_eq!(log.iter().filter(|s| s.starts_with("n1:rx")).count(), 1);
    }

    #[test]
    fn lossy_link_drops_are_counted_and_deterministic() {
        use crate::fault::{CorruptionModel, LinkFault, LinkFaultState, LossModel};
        use rand::SeedableRng;

        let run = |seed: u64| {
            let log = new_log();
            let mut w = World::new();
            let l = w.add_link(quick_params());
            let a = w.add_node(1, Probe::new(log.clone(), false));
            let b = w.add_node(1, Probe::new(log.clone(), false));
            w.attach(a, 0, l);
            w.attach(b, 0, l);
            w.set_link_fault(
                l,
                Some(LinkFaultState::new(
                    LinkFault {
                        loss: LossModel::iid(0.3),
                        jitter: SimDuration::from_micros(50),
                        corruption: CorruptionModel::none(),
                    },
                    rand::rngs::SmallRng::seed_from_u64(seed),
                )),
            );
            w.start();
            for i in 0..200u64 {
                w.at(SimTime::from_millis(i * 10), move |w| {
                    w.with_node(a, |_n, ctx| {
                        ctx.send(
                            0,
                            Frame::new(Bytes::from_static(&[0; 8]), FrameClass::Other),
                        );
                    });
                });
            }
            w.run(SimTime::from_secs(5), &ExecPlan::sequential());
            let delivered: Vec<String> = read(&log)
                .iter()
                .filter(|s| s.starts_with("n1:rx"))
                .cloned()
                .collect();
            (w.counters().get("faults.frames_dropped_loss"), delivered)
        };

        let (drops1, rx1) = run(42);
        let (drops2, rx2) = run(42);
        let (drops3, _) = run(43);
        assert_eq!(drops1, drops2, "same seed, same drops");
        assert_eq!(rx1, rx2, "same seed, same delivery times (incl. jitter)");
        assert_ne!(drops1, 0, "30% loss on 200 frames must drop some");
        assert_ne!(drops1 as i64, 200, "and deliver some");
        assert_ne!(drops1, drops3, "different seed, different sequence");
        assert_eq!(drops1 + rx1.len() as u64, 200);
    }

    #[test]
    fn probe_sees_transmissions_and_deliveries_but_not_losses() {
        struct LogProbe(Rc<RefCell<Vec<String>>>);
        impl WorldProbe for LogProbe {
            fn on_transmit(
                &self,
                now: SimTime,
                node: NodeId,
                _ifindex: IfIndex,
                link: LinkId,
                frame: &Frame,
            ) {
                self.0
                    .borrow_mut()
                    .push(format!("tx {node} {link} {}B @{now}", frame.len()));
            }
            fn on_deliver(
                &self,
                _now: SimTime,
                node: NodeId,
                _ifindex: IfIndex,
                link: LinkId,
                frame: &Frame,
            ) {
                self.0
                    .borrow_mut()
                    .push(format!("rx {node} {link} {}B", frame.len()));
            }
        }

        let log = new_log();
        let probe_log = Rc::new(RefCell::new(Vec::new()));
        let mut w = World::new();
        let l = w.add_link(quick_params());
        let a = w.add_node(1, Probe::new(log.clone(), false));
        let b = w.add_node(1, Probe::new(log.clone(), false));
        let c = w.add_node(1, Probe::new(log, false));
        for n in [a, b, c] {
            w.attach(n, 0, l);
        }
        w.set_probe(Rc::new(LogProbe(probe_log.clone())));
        w.start();
        w.with_node(a, |_n, ctx| {
            ctx.send(
                0,
                Frame::new(Bytes::from_static(&[0; 5]), FrameClass::Other),
            );
        });
        // Crash c so its delivery is destroyed: the probe must not see it.
        w.crash_node(c);
        w.run_to_quiescence(100);
        let plog = probe_log.borrow();
        // One transmission (not one per member), one surviving delivery (b).
        assert_eq!(
            plog.iter().filter(|s| s.starts_with("tx")).count(),
            1,
            "{plog:?}"
        );
        let rx: Vec<&String> = plog.iter().filter(|s| s.starts_with("rx")).collect();
        assert_eq!(rx.len(), 1, "{plog:?}");
        assert!(rx[0].contains("n1"), "{plog:?}");
    }

    #[test]
    fn profiling_counts_events_and_buckets_handlers() {
        let log = new_log();
        let mut w = World::new();
        let l = w.add_link(quick_params());
        let a = w.add_node(1, Probe::new(log.clone(), false));
        let b = w.add_node(1, Probe::new(log, false));
        w.attach(a, 0, l);
        w.attach(b, 0, l);
        w.enable_profiling();
        w.start();
        w.with_node(a, |_n, ctx| {
            ctx.set_timer_after(SimDuration::from_secs(1), TimerKey(1));
        });
        w.at(SimTime::from_secs(2), move |w| {
            w.with_node(a, |_n, ctx| {
                ctx.send(0, Frame::new(Bytes::from_static(b"x"), FrameClass::Other));
            });
        });
        w.run(SimTime::from_secs(3), &ExecPlan::sequential());
        // timer + script + one delivery (to b) = 3 events.
        assert_eq!(w.events_executed(), 3);
        assert!(w.queue_depth_high_water() >= 2);
        let prof = w.take_profile().expect("profiling was enabled");
        assert_eq!(prof.events_executed, 3);
        assert_eq!(prof.handlers["deliver"].count, 1);
        assert_eq!(prof.handlers["timer"].count, 1);
        assert_eq!(prof.handlers["script"].count, 1);
        assert!(w.take_profile().is_none(), "profiler detaches on take");
    }

    #[test]
    fn node_counters_attribute_fault_drops() {
        use crate::fault::{CorruptionModel, LinkFault, LinkFaultState, LossModel};
        use rand::SeedableRng;

        let log = new_log();
        let mut w = World::new();
        let l = w.add_link(quick_params());
        let a = w.add_node(1, Probe::new(log.clone(), false));
        let b = w.add_node(1, Probe::new(log, false));
        w.attach(a, 0, l);
        w.attach(b, 0, l);
        w.set_link_fault(
            l,
            Some(LinkFaultState::new(
                LinkFault {
                    loss: LossModel::iid(1.0), // drop everything
                    jitter: SimDuration::ZERO,
                    corruption: CorruptionModel::none(),
                },
                rand::rngs::SmallRng::seed_from_u64(1),
            )),
        );
        w.start();
        w.with_node(a, |_n, ctx| {
            ctx.send(0, Frame::new(Bytes::from_static(b"x"), FrameClass::Other));
        });
        w.run_to_quiescence(10);
        assert_eq!(w.node_counters(b).get("framesDroppedByFault"), 1);
        assert_eq!(w.node_counters(a).get("framesDroppedByFault"), 0);
    }

    #[test]
    fn corrupted_copies_are_counted_and_deterministic() {
        use crate::fault::{CorruptionModel, LinkFault, LinkFaultState};
        use rand::SeedableRng;

        let run = |seed: u64| {
            let log = new_log();
            let mut w = World::new();
            let l = w.add_link(quick_params());
            let a = w.add_node(1, Probe::new(log.clone(), false));
            let b = w.add_node(1, Probe::new(log.clone(), false));
            w.attach(a, 0, l);
            w.attach(b, 0, l);
            w.set_link_fault(
                l,
                Some(LinkFaultState::new(
                    LinkFault {
                        corruption: CorruptionModel::uniform(0.5),
                        ..LinkFault::default()
                    },
                    rand::rngs::SmallRng::seed_from_u64(seed),
                )),
            );
            w.start();
            for i in 0..200u64 {
                w.at(SimTime::from_millis(i * 10), move |w| {
                    w.with_node(a, |_n, ctx| {
                        ctx.send(
                            0,
                            Frame::new(Bytes::from_static(&[0x55; 16]), FrameClass::Other),
                        );
                    });
                });
            }
            w.run(SimTime::from_secs(5), &ExecPlan::sequential());
            let rx: Vec<String> = read(&log)
                .iter()
                .filter(|s| s.starts_with("n1:rx"))
                .cloned()
                .collect();
            (
                w.counters().get("faults.frames_corrupted"),
                w.counters().get("faults.corrupt_duplicate"),
                w.link_stats(l).total_corrupted_frames(),
                w.node_counters(b).get("framesCorruptedOnLink"),
                rx,
            )
        };

        let (c1, dups1, stats1, node1, rx1) = run(42);
        let (c2, _, _, _, rx2) = run(42);
        let (c3, _, _, _, _) = run(43);
        assert_eq!(c1, c2, "same seed, same corruption count");
        assert_eq!(rx1, rx2, "same seed, same deliveries");
        assert_ne!(c1, c3, "different seed, different sequence");
        assert_ne!(c1, 0, "50% corruption on 200 frames must hit some");
        assert_eq!(c1, stats1, "link stats agree with world counter");
        assert_eq!(c1, node1, "receiver attribution agrees");
        // Corruption never destroys a copy outright: every transmission is
        // heard at least once, duplicates add extra deliveries.
        assert_eq!(rx1.len() as u64, 200 + dups1);
    }

    #[test]
    fn zero_corruption_leaves_loss_realization_unchanged() {
        use crate::fault::{CorruptionModel, LinkFault, LinkFaultState, LossModel};
        use rand::SeedableRng;

        // Adding a disabled corruption model must not perturb the drop/jitter
        // sequence of an existing seed — the determinism contract for every
        // scenario recorded before the corruption layer existed.
        let run = |corruption: CorruptionModel| {
            let log = new_log();
            let mut w = World::new();
            let l = w.add_link(quick_params());
            let a = w.add_node(1, Probe::new(log.clone(), false));
            let b = w.add_node(1, Probe::new(log.clone(), false));
            w.attach(a, 0, l);
            w.attach(b, 0, l);
            w.set_link_fault(
                l,
                Some(LinkFaultState::new(
                    LinkFault {
                        loss: LossModel::iid(0.3),
                        jitter: SimDuration::from_micros(50),
                        corruption,
                    },
                    rand::rngs::SmallRng::seed_from_u64(7),
                )),
            );
            w.start();
            for i in 0..100u64 {
                w.at(SimTime::from_millis(i * 10), move |w| {
                    w.with_node(a, |_n, ctx| {
                        ctx.send(
                            0,
                            Frame::new(Bytes::from_static(&[0; 8]), FrameClass::Other),
                        );
                    });
                });
            }
            w.run(SimTime::from_secs(2), &ExecPlan::sequential());
            let rx: Vec<String> = read(&log)
                .iter()
                .filter(|s| s.starts_with("n1:rx"))
                .cloned()
                .collect();
            rx
        };

        assert_eq!(run(CorruptionModel::none()), run(CorruptionModel::none()));
    }

    #[test]
    fn sharded_run_matches_sequential_byte_for_byte() {
        // Two links in different shards, ping-pong plus timers plus a
        // scripted move: the sharded plan must produce the identical log
        // (same dispatch order) and a reproducible window schedule.
        let run = |shards: Option<ShardPlan>| {
            let log = new_log();
            let mut w = World::new();
            let l1 = w.add_link(quick_params());
            let l2 = w.add_link(quick_params());
            let a = w.add_node(1, Probe::new(log.clone(), false));
            let b = w.add_node(1, Probe::new(log.clone(), true));
            let c = w.add_node(1, Probe::new(log.clone(), false));
            w.attach(a, 0, l1);
            w.attach(b, 0, l1);
            w.attach(c, 0, l2);
            w.start();
            for i in 0..50u64 {
                w.at(SimTime::from_millis(i * 7), move |w| {
                    w.with_node(a, |_n, ctx| {
                        ctx.send(
                            0,
                            Frame::new(Bytes::from_static(b"ping"), FrameClass::Other),
                        );
                    });
                });
            }
            w.with_node(c, |_n, ctx| {
                ctx.set_timer_after(SimDuration::from_millis(100), TimerKey(1));
            });
            w.at(SimTime::from_millis(200), move |w| w.move_iface(c, 0, l1));
            let end = SimTime::from_secs(1);
            let plan = match shards {
                Some(plan) => ExecPlan::sharded(plan, 1),
                None => ExecPlan::sequential(),
            };
            let stats = w.run(end, &plan);
            (read(&log), w.events_executed(), stats.sharded)
        };

        let (seq_log, seq_events, _) = run(None);
        let plan = ShardPlan::new(vec![0, 0, 1], SimDuration::from_micros(10));
        let (log1, ev1, stats1) = run(Some(plan.clone()));
        let (log2, ev2, stats2) = run(Some(plan));
        assert_eq!(seq_log, log1, "sharded diverged from sequential");
        assert_eq!(seq_log, log2, "sharded rerun diverged from sequential");
        assert_eq!(seq_events, ev1);
        assert_eq!(seq_events, ev2);
        let (stats1, stats2) = (stats1.unwrap(), stats2.unwrap());
        assert!(stats1.same_schedule(&stats2), "schedule stats diverged");
        assert_eq!(stats1.events_total, seq_events);
        assert!(stats1.windows > 0);
        assert!(stats1.barrier_syncs >= 51, "scripts are barriers");
        assert!(stats1.achievable_speedup() >= 1.0);
        // Both shards saw work: the timer fired in shard 1.
        assert!(stats1.events_per_shard.iter().all(|&n| n > 0));
        // The schedule this world realized when every receiver copy was a
        // queue entry of its own; windows are accounted per copy still.
        let per_copy = ShardRunStats {
            windows: 152,
            barrier_syncs: 51,
            events_per_shard: vec![100, 43],
            events_total: 194,
            max_window_batch: 2,
            critical_path_events: 152,
            ..ShardRunStats::default()
        };
        assert!(stats1.same_schedule(&per_copy), "{stats1:?}");
    }

    /// A fan-out entry is an encoding of its copies, not a behaviour: the
    /// same script on fault-free links (one entry per broadcast) and on
    /// links carrying an inert fault state (which forces one entry per
    /// copy) must agree on everything the world reports.
    #[test]
    fn fan_out_entry_equals_one_entry_per_copy() {
        use crate::fault::{LinkFault, LinkFaultState};
        use rand::SeedableRng;

        let run = |inert_fault: bool| {
            let log = new_log();
            let mut w = World::new();
            // Flight time several send periods long, so transmissions overlap.
            let lan = w.add_link(LinkParams {
                bandwidth_bps: 8_000_000,
                delay: SimDuration::from_millis(100),
            });
            let spur = w.add_link(quick_params());
            // Five nodes on the LAN, three of which answer every ping; the
            // fifth also sits on the spur with a sixth node behind it.
            let n: Vec<NodeId> = [
                (1, false),
                (1, true),
                (1, true),
                (1, true),
                (2, false),
                (1, true),
            ]
            .into_iter()
            .map(|(ifaces, reply)| w.add_node(ifaces, Probe::new(log.clone(), reply)))
            .collect();
            for &node in &n[..5] {
                w.attach(node, 0, lan);
            }
            w.attach(n[4], 1, spur);
            w.attach(n[5], 0, spur);
            if inert_fault {
                for link in [lan, spur] {
                    let rng = rand::rngs::SmallRng::seed_from_u64(1);
                    w.set_link_fault(link, Some(LinkFaultState::new(LinkFault::default(), rng)));
                }
            }
            w.start();
            let send = |w: &mut World, from: NodeId, ifindex: IfIndex, frame: Frame| {
                w.with_node(from, |_n, ctx| {
                    ctx.send(ifindex, frame);
                });
            };
            // (queue_len, entries actually queued) while copies are in flight.
            let samples = Rc::new(RefCell::new(Vec::new()));
            for i in 0..20u64 {
                let (talker, unicast_to, behind) = (n[0], n[2], n[4]);
                w.at(SimTime::from_millis(i * 30), move |w| {
                    let ping = Bytes::from_static(b"ping");
                    send(w, talker, 0, Frame::new(ping.clone(), FrameClass::Other));
                    send(
                        w,
                        talker,
                        0,
                        Frame::unicast(ping.clone(), FrameClass::Other, unicast_to),
                    );
                    send(w, behind, 1, Frame::new(ping, FrameClass::Other));
                });
                let samples = samples.clone();
                w.at(SimTime::from_millis(i * 30 + 50), move |w| {
                    samples.borrow_mut().push((w.queue_len(), w.queue.len()));
                });
            }
            w.with_node(n[1], |_n, ctx| {
                ctx.set_timer_after(SimDuration::from_millis(250), TimerKey(1));
            });
            // Every way a copy can die between send and arrival.
            let (crashes, roams) = (n[3], n[5]);
            w.at(SimTime::from_millis(200), move |w| w.crash_node(crashes));
            w.at(SimTime::from_millis(310), move |w| {
                w.move_iface(roams, 0, lan)
            });
            w.at(SimTime::from_millis(450), move |w| {
                w.set_link_up(lan, false)
            });
            w.at(SimTime::from_millis(480), move |w| w.set_link_up(lan, true));
            w.run(SimTime::from_secs(2), &ExecPlan::sequential());
            let samples = samples.borrow().clone();
            let fanned = samples.iter().any(|(len, entries)| len > entries);
            assert_eq!(fanned, !inert_fault, "{samples:?}");
            let queue_len: Vec<usize> = samples.iter().map(|s| s.0).collect();
            (
                read(&log),
                format!("{:?}", w.counters()),
                format!("{:?} {:?}", w.link_stats(lan), w.link_stats(spur)),
                n.iter()
                    .map(|&node| format!("{:?}", w.node_counters(node)))
                    .collect::<Vec<_>>(),
                (w.events_executed(), w.events_scheduled()),
                w.queue_depth_high_water(),
                queue_len,
                w.queue_len(),
            )
        };

        let fan_out = run(false);
        assert_eq!(fan_out, run(true));
        assert!(fan_out.0.iter().filter(|s| s.contains(":rx")).count() > 100);
        assert_eq!(fan_out.7, 0, "no copy left pending after the run");
    }

    #[test]
    fn behavior_downcast() {
        let log = new_log();
        let mut w = World::new();
        let a = w.add_node(0, Probe::new(log, true));
        assert!(w.behavior::<Probe>(a).unwrap().reply);
        w.behavior_mut::<Probe>(a).unwrap().reply = false;
        assert!(!w.behavior::<Probe>(a).unwrap().reply);
    }
}
