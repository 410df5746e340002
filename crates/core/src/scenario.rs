//! Scenario configuration and execution: the reference (Figure-1) network
//! with the paper's hosts, a delivery policy, timer profiles, a mobility
//! script, and a CBR multicast stream — run to completion and analyzed.
//!
//! Configurations are constructed through [`ScenarioBuilder`]
//! ([`ScenarioConfig::builder`]), which owns the defaults and the fluent
//! setters. [`stage`] is the one validation gate: it rejects an
//! inconsistent knob combination as a [`StageError`] before a run starts.

use crate::analysis::{analyze_with_delays, RunReport};
use crate::builder::{BuiltNetwork, HostSpec, NetworkSpec};
use crate::host_node::{HostConfig, HostNode, SenderApp};
use crate::node_kit::ROUTER_TOTALS;
use crate::recorder::{Recorder, IN_FLIGHT_TAIL};
use crate::router_node::{ResourceBudget, RouterConfig, RouterNode};
use crate::run::{self, at_secs, Judge, RunOutput, RunPlan, StageError};
use crate::strategy::Policy;
use mobicast_ipv6::addr::GroupAddr;
use mobicast_mld::MldConfig;
use mobicast_net::{Ctx, ExecPlan, FaultPlan, FrameClass, LinkStats, NodeId};
use mobicast_pimdm::PimConfig;
use mobicast_sim::{
    rng::sample_exponential, Counters, RingBufferTracer, RngFactory, SimDuration, SimProfile,
    SimTime, Tracer,
};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// The hosts of the paper's Figure 1.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum PaperHost {
    /// Sender S (home: Link 1).
    S,
    /// Receiver 1 (home: Link 1).
    R1,
    /// Receiver 2 (home: Link 2).
    R2,
    /// Receiver 3 (home: Link 4).
    R3,
}

impl PaperHost {
    pub const ALL: [PaperHost; 4] = [PaperHost::S, PaperHost::R1, PaperHost::R2, PaperHost::R3];
    /// The hosts' names in the paper's figures, in `ALL` order.
    const NAMES: [&'static str; 4] = ["S", "R1", "R2", "R3"];

    /// Home link (0-indexed; the paper's Link n is index n-1).
    pub fn home_link_index(self) -> usize {
        match self {
            PaperHost::S | PaperHost::R1 => 0,
            PaperHost::R2 => 1,
            PaperHost::R3 => 3,
        }
    }
}

/// One scripted link change: at `at`, `host` moves to the paper's
/// `to_link` (1-based, as in the figures).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Move {
    pub at_secs: f64,
    pub host: PaperHost,
    pub to_link: usize,
}

/// Full configuration of a reference-topology scenario.
///
/// `#[non_exhaustive]`: construct through [`ScenarioConfig::builder`]
/// (struct literals would turn every added knob into a breaking change).
/// Cloning an existing config and mutating fields remains fine.
#[derive(Clone)]
#[non_exhaustive]
pub struct ScenarioConfig {
    pub seed: u64,
    pub duration: SimDuration,
    /// The multicast delivery policy (one of [`Policy::all`]).
    pub policy: Policy,
    /// The paper's §4.4 knob.
    pub mld: MldConfig,
    pub pim: PimConfig,
    /// Unsolicited Reports after moving (paper's recommendation).
    pub unsolicited_reports: bool,
    /// CBR source parameters.
    pub data_interval: SimDuration,
    pub payload_size: usize,
    pub traffic_start: SimTime,
    pub moves: Vec<Move>,
    /// Additional mobile receivers homed on Link 4 that follow R3's moves
    /// (used to measure the per-receiver unicast duplication of the tunnel
    /// approaches, paper §4.3.2).
    pub extra_receivers: usize,
    /// Fault schedule (loss, jitter, link flaps, router crashes); the
    /// default injects nothing.
    pub fault: FaultPlan,
    /// Run the network-wide invariant oracle (on by default; every run is
    /// checked for forwarding loops, persistent duplicates, stale state,
    /// binding staleness and unbounded encapsulation).
    pub oracle: bool,
    /// Control-plane resource budget applied to every router (state-table
    /// caps, a full table refusing the newcomer, and an ingress rate
    /// limit). Default: unbounded — no admission control at all.
    pub budget: ResourceBudget,
    /// Protected-flow delivery floor: during a signaling storm, receivers
    /// subscribed *before* the storm must keep at least this fraction of
    /// the stream (checked by the oracle). `None` disables the check.
    pub protected_floor: Option<f64>,
    /// Scenario label used in trace file names and panic messages.
    /// Borrowed for the common static labels; owned for generated
    /// (per-seed) scenario names.
    pub name: Cow<'static, str>,
    /// Capture typed trace events into a bounded ring buffer of this
    /// capacity and return them as `ScenarioResult.trace_jsonl`. A caller
    /// that wants the events themselves stages with its own tracer
    /// instead ([`stage`]).
    pub trace_capture: Option<usize>,
    /// Profile the event loop (wall-clock; see `ScenarioResult.profile`).
    pub profile: bool,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            seed: 1,
            duration: SimDuration::from_secs(600),
            policy: Policy::LOCAL,
            mld: MldConfig::default(),
            pim: PimConfig::default(),
            unsolicited_reports: true,
            data_interval: SimDuration::from_millis(500),
            payload_size: 512,
            traffic_start: SimTime::from_secs(5),
            moves: Vec::new(),
            extra_receivers: 0,
            fault: FaultPlan::default(),
            oracle: true,
            budget: ResourceBudget::default(),
            protected_floor: None,
            name: Cow::Borrowed("scenario"),
            trace_capture: None,
            profile: false,
        }
    }
}

impl ScenarioConfig {
    /// Start building a configuration from the defaults.
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::new()
    }
}

impl fmt::Debug for ScenarioConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScenarioConfig")
            .field("name", &self.name)
            .field("seed", &self.seed)
            .field("duration", &self.duration)
            .field("policy", &self.policy)
            .field("unsolicited_reports", &self.unsolicited_reports)
            .field("data_interval", &self.data_interval)
            .field("payload_size", &self.payload_size)
            .field("moves", &self.moves)
            .field("extra_receivers", &self.extra_receivers)
            .field("oracle", &self.oracle)
            .field("trace_capture", &self.trace_capture)
            .field("profile", &self.profile)
            .finish_non_exhaustive()
    }
}

/// Fluent constructor for [`ScenarioConfig`]: every setter returns
/// `self` and [`ScenarioBuilder::build`] hands the configuration out.
/// [`stage`] validates it, so an inconsistent combination — moves out of
/// time order or off the paper's links 1–6, an inconsistent MLD/PIM
/// timer profile, a payload short of its 16-byte header — fails the run,
/// not the build.
#[derive(Clone, Default)]
pub struct ScenarioBuilder {
    cfg: ScenarioConfig,
}

impl ScenarioBuilder {
    pub fn new() -> Self {
        ScenarioBuilder {
            cfg: ScenarioConfig::default(),
        }
    }

    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    pub fn duration(mut self, duration: SimDuration) -> Self {
        self.cfg.duration = duration;
        self
    }

    pub fn duration_secs(self, secs: u64) -> Self {
        self.duration(SimDuration::from_secs(secs))
    }

    /// Select the delivery policy (default: [`Policy::LOCAL`]).
    pub fn policy(mut self, policy: Policy) -> Self {
        self.cfg.policy = policy;
        self
    }

    pub fn mld(mut self, mld: MldConfig) -> Self {
        self.cfg.mld = mld;
        self
    }

    pub fn unsolicited_reports(mut self, on: bool) -> Self {
        self.cfg.unsolicited_reports = on;
        self
    }

    pub fn data_interval(mut self, interval: SimDuration) -> Self {
        self.cfg.data_interval = interval;
        self
    }

    pub fn payload_size(mut self, bytes: usize) -> Self {
        self.cfg.payload_size = bytes;
        self
    }

    /// Replace the whole mobility script.
    pub fn moves(mut self, moves: Vec<Move>) -> Self {
        self.cfg.moves = moves;
        self
    }

    /// Append one scripted move (`to_link` is the paper's 1-based number).
    pub fn move_at(mut self, at_secs: f64, host: PaperHost, to_link: usize) -> Self {
        self.cfg.moves.push(Move {
            at_secs,
            host,
            to_link,
        });
        self
    }

    pub fn extra_receivers(mut self, n: usize) -> Self {
        self.cfg.extra_receivers = n;
        self
    }

    pub fn fault(mut self, fault: FaultPlan) -> Self {
        self.cfg.fault = fault;
        self
    }

    pub fn oracle(mut self, on: bool) -> Self {
        self.cfg.oracle = on;
        self
    }

    /// Apply a control-plane resource budget to every router (default:
    /// unbounded).
    pub fn budget(mut self, budget: ResourceBudget) -> Self {
        self.cfg.budget = budget;
        self
    }

    /// Demand that pre-storm receivers keep at least this delivery
    /// fraction during a signaling storm (oracle-checked).
    pub fn protected_floor(mut self, floor: f64) -> Self {
        self.cfg.protected_floor = Some(floor);
        self
    }

    /// Label the scenario (static or generated — see
    /// [`ScenarioConfig::name`]).
    pub fn name(mut self, name: impl Into<Cow<'static, str>>) -> Self {
        self.cfg.name = name.into();
        self
    }

    pub fn trace_capture(mut self, capacity: usize) -> Self {
        self.cfg.trace_capture = Some(capacity);
        self
    }

    /// Hand out the configuration.
    pub fn build(self) -> ScenarioConfig {
        self.cfg
    }
}

/// Result of one scenario run.
pub struct ScenarioResult {
    pub report: RunReport,
    /// Packets received (first copies) per paper host.
    pub received: BTreeMap<&'static str, u64>,
    /// Duplicates per paper host.
    pub duplicates: BTreeMap<&'static str, u64>,
    /// Maximum number of (S,G) entries across routers (state load).
    pub max_router_sg_entries: usize,
    /// Home-agent processing totals across routers.
    pub ha_binding_updates: u64,
    pub ha_packets_tunneled: u64,
    /// Multicast datagrams sent (`report.analysis.packets_sent`).
    pub sent: u64,
    /// Deterministic event count of the run (scheduler dispatches).
    pub events_executed: u64,
    /// Wall-clock profile (only with `ScenarioConfig.profile`; never folded
    /// into the deterministic `report`).
    pub profile: Option<SimProfile>,
    /// Versioned JSONL trace export (only with `ScenarioConfig.trace_capture`).
    pub trace_jsonl: Option<String>,
    /// Trace events evicted from the bounded ring buffer.
    pub trace_dropped: u64,
}

impl ScenarioResult {
    /// Whole-run first-copy delivery ratio over R1, R2 and R3.
    pub fn delivery_ratio(&self) -> f64 {
        let received: f64 = ["R1", "R2", "R3"]
            .iter()
            .map(|h| self.received[h] as f64)
            .sum();
        received / (3.0 * self.sent.max(1) as f64)
    }
}

/// The multicast group used by all reference scenarios.
pub fn group() -> GroupAddr {
    GroupAddr::test_group(1)
}

/// Run a reference-topology scenario to completion.
pub fn run(cfg: &ScenarioConfig) -> ScenarioResult {
    run_keeping(cfg, false).0
}

/// As [`run()`], additionally handing back the raw recorder (provenance
/// chains, deliveries, moves) for post-run tools like the packet-journey
/// explainer — with the whole journal in it, where [`run()`]'s retires
/// rows as the run goes. Panics, naming the scenario, on a configuration
/// [`stage`] rejects.
pub fn run_with_recorder(cfg: &ScenarioConfig) -> (ScenarioResult, crate::recorder::Recorder) {
    run_keeping(cfg, true)
}

fn run_keeping(cfg: &ScenarioConfig, whole_journal: bool) -> (ScenarioResult, Recorder) {
    let (tracer, ring) = match cfg.trace_capture {
        Some(capacity) => {
            let (t, r) = RingBufferTracer::new(capacity);
            (t, Some(r))
        }
        None => (Tracer::null(), None),
    };
    let mut staged = stage(cfg, tracer).unwrap_or_else(|e| panic!("scenario {}: {e}", cfg.name));
    if whole_journal {
        staged.net().recorder.set_journal_horizon(SimDuration::MAX);
    }
    let (mut result, rec) = staged.run();
    if let Some(ring) = ring {
        result.trace_dropped = ring.dropped();
        result.trace_jsonl = Some(ring.export_jsonl());
    }
    (result, rec)
}

/// What each host of a lowered scenario is, in host-list order: the
/// paper's four, the extra receivers shadowing R3, then the storm's
/// dedicated subscription flappers (numbered from 0). A function of the
/// configuration alone, so the lowering and the report read one list.
#[derive(Clone, Copy)]
enum Role {
    Paper(PaperHost),
    Extra(usize),
    Storm(usize),
}

fn roles(cfg: &ScenarioConfig) -> impl Iterator<Item = Role> {
    let paper = PaperHost::ALL.into_iter().map(Role::Paper);
    let extras = (0..cfg.extra_receivers).map(Role::Extra);
    paper
        .chain(extras)
        .chain((0..storm_host_count(cfg)).map(Role::Storm))
}

/// The Figure-1 lowering: `cfg` as a [`RunPlan`] over `topology`.
fn lower<'a>(cfg: &ScenarioConfig, topology: &'a NetworkSpec) -> RunPlan<'a> {
    let g = group();
    let host_cfg = HostConfig {
        policy: cfg.policy,
        unsolicited_reports: cfg.unsolicited_reports,
        mld: cfg.mld,
    };
    let sender_app = SenderApp {
        group: g,
        interval: cfg.data_interval,
        payload_size: cfg.payload_size,
        start: cfg.traffic_start,
        stop: SimTime::ZERO + cfg.duration,
    };
    let hosts = roles(cfg)
        .map(|role| {
            // Extras and storm hosts are homed with R3; leaving the storm
            // hosts unsubscribed keeps them out of every delivery metric.
            let (home, sends, receives) = match role {
                Role::Paper(h) => (h, h == PaperHost::S, h != PaperHost::S),
                Role::Extra(_) => (PaperHost::R3, false, true),
                Role::Storm(_) => (PaperHost::R3, false, false),
            };
            HostSpec {
                home_link: home.home_link_index(),
                cfg: host_cfg,
                sender: sends.then_some(sender_app),
                receiver_group: receives.then_some(g),
            }
        })
        .collect();

    let mut moves = Vec::with_capacity(cfg.moves.len());
    for mv in &cfg.moves {
        // The paper's 1-based link number; 0 wraps out of range and
        // stage 1 rejects it like any other link the network lacks.
        let (at, link) = (at_secs(mv.at_secs), mv.to_link.wrapping_sub(1));
        moves.push((at, mv.host as usize, link));
        if mv.host == PaperHost::R3 {
            // Extra receivers shadow R3 (storm hosts, after them, stay put).
            let extras = PaperHost::ALL.len()..PaperHost::ALL.len() + cfg.extra_receivers;
            moves.extend(extras.map(|host| (at, host, link)));
        }
    }

    let judge = cfg.oracle.then(|| {
        let move_secs = cfg.moves.iter().map(|mv| mv.at_secs);
        Judge {
            protected_floor: cfg.protected_floor,
            // `validate` ties the floor to a storm.
            protect_window: cfg.protected_floor.map(|_| {
                let storm = &cfg.fault.storm;
                let until = storm.end_secs.min(cfg.duration.as_secs_f64());
                (at_secs(storm.start_secs), at_secs(until))
            }),
            ..Judge::after(cfg.traffic_start, move_secs, &cfg.fault)
        }
    });

    RunPlan {
        topology,
        hosts,
        router_cfg: RouterConfig {
            mld: cfg.mld,
            pim: cfg.pim,
            budget: cfg.budget,
        },
        seed: cfg.seed,
        duration: cfg.duration,
        moves,
        fault: cfg.fault.clone(),
        judge,
    }
}

/// A scenario staged on the Figure-1 network and not yet started: `cfg`
/// lowered, [`run::stage`]d, its storm and the gauge sampler scheduled.
/// It holds the configuration it was lowered from, so the report's host
/// and router labels can only ever meet the network they describe.
pub struct Staged<'a> {
    cfg: &'a ScenarioConfig,
    staged: run::Staged,
}

/// Stage 1 of [`run()`]: everything up to, not including, the oracle — so
/// a caller can reach the world before it runs. `tracer` receives the
/// run's trace events: hand in a [`RingBufferTracer`]'s tracer to read
/// them as values after the run (`cfg.trace_capture` is the JSONL export
/// [`run()`] builds this way). A [`StageError::Move`] counts the lowered
/// moves: `cfg.moves` with, after each move of R3, one shadow move per
/// extra receiver.
pub fn stage(cfg: &ScenarioConfig, tracer: Tracer) -> Result<Staged<'_>, StageError> {
    validate(cfg)?;
    let mut staged = run::stage(&lower(cfg, &NetworkSpec::reference()), tracer)?;
    // The report's observability block folds every span the run closed.
    staged.net.recorder.drop_closed_spans(false);
    if cfg.profile {
        staged.net.world.enable_profiling();
    }
    schedule_storm(&mut staged.net, cfg, group());
    schedule_gauge_sampler(&mut staged.net, cfg);
    Ok(Staged { cfg, staged })
}

/// The rules only a scenario has; [`run::stage`] checks the MLD and PIM
/// profiles, the fault plan and every lowered move's host and link.
fn validate(cfg: &ScenarioConfig) -> Result<(), StageError> {
    let invalid = |field, reason| Err(StageError::Invalid { field, reason });
    if cfg.payload_size < 16 {
        let reason = format!("{} smaller than the 16-byte data header", cfg.payload_size);
        return invalid("payload_size", reason);
    }
    if let Some(w) = cfg.moves.windows(2).find(|w| w[1].at_secs < w[0].at_secs) {
        let (after, before) = (w[1].at_secs, w[0].at_secs);
        return invalid(
            "moves",
            format!("not sorted by time: {after:.3}s after {before:.3}s"),
        );
    }
    if let Err(reason) = cfg.budget.validate() {
        return invalid("budget", reason);
    }
    if let Some(floor) = cfg.protected_floor {
        if !(floor > 0.0 && floor <= 1.0) {
            return invalid("protected_floor", format!("must be in (0, 1], got {floor}"));
        }
        if cfg.fault.storm.is_none() {
            let reason = "set but the fault plan has no storm to protect against — \
                          add one or drop the floor";
            return invalid("protected_floor", reason.into());
        }
    }
    Ok(())
}

impl Staged<'_> {
    /// The staged network: add a probe, a fault process, a script event.
    /// (The oracle takes the world's one probe slot when it is attached;
    /// stage with `cfg.oracle` off to keep a probe of your own.)
    pub fn net(&mut self) -> &mut BuiltNetwork {
        &mut self.staged.net
    }

    /// Stages 2 and 3: run, judged when `cfg.oracle`, and assemble the
    /// Figure-1 report.
    pub fn run(self) -> (ScenarioResult, Recorder) {
        finish(self.cfg, run::run(self.staged, &ExecPlan::sequential()))
    }
}

/// The five routers of Figure 1, in `NetworkSpec::reference` order.
const ROUTER_LABELS: [char; 5] = ['A', 'B', 'C', 'D', 'E'];

/// Sim-time interval between observability gauge samples.
const GAUGE_SAMPLE_SECS: u64 = 5;

/// Shared state of the gauge sampler ticks, timeline names built once.
struct SamplerCtx {
    recorder: crate::recorder::SharedRecorder,
    /// Per labelled router: its `mld_listeners`, `pim_sg`, `bindings` and
    /// `bucket_tokens` timelines.
    routers: Vec<(mobicast_net::NodeId, [String; 4])>,
    /// Per link: its `bytes` timeline.
    links: Vec<(mobicast_net::LinkId, String)>,
    end: SimTime,
}

/// Kick off the observability gauge sampler: every [`GAUGE_SAMPLE_SECS`]
/// of sim time a script event snapshots event-queue depth, per-router
/// control-plane table occupancy (MLD listeners, PIM (S,G) entries,
/// binding cache), token-bucket levels, cumulative per-link data bytes
/// and the running overload-shed total into the recorder's timeline.
/// Each tick arms the next one, so only a single sampler event is ever
/// pending (queue-depth readings stay honest). Sampling is read-only
/// with respect to protocol state: the run's protocol trace and metrics
/// are unchanged by it.
fn schedule_gauge_sampler(net: &mut BuiltNetwork, cfg: &ScenarioConfig) {
    let ctx = std::rc::Rc::new(SamplerCtx {
        recorder: net.recorder.clone(),
        routers: ROUTER_LABELS
            .iter()
            .zip(&net.routers)
            .map(|(label, r)| {
                let gauges = ["mld_listeners", "pim_sg", "bindings", "bucket_tokens"];
                (*r, gauges.map(|g| format!("router.{label}.{g}")))
            })
            .collect(),
        links: (net.links.iter().enumerate())
            .map(|(i, l)| (*l, format!("link.{}.bytes", i + 1)))
            .collect(),
        end: SimTime::ZERO + cfg.duration,
    });
    let first = SimTime::from_secs(GAUGE_SAMPLE_SECS);
    if first <= ctx.end {
        arm_sampler_tick(&mut net.world, first, ctx);
    }
}

fn arm_sampler_tick(world: &mut mobicast_net::World, at: SimTime, ctx: std::rc::Rc<SamplerCtx>) {
    world.at(at, move |w| {
        sample_gauges(w, &ctx);
        let next = at + SimDuration::from_secs(GAUGE_SAMPLE_SECS);
        if next <= ctx.end {
            arm_sampler_tick(w, next, ctx);
        }
    });
}

fn sample_gauges(w: &mut mobicast_net::World, ctx: &SamplerCtx) {
    let now = w.now();
    let rec = &ctx.recorder;
    rec.sample_at("world.queue_depth", now, w.queue_len() as f64);
    // The running shed total: what crashed routers retired, plus the rest.
    let mut shed = rec.with(|r| r.counters.sum_prefix("overload."));
    for (r, [mld_name, sg_name, bindings_name, tokens_name]) in &ctx.routers {
        let Some(router) = w.behavior::<RouterNode>(*r) else {
            continue;
        };
        let mld = router.mld_listener_total() as f64;
        let sg = router.pim().entry_count() as f64;
        let bindings = router.home_agent().binding_count() as f64;
        let tokens = router.bucket_available();
        rec.sample_at(mld_name, now, mld);
        rec.sample_at(sg_name, now, sg);
        rec.sample_at(bindings_name, now, bindings);
        if let Some(tk) = tokens {
            rec.sample_at(tokens_name, now, f64::from(tk));
        }
        let overload = ROUTER_TOTALS
            .iter()
            .filter(|row| row.0.starts_with("overload."));
        shed += overload.map(|row| router.mib().get(row.1)).sum::<u64>();
    }
    for (l, name) in &ctx.links {
        let bytes: u64 = w.link_stats(*l).bytes.iter().sum();
        rec.sample_at(name, now, bytes as f64);
    }
    rec.sample_at("overload.shed_total", now, shed as f64);
}

/// Dedicated storm hosts a configuration adds (deterministic in the
/// config alone, so result accounting can exclude them symmetrically).
fn storm_host_count(cfg: &ScenarioConfig) -> usize {
    let storm = &cfg.fault.storm;
    if storm.is_none() || storm.flap_rate == 0.0 {
        0
    } else {
        storm.flap_hosts as usize
    }
}

/// Script `act` on `host`'s applications at `secs`.
fn at_host(
    world: &mut mobicast_net::World,
    secs: f64,
    host: mobicast_net::NodeId,
    act: impl FnOnce(&mut HostNode, &mut Ctx<'_>) + 'static,
) {
    world.at(at_secs(secs), move |w| {
        w.with_node(host, |b, ctx| {
            if let Some(h) = b.as_any_mut().downcast_mut::<HostNode>() {
                act(h, ctx);
            }
        });
    });
}

/// Base of the throwaway group range zapping churns through (distinct
/// from the data group, `GroupAddr::test_group(1)`).
const ZAP_GROUP_BASE: u16 = 100;

/// Schedule the signaling storm described by `cfg.fault.storm`: zapping
/// churn (receivers joining/leaving throwaway groups), Binding Update
/// floods, and subscription flapping by the dedicated storm hosts. All
/// event times come from seeded, labelled RNG streams drawn *now* (before
/// the run starts), so a given seed reproduces the storm exactly and a
/// disabled storm draws nothing at all.
fn schedule_storm(net: &mut BuiltNetwork, cfg: &ScenarioConfig, data_group: GroupAddr) {
    let storm = cfg.fault.storm;
    if storm.is_none() {
        return;
    }
    let rng = RngFactory::new(cfg.seed).subfactory("storm");
    let end = storm.end_secs.min(cfg.duration.as_secs_f64());
    let storm_n = storm_host_count(cfg);
    // Zap and BU targets: every mobile (non-sender) receiver, extras
    // included, but never the storm hosts themselves.
    let receivers: Vec<_> = net.hosts[1..net.hosts.len() - storm_n].to_vec();
    let world = &mut net.world;

    if storm.zap_rate > 0.0 && !receivers.is_empty() {
        let mut zap = rng.stream("zap");
        let mut t = storm.start_secs;
        loop {
            t += sample_exponential(&mut zap, 1.0 / storm.zap_rate);
            if t >= end {
                break;
            }
            let host = receivers[zap.random_range(0..receivers.len())];
            let group = GroupAddr::test_group(
                ZAP_GROUP_BASE + zap.random_range(0..storm.zap_groups) as u16,
            );
            let hold = 1.0 + sample_exponential(&mut zap, 3.0);
            at_host(world, t, host, move |h, ctx| h.app_subscribe(ctx, group));
            let leave = (t + hold).min(end);
            at_host(world, leave, host, move |h, ctx| {
                h.app_unsubscribe(ctx, group)
            });
        }
    }

    if storm.bu_rate > 0.0 && !receivers.is_empty() {
        let mut bu = rng.stream("bu");
        let mut t = storm.start_secs;
        loop {
            t += sample_exponential(&mut bu, 1.0 / storm.bu_rate);
            if t >= end {
                break;
            }
            let host = receivers[bu.random_range(0..receivers.len())];
            at_host(world, t, host, |h, ctx| h.app_rebind(ctx));
        }
    }

    if storm.flap_rate > 0.0 && storm_n > 0 {
        let mut flap = rng.stream("flap");
        let flappers: Vec<_> = net.hosts[net.hosts.len() - storm_n..].to_vec();
        let mut joined = vec![false; flappers.len()];
        let mut t = storm.start_secs;
        loop {
            t += sample_exponential(&mut flap, 1.0 / storm.flap_rate);
            if t >= end {
                break;
            }
            let idx = flap.random_range(0..flappers.len());
            let join = !joined[idx];
            joined[idx] = join;
            at_host(world, t, flappers[idx], move |h, ctx| match join {
                true => h.app_subscribe(ctx, data_group),
                false => h.app_unsubscribe(ctx, data_group),
            });
        }
        // Leave no storm subscription behind: the reconvergence window
        // after `end` must measure recovery, not residual churn.
        for (host, _) in flappers.iter().zip(joined).filter(|(_, joined)| *joined) {
            at_host(world, end, *host, move |h, ctx| {
                h.app_unsubscribe(ctx, data_group)
            });
        }
    }
}

/// Stage 3: the Figure-1 report over what stage 2 left, hosts labelled by
/// their [`roles`] under `cfg`. Also hands back the taken recorder for
/// provenance-based tooling.
fn finish(cfg: &ScenarioConfig, out: RunOutput) -> (ScenarioResult, Recorder) {
    let RunOutput {
        net,
        recorder: mut rec,
        oracle,
        profile,
        ..
    } = out;
    let world = &net.world;
    let mut series = rec.series.clone();
    let analysis = analyze_with_delays(&rec, &net.graph, net.links.len(), |delay| {
        series.record("e2e_delay", delay)
    });

    // Close out the causal timeline at the run horizon (spans still open
    // are flagged `unfinished`) and fold closed durations into the
    // per-phase digests. Everything here is sim-time-derived, so the
    // block is byte-identical across repeated and parallel runs.
    let horizon = SimTime::ZERO + cfg.duration;
    rec.spans.close_open(horizon);
    let observability = crate::observability::finalize_observability(
        rec.spans.clone(),
        rec.timeline.clone(),
        horizon,
    );

    let mut counters = rec.counters.clone();
    counters.merge(world.counters());
    series.record("seed", cfg.seed as f64);

    // Per-node MIB snapshot: a store's camelCase names and the world's.
    let snapshot = |id: NodeId, store: Option<&Counters>| {
        let mut c = world.node_counters(id).clone();
        for (name, n) in store.iter().flat_map(|s| s.iter()) {
            if !name.contains('.') {
                c.add(name, n);
            }
        }
        c
    };
    let mut node_stats = BTreeMap::new();
    let mut received = BTreeMap::new();
    let mut duplicates = BTreeMap::new();
    for (role, id) in roles(cfg).zip(&net.hosts) {
        let Some(h) = world.behavior::<HostNode>(*id) else {
            continue;
        };
        let label = match role {
            Role::Paper(paper) => {
                let name = PaperHost::NAMES[paper as usize];
                received.insert(name, h.received_count());
                duplicates.insert(name, h.duplicate_count());
                let updates = h.mobile().binding_updates_sent();
                counters.add(&format!("host.{name}.binding_updates"), updates);
                format!("host.{name}")
            }
            Role::Extra(i) => {
                counters.add("extra_receivers.received", h.received_count());
                format!("host.extra{i}")
            }
            Role::Storm(i) => format!("host.storm{i}"),
        };
        node_stats.insert(label, snapshot(*id, Some(h.mib())));
    }

    let mut max_router_sg_entries = 0;
    let mut ha_binding_updates = 0;
    let mut ha_packets_tunneled = 0;
    for (label, r) in ROUTER_LABELS.iter().zip(&net.routers) {
        let router = world.behavior::<RouterNode>(*r);
        if let Some(router) = router {
            max_router_sg_entries = max_router_sg_entries.max(router.max_sg_entries);
            ha_binding_updates += router.home_agent().binding_updates_processed;
            ha_packets_tunneled += router.home_agent().packets_tunneled;
        }
        let store = router.map(RouterNode::mib);
        node_stats.insert(format!("router.{label}"), snapshot(*r, store));
    }

    let per_class = |count: fn(&LinkStats, usize) -> u64| -> Vec<BTreeMap<String, u64>> {
        let classes = |stats| {
            FrameClass::ALL
                .iter()
                .map(move |c| (c.name().to_string(), count(stats, c.index())))
        };
        let links = net.links.iter();
        links
            .map(|l| classes(world.link_stats(*l)).collect())
            .collect()
    };
    let link_bytes = per_class(|stats, class| stats.bytes[class]);
    let link_drops = per_class(|stats, class| stats.dropped_frames[class]);

    for d in &analysis.leave_delays {
        series.record("leave_delay", *d);
    }

    // Re-join recovery: for every move of a subscribed receiver, the time
    // until its first post-move data delivery — the end-to-end measure of
    // the soft-state recovery machinery (MLD robustness reports, PIM
    // grafts, binding-update retransmissions). One pass over the
    // deliveries answers every move.
    let rejoins: Vec<_> = rec.moves.iter().filter(|m| m.subscribed).collect();
    let mut first: Vec<Option<SimTime>> = vec![None; rejoins.len()];
    for d in rec.deliveries.iter() {
        for (mv, first) in rejoins.iter().zip(&mut first) {
            if d.host == mv.host && d.time >= mv.time && first.is_none_or(|t| d.time < t) {
                *first = Some(d.time);
            }
        }
    }
    for (mv, first) in rejoins.iter().zip(first) {
        if let Some(t) = first {
            series.record("rejoin_recovery", (t - mv.time).as_secs_f64());
        }
    }

    // Steady-state delivery after fault recovery: once every scheduled
    // fault has cleared (plus a reconvergence margin), each data packet
    // must reach every receiver. Unwindowed (run-long) faults have no
    // recovery point, so no steady-state claim is made for them.
    if !cfg.fault.is_none() {
        if let Some(bound) = cfg.fault.recovery_bound_secs() {
            const RECOVERY_MARGIN_SECS: f64 = 20.0;
            let cutoff = at_secs(bound + RECOVERY_MARGIN_SECS);
            let steady = rec.sent_in(cutoff, SimTime::ZERO + cfg.duration - IN_FLIGHT_TAIL);
            let n_receivers = (PaperHost::ALL.len() - 1 + cfg.extra_receivers) as u64;
            let expected = steady.len() as u64 * n_receivers;
            let observed = rec
                .deliveries
                .iter()
                .filter(|d| d.first && steady.contains_key(&d.pkt))
                .count() as u64;
            counters.add("steady.deliveries_expected", expected);
            counters.add("steady.deliveries_observed", observed);
            if expected > 0 {
                series.record("steady_delivery_ratio", observed as f64 / expected as f64);
            }
        }
    }

    let sent = analysis.packets_sent;
    let result = ScenarioResult {
        report: RunReport {
            analysis,
            counters,
            series,
            link_bytes,
            link_drops,
            oracle,
            node_stats,
            observability,
        },
        received,
        duplicates,
        max_router_sg_entries,
        ha_binding_updates,
        ha_packets_tunneled,
        sent,
        events_executed: world.events_executed(),
        profile,
        trace_jsonl: None,
        trace_dropped: 0,
    };
    (result, rec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobicast_net::{
        CorruptionModel, FaultWindow, LinkFault, LinkFlap, LossModel, RouterCrash, StormModel,
    };

    fn faulty_cfg(policy: Policy, fault: FaultPlan) -> ScenarioConfig {
        ScenarioConfig::builder()
            .duration_secs(150)
            .policy(policy)
            .move_at(30.0, PaperHost::R3, 6)
            .fault(fault)
            .build()
    }

    /// The fault model's acceptance bar: with 10 % i.i.d. loss on every link
    /// during [10 s, 60 s], all four Table-1 approaches recover to >= 99 %
    /// steady-state delivery once the loss window has cleared — the
    /// soft-state machinery (MLD robustness reports, PIM graft retries,
    /// BU retransmission) repairs whatever the loss broke.
    #[test]
    fn windowed_loss_recovers_to_full_steady_state() {
        for policy in Policy::PAPER {
            let plan = FaultPlan {
                link: LinkFault {
                    loss: LossModel::iid(0.10),
                    jitter: SimDuration::ZERO,
                    corruption: CorruptionModel::none(),
                },
                window: Some(FaultWindow {
                    start_secs: 10.0,
                    end_secs: 60.0,
                }),
                ..FaultPlan::default()
            };
            let r = run(&faulty_cfg(policy, plan));
            let ratio = r.report.mean("steady_delivery_ratio");
            assert!(
                ratio >= 0.99,
                "{}: steady-state delivery {ratio} < 0.99",
                policy.name()
            );
            // The loss window must actually have destroyed traffic.
            assert!(
                r.report.counters.get("faults.frames_dropped_loss") > 50,
                "{}: loss injection inactive",
                policy.name()
            );
            // The invariant oracle watched the whole run and found nothing.
            assert!(r.report.oracle.enabled);
            assert!(
                r.report.oracle.violations.is_empty(),
                "{}: oracle violations {:?}",
                policy.name(),
                r.report.oracle.violations
            );
        }
    }

    /// Drop-first-transmission test for PIM-DM Graft: Link 5 (between D
    /// and E) is down when R3 arrives on Link 6, so router E's first Graft
    /// toward D is destroyed. The graft-retry timer (3 s) must retransmit
    /// it once the link is back, and forwarding to R3 must resume.
    #[test]
    fn graft_drop_first_retransmission_resumes_forwarding() {
        let plan = FaultPlan {
            flaps: vec![LinkFlap {
                link: 4, // 0-based: the paper's Link 5
                down_at_secs: 29.5,
                up_at_secs: 32.5,
            }],
            ..FaultPlan::default()
        };
        let r = run(&faulty_cfg(Policy::LOCAL, plan));
        // The first graft (and anything else on Link 5 in the window) died.
        assert!(r.report.counters.get("faults.frames_dropped_link_down") > 0);
        // Forwarding resumed: R3 keeps receiving after the move.
        assert!(r.received["R3"] > 100, "R3 got {}", r.received["R3"]);
        // Recovery took at least one graft-retry period (the retry fired
        // after the link came back), but not a flood/prune epoch.
        let rejoin = r.report.mean("rejoin_recovery");
        assert!(
            (2.5..20.0).contains(&rejoin),
            "rejoin recovery {rejoin}s not in graft-retry range"
        );
        assert_eq!(r.report.counters.get("steady.deliveries_observed"), {
            r.report.counters.get("steady.deliveries_expected")
        });
    }

    /// Drop-first-transmission test for the Binding Update: R3 moves to
    /// Link 6 while Link 5 (its only path to the home agent D) is down, so
    /// the first BU is destroyed in transit. The 1 s-backoff retransmission
    /// must establish the binding once the link returns, after which the
    /// home agent tunnels the stream to R3 (bi-directional strategy).
    #[test]
    fn bu_drop_first_retransmission_restores_tunnel_delivery() {
        let plan = FaultPlan {
            flaps: vec![LinkFlap {
                link: 4,
                down_at_secs: 29.5,
                up_at_secs: 32.5,
            }],
            ..FaultPlan::default()
        };
        let r = run(&faulty_cfg(Policy::BIDIRECTIONAL_TUNNEL, plan));
        assert!(r.report.counters.get("faults.frames_dropped_link_down") > 0);
        // The BU was retransmitted at least once before getting through.
        assert!(
            r.report.counters.get("host.R3.binding_updates") >= 2,
            "no BU retransmission recorded"
        );
        // The binding was eventually accepted and the tunnel works.
        assert!(r.ha_binding_updates >= 1);
        assert!(r.ha_packets_tunneled > 0);
        assert!(r.received["R3"] > 100, "R3 got {}", r.received["R3"]);
        assert_eq!(
            r.report.counters.get("steady.deliveries_observed"),
            r.report.counters.get("steady.deliveries_expected")
        );
    }

    /// Router D crashes with full protocol-state loss and restarts blank.
    /// Its MLD querier and PIM machinery must rebuild membership and tree
    /// state from the wire alone, restoring delivery to the hosts behind it.
    #[test]
    fn router_crash_restart_rebuilds_soft_state() {
        let plan = FaultPlan {
            crashes: vec![RouterCrash {
                router: 3, // D: serves R3's home link (Link 4)
                crash_at_secs: 40.0,
                restart_at_secs: 50.0,
            }],
            ..FaultPlan::default()
        };
        let cfg = ScenarioConfig::builder()
            .duration_secs(150)
            .fault(plan)
            .build();
        let r = run(&cfg);
        assert_eq!(r.report.counters.get("faults.node_crashes"), 1);
        assert_eq!(r.report.counters.get("faults.node_restarts"), 1);
        // Data kept arriving at the dead router and died there.
        assert!(r.report.counters.get("faults.frames_dropped_node_crashed") > 0);
        // After restart + margin every packet reaches every receiver again.
        assert_eq!(
            r.report.counters.get("steady.deliveries_observed"),
            r.report.counters.get("steady.deliveries_expected")
        );
        assert!(r.report.counters.get("steady.deliveries_expected") > 0);
        assert!(
            r.report.oracle.violations.is_empty(),
            "oracle violations {:?}",
            r.report.oracle.violations
        );
    }

    /// Drop-first-transmission test for the unsolicited MLD Report: R3's
    /// arrival link (the paper's Link 6) is down when it gets there, so
    /// the Report it sends on arrival is destroyed. RFC 2710's robustness
    /// retransmission (a second unsolicited Report one Unsolicited Report
    /// Interval, 10 s, later) must re-establish membership — far sooner
    /// than the 125 s general-Query interval would.
    #[test]
    fn mld_report_drop_first_retransmission_rejoins() {
        let plan = FaultPlan {
            flaps: vec![LinkFlap {
                link: 5, // 0-based: the paper's Link 6, R3's arrival link
                down_at_secs: 29.5,
                up_at_secs: 31.5,
            }],
            ..FaultPlan::default()
        };
        let r = run(&faulty_cfg(Policy::LOCAL, plan));
        // The arrival-time Report (and the window's data) died on the
        // downed link.
        assert!(r.report.counters.get("faults.frames_dropped_link_down") > 0);
        // Membership came back via the retransmitted Report: recovery sits
        // in the unsolicited-retransmission range, nowhere near the 125 s
        // Query interval fallback.
        let rejoin = r.report.mean("rejoin_recovery");
        assert!(
            (5.0..30.0).contains(&rejoin),
            "rejoin recovery {rejoin}s not in unsolicited-report range"
        );
        assert!(r.received["R3"] > 100, "R3 got {}", r.received["R3"]);
        assert_eq!(
            r.report.counters.get("steady.deliveries_observed"),
            r.report.counters.get("steady.deliveries_expected")
        );
        assert!(
            r.report.oracle.violations.is_empty(),
            "oracle violations {:?}",
            r.report.oracle.violations
        );
    }

    /// Router crash in the middle of an active PIM-DM assert: routers B
    /// and C sit in parallel between Links 2 and 3, so the initial flood
    /// triggers an assert that C (higher address) wins. Crashing the
    /// assert *loser* B and restarting it blank makes it reflood onto the
    /// shared link — duplicating datagrams until the re-run assert elects
    /// C again. The oracle checks the duplicates are transient and the
    /// steady state returns to exactly-once delivery.
    #[test]
    fn crash_during_assert_reelects_winner_without_persistent_duplicates() {
        let crashed = ScenarioConfig::builder()
            .duration_secs(150)
            .fault(FaultPlan {
                crashes: vec![RouterCrash {
                    router: 1, // B: the assert loser on the shared link
                    crash_at_secs: 40.0,
                    restart_at_secs: 50.0,
                }],
                ..FaultPlan::default()
            })
            .build();
        let baseline = ScenarioConfig::builder().duration_secs(150).build();
        let rc = run(&crashed);
        let rb = run(&baseline);
        assert_eq!(rc.report.counters.get("faults.node_crashes"), 1);
        assert_eq!(rc.report.counters.get("faults.node_restarts"), 1);
        // The restart re-ran the assert election (extra Assert messages
        // beyond the baseline's initial exchange) ...
        assert!(
            rc.report.counters.get("pim.sent.assert") > rb.report.counters.get("pim.sent.assert"),
            "no assert re-election after restart"
        );
        // ... and the blank router's reflood duplicated datagrams on the
        // shared link until the election resolved.
        assert!(
            rc.report.oracle.duplicates_observed > rb.report.oracle.duplicates_observed,
            "restart reflood produced no duplicates ({} vs baseline {})",
            rc.report.oracle.duplicates_observed,
            rb.report.oracle.duplicates_observed
        );
        // Duplicates were transient: once the assert settled, delivery is
        // exactly-once again and the oracle saw no persistent duplication,
        // loops, or stale state.
        assert_eq!(
            rc.report.counters.get("steady.deliveries_observed"),
            rc.report.counters.get("steady.deliveries_expected")
        );
        assert!(rc.report.counters.get("steady.deliveries_expected") > 0);
        for r in [&rc, &rb] {
            assert!(
                r.report.oracle.violations.is_empty(),
                "oracle violations {:?}",
                r.report.oracle.violations
            );
        }
    }

    /// Same seed, same faults: the entire report (drop counts, delivery
    /// series, per-link accounting) must be bit-identical across runs, and
    /// a different seed must produce a different loss realization.
    #[test]
    fn faulty_runs_are_deterministic_in_seed() {
        let mk = |seed: u64| {
            ScenarioConfig::builder()
                .seed(seed)
                .duration_secs(80)
                .fault(FaultPlan::iid_loss(0.15))
                .move_at(30.0, PaperHost::R3, 6)
                .build()
        };
        let a = run(&mk(7));
        let b = run(&mk(7));
        let c = run(&mk(8));
        let ja = serde_json::to_value(&a.report);
        let jb = serde_json::to_value(&b.report);
        assert_eq!(ja, jb, "same seed must reproduce the identical report");
        assert_eq!(a.received, b.received);
        assert_ne!(
            a.report.counters.get("faults.frames_dropped_loss"),
            c.report.counters.get("faults.frames_dropped_loss"),
            "different seed should realize a different loss sequence"
        );
    }

    /// Telemetry: the per-node MIB snapshot must agree with the run's and
    /// the world's totals, the JSONL trace export must be schema-valid,
    /// and the wall-clock profile must cover every executed event.
    #[test]
    fn node_stats_trace_and_profile_are_consistent() {
        let mut cfg = ScenarioConfig::builder()
            .duration_secs(80)
            .policy(Policy::BIDIRECTIONAL_TUNNEL)
            .move_at(30.0, PaperHost::R3, 6)
            .fault(FaultPlan::iid_loss(0.05))
            .trace_capture(200_000)
            .build();
        cfg.profile = true;
        let r = run(&cfg);

        // MIB counters vs the run's and the world's totals.
        let sum = |name: &str| {
            r.report
                .node_stats
                .values()
                .map(|c| c.get(name))
                .sum::<u64>()
        };
        assert_eq!(sum("dataSent"), r.report.counters.get("host.data_sent"));
        assert_eq!(
            sum("buSent"),
            r.report.counters.get("host.binding_updates_sent")
        );
        assert_eq!(
            sum("haBindingUpdatesRx"),
            r.report.counters.get("ha.binding_updates_rx")
        );
        assert_eq!(
            sum("haBindingAcksSent"),
            r.report.counters.get("ha.binding_acks_sent")
        );
        assert_eq!(
            sum("framesDroppedByFault"),
            r.report.counters.get("faults.frames_dropped_loss")
                + r.report.counters.get("faults.frames_dropped_link_down")
                + r.report.counters.get("faults.frames_dropped_node_crashed")
        );
        assert!(sum("framesDroppedByFault") > 0, "loss plan was inactive");
        assert!(sum("mldInReports") > 0);
        assert!(sum("pimHellosSent") > 0);
        assert_eq!(r.report.node_stats.len(), 5 + 4, "5 routers + 4 hosts");

        // Trace export: header plus schema-valid typed events.
        let jsonl = r.trace_jsonl.as_ref().expect("trace capture enabled");
        let mut lines = 0;
        for line in jsonl.lines() {
            mobicast_sim::trace::validate_jsonl_line(line)
                .unwrap_or_else(|e| panic!("invalid trace line: {e}\n{line}"));
            lines += 1;
        }
        assert!(lines > 100, "only {lines} trace lines");
        assert!(
            jsonl.contains("\"kind\":\"bu_rx\"") && jsonl.contains("\"kind\":\"tunnel_encap\""),
            "typed MIPv6 events missing from trace"
        );

        // Profile covers the whole run and is kept out of the report.
        let profile = r.profile.expect("profiling enabled");
        assert_eq!(profile.events_executed, r.events_executed);
        assert!(r.events_executed > 0);
        assert!(profile.queue_depth_high_water > 0);
        let json = serde_json::to_value(&r.report);
        assert!(
            json.get("profile").is_none(),
            "wall-clock data must not enter the deterministic report"
        );
    }

    /// Unwindowed loss: delivery degrades but the run completes, drops are
    /// accounted per class, and no steady-state claim is made.
    #[test]
    fn run_long_loss_degrades_delivery_and_accounts_drops() {
        let cfg = ScenarioConfig::builder()
            .duration_secs(80)
            .fault(FaultPlan::iid_loss(0.2))
            .build();
        let r = run(&cfg);
        let total_drops: u64 = (1..=6)
            .map(|n| {
                FrameClass::ALL
                    .iter()
                    .map(|c| r.report.link_drops[n - 1][c.name()])
                    .sum::<u64>()
            })
            .sum();
        assert!(total_drops > 0);
        assert!(
            r.report.class_drops("mcast_data") > 0,
            "data frames dropped"
        );
        assert_eq!(
            r.report.counters.get("steady.deliveries_expected"),
            0,
            "no steady-state claim without a recovery point"
        );
        // Delivery suffers visibly at 20% per-link loss but is not zero.
        let delivered = r.received["R1"] + r.received["R2"] + r.received["R3"];
        assert!(delivered > 0);
        assert!(
            (delivered as f64) < 3.0 * 0.98 * r.sent as f64,
            "loss had no visible effect"
        );
    }

    /// The scenario's validation contract: [`stage`] rejects every
    /// inconsistent knob combination as a typed error naming the field,
    /// with a descriptive reason, and the defaults stage cleanly.
    #[test]
    fn stage_rejects_inconsistent_knobs() {
        let rejected = |cfg: ScenarioConfig| match stage(&cfg, Tracer::null()).err() {
            Some(StageError::Invalid { field, reason }) => (field, reason),
            other => panic!("{other:?}"),
        };
        let storm = StormModel {
            zap_rate: 1.0,
            zap_groups: 2,
            start_secs: 10.0,
            end_secs: 20.0,
            ..StormModel::none()
        };
        let b = ScenarioConfig::builder;
        let stormy = || {
            b().fault(FaultPlan {
                storm,
                ..FaultPlan::default()
            })
        };
        let no_queue = ResourceBudget {
            event_queue_depth: Some(0),
            ..ResourceBudget::default()
        };
        let unsorted = b()
            .move_at(40.0, PaperHost::R3, 6)
            .move_at(30.0, PaperHost::R2, 3);
        let cases = [
            (b().payload_size(8), "payload_size", "16-byte"),
            (unsorted, "moves", "sorted"),
            (b().budget(no_queue), "budget", "event_queue_depth"),
            (stormy().protected_floor(0.0), "protected_floor", "(0, 1]"),
            (stormy().protected_floor(1.5), "protected_floor", "(0, 1]"),
            (b().protected_floor(0.9), "protected_floor", "no storm"),
        ];
        for (builder, field, says) in cases {
            let (got, reason) = rejected(builder.build());
            assert_eq!(got, field, "{reason}");
            assert!(reason.contains(says), "{field}: {reason}");
        }

        assert!(stage(&b().build(), Tracer::null()).is_ok());
        let floored = stormy().protected_floor(1.0).build();
        assert!(stage(&floored, Tracer::null()).is_ok());
    }

    /// A configuration is plain data: sweeps may hand it to any thread.
    const _: fn() = || {
        fn ok<T: Send + Sync>() {}
        ok::<ScenarioConfig>();
    };

    /// Generated names thread through as owned strings; static labels stay
    /// borrowed — both land in the config verbatim.
    #[test]
    fn names_may_be_borrowed_or_generated() {
        let cfg = ScenarioConfig::builder().name("static-label").build();
        assert_eq!(cfg.name, "static-label");
        let seed = 42;
        let cfg = ScenarioConfig::builder()
            .name(format!("stress-seed{seed}"))
            .build();
        assert_eq!(cfg.name, "stress-seed42");
    }
}
