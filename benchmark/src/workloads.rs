//! The five workloads: input generation from a seed, and one repetition of
//! a workload driven through the library's public functions with a span
//! around each call (the child-process side of the benchmark).

use crate::alloc;
use crate::spans::{Span, SpanLog};
use crate::tally::Tally;
use mobicast_core::builder::{apply_fault_plan, build, BuiltNetwork, HostSpec, NetworkSpec};
use mobicast_core::oracle::FinalizeParams;
use mobicast_core::scenario::{self, group, PaperHost, ScenarioConfig};
use mobicast_core::stress::{run_stress_with, StressReport, StressRunOptions, StressSpec};
use mobicast_core::{
    chaos, scale, HostConfig, Oracle, Policy, RouterConfig, RouterNode, SenderApp,
};
use mobicast_mld::MldConfig;
use mobicast_net::ExecutorConfig;
use mobicast_sim::{RingBufferTracer, RngFactory, SimDuration, SimProfile, SimTime, Tracer};
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// `--seed` is folded into this many input sets. Every one of them was run
/// on the commit that defined the benchmark and is free of oracle
/// violations, so no operation fails on an unchanged simulator.
pub const SEED_POOL: u64 = 64;

/// Ring-buffer capacity of the trace-capture pass (as `exp_profile`).
const TRACE_CAPACITY: usize = 1_000_000;

/// Extra world constructions timed per child, after the repetition: keep
/// going until this many seconds have been spent on them, but make at
/// least `MIN` and at most `MAX`, so that a 2 ms build and a 50 ms build
/// both end up with a median that rests on enough samples.
const EXTRA_SETUP_SECS: f64 = 0.25;
const EXTRA_SETUPS_MIN: usize = 4;
const EXTRA_SETUPS_MAX: usize = 64;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    PaperSweep,
    ChaosCampaign,
    MetroFlood,
    MetroSharded,
    RoamTunnel,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::PaperSweep,
        Workload::ChaosCampaign,
        Workload::MetroFlood,
        Workload::MetroSharded,
        Workload::RoamTunnel,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper_sweep",
            Workload::ChaosCampaign => "chaos_campaign",
            Workload::MetroFlood => "metro_flood",
            Workload::MetroSharded => "metro_sharded",
            Workload::RoamTunnel => "roam_tunnel",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Executor plan recorded in the manifest.
    pub fn executor_plan(self) -> &'static str {
        match self {
            Workload::MetroSharded => "sharded(8).threads(1)",
            _ => "sequential",
        }
    }
}

/// What the program under test is handed: nothing but generated configs.
pub enum Input {
    /// Reference-network scenario runs, back to back.
    Sweep(Vec<ScenarioConfig>),
    /// One large-topology run.
    Stress(StressSpec, ExecutorConfig),
}

impl Input {
    /// Operations (scenario runs) in one repetition.
    pub fn operations(&self) -> u64 {
        match self {
            Input::Sweep(cfgs) => cfgs.len() as u64,
            Input::Stress(..) => 1,
        }
    }

    /// Mean interfaces per link, which sizes the frame-copy kernels.
    pub fn members_per_link(&self) -> usize {
        let (topology, hosts) = match self {
            Input::Sweep(_) => (NetworkSpec::reference(), PaperHost::ALL.len()),
            Input::Stress(spec, _) => (spec.topology.clone(), spec.receivers + 1),
        };
        let ifaces: usize = topology.routers.iter().map(Vec::len).sum::<usize>() + hosts;
        (ifaces as f64 / topology.n_links as f64).round().max(2.0) as usize
    }
}

/// Generate a workload's inputs. `smoke` shrinks them to about 1/20.
pub fn generate(w: Workload, seed: u64, smoke: bool) -> Input {
    let seed = seed % SEED_POOL;
    match w {
        Workload::PaperSweep => {
            let per_policy = if smoke { 2 } else { 40 };
            let mut cfgs = Vec::new();
            for policy in Policy::active() {
                for i in 0..per_policy {
                    cfgs.push(
                        ScenarioConfig::builder()
                            .name(format!("paper/{}/{i}", policy.id()))
                            .seed(seed * 40 + i)
                            .duration_secs(300)
                            .policy(policy)
                            .move_at(60.0, PaperHost::R3, 6)
                            .move_at(150.0, PaperHost::S, 6)
                            .build(),
                    );
                }
            }
            Input::Sweep(cfgs)
        }
        Workload::ChaosCampaign => {
            let seeds = if smoke { 3 } else { 48 };
            let mut cfgs = Vec::new();
            for s in seed..seed + seeds {
                let plan = chaos::plan_for_seed(s);
                for policy in Policy::active() {
                    cfgs.push(plan.config(policy, s));
                }
            }
            Input::Sweep(cfgs)
        }
        Workload::MetroFlood | Workload::MetroSharded => {
            let spec = if smoke {
                scale::metro_spec(60, 40, seed)
            } else {
                scale::metro_spec(1_000, 400, seed)
            };
            let executor = if w == Workload::MetroSharded {
                ExecutorConfig::sharded(8).threads(1)
            } else {
                ExecutorConfig::sequential()
            };
            Input::Stress(spec, executor)
        }
        Workload::RoamTunnel => {
            let (side, hosts, moves, secs) = if smoke {
                (4, 24, 2, 150)
            } else {
                (10, 200, 6, 300)
            };
            Input::Stress(
                StressSpec {
                    name: format!("roam{side}x{side}/bidir/seed{seed}"),
                    topology: NetworkSpec::grid(side, side),
                    policy: Policy::BIDIRECTIONAL_TUNNEL,
                    seed,
                    duration: SimDuration::from_secs(secs),
                    receivers: hosts,
                    movers: hosts,
                    moves_per_mover: moves,
                    data_interval: SimDuration::from_millis(250),
                },
                ExecutorConfig::sequential(),
            )
        }
    }
}

/// Which public switch a repetition flips; every pass but `Plain` and
/// `Traced` exists only to be differenced against `Plain`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Pass {
    /// End-to-end measurement: nothing extra on.
    Plain,
    /// Allocation counting on, exact counts collected, harness checked
    /// against the library's own entry point.
    Traced,
    /// Oracle not attached.
    NoOracle,
    /// `World::enable_profiling` / `ScenarioConfig::profile`.
    Profiled,
    /// A 1 000 000-event ring-buffer tracer installed.
    TraceCapture,
}

impl Pass {
    pub const ALL: [Pass; 5] = [
        Pass::Plain,
        Pass::Traced,
        Pass::NoOracle,
        Pass::Profiled,
        Pass::TraceCapture,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Pass::Plain => "plain",
            Pass::Traced => "traced",
            Pass::NoOracle => "nooracle",
            Pass::Profiled => "profiled",
            Pass::TraceCapture => "tracecapture",
        }
    }

    pub fn parse(name: &str) -> Option<Pass> {
        Pass::ALL.into_iter().find(|p| p.name() == name)
    }
}

/// 64-bit FNV-1a over the serialized reports: cheap, dependency-free, and
/// any changed byte of any report changes it.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn update(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Exact counts read through public accessors after a run.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Counts {
    pub bytes_tx: u64,
    pub frames_dropped: u64,
    pub frames_corrupted: u64,
    pub rec_packets: u64,
    pub rec_data_events: u64,
    pub rec_deliveries: u64,
    pub router_polls: u64,
    pub sg_entries_walked: u64,
    pub sg_high_water: u64,
    pub listeners_high_water: u64,
    pub binding_high_water: u64,
}

/// Sum of the `SimProfile`s of a profiled pass.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ProfileSum {
    pub events_scheduled: u64,
    pub depth_high_water: u64,
    /// `(events, total ns)` per handler category.
    pub deliver: (u64, u64),
    pub timer: (u64, u64),
    pub script: (u64, u64),
}

impl ProfileSum {
    fn add(&mut self, p: &SimProfile) {
        self.events_scheduled += p.events_scheduled;
        self.depth_high_water = self.depth_high_water.max(p.queue_depth_high_water);
        for (name, slot) in [
            ("deliver", &mut self.deliver),
            ("timer", &mut self.timer),
            ("script", &mut self.script),
        ] {
            if let Some(h) = p.handlers.get(name) {
                slot.0 += h.count;
                slot.1 += h.total_ns;
            }
        }
    }
}

/// Everything one repetition (one child process) reports to the parent.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RepOutput {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// One sample per world construction (or batch of them, for sweeps).
    pub setup_s: Vec<f64>,
    pub peak_rss_kb: u64,
    pub tally: Tally,
    pub events_executed: u64,
    pub digest: String,
    pub spans: Vec<Span>,
    /// Host milliseconds of each `scenario::run` (sweeps) or of the run.
    pub run_ms: Vec<f64>,
    pub counts: Counts,
    pub profile: ProfileSum,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

/// User + system CPU seconds of this process, from `/proc/self/stat`
/// (fields 14 and 15, in clock ticks; Linux fixes `USER_HZ` at 100).
fn cpu_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields resume after ')'.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let ticks = |s: Option<&str>| s.and_then(|x| x.parse::<u64>().ok()).unwrap_or(0);
    let utime = ticks(fields.next());
    let stime = ticks(fields.next());
    (utime + stime) as f64 / 100.0
}

/// Peak resident set of this process so far (`VmHWM`, kB).
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<u64>()
                    .ok()
            })
        })
        .unwrap_or(0)
}

/// Run one repetition of `w` and report it. The timed part is everything a
/// user waits for: build, run, finalize and serializing the report.
pub fn run_rep(w: Workload, seed: u64, smoke: bool, pass: Pass) -> RepOutput {
    let input = generate(w, seed, smoke);
    let mut out = RepOutput::default();
    let mut log = SpanLog::new();
    if pass == Pass::Traced {
        alloc::start();
    }
    let cpu0 = cpu_secs();
    let t0 = Instant::now();
    match &input {
        Input::Sweep(cfgs) => run_sweep(cfgs, pass, &mut log, &mut out),
        Input::Stress(spec, executor) => {
            let t_run = Instant::now();
            out.tally.attempted += 1;
            let setup = catch_unwind(AssertUnwindSafe(|| {
                run_stress_mirrored(spec, executor, pass, &mut log, &mut out)
            }));
            match setup {
                Ok(setup_s) => out.setup_s.push(setup_s),
                Err(_) => out.tally.fail(1, format!("{}: panicked", spec.name)),
            }
            out.run_ms.push(t_run.elapsed().as_secs_f64() * 1e3);
        }
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    out.cpu_s = cpu_secs() - cpu0;
    if pass == Pass::Traced {
        (out.allocs, out.alloc_bytes) = alloc::stop();
    }
    out.peak_rss_kb = peak_rss_kb();

    // Outside the timed repetition: extra world constructions so the
    // set-up median rests on several samples, and in the traced pass the
    // check that this harness still mirrors the library's entry points.
    let t_extra = Instant::now();
    for i in 0..EXTRA_SETUPS_MAX {
        if i >= EXTRA_SETUPS_MIN && t_extra.elapsed().as_secs_f64() >= EXTRA_SETUP_SECS {
            break;
        }
        let secs = log.scope("setup.core.builder.build", |log| match &input {
            Input::Sweep(cfgs) => sweep_setup(cfgs),
            Input::Stress(spec, _) => {
                let t = Instant::now();
                drop(stress_setup(spec, Tracer::null(), true, log));
                t.elapsed().as_secs_f64()
            }
        });
        out.setup_s.push(secs);
    }
    if pass == Pass::Traced {
        match &input {
            Input::Sweep(cfgs) if w == Workload::ChaosCampaign => {
                check_chaos_mirror(seed % SEED_POOL, cfgs, &mut out);
            }
            Input::Sweep(_) => {}
            Input::Stress(spec, executor) => check_stress_mirror(spec, executor, &mut out),
        }
    }
    out.spans = log.spans().to_vec();
    out
}

/// The variant of `cfg` a differencing pass runs.
fn for_pass(cfg: &ScenarioConfig, pass: Pass) -> ScenarioConfig {
    let mut cfg = cfg.clone();
    match pass {
        Pass::Plain | Pass::Traced => {}
        Pass::NoOracle => cfg.oracle = false,
        Pass::Profiled => cfg.profile = true,
        Pass::TraceCapture => cfg.trace_capture = Some(TRACE_CAPACITY),
    }
    cfg
}

fn run_sweep(cfgs: &[ScenarioConfig], pass: Pass, log: &mut SpanLog, out: &mut RepOutput) {
    let mut digest = Digest::new();
    for cfg in cfgs {
        let cfg = for_pass(cfg, pass);
        out.tally.attempted += 1;
        let t = Instant::now();
        let run = log.scope("core.scenario.run", |_| {
            catch_unwind(AssertUnwindSafe(|| scenario::run_with_recorder(&cfg)))
        });
        out.run_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let Ok((result, rec)) = run else {
            out.tally.fail(1, format!("{}: panicked", cfg.name));
            continue;
        };
        let report = &result.report;
        if report.oracle.violation_count > 0 {
            out.tally
                .fail(1, format!("{}: {:?}", cfg.name, report.oracle.violations));
        }
        out.events_executed += result.events_executed;
        log.scope("report.digest", |_| {
            let text = serde_json::to_string(report).unwrap_or_default();
            digest.update(text.as_bytes());
            digest.update(&result.events_executed.to_le_bytes());
        });
        if let Some(p) = &result.profile {
            out.profile.add(p);
        }
        let c = &mut out.counts;
        c.bytes_tx += report
            .link_bytes
            .iter()
            .flat_map(|m| m.values())
            .sum::<u64>();
        c.frames_dropped += report
            .link_drops
            .iter()
            .flat_map(|m| m.values())
            .sum::<u64>();
        c.frames_corrupted += report.counters.get("faults.frames_corrupted");
        c.rec_packets += rec.packets.len() as u64;
        c.rec_data_events += rec.data_events.len() as u64;
        c.rec_deliveries += rec.deliveries.len() as u64;
        for stats in report.node_stats.values() {
            c.sg_high_water = c.sg_high_water.max(stats.get("pimSgHighWater"));
            c.listeners_high_water = c
                .listeners_high_water
                .max(stats.get("mldListenersHighWater"));
            c.binding_high_water = c.binding_high_water.max(stats.get("bindingCacheHighWater"));
        }
    }
    out.digest = digest.hex();
}

/// The paper's four hosts as `scenario::run` places them.
fn paper_hosts(cfg: &ScenarioConfig) -> Vec<HostSpec> {
    let host_cfg = HostConfig {
        policy: cfg.policy,
        unsolicited_reports: cfg.unsolicited_reports,
        mld: cfg.mld,
    };
    PaperHost::ALL
        .iter()
        .map(|h| HostSpec {
            home_link: h.home_link_index(),
            cfg: host_cfg,
            sender: (*h == PaperHost::S).then_some(SenderApp {
                group: group(),
                interval: cfg.data_interval,
                payload_size: cfg.payload_size,
                start: cfg.traffic_start,
                stop: SimTime::ZERO + cfg.duration,
            }),
            receiver_group: (*h != PaperHost::S).then_some(group()),
        })
        .collect()
}

/// `scenario::run` builds its world internally, so a sweep's set-up is
/// timed standalone: one reference network, with its fault plan applied,
/// per scenario of the sweep. Returns the seconds for the whole batch.
fn sweep_setup(cfgs: &[ScenarioConfig]) -> f64 {
    let spec = NetworkSpec::reference();
    let t = Instant::now();
    for cfg in cfgs {
        let router_cfg = RouterConfig {
            mld: cfg.mld,
            pim: cfg.pim,
            budget: cfg.budget,
            ..RouterConfig::default()
        };
        let mut net = build(
            &spec,
            &paper_hosts(cfg),
            router_cfg,
            cfg.seed,
            Tracer::null(),
        );
        apply_fault_plan(&mut net, &spec, router_cfg, &cfg.fault, cfg.seed);
        std::hint::black_box(&net.world);
    }
    t.elapsed().as_secs_f64()
}

// The stress layer's scripting constants (`core::stress` keeps them
// private); `check_stress_mirror` fails the run if they ever drift.
const TRAFFIC_START_SECS: u64 = 5;
const FIRST_MOVE_SECS: u64 = 20;
const MOVE_QUIET_TAIL_SECS: u64 = 60;
const SETTLE_MARGIN_SECS: u64 = 30;

fn receiver_home(spec: &StressSpec, i: usize) -> usize {
    1 + (i * 7919) % (spec.topology.n_links - 1)
}

struct StressSetup {
    net: BuiltNetwork,
    oracle: Option<std::rc::Rc<Oracle>>,
    moves: usize,
    last_move_secs: u64,
}

/// `build` → script the moves → `Oracle::attach`: what `setup_s` times.
fn stress_setup(spec: &StressSpec, tracer: Tracer, oracle: bool, log: &mut SpanLog) -> StressSetup {
    use rand::Rng;
    let g = group();
    let end = SimTime::ZERO + spec.duration;
    let dur_secs = spec.duration.as_secs_f64() as u64;
    let host_cfg = HostConfig {
        policy: spec.policy,
        unsolicited_reports: true,
        mld: MldConfig::default(),
    };
    let mut hosts = vec![HostSpec {
        home_link: 0,
        cfg: host_cfg,
        sender: Some(SenderApp {
            group: g,
            interval: spec.data_interval,
            payload_size: 256,
            start: SimTime::from_secs(TRAFFIC_START_SECS),
            stop: end,
        }),
        receiver_group: None,
    }];
    for i in 0..spec.receivers {
        hosts.push(HostSpec {
            home_link: receiver_home(spec, i),
            cfg: host_cfg,
            sender: None,
            receiver_group: Some(g),
        });
    }
    let mut net = log.scope("core.builder.build", |_| {
        build(
            &spec.topology,
            &hosts,
            RouterConfig::default(),
            spec.seed,
            tracer,
        )
    });

    let mut last_move_secs = 0u64;
    let mut moves = 0usize;
    log.scope("core.stress.script", |_| {
        let move_rng = RngFactory::new(spec.seed).subfactory("stress.moves");
        let window = FIRST_MOVE_SECS..(dur_secs - MOVE_QUIET_TAIL_SECS);
        for m in 0..spec.movers {
            let mut rng = move_rng.indexed_stream("mover", m as u64);
            let mut times: Vec<u64> = (0..spec.moves_per_mover)
                .map(|_| rng.random_range(window.clone()))
                .collect();
            times.sort_unstable();
            let host = net.hosts[1 + m];
            let mut current = receiver_home(spec, m);
            for at_secs in times {
                let mut to = rng.random_range(0..spec.topology.n_links);
                if to == current {
                    to = (to + 1) % spec.topology.n_links;
                }
                current = to;
                let link = net.links[to];
                net.world.at(SimTime::from_secs(at_secs), move |w| {
                    w.move_iface(host, 0, link);
                });
                last_move_secs = last_move_secs.max(at_secs);
                moves += 1;
            }
        }
    });
    let oracle = oracle.then(|| {
        log.scope("core.oracle.attach", |_| {
            Oracle::attach(&mut net.world, net.routers.clone(), end)
        })
    });
    StressSetup {
        net,
        oracle,
        moves,
        last_move_secs,
    }
}

/// The same public calls as `core::stress::run_stress_with`, with a span
/// around each. Returns the seconds spent constructing the world.
fn run_stress_mirrored(
    spec: &StressSpec,
    executor: &ExecutorConfig,
    pass: Pass,
    log: &mut SpanLog,
    out: &mut RepOutput,
) -> f64 {
    let end = SimTime::ZERO + spec.duration;
    let mut ring: Option<RingBufferTracer> = None;
    let tracer = if pass == Pass::TraceCapture {
        let (t, r) = RingBufferTracer::new(TRACE_CAPACITY);
        ring = Some(r);
        t
    } else {
        Tracer::null()
    };
    let t_setup = Instant::now();
    let StressSetup {
        mut net,
        oracle,
        moves,
        last_move_secs,
    } = stress_setup(spec, tracer, pass != Pass::NoOracle, log);
    let setup_s = t_setup.elapsed().as_secs_f64();

    if pass == Pass::Profiled {
        net.world.enable_profiling();
    }
    let plan = match executor.plan(|shards| net.shard_plan(shards)) {
        Ok(plan) => plan,
        Err(e) => {
            out.tally.fail(1, format!("{}: {e}", spec.name));
            return setup_s;
        }
    };
    log.scope("net.world.run", |_| net.world.run(end, &plan));
    if let Some(p) = net.world.take_profile() {
        out.profile.add(&p);
    }
    drop(ring);

    let BuiltNetwork {
        world,
        routers,
        hosts,
        links,
        recorder,
        ..
    } = net;
    let rec = log.scope("core.recorder.take", |_| recorder.take());
    let summary = oracle.as_ref().map(|o| {
        log.scope("core.oracle.finalize", |_| {
            let receivers = hosts
                .iter()
                .enumerate()
                .skip(1)
                .map(|(i, id)| (*id, links[receiver_home(spec, i - 1)]))
                .collect();
            let settle = (TRAFFIC_START_SECS + 15).max(last_move_secs + SETTLE_MARGIN_SECS);
            o.finalize(
                &rec,
                &FinalizeParams {
                    settle: SimTime::from_secs(settle),
                    t_mli: MldConfig::default().multicast_listener_interval(),
                    receivers,
                    end,
                    disturbance_end: Some(SimTime::from_secs(last_move_secs)),
                    reconverge_bound: SimDuration::from_secs(60),
                    protected_floor: None,
                    protect_window: None,
                },
            )
        })
    });

    log.scope("core.stress.report", |_| {
        let first = rec.deliveries.iter().filter(|d| d.first).count() as u64;
        let router_nodes = || {
            routers
                .iter()
                .filter_map(|r| world.behavior::<RouterNode>(*r))
        };
        let report = StressReport {
            name: spec.name.clone(),
            routers: routers.len(),
            links: links.len(),
            hosts: hosts.len(),
            moves,
            events_executed: world.events_executed(),
            packets_sent: rec.packets.len() as u64,
            first_copy_deliveries: first,
            duplicate_deliveries: rec.deliveries.len() as u64 - first,
            max_router_sg_entries: router_nodes().map(|r| r.max_sg_entries).max().unwrap_or(0),
            oracle_violations: summary.as_ref().map_or(0, |s| s.violation_count),
            violations: summary.map(|s| s.violations).unwrap_or_default(),
            poll: oracle.as_ref().map(|o| o.poll_stats()).unwrap_or_default(),
        };
        if report.oracle_violations > 0 {
            out.tally
                .fail(1, format!("{}: {:?}", spec.name, report.violations));
        }
        let mut digest = Digest::new();
        digest.update(
            serde_json::to_string(&report)
                .unwrap_or_default()
                .as_bytes(),
        );
        out.digest = digest.hex();
        out.events_executed = report.events_executed;

        let c = &mut out.counts;
        for l in &links {
            let stats = world.link_stats(*l);
            c.bytes_tx += stats.total_bytes();
            c.frames_dropped += stats.total_dropped_frames();
            c.frames_corrupted += stats.total_corrupted_frames();
        }
        c.rec_packets = rec.packets.len() as u64;
        c.rec_data_events = rec.data_events.len() as u64;
        c.rec_deliveries = rec.deliveries.len() as u64;
        c.router_polls = report.poll.router_polls;
        c.sg_entries_walked = report.poll.sg_entries_walked;
        for r in router_nodes() {
            c.sg_high_water = c.sg_high_water.max(r.mib().get("pimSgHighWater"));
            c.listeners_high_water = c
                .listeners_high_water
                .max(r.mib().get("mldListenersHighWater"));
            c.binding_high_water = c
                .binding_high_water
                .max(r.mib().get("bindingCacheHighWater"));
        }
    });
    // Tearing the world down is part of what the user waits for.
    log.scope("net.world.drop", |_| drop((world, rec)));
    setup_s
}

/// One more operation: the library's `run_stress_with` must produce the
/// report this harness produced, or the spans no longer describe it.
fn check_stress_mirror(spec: &StressSpec, executor: &ExecutorConfig, out: &mut RepOutput) {
    out.tally.attempted += 1;
    let opts = StressRunOptions {
        executor: *executor,
    };
    let (report, _) = run_stress_with(spec, &opts, Tracer::null());
    let mut digest = Digest::new();
    digest.update(
        serde_json::to_string(&report)
            .unwrap_or_default()
            .as_bytes(),
    );
    if digest.hex() != out.digest {
        out.tally.fail(
            1,
            format!(
                "{}: harness report differs from core::stress::run_stress_with",
                spec.name
            ),
        );
    }
}

/// One more operation: `core::chaos::check_seed` on the first seed must
/// return the verdicts this harness's loop derives from the same configs.
fn check_chaos_mirror(first_seed: u64, cfgs: &[ScenarioConfig], out: &mut RepOutput) {
    out.tally.attempted += 1;
    let theirs = chaos::check_seed(first_seed).verdicts;
    let ours: Vec<chaos::ChaosVerdict> = cfgs
        .iter()
        .take(theirs.len())
        .map(|cfg| {
            let o = scenario::run(cfg).report.oracle;
            chaos::ChaosVerdict {
                approach: cfg.policy.name().to_string(),
                violations: o.violations,
                violation_count: o.violation_count,
                duplicates_observed: o.duplicates_observed,
                max_tunnel_depth: o.max_tunnel_depth,
                worst_leave_delay_secs: o.worst_leave_delay_secs,
                worst_stale_sg_secs: o.worst_stale_sg_secs,
                reconverge_secs: o.reconverge_secs,
                reconverge_ok: o.reconverge_ok,
            }
        })
        .collect();
    if serde_json::to_string(&theirs).ok() != serde_json::to_string(&ours).ok() {
        out.tally.fail(
            1,
            format!(
                "chaos seed {first_seed}: harness verdicts differ from core::chaos::check_seed"
            ),
        );
    }
}
