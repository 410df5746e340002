//! Large-topology stress scenarios: grids and trees of 100+ routers with
//! many mobile receivers, run with the invariant oracle attached.
//!
//! The reference (Figure-1) scenarios exercise the protocols on six links;
//! these scenarios scale the same stacks to `NetworkSpec::grid` /
//! `NetworkSpec::tree` topologies where the flood fans out over a hundred
//! links, dozens of receivers join, and a scripted subset of them roams
//! on deterministic (seed-derived) schedules. Every run is judged by the
//! [`Oracle`](crate::Oracle) — forwarding loops, persistent duplicates,
//! stale state and unbounded encapsulation are violations — so it doubles as
//! a soak test for the hot-path optimizations (timer wheel, flood path):
//! an ordering bug in the event queue shows up here as a protocol
//! violation, not just a flaky metric.

use crate::builder::{HostSpec, NetworkSpec};
use crate::experiments::Settings;
use crate::host_node::{HostConfig, SenderApp};
use crate::router_node::{RouterConfig, RouterNode};
use crate::run::{self, Judge, RunPlan, StageError};
use crate::scenario::group;
use crate::strategy::Policy;
use mobicast_mld::MldConfig;
use mobicast_net::{ExecPlan, ExecutorConfig, FaultPlan, ShardRunStats};
use mobicast_sim::{RngFactory, SimDuration, SimTime, Tracer};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Traffic starts here (leaves room for the initial MLD joins).
const TRAFFIC_START_SECS: u64 = 5;
/// Earliest scripted move.
const FIRST_MOVE_SECS: u64 = 20;
/// Quiet tail demanded after the last move so the oracle's settle window
/// (last disturbance + 30 s margin) fits inside the run.
const MOVE_QUIET_TAIL_SECS: u64 = 60;

/// Configuration of one stress run.
#[derive(Clone, Debug)]
pub struct StressSpec {
    /// Label used in reports ("grid64x112/bi-directional tunnel/seed11", …).
    pub name: String,
    pub topology: NetworkSpec,
    pub policy: Policy,
    pub seed: u64,
    pub duration: SimDuration,
    /// Receivers, spread deterministically over the links (sender is
    /// always on link 0).
    pub receivers: usize,
    /// How many of the receivers roam (the first `movers`).
    pub movers: usize,
    /// Scripted moves per roaming receiver.
    pub moves_per_mover: usize,
    /// CBR source interval.
    pub data_interval: SimDuration,
}

impl StressSpec {
    /// Link the `i`-th receiver is homed on: spread over all non-sender
    /// links with a fixed prime stride so neighbours land far apart.
    fn receiver_home(&self, i: usize) -> usize {
        1 + (i * 7919) % (self.topology.n_links - 1)
    }

    /// The stress lowering: a sender on link 0, strided receivers, the
    /// `stress.moves` RNG schedule, and no faults. For a caller that stops
    /// between [`run::stage`] and [`run::run`]; [`run_stress`] does both.
    pub fn lower(&self) -> Result<RunPlan<'_>, StageError> {
        let invalid = |field, reason: &str| {
            let reason = reason.into();
            Err(StageError::Invalid { field, reason })
        };
        if self.movers > self.receivers {
            return invalid("movers", "not a subset of the receivers");
        }
        if self.topology.n_links < 2 {
            return invalid("topology.n_links", "nowhere to roam");
        }
        let dur_secs = self.duration.as_secs_f64() as u64;
        if dur_secs < FIRST_MOVE_SECS + MOVE_QUIET_TAIL_SECS {
            return invalid("duration", "too short for the move window");
        }
        let g = group();
        let host_cfg = HostConfig {
            policy: self.policy,
            unsolicited_reports: true,
            mld: MldConfig::default(),
        };
        let traffic_start = SimTime::from_secs(TRAFFIC_START_SECS);
        let mut hosts = vec![HostSpec {
            home_link: 0,
            cfg: host_cfg,
            sender: Some(SenderApp {
                group: g,
                interval: self.data_interval,
                payload_size: 256,
                start: traffic_start,
                stop: SimTime::ZERO + self.duration,
            }),
            receiver_group: None,
        }];
        hosts.extend((0..self.receivers).map(|i| HostSpec {
            home_link: self.receiver_home(i),
            cfg: host_cfg,
            sender: None,
            receiver_group: Some(g),
        }));

        // Per-mover RNG streams derived only from the seed, so the
        // schedule is a pure function of (seed, spec) — the determinism
        // contract the parity harness relies on.
        let move_rng = RngFactory::new(self.seed).subfactory("stress.moves");
        let move_window = FIRST_MOVE_SECS..(dur_secs - MOVE_QUIET_TAIL_SECS);
        let mut moves = Vec::with_capacity(self.movers * self.moves_per_mover);
        for m in 0..self.movers {
            let mut rng = move_rng.indexed_stream("mover", m as u64);
            let mut times: Vec<u64> = (0..self.moves_per_mover)
                .map(|_| rng.random_range(move_window.clone()))
                .collect();
            times.sort_unstable();
            let mut current = self.receiver_home(m);
            for at_secs in times {
                let mut to = rng.random_range(0..self.topology.n_links);
                if to == current {
                    to = (to + 1) % self.topology.n_links;
                }
                current = to;
                moves.push((SimTime::from_secs(at_secs), 1 + m, to)); // host 0 is the sender
            }
        }

        let fault = FaultPlan::default();
        let move_secs = moves.iter().map(|(at, ..)| at.as_secs_f64());
        let judge = Judge::after(traffic_start, move_secs, &fault);
        Ok(RunPlan {
            topology: &self.topology,
            hosts,
            router_cfg: RouterConfig::default(),
            seed: self.seed,
            duration: self.duration,
            judge: Some(Judge {
                // A stress run with no movers still arms the reconvergence
                // SLO, from time zero.
                disturbance_end: judge.disturbance_end.or(Some(SimTime::ZERO)),
                ..judge
            }),
            moves,
            fault,
        })
    }
}

/// Deterministic result of one stress run (no wall-clock anywhere — serial
/// and parallel execution must produce identical reports).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StressReport {
    pub name: String,
    pub routers: usize,
    pub links: usize,
    pub hosts: usize,
    pub moves: usize,
    /// Scheduler dispatches over the whole run.
    pub events_executed: u64,
    pub packets_sent: u64,
    pub first_copy_deliveries: u64,
    pub duplicate_deliveries: u64,
    /// Peak (S,G) state on any single router.
    pub max_router_sg_entries: usize,
    pub oracle_violations: u64,
    /// First few violation messages (empty on a legal run).
    pub violations: Vec<String>,
    /// Cost accounting of the oracle's 5 s state poll — deterministic, so
    /// it participates in the parity checks, and `mem_accounting.rs`
    /// asserts the walk counters stay flat as listener counts grow.
    pub poll: crate::oracle::PollStats,
}

/// How a stress run executes. The default is the sequential plan; a
/// sharded [`ExecutorConfig`] runs the same loop and additionally returns
/// the conservative-window schedule ([`ShardRunStats`]). The report is
/// byte-identical for every shard count — the contract
/// `tests/shard_parity.rs` pins.
#[derive(Clone, Debug, Default)]
pub struct StressRunOptions {
    /// Executor choice. Never changes the report.
    pub executor: ExecutorConfig,
}

impl StressRunOptions {
    /// Sharded accounting over `shards` regions; `workers` is the inert
    /// label of [`ExecutorConfig::threads`].
    pub fn sharded(shards: usize, workers: usize) -> StressRunOptions {
        StressRunOptions {
            executor: ExecutorConfig::sharded(shards).threads(workers),
        }
    }
}

/// Run one stress scenario to completion under the oracle.
pub fn run_stress(spec: &StressSpec) -> StressReport {
    run_stress_with(spec, &StressRunOptions::default(), Tracer::null()).0
}

/// [`run_stress`] with explicit execution options and a trace sink.
/// Returns the shard schedule statistics when `opts.executor` is sharded.
pub fn run_stress_with(
    spec: &StressSpec,
    opts: &StressRunOptions,
    tracer: Tracer,
) -> (StressReport, Option<ShardRunStats>) {
    let (staged, moves, plan) = stage(spec, opts, tracer);
    report(spec, moves, run::run(staged, &plan))
}

/// Stage 1: `spec` lowered and staged, the moves it scripted counted, and
/// the plan `opts` asks for over the staged network.
fn stage(
    spec: &StressSpec,
    opts: &StressRunOptions,
    tracer: Tracer,
) -> (run::Staged, usize, ExecPlan) {
    let staged = spec
        .lower()
        .and_then(|plan| Ok((run::stage(&plan, tracer)?, plan.moves.len())));
    let (staged, moves) = staged.unwrap_or_else(|e| panic!("stress {}: {e}", spec.name));
    let plan = match opts.executor.plan(|shards| staged.net.shard_plan(shards)) {
        Ok(plan) => plan,
        Err(e) => panic!("stress {}: invalid executor config: {e}", spec.name),
    };
    (staged, moves, plan)
}

/// Stage 3: the stress report over what stage 2 left.
fn report(
    spec: &StressSpec,
    moves: usize,
    out: run::RunOutput,
) -> (StressReport, Option<ShardRunStats>) {
    let rec = &out.recorder;
    let (first, dup) = rec.copies();
    let net = &out.net;
    let max_sg = net
        .routers
        .iter()
        .filter_map(|r| net.world.behavior::<RouterNode>(*r))
        .map(|r| r.max_sg_entries)
        .max()
        .unwrap_or(0);

    let report = StressReport {
        name: spec.name.clone(),
        routers: net.routers.len(),
        links: net.links.len(),
        hosts: net.hosts.len(),
        moves,
        events_executed: net.world.events_executed(),
        packets_sent: rec.packets.len() as u64,
        first_copy_deliveries: first,
        duplicate_deliveries: dup,
        max_router_sg_entries: max_sg,
        oracle_violations: out.oracle.violation_count,
        violations: out.oracle.violations,
        poll: out.poll,
    };
    (report, out.shards)
}

/// The canonical stress specs: `quick` uses small shapes suitable for
/// debug-mode test runs; full mode uses the 100+-router shapes.
pub fn specs(settings: Settings) -> Vec<StressSpec> {
    let (grid, tree, duration, receivers, movers) = if settings.quick {
        (
            NetworkSpec::grid(4, 4),
            NetworkSpec::tree(2, 4),
            SimDuration::from_secs(90),
            6,
            2,
        )
    } else {
        (
            NetworkSpec::grid(8, 8),
            NetworkSpec::tree(3, 5),
            SimDuration::from_secs(120),
            24,
            6,
        )
    };
    let shapes = [("grid", grid), ("tree", tree)];
    // Default pair exercises both receive planes; `--approach` pins one.
    let policies = settings.approach.map_or_else(
        || vec![Policy::LOCAL, Policy::BIDIRECTIONAL_TUNNEL],
        |p| vec![p],
    );
    let seed = 11;
    let mut out = Vec::new();
    for (shape, topo) in shapes {
        for &policy in &policies {
            out.push(StressSpec {
                name: format!(
                    "{shape}{}x{}/{}/seed{seed}",
                    topo.n_links,
                    topo.routers.len(),
                    policy.id()
                ),
                topology: topo.clone(),
                policy,
                seed,
                duration,
                receivers,
                movers,
                moves_per_mover: 2,
                data_interval: SimDuration::from_secs(1),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_and_tree_shapes() {
        let g = NetworkSpec::grid(8, 8);
        assert_eq!(g.n_links, 64);
        assert_eq!(g.routers.len(), 112);
        let t = NetworkSpec::tree(3, 5);
        assert_eq!(t.n_links, 121);
        assert_eq!(t.routers.len(), 120);
        // Every tree link except the root has exactly one parent edge.
        let mut child_seen = vec![0usize; t.n_links];
        for r in &t.routers {
            child_seen[r[1]] += 1;
        }
        assert_eq!(child_seen[0], 0);
        assert!(child_seen[1..].iter().all(|&c| c == 1));
    }

    #[test]
    fn quick_stress_runs_clean() {
        for spec in specs(Settings::new(true)) {
            let report = run_stress(&spec);
            assert_eq!(
                report.oracle_violations, 0,
                "{}: {:?}",
                report.name, report.violations
            );
            assert!(report.packets_sent > 0, "{}: no traffic", report.name);
            assert!(
                report.first_copy_deliveries > 0,
                "{}: nothing delivered",
                report.name
            );
            assert!(report.moves > 0, "{}: nobody roamed", report.name);
        }
    }

    /// The journal a stress run builds retires rows as it goes; staged the
    /// same and told to keep them all, the run reports the same bytes, and
    /// nothing it asked of the journal was past the horizon.
    #[test]
    fn whole_and_retiring_journals_report_the_same_stress_run() {
        for spec in specs(Settings::new(true)) {
            for seed in [11, 12, 13] {
                let spec = StressSpec {
                    seed,
                    ..spec.clone()
                };
                let opts = StressRunOptions::default();
                let retiring = run_stress_with(&spec, &opts, Tracer::null()).0;
                let (staged, moves, plan) = stage(&spec, &opts, Tracer::null());
                staged.net.recorder.set_journal_horizon(SimDuration::MAX);
                let out = run::run(staged, &plan);
                let journal = &out.recorder.data_events;
                assert_eq!((journal.retired(), journal.beyond_horizon()), (0, 0));
                let whole = report(&spec, moves, out).0;
                assert_eq!(
                    serde_json::to_string(&retiring).unwrap(),
                    serde_json::to_string(&whole).unwrap(),
                    "{}",
                    spec.name
                );
            }
        }
    }

    /// A stress run, whose report reads no span, ends holding its open
    /// spans and no closed one: the spans a run that keeps them all leaves
    /// open. A scenario, whose report folds them all, holds every span it
    /// opened: each node's ids run from 1 up without a gap.
    #[test]
    fn a_stress_run_ends_holding_no_closed_span_and_a_scenario_every_span() {
        let spec = &specs(Settings::new(true))[1];
        let opts = StressRunOptions::default();
        let ids = |book: &mobicast_sim::SpanBook, open: bool| {
            let held = book
                .records()
                .iter()
                .filter(|s| !open || s.end_ns.is_none());
            held.map(|s| s.id)
                .collect::<std::collections::BTreeSet<_>>()
        };
        let (staged, _, plan) = stage(spec, &opts, Tracer::null());
        let dropped = run::run(staged, &plan).recorder.spans;
        let (staged, _, plan) = stage(spec, &opts, Tracer::null());
        staged.net.recorder.drop_closed_spans(false);
        let kept = run::run(staged, &plan).recorder.spans;
        assert!(
            kept.len() > ids(&kept, true).len(),
            "{}: no span closed",
            spec.name
        );
        assert_eq!(ids(&dropped, false), ids(&kept, true), "{}", spec.name);

        let cfg = crate::scenario::ScenarioConfig::builder()
            .policy(Policy::BIDIRECTIONAL_TUNNEL)
            .move_at(60.0, crate::scenario::PaperHost::R3, 6)
            .build();
        let (_, rec) = crate::scenario::run_with_recorder(&cfg);
        let mut per_node: std::collections::BTreeMap<u64, Vec<u64>> = Default::default();
        for span in rec.spans.records() {
            per_node
                .entry(span.node)
                .or_default()
                .push(span.id.0 & 0xffff_ffff);
        }
        assert!(rec
            .spans
            .records()
            .iter()
            .any(|s| s.attr("unfinished").is_none()));
        for (node, mut seqs) in per_node {
            seqs.sort_unstable();
            assert_eq!(
                seqs,
                (1..=seqs.len() as u64).collect::<Vec<_>>(),
                "node {node}"
            );
        }
    }

    fn too_short() -> StressSpec {
        StressSpec {
            duration: SimDuration::from_secs(79),
            ..specs(Settings::new(true)).remove(0)
        }
    }

    #[test]
    fn invalid_specs_are_typed_errors() {
        let good = specs(Settings::new(true)).remove(0);
        let field_of = |spec: &StressSpec| match spec.lower().err() {
            Some(StageError::Invalid { field, .. }) => field,
            other => panic!("{other:?}"),
        };
        let movers = StressSpec {
            movers: good.receivers + 1,
            ..good.clone()
        };
        assert_eq!(field_of(&movers), "movers");
        let mut nowhere = good;
        nowhere.topology.n_links = 1;
        assert_eq!(field_of(&nowhere), "topology.n_links");
        assert_eq!(field_of(&too_short()), "duration");
    }

    #[test]
    #[should_panic(expected = "/local/seed11: invalid duration: too short for the move window")]
    fn run_stress_panics_with_the_named_error() {
        run_stress(&too_short());
    }

    #[test]
    fn stress_is_deterministic_in_seed() {
        let spec = &specs(Settings::new(true))[0];
        let a = run_stress(spec);
        let b = run_stress(spec);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }
}
