//! The one place a run is put together and judged, in stages a caller may
//! stop between.
//!
//! 1. **stage** ([`stage`]): from a topology-agnostic [`RunPlan`] — what a
//!    front-end ([`crate::scenario`], [`crate::stress`], a literal in an
//!    experiment or a test) *lowers* its own configuration to — validate,
//!    [`build`], [`apply_fault_plan`], script the moves, and hand back a
//!    [`Staged`] run whose [`BuiltNetwork`] is open: add a probe, an inert
//!    `LinkFaultState`, a storm, a sampler.
//! 2. **run** ([`run`]): attach the [`Oracle`] when the plan has judge's
//!    terms, `World::run` to the plan's end, take the profile, retire every
//!    node's counters into the recorder and take it, `Oracle::finalize`.
//! 3. **finish** belongs to the front-end: it reads the [`RunOutput`] into
//!    its own report (`ScenarioResult`, `StressReport`).
//!
//! **Scheduling order is part of the contract:** build → fault plan →
//! moves (in `RunPlan::moves` order) → whatever the caller schedules on
//! the staged network (a scenario: storm, then the gauge sampler) →
//! oracle attach. Script events due at the same instant fire in the order
//! they were scheduled, and the oracle's poll keeps its place in that
//! order only while it is attached last — a move at 60.0 s lands on a 5 s
//! sampler tick and an oracle poll, and reports are compared byte for byte.

use crate::builder::{apply_fault_plan, build, BuiltNetwork, HostSpec, NetworkSpec};
use crate::oracle::{FinalizeParams, Oracle, OracleSummary, PollStats};
use crate::recorder::Recorder;
use crate::router_node::RouterConfig;
use mobicast_net::{ExecPlan, FaultPlan, ShardRunStats};
use mobicast_sim::{SimDuration, SimProfile, SimTime, Tracer};
use std::fmt;

/// A run before any id exists: hosts and links are indices into
/// `hosts` / the topology's link list.
pub struct RunPlan<'a> {
    pub topology: &'a NetworkSpec,
    pub hosts: Vec<HostSpec>,
    pub router_cfg: RouterConfig,
    pub seed: u64,
    pub duration: SimDuration,
    /// `(at, host index, link index)`, scheduled in this order.
    pub moves: Vec<(SimTime, usize, usize)>,
    pub fault: FaultPlan,
    /// `None`: no oracle is attached and [`RunOutput::oracle`] stays at
    /// its disabled default.
    pub judge: Option<Judge>,
}

/// The oracle's terms that are a front-end's to choose. The rest of
/// `FinalizeParams` follows from the plan: the receivers are the hosts
/// with a `receiver_group`, each on its home link; T_MLI is the routers'.
pub struct Judge {
    /// The instant after which the run must be disturbance-free: every
    /// move, fault window, flap and crash has cleared, plus a margin.
    pub settle: SimTime,
    /// When the last of them clears, which the reconvergence SLO measures
    /// from. `None`: nothing to recover from, or a run-long fault leaves
    /// no recovery point.
    pub disturbance_end: Option<SimTime>,
    pub protected_floor: Option<f64>,
    pub protect_window: Option<(SimTime, SimTime)>,
}

/// Fractional seconds as a script instant, truncated to the nanosecond —
/// the one conversion every scheduled time and judge's term goes through.
pub(crate) fn at_secs(secs: f64) -> SimTime {
    SimTime::from_nanos((secs * 1e9) as u64)
}

/// Delivery must return to steady state within this long after the last
/// disturbance clears (the oracle's reconvergence SLO).
pub(crate) const RECONVERGE_BOUND: SimDuration = SimDuration::from_secs(60);
/// Time granted after traffic start for the initial flood's asserts.
const ASSERT_SETTLE_SECS: f64 = 15.0;
/// Reconvergence margin demanded after the last scheduled disturbance
/// before the oracle judges duplicates as persistent.
const SETTLE_MARGIN_SECS: f64 = 30.0;

impl Judge {
    /// The terms for a run whose traffic starts at `traffic_start` and is
    /// disturbed by moves at `move_secs` and by `fault` — the one rule
    /// every front-end times its judge by — with no protected floor.
    pub fn after(
        traffic_start: SimTime,
        move_secs: impl IntoIterator<Item = f64>,
        fault: &FaultPlan,
    ) -> Judge {
        let mut settle = traffic_start.as_secs_f64() + ASSERT_SETTLE_SECS;
        let mut latest: Option<f64> = None;
        for secs in move_secs {
            settle = settle.max(secs + SETTLE_MARGIN_SECS);
            latest = Some(latest.unwrap_or(0.0).max(secs));
        }
        let recovery = fault.recovery_bound_secs();
        if let Some(bound) = recovery {
            settle = settle.max(bound + SETTLE_MARGIN_SECS);
        }
        if !fault.is_none() {
            latest = recovery.map(|bound| latest.unwrap_or(0.0).max(bound));
        }
        Judge {
            settle: at_secs(settle),
            disturbance_end: latest.map(at_secs),
            protected_floor: None,
            protect_window: None,
        }
    }
}

/// Why a description cannot be staged.
#[derive(Clone, Debug, PartialEq)]
pub enum StageError {
    /// `moves[index]`, scripted for `at`, names a host or a link (`field`)
    /// the plan does not have: `value` is not below `limit`.
    Move {
        index: usize,
        at: SimTime,
        field: &'static str,
        value: usize,
        limit: usize,
    },
    /// `field` failed its own validation.
    Invalid { field: &'static str, reason: String },
}

impl fmt::Display for StageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StageError::Move {
                index,
                at,
                field,
                value,
                limit,
            } => write!(
                f,
                "moves[{index}] at {:.3}s: {field} {value}, but there are {limit}",
                at.as_secs_f64()
            ),
            StageError::Invalid { field, reason } => write!(f, "invalid {field}: {reason}"),
        }
    }
}

impl std::error::Error for StageError {}

fn validate(plan: &RunPlan<'_>) -> Result<(), StageError> {
    let invalid = |field| move |reason| StageError::Invalid { field, reason };
    plan.router_cfg.mld.validate().map_err(invalid("mld"))?;
    plan.router_cfg.pim.validate().map_err(invalid("pim"))?;
    plan.fault.validate().map_err(invalid("fault"))?;
    let (n_hosts, n_links) = (plan.hosts.len(), plan.topology.n_links);
    if let Some(i) = plan.hosts.iter().position(|h| h.home_link >= n_links) {
        let reason = format!("hosts[{i}] is homed on a link beyond the {n_links}");
        return Err(StageError::Invalid {
            field: "hosts",
            reason,
        });
    }
    for (index, &(at, host, link)) in plan.moves.iter().enumerate() {
        for (field, value, limit) in [("host", host, n_hosts), ("link", link, n_links)] {
            if value >= limit {
                return Err(StageError::Move {
                    index,
                    at,
                    field,
                    value,
                    limit,
                });
            }
        }
    }
    Ok(())
}

/// A network built, faulted and scripted, not yet started.
pub struct Staged {
    pub net: BuiltNetwork,
    end: SimTime,
    judge: Option<FinalizeParams>,
}

/// Stage 1 (module doc): validate `plan`, build it, apply its fault plan
/// and script its moves.
pub fn stage(plan: &RunPlan<'_>, tracer: Tracer) -> Result<Staged, StageError> {
    validate(plan)?;
    let RunPlan {
        topology,
        router_cfg,
        seed,
        ..
    } = *plan;
    let mut net = build(topology, &plan.hosts, router_cfg, seed, tracer);
    apply_fault_plan(&mut net, topology, router_cfg, &plan.fault, seed);
    for &(at, host, link) in &plan.moves {
        let (host, link) = (net.hosts[host], net.links[link]);
        net.world.at(at, move |w| w.move_iface(host, 0, link));
    }
    let end = SimTime::ZERO + plan.duration;
    let receivers = plan.hosts.iter().zip(&net.hosts);
    let judge = plan.judge.as_ref().map(|j| FinalizeParams {
        settle: j.settle,
        t_mli: router_cfg.mld.multicast_listener_interval(),
        receivers: receivers
            .filter(|(host, _)| host.receiver_group.is_some())
            .map(|(host, id)| (*id, net.links[host.home_link]))
            .collect(),
        end,
        disturbance_end: j.disturbance_end,
        reconverge_bound: RECONVERGE_BOUND,
        protected_floor: j.protected_floor,
        protect_window: j.protect_window,
    });
    Ok(Staged { net, end, judge })
}

/// What stage 2 leaves for a front-end's report.
pub struct RunOutput {
    /// The network as the run left it; its shared recorder is emptied
    /// into `recorder`.
    pub net: BuiltNetwork,
    pub recorder: Recorder,
    /// The oracle's verdict (`enabled: false` for an unjudged plan).
    pub oracle: OracleSummary,
    pub poll: PollStats,
    /// Present when `plan` was sharded.
    pub shards: Option<ShardRunStats>,
    /// Present when profiling was enabled on the staged world.
    pub profile: Option<SimProfile>,
}

/// Stage 2 (module doc): attach the oracle, run to the plan's end under
/// `plan`, and judge what was recorded.
pub fn run(staged: Staged, plan: &ExecPlan) -> RunOutput {
    let Staged {
        mut net,
        end,
        judge,
    } = staged;
    let oracle = judge.map(|terms| {
        let oracle = Oracle::attach(&mut net.world, net.routers.clone(), end);
        (oracle, terms)
    });
    let shards = net.world.run(end, plan).sharded;
    let profile = net.world.take_profile();
    for &node in net.routers.iter().chain(&net.hosts) {
        crate::node_kit::retire(&net.world, node, &net.recorder);
    }
    let recorder = net.recorder.take();
    let (oracle, poll) = oracle.map_or_else(Default::default, |(oracle, terms)| {
        (oracle.finalize(&recorder, &terms), oracle.poll_stats())
    });
    RunOutput {
        net,
        recorder,
        oracle,
        poll,
        shards,
        profile,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{self, Move, PaperHost, ScenarioConfig, ScenarioResult};
    use mobicast_net::LinkFlap;

    fn cfg() -> ScenarioConfig {
        ScenarioConfig::builder()
            .seed(3)
            .duration_secs(90)
            .move_at(30.0, PaperHost::R3, 6)
            .fault(FaultPlan::iid_loss(0.05))
            .name("staged")
            .build()
    }

    fn digest(r: &ScenarioResult) -> String {
        let report = serde_json::to_string(&r.report).unwrap();
        format!("{report} {}", r.events_executed)
    }

    /// Stopping between the stages is free: a run staged and then run
    /// reports what `scenario::run` reports, whether the caller left the
    /// staged network alone or read from it.
    #[test]
    fn staging_then_running_is_scenario_run() {
        let cfg = cfg();
        let whole = digest(&scenario::run(&cfg));
        let untouched = scenario::stage(&cfg, Tracer::null()).unwrap();
        assert_eq!(digest(&untouched.run().0), whole);
        let mut read = scenario::stage(&cfg, Tracer::null()).unwrap();
        let net = read.net();
        assert!(!net.world.link_members(net.links[0]).is_empty());
        assert_eq!(digest(&read.run().0), whole);
    }

    fn stage_error(cfg: &ScenarioConfig) -> StageError {
        let staged = scenario::stage(cfg, Tracer::null());
        staged.err().expect("must not stage")
    }

    fn off_the_network(to_link: usize) -> ScenarioConfig {
        let mut cfg = cfg();
        cfg.moves.push(Move {
            at_secs: 40.0,
            host: PaperHost::R2,
            to_link,
        });
        cfg
    }

    /// A cloned configuration mutated past its builder's checks comes back
    /// as an error, not as a slice-index panic or an underflow.
    #[test]
    fn scenario_moves_off_the_network_are_typed_errors() {
        for (to_link, value) in [(9, 8), (0, usize::MAX)] {
            let want = StageError::Move {
                index: 1,
                at: SimTime::from_secs(40),
                field: "link",
                value,
                limit: 6,
            };
            assert_eq!(stage_error(&off_the_network(to_link)), want);
        }
    }

    #[test]
    #[should_panic(expected = "scenario staged: moves[1] at 40.000s: link 8, but there are 6")]
    fn scenario_run_panics_with_the_named_error() {
        scenario::run(&off_the_network(9));
    }

    #[test]
    fn invalid_profiles_and_fault_plans_are_typed_errors() {
        let field_of = |cfg: &ScenarioConfig| match stage_error(cfg) {
            StageError::Invalid { field, .. } => field,
            other => panic!("{other}"),
        };
        let mut bad = cfg();
        // Paper footnote 5: T_Query must not be shorter than T_RespDel.
        bad.mld.query_interval = SimDuration::from_secs(5);
        assert_eq!(field_of(&bad), "mld");
        let mut bad = cfg();
        bad.pim.prune_delay = SimDuration::ZERO;
        assert_eq!(field_of(&bad), "pim");
        let mut bad = cfg();
        bad.fault.flaps.push(LinkFlap {
            link: 0,
            down_at_secs: 20.0,
            up_at_secs: 10.0,
        });
        assert_eq!(field_of(&bad), "fault");
    }

    /// A literal plan's hosts are checked like its moves' links are.
    #[test]
    fn literal_plans_are_checked_host_by_host() {
        let topology = NetworkSpec::string(3);
        let host = |home_link| HostSpec {
            home_link,
            cfg: Default::default(),
            sender: None,
            receiver_group: None,
        };
        let at = SimTime::from_secs(5);
        let error = |hosts, moves| {
            let plan = RunPlan {
                topology: &topology,
                hosts,
                router_cfg: RouterConfig::default(),
                seed: 1,
                duration: SimDuration::from_secs(10),
                moves,
                fault: FaultPlan::default(),
                judge: None,
            };
            stage(&plan, Tracer::null()).err()
        };
        assert!(matches!(
            error(vec![host(0), host(3)], vec![]),
            Some(StageError::Invalid { field: "hosts", .. })
        ));
        let unknown_host = StageError::Move {
            index: 0,
            at,
            field: "host",
            value: 1,
            limit: 1,
        };
        assert_eq!(error(vec![host(0)], vec![(at, 1, 2)]), Some(unknown_host));
        assert_eq!(error(vec![host(0)], vec![(at, 0, 2)]), None);
    }
}
