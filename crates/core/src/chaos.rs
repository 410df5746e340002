//! Randomized chaos harness: seed-derived fault + mobility schedules run
//! under the invariant oracle, with proptest-style shrinking of failures.
//!
//! A [`ChaosPlan`] bundles everything that can disturb a reference-topology
//! run — a windowed loss rate, link flaps, router crash/restart pairs and
//! scripted host moves. [`plan_strategy`] generates plans from an RNG (so
//! one `u64` seed reproduces the whole schedule) and, because it implements
//! the vendored proptest shim's [`Strategy`] trait *directly*, it carries a
//! domain-specific [`Strategy::shrink`]: drop a fault, drop a move, lower
//! the loss rate. When a seed produces an oracle violation, [`minimize`]
//! greedily re-runs shrunken plans until no simpler plan still violates,
//! yielding a minimized, reproducible failing case.
//!
//! All event times sit on a 0.5 s grid inside [10 s, 100 s] of a 180 s
//! run, so every schedule leaves a fault-free tail long enough for the
//! oracle's settle-time duplicate checks.

use crate::scenario::{self, Move, PaperHost, ScenarioConfig};
use crate::strategy::Policy;
use mobicast_net::{
    CorruptionModel, FaultPlan, FaultWindow, LinkFault, LinkFlap, LossModel, RouterCrash,
    StormModel,
};
use mobicast_sim::SimDuration;
use proptest::Strategy;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Serialize, Value};

/// Duration of every chaos run.
pub const DURATION_SECS: u64 = 180;
/// Disturbances are scheduled inside this window (seconds).
const EVENT_START: f64 = 10.0;
const EVENT_END: f64 = 90.0;
/// Everything has recovered by here (latest restart/flap-up/window end).
const RECOVER_BY: f64 = 100.0;
/// Loss rates a plan can draw from (quantized so shrinking is a walk
/// toward index 0 = no loss).
const LOSS_STEPS: [f64; 5] = [0.0, 0.05, 0.10, 0.15, 0.20];
/// Wire-corruption rates a plan can draw from (same quantization idea;
/// rates match the adversarial sweep's 0–5 % band).
const CORRUPTION_STEPS: [f64; 4] = [0.0, 0.01, 0.02, 0.05];
/// Signaling-storm intensities a plan can draw from: index 0 = no storm
/// (zero RNG draws at run time), rising through zapping churn, BU floods
/// and subscription flapping, all inside the event window.
const STORM_STEPS: [StormModel; 4] = [
    StormModel::none(),
    StormModel {
        zap_rate: 1.0,
        zap_groups: 4,
        bu_rate: 0.5,
        flap_rate: 0.0,
        flap_hosts: 0,
        start_secs: EVENT_START,
        end_secs: EVENT_END,
    },
    StormModel {
        zap_rate: 3.0,
        zap_groups: 8,
        bu_rate: 2.0,
        flap_rate: 0.5,
        flap_hosts: 1,
        start_secs: EVENT_START,
        end_secs: EVENT_END,
    },
    StormModel {
        zap_rate: 8.0,
        zap_groups: 16,
        bu_rate: 5.0,
        flap_rate: 1.0,
        flap_hosts: 2,
        start_secs: EVENT_START,
        end_secs: EVENT_END,
    },
];

/// One randomized disturbance schedule. Everything is quantized (times on
/// a 0.5 s grid, loss from the fixed `LOSS_STEPS` table) so plans print
/// small, compare
/// exactly, and shrink discretely.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosPlan {
    /// Index into the `LOSS_STEPS` table; loss applies on every link in the
    /// event window.
    pub loss_step: usize,
    /// Index into the `CORRUPTION_STEPS` table; frames on every link are
    /// mangled in flight at this rate during the event window.
    pub corruption_step: usize,
    /// `(link index 0..6, down_at, up_at)` — link goes dark, comes back.
    pub flaps: Vec<(u32, f64, f64)>,
    /// `(router index 0..5, crash_at, restart_at)` — full state loss.
    pub crashes: Vec<(u32, f64, f64)>,
    /// `(at_secs, host, to_link 1..=6)` — scripted roaming.
    pub moves: Vec<(f64, PaperHost, usize)>,
    /// Index into the `STORM_STEPS` table; 0 = no signaling storm.
    pub storm_step: usize,
}

// Hand-written so a storm-free plan serializes exactly as it did before
// storms existed — the key is omitted at step 0, keeping historical chaos
// campaign JSON byte-identical.
impl Serialize for ChaosPlan {
    fn to_json_value(&self) -> Value {
        let mut fields = vec![
            ("loss_step".to_string(), self.loss_step.to_json_value()),
            (
                "corruption_step".to_string(),
                self.corruption_step.to_json_value(),
            ),
            ("flaps".to_string(), self.flaps.to_json_value()),
            ("crashes".to_string(), self.crashes.to_json_value()),
            ("moves".to_string(), self.moves.to_json_value()),
        ];
        if self.storm_step != 0 {
            fields.push(("storm_step".to_string(), self.storm_step.to_json_value()));
        }
        Value::Object(fields)
    }
}

impl ChaosPlan {
    pub fn loss(&self) -> f64 {
        LOSS_STEPS[self.loss_step]
    }

    pub fn corruption(&self) -> f64 {
        CORRUPTION_STEPS[self.corruption_step]
    }

    pub fn storm(&self) -> StormModel {
        STORM_STEPS[self.storm_step]
    }

    pub fn fault_plan(&self) -> FaultPlan {
        FaultPlan {
            link: LinkFault {
                loss: LossModel::iid(self.loss()),
                jitter: SimDuration::ZERO,
                corruption: if self.corruption() > 0.0 {
                    CorruptionModel::uniform(self.corruption())
                } else {
                    CorruptionModel::none()
                },
            },
            window: (self.loss() > 0.0 || self.corruption() > 0.0).then_some(FaultWindow {
                start_secs: EVENT_START,
                end_secs: EVENT_END,
            }),
            flaps: self
                .flaps
                .iter()
                .map(|&(link, down, up)| LinkFlap {
                    link,
                    down_at_secs: down,
                    up_at_secs: up,
                })
                .collect(),
            crashes: self
                .crashes
                .iter()
                .map(|&(router, crash, restart)| RouterCrash {
                    router,
                    crash_at_secs: crash,
                    restart_at_secs: restart,
                })
                .collect(),
            storm: self.storm(),
        }
    }

    pub fn moves(&self) -> Vec<Move> {
        self.moves
            .iter()
            .map(|&(at_secs, host, to_link)| Move {
                at_secs,
                host,
                to_link,
            })
            .collect()
    }

    /// Scenario configuration running this plan under one approach.
    pub fn config(&self, approach: Policy, seed: u64) -> ScenarioConfig {
        ScenarioConfig::builder()
            .seed(seed)
            .duration(SimDuration::from_secs(DURATION_SECS))
            .policy(approach)
            .moves(self.moves())
            .fault(self.fault_plan())
            .name(format!("chaos-{}-seed{seed}", approach.id()))
            .build()
    }
}

/// Generator of [`ChaosPlan`]s, implementing the shim [`Strategy`] trait
/// directly so its shrink steps are domain-aware.
#[derive(Clone, Copy, Debug, Default)]
pub struct PlanStrategy;

/// The plan strategy (proptest-style constructor).
pub fn plan_strategy() -> PlanStrategy {
    PlanStrategy
}

fn grid(rng: &mut SmallRng, lo: f64, hi: f64) -> f64 {
    let steps = ((hi - lo) * 2.0) as u32;
    lo + f64::from(rng.random_range(0..=steps)) * 0.5
}

impl Strategy for PlanStrategy {
    type Value = ChaosPlan;

    fn generate(&self, rng: &mut SmallRng) -> ChaosPlan {
        let loss_step = rng.random_range(0..LOSS_STEPS.len());
        let corruption_step = rng.random_range(0..CORRUPTION_STEPS.len());

        // Flaps on distinct links so down/up pairs never interleave.
        let mut flap_links: Vec<u32> = (0..6).collect();
        let n_flaps = rng.random_range(0..=2usize);
        let mut flaps = Vec::new();
        for _ in 0..n_flaps {
            let link = flap_links.remove(rng.random_range(0..flap_links.len()));
            let down = grid(rng, EVENT_START, EVENT_END - 10.0);
            let up = (down + grid(rng, 1.0, 8.0)).min(RECOVER_BY);
            flaps.push((link, down, up));
        }

        // Crashes on distinct routers so crash/restart pairs never overlap.
        let mut routers: Vec<u32> = (0..5).collect();
        let n_crashes = rng.random_range(0..=2usize);
        let mut crashes = Vec::new();
        for _ in 0..n_crashes {
            let router = routers.remove(rng.random_range(0..routers.len()));
            let crash = grid(rng, EVENT_START, EVENT_END - 15.0);
            let restart = (crash + grid(rng, 2.0, 14.0)).min(RECOVER_BY);
            crashes.push((router, crash, restart));
        }

        // Roaming: the mobile receivers (and sometimes the sender) hop
        // between the paper's links.
        let n_moves = rng.random_range(1..=4usize);
        let mut moves = Vec::new();
        for _ in 0..n_moves {
            let host = [PaperHost::S, PaperHost::R2, PaperHost::R3][rng.random_range(0..3usize)];
            let to_link = rng.random_range(1..=6);
            let at = grid(rng, EVENT_START, EVENT_END);
            moves.push((at, host, to_link));
        }
        moves.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());

        // Drawn LAST so every pre-storm field of a given seed's plan is
        // unchanged from the pre-storm generator.
        let storm_step = rng.random_range(0..STORM_STEPS.len());

        ChaosPlan {
            loss_step,
            corruption_step,
            flaps,
            crashes,
            moves,
            storm_step,
        }
    }

    /// Domain-specific shrinking: the empty plan first (fails fast to the
    /// minimal repro when the bug needs no disturbance at all), then
    /// dropping the loss, then removing each crash, flap and move.
    fn shrink(&self, value: &ChaosPlan) -> Vec<ChaosPlan> {
        let mut out = Vec::new();
        let empty = ChaosPlan {
            loss_step: 0,
            corruption_step: 0,
            flaps: Vec::new(),
            crashes: Vec::new(),
            moves: Vec::new(),
            storm_step: 0,
        };
        if *value != empty {
            out.push(empty);
        }
        if value.loss_step > 0 {
            let mut v = value.clone();
            v.loss_step = 0;
            out.push(v);
        }
        if value.corruption_step > 0 {
            let mut v = value.clone();
            v.corruption_step = 0;
            out.push(v);
        }
        if value.storm_step > 0 {
            let mut v = value.clone();
            v.storm_step = 0;
            out.push(v);
        }
        for i in 0..value.crashes.len() {
            let mut v = value.clone();
            v.crashes.remove(i);
            out.push(v);
        }
        for i in 0..value.flaps.len() {
            let mut v = value.clone();
            v.flaps.remove(i);
            out.push(v);
        }
        for i in 0..value.moves.len() {
            let mut v = value.clone();
            v.moves.remove(i);
            out.push(v);
        }
        out
    }
}

/// Derive the plan a chaos seed denotes (stable across runs: the seed is
/// the whole schedule).
pub fn plan_for_seed(seed: u64) -> ChaosPlan {
    // Domain-separated from the scenario's own RNG streams.
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x00c4_a05c_11a0_u64);
    plan_strategy().generate(&mut rng)
}

/// Oracle verdict of one (plan, approach) run.
#[derive(Clone, Debug, Serialize)]
pub struct ChaosVerdict {
    pub approach: String,
    pub violations: Vec<String>,
    pub violation_count: u64,
    pub duplicates_observed: u64,
    pub max_tunnel_depth: u32,
    pub worst_leave_delay_secs: f64,
    pub worst_stale_sg_secs: f64,
    /// Reconvergence SLO verdict (None when no disturbance armed the SLO).
    pub reconverge_secs: Option<f64>,
    pub reconverge_ok: Option<bool>,
}

/// Run one plan under one approach and return the oracle's verdict.
pub fn run_plan(plan: &ChaosPlan, approach: Policy, seed: u64) -> ChaosVerdict {
    let r = scenario::run(&plan.config(approach, seed));
    let o = &r.report.oracle;
    ChaosVerdict {
        approach: approach.name().to_string(),
        violations: o.violations.clone(),
        violation_count: o.violation_count,
        duplicates_observed: o.duplicates_observed,
        max_tunnel_depth: o.max_tunnel_depth,
        worst_leave_delay_secs: o.worst_leave_delay_secs,
        worst_stale_sg_secs: o.worst_stale_sg_secs,
        reconverge_secs: o.reconverge_secs,
        reconverge_ok: o.reconverge_ok,
    }
}

/// Outcome of one chaos seed across every registered delivery policy.
#[derive(Clone, Debug, Serialize)]
pub struct SeedOutcome {
    pub seed: u64,
    pub plan: ChaosPlan,
    pub verdicts: Vec<ChaosVerdict>,
}

impl SeedOutcome {
    pub fn violation_count(&self) -> u64 {
        self.verdicts.iter().map(|v| v.violation_count).sum()
    }
}

/// Run one seed's plan under every registered delivery policy (the
/// paper's four approaches plus extensions such as the hierarchical
/// proxy) with the oracle on.
pub fn check_seed(seed: u64) -> SeedOutcome {
    check_seed_under(seed, &Policy::all())
}

/// [`check_seed`] under `policies` only, one verdict each, in order.
pub fn check_seed_under(seed: u64, policies: &[Policy]) -> SeedOutcome {
    let plan = plan_for_seed(seed);
    let verdicts = policies.iter().map(|&a| run_plan(&plan, a, seed)).collect();
    SeedOutcome {
        seed,
        plan,
        verdicts,
    }
}

/// Greedily shrink a violating plan: keep any shrink candidate that still
/// violates the oracle under `approach`, until none does (or the step
/// budget runs out). Returns the minimized plan and its violations.
pub fn minimize(plan: &ChaosPlan, approach: Policy, seed: u64) -> (ChaosPlan, Vec<String>) {
    let strat = plan_strategy();
    let mut current = plan.clone();
    let mut violations = run_plan(&current, approach, seed).violations;
    let mut steps = 0usize;
    'outer: while steps < proptest::MAX_SHRINK_STEPS {
        for cand in strat.shrink(&current) {
            steps += 1;
            let v = run_plan(&cand, approach, seed).violations;
            if !v.is_empty() {
                current = cand;
                violations = v;
                continue 'outer;
            }
            if steps >= proptest::MAX_SHRINK_STEPS {
                break;
            }
        }
        break;
    }
    (current, violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_derivation_is_deterministic_and_valid() {
        for seed in 1..=20 {
            let a = plan_for_seed(seed);
            let b = plan_for_seed(seed);
            assert_eq!(a, b, "seed {seed} must reproduce its plan");
            a.fault_plan().validate().expect("generated plan invalid");
            for (at, _, to_link) in &a.moves {
                assert!((1..=6).contains(to_link));
                assert!((EVENT_START..=EVENT_END).contains(at));
            }
        }
        assert_ne!(plan_for_seed(1), plan_for_seed(2));
    }

    #[test]
    fn shrink_proposes_strictly_simpler_plans() {
        let plan = plan_for_seed(3);
        let weight = |p: &ChaosPlan| {
            p.loss_step
                + p.corruption_step
                + p.storm_step
                + p.flaps.len()
                + p.crashes.len()
                + p.moves.len()
        };
        let cands = plan_strategy().shrink(&plan);
        assert!(!cands.is_empty());
        for c in &cands {
            assert!(weight(c) < weight(&plan), "{c:?} not simpler than {plan:?}");
            c.fault_plan().validate().expect("shrunk plan invalid");
        }
        // The empty plan shrinks no further.
        let empty = ChaosPlan {
            loss_step: 0,
            corruption_step: 0,
            flaps: vec![],
            crashes: vec![],
            moves: vec![],
            storm_step: 0,
        };
        assert!(plan_strategy().shrink(&empty).is_empty());
    }

    /// End-to-end shrinking: violations judged by a synthetic oracle (a
    /// plan "violates" while it still crashes router 3) minimize to the
    /// single responsible crash.
    #[test]
    fn greedy_shrink_isolates_the_guilty_disturbance() {
        let mut plan = plan_for_seed(5);
        plan.crashes = vec![(3, 40.0, 50.0), (1, 20.0, 30.0)];
        let violates = |p: &ChaosPlan| {
            p.crashes
                .iter()
                .any(|c| c.0 == 3)
                .then(|| vec!["x".to_string()])
        };
        // Inline greedy loop mirroring `minimize` (which needs full runs).
        let strat = plan_strategy();
        let mut current = plan;
        'outer: loop {
            for cand in strat.shrink(&current) {
                if violates(&cand).is_some() {
                    current = cand;
                    continue 'outer;
                }
            }
            break;
        }
        assert_eq!(current.crashes, vec![(3, 40.0, 50.0)]);
        assert_eq!(current.loss_step, 0);
        assert_eq!(current.corruption_step, 0);
        assert!(current.flaps.is_empty() && current.moves.is_empty());
    }
}
