//! Chaos harness — randomized fault + mobility schedules under the
//! invariant oracle.
//!
//! Each seed deterministically derives a [`ChaosPlan`](crate::chaos::ChaosPlan)
//! (windowed loss,
//! link flaps, router crash/restart pairs, scripted host moves) which is
//! then run under **every registered delivery policy** with the network-wide
//! invariant oracle enabled. The oracle asserts loop-freedom, bounded
//! duplicate delivery, (S,G) soft-state expiry, the RFC 2710 leave-delay
//! bound, binding-cache freshness and the RFC 2473 encapsulation-depth
//! bound on every run.
//!
//! A violating (seed, approach) pair is not just reported: the plan is
//! greedily shrunk ([`chaos::minimize`]) until no simpler plan still
//! violates, and the minimized reproducible case is embedded in the JSON
//! output. A clean campaign reports `total_violations = 0`, which is what
//! the CI chaos job asserts.

use super::{ExperimentOutput, Settings};
use crate::chaos::{self, SeedOutcome};
use crate::report::{secs, Table};
use crate::strategy::Policy;
use mobicast_sim::parallel::run_ordered;
use serde_json::json;

/// Seeds exercised by the full campaign (the acceptance floor is 50).
const FULL_SEEDS: u64 = 56;
/// Seeds exercised by the quick (tier-1 test) campaign.
const QUICK_SEEDS: u64 = 8;

#[derive(Default, Clone)]
struct ApproachAgg {
    runs: u64,
    violations: u64,
    duplicates: u64,
    max_tunnel_depth: u32,
    worst_leave_delay_secs: f64,
    worst_stale_sg_secs: f64,
}

pub fn run(settings: Settings) -> ExperimentOutput {
    let Settings { quick, workers, .. } = settings;
    let n_seeds = if quick { QUICK_SEEDS } else { FULL_SEEDS };
    let seeds: Vec<u64> = (1..=n_seeds).collect();
    let policies = settings.policies();
    let outcomes: Vec<SeedOutcome> = run_ordered(seeds, workers, |&seed| {
        chaos::check_seed_under(seed, &policies)
    });

    // Aggregate per approach.
    let mut aggs: Vec<(Policy, ApproachAgg)> = policies
        .iter()
        .map(|&s| (s, ApproachAgg::default()))
        .collect();
    for out in &outcomes {
        for v in &out.verdicts {
            let (_, agg) = aggs
                .iter_mut()
                .find(|(s, _)| s.name() == v.approach)
                .expect("verdict for unknown approach");
            agg.runs += 1;
            agg.violations += v.violation_count;
            agg.duplicates += v.duplicates_observed;
            agg.max_tunnel_depth = agg.max_tunnel_depth.max(v.max_tunnel_depth);
            agg.worst_leave_delay_secs = agg.worst_leave_delay_secs.max(v.worst_leave_delay_secs);
            agg.worst_stale_sg_secs = agg.worst_stale_sg_secs.max(v.worst_stale_sg_secs);
        }
    }

    // Any violating (seed, approach) pair gets minimized to a smallest
    // still-violating plan — the reproducible case a fix starts from.
    let mut repros = Vec::new();
    for out in &outcomes {
        for (v, &approach) in out.verdicts.iter().zip(policies.iter()) {
            if v.violation_count > 0 {
                let (min_plan, violations) = chaos::minimize(&out.plan, approach, out.seed);
                repros.push(json!({
                    "seed": out.seed,
                    "approach": approach.name(),
                    "violations": violations,
                    "minimized_plan": min_plan,
                }));
            }
        }
    }
    let total_violations: u64 = outcomes.iter().map(SeedOutcome::violation_count).sum();

    let mut table = Table::new(&[
        "approach",
        "runs",
        "violations",
        "duplicates",
        "max tunnel depth",
        "worst leave delay",
        "worst stale (S,G)",
    ]);
    for (s, agg) in &aggs {
        table.row(vec![
            s.name().to_string(),
            format!("{}", agg.runs),
            format!("{}", agg.violations),
            format!("{}", agg.duplicates),
            format!("{}", agg.max_tunnel_depth),
            secs(agg.worst_leave_delay_secs),
            secs(agg.worst_stale_sg_secs),
        ]);
    }

    let mut text = table.render();
    text.push_str(&format!(
        "\n{} seeds x {} approaches = {} oracle-checked runs; every seed \
         derives a randomized schedule of windowed loss, link flaps, router \
         crash/restart pairs and host moves. Duplicates are transient (PIM-DM \
         assert races after refloods) and legal; the oracle flags only \
         persistent duplication, forwarding loops, unexpired soft state, \
         leave delays beyond the RFC 2710 listener interval and \
         over-deep RFC 2473 encapsulation. total violations: {}.\n",
        n_seeds,
        policies.len(),
        n_seeds as usize * policies.len(),
        total_violations,
    ));
    if !repros.is_empty() {
        text.push_str("VIOLATIONS FOUND — minimized repros are in the JSON output.\n");
    }

    ExperimentOutput {
        id: "chaos",
        title: "Randomized chaos campaign under the invariant oracle".into(),
        json: json!({
            "seeds": n_seeds,
            "total_violations": total_violations,
            "outcomes": outcomes,
            "repros": repros,
        }),
        text,
    }
}
