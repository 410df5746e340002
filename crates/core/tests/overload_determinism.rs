//! Deterministic-admission property: admission control is part of the
//! simulator's determinism contract. For any seed and storm intensity,
//! re-running the same budgeted scenario must reproduce the *identical*
//! sequence of admission decisions — every shed and rate-limit drop at
//! the same simulated time, on the same node, with the same arguments —
//! and identical ground-truth counters. A divergence would mean
//! iteration order or wall-clock leaked into the shedding path, which
//! would break sweep reproducibility and golden results. On failure the proptest
//! shim shrinks the integers toward zero, yielding a minimal
//! seed/intensity pair.

use mobicast_core::router_node::ResourceBudget;
use mobicast_core::scenario::{self, PaperHost, ScenarioConfig};
use mobicast_core::strategy::Policy;
use mobicast_net::{FaultPlan, StormModel};
use mobicast_sim::{RateLimit, RingBufferTracer, SimDuration, TraceCategory};
use proptest::prelude::*;
use std::fmt::Write as _;

/// Run one budgeted storm scenario and return (admission-decision
/// transcript, ground-truth counter transcript). Both are rendered to
/// strings so a mismatch diffs cleanly.
fn run_case(seed: u64, zap_rate: f64, zap_groups: u32, bu_rate: f64) -> (String, String) {
    let (tracer, ring) = RingBufferTracer::new(1_000_000);
    let cfg = ScenarioConfig::builder()
        .seed(seed)
        .duration(SimDuration::from_secs(100))
        .policy(Policy::BIDIRECTIONAL_TUNNEL)
        .move_at(70.0, PaperHost::R3, 6)
        .fault(FaultPlan {
            storm: StormModel {
                zap_rate,
                zap_groups,
                bu_rate,
                flap_rate: 1.0,
                flap_hosts: 2,
                start_secs: 5.0,
                end_secs: 60.0,
            },
            ..FaultPlan::default()
        })
        .budget(ResourceBudget {
            mld_listeners: Some(4),
            pim_sg_entries: Some(4),
            binding_cache: Some(2),
            control_rate: Some(RateLimit {
                rate_per_sec: 4.0,
                burst: 8,
            }),
            event_queue_depth: None,
        })
        .name(format!("overload-determinism-seed{seed}"))
        .build();
    let (r, _) = scenario::stage(&cfg, tracer)
        .expect("the storm scenario stages")
        .run();

    let mut transcript = String::new();
    for ev in ring.drain() {
        if ev.category != TraceCategory::Overload {
            continue;
        }
        let _ = write!(transcript, "{} n{} {}", ev.at.as_nanos(), ev.node, ev.kind);
        for (k, v) in &ev.fields {
            let _ = write!(transcript, " {k}={v}");
        }
        transcript.push('\n');
    }

    let mut counters = String::new();
    for (k, v) in r.report.counters.iter() {
        if k.starts_with("overload.") {
            let _ = writeln!(counters, "{k}={v}");
        }
    }
    (transcript, counters)
}

proptest! {
    #[test]
    fn admission_decisions_are_deterministic_per_seed(
        seed in 0u64..1000,
        zap_rate_x10 in 10u32..80,
        zap_groups in 4u32..16,
        bu_rate_x10 in 0u32..40,
    ) {
        let zap_rate = f64::from(zap_rate_x10) / 10.0;
        let bu_rate = f64::from(bu_rate_x10) / 10.0;
        let (tr_a, ct_a) = run_case(seed, zap_rate, zap_groups, bu_rate);
        let (tr_b, ct_b) = run_case(seed, zap_rate, zap_groups, bu_rate);
        prop_assert_eq!(&tr_a, &tr_b, "admission-decision transcripts diverge");
        prop_assert_eq!(&ct_a, &ct_b, "ground-truth counters diverge");
        // A storm this size against these budgets must actually exercise
        // the admission path — an empty transcript would make the
        // property vacuous.
        prop_assert!(!tr_a.is_empty(), "no admission decisions recorded");
    }
}
