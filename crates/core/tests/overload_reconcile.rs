//! Reconciliation for the overload/admission-control model: every per-node
//! MIB counter the budgeted tables keep (sheds, rate-limit drops), summed
//! over the per-node snapshot, must equal the run total the name table
//! folds it into — every admission decision is counted once, under its own
//! decision path — and the high-water gauges must respect the configured
//! budgets at every router.

use mobicast_core::router_node::ResourceBudget;
use mobicast_core::scenario::{PaperHost, ScenarioConfig};
use mobicast_core::{scenario, strategy::Policy};
use mobicast_net::{FaultPlan, StormModel};
use mobicast_sim::{RateLimit, SimDuration};

/// (per-node MIB counter, run total) pairs that must agree — one per
/// admission-control decision path.
const OVERLOAD_PAIRS: [(&str, &str); 6] = [
    ("mldReportsShed", "overload.mld_listeners_shed"),
    ("pimSgShed", "overload.pim_sg_shed"),
    ("haBindingsShed", "overload.ha_bindings_shed"),
    ("mldRateLimited", "overload.rate_limited.mld"),
    ("pimRateLimited", "overload.rate_limited.pim"),
    ("buRateLimited", "overload.rate_limited.bu"),
];

fn storm() -> StormModel {
    StormModel {
        zap_rate: 8.0,
        zap_groups: 16,
        bu_rate: 5.0,
        flap_rate: 1.0,
        flap_hosts: 2,
        start_secs: 10.0,
        end_secs: 90.0,
    }
}

fn budget() -> ResourceBudget {
    ResourceBudget {
        mld_listeners: Some(6),
        pim_sg_entries: Some(6),
        binding_cache: Some(2),
        control_rate: Some(RateLimit {
            rate_per_sec: 5.0,
            burst: 10,
        }),
        event_queue_depth: None,
    }
}

#[test]
fn overload_counters_reconcile_under_reject_new() {
    let cfg = ScenarioConfig::builder()
        .seed(7)
        .duration(SimDuration::from_secs(170))
        .policy(Policy::BIDIRECTIONAL_TUNNEL)
        .move_at(100.0, PaperHost::R3, 6)
        .fault(FaultPlan {
            storm: storm(),
            ..FaultPlan::default()
        })
        .budget(budget())
        .name("overload-reconcile-reject")
        .build();
    let r = scenario::run(&cfg);

    let node_total = |key: &str| -> u64 { r.report.node_stats.values().map(|c| c.get(key)).sum() };

    // The run's totals are the per-node counts — per decision path, not
    // just in total.
    for (mib, truth) in OVERLOAD_PAIRS {
        assert_eq!(
            node_total(mib),
            r.report.counters.get(truth),
            "{mib} diverges from the run total {truth}"
        );
    }

    // High-water gauges respect the budget on every router individually.
    let b = budget();
    for (node, counters) in &r.report.node_stats {
        let checks = [
            ("mldListenersHighWater", b.mld_listeners.unwrap()),
            ("pimSgHighWater", b.pim_sg_entries.unwrap()),
            ("bindingCacheHighWater", b.binding_cache.unwrap()),
        ];
        for (gauge, cap) in checks {
            assert!(
                counters.get(gauge) <= u64::from(cap),
                "{node}: {gauge} {} exceeds budget {cap}",
                counters.get(gauge)
            );
        }
    }

    // The storm actually overflowed the budgets and tripped the bucket.
    assert!(node_total("mldReportsShed") > 0, "storm shed nothing");
    assert!(
        node_total("mldRateLimited") + node_total("pimRateLimited") + node_total("buRateLimited")
            > 0,
        "storm never tripped the token bucket"
    );
    // Admission control must not corrupt the protocol state machines.
    assert_eq!(
        r.report.oracle.violation_count, 0,
        "{:?}",
        r.report.oracle.violations
    );
}
