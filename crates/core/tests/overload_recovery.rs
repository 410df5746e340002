//! Drop-first recovery for the control-plane rate limiter: with a
//! burst-1 token bucket refilling slower than the protocols signal,
//! *legitimate* MLD Reports and PIM Grafts get absorbed by the bucket —
//! and the protocols' own retransmission machinery (the unsolicited
//! report burst and query responses for MLD, the graft-retry timer for
//! PIM-DM) must recover every one of them. The run ends with delivery
//! fully re-established, zero oracle violations (in particular no
//! stale-forwarding / leave-delay violation from a dropped Done or
//! prune) and the reconvergence SLO met.

use mobicast_core::router_node::ResourceBudget;
use mobicast_core::scenario::{PaperHost, ScenarioConfig};
use mobicast_core::{scenario, strategy::Policy};
use mobicast_sim::{RateLimit, SimDuration};

fn starved_budget(rate_per_sec: f64) -> ResourceBudget {
    ResourceBudget {
        // Tables unbounded: only the ingress bucket is under test.
        mld_listeners: None,
        pim_sg_entries: None,
        binding_cache: None,
        control_rate: Some(RateLimit {
            rate_per_sec,
            burst: 1,
        }),
        event_queue_depth: None,
    }
}

#[test]
fn dropped_control_messages_are_recovered_by_retransmission() {
    let cfg = ScenarioConfig::builder()
        .seed(3)
        .duration(SimDuration::from_secs(150))
        .policy(Policy::BIDIRECTIONAL_TUNNEL)
        .move_at(30.0, PaperHost::R3, 6)
        // One token per 2 s: the initial join flurry (MLD Report, then
        // the data-driven Graft seconds later) cannot fit in the bucket,
        // so legitimate messages are dropped at every router and must
        // come back via retransmission. (Starving harder than this can
        // eat a prune-override Join, which has no retry of its own and
        // pins the upstream pruned past the end of the run — the timer
        // retransmissions under test here are MLD's unsolicited-report
        // burst and PIM's graft-retry.)
        .budget(starved_budget(0.5))
        .name("overload-recovery")
        .build();
    let r = scenario::run(&cfg);

    let node_total = |key: &str| -> u64 { r.report.node_stats.values().map(|c| c.get(key)).sum() };

    // The bucket actually dropped legitimate signalling (there is no
    // storm in this run — every message is legitimate).
    let mld_dropped = node_total("mldRateLimited");
    let pim_dropped = node_total("pimRateLimited");
    assert!(
        mld_dropped > 0,
        "burst-1 bucket never dropped an MLD report"
    );
    assert!(
        pim_dropped > 0,
        "burst-1 bucket never dropped a PIM message"
    );

    // Retransmission recovered all of it: every receiver ends up with
    // data flowing and the post-move reconvergence SLO is met.
    for h in ["R1", "R2", "R3"] {
        assert!(r.received[h] > 0, "{h} never recovered delivery");
    }
    assert_eq!(
        r.report.oracle.reconverge_ok,
        Some(true),
        "delivery did not reconverge after rate-limit drops: {:?} s",
        r.report.oracle.reconverge_secs
    );

    // No protocol-state damage: in particular no stale-forwarding /
    // leave-delay violation from a dropped Done or Prune, no loops, no
    // persistent duplicates from a dropped Assert.
    assert_eq!(
        r.report.oracle.violation_count, 0,
        "{:?}",
        r.report.oracle.violations
    );
}

#[test]
fn generous_bucket_drops_nothing() {
    // Control: the same scenario with a bucket faster than the signalling
    // rate must not drop a single message — the limiter is inert on a
    // healthy control plane.
    let cfg = ScenarioConfig::builder()
        .seed(3)
        .duration(SimDuration::from_secs(150))
        .policy(Policy::BIDIRECTIONAL_TUNNEL)
        .move_at(30.0, PaperHost::R3, 6)
        .budget(ResourceBudget {
            control_rate: Some(RateLimit {
                rate_per_sec: 50.0,
                burst: 100,
            }),
            ..ResourceBudget::default()
        })
        .name("overload-recovery-control")
        .build();
    let r = scenario::run(&cfg);
    let node_total = |key: &str| -> u64 { r.report.node_stats.values().map(|c| c.get(key)).sum() };
    assert_eq!(node_total("mldRateLimited"), 0);
    assert_eq!(node_total("pimRateLimited"), 0);
    assert_eq!(node_total("buRateLimited"), 0);
    assert_eq!(
        r.report.oracle.violation_count, 0,
        "{:?}",
        r.report.oracle.violations
    );
}
