//! Metamorphic relations: two ways of running the same scenario that must
//! not be distinguishable in anything the run reports. A failure is a
//! dependence on incidental structure that byte-identity against our own
//! previous output cannot see.

use mobicast::core::scenario::{self, PaperHost, ScenarioConfig};
use mobicast::core::Policy;
use mobicast::net::{LinkFault, LinkFaultState};
use mobicast::sim::Tracer;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Everything one run reports: the serialized `RunReport`, the oracle's
/// verdict (when one watched) and the event count.
fn outcome(policy: Policy, inert_faults: bool, oracle: bool) -> (String, Option<String>, u64) {
    let cfg = ScenarioConfig::builder()
        .seed(7)
        .duration_secs(200)
        .policy(policy)
        .move_at(60.0, PaperHost::R3, 6)
        .move_at(120.0, PaperHost::S, 6)
        .oracle(oracle)
        .build();
    let mut staged = scenario::stage(&cfg, Tracer::null()).expect("a valid scenario");
    if inert_faults {
        // A fault process that never drops, delays or mangles: every
        // transmission still goes out as one queue entry and one frame
        // clone per receiver instead of one fan-out entry.
        let net = staged.net();
        for &link in &net.links {
            let rng = SmallRng::seed_from_u64(u64::from(link.0));
            let inert = LinkFaultState::new(LinkFault::default(), rng);
            net.world.set_link_fault(link, Some(inert));
        }
    }
    let (result, _) = staged.run();
    let verdict = oracle.then(|| {
        let summary = &result.report.oracle;
        assert_eq!(summary.violation_count, 0, "{:?}", summary.violations);
        serde_json::to_string(summary).unwrap()
    });
    assert!(result.sent > 0 && result.events_executed > 5_000);
    (
        serde_json::to_string(&result.report).unwrap(),
        verdict,
        result.events_executed,
    )
}

/// An inert `LinkFaultState` on every link — one queue entry and one frame
/// clone per receiver copy — reports byte for byte what the fault-free
/// fan-out path reports, under every delivery policy, watched by the
/// oracle or not.
#[test]
fn inert_link_faults_change_nothing_a_run_reports() {
    for policy in Policy::active() {
        for oracle in [false, true] {
            let fan_out = outcome(policy, false, oracle);
            let per_copy = outcome(policy, true, oracle);
            assert_eq!(fan_out.1.is_some(), oracle);
            assert_eq!(fan_out, per_copy, "{policy:?}, oracle {oracle}");
        }
    }
}
