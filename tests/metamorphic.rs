//! Metamorphic relations: two ways of running the same scenario that must
//! not be distinguishable in anything the run reports. A failure is a
//! dependence on incidental structure that byte-identity against our own
//! previous output cannot see.

mod common;

use common::figure1;
use mobicast::core::oracle::FinalizeParams;
use mobicast::core::scenario::{self, PaperHost, ScenarioConfig};
use mobicast::core::{Oracle, Policy};
use mobicast::net::{ExecPlan, LinkFault, LinkFaultState};
use mobicast::sim::{SimDuration, SimTime};
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
        .build();
    let end = SimTime::ZERO + cfg.duration;
    let mut net = figure1(&cfg);
    if inert_faults {
        // A fault process that never drops, delays or mangles: every
        // transmission still goes out as one queue entry and one frame
        // clone per receiver instead of one fan-out entry.
        for &link in &net.links {
            let rng = SmallRng::seed_from_u64(u64::from(link.0));
            let inert = LinkFaultState::new(LinkFault::default(), rng);
            net.world.set_link_fault(link, Some(inert));
        }
    }
    let oracle = oracle.then(|| Oracle::attach(&mut net.world, net.routers.clone(), end));
    net.world.run(end, &ExecPlan::sequential());
    let verdict = oracle.map(|o| {
        let receivers = PaperHost::ALL
            .iter()
            .zip(&net.hosts)
            .filter(|(h, _)| **h != PaperHost::S)
            .map(|(h, id)| (*id, net.links[h.home_link_index()]))
            .collect();
        let params = FinalizeParams {
            settle: SimTime::from_secs(150),
            t_mli: cfg.mld.multicast_listener_interval(),
            receivers,
            end,
            disturbance_end: Some(SimTime::from_secs(120)),
            reconverge_bound: SimDuration::from_secs(60),
            protected_floor: None,
            protect_window: None,
        };
        let summary = net.recorder.with(|rec| o.finalize(rec, &params));
        assert_eq!(summary.violation_count, 0, "{:?}", summary.violations);
        serde_json::to_string(&summary).unwrap()
    });
    let result = scenario::finish(&cfg, net);
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
