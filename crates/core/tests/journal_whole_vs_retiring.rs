//! Live differential of the journal's horizon: `scenario::run` builds a
//! journal that retires rows as the run goes, `scenario::run_with_recorder`
//! lifts the horizon and keeps them all. On the Figure-1 network with a
//! move, 5 % loss and the oracle on, under every policy, both must report
//! the same bytes — a check against the rows themselves, not against what
//! the previous commit printed. (The stress front-end's twin sits beside
//! `stress::run_stress_with`, whose staging is private.)

use mobicast_core::scenario::{self, PaperHost, ScenarioConfig};
use mobicast_core::Policy;
use mobicast_net::FaultPlan;
use mobicast_sim::Tracer;

fn cfg(policy: Policy, seed: u64) -> ScenarioConfig {
    ScenarioConfig::builder()
        .seed(seed)
        .duration_secs(120)
        .policy(policy)
        .move_at(30.0, PaperHost::R3, 6)
        .move_at(70.0, PaperHost::R3, 3)
        .fault(FaultPlan::iid_loss(0.05))
        .name("whole-vs-retiring")
        .build()
}

#[test]
fn whole_and_retiring_journals_report_the_same_run() {
    let policies = Policy::all();
    assert_eq!(policies.len(), 5);
    for policy in policies {
        for seed in [3, 17, 40] {
            let cfg = cfg(policy, seed);
            assert!(cfg.oracle);
            let retiring = scenario::run(&cfg);
            let (whole, rec) = scenario::run_with_recorder(&cfg);
            let journal = &rec.data_events;
            assert_eq!((journal.retired(), journal.beyond_horizon()), (0, 0));
            assert_eq!(
                serde_json::to_string(&retiring.report).unwrap(),
                serde_json::to_string(&whole.report).unwrap(),
                "{} seed {seed}",
                policy.name()
            );
            assert_eq!(retiring.events_executed, whole.events_executed);

            // `run` really is the retiring side: staged as `run` stages it,
            // most of the journal is gone by the end, none of it missed.
            let (staged, rec) = scenario::stage(&cfg, Tracer::null()).unwrap().run();
            let journal = &rec.data_events;
            assert!(
                journal.retired() * 2 > journal.len(),
                "{}",
                journal.retired()
            );
            assert_eq!(journal.beyond_horizon(), 0);
            assert_eq!(staged.events_executed, whole.events_executed);
        }
    }
}
