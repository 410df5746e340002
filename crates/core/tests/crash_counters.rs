//! Counters across a router crash: router D of Figure 1 crashes at 40 s
//! and restarts blank at 50 s in a 150 s run. The run's counters must
//! still hold everything D counted before it died, and its per-node
//! snapshot only what the restarted stack counted — both pinned byte for
//! byte as `goldens/golden-crash-counters.json`.
//!
//! To regenerate after an *intentional* behavior change:
//! `MOBICAST_UPDATE_GOLDENS=1 cargo test -p mobicast-core --test crash_counters`
//! and commit the diff.

use mobicast_core::scenario::{self, ScenarioConfig};
use mobicast_net::{FaultPlan, RouterCrash};
use std::path::PathBuf;

#[test]
fn a_crashed_routers_counts_survive_in_the_run_totals() {
    let plan = FaultPlan {
        crashes: vec![RouterCrash {
            router: 3,
            crash_at_secs: 40.0,
            restart_at_secs: 50.0,
        }],
        ..FaultPlan::default()
    };
    let cfg = ScenarioConfig::builder()
        .duration_secs(150)
        .fault(plan)
        .build();
    let report = scenario::run(&cfg).report;
    let got = format!(
        "{}\n{}\n",
        serde_json::to_string(&report.counters).unwrap(),
        serde_json::to_string(&report.node_stats).unwrap()
    );

    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/golden-crash-counters.json");
    if std::env::var_os("MOBICAST_UPDATE_GOLDENS").is_some() {
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden {} ({e}); regenerate with MOBICAST_UPDATE_GOLDENS=1",
            path.display()
        )
    });
    // Line 1 is the run's counters, line 2 the per-node snapshot.
    for (i, (got, want)) in got.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "line {} diverges from the golden", i + 1);
    }
    assert_eq!(got, golden);
}
