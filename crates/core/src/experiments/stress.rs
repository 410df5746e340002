//! Stress experiment — the large-topology scenarios of [`crate::stress`]
//! run as a sweep (grid and tree shapes × LOCAL and bidirectional-tunnel
//! strategies), each under the invariant oracle. The runs fan out over the
//! worker pool like every other sweep, and the report is fully
//! deterministic (event counts, deliveries, state peaks — never
//! wall-clock), so it participates in the determinism-parity harness.
//! The simulator's wall-clock throughput is the repo benchmark's to
//! measure (`benchmark/`, whose `metro_*` workloads run these grids).

use super::ExperimentOutput;
use crate::report::Table;
use crate::stress::{self, StressReport};
use crate::sweep;
use serde_json::json;

pub fn run(quick: bool) -> ExperimentOutput {
    let specs = stress::specs(quick);
    let reports: Vec<StressReport> =
        sweep::run_parallel(specs, sweep::default_workers(), stress::run_stress);

    let mut table = Table::new(&[
        "scenario",
        "routers",
        "links",
        "hosts",
        "moves",
        "events",
        "sent",
        "delivered",
        "dup",
        "peak (S,G)",
        "violations",
    ]);
    let mut total_violations = 0u64;
    for r in &reports {
        total_violations += r.oracle_violations;
        table.row(vec![
            r.name.clone(),
            format!("{}", r.routers),
            format!("{}", r.links),
            format!("{}", r.hosts),
            format!("{}", r.moves),
            format!("{}", r.events_executed),
            format!("{}", r.packets_sent),
            format!("{}", r.first_copy_deliveries),
            format!("{}", r.duplicate_deliveries),
            format!("{}", r.max_router_sg_entries),
            format!("{}", r.oracle_violations),
        ]);
    }

    let mut text = table.render();
    text.push_str(&format!(
        "\nGrid shapes are heavily multipath (every inner face is a cycle), \
         so the flood arrives over parallel paths and the Assert election \
         runs network-wide; tree shapes scale the prune/graft machinery \
         over {} links. Roaming receivers follow seed-derived schedules. \
         total violations: {total_violations}.\n",
        reports.last().map(|r| r.links).unwrap_or(0),
    ));

    ExperimentOutput {
        id: "stress",
        title: "Large-topology stress under the invariant oracle".into(),
        json: json!({ "scenarios": reports, "total_violations": total_violations }),
        text,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_stress_experiment_is_clean_and_deterministic() {
        let a = run(true);
        assert_eq!(a.json["total_violations"].as_u64(), Some(0));
        let b = sweep::with_workers(1, || run(true));
        assert_eq!(
            serde_json::to_string(&a.json).unwrap(),
            serde_json::to_string(&b.json).unwrap(),
            "serial and parallel stress runs must agree byte-for-byte"
        );
    }
}
