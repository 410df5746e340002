//! The per-run observability dashboard: `mobicast report`.
//!
//! It runs the two-handoff roaming scenario under every registered
//! delivery policy plus one storm-under-budget overload run, then renders
//! the joined causal dashboard: per-policy handoff interruption
//! percentiles, the slowest episodes with their BU / rejoin / graft phase
//! breakdown, and the overload shed timeline. Artifacts go to `results/`:
//! the dashboard JSON (`report-handoff.json`) plus a Perfetto `trace.json`
//! and an OpenMetrics snapshot per policy. They are committed, and a unit
//! test renders them and requires each equal to its file byte for byte.

use mobicast_core::observability::{self, PolicyHandoffStats};
use mobicast_core::report::Table;
use mobicast_core::router_node::ResourceBudget;
use mobicast_core::scenario::{self, PaperHost, ScenarioConfig};
use mobicast_core::{Policy, RunReport};
use mobicast_net::{FaultPlan, StormModel};
use mobicast_sim::{RateLimit, SimDuration};
use serde::Serialize;
use serde_json::{json, Value};
use std::path::Path;
use std::process::ExitCode;

/// Slowest handoff episodes shown per policy.
const TOP_N: usize = 3;

/// The roaming scenario behind the dashboard: R1 leaves home into the
/// MAP domain, then moves within it (same shape as `handoff_latency`
/// so the dashboard explains the experiment's numbers).
fn handoff_cfg(policy: Policy) -> ScenarioConfig {
    ScenarioConfig::builder()
        .duration(SimDuration::from_secs(240))
        .policy(policy)
        .data_interval(SimDuration::from_millis(250))
        .move_at(60.0, PaperHost::R1, 6)
        .move_at(150.23, PaperHost::R1, 4)
        .name(format!("report-handoff-{}", policy.id()))
        .build()
}

/// A storm under a tight budget, so the shed/overload timeline has
/// something to show.
fn overload_cfg() -> ScenarioConfig {
    ScenarioConfig::builder()
        .duration(SimDuration::from_secs(120))
        .policy(Policy::BIDIRECTIONAL_TUNNEL)
        .fault(FaultPlan {
            storm: StormModel {
                zap_rate: 8.0,
                zap_groups: 16,
                bu_rate: 5.0,
                flap_rate: 1.0,
                flap_hosts: 2,
                start_secs: 5.0,
                end_secs: 60.0,
            },
            ..FaultPlan::default()
        })
        .budget(ResourceBudget {
            mld_listeners: Some(8),
            pim_sg_entries: Some(8),
            binding_cache: Some(4),
            control_rate: Some(RateLimit {
                rate_per_sec: 5.0,
                burst: 10,
            }),
            event_queue_depth: Some(1 << 18),
        })
        .name("report-overload")
        .build()
}

/// Write `content` to `path` (best effort: a failure only warns).
pub fn write_artifact(path: &str, content: &str) {
    let path = Path::new(path);
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(path, content) {
        Ok(()) => eprintln!("(wrote {})", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// `value` as a results file holds it.
pub fn pretty(value: &Value) -> String {
    serde_json::to_string_pretty(value).expect("a JSON value renders")
}

fn opt_ms(v: Option<f64>) -> String {
    v.map_or_else(|| "-".to_owned(), |s| format!("{:.3} ms", s * 1e3))
}

/// The dashboard text and every artifact as (path, contents), unwritten.
fn dashboard() -> (String, Vec<(String, String)>) {
    let mut artifacts = Vec::new();
    let mut sections: Vec<(PolicyHandoffStats, RunReport)> = Vec::new();
    for policy in Policy::all() {
        let cfg = handoff_cfg(policy);
        let r = scenario::run(&cfg);
        let stats =
            observability::policy_handoff_stats(policy.id(), &r.report.observability, TOP_N);
        let id = policy.id();
        let trace = observability::run_perfetto(&cfg.name, &r.report);
        artifacts.push((format!("results/report-{id}.trace.json"), trace));
        let metrics = observability::run_openmetrics(&r.report);
        artifacts.push((format!("results/report-{id}.om.txt"), metrics));
        sections.push((stats, r.report));
    }

    let mut text = String::new();
    let mut table = Table::new(&[
        "policy",
        "handoffs",
        "recovered",
        "interruption p50",
        "p95",
        "p99",
        "max",
    ]);
    for (s, _) in &sections {
        table.row(vec![
            s.policy.clone(),
            s.handoffs.to_string(),
            s.recovered.to_string(),
            format!("{:.3} ms", s.interruption_p50_s * 1e3),
            format!("{:.3} ms", s.interruption_p95_s * 1e3),
            format!("{:.3} ms", s.interruption_p99_s * 1e3),
            format!("{:.3} ms", s.interruption_max_s * 1e3),
        ]);
    }
    text.push_str("per-policy handoff interruption\n");
    text.push_str(&table.render());

    let mut slow = Table::new(&[
        "policy",
        "span",
        "start",
        "interruption",
        "bu",
        "tunnel",
        "rejoin",
        "grafts",
    ]);
    for (s, _) in &sections {
        for row in &s.slowest {
            slow.row(vec![
                s.policy.clone(),
                format!("#{}", row.span),
                format!("{:.2}s", row.start_s),
                opt_ms(row.interruption_s),
                opt_ms(row.phases.bu_s),
                opt_ms(row.phases.tunnel_s),
                opt_ms(row.phases.rejoin_s),
                format!("{} ({})", row.phases.grafts, opt_ms(row.phases.graft_s)),
            ]);
        }
    }
    text.push_str("\nslowest handoffs, causal phase breakdown\n");
    text.push_str(&slow.render());

    // The overload leg: shed/rate-limit totals and the sampled timeline.
    let ov = scenario::run(&overload_cfg());
    let obs = &ov.report.observability;
    let shed_series: Vec<(u64, f64)> = obs
        .timeline
        .get("overload.shed_total")
        .map(|s| s.points.clone())
        .unwrap_or_default();
    let shed_final = shed_series.last().map(|(_, v)| *v).unwrap_or(0.0);
    let rate_limited = ov.report.counters.sum_prefix("overload.rate_limited");
    text.push_str(&format!(
        "\noverload (storm under budget): shed {} state entries, \
         rate-limited {} control messages\n",
        shed_final as u64, rate_limited
    ));
    let mut spark = String::new();
    for (t, v) in shed_series.iter().filter(|(t, _)| t % 15_000_000_000 == 0) {
        spark.push_str(&format!("  {:>4}s {:>6}\n", t / 1_000_000_000, *v as u64));
    }
    if !spark.is_empty() {
        text.push_str("shed timeline (15s ticks)\n");
        text.push_str(&spark);
    }

    let oracle_clean = sections.iter().all(|(_, r)| r.oracle.violations.is_empty())
        && ov.report.oracle.violations.is_empty();
    text.push_str(&format!(
        "\noracle: {}\n",
        if oracle_clean { "clean" } else { "VIOLATIONS" }
    ));

    let doc = json!({
        "policies": sections
            .iter()
            .map(|(s, _)| s.to_json_value())
            .collect::<Vec<_>>(),
        "overload": {
            "shed_total": shed_final,
            "rate_limited": rate_limited,
            "shed_timeline": shed_series,
        },
        "oracle_clean": oracle_clean,
    });
    artifacts.push(("results/report-handoff.json".to_owned(), pretty(&doc)));
    (text, artifacts)
}

pub fn main() -> ExitCode {
    let (text, artifacts) = dashboard();
    print!("{text}");
    for (path, contents) in &artifacts {
        write_artifact(path, contents);
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;
    use std::path::Path;

    /// The committed `results/report-*` files are exactly what `report`
    /// renders, byte for byte.
    #[test]
    fn every_artifact_equals_its_committed_file() {
        let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
        let (_, artifacts) = super::dashboard();
        let differing: Vec<&str> = artifacts
            .iter()
            .filter(|(path, contents)| {
                std::fs::read_to_string(root.join(path)).ok().as_ref() != Some(contents)
            })
            .map(|(path, _)| path.as_str())
            .collect();
        assert!(
            differing.is_empty(),
            "`mobicast report` renders other bytes than the committed {}; if the \
             change is intended, run `mobicast report` and commit results/",
            differing.join(", ")
        );
        let rendered: BTreeSet<String> = artifacts.into_iter().map(|(path, _)| path).collect();
        let committed: BTreeSet<String> = std::fs::read_dir(root.join("results"))
            .expect("the committed results/ directory")
            .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
            .filter(|name| name.starts_with("report-"))
            .map(|name| format!("results/{name}"))
            .collect();
        assert_eq!(
            committed, rendered,
            "a committed report artifact is not rendered, or one rendered is not committed"
        );
    }
}
