//! Per-run observability dashboard and regression gate.
//!
//! Default mode runs the two-handoff roaming scenario under every
//! registered delivery policy plus one storm-under-budget overload run,
//! then renders the joined causal dashboard: per-policy handoff
//! interruption percentiles, the slowest episodes with their BU / rejoin
//! / graft phase breakdown, and the overload shed timeline. Artifacts go
//! to `results/`: the dashboard JSON plus a Perfetto `trace.json` and an
//! OpenMetrics snapshot per policy.
//!
//! ```text
//! mobicast report                   # dashboard + artifacts
//! mobicast report --diff OLD.json NEW.json [--threshold 0.2]
//! mobicast report --check           # exports match the committed goldens
//! mobicast report --diff-selftest   # the gate flags an injected regression
//! ```
//!
//! `--diff` exits non-zero when any watched metric (interruption times,
//! delivery quantities) drifts beyond the threshold; identical inputs
//! always pass. `--check` re-runs the fixed golden scenario and compares
//! the exports byte-for-byte against `crates/core/tests/goldens/`.

use crate::cli::ReportMode;
use mobicast_core::observability::{self, PolicyHandoffStats, DEFAULT_DRIFT_THRESHOLD};
use mobicast_core::report::Table;
use mobicast_core::router_node::ResourceBudget;
use mobicast_core::scenario::{self, PaperHost, ScenarioConfig};
use mobicast_core::{Policy, RunReport};
use mobicast_net::{FaultPlan, StormModel};
use mobicast_sim::{RateLimit, ShedPolicy, SimDuration};
use serde::Serialize;
use serde_json::{json, Value};
use std::path::{Path, PathBuf};
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
            shed_policy: ShedPolicy::RejectNew,
            control_rate: Some(RateLimit {
                rate_per_sec: 5.0,
                burst: 10,
            }),
            event_queue_depth: Some(1 << 18),
        })
        .name("report-overload")
        .build()
}

pub fn write_artifact(path: &Path, content: &str) {
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(path, content) {
        Ok(()) => eprintln!("(wrote {})", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

fn opt_ms(v: Option<f64>) -> String {
    v.map_or_else(|| "-".to_owned(), |s| format!("{:.3} ms", s * 1e3))
}

fn dashboard() -> (String, Value) {
    let mut sections: Vec<(PolicyHandoffStats, RunReport)> = Vec::new();
    for policy in Policy::all() {
        let cfg = handoff_cfg(policy);
        let r = scenario::run(&cfg);
        let stats =
            observability::policy_handoff_stats(policy.id(), &r.report.observability, TOP_N);
        write_artifact(
            &PathBuf::from(format!("results/report-{}.trace.json", policy.id())),
            &observability::run_perfetto(&cfg.name, &r.report),
        );
        write_artifact(
            &PathBuf::from(format!("results/report-{}.om.txt", policy.id())),
            &observability::run_openmetrics(&r.report),
        );
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
    (text, doc)
}

fn goldens_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../core/tests/goldens")
}

/// `--check`: the golden scenario's exports must match the committed
/// goldens byte for byte (the same contract the core test enforces, but
/// runnable anywhere the CLI is).
fn check() -> ExitCode {
    let cfg = observability::golden_scenario();
    let r = scenario::run(&cfg);
    let mut ok = true;
    for (name, got) in [
        (
            "golden-observability.trace.json",
            observability::run_perfetto(&cfg.name, &r.report),
        ),
        (
            "golden-observability.om.txt",
            observability::run_openmetrics(&r.report),
        ),
    ] {
        let path = goldens_dir().join(name);
        match std::fs::read_to_string(&path) {
            Ok(want) if want == got => println!("ok: {name}"),
            Ok(_) => {
                eprintln!(
                    "MISMATCH: {name} (regenerate with MOBICAST_UPDATE_GOLDENS=1 \
                     cargo test -p mobicast-core --test golden_observability)"
                );
                ok = false;
            }
            Err(e) => {
                eprintln!("cannot read {}: {e}", path.display());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn diff(old_path: &str, new_path: &str, threshold: f64) -> ExitCode {
    let load = |p: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{p}: not valid JSON: {e}"))
    };
    let (old, new) = match (load(old_path), load(new_path)) {
        (Ok(o), Ok(n)) => (o, n),
        (o, n) => {
            for r in [o, n] {
                if let Err(e) = r {
                    eprintln!("report --diff: {e}");
                }
            }
            return ExitCode::FAILURE;
        }
    };
    let flags = observability::diff_report_values(&old, &new, threshold);
    if flags.is_empty() {
        println!(
            "no watched metric drifted beyond {:.0}% ({old_path} vs {new_path})",
            threshold * 100.0
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "regression gate: {} watched metric(s) drifted beyond {:.0}%:",
            flags.len(),
            threshold * 100.0
        );
        for f in &flags {
            eprintln!("  {f}");
        }
        ExitCode::FAILURE
    }
}

/// `--diff-selftest`: prove the gate flags an injected 25 % interruption
/// regression and passes identical inputs — the CI sanity check for the
/// gate itself.
fn diff_selftest() -> ExitCode {
    let base = json!({
        "policies": [{
            "policy": "bidir-tunnel",
            "interruption_p95_s": 1.0,
            "interruption_p99_s": 1.4,
        }],
        "overload": { "shed_total": 12.0 },
    });
    if !observability::diff_report_values(&base, &base, DEFAULT_DRIFT_THRESHOLD).is_empty() {
        eprintln!("selftest: identical inputs flagged");
        return ExitCode::FAILURE;
    }
    let mut worse = base.clone();
    worse["policies"][0]["interruption_p95_s"] = json!(1.25);
    let flags = observability::diff_report_values(&base, &worse, DEFAULT_DRIFT_THRESHOLD);
    if flags.len() != 1 || !flags[0].contains("interruption_p95_s") {
        eprintln!("selftest: injected 25% regression not flagged: {flags:?}");
        return ExitCode::FAILURE;
    }
    println!("diff gate selftest: ok");
    ExitCode::SUCCESS
}

pub fn main(mode: ReportMode) -> ExitCode {
    match mode {
        ReportMode::Check => check(),
        ReportMode::DiffSelftest => diff_selftest(),
        ReportMode::Diff {
            old,
            new,
            threshold,
        } => diff(&old, &new, threshold),
        ReportMode::Dashboard => {
            let (text, doc) = dashboard();
            print!("{text}");
            mobicast_core::report::write_json("report-handoff", &doc);
            ExitCode::SUCCESS
        }
    }
}
