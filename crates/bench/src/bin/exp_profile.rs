//! Simulator telemetry benchmark: profiled, trace-exporting runs of the
//! reference scenarios plus the parallel-sweep throughput measurements.
//! Emits `results/BENCH_sim.json` (events/sec, queue high-water mark,
//! per-handler-category latency histograms, overload admission-control
//! activity, serial-vs-parallel speedups) and, per scenario, a
//! schema-validated JSONL trace (`results/trace-<scenario>.jsonl`), a
//! Perfetto/Chrome span timeline (`results/trace-<scenario>.trace.json`)
//! and an OpenMetrics snapshot (`results/metrics-<scenario>.om.txt`).
//! Exits non-zero on any oracle violation, invalid trace line, invalid
//! export, or serial/parallel result divergence, so CI can gate on it.
//!
//! `--check <path>` validates an already-written benchmark file against
//! the expected schema instead of running anything — the CI telemetry
//! job uses it so a missing or malformed `BENCH_sim.json` fails loudly.

use std::process::ExitCode;
use std::time::Instant;

use mobicast_core::router_node::ResourceBudget;
use mobicast_core::scenario::{self, ScenarioConfig};
use mobicast_core::Policy;
use mobicast_net::StormModel;
use mobicast_sim::parallel::{configured_workers, run_ordered};
use mobicast_sim::trace::validate_jsonl_line;
use mobicast_sim::{RateLimit, ShedPolicy};
use serde_json::json;

/// Ring-buffer capacity for the exported trace. Large enough that the
/// reference scenarios never drop events; drops are reported either way.
const TRACE_CAPACITY: usize = 1_000_000;

fn profiled(mut cfg: ScenarioConfig, name: &'static str) -> ScenarioConfig {
    cfg.name = name.into();
    cfg.profile = true;
    cfg.trace_capture = Some(TRACE_CAPACITY);
    cfg.summary = true;
    cfg.oracle = true;
    cfg
}

/// Run one scenario; returns its BENCH_sim entry, or `Err` with a message
/// when the oracle or the trace validation fails.
fn run_one(cfg: &ScenarioConfig) -> Result<serde_json::Value, String> {
    let wall_start = Instant::now();
    let result = scenario::run(cfg);
    let wall_secs = wall_start.elapsed().as_secs_f64();
    let name = &cfg.name;

    if cfg.oracle && !result.report.oracle.violations.is_empty() {
        return Err(format!(
            "{name}: {} oracle violation(s): {:?}",
            result.report.oracle.violations.len(),
            result.report.oracle.violations
        ));
    }

    let trace = result
        .trace_jsonl
        .as_deref()
        .ok_or_else(|| format!("{name}: no trace captured"))?;
    let mut lines = 0u64;
    for (i, line) in trace.lines().enumerate() {
        validate_jsonl_line(line)
            .map_err(|e| format!("{name}: invalid trace line {}: {e}: {line}", i + 1))?;
        lines += 1;
    }
    let path = format!("results/trace-{name}.jsonl");
    std::fs::create_dir_all("results").ok();
    std::fs::write(&path, trace).map_err(|e| format!("{name}: writing {path}: {e}"))?;
    eprintln!(
        "(wrote {path}: {lines} lines, {} dropped)",
        result.trace_dropped
    );

    let profile = result
        .profile
        .ok_or_else(|| format!("{name}: profiling produced no SimProfile"))?;

    // Causal observability artifacts: the run's span timeline + gauge
    // series as a Perfetto/Chrome trace and an OpenMetrics snapshot,
    // validator-checked before they land on disk.
    let obs = &result.report.observability;
    let perfetto_path = format!("results/trace-{name}.trace.json");
    let perfetto = mobicast_core::observability::run_perfetto(name, &result.report);
    mobicast_sim::perfetto::validate_chrome_trace(&perfetto)
        .map_err(|e| format!("{name}: perfetto export invalid: {e}"))?;
    std::fs::write(&perfetto_path, &perfetto)
        .map_err(|e| format!("{name}: writing {perfetto_path}: {e}"))?;
    let om_path = format!("results/metrics-{name}.om.txt");
    let om = mobicast_core::observability::run_openmetrics(&result.report);
    mobicast_sim::openmetrics::validate_openmetrics(&om)
        .map_err(|e| format!("{name}: openmetrics export invalid: {e}"))?;
    std::fs::write(&om_path, &om).map_err(|e| format!("{name}: writing {om_path}: {e}"))?;
    eprintln!(
        "(wrote {perfetto_path} [{} spans] and {om_path} [{} series])",
        obs.spans.len(),
        obs.timeline.len()
    );

    // Admission-control activity: total shed / evicted / rate-limited
    // decisions across all nodes, normalised per simulated second, plus
    // the per-table high-water marks (max over nodes). All-zero on
    // unbudgeted runs — the column existing either way keeps the bench
    // trajectory comparable across runs.
    let node_total =
        |key: &str| -> u64 { result.report.node_stats.values().map(|c| c.get(key)).sum() };
    let node_max = |key: &str| -> u64 {
        result
            .report
            .node_stats
            .values()
            .map(|c| c.get(key))
            .max()
            .unwrap_or(0)
    };
    let overload_events: u64 = [
        "mldReportsShed",
        "mldListenersEvicted",
        "pimSgShed",
        "pimSgEvicted",
        "haBindingsShed",
        "haBindingsEvicted",
        "mldRateLimited",
        "pimRateLimited",
        "buRateLimited",
    ]
    .iter()
    .map(|k| node_total(k))
    .sum();
    let sim_secs = cfg.duration.as_secs_f64();

    Ok(json!({
        "profile": profile,
        "events_executed": result.events_executed,
        "packets_sent": result.sent,
        "wall_secs": wall_secs,
        "events_per_sec": result.events_executed as f64 / wall_secs.max(1e-9),
        "trace_lines": lines,
        "trace_dropped": result.trace_dropped,
        "trace_file": path,
        "observability": {
            "spans": obs.spans.len(),
            "series": obs.timeline.len(),
            "digests": obs.digests.len(),
            "perfetto_file": perfetto_path,
            "openmetrics_file": om_path,
        },
        "overload": {
            "events": overload_events,
            "events_per_sim_sec": overload_events as f64 / sim_secs.max(1e-9),
            "mld_listeners_high_water": node_max("mldListenersHighWater"),
            "pim_sg_high_water": node_max("pimSgHighWater"),
            "binding_cache_high_water": node_max("bindingCacheHighWater"),
        },
    }))
}

/// Peak resident set of this process so far, from `/proc/self/status`
/// `VmHWM` (kB). Zero where the proc filesystem is unavailable.
fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<u64>()
                    .ok()
            })
        })
        .map_or(0, |kb| kb * 1024)
}

/// The compact-state scale section (schema v7): metro-grid stress
/// throughput with peak RSS and the achievable conservative-window
/// speedup, the Helmy aggregation curve (bytes-per-listener vs group
/// sharing, audited against the DESIGN.md model), and the O(1)-poll
/// flatness check — the oracle's 5 s walk counters must not scale with
/// the listener population.
fn scale_section() -> Result<serde_json::Value, String> {
    use mobicast_core::scale;
    use mobicast_core::stress::{run_stress_with, StressRunOptions, StressSpec};

    // Metro throughput: a 1012-router grid, sharded, under the oracle.
    let spec = scale::metro_spec(1_000, 400, 11);
    let wall_start = Instant::now();
    let (report, stats) = run_stress_with(
        &spec,
        &StressRunOptions::sharded(8, 1),
        mobicast_sim::Tracer::null(),
    );
    let wall_secs = wall_start.elapsed().as_secs_f64();
    if report.oracle_violations > 0 {
        return Err(format!(
            "scale: {} oracle violation(s) in {}: {:?}",
            report.oracle_violations, report.name, report.violations
        ));
    }
    let stats = stats.ok_or_else(|| "scale: sharded run reported no stats".to_owned())?;
    eprintln!(
        "[scale] {}: {} events, {:.2}s wall, {:.0} events/sec, \
         achievable speedup {:.2}x over {} shards",
        report.name,
        report.events_executed,
        wall_secs,
        report.events_executed as f64 / wall_secs.max(1e-9),
        stats.achievable_speedup(),
        stats.events_per_shard.len(),
    );

    // The Helmy aggregation curve: 100k listeners on the same 529-link
    // metro, at three group fan-ins. Audited against the documented
    // model; a drift lands in `bytes_per_listener`, which `report --diff`
    // watches.
    let curve = scale::aggregation_curve(100_000, 529);
    for a in &curve {
        let off = (a.measured_bytes as f64 - a.model_bytes as f64) / a.model_bytes as f64;
        if off.abs() > 0.10 {
            return Err(format!(
                "scale: aggregation audit off model by {:.1}% at {} groups",
                off * 100.0,
                a.groups
            ));
        }
        eprintln!(
            "[scale] aggregation: {} groups -> {:.1} bytes/listener \
             ({} MLD rows, {} (S,G) rows)",
            a.groups, a.bytes_per_listener, a.mld_rows, a.sg_rows
        );
    }
    let mem_per_listener = curve
        .last()
        .map(|a| a.bytes_per_listener)
        .unwrap_or(f64::NAN);

    // Poll flatness: quadrupling the listener population must not grow
    // the oracle's per-poll walk footprint — state is per (link, group),
    // and the watermark/epoch guards skip quiescent tables entirely.
    let flat_spec = |receivers: usize| StressSpec {
        name: format!("poll-flatness/{receivers}"),
        receivers,
        movers: 4,
        ..scale::metro_spec(120, receivers, 11)
    };
    let (few, _) = run_stress_with(
        &flat_spec(64),
        &StressRunOptions::default(),
        mobicast_sim::Tracer::null(),
    );
    let (many, _) = run_stress_with(
        &flat_spec(256),
        &StressRunOptions::default(),
        mobicast_sim::Tracer::null(),
    );
    eprintln!(
        "[scale] poll walk: {} entries over {} polls at 64 listeners, \
         {} entries over {} polls at 256",
        few.poll.sg_entries_walked,
        few.poll.router_polls,
        many.poll.sg_entries_walked,
        many.poll.router_polls
    );
    if many.poll.sg_entries_walked as f64 > few.poll.sg_entries_walked as f64 * 1.5 {
        return Err(format!(
            "scale: oracle poll cost scales with listeners \
             ({} -> {} entries walked for 4x listeners)",
            few.poll.sg_entries_walked, many.poll.sg_entries_walked
        ));
    }

    Ok(json!({
        "metro": {
            "name": report.name,
            "routers": report.routers,
            "links": report.links,
            "hosts": report.hosts,
            "events_executed": report.events_executed,
            "wall_secs": wall_secs,
            "events_per_sec": report.events_executed as f64 / wall_secs.max(1e-9),
            "peak_rss_bytes": peak_rss_bytes(),
            "shards": stats.events_per_shard.len(),
            "windows": stats.windows,
            "barrier_syncs": stats.barrier_syncs,
            "critical_path_events": stats.critical_path_events,
            "achievable_speedup": stats.achievable_speedup(),
        },
        "aggregation": curve,
        "mem_per_listener_bytes": mem_per_listener,
        "oracle_poll": {
            "listeners_64": few.poll,
            "listeners_256": many.poll,
            "flat": true,
        },
    }))
}

/// Validate an already-written `BENCH_sim.json` against the expected
/// schema: parseable JSON, the right `schema`/`version` stamp, at least
/// one scenario entry carrying the throughput and overload keys, and the
/// parallel-sweep section. Returns a message describing the first defect.
fn check_bench_file(path: &str) -> Result<(), String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v: serde_json::Value =
        serde_json::from_str(&raw).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
    if v["schema"].as_str() != Some("mobicast-bench-sim") {
        return Err(format!("{path}: wrong or missing schema stamp"));
    }
    if v["version"].as_u64() != Some(7) {
        return Err(format!("{path}: wrong or missing schema version"));
    }
    let scenarios = v["scenarios"]
        .as_object()
        .ok_or_else(|| format!("{path}: no scenarios object"))?;
    if scenarios.is_empty() {
        return Err(format!("{path}: scenarios object empty"));
    }
    for (name, entry) in scenarios {
        for key in [
            "events_per_sec",
            "profile",
            "trace_lines",
            "observability",
            "overload",
        ] {
            if entry.get(key).is_none() {
                return Err(format!("{path}: scenario {name} missing {key}"));
            }
        }
        for key in ["spans", "series", "perfetto_file", "openmetrics_file"] {
            if entry["observability"].get(key).is_none() {
                return Err(format!(
                    "{path}: scenario {name} observability missing {key}"
                ));
            }
        }
        for key in [
            "events",
            "events_per_sim_sec",
            "mld_listeners_high_water",
            "pim_sg_high_water",
            "binding_cache_high_water",
        ] {
            if entry["overload"].get(key).is_none() {
                return Err(format!("{path}: scenario {name} overload missing {key}"));
            }
        }
    }
    if !scenarios.iter().any(|(name, _)| name == "overload") {
        return Err(format!("{path}: no overload scenario entry"));
    }
    if v["parallel"].as_object().is_none_or(|p| p.is_empty()) {
        return Err(format!("{path}: no parallel sweep section"));
    }
    let scale = v
        .get("scale")
        .ok_or_else(|| format!("{path}: no scale section"))?;
    for key in [
        "events_per_sec",
        "peak_rss_bytes",
        "achievable_speedup",
        "events_executed",
    ] {
        if scale["metro"].get(key).is_none() {
            return Err(format!("{path}: scale metro missing {key}"));
        }
    }
    if scale["aggregation"].as_array().is_none_or(Vec::is_empty) {
        return Err(format!("{path}: scale aggregation curve empty"));
    }
    if scale.get("mem_per_listener_bytes").is_none() || scale.get("oracle_poll").is_none() {
        return Err(format!(
            "{path}: scale missing mem_per_listener_bytes/oracle_poll"
        ));
    }
    Ok(())
}

/// Measure one sweep workload serially and in parallel, asserting the two
/// produce byte-identical results (the determinism-parity property) and
/// reporting the wall-clock speedup.
fn sweep_speedup<I, O, F>(name: &str, inputs: Vec<I>, f: F) -> Result<serde_json::Value, String>
where
    I: Sync,
    O: Send + serde::Serialize,
    F: Fn(&I) -> O + Sync,
{
    let workers = configured_workers();
    let n = inputs.len();

    let start = Instant::now();
    let serial = run_ordered(inputs.iter().collect(), 1, |i| f(i));
    let serial_secs = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let parallel = run_ordered(inputs.iter().collect(), workers, |i| f(i));
    let parallel_secs = start.elapsed().as_secs_f64();

    let serial_json = serde_json::to_string(&serial).map_err(|e| e.to_string())?;
    let parallel_json = serde_json::to_string(&parallel).map_err(|e| e.to_string())?;
    if serial_json != parallel_json {
        return Err(format!(
            "{name}: serial and parallel sweep results diverge — determinism broken"
        ));
    }

    let speedup = serial_secs / parallel_secs.max(1e-9);
    eprintln!(
        "[sweep] {name}: {n} runs, serial {serial_secs:.3}s, \
         parallel({workers}) {parallel_secs:.3}s, speedup {speedup:.2}x"
    );
    Ok(json!({
        "runs": n,
        "workers": workers,
        "serial_secs": serial_secs,
        "parallel_secs": parallel_secs,
        "speedup": speedup,
        "identical": true,
    }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--check") {
        let path = args
            .get(i + 1)
            .map(String::as_str)
            .unwrap_or("results/BENCH_sim.json");
        return match check_bench_file(path) {
            Ok(()) => {
                eprintln!("(schema ok: {path})");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("exp_profile --check: {e}");
                ExitCode::FAILURE
            }
        };
    }

    // Figure-1 steady state: the flood-and-prune baseline.
    let fig1 = profiled(
        ScenarioConfig::builder()
            .duration(mobicast_sim::SimDuration::from_secs(180))
            .build(),
        "fig1",
    );

    // A fixed chaos plan: loss + flaps + crashes + roaming under the
    // bidirectional-tunnel approach, the heaviest handler mix.
    let chaos_seed = 7;
    let chaos = profiled(
        mobicast_core::chaos::plan_for_seed(chaos_seed)
            .config(Policy::BIDIRECTIONAL_TUNNEL, chaos_seed),
        "chaos",
    );

    // A guaranteed handoff: Receiver 3 roams to the foreign Link 6 under
    // lossy links, exercising the BU/BAck and tunnel encap/decap trace
    // paths end to end.
    let handoff = profiled(
        ScenarioConfig::builder()
            .duration(mobicast_sim::SimDuration::from_secs(120))
            .policy(Policy::BIDIRECTIONAL_TUNNEL)
            .move_at(40.0, scenario::PaperHost::R3, 6)
            .fault(mobicast_net::FaultPlan::iid_loss(0.02))
            .build(),
        "handoff",
    );

    // A budgeted run under a severe signaling storm: bounded state
    // tables, rate-limited control-plane ingress, R3 roaming after the
    // storm clears — the admission-control hot path under load.
    let overload = profiled(
        ScenarioConfig::builder()
            .duration(mobicast_sim::SimDuration::from_secs(170))
            .policy(Policy::BIDIRECTIONAL_TUNNEL)
            .move_at(100.0, scenario::PaperHost::R3, 6)
            .fault(mobicast_net::FaultPlan {
                storm: StormModel {
                    zap_rate: 8.0,
                    zap_groups: 16,
                    bu_rate: 5.0,
                    flap_rate: 1.0,
                    flap_hosts: 2,
                    start_secs: 10.0,
                    end_secs: 90.0,
                },
                ..mobicast_net::FaultPlan::default()
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
            .reconverge_slo_secs(60.0)
            .protected_floor(0.9)
            .build(),
        "overload",
    );

    let mut scenarios = Vec::new();
    for cfg in [&fig1, &chaos, &handoff, &overload] {
        match run_one(cfg) {
            Ok(entry) => scenarios.push((cfg.name.to_string(), entry)),
            Err(e) => {
                eprintln!("exp_profile: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    // Parallel-sweep throughput: the chaos campaign (the heaviest sweep of
    // the experiment suite) and the large-topology stress workload, each
    // run serially and in parallel with a byte-identity check.
    let chaos_seeds: Vec<u64> = (1..=8).collect();
    let chaos_sweep = match sweep_speedup("chaos_sweep", chaos_seeds, |&seed| {
        mobicast_core::chaos::check_seed(seed)
    }) {
        Ok(entry) => entry,
        Err(e) => {
            eprintln!("exp_profile: {e}");
            return ExitCode::FAILURE;
        }
    };
    let stress_sweep = match sweep_speedup(
        "stress_sweep",
        mobicast_core::stress::specs(false),
        mobicast_core::stress::run_stress,
    ) {
        Ok(entry) => entry,
        Err(e) => {
            eprintln!("exp_profile: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Compact-state scale measurements: metro throughput + peak RSS, the
    // Helmy aggregation curve, and the poll-flatness gate.
    let scale = match scale_section() {
        Ok(entry) => entry,
        Err(e) => {
            eprintln!("exp_profile: {e}");
            return ExitCode::FAILURE;
        }
    };

    let out = json!({
        "schema": "mobicast-bench-sim",
        "version": 7,
        "scenarios": serde_json::Value::Object(scenarios),
        "parallel": {
            "chaos_sweep": chaos_sweep,
            "stress_sweep": stress_sweep,
        },
        "scale": scale,
    });
    mobicast_core::report::write_json("BENCH_sim", &out);
    ExitCode::SUCCESS
}
