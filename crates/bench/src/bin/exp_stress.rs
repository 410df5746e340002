//! Large-topology stress experiment: grids and trees of 100+ routers with
//! many roaming receivers, every run under the invariant oracle. Pass
//! `--quick` for small debug-friendly shapes, `--workers N` / `--serial`
//! to pin the sweep worker pool, `--approach <id>` to stress a single
//! delivery policy.
//!
//! `--routers N` switches to a single metro-grid run of (at least) N
//! routers under a sharded plan — e.g. `exp_stress --routers 10000
//! --receivers 200` — reporting events/sec, the shard schedule and the
//! achievable conservative-parallel speedup. `--receivers M` tunes the
//! run; its deterministic report and schedule land in
//! `results/stress_metro.json`, its wall time is printed only.

use std::process::ExitCode;
use std::time::Instant;

use mobicast_core::stress::{run_stress_with, StressRunOptions};
use serde_json::json;

/// Shard count for the metro run: enough regions that the schedule is
/// interesting, few enough that every shard holds real work.
const METRO_SHARDS: usize = 16;

fn run_metro(routers: usize) -> ExitCode {
    let receivers = mobicast_bench::receivers_flag().unwrap_or(200);
    let spec = mobicast_core::scale::metro_spec(routers, receivers, 11);
    eprintln!(
        "(metro run: {} with {receivers} receivers, {METRO_SHARDS} shards)",
        spec.name
    );

    let opts = StressRunOptions::sharded(METRO_SHARDS, 1);
    let wall_start = Instant::now();
    let (report, stats) = run_stress_with(&spec, &opts, mobicast_sim::Tracer::null());
    let wall_secs = wall_start.elapsed().as_secs_f64();

    let events_per_sec = report.events_executed as f64 / wall_secs.max(1e-9);
    println!(
        "{}: {} routers / {} links / {} hosts",
        report.name, report.routers, report.links, report.hosts
    );
    println!(
        "  {} events in {wall_secs:.2}s wall = {events_per_sec:.0} events/sec",
        report.events_executed
    );
    if let Some(s) = &stats {
        println!(
            "  schedule: {} windows, {} barrier syncs, critical path {} events, \
             achievable speedup {:.2}x",
            s.windows,
            s.barrier_syncs,
            s.critical_path_events,
            s.achievable_speedup()
        );
    }
    println!(
        "  delivery: {} packets, {} first-copy deliveries, {} duplicates; \
         oracle violations: {}",
        report.packets_sent,
        report.first_copy_deliveries,
        report.duplicate_deliveries,
        report.oracle_violations
    );

    let out = json!({
        "spec": {
            "name": report.name,
            "routers": report.routers,
            "links": report.links,
            "hosts": report.hosts,
            "receivers": receivers,
            "shards": METRO_SHARDS,
        },
        "events_executed": report.events_executed,
        "shard_stats": stats,
        "report": report,
    });
    mobicast_core::report::write_json("stress_metro", &out);

    if report.oracle_violations > 0 {
        eprintln!(
            "exp_stress: {} oracle violation(s): {:?}",
            report.oracle_violations, report.violations
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let quick = mobicast_bench::quick_flag();
    if let Some(workers) = mobicast_bench::workers_flag() {
        mobicast_core::sweep::set_worker_override(Some(workers));
    }
    if let Some(policy) = mobicast_bench::approach_flag() {
        mobicast_core::strategy::set_approach_override(Some(policy));
        eprintln!("(stressing approach {})", policy.id());
    }
    if let Some(routers) = mobicast_bench::routers_flag() {
        return run_metro(routers);
    }
    mobicast_bench::emit(&mobicast_core::experiments::stress::run(quick));
    ExitCode::SUCCESS
}
