//! `mobicast`, the one command line of the reproduction: every experiment
//! of `mobicast_core::experiments::REGISTRY` (one per table/figure of the
//! paper, see DESIGN.md), `all` of them, the metro stress run, `explain`,
//! `report`, `stages` and `mutants` (usage: [`cli::USAGE`]). E.g.
//! `cargo run --release -p mobicast-bench -- fig2 --quick` prints the
//! paper-style table and writes `results/fig2.json`, deterministic bytes
//! only. The simulator's own speed is the repo benchmark's (`benchmark/`).

mod cli;
mod explain;
mod mutants;
mod report;
mod stages;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use mobicast_core::experiments::{self, ExperimentOutput, Settings};
use mobicast_core::stress::{run_stress_with, StressRunOptions};
use mobicast_core::Policy;
use serde_json::{json, Value};

use cli::Command;

/// The totals an experiment's JSON may carry that must be zero: oracle
/// violations, reconvergence-SLO misses, protected-flow floor misses.
const GATED: [&str; 3] = ["total_violations", "total_slo_misses", "total_floor_misses"];

/// Shard count for the metro run: enough regions that the schedule is
/// interesting, few enough that every shard holds real work.
const METRO_SHARDS: usize = 16;

/// The gated totals an experiment's `json` reports above zero, as
/// `key = n`.
fn misses(json: &Value) -> Vec<String> {
    GATED
        .iter()
        .filter_map(|&key| {
            let n = json[key].as_u64()?;
            (n > 0).then(|| format!("{key} = {n}"))
        })
        .collect()
}

/// Print `out` and write `results/<id>.json`; `false` when it reports a
/// gated total above zero.
fn emit(out: &ExperimentOutput) -> bool {
    println!("{out}");
    mobicast_core::report::write_json(out.id, &out.json);
    let misses = misses(&out.json);
    if !misses.is_empty() {
        let id = out.id;
        eprintln!("{id}: {} — see results/{id}.json", misses.join(", "));
    }
    misses.is_empty()
}

fn exit(passed: bool) -> ExitCode {
    if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every experiment in registry order, archiving every table to
/// `results/exp_all_output.txt` and printing a per-experiment wall-clock
/// summary, which stays out of the archive so the file is byte-identical
/// across reruns.
fn all(settings: Settings) -> ExitCode {
    let mut archive = String::new();
    let mut summary = String::from("== timing — wall-clock per experiment ==\n");
    let mut passed = true;
    let all_start = Instant::now();
    for (id, run) in experiments::REGISTRY {
        let start = Instant::now();
        let out = run(settings);
        let secs = start.elapsed().as_secs_f64();
        let _ = writeln!(summary, "{id:<14} {secs:>8.3}s");
        passed &= emit(&out);
        println!();
        let _ = writeln!(archive, "{out}");
    }
    let total = all_start.elapsed().as_secs_f64();
    let _ = writeln!(summary, "{:<14} {total:>8.3}s", "total");
    print!("{summary}");
    report::write_artifact(Path::new("results/exp_all_output.txt"), &archive);
    exit(passed)
}

/// One metro-grid run of (at least) `routers` routers under a sharded plan,
/// reporting events/sec, the shard schedule and the achievable
/// conservative-parallel speedup. Its deterministic report and schedule
/// land in `results/stress_metro.json`; its wall time is printed only.
fn metro(routers: usize, receivers: usize) -> ExitCode {
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
            "stress: {} oracle violation(s): {:?}",
            report.oracle_violations, report.violations
        );
    }
    exit(report.oracle_violations == 0)
}

fn main() -> ExitCode {
    let (command, settings) = match cli::parse(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("mobicast: {}\n\n{}", e.0, cli::USAGE);
            return ExitCode::from(2);
        }
    };
    match command {
        Command::Experiment((_, run)) => exit(emit(&run(settings))),
        Command::All => all(settings),
        Command::Metro { routers, receivers } => metro(routers, receivers),
        Command::Explain { pkt, list } => {
            let policy = settings.approach.unwrap_or(Policy::BIDIRECTIONAL_TUNNEL);
            explain::main(policy, pkt, list)
        }
        Command::Report(mode) => report::main(mode),
        Command::Stages { seed, workload } => {
            stages::main(seed, workload);
            ExitCode::SUCCESS
        }
        Command::Mutants { ledger } => mutants::main(ledger),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One rule for every experiment: each gated total above zero fails
    /// the run, and a total an experiment does not report is no miss.
    #[test]
    fn the_exit_gate_fails_on_every_gated_total() {
        assert!(misses(&json!({ "total_violations": 0, "total_slo_misses": 0 })).is_empty());
        assert!(misses(&json!({ "scores": [] })).is_empty());
        for key in ["total_violations", "total_slo_misses", "total_floor_misses"] {
            let mut json = json!({
                "total_violations": 0,
                "total_slo_misses": 0,
                "total_floor_misses": 0,
            });
            json[key] = json!(2);
            assert_eq!(misses(&json), vec![format!("{key} = 2")]);
        }
    }
}
