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
use std::process::ExitCode;
use std::time::Instant;

use mobicast_core::experiments::{self, ExperimentOutput, Settings};
use mobicast_core::stress::{run_stress_with, StressReport, StressRunOptions};
use mobicast_core::Policy;
use mobicast_net::ShardRunStats;
use serde_json::{json, Value};

use cli::Command;

/// The totals an experiment's JSON may carry that must be zero: oracle
/// violations, reconvergence-SLO misses, protected-flow floor misses.
const GATED: [&str; 3] = ["total_violations", "total_slo_misses", "total_floor_misses"];

/// Shard count for the metro run: enough regions that the schedule is
/// interesting, few enough that every shard holds real work.
const METRO_SHARDS: usize = 16;

/// Where `stress --routers N` writes its artifact; the committed file is
/// `stress --routers 1000 --receivers 400`'s.
const METRO_ARTIFACT: &str = "results/stress_metro.json";

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
    let json = report::pretty(&out.json);
    report::write_artifact(&format!("results/{}.json", out.id), &json);
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
    let mut outputs = Vec::new();
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
        outputs.push(out);
    }
    let total = all_start.elapsed().as_secs_f64();
    let _ = writeln!(summary, "{:<14} {total:>8.3}s", "total");
    print!("{summary}");
    let archive = experiments::archive(&outputs);
    report::write_artifact("results/exp_all_output.txt", &archive);
    exit(passed)
}

/// One metro-grid run of (at least) `routers` routers and `receivers`
/// receivers, seed 11, under a sharded plan: what `results/stress_metro.json`
/// holds.
struct Metro {
    receivers: usize,
    report: StressReport,
    stats: Option<ShardRunStats>,
}

impl Metro {
    fn run(routers: usize, receivers: usize) -> Metro {
        let spec = mobicast_core::scale::metro_spec(routers, receivers, 11);
        eprintln!(
            "(metro run: {} with {receivers} receivers, {METRO_SHARDS} shards)",
            spec.name
        );
        let opts = StressRunOptions::sharded(METRO_SHARDS, 1);
        let (report, stats) = run_stress_with(&spec, &opts, mobicast_sim::Tracer::null());
        Metro {
            receivers,
            report,
            stats,
        }
    }

    /// The deterministic report and shard schedule, as the results file
    /// holds them.
    fn artifact(&self) -> String {
        let report = &self.report;
        report::pretty(&json!({
            "spec": {
                "name": report.name,
                "routers": report.routers,
                "links": report.links,
                "hosts": report.hosts,
                "receivers": self.receivers,
                "shards": METRO_SHARDS,
            },
            "events_executed": report.events_executed,
            "shard_stats": self.stats,
            "report": report,
        }))
    }
}

/// The metro run, reporting events/sec, the shard schedule and the
/// achievable conservative-parallel speedup. Its artifact lands in
/// `results/stress_metro.json`; its wall time is printed only.
fn metro(routers: usize, receivers: usize) -> ExitCode {
    let wall_start = Instant::now();
    let metro = Metro::run(routers, receivers);
    let wall_secs = wall_start.elapsed().as_secs_f64();
    let report = &metro.report;

    let events_per_sec = report.events_executed as f64 / wall_secs.max(1e-9);
    println!(
        "{}: {} routers / {} links / {} hosts",
        report.name, report.routers, report.links, report.hosts
    );
    println!(
        "  {} events in {wall_secs:.2}s wall = {events_per_sec:.0} events/sec",
        report.events_executed
    );
    if let Some(s) = &metro.stats {
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
    report::write_artifact(METRO_ARTIFACT, &metro.artifact());

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
        Command::Report => report::main(),
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

    /// The committed `results/stress_metro.json` is exactly what
    /// `stress --routers 1000 --receivers 400` renders, byte for byte. A
    /// 1 012-router run: release builds only.
    #[test]
    #[cfg_attr(debug_assertions, ignore)]
    fn the_metro_artifact_equals_its_committed_file() {
        let root = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
        let committed = std::fs::read_to_string(root.join(METRO_ARTIFACT))
            .expect("the committed metro artifact");
        let rendered = Metro::run(1_000, 400).artifact();
        let same = committed
            .lines()
            .zip(rendered.lines())
            .take_while(|(a, b)| a == b);
        let first_diff = same.count() + 1;
        assert!(
            committed == rendered,
            "`mobicast stress --routers 1000 --receivers 400` renders other bytes than \
             the committed {METRO_ARTIFACT} (first at line {first_diff}); if the change is \
             intended, rerun it and commit results/"
        );
    }
}
