//! Executor parity: a sharded plan must produce a run *byte-identical* to
//! the sequential plan for every shard count. "Byte-identical" is checked
//! at three levels:
//!
//! 1. the full trace JSONL captured by a ring tracer (every dispatch,
//!    send, delivery and drop, with arguments),
//! 2. the serialized `StressReport` (ground-truth counters and metrics),
//! 3. the oracle verdicts (violation count and messages).
//!
//! The window schedule itself (`ShardRunStats`) must also be a pure
//! function of `(spec, plan)`: a repeated run realizes the same schedule
//! (`ShardRunStats::same_schedule`; only the wall-clock measurement may
//! differ).
//!
//! The quick variant runs `sharded(n)` for n ∈ {1, 2, 4, 8} over every
//! quick stress spec on every `cargo test`; the `#[ignore]`d variant is
//! the 10k-router metro gate run by the CI `parallel-parity` job.

use mobicast_core::builder::NetworkSpec;
use mobicast_core::strategy::Policy;
use mobicast_core::stress::{run_stress_with, specs, StressRunOptions, StressSpec};
use mobicast_net::ShardRunStats;
use mobicast_sim::{RingBufferTracer, SimDuration};

/// One full stress run captured for comparison.
struct Capture {
    trace_jsonl: String,
    report_json: String,
    violations: Vec<String>,
    stats: Option<ShardRunStats>,
}

fn capture(spec: &StressSpec, opts: &StressRunOptions) -> Capture {
    let (tracer, ring) = RingBufferTracer::new(1_000_000);
    let (report, stats) = run_stress_with(spec, opts, tracer);
    Capture {
        trace_jsonl: ring.export_jsonl(),
        report_json: serde_json::to_string_pretty(&report).expect("report serializes"),
        violations: report.violations,
        stats,
    }
}

/// Assert two captures are byte-identical at all three levels.
fn assert_parity(label: &str, a: &Capture, b: &Capture) {
    assert_eq!(
        a.report_json, b.report_json,
        "{label}: StressReport diverged"
    );
    assert_eq!(
        a.violations, b.violations,
        "{label}: oracle verdicts diverged"
    );
    // Diff the traces line-by-line first so a mismatch points at the
    // earliest diverging event instead of dumping megabytes.
    if a.trace_jsonl != b.trace_jsonl {
        for (i, (la, lb)) in a.trace_jsonl.lines().zip(b.trace_jsonl.lines()).enumerate() {
            assert_eq!(la, lb, "{label}: trace JSONL diverged at line {i}");
        }
        panic!(
            "{label}: trace lengths diverged ({} vs {} bytes)",
            a.trace_jsonl.len(),
            b.trace_jsonl.len()
        );
    }
}

/// Sequential vs `sharded(n)` for every `n` in `shard_counts` (ascending);
/// the widest plan is run twice to pin schedule purity, and must show
/// work in more than one shard and exploitable parallelism.
fn parity_over(spec: &StressSpec, shard_counts: &[usize]) {
    let sequential = capture(spec, &StressRunOptions::default());
    assert!(
        sequential.stats.is_none(),
        "sequential plan has no schedule"
    );
    let sharded = |shards: usize| {
        let run = capture(spec, &StressRunOptions::sharded(shards, 1));
        assert_parity(&format!("{} shards={shards}", spec.name), &sequential, &run);
        run.stats.expect("sharded run reports stats")
    };
    let mut widest = None;
    for &shards in shard_counts {
        let stats = sharded(shards);
        assert_eq!(stats.events_per_shard.len(), shards);
        widest = Some((shards, stats));
    }
    let (shards, stats) = widest.expect("at least one shard count");
    assert!(
        stats.same_schedule(&sharded(shards)),
        "{}: schedule diverged between two runs of the same plan",
        spec.name
    );
    assert!(
        stats.events_per_shard.iter().filter(|&&n| n > 0).count() > 1,
        "{}: work never spread past one shard: {:?}",
        spec.name,
        stats.events_per_shard
    );
    assert!(
        stats.achievable_speedup() > 1.0,
        "{}: no exploitable parallelism in the schedule",
        spec.name
    );
}

/// Quick always-on gate: small grid and tree, both receive planes.
#[test]
fn sharded_runs_are_byte_identical_quick() {
    for spec in &specs(true) {
        parity_over(spec, &[1, 2, 4, 8]);
    }
}

/// Full 10k-router metro gate (CI `parallel-parity` job): sequential vs
/// `sharded(16)` on a 9940-router grid with 200 receivers — release-mode
/// only.
#[test]
#[ignore = "10k-router stress; run via --include-ignored in release mode"]
fn sharded_metro_10k_is_byte_identical() {
    let topo = NetworkSpec::metro(10_000);
    assert!(topo.routers.len() >= 9_900, "metro undersized");
    let spec = StressSpec {
        name: format!("metro{}x{}/local/seed11", topo.n_links, topo.routers.len()),
        topology: topo,
        policy: Policy::LOCAL,
        seed: 11,
        duration: SimDuration::from_secs(90),
        receivers: 200,
        movers: 8,
        moves_per_mover: 2,
        // 10 s CBR: each tick floods the full 5041-link grid, so the
        // interval is the lever that keeps three complete 10k-router
        // captures inside a sane CI budget without shrinking the topology.
        data_interval: SimDuration::from_secs(10),
    };
    parity_over(&spec, &[16]);
}
