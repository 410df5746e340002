//! Where the `deliver` bucket goes: profiled runs of the five benchmark
//! workloads' inputs (`BENCHMARK.json`; generated here as
//! `benchmark/src/workloads.rs` generates them) printing
//! [`SimProfile::stages`] — self time in parse / protocol / emit / account
//! — beside the three handler categories. Stages are timed in one handler
//! out of `STAGE_SAMPLE` and scaled up to every handler of the same
//! duration; each stage cell reads `ms (share of handler time %)
//! k-stretches timed`, net of the calibrated cost of the clock read each
//! stretch spans. Under each row, the wall time its runs spent staged
//! (built, faulted, scripted), and the process's peak resident set
//! (`VmHWM`) before the workload, once its first run is staged and after
//! its last run: memory by stage, cumulative across workloads unless one
//! is picked. Beside them, the deliveries its runs recorded and the bytes
//! each takes in the recorder's column, the most rows one run's journal
//! held at once and the bytes a row takes, and the longest handler's duration
//! group ([`SimProfile::longest_handler_under_ns`]); under those, the spans
//! its runs held at their end, by name. Wall-clock and memory numbers:
//! stdout only, nothing is written under `results/`.
//!
//! `mobicast stages [--seed N] [--workload NAME]`; every workload by
//! default.

use mobicast_core::builder::NetworkSpec;
use mobicast_core::recorder::{Journal, Recorder};
use mobicast_core::run;
use mobicast_core::scenario::{self, PaperHost, ScenarioConfig};
use mobicast_core::stress::{StressRunOptions, StressSpec};
use mobicast_core::{chaos, scale, Policy};
use mobicast_sim::profile::STAGES;
use mobicast_sim::{SimDuration, SimProfile, Tracer};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

pub const WORKLOADS: [&str; 5] = [
    "paper_sweep",
    "chaos_campaign",
    "metro_flood",
    "metro_sharded",
    "roam_tunnel",
];

/// `(count, total ns)` per handler category and per stage, summed over
/// the runs of one workload, the wall time spent staging them, the peak
/// resident set (MB) when its first run was staged and after its last, the
/// deliveries recorded and their column bytes, the most journal rows one
/// run held at once, the upper edge of the longest handler's duration
/// group, and the spans held, by name.
#[derive(Default)]
struct Sum {
    events: u64,
    handlers: [(u64, u64); 3],
    stages: [(u64, u64); STAGES.len()],
    staging: Duration,
    staged_mb: Option<f64>,
    run_mb: f64,
    deliveries: usize,
    column_bytes: usize,
    journal_rows_peak: usize,
    longest_under_ns: u64,
    spans: BTreeMap<&'static str, usize>,
}

/// The process's peak resident set so far (`VmHWM`), in MB; 0 where
/// `/proc` has none.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status.lines().find_map(|l| {
        let value = l.strip_prefix("VmHWM:")?.trim().trim_end_matches("kB");
        value.trim().parse::<f64>().ok()
    });
    kb.unwrap_or(0.0) / 1024.0
}

impl Sum {
    fn staged(&mut self, start: Instant) {
        self.staging += start.elapsed();
        self.staged_mb.get_or_insert_with(peak_rss_mb);
    }

    fn add(&mut self, p: &SimProfile, rec: &Recorder) {
        self.run_mb = peak_rss_mb();
        self.deliveries += rec.deliveries.len();
        self.column_bytes += rec.deliveries.column_bytes();
        self.journal_rows_peak = self
            .journal_rows_peak
            .max(rec.data_events.rows_high_water());
        self.longest_under_ns = self.longest_under_ns.max(p.longest_handler_under_ns);
        for span in rec.spans.records() {
            *self.spans.entry(span.name).or_default() += 1;
        }
        self.events += p.events_executed;
        for (slot, name) in self.handlers.iter_mut().zip(["deliver", "timer", "script"]) {
            slot.0 += p.handlers[name].count;
            slot.1 += p.handlers[name].total_ns;
        }
        for (slot, name) in self.stages.iter_mut().zip(STAGES) {
            slot.0 += p.stages[name].count;
            slot.1 += p.stages[name].total_ns;
        }
    }
}

fn sweep(cfgs: Vec<ScenarioConfig>) -> Sum {
    let mut sum = Sum::default();
    for mut cfg in cfgs {
        cfg.profile = true;
        let start = Instant::now();
        let staged = scenario::stage(&cfg, Tracer::null());
        let staged = staged.unwrap_or_else(|e| panic!("scenario {}: {e}", cfg.name));
        sum.staged(start);
        let (result, rec) = staged.run();
        assert_eq!(result.report.oracle.violation_count, 0, "{}", cfg.name);
        sum.add(&result.profile.expect("profiled run"), &rec);
    }
    sum
}

/// `spec` as `stress::run_stress_with` runs it, profiled.
fn stress(spec: &StressSpec, opts: &StressRunOptions) -> Sum {
    let start = Instant::now();
    let staged = spec
        .lower()
        .and_then(|plan| run::stage(&plan, Tracer::null()));
    let mut staged = staged.unwrap_or_else(|e| panic!("stress {}: {e}", spec.name));
    let mut sum = Sum::default();
    sum.staged(start);
    let plan = opts.executor.plan(|shards| staged.net.shard_plan(shards));
    let plan = plan.unwrap_or_else(|e| panic!("stress {}: {e}", spec.name));
    staged.net.world.enable_profiling();
    let out = run::run(staged, &plan);
    assert_eq!(out.oracle.violation_count, 0, "{}", spec.name);
    sum.add(&out.profile.expect("profiled run"), &out.recorder);
    sum
}

fn workload(name: &str, seed: u64) -> Sum {
    match name {
        "paper_sweep" => sweep(
            Policy::all()
                .into_iter()
                .flat_map(|policy| {
                    (0..40).map(move |i| {
                        ScenarioConfig::builder()
                            .name(format!("paper/{}/{i}", policy.id()))
                            .seed(seed * 40 + i)
                            .duration_secs(300)
                            .policy(policy)
                            .move_at(60.0, PaperHost::R3, 6)
                            .move_at(150.0, PaperHost::S, 6)
                            .build()
                    })
                })
                .collect(),
        ),
        "chaos_campaign" => sweep(
            (seed..seed + 48)
                .flat_map(|s| {
                    let plan = chaos::plan_for_seed(s);
                    Policy::all()
                        .into_iter()
                        .map(move |policy| plan.config(policy, s))
                })
                .collect(),
        ),
        "metro_flood" => stress(
            &scale::metro_spec(1_000, 400, seed),
            &StressRunOptions::default(),
        ),
        "metro_sharded" => stress(
            &scale::metro_spec(1_000, 400, seed),
            &StressRunOptions::sharded(8, 1),
        ),
        "roam_tunnel" => stress(
            &StressSpec {
                name: format!("roam10x10/bidir/seed{seed}"),
                topology: NetworkSpec::grid(10, 10),
                policy: Policy::BIDIRECTIONAL_TUNNEL,
                seed,
                duration: SimDuration::from_secs(300),
                receivers: 200,
                movers: 200,
                moves_per_mover: 6,
                data_interval: SimDuration::from_millis(250),
            },
            &StressRunOptions::default(),
        ),
        other => panic!("unknown workload {other}; one of {WORKLOADS:?}"),
    }
}

/// Print the table for `only` the named workload, or for every one.
pub fn main(seed: u64, only: Option<String>) {
    println!(
        "{:<15} {:>10} {:>11} {:>9} {:>9} | {:>22} {:>22} {:>22} {:>22}",
        "workload",
        "events",
        "deliver ms",
        "timer ms",
        "ns/event",
        "parse ms (%) k",
        "protocol ms (%) k",
        "emit ms (%) k",
        "account ms (%) k"
    );
    for w in WORKLOADS {
        if only.as_deref().is_some_and(|o| o != w) {
            continue;
        }
        let start_mb = peak_rss_mb();
        let sum = workload(w, seed);
        let handled: u64 = sum.handlers.iter().map(|h| h.1).sum();
        let ms = |ns: u64| ns as f64 / 1e6;
        let stage = |i: usize| {
            let (stretches, ns) = sum.stages[i];
            format!(
                "{:>8.1} ({:>4.1}) {:>6}",
                ms(ns),
                100.0 * ns as f64 / handled.max(1) as f64,
                stretches / 1000
            )
        };
        println!(
            "{:<15} {:>10} {:>11.1} {:>9.1} {:>9.0} | {:>22} {:>22} {:>22} {:>22}",
            w,
            sum.events,
            ms(sum.handlers[0].1),
            ms(sum.handlers[1].1),
            handled as f64 / sum.events.max(1) as f64,
            stage(0),
            stage(1),
            stage(2),
            stage(3),
        );
        println!(
            "{:<15} staging ms: {:.1}; VmHWM MB: {start_mb:.1} before, {:.1} staged, {:.1} run; \
             deliveries: {} at {:.1} B each; journal rows at peak: {} at {} B each; \
             longest handler: {:.3}-{:.3} ms",
            "",
            sum.staging.as_secs_f64() * 1e3,
            sum.staged_mb.unwrap_or(0.0),
            sum.run_mb,
            sum.deliveries,
            sum.column_bytes as f64 / sum.deliveries.max(1) as f64,
            sum.journal_rows_peak,
            Journal::ROW_BYTES,
            ms(sum.longest_under_ns / 2),
            ms(sum.longest_under_ns),
        );
        let by_name: Vec<String> = sum.spans.iter().map(|(n, k)| format!("{n} {k}")).collect();
        println!(
            "{:<15} spans held: {} ({})",
            "",
            sum.spans.values().sum::<usize>(),
            by_name.join(", ")
        );
    }
}
