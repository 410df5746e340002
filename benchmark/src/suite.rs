//! The whole benchmark in one command: every workload, repetitions
//! interleaved round-robin, one traced pass each, one result file with a
//! provenance manifest, and every metric printed by name with its unit.

use crate::driver::{measure_probes, measure_traced, out_dir, warm_up, Run, Traced, Untraced};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::probes::nproc;
use crate::stats::{median, quartiles};
use crate::tally::Tally;
use crate::workloads::Workload;
use serde_json::{json, Value};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Bumped whenever workloads, metrics or method change: results of
/// different versions are not comparable and `compare` refuses them.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

pub struct SuiteOptions {
    pub run: Run,
    pub reps: usize,
    pub out: Option<PathBuf>,
    /// Restrict to one workload (`--workload`).
    pub only: Option<Workload>,
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn summary(samples: &[f64], unit: &str) -> Value {
    let (q1, q3) = quartiles(samples);
    json!({
        "unit": unit,
        "median": median(samples),
        "q1": q1,
        "q3": q3,
        "n": samples.len() as u64,
        "samples": samples,
    })
}

/// Run the suite; returns whether every operation succeeded.
pub fn run_suite(opts: &SuiteOptions) -> bool {
    let run = opts.run;
    let workloads: Vec<Workload> = match opts.only {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    for w in &workloads {
        warm_up(*w, run.seed);
    }

    // Host speed drifts over minutes; interleaving spreads the drift
    // evenly over the workloads instead of loading it onto the last one.
    let mut untraced: Vec<Untraced> = workloads.iter().map(|w| Untraced::new(*w, run)).collect();
    for rep in 0..opts.reps {
        for (w, u) in workloads.iter().zip(&mut untraced) {
            eprintln!("[{}/{}] {}", rep + 1, opts.reps, w.name());
            u.repeat();
        }
    }
    let index_of = |w: Workload| workloads.iter().position(|x| *x == w);
    if let (Some(flood), Some(sharded)) = (
        index_of(Workload::MetroFlood),
        index_of(Workload::MetroSharded),
    ) {
        let flood_digest = untraced[flood].digest().to_owned();
        untraced[sharded].check_against_flood(&flood_digest);
    }

    // Three rounds of the probes: the median round (by threaded speed-up)
    // feeds the per-layer table, the extremes are recorded beside it.
    let mut probe_tally = Tally::default();
    let mut rounds: Vec<_> = (0..3)
        .map(|i| {
            eprintln!("[probes {}/3]", i + 1);
            measure_probes(run, &mut probe_tally)
        })
        .collect();
    rounds.sort_by(|a, b| a.threaded_speedup_x.total_cmp(&b.threaded_speedup_x));
    let spread = |f: fn(&crate::probes::Probes) -> f64| {
        let xs: Vec<f64> = rounds.iter().map(f).collect();
        json!({"min": xs.iter().copied().fold(f64::INFINITY, f64::min),
               "max": xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)})
    };
    let probe_spread = json!({
        "sim.parallel.speedup_x": spread(|p| p.parallel_speedup_x),
        "net.threaded.speedup_x": spread(|p| p.threaded_speedup_x),
        "net.threaded.barrier_stall_s": spread(|p| p.barrier_stall_s),
    });
    let probes = rounds.swap_remove(1);
    let traced: Vec<Traced> = workloads
        .iter()
        .map(|w| {
            eprintln!("[traced] {}", w.name());
            measure_traced(*w, run, &probes)
        })
        .collect();

    let mut total = probe_tally.clone();
    let mut end_to_end = Vec::new();
    let mut per_layer = Vec::new();
    let mut fail_share = Vec::new();
    let mut manifest_workloads = Vec::new();
    println!("{:<34} {:<16} {:>16}  unit", "metric", "workload", "value");
    for ((w, u), t) in workloads.iter().zip(&untraced).zip(&traced) {
        let mut tally = u.tally.clone();
        tally.merge(&t.tally);
        tally.check(u.digest() == t.digest, || {
            format!(
                "{}: traced pass digest differs from the untraced repetitions",
                w.name()
            )
        });
        total.merge(&tally);

        let mut rows = Vec::new();
        for (name, unit) in END_TO_END {
            let samples = u.samples(name);
            println!(
                "{:<34} {:<16} {:>16.6}  {}",
                name,
                w.name(),
                median(&samples),
                unit
            );
            rows.push((name.to_owned(), summary(&samples, unit)));
        }
        let share = tally.failed as f64 / tally.attempted.max(1) as f64;
        println!(
            "{:<34} {:<16} {:>16.6}  share",
            "fail_share",
            w.name(),
            share
        );
        end_to_end.push((w.name().to_owned(), Value::Object(rows)));
        fail_share.push((
            w.name().to_owned(),
            json!({"attempted": tally.attempted, "failed": tally.failed, "share": share,
                   "failures": tally.failures}),
        ));

        let mut layer_rows = Vec::new();
        for ((name, value), (_, unit, source)) in t.metrics.iter().zip(PER_LAYER.iter()) {
            println!("{:<34} {:<16} {:>16.6}  {}", name, w.name(), value, unit);
            layer_rows.push((
                (*name).to_owned(),
                json!({"value": *value, "unit": *unit, "source": *source}),
            ));
        }
        per_layer.push((w.name().to_owned(), Value::Object(layer_rows)));
        manifest_workloads.push((
            w.name().to_owned(),
            json!({
                "executor_plan": w.executor_plan(),
                "events_executed": u.events_executed(),
                "report_digest": u.digest(),
                "trace_file": t.trace_file.as_ref().and_then(|p| p.file_name())
                    .map(|f| format!("out/{}", f.to_string_lossy())),
            }),
        ));
    }
    for f in &total.failures {
        eprintln!("FAILED: {f}");
    }

    let doc = json!({
        "manifest": {
            "benchmark_version": VERSION,
            "commit": command_line("git", &["rev-parse", "HEAD"]),
            "rustc": command_line("rustc", &["-V"]),
            "nproc": nproc() as u64,
            "cpu_model": cpu_model(),
            "seed": run.seed,
            "smoke": run.smoke,
            "repetitions": opts.reps as u64,
            "workloads": Value::Object(manifest_workloads),
        },
        "end_to_end": Value::Object(end_to_end),
        "fail_share": Value::Object(fail_share),
        "per_layer": Value::Object(per_layer),
        "probes": {
            "nproc": probes.nproc as u64,
            "note": "multi-threaded; reported, never gated",
            "rounds": 3,
            "spread": probe_spread,
            "attempted": probe_tally.attempted,
            "failed": probe_tally.failed,
        },
    });
    let path = opts
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join("result.json"));
    match write_result(&path, &doc) {
        Ok(()) => eprintln!("(wrote {})", path.display()),
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            return false;
        }
    }
    total.failed == 0
}

fn write_result(path: &Path, doc: &Value) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let text = serde_json::to_string_pretty(doc).unwrap_or_default();
    std::fs::write(path, text + "\n")
}
