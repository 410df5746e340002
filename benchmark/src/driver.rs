//! The parent side: spawns one fresh child process per repetition, checks
//! what comes back, and turns repetitions into the named metrics.

use crate::kernels::{Sizes, KERNELS};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::probes::{self, Probes};
use crate::spans::{chrome_trace, Span};
use crate::stats::{median, percentile};
use crate::tally::Tally;
use crate::workloads::{generate, Input, Pass, RepOutput, Workload};
use serde_json::{json, Value};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Fewest timed repetitions behind any end-to-end median.
pub const MIN_REPS: usize = 3;

#[derive(Clone, Copy, Debug)]
pub struct Run {
    pub seed: u64,
    pub smoke: bool,
}

/// Where traces and result files go: `out/` beside this package's manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Run one repetition in a fresh child process (this same executable), so
/// its `VmHWM` and allocator state belong to that repetition alone.
fn spawn_rep(w: Workload, run: Run, pass: Pass) -> Result<RepOutput, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["rep", "--workload", w.name(), "--pass", pass.name()])
        .args(["--seed", &run.seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if run.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    if !output.status.success() {
        return Err(format!("{} child exited with {}", w.name(), output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or("");
    serde_json::from_str(line)
        .and_then(serde_json::from_value)
        .map_err(|e| format!("{} child output: {e}", w.name()))
}

/// Fold in a child's own tally, or charge a lost child all `ops` operations.
fn absorb(tally: &mut Tally, ops: u64, child: &Result<RepOutput, String>) {
    match child {
        Ok(rep) => tally.merge(&rep.tally),
        Err(why) => {
            tally.attempted += ops;
            tally.fail(ops, why.clone());
        }
    }
}

/// The untraced repetitions of one workload.
#[derive(Clone, Debug)]
pub struct Untraced {
    workload: Workload,
    run: Run,
    /// Operations in one repetition (what a lost child is charged).
    ops: u64,
    pub reps: Vec<RepOutput>,
    pub tally: Tally,
}

impl Untraced {
    pub fn new(workload: Workload, run: Run) -> Untraced {
        Untraced {
            workload,
            run,
            ops: generate(workload, run.seed, run.smoke).operations(),
            reps: Vec::new(),
            tally: Tally::default(),
        }
    }

    /// Run one more repetition. Every repetition after the first is also
    /// one check: its report digest must equal the first one's.
    pub fn repeat(&mut self) {
        let child = spawn_rep(self.workload, self.run, Pass::Plain);
        absorb(&mut self.tally, self.ops, &child);
        if let Ok(rep) = child {
            if let Some(first) = self.reps.first() {
                let same =
                    first.digest == rep.digest && first.events_executed == rep.events_executed;
                let name = self.workload.name();
                self.tally.check(same, || {
                    format!("{name}: report digest differs between repetitions")
                });
            }
            self.reps.push(rep);
        }
    }

    pub fn digest(&self) -> &str {
        self.reps.first().map_or("", |r| r.digest.as_str())
    }

    pub fn events_executed(&self) -> u64 {
        self.reps.first().map_or(0, |r| r.events_executed)
    }

    /// `metro_sharded` runs the spec `metro_flood` runs; their reports must
    /// be byte-identical.
    pub fn check_against_flood(&mut self, flood_digest: &str) {
        let same = !flood_digest.is_empty() && self.digest() == flood_digest;
        self.tally.check(same, || {
            "metro_sharded: report digest differs from metro_flood's".to_owned()
        });
    }

    /// Every sample behind an end-to-end metric.
    pub fn samples(&self, metric: &str) -> Vec<f64> {
        match metric {
            "wall_s" => self.reps.iter().map(|r| r.wall_s).collect(),
            "cpu_s" => self.reps.iter().map(|r| r.cpu_s).collect(),
            "setup_s" => self
                .reps
                .iter()
                .flat_map(|r| r.setup_s.iter().copied())
                .collect(),
            "peak_rss_mb" => self
                .reps
                .iter()
                .map(|r| r.peak_rss_kb as f64 / 1024.0)
                .collect(),
            _ => Vec::new(),
        }
    }
}

/// One small repetition first, so the executable and its libraries are
/// paged in before anything is timed.
pub fn warm_up(w: Workload, seed: u64) {
    let _ = spawn_rep(w, Run { seed, smoke: true }, Pass::Plain);
}

/// Closed loop, one repetition at a time, until `seconds` have passed and
/// at least [`MIN_REPS`] repetitions are in.
pub fn measure_untraced(w: Workload, run: Run, seconds: f64) -> Untraced {
    warm_up(w, run.seed);
    let mut u = Untraced::new(w, run);
    let flood =
        (w == Workload::MetroSharded).then(|| spawn_rep(Workload::MetroFlood, run, Pass::Plain));
    let reps = if run.smoke { 2 } else { MIN_REPS };
    let t0 = Instant::now();
    while u.reps.len() < reps || (!run.smoke && t0.elapsed().as_secs_f64() < seconds) {
        u.repeat();
        if u.tally.failed > 0 && u.reps.is_empty() {
            break; // the child cannot run at all; do not spin
        }
    }
    if let Some(flood) = flood {
        u.check_against_flood(flood.as_ref().map_or("", |r| r.digest.as_str()));
    }
    u
}

/// The per-layer numbers of one workload, from one child per pass plus the
/// kernels and probes run in this process.
#[derive(Clone, Debug, Default)]
pub struct Traced {
    /// `(name, value)` for every entry of [`PER_LAYER`], in that order.
    pub metrics: Vec<(&'static str, f64)>,
    pub tally: Tally,
    pub digest: String,
    pub events_executed: u64,
    pub trace_file: Option<PathBuf>,
}

fn span_total(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .sum()
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

pub fn measure_traced(w: Workload, run: Run, probes: &Probes) -> Traced {
    let input = generate(w, run.seed, run.smoke);
    let ops = input.operations();
    let mut t = Traced::default();
    let mut pass = |p: Pass| -> RepOutput {
        let child = spawn_rep(w, run, p);
        absorb(&mut t.tally, ops, &child);
        child.unwrap_or_default()
    };
    let plain = pass(Pass::Plain);
    let traced = pass(Pass::Traced);
    let no_oracle = pass(Pass::NoOracle);
    let profiled = pass(Pass::Profiled);
    let capture = pass(Pass::TraceCapture);
    t.tally.check(plain.digest == traced.digest, || {
        format!(
            "{}: traced pass digest differs from the plain pass",
            w.name()
        )
    });
    t.digest = traced.digest.clone();
    t.events_executed = traced.events_executed;

    // Spans. The timed repetition's top-level spans are those without a
    // parent that are not extra set-up work done after it.
    let spans = &traced.spans;
    let in_rep = |s: &&Span| s.parent.is_none() && !s.name.starts_with("setup.");
    let covered: f64 = spans.iter().filter(in_rep).map(Span::secs).sum();
    let (build_s, run_s, finalize_s) = if matches!(input, Input::Stress(..)) {
        let first = |name: &str| {
            spans
                .iter()
                .find(|s| s.name == name)
                .map_or(0.0, Span::secs)
        };
        (
            first("core.builder.build"),
            first("net.world.run"),
            first("core.oracle.finalize"),
        )
    } else {
        // `scenario::run` is one call: what is left of it after a
        // standalone build of the same networks is run + finish.
        let build = spans
            .iter()
            .find(|s| s.name == "setup.core.builder.build")
            .map_or(0.0, Span::secs);
        (build, span_total(spans, "core.scenario.run") - build, 0.0)
    };
    let events = traced.events_executed.max(1) as f64;
    let c = &traced.counts;
    let p = &profiled.profile;
    let per = |total: (u64, u64)| ratio(total.1 as f64, total.0 as f64);

    let mut values: Vec<(&'static str, f64)> = vec![
        ("core.builder.build_s", build_s),
        ("net.world.run_s", run_s),
        ("net.world.ns_per_event", run_s * 1e9 / events),
        ("core.oracle.finalize_s", finalize_s),
        ("core.scenario.run_ms_p50", median(&traced.run_ms)),
        ("core.scenario.run_ms_p99", percentile(&traced.run_ms, 99.0)),
        ("trace.top_span_share", ratio(covered, traced.wall_s)),
        ("trace.overhead_x", ratio(traced.wall_s, plain.wall_s)),
        ("net.world.events_executed", traced.events_executed as f64),
        ("net.world.events_scheduled", p.events_scheduled as f64),
        ("net.world.deliver_events", p.deliver.0 as f64),
        ("net.world.timer_events", p.timer.0 as f64),
        ("sim.wheel.depth_high_water", p.depth_high_water as f64),
        ("net.link.bytes_tx", c.bytes_tx as f64),
        ("net.link.frames_dropped", c.frames_dropped as f64),
        ("net.link.frames_corrupted", c.frames_corrupted as f64),
        ("core.recorder.packets", c.rec_packets as f64),
        ("core.recorder.data_events", c.rec_data_events as f64),
        ("core.recorder.deliveries", c.rec_deliveries as f64),
        ("core.oracle.router_polls", c.router_polls as f64),
        ("core.oracle.sg_entries_walked", c.sg_entries_walked as f64),
        ("pimdm.table.sg_high_water", c.sg_high_water as f64),
        (
            "mld.router.listeners_high_water",
            c.listeners_high_water as f64,
        ),
        ("mipv6.binding.high_water", c.binding_high_water as f64),
        ("alloc.count_per_event", traced.allocs as f64 / events),
        ("alloc.bytes_per_event", traced.alloc_bytes as f64 / events),
        (
            "core.oracle.run_share",
            ratio(plain.wall_s - no_oracle.wall_s, plain.wall_s),
        ),
        (
            "sim.trace.capture_share",
            ratio(capture.wall_s - plain.wall_s, plain.wall_s),
        ),
        (
            "sim.profile.overhead_x",
            ratio(profiled.wall_s, plain.wall_s),
        ),
        ("net.world.handler_deliver_ns", per(p.deliver)),
        ("net.world.handler_timer_ns", per(p.timer)),
        ("net.world.handler_script_ns", per(p.script)),
    ];
    t.tally
        .check((ratio(covered, traced.wall_s) - 1.0).abs() <= 0.02, || {
            format!(
                "{}: top-level spans cover {covered:.3}s of {:.3}s",
                w.name(),
                traced.wall_s
            )
        });

    // Kernels, sized by what the passes above counted.
    let sizes = Sizes {
        queue_depth: p.depth_high_water,
        members_per_link: input.members_per_link(),
        sg_entries: c.sg_high_water,
        listeners: c.listeners_high_water,
        bindings: c.binding_high_water,
        shrink: if run.smoke { 20 } else { 1 },
    };
    for (name, _, kernel) in KERNELS {
        let result = kernel(&sizes);
        t.tally.check(result.is_ok(), || {
            format!(
                "{name}: {}",
                result.as_ref().err().cloned().unwrap_or_default()
            )
        });
        values.push((name, result.unwrap_or(0.0)));
    }
    let value_of = |values: &[(&'static str, f64)], name: &str| {
        values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let run_ns = run_s * 1e9;
    let est = |values: &[(&'static str, f64)], ops: u64, kernel: &str| {
        ratio(ops as f64 * value_of(values, kernel), run_ns)
    };
    let shares = [
        (
            "sim.wheel.est_share",
            est(&values, p.events_scheduled, "sim.wheel.schedule_pop_ns"),
        ),
        (
            "net.world.frame_copy_est_share",
            est(&values, p.deliver.0, "net.world.frame_copy_ns"),
        ),
        (
            "core.recorder.delivery_est_share",
            est(
                &values,
                c.rec_deliveries,
                "core.recorder.record_delivery_ns",
            ),
        ),
    ];
    values.extend(shares);

    values.extend([
        ("sim.parallel.speedup_x", probes.parallel_speedup_x),
        ("net.threaded.speedup_x", probes.threaded_speedup_x),
        ("net.threaded.barrier_stall_s", probes.barrier_stall_s),
        ("net.threaded.events_per_window", probes.events_per_window),
        ("net.threaded.handoff_events", probes.handoff_events),
    ]);

    assert!(
        values
            .iter()
            .map(|(n, _)| *n)
            .eq(PER_LAYER.iter().map(|(n, _, _)| *n)),
        "per-layer values out of step with metrics::PER_LAYER"
    );
    t.metrics = values;

    let dir = out_dir();
    let path = dir.join(format!("trace-{}.json", w.name()));
    let doc = serde_json::to_string(&chrome_trace(w.name(), spans)).unwrap_or_default();
    if std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, doc))
        .is_ok()
    {
        t.trace_file = Some(path);
    }
    t
}

/// Run the probes and fold their two byte-identity checks into `tally`.
pub fn measure_probes(run: Run, tally: &mut Tally) -> Probes {
    let probes = probes::run(run.seed % crate::workloads::SEED_POOL, run.smoke);
    tally.merge(&probes.tally);
    probes
}

fn metric_json(value: f64, unit: &str) -> Value {
    json!({"value": value, "unit": unit})
}

/// The driver's contract: one workload, one JSON object on the last line.
/// Returns the object and whether every operation succeeded.
pub fn run_contract(w: Workload, run: Run, seconds: f64, trace: bool) -> (Value, bool) {
    let (tally, metrics): (Tally, Vec<(String, Value)>) = if trace {
        let mut tally = Tally::default();
        let probes = measure_probes(run, &mut tally);
        let traced = measure_traced(w, run, &probes);
        tally.merge(&traced.tally);
        let metrics = traced
            .metrics
            .iter()
            .zip(PER_LAYER.iter())
            .map(|((name, value), (_, unit, _))| ((*name).to_owned(), metric_json(*value, unit)))
            .collect();
        (tally, metrics)
    } else {
        let u = measure_untraced(w, run, seconds);
        let metrics = END_TO_END
            .iter()
            .map(|(name, unit)| {
                (
                    (*name).to_owned(),
                    metric_json(median(&u.samples(name)), unit),
                )
            })
            .collect();
        (u.tally, metrics)
    };
    for f in &tally.failures {
        eprintln!("FAILED: {f}");
    }
    let correct = tally.failed == 0 && tally.attempted > 0;
    let doc = json!({
        "correct": correct,
        "attempted": tally.attempted.max(1),
        "failed": tally.failed,
        "metrics": Value::Object(metrics),
    });
    (doc, correct)
}
