//! Concurrency probes: the two multi-threaded mechanisms measured against
//! their serial twins. Thread scheduling on a shared host makes these
//! figures swing several-fold, so they are reported and never gated; what
//! is checked is that each produces byte-identical output to its twin.

use crate::tally::Tally;
use mobicast_core::stress::{run_stress_with, StressRunOptions};
use mobicast_core::{chaos, scale};
use mobicast_sim::parallel::run_ordered;
use mobicast_sim::Tracer;
use std::time::Instant;

#[derive(Clone, Debug, Default)]
pub struct Probes {
    pub nproc: usize,
    pub parallel_speedup_x: f64,
    pub threaded_speedup_x: f64,
    pub barrier_stall_s: f64,
    pub events_per_window: f64,
    pub handoff_events: f64,
    /// The two byte-identity checks.
    pub tally: Tally,
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

pub fn run(seed: u64, smoke: bool) -> Probes {
    let mut p = Probes {
        nproc: nproc(),
        ..Probes::default()
    };

    // sim.parallel: a chaos sweep over `nproc` workers against one.
    let n_seeds = if smoke { 2 } else { 8 };
    let seeds: Vec<u64> = (seed..seed + n_seeds).collect();
    let sweep = |workers: usize| {
        let t = Instant::now();
        let out = run_ordered(seeds.iter().collect(), workers, |s| chaos::check_seed(**s));
        let text = serde_json::to_string(&out).unwrap_or_default();
        (t.elapsed().as_secs_f64(), text)
    };
    let (serial_s, serial) = sweep(1);
    let (parallel_s, parallel) = sweep(p.nproc);
    p.parallel_speedup_x = serial_s / parallel_s.max(1e-9);
    p.tally.check(serial == parallel, || {
        "sim.parallel: sweep output differs from its serial twin".into()
    });

    // net.threaded: a 264-router metro on worker threads against inline.
    let spec = if smoke {
        scale::metro_spec(60, 24, seed)
    } else {
        scale::metro_spec(250, 100, seed)
    };
    let stress = |workers: usize| {
        let t = Instant::now();
        let (report, stats) = run_stress_with(
            &spec,
            &StressRunOptions::sharded(8, workers),
            Tracer::null(),
        );
        let text = serde_json::to_string(&report).unwrap_or_default();
        (t.elapsed().as_secs_f64(), text, stats.unwrap_or_default())
    };
    let (inline_s, inline, _) = stress(1);
    let (threaded_s, threaded, stats) = stress(p.nproc.min(2));
    p.threaded_speedup_x = inline_s / threaded_s.max(1e-9);
    p.barrier_stall_s = stats.barrier_stall_secs;
    p.events_per_window = stats.events_total as f64 / stats.windows.max(1) as f64;
    p.handoff_events = stats.handoff_events as f64;
    p.tally.check(inline == threaded, || {
        "net.threaded: report differs from its inline twin".into()
    });
    p
}
