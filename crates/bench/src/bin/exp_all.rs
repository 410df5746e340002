//! Runs every experiment of the reproduction in sequence (Figures 1-5,
//! Table 1, the §4.4 timer sweep and the §4.3.1 sender-cost sweep),
//! archiving every table to `results/exp_all_output.txt` and printing a
//! per-experiment wall-clock summary, which stays out of the archive so
//! the file is byte-identical across reruns.
//! Pass --quick for reduced sweeps, `--workers N` to pin the sweep worker
//! pool (`--serial` = `--workers 1`): any worker count produces
//! byte-identical experiment JSON — the determinism-parity property.

use std::fmt::Write as _;
use std::time::Instant;

use mobicast_core::experiments::{self, ExperimentOutput};

fn main() {
    let quick = mobicast_bench::quick_flag();
    if let Some(workers) = mobicast_bench::workers_flag() {
        mobicast_core::sweep::set_worker_override(Some(workers));
        eprintln!("(sweep worker pool pinned to {workers})");
    }
    if let Some(policy) = mobicast_bench::approach_flag() {
        mobicast_core::strategy::set_approach_override(Some(policy));
        eprintln!("(policy sweeps pinned to approach {})", policy.id());
    }
    type Exp = (&'static str, fn(bool) -> ExperimentOutput);
    let experiments: [Exp; 15] = [
        ("fig1", |_| experiments::fig1::run()),
        ("fig2", experiments::fig2::run),
        ("fig3", |_| experiments::fig3::run()),
        ("fig4", |_| experiments::fig4::run()),
        ("fig5", |_| experiments::fig5::run()),
        ("table1", experiments::table1::run),
        ("timer_sweep", experiments::timer_sweep::run),
        ("sender_cost", experiments::sender_cost::run),
        ("mobility_rate", experiments::mobility_rate::run),
        ("handoff_latency", |_| experiments::handoff_latency::run()),
        ("fault_sweep", experiments::fault_sweep::run),
        ("adversarial", experiments::adversarial::run),
        ("overload", experiments::overload::run),
        ("chaos", experiments::chaos::run),
        ("stress", experiments::stress::run),
    ];

    let mut archive = String::new();
    let mut timings: Vec<(&'static str, f64)> = Vec::new();
    let all_start = Instant::now();
    for (id, run) in experiments {
        let start = Instant::now();
        let out = run(quick);
        let secs = start.elapsed().as_secs_f64();
        debug_assert_eq!(out.id, id);
        timings.push((id, secs));
        mobicast_bench::emit(&out);
        println!();
        let _ = writeln!(archive, "{out}");
    }
    let total = all_start.elapsed().as_secs_f64();

    let mut summary = String::from("== timing — wall-clock per experiment ==\n");
    for (id, secs) in &timings {
        let _ = writeln!(summary, "{id:<14} {secs:>8.3}s");
    }
    let _ = writeln!(summary, "{:<14} {total:>8.3}s", "total");
    print!("{summary}");

    std::fs::create_dir_all("results").ok();
    match std::fs::write("results/exp_all_output.txt", &archive) {
        Ok(()) => eprintln!("(wrote results/exp_all_output.txt)"),
        Err(e) => eprintln!("warning: could not write results/exp_all_output.txt: {e}"),
    }
}
