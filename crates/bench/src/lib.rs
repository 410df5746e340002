//! # mobicast-bench
//!
//! Experiment binaries (one per table/figure of the paper — see DESIGN.md),
//! the `explain` packet-journey CLI and the `report` dashboard. The
//! simulator's own speed is measured by the repo benchmark (`benchmark/`),
//! not here.
//!
//! Run an experiment with e.g. `cargo run --release -p mobicast-bench
//! --bin exp_fig2`; each binary prints the paper-style table and writes
//! `results/<id>.json`, deterministic bytes only. `exp_all` runs every
//! experiment. Pass `--quick` for a reduced sweep.

use mobicast_core::experiments::ExperimentOutput;

/// Shared binary entry: print and persist an experiment output.
pub fn emit(out: &ExperimentOutput) {
    println!("{out}");
    mobicast_core::report::write_json(out.id, &out.json);
}

/// Parse the `--quick` flag used by the sweep experiments.
pub fn quick_flag() -> bool {
    std::env::args().any(|a| a == "--quick" || a == "-q")
}

/// Parse `--approach <id>`: pin policy-sweeping runs to one registered
/// delivery policy. Exits with the list of registered ids on an unknown
/// id, so the flag doubles as discovery (`--approach help`).
pub fn approach_flag() -> Option<mobicast_core::Policy> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--approach" {
            let id = args.next().expect("--approach needs a policy id");
            match id.parse::<mobicast_core::Policy>() {
                Ok(p) => return Some(p),
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(2);
                }
            }
        }
    }
    None
}

/// Parse `--routers N`: run a single metro-grid stress scenario of (at
/// least) `N` routers instead of the canonical sweep. `None` when absent.
pub fn routers_flag() -> Option<usize> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--routers" {
            let v = args.next().expect("--routers needs a count");
            let n: usize = v.parse().expect("--routers needs an integer count");
            assert!(n >= 4, "--routers needs a count >= 4");
            return Some(n);
        }
    }
    None
}

/// Parse `--receivers N`: the roaming-receiver population for the metro
/// stress run. `None` leaves the default.
pub fn receivers_flag() -> Option<usize> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--receivers" {
            let v = args.next().expect("--receivers needs a count");
            return Some(v.parse().expect("--receivers needs an integer count"));
        }
    }
    None
}

/// Parse `--workers N` / `--serial` (= `--workers 1`): the sweep worker
/// pool override. `None` leaves the pool at its configured default.
pub fn workers_flag() -> Option<usize> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--serial" {
            return Some(1);
        }
        if a == "--workers" {
            let v = args.next().expect("--workers needs a count");
            let n: usize = v.parse().expect("--workers needs an integer count");
            assert!(n >= 1, "--workers needs a count >= 1");
            return Some(n);
        }
    }
    None
}
