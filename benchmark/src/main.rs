//! The repo benchmark. See `README.md` beside this package's manifest.
//!
//! ```text
//! mobicast-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, one JSON line
//! mobicast-benchmark [--seed <n>] [--reps <n>] [--smoke] [--out <file>]         the whole suite, one result file
//! mobicast-benchmark compare <a.json> <b.json>
//! mobicast-benchmark kernel <name>
//! ```

mod alloc;
mod compare;
mod driver;
mod kernels;
mod metrics;
mod probes;
mod spans;
mod stats;
mod suite;
mod tally;
mod workloads;

use driver::Run;
use std::process::ExitCode;
use workloads::{Pass, Workload};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// `--key value` options and bare flags after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn value(&self, key: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == key)?;
        self.0.get(i + 1).map(String::as_str)
    }

    fn flag(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.value(key) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("bad value for {key}: {text}")),
        }
    }

    fn workload(&self) -> Result<Option<Workload>, String> {
        match self.value("--workload") {
            None => Ok(None),
            Some(name) => Workload::parse(name)
                .map(Some)
                .ok_or_else(|| format!("unknown workload {name}")),
        }
    }
}

fn real_main() -> Result<ExitCode, String> {
    let args = Args(std::env::args().skip(1).collect());
    let run = Run {
        seed: args.parsed("--seed", 11u64)?,
        smoke: args.flag("--smoke"),
    };
    let code = |ok: bool| {
        if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    };
    match args.0.first().map(String::as_str) {
        // One repetition in this process: what the parent spawns.
        Some("rep") => {
            let w = args.workload()?.ok_or("rep needs --workload")?;
            let pass =
                Pass::parse(args.value("--pass").unwrap_or("plain")).ok_or("unknown pass")?;
            let out = workloads::run_rep(w, run.seed, run.smoke, pass);
            println!("{}", serde_json::to_string(&out).unwrap_or_default());
            Ok(ExitCode::SUCCESS)
        }
        Some("compare") => match (args.0.get(1), args.0.get(2)) {
            (Some(a), Some(b)) => Ok(ExitCode::from(compare::run(a, b))),
            _ => Err("usage: compare <a.json> <b.json>".into()),
        },
        Some("kernel") => {
            let name = args.0.get(1).ok_or("usage: kernel <name>")?;
            let sizes = kernels::Sizes {
                queue_depth: args.parsed("--queue-depth", 4_000)?,
                members_per_link: args.parsed("--members", 5)?,
                sg_entries: args.parsed("--sg-entries", 1)?,
                listeners: args.parsed("--listeners", 1)?,
                bindings: args.parsed("--bindings", 200)?,
                shrink: 1,
            };
            let (_, unit, kernel) = kernels::KERNELS
                .iter()
                .find(|(n, _, _)| n == name)
                .ok_or_else(|| format!("unknown kernel {name}"))?;
            let value = kernel(&sizes)?;
            println!("{name} {value:.3} {unit}");
            Ok(ExitCode::SUCCESS)
        }
        _ => match (args.workload()?, args.value("--trace")) {
            // The driver's contract: one workload, one JSON line.
            (Some(w), Some(trace)) => {
                let seconds = args.parsed("--seconds", 15.0)?;
                let (doc, ok) = driver::run_contract(w, run, seconds, trace == "1");
                println!("{}", serde_json::to_string(&doc).unwrap_or_default());
                Ok(code(ok))
            }
            (only, _) => Ok(code(suite::run_suite(&suite::SuiteOptions {
                run,
                reps: args.parsed("--reps", 7usize)?,
                out: args.value("--out").map(Into::into),
                only,
            }))),
        },
    }
}

fn main() -> ExitCode {
    real_main().unwrap_or_else(|e| {
        eprintln!("mobicast-benchmark: {e}");
        ExitCode::from(2)
    })
}
