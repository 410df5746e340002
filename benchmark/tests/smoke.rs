//! Runs every workload at smoke size through the driver's contract and
//! checks the output against `BENCHMARK.json`: every listed metric and
//! workload is present, finite and carries its unit, and names use only
//! the characters the contract allows.

use serde_json::Value;
use std::path::Path;
use std::process::Command;

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names(spec: &Value, key: &str) -> Vec<(String, String)> {
    spec[key]
        .as_array()
        .expect("a list")
        .iter()
        .map(|m| {
            let name = m["name"].as_str().expect("name").to_owned();
            (name, m["unit"].as_str().unwrap_or("").to_owned())
        })
        .collect()
}

fn name_ok(name: &str) -> bool {
    let first = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    let rest = name
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
    first && rest && name.len() <= 64
}

fn run_contract(workload: &str, trace: &str) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_mobicast-benchmark"))
        .args(["--workload", workload, "--seed", "11", "--seconds", "1"])
        .args(["--trace", trace, "--smoke"])
        .output()
        .expect("benchmark runs");
    assert!(
        out.status.success(),
        "{workload} --trace {trace}: {}",
        out.status
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    serde_json::from_str(stdout.lines().last().expect("a result line")).expect("result parses")
}

fn check(result: &Value, listed: &[(String, String)], what: &str) {
    assert_eq!(result["correct"].as_bool(), Some(true), "{what}");
    assert!(
        result["attempted"].as_u64().expect("attempted") >= 1,
        "{what}"
    );
    assert_eq!(result["failed"].as_u64(), Some(0), "{what}");
    let metrics = result["metrics"].as_object().expect("metrics");
    assert_eq!(
        metrics.len(),
        listed.len(),
        "{what}: exactly the listed metrics"
    );
    for (name, unit) in listed {
        let m = &result["metrics"][name.as_str()];
        let value = m["value"].as_f64().unwrap_or(f64::NAN);
        assert!(value.is_finite(), "{what}: {name} is not a finite number");
        assert_eq!(
            m["unit"].as_str(),
            Some(unit.as_str()),
            "{what}: {name} unit"
        );
    }
}

#[test]
fn smoke_run_prints_every_listed_metric_for_every_workload() {
    let spec = benchmark_json();
    let end_to_end = names(&spec, "end_to_end");
    let per_layer = names(&spec, "per_layer");
    let workloads = names(&spec, "workloads");
    assert_eq!(workloads.len(), 5);
    for (name, _) in end_to_end.iter().chain(&per_layer).chain(&workloads) {
        assert!(name_ok(name), "bad name {name:?}");
    }
    for (workload, _) in &workloads {
        check(
            &run_contract(workload, "0"),
            &end_to_end,
            &format!("{workload} untraced"),
        );
        check(
            &run_contract(workload, "1"),
            &per_layer,
            &format!("{workload} traced"),
        );
    }
}
