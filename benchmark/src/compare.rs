//! `compare <a.json> <b.json>`: per (end-to-end metric, workload) row, both
//! medians with quartiles, the ratio with its base, and a verdict.

use crate::metrics::END_TO_END;
use serde_json::Value;
use std::path::Path;

/// The regression bound of each end-to-end metric, from `BENCHMARK.json`
/// at the repo root: the one place the bounds are written down.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let spec = load(&path.display().to_string())?;
    spec["end_to_end"]
        .as_array()
        .ok_or("BENCHMARK.json: no end_to_end list")?
        .iter()
        .map(|m| match (m["name"].as_str(), m["bound"].as_f64()) {
            (Some(name), Some(bound)) => Ok((name.to_owned(), bound)),
            _ => Err("BENCHMARK.json: end_to_end entry without name or bound".to_owned()),
        })
        .collect()
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn samples(v: &Value) -> Vec<f64> {
    v["samples"]
        .as_array()
        .map(|a| a.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

/// All four end-to-end metrics are "lower is better". A spread (distance
/// between the quartiles over the median, of either side) wider than the
/// bound leaves the row unresolved, unless every run of `b` beats every
/// run of `a`.
fn verdict(a: &Value, b: &Value, bound: f64) -> &'static str {
    let med = |v: &Value| v["median"].as_f64().unwrap_or(0.0);
    let spread = |v: &Value| {
        let iqr = v["q3"].as_f64().unwrap_or(0.0) - v["q1"].as_f64().unwrap_or(0.0);
        iqr / med(v).max(f64::MIN_POSITIVE)
    };
    let (sa, sb) = (samples(a), samples(b));
    let b_max = sb.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let a_min = sa.iter().copied().fold(f64::INFINITY, f64::min);
    if spread(a).max(spread(b)) > bound {
        return if b_max < a_min {
            "improved"
        } else {
            "unresolved"
        };
    }
    let ratio = med(b) / med(a).max(f64::MIN_POSITIVE);
    if ratio > 1.0 + bound {
        "worse"
    } else if ratio < 1.0 - bound {
        "improved"
    } else {
        "unchanged"
    }
}

/// Exit code: 0 compared, 1 a row is worse, 2 refused.
pub fn run(path_a: &str, path_b: &str) -> u8 {
    let (a, b, bounds) = match (load(path_a), load(path_b), bounds()) {
        (Ok(a), Ok(b), Ok(bounds)) => (a, b, bounds),
        (Err(e), ..) | (_, Err(e), _) | (.., Err(e)) => {
            eprintln!("compare: {e}");
            return 2;
        }
    };
    let (ma, mb) = (&a["manifest"], &b["manifest"]);
    for key in ["nproc", "seed", "benchmark_version", "smoke"] {
        if ma[key] != mb[key] {
            let show = |v: &Value| serde_json::to_string(v).unwrap_or_default();
            eprintln!(
                "compare: REFUSED — manifests differ in {key}: {} vs {}; \
                 these runs are not comparable",
                show(&ma[key]),
                show(&mb[key])
            );
            return 2;
        }
    }
    println!(
        "a = {path_a} (commit {})\nb = {path_b} (commit {})",
        ma["commit"].as_str().unwrap_or("unknown"),
        mb["commit"].as_str().unwrap_or("unknown")
    );
    let mut worse = false;
    println!(
        "{:<12} {:<15} {:>30} {:>30} {:>22}  verdict",
        "metric", "workload", "a median [q1, q3] n", "b median [q1, q3] n", "ratio b/a (base a)"
    );
    let empty = Vec::new();
    for (workload, rows) in a["end_to_end"].as_object().unwrap_or(&empty) {
        let (wa, wb) = (
            &ma["workloads"][workload.as_str()],
            &mb["workloads"][workload.as_str()],
        );
        if wa["report_digest"] != wb["report_digest"]
            || wa["events_executed"] != wb["events_executed"]
        {
            println!(
                "!!! {workload}: REPORT DIGESTS DIFFER ({} / {} events vs {} / {} events) — \
                 the two files timed DIFFERENT SIMULATIONS; host-time rows below compare unlike work",
                wa["report_digest"].as_str().unwrap_or("?"),
                wa["events_executed"].as_u64().unwrap_or(0),
                wb["report_digest"].as_str().unwrap_or("?"),
                wb["events_executed"].as_u64().unwrap_or(0),
            );
        }
        for (name, unit) in END_TO_END {
            let (ra, rb) = (&rows[name], &b["end_to_end"][workload.as_str()][name]);
            let bound = bounds.iter().find(|(n, _)| n == name).map(|(_, b)| *b);
            let (false, Some(bound)) = (rb.is_null(), bound) else {
                println!("{name:<12} {workload:<15} missing from {path_b} or BENCHMARK.json");
                continue;
            };
            let cell = |v: &Value| {
                format!(
                    "{:.4} [{:.4}, {:.4}] {}",
                    v["median"].as_f64().unwrap_or(0.0),
                    v["q1"].as_f64().unwrap_or(0.0),
                    v["q3"].as_f64().unwrap_or(0.0),
                    v["n"].as_u64().unwrap_or(0)
                )
            };
            let base = ra["median"].as_f64().unwrap_or(0.0);
            let ratio = rb["median"].as_f64().unwrap_or(0.0) / base.max(f64::MIN_POSITIVE);
            let v = verdict(ra, rb, bound);
            worse |= v == "worse";
            println!(
                "{name:<12} {workload:<15} {:>30} {:>30} {:>22}  {v} (bound {:.0}%)",
                cell(ra),
                cell(rb),
                format!("{ratio:.3} ({base:.4} {unit})"),
                bound * 100.0
            );
        }
        // Exact counts must repeat for one seed on one commit; between
        // commits a differing count says the simulation itself changed.
        let lb = &b["per_layer"][workload.as_str()];
        let differing: Vec<String> = a["per_layer"][workload.as_str()]
            .as_object()
            .unwrap_or(&empty)
            .iter()
            .filter(|(_, m)| m["source"].as_str() == Some("count"))
            .filter(|(name, m)| m["value"] != lb[name.as_str()]["value"])
            .map(|(name, m)| {
                let other = lb[name.as_str()]["value"].as_f64().unwrap_or(f64::NAN);
                format!(
                    "{name} {} vs {other}",
                    m["value"].as_f64().unwrap_or(f64::NAN)
                )
            })
            .collect();
        if differing.is_empty() {
            println!(
                "{:<12} {:<15} every exact count repeats",
                "counts", workload
            );
        } else {
            println!(
                "{:<12} {:<15} DIFFER: {}",
                "counts",
                workload,
                differing.join("; ")
            );
        }
        let share = |doc: &Value| {
            doc["fail_share"][workload.as_str()]["share"]
                .as_f64()
                .unwrap_or(1.0)
        };
        println!(
            "{:<12} {:<15} a {} b {}",
            "fail_share",
            workload,
            share(&a),
            share(&b)
        );
    }
    u8::from(worse)
}
