//! Adversarial sweep — every registered delivery policy run against wire
//! corruption (bit flips, truncation, garbage frames, duplication and
//! bounded replay) at rates from 0 to 5 %, with Receiver 3 roaming
//! mid-window so the rejoin signalling itself crosses the corrupted links.
//!
//! This is the end-to-end check of the hardened receive paths: every
//! mangled frame must surface as a typed decode error (counted in the
//! `framesMalformed` MIB counter), never as a panic or a silent state
//! mutation, and the invariant oracle must stay clean. On top of the
//! oracle's safety invariants each run is judged against the
//! **reconvergence SLO**: once the corruption window closes and the last
//! move has settled, delivery must return to steady state within the
//! configured bound. A violation or an SLO miss fails `mobicast
//! adversarial` (and the CI `adversarial` job).
//!
//! The sweep is deterministic: fixed seeds reproduce the same corruption
//! realization and therefore byte-identical `results/adversarial.json`.

use super::{ExperimentOutput, Settings};
use crate::report::{secs, Table};
use crate::scenario::{self, PaperHost, ScenarioConfig};
use crate::strategy::Policy;
use crate::sweep;
use mobicast_net::{CorruptionModel, FaultPlan, FaultWindow, LinkFault, LossModel};
use mobicast_sim::SimDuration;
use serde_json::json;

/// Corruption is injected inside this window; the move happens mid-window.
const CORRUPT_START_SECS: f64 = 10.0;
const CORRUPT_END_SECS: f64 = 60.0;
const MOVE_AT_SECS: f64 = 30.0;
const DURATION_SECS: u64 = 150;
/// Reconvergence demanded within this bound after the window closes.
const SLO_SECS: f64 = 60.0;

#[derive(Default, Clone, serde::Serialize, serde::Deserialize)]
pub struct AdversarialScore {
    pub name: String,
    pub rate: f64,
    pub delivery: f64,
    pub steady_delivery: f64,
    pub frames_corrupted: f64,
    pub frames_malformed: f64,
    pub param_problems_sent: f64,
    pub violations: u64,
    /// Worst (largest) reconvergence time across the merged seeds.
    pub reconverge_s: f64,
    /// Runs whose reconvergence SLO verdict was a miss.
    pub slo_misses: u64,
    pub runs: u64,
}

fn one(policy: Policy, rate: f64, seed: u64) -> AdversarialScore {
    let fault = if rate > 0.0 {
        FaultPlan {
            link: LinkFault {
                loss: LossModel::none(),
                jitter: SimDuration::ZERO,
                corruption: CorruptionModel::uniform(rate),
            },
            window: Some(FaultWindow {
                start_secs: CORRUPT_START_SECS,
                end_secs: CORRUPT_END_SECS,
            }),
            ..FaultPlan::default()
        }
    } else {
        FaultPlan::default()
    };
    let cfg = ScenarioConfig::builder()
        .seed(seed)
        .duration(SimDuration::from_secs(DURATION_SECS))
        .policy(policy)
        .move_at(MOVE_AT_SECS, PaperHost::R3, 6)
        .fault(fault)
        .reconverge_slo_secs(SLO_SECS)
        .name(format!(
            "adversarial-{}-rate{:.1}-seed{}",
            policy.id(),
            rate * 100.0,
            seed
        ))
        .build();
    let r = scenario::run(&cfg);
    let delivery = r.delivery_ratio();
    let steady = if rate > 0.0 {
        r.report.mean("steady_delivery_ratio")
    } else {
        delivery
    };
    let node_total = |key: &str| -> f64 {
        r.report
            .node_stats
            .values()
            .map(|c| c.get(key) as f64)
            .sum()
    };
    let o = &r.report.oracle;
    AdversarialScore {
        name: policy.name().into(),
        rate,
        delivery,
        steady_delivery: steady,
        frames_corrupted: r.report.counters.get("faults.frames_corrupted") as f64,
        frames_malformed: node_total("framesMalformed"),
        param_problems_sent: node_total("paramProblemsSent"),
        violations: o.violation_count,
        reconverge_s: o.reconverge_secs.unwrap_or(0.0),
        slo_misses: u64::from(o.reconverge_ok == Some(false)),
        runs: 1,
    }
}

fn merge(scores: Vec<AdversarialScore>) -> AdversarialScore {
    let n = scores.len() as f64;
    let mut out = scores[0].clone();
    let avg = |f: fn(&AdversarialScore) -> f64| -> f64 { scores.iter().map(f).sum::<f64>() / n };
    out.delivery = avg(|s| s.delivery);
    out.steady_delivery = avg(|s| s.steady_delivery);
    out.frames_corrupted = avg(|s| s.frames_corrupted);
    out.frames_malformed = avg(|s| s.frames_malformed);
    out.param_problems_sent = avg(|s| s.param_problems_sent);
    out.violations = scores.iter().map(|s| s.violations).sum();
    out.reconverge_s = scores.iter().map(|s| s.reconverge_s).fold(0.0, f64::max);
    out.slo_misses = scores.iter().map(|s| s.slo_misses).sum();
    out.runs = scores.len() as u64;
    out
}

pub fn run(settings: Settings) -> ExperimentOutput {
    let Settings { quick, workers, .. } = settings;
    let rates: Vec<f64> = if quick {
        vec![0.0, 0.02]
    } else {
        vec![0.0, 0.01, 0.02, 0.05]
    };
    let seeds: Vec<u64> = if quick { vec![1] } else { (1..=3).collect() };
    let cells = sweep::grid(
        &settings.policies(),
        &rates,
        &seeds,
        workers,
        |&policy, &rate, seed| one(policy, rate, seed),
    );
    let scores: Vec<AdversarialScore> = cells.into_iter().map(merge).collect();
    let total_violations: u64 = scores.iter().map(|s| s.violations).sum();
    let total_slo_misses: u64 = scores.iter().map(|s| s.slo_misses).sum();

    let mut table = Table::new(&[
        "approach",
        "corruption",
        "delivery",
        "steady delivery",
        "corrupted",
        "malformed",
        "param problems",
        "reconverge",
        "SLO",
    ]);
    for s in &scores {
        table.row(vec![
            s.name.clone(),
            format!("{:.0}%", s.rate * 100.0),
            format!("{:.1}%", s.delivery * 100.0),
            format!("{:.1}%", s.steady_delivery * 100.0),
            format!("{:.0}", s.frames_corrupted),
            format!("{:.0}", s.frames_malformed),
            format!("{:.0}", s.param_problems_sent),
            secs(s.reconverge_s),
            if s.slo_misses == 0 { "pass" } else { "MISS" }.into(),
        ]);
    }

    let mut text = table.render();
    text.push_str(&format!(
        "\nEvery link mangles frames (bit flips, truncation, garbage, \
         duplication, replay) at the given rate during a fixed window with \
         R3's rejoin inside it. Corrupted control traffic must surface as \
         typed decode errors — the malformed column counts them — never as \
         panics or silent state corruption; the oracle stayed clean \
         ({total_violations} violations) and every run reconverged within \
         the {SLO_SECS:.0} s SLO after the window closed \
         ({total_slo_misses} misses).\n",
    ));

    ExperimentOutput {
        id: "adversarial",
        title: "Delivery and reconvergence under wire corruption".into(),
        json: json!({
            "scores": scores,
            "total_violations": total_violations,
            "total_slo_misses": total_slo_misses,
            "slo_secs": SLO_SECS,
        }),
        text,
    }
}
