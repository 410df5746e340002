//! Handoff latency across delivery policies — Approach 5 (hierarchical
//! proxy) vs the paper's four approaches.
//!
//! R1 (home: Link 1, home agent: router A) roams into the MAP domain
//! (Links 4-6, anchored at router D) and then moves *within* it:
//!
//! * `t = 60 s`  — L1 → L6: inter-domain handoff (enters the domain);
//! * `t = 150.23 s` — L6 → L4: intra-domain handoff, placed one
//!   solicited-RA delay (20 ms) before a CBR tick so the re-registration
//!   races the tick's datagram to the mobility agent. The hierarchical
//!   policy registers with the nearby MAP and wins the race; policies
//!   that must signal the distant home agent lose it and wait a full
//!   data interval for the next tick.
//!
//! For every registered policy we report the rejoin-recovery latency of
//! both handoffs (move → first post-move delivery, the scenario layer's
//! `rejoin_recovery` series) plus the binding-update load seen by the
//! home agent (router A) and the MAP (router D). The hierarchical proxy's
//! defining property is visible in the counters: its intra-domain handoff
//! emits *no* Binding Update to the home agent.

use super::{ExperimentOutput, Settings};
use crate::observability::{self, PolicyHandoffStats};
use crate::report::Table;
use crate::scenario::{self, PaperHost, ScenarioConfig};
use crate::strategy::Policy;
use mobicast_sim::SimDuration;
use serde_json::json;

/// Inter-domain move: R1 leaves home, appears on Link 6.
const INTER_MOVE_SECS: f64 = 60.0;
/// Intra-domain move (L6 → L4), 20 ms before the 150.25 s CBR tick: the
/// handoff completes one solicited-RA delay (20 ms) after the move, so
/// the re-registration lands at the mobility agent within microseconds of
/// the tick's datagram — close enough that only the *local* registration
/// with the MAP arrives in time.
const INTRA_MOVE_SECS: f64 = 150.23;

struct Row {
    policy: Policy,
    /// Rejoin latency of the inter-domain handoff (seconds).
    inter: f64,
    /// Rejoin latency of the intra-domain handoff (seconds).
    intra: f64,
    /// Binding Updates processed by the home agent (router A).
    ha_bu: u64,
    /// Binding Updates processed by the MAP (router D).
    map_bu: u64,
    /// R1's end-to-end delivery fraction over the whole run.
    delivery: f64,
    /// Causal span view of the same run: interruption percentiles plus
    /// the per-phase breakdown of both handoff episodes.
    spans: PolicyHandoffStats,
}

fn one(policy: Policy) -> Row {
    let cfg = ScenarioConfig::builder()
        .duration(SimDuration::from_secs(240))
        .policy(policy)
        .data_interval(SimDuration::from_millis(250))
        .move_at(INTER_MOVE_SECS, PaperHost::R1, 6)
        .move_at(INTRA_MOVE_SECS, PaperHost::R1, 4)
        .name(format!("handoff-latency-{}", policy.id()))
        .build();
    let r = scenario::run(&cfg);
    let samples: Vec<f64> = r
        .report
        .series
        .get("rejoin_recovery")
        .map(|s| s.samples().to_vec())
        .unwrap_or_default();
    assert_eq!(
        samples.len(),
        2,
        "{}: expected one rejoin sample per handoff",
        policy.id()
    );
    let spans = observability::policy_handoff_stats(policy.id(), &r.report.observability, 2);
    Row {
        policy,
        inter: samples[0],
        intra: samples[1],
        ha_bu: r.report.node_stats["router.A"].get("haBindingUpdatesRx"),
        map_bu: r.report.node_stats["router.D"].get("mapBindingUpdatesRx"),
        delivery: r.received["R1"] as f64 / r.sent.max(1) as f64,
        spans,
    }
}

pub fn run(_: Settings) -> ExperimentOutput {
    let rows: Vec<Row> = Policy::all().into_iter().map(one).collect();

    let mut table = Table::new(&[
        "policy",
        "inter-domain rejoin",
        "intra-domain rejoin",
        "HA BUs (router A)",
        "MAP BUs (router D)",
        "R1 delivery",
        "interruption p95",
    ]);
    for r in &rows {
        table.row(vec![
            r.policy.name().into(),
            format!("{:.3} ms", r.inter * 1e3),
            format!("{:.3} ms", r.intra * 1e3),
            format!("{}", r.ha_bu),
            format!("{}", r.map_bu),
            format!("{:.1}%", r.delivery * 100.0),
            format!("{:.3} ms", r.spans.interruption_p95_s * 1e3),
        ]);
    }

    let hier = rows.iter().find(|r| r.policy == Policy::HIERARCHICAL_PROXY);
    let bt = rows
        .iter()
        .find(|r| r.policy == Policy::BIDIRECTIONAL_TUNNEL);
    let mut text = table.render();
    if let (Some(hier), Some(bt)) = (hier, bt) {
        text.push_str(&format!(
            "\nhierarchical proxy vs bi-directional tunnel:\n\
             * intra-domain handoff never signals the home agent: \
             {} HA Binding Updates (tunnel: {})\n\
             * local re-registration with the MAP wins the race against \
             the next datagram: intra-domain rejoin {:.3} ms vs {:.3} ms\n",
            hier.ha_bu,
            bt.ha_bu,
            hier.intra * 1e3,
            bt.intra * 1e3,
        ));
    }

    let mut policies = json!({});
    for r in &rows {
        policies[r.policy.id()] = json!({
            "inter_domain_rejoin_s": r.inter,
            "intra_domain_rejoin_s": r.intra,
            "ha_binding_updates": r.ha_bu,
            "map_binding_updates": r.map_bu,
            "r1_delivery": r.delivery,
            // Full causal view (span digests + phase breakdown) rides in
            // the experiment JSON so the serial/parallel parity harness
            // pins the observability numbers byte-for-byte too.
            "observability": r.spans,
        });
    }

    ExperimentOutput {
        id: "handoff_latency",
        title: "Handoff latency: hierarchical proxy vs the paper's approaches".into(),
        json: json!({
            "inter_move_secs": INTER_MOVE_SECS,
            "intra_move_secs": INTRA_MOVE_SECS,
            "policies": policies,
        }),
        text,
    }
}
