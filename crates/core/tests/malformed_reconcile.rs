//! Reconciliation for the adversarial fault model: the per-node MIB
//! counters that the hardened receive paths keep (`framesMalformed`,
//! `framesCorruptedOnLink`) must agree exactly with the run's per-path
//! decode-error totals — every typed decode error is counted once, no
//! error path is double-counted and none is silent.

use mobicast_core::scenario::{PaperHost, ScenarioBuilder, ScenarioConfig};
use mobicast_core::{scenario, strategy::Policy};
use mobicast_net::{CorruptionModel, FaultPlan, FaultWindow, LinkFault, LossModel};
use mobicast_sim::SimDuration;

/// Run totals that increment in lockstep with the `framesMalformed` MIB
/// counter (one per hardened decode entry point).
const MALFORMED_SOURCES: [&str; 7] = [
    "router.decode_errors",
    "router.pim_decode_errors",
    "router.icmp_decode_errors",
    "ha.decap_errors",
    "host.decode_errors",
    "host.icmp_decode_errors",
    "host.decap_errors",
];

/// Figure-1 under the bidirectional tunnel with one roam and heavy uniform
/// corruption on every link during `window` (`None`: the whole run).
fn corrupting_scenario(window: Option<FaultWindow>) -> ScenarioBuilder {
    let fault = FaultPlan {
        link: LinkFault {
            loss: LossModel::none(),
            jitter: SimDuration::ZERO,
            // High rate so every mangling class appears in one short run.
            corruption: CorruptionModel::uniform(0.10),
        },
        window,
        ..FaultPlan::default()
    };
    ScenarioConfig::builder()
        .seed(7)
        .duration(SimDuration::from_secs(150))
        .policy(Policy::BIDIRECTIONAL_TUNNEL)
        .move_at(30.0, PaperHost::R3, 6)
        .fault(fault)
        .name("malformed-reconcile")
}

#[test]
fn malformed_counters_reconcile_with_recorder_ground_truth() {
    let window = FaultWindow {
        start_secs: 10.0,
        end_secs: 60.0,
    };
    let cfg = corrupting_scenario(Some(window)).build();
    let r = scenario::run(&cfg);

    let node_total = |key: &str| -> u64 { r.report.node_stats.values().map(|c| c.get(key)).sum() };

    // Corruption actually happened and produced decode errors downstream.
    let corrupted = r.report.counters.get("faults.frames_corrupted");
    let malformed = node_total("framesMalformed");
    assert!(corrupted > 0, "no frames corrupted — fault plan inert");
    assert!(malformed > 0, "corruption produced no decode errors");

    // Every corrupted receiver-copy the world accounted for is attributed
    // to exactly one receiving node.
    assert_eq!(
        node_total("framesCorruptedOnLink"),
        corrupted,
        "per-node corruption attribution disagrees with the world counter"
    );

    // Every framesMalformed increment has exactly one per-path decode-error
    // increment, and vice versa.
    let ground_truth: u64 = MALFORMED_SOURCES
        .iter()
        .map(|n| r.report.counters.get(n))
        .sum();
    assert_eq!(
        malformed, ground_truth,
        "framesMalformed MIB total diverges from the per-path totals"
    );

    // The run itself must stay legal and reconverge once the window ends.
    assert_eq!(
        r.report.oracle.violation_count, 0,
        "{:?}",
        r.report.oracle.violations
    );
    assert_eq!(
        r.report.oracle.reconverge_ok,
        Some(true),
        "reconvergence SLO missed: {:?} s",
        r.report.oracle.reconverge_secs
    );
}

/// Both node kinds account a decode failure the same way — role counter,
/// `framesMalformed`, one typed `malformed` trace event naming the layer —
/// so each role reconciles with its own entry points, and each layer's
/// trace events with the counters of the entry points that decode it.
#[test]
fn each_role_and_each_layer_reconciles_on_its_own() {
    let cfg = corrupting_scenario(None).trace_capture(500_000).build();
    let r = scenario::run(&cfg);
    let truth = |names: &[&str]| -> u64 { names.iter().map(|n| r.report.counters.get(n)).sum() };

    let role_total = |role: &str| -> u64 {
        let of_role = r
            .report
            .node_stats
            .iter()
            .filter(|(k, _)| k.starts_with(role));
        of_role.map(|(_, c)| c.get("framesMalformed")).sum()
    };
    assert_eq!(role_total("router."), truth(&MALFORMED_SOURCES[..4]));
    assert_eq!(role_total("host."), truth(&MALFORMED_SOURCES[4..]));

    assert_eq!(r.trace_dropped, 0, "trace ring overflowed");
    let trace = r.trace_jsonl.expect("trace captured");
    let events = |layer: &str| -> u64 {
        let marker = format!(r#""kind":"malformed","fields":{{"layer":"{layer}","#);
        trace.lines().filter(|l| l.contains(&marker)).count() as u64
    };
    let by_layer: [(&str, &[&str]); 4] = [
        ("ipv6", &["router.decode_errors", "host.decode_errors"]),
        (
            "icmpv6",
            &["router.icmp_decode_errors", "host.icmp_decode_errors"],
        ),
        ("pim", &["router.pim_decode_errors"]),
        ("tunnel", &["ha.decap_errors", "host.decap_errors"]),
    ];
    for (layer, sources) in by_layer {
        assert_eq!(events(layer), truth(sources), "layer {layer}");
    }
    let all = trace
        .lines()
        .filter(|l| l.contains(r#""kind":"malformed""#));
    assert_eq!(all.count() as u64, truth(&MALFORMED_SOURCES));
    for layer in ["ipv6", "icmpv6", "pim"] {
        assert!(events(layer) > 0, "no {layer} decode error in this run");
    }
}
