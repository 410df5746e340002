//! Exporter goldens and determinism contract for the observability
//! subsystem: the fixed [`observability::golden_scenario`] run must
//! reproduce its committed Perfetto and OpenMetrics exports byte for
//! byte, and every policy's handoff run must produce a complete causal
//! span timeline (root episode, phase children, interruption digest).
//!
//! To regenerate after an *intentional* behavior change:
//! `MOBICAST_UPDATE_GOLDENS=1 cargo test -p mobicast-core --test golden_observability`
//! and commit the diff.

use mobicast_core::observability;
use mobicast_core::scenario::{self, PaperHost, ScenarioConfig};
use mobicast_core::strategy::{Policy, RecvPath};
use mobicast_sim::{openmetrics, perfetto, SimDuration};
use serde::Serialize as _;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(name)
}

fn check_golden(name: &str, got: &str) {
    let path = golden_path(name);
    if std::env::var_os("MOBICAST_UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got).unwrap();
        eprintln!("(updated {})", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden {} ({e}); regenerate with MOBICAST_UPDATE_GOLDENS=1",
            path.display()
        )
    });
    assert_eq!(
        got, golden,
        "{name}: export diverges from golden; if the change is \
         intentional, regenerate with MOBICAST_UPDATE_GOLDENS=1 and commit"
    );
}

/// The fixed golden run exports byte-identical, validator-clean Perfetto
/// and OpenMetrics documents.
#[test]
fn observability_exports_match_goldens() {
    let cfg = observability::golden_scenario();
    let r = scenario::run(&cfg);
    assert!(r.report.oracle.violations.is_empty());

    let trace = observability::run_perfetto(&cfg.name, &r.report);
    perfetto::validate_chrome_trace(&trace).expect("perfetto export validates");
    check_golden("golden-observability.trace.json", &trace);

    let om = observability::run_openmetrics(&r.report);
    openmetrics::validate_openmetrics(&om).expect("openmetrics export validates");
    check_golden("golden-observability.om.txt", &om);
}

/// Repeated same-seed runs serialize the whole observability block — and
/// both exports — byte-identically.
#[test]
fn observability_is_deterministic_across_repeated_runs() {
    let cfg = observability::golden_scenario();
    let a = scenario::run(&cfg);
    let b = scenario::run(&cfg);
    let ser = |r: &mobicast_core::RunReport| {
        serde_json::to_string(&r.observability.to_json_value()).unwrap()
    };
    assert_eq!(ser(&a.report), ser(&b.report));
    assert_eq!(
        observability::run_perfetto(&cfg.name, &a.report),
        observability::run_perfetto(&cfg.name, &b.report)
    );
    assert_eq!(
        observability::run_openmetrics(&a.report),
        observability::run_openmetrics(&b.report)
    );
}

fn handoff_cfg(policy: Policy) -> ScenarioConfig {
    ScenarioConfig::builder()
        .duration(SimDuration::from_secs(120))
        .policy(policy)
        .data_interval(SimDuration::from_millis(250))
        .move_at(40.0, PaperHost::R3, 6)
        .name(format!("obs-handoff-{}", policy.id()))
        .build()
}

/// Every registered policy — the paper's four approaches and the
/// hierarchical proxy — produces a complete causal handoff timeline: a
/// root `handoff` span per move, a closed `interruption` child feeding
/// the digest, and the phase children its recovery path implies.
#[test]
fn every_policy_produces_causal_handoff_spans() {
    for policy in Policy::all() {
        let r = scenario::run(&handoff_cfg(policy));
        let obs = &r.report.observability;
        let id = policy.id();

        let handoffs: Vec<_> = obs.spans_named("handoff").collect();
        assert_eq!(handoffs.len(), 1, "{id}: one move, one episode");
        let h = handoffs[0];
        assert!(
            matches!(h.attr("policy"), Some(mobicast_sim::FieldValue::Str(s)) if s == id),
            "{id}: root span carries the policy"
        );
        assert!(h.end_ns.is_some(), "{id}: episode closed by recovery");

        let children = obs.children_of(h.id);
        let child = |name: &str| children.iter().find(|c| c.name == name);
        let interruption = child("interruption").unwrap_or_else(|| {
            panic!("{id}: missing interruption child");
        });
        assert!(
            interruption.end_ns.is_some(),
            "{id}: delivery resumed, interruption closed"
        );
        let digest = obs
            .span_digest("interruption")
            .unwrap_or_else(|| panic!("{id}: no interruption digest"));
        assert_eq!(digest.count, 1, "{id}");
        assert!(digest.p95_secs() > 0.0, "{id}");

        // Phase children follow the approach's recovery path: remote
        // subscription rejoins MLD locally; every tunnel approach runs a
        // BU round trip instead.
        if policy.recv_plane() == RecvPath::Local {
            assert!(child("mld_rejoin").is_some(), "{id}: local rejoin span");
        } else {
            let bu = child("bu").unwrap_or_else(|| panic!("{id}: missing bu span"));
            assert!(bu.end_ns.is_some(), "{id}: BU acked");
            assert!(child("tunnel").is_some(), "{id}: tunnel establishment span");
        }
    }
}

/// The handoff join used by the report dashboard survives a real run:
/// rows carry the interruption figure and a non-empty phase breakdown.
#[test]
fn dashboard_rows_join_real_runs() {
    let r = scenario::run(&handoff_cfg(Policy::BIDIRECTIONAL_TUNNEL));
    let stats = observability::policy_handoff_stats("bidir-tunnel", &r.report.observability, 3);
    assert_eq!(stats.handoffs, 1);
    assert_eq!(stats.recovered, 1);
    let row = &stats.slowest[0];
    assert!(row.interruption_s.unwrap() > 0.0);
    assert!(row.phases.bu_s.is_some(), "BU phase in the breakdown");
}
