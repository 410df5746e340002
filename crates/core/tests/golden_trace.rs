//! Golden-trace regression tests: fixed-seed runs of the reference
//! scenarios must reproduce their committed JSONL traces line for line.
//!
//! The trace is the simulator's observable event history (protocol sends,
//! timer fires, handoffs, tunnel operations) in the versioned export
//! schema, so any behavioral drift — an event reordered by a queue change,
//! a timer moved by a config change, a handler added or removed — shows up
//! here as a first-divergence diff, not as a silently shifted figure.
//! Every line is also schema-validated, keeping the goldens honest, and
//! two more runs — a chaos plan and a budgeted signalling storm, the ones
//! whose `fault` and `ovl` lines reach the schema check — are validated
//! (trace and exports) without a golden.
//!
//! To regenerate after an *intentional* behavior change:
//! `MOBICAST_UPDATE_GOLDENS=1 cargo test -p mobicast-core --test golden_trace`
//! and commit the diff.

use mobicast_core::router_node::ResourceBudget;
use mobicast_core::scenario::{self, PaperHost, ScenarioConfig};
use mobicast_core::strategy::Policy;
use mobicast_core::{chaos, observability, RunReport};
use mobicast_net::{FaultPlan, StormModel};
use mobicast_sim::trace::validate_jsonl_line;
use mobicast_sim::{openmetrics, perfetto, RateLimit, SimDuration};
use std::path::PathBuf;

const TRACE_CAPACITY: usize = 100_000;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(format!("{name}.jsonl"))
}

fn capture(cfg: &ScenarioConfig) -> (String, RunReport) {
    let result = scenario::run(cfg);
    assert!(
        result.report.oracle.violations.is_empty(),
        "{}: oracle violations: {:?}",
        cfg.name,
        result.report.oracle.violations
    );
    let trace = result.trace_jsonl.expect("trace captured");
    assert_eq!(
        result.trace_dropped, 0,
        "{}: trace ring overflowed",
        cfg.name
    );
    for (i, line) in trace.lines().enumerate() {
        validate_jsonl_line(line)
            .unwrap_or_else(|e| panic!("{}: invalid trace line {}: {e}: {line}", cfg.name, i + 1));
    }
    (trace, result.report)
}

fn check_golden(cfg: &ScenarioConfig) {
    let (trace, _) = capture(cfg);
    let path = golden_path(&cfg.name);
    if std::env::var_os("MOBICAST_UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &trace).unwrap();
        eprintln!("(updated {})", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: cannot read golden {} ({e}); regenerate with \
             MOBICAST_UPDATE_GOLDENS=1",
            cfg.name,
            path.display()
        )
    });
    let mut got = trace.lines();
    let mut want = golden.lines();
    let mut line_no = 0usize;
    loop {
        line_no += 1;
        match (got.next(), want.next()) {
            (None, None) => break,
            (g, w) => assert_eq!(
                g, w,
                "{}: trace diverges from golden at line {line_no} \
                 (got vs want); if the change is intentional, regenerate \
                 with MOBICAST_UPDATE_GOLDENS=1 and commit",
                cfg.name
            ),
        }
    }
}

/// Figure-1 steady state: flood, prune, and stable delivery. Short run —
/// the golden pins the startup sequence (MLD joins, initial flood,
/// prune/assert resolution), where most event-ordering changes surface.
#[test]
fn fig1_trace_matches_golden() {
    check_golden(
        &ScenarioConfig::builder()
            .seed(1)
            .duration(SimDuration::from_secs(30))
            .trace_capture(TRACE_CAPACITY)
            .name("golden-fig1")
            .build(),
    );
}

/// A bidirectional-tunnel handoff: R3 roams to the pruned Link 6, sends a
/// Binding Update, and traffic resumes through the HA tunnel. The golden
/// pins the full MIPv6 signalling and encap/decap event sequence.
#[test]
fn handoff_trace_matches_golden() {
    check_golden(&handoff_cfg(Policy::BIDIRECTIONAL_TUNNEL, "golden-handoff"));
}

/// The same roam under each remaining Table-1 approach, so every
/// approach's distinct signalling (group-list sub-option presence, local
/// rejoin vs tunnel direction) is pinned by its own golden. Together with
/// the two goldens above this gives all four paper approaches a
/// byte-level behavioral fingerprint.
fn handoff_cfg(policy: Policy, name: &'static str) -> ScenarioConfig {
    ScenarioConfig::builder()
        .seed(1)
        .duration(SimDuration::from_secs(80))
        .policy(policy)
        .move_at(40.0, PaperHost::R3, 6)
        .trace_capture(TRACE_CAPACITY)
        .name(name)
        .build()
}

#[test]
fn handoff_local_trace_matches_golden() {
    check_golden(&handoff_cfg(Policy::LOCAL, "golden-handoff-local"));
}

#[test]
fn handoff_mh_ha_trace_matches_golden() {
    check_golden(&handoff_cfg(
        Policy::TUNNEL_MH_TO_HA,
        "golden-handoff-mh-ha",
    ));
}

#[test]
fn handoff_ha_mh_trace_matches_golden() {
    check_golden(&handoff_cfg(
        Policy::TUNNEL_HA_TO_MH,
        "golden-handoff-ha-mh",
    ));
}

/// Validated, not pinned: `cfg`'s trace must carry `cat` lines and pass the
/// schema check, and its Perfetto and OpenMetrics exports their validators.
fn check_validates(cfg: &ScenarioConfig, cat: &str) {
    let (trace, report) = capture(cfg);
    assert!(
        trace.contains(&format!("\"cat\":\"{cat}\"")),
        "{}: no {cat} line reached the schema check",
        cfg.name
    );
    perfetto::validate_chrome_trace(&observability::run_perfetto(&cfg.name, &report))
        .unwrap_or_else(|e| panic!("{}: perfetto export invalid: {e}", cfg.name));
    openmetrics::validate_openmetrics(&observability::run_openmetrics(&report))
        .unwrap_or_else(|e| panic!("{}: openmetrics export invalid: {e}", cfg.name));
}

/// A fixed chaos plan — loss, flaps, crashes and roaming under the
/// bidirectional tunnel — puts `fault` lines in the trace.
#[test]
fn chaos_trace_and_exports_validate() {
    let seed = 7;
    let mut cfg = chaos::plan_for_seed(seed).config(Policy::BIDIRECTIONAL_TUNNEL, seed);
    cfg.name = "chaos".into();
    cfg.trace_capture = Some(TRACE_CAPACITY);
    check_validates(&cfg, "fault");
}

/// A budgeted run under a severe signalling storm — bounded state tables,
/// rate-limited control-plane ingress, R3 roaming after the storm clears —
/// puts admission-control (`ovl`) lines in the trace.
#[test]
fn storm_trace_and_exports_validate() {
    let storm = StormModel {
        zap_rate: 8.0,
        zap_groups: 16,
        bu_rate: 5.0,
        flap_rate: 1.0,
        flap_hosts: 2,
        start_secs: 10.0,
        end_secs: 90.0,
    };
    let budget = ResourceBudget {
        mld_listeners: Some(8),
        pim_sg_entries: Some(8),
        binding_cache: Some(4),
        control_rate: Some(RateLimit {
            rate_per_sec: 5.0,
            burst: 10,
        }),
        event_queue_depth: Some(1 << 18),
    };
    check_validates(
        &ScenarioConfig::builder()
            .duration(SimDuration::from_secs(170))
            .policy(Policy::BIDIRECTIONAL_TUNNEL)
            .move_at(100.0, PaperHost::R3, 6)
            .fault(FaultPlan {
                storm,
                ..FaultPlan::default()
            })
            .budget(budget)
            .protected_floor(0.9)
            .trace_capture(TRACE_CAPACITY)
            .name("storm")
            .build(),
        "ovl",
    );
}
