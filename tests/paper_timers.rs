//! Paper-timer conformance: the default timer profiles must match the
//! constants of the source paper's §4 simulation setup (and the RFCs /
//! drafts it takes them from), and the derived protocol bounds — leave
//! delay, (S,G) soft-state expiry — must hold in an actual run.
//!
//! The table is the contract: if a default drifts, the experiment figures
//! silently stop reproducing the paper, so every row fails loudly here.

use mobicast::core::scenario::{self, PaperHost, ScenarioConfig};
use mobicast::core::strategy::Policy;
use mobicast::mipv6::mobile::{DEFAULT_BINDING_LIFETIME, MAX_BINDACK_TIMEOUT};
use mobicast::mld::config::{QUERY_RESPONSE_INTERVAL, ROBUSTNESS};
use mobicast::mld::MldConfig;
use mobicast::pimdm::config::{
    ASSERT_TIME, DATA_TIMEOUT, GRAFT_RETRY, HELLO_HOLDTIME, HELLO_PERIOD, PRUNE_HOLD_TIME,
};
use mobicast::pimdm::PimConfig;
use mobicast::sim::SimDuration;

#[test]
fn default_timers_match_the_paper() {
    let mld = MldConfig::default();
    let pim = PimConfig::default();

    // (name, actual, expected) — seconds, exactly as in the paper / RFCs.
    let table: &[(&str, SimDuration, u64)] = &[
        // RFC 2710 §7: MLD querier timing.
        ("MLD Query Interval (T_Query)", mld.query_interval, 125),
        (
            "MLD Query Response Interval (T_RespDel)",
            QUERY_RESPONSE_INTERVAL,
            10,
        ),
        // T_MLI = Robustness × T_Query + T_RespDel = 2 × 125 + 10.
        (
            "MLD Multicast Listener Interval (T_MLI)",
            mld.multicast_listener_interval(),
            260,
        ),
        // draft-ietf-pim-v2-dm-03 §4: (S,G) soft-state and prune timing.
        ("PIM-DM Data Timeout", DATA_TIMEOUT, 210),
        ("PIM-DM Prune Hold Time", PRUNE_HOLD_TIME, 210),
        ("PIM-DM Prune Delay (T_PruneDel)", pim.prune_delay, 3),
        ("PIM-DM Hello Period", HELLO_PERIOD, 30),
        ("PIM-DM Hello Holdtime", HELLO_HOLDTIME, 105),
        ("PIM-DM Assert Time", ASSERT_TIME, 180),
        ("PIM-DM Graft Retry Period", GRAFT_RETRY, 3),
        // Mobile IPv6 binding lifetime used throughout the scenarios.
        (
            "MIPv6 Default Binding Lifetime",
            DEFAULT_BINDING_LIFETIME,
            256,
        ),
        ("MIPv6 Max Binding-Ack Timeout", MAX_BINDACK_TIMEOUT, 256),
    ];

    for (name, actual, expect_secs) in table {
        assert_eq!(
            *actual,
            SimDuration::from_secs(*expect_secs),
            "{name}: expected {expect_secs}s, got {actual:?}"
        );
    }

    assert_eq!(ROBUSTNESS, 2, "MLD Robustness Variable");
}

/// The paper's leave-delay bound: after the last listener leaves a link
/// without sending Done, its stale multicast state may persist at most
/// T_MLI = 260 s. Observed on a real roam (R3 leaves Link 4 silently).
#[test]
fn leave_delay_is_bounded_by_t_mli() {
    let cfg = ScenarioConfig::builder()
        .duration(SimDuration::from_secs(400))
        .policy(Policy::LOCAL)
        .move_at(60.0, PaperHost::R3, 6)
        .build();
    let result = scenario::run(&cfg);
    let oracle = &result.report.oracle;
    assert!(oracle.enabled);
    assert!(
        oracle.violations.is_empty(),
        "violations: {:?}",
        oracle.violations
    );
    let t_mli = MldConfig::default()
        .multicast_listener_interval()
        .as_secs_f64();
    assert!(
        oracle.worst_leave_delay_secs <= t_mli,
        "leave delay {:.1}s exceeds T_MLI {t_mli}s",
        oracle.worst_leave_delay_secs
    );
    assert!(
        oracle.worst_leave_delay_secs > 0.0,
        "the silent leave must actually produce a stale-traffic window"
    );
}

/// PIM-DM (S,G) state is soft: without data it must expire within the
/// Data Timeout (210 s). The oracle tracks the worst overstay past that
/// deadline across every router; it must be zero on a clean run.
#[test]
fn sg_state_expires_within_data_timeout() {
    // Stop the source early so every (S,G) entry must age out.
    let cfg = ScenarioConfig::builder()
        .duration(SimDuration::from_secs(400))
        .policy(Policy::LOCAL)
        .build();
    let result = scenario::run(&cfg);
    let oracle = &result.report.oracle;
    assert!(oracle.enabled);
    assert!(
        oracle.violations.is_empty(),
        "violations: {:?}",
        oracle.violations
    );
    assert!(
        oracle.worst_stale_sg_secs <= 0.0,
        "(S,G) state overstayed its 210 s data timeout by {:.1}s",
        oracle.worst_stale_sg_secs
    );
}
