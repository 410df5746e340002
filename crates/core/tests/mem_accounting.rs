//! Memory-accounting audit: the state tables' deterministic byte counts
//! must track the closed-form model documented in DESIGN.md ("Compact
//! state & sharding") within ±10%, and holding the listener population
//! fixed while widening group fan-in must reproduce the aggregation
//! collapse Helmy's state-aggregation analysis predicts — bytes per
//! listener falls as listeners share groups, because router state is per
//! (link, group), not per listener. The oracle's state poll scales the
//! same way: its walk does not grow with the listener population.

use mobicast_core::scale::{aggregation_audit, aggregation_curve, metro_spec};
use mobicast_core::stress::{run_stress, StressSpec};
use mobicast_sim::SimDuration;

/// `measured` within ±10% of `model`.
fn within_ten_percent(measured: usize, model: usize) -> bool {
    let (m, p) = (measured as f64, model as f64);
    (m - p).abs() <= 0.10 * p
}

#[test]
fn audit_matches_documented_model_within_ten_percent() {
    // Three aggregation levels: no sharing (every listener a unique
    // (link, group) row), moderate sharing, full sharing.
    for groups in [2048, 32, 2] {
        let audit = aggregation_audit(4000, groups, 37);
        assert!(
            within_ten_percent(audit.measured_bytes, audit.model_bytes),
            "groups={groups}: measured {} vs model {} ({}% off)",
            audit.measured_bytes,
            audit.model_bytes,
            (100.0 * (audit.measured_bytes as f64 - audit.model_bytes as f64)
                / audit.model_bytes as f64)
                .round(),
        );
    }
}

/// The audit is a contract, not an estimate: the table behind the three
/// state holders may be rewritten, but the 100k-listener Helmy curve
/// (293.4 → 15.1 bytes/listener, EXPERIMENTS.md "Metro scale") must come
/// out to the byte.
#[test]
fn audit_reproduces_the_committed_curve_to_the_byte() {
    for (groups, bytes) in [(4096, 29_342_724), (64, 10_681_044), (4, 1_511_436)] {
        let audit = aggregation_audit(100_000, groups, 529);
        assert_eq!(audit.measured_bytes, bytes, "groups={groups}");
    }
}

#[test]
fn aggregation_collapses_bytes_per_listener() {
    let curve = aggregation_curve(4000, 37);
    assert_eq!(curve.len(), 3, "three canonical aggregation levels");
    // Same listener population at every level.
    assert!(curve.iter().all(|a| a.listeners == 4000));
    // Each wider fan-in strictly shrinks per-listener state.
    for pair in curve.windows(2) {
        assert!(
            pair[1].bytes_per_listener < pair[0].bytes_per_listener,
            "aggregation failed to collapse: {} groups -> {:.1} B/l, \
             {} groups -> {:.1} B/l",
            pair[0].groups,
            pair[0].bytes_per_listener,
            pair[1].groups,
            pair[1].bytes_per_listener,
        );
    }
    // The end-to-end collapse is large: full sharing costs well under a
    // third of the unshared state.
    let (first, last) = (&curve[0], &curve[curve.len() - 1]);
    assert!(
        last.bytes_per_listener * 3.0 < first.bytes_per_listener,
        "collapse too small: {:.1} -> {:.1} B/listener",
        first.bytes_per_listener,
        last.bytes_per_listener
    );
    // Row counts saturate at links x groups once listeners outnumber the
    // pairs — the aggregation mechanism itself.
    assert_eq!(last.mld_rows, last.links * last.groups);
    // Per-host binding state never aggregates.
    assert!(curve.iter().all(|a| a.bindings == a.listeners / 10));
}

/// The oracle's 5 s poll walks a router's (S,G) entries only when the
/// table's expiry watermark is overdue or its mutation epoch moved, and
/// the entries are per (S,G), not per listener: quadrupling the listener
/// population on the same 120-router grid must not grow the walk. The
/// source sends every 10 s, slower than the poll, so some polls find a
/// router's table untouched since the last one and must skip it (at a 2 s
/// interval every table is refreshed between two polls and the skip never
/// fires).
#[test]
fn oracle_poll_walk_does_not_grow_with_listeners() {
    let poll = |receivers| {
        let spec = StressSpec {
            movers: 4,
            data_interval: SimDuration::from_secs(10),
            ..metro_spec(120, receivers, 11)
        };
        run_stress(&spec).poll
    };
    let (few, many) = (poll(64), poll(256));
    assert!(few.sg_entries_walked > 0);
    assert!(
        few.sg_walks < few.router_polls,
        "every one of {} router polls walked: quiet tables are not skipped",
        few.router_polls
    );
    assert!(
        many.sg_entries_walked <= few.sg_entries_walked,
        "poll walk grew with listeners: {} entries over {} polls at 64, \
         {} over {} at 256",
        few.sg_entries_walked,
        few.router_polls,
        many.sg_entries_walked,
        many.router_polls
    );
}
