//! Observability glue: the per-run dashboard join (handoff spans × phase
//! children × router graft spans) and the Perfetto / OpenMetrics exports.
//!
//! The span *data* lives in the recorder ([`mobicast_sim::SpanBook`]),
//! opened and closed by `node_kit`, which mirrors every open/close into
//! the trace; this module owns what the rest of the crate does with it —
//! the joined rows the `report` CLI renders and the exported documents.

use crate::analysis::Observability;
use mobicast_sim::{FieldValue, SimTime, SpanRecord};
use serde::Serialize;

/// Per-phase causal breakdown of one handoff episode, in seconds. A
/// `None` means the phase never ran for this approach (e.g. no binding
/// update under the remote-subscription policy).
#[derive(Clone, Debug, Default, Serialize)]
pub struct PhaseBreakdown {
    /// Binding-update round trip (BU sent → first accepted ack).
    pub bu_s: Option<f64>,
    /// Tunnel establishment (BU sent → first tunneled delivery).
    pub tunnel_s: Option<f64>,
    /// MLD rejoin (report sent on the new link → first native delivery).
    pub rejoin_s: Option<f64>,
    /// Router graft spans overlapping the episode window.
    pub grafts: u64,
    /// Summed duration of those graft spans, seconds.
    pub graft_s: Option<f64>,
}

/// One handoff episode joined with its phase children and any router
/// graft activity inside its window — a row of the report dashboard.
#[derive(Clone, Debug, Serialize)]
pub struct HandoffRow {
    /// Root `handoff` span id.
    pub span: u64,
    /// Node the episode belongs to.
    pub node: u64,
    /// Episode start (the move), seconds of sim time.
    pub start_s: f64,
    /// Service interruption: last delivery before the move → first
    /// delivery after. `None` when delivery never resumed.
    pub interruption_s: Option<f64>,
    /// A later move superseded this episode before it recovered.
    pub superseded: bool,
    /// The run ended with this episode still open.
    pub unfinished: bool,
    pub phases: PhaseBreakdown,
}

fn attr_bool(s: &SpanRecord, key: &str) -> bool {
    matches!(s.attr(key), Some(FieldValue::Bool(true)))
}

/// Join every `handoff` root span with its phase children and the router
/// `graft` spans overlapping its window. Rows come back in span-id (=
/// episode open) order; sort by `interruption_s` for a slowest-first
/// view.
pub fn handoff_rows(obs: &Observability) -> Vec<HandoffRow> {
    let grafts: Vec<&SpanRecord> = obs.spans_named("graft").collect();
    obs.spans_named("handoff")
        .map(|h| {
            let mut phases = PhaseBreakdown::default();
            let mut interruption_s = None;
            for c in obs.children_of(h.id) {
                let d = c.duration_secs();
                match c.name {
                    "bu" => phases.bu_s = d,
                    "tunnel" => phases.tunnel_s = d,
                    "mld_rejoin" => phases.rejoin_s = d,
                    "interruption" if !attr_bool(c, "unfinished") => interruption_s = d,
                    _ => {}
                }
            }
            let end = h.end_ns.unwrap_or(u64::MAX);
            let mut graft_total = 0.0;
            for g in grafts
                .iter()
                .filter(|g| g.start_ns >= h.start_ns && g.start_ns <= end)
            {
                phases.grafts += 1;
                graft_total += g.duration_secs().unwrap_or(0.0);
            }
            if phases.grafts > 0 {
                phases.graft_s = Some(graft_total);
            }
            HandoffRow {
                span: h.id.0,
                node: h.node,
                start_s: h.start_ns as f64 / 1e9,
                interruption_s,
                superseded: attr_bool(h, "superseded"),
                unfinished: attr_bool(h, "unfinished"),
                phases,
            }
        })
        .collect()
}

/// Per-policy handoff interruption statistics with the causal breakdown
/// of the slowest episodes — one dashboard section per approach.
#[derive(Clone, Debug, Serialize)]
pub struct PolicyHandoffStats {
    pub policy: String,
    /// Handoff episodes observed (including superseded/unfinished ones).
    pub handoffs: u64,
    /// Episodes whose interruption closed (delivery resumed).
    pub recovered: u64,
    pub interruption_p50_s: f64,
    pub interruption_p95_s: f64,
    pub interruption_p99_s: f64,
    pub interruption_max_s: f64,
    /// Slowest recovered episodes, worst first, with phase breakdown.
    pub slowest: Vec<HandoffRow>,
}

/// Build the per-policy dashboard section from one run's observability
/// block (handoff scenarios run a single policy per run).
pub fn policy_handoff_stats(policy: &str, obs: &Observability, top_n: usize) -> PolicyHandoffStats {
    let mut rows = handoff_rows(obs);
    let handoffs = rows.len() as u64;
    rows.retain(|r| r.interruption_s.is_some());
    let recovered = rows.len() as u64;
    // Worst first; ties resolve by span id so output is deterministic.
    rows.sort_by(|a, b| {
        b.interruption_s
            .partial_cmp(&a.interruption_s)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.span.cmp(&b.span))
    });
    rows.truncate(top_n);
    let d = obs.span_digest("interruption");
    PolicyHandoffStats {
        policy: policy.to_owned(),
        handoffs,
        recovered,
        interruption_p50_s: d.map_or(0.0, |d| d.p50_secs()),
        interruption_p95_s: d.map_or(0.0, |d| d.p95_secs()),
        interruption_p99_s: d.map_or(0.0, |d| d.p99_secs()),
        interruption_max_s: d.map_or(0.0, |d| d.max_secs()),
        slowest: rows,
    }
}

/// Render a run's causal spans and gauge timelines as a Perfetto/Chrome
/// `trace.json` document (open at `ui.perfetto.dev`).
pub fn run_perfetto(process_name: &str, report: &crate::analysis::RunReport) -> String {
    mobicast_sim::perfetto::export_chrome_trace(
        process_name,
        &report.observability.spans,
        &report.observability.timeline,
    )
}

/// Render a run's counters, final gauge values and span-duration
/// summaries as an OpenMetrics text snapshot.
pub fn run_openmetrics(report: &crate::analysis::RunReport) -> String {
    mobicast_sim::openmetrics::export_openmetrics(
        "mobicast",
        &report.counters,
        &report.observability.timeline,
        &report.observability.digests,
    )
}

/// The fixed run behind the exporter goldens: R3 roams to Link 6 once
/// under the bidirectional tunnel. Shared by the core golden test and the
/// repo benchmark's export kernel.
pub fn golden_scenario() -> crate::scenario::ScenarioConfig {
    crate::scenario::ScenarioConfig::builder()
        .duration(mobicast_sim::SimDuration::from_secs(90))
        .policy(crate::strategy::Policy::BIDIRECTIONAL_TUNNEL)
        .move_at(40.0, crate::scenario::PaperHost::R3, 6)
        .name("observability-golden")
        .build()
}

/// Force-close every span still open at the run horizon and fold closed
/// span durations into `span.<name>` digests. Spans tagged `unfinished`
/// (they never really ended) are excluded from the digests so phase
/// percentiles only reflect completed work.
pub(crate) fn finalize_observability(
    spans: mobicast_sim::SpanBook,
    timeline: mobicast_sim::TimeSeriesSet,
    end: SimTime,
) -> Observability {
    let mut spans = spans;
    spans.close_open(end);
    let records = spans.records().to_vec();
    let mut digests: std::collections::BTreeMap<String, mobicast_sim::QuantileDigest> =
        std::collections::BTreeMap::new();
    for s in &records {
        if s.end_ns.is_none() || attr_bool(s, "unfinished") {
            continue;
        }
        if let Some(d) = s.duration_ns() {
            digests
                .entry(format!("span.{}", s.name))
                .or_default()
                .record_ns(d);
        }
    }
    Observability {
        spans: records,
        timeline,
        digests,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobicast_sim::{SpanBook, TimeSeriesSet};

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn sample_obs() -> Observability {
        let mut book = SpanBook::default();
        let h = book.open("handoff", 7, t(10), None);
        let i = book.open("interruption", 7, t(9), Some(h));
        let b = book.open("bu", 7, t(10), Some(h));
        let g = book.open("graft", 2, t(11), None);
        book.close(b, t(12));
        book.close(g, t(13));
        book.close(i, t(14));
        book.close(h, t(14));
        // A second episode that never recovers.
        let h2 = book.open("handoff", 7, t(60), None);
        let _i2 = book.open("interruption", 7, t(59), Some(h2));
        finalize_observability(book, TimeSeriesSet::default(), t(100))
    }

    #[test]
    fn rows_join_phases_and_grafts() {
        let obs = sample_obs();
        let rows = handoff_rows(&obs);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].interruption_s, Some(5.0));
        assert_eq!(rows[0].phases.bu_s, Some(2.0));
        assert_eq!(rows[0].phases.grafts, 1);
        assert_eq!(rows[0].phases.graft_s, Some(2.0));
        // The unrecovered episode reports no interruption figure.
        assert_eq!(rows[1].interruption_s, None);
        assert!(rows[1].unfinished);
    }

    #[test]
    fn policy_stats_count_recovery_and_rank_slowest() {
        let obs = sample_obs();
        let stats = policy_handoff_stats("local", &obs, 5);
        assert_eq!(stats.handoffs, 2);
        assert_eq!(stats.recovered, 1);
        assert_eq!(stats.slowest.len(), 1);
        assert!(stats.interruption_max_s >= 5.0 - 1e-9);
    }

    #[test]
    fn unfinished_spans_stay_out_of_digests() {
        let obs = sample_obs();
        let d = obs.span_digest("interruption").expect("digest exists");
        assert_eq!(d.count, 1, "only the recovered interruption digested");
        // The force-closed span is still in the record, flagged.
        let unfinished: Vec<_> = obs
            .spans
            .iter()
            .filter(|s| attr_bool(s, "unfinished"))
            .collect();
        assert_eq!(unfinished.len(), 2, "h2 and i2 were force-closed");
    }
}
