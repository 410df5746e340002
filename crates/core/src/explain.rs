//! Packet-journey explainer: reconstructs the full causal path of one
//! application datagram from the recorder's provenance chains
//! ([`Journal::chain`](crate::recorder::Journal::chain)) and
//! optionally interleaves the typed JSONL
//! trace, so an operator can answer "what happened to packet X?" —
//! which links it crossed, where it was tunnelled, which copies were
//! flooded and wasted, and which protocol activity (prunes, asserts,
//! fault drops) surrounded it.
//!
//! The reconstruction uses only recorded ground truth; it performs no
//! heuristics, so a journey is exactly as reproducible as the run that
//! produced it.

use crate::recorder::{ChainEnd, DataEvent, Delivery, PacketMeta, Recorder};
use mobicast_sim::trace::NOTE_KIND;
use mobicast_sim::{SimTime, SpanBook, TraceCategory, TraceEvent};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// One emission on the causal path of a delivered copy, origin first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JourneyHop {
    /// Provenance tag of the emission.
    pub id: u64,
    pub link: mobicast_net::LinkId,
    pub time: SimTime,
    pub size: u32,
    pub tunneled: bool,
}

/// A delivery and the exact chain of emissions that produced it.
#[derive(Clone, Debug)]
pub struct DeliveryPath {
    pub delivery: Delivery,
    /// Emissions from the origin (index 0, `parent == None`) to the frame
    /// that reached the host. Empty when the delivering frame's tag is
    /// unknown (`via == 0`) or the chain is broken.
    pub hops: Vec<JourneyHop>,
    /// True when the chain walked back to a proper origin.
    pub complete: bool,
}

/// Everything known about one packet id.
#[derive(Clone, Debug, Default)]
pub struct Journey {
    pub pkt: u64,
    pub meta: Option<PacketMeta>,
    pub paths: Vec<DeliveryPath>,
    /// Every recorded emission of this packet (all copies on all links).
    pub copies: Vec<JourneyHop>,
    /// Emissions of this packet on no delivery path (flood waste, copies
    /// destroyed by faults or pruning).
    pub wasted: Vec<JourneyHop>,
    /// Rows the journal had retired when it was read. Non-zero, the copies
    /// and paths above are what was left, not the journey: only a run that
    /// kept its whole journal (`scenario::run_with_recorder`) can be
    /// explained.
    pub retired_rows: u64,
}

impl Journey {
    /// Time window the packet was live: origin send to the last recorded
    /// copy or delivery.
    pub fn window(&self) -> Option<(SimTime, SimTime)> {
        let start = self
            .meta
            .map(|m| m.sent_at)
            .or_else(|| self.copies.first().map(|c| c.time))?;
        let end = self
            .copies
            .iter()
            .map(|c| c.time)
            .chain(self.paths.iter().map(|p| p.delivery.time))
            .max()?;
        Some((start, end))
    }
}

fn hop(ev: DataEvent) -> JourneyHop {
    JourneyHop {
        id: ev.id,
        link: ev.link,
        time: ev.time,
        size: ev.size,
        tunneled: ev.tunneled,
    }
}

/// Reconstruct the journey of packet `pkt` from recorded ground truth.
pub fn explain(rec: &Recorder, pkt: u64) -> Journey {
    let journal = &rec.data_events;
    let mut journey = Journey {
        pkt,
        meta: rec.packets.iter().find(|m| m.pkt == pkt).copied(),
        retired_rows: journal.retired() as u64,
        ..Journey::default()
    };
    journey.copies = journal.iter().filter(|ev| ev.pkt == pkt).map(hop).collect();

    // Tags of the emissions on some delivery path.
    let mut used: BTreeSet<u64> = BTreeSet::new();
    for d in rec.deliveries.iter().filter(|d| d.pkt == pkt) {
        let mut chain = journal.chain(d.via);
        let mut hops = Vec::new();
        for (_, ev) in &mut chain {
            hops.push(hop(ev));
            used.insert(ev.id);
        }
        hops.reverse(); // origin first
        journey.paths.push(DeliveryPath {
            delivery: d,
            hops,
            complete: chain.end() == ChainEnd::Origin,
        });
    }

    let copies = journey.copies.iter();
    journey.wasted = copies.filter(|c| !used.contains(&c.id)).copied().collect();
    journey
}

/// Trace categories worth interleaving into a journey rendering: protocol
/// state transitions and fault activity that explain *why* copies appeared
/// or vanished.
fn context_category(cat: TraceCategory) -> bool {
    matches!(
        cat,
        TraceCategory::Pim | TraceCategory::Mld | TraceCategory::MobileIp | TraceCategory::Fault
    )
}

/// The enclosing causal-span annotation for an instant at a node: cites
/// the innermost span covering `t` and, when it is a phase child, the
/// root episode it belongs to (`[span #3 handoff phase=bu]`).
fn span_note(book: &SpanBook, node: u64, t: SimTime) -> String {
    let Some(s) = book.enclosing(node, t.as_nanos()) else {
        return String::new();
    };
    let mut root = s;
    while let Some(p) = root.parent.and_then(|p| book.get(p)) {
        root = p;
    }
    if root.id == s.id {
        format!(" [span {} {}]", s.id, s.name)
    } else {
        format!(" [span {} {} phase={}]", root.id, root.name, s.name)
    }
}

/// Render a journey as deterministic human-readable text. When `trace` is
/// given, protocol/fault events inside the packet's live window are
/// interleaved as context lines.
pub fn render(journey: &Journey, trace: Option<&[TraceEvent]>) -> String {
    render_with_spans(journey, trace, None)
}

/// As [`render`], additionally annotating each delivery and each hop with
/// the receiving host's enclosing causal span — so "this copy arrived
/// mid-handoff, during the BU phase" is visible right on the hop line.
pub fn render_with_spans(
    journey: &Journey,
    trace: Option<&[TraceEvent]>,
    spans: Option<&SpanBook>,
) -> String {
    let mut out = String::new();
    if journey.retired_rows > 0 {
        let _ = writeln!(
            out,
            "journal retired {} rows — journeys need `run_with_recorder`",
            journey.retired_rows
        );
    }
    let pkt = journey.pkt;
    let _ = writeln!(
        out,
        "packet {pkt:#x} (origin host {}, seq {})",
        pkt >> 32,
        pkt & 0xffff_ffff
    );
    match journey.meta {
        Some(m) => {
            let _ = writeln!(
                out,
                "  sent at {:.6}s on link {} to {} from {}",
                m.sent_at.as_secs_f64(),
                m.origin_link.index(),
                m.group,
                m.src_addr
            );
        }
        None => {
            let _ = writeln!(out, "  no origin record (packet never sent?)");
        }
    }
    let _ = writeln!(
        out,
        "  copies on wire: {}   deliveries: {}   wasted copies: {}",
        journey.copies.len(),
        journey.paths.len(),
        journey.wasted.len()
    );

    for (i, p) in journey.paths.iter().enumerate() {
        let d = &p.delivery;
        let host = d.host.index() as u64;
        let note = spans.map_or_else(String::new, |b| span_note(b, host, d.time));
        let _ = writeln!(
            out,
            "  delivery #{i} to node {} on link {} at {:.6}s ({}{}){note}",
            d.host.index(),
            d.link.index(),
            d.time.as_secs_f64(),
            if d.first { "first" } else { "duplicate" },
            if p.complete { "" } else { ", chain incomplete" },
        );
        for (n, h) in p.hops.iter().enumerate() {
            let note = spans.map_or_else(String::new, |b| span_note(b, host, h.time));
            let _ = writeln!(
                out,
                "    hop {n}: link {} at {:.6}s, {} bytes{}{}{note}",
                h.link.index(),
                h.time.as_secs_f64(),
                h.size,
                if h.tunneled { ", tunneled" } else { "" },
                if n == 0 { " (origin)" } else { "" },
            );
        }
    }

    for w in &journey.wasted {
        let _ = writeln!(
            out,
            "  wasted copy: link {} at {:.6}s, {} bytes{}",
            w.link.index(),
            w.time.as_secs_f64(),
            w.size,
            if w.tunneled { ", tunneled" } else { "" },
        );
    }

    // Wire damage during the packet's live window, called out explicitly:
    // corruption on links this packet's copies crossed, and the malformed
    // frames the hardened decoders rejected.
    if let (Some(trace), Some((start, end))) = (trace, journey.window()) {
        let links: Vec<usize> = journey.copies.iter().map(|c| c.link.index()).collect();
        for ev in trace {
            if ev.at < start || ev.at > end || ev.category != TraceCategory::Fault {
                continue;
            }
            let field = |name: &str| {
                ev.fields
                    .iter()
                    .find(|(k, _)| *k == name)
                    .map(|(_, v)| v.to_string())
            };
            match ev.kind {
                "corrupted" => {
                    let link = field("link").unwrap_or_default();
                    if links.iter().any(|l| l.to_string() == link) {
                        let _ = writeln!(
                            out,
                            "  ✗ corrupted on link {link} at {:.6}s ({} {})",
                            ev.at.as_secs_f64(),
                            field("kind").unwrap_or_default(),
                            field("class").unwrap_or_default(),
                        );
                    }
                }
                "malformed" => {
                    let _ = writeln!(
                        out,
                        "  ✗ malformed {} frame at node {} at {:.6}s: {}",
                        field("layer").unwrap_or_default(),
                        ev.node,
                        ev.at.as_secs_f64(),
                        field("error").unwrap_or_default(),
                    );
                }
                _ => {}
            }
        }
    }

    // Admission-control decisions during the packet's live window: state
    // refused by a full table, control messages dropped by
    // the ingress token bucket. These explain why a hop is missing — a
    // shed listener or rate-limited graft means a branch never formed.
    if let (Some(trace), Some((start, end))) = (trace, journey.window()) {
        for ev in trace {
            if ev.at < start || ev.at > end || ev.category != TraceCategory::Overload {
                continue;
            }
            let mut fields = String::new();
            for (k, v) in &ev.fields {
                let _ = write!(fields, " {k}={v}");
            }
            let _ = writeln!(
                out,
                "  ⊘ {} at node {} at {:.6}s{}",
                ev.kind,
                ev.node,
                ev.at.as_secs_f64(),
                fields
            );
        }
    }

    if let (Some(trace), Some((start, end))) = (trace, journey.window()) {
        let mut shown = 0;
        for ev in trace {
            if ev.at < start || ev.at > end || !context_category(ev.category) {
                continue;
            }
            if shown == 0 {
                let _ = writeln!(
                    out,
                    "  protocol context in [{:.6}s, {:.6}s]:",
                    start.as_secs_f64(),
                    end.as_secs_f64()
                );
            }
            shown += 1;
            if ev.kind == NOTE_KIND {
                let _ = writeln!(
                    out,
                    "    {:.6}s n{} {}: {}",
                    ev.at.as_secs_f64(),
                    ev.node,
                    ev.category,
                    ev.message
                );
            } else {
                let mut fields = String::new();
                for (k, v) in &ev.fields {
                    let _ = write!(fields, " {k}={v}");
                }
                let _ = writeln!(
                    out,
                    "    {:.6}s n{} {}: {}{}",
                    ev.at.as_secs_f64(),
                    ev.node,
                    ev.category,
                    ev.kind,
                    fields
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::CHAIN_GUARD;
    use crate::scenario::{self, run_with_recorder, PaperHost, ScenarioConfig};
    use crate::strategy::Policy;
    use mobicast_sim::{RingBufferTracer, SimDuration};

    fn cfg() -> ScenarioConfig {
        ScenarioConfig::builder()
            .duration(SimDuration::from_secs(60))
            .policy(Policy::BIDIRECTIONAL_TUNNEL)
            .move_at(20.0, PaperHost::R3, 6)
            .name("explain-test")
            .build()
    }

    /// [`run_with_recorder`], keeping the run's trace events as values.
    fn run_traced(cfg: &ScenarioConfig) -> (Recorder, Vec<TraceEvent>) {
        let (tracer, ring) = RingBufferTracer::new(1_000_000);
        let mut staged = scenario::stage(cfg, tracer).expect("the test scenario stages");
        staged.net().recorder.set_journal_horizon(SimDuration::MAX);
        let (_, rec) = staged.run();
        (rec, ring.drain())
    }

    /// The journey of every first delivery must match the raw provenance
    /// chain exactly: same tags, origin with `parent == None`, no cycles.
    #[test]
    fn journeys_match_recorder_provenance_exactly() {
        let (_, rec) = run_with_recorder(&cfg());
        let pkts: Vec<u64> = rec.packets.iter().map(|m| m.pkt).take(20).collect();
        assert!(!pkts.is_empty());
        let mut verified_paths = 0;
        for pkt in pkts {
            let j = explain(&rec, pkt);
            assert_eq!(j.meta.unwrap().pkt, pkt);
            for p in &j.paths {
                if p.delivery.via == 0 {
                    continue;
                }
                // Manual walk: delivery tag back to the origin.
                let mut manual = Vec::new();
                let mut tag = p.delivery.via;
                loop {
                    let ev = rec.data_events.by_tag(tag).expect("a recorded tag");
                    manual.push(ev.id);
                    match ev.parent {
                        Some(parent) => tag = parent,
                        None => break,
                    }
                    assert!(manual.len() <= CHAIN_GUARD, "cycle in provenance chain");
                }
                manual.reverse();
                let explained: Vec<u64> = p.hops.iter().map(|h| h.id).collect();
                assert_eq!(explained, manual, "pkt {pkt:#x}: chain mismatch");
                assert!(p.complete, "pkt {pkt:#x}: chain must reach an origin");
                verified_paths += 1;
            }
            // Copy accounting: every copy is on a path or wasted, never both.
            let on_paths: Vec<u64> = j
                .paths
                .iter()
                .flat_map(|p| p.hops.iter().map(|h| h.id))
                .collect();
            for w in &j.wasted {
                assert!(!on_paths.contains(&w.id));
            }
            assert!(j.copies.len() >= j.wasted.len());
        }
        assert!(verified_paths > 0, "no delivery chains verified");
    }

    /// Two runs with the same seed must render the identical journey text.
    #[test]
    fn rendering_is_deterministic_across_identical_seeds() {
        let (_, rec_a) = run_with_recorder(&cfg());
        let (_, rec_b) = run_with_recorder(&cfg());
        let pkt = rec_a.packets[3].pkt;
        assert_eq!(rec_b.packets[3].pkt, pkt);
        let a = render(&explain(&rec_a, pkt), None);
        let b = render(&explain(&rec_b, pkt), None);
        assert_eq!(a, b);
        assert!(a.contains("delivery #0"), "{a}");
        assert!(a.contains("(origin)"), "{a}");
    }

    /// Frames mangled in flight on a packet's own links must surface as
    /// explicit `✗ corrupted` marks when the trace is interleaved.
    #[test]
    fn corrupted_hops_are_marked_in_render() {
        use mobicast_net::{CorruptionModel, FaultPlan};
        let mut fault = FaultPlan::default();
        fault.link.corruption = CorruptionModel::uniform(0.05);
        let cfg = ScenarioConfig::builder()
            .duration(SimDuration::from_secs(60))
            .policy(Policy::BIDIRECTIONAL_TUNNEL)
            .fault(fault)
            .name("explain-corruption-test")
            .build();
        let (rec, trace) = run_traced(&cfg);
        assert!(
            trace
                .iter()
                .any(|ev| ev.category == TraceCategory::Fault && ev.kind == "corrupted"),
            "corruption plan produced no corruption events"
        );
        let marked = rec
            .packets
            .iter()
            .any(|m| render(&explain(&rec, m.pkt), Some(&trace)).contains("✗ corrupted on link"));
        assert!(marked, "no journey rendered a corrupted-hop mark");
    }

    /// Admission-control decisions (shed, rate-limited) inside a
    /// packet's live window must surface as explicit `⊘` marks when the
    /// trace is interleaved.
    #[test]
    fn shed_and_rate_limited_hops_are_marked_in_render() {
        use crate::router_node::ResourceBudget;
        use mobicast_net::{FaultPlan, StormModel};
        use mobicast_sim::RateLimit;
        let cfg = ScenarioConfig::builder()
            .duration(SimDuration::from_secs(80))
            .policy(Policy::BIDIRECTIONAL_TUNNEL)
            .fault(FaultPlan {
                storm: StormModel {
                    zap_rate: 8.0,
                    zap_groups: 16,
                    bu_rate: 5.0,
                    flap_rate: 1.0,
                    flap_hosts: 2,
                    start_secs: 5.0,
                    end_secs: 60.0,
                },
                ..FaultPlan::default()
            })
            .budget(ResourceBudget {
                mld_listeners: Some(4),
                pim_sg_entries: Some(4),
                binding_cache: Some(2),
                control_rate: Some(RateLimit {
                    rate_per_sec: 2.0,
                    burst: 4,
                }),
                event_queue_depth: None,
            })
            .name("explain-overload-test")
            .build();
        let (rec, trace) = run_traced(&cfg);
        assert!(
            trace
                .iter()
                .any(|ev| ev.category == TraceCategory::Overload),
            "storm under budget produced no overload events"
        );
        let marked = rec
            .packets
            .iter()
            .any(|m| render(&explain(&rec, m.pkt), Some(&trace)).contains('⊘'));
        assert!(marked, "no journey rendered an admission-control mark");
    }

    /// Deliveries to a host that is mid-handoff must carry the enclosing
    /// span annotation, including the phase when one is active.
    #[test]
    fn deliveries_inside_handoffs_cite_the_enclosing_span() {
        let (_, rec) = run_with_recorder(&cfg());
        assert!(
            rec.spans.records().iter().any(|s| s.name == "handoff"),
            "run produced no handoff spans"
        );
        let annotated = rec.packets.iter().any(|m| {
            render_with_spans(&explain(&rec, m.pkt), None, Some(&rec.spans)).contains("[span #")
        });
        assert!(annotated, "no journey cited an enclosing span");
        // Without a span book the output is the classic rendering.
        let pkt = rec.packets[0].pkt;
        assert_eq!(
            render(&explain(&rec, pkt), None),
            render_with_spans(&explain(&rec, pkt), None, None),
        );
    }

    /// A journal that retired rows cannot be explained, and says so: the
    /// recorder of a run staged as `scenario::run` stages it, against the
    /// whole one `run_with_recorder` hands back.
    #[test]
    fn a_journal_that_retired_rows_is_not_passed_off_as_a_journey() {
        let cfg = cfg();
        let (_, retiring) = crate::scenario::stage(&cfg, mobicast_sim::Tracer::null())
            .unwrap()
            .run();
        let (_, whole) = run_with_recorder(&cfg);
        let pkt = whole.packets[3].pkt;
        let journey = explain(&retiring, pkt);
        assert_eq!(journey.retired_rows, retiring.data_events.retired() as u64);
        assert!(journey.retired_rows > 0 && journey.copies.is_empty());
        let first_line = format!(
            "journal retired {} rows — journeys need `run_with_recorder`\n",
            journey.retired_rows
        );
        assert!(render(&journey, None).starts_with(&first_line));
        let journey = explain(&whole, pkt);
        assert_eq!(journey.retired_rows, 0);
        assert!(render(&journey, None).starts_with("packet "));
    }

    /// A copy whose parent the journal never recorded: the path stops
    /// there, flagged incomplete, and the copy still counts as used.
    #[test]
    fn dangling_parent_leaves_the_chain_incomplete() {
        use crate::recorder::Delivery;
        use mobicast_net::{LinkId, NodeId};
        let mut rec = Recorder::default();
        let mut emit = |parent, link| {
            rec.data_events.record(
                NodeId(0),
                7,
                parent,
                LinkId(link),
                SimTime::ZERO,
                100,
                false,
            )
        };
        let orphan = emit(Some(999), 1);
        let via = emit(Some(orphan), 2);
        let stray = emit(None, 3);
        for via in [via, stray, 0] {
            rec.record_delivery(Delivery {
                pkt: 7,
                host: NodeId(5),
                link: LinkId(2),
                time: SimTime::ZERO,
                first: true,
                via,
            });
        }
        let j = explain(&rec, 7);
        let paths: Vec<(Vec<u64>, bool)> = j
            .paths
            .iter()
            .map(|p| (p.hops.iter().map(|h| h.id).collect(), p.complete))
            .collect();
        assert_eq!(
            paths,
            [
                (vec![orphan, via], false),
                (vec![stray], true),
                (vec![], false)
            ]
        );
        assert_eq!(j.copies.len(), 3);
        assert!(j.wasted.is_empty());
        assert!(render(&j, None).contains("chain incomplete"));
    }

    #[test]
    fn unknown_packet_renders_gracefully() {
        let rec = Recorder::default();
        let j = explain(&rec, 0xdead_beef);
        let text = render(&j, None);
        assert!(text.contains("no origin record"));
        assert!(j.window().is_none());
    }
}
