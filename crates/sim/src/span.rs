//! Deterministic sim-time spans with stable ids and parent links.
//!
//! A span is a named interval on the simulation clock, optionally nested
//! under a parent span and carrying typed attributes — the trace's own
//! scalar, [`FieldValue`]. Node glue opens a span when a causal episode
//! starts (a handoff, a BU round-trip, a PIM graft) and closes it when the
//! episode completes, mirroring both into the trace in the same call. The
//! [`SpanBook`] derives ids from `(node, per-node open count)`, so the
//! same seed produces the same ids — serial or parallel — and the
//! serialized form is byte-stable.
//!
//! Spans carry *sim* time only. Wall-clock measurements stay in
//! `SimProfile` and never enter a span (the determinism contract of
//! `RunReport`).

use crate::time::SimTime;
use crate::trace::FieldValue;
use serde::Serialize;
use std::fmt;

/// Stable identifier of a span within one run.
///
/// Encodes `(node + 1) << 32 | per-node open sequence` (the global
/// pseudo-node `u64::MAX` wraps to a zero prefix, so its ids are the bare
/// sequence). A node's ids therefore depend only on its own open order,
/// not on how opens interleave across nodes; the trace goldens pin these
/// values.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize)]
pub struct SpanId(pub u64);

impl SpanId {
    /// Derive the id of the `seq`-th span (1-based) opened on `node`.
    pub fn derive(node: u64, seq: u64) -> SpanId {
        SpanId((node.wrapping_add(1) << 32) | seq)
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// One recorded span. Its name and attribute keys are the literals node
/// glue passes, so a span holds no string of its own but a `Str` value.
#[derive(Clone, Debug, Serialize)]
pub struct SpanRecord {
    /// Stable id, unique within the run.
    pub id: SpanId,
    /// Enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Span name (a stable phase identifier such as `handoff` or `bu`).
    pub name: &'static str,
    /// Node the span belongs to (`usize::MAX as u64` = global).
    pub node: u64,
    /// Open time, nanoseconds of sim time.
    pub start_ns: u64,
    /// Close time; `None` while still open (force-closed at run end).
    pub end_ns: Option<u64>,
    /// Typed attributes, in annotation order.
    pub attrs: Vec<(&'static str, FieldValue)>,
}

impl SpanRecord {
    /// Duration in nanoseconds; `None` while open.
    pub fn duration_ns(&self) -> Option<u64> {
        self.end_ns.map(|e| e.saturating_sub(self.start_ns))
    }

    /// Duration in seconds; `None` while open.
    pub fn duration_secs(&self) -> Option<f64> {
        self.duration_ns().map(|n| n as f64 / 1e9)
    }

    /// Does the span cover sim time `t_ns`? Open spans cover everything
    /// at or after their start.
    pub fn contains_ns(&self, t_ns: u64) -> bool {
        t_ns >= self.start_ns && self.end_ns.is_none_or(|e| t_ns <= e)
    }

    /// First attribute with the given key.
    pub fn attr(&self, key: &str) -> Option<&FieldValue> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Append an attribute. Most spans carry one, so the first gets room
    /// for exactly one.
    fn push_attr(&mut self, key: &'static str, value: FieldValue) {
        if self.attrs.capacity() == 0 {
            self.attrs.reserve_exact(1);
        }
        self.attrs.push((key, value));
    }
}

/// The run-scoped collection of spans. Records stay in open order, which
/// `records()` exposes directly; ids are per-node (see [`SpanId::derive`]),
/// so a hash index maps them back to records. A book told to
/// [`drop_closed`](Self::drop_closed) holds open spans only, in no set
/// order: a closed span's record goes, its id is never issued again.
#[derive(Clone, Debug, Default)]
pub struct SpanBook {
    spans: Vec<SpanRecord>,
    /// id -> position in `spans`.
    index: std::collections::HashMap<u64, usize>,
    /// Per-node open counters feeding [`SpanId::derive`].
    opened: std::collections::HashMap<u64, u64>,
    drop_closed: bool,
}

impl SpanBook {
    /// Open a span at `at`; returns its id.
    pub fn open(
        &mut self,
        name: &'static str,
        node: u64,
        at: SimTime,
        parent: Option<SpanId>,
    ) -> SpanId {
        let seq = self.opened.entry(node).or_insert(0);
        *seq += 1;
        let id = SpanId::derive(node, *seq);
        self.index.insert(id.0, self.spans.len());
        self.spans.push(SpanRecord {
            id,
            parent,
            name,
            node,
            start_ns: at.as_nanos(),
            end_ns: None,
            attrs: Vec::new(),
        });
        id
    }

    /// Attach a typed attribute to an existing span. Unknown ids are
    /// ignored (the span may have been dropped by a bounded collector).
    pub fn annotate(&mut self, id: SpanId, key: &'static str, value: impl Into<FieldValue>) {
        if let Some(s) = self.get_mut(id) {
            s.push_attr(key, value.into());
        }
    }

    /// Close a span at `at`. Closing an already-closed or unknown span is
    /// a no-op (the first close wins, keeping durations stable).
    pub fn close(&mut self, id: SpanId, at: SimTime) {
        if self.drop_closed {
            if let Some(pos) = self.index.remove(&id.0) {
                self.spans.swap_remove(pos);
                if let Some(moved) = self.spans.get(pos) {
                    self.index.insert(moved.id.0, pos);
                }
            }
        } else if let Some(s) = self.get_mut(id) {
            if s.end_ns.is_none() {
                s.end_ns = Some(at.as_nanos());
            }
        }
    }

    /// From now on, drop a span's record when it closes (`true`) or keep
    /// it (`false`, the default). What a run never reads or exports after
    /// it ends — a closed span — need not be held while it goes.
    pub fn drop_closed(&mut self, drop: bool) {
        self.drop_closed = drop;
    }

    /// Close every span still open (run teardown). Returns how many were
    /// force-closed; those spans additionally get `unfinished = true`.
    pub fn close_open(&mut self, at: SimTime) -> usize {
        let t = at.as_nanos();
        let mut n = 0;
        for s in &mut self.spans {
            if s.end_ns.is_none() {
                s.end_ns = Some(t.max(s.start_ns));
                s.push_attr("unfinished", FieldValue::Bool(true));
                n += 1;
            }
        }
        n
    }

    pub fn get(&self, id: SpanId) -> Option<&SpanRecord> {
        self.index.get(&id.0).map(|&pos| &self.spans[pos])
    }

    fn get_mut(&mut self, id: SpanId) -> Option<&mut SpanRecord> {
        match self.index.get(&id.0) {
            Some(&pos) => self.spans.get_mut(pos),
            None => None,
        }
    }

    /// All spans, in open order.
    pub fn records(&self) -> &[SpanRecord] {
        &self.spans
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The innermost span on `node` covering sim time `t_ns`: among
    /// covering spans the one with the latest start (ties broken by the
    /// higher id, i.e. the most recently opened).
    pub fn enclosing(&self, node: u64, t_ns: u64) -> Option<&SpanRecord> {
        self.spans
            .iter()
            .filter(|s| s.node == node && s.contains_ns(t_ns))
            .max_by_key(|s| (s.start_ns, s.id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_stable_and_node_scoped() {
        let mut book = SpanBook::default();
        let a = book.open("handoff", 1, SimTime::from_secs(10), None);
        let b = book.open("bu", 1, SimTime::from_secs(10), Some(a));
        let c = book.open("graft", 2, SimTime::from_secs(10), None);
        let g = book.open("run", u64::MAX, SimTime::from_secs(10), None);
        assert_eq!(a, SpanId::derive(1, 1));
        assert_eq!(b, SpanId::derive(1, 2));
        assert_eq!(c, SpanId::derive(2, 1));
        // The global pseudo-node wraps to a zero prefix: bare sequence.
        assert_eq!(g, SpanId(1));
        assert_eq!(book.get(b).unwrap().parent, Some(a));
        book.close(b, SimTime::from_secs(11));
        book.close(a, SimTime::from_secs(12));
        assert_eq!(book.get(a).unwrap().duration_secs(), Some(2.0));
        // Second close is a no-op.
        book.close(a, SimTime::from_secs(99));
        assert_eq!(book.get(a).unwrap().duration_secs(), Some(2.0));
    }

    /// A book that drops closed spans holds the open ones under their
    /// ids, and issues ids as a book that keeps everything does.
    #[test]
    fn a_book_that_drops_closed_spans_holds_the_open_ones() {
        let mut book = SpanBook::default();
        book.drop_closed(true);
        let at = SimTime::from_secs(1);
        let a = book.open("handoff", 1, at, None);
        let b = book.open("bu", 1, at, Some(a));
        let c = book.open("graft", 2, at, None);
        book.annotate(b, "seq", 3u64);
        book.close(a, SimTime::from_secs(2));
        book.close(a, SimTime::from_secs(3));
        book.annotate(a, "late", true);
        assert!(book.get(a).is_none());
        assert_eq!(book.get(b).unwrap().attr("seq"), Some(&FieldValue::U64(3)));
        assert_eq!(book.get(c).unwrap().name, "graft");
        assert_eq!(book.len(), 2);
        book.close(c, SimTime::from_secs(2));
        assert_eq!(book.open("graft", 2, at, None), SpanId::derive(2, 2));
        assert_eq!(book.open("handoff", 1, at, None), SpanId::derive(1, 3));
        assert_eq!(
            book.records().iter().filter(|s| s.end_ns.is_none()).count(),
            3
        );
        assert_eq!(book.close_open(SimTime::from_secs(4)), 3);
    }

    #[test]
    fn close_open_marks_unfinished() {
        let mut book = SpanBook::default();
        let a = book.open("handoff", 1, SimTime::from_secs(10), None);
        let b = book.open("bu", 1, SimTime::from_secs(11), Some(a));
        book.close(b, SimTime::from_secs(12));
        assert_eq!(book.close_open(SimTime::from_secs(20)), 1);
        let rec = book.get(a).unwrap();
        assert_eq!(rec.end_ns, Some(20_000_000_000));
        assert_eq!(rec.attr("unfinished"), Some(&FieldValue::Bool(true)));
        assert!(book.get(b).unwrap().attr("unfinished").is_none());
    }

    #[test]
    fn enclosing_picks_innermost_on_node() {
        let mut book = SpanBook::default();
        let outer = book.open("handoff", 3, SimTime::from_secs(10), None);
        let inner = book.open("rejoin", 3, SimTime::from_secs(12), Some(outer));
        let _other = book.open("handoff", 4, SimTime::from_secs(11), None);
        book.close(inner, SimTime::from_secs(14));
        book.close(outer, SimTime::from_secs(16));
        let t = SimTime::from_secs(13).as_nanos();
        assert_eq!(book.enclosing(3, t).unwrap().id, inner);
        let t2 = SimTime::from_secs(15).as_nanos();
        assert_eq!(book.enclosing(3, t2).unwrap().id, outer);
        assert!(book.enclosing(5, t).is_none());
    }

    #[test]
    fn span_serializes_with_attrs() {
        let mut book = SpanBook::default();
        let a = book.open("handoff", 1, SimTime::from_secs(1), None);
        book.annotate(a, "policy", "bidir-tunnel");
        book.annotate(a, "to_link", 6u64);
        book.close(a, SimTime::from_secs(2));
        let json = serde_json::to_string(&book.get(a).unwrap().to_json_value()).unwrap();
        assert!(json.contains(&format!("\"id\":{}", a.0)), "{json}");
        assert!(json.contains("\"start_ns\":1000000000"), "{json}");
        assert!(json.contains("bidir-tunnel"), "{json}");
    }

    /// A book's serialized bytes, pinned: names, attributes of every value
    /// kind in annotation order, a span force-closed as `unfinished`, the
    /// global pseudo-node and a parent link.
    #[test]
    fn a_book_serializes_to_these_bytes() {
        let mut book = SpanBook::default();
        let h = book.open("handoff", 1, SimTime::from_secs(1), None);
        book.annotate(h, "policy", "bidir-tunnel");
        book.annotate(h, "to_link", 6u64);
        let g = book.open("delivery_gap", 2, SimTime::from_millis(1_500), Some(h));
        book.annotate(g, "gap_s", 0.25);
        book.annotate(g, "superseded", true);
        book.close(g, SimTime::from_millis(1_750));
        book.open("run", u64::MAX, SimTime::ZERO, None);
        assert_eq!(book.close_open(SimTime::from_secs(3)), 2);
        let json = serde_json::to_string(book.records()).unwrap();
        let want = concat!(
            r#"[{"id":8589934593,"parent":null,"name":"handoff","node":1,"#,
            r#""start_ns":1000000000,"end_ns":3000000000,"attrs":[["policy","bidir-tunnel"],"#,
            r#"["to_link",6],["unfinished",true]]},"#,
            r#"{"id":12884901889,"parent":8589934593,"name":"delivery_gap","node":2,"#,
            r#""start_ns":1500000000,"end_ns":1750000000,"attrs":[["gap_s",0.25],"#,
            r#"["superseded",true]]},"#,
            r#"{"id":1,"parent":null,"name":"run","node":18446744073709551615,"#,
            r#""start_ns":0,"end_ns":3000000000,"attrs":[["unfinished",true]]}]"#,
        );
        assert_eq!(json, want);
    }
}
