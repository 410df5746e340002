//! Structured trace of simulation activity.
//!
//! Traces are the debugging backbone of the simulator: every protocol event
//! (packet send, state transition, timer) can be emitted as a `TraceEvent`.
//! There is one [`Tracer`], and it is either null (every emit is one
//! branch, and its closure never runs) or a handle on a bounded ring whose
//! [`RingBufferTracer`] end drains or exports the events after the run.
//!
//! Events come in two flavours: free-form notes (`kind == "note"`, message
//! text only) and *typed* events (a stable `kind` string plus
//! [`FieldValue`] fields), which survive machine processing. Causal spans
//! ([`crate::span`]) carry the same value type as attributes. Typed events
//! are what the JSONL export ([`jsonl_line`]) and the packet-journey
//! explainer consume; the schema is versioned ([`TRACE_SCHEMA_VERSION`])
//! and every exported line can be checked with [`validate_jsonl_line`].

use crate::time::SimTime;
use serde::{Serialize, Value};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

/// Category of a trace event, used for filtering.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum TraceCategory {
    /// Frame handed to a link / delivered from a link.
    Link,
    /// IPv6 forwarding decisions.
    Forwarding,
    /// MLD protocol activity.
    Mld,
    /// PIM-DM protocol activity.
    Pim,
    /// Mobile IPv6 activity (binding updates, tunnels).
    MobileIp,
    /// Host mobility (attach/detach).
    Mobility,
    /// Application layer (source/sink).
    App,
    /// Simulation harness bookkeeping.
    Harness,
    /// Injected faults (loss bursts, link flaps, crashes).
    Fault,
    /// Overload admission control (sheds, rate-limit drops).
    Overload,
    /// Causal span lifecycle (open/close of handoff-phase spans).
    Span,
}

impl TraceCategory {
    /// Stable short name used in text output and the JSONL export.
    pub fn name(&self) -> &'static str {
        match self {
            TraceCategory::Link => "link",
            TraceCategory::Forwarding => "fwd",
            TraceCategory::Mld => "mld",
            TraceCategory::Pim => "pim",
            TraceCategory::MobileIp => "mip6",
            TraceCategory::Mobility => "move",
            TraceCategory::App => "app",
            TraceCategory::Harness => "sim",
            TraceCategory::Fault => "fault",
            TraceCategory::Overload => "ovl",
            TraceCategory::Span => "span",
        }
    }

    /// Every category, in declaration order (used by schema validation).
    pub const ALL: [TraceCategory; 11] = [
        TraceCategory::Link,
        TraceCategory::Forwarding,
        TraceCategory::Mld,
        TraceCategory::Pim,
        TraceCategory::MobileIp,
        TraceCategory::Mobility,
        TraceCategory::App,
        TraceCategory::Harness,
        TraceCategory::Fault,
        TraceCategory::Overload,
        TraceCategory::Span,
    ];
}

impl fmt::Display for TraceCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A typed scalar: a field of a structured trace event or an attribute
/// of a span.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(String),
}

impl Serialize for FieldValue {
    fn to_json_value(&self) -> Value {
        match self {
            FieldValue::U64(n) => Value::U64(*n),
            FieldValue::I64(n) => Value::I64(*n),
            FieldValue::F64(x) => Value::F64(*x),
            FieldValue::Bool(b) => Value::Bool(*b),
            FieldValue::Str(s) => Value::Str(s.clone()),
        }
    }
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::U64(n) => write!(f, "{n}"),
            FieldValue::I64(n) => write!(f, "{n}"),
            FieldValue::F64(x) => write!(f, "{x}"),
            FieldValue::Bool(b) => write!(f, "{b}"),
            FieldValue::Str(s) => f.write_str(s),
        }
    }
}

impl From<u64> for FieldValue {
    fn from(n: u64) -> Self {
        FieldValue::U64(n)
    }
}
impl From<u32> for FieldValue {
    fn from(n: u32) -> Self {
        FieldValue::U64(n as u64)
    }
}
impl From<usize> for FieldValue {
    fn from(n: usize) -> Self {
        FieldValue::U64(n as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(n: i64) -> Self {
        FieldValue::I64(n)
    }
}
impl From<f64> for FieldValue {
    fn from(x: f64) -> Self {
        FieldValue::F64(x)
    }
}
impl From<bool> for FieldValue {
    fn from(b: bool) -> Self {
        FieldValue::Bool(b)
    }
}
impl From<String> for FieldValue {
    fn from(s: String) -> Self {
        FieldValue::Str(s)
    }
}
impl From<&str> for FieldValue {
    fn from(s: &str) -> Self {
        FieldValue::Str(s.to_owned())
    }
}
impl From<std::net::Ipv6Addr> for FieldValue {
    fn from(a: std::net::Ipv6Addr) -> Self {
        FieldValue::Str(a.to_string())
    }
}

/// Field list of a typed event.
pub type Fields = Vec<(&'static str, FieldValue)>;

/// Event kind used for free-form string messages ([`Tracer::emit_with`]).
pub const NOTE_KIND: &str = "note";

/// One trace record.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    pub at: SimTime,
    pub category: TraceCategory,
    /// Identifier of the node the event happened on (usize::MAX = global).
    pub node: usize,
    /// Stable machine-readable event kind (`"note"` for free-form messages).
    pub kind: &'static str,
    /// Typed key/value payload (empty for free-form messages).
    pub fields: Fields,
    pub message: String,
}

impl TraceEvent {
    /// A free-form note (message text, no fields).
    pub fn note(at: SimTime, category: TraceCategory, node: usize, message: String) -> Self {
        TraceEvent {
            at,
            category,
            node,
            kind: NOTE_KIND,
            fields: Vec::new(),
            message,
        }
    }

    /// A typed event with a stable kind and key/value fields.
    pub fn typed(
        at: SimTime,
        category: TraceCategory,
        node: usize,
        kind: &'static str,
        fields: Fields,
    ) -> Self {
        TraceEvent {
            at,
            category,
            node,
            kind,
            fields,
            message: String::new(),
        }
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>12.6} {:>4} n{:<3}] ",
            self.at.as_secs_f64(),
            self.category,
            self.node,
        )?;
        if self.kind != NOTE_KIND {
            write!(f, "{}", self.kind)?;
            for (k, v) in &self.fields {
                write!(f, " {k}={v}")?;
            }
            if !self.message.is_empty() {
                write!(f, " ")?;
            }
        }
        f.write_str(&self.message)
    }
}

// --- JSONL export ---------------------------------------------------------

/// Schema identifier written in the header line of every trace export.
pub const TRACE_SCHEMA: &str = "mobicast-trace";
/// Version of the export schema; bump on any incompatible line change.
/// v2 added the `span` category (span_open/span_close lifecycle events)
/// and the optional `dropped` header field; v1 lines remain valid.
pub const TRACE_SCHEMA_VERSION: u64 = 2;
/// Oldest schema version [`validate_jsonl_line`] still accepts.
pub const TRACE_SCHEMA_MIN_VERSION: u64 = 1;

impl TraceEvent {
    /// The event as one schema-versioned JSON object (one JSONL line).
    pub fn to_json_value(&self) -> Value {
        let mut members = vec![
            ("v".to_owned(), Value::U64(TRACE_SCHEMA_VERSION)),
            ("t_ns".to_owned(), Value::U64(self.at.as_nanos())),
            ("node".to_owned(), Value::U64(self.node as u64)),
            (
                "cat".to_owned(),
                Value::Str(self.category.name().to_owned()),
            ),
            ("kind".to_owned(), Value::Str(self.kind.to_owned())),
            (
                "fields".to_owned(),
                Value::Object(
                    self.fields
                        .iter()
                        .map(|(k, v)| ((*k).to_owned(), v.to_json_value()))
                        .collect(),
                ),
            ),
        ];
        if !self.message.is_empty() {
            members.push(("msg".to_owned(), Value::Str(self.message.clone())));
        }
        Value::Object(members)
    }
}

/// Header line carrying the count of events evicted from a bounded
/// collector before export (how much history the file is missing).
pub fn jsonl_header_with_dropped(dropped: u64) -> String {
    format!(
        "{{\"schema\":\"{TRACE_SCHEMA}\",\"version\":{TRACE_SCHEMA_VERSION},\"dropped\":{dropped}}}"
    )
}

/// One compact JSONL line for an event (no trailing newline).
pub fn jsonl_line(event: &TraceEvent) -> String {
    serde_json::to_string(&event.to_json_value()).expect("trace serialization is infallible")
}

/// Check one line of a trace export against the versioned schema.
///
/// Accepts either the header line or an event line; returns a description
/// of the first problem found. Used by the CI telemetry job and tests.
pub fn validate_jsonl_line(line: &str) -> Result<(), String> {
    let v = serde_json::from_str(line).map_err(|e| format!("not valid JSON: {e}"))?;
    let version_ok = |n: Option<u64>| {
        n.is_some_and(|n| (TRACE_SCHEMA_MIN_VERSION..=TRACE_SCHEMA_VERSION).contains(&n))
    };
    if v.get("schema").is_some() {
        if v["schema"].as_str() != Some(TRACE_SCHEMA) {
            return Err(format!("unknown schema {:?}", v["schema"].as_str()));
        }
        if !version_ok(v["version"].as_u64()) {
            return Err(format!("unsupported version {:?}", v["version"].as_u64()));
        }
        if v.get("dropped").is_some() && v["dropped"].as_u64().is_none() {
            return Err("non-integer \"dropped\" in header".into());
        }
        return Ok(());
    }
    if !version_ok(v["v"].as_u64()) {
        return Err(format!("bad or missing \"v\": {:?}", v["v"].as_u64()));
    }
    if v["t_ns"].as_u64().is_none() {
        return Err("missing u64 \"t_ns\"".into());
    }
    if v["node"].as_u64().is_none() {
        return Err("missing u64 \"node\"".into());
    }
    let cat = v["cat"].as_str().ok_or("missing string \"cat\"")?;
    if !TraceCategory::ALL.iter().any(|c| c.name() == cat) {
        return Err(format!("unknown category {cat:?}"));
    }
    let kind = v["kind"].as_str().ok_or("missing string \"kind\"")?;
    if kind.is_empty() {
        return Err("empty \"kind\"".into());
    }
    let fields = v["fields"].as_object().ok_or("missing object \"fields\"")?;
    for (key, val) in fields {
        match val {
            Value::U64(_) | Value::I64(_) | Value::F64(_) | Value::Bool(_) | Value::Str(_) => {}
            _ => return Err(format!("field {key:?} is not a scalar")),
        }
    }
    Ok(())
}

/// The simulation's one tracer: null, or a handle on a bounded ring it
/// shares with a [`RingBufferTracer`]. The simulation is single-threaded,
/// so the ring sits behind `Rc<RefCell<..>>` (no atomics on the hot path).
/// Every emit takes a closure that runs only when the tracer is live, so
/// a null tracer costs one `Option` branch per call site.
#[derive(Clone)]
pub struct Tracer {
    ring: Option<Rc<RefCell<Ring>>>,
}

impl Tracer {
    /// A tracer that discards everything.
    pub fn null() -> Self {
        Tracer { ring: None }
    }

    /// Whether events are kept at all: a null tracer keeps none, a ring
    /// keeps every category.
    pub fn enabled(&self) -> bool {
        self.ring.is_some()
    }

    /// Emit a free-form note; the message closure runs only when the
    /// tracer is live.
    pub fn emit_with(
        &self,
        at: SimTime,
        category: TraceCategory,
        node: usize,
        f: impl FnOnce() -> String,
    ) {
        if let Some(ring) = &self.ring {
            ring.borrow_mut()
                .push(TraceEvent::note(at, category, node, f()));
        }
    }

    /// Emit a typed event; the field closure runs only when the tracer is
    /// live.
    pub fn emit_typed(
        &self,
        at: SimTime,
        category: TraceCategory,
        node: usize,
        kind: &'static str,
        fields: impl FnOnce() -> Fields,
    ) {
        if let Some(ring) = &self.ring {
            ring.borrow_mut()
                .push(TraceEvent::typed(at, category, node, kind, fields()));
        }
    }
}

/// The bounded collector behind a live [`Tracer`]: keeps the most recent
/// `capacity` events and counts how many older ones were evicted.
struct Ring {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, event: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }
}

/// The reading end of a live [`Tracer`]'s ring: a run of any length uses
/// bounded memory, and the export records how much history was lost.
pub struct RingBufferTracer {
    ring: Rc<RefCell<Ring>>,
}

impl RingBufferTracer {
    /// A tracer keeping the newest `capacity` events (at least one), and
    /// the handle that reads them after the run.
    pub fn new(capacity: usize) -> (Tracer, RingBufferTracer) {
        let ring = Rc::new(RefCell::new(Ring {
            capacity: capacity.max(1),
            events: VecDeque::new(),
            dropped: 0,
        }));
        let tracer = Tracer {
            ring: Some(ring.clone()),
        };
        (tracer, RingBufferTracer { ring })
    }

    /// Number of events evicted because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.ring.borrow().dropped
    }

    pub fn len(&self) -> usize {
        self.ring.borrow().events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ring.borrow().events.is_empty()
    }

    /// Remove and return all buffered events, oldest first.
    pub fn drain(&self) -> Vec<TraceEvent> {
        self.ring.borrow_mut().events.drain(..).collect()
    }

    /// Render the buffered events as a full JSONL export: header line first
    /// (carrying the evicted-event count, so lost history is visible in the
    /// file itself), then one line per event, oldest first.
    pub fn export_jsonl(&self) -> String {
        let ring = self.ring.borrow();
        let mut out = jsonl_header_with_dropped(ring.dropped);
        out.push('\n');
        for e in &ring.events {
            out.push_str(&jsonl_line(e));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_tracer_runs_no_closure() {
        let t = Tracer::null();
        assert!(!t.enabled());
        let mut called = false;
        t.emit_with(SimTime::ZERO, TraceCategory::Pim, 0, || {
            called = true;
            String::new()
        });
        t.emit_typed(SimTime::ZERO, TraceCategory::Pim, 0, "x", || {
            called = true;
            vec![]
        });
        assert!(!called, "lazy closures must not run for a null tracer");
    }

    #[test]
    fn ring_tracer_records_notes() {
        let (t, ring) = RingBufferTracer::new(8);
        assert!(t.enabled());
        t.emit_with(SimTime::from_secs(1), TraceCategory::Mld, 3, || {
            "join".into()
        });
        t.emit_with(SimTime::from_secs(2), TraceCategory::Pim, 4, || {
            "graft".into()
        });
        let events = ring.drain();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].node, 3);
        assert_eq!(events[0].kind, NOTE_KIND);
        assert_eq!(events[1].category, TraceCategory::Pim);
        assert_eq!(events[1].message, "graft");
    }

    #[test]
    fn display_formats() {
        let e = TraceEvent::note(
            SimTime::from_millis(1500),
            TraceCategory::Mobility,
            7,
            "moved".into(),
        );
        let s = format!("{e}");
        assert!(s.contains("move"));
        assert!(s.contains("n7"));
        assert!(s.contains("1.5"));
    }

    #[test]
    fn typed_events_format_and_export() {
        let (t, ring) = RingBufferTracer::new(8);
        t.emit_typed(
            SimTime::from_secs(2),
            TraceCategory::Pim,
            4,
            "assert",
            || vec![("iface", 1u32.into()), ("won", true.into())],
        );
        let export = ring.export_jsonl();
        let events = ring.drain();
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(e.kind, "assert");
        let s = format!("{e}");
        assert!(s.contains("assert iface=1 won=true"), "{s}");

        let line = jsonl_line(e);
        assert_eq!(
            export,
            format!("{}\n{line}\n", jsonl_header_with_dropped(0))
        );
        for line in export.lines() {
            validate_jsonl_line(line).expect("export line is schema-valid");
        }
        let v = serde_json::from_str(&line).unwrap();
        assert_eq!(v["kind"].as_str(), Some("assert"));
        assert_eq!(v["t_ns"].as_u64(), Some(2_000_000_000));
        assert_eq!(v["fields"]["iface"].as_u64(), Some(1));
    }

    #[test]
    fn ring_buffer_bounds_memory() {
        let (t, ring) = RingBufferTracer::new(3);
        for i in 0..5u64 {
            t.emit_typed(SimTime::from_secs(i), TraceCategory::App, 0, "tick", || {
                vec![("i", i.into())]
            });
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let export = ring.export_jsonl();
        let mut lines = export.lines();
        validate_jsonl_line(lines.next().unwrap()).unwrap();
        let rest: Vec<&str> = lines.collect();
        assert_eq!(rest.len(), 3);
        for line in &rest {
            validate_jsonl_line(line).unwrap();
        }
        // Oldest surviving event is i=2.
        let first = serde_json::from_str(rest[0]).unwrap();
        assert_eq!(first["fields"]["i"].as_u64(), Some(2));
        // The eviction count survives export in the header line.
        let header = serde_json::from_str(export.lines().next().unwrap()).unwrap();
        assert_eq!(header["dropped"].as_u64(), Some(2));
        let drained = ring.drain();
        assert_eq!(drained.len(), 3);
        assert!(ring.is_empty());
    }

    #[test]
    fn validation_rejects_bad_lines() {
        assert!(validate_jsonl_line("not json").is_err());
        assert!(validate_jsonl_line("{\"v\":1}").is_err());
        assert!(validate_jsonl_line(
            "{\"v\":1,\"t_ns\":0,\"node\":0,\"cat\":\"nope\",\"kind\":\"x\",\"fields\":{}}"
        )
        .is_err());
        assert!(validate_jsonl_line(
            "{\"v\":1,\"t_ns\":0,\"node\":0,\"cat\":\"pim\",\"kind\":\"x\",\"fields\":{\"a\":[]}}"
        )
        .is_err());
        assert!(validate_jsonl_line(
            "{\"v\":1,\"t_ns\":0,\"node\":0,\"cat\":\"pim\",\"kind\":\"x\",\"fields\":{\"a\":1}}"
        )
        .is_ok());
        assert!(validate_jsonl_line("{\"schema\":\"mobicast-trace\",\"version\":99}").is_err());
    }

    #[test]
    fn validation_spans_schema_versions() {
        // v1 headers and lines (pre-span exports) must keep validating.
        assert!(validate_jsonl_line("{\"schema\":\"mobicast-trace\",\"version\":1}").is_ok());
        assert!(validate_jsonl_line("{\"schema\":\"mobicast-trace\",\"version\":2}").is_ok());
        assert!(
            validate_jsonl_line("{\"schema\":\"mobicast-trace\",\"version\":2,\"dropped\":7}")
                .is_ok()
        );
        assert!(validate_jsonl_line(
            "{\"schema\":\"mobicast-trace\",\"version\":2,\"dropped\":\"x\"}"
        )
        .is_err());
        // The v2 span category validates; it is part of the closed set.
        assert!(validate_jsonl_line(
            "{\"v\":2,\"t_ns\":0,\"node\":0,\"cat\":\"span\",\"kind\":\"span_open\",\"fields\":{\"id\":1}}"
        )
        .is_ok());
        assert!(validate_jsonl_line(
            "{\"v\":3,\"t_ns\":0,\"node\":0,\"cat\":\"pim\",\"kind\":\"x\",\"fields\":{}}"
        )
        .is_err());
    }
}
