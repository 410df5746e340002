//! Structured trace of simulation activity.
//!
//! Traces are the debugging backbone of the simulator: every protocol event
//! (packet send, state transition, timer) can be emitted as a `TraceEvent`.
//! Sinks decide what to do with them — collect, print, or drop.
//!
//! Events come in two flavours: free-form notes (`kind == "note"`, message
//! text only) and *typed* events (a stable `kind` string plus typed
//! key/value fields), which survive machine processing. Typed events are
//! what the JSONL export ([`jsonl_line`]) and the packet-journey explainer
//! consume; the schema is versioned ([`TRACE_SCHEMA_VERSION`]) and every
//! exported line can be checked with [`validate_jsonl_line`].

use crate::time::SimTime;
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
    /// Overload admission control (sheds, evictions, rate-limit drops).
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

/// A typed field value attached to a structured trace event.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(String),
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

/// Event kind used for free-form string messages (the legacy emit path).
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
    /// A free-form note (legacy string-message event).
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

fn field_to_json(v: &FieldValue) -> serde_json::Value {
    use serde_json::Value;
    match v {
        FieldValue::U64(n) => Value::U64(*n),
        FieldValue::I64(n) => Value::I64(*n),
        FieldValue::F64(x) => Value::F64(*x),
        FieldValue::Bool(b) => Value::Bool(*b),
        FieldValue::Str(s) => Value::Str(s.clone()),
    }
}

impl TraceEvent {
    /// The event as one schema-versioned JSON object (one JSONL line).
    pub fn to_json_value(&self) -> serde_json::Value {
        use serde_json::Value;
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
                        .map(|(k, v)| ((*k).to_owned(), field_to_json(v)))
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

/// The header line starting every JSONL trace export.
pub fn jsonl_header() -> String {
    format!("{{\"schema\":\"{TRACE_SCHEMA}\",\"version\":{TRACE_SCHEMA_VERSION}}}")
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
            serde_json::Value::U64(_)
            | serde_json::Value::I64(_)
            | serde_json::Value::F64(_)
            | serde_json::Value::Bool(_)
            | serde_json::Value::Str(_) => {}
            _ => return Err(format!("field {key:?} is not a scalar")),
        }
    }
    Ok(())
}

/// Where trace events go.
pub trait TraceSink {
    fn emit(&mut self, event: TraceEvent);
    /// Fast-path check so callers can skip formatting entirely.
    fn enabled(&self, _category: TraceCategory) -> bool {
        true
    }
}

/// Drops everything; `enabled` returns false so callers skip formatting.
#[derive(Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn emit(&mut self, _event: TraceEvent) {}
    fn enabled(&self, _category: TraceCategory) -> bool {
        false
    }
}

/// Collects events in memory (used heavily by tests).
#[derive(Default)]
pub struct VecSink {
    pub events: Vec<TraceEvent>,
}

impl TraceSink for VecSink {
    fn emit(&mut self, event: TraceEvent) {
        self.events.push(event);
    }
}

/// Prints events to stdout, optionally restricted to some categories.
pub struct StdoutSink {
    /// If `Some`, only these categories are printed.
    pub filter: Option<Vec<TraceCategory>>,
}

impl StdoutSink {
    pub fn all() -> Self {
        StdoutSink { filter: None }
    }

    pub fn only(categories: Vec<TraceCategory>) -> Self {
        StdoutSink {
            filter: Some(categories),
        }
    }
}

impl TraceSink for StdoutSink {
    fn emit(&mut self, event: TraceEvent) {
        println!("{event}");
    }
    fn enabled(&self, category: TraceCategory) -> bool {
        match &self.filter {
            None => true,
            Some(cats) => cats.contains(&category),
        }
    }
}

/// Shared handle to a trace sink. The simulation is single-threaded, so
/// `Rc<RefCell<..>>` is the right tool (no atomics on the hot path).
#[derive(Clone)]
pub struct Tracer {
    sink: Rc<RefCell<dyn TraceSink>>,
}

impl Tracer {
    pub fn new(sink: impl TraceSink + 'static) -> Self {
        Tracer {
            sink: Rc::new(RefCell::new(sink)),
        }
    }

    /// A tracer that discards everything.
    pub fn null() -> Self {
        Tracer::new(NullSink)
    }

    pub fn enabled(&self, category: TraceCategory) -> bool {
        self.sink.borrow().enabled(category)
    }

    pub fn emit(&self, at: SimTime, category: TraceCategory, node: usize, message: String) {
        if self.enabled(category) {
            self.sink
                .borrow_mut()
                .emit(TraceEvent::note(at, category, node, message));
        }
    }

    /// Emit with lazy message construction: the closure runs only when the
    /// category is enabled.
    pub fn emit_with(
        &self,
        at: SimTime,
        category: TraceCategory,
        node: usize,
        f: impl FnOnce() -> String,
    ) {
        if self.enabled(category) {
            self.sink
                .borrow_mut()
                .emit(TraceEvent::note(at, category, node, f()));
        }
    }

    /// Emit a typed event; the field closure runs only when the category is
    /// enabled, so disabled tracing pays one virtual call and nothing else.
    pub fn emit_typed(
        &self,
        at: SimTime,
        category: TraceCategory,
        node: usize,
        kind: &'static str,
        fields: impl FnOnce() -> Fields,
    ) {
        if self.enabled(category) {
            self.sink
                .borrow_mut()
                .emit(TraceEvent::typed(at, category, node, kind, fields()));
        }
    }
}

/// Bounded in-memory sink: keeps the most recent `capacity` events and
/// counts how many older ones were evicted. This is the default sink for
/// trace export — a run of any length uses bounded memory, and the export
/// records how much history was lost.
pub struct RingBufferSink {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
    /// If `Some`, only these categories are recorded.
    pub filter: Option<Vec<TraceCategory>>,
}

impl RingBufferSink {
    pub fn new(capacity: usize) -> Self {
        RingBufferSink {
            capacity: capacity.max(1),
            events: VecDeque::new(),
            dropped: 0,
            filter: None,
        }
    }
}

impl TraceSink for RingBufferSink {
    fn emit(&mut self, event: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }
    fn enabled(&self, category: TraceCategory) -> bool {
        match &self.filter {
            None => true,
            Some(cats) => cats.contains(&category),
        }
    }
}

/// A tracer backed by a [`RingBufferSink`] whose contents can be drained
/// after the run (same shared-handle pattern as [`CapturingTracer`]).
pub struct RingBufferTracer {
    sink: Rc<RefCell<RingBufferSink>>,
}

impl RingBufferTracer {
    pub fn new(capacity: usize) -> (Tracer, RingBufferTracer) {
        let sink = Rc::new(RefCell::new(RingBufferSink::new(capacity)));
        let tracer = Tracer { sink: sink.clone() };
        (tracer, RingBufferTracer { sink })
    }

    /// Number of events evicted because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.sink.borrow().dropped
    }

    pub fn len(&self) -> usize {
        self.sink.borrow().events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sink.borrow().events.is_empty()
    }

    /// Remove and return all buffered events, oldest first.
    pub fn drain(&self) -> Vec<TraceEvent> {
        self.sink.borrow_mut().events.drain(..).collect()
    }

    /// Render the buffered events as a full JSONL export: header line first
    /// (carrying the evicted-event count, so lost history is visible in the
    /// file itself), then one line per event, oldest first.
    pub fn export_jsonl(&self) -> String {
        let sink = self.sink.borrow();
        let mut out = jsonl_header_with_dropped(sink.dropped);
        out.push('\n');
        for e in &sink.events {
            out.push_str(&jsonl_line(e));
            out.push('\n');
        }
        out
    }
}

/// A tracer whose `VecSink` can be inspected after the run (test helper).
pub struct CapturingTracer {
    events: Rc<RefCell<VecSink>>,
}

impl CapturingTracer {
    #[allow(clippy::new_without_default)]
    pub fn new() -> (Tracer, CapturingTracer) {
        let sink = Rc::new(RefCell::new(VecSink::default()));
        let tracer = Tracer { sink: sink.clone() };
        (tracer, CapturingTracer { events: sink })
    }

    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.borrow().events.clone()
    }

    pub fn messages_in(&self, category: TraceCategory) -> Vec<String> {
        self.events
            .borrow()
            .events
            .iter()
            .filter(|e| e.category == category)
            .map(|e| e.message.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_disables_formatting() {
        let t = Tracer::null();
        assert!(!t.enabled(TraceCategory::Pim));
        let mut called = false;
        t.emit_with(SimTime::ZERO, TraceCategory::Pim, 0, || {
            called = true;
            String::new()
        });
        assert!(!called, "lazy closure must not run for a null sink");
    }

    #[test]
    fn capturing_tracer_records() {
        let (t, cap) = CapturingTracer::new();
        t.emit(SimTime::from_secs(1), TraceCategory::Mld, 3, "join".into());
        t.emit(SimTime::from_secs(2), TraceCategory::Pim, 4, "graft".into());
        let events = cap.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].node, 3);
        assert_eq!(cap.messages_in(TraceCategory::Pim), vec!["graft"]);
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
        let (t, cap) = CapturingTracer::new();
        t.emit_typed(
            SimTime::from_secs(2),
            TraceCategory::Pim,
            4,
            "assert",
            || vec![("iface", 1u32.into()), ("won", true.into())],
        );
        let events = cap.events();
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(e.kind, "assert");
        let s = format!("{e}");
        assert!(s.contains("assert iface=1 won=true"), "{s}");

        let line = jsonl_line(e);
        validate_jsonl_line(&line).expect("typed event line is schema-valid");
        validate_jsonl_line(&jsonl_header()).expect("header line is schema-valid");
        let v = serde_json::from_str(&line).unwrap();
        assert_eq!(v["kind"].as_str(), Some("assert"));
        assert_eq!(v["t_ns"].as_u64(), Some(2_000_000_000));
        assert_eq!(v["fields"]["iface"].as_u64(), Some(1));
    }

    #[test]
    fn typed_closure_skipped_when_disabled() {
        let t = Tracer::null();
        let mut called = false;
        t.emit_typed(SimTime::ZERO, TraceCategory::Pim, 0, "x", || {
            called = true;
            vec![]
        });
        assert!(!called);
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

    #[test]
    fn stdout_filter_logic() {
        let s = StdoutSink::only(vec![TraceCategory::Mld]);
        assert!(s.enabled(TraceCategory::Mld));
        assert!(!s.enabled(TraceCategory::Pim));
        assert!(StdoutSink::all().enabled(TraceCategory::Pim));
    }
}
