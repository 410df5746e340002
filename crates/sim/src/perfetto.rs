//! Perfetto / Chrome `trace.json` exporter.
//!
//! Renders a [`SpanBook`](crate::SpanBook)'s records plus sampled gauge series into the
//! Chrome trace-event JSON format (the `traceEvents` array form), which
//! `ui.perfetto.dev` and `chrome://tracing` open directly: spans become
//! `ph:"X"` complete events on one track per node, gauge series become
//! `ph:"C"` counter tracks. Timestamps are microseconds of *sim* time, so
//! the export is deterministic and golden-checkable.

use crate::series::TimeSeriesSet;
use crate::span::SpanRecord;
use serde::Serialize;
use serde_json::{json, Value};

/// The pid under which all tracks are grouped (one simulated world).
const PID: u64 = 1;

fn us(t_ns: u64) -> f64 {
    t_ns as f64 / 1000.0
}

fn span_event(s: &SpanRecord) -> Value {
    let mut args = json!({ "id": s.id.0 });
    if let Some(p) = s.parent {
        args["parent"] = json!(p.0);
    }
    for (k, v) in &s.attrs {
        args[*k] = v.to_json_value();
    }
    let end = s.end_ns.unwrap_or(s.start_ns);
    json!({
        "ph": "X",
        "pid": PID,
        "tid": s.node,
        "name": s.name,
        "cat": "span",
        "ts": us(s.start_ns),
        "dur": us(end.saturating_sub(s.start_ns)),
        "args": args,
    })
}

/// Render spans and counter tracks as a Chrome trace-event JSON document.
///
/// `process_name` labels the single process track; node tracks are named
/// `node <id>`. Spans come first in id order, then one counter track per
/// series in name order — the output is byte-stable for a given input.
pub fn export_chrome_trace(
    process_name: &str,
    spans: &[SpanRecord],
    series: &TimeSeriesSet,
) -> String {
    let mut events = Vec::new();
    events.push(json!({
        "ph": "M",
        "pid": PID,
        "name": "process_name",
        "args": { "name": process_name },
    }));
    let mut nodes: Vec<u64> = spans.iter().map(|s| s.node).collect();
    nodes.sort_unstable();
    nodes.dedup();
    for n in nodes {
        events.push(json!({
            "ph": "M",
            "pid": PID,
            "tid": n,
            "name": "thread_name",
            "args": { "name": format!("node {n}") },
        }));
    }
    for s in spans {
        events.push(span_event(s));
    }
    for (name, ts) in series.iter() {
        for &(t_ns, v) in &ts.points {
            events.push(json!({
                "ph": "C",
                "pid": PID,
                "tid": 0,
                "name": name.as_str(),
                "ts": us(t_ns),
                "args": { "value": v },
            }));
        }
    }
    serde_json::to_string(&json!({
        "traceEvents": events,
        "displayTimeUnit": "ms",
    }))
    .expect("chrome trace serialization is infallible")
}

/// Structural sanity check of an exported Chrome trace document: valid
/// JSON, a `traceEvents` array, every event carrying a known phase and
/// the fields that phase requires. Returns the first problem found.
pub fn validate_chrome_trace(doc: &str) -> Result<(), String> {
    let v = serde_json::from_str(doc).map_err(|e| format!("not valid JSON: {e}"))?;
    let events = v["traceEvents"]
        .as_array()
        .ok_or("missing \"traceEvents\" array")?;
    for (i, e) in events.iter().enumerate() {
        let ph = e["ph"].as_str().ok_or(format!("event {i}: missing ph"))?;
        match ph {
            "M" => {
                if e["name"].as_str().is_none() {
                    return Err(format!("event {i}: metadata without name"));
                }
            }
            "X" => {
                for key in ["name", "cat"] {
                    if e[key].as_str().is_none() {
                        return Err(format!("event {i}: span without {key}"));
                    }
                }
                for key in ["ts", "dur"] {
                    if e[key].as_f64().is_none() {
                        return Err(format!("event {i}: span without numeric {key}"));
                    }
                }
            }
            "C" => {
                if e["name"].as_str().is_none() || e["ts"].as_f64().is_none() {
                    return Err(format!("event {i}: malformed counter"));
                }
                if e["args"]["value"].as_f64().is_none() {
                    return Err(format!("event {i}: counter without args.value"));
                }
            }
            other => return Err(format!("event {i}: unknown phase {other:?}")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanBook;
    use crate::time::SimTime;

    #[test]
    fn export_roundtrips_and_validates() {
        let mut book = SpanBook::default();
        let h = book.open("handoff", 9, SimTime::from_secs(10), None);
        let b = book.open("bu", 9, SimTime::from_millis(10_100), Some(h));
        book.annotate(h, "policy", "bidir-tunnel");
        book.close(b, SimTime::from_millis(10_400));
        book.close(h, SimTime::from_secs(12));
        let mut series = TimeSeriesSet::default();
        series.sample("queue.depth", SimTime::from_secs(10), 4.0);
        series.sample("queue.depth", SimTime::from_secs(11), 7.0);

        let doc = export_chrome_trace("mobicast handoff", book.records(), &series);
        validate_chrome_trace(&doc).expect("export validates");
        let v = serde_json::from_str(&doc).unwrap();
        let events = v["traceEvents"].as_array().unwrap();
        // 1 process + 1 thread metadata + 2 spans + 2 counter samples.
        assert_eq!(events.len(), 6);
        let span = &events[2];
        assert_eq!(span["name"].as_str(), Some("handoff"));
        assert_eq!(span["args"]["policy"].as_str(), Some("bidir-tunnel"));
        assert_eq!(span["ts"].as_f64(), Some(10_000_000.0));
        let child = &events[3];
        assert_eq!(child["args"]["parent"].as_u64(), Some(h.0));
        assert_eq!(child["dur"].as_f64(), Some(300_000.0));
    }

    #[test]
    fn export_is_byte_stable() {
        let mut book = SpanBook::default();
        let a = book.open("graft", 2, SimTime::from_secs(1), None);
        book.close(a, SimTime::from_secs(2));
        let series = TimeSeriesSet::default();
        let one = export_chrome_trace("x", book.records(), &series);
        let two = export_chrome_trace("x", book.records(), &series);
        assert_eq!(one, two);
    }

    #[test]
    fn validation_rejects_malformed() {
        assert!(validate_chrome_trace("nope").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[{\"ph\":\"Z\"}]}").is_err());
        assert!(
            validate_chrome_trace("{\"traceEvents\":[{\"ph\":\"X\",\"name\":\"s\"}]}").is_err()
        );
        assert!(validate_chrome_trace("{\"traceEvents\":[]}").is_ok());
    }
}
