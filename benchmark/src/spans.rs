//! In-memory wall-clock spans recorded by the harness around its calls
//! into each layer, exported as a Chrome-trace JSON when the run ends.

use serde::{Deserialize, Serialize};
use serde_json::{json, Value};
use std::time::Instant;

#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span; `None` for a top-level span.
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_us - self.start_us) / 1e6
    }
}

pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Run `f` inside a span called `name`, nested under the open span.
    pub fn scope<R>(&mut self, name: &str, f: impl FnOnce(&mut SpanLog) -> R) -> R {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name: name.to_owned(),
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end_us = self.now_us();
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Chrome-trace ("Trace Event Format") document: one complete event per
/// span, its parent span and workload carried in `args`.
pub fn chrome_trace(workload: &str, spans: &[Span]) -> Value {
    let events: Vec<Value> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            json!({
                "name": s.name,
                "cat": "mobicast-benchmark",
                "ph": "X",
                "ts": s.start_us,
                "dur": s.end_us - s.start_us,
                "pid": 1,
                "tid": 1,
                "args": {"id": i as u64, "parent": s.parent.map(|p| p as u64), "workload": workload},
            })
        })
        .collect();
    json!({"displayTimeUnit": "ms", "traceEvents": events})
}
