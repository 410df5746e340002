//! Drop accounting for the bounded trace collector: no event is ever
//! silently lost. Whatever capacity the ring is given and however many
//! events are pushed through it, `emitted == retained + dropped`, the
//! retained window is exactly the newest events in order, and the
//! dropped count survives into the JSONL export header.

use mobicast_sim::time::SimTime;
use mobicast_sim::trace::{validate_jsonl_line, RingBufferTracer, TraceCategory};
use proptest::prelude::*;

proptest! {
    #[test]
    fn emitted_equals_retained_plus_dropped(
        capacity in 1usize..200,
        emitted in 0u64..500,
    ) {
        let (tracer, ring) = RingBufferTracer::new(capacity);
        for i in 0..emitted {
            tracer.emit_typed(
                SimTime::from_nanos(i),
                TraceCategory::App,
                0,
                "tick",
                || vec![("i", i.into())],
            );
        }
        let retained = ring.len() as u64;
        prop_assert_eq!(emitted, retained + ring.dropped());
        prop_assert!(retained <= capacity as u64);

        // The export carries the eviction count in its header and only
        // schema-valid lines after it.
        let export = ring.export_jsonl();
        let mut lines = export.lines();
        let header = lines.next().expect("export always has a header");
        validate_jsonl_line(header).expect("header is schema-valid");
        let parsed = serde_json::from_str(header).unwrap();
        prop_assert_eq!(parsed["dropped"].as_u64(), Some(emitted - retained));
        let mut count = 0u64;
        for line in lines {
            validate_jsonl_line(line).expect("event line is schema-valid");
            count += 1;
        }
        prop_assert_eq!(count, retained);

        // The survivors are exactly the newest `retained` events, oldest
        // first (the window slides, it never reorders).
        let events = ring.drain();
        for (offset, e) in events.iter().enumerate() {
            let expect = emitted - retained + offset as u64;
            prop_assert_eq!(e.at, SimTime::from_nanos(expect));
        }
    }

    /// Capacity churn across interleaved bursts: several rings of
    /// different capacities fed from one event stream each keep their own
    /// books balanced — accounting is per-collector, not global.
    #[test]
    fn accounting_balances_across_capacities(
        caps in proptest::collection::vec(1usize..50, 1..5),
        bursts in proptest::collection::vec(0u64..80, 1..5),
    ) {
        for cap in caps {
            let (tracer, ring) = RingBufferTracer::new(cap);
            let mut emitted = 0u64;
            for (b, n) in bursts.iter().enumerate() {
                for i in 0..*n {
                    tracer.emit_with(
                        SimTime::from_nanos(emitted),
                        TraceCategory::Harness,
                        b,
                        || format!("burst {b} event {i}"),
                    );
                    emitted += 1;
                }
                // The invariant holds at every intermediate point, not
                // just at the end of the run.
                prop_assert_eq!(emitted, ring.len() as u64 + ring.dropped());
            }
        }
    }
}
