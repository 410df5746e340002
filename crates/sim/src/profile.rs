//! Wall-clock profiling of the event loop.
//!
//! A [`Profiler`] is attached to the scheduler *opt-in*: when disabled the
//! event loop pays a single `Option` check per event and nothing else, so
//! the default build keeps its performance. When enabled, every handler
//! invocation is timed with `std::time::Instant` into log2-bucketed
//! nanosecond histograms, one per handler category, and the run is
//! summarized as a [`SimProfile`] (events/sec, queue-depth high-water mark,
//! per-category latency distribution).
//!
//! Wall-clock numbers are inherently nondeterministic, so a [`SimProfile`]
//! must never be folded into a deterministic run report — it is surfaced
//! side-band (e.g. `BENCH_sim.json`) only.

use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Instant;

/// Number of log2 nanosecond buckets: bucket `i` counts durations in
/// `[2^i, 2^(i+1))` ns (bucket 0 also holds 0 ns). 2^39 ns ≈ 9 minutes,
/// far beyond any single handler invocation.
const BUCKETS: usize = 40;

/// A log2-bucketed histogram of nanosecond durations.
#[derive(Clone, Debug)]
pub struct NsHistogram {
    pub count: u64,
    pub total_ns: u64,
    pub max_ns: u64,
    buckets: [u64; BUCKETS],
}

impl Default for NsHistogram {
    fn default() -> Self {
        NsHistogram {
            count: 0,
            total_ns: 0,
            max_ns: 0,
            buckets: [0; BUCKETS],
        }
    }
}

impl NsHistogram {
    pub fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        self.max_ns = self.max_ns.max(ns);
        let idx = if ns == 0 {
            0
        } else {
            (63 - ns.leading_zeros() as usize).min(BUCKETS - 1)
        };
        self.buckets[idx] += 1;
    }

    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// Non-empty buckets as `(bucket_floor_ns, count)` pairs.
    pub fn sparse_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (1u64 << i, c))
            .collect()
    }

    fn stats(&self) -> HandlerStats {
        HandlerStats {
            count: self.count,
            total_ns: self.total_ns,
            max_ns: self.max_ns,
            mean_ns: self.mean_ns(),
            buckets: self.sparse_buckets(),
        }
    }
}

/// Serializable per-category handler timing summary.
#[derive(Clone, Debug, Serialize)]
pub struct HandlerStats {
    pub count: u64,
    pub total_ns: u64,
    pub max_ns: u64,
    pub mean_ns: f64,
    /// `(bucket_floor_ns, count)` pairs of the log2 latency histogram.
    pub buckets: Vec<(u64, u64)>,
}

/// What a node handler is doing, for the profiler's finer attribution
/// inside a handler category: turning wire bytes into messages, running a
/// protocol state machine (and the glue around it), building and sending
/// frames, or counting and recording. Time is *self* time: entering a
/// stage suspends the one it interrupts.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Stage {
    Parse = 0,
    Protocol = 1,
    Emit = 2,
    Account = 3,
    /// Outside every stage (the event loop, unscoped handler code). Not
    /// reported.
    Outside = 4,
}

/// Names of the reported stages, indexed by `Stage as usize`.
pub const STAGES: [&str; 4] = ["parse", "protocol", "emit", "account"];

/// Stages are timed in one handler out of this many, picked by a fixed
/// pseudo-random sequence: a handler crosses several stage boundaries and
/// each costs a clock read, which on every handler would more than double
/// what the handler categories measure.
pub const STAGE_SAMPLE: u64 = 16;

/// Serializable summary of one profiled run. Wall-clock based: keep out of
/// deterministic reports.
#[derive(Clone, Debug, Serialize)]
pub struct SimProfile {
    pub events_executed: u64,
    pub events_scheduled: u64,
    pub queue_depth_high_water: u64,
    pub wall_ns: u64,
    pub events_per_sec: f64,
    pub handlers: BTreeMap<String, HandlerStats>,
    /// Self time per [`Stage`] (one sample per uninterrupted stretch) in
    /// the one handler in [`STAGE_SAMPLE`] that is timed this finely, over
    /// all handler categories. Stretches outside every stage are not
    /// listed, so the totals sum to less than that share of `handlers`'.
    pub stages: BTreeMap<String, HandlerStats>,
}

/// Accumulates handler timings while a run executes.
pub struct Profiler {
    categories: &'static [&'static str],
    hists: Vec<NsHistogram>,
    events: u64,
    started: Instant,
    /// Does the handler now running time its stages?
    stages_on: bool,
    /// xorshift64 state behind that choice.
    stage_pick: u64,
    stage: Stage,
    stage_since: Instant,
    /// What one clock read costs here: every stretch spans about one and
    /// is recorded net of it.
    clock_read_ns: u64,
    stage_hists: [NsHistogram; STAGES.len()],
}

impl Profiler {
    pub fn new(categories: &'static [&'static str]) -> Self {
        // The median gap between back-to-back reads is the cost of a read.
        let mut gaps = [0u64; 33];
        let mut last = Instant::now();
        for gap in &mut gaps {
            let now = Instant::now();
            *gap = (now - last).as_nanos() as u64;
            last = now;
        }
        gaps.sort_unstable();
        let clock_read_ns = gaps[gaps.len() / 2];
        let started = Instant::now();
        Profiler {
            categories,
            hists: vec![NsHistogram::default(); categories.len()],
            events: 0,
            started,
            stages_on: false,
            stage_pick: 0x9e37_79b9_7f4a_7c15,
            stage: Stage::Outside,
            stage_since: started,
            clock_read_ns,
            stage_hists: Default::default(),
        }
    }

    /// Attribute the time from now on to `stage`, closing the stretch of
    /// the stage that was running; returns that stage so a nested section
    /// can hand control back to it.
    #[inline]
    pub fn enter_stage(&mut self, stage: Stage) -> Stage {
        if !self.stages_on {
            return Stage::Outside;
        }
        self.switch_stage(stage)
    }

    fn switch_stage(&mut self, stage: Stage) -> Stage {
        let now = Instant::now();
        let prev = std::mem::replace(&mut self.stage, stage);
        if let Some(hist) = self.stage_hists.get_mut(prev as usize) {
            let ns = (now - self.stage_since).as_nanos().min(u64::MAX as u128) as u64;
            hist.record(ns.saturating_sub(self.clock_read_ns));
        }
        self.stage_since = now;
        prev
    }

    /// Timestamp taken just before a handler runs.
    #[inline]
    pub fn handler_start(&self) -> Instant {
        Instant::now()
    }

    /// [`handler_start`](Self::handler_start), also deciding whether this
    /// handler times its stages.
    #[inline]
    pub fn begin_handler(&mut self) -> Instant {
        let mut x = self.stage_pick;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.stage_pick = x;
        self.stages_on = x.is_multiple_of(STAGE_SAMPLE);
        Instant::now()
    }

    /// Record one handler invocation of category `idx` (index into the
    /// category slice given to [`Profiler::new`]). Closes the stage the
    /// handler left open, if any.
    #[inline]
    pub fn record(&mut self, idx: usize, started: Instant) {
        self.enter_stage(Stage::Outside);
        self.stages_on = false;
        let ns = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.events += 1;
        self.hists[idx].record(ns);
    }

    pub fn events_executed(&self) -> u64 {
        self.events
    }

    /// Summarize the run. Queue statistics are supplied by the scheduler
    /// that owns the event queue.
    pub fn finish(&self, queue_depth_high_water: usize, events_scheduled: u64) -> SimProfile {
        let wall_ns = self.started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let events_per_sec = if wall_ns == 0 {
            0.0
        } else {
            self.events as f64 / (wall_ns as f64 / 1e9)
        };
        SimProfile {
            events_executed: self.events,
            events_scheduled,
            queue_depth_high_water: queue_depth_high_water as u64,
            wall_ns,
            events_per_sec,
            handlers: self
                .categories
                .iter()
                .zip(&self.hists)
                .map(|(name, h)| ((*name).to_owned(), h.stats()))
                .collect(),
            stages: STAGES
                .iter()
                .zip(&self.stage_hists)
                .map(|(name, h)| ((*name).to_owned(), h.stats()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log2() {
        let mut h = NsHistogram::default();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        assert_eq!(h.count, 5);
        assert_eq!(h.max_ns, 1024);
        let sparse = h.sparse_buckets();
        // 0 and 1 land in bucket 0 (floor 1), 2 and 3 in bucket 1 (floor 2),
        // 1024 in bucket 10 (floor 1024).
        assert_eq!(sparse, vec![(1, 2), (2, 2), (1024, 1)]);
        assert!((h.mean_ns() - 206.0).abs() < 1e-9);
    }

    #[test]
    fn profiler_summarizes() {
        let mut p = Profiler::new(&["deliver", "timer"]);
        let t0 = p.handler_start();
        p.record(0, t0);
        let t1 = p.handler_start();
        p.record(1, t1);
        let prof = p.finish(17, 42);
        assert_eq!(prof.events_executed, 2);
        assert_eq!(prof.events_scheduled, 42);
        assert_eq!(prof.queue_depth_high_water, 17);
        assert_eq!(prof.handlers.len(), 2);
        assert_eq!(prof.handlers["deliver"].count, 1);
        assert!(prof.events_per_sec > 0.0);
        // Serializes cleanly (used for BENCH_sim.json).
        let v = serde_json::to_value(&prof);
        assert!(v["handlers"]["timer"]["count"].as_u64() == Some(1));
    }

    #[test]
    fn stages_get_self_time_and_outside_is_not_reported() {
        let mut p = Profiler::new(&["deliver"]);
        // Outside a timed handler a stage change is free and records nothing.
        assert_eq!(p.enter_stage(Stage::Parse), Stage::Outside);
        let started = loop {
            let started = p.begin_handler();
            if p.stages_on {
                break started;
            }
        };
        assert_eq!(p.enter_stage(Stage::Protocol), Stage::Outside);
        // A nested section suspends the stage it interrupts...
        let outer = p.enter_stage(Stage::Emit);
        assert_eq!(outer, Stage::Protocol);
        // ...and hands control back to it.
        assert_eq!(p.enter_stage(outer), Stage::Emit);
        // The handler's end closes the stretch it left open.
        p.record(0, started);
        let prof = p.finish(0, 0);
        let names: Vec<&str> = prof.stages.keys().map(String::as_str).collect();
        assert_eq!(names, ["account", "emit", "parse", "protocol"]);
        assert_eq!(prof.stages["protocol"].count, 2, "two stretches");
        assert_eq!(prof.stages["emit"].count, 1);
        assert_eq!(prof.stages["parse"].count, 0);
    }
}
