//! Wall-clock profiling of the event loop.
//!
//! A [`Profiler`] is attached to the scheduler *opt-in*: when disabled the
//! event loop pays a single `Option` check per event and nothing else, so
//! the default build keeps its performance. When enabled, every handler
//! invocation is timed with `std::time::Instant` and summed per handler
//! category, and the run is summarized as a [`SimProfile`] (count and
//! total time per category and per stage, queue-depth high-water mark).
//!
//! Wall-clock numbers are inherently nondeterministic, so a [`SimProfile`]
//! must never be folded into a deterministic run report — it travels in
//! `ScenarioResult::profile` to the repo benchmark and `exp_stages` only.
//! This is the one module of the library crates that reads the clock.

use std::collections::BTreeMap;
use std::time::Instant;

/// Invocations of one handler category (or stretches of one stage) and
/// their summed wall time.
#[derive(Clone, Copy, Debug, Default)]
pub struct HandlerStats {
    pub count: u64,
    pub total_ns: u64,
}

impl HandlerStats {
    fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
    }
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

/// Summary of one profiled run. Wall-clock based: keep out of
/// deterministic reports.
#[derive(Clone, Debug)]
pub struct SimProfile {
    pub events_executed: u64,
    pub events_scheduled: u64,
    pub queue_depth_high_water: u64,
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
    handlers: Vec<HandlerStats>,
    events: u64,
    /// Does the handler now running time its stages?
    stages_on: bool,
    /// xorshift64 state behind that choice.
    stage_pick: u64,
    stage: Stage,
    stage_since: Instant,
    /// What one clock read costs here: every stretch spans about one and
    /// is recorded net of it.
    clock_read_ns: u64,
    stages: [HandlerStats; STAGES.len()],
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
        Profiler {
            categories,
            handlers: vec![HandlerStats::default(); categories.len()],
            events: 0,
            stages_on: false,
            stage_pick: 0x9e37_79b9_7f4a_7c15,
            stage: Stage::Outside,
            stage_since: last,
            clock_read_ns,
            stages: Default::default(),
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
        if let Some(stats) = self.stages.get_mut(prev as usize) {
            let ns = (now - self.stage_since).as_nanos().min(u64::MAX as u128) as u64;
            stats.record(ns.saturating_sub(self.clock_read_ns));
        }
        self.stage_since = now;
        prev
    }

    /// Timestamp taken just before a handler runs, also deciding whether
    /// this handler times its stages.
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
        self.handlers[idx].record(ns);
    }

    /// Summarize the run. Queue statistics are supplied by the scheduler
    /// that owns the event queue.
    pub fn finish(&self, queue_depth_high_water: usize, events_scheduled: u64) -> SimProfile {
        let named = |names: &[&str], stats: &[HandlerStats]| {
            names
                .iter()
                .zip(stats)
                .map(|(name, s)| ((*name).to_owned(), *s))
                .collect()
        };
        SimProfile {
            events_executed: self.events,
            events_scheduled,
            queue_depth_high_water: queue_depth_high_water as u64,
            handlers: named(self.categories, &self.handlers),
            stages: named(&STAGES, &self.stages),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiler_summarizes() {
        let mut p = Profiler::new(&["deliver", "timer"]);
        let t0 = p.begin_handler();
        p.record(0, t0);
        let t1 = p.begin_handler();
        p.record(1, t1);
        let t2 = p.begin_handler();
        p.record(1, t2);
        let prof = p.finish(17, 42);
        assert_eq!(prof.events_executed, 3);
        assert_eq!(prof.events_scheduled, 42);
        assert_eq!(prof.queue_depth_high_water, 17);
        assert_eq!(prof.handlers.len(), 2);
        assert_eq!(prof.handlers["deliver"].count, 1);
        assert_eq!(prof.handlers["timer"].count, 2);
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
