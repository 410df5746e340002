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
//! `ScenarioResult::profile` to the repo benchmark and `mobicast stages`
//! only.
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

/// Handlers are grouped by duration, a power of two of nanoseconds each,
/// and a group's sampled handlers stand for that group alone: a rare long
/// one that is sampled counts once, not `STAGE_SAMPLE` times over.
const STRATA: usize = u64::BITS as usize + 1;

/// One group's time over all its handlers and over its sampled ones, and
/// their stretches per stage.
type Stratum = (u64, u64, [HandlerStats; STAGES.len()]);

/// Summary of one profiled run. Wall-clock based: keep out of
/// deterministic reports.
#[derive(Clone, Debug)]
pub struct SimProfile {
    pub events_executed: u64,
    pub events_scheduled: u64,
    pub queue_depth_high_water: u64,
    pub handlers: BTreeMap<String, HandlerStats>,
    /// Self time per [`Stage`] over all handler categories: `count` is the
    /// uninterrupted stretches timed in the one handler in [`STAGE_SAMPLE`]
    /// that is timed this finely, `total_ns` their time scaled up to every
    /// handler of the same duration (to the power of two). Stretches
    /// outside every stage are not listed, nor are durations no sampled
    /// handler had, so the totals sum to less than `handlers`'.
    pub stages: BTreeMap<String, HandlerStats>,
    /// No handler took this long: the upper edge of the longest duration
    /// group any handler fell in, a power of two of ns (net of the clock
    /// reads the handler spanned), so the longest handler took at least
    /// half of it. 0 when no handler took a nanosecond.
    pub longest_handler_under_ns: u64,
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
    /// The stretches of the handler now running.
    stretches: [HandlerStats; STAGES.len()],
    strata: [Stratum; STRATA],
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
            stretches: Default::default(),
            strata: [Stratum::default(); STRATA],
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
        if let Some(stats) = self.stretches.get_mut(prev as usize) {
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
        let sampled = self.stages_on;
        self.enter_stage(Stage::Outside);
        self.stages_on = false;
        let ns = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.events += 1;
        self.handlers[idx].record(ns);
        let stretches = std::mem::take(&mut self.stretches);
        // A sampled handler is grouped by its duration net of its reads.
        let reads: u64 = stretches.iter().map(|s| s.count).sum();
        let ns = ns.saturating_sub(reads * self.clock_read_ns);
        let (all, timed, stages) = &mut self.strata[(u64::BITS - ns.leading_zeros()) as usize];
        *all += ns;
        if sampled {
            *timed += ns;
            for (stage, stretch) in stages.iter_mut().zip(stretches) {
                stage.count += stretch.count;
                stage.total_ns += stretch.total_ns;
            }
        }
    }

    /// Summarize the run. Queue statistics are supplied by the scheduler
    /// that owns the event queue.
    pub fn finish(&self, queue_depth_high_water: usize, events_scheduled: u64) -> SimProfile {
        // Each group's stretches, scaled by its time over its sampled time.
        let mut stages = [HandlerStats::default(); STAGES.len()];
        for &(all, timed, stretches) in self.strata.iter().filter(|g| g.1 > 0) {
            for (sum, s) in stages.iter_mut().zip(stretches) {
                let scaled = u128::from(s.total_ns) * u128::from(all) / u128::from(timed);
                sum.count += s.count;
                sum.total_ns += scaled as u64;
            }
        }
        let longest = self.strata.iter().rposition(|g| g.0 > 0);
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
            stages: named(&STAGES, &stages),
            longest_handler_under_ns: longest.map_or(0, |group| {
                1u64.checked_shl(group as u32).unwrap_or(u64::MAX)
            }),
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

    /// The fault `mobicast stages` showed on the metro run: one ~45 ms
    /// handler that the fixed sequence samples was scaled up by
    /// `STAGE_SAMPLE`, so `account` read more than all handler time. Here
    /// one sampled handler of 20 ms in `account` among 4 000 quick ones must
    /// count about once.
    #[test]
    fn a_rare_long_handler_that_is_sampled_counts_once() {
        let mut p = Profiler::new(&["deliver"]);
        for _ in 0..4_000 {
            let started = p.begin_handler();
            p.enter_stage(Stage::Parse);
            p.record(0, started);
        }
        let started = loop {
            let started = p.begin_handler();
            if p.stages_on {
                break started;
            }
            p.record(0, started);
        };
        p.enter_stage(Stage::Account);
        let long = std::time::Duration::from_millis(20);
        while started.elapsed() < long {
            std::hint::spin_loop();
        }
        p.record(0, started);
        let prof = p.finish(0, 0);
        let handled = prof.handlers["deliver"].total_ns;
        let account = prof.stages["account"].total_ns;
        assert!(account >= 19_000_000, "{account} ns");
        assert!(account <= handled, "{account} of {handled} ns");
        let staged: u64 = prof.stages.values().map(|s| s.total_ns).sum();
        assert!(staged <= handled, "{staged} of {handled} ns");
        // The 20 ms handler (net of its clock reads) is the longest.
        let under = prof.longest_handler_under_ns;
        assert!(under.is_power_of_two() && under > 19_000_000, "{under} ns");
        assert!(under / 2 <= handled, "{under} of {handled} ns");
    }
}
