//! Lightweight metrics: named counters and value series with summary
//! statistics. The experiment harness uses these to turn the paper's
//! qualitative criteria (join delay, bandwidth, system load, …) into numbers.

use serde::{Deserialize, Serialize, Value};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};

/// A counter name as a `static`: the handle hot paths bump through
/// ([`Counters::bump`], [`Counters::raise`]) instead of naming the counter
/// on every call. [`counter!`](crate::counter) declares one per call site.
///
/// The first bump through a handle gives it a process-wide dense id; a
/// [`Counters`] keeps one small index by that id, so a bump is a load and
/// two indexings — no string compare, no lock. Ids are assigned in
/// first-use order, which may differ from run to run across sweep threads;
/// nothing observable depends on them.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    /// Dense id + 1; 0 until first used. `Relaxed` throughout: the id
    /// publishes no other data.
    id: AtomicU32,
}

/// Handle ids handed out so far.
static HANDLE_IDS: AtomicU32 = AtomicU32::new(0);

impl Counter {
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            id: AtomicU32::new(0),
        }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    #[inline]
    fn id(&self) -> usize {
        match self.id.load(Ordering::Relaxed) {
            0 => self.assign_id(),
            n => n as usize - 1,
        }
    }

    #[cold]
    fn assign_id(&self) -> usize {
        let fresh = HANDLE_IDS.fetch_add(1, Ordering::Relaxed) + 1;
        // Two threads may race here; the loser's id goes unused.
        let id = match self
            .id
            .compare_exchange(0, fresh, Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => fresh,
            Err(theirs) => theirs,
        };
        id as usize - 1
    }
}

/// A `&'static` [`Counter`](crate::metrics::Counter) for `name`, one per
/// call site.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: $crate::metrics::Counter = $crate::metrics::Counter::new($name);
        &HANDLE
    }};
}

/// `bump!(set, "name")`: add one to counter `name` of `set` (anything with
/// a `bump(&'static Counter, u64)` method) through this call site's own
/// handle.
#[macro_export]
macro_rules! bump {
    ($set:expr, $name:expr) => {
        $set.bump($crate::counter!($name), 1)
    };
}

/// A set of monotonically increasing named counters.
///
/// One storage, two ways in: by name (`add` / `inc` / `get` /
/// `record_max`, what reports and their readers use) and by
/// [`Counter`] handle (`bump` / `raise`, what runs per frame). A counter
/// exists from its first touch by either — including a touch that adds or
/// records 0 — and never before; `iter` and the serialized form
/// (`{"values":{…}}`) list exactly those, in name order.
#[derive(Default, Clone)]
pub struct Counters {
    /// Name → slot in `values`, in name order. A name first touched
    /// through a handle is borrowed from it; one first touched by name is
    /// copied.
    names: BTreeMap<Cow<'static, str>, u32>,
    /// The counters, in first-touch order.
    values: Vec<u64>,
    /// Slot + 1 per handle id, 0 where that handle has not touched this
    /// set yet; grown to the highest id that has.
    by_handle: Vec<u32>,
}

impl Counters {
    pub fn new() -> Self {
        Self::default()
    }

    /// `name`'s counter, created at 0 (under the key `owned` makes) if this
    /// is its first touch.
    fn slot(&mut self, name: &str, owned: impl FnOnce() -> Cow<'static, str>) -> usize {
        if let Some(&slot) = self.names.get(name) {
            return slot as usize;
        }
        let slot = self.values.len();
        self.names.insert(owned(), slot as u32);
        self.values.push(0);
        slot
    }

    /// The `to_owned` only runs on a counter's first touch.
    fn slot_by_name(&mut self, name: &str) -> &mut u64 {
        let slot = self.slot(name, || Cow::Owned(name.to_owned()));
        &mut self.values[slot]
    }

    #[inline]
    fn slot_by_handle(&mut self, counter: &'static Counter) -> &mut u64 {
        let id = counter.id();
        let slot = match self.by_handle.get(id) {
            Some(&s) if s != 0 => s as usize - 1,
            _ => self.first_touch(counter, id),
        };
        &mut self.values[slot]
    }

    #[cold]
    fn first_touch(&mut self, counter: &'static Counter, id: usize) -> usize {
        let slot = self.slot(counter.name, || Cow::Borrowed(counter.name));
        if self.by_handle.len() <= id {
            self.by_handle.resize(id + 1, 0);
        }
        self.by_handle[id] = slot as u32 + 1;
        slot
    }

    /// Add `delta` to `counter`, creating it at zero if absent.
    #[inline]
    pub fn bump(&mut self, counter: &'static Counter, delta: u64) {
        *self.slot_by_handle(counter) += delta;
    }

    /// [`record_max`](Self::record_max) through a handle.
    #[inline]
    pub fn raise(&mut self, counter: &'static Counter, value: u64) {
        let slot = self.slot_by_handle(counter);
        *slot = (*slot).max(value);
    }

    /// Add `delta` to counter `name`, creating it at zero if absent.
    pub fn add(&mut self, name: &str, delta: u64) {
        *self.slot_by_name(name) += delta;
    }

    /// Increment counter `name` by one.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Current value of `name` (zero if never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.names
            .get(name)
            .map_or(0, |&slot| self.values[slot as usize])
    }

    /// Raise gauge `name` to `value` if that exceeds its current reading
    /// (high-water-mark semantics; never lowers). A zero reading still
    /// creates the gauge at 0, so reports distinguish "sampled at 0"
    /// (entry present) from "never sampled" (entry absent) — idle
    /// scenarios must show their queue-depth gauges, not hide them.
    pub fn record_max(&mut self, name: &str, value: u64) {
        let slot = self.slot_by_name(name);
        *slot = (*slot).max(value);
    }

    /// Sum of all counters whose name starts with `prefix`.
    pub fn sum_prefix(&self, prefix: &str) -> u64 {
        self.iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }

    /// Iterate `(name, value)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.names
            .iter()
            .map(|(k, &slot)| (k.as_ref(), self.values[slot as usize]))
    }

    /// Merge another counter set into this one (summing shared keys).
    pub fn merge(&mut self, other: &Counters) {
        for (name, &theirs) in &other.names {
            let slot = self.slot(name, || name.clone());
            self.values[slot] += other.values[theirs as usize];
        }
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

impl fmt::Debug for Counters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl Serialize for Counters {
    fn to_json_value(&self) -> Value {
        let values = self
            .iter()
            .map(|(k, v)| (k.to_owned(), Value::U64(v)))
            .collect();
        Value::Object(vec![("values".to_owned(), Value::Object(values))])
    }
}

impl Deserialize for Counters {
    fn from_json_value(v: &Value) -> Result<Self, serde::Error> {
        let values = BTreeMap::<String, u64>::from_json_value(v.get_field("values"))?;
        let mut counters = Counters::new();
        for (name, value) in values {
            *counters.slot_by_name(&name) = value;
        }
        Ok(counters)
    }
}

/// A recorded series of samples with summary statistics.
#[derive(Default, Clone, Debug, Serialize, Deserialize)]
pub struct Series {
    samples: Vec<f64>,
}

/// Summary statistics over a [`Series`].
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    pub count: usize,
    pub mean: f64,
    pub min: f64,
    pub max: f64,
    pub p50: f64,
    pub p95: f64,
    pub stddev: f64,
}

impl Summary {
    /// Summary of an empty series: all values NaN-free zeros with count 0.
    pub const EMPTY: Summary = Summary {
        count: 0,
        mean: 0.0,
        min: 0.0,
        max: 0.0,
        p50: 0.0,
        p95: 0.0,
        stddev: 0.0,
    };
}

impl Series {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, v: f64) {
        debug_assert!(v.is_finite(), "series sample must be finite");
        self.samples.push(v);
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    pub fn extend_from(&mut self, other: &Series) {
        self.samples.extend_from_slice(&other.samples);
    }

    /// Compute summary statistics. Returns [`Summary::EMPTY`] for an empty
    /// series rather than NaNs, so report code never has to special-case.
    pub fn summary(&self) -> Summary {
        if self.samples.is_empty() {
            return Summary::EMPTY;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        let count = sorted.len();
        let sum: f64 = sorted.iter().sum();
        let mean = sum / count as f64;
        let var = sorted.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / count as f64;
        Summary {
            count,
            mean,
            min: sorted[0],
            max: sorted[count - 1],
            p50: percentile(&sorted, 0.50),
            p95: percentile(&sorted, 0.95),
            stddev: var.sqrt(),
        }
    }
}

/// Nearest-rank percentile over a pre-sorted slice.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    debug_assert!((0.0..=1.0).contains(&q));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// A registry of named series, mirroring [`Counters`].
#[derive(Default, Clone, Debug, Serialize, Deserialize)]
pub struct SeriesSet {
    values: BTreeMap<String, Series>,
}

impl SeriesSet {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn record(&mut self, name: &str, v: f64) {
        if let Some(s) = self.values.get_mut(name) {
            s.push(v);
        } else {
            let mut s = Series::new();
            s.push(v);
            self.values.insert(name.to_owned(), s);
        }
    }

    pub fn get(&self, name: &str) -> Option<&Series> {
        self.values.get(name)
    }

    pub fn summary(&self, name: &str) -> Summary {
        self.values
            .get(name)
            .map(|s| s.summary())
            .unwrap_or(Summary::EMPTY)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, &Series)> {
        self.values.iter().map(|(k, v)| (k.as_str(), v))
    }

    pub fn merge(&mut self, other: &SeriesSet) {
        for (k, s) in other.iter() {
            match self.values.get_mut(k) {
                Some(mine) => mine.extend_from(s),
                None => {
                    self.values.insert(k.to_owned(), s.clone());
                }
            }
        }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} p50={:.4} p95={:.4} min={:.4} max={:.4}",
            self.count, self.mean, self.p50, self.p95, self.min, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_basis() {
        let mut c = Counters::new();
        c.inc("a");
        c.add("a", 4);
        c.add("b.x", 2);
        c.add("b.y", 3);
        assert_eq!(c.get("a"), 5);
        assert_eq!(c.get("missing"), 0);
        assert_eq!(c.sum_prefix("b."), 5);
    }

    #[test]
    fn counters_merge() {
        let mut a = Counters::new();
        a.add("x", 1);
        let mut b = Counters::new();
        b.add("x", 2);
        b.add("y", 7);
        a.merge(&b);
        assert_eq!(a.get("x"), 3);
        assert_eq!(a.get("y"), 7);
    }

    #[test]
    fn record_max_keeps_zero_samples_visible() {
        let mut c = Counters::new();
        // A zero reading is a real sample: the gauge appears at 0
        // ("sampled at 0"), distinct from one never sampled at all.
        c.record_max("idleQueueHighWater", 0);
        assert_eq!(c.get("idleQueueHighWater"), 0);
        assert!(c.iter().any(|(k, _)| k == "idleQueueHighWater"));
        assert!(!c.iter().any(|(k, _)| k == "neverSampled"));
        c.record_max("idleQueueHighWater", 5);
        c.record_max("idleQueueHighWater", 3);
        assert_eq!(c.get("idleQueueHighWater"), 5, "high water never lowers");
    }

    #[test]
    fn handles_and_names_address_one_storage() {
        let (m, b, z) = (
            crate::counter!("m"),
            crate::counter!("b"),
            crate::counter!("z"),
        );
        let mut c = Counters::new();
        c.bump(m, 2);
        c.add("m", 3);
        // Entries sorting before and after `m` arrive later, by name and
        // by handle; `m`'s handle must still find it.
        c.add("a", 1);
        c.bump(b, 1);
        c.raise(z, 0);
        c.bump(m, 1);
        c.bump(crate::counter!("m"), 1);
        let seen: Vec<_> = c.iter().collect();
        assert_eq!(seen, [("a", 1), ("b", 1), ("m", 7), ("z", 0)]);
        assert_eq!(
            serde_json::to_string(&c).unwrap(),
            r#"{"values":{"a":1,"b":1,"m":7,"z":0}}"#
        );
        // A second set starts empty whatever ids the handles already have.
        let mut d = Counters::new();
        d.bump(z, 4);
        assert_eq!(d.iter().collect::<Vec<_>>(), [("z", 4)]);
        d.merge(&c);
        assert_eq!(d.get("z"), 4);
        assert_eq!(d.get("m"), 7);
    }

    #[test]
    fn summary_of_known_values() {
        let mut s = Series::new();
        for v in [4.0, 1.0, 2.0, 3.0, 5.0] {
            s.push(v);
        }
        let sum = s.summary();
        assert_eq!(sum.count, 5);
        assert_eq!(sum.mean, 3.0);
        assert_eq!(sum.min, 1.0);
        assert_eq!(sum.max, 5.0);
        assert_eq!(sum.p50, 3.0);
        assert_eq!(sum.p95, 5.0);
    }

    #[test]
    fn empty_series_summary_is_zeroed() {
        let s = Series::new();
        assert_eq!(s.summary(), Summary::EMPTY);
    }

    #[test]
    fn percentile_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.25), 1.0);
        assert_eq!(percentile(&v, 0.5), 2.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
    }

    #[test]
    fn series_set_roundtrip() {
        let mut ss = SeriesSet::new();
        ss.record("join_delay", 1.5);
        ss.record("join_delay", 2.5);
        let sum = ss.summary("join_delay");
        assert_eq!(sum.count, 2);
        assert_eq!(sum.mean, 2.0);
        assert_eq!(ss.summary("nope"), Summary::EMPTY);
    }

    #[test]
    fn series_set_merge() {
        let mut a = SeriesSet::new();
        a.record("d", 1.0);
        let mut b = SeriesSet::new();
        b.record("d", 3.0);
        b.record("e", 9.0);
        a.merge(&b);
        assert_eq!(a.summary("d").count, 2);
        assert_eq!(a.summary("e").count, 1);
    }

    #[test]
    fn stddev_zero_for_constant_series() {
        let mut s = Series::new();
        for _ in 0..10 {
            s.push(7.0);
        }
        assert_eq!(s.summary().stddev, 0.0);
    }
}
