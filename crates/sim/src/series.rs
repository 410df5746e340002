//! Sim-time metric series: sampled gauge timelines and a mergeable
//! quantile digest for latency-style measurements.
//!
//! Everything here is deterministic and derived from the simulation clock
//! only: a [`TimeSeries`] is a list of `(t_ns, value)` points appended in
//! sim-time order, and a [`QuantileDigest`] buckets nanosecond
//! observations with pure integer arithmetic so two runs of the same seed
//! — serial or parallel — serialize byte-identically. Wall-clock numbers
//! never enter these types; they stay in `SimProfile`.

use crate::time::SimTime;
use serde::Serialize;
use std::collections::BTreeMap;

/// One sampled gauge over simulation time: `(t_ns, value)` points in
/// ascending time order.
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct TimeSeries {
    /// The samples, oldest first, as `[t_ns, value]` pairs.
    pub points: Vec<(u64, f64)>,
}

impl TimeSeries {
    /// Append one sample. Samples must arrive in non-decreasing sim time;
    /// out-of-order pushes are a logic error and panic in debug builds.
    pub fn push(&mut self, at: SimTime, value: f64) {
        let t = at.as_nanos();
        debug_assert!(
            self.points.last().is_none_or(|(last, _)| *last <= t),
            "time series samples must be pushed in sim-time order"
        );
        self.points.push((t, value));
    }

    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The most recent sample, if any.
    pub fn last(&self) -> Option<(u64, f64)> {
        self.points.last().copied()
    }

    /// Largest sampled value (`None` when empty). Ties resolve to the
    /// earliest sample, which keeps the result deterministic.
    pub fn max(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|(_, v)| *v)
            .fold(None, |acc, v| match acc {
                None => Some(v),
                Some(m) if v > m => Some(v),
                Some(m) => Some(m),
            })
    }
}

/// A named collection of [`TimeSeries`], ordered by name.
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct TimeSeriesSet {
    series: BTreeMap<String, TimeSeries>,
}

impl TimeSeriesSet {
    /// Append a sample to the named series, creating it on first use.
    pub fn sample(&mut self, name: &str, at: SimTime, value: f64) {
        // Not `entry`, which takes an owned name: a copy per sample.
        if !self.series.contains_key(name) {
            self.series.insert(name.to_owned(), TimeSeries::default());
        }
        let series = self.series.get_mut(name).expect("inserted above");
        series.push(at, value);
    }

    pub fn get(&self, name: &str) -> Option<&TimeSeries> {
        self.series.get(name)
    }

    /// Iterate series in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &TimeSeries)> {
        self.series.iter()
    }

    pub fn len(&self) -> usize {
        self.series.len()
    }

    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }
}

/// Number of linear sub-buckets per power of two in [`QuantileDigest`].
const DIGEST_SUBBUCKET_BITS: u32 = 3;
const DIGEST_SUBBUCKETS: u64 = 1 << DIGEST_SUBBUCKET_BITS;

/// A mergeable quantile digest over nanosecond observations.
///
/// Observations land in logarithmic buckets (powers of two, each split
/// into 8 linear sub-buckets, ~12.5 % relative error); exact `count`,
/// `sum`, `min` and `max` ride alongside. Bucketing uses only integer
/// arithmetic, so digests are deterministic across platforms and merge
/// order, and two digests over the same observations serialize
/// identically.
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct QuantileDigest {
    /// Total number of observations.
    pub count: u64,
    /// Exact sum of all observations, nanoseconds.
    pub sum_ns: u64,
    /// Exact smallest observation (0 when empty).
    pub min_ns: u64,
    /// Exact largest observation (0 when empty).
    pub max_ns: u64,
    /// Sparse `[bucket_index, count]` pairs, ascending by index.
    pub buckets: Vec<(u32, u64)>,
}

fn bucket_index(v: u64) -> u32 {
    if v < DIGEST_SUBBUCKETS {
        return v as u32;
    }
    let msb = 63 - v.leading_zeros();
    let sub = ((v >> (msb - DIGEST_SUBBUCKET_BITS)) & (DIGEST_SUBBUCKETS - 1)) as u32;
    (msb - DIGEST_SUBBUCKET_BITS) * DIGEST_SUBBUCKETS as u32 + DIGEST_SUBBUCKETS as u32 + sub
}

/// Upper bound of the value range covered by `idx` (the deterministic
/// representative reported for quantiles landing in that bucket).
fn bucket_upper(idx: u32) -> u64 {
    let subs = DIGEST_SUBBUCKETS as u32;
    if idx < subs {
        return idx as u64;
    }
    let shift = (idx - subs) / subs;
    let sub = ((idx - subs) % subs) as u64;
    ((DIGEST_SUBBUCKETS + sub + 1) << shift) - 1
}

impl QuantileDigest {
    /// Record one observation, in nanoseconds.
    pub fn record_ns(&mut self, v: u64) {
        if self.count == 0 {
            self.min_ns = v;
            self.max_ns = v;
        } else {
            self.min_ns = self.min_ns.min(v);
            self.max_ns = self.max_ns.max(v);
        }
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(v);
        let idx = bucket_index(v);
        match self.buckets.binary_search_by_key(&idx, |(i, _)| *i) {
            Ok(pos) => self.buckets[pos].1 += 1,
            Err(pos) => self.buckets.insert(pos, (idx, 1)),
        }
    }

    /// Record a duration given in (non-negative) seconds.
    pub fn record_secs(&mut self, secs: f64) {
        self.record_ns((secs.max(0.0) * 1e9).round() as u64);
    }

    /// Fold another digest into this one. Merge is associative and
    /// commutative, so sharded collection reduces to the same digest.
    pub fn merge(&mut self, other: &QuantileDigest) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        for &(idx, n) in &other.buckets {
            match self.buckets.binary_search_by_key(&idx, |(i, _)| *i) {
                Ok(pos) => self.buckets[pos].1 += n,
                Err(pos) => self.buckets.insert(pos, (idx, n)),
            }
        }
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) in nanoseconds, nearest-rank over
    /// the bucketed histogram. Exact at the extremes (`q == 0` returns
    /// `min`, `q >= 1` returns `max`); in between the bucket upper bound
    /// is reported, clamped to the exact `[min, max]` envelope.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q <= 0.0 {
            return self.min_ns;
        }
        if q >= 1.0 {
            return self.max_ns;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for &(idx, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bucket_upper(idx).clamp(self.min_ns, self.max_ns);
            }
        }
        self.max_ns
    }

    /// Median in seconds.
    pub fn p50_secs(&self) -> f64 {
        self.quantile_ns(0.50) as f64 / 1e9
    }

    /// 95th percentile in seconds.
    pub fn p95_secs(&self) -> f64 {
        self.quantile_ns(0.95) as f64 / 1e9
    }

    /// 99th percentile in seconds.
    pub fn p99_secs(&self) -> f64 {
        self.quantile_ns(0.99) as f64 / 1e9
    }

    /// Exact maximum in seconds.
    pub fn max_secs(&self) -> f64 {
        self.max_ns as f64 / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_orders_and_reports() {
        let mut s = TimeSeries::default();
        assert!(s.is_empty());
        s.push(SimTime::from_secs(1), 2.0);
        s.push(SimTime::from_secs(2), 5.0);
        s.push(SimTime::from_secs(3), 3.0);
        assert_eq!(s.len(), 3);
        assert_eq!(s.last(), Some((3_000_000_000, 3.0)));
        assert_eq!(s.max(), Some(5.0));
    }

    #[test]
    fn series_set_is_name_ordered() {
        let mut set = TimeSeriesSet::default();
        set.sample("b", SimTime::ZERO, 1.0);
        set.sample("a", SimTime::ZERO, 2.0);
        set.sample("b", SimTime::from_secs(1), 3.0);
        let names: Vec<&str> = set.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a", "b"]);
        assert_eq!(set.get("b").unwrap().len(), 2);
    }

    #[test]
    fn digest_exact_small_values() {
        let mut d = QuantileDigest::default();
        for v in [0u64, 1, 2, 3, 4, 5, 6, 7] {
            d.record_ns(v);
        }
        // Values below the sub-bucket count land in exact buckets.
        assert_eq!(d.quantile_ns(0.5), 3);
        assert_eq!(d.min_ns, 0);
        assert_eq!(d.max_ns, 7);
        assert_eq!(d.count, 8);
    }

    #[test]
    fn digest_relative_error_is_bounded() {
        let mut d = QuantileDigest::default();
        for i in 1..=1000u64 {
            d.record_ns(i * 1_000_000); // 1ms .. 1s
        }
        for q in [0.5f64, 0.95, 0.99] {
            let exact = ((q * 1000.0).ceil() as u64) * 1_000_000;
            let got = d.quantile_ns(q);
            let err = (got as f64 - exact as f64).abs() / exact as f64;
            assert!(err <= 0.15, "q={q}: got {got}, exact {exact}, err {err}");
        }
        assert_eq!(d.quantile_ns(1.0), 1_000_000_000);
        assert_eq!(d.quantile_ns(0.0), 1_000_000);
    }

    #[test]
    fn digest_merge_equals_combined() {
        let mut a = QuantileDigest::default();
        let mut b = QuantileDigest::default();
        let mut all = QuantileDigest::default();
        for i in 0..500u64 {
            let v = i * 37 + 11;
            if i % 2 == 0 {
                a.record_ns(v);
            } else {
                b.record_ns(v);
            }
            all.record_ns(v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, all);
        // Commutativity.
        let mut merged2 = b;
        merged2.merge(&a);
        assert_eq!(merged2, all);
    }

    #[test]
    fn digest_serializes_deterministically() {
        let mut d = QuantileDigest::default();
        d.record_ns(1_500);
        d.record_ns(9);
        let one = serde_json::to_string(&d.to_json_value()).unwrap();
        let two = serde_json::to_string(&d.clone().to_json_value()).unwrap();
        assert_eq!(one, two);
        assert!(one.contains("\"count\":2"), "{one}");
    }
}
