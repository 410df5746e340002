//! Median and quartiles of a handful of samples.

pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// computes them (the "exclusive" method), so a spread worked out here
/// equals the one the benchmark's driver works out.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |i: usize| {
        let (j, delta) = ((i * (ld + 1)) / 4, (i * (ld + 1)) % 4);
        let j = j.clamp(1, ld - 1);
        (v[j - 1] * (4 - delta) as f64 + v[j] * delta as f64) / 4.0
    };
    (at(1), at(3))
}

/// The highest percentile with at least ten samples beyond it is out of
/// reach for small sweeps; this is the plain nearest-rank percentile.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}
