//! Deterministic parallel parameter grids.
//!
//! Each scenario run is single-threaded and deterministic; a sweep fans
//! many configurations across OS threads through the simulator kernel's
//! scoped worker pool ([`mobicast_sim::parallel::run_ordered`]). Results
//! come back in input order whatever the scheduling, and every run's RNG
//! streams derive only from its own seed, so serial and parallel execution
//! produce byte-identical output — the property the determinism-parity
//! harness pins down.

use mobicast_sim::parallel::run_ordered;

/// Run `f` over every `(row, column, seed)` of a parameter grid on up to
/// `workers` threads and return one `Vec` of results per `(row, column)`
/// cell — rows outermost, then columns, each cell in seed order.
pub fn grid<R: Sync, C: Sync, O: Send>(
    rows: &[R],
    cols: &[C],
    seeds: &[u64],
    workers: usize,
    f: impl Fn(&R, &C, u64) -> O + Sync,
) -> Vec<Vec<O>> {
    let mut points = Vec::with_capacity(rows.len() * cols.len() * seeds.len());
    for row in rows {
        for col in cols {
            points.extend(seeds.iter().map(|&seed| (row, col, seed)));
        }
    }
    let mut results =
        run_ordered(points, workers, |&(row, col, seed)| f(row, col, seed)).into_iter();
    (0..rows.len() * cols.len())
        .map(|_| results.by_ref().take(seeds.len()).collect())
        .collect()
}
