//! Deterministic parallel parameter sweeps.
//!
//! Each scenario run is single-threaded and deterministic; a sweep fans
//! many configurations across OS threads through the simulator kernel's
//! scoped worker pool ([`mobicast_sim::parallel`]). Results come back in
//! input order whatever the scheduling, and every run's RNG streams derive
//! only from its own seed, so serial and parallel execution produce
//! byte-identical output — the property the determinism-parity harness
//! pins down.

pub use mobicast_sim::parallel::{configured_workers, set_worker_override, with_workers};

/// Run `f` over `inputs` with up to `workers` threads, preserving order.
pub fn run_parallel<I, O, F>(inputs: Vec<I>, workers: usize, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    mobicast_sim::parallel::run_ordered(inputs, workers, f)
}

/// Run `f` over every `(row, column, seed)` of a parameter grid on the
/// default worker pool and return one `Vec` of results per `(row, column)`
/// cell — rows outermost, then columns, each cell in seed order.
pub fn grid<R: Sync, C: Sync, O: Send>(
    rows: &[R],
    cols: &[C],
    seeds: &[u64],
    f: impl Fn(&R, &C, u64) -> O + Sync,
) -> Vec<Vec<O>> {
    let mut points = Vec::with_capacity(rows.len() * cols.len() * seeds.len());
    for row in rows {
        for col in cols {
            points.extend(seeds.iter().map(|&seed| (row, col, seed)));
        }
    }
    let mut results = run_parallel(points, default_workers(), |&(row, col, seed)| {
        f(row, col, seed)
    })
    .into_iter();
    (0..rows.len() * cols.len())
        .map(|_| results.by_ref().take(seeds.len()).collect())
        .collect()
}

/// Number of worker threads to use by default (respects the
/// `MOBICAST_WORKERS` environment variable and any programmatic override).
pub fn default_workers() -> usize {
    configured_workers()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let inputs: Vec<u64> = (0..100).collect();
        let out = run_parallel(inputs.clone(), 8, |x| x * 2);
        assert_eq!(out, inputs.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_worker_works() {
        let out = run_parallel(vec![1, 2, 3], 1, |x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = run_parallel(Vec::<u32>::new(), 4, |_| 0);
        assert!(out.is_empty());
    }

    #[test]
    fn more_workers_than_inputs() {
        let out = run_parallel(vec![5], 16, |x| x * x);
        assert_eq!(out, vec![25]);
    }

    #[test]
    fn override_forces_serial_default() {
        with_workers(1, || assert_eq!(default_workers(), 1));
    }
}
