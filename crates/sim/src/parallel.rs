//! A dependency-free scoped worker pool for deterministic fan-out.
//!
//! Every scenario run is single-threaded and deterministic in its seed, so
//! a sweep of independent runs parallelizes trivially: workers pull input
//! indices from a shared counter, send `(index, output)` pairs back over a
//! channel, and the caller scatters them into input order. The output is
//! therefore **bit-identical regardless of worker count or OS scheduling**
//! — the property the determinism-parity harness asserts by re-running
//! every experiment with `workers = 1` and comparing JSON byte-for-byte.
//!
//! Worker count resolution (first match wins):
//! 1. a programmatic override installed with [`set_worker_override`]
//!    (used by the parity harness to force serial execution),
//! 2. the `MOBICAST_WORKERS` environment variable,
//! 3. `std::thread::available_parallelism()`, clamped to [1, 16].
//!
//! With one worker the pool spawns no threads at all: the closure runs
//! inline on the caller's thread, so "serial" really is the plain loop.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;

/// Sentinel for "no override installed".
const NO_OVERRIDE: usize = 0;

static WORKER_OVERRIDE: AtomicUsize = AtomicUsize::new(NO_OVERRIDE);

/// Force every subsequent [`configured_workers`] call to return `n`
/// (process-wide). `None` removes the override. Returns the previous
/// override. Intended for the determinism-parity harness and the
/// experiment binaries' `--workers` flag, not for concurrent juggling.
pub fn set_worker_override(n: Option<usize>) -> Option<usize> {
    let raw = match n {
        Some(n) => {
            assert!(n >= 1, "worker override must be >= 1");
            n
        }
        None => NO_OVERRIDE,
    };
    match WORKER_OVERRIDE.swap(raw, Ordering::SeqCst) {
        NO_OVERRIDE => None,
        prev => Some(prev),
    }
}

/// Resolve the worker count: override, then `MOBICAST_WORKERS`, then
/// available parallelism clamped to [1, 16].
pub fn configured_workers() -> usize {
    match WORKER_OVERRIDE.load(Ordering::SeqCst) {
        NO_OVERRIDE => {}
        n => return n,
    }
    if let Ok(v) = std::env::var("MOBICAST_WORKERS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
        eprintln!("warning: ignoring invalid MOBICAST_WORKERS={v:?}");
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(1, 16)
}

/// Run `f` over every input on up to `workers` scoped threads, returning
/// the outputs **in input order** whatever the scheduling.
///
/// `workers == 1` runs inline on the caller's thread (no spawn, no
/// channel): the serial reference execution of the parity harness.
///
/// # Panics
/// When `f` panics on some input: every other input is still run — a
/// worker outlives the input that panicked on it — and then the caller's
/// thread panics with `input {i}: {message}` for the first such input, at
/// any worker count.
pub fn run_ordered<I, O, F>(inputs: Vec<I>, workers: usize, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    assert!(workers >= 1, "need at least one worker");
    let n = inputs.len();
    let run = |i: usize| catch_unwind(AssertUnwindSafe(|| f(&inputs[i])));
    let mut results: Vec<Option<thread::Result<O>>> = (0..n).map(|_| None).collect();
    if workers == 1 || n <= 1 {
        for (i, slot) in results.iter_mut().enumerate() {
            *slot = Some(run(i));
        }
    } else {
        let next = AtomicUsize::new(0);
        let (next, run) = (&next, &run);
        let (tx, rx) = mpsc::channel();
        thread::scope(|s| {
            for _ in 0..workers.min(n) {
                let tx = tx.clone();
                s.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n || tx.send((i, run(i))).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            // Collect on the caller's thread while workers run; scattering by
            // index restores input order deterministically.
            for (i, out) in rx {
                debug_assert!(results[i].is_none(), "input {i} processed twice");
                results[i] = Some(out);
            }
        });
    }
    let outputs = results.into_iter().enumerate().map(|(i, out)| {
        // `panic!`, not `resume_unwind`: the hook prints the index too.
        match out.expect("every input was run and its outcome sent back") {
            Ok(out) => out,
            Err(payload) => panic!("input {i}: {}", panic_message(&*payload)),
        }
    });
    outputs.collect()
}

/// What a panic said, when it said it in words.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    let words = payload.downcast_ref::<&str>().copied();
    words
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("(a panic payload that is not a string)")
}

/// Convenience: run with an override installed for the duration of `g`,
/// restoring the previous override afterwards (even on unwind).
pub fn with_workers<R>(n: usize, g: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            set_worker_override(self.0);
        }
    }
    let _restore = Restore(set_worker_override(Some(n)));
    g()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_at_any_worker_count() {
        let inputs: Vec<u64> = (0..200).collect();
        let expect: Vec<u64> = inputs.iter().map(|x| x * 3).collect();
        for workers in [1, 2, 7, 16] {
            let out = run_ordered(inputs.clone(), workers, |x| x * 3);
            assert_eq!(out, expect, "workers={workers}");
        }
    }

    #[test]
    fn serial_and_parallel_agree() {
        let inputs: Vec<u64> = (0..64).collect();
        let serial = run_ordered(inputs.clone(), 1, |x| x.wrapping_mul(0x9e37_79b9));
        let parallel = run_ordered(inputs, 8, |x| x.wrapping_mul(0x9e37_79b9));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_single_inputs() {
        let out: Vec<u32> = run_ordered(Vec::<u32>::new(), 4, |_| 0);
        assert!(out.is_empty());
        let out = run_ordered(vec![5u32], 16, |x| x * x);
        assert_eq!(out, vec![25]);
    }

    #[test]
    fn with_workers_installs_and_restores() {
        with_workers(3, || {
            assert_eq!(configured_workers(), 3);
            with_workers(1, || assert_eq!(configured_workers(), 1));
            assert_eq!(configured_workers(), 3);
        });
    }

    /// A panic on input 17 of 40 comes back naming the input, after the
    /// other 39 have been run — inline and on four workers alike.
    #[test]
    fn a_panicking_input_is_named_and_no_other_input_is_lost() {
        for workers in [1, 4] {
            let done = AtomicUsize::new(0);
            let swept = catch_unwind(AssertUnwindSafe(|| {
                run_ordered((0..40).collect(), workers, |&i: &usize| {
                    assert!(i != 17, "seed {} diverged", i * 3);
                    done.fetch_add(1, Ordering::SeqCst);
                    i
                })
            }));
            let payload = swept.expect_err("input 17 panics");
            let message = panic_message(&*payload);
            assert_eq!(message, "input 17: seed 51 diverged", "workers={workers}");
            assert_eq!(done.load(Ordering::SeqCst), 39, "workers={workers}");
        }
    }

    #[test]
    fn uncaught_worker_output_is_not_lost_under_contention() {
        // Many tiny tasks: exercises the channel path under real contention.
        let inputs: Vec<usize> = (0..1000).collect();
        let out = run_ordered(inputs, 8, |&i| i + 1);
        assert_eq!(out.len(), 1000);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i + 1));
    }
}
