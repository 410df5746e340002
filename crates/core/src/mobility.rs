//! Random mobility workloads.
//!
//! The paper treats host movement as a rate ("the mobility rate of the
//! sender", §4.3.1): hosts dwell on a link for some time, then move to
//! another link. [`schedule`] generates deterministic (seeded) move
//! schedules from a Poisson movement process: dwell times drawn from an
//! exponential distribution, the next link chosen uniformly among the
//! others.
//!
//! Schedules are plain `(time, link index)` lists, so they plug into both
//! the reference scenario (`ScenarioConfig::moves`) and hand-built worlds.

use mobicast_sim::rng::sample_exponential;
use mobicast_sim::{RngFactory, SimDuration, SimTime};
use rand::Rng;

/// One scheduled link change.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScheduledMove {
    pub at: SimTime,
    /// Index of the destination among the `n_links` passed to [`schedule`].
    pub to_link_index: usize,
}

/// Generate a move schedule for one host that starts on link index 0 of
/// `n_links` (at least two) and dwells an exponentially distributed time
/// with mean `mean_dwell` on each link; moves fall inside `start..end`.
///
/// Deterministic for a given `(rng label, seed)`.
pub fn schedule(
    mean_dwell: SimDuration,
    n_links: usize,
    start: SimTime,
    end: SimTime,
    rng: &RngFactory,
    label: &str,
) -> Vec<ScheduledMove> {
    assert!(n_links >= 2, "nowhere to move among {n_links} link(s)");
    let mut out = Vec::new();
    let mut stream = rng.stream(label);
    let mut now = start;
    let mut current = 0;
    loop {
        now +=
            SimDuration::from_secs_f64(sample_exponential(&mut stream, mean_dwell.as_secs_f64()));
        if now >= end {
            break;
        }
        // Uniform among the other links.
        let mut idx = stream.random_range(0..n_links - 1);
        if idx >= current {
            idx += 1;
        }
        if idx != current {
            out.push(ScheduledMove {
                at: now,
                to_link_index: idx,
            });
            current = idx;
        }
        if out.len() > 100_000 {
            panic!("mobility schedule unreasonably long (dwell too small?)");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> RngFactory {
        RngFactory::new(77)
    }

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn exponential_dwell_mean_is_respected() {
        let mean = SimDuration::from_secs(50);
        let moves = schedule(mean, 4, SimTime::ZERO, secs(100_000), &rng(), "h");
        let rate = moves.len() as f64 / 100_000.0;
        // Expected rate 1/50 = 0.02 moves/s.
        assert!((rate - 0.02).abs() < 0.002, "rate {rate} vs expected 0.02");
    }

    #[test]
    fn never_moves_to_current_link() {
        let mean = SimDuration::from_secs(10);
        let moves = schedule(mean, 2, SimTime::ZERO, secs(10_000), &rng(), "h");
        let mut current = 0usize;
        for m in &moves {
            assert_ne!(m.to_link_index, current, "self-move at {:?}", m.at);
            current = m.to_link_index;
        }
        assert!(!moves.is_empty());
    }

    #[test]
    fn deterministic_per_label_and_seed() {
        let mean = SimDuration::from_secs(30);
        let run = |label| schedule(mean, 3, SimTime::ZERO, secs(5000), &rng(), label);
        assert_eq!(run("x"), run("x"));
        assert_ne!(run("x"), run("y"), "different labels roam differently");
    }

    #[test]
    fn moves_stay_inside_window() {
        let mean = SimDuration::from_secs(7);
        let moves = schedule(mean, 2, secs(100), secs(200), &rng(), "h");
        assert!(!moves.is_empty());
        for m in &moves {
            assert!(m.at > secs(100) && m.at < secs(200));
        }
    }
}
