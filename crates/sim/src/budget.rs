//! Control-plane rate limiting for overload robustness: a deterministic
//! token bucket over simulated time.
//!
//! The bucket is a pure state machine over [`SimTime`] — no randomness,
//! no wall clock — so a rate-limited run is exactly as reproducible as an
//! unlimited one. (Table capacities need no primitive here: a full table
//! refuses the newcomer, a one-line check in each protocol machine.)

use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// Token-bucket rate limit parameters: sustained `rate_per_sec` with a
/// burst allowance of `burst` back-to-back messages.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RateLimit {
    /// Sustained refill rate, tokens per second. Must be positive.
    pub rate_per_sec: f64,
    /// Bucket depth: how many messages may arrive back to back before the
    /// limiter starts dropping. Must be >= 1.
    pub burst: u32,
}

impl RateLimit {
    pub fn validate(&self) -> Result<(), String> {
        if !(self.rate_per_sec > 0.0 && self.rate_per_sec.is_finite()) {
            return Err(format!(
                "rate limit rate_per_sec = {} must be positive",
                self.rate_per_sec
            ));
        }
        if self.burst == 0 {
            return Err("rate limit burst must be >= 1".into());
        }
        Ok(())
    }
}

/// A deterministic token bucket over simulated time.
///
/// The bucket starts full; [`TokenBucket::try_take`] refills by elapsed
/// sim time at `rate_per_sec` (capped at `burst`), then consumes one token
/// if available. All arithmetic is on whole nanoseconds, so the admission
/// sequence is a pure function of the arrival times.
#[derive(Clone, Debug)]
pub struct TokenBucket {
    limit: RateLimit,
    /// Tokens currently available, in nano-tokens (1 token = 1e9).
    nano_tokens: u64,
    last: SimTime,
}

const NANO: u64 = 1_000_000_000;

impl TokenBucket {
    pub fn new(limit: RateLimit) -> Self {
        TokenBucket {
            limit,
            nano_tokens: u64::from(limit.burst) * NANO,
            last: SimTime::ZERO,
        }
    }

    pub fn limit(&self) -> RateLimit {
        self.limit
    }

    /// Refill for the time elapsed since the last call, then try to take
    /// one token. Returns `false` when the message must be dropped.
    pub fn try_take(&mut self, now: SimTime) -> bool {
        if now > self.last {
            let elapsed = (now - self.last).as_nanos();
            // nano-tokens gained = elapsed_ns * rate / 1e9 * 1e9.
            let gained = (elapsed as f64 * self.limit.rate_per_sec) as u64;
            let cap = u64::from(self.limit.burst) * NANO;
            self.nano_tokens = (self.nano_tokens + gained).min(cap);
            self.last = now;
        }
        if self.nano_tokens >= NANO {
            self.nano_tokens -= NANO;
            true
        } else {
            false
        }
    }

    /// Tokens currently available (floor), for tests and introspection.
    pub fn available(&self) -> u32 {
        (self.nano_tokens / NANO) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn bucket_starts_full_and_drains() {
        let mut b = TokenBucket::new(RateLimit {
            rate_per_sec: 1.0,
            burst: 3,
        });
        assert!(b.try_take(t(0)));
        assert!(b.try_take(t(0)));
        assert!(b.try_take(t(0)));
        assert!(!b.try_take(t(0)), "burst exhausted");
    }

    #[test]
    fn bucket_refills_at_rate() {
        let mut b = TokenBucket::new(RateLimit {
            rate_per_sec: 2.0,
            burst: 2,
        });
        assert!(b.try_take(t(0)));
        assert!(b.try_take(t(0)));
        assert!(!b.try_take(t(0)));
        // 0.5 s -> one token back at 2/s.
        assert!(b.try_take(SimTime::from_nanos(500_000_000)));
        assert!(!b.try_take(SimTime::from_nanos(500_000_000)));
    }

    #[test]
    fn refill_caps_at_burst() {
        let mut b = TokenBucket::new(RateLimit {
            rate_per_sec: 10.0,
            burst: 2,
        });
        assert!(b.try_take(t(0)));
        // A long quiet period must not bank more than `burst` tokens.
        assert!(b.try_take(t(100)));
        assert!(b.try_take(t(100)));
        assert!(!b.try_take(t(100)));
    }

    #[test]
    fn admission_sequence_is_deterministic() {
        let lim = RateLimit {
            rate_per_sec: 3.0,
            burst: 2,
        };
        let arrivals: Vec<SimTime> = (0..500)
            .map(|i| SimTime::from_nanos(i * 137_000_000))
            .collect();
        let run = |mut b: TokenBucket| -> Vec<bool> {
            arrivals.iter().map(|&at| b.try_take(at)).collect()
        };
        assert_eq!(run(TokenBucket::new(lim)), run(TokenBucket::new(lim)));
    }

    #[test]
    fn rate_limit_validation() {
        assert!(RateLimit {
            rate_per_sec: 1.0,
            burst: 1
        }
        .validate()
        .is_ok());
        assert!(RateLimit {
            rate_per_sec: 0.0,
            burst: 1
        }
        .validate()
        .is_err());
        assert!(RateLimit {
            rate_per_sec: 5.0,
            burst: 0
        }
        .validate()
        .is_err());
    }
}
