//! PIM-DM protocol timers (draft-ietf-pim-v2-dm-03, the version the paper
//! cites). Every timer but `T_PruneDel` is the draft's fixed default; the
//! prune delay is the one value a run varies (`mobicast sender_cost`
//! sweeps it).

use mobicast_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// Period between Hello messages (dm-03 default, 30 s).
pub const HELLO_PERIOD: SimDuration = SimDuration::from_secs(30);

/// Neighbor holdtime advertised in Hellos: 3.5 × the Hello period
/// (dm-03 default, 105 s).
pub const HELLO_HOLDTIME: SimDuration = SimDuration::from_millis(105_000);

/// (S,G) state lifetime for a silent source — the paper's (§3.1)
/// "data-timeout value … default 210 s" after which stale trees of a
/// moved sender are deleted.
pub const DATA_TIMEOUT: SimDuration = SimDuration::from_secs(210);

/// How long a pruned interface stays pruned before flooding resumes
/// (dm-03 default Prune holdtime, 210 s).
pub const PRUNE_HOLD_TIME: SimDuration = SimDuration::from_secs(210);

/// Assert state lifetime (dm-03 default, 180 s).
pub const ASSERT_TIME: SimDuration = SimDuration::from_secs(180);

/// Graft retransmission period while unacknowledged (dm-03 default,
/// 3 s).
pub const GRAFT_RETRY: SimDuration = SimDuration::from_secs(3);

/// Minimum spacing of repeated Prunes / Asserts triggered by data arrival
/// (dm-03: one per 3 s).
pub const CONTROL_RATE_LIMIT: SimDuration = SimDuration::from_secs(3);

/// PIM-DM timer profile: the one timer a run varies.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PimConfig {
    /// The paper's `T_PruneDel` (default 3 s): delay between receiving a
    /// Prune on a LAN and acting on it, giving other downstream routers the
    /// chance to send a Join override.
    pub prune_delay: SimDuration,
}

impl Default for PimConfig {
    fn default() -> Self {
        PimConfig {
            prune_delay: SimDuration::from_secs(3),
        }
    }
}

impl PimConfig {
    pub fn validate(&self) -> Result<(), String> {
        if self.prune_delay.is_zero() {
            return Err("prune delay must be positive (join-override window)".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let cfg = PimConfig::default();
        assert_eq!(DATA_TIMEOUT, SimDuration::from_secs(210), "paper §3.1");
        assert_eq!(cfg.prune_delay, SimDuration::from_secs(3), "paper §4.3.1");
        cfg.validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_profiles() {
        let cfg = PimConfig {
            prune_delay: SimDuration::ZERO,
        };
        assert!(cfg.validate().is_err());
    }
}
