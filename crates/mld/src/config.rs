//! MLD timer configuration (RFC 2710 §7).
//!
//! The paper's Section 4.4 proposes tuning exactly these values — above all
//! the Query Interval — to reduce the join and leave delays of mobile
//! receivers. The derived Multicast Listener Interval
//! `T_MLI = RV · T_Query + T_RespDel` (260 s with defaults) is the paper's
//! upper bound on the leave delay.

use mobicast_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// Robustness Variable RV (RFC 2710 §7.1).
pub const ROBUSTNESS: u32 = 2;

/// Query Response Interval / Maximum Response Delay `T_RespDel` inserted
/// into General Queries (RFC 2710 §7.3).
pub const QUERY_RESPONSE_INTERVAL: SimDuration = SimDuration::from_secs(10);

/// Number of startup General Queries: RV (RFC 2710 §7.7).
pub const STARTUP_QUERY_COUNT: u32 = ROBUSTNESS;

/// Maximum Response Delay of the Multicast-Address-Specific Queries sent
/// in response to a Done (RFC 2710 §7.8).
pub const LAST_LISTENER_QUERY_INTERVAL: SimDuration = SimDuration::from_secs(1);

/// Number of specific queries before giving up: RV (RFC 2710 §7.9).
pub const LAST_LISTENER_QUERY_COUNT: u32 = ROBUSTNESS;

/// Interval between repeated unsolicited Reports on join (RFC 2710
/// §7.10).
pub const UNSOLICITED_REPORT_INTERVAL: SimDuration = SimDuration::from_secs(10);

/// MLD protocol timer profile: the one timer a run varies.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct MldConfig {
    /// Query Interval `T_Query`: period between General Queries sent by the
    /// querier. Default 125 s.
    pub query_interval: SimDuration,
}

impl Default for MldConfig {
    fn default() -> Self {
        MldConfig::with_query_interval(SimDuration::from_secs(125))
    }
}

impl MldConfig {
    /// RFC 2710 defaults with the given Query Interval; the dependent
    /// timers (startup interval, other-querier interval, MLI) follow.
    pub fn with_query_interval(query_interval: SimDuration) -> Self {
        MldConfig { query_interval }
    }

    /// Interval between startup General Queries: `T_Query / 4`
    /// (RFC 2710 §7.6).
    pub fn startup_query_interval(&self) -> SimDuration {
        self.query_interval / 4
    }

    /// Multicast Listener Interval: how long a membership stays alive
    /// without Reports. `RV · T_Query + T_RespDel` (260 s with defaults) —
    /// the paper's leave-delay bound.
    pub fn multicast_listener_interval(&self) -> SimDuration {
        self.query_interval.saturating_mul(u64::from(ROBUSTNESS)) + QUERY_RESPONSE_INTERVAL
    }

    /// Other Querier Present Interval:
    /// `RV · T_Query + T_RespDel / 2`.
    pub fn other_querier_present_interval(&self) -> SimDuration {
        self.query_interval.saturating_mul(u64::from(ROBUSTNESS)) + QUERY_RESPONSE_INTERVAL / 2
    }

    /// Validate the profile. The paper (footnote 5) requires
    /// `T_Query ≥ T_RespDel`, which also keeps T_Query positive.
    pub fn validate(&self) -> Result<(), String> {
        if self.query_interval < QUERY_RESPONSE_INTERVAL {
            return Err(format!(
                "query interval {} must be >= query response interval {} \
                 (paper §4.4, footnote 5)",
                self.query_interval, QUERY_RESPONSE_INTERVAL
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_mli_is_260s() {
        let cfg = MldConfig::default();
        assert_eq!(cfg.query_interval, SimDuration::from_secs(125));
        assert_eq!(
            cfg.multicast_listener_interval(),
            SimDuration::from_secs(260),
            "paper: T_MLI = 2*125 + 10 = 260 s"
        );
        cfg.validate().unwrap();
    }

    #[test]
    fn validation_enforces_paper_footnote5() {
        // T_Query must not be smaller than T_RespDel (10 s default).
        let cfg = MldConfig::with_query_interval(SimDuration::from_secs(5));
        assert!(cfg.validate().is_err());
        let cfg = MldConfig::with_query_interval(SimDuration::from_secs(10));
        assert!(cfg.validate().is_ok());
    }
}
