//! The listener table backing [`MldRouterPort`]: the shared
//! [`SoftTable`] keyed by group address, one specific-query
//! retransmission row per membership.
//!
//! [`MldRouterPort`]: crate::router::MldRouterPort

use mobicast_ipv6::addr::GroupAddr;
use mobicast_sim::arena::SoftTable;
use mobicast_sim::SimTime;

/// Specific-query retransmission state for one membership:
/// `(remaining count, next send time)`, `None` when nothing is pending.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Rexmt(pub Option<(u32, SimTime)>);

/// Membership table for one router interface.
pub type ListenerTable = SoftTable<GroupAddr, Rexmt>;

/// Earliest pending per-group deadline (expiry or retransmission): one
/// linear sweep over the columns.
pub fn min_deadline(table: &ListenerTable) -> Option<SimTime> {
    table
        .slots()
        .map(|slot| match table.row(slot).0 {
            Some((_, at)) => table.expires_at(slot).min(at),
            None => table.expires_at(slot),
        })
        .min()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn min_deadline_is_the_earlier_of_expiry_and_pending_retransmit() {
        let mut tab = ListenerTable::new();
        assert_eq!(min_deadline(&tab), None, "empty table has no deadline");
        let g = GroupAddr::test_group;
        tab.insert(g(1), t(260), Rexmt::default()).unwrap();
        let done = tab.insert(g(2), t(300), Rexmt::default()).unwrap();
        assert_eq!(min_deadline(&tab), Some(t(260)), "expiry only");
        // A Done arms the last-listener query: the retransmit is due first.
        tab.set_expires(done, t(102));
        tab.row_mut(done).0 = Some((1, t(101)));
        assert_eq!(min_deadline(&tab), Some(t(101)), "pending retransmit wins");
        // A retransmit later than its own expiry never hides the expiry.
        tab.row_mut(done).0 = Some((1, t(500)));
        assert_eq!(min_deadline(&tab), Some(t(102)));
        // A Report cancels the retransmit; the refreshed expiry counts.
        tab.row_mut(done).0 = None;
        tab.set_expires(done, t(400));
        assert_eq!(min_deadline(&tab), Some(t(260)));
        tab.remove(g(1));
        assert_eq!(min_deadline(&tab), Some(t(400)));
    }
}
