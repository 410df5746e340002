//! The oracle's state poll scales with router state, not with listeners:
//! router state is per (link, group), so its walk does not grow with the
//! listener population.

use mobicast_core::scale::metro_spec;
use mobicast_core::stress::{run_stress, StressSpec};
use mobicast_sim::SimDuration;

/// The oracle's 5 s poll walks a router's (S,G) entries only when the
/// table's expiry watermark is overdue or its mutation epoch moved, and
/// the entries are per (S,G), not per listener: quadrupling the listener
/// population on the same 120-router grid must not grow the walk. The
/// source sends every 10 s, slower than the poll, so some polls find a
/// router's table untouched since the last one and must skip it (at a 2 s
/// interval every table is refreshed between two polls and the skip never
/// fires).
#[test]
fn oracle_poll_walk_does_not_grow_with_listeners() {
    let poll = |receivers| {
        let spec = StressSpec {
            movers: 4,
            data_interval: SimDuration::from_secs(10),
            ..metro_spec(120, receivers, 11)
        };
        run_stress(&spec).poll
    };
    let (few, many) = (poll(64), poll(256));
    assert!(few.sg_entries_walked > 0);
    assert!(
        few.sg_walks < few.router_polls,
        "every one of {} router polls walked: quiet tables are not skipped",
        few.router_polls
    );
    assert!(
        many.sg_entries_walked <= few.sg_entries_walked,
        "poll walk grew with listeners: {} entries over {} polls at 64, \
         {} over {} at 256",
        few.sg_entries_walked,
        few.router_polls,
        many.sg_entries_walked,
        many.router_polls
    );
}
