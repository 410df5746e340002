//! The paper's §4.4 recommendation, live: shrink the MLD Query Interval
//! and watch the join/leave delays of a roaming receiver drop while MLD
//! signalling grows slightly.
//!
//! Run with: `cargo run --release --example timer_tuning`

use mobicast::core::report::{bytes, secs, Table};
use mobicast::core::scenario::{self, PaperHost, ScenarioConfig};
use mobicast::mld::MldConfig;
use mobicast::sim::SimDuration;

fn main() {
    let mut table = Table::new(&[
        "T_Query",
        "T_MLI (leave bound)",
        "join delay",
        "leave delay",
        "MLD bytes",
        "wasted data",
    ]);

    for query_interval in [10u64, 30, 60, 125] {
        let mld = MldConfig::with_query_interval(SimDuration::from_secs(query_interval));
        mld.validate().expect("T_Query >= T_RespDel (footnote 5)");
        // The host waits for a Query (no unsolicited reports): the
        // regime §4.4's tuning is about.
        let cfg = ScenarioConfig::builder()
            .duration(SimDuration::from_secs(700))
            .mld(mld)
            .unsolicited_reports(false)
            .move_at(90.0, PaperHost::R3, 6)
            .name(format!("timer-tuning-q{query_interval}"))
            .build();
        let r = scenario::run(&cfg);
        table.row(vec![
            format!("{query_interval}s"),
            format!("{}", mld.multicast_listener_interval()),
            secs(r.report.series.summary("join_delay").mean),
            secs(r.report.series.summary("leave_delay").mean),
            bytes(r.report.class_bytes("mld_ctrl")),
            bytes(r.report.analysis.total_wasted_bytes),
        ]);
    }

    println!("MLD timer tuning for a receiver moving to a pruned link:\n");
    println!("{}", table.render());
    println!(
        "Paper §4.4: \"administrators should speed up the MLD group \
         membership registration process by decreasing the Query \
         Interval\" — the join and leave delays scale with T_Query while \
         the extra query/report bandwidth stays small."
    );
    println!(
        "\n(Also try the full sweep: cargo run --release -p mobicast-bench \
         -- timer_sweep)"
    );
}
