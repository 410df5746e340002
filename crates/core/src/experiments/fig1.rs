//! Figure 1 — the reference multicast distribution tree.
//!
//! Static run of the paper's network: Sender S on Link 1 streams to
//! Receivers 1 (Link 1), 2 (Link 2) and 3 (Link 4). PIM-DM floods, the
//! leaf routers prune, and the steady-state tree must span exactly
//! Links 1–4 with Links 5 and 6 pruned. The parallel routers B and C on
//! the Link2/Link3 LAN elect a single forwarder via the assert process.

use super::{ExperimentOutput, Settings};
use crate::report::{bytes, Table};
use crate::scenario::{self, ScenarioConfig};
use mobicast_sim::SimDuration;
use serde_json::json;

pub fn run(_: Settings) -> ExperimentOutput {
    let cfg = ScenarioConfig::builder()
        .duration(SimDuration::from_secs(180))
        .name("fig1")
        .build();
    let result = scenario::run(&cfg);
    let a = &result.report.analysis;

    let mut table = Table::new(&[
        "link",
        "data frames",
        "data bytes",
        "useful",
        "wasted",
        "on tree",
    ]);
    let mut tree = Vec::new();
    for (i, usage) in a.link_usage.iter().enumerate() {
        let total = usage.useful_bytes + usage.wasted_bytes;
        // On-tree = carries a substantial share of the stream usefully.
        let on_tree = usage.useful_frames as f64 >= 0.5 * a.packets_sent as f64;
        if on_tree {
            tree.push(i + 1);
        }
        table.row(vec![
            format!("Link {}", i + 1),
            format!("{}", usage.useful_frames + usage.wasted_frames),
            bytes(total),
            bytes(usage.useful_bytes),
            bytes(usage.wasted_bytes),
            if on_tree { "yes".into() } else { "-".into() },
        ]);
    }

    let asserts = result.report.counters.get("pim.sent.assert");
    let prunes = result.report.counters.get("pim.sent.prune");
    let mut text = table.render();
    text.push_str(&format!(
        "\ntree links: {tree:?} (paper: 1,2,3,4 — Links 5 and 6 pruned)\n\
         packets: sent={} delivered={} (3 receivers) duplicates={}\n\
         assert messages (B/C forwarder election): {asserts}\n\
         prune messages (initial flood-and-prune): {prunes}\n\
         mean routing stretch: {:.3} (optimal = 1.0)\n",
        a.packets_sent, a.packets_delivered, a.duplicates, a.mean_stretch,
    ));

    ExperimentOutput {
        id: "fig1",
        title: "Multicast distribution tree on the reference network".into(),
        json: json!({
            "tree_links": tree,
            "packets_sent": a.packets_sent,
            "packets_delivered": a.packets_delivered,
            "assert_messages": asserts,
            "prune_messages": prunes,
            "mean_stretch": a.mean_stretch,
            "link_usage": a.link_usage,
        }),
        text,
    }
}
