//! Figure 4 / §4.2.2 — mobile sender: local sending vs reverse tunnel.
//!
//! Sender S moves from Link 1 to Link 6. With local sending, PIM-DM treats
//! the care-of address as a brand-new source: the datagrams are flooded to
//! the whole network, a second source-rooted tree is built, and the old
//! tree's (S,G) state lingers for the 210 s data timeout. With the reverse
//! tunnel (Figure 4), the existing tree is reused and only the tunnel path
//! S→HA carries extra bytes. Moving to Link 2 instead additionally
//! triggers the spurious assert process (stale source address, §4.3.1).

use super::{ExperimentOutput, Settings};
use crate::report::{bytes, Table};
use crate::scenario::{self, PaperHost, ScenarioConfig};
use crate::strategy::Policy;
use mobicast_sim::SimDuration;
use serde_json::json;

struct Row {
    label: &'static str,
    max_sg: usize,
    wasted: u64,
    asserts: u64,
    tunnel_bytes: u64,
    min_delivery: f64,
    stretch: f64,
}

fn one(label: &'static str, policy: Policy, to_link: usize) -> Row {
    let cfg = ScenarioConfig::builder()
        .duration(SimDuration::from_secs(300))
        .policy(policy)
        .data_interval(SimDuration::from_millis(250))
        .move_at(60.0, PaperHost::S, to_link)
        .name(format!("fig4-{}-to{to_link}", policy.id()))
        .build();
    let r = scenario::run(&cfg);
    let min_delivery = ["R1", "R2", "R3"]
        .iter()
        .map(|h| r.received[h] as f64 / r.sent.max(1) as f64)
        .fold(f64::INFINITY, f64::min);
    Row {
        label,
        max_sg: r.max_router_sg_entries,
        wasted: r.report.analysis.total_wasted_bytes,
        asserts: r.report.counters.get("pim.sent.assert"),
        tunnel_bytes: r.report.class_bytes("tunnel_data"),
        min_delivery,
        stretch: r.report.analysis.mean_stretch,
    }
}

pub fn run(_: Settings) -> ExperimentOutput {
    let rows = vec![
        one("local send, S -> Link 6", Policy::LOCAL, 6),
        one("local send, S -> Link 2 (assert case)", Policy::LOCAL, 2),
        one("reverse tunnel, S -> Link 6", Policy::TUNNEL_MH_TO_HA, 6),
    ];

    let mut table = Table::new(&[
        "scenario",
        "max (S,G)/router",
        "wasted data",
        "asserts",
        "tunnel bytes",
        "worst delivery",
        "stretch",
    ]);
    for r in &rows {
        table.row(vec![
            r.label.into(),
            format!("{}", r.max_sg),
            bytes(r.wasted),
            format!("{}", r.asserts),
            bytes(r.tunnel_bytes),
            format!("{:.1}%", r.min_delivery * 100.0),
            format!("{:.2}", r.stretch),
        ]);
    }

    let local = &rows[0];
    let assert_case = &rows[1];
    let tun = &rows[2];
    let mut text = table.render();
    text.push_str(&format!(
        "\npaper's claims checked:\n\
         * local sending builds a new tree: {} (old + new) vs {} (S,G) \
         entries with the tunnel — stale state lives for the 210 s timeout\n\
         * re-flooding wastes bandwidth ({} vs {} with the tunnel)\n\
         * a move onto an on-tree link provokes the assert process: \
         {} assert messages vs {} when moving to pruned Link 6\n\
         * the tunnel keeps the tree intact at the price of suboptimal \
         sender routing (stretch {:.2}) and {} of encapsulated bytes\n",
        local.max_sg,
        tun.max_sg,
        bytes(local.wasted),
        bytes(tun.wasted),
        assert_case.asserts,
        local.asserts,
        tun.stretch,
        bytes(tun.tunnel_bytes),
    ));

    ExperimentOutput {
        id: "fig4",
        title: "Mobile sender: local sending vs tunnel to home agent".into(),
        json: json!({
            "local_max_sg": local.max_sg,
            "tunnel_max_sg": tun.max_sg,
            "local_wasted_bytes": local.wasted,
            "tunnel_wasted_bytes": tun.wasted,
            "assert_case_asserts": assert_case.asserts,
            "local_link6_asserts": local.asserts,
            "tunnel_stretch": tun.stretch,
            "tunnel_bytes": tun.tunnel_bytes,
            "local_worst_delivery": local.min_delivery,
            "tunnel_worst_delivery": tun.min_delivery,
        }),
        text,
    }
}
