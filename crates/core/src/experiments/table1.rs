//! Table 1 / §4.3 — quantitative comparison of the four approaches.
//!
//! One mixed-mobility scenario (Receiver 3 and Sender S both roam) is run
//! under each of the paper's four strategies, and the qualitative criteria
//! of Section 4.3 are reported as measured numbers: join delay, leave
//! delay, packet delivery, routing optimality (stretch), bandwidth
//! consumption (wasted bytes), protocol overhead (control + tunnel bytes),
//! and system load (home agent, mobile host, router state). The last
//! column records the static property the paper discusses: whether the
//! approach needs the proposed draft extension.

use super::{ExperimentOutput, Settings};
use crate::report::{bytes, secs, Table};
use crate::scenario::{self, Move, PaperHost, ScenarioConfig};
use crate::strategy::Policy;
use crate::sweep;
use mobicast_sim::SimDuration;
use serde_json::json;

#[derive(Default, Clone, serde::Serialize, serde::Deserialize)]
pub struct StrategyScore {
    pub name: String,
    pub join_delay_s: f64,
    pub leave_delay_s: f64,
    pub delivery: f64,
    pub stretch: f64,
    pub wasted_bytes: f64,
    pub control_bytes: f64,
    pub tunnel_bytes: f64,
    pub ha_tunneled: f64,
    pub ha_binding_updates: f64,
    pub mh_encap_ops: f64,
    pub max_router_sg: f64,
    pub needs_draft_changes: bool,
    pub runs: u64,
}

fn mixed_moves() -> Vec<Move> {
    vec![
        Move {
            at_secs: 60.0,
            host: PaperHost::R3,
            to_link: 6,
        },
        Move {
            at_secs: 150.0,
            host: PaperHost::S,
            to_link: 6,
        },
        Move {
            at_secs: 260.0,
            host: PaperHost::R3,
            to_link: 1,
        },
        Move {
            at_secs: 370.0,
            host: PaperHost::S,
            to_link: 1, // S returns home
        },
        Move {
            at_secs: 480.0,
            host: PaperHost::R3,
            to_link: 4, // R3 returns home
        },
    ]
}

fn one(policy: Policy, seed: u64) -> StrategyScore {
    let cfg = ScenarioConfig::builder()
        .seed(seed)
        .duration(SimDuration::from_secs(650))
        .policy(policy)
        .data_interval(SimDuration::from_millis(250))
        .moves(mixed_moves())
        .name(format!("table1-{}-seed{}", policy.id(), seed))
        .build();
    let r = scenario::run(&cfg);
    let a = &r.report.analysis;
    let delivery = r.delivery_ratio();
    let control = r.report.class_bytes("mld_ctrl")
        + r.report.class_bytes("pim_ctrl")
        + r.report.class_bytes("mip6_ctrl");
    let mh_encap = r.report.counters.get("host.data_tunnel_encap")
        + r.report.counters.get("host.data_tunnel_decap");
    StrategyScore {
        name: policy.name().into(),
        join_delay_s: r.report.series.summary("join_delay").mean,
        leave_delay_s: r.report.series.summary("leave_delay").mean,
        delivery,
        stretch: a.mean_stretch,
        wasted_bytes: a.total_wasted_bytes as f64,
        control_bytes: control as f64,
        tunnel_bytes: r.report.class_bytes("tunnel_data") as f64,
        ha_tunneled: r.ha_packets_tunneled as f64,
        ha_binding_updates: r.ha_binding_updates as f64,
        mh_encap_ops: mh_encap as f64,
        max_router_sg: r.max_router_sg_entries as f64,
        needs_draft_changes: policy.requires_draft_changes(),
        runs: 1,
    }
}

fn merge(scores: Vec<StrategyScore>) -> StrategyScore {
    let n = scores.len() as f64;
    let mut out = scores[0].clone();
    let avg = |f: fn(&StrategyScore) -> f64| -> f64 {
        0.0_f64.max(scores.iter().map(f).sum::<f64>() / n)
    };
    out.join_delay_s = avg(|s| s.join_delay_s);
    out.leave_delay_s = avg(|s| s.leave_delay_s);
    out.delivery = avg(|s| s.delivery);
    out.stretch = avg(|s| s.stretch);
    out.wasted_bytes = avg(|s| s.wasted_bytes);
    out.control_bytes = avg(|s| s.control_bytes);
    out.tunnel_bytes = avg(|s| s.tunnel_bytes);
    out.ha_tunneled = avg(|s| s.ha_tunneled);
    out.ha_binding_updates = avg(|s| s.ha_binding_updates);
    out.mh_encap_ops = avg(|s| s.mh_encap_ops);
    out.max_router_sg = scores.iter().map(|s| s.max_router_sg).fold(0.0, f64::max);
    out.runs = scores.len() as u64;
    out
}

pub fn run(settings: Settings) -> ExperimentOutput {
    let Settings { quick, workers, .. } = settings;
    let seeds: Vec<u64> = if quick { vec![1, 2] } else { (1..=6).collect() };
    let cells = sweep::grid(
        &Policy::PAPER,
        &[()],
        &seeds,
        workers,
        |&policy, (), seed| one(policy, seed),
    );
    let per_strategy: Vec<StrategyScore> = cells.into_iter().map(merge).collect();

    let mut table = Table::new(&[
        "approach (Table 1)",
        "join delay",
        "leave delay",
        "delivery",
        "stretch",
        "wasted",
        "ctrl bytes",
        "tunnel bytes",
        "HA tunneled",
        "MH encap",
        "max (S,G)",
        "draft chg",
    ]);
    for s in &per_strategy {
        table.row(vec![
            s.name.clone(),
            secs(s.join_delay_s),
            secs(s.leave_delay_s),
            format!("{:.1}%", s.delivery * 100.0),
            format!("{:.2}", s.stretch),
            bytes(s.wasted_bytes as u64),
            bytes(s.control_bytes as u64),
            bytes(s.tunnel_bytes as u64),
            format!("{:.0}", s.ha_tunneled),
            format!("{:.0}", s.mh_encap_ops),
            format!("{:.0}", s.max_router_sg),
            if s.needs_draft_changes { "yes" } else { "no" }.into(),
        ]);
    }

    let mut text = table.render();
    text.push_str(
        "\nexpected ordering (paper §4.3/§5): local membership has optimal \
         routing and zero HA/MH load but pays join/leave delays and tree \
         rebuilds; the bi-directional tunnel eliminates join delay and tree \
         rebuilds but has suboptimal routing, per-packet encapsulation and \
         the highest HA load; MH->HA keeps receive routing optimal with a \
         modest tunnel cost; HA->MH combines the drawbacks (tunnel overhead \
         AND tree rebuilds on sender moves).\n",
    );

    ExperimentOutput {
        id: "table1",
        title: "Four approaches, all criteria (mixed mobility)".into(),
        json: json!({ "strategies": per_strategy }),
        text,
    }
}
