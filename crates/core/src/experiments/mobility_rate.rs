//! §5 (conclusions) — which approach wins for *highly mobile* hosts?
//!
//! The paper's bottom line is conditional: local membership "is not a good
//! solution for highly mobile hosts", while "a bi-directional tunnel is
//! interesting for highly mobile hosts, since no significant join and
//! leave delay occurs". This experiment quantifies that crossover: a
//! receiver roams with exponentially distributed dwell times and we sweep
//! the mean dwell from minutes down to tens of seconds, comparing delivery
//! and join delay for (a) plain local membership (wait-for-query), (b)
//! local membership with the paper's unsolicited-Report optimization, and
//! (c) the bi-directional tunnel.

use super::{ExperimentOutput, Settings};
use crate::mobility::schedule;
use crate::report::{secs, Table};
use crate::scenario::{self, Move, PaperHost, ScenarioConfig};
use crate::strategy::Policy;
use mobicast_sim::{parallel::run_ordered, RngFactory, SimDuration, SimTime};
use serde_json::json;

#[derive(Clone, Copy)]
struct Params {
    mean_dwell_s: u64,
    seed: u64,
    policy: Policy,
    unsolicited: bool,
}

#[derive(Clone, Copy)]
struct RunStats {
    delivery: f64,
    join_delay: f64,
    moves: usize,
}

/// Links R3 roams over (paper link numbers).
const ROAM_LINKS: [usize; 4] = [4, 6, 1, 3];
const DURATION_S: u64 = 1200;

fn one(p: &Params) -> RunStats {
    let rng = RngFactory::new(p.seed).subfactory("mobility");
    let sched = schedule(
        SimDuration::from_secs(p.mean_dwell_s),
        ROAM_LINKS.len(),
        SimTime::from_secs(60),
        SimTime::from_secs(DURATION_S - 60),
        &rng,
        "r3",
    );
    let moves: Vec<Move> = sched
        .iter()
        .map(|m| Move {
            at_secs: m.at.as_secs_f64(),
            host: PaperHost::R3,
            to_link: ROAM_LINKS[m.to_link_index],
        })
        .collect();
    let n_moves = moves.len();
    let cfg = ScenarioConfig::builder()
        .seed(p.seed)
        .duration(SimDuration::from_secs(DURATION_S))
        .policy(p.policy)
        .unsolicited_reports(p.unsolicited)
        .moves(moves)
        .name(format!(
            "mobility-rate-{}-dwell{}-seed{}",
            p.policy.id(),
            p.mean_dwell_s,
            p.seed
        ))
        .build();
    let r = scenario::run(&cfg);
    RunStats {
        delivery: r.received["R3"] as f64 / r.sent.max(1) as f64,
        join_delay: r.report.series.summary("join_delay").mean,
        moves: n_moves,
    }
}

pub fn run(settings: Settings) -> ExperimentOutput {
    let Settings { quick, workers, .. } = settings;
    let dwells: Vec<u64> = vec![400, 200, 100, 50];
    let seeds: Vec<u64> = if quick { vec![1, 2] } else { (1..=5).collect() };
    // (stable json key, policy, unsolicited reports)
    let variants = [
        ("wait_query", Policy::LOCAL, false),
        ("unsolicited", Policy::LOCAL, true),
        ("tunnel", Policy::BIDIRECTIONAL_TUNNEL, true),
    ];

    let mut table = Table::new(&[
        "mean dwell",
        "moves/run",
        "local (wait query)",
        "local (unsolicited)",
        "bi-dir tunnel",
    ]);
    let mut points = Vec::new();
    for &dwell in &dwells {
        let mut cells = vec![format!("{dwell}s"), String::new()];
        let mut entry = json!({ "mean_dwell_s": dwell });
        for (key, policy, unsolicited) in variants {
            let stats = run_ordered(
                seeds
                    .iter()
                    .map(|&seed| Params {
                        mean_dwell_s: dwell,
                        seed,
                        policy,
                        unsolicited,
                    })
                    .collect(),
                workers,
                one,
            );
            let delivery = stats.iter().map(|s| s.delivery).sum::<f64>() / stats.len() as f64;
            let jd = stats.iter().map(|s| s.join_delay).sum::<f64>() / stats.len() as f64;
            let moves = stats.iter().map(|s| s.moves).sum::<usize>() / stats.len().max(1);
            if cells[1].is_empty() {
                cells[1] = moves.to_string();
            }
            cells.push(format!("{:.1}% (join {})", delivery * 100.0, secs(jd)));
            entry[key] = json!({
                "delivery": delivery,
                "join_delay_s": jd,
            });
        }
        table.row(cells);
        points.push(entry);
    }

    let mut text = table.render();
    text.push_str(
        "\npaper §5, quantified: with slow movement all approaches deliver; \
         as the dwell time shrinks, plain local membership degrades (every \
         move waits for a Query), the paper's unsolicited-Report fix keeps \
         local membership competitive, and the bi-directional tunnel's \
         near-zero join delay makes it the most robust for highly mobile \
         receivers — at the tunnel costs measured in table1/fig3.\n",
    );

    ExperimentOutput {
        id: "mobility_rate",
        title: "Approach robustness vs receiver mobility rate (paper §5)".into(),
        json: json!({ "points": points }),
        text,
    }
}
