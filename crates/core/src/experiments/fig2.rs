//! Figure 2 / §4.3.1 — mobile receiver with local group membership.
//!
//! Receiver 3 moves from Link 4 to the pruned Link 6 and re-subscribes via
//! MLD on the foreign link. Measured: the join delay with and without the
//! paper's unsolicited-Report optimization (the paper: waiting for the
//! next Query "is far too high, especially for real-time applications"),
//! the leave delay on the abandoned Link 4 (bounded by T_MLI = 260 s),
//! and the bandwidth wasted onto Link 4 until MLD notices.

use super::{ExperimentOutput, Settings};
use crate::report::{bytes, secs, Table};
use crate::scenario::{self, PaperHost, ScenarioConfig};
use mobicast_sim::{parallel::run_ordered, SeriesSet, SimDuration};
use serde_json::json;

struct Params {
    seed: u64,
    move_at: f64,
    unsolicited: bool,
}

struct RunStats {
    unsolicited: bool,
    join_delay: Option<f64>,
    leave_delay: Option<f64>,
    wasted_l4: u64,
    grafts: u64,
    received_frac: f64,
}

fn one(p: &Params) -> RunStats {
    let cfg = ScenarioConfig::builder()
        .seed(p.seed)
        .duration(SimDuration::from_secs(620))
        .unsolicited_reports(p.unsolicited)
        .move_at(p.move_at, PaperHost::R3, 6)
        .name(format!(
            "fig2-{}-move{:.0}-seed{}",
            if p.unsolicited { "unsol" } else { "query" },
            p.move_at,
            p.seed
        ))
        .build();
    let r = scenario::run(&cfg);
    let jd = r.report.series.summary("join_delay");
    let ld = r.report.series.summary("leave_delay");
    RunStats {
        unsolicited: p.unsolicited,
        join_delay: (jd.count > 0).then_some(jd.mean),
        leave_delay: (ld.count > 0).then_some(ld.mean),
        wasted_l4: r.report.analysis.link_usage[3].wasted_bytes,
        grafts: r.report.counters.get("pim.sent.graft"),
        received_frac: r.received["R3"] as f64 / r.sent.max(1) as f64,
    }
}

pub fn run(settings: Settings) -> ExperimentOutput {
    let Settings { quick, workers, .. } = settings;
    // Spread the move time across the 125 s query cycle so the
    // wait-for-query join delay is sampled uniformly.
    let move_times: Vec<f64> = if quick {
        vec![60.0, 100.0, 140.0]
    } else {
        (0..10).map(|i| 50.0 + 12.5 * i as f64).collect()
    };
    let seeds: Vec<u64> = if quick { vec![1, 2] } else { (1..=5).collect() };
    let mut params = Vec::new();
    for unsolicited in [true, false] {
        for &seed in &seeds {
            for &move_at in &move_times {
                params.push(Params {
                    seed,
                    move_at,
                    unsolicited,
                });
            }
        }
    }
    let stats = run_ordered(params, workers, one);

    let mut series = SeriesSet::new();
    for s in &stats {
        let tag = if s.unsolicited {
            "unsolicited"
        } else {
            "wait_query"
        };
        if let Some(j) = s.join_delay {
            series.record(&format!("join.{tag}"), j);
        }
        if let Some(l) = s.leave_delay {
            series.record(&format!("leave.{tag}"), l);
        }
        series.record(&format!("wasted.{tag}"), s.wasted_l4 as f64);
        series.record(&format!("recv.{tag}"), s.received_frac);
        series.record(&format!("grafts.{tag}"), s.grafts as f64);
    }

    let mut table = Table::new(&[
        "join mode",
        "join delay mean",
        "join delay p95",
        "leave delay mean",
        "wasted on Link4",
        "delivery",
    ]);
    for (tag, label) in [
        ("unsolicited", "unsolicited Reports (paper's advice)"),
        ("wait_query", "wait for next Query (default MLD)"),
    ] {
        let j = series.summary(&format!("join.{tag}"));
        let l = series.summary(&format!("leave.{tag}"));
        let w = series.summary(&format!("wasted.{tag}"));
        let rx = series.summary(&format!("recv.{tag}"));
        table.row(vec![
            label.into(),
            secs(j.mean),
            secs(j.p95),
            secs(l.mean),
            bytes(w.mean as u64),
            format!("{:.1}%", rx.mean * 100.0),
        ]);
    }

    let ju = series.summary("join.unsolicited");
    let jw = series.summary("join.wait_query");
    let lu = series.summary("leave.unsolicited");
    let mut text = table.render();
    text.push_str(&format!(
        "\npaper's claims checked:\n\
         * unsolicited join delay is a graft round-trip ({}), vs O(T_Query) \
         when waiting for a Query ({}; T_Query = 125 s, expectation ~62.5 s + response delay)\n\
         * leave delay approaches but never exceeds T_MLI = 260 s \
         (measured mean {}, max {})\n",
        secs(ju.mean),
        secs(jw.mean),
        secs(lu.mean),
        secs(lu.max),
    ));

    ExperimentOutput {
        id: "fig2",
        title: "Mobile receiver, local membership on foreign link".into(),
        json: json!({
            "join_delay_unsolicited_mean_s": ju.mean,
            "join_delay_wait_query_mean_s": jw.mean,
            "join_delay_wait_query_p95_s": jw.p95,
            "leave_delay_mean_s": lu.mean,
            "leave_delay_max_s": lu.max,
            "wasted_link4_bytes_mean": series.summary("wasted.unsolicited").mean,
            "runs": stats.len(),
        }),
        text,
    }
}
