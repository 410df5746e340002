//! Packet-journey explainer CLI: re-runs the deterministic handoff
//! scenario (Receiver 3 roams to Link 6 under the bidirectional-tunnel
//! approach), then prints the full causal path of one packet — every
//! emission from the origin to each delivery, wasted flood copies, and
//! the protocol/fault trace events inside the packet's live window.
//!
//! Usage:
//! ```text
//! mobicast explain                 # explain the first delivered packet
//! mobicast explain 0x400000007     # explain packet by id (hex or decimal)
//! mobicast explain --list          # list recorded packet ids and exit
//! mobicast explain --approach <id> # rerun under another registered policy
//! ```
//!
//! Packet ids are `origin_host << 32 | sequence`, as recorded in
//! `RunReport` provenance and printed by `--list`.

use std::process::ExitCode;

use mobicast_core::scenario::{self, PaperHost, ScenarioConfig};
use mobicast_core::{explain, Policy};
use mobicast_sim::{RingBufferTracer, SimDuration};

fn scenario(policy: Policy) -> ScenarioConfig {
    // Light loss plus wire corruption, so journeys can show fault drops as
    // well as `✗ corrupted on link N` marks for frames mangled in flight.
    let mut fault = mobicast_net::FaultPlan::iid_loss(0.02);
    fault.link.corruption = mobicast_net::CorruptionModel::uniform(0.01);
    ScenarioConfig::builder()
        .duration(SimDuration::from_secs(120))
        .policy(policy)
        .move_at(40.0, PaperHost::R3, 6)
        .fault(fault)
        .name(format!("handoff-{}", policy.id()))
        .build()
}

fn parse_pkt(arg: &str) -> Option<u64> {
    if let Some(hex) = arg.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        arg.parse().ok()
    }
}

/// Explain `pkt_arg` (the first delivered packet when `None`), or with
/// `list` print every recorded packet id, of the handoff run under
/// `policy`.
pub fn main(policy: Policy, pkt_arg: Option<String>, list: bool) -> ExitCode {
    let (tracer, ring) = RingBufferTracer::new(1_000_000);
    let cfg = scenario(policy);
    let mut staged = scenario::stage(&cfg, tracer).expect("the handoff scenario stages");
    // The explainer walks the whole journal.
    staged.net().recorder.set_journal_horizon(SimDuration::MAX);
    let (_, rec) = staged.run();
    let trace = ring.drain();

    if list {
        for m in &rec.packets {
            println!(
                "{:#x}  sent {:.3}s  link {}  group {}",
                m.pkt,
                m.sent_at.as_secs_f64(),
                m.origin_link.index(),
                m.group
            );
        }
        return ExitCode::SUCCESS;
    }

    let pkt = match pkt_arg {
        Some(arg) => match parse_pkt(&arg) {
            Some(pkt) => pkt,
            None => {
                eprintln!("explain: not a packet id: {arg} (try --list)");
                return ExitCode::FAILURE;
            }
        },
        // Default: the first packet that actually reached a receiver.
        None => match rec
            .deliveries
            .first()
            .map(|d| d.pkt)
            .or_else(|| rec.packets.first().map(|m| m.pkt))
        {
            Some(pkt) => pkt,
            None => {
                eprintln!("explain: run recorded no packets");
                return ExitCode::FAILURE;
            }
        },
    };

    let journey = explain::explain(&rec, pkt);
    print!(
        "{}",
        explain::render_with_spans(&journey, Some(&trace), Some(&rec.spans))
    );
    if journey.retired_rows > 0 {
        eprintln!("explain: the run's journal is not whole");
        return ExitCode::FAILURE;
    }
    if journey.meta.is_none() && journey.copies.is_empty() {
        eprintln!("explain: packet {pkt:#x} not found in this run (try --list)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
