//! Quickstart: build the paper's reference network, stream multicast from
//! Sender S, move Receiver 3 to a pruned link, and watch the protocols
//! (MLD report → PIM graft) reconnect it.
//!
//! Run with: `cargo run --example quickstart`

use mobicast::core::scenario::{self, PaperHost, ScenarioConfig};
use mobicast::core::strategy::Policy;
use mobicast::sim::{RingBufferTracer, SimDuration, TraceCategory};

fn main() {
    // Capture the run's trace; the interesting protocol activity is
    // printed once the run is over.
    let (tracer, ring) = RingBufferTracer::new(1_000_000);

    // Receiver 3 moves from its home Link 4 to the pruned Link 6 at
    // t = 60 s (the paper's Figure 2 scenario).
    let cfg = ScenarioConfig::builder()
        .duration(SimDuration::from_secs(180))
        .policy(Policy::LOCAL)
        .move_at(60.0, PaperHost::R3, 6)
        .name("quickstart")
        .build();

    println!("running the Figure-2 handover on the reference network...\n");
    let staged = scenario::stage(&cfg, tracer).expect("the quickstart scenario stages");
    let (result, _) = staged.run();
    for event in ring.drain() {
        if matches!(
            event.category,
            TraceCategory::Mobility | TraceCategory::MobileIp | TraceCategory::App
        ) {
            println!("{event}");
        }
    }

    println!("\n--- results ---");
    println!("packets sent by S: {}", result.sent);
    for host in ["R1", "R2", "R3"] {
        println!(
            "received by {host}: {} ({:.1}%)",
            result.received[host],
            100.0 * result.received[host] as f64 / result.sent as f64
        );
    }
    let jd = result.report.series.summary("join_delay");
    println!(
        "R3 join delay after the move: {:.3} s (graft round-trip, thanks to \
         unsolicited MLD reports)",
        jd.mean
    );
    let ld = result.report.series.summary("leave_delay");
    if ld.count > 0 {
        println!(
            "leave delay on the abandoned Link 4: {:.0} s (bounded by \
             T_MLI = 260 s)",
            ld.mean
        );
    }
    println!(
        "bandwidth wasted on stale forwarding: {} bytes",
        result.report.analysis.total_wasted_bytes
    );
}
