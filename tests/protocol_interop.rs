//! Protocol-interoperation tests driving the composed nodes directly
//! on a staged network: querier election across a shared LAN, fast leave
//! via MLD Done, home-agent unicast interception, and RS-triggered router
//! advertisements.

use mobicast::core::analysis::analyze;
use mobicast::core::builder::{HostSpec, NetworkSpec};
use mobicast::core::host_node::{HostConfig, HostNode, SenderApp};
use mobicast::core::router_node::RouterConfig;
use mobicast::core::run::{self, RunOutput, RunPlan, Staged};
use mobicast::core::scenario::{self, ScenarioConfig};
use mobicast::ipv6::addr::GroupAddr;
use mobicast::net::{ExecPlan, FaultPlan};
use mobicast::sim::{SimDuration, SimTime, Tracer};

/// The reference network with a sender on Link 1 (host 0) and one
/// receiver homed on Link 4 (host 1), staged to run `secs` seconds
/// unjudged.
fn sender_and_r3(secs: u64) -> (Staged, GroupAddr) {
    let g = GroupAddr::test_group(1);
    let cfg = HostConfig::default();
    let hosts = vec![
        HostSpec {
            home_link: 0,
            cfg,
            sender: Some(SenderApp {
                group: g,
                interval: SimDuration::from_millis(250),
                payload_size: 256,
                start: SimTime::from_secs(2),
                stop: SimTime::from_secs(600),
            }),
            receiver_group: None,
        },
        HostSpec {
            home_link: 3,
            cfg,
            sender: None,
            receiver_group: Some(g),
        },
    ];
    let plan = RunPlan {
        topology: &NetworkSpec::reference(),
        hosts,
        router_cfg: RouterConfig::default(),
        seed: 42,
        duration: SimDuration::from_secs(secs),
        moves: Vec::new(),
        fault: FaultPlan::default(),
        judge: None,
    };
    (run::stage(&plan, Tracer::null()).expect("a valid plan"), g)
}

fn run(staged: Staged) -> RunOutput {
    run::run(staged, &ExecPlan::sequential())
}

#[test]
fn deliberate_leave_is_fast_via_done() {
    // A stationary receiver that *leaves* (Done) lets the router fast-leave
    // in ~2 s (last-listener queries), vs the 260 s silent-departure bound.
    let (mut staged, g) = sender_and_r3(200);
    let receiver = staged.net.hosts[1];
    staged.net.world.at(SimTime::from_secs(60), move |w| {
        w.with_node(receiver, |b, ctx| {
            b.as_any_mut()
                .downcast_mut::<HostNode>()
                .unwrap()
                .app_unsubscribe(ctx, g);
        });
    });
    let out = run(staged);
    // Traffic onto Link 4 must stop within a few seconds of the Done:
    // compute the last multicast data seen on Link 4.
    let done_sent = out.recorder.counters.get("host.mld_reports_sent");
    assert!(done_sent > 0);
    // The receiver received roughly 58s worth (2..60) of the 198s stream
    // and nothing after the leave.
    let received = out
        .net
        .world
        .behavior::<HostNode>(receiver)
        .unwrap()
        .received_count();
    let expected = 58 * 4;
    assert!(
        (received as i64 - expected).unsigned_abs() < 20,
        "received {received}, expected ~{expected}"
    );
    // Fast leave: wasted bytes on Link 4 correspond to only a couple of
    // seconds of stale traffic, far below the 260 s silent bound.
    let wasted_l4 =
        analyze(&out.recorder, &out.net.graph, out.net.links.len()).link_usage[3].wasted_bytes;
    let per_sec = 4 * (256 + 48);
    assert!(
        wasted_l4 < 10 * per_sec,
        "fast leave must stop traffic quickly, wasted {wasted_l4}"
    );
}

#[test]
fn querier_election_on_shared_lan() {
    // Links 2 and 3 host multiple routers (A,B,C and B,C,D): exactly one
    // querier should emerge per link — queries keep flowing but are not
    // triplicated.
    let out = run(sender_and_r3(300).0);
    let queries = out.recorder.counters.get("mld.sent.query");
    // 6 links; per link: startup (2 queries) + periodic at 125 s:
    // ~3-4 per link over 300 s if a single querier runs it. Routers have
    // 2-3 interfaces each; with election settled the total must be far
    // below the no-election worst case (every router querying every iface
    // forever: 12 interfaces * 4 = 48+).
    assert!(
        (15..=40).contains(&queries),
        "queries: {queries} (election should suppress duplicates)"
    );
}

#[test]
fn home_agent_intercepts_unicast_to_moved_host() {
    // Move the receiver to a foreign link; a unicast packet addressed to
    // its *home address* must be intercepted by the HA and tunneled to the
    // care-of address (checked via the HA counter).
    let (mut staged, _g) = sender_and_r3(90);
    let net = &mut staged.net;
    let receiver = net.hosts[1];
    let foreign = net.links[5];
    net.world.at(SimTime::from_secs(30), move |w| {
        w.move_iface(receiver, 0, foreign);
    });
    // Inject a unicast echo toward the home address at t=60 from the
    // sender host's link: easiest is to send from a router via a script.
    let home_addr = net
        .world
        .behavior::<HostNode>(receiver)
        .unwrap()
        .home_address();
    let router_a = net.routers[0];
    net.world.at(SimTime::from_secs(60), move |w| {
        w.with_node(router_a, |_b, ctx| {
            use bytes::Bytes;
            use mobicast::ipv6::packet::{proto, Packet};
            let p = Packet::new(
                mobicast_core::addressing::global_addr(router_a, 0, mobicast_net::LinkId(0)),
                home_addr,
                proto::UDP,
                Bytes::from_static(&[0u8; 8]),
            );
            // Send toward Link 4 (iface 1 is Link 2 for router A; use the
            // routing path by handing the frame to ourselves is complex —
            // emit directly onto Link 2 toward B, which routes to D).
            let frame = mobicast_net::Frame::unicast(
                p.encode(),
                mobicast_net::FrameClass::UnicastData,
                net_next_hop(),
            );
            ctx.send(1, frame);
        });
    });
    fn net_next_hop() -> mobicast_net::NodeId {
        mobicast_net::NodeId(1) // router B
    }
    let out = run(staged);
    assert_eq!(
        out.recorder.counters.get("ha.unicast_tunnel_encap"),
        1,
        "the home agent must intercept and tunnel the unicast packet"
    );
}

#[test]
fn router_solicitation_gets_fast_answer() {
    // Movement detection depends on the RS->RA exchange: after a move the
    // binding update must go out within ~RS + response delay + RTT, far
    // below the periodic RA interval.
    let cfg = ScenarioConfig::builder()
        .duration(SimDuration::from_secs(120))
        .policy(mobicast::core::strategy::Policy::BIDIRECTIONAL_TUNNEL)
        .move_at(60.0, mobicast::core::scenario::PaperHost::R3, 6)
        .build();
    let r = scenario::run(&cfg);
    assert!(r.report.counters.get("host.rs_sent") >= 1);
    // Join delay for the tunnel approach == movement detection + BU RTT +
    // next packet; with 500 ms packets this stays under ~1.5 s.
    let jd = r.report.series.summary("join_delay");
    assert!(jd.count >= 1);
    assert!(jd.mean < 1.5, "movement detection too slow: {}", jd.mean);
}
