//! The paper's closed forms as an outside oracle: each row states a cited
//! claim as an expectation and checks it against runs of the simulator.
//! A failing row is either a simulator bug or loose prose in the claim;
//! either way it is recorded in EXPERIMENTS.md, "Closed forms as an outside
//! oracle".
//!
//! Rows:
//! * 3(d) tunnel overhead — RFC 2473 §§4–5: one level of IPv6-in-IPv6
//!   encapsulation prepends exactly one 40-byte IPv6 header, so on every
//!   link every tunnelled data frame is the native data frame plus 40 B.
//!   Nesting a tunnel packet adds the 40-byte header plus the 8-octet
//!   destination-options header carrying the Tunnel Encapsulation Limit
//!   option (§§4.1.1, 5.1): "40 B × nesting depth" holds at depth 1 only.

use mobicast::core::scenario::{self, PaperHost, ScenarioConfig};
use mobicast::core::Policy;
use mobicast::ipv6::packet::{Packet, FIXED_HEADER_LEN};
use mobicast::ipv6::tunnel::{self, TUNNEL_OVERHEAD};
use mobicast::net::{ExecPlan, Frame, FrameClass, IfIndex, LinkId, NodeId, WorldProbe};
use mobicast::sim::{SimTime, Tracer};
use std::cell::RefCell;
use std::rc::Rc;

/// The fixed data payload every row runs with.
const PAYLOAD: usize = 512;

/// The native multicast data frame: IPv6 header, UDP header, payload.
const NATIVE: usize = FIXED_HEADER_LEN + 8 + PAYLOAD;

/// The first tunnelled frame a run puts on a link.
#[derive(Default)]
struct FirstTunnelFrame(RefCell<Option<Frame>>);

impl WorldProbe for FirstTunnelFrame {
    fn on_transmit(&self, _: SimTime, _: NodeId, _: IfIndex, _: LinkId, frame: &Frame) {
        if frame.class == FrameClass::TunnelData {
            self.0.borrow_mut().get_or_insert_with(|| frame.clone());
        }
    }
}

/// Figure 1 under `policy`, fault-free, with the paper's two moves: R3
/// and then the sender S roam to Link 6, so both the HA → MH and the
/// MH → HA tunnel carry data.
fn figure1(policy: Policy) -> ScenarioConfig {
    ScenarioConfig::builder()
        .seed(3)
        .duration_secs(100)
        .policy(policy)
        .payload_size(PAYLOAD)
        .oracle(false)
        .move_at(30.0, PaperHost::R3, 6)
        .move_at(60.0, PaperHost::S, 6)
        .build()
}

/// Run `cfg` and hand back per-link `(frames, bytes)` of tunnelled and of
/// native multicast data, plus the first tunnelled frame.
fn tunnel_accounting(cfg: &ScenarioConfig) -> (Vec<[(u64, u64); 2]>, Frame) {
    let mut staged = scenario::stage(cfg, Tracer::null()).expect("a valid scenario");
    let first = Rc::new(FirstTunnelFrame::default());
    let world = &mut staged.net().world;
    world.set_probe(first.clone());
    world.run(SimTime::ZERO + cfg.duration, &ExecPlan::sequential());
    let net = staged.net();
    let per_link = net
        .links
        .iter()
        .map(|l| {
            let stats = net.world.link_stats(*l);
            [FrameClass::TunnelData, FrameClass::MulticastData]
                .map(|c| (stats.frames[c.index()], stats.bytes[c.index()]))
        })
        .collect();
    let frame = first.0.borrow().clone().expect("a tunnelled frame");
    (per_link, frame)
}

/// Row 3(d), depth 1: `bytes[TunnelData] == frames[TunnelData] ×
/// (native + 40)` on every link, for every tunnelling policy.
/// (`netplan::classify` counts any IPv6-in-IPv6 frame as `TunnelData`.)
#[test]
fn every_tunnelled_frame_is_the_native_frame_plus_forty_bytes() {
    for policy in [
        Policy::BIDIRECTIONAL_TUNNEL,
        Policy::TUNNEL_HA_TO_MH,
        Policy::TUNNEL_MH_TO_HA,
        Policy::HIERARCHICAL_PROXY,
    ] {
        let (per_link, _) = tunnel_accounting(&figure1(policy));
        let mut tunnelled = 0;
        for (i, [(t_frames, t_bytes), (m_frames, m_bytes)]) in per_link.into_iter().enumerate() {
            let link = i + 1;
            assert_eq!(
                m_bytes,
                m_frames * NATIVE as u64,
                "{policy:?} Link {link}: a native data frame is not {NATIVE} B"
            );
            assert_eq!(
                t_bytes,
                t_frames * (NATIVE + TUNNEL_OVERHEAD) as u64,
                "{policy:?} Link {link}: {t_frames} tunnelled frames, {t_bytes} B"
            );
            tunnelled += t_frames;
        }
        assert!(
            tunnelled > 100,
            "{policy:?}: only {tunnelled} tunnelled frames"
        );
    }
}

/// Row 3(d), nesting: wrapping a live tunnel packet again with
/// `encapsulate_limited` costs 40 B plus the 8-octet destination-options
/// header with the Tunnel Encapsulation Limit option, per extra level.
#[test]
fn each_nested_tunnel_level_adds_forty_eight_bytes() {
    let (_, frame) = tunnel_accounting(&figure1(Policy::BIDIRECTIONAL_TUNNEL));
    let mut packet = Packet::decode(&frame.wire()).expect("a live tunnel frame decodes");
    assert_eq!(packet.encode().len(), NATIVE + TUNNEL_OVERHEAD, "depth 1");
    let (src, dst) = (packet.src, packet.dst);
    for depth in 2..=4 {
        packet = tunnel::encapsulate_limited(src, dst, &packet).expect("within the limit");
        assert_eq!(
            packet.encode().len(),
            NATIVE + TUNNEL_OVERHEAD + (depth - 1) * (TUNNEL_OVERHEAD + 8),
            "depth {depth}"
        );
    }
}
