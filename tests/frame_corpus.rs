//! Real-frame corpus differential for the per-frame parse memo: every
//! frame a run puts on a link or hands to a receiver — clean
//! transmissions, per-receiver copies and the copies corruption mangled —
//! must read, through `core::parsed` and `netplan::hop_limit`, exactly as
//! the plain decoders read its wire. The corpus is whatever the Figure-1
//! scenario produces under every delivery policy, plus two chaos seeds
//! whose plans corrupt frames. A forwarded frame shares the arriving
//! frame's buffer and parse and patches the hop limit: its wire must be
//! the arriving wire one hop on, and a link that corrupts it must mangle
//! that wire. The same live frames also seed the wire mutators: bit flips
//! and truncations of real traffic, where the zero-copy decoders must
//! agree with the copying ones. And every one of them is its own
//! re-encoding, the premise on which a router forwards what arrived.

mod common;

use common::{assert_memo_matches_fresh_decode, assert_shared_decoders_agree, Seen};
use mobicast::core::scenario::{self, PaperHost, ScenarioConfig};
use mobicast::core::{chaos, Policy};
use mobicast::ipv6::packet::Packet;
use mobicast::ipv6::tunnel;
use mobicast::net::{ExecPlan, Frame, IfIndex, LinkId, NodeId, WorldProbe};
use mobicast::sim::{RngFactory, SimTime, Tracer};
use rand::Rng;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

/// Keeps every frame the world shows a probe: each transmission, and each
/// copy as its receiver is about to get it (damaged copies included).
#[derive(Default)]
struct Capture {
    frames: RefCell<Vec<Frame>>,
}

impl WorldProbe for Capture {
    fn on_transmit(&self, _: SimTime, _: NodeId, _: IfIndex, _: LinkId, frame: &Frame) {
        self.frames.borrow_mut().push(frame.clone());
    }
    fn on_deliver(&self, _: SimTime, _: NodeId, _: IfIndex, _: LinkId, frame: &Frame) {
        self.frames.borrow_mut().push(frame.clone());
    }
}

/// Every frame of `cfg`'s run as the library stages it — fault plan,
/// moves, storm and sampler. The world is run from here, unjudged: the
/// oracle would take the one probe slot the capture sits in.
fn corpus_of(cfg: &ScenarioConfig) -> Vec<Frame> {
    let mut staged = scenario::stage(cfg, Tracer::null()).expect("a valid scenario");
    let capture = Rc::new(Capture::default());
    let world = &mut staged.net().world;
    world.set_probe(capture.clone());
    world.run(SimTime::ZERO + cfg.duration, &ExecPlan::sequential());
    drop(staged);
    Rc::try_unwrap(capture)
        .unwrap_or_else(|_| panic!("the world kept the probe"))
        .frames
        .into_inner()
}

/// Figure 1 under `policy`, with the paper's two moves.
fn figure1(policy: Policy) -> ScenarioConfig {
    ScenarioConfig::builder()
        .seed(3)
        .duration_secs(100)
        .policy(policy)
        .move_at(30.0, PaperHost::R3, 6)
        .move_at(60.0, PaperHost::S, 6)
        .build()
}

#[test]
fn every_frame_of_every_policy_reads_as_its_bytes_decode() {
    for policy in Policy::all() {
        let cfg = figure1(policy);
        let mut seen = Seen::default();
        for frame in corpus_of(&cfg) {
            assert!(!frame.damaged, "no fault plan");
            assert_memo_matches_fresh_decode(&frame, &mut seen);
        }
        assert!(seen.frames > 1_000 && seen.data > 0, "{policy:?}: {seen:?}");
        assert_eq!(
            seen.undecodable + seen.upper_errors,
            0,
            "{policy:?}: {seen:?}"
        );
    }
}

/// A router forwards an undamaged frame as the bytes that arrived with the
/// hop limit one lower, and tunnels one as those bytes behind an outer
/// header, instead of re-encoding what it parsed. That is byte-identical
/// only if every frame is a fixed point of decode-then-encode, at every
/// tunnel level: `Packet::decode(b)?.encode() == b`.
#[test]
fn every_frame_of_every_policy_is_its_own_reencoding() {
    for policy in Policy::all() {
        let mut frames = 0u64;
        for frame in corpus_of(&figure1(policy)) {
            assert!(!frame.damaged, "no fault plan");
            let mut wire = frame.wire();
            loop {
                let packet = Packet::decode(&wire).expect("an undamaged frame decodes");
                assert_eq!(packet.encode(), wire, "{policy:?}: not its own encoding");
                if !tunnel::is_tunnel(&packet) {
                    break;
                }
                wire = packet.payload;
            }
            frames += 1;
        }
        assert!(frames > 1_000, "{policy:?}: {frames} frames");
    }
}

/// Every forwarded frame's wire is what a router used to build by copying
/// the arriving wire and lowering its hop limit (byte 7): the wire of a
/// frame heard over the same buffer, one hop earlier, with byte 7 one
/// lower.
#[test]
fn every_forwarded_wire_is_the_arriving_wire_one_hop_on() {
    for policy in Policy::all() {
        let frames = corpus_of(&figure1(policy));
        let buffer = |f: &Frame| (f.buffer().as_ptr() as usize, f.len());
        let mut heard = HashMap::new();
        for frame in &frames {
            let wire = frame.wire();
            heard.entry((buffer(frame), wire[7])).or_insert(wire);
        }
        let mut forwarded = 0u64;
        for frame in frames.iter().filter(|f| f.patch().is_some()) {
            assert_eq!(frame.patch().map(|(at, _)| at), Some(7), "{policy:?}");
            let wire = frame.wire();
            let arrived = &heard[&(buffer(frame), wire[7] + 1)];
            let mut old = arrived.to_vec();
            old[7] -= 1;
            assert_eq!(wire.as_ref(), old.as_slice(), "{policy:?}");
            forwarded += 1;
        }
        assert!(
            forwarded > 1_000,
            "{policy:?}: {forwarded} forwarded frames"
        );
    }
}

/// Is `copy` `from` with one bit flipped, or cut short?
fn mangled_from(copy: &[u8], from: &[u8]) -> bool {
    let bits = |a: &[u8]| {
        a.iter()
            .zip(from)
            .map(|(x, y)| (x ^ y).count_ones())
            .sum::<u32>()
    };
    let flipped = copy.len() == from.len() && bits(copy) == 1;
    flipped || (copy.len() < from.len() && from.starts_with(copy))
}

#[test]
fn corrupted_copies_read_as_their_own_bytes_decode() {
    let corrupting = (0u64..)
        .filter(|s| {
            !chaos::plan_for_seed(*s)
                .fault_plan()
                .link
                .corruption
                .is_none()
        })
        .take(2);
    let mut seen = Seen::default();
    let (mut damaged, mut from_wire, mut from_buffer) = (0u64, 0u64, 0u64);
    for seed in corrupting {
        let cfg = chaos::plan_for_seed(seed).config(Policy::BIDIRECTIONAL_TUNNEL, seed);
        let frames = corpus_of(&cfg);
        // Forwarded data transmissions by tag: a damaged copy keeps it.
        let sent: HashMap<u64, &Frame> = frames
            .iter()
            .filter(|f| f.tag != 0 && !f.damaged && f.patch().is_some())
            .map(|f| (f.tag, f))
            .collect();
        for frame in &frames {
            damaged += u64::from(frame.damaged);
            assert_memo_matches_fresh_decode(frame, &mut seen);
            if let Some(sent) = sent.get(&frame.tag).filter(|_| frame.damaged) {
                let wire = mangled_from(frame.buffer(), &sent.wire());
                from_wire += u64::from(wire);
                from_buffer += u64::from(!wire && mangled_from(frame.buffer(), sent.buffer()));
            }
        }
    }
    // A forwarded copy is corrupted from its wire, not from the buffer it
    // shares with the frame it was forwarded from.
    assert!(
        from_wire > 0 && from_buffer == 0,
        "{from_wire} {from_buffer}"
    );
    // The corpus reached the error side of every accessor.
    assert!(damaged > 0, "{seen:?}");
    assert!(seen.undecodable > 0 && seen.upper_errors > 0, "{seen:?}");
    assert!(seen.tunnels > 0 && seen.signalling > 0, "{seen:?}");
}

/// The wire mutators seeded with the live corpus: every distinct frame of
/// Figure 1 under every policy, intact, with one bit flipped at each of 8
/// seeded offsets and cut at each of 4. Copying and zero-copy decoders
/// agree at every tunnel level, and nothing panics.
#[test]
fn live_frames_and_their_mutants_decode_alike() {
    let mut distinct = HashSet::new();
    let corpus: Vec<Frame> = Policy::all()
        .into_iter()
        .flat_map(|policy| corpus_of(&figure1(policy)))
        .filter(|frame| distinct.insert(frame.wire()))
        .collect();
    let mut rng = RngFactory::new(3).stream("wire-mutants");
    let mut mutants = 0u64;
    for frame in &corpus {
        let bytes = &frame.wire();
        assert_shared_decoders_agree(bytes);
        for _ in 0..8 {
            let bit = rng.random_range(0..bytes.len() * 8);
            let mut flipped = bytes.to_vec();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_shared_decoders_agree(&flipped);
        }
        for _ in 0..4 {
            assert_shared_decoders_agree(&bytes[..rng.random_range(0..bytes.len())]);
        }
        mutants += 12;
    }
    eprintln!("{} distinct live frames, {mutants} mutants", corpus.len());
    // 2 035 frames and 24 420 mutants when written.
    assert!(corpus.len() >= 1_500, "{} distinct frames", corpus.len());
    assert!(mutants >= 18_000, "{mutants} mutants");
}
