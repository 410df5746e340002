//! Real-frame corpus differential for the per-frame parse memo: every
//! frame a run puts on a link or hands to a receiver — clean
//! transmissions, per-receiver copies and the copies corruption mangled —
//! must read, through `core::parsed`, exactly as the plain decoders read
//! its bytes. The corpus is whatever the Figure-1 scenario produces under
//! every delivery policy, plus two chaos seeds whose plans corrupt frames.
//! The same live frames also seed the wire mutators: bit flips and
//! truncations of real traffic, where the zero-copy decoders must agree
//! with the copying ones.

mod common;

use common::{assert_memo_matches_fresh_decode, assert_shared_decoders_agree, Seen};
use mobicast::core::scenario::{self, PaperHost, ScenarioConfig};
use mobicast::core::{chaos, Policy};
use mobicast::net::{ExecPlan, Frame, IfIndex, LinkId, NodeId, WorldProbe};
use mobicast::sim::{RngFactory, SimTime, Tracer};
use rand::Rng;
use std::cell::RefCell;
use std::collections::HashSet;
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
    let mut damaged = 0u64;
    for seed in corrupting {
        let cfg = chaos::plan_for_seed(seed).config(Policy::BIDIRECTIONAL_TUNNEL, seed);
        for frame in corpus_of(&cfg) {
            damaged += u64::from(frame.damaged);
            assert_memo_matches_fresh_decode(&frame, &mut seen);
        }
    }
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
        .filter(|frame| distinct.insert(frame.bytes().clone()))
        .collect();
    let mut rng = RngFactory::new(3).stream("wire-mutants");
    let mut mutants = 0u64;
    for frame in &corpus {
        let bytes = frame.bytes();
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
