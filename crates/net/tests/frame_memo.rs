//! The parse memo a frame carries, seen through the world: the receivers
//! of one transmission share it, a clone shares it, and a copy whose bytes
//! corruption replaced never does.

use bytes::Bytes;
use mobicast_net::{
    CorruptionModel, Ctx, Frame, FrameClass, IfIndex, LinkFault, LinkFaultState, LinkId,
    LinkParams, NodeBehavior, NodeId, TimerKey, World,
};
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// `(damaged, memo == bytes, where the memo lives)` per frame heard.
type Heard = Rc<RefCell<Vec<(bool, bool, usize)>>>;

/// Asks every frame it hears for its parse memo (here: a copy of the
/// bytes) and logs what it got.
struct Asker {
    heard: Heard,
    parses: Rc<Cell<u32>>,
}

impl NodeBehavior for Asker {
    fn on_start(&mut self, _: &mut Ctx<'_>) {}
    fn on_frame(&mut self, _: &mut Ctx<'_>, _: IfIndex, frame: &Frame) {
        let memo: &Vec<u8> = frame.memo(|bytes| {
            self.parses.set(self.parses.get() + 1);
            bytes.to_vec()
        });
        let own = memo.as_slice() == frame.buffer().as_ref();
        let at = memo as *const Vec<u8> as usize;
        self.heard.borrow_mut().push((frame.damaged, own, at));
    }
    fn on_timer(&mut self, _: &mut Ctx<'_>, _: TimerKey) {}
    fn on_link_change(&mut self, _: &mut Ctx<'_>, _: IfIndex, _: Option<LinkId>) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// One talker (node 0) and three `Asker`s on one link.
fn askers() -> (World, LinkId, Heard, Rc<Cell<u32>>) {
    let heard = Heard::default();
    let parses = Rc::new(Cell::new(0));
    let mut w = World::new();
    let link = w.add_link(LinkParams::default());
    for _ in 0..4 {
        let node = w.add_node(
            1,
            Box::new(Asker {
                heard: heard.clone(),
                parses: parses.clone(),
            }),
        );
        w.attach(node, 0, link);
    }
    w.start();
    (w, link, heard, parses)
}

#[test]
fn receivers_of_one_transmission_share_its_parse_memo() {
    let (mut w, _, heard, parses) = askers();
    w.with_node(NodeId(0), |_n, ctx| {
        // Not yet parsed by anyone: the first receiver does it.
        ctx.send(
            0,
            Frame::new(Bytes::from_static(b"hello"), FrameClass::Other),
        );
    });
    w.run_to_quiescence(100);
    let heard = heard.borrow();
    assert_eq!(heard.len(), 3);
    assert_eq!(parses.get(), 1, "one parse for the whole fan-out");
    assert!(heard.iter().all(|h| *h == (false, true, heard[0].2)));
}

#[test]
fn a_corrupted_copy_never_shares_the_memo_of_its_original() {
    use rand::SeedableRng;

    let (mut w, link, heard, parses) = askers();
    let fault = LinkFault {
        corruption: CorruptionModel::uniform(1.0),
        ..LinkFault::default()
    };
    let rng = rand::rngs::SmallRng::seed_from_u64(5);
    w.set_link_fault(link, Some(LinkFaultState::new(fault, rng)));
    let original = Frame::new(Bytes::from_static(b"sixteen bytes!!!"), FrameClass::Other);
    // Parsed by the sender, as an emitter reading its own frame back.
    let sent_at = original.memo(|bytes| bytes.to_vec()) as *const Vec<u8> as usize;
    for _ in 0..40 {
        let frame = original.clone();
        w.with_node(NodeId(0), |_n, ctx| {
            ctx.send(0, frame);
        });
    }
    w.run_to_quiescence(1_000);
    let heard = heard.borrow();
    let damaged = heard.iter().filter(|h| h.0).count();
    assert!(damaged > 20 && damaged < heard.len(), "every kind drawn");
    for &(damaged, own, at) in heard.iter() {
        assert!(own, "a memo describes the bytes it travels with");
        // Mangled bytes parse on their own; duplicated and replayed
        // copies are clones and read the sender's parse.
        assert_eq!(at == sent_at, !damaged);
    }
    assert_eq!(parses.get() as usize, damaged, "one parse per mangled copy");
    assert_eq!(original.memo(|_| -> Vec<u8> { unreachable!() }).len(), 16);
}
