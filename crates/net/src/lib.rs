//! # mobicast-net
//!
//! The network substrate of the `mobicast` simulator: a payload-agnostic
//! world of nodes and multi-access links driven by the deterministic event
//! kernel from `mobicast-sim`.
//!
//! * [`world`] — the event loop, node behaviors, timers, host mobility.
//! * [`link`] — the broadcast link model with per-class byte accounting.
//! * [`frame`] — frames and accounting classes.
//! * [`graph`] — shortest-path routing over the router/link graph (the
//!   unicast substrate PIM-DM's RPF checks are derived from).
//! * [`fault`] — deterministic fault injection: loss models (i.i.d. and
//!   Gilbert–Elliott bursts), delay jitter, link flaps, router crashes.
//! * [`ids`] — identifier newtypes.

pub mod exec;
pub mod fault;
pub mod frame;
pub mod graph;
pub mod ids;
pub mod link;
pub mod world;

pub use exec::{ExecError, ExecPlan, ExecutorConfig, RunStats};
pub use fault::{
    CorruptionKind, CorruptionModel, FaultPlan, FaultWindow, LinkFault, LinkFaultState, LinkFlap,
    LossModel, RouterCrash, StormModel, CORRUPTION_KIND_COUNT,
};
pub use frame::{Frame, FrameClass, L2Dest, FRAME_CLASS_COUNT};
pub use graph::{LinkGraph, Route};
pub use ids::{IfIndex, LinkId, NodeId, TimerKey};
pub use link::{Link, LinkParams, LinkStats};
pub use world::{Ctx, NodeBehavior, ShardPlan, ShardRunStats, World, WorldProbe};
