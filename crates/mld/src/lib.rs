//! # mobicast-mld
//!
//! Multicast Listener Discovery (RFC 2710) as sans-IO state machines:
//! a [`host::MldHostPort`] per host interface and a
//! [`router::MldRouterPort`] per router interface. The owner (the node
//! glue in `mobicast-core`) feeds messages and clock deadlines in and
//! transmits the returned messages; no I/O happens here, which is what
//! makes every protocol rule unit-testable.
//!
//! The timer profile ([`config::MldConfig`]) is the paper's §4.4 tuning
//! knob: the default 125 s Query Interval yields the 260 s Multicast
//! Listener Interval the paper criticizes; shrinking it shortens the join
//! and leave delays of mobile receivers proportionally.

pub mod config;
pub mod host;
pub mod message;
pub mod router;

#[cfg(test)]
mod link_choreography;

pub use config::MldConfig;
pub use host::MldHostPort;
pub use message::MldMessage;
pub use router::{MldNote, MldRouterPort, RouterOutput};
