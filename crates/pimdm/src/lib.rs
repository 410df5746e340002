//! # mobicast-pimdm
//!
//! Protocol Independent Multicast — Dense Mode (draft-ietf-pim-v2-dm-03) as
//! a sans-IO router state machine. One [`PimRouter`] instance per simulated
//! router; the node glue feeds in data-arrival notifications, control
//! messages, MLD membership changes and deadlines, and transmits the
//! returned [`PimSend`] control messages.
//!
//! The machine implements the full dense-mode behaviour the paper analyses:
//! flood-and-prune with the `T_PruneDel` join-override window, graft /
//! graft-ack with retransmission, assert election of a single forwarder per
//! LAN, data-timeout expiry of (S,G) state (the stale trees a mobile sender
//! leaves behind), and hello-based neighbor liveness.

pub mod config;
mod error;
pub mod message;
pub mod router;
pub mod table;

#[cfg(test)]
mod chain_choreography;
#[cfg(test)]
mod tests;

pub use config::PimConfig;
pub use message::{PimMessage, Sg};
pub use router::{IfIndex, PimDest, PimNote, PimRouter, PimSend, RpfInfo, RpfLookup, SgSnapshot};
pub use table::SgTable;
