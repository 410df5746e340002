//! # mobicast-mipv6
//!
//! Mobile IPv6 (draft-ietf-mobileip-ipv6-10 subset) as sans-IO state
//! machines: the mobile node ([`MobileNode`]: RA-driven movement detection,
//! stateless care-of address configuration, Binding Updates with refresh)
//! and the home agent ([`HomeAgent`]: binding cache, interception of
//! home-addressed traffic, multicast proxy membership driven by the paper's
//! proposed **Multicast Group List Sub-Option**).
//!
//! Packet construction helpers live in [`packets`]; actual transmission is
//! the job of the node glue in `mobicast-core`. Both machines are specified
//! once, as tables (`spec.rs`, test-only).

pub mod binding;
pub mod home_agent;
pub mod mobile;
pub mod packets;

pub use binding::{BindingCache, BindingView, CacheDelta};
pub use home_agent::{HaNote, HaOutput, HomeAgent};
pub use mobile::{BuSend, MobileNode, DEFAULT_BINDING_LIFETIME};

#[cfg(test)]
mod spec;
