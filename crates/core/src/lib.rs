//! # mobicast-core
//!
//! The paper's contribution, executable: the four multicast delivery
//! strategies for Mobile IPv6 hosts in a PIM-DM network (Table 1 of
//! *"Interoperation of Mobile IPv6 and Protocol Independent Multicast
//! Dense Mode"*, ICPP 2000), composed from the protocol state machines of
//! the sibling crates and measured with the criteria of the paper's
//! Section 4.3: join delay, leave delay, protocol overhead, bandwidth
//! consumption, routing optimality, and system load.
//!
//! * [`strategy`] — the delivery policies as a table of [`Policy`] values:
//!   the paper's four Table-1 approaches and the hierarchical proxy.
//! * [`router_node`] / [`host_node`] — composed nodes: IPv6 forwarding,
//!   MLD, PIM-DM, home agent / mobile node, applications.
//! * [`builder`] — network assembly; [`builder::NetworkSpec::reference`]
//!   is the paper's Figure-1 topology.
//! * [`mod@run`] — the staged pipeline every run goes through: stage → run →
//!   a front-end's finish.
//! * [`scenario`] — configured runs of the reference network.
//! * [`analysis`] — ground-truth evaluation (wasted bytes, stretch,
//!   leave delays, delivery paths).
//! * [`recorder`] — run-time event capture feeding the analysis.
//! * [`explain`] — packet-journey explainer over the provenance chains.
//! * [`observability`] — handoff span dashboard join and the Perfetto /
//!   OpenMetrics exports.
//! * [`sweep`] — deterministic parallel parameter grids.
//! * [`report`] — text tables and JSON output for the `mobicast` CLI.

pub mod addressing;
pub mod analysis;
pub mod builder;
pub mod chaos;
pub mod experiments;
pub mod explain;
pub mod host_node;
pub mod mobility;
pub mod netplan;
mod node_kit;
pub mod observability;
pub mod oracle;
pub mod parsed;
pub mod recorder;
pub mod report;
#[cfg(test)]
mod route_reference;
pub mod router_node;
pub mod run;
pub mod scale;
pub mod scenario;
pub mod strategy;
pub mod stress;
pub mod sweep;

pub use analysis::{Analysis, RunReport};
pub use builder::{build, BuiltNetwork, HostSpec, MapDomain, NetworkSpec};
pub use explain::{DeliveryPath, Journey, JourneyHop};
pub use host_node::{HostConfig, HostNode, SenderApp};
pub use observability::{
    handoff_rows, policy_handoff_stats, HandoffRow, PhaseBreakdown, PolicyHandoffStats,
};
pub use oracle::{Oracle, OracleSummary, PollStats};
pub use router_node::{ResourceBudget, RouterConfig, RouterNode};
pub use scenario::{
    run, run_with_recorder, Move, PaperHost, ScenarioBuilder, ScenarioConfig, ScenarioResult,
};
pub use strategy::{Policy, RecvPath, SendPath};
