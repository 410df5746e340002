//! Metro-sized stress specs.

use crate::strategy::Policy;
use crate::stress::StressSpec;
use mobicast_sim::SimDuration;

/// A metro-scale stress spec: `NetworkSpec::metro(n_routers)` with
/// `receivers` roaming receivers, ready for [`crate::stress::run_stress_with`].
pub fn metro_spec(n_routers: usize, receivers: usize, seed: u64) -> StressSpec {
    let topology = crate::builder::NetworkSpec::metro(n_routers);
    StressSpec {
        name: format!(
            "metro{}x{}/local/seed{seed}",
            topology.n_links,
            topology.routers.len()
        ),
        topology,
        policy: Policy::LOCAL,
        seed,
        duration: SimDuration::from_secs(90),
        receivers,
        movers: receivers.min(8),
        moves_per_mover: 2,
        data_interval: SimDuration::from_secs(2),
    }
}
