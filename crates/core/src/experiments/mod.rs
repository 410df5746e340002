//! Experiment runners: one per table/figure of the paper (see DESIGN.md's
//! experiment index), listed once in [`REGISTRY`]. Each runner executes the
//! necessary simulations under the [`Settings`] it is handed and returns a
//! rendered report plus machine-readable JSON; the `mobicast` CLI in
//! `mobicast-bench` prints them and writes `results/<id>.json`.

pub mod adversarial;
pub mod chaos;
pub mod fault_sweep;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod handoff_latency;
pub mod mobility_rate;
pub mod overload;
pub mod sender_cost;
pub mod stress;
pub mod table1;
pub mod timer_sweep;

use crate::strategy::Policy;
use serde_json::Value;
use std::fmt;

/// How an experiment runs: the sweep size, the sweep worker count and an
/// optional pin of the policy sweeps to one delivery policy. Any worker
/// count gives the same bytes.
#[derive(Clone, Copy, Debug)]
pub struct Settings {
    /// The reduced sweep: seconds instead of minutes.
    pub quick: bool,
    /// Sweep worker threads; 1 runs every point inline.
    pub workers: usize,
    /// The one policy the policy sweeps cover; `None` covers every
    /// registered policy.
    pub approach: Option<Policy>,
}

impl Settings {
    /// Every registered policy on
    /// [`configured_workers`](mobicast_sim::parallel::configured_workers)
    /// threads.
    pub fn new(quick: bool) -> Self {
        Settings {
            quick,
            workers: mobicast_sim::parallel::configured_workers(),
            approach: None,
        }
    }

    /// The policies a policy sweep covers.
    pub fn policies(&self) -> Vec<Policy> {
        self.approach.map_or_else(Policy::all, |p| vec![p])
    }
}

/// An experiment: the id its output carries and its `results/<id>.json`
/// is named after, and its runner.
pub type Experiment = (&'static str, fn(Settings) -> ExperimentOutput);

/// Every experiment, in the order `mobicast all` runs them.
pub const REGISTRY: [Experiment; 15] = [
    ("fig1", fig1::run),
    ("fig2", fig2::run),
    ("fig3", fig3::run),
    ("fig4", fig4::run),
    ("fig5", fig5::run),
    ("table1", table1::run),
    ("timer_sweep", timer_sweep::run),
    ("sender_cost", sender_cost::run),
    ("mobility_rate", mobility_rate::run),
    ("handoff_latency", handoff_latency::run),
    ("fault_sweep", fault_sweep::run),
    ("adversarial", adversarial::run),
    ("overload", overload::run),
    ("chaos", chaos::run),
    ("stress", stress::run),
];

/// The result of one experiment.
pub struct ExperimentOutput {
    /// Stable identifier (e.g. "fig2").
    pub id: &'static str,
    pub title: String,
    /// Rendered report (tables plus commentary).
    pub text: String,
    /// Machine-readable result.
    pub json: Value,
}

impl fmt::Display for ExperimentOutput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} — {} ==", self.id, self.title)?;
        f.write_str(&self.text)
    }
}

#[cfg(test)]
mod tests {
    use super::REGISTRY;
    use std::collections::BTreeSet;

    /// Ids are distinct, and the committed `results/` holds one `<id>.json`
    /// per experiment beside what `report` and the metro stress run write.
    #[test]
    fn registry_ids_are_distinct_and_name_the_committed_results() {
        let ids: BTreeSet<String> = REGISTRY.iter().map(|(id, _)| id.to_string()).collect();
        assert_eq!(
            ids.len(),
            REGISTRY.len(),
            "an experiment id is listed twice"
        );
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        let committed: BTreeSet<String> = std::fs::read_dir(dir)
            .expect("the committed results/ directory")
            .filter_map(|entry| {
                let name = entry.ok()?.file_name().into_string().ok()?;
                let id = name.strip_suffix(".json")?;
                (!id.starts_with("report-") && id != "stress_metro").then(|| id.to_owned())
            })
            .collect();
        assert_eq!(committed, ids);
    }
}
