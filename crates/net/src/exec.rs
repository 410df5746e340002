//! Execution configuration for [`World::run`](crate::World::run).
//!
//! Callers describe *how* to execute ([`ExecutorConfig`]: sequential or
//! sharded), resolve it against a topology into an [`ExecPlan`], and get
//! back a [`RunStats`]. Every plan runs the same single-threaded dispatch
//! loop in the same `(time, seq)` order, so traces, reports, oracle
//! verdicts and observability artifacts are byte-identical across plans;
//! a sharded plan additionally reports the conservative-window schedule a
//! parallel executor could achieve ([`ShardRunStats`]). Concurrency lives
//! one level up, in `mobicast_sim::parallel`, which fans whole runs across
//! cores.

use crate::world::{ShardPlan, ShardRunStats};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A validating description of how to execute a run.
///
/// Build with [`ExecutorConfig::sequential`] or [`ExecutorConfig::sharded`],
/// then resolve against a topology with [`plan`](ExecutorConfig::plan) (or
/// check standalone with [`validate`](ExecutorConfig::validate)).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecutorConfig {
    /// Number of topology shards; `None` = plain sequential loop.
    shards: Option<usize>,
    /// Inert worker label, see [`threads`](ExecutorConfig::threads).
    workers: usize,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig::sequential()
    }
}

impl ExecutorConfig {
    /// The plain sequential event loop.
    pub fn sequential() -> ExecutorConfig {
        ExecutorConfig {
            shards: None,
            workers: 1,
        }
    }

    /// The same loop, accounting conservative lookahead windows over
    /// `shards` topology regions.
    pub fn sharded(shards: usize) -> ExecutorConfig {
        ExecutorConfig {
            shards: Some(shards),
            workers: 1,
        }
    }

    /// Inert: a validated label copied into [`ShardRunStats::workers`].
    /// Execution is always on the calling thread; the threaded backend
    /// this once selected was cut (DESIGN.md, "Threaded dispatch: decision
    /// record"). Kept only because the frozen `benchmark/` package calls it.
    pub fn threads(mut self, workers: usize) -> ExecutorConfig {
        self.workers = workers;
        self
    }

    /// Shard count, if sharded.
    pub fn shards(&self) -> Option<usize> {
        self.shards
    }

    /// Configured worker label.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Check the configuration without resolving a topology.
    pub fn validate(&self) -> Result<(), ExecError> {
        let workers = self.workers;
        if workers == 0 {
            return Err(ExecError::ZeroWorkers);
        }
        match self.shards {
            None => {
                if workers > 1 {
                    return Err(ExecError::SequentialWithThreads { workers });
                }
            }
            Some(0) => return Err(ExecError::ZeroShards),
            Some(shards) => {
                if workers > shards {
                    return Err(ExecError::MoreWorkersThanShards { workers, shards });
                }
            }
        }
        Ok(())
    }

    /// Validate and resolve into an [`ExecPlan`], building the topology
    /// shard map through `make_plan` (called with the shard count only for
    /// sharded configs).
    pub fn plan(&self, make_plan: impl FnOnce(usize) -> ShardPlan) -> Result<ExecPlan, ExecError> {
        self.validate()?;
        Ok(match self.shards {
            None => ExecPlan::Sequential,
            Some(shards) => ExecPlan::Sharded {
                plan: make_plan(shards),
                workers: self.workers,
            },
        })
    }
}

/// A resolved execution plan: the executor config bound to a topology.
#[derive(Clone, Debug)]
pub enum ExecPlan {
    /// Plain sequential event loop.
    Sequential,
    /// Conservative-window sharded execution.
    Sharded {
        plan: ShardPlan,
        /// Inert label, see [`ExecutorConfig::threads`].
        workers: usize,
    },
}

impl ExecPlan {
    pub fn sequential() -> ExecPlan {
        ExecPlan::Sequential
    }

    pub fn sharded(plan: ShardPlan, workers: usize) -> ExecPlan {
        ExecPlan::Sharded { plan, workers }
    }
}

/// What one [`World::run`](crate::World::run) did.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RunStats {
    /// Events dispatched by this run (delta, not the world lifetime total).
    pub events_executed: u64,
    /// Present when the run executed under [`ExecPlan::Sharded`].
    pub sharded: Option<ShardRunStats>,
}

/// An invalid [`ExecutorConfig`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    ZeroWorkers,
    ZeroShards,
    SequentialWithThreads { workers: usize },
    MoreWorkersThanShards { workers: usize, shards: usize },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::ZeroWorkers => write!(f, "executor needs at least one worker"),
            ExecError::ZeroShards => write!(f, "sharded executor needs at least one shard"),
            ExecError::SequentialWithThreads { workers } => write!(
                f,
                "sequential executor cannot take {workers} workers (shard the world first)"
            ),
            ExecError::MoreWorkersThanShards { workers, shards } => write!(
                f,
                "{workers} workers cannot be fed by {shards} shards (workers must be <= shards)"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

#[cfg(test)]
mod tests {
    use super::*;
    use mobicast_sim::SimDuration;

    fn plan2() -> ShardPlan {
        ShardPlan::new(vec![0, 1], SimDuration::from_micros(10))
    }

    #[test]
    fn sequential_is_default_and_valid() {
        assert_eq!(ExecutorConfig::default(), ExecutorConfig::sequential());
        assert!(ExecutorConfig::sequential().validate().is_ok());
        assert!(matches!(
            ExecutorConfig::sequential().plan(|_| unreachable!()),
            Ok(ExecPlan::Sequential)
        ));
    }

    #[test]
    fn rejects_zero_and_oversubscribed() {
        assert_eq!(
            ExecutorConfig::sharded(4).threads(0).validate(),
            Err(ExecError::ZeroWorkers)
        );
        assert_eq!(
            ExecutorConfig::sharded(0).validate(),
            Err(ExecError::ZeroShards)
        );
        assert_eq!(
            ExecutorConfig::sequential().threads(2).validate(),
            Err(ExecError::SequentialWithThreads { workers: 2 })
        );
        assert_eq!(
            ExecutorConfig::sharded(2).threads(4).validate(),
            Err(ExecError::MoreWorkersThanShards {
                workers: 4,
                shards: 2
            })
        );
    }

    #[test]
    fn resolves_sharded_plan() {
        let plan = ExecutorConfig::sharded(2).threads(2).plan(|s| {
            assert_eq!(s, 2);
            plan2()
        });
        match plan {
            Ok(ExecPlan::Sharded { plan, workers }) => {
                assert_eq!(workers, 2);
                assert_eq!(plan.n_shards(), 2);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn errors_render() {
        for e in [
            ExecError::ZeroWorkers,
            ExecError::ZeroShards,
            ExecError::SequentialWithThreads { workers: 2 },
            ExecError::MoreWorkersThanShards {
                workers: 4,
                shards: 2,
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
