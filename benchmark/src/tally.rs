//! Operations attempted and failed: the benchmark's correctness count.

use serde::{Deserialize, Serialize};

/// An operation is one scenario run or one check (see the README).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few reasons; the counts are what is reported.
    pub failures: Vec<String>,
}

impl Tally {
    /// One more operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(1, why());
        }
    }

    pub fn fail(&mut self, n: u64, why: String) {
        self.failed += n;
        self.remember(why);
    }

    fn remember(&mut self, why: String) {
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        other.failures.iter().for_each(|f| self.remember(f.clone()));
    }
}
