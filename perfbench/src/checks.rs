//! Correctness checks. Any failed check fails the run: the runner
//! prints `"correct": false` and exits nonzero.

use rdbp_model::{RunReport, WorkCounters};

/// The checks of a run that failed.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    /// Whether every check passed.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// Descriptions of the failed checks.
    #[must_use]
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Records a check; `describe` explains a failure.
    pub fn require(&mut self, holds: bool, describe: impl FnOnce() -> String) {
        if !holds {
            self.failures.push(describe());
        }
    }

    /// No step exceeded the algorithm's load bound.
    pub fn no_capacity_violations(&mut self, what: &str, report: &RunReport) {
        self.require(report.capacity_violations == 0, || {
            format!("{what}: {} capacity violations", report.capacity_violations)
        });
    }

    /// A wire session's final report matches the in-process replay of
    /// the same trace and seed: same steps, same ledger.
    pub fn same_ledger(&mut self, what: &str, wire: &RunReport, expected: &RunReport) {
        self.require(
            wire.steps == expected.steps && wire.ledger == expected.ledger,
            || {
                format!(
                    "{what}: ledger {:?} over {} steps differs from the in-process replay's \
                     {:?} over {} steps",
                    wire.ledger, wire.steps, expected.ledger, expected.steps
                )
            },
        );
    }

    /// The oracle's certificate is ordered: `LB ≤ UB`, both finite.
    pub fn certificate(&mut self, what: &str, lb: f64, ub: f64) {
        self.require(lb.is_finite() && ub.is_finite() && lb <= ub, || {
            format!("{what}: certificate inverted or not finite (LB {lb} > UB {ub})")
        });
    }

    /// Two counter sets that must be bit-identical (repeats of the same
    /// work, or the same work on two rungs of the ladder).
    pub fn same_counters(&mut self, what: &str, a: &WorkCounters, b: &WorkCounters) {
        self.require(a == b, || {
            let drift: Vec<String> = a
                .named()
                .iter()
                .zip(b.named())
                .filter(|((_, x), (_, y))| x != y)
                .map(|((name, x), (_, y))| format!("{name} {x} vs {y}"))
                .collect();
            format!("{what}: counters drifted: {}", drift.join(", "))
        });
    }

    /// Folds `other`'s checks into this set.
    pub fn absorb(&mut self, other: Checks) {
        self.failures.extend(other.failures);
    }
}
