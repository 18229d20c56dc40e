//! The [`OfflineOracle`] trait: interchangeable offline comparators.
//!
//! Every ratio experiment needs the other side of the fraction, but the
//! solvers that certify it have wildly different feasibility
//! envelopes: [`crate::dynamic_opt`] is exact and tiny (n ≤ 12), and
//! the ring-loading oracle in `rdbp_ringload` scales to tens of
//! thousands of processes. The trait makes them interchangeable behind
//! one surface so the sim binary, the engine registry and the `exp_*`
//! sweeps can swap comparators with a flag (DESIGN.md §13).
//!
//! [`crate::interval_opt`] is deliberately not an oracle: its `OPT_R`
//! bounds the optimum only up to the constant of Lemma 3.3 and can
//! exceed it, so the F3, A1 and F6 sweeps call it directly and label
//! their columns `cost/OPT_R`.
//!
//! ## Tolerance contract
//!
//! * [`OfflineOracle::lower_bound`] must return a **certified lower
//!   bound** on the cost (communication + migrations) of *any* offline
//!   schedule that respects capacity `k`, starting from `initial`.
//!   `0.0` is always sound, and is what oracles return outside their
//!   feasible envelope.
//! * [`OfflineOracle::upper_bound`] returns the cost of an explicit
//!   feasible schedule (an upper bound on the optimum), or `None`
//!   outside the oracle's envelope.
//!
//! So for every oracle and instance:
//! `lower_bound ≤ OPT ≤ upper_bound` (when the latter is `Some`), and
//! `tests/ringload_oracle.rs` machine-checks the sandwich for every
//! registered oracle against [`crate::dynamic_opt`] wherever the exact
//! solver is feasible.

use rdbp_model::{Edge, Placement, RingInstance, WorkCounters};
use serde::{Deserialize, Serialize};

use crate::dynamic_opt;

/// An interchangeable offline comparator for ratio experiments.
///
/// Methods take `&mut self` so implementations can keep deterministic
/// work counters (surfaced via [`OfflineOracle::work_counters`] and
/// merged into the perf-gate ledger by callers).
pub trait OfflineOracle {
    /// Stable oracle name (doubles as the registry key).
    fn name(&self) -> &'static str;

    /// Whether the oracle's certified envelope covers `instance`.
    /// Outside it, `lower_bound` degrades to a trivial bound and
    /// `upper_bound` returns `None`.
    fn supports(&self, instance: &RingInstance) -> bool {
        let _ = instance;
        true
    }

    /// A certified lower bound on the optimal offline cost for `trace`
    /// (see the module docs for the exact contract).
    fn lower_bound(&mut self, instance: &RingInstance, initial: &Placement, trace: &[Edge]) -> f64;

    /// The cost of an explicit feasible offline schedule — a certified
    /// upper bound on the optimum — or `None` outside the envelope.
    fn upper_bound(
        &mut self,
        instance: &RingInstance,
        initial: &Placement,
        trace: &[Edge],
    ) -> Option<f64>;

    /// The deterministic work this oracle performed so far (the
    /// `oracle_*` metrics of [`WorkCounters`]); zero for the exact
    /// solvers, which are gated on wall-clock-irrelevant sizes.
    fn work_counters(&self) -> WorkCounters {
        WorkCounters::default()
    }
}

/// The exact brute-force dynamic optimum ([`dynamic_opt`]) as an
/// oracle. Both bounds are `OPT` inside its envelope (`n ≤ 12`,
/// `ℓ ≤ 5`); outside it the lower bound degrades to the trivial `0`
/// and there is no upper bound.
///
/// It remembers the last inputs it solved and their `OPT`, so asking
/// for both bounds on one run solves the DP once.
#[derive(Debug, Clone, Default)]
pub struct ExactDynamicOracle {
    last: Option<Solved>,
}

/// One input [`ExactDynamicOracle`] solved, and its optimum.
#[derive(Debug, Clone)]
struct Solved {
    instance: RingInstance,
    initial: Placement,
    trace: Vec<Edge>,
    opt: u64,
}

impl ExactDynamicOracle {
    /// [`dynamic_opt`] on these inputs, reused if they are the last
    /// ones solved.
    fn opt(&mut self, instance: &RingInstance, initial: &Placement, trace: &[Edge]) -> u64 {
        if let Some(last) = &self.last {
            if last.instance == *instance && last.initial == *initial && last.trace == trace {
                return last.opt;
            }
        }
        let opt = dynamic_opt(instance, initial, trace);
        self.last = Some(Solved {
            instance: *instance,
            initial: initial.clone(),
            trace: trace.to_vec(),
            opt,
        });
        opt
    }
}

impl OfflineOracle for ExactDynamicOracle {
    fn name(&self) -> &'static str {
        "exact"
    }

    fn supports(&self, instance: &RingInstance) -> bool {
        instance.n() <= 12 && instance.servers() <= 5
    }

    fn lower_bound(&mut self, instance: &RingInstance, initial: &Placement, trace: &[Edge]) -> f64 {
        if self.supports(instance) {
            self.opt(instance, initial, trace) as f64
        } else {
            0.0
        }
    }

    fn upper_bound(
        &mut self,
        instance: &RingInstance,
        initial: &Placement,
        trace: &[Edge],
    ) -> Option<f64> {
        self.supports(instance)
            .then(|| self.opt(instance, initial, trace) as f64)
    }
}

/// One oracle evaluation against an observed run, ready for reporting.
///
/// Deliberately *not* part of [`rdbp_model::RunReport`]: the run report
/// derives `Eq` and is pinned byte-for-byte by the snapshot/wire tests,
/// while oracle bounds are `f64`s computed after the run. The sim
/// binary composes the two side by side instead
/// (`{"report": …, "oracle": …}`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OracleReport {
    /// Name of the oracle that produced the bounds.
    pub oracle: String,
    /// The observed online cost (communication + migrations).
    pub cost: u64,
    /// The oracle's certified lower bound.
    pub lower_bound: f64,
    /// The oracle's certified upper bound on the optimum, if it
    /// produced one.
    pub upper_bound: Option<f64>,
    /// `cost / max(lower_bound, 1)` — an upper bound on the true
    /// competitive ratio of this run — or `None` when the lower bound
    /// is 0, which certifies no ratio at all.
    pub ratio: Option<f64>,
}

impl OracleReport {
    /// Builds a report, deriving the ratio: none for a zero lower
    /// bound, and with the `max(·, 1)` guard otherwise (a fractional
    /// bound below 1 must not inflate it).
    #[must_use]
    pub fn new(
        oracle: impl Into<String>,
        cost: u64,
        lower_bound: f64,
        upper_bound: Option<f64>,
    ) -> Self {
        Self {
            oracle: oracle.into(),
            cost,
            lower_bound,
            upper_bound,
            ratio: (lower_bound > 0.0).then(|| cost as f64 / lower_bound.max(1.0)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_trace(instance: &RingInstance) -> Vec<Edge> {
        (0..40u64).map(|i| instance.edge(i * 3 + 1)).collect()
    }

    #[test]
    fn exact_oracle_is_its_own_sandwich() {
        let inst = RingInstance::packed(2, 4);
        let initial = Placement::contiguous(&inst);
        let trace = tiny_trace(&inst);
        let mut oracle = ExactDynamicOracle::default();
        assert!(oracle.supports(&inst));
        let lb = oracle.lower_bound(&inst, &initial, &trace);
        let ub = oracle.upper_bound(&inst, &initial, &trace).unwrap();
        let opt = dynamic_opt(&inst, &initial, &trace) as f64;
        assert_eq!(lb, opt);
        assert_eq!(ub, opt);
    }

    #[test]
    fn exact_oracle_reuses_a_solve_only_for_the_same_inputs() {
        let inst = RingInstance::packed(2, 4);
        let initial = Placement::contiguous(&inst);
        let moved = Placement::from_assignment(&inst, vec![1, 0, 0, 0, 1, 1, 1, 0]);
        let trace = tiny_trace(&inst);
        let other: Vec<Edge> = (0..40u64).map(|i| inst.edge(i * 5 + 2)).collect();
        let mut oracle = ExactDynamicOracle::default();
        for (start, requests) in [
            (&initial, &trace),
            (&initial, &other),
            (&moved, &other),
            (&initial, &trace),
        ] {
            let opt = dynamic_opt(&inst, start, requests) as f64;
            assert_eq!(oracle.lower_bound(&inst, start, requests), opt);
            assert_eq!(oracle.upper_bound(&inst, start, requests), Some(opt));
        }
        // The same assignment and trace with room to spare on a
        // server: one migration instead of two uncuts the hot edge.
        let hot = vec![inst.edge(3); 40];
        assert_eq!(oracle.lower_bound(&inst, &initial, &hot), 3.0);
        let wider = RingInstance::new(8, 2, 5);
        let start = Placement::from_assignment(&wider, initial.assignment().to_vec());
        assert_eq!(oracle.upper_bound(&wider, &start, &hot), Some(2.0));
    }

    #[test]
    fn exact_oracle_degrades_gracefully_outside_its_envelope() {
        let inst = RingInstance::packed(8, 32);
        let initial = Placement::contiguous(&inst);
        let trace = tiny_trace(&inst);
        let mut oracle = ExactDynamicOracle::default();
        assert!(!oracle.supports(&inst));
        assert_eq!(oracle.lower_bound(&inst, &initial, &trace), 0.0);
        assert_eq!(oracle.upper_bound(&inst, &initial, &trace), None);
    }

    #[test]
    fn oracle_report_guards_the_ratio_and_round_trips() {
        let r = OracleReport::new("ringload", 120, 40.0, Some(90.0));
        assert_eq!(r.ratio, Some(3.0));
        let zero = OracleReport::new("ringload", 7, 0.0, None);
        assert_eq!(zero.ratio, None, "a zero LB certifies no ratio");
        for report in [&r, &zero] {
            let back = OracleReport::from_value(&report.to_value()).unwrap();
            assert_eq!(&back, report);
        }
    }
}
