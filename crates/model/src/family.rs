//! Related-work cost-model families layered over the standard model.
//!
//! The driver ([`crate::Driver`]) charges the *standard* ring-demand
//! costs: 1 per cut request, 1 per process move. Two adjacent models
//! from the literature reweight exactly those events without changing
//! the event stream itself:
//!
//! * **Online bisection with ring demands** (Basiak, Bienkowski &
//!   Tatarczuk): two servers (`ℓ = 2`), unit communication, and a
//!   migration cost `α ≥ 1` per moved process.
//! * **Generalized learning model** (Räcke, Schmid & Zabrodin 2024):
//!   per-pair request costs — serving a cut edge `e` costs `w(e)`
//!   instead of 1 — with unit migrations.
//!
//! [`CostModel`] captures a family as `(request weights, migration
//! weight)` and [`FamilyCostObserver`] accumulates the reweighted total
//! from the driver's per-step events, leaving the driver's own ledger
//! (and every algorithm) untouched. With all weights 1 the reweighted
//! total equals the standard ledger total exactly — the reduction the
//! property suite pins.

use crate::{Edge, Observer, StepEvent};

/// A cost-model family: how much a charged request and a migration
/// cost. The *standard* model is `CostModel::standard()` — unit
/// everything.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Per-edge request weights (`None` = all 1).
    request_weights: Option<Vec<u64>>,
    /// Cost per moved process.
    migration_weight: u64,
    /// Family name for reports.
    name: &'static str,
}

impl CostModel {
    /// The paper's standard model: every charged request costs 1, every
    /// moved process costs 1.
    #[must_use]
    pub fn standard() -> Self {
        Self {
            request_weights: None,
            migration_weight: 1,
            name: "standard",
        }
    }

    /// Online bisection with ring demands: unit communication, `alpha`
    /// per moved process (Basiak et al. study `α ≥ 1`; `alpha = 1`
    /// coincides with the standard model).
    ///
    /// # Panics
    /// Panics if `alpha == 0` — a free migration makes every ratio
    /// trivially 1.
    #[must_use]
    pub fn bisection(alpha: u64) -> Self {
        assert!(alpha >= 1, "bisection migration cost must be >= 1");
        Self {
            request_weights: None,
            migration_weight: alpha,
            name: "bisection",
        }
    }

    /// Generalized learning model: a charged request on edge `e` costs
    /// `weights[e]` (the pair's learning cost); migrations cost 1.
    ///
    /// # Panics
    /// Panics if any weight is 0 — zero-cost pairs degenerate (the
    /// adversary would request them forever for free).
    #[must_use]
    pub fn learning(weights: Vec<u64>) -> Self {
        assert!(
            weights.iter().all(|&w| w >= 1),
            "learning pair costs must be >= 1"
        );
        Self {
            request_weights: Some(weights),
            migration_weight: 1,
            name: "learning",
        }
    }

    /// The cost of a charged (cut-at-request-time) request on `e`.
    ///
    /// # Panics
    /// Panics if `e` is out of range of the learning weight table.
    #[must_use]
    pub fn request_weight(&self, e: Edge) -> u64 {
        self.request_weights.as_ref().map_or(1, |w| w[e.0 as usize])
    }

    /// The cost per moved process.
    #[must_use]
    pub fn migration_weight(&self) -> u64 {
        self.migration_weight
    }

    /// Family name for reports.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Whether this is the standard model (all weights 1) — the case
    /// where the reweighted total provably equals the ledger total.
    #[must_use]
    pub fn is_standard(&self) -> bool {
        self.migration_weight == 1
            && self
                .request_weights
                .as_ref()
                .is_none_or(|w| w.iter().all(|&x| x == 1))
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::standard()
    }
}

/// Accumulates a [`CostModel`]'s reweighted cost from the driver's
/// per-step events.
///
/// Request weights are per-edge, and [`crate::BatchEvent`] carries no
/// per-request identities — so this observer requires the per-step
/// path ([`Observer::wants_steps`] answers `true`, the default), and
/// executors route runs through the per-step driver whenever it is
/// attached.
#[derive(Debug, Clone, Default)]
pub struct FamilyCostObserver {
    model: CostModel,
    communication: u64,
    migration: u64,
}

impl FamilyCostObserver {
    /// Creates an observer charging under `model`.
    #[must_use]
    pub fn new(model: CostModel) -> Self {
        Self {
            model,
            communication: 0,
            migration: 0,
        }
    }

    /// Reweighted communication cost so far.
    #[must_use]
    pub fn communication(&self) -> u64 {
        self.communication
    }

    /// Reweighted migration cost so far.
    #[must_use]
    pub fn migration(&self) -> u64 {
        self.migration
    }

    /// Reweighted total cost so far.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.communication + self.migration
    }

    /// The model this observer charges under.
    #[must_use]
    pub fn model(&self) -> &CostModel {
        &self.model
    }
}

impl Observer for FamilyCostObserver {
    fn on_step(&mut self, event: &StepEvent) {
        if event.charged {
            self.communication += self.model.request_weight(event.request);
        }
        self.migration += event.migrations * self.model.migration_weight;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::CutChaser;
    use crate::{
        AuditLevel, Driver, OnlineAlgorithm, Placement, Process, RingInstance, Server, Workload,
    };

    /// Minimal greedy collocator: pull the clockwise endpoint over
    /// whenever there is room (enough to exercise both cost kinds).
    struct Pull {
        placement: Placement,
    }

    impl crate::OnlineAlgorithm for Pull {
        fn placement(&self) -> &Placement {
            &self.placement
        }
        fn placement_mut(&mut self) -> &mut Placement {
            &mut self.placement
        }
        fn serve(&mut self, e: Edge) -> u64 {
            let (u, v) = self.placement.instance().endpoints(e);
            let (su, k) = (
                self.placement.server(u),
                self.placement.instance().capacity(),
            );
            if self.placement.server(v) != su && self.placement.load(su) < k {
                u64::from(self.placement.migrate(v, su))
            } else {
                0
            }
        }
        fn name(&self) -> &'static str {
            "pull"
        }
    }

    fn run_with(model: CostModel, steps: u64) -> (FamilyCostObserver, u64) {
        let inst = RingInstance::new(16, 4, 5);
        let mut alg = Pull {
            placement: Placement::contiguous(&inst),
        };
        let mut workload = CutChaser::new();
        let mut obs = FamilyCostObserver::new(model);
        let audit = AuditLevel::Full { load_limit: 5 };
        let mut driver = Driver::new(alg.name(), workload.name(), audit);
        for _ in 0..steps {
            driver.step_generated(&mut alg, &mut workload, &mut obs);
        }
        let ledger_total = driver.finish(&mut obs).ledger.total();
        (obs, ledger_total)
    }

    #[test]
    fn standard_model_reproduces_the_ledger_exactly() {
        let (obs, ledger) = run_with(CostModel::standard(), 200);
        assert_eq!(obs.total(), ledger);
        assert!(obs.communication() > 0 && obs.migration() > 0);
    }

    #[test]
    fn learning_with_unit_weights_reduces_to_the_standard_model() {
        // The satellite property: all pair-costs 1 ⇒ the generalized
        // learning total IS the standard total, event for event.
        let unit = CostModel::learning(vec![1; 16]);
        assert!(unit.is_standard());
        let (obs, ledger) = run_with(unit, 300);
        assert_eq!(obs.total(), ledger);
    }

    #[test]
    fn bisection_cost_never_below_the_partition_cost_on_the_same_trace() {
        // The satellite property: α ≥ 1 reweights only migrations
        // upward, so on the same event stream the bisection total
        // dominates the standard (partition) total; α = 1 is equality.
        for alpha in [1u64, 2, 5, 10] {
            let (obs, ledger) = run_with(CostModel::bisection(alpha), 250);
            assert!(
                obs.total() >= ledger,
                "alpha={alpha}: bisection {} < partition {ledger}",
                obs.total()
            );
            if alpha == 1 {
                assert_eq!(obs.total(), ledger);
            }
        }
    }

    #[test]
    fn learning_weights_charge_per_edge() {
        // Weight edge 0 at 7, everything else 1; request edge 0 across
        // a cut and compare against the unweighted charge.
        let inst = RingInstance::new(8, 2, 4);
        let mut weights = vec![1u64; 8];
        weights[0] = 7;
        let model = CostModel::learning(weights);
        assert!(!model.is_standard());
        let mut obs = FamilyCostObserver::new(model);
        // Hand-build one charged step on edge 0 and one on edge 1.
        obs.on_step(&StepEvent {
            step: 0,
            request: Edge(0),
            charged: true,
            migrations: 0,
            max_load: 4,
            violated: false,
        });
        obs.on_step(&StepEvent {
            step: 1,
            request: Edge(1),
            charged: true,
            migrations: 2,
            max_load: 4,
            violated: false,
        });
        let _ = inst;
        assert_eq!(obs.communication(), 8);
        assert_eq!(obs.migration(), 2);
        assert_eq!(obs.total(), 10);
    }

    #[test]
    #[should_panic(expected = "migration cost")]
    fn bisection_rejects_free_migrations() {
        let _ = CostModel::bisection(0);
    }

    #[test]
    #[should_panic(expected = "pair costs")]
    fn learning_rejects_zero_weights() {
        let _ = CostModel::learning(vec![1, 0, 1]);
    }

    #[test]
    fn observer_wants_the_per_step_path() {
        let obs = FamilyCostObserver::new(CostModel::standard());
        assert!(obs.wants_steps(), "per-edge weights need step events");
        let _ = (Process(0), Server(0)); // silence unused imports
    }
}
