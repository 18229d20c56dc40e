//! Algorithms for the related-work cost-model families
//! ([`rdbp_model::family`]): online bisection with ring demands and the
//! generalized learning model.
//!
//! Both are deterministic, exact-balance algorithms — they plug into
//! the standard driver unchanged, and the family observer reweights
//! their event streams into the family's own cost accounting.

use serde::{DeError, Deserialize, Serialize, Value};

use rdbp_model::{Edge, OnlineAlgorithm, Placement, Process, RingInstance};

use crate::ring::placement_field;

/// Deterministic per-edge learning costs in `1..=4`, shared by the
/// learning algorithm, the family cost model and the experiments so
/// the three always agree on `w(e)`.
#[must_use]
pub fn learning_weights(n: u32, seed: u64) -> Vec<u64> {
    (0..u64::from(n))
        .map(|e| 1 + rdbp_model::split_mix64(seed ^ (e + 1)) % 4)
        .collect()
}

/// **Online bisection with ring demands** (after Basiak, Bienkowski &
/// Tatarczuk): exactly two servers, each of capacity `k = n/2`. The
/// algorithm grows components over communicating pairs (union–find,
/// components always collocated); a cut request merges its endpoint
/// components by migrating the smaller one across and evicting an
/// equal number of least-recently-requested *singleton* processes the
/// other way, so the bisection stays exact (loads never change). When
/// a merge would exceed `k`, or the eviction pool runs dry, the
/// component structure resets (a new phase).
///
/// Under the bisection cost model every migration costs `α ≥ 1`
/// ([`rdbp_model::CostModel::bisection`]); the algorithm itself is
/// cost-model-agnostic — the driver charges the standard unit costs
/// and the family observer reweights.
#[derive(Debug)]
pub struct BisectionSwap {
    placement: Placement,
    parent: Vec<u32>,
    size: Vec<u32>,
    last_touch: Vec<u64>,
    clock: u64,
    capacity: u32,
}

impl BisectionSwap {
    /// Starts from the canonical contiguous bisection.
    ///
    /// # Panics
    /// Panics unless the instance has exactly two servers — the
    /// bisection model is `ℓ = 2` by definition (the engine registry
    /// reports a spec error before construction).
    #[must_use]
    pub fn new(instance: &RingInstance) -> Self {
        assert!(
            instance.servers() == 2,
            "bisection requires exactly 2 servers, got {}",
            instance.servers()
        );
        let n = instance.n();
        Self {
            placement: Placement::contiguous(instance),
            parent: (0..n).collect(),
            size: vec![1; n as usize],
            last_touch: vec![0; n as usize],
            clock: 0,
            capacity: instance.capacity(),
        }
    }

    /// Load bound honoured by this algorithm: exact balance, no
    /// augmentation.
    #[must_use]
    pub fn load_bound(&self) -> u32 {
        self.capacity
    }

    fn find(&mut self, p: u32) -> u32 {
        let mut root = p;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        let mut cur = p;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    fn reset_components(&mut self) {
        for (i, p) in self.parent.iter_mut().enumerate() {
            *p = i as u32;
        }
        self.size.fill(1);
    }

    fn members(&mut self, root: u32) -> Vec<Process> {
        (0..self.placement.instance().n())
            .filter(|&p| self.find(p) == root)
            .map(Process)
            .collect()
    }

    /// Least-recently-touched singleton processes on `server`, excluding
    /// the two merging components — the eviction pool that keeps the
    /// bisection exact without tearing any component apart.
    fn singleton_pool(&mut self, server: rdbp_model::Server, exclude: [u32; 2]) -> Vec<Process> {
        let n = self.placement.instance().n();
        let mut pool: Vec<Process> = (0..n)
            .filter(|&p| {
                let root = self.find(p);
                root == p
                    && self.size[p as usize] == 1
                    && !exclude.contains(&root)
                    && self.placement.server(Process(p)) == server
            })
            .map(Process)
            .collect();
        pool.sort_by_key(|&p| (self.last_touch[p.0 as usize], p.0));
        pool
    }
}

impl OnlineAlgorithm for BisectionSwap {
    fn placement(&self) -> &Placement {
        &self.placement
    }

    fn placement_mut(&mut self) -> &mut Placement {
        &mut self.placement
    }

    fn serve(&mut self, request: Edge) -> u64 {
        self.clock += 1;
        let (u, v) = self.placement.instance().endpoints(request);
        self.last_touch[u.0 as usize] = self.clock;
        self.last_touch[v.0 as usize] = self.clock;
        let ru = self.find(u.0);
        let rv = self.find(v.0);
        if ru == rv {
            return 0; // components are always collocated
        }
        if self.size[ru as usize] + self.size[rv as usize] > self.capacity {
            // The pair cannot fit on one side: new phase.
            self.reset_components();
            return 0;
        }
        let (big, small) = if self.size[ru as usize] >= self.size[rv as usize] {
            (ru, rv)
        } else {
            (rv, ru)
        };
        let target = self.placement.server(Process(big));
        if self.placement.server(Process(small)) == target {
            // Already on one side: merge bookkeeping only.
            self.parent[small as usize] = big;
            self.size[big as usize] += self.size[small as usize];
            return 0;
        }
        let movers = self.members(small);
        let source = self.placement.server(movers[0]);
        let evictees = self.singleton_pool(target, [big, small]);
        if evictees.len() < movers.len() {
            // Cannot rebalance without splitting a component: new phase.
            self.reset_components();
            return 0;
        }
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
        let mut moved = 0;
        for p in movers.iter().copied() {
            if self.placement.migrate(p, target) {
                moved += 1;
            }
        }
        for p in evictees.into_iter().take(movers.len()) {
            if self.placement.migrate(p, source) {
                moved += 1;
            }
        }
        moved
    }

    fn name(&self) -> &'static str {
        "bisection"
    }

    fn export_state(&self) -> Option<Value> {
        Some(Value::Obj(vec![
            ("placement".into(), self.placement.to_value()),
            ("parent".into(), self.parent.to_value()),
            ("size".into(), self.size.to_value()),
            ("last_touch".into(), self.last_touch.to_value()),
            ("clock".into(), self.clock.to_value()),
        ]))
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), DeError> {
        let placement = placement_field(state, self.placement.instance())?;
        let parent = <Vec<u32> as Deserialize>::from_value(state.get_field("parent")?)?;
        let size = <Vec<u32> as Deserialize>::from_value(state.get_field("size")?)?;
        let last_touch = <Vec<u64> as Deserialize>::from_value(state.get_field("last_touch")?)?;
        let n = self.parent.len();
        if parent.len() != n || size.len() != n || last_touch.len() != n {
            return Err(DeError(format!(
                "snapshot arity {}/{}/{} != {n}",
                parent.len(),
                size.len(),
                last_touch.len()
            )));
        }
        if let Some(&p) = parent.iter().find(|&&p| p as usize >= n) {
            return Err(DeError(format!("parent {p} out of range 0..{n}")));
        }
        self.clock = u64::from_value(state.get_field("clock")?)?;
        self.placement = placement;
        self.parent = parent;
        self.size = size;
        self.last_touch = last_touch;
        Ok(())
    }
}

/// **Generalized learning model** collocator (after Räcke, Schmid &
/// Zabrodin 2024): each ring pair `e` has a learning cost `w(e)` paid
/// per cut request. The algorithm rents until the accumulated payment
/// on an edge reaches the price of a balanced swap (2 migrations),
/// then buys: it collocates the pair GreedySwap-style (pull the
/// counter-clockwise endpoint across, evict the least-recently-touched
/// process back) and resets the edge's account — the classic
/// rent-or-buy schedule, per pair. With all `w(e) = 1` every edge
/// buys on its second consecutive payment.
#[derive(Debug)]
pub struct LearningCollocator {
    placement: Placement,
    weights: Vec<u64>,
    paid: Vec<u64>,
    last_touch: Vec<u64>,
    clock: u64,
}

impl LearningCollocator {
    /// The accumulated payment at which an edge buys its collocation
    /// (the cost of the balanced swap: 2 migrations).
    pub const BUY_THRESHOLD: u64 = 2;

    /// Starts from the canonical contiguous placement.
    ///
    /// # Panics
    /// Panics if `weights` does not have one positive entry per ring
    /// edge.
    #[must_use]
    pub fn new(instance: &RingInstance, weights: Vec<u64>) -> Self {
        assert!(
            weights.len() == instance.n() as usize,
            "need one learning cost per edge: {} != {}",
            weights.len(),
            instance.n()
        );
        assert!(
            weights.iter().all(|&w| w >= 1),
            "learning costs must be >= 1"
        );
        let n = instance.n() as usize;
        Self {
            placement: Placement::contiguous(instance),
            weights,
            paid: vec![0; n],
            last_touch: vec![0; n],
            clock: 0,
        }
    }

    /// The per-edge learning costs this algorithm rents against.
    #[must_use]
    pub fn weights(&self) -> &[u64] {
        &self.weights
    }
}

impl OnlineAlgorithm for LearningCollocator {
    fn placement(&self) -> &Placement {
        &self.placement
    }

    fn placement_mut(&mut self) -> &mut Placement {
        &mut self.placement
    }

    fn serve(&mut self, request: Edge) -> u64 {
        self.clock += 1;
        let (u, v) = self.placement.instance().endpoints(request);
        self.last_touch[u.0 as usize] = self.clock;
        self.last_touch[v.0 as usize] = self.clock;
        let su = self.placement.server(u);
        let sv = self.placement.server(v);
        if su == sv {
            return 0;
        }
        let e = request.0 as usize;
        self.paid[e] += self.weights[e];
        if self.paid[e] < Self::BUY_THRESHOLD {
            return 0; // keep renting
        }
        self.paid[e] = 0;
        // Buy: balanced swap, exactly as GreedySwap.
        let victim = self
            .placement
            .instance()
            .processes()
            .filter(|&p| p != v && self.placement.server(p) == sv)
            .min_by_key(|&p| (self.last_touch[p.0 as usize], p.0));
        let Some(w) = victim else {
            return 0;
        };
        let mut moved = 0;
        if self.placement.migrate(u, sv) {
            moved += 1;
        }
        if self.placement.migrate(w, su) {
            moved += 1;
        }
        moved
    }

    fn name(&self) -> &'static str {
        "learning"
    }

    fn export_state(&self) -> Option<Value> {
        Some(Value::Obj(vec![
            ("placement".into(), self.placement.to_value()),
            ("paid".into(), self.paid.to_value()),
            ("last_touch".into(), self.last_touch.to_value()),
            ("clock".into(), self.clock.to_value()),
        ]))
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), DeError> {
        let placement = placement_field(state, self.placement.instance())?;
        let paid = <Vec<u64> as Deserialize>::from_value(state.get_field("paid")?)?;
        let last_touch = <Vec<u64> as Deserialize>::from_value(state.get_field("last_touch")?)?;
        let n = self.paid.len();
        if paid.len() != n || last_touch.len() != n {
            return Err(DeError(format!(
                "snapshot arity {}/{} != {n}",
                paid.len(),
                last_touch.len()
            )));
        }
        self.clock = u64::from_value(state.get_field("clock")?)?;
        self.placement = placement;
        self.paid = paid;
        self.last_touch = last_touch;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdbp_model::workload::{self, Workload};
    use rdbp_model::{run, run_trace, AuditLevel, CostModel, Driver, FamilyCostObserver};

    #[test]
    fn learning_weights_are_deterministic_and_positive() {
        let a = learning_weights(32, 7);
        let b = learning_weights(32, 7);
        let c = learning_weights(32, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|&w| (1..=4).contains(&w)));
    }

    #[test]
    fn bisection_keeps_exact_balance_under_pressure() {
        let i = RingInstance::packed(2, 8); // n=16, two servers
        let mut alg = BisectionSwap::new(&i);
        let mut w = workload::UniformRandom::new(3);
        let report = run(&mut alg, &mut w, 3000, AuditLevel::Full { load_limit: 8 });
        assert_eq!(report.capacity_violations, 0);
        assert_eq!(report.max_load_seen, 8, "bisection must stay exact");
    }

    #[test]
    fn bisection_collocates_a_requested_pair() {
        let i = RingInstance::packed(2, 4); // boundary edge 3 is cut
        let mut alg = BisectionSwap::new(&i);
        let r = run_trace(&mut alg, &[Edge(3)], AuditLevel::Full { load_limit: 4 });
        assert_eq!(r.ledger.communication, 1);
        assert!(r.ledger.migration >= 2, "swap moves one each way");
        let r2 = run_trace(&mut alg, &[Edge(3)], AuditLevel::Full { load_limit: 4 });
        assert_eq!(r2.ledger.total(), 0, "pair is now collocated");
    }

    #[test]
    #[should_panic(expected = "exactly 2 servers")]
    fn bisection_rejects_more_than_two_servers() {
        let _ = BisectionSwap::new(&RingInstance::packed(3, 4));
    }

    #[test]
    fn bisection_family_cost_never_below_partition_cost() {
        // Satellite property at the algorithm level: the same
        // BisectionSwap run, recharged under CostModel::bisection(α),
        // never comes out below the standard partition cost.
        for alpha in [1u64, 3, 7] {
            let i = RingInstance::packed(2, 8);
            let mut alg = BisectionSwap::new(&i);
            let mut w = workload::CutChaser::new();
            let mut obs = FamilyCostObserver::new(CostModel::bisection(alpha));
            let mut driver = Driver::new(alg.name(), w.name(), AuditLevel::Full { load_limit: 8 });
            for _ in 0..800 {
                driver.step_generated(&mut alg, &mut w, &mut obs);
            }
            let report = driver.finish(&mut obs);
            assert!(
                obs.total() >= report.ledger.total(),
                "alpha={alpha}: {} < {}",
                obs.total(),
                report.ledger.total()
            );
        }
    }

    #[test]
    fn learning_rents_then_buys_per_edge_weight() {
        let i = RingInstance::packed(2, 4);
        // Edge 3 (the cut boundary) at weight 1: first request rents,
        // second buys.
        let mut w1 = vec![1u64; 8];
        w1[3] = 1;
        let mut alg = LearningCollocator::new(&i, w1);
        let r = run_trace(&mut alg, &[Edge(3)], AuditLevel::Full { load_limit: 4 });
        assert_eq!((r.ledger.communication, r.ledger.migration), (1, 0));
        let r = run_trace(&mut alg, &[Edge(3)], AuditLevel::Full { load_limit: 4 });
        assert_eq!((r.ledger.communication, r.ledger.migration), (1, 2));
        // At weight 2 the first request already buys.
        let mut w2 = vec![2u64; 8];
        w2[3] = 2;
        let mut alg = LearningCollocator::new(&i, w2);
        let r = run_trace(&mut alg, &[Edge(3)], AuditLevel::Full { load_limit: 4 });
        assert_eq!((r.ledger.communication, r.ledger.migration), (1, 2));
    }

    #[test]
    fn learning_with_unit_weights_reduces_to_the_standard_model() {
        // Satellite property at the algorithm level: all pair costs 1 ⇒
        // the learning observer's total equals the driver's standard
        // ledger on the same run, step for step.
        let i = RingInstance::packed(4, 8);
        let weights = vec![1u64; i.n() as usize];
        let mut alg = LearningCollocator::new(&i, weights.clone());
        let mut w = workload::Zipf::new(&i, 1.1, 5);
        let mut obs = FamilyCostObserver::new(CostModel::learning(weights));
        let mut driver = Driver::new(alg.name(), w.name(), AuditLevel::Full { load_limit: 8 });
        for _ in 0..2000 {
            driver.step_generated(&mut alg, &mut w, &mut obs);
        }
        let report = driver.finish(&mut obs);
        assert_eq!(obs.total(), report.ledger.total());
        assert_eq!(report.capacity_violations, 0);
    }

    #[test]
    fn learning_preserves_loads_exactly() {
        let i = RingInstance::packed(3, 4);
        let mut alg = LearningCollocator::new(&i, learning_weights(i.n(), 9));
        let mut w = workload::UniformRandom::new(11);
        let report = run(&mut alg, &mut w, 2000, AuditLevel::Full { load_limit: 4 });
        assert_eq!(report.capacity_violations, 0);
        assert_eq!(report.max_load_seen, 4);
    }

    #[test]
    fn family_algorithms_snapshot_roundtrip() {
        let i = RingInstance::packed(2, 8);
        let mut alg = BisectionSwap::new(&i);
        let mut w = workload::CutChaser::new();
        let _ = run(&mut alg, &mut w, 100, AuditLevel::None);
        let snap = alg.export_state().unwrap();
        let mut fresh = BisectionSwap::new(&i);
        fresh.restore_state(&snap).unwrap();
        let next = Workload::next_request(&mut w, alg.placement());
        assert_eq!(alg.serve(next), fresh.serve(next));
        assert_eq!(alg.placement().assignment(), fresh.placement().assignment());

        let weights = learning_weights(i.n(), 1);
        let mut alg = LearningCollocator::new(&i, weights.clone());
        let _ = run(
            &mut alg,
            &mut workload::CutChaser::new(),
            100,
            AuditLevel::None,
        );
        let snap = alg.export_state().unwrap();
        let mut fresh = LearningCollocator::new(&i, weights);
        fresh.restore_state(&snap).unwrap();
        assert_eq!(alg.serve(Edge(0)), fresh.serve(Edge(0)));
        assert_eq!(alg.placement().assignment(), fresh.placement().assignment());
    }
}
