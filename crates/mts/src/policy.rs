//! The policy interface and the MTS cost model.

use std::sync::Arc;

use serde::{DeError, Value};

/// Deterministic work counters of one MTS policy instance — the
/// policy-layer slice of the perf gate's counter taxonomy (see
/// `rdbp_model::WorkCounters`; higher layers merge these in through
/// `OnlineAlgorithm::work_counters`).
///
/// All fields are plain `u64` tallies of work performed since
/// construction; they never influence behaviour and are never part of a
/// snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyCounters {
    /// [`MtsPolicy::serve`] calls (explicit cost-vector path).
    pub serve_vector: u64,
    /// [`MtsPolicy::serve_hit`] calls (point fast path).
    pub serve_hit: u64,
    /// Hierarchy nodes whose weights were updated
    /// ([`crate::HstHedge`] only).
    pub node_visits: u64,
    /// Serves that reused a cached distribution instead of recomputing
    /// it ([`crate::HstHedge`] only).
    pub cache_hits: u64,
    /// Quantile-coupling follow/resample operations (randomized
    /// policies).
    pub coupling_follows: u64,
}

impl PolicyCounters {
    /// Adds every counter of `other` into `self`.
    pub fn merge(&mut self, other: &Self) {
        self.serve_vector += other.serve_vector;
        self.serve_hit += other.serve_hit;
        self.node_visits += other.node_visits;
        self.cache_hits += other.cache_hits;
        self.coupling_follows += other.coupling_follows;
    }

    /// Componentwise `self − earlier`: the work performed between two
    /// counter snapshots of the same policy (differential tests use
    /// this to assert a restored twin pays exactly what the
    /// uninterrupted one does).
    ///
    /// # Panics
    /// Panics if any counter of `earlier` exceeds `self`'s (snapshots
    /// out of order).
    #[must_use]
    pub fn diff(&self, earlier: &Self) -> Self {
        Self {
            serve_vector: self.serve_vector - earlier.serve_vector,
            serve_hit: self.serve_hit - earlier.serve_hit,
            node_visits: self.node_visits - earlier.node_visits,
            cache_hits: self.cache_hits - earlier.cache_hits,
            coupling_follows: self.coupling_follows - earlier.coupling_follows,
        }
    }
}

/// An online policy for a metrical task system on the **line metric**
/// with states `0..num_states` and `d(i,j) = |i−j|`.
///
/// Protocol per task: the caller presents a cost vector `T`; the policy
/// moves to a (possibly unchanged) state `s` and the caller charges
/// `d(s_prev, s) + T[s]` — movement plus service in the *new* state,
/// exactly the MTS cost model of Section 3.1.
pub trait MtsPolicy {
    /// Number of states `N`.
    fn num_states(&self) -> usize;

    /// The currently occupied state.
    fn state(&self) -> usize;

    /// Processes one task; returns the new state.
    ///
    /// # Panics
    /// Implementations panic if `costs.len() != num_states()` or any
    /// cost is negative/NaN.
    fn serve(&mut self, costs: &[f64]) -> usize;

    /// Point-request fast path: serves the unit task `e_index` (cost 1
    /// on state `index`, 0 elsewhere) without the caller materializing
    /// a cost vector.
    ///
    /// This is the only task shape the ring-partitioning reduction ever
    /// produces (a request inside an interval becomes a unit cost on
    /// its cut-edge state), so the partitioning hot loop calls this
    /// instead of building an O(N) one-hot scratch vector per request.
    /// The default falls back to the cost-vector path (allocating);
    /// implementations specialize it to the equivalent allocation-free
    /// update. A specialization must behave exactly like
    /// `serve(&one_hot(index))`.
    ///
    /// # Panics
    /// Panics if `index >= num_states()`.
    fn serve_hit(&mut self, index: usize) -> usize {
        assert!(
            index < self.num_states(),
            "hit index {index} out of range 0..{}",
            self.num_states()
        );
        let mut costs = vec![0.0; self.num_states()];
        costs[index] = 1.0;
        self.serve(&costs)
    }

    /// Human-readable name (for reports).
    fn name(&self) -> &'static str;

    /// Exports a serializable snapshot of all mutable state, or `None`
    /// if the policy does not support checkpointing. Restoring the
    /// snapshot into a freshly built (same `num_states`/`initial`/
    /// `seed`) policy must continue the `serve` stream bit-identically —
    /// the contract higher layers (the serve subsystem's
    /// snapshot/restore) are built on.
    fn export_state(&self) -> Option<Value> {
        None
    }

    /// Restores a snapshot produced by [`Self::export_state`] on an
    /// identically-configured policy.
    ///
    /// # Errors
    /// Returns a [`DeError`] if the policy does not support
    /// checkpointing or the snapshot does not fit.
    fn restore_state(&mut self, _state: &Value) -> Result<(), DeError> {
        Err(DeError(format!(
            "policy `{}` does not support snapshot/restore",
            self.name()
        )))
    }

    /// The policy's deterministic work counters (see
    /// [`PolicyCounters`]). Defaults to all-zero for policies without
    /// instrumentation; the built-in policies all specialize it.
    fn work_counters(&self) -> PolicyCounters {
        PolicyCounters::default()
    }
}

/// Serializes a [`rdbp_smin::QuantileCoupling`] as `[u, state, moved]`.
#[must_use]
pub(crate) fn coupling_to_value(c: &rdbp_smin::QuantileCoupling) -> Value {
    use serde::Serialize;
    (c.u(), c.state(), c.distance_moved()).to_value()
}

/// Restores a [`rdbp_smin::QuantileCoupling`] from
/// [`coupling_to_value`] output, validating the state range.
pub(crate) fn coupling_from_value(
    v: &Value,
    num_states: usize,
) -> Result<rdbp_smin::QuantileCoupling, DeError> {
    let (u, state, moved) = <(f64, usize, u64) as serde::Deserialize>::from_value(v)?;
    if !(0.0..=1.0).contains(&u) {
        return Err(DeError(format!("coupling u {u} outside [0,1]")));
    }
    if state >= num_states {
        return Err(DeError(format!(
            "coupling state {state} out of range 0..{num_states}"
        )));
    }
    Ok(rdbp_smin::QuantileCoupling::from_parts(u, state, moved))
}

/// Which MTS policy to instantiate inside higher-level algorithms.
///
/// The dynamic partitioner (Theorem 2.1) is parameterized by this —
/// ablation A1 in EXPERIMENTS.md compares the choices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Deterministic work-function algorithm.
    WorkFunction,
    /// Randomized smin-gradient (share-style) policy.
    SminGradient,
    /// Randomized hierarchical Hedge with phase resets.
    HstHedge,
    /// Randomized uniform-metric marking (a reference point, not a
    /// line-metric algorithm — its guarantees do not transfer to the
    /// ring reduction; used by ablations and the perf-gate suite).
    Marking,
}

impl PolicyKind {
    /// Builds a boxed policy over `num_states` line states starting at
    /// `initial`, seeding any internal randomness from `seed`.
    ///
    /// # Panics
    /// Panics if `num_states == 0` or `initial >= num_states`.
    #[must_use]
    pub fn build(self, num_states: usize, initial: usize, seed: u64) -> Box<dyn MtsPolicy> {
        match self {
            PolicyKind::WorkFunction => Box::new(crate::WorkFunction::new(num_states, initial)),
            PolicyKind::SminGradient => {
                Box::new(crate::SminGradient::new(num_states, initial, seed))
            }
            PolicyKind::HstHedge => Box::new(crate::HstHedge::new(num_states, initial, seed)),
            PolicyKind::Marking => Box::new(crate::Marking::new(num_states, initial, seed)),
        }
    }

    /// Builds `count` policies over the same `num_states` line states,
    /// all starting at `initial`, policy `i` seeded with `seed_of(i)`:
    /// each one is what [`Self::build`] returns for those arguments,
    /// but the [`crate::HstHedge`] policies share one immutable
    /// hierarchy instead of building a copy each (a partitioner's ℓ′
    /// intervals all have `k′` states).
    ///
    /// # Panics
    /// Panics if `num_states == 0` or `initial >= num_states`.
    #[must_use]
    pub fn build_many(
        self,
        count: usize,
        num_states: usize,
        initial: usize,
        seed_of: impl Fn(usize) -> u64,
    ) -> Vec<Box<dyn MtsPolicy>> {
        if self != PolicyKind::HstHedge {
            return (0..count)
                .map(|i| self.build(num_states, initial, seed_of(i)))
                .collect();
        }
        let tree = Arc::new(crate::hst::HstTree::new(num_states));
        (0..count)
            .map(|i| {
                let policy = crate::HstHedge::on_tree(Arc::clone(&tree), initial, seed_of(i));
                Box::new(policy) as Box<dyn MtsPolicy>
            })
            .collect()
    }

    /// Stable label for file names and reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::WorkFunction => "wfa",
            PolicyKind::SminGradient => "smin",
            PolicyKind::HstHedge => "hst-hedge",
            PolicyKind::Marking => "marking",
        }
    }
}

impl std::str::FromStr for PolicyKind {
    type Err = String;

    /// Parses a policy name: `wfa`/`work-function`,
    /// `smin`/`smin-gradient`, `hedge`/`hst-hedge` or `marking` (so
    /// every [`PolicyKind::label`] parses back to its policy).
    fn from_str(name: &str) -> Result<Self, String> {
        match name {
            "wfa" | "work-function" => Ok(PolicyKind::WorkFunction),
            "smin" | "smin-gradient" => Ok(PolicyKind::SminGradient),
            "hedge" | "hst-hedge" => Ok(PolicyKind::HstHedge),
            "marking" => Ok(PolicyKind::Marking),
            other => Err(format!(
                "unknown policy `{other}` (valid: wfa, smin, hedge, marking)"
            )),
        }
    }
}

/// Accumulated MTS costs of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MtsCosts {
    /// Σ `T_t(s_t)` — cost of serving each task in the chosen state.
    pub service: f64,
    /// Σ `d(s_{t-1}, s_t)` — total line distance traveled.
    pub movement: u64,
}

impl MtsCosts {
    /// `service + movement` — the MTS objective.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.service + self.movement as f64
    }
}

/// Runs a policy over a task sequence, charging costs per the MTS
/// protocol.
///
/// # Panics
/// Panics if any task has the wrong arity (propagated from the policy).
pub fn run_policy<P: MtsPolicy + ?Sized>(policy: &mut P, tasks: &[Vec<f64>]) -> MtsCosts {
    let mut costs = MtsCosts::default();
    for task in tasks {
        let prev = policy.state();
        let next = policy.serve(task);
        costs.movement += prev.abs_diff(next) as u64;
        costs.service += task[next];
    }
    costs
}

/// Validates a cost vector: correct arity, finite, non-negative.
///
/// # Panics
/// Panics when the contract is violated; shared by all policy
/// implementations.
pub(crate) fn validate_costs(costs: &[f64], num_states: usize) {
    assert_eq!(
        costs.len(),
        num_states,
        "cost vector arity {} != number of states {num_states}",
        costs.len()
    );
    for &c in costs {
        assert!(c.is_finite() && c >= 0.0, "invalid task cost {c}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A policy that never moves.
    struct Sitter {
        n: usize,
        s: usize,
    }

    impl MtsPolicy for Sitter {
        fn num_states(&self) -> usize {
            self.n
        }
        fn state(&self) -> usize {
            self.s
        }
        fn serve(&mut self, costs: &[f64]) -> usize {
            validate_costs(costs, self.n);
            self.s
        }
        fn name(&self) -> &'static str {
            "sitter"
        }
    }

    #[test]
    fn run_policy_charges_service_in_new_state() {
        let mut p = Sitter { n: 3, s: 1 };
        let tasks = vec![vec![0.0, 2.0, 0.0], vec![5.0, 0.5, 0.0]];
        let c = run_policy(&mut p, &tasks);
        assert_eq!(c.movement, 0);
        assert!((c.service - 2.5).abs() < 1e-12);
        assert!((c.total() - 2.5).abs() < 1e-12);
    }

    const ALL_KINDS: [PolicyKind; 4] = [
        PolicyKind::WorkFunction,
        PolicyKind::SminGradient,
        PolicyKind::HstHedge,
        PolicyKind::Marking,
    ];

    #[test]
    fn policy_kind_builds_each_variant() {
        for kind in ALL_KINDS {
            let p = kind.build(8, 3, 42);
            assert_eq!(p.num_states(), 8);
            assert_eq!(p.state(), 3);
            assert!(!kind.label().is_empty());
        }
    }

    #[test]
    fn every_policy_spelling_parses_and_labels_round_trip() {
        let spellings = [
            ("wfa", PolicyKind::WorkFunction),
            ("work-function", PolicyKind::WorkFunction),
            ("smin", PolicyKind::SminGradient),
            ("smin-gradient", PolicyKind::SminGradient),
            ("hedge", PolicyKind::HstHedge),
            ("hst-hedge", PolicyKind::HstHedge),
            ("marking", PolicyKind::Marking),
        ];
        for (name, kind) in spellings {
            assert_eq!(name.parse::<PolicyKind>(), Ok(kind), "{name}");
        }
        for kind in ALL_KINDS {
            assert_eq!(kind.label().parse::<PolicyKind>(), Ok(kind));
        }
        assert_eq!(
            "quantum".parse::<PolicyKind>(),
            Err("unknown policy `quantum` (valid: wfa, smin, hedge, marking)".to_string())
        );
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn wrong_arity_panics() {
        let mut p = Sitter { n: 3, s: 0 };
        let _ = p.serve(&[1.0, 2.0]);
    }

    #[test]
    fn serve_hit_equals_one_hot_serve_for_every_policy() {
        // Two identically-seeded twins of each policy: one fed one-hot
        // cost vectors through `serve`, one fed the same hits through
        // `serve_hit`. The realized state sequences must coincide — the
        // fast path may not change behaviour, only skip the vector. 384
        // states is the largest workload's interval size, deep enough
        // for five-family hit walks.
        for n in [23usize, 384] {
            for kind in ALL_KINDS {
                let mut by_vector = kind.build(n, n / 2, 42);
                let mut by_hit = kind.build(n, n / 2, 42);
                let mut costs = vec![0.0; n];
                for t in 0..400usize {
                    let hit = (t * 7 + t * t % 5) % n;
                    costs[hit] = 1.0;
                    let a = by_vector.serve(&costs);
                    costs[hit] = 0.0;
                    let b = by_hit.serve_hit(hit);
                    assert_eq!(
                        a,
                        b,
                        "{} n={n}: diverged at step {t} (hit {hit})",
                        kind.label()
                    );
                }
                assert_eq!(by_vector.export_state(), by_hit.export_state());
            }
        }
    }

    #[test]
    fn build_many_matches_build_for_every_policy() {
        for kind in ALL_KINDS {
            let seed_of = |i: usize| 100 + i as u64;
            let mut many = kind.build_many(3, 48, 24, seed_of);
            assert_eq!(many.len(), 3);
            for (i, policy) in many.iter_mut().enumerate() {
                let mut single = kind.build(48, 24, seed_of(i));
                for t in 0..200usize {
                    let hit = (t * 11 + i) % 48;
                    assert_eq!(
                        policy.serve_hit(hit),
                        single.serve_hit(hit),
                        "{} policy {i}: diverged at step {t}",
                        kind.label()
                    );
                }
                assert_eq!(policy.export_state(), single.export_state());
                assert_eq!(policy.work_counters(), single.work_counters());
            }
        }
    }

    #[test]
    fn work_counters_track_serve_shapes_per_policy() {
        for kind in ALL_KINDS {
            let mut p = kind.build(16, 8, 7);
            assert_eq!(p.work_counters(), PolicyCounters::default());
            let mut costs = vec![0.0; 16];
            costs[3] = 1.0;
            for _ in 0..5 {
                let _ = p.serve(&costs);
            }
            for i in 0..9 {
                let _ = p.serve_hit(i);
            }
            let c = p.work_counters();
            assert_eq!(c.serve_vector, 5, "{}", kind.label());
            assert_eq!(c.serve_hit, 9, "{}", kind.label());
            if kind == PolicyKind::HstHedge {
                assert!(c.node_visits > 0, "hedge must visit nodes");
                assert!(
                    c.cache_hits >= 13,
                    "all but the first serve reuse the cached distribution"
                );
            }
            if matches!(kind, PolicyKind::SminGradient | PolicyKind::HstHedge) {
                assert_eq!(c.coupling_follows, 14, "one follow per served task");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn serve_hit_rejects_bad_index() {
        let mut p = Sitter { n: 3, s: 0 };
        let _ = p.serve_hit(3);
    }
}
