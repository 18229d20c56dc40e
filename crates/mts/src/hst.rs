//! Hierarchical multiplicative weights with phase resets, on a flat
//! arena.
//!
//! This is the documented substitution (DESIGN.md §1) for the
//! Bubeck–Cohen–Lee–Lee mirror-descent MTS algorithm \[25\] that the
//! paper invokes as a black box: a randomized policy over a hierarchy
//! of the line whose structure mirrors the classical HST-recursion
//! approach to MTS (Bartal–Blum–Burch–Tomkins \[22\], Fiat–Mendel
//! \[23\]).
//!
//! Structure: a balanced tree over the `N` line states with branching
//! factor up to [`MAX_ARITY`] (near-equal splits). Every internal node
//! — a *family* — runs Hedge (multiplicative weights) over its
//! children with learning rate `1/Δ`, where `Δ` is the family's span
//! (its subtree diameter in the line metric). The leaf distribution is
//! the product of conditional child probabilities along root→leaf
//! paths. Each family tracks the cumulative cost charged to each child
//! during the current *phase*; when every child has accumulated ≥ Δ
//! the family resets its weights (phase end). Phases are what make the
//! policy adaptive to a moving optimum: within a phase the family
//! behaves like a static-expert Hedge, and a phase only ends once
//! *any* strategy confined to the subtree has paid Ω(Δ) — the standard
//! amortization that converts static competitiveness into dynamic
//! competitiveness.
//!
//! ## Data-oriented layout (DESIGN.md §14)
//!
//! The hierarchy lives in a **flat arena** in BFS order: parallel
//! `Vec<u32>` topology tables (`lo`/`hi`/`parent`/`child_start`/
//! `child_count`) built once at construction, and parallel `Vec<f64>`
//! live state (`log_w`/`phase_cost`) plus the write-through
//! conditional-probability cache `cond`, all indexed by arena node.
//! BFS order gives two invariants the serve paths lean on: a node's
//! children occupy the contiguous index range
//! `child_start..child_start + child_count` (a family's Hedge lanes
//! are adjacent in memory, so the softmax runs over one small slice),
//! and parents precede children (forward iteration is top-down,
//! reverse iteration is bottom-up — no recursion, no pointer chasing).
//!
//! Per-family lane costs are the *conditional* expected costs
//! `E[cost | child subtree]`, computed bottom-up as
//! `val(c) = Σ_d cond(d)·val(d)` — no global leaf distribution and no
//! mass division needed. A one-hot task zeroes `val` everywhere off
//! the hit leaf's root→leaf path, so [`HstHedge::serve_hit`] is a
//! branch-light leaf→root walk over `O(levels)` families that is
//! bit-identical to the full vector pass (IEEE: `x + 0.0 = x` and
//! `x - 1/Δ·0.0 = x` for the never-negative-zero accumulators used
//! here). The realized state follows the leaf distribution through an
//! inverse-CDF coupling *descended through the tree* (one quantile
//! step per family, mirroring [`Distribution::quantile_of`] lane by
//! lane), so a serve never materializes the `O(N)` leaf distribution;
//! expected realized movement still equals the distribution's
//! Wasserstein drift.
//!
//! The explicit leaf distribution survives only as a
//! generation-stamped cache for [`HstHedge::leaf_distribution`]
//! (tests, ablations): `gen` advances whenever any weight changes and
//! the cached array is recomputed only when its stamp is stale.

use std::cell::{Cell, RefCell};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use rdbp_smin::{Distribution, QuantileCoupling};

use serde::{DeError, Deserialize, Serialize, Value};

use crate::policy::{
    coupling_from_value, coupling_to_value, validate_costs, MtsPolicy, PolicyCounters,
};

/// Maximum children per family (the near-equal split uses
/// `min(MAX_ARITY, width)` lanes). Four keeps the tree shallow — for
/// the pinned `k′ = 48` interval size the root→leaf path crosses 3
/// families instead of the binary tree's 6 — while a family's lane
/// slice still fits one cache line.
const MAX_ARITY: usize = 4;

/// `parent` sentinel for the root.
const NO_PARENT: u32 = u32::MAX;

/// Randomized hierarchical-Hedge MTS policy on the line (see module
/// docs).
#[derive(Debug)]
pub struct HstHedge {
    // --- immutable arena topology (BFS order; built once) ---
    /// Subtree state range `[lo, hi)` per node.
    lo: Vec<u32>,
    hi: Vec<u32>,
    /// Parent arena index ([`NO_PARENT`] for the root).
    parent: Vec<u32>,
    /// First child's arena index (children are contiguous).
    child_start: Vec<u32>,
    /// Number of children (0 = leaf).
    child_count: Vec<u32>,
    /// `leaf_of_state[s]` = arena index of the width-1 node for state
    /// `s` — the entry point of the `serve_hit` leaf→root walk.
    leaf_of_state: Vec<u32>,
    /// Tree depth in levels (a root-only tree has 1).
    levels: u32,
    num_states: usize,
    // --- live state (parallel arrays, indexed by arena node; an
    // entry is the node's Hedge lane within its parent family — the
    // root entries are unused and stay 0.0) ---
    /// Log-domain Hedge weights.
    log_w: Vec<f64>,
    /// Per-phase accumulated expected cost.
    phase_cost: Vec<f64>,
    // --- caches ---
    /// Write-through conditional-probability cache:
    /// `cond[i] = P(node i | parent(i))`, the softmax of the parent
    /// family's lane weights (`cond[root] = 1.0`). Updated in place
    /// whenever a family's weights change, so a serve never rebuilds
    /// probabilities for untouched families.
    cond: Vec<f64>,
    /// Weight generation: advances whenever any `log_w` changes.
    gen: u64,
    /// Generation-stamped leaf-distribution cache (lazy; only
    /// [`HstHedge::leaf_distribution`] reads it, so it lives behind
    /// interior mutability and never touches the serve paths).
    probs: RefCell<Vec<f64>>,
    /// The `gen` the cached `probs` were computed at.
    probs_gen: Cell<u64>,
    /// Scratch: bottom-up conditional expected costs (aligned with the
    /// arena; vector-serve path only).
    val: Vec<f64>,
    coupling: QuantileCoupling,
    rng: StdRng,
    /// Work counters (transient, never snapshotted): serves by task
    /// shape, families whose weights were actually updated, and serves
    /// that reused the write-through conditional-probability cache.
    serves: u64,
    hits: u64,
    node_visits: u64,
    cache_hits: u64,
}

impl HstHedge {
    /// Creates the policy over `num_states` line states starting at
    /// `initial`.
    ///
    /// # Panics
    /// Panics if `num_states == 0` or `initial >= num_states`.
    #[must_use]
    pub fn new(num_states: usize, initial: usize, seed: u64) -> Self {
        assert!(num_states > 0, "need at least one state");
        assert!(initial < num_states, "initial state out of range");
        let arena = build_arena(num_states);
        let n_nodes = arena.lo.len();
        let mut cond = vec![0.0; n_nodes];
        cond[0] = 1.0;
        let log_w = vec![0.0; n_nodes];
        for i in 0..n_nodes {
            let cc = arena.child_count[i] as usize;
            if cc > 0 {
                refresh_family_cond(&log_w, &mut cond, arena.child_start[i] as usize, cc);
            }
        }
        let mut policy = Self {
            lo: arena.lo,
            hi: arena.hi,
            parent: arena.parent,
            child_start: arena.child_start,
            child_count: arena.child_count,
            leaf_of_state: arena.leaf_of_state,
            levels: arena.levels,
            num_states,
            log_w,
            phase_cost: vec![0.0; n_nodes],
            cond,
            gen: 1,
            probs: RefCell::new(vec![0.0; num_states]),
            probs_gen: Cell::new(0),
            val: vec![0.0; n_nodes],
            // Placeholder; replaced right below once the distribution
            // exists.
            coupling: QuantileCoupling::with_u(&Distribution::uniform(num_states.max(1)), 0.5),
            rng: StdRng::seed_from_u64(seed),
            serves: 0,
            hits: 0,
            node_visits: 0,
            cache_hits: 0,
        };
        let dist = policy.leaf_distribution();
        // Draw u uniformly inside initial's quantile block, so the
        // realized initial state is `initial` while u stays random
        // within the block (see the same note in `SminGradient::new`).
        let mut cdf = 0.0;
        for i in 0..initial {
            cdf += dist.prob(i);
        }
        let jitter: f64 = policy.rng.random::<f64>().max(1e-9);
        let u = (cdf + jitter * dist.prob(initial)).clamp(1e-12, 1.0 - 1e-12);
        policy.coupling = QuantileCoupling::with_u(&dist, u);
        debug_assert_eq!(policy.coupling.state(), initial);
        policy
    }

    /// The current leaf distribution (product of conditional Hedge
    /// probabilities along root→leaf paths), served from the
    /// generation-stamped cache when the weights have not changed since
    /// the last call.
    #[must_use]
    pub fn leaf_distribution(&self) -> Distribution {
        if self.num_states == 1 {
            return Distribution::point(0, 1);
        }
        if self.probs_gen.get() != self.gen {
            self.compute_leaf_probs(&mut self.probs.borrow_mut());
            self.probs_gen.set(self.gen);
        }
        Distribution::new(self.probs.borrow().clone())
    }

    /// Number of levels in the hierarchy (1 for a single state). The
    /// `serve_hit` walk touches at most `hst_levels() - 1` families.
    #[must_use]
    pub fn hst_levels(&self) -> u32 {
        self.levels
    }

    /// Debug accessor: the state ranges `[lo, hi)` of the families a
    /// `serve_hit(state)` walk updates, in walk (leaf→root) order,
    /// ignoring the zero-cost early break. The differential proptests
    /// compare this against an independently built reference pointer
    /// tree, node for node and in order.
    ///
    /// # Panics
    /// Panics if `state >= num_states`.
    #[must_use]
    pub fn hit_path(&self, state: usize) -> Vec<(u32, u32)> {
        assert!(state < self.num_states, "state out of range");
        let mut path = Vec::with_capacity(self.levels as usize);
        let mut node = self.leaf_of_state[state] as usize;
        while self.parent[node] != NO_PARENT {
            let family = self.parent[node] as usize;
            path.push((self.lo[family], self.hi[family]));
            node = family;
        }
        path
    }

    /// Writes the normalized leaf distribution into `out` (top-down
    /// product of conditionals, normalized exactly as
    /// [`Distribution::new`] would).
    fn compute_leaf_probs(&self, out: &mut [f64]) {
        let n_nodes = self.lo.len();
        let mut node_prob = vec![0.0f64; n_nodes];
        for i in 0..n_nodes {
            let p = if self.parent[i] == NO_PARENT {
                1.0
            } else {
                node_prob[self.parent[i] as usize] * self.cond[i]
            };
            node_prob[i] = p;
            if self.child_count[i] == 0 {
                out[self.lo[i] as usize] = p;
            }
        }
        let sum: f64 = out.iter().sum();
        for q in out.iter_mut() {
            *q /= sum;
        }
    }

    /// Charges the per-lane costs to `family` — the single shared
    /// update both serve paths funnel through: Hedge weight step with
    /// `η = 1/Δ`, phase accounting, phase reset once every lane has
    /// suffered ≥ Δ, and the write-through refresh of the family's
    /// slice of the conditional-probability cache.
    ///
    /// Callers have already established that some lane cost is nonzero
    /// (zero-cost lanes are IEEE no-ops on the accumulators, so a
    /// family with all-zero costs is skipped without touching the
    /// cache).
    fn update_family(&mut self, family: usize, lane_costs: &[f64]) {
        let cs = self.child_start[family] as usize;
        let cc = self.child_count[family] as usize;
        debug_assert_eq!(lane_costs.len(), cc);
        let span = f64::from(self.hi[family] - self.lo[family]);
        let eta = 1.0 / span;
        for (lane, &cost) in (cs..cs + cc).zip(lane_costs) {
            self.log_w[lane] -= eta * cost;
            self.phase_cost[lane] += cost;
        }
        // Phase end: every child has suffered ≥ span — any strategy
        // inside this subtree paid Ω(span); forgive the past.
        if self.phase_cost[cs..cs + cc].iter().all(|&p| p >= span) {
            self.log_w[cs..cs + cc].fill(0.0);
            self.phase_cost[cs..cs + cc].fill(0.0);
        }
        refresh_family_cond(&self.log_w, &mut self.cond, cs, cc);
    }

    /// The cost-vector serve body: one bottom-up sweep computing the
    /// conditional expected cost of every subtree, then an independent
    /// Hedge update per family that carries cost. Reverse BFS order is
    /// a valid bottom-up order (parents precede children), and all
    /// `val` reads use the pre-update `cond` — the property the
    /// `serve_hit` walk's old-cond read reproduces.
    fn serve_vector_body(&mut self, costs: &[f64]) -> usize {
        self.cache_hits += 1;
        let mut val = std::mem::take(&mut self.val);
        let n_nodes = self.lo.len();
        for i in (0..n_nodes).rev() {
            let cc = self.child_count[i] as usize;
            val[i] = if cc == 0 {
                costs[self.lo[i] as usize]
            } else {
                let cs = self.child_start[i] as usize;
                (cs..cs + cc).map(|c| self.cond[c] * val[c]).sum()
            };
        }
        let mut touched = false;
        for i in (0..n_nodes).rev() {
            let cc = self.child_count[i] as usize;
            if cc == 0 {
                continue;
            }
            let cs = self.child_start[i] as usize;
            if val[cs..cs + cc].iter().all(|&c| c == 0.0) {
                continue;
            }
            self.node_visits += 1;
            touched = true;
            let mut lanes = [0.0f64; MAX_ARITY];
            lanes[..cc].copy_from_slice(&val[cs..cs + cc]);
            self.update_family(i, &lanes[..cc]);
        }
        if touched {
            self.gen = self.gen.wrapping_add(1);
        }
        self.val = val;
        self.descend_and_follow()
    }

    /// The one-hot serve body: a leaf→root walk over the hit's path.
    ///
    /// For a unit task every off-path subtree has conditional expected
    /// cost exactly `0.0` (sums of products of zeros), so the vector
    /// pass above degenerates to: path families see one nonzero lane
    /// carrying `val`, everything else is skipped. `val` propagates as
    /// `cond(child)·val` read **before** the family update — the
    /// vector pass computes every `val` from the pre-update cache —
    /// and once it underflows to `0.0` all remaining ancestors would
    /// see all-zero lanes, so the walk stops. `O(levels)` work, bit
    /// for bit the trajectory of the `O(N)` pass (pinned by
    /// `serve_hit_equals_one_hot_serve_for_every_policy` and the
    /// arena-walk proptests).
    fn serve_hit_body(&mut self, index: usize) -> usize {
        self.cache_hits += 1;
        let mut node = self.leaf_of_state[index] as usize;
        let mut val = 1.0f64;
        let mut touched = false;
        while self.parent[node] != NO_PARENT && val != 0.0 {
            let family = self.parent[node] as usize;
            let next_val = self.cond[node] * val;
            let cs = self.child_start[family] as usize;
            let cc = self.child_count[family] as usize;
            let mut lanes = [0.0f64; MAX_ARITY];
            lanes[node - cs] = val;
            self.node_visits += 1;
            touched = true;
            self.update_family(family, &lanes[..cc]);
            val = next_val;
            node = family;
        }
        if touched {
            self.gen = self.gen.wrapping_add(1);
        }
        self.descend_and_follow()
    }

    /// Realizes the coupling's state by descending the hierarchy: one
    /// inverse-CDF step per family over its (contiguous) lane slice of
    /// the conditional cache, rescaling the residual quantile into the
    /// chosen child's block. Each step mirrors
    /// [`Distribution::quantile_of`] exactly — positive-probability
    /// lanes only, with the same last-positive fallback when the lane
    /// CDF falls short of `u` by floating-point shortfall — so the
    /// walk is monotone in `u` and the coupling remains an optimal
    /// transport along the leaf order.
    fn descend_and_follow(&mut self) -> usize {
        let mut u = self.coupling.u();
        let mut node = 0usize;
        while self.child_count[node] != 0 {
            let cs = self.child_start[node] as usize;
            let cc = self.child_count[node] as usize;
            let mut cdf = 0.0f64;
            let mut last_positive = cs;
            let mut chosen = usize::MAX;
            for c in cs..cs + cc {
                let p = self.cond[c];
                if p > 0.0 {
                    last_positive = c;
                }
                cdf += p;
                if cdf >= u && p > 0.0 {
                    chosen = c;
                    u = ((u - (cdf - p)) / p).clamp(0.0, 1.0);
                    break;
                }
            }
            if chosen == usize::MAX {
                // The family's lane CDF fell short of u (softmax sums
                // to 1 only up to rounding): take the last positive
                // lane, pinned to its upper quantile edge — exactly
                // `quantile_of`'s fallback. The softmax guarantees at
                // least one positive lane (the max-weight lane).
                chosen = last_positive;
                u = 1.0;
            }
            node = chosen;
        }
        let state = self.lo[node] as usize;
        self.coupling.follow_to(state);
        state
    }
}

/// The arena topology tables, in BFS order.
struct Arena {
    lo: Vec<u32>,
    hi: Vec<u32>,
    parent: Vec<u32>,
    child_start: Vec<u32>,
    child_count: Vec<u32>,
    leaf_of_state: Vec<u32>,
    levels: u32,
}

/// Builds the hierarchy over `[0, n)` in BFS order: node 0 is the
/// root, every node's children are contiguous, and parents precede
/// children. Internal nodes split into `min(MAX_ARITY, width)`
/// near-equal parts (the first `width % arity` parts get the extra
/// state), so e.g. 48 states level out as 48 → 12 → 3 → 1 with a
/// uniform initial leaf distribution.
fn build_arena(n: usize) -> Arena {
    let n32 = u32::try_from(n).expect("state count fits u32");
    let mut lo = vec![0u32];
    let mut hi = vec![n32];
    let mut parent = vec![NO_PARENT];
    let mut depth = vec![0u32];
    let mut child_start = Vec::new();
    let mut child_count = Vec::new();
    let mut leaf_of_state = vec![0u32; n];
    let mut levels = 1;
    let mut i = 0;
    while i < lo.len() {
        let width = (hi[i] - lo[i]) as usize;
        if width >= 2 {
            let arity = width.min(MAX_ARITY);
            child_start.push(u32::try_from(lo.len()).expect("arena fits u32"));
            child_count.push(arity as u32);
            let base = width / arity;
            let rem = width % arity;
            let mut cursor = lo[i];
            for j in 0..arity {
                let size = (base + usize::from(j < rem)) as u32;
                lo.push(cursor);
                hi.push(cursor + size);
                parent.push(i as u32);
                depth.push(depth[i] + 1);
                levels = levels.max(depth[i] + 2);
                cursor += size;
            }
            debug_assert_eq!(cursor, hi[i], "children must tile the parent");
        } else {
            child_start.push(0);
            child_count.push(0);
            leaf_of_state[lo[i] as usize] = i as u32;
        }
        i += 1;
    }
    Arena {
        lo,
        hi,
        parent,
        child_start,
        child_count,
        leaf_of_state,
        levels,
    }
}

/// Recomputes one family's slice of the conditional-probability cache:
/// `cond[cs..cs+cc] = softmax(log_w[cs..cs+cc])`, max-shifted for
/// stability. The single softmax shared by construction, both serve
/// paths and snapshot restore — any two code paths that land on the
/// same weights produce bit-identical conditionals.
fn refresh_family_cond(log_w: &[f64], cond: &mut [f64], cs: usize, cc: usize) {
    debug_assert!(cc <= MAX_ARITY);
    let lanes = &log_w[cs..cs + cc];
    let mut top = f64::NEG_INFINITY;
    for &w in lanes {
        top = top.max(w);
    }
    let mut exp = [0.0f64; MAX_ARITY];
    let mut sum = 0.0;
    for (e, &w) in exp[..cc].iter_mut().zip(lanes) {
        *e = (w - top).exp();
        sum += *e;
    }
    for (c, &e) in cond[cs..cs + cc].iter_mut().zip(&exp[..cc]) {
        *c = e / sum;
    }
}

impl MtsPolicy for HstHedge {
    fn num_states(&self) -> usize {
        self.num_states
    }

    fn state(&self) -> usize {
        self.coupling.state()
    }

    fn serve(&mut self, costs: &[f64]) -> usize {
        validate_costs(costs, self.num_states);
        self.serves += 1;
        if self.num_states == 1 {
            return 0;
        }
        self.serve_vector_body(costs)
    }

    fn serve_hit(&mut self, index: usize) -> usize {
        assert!(
            index < self.num_states,
            "hit index {index} out of range 0..{}",
            self.num_states
        );
        self.hits += 1;
        if self.num_states == 1 {
            return 0;
        }
        self.serve_hit_body(index)
    }

    fn name(&self) -> &'static str {
        "hst-hedge"
    }

    // The arena topology is construction-derived from `num_states`;
    // only the flat Hedge weights and phase accumulators are live
    // state, plus the coupling and RNG. `probs_fresh` rides along so a
    // restored policy performs exactly the work the uninterrupted one
    // would: whether `leaf_distribution` may reuse the cached array is
    // part of the state, and dropping it would make a live-migrated
    // session recompute (or skip recomputing) the distribution where
    // its unmigrated twin would not — the "one cache hit per restore"
    // drift the snapshot round-trip tests pin down.
    fn export_state(&self) -> Option<Value> {
        Some(Value::Obj(vec![
            ("log_w".into(), self.log_w.to_value()),
            ("phase_cost".into(), self.phase_cost.to_value()),
            ("coupling".into(), coupling_to_value(&self.coupling)),
            ("rng".into(), self.rng.to_value()),
            (
                "probs_fresh".into(),
                (self.probs_gen.get() == self.gen).to_value(),
            ),
        ]))
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), DeError> {
        let log_w = <Vec<f64> as Deserialize>::from_value(state.get_field("log_w")?)?;
        let phase = <Vec<f64> as Deserialize>::from_value(state.get_field("phase_cost")?)?;
        let n_nodes = self.lo.len();
        if log_w.len() != n_nodes || phase.len() != n_nodes {
            return Err(DeError(format!(
                "arena length mismatch: snapshot has {}/{} entries, arena has {n_nodes}",
                log_w.len(),
                phase.len(),
            )));
        }
        let coupling = coupling_from_value(state.get_field("coupling")?, self.num_states)?;
        let probs_fresh = bool::from_value(state.get_field("probs_fresh")?)?;
        self.rng = StdRng::from_value(state.get_field("rng")?)?;
        self.coupling = coupling;
        self.log_w = log_w;
        self.phase_cost = phase;
        // Rebuild the write-through conditional cache for the restored
        // weights (bit-identical: the same shared softmax the serve
        // paths use), then honor the snapshot's leaf-cache freshness.
        for i in 0..n_nodes {
            let cc = self.child_count[i] as usize;
            if cc > 0 {
                refresh_family_cond(
                    &self.log_w,
                    &mut self.cond,
                    self.child_start[i] as usize,
                    cc,
                );
            }
        }
        self.gen = 1;
        if probs_fresh {
            if self.num_states > 1 {
                self.compute_leaf_probs(&mut self.probs.borrow_mut());
            }
            self.probs_gen.set(self.gen);
        } else {
            self.probs_gen.set(0);
        }
        Ok(())
    }

    fn work_counters(&self) -> PolicyCounters {
        PolicyCounters {
            serve_vector: self.serves,
            serve_hit: self.hits,
            node_visits: self.node_visits,
            cache_hits: self.cache_hits,
            coupling_follows: self.coupling.follows(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(n: usize, i: usize) -> Vec<f64> {
        let mut v = vec![0.0; n];
        v[i] = 1.0;
        v
    }

    #[test]
    fn starts_at_requested_state() {
        for n in [1usize, 2, 3, 7, 16, 31] {
            for init in [0, n / 2, n - 1] {
                let p = HstHedge::new(n, init, 5);
                assert_eq!(p.state(), init, "n={n} init={init}");
            }
        }
    }

    #[test]
    fn initial_distribution_is_dyadic_uniformish() {
        // 8 states split 8 → 4 × 2 → 2 × 1: every leaf is the product
        // of one fair 4-way and one fair 2-way choice, so the initial
        // distribution is exactly uniform.
        let p = HstHedge::new(8, 0, 1);
        let d = p.leaf_distribution();
        for i in 0..8 {
            assert!((d.prob(i) - 0.125).abs() < 1e-9);
        }
    }

    #[test]
    fn arena_invariants_hold_across_sizes() {
        for n in [1usize, 2, 3, 5, 8, 13, 31, 48, 100] {
            let p = HstHedge::new(n, 0, 7);
            let nodes = p.lo.len();
            assert_eq!(p.lo[0], 0);
            assert_eq!(p.hi[0] as usize, n);
            assert_eq!(p.parent[0], NO_PARENT);
            for i in 0..nodes {
                assert!(p.lo[i] < p.hi[i], "n={n}: empty node {i}");
                let cc = p.child_count[i] as usize;
                if cc == 0 {
                    assert_eq!(p.hi[i] - p.lo[i], 1, "n={n}: wide leaf {i}");
                    continue;
                }
                // Children are contiguous, tile the parent, and come
                // after it (BFS).
                let cs = p.child_start[i] as usize;
                assert!(cs > i, "n={n}: child before parent");
                let mut cursor = p.lo[i];
                for c in cs..cs + cc {
                    assert_eq!(p.parent[c] as usize, i);
                    assert_eq!(p.lo[c], cursor);
                    cursor = p.hi[c];
                }
                assert_eq!(cursor, p.hi[i], "n={n}: children must tile node {i}");
            }
            for s in 0..n {
                let leaf = p.leaf_of_state[s] as usize;
                assert_eq!(p.lo[leaf] as usize, s);
                assert_eq!(p.child_count[leaf], 0);
            }
            assert!(p.hst_levels() >= 1);
        }
    }

    #[test]
    fn quaternary_tree_is_shallow() {
        // The data-oriented redesign's point: 48 states (the pinned
        // dynamic×hedge interval size) level out as 48 → 12 → 3 → 1,
        // so a hit walk crosses at most 3 families — half the binary
        // tree's 6.
        let p = HstHedge::new(48, 0, 1);
        assert_eq!(p.hst_levels(), 4);
        let mut q = HstHedge::new(48, 24, 1);
        let visits_before = q.node_visits;
        let _ = q.serve_hit(10);
        assert!(q.node_visits - visits_before <= 3);
    }

    #[test]
    fn mass_drains_from_hammered_state() {
        let n = 16;
        let mut p = HstHedge::new(n, 5, 2);
        let before = p.leaf_distribution().prob(5);
        for _ in 0..60 {
            p.serve(&unit(n, 5));
        }
        let after = p.leaf_distribution().prob(5);
        assert!(
            after < before / 2.0,
            "mass should drain: {before} -> {after}"
        );
    }

    #[test]
    fn phase_reset_forgives_history() {
        // Hammer left half until phases cycle, then hammer right half;
        // the policy should recover mass on the left.
        let n = 8;
        let mut p = HstHedge::new(n, 0, 3);
        let left_heavy: Vec<f64> = (0..n).map(|i| if i < 4 { 1.0 } else { 0.0 }).collect();
        let right_heavy: Vec<f64> = (0..n).map(|i| if i >= 4 { 1.0 } else { 0.0 }).collect();
        for _ in 0..200 {
            p.serve(&left_heavy);
        }
        let after_left: f64 = (0..4).map(|i| p.leaf_distribution().prob(i)).sum();
        for _ in 0..200 {
            p.serve(&right_heavy);
        }
        let recovered: f64 = (0..4).map(|i| p.leaf_distribution().prob(i)).sum();
        assert!(
            after_left < 0.2,
            "left mass should be tiny, got {after_left}"
        );
        assert!(recovered > 0.8, "left mass should recover, got {recovered}");
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let n = 12;
        let run = |seed: u64| {
            let mut p = HstHedge::new(n, 6, seed);
            (0..80)
                .map(|t| p.serve(&unit(n, (t * 5) % n)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(4), run(4));
    }

    #[test]
    fn single_state_is_trivial() {
        let mut p = HstHedge::new(1, 0, 0);
        assert_eq!(p.serve(&[3.0]), 0);
        assert_eq!(p.num_states(), 1);
        assert_eq!(p.hst_levels(), 1);
    }

    #[test]
    fn leaf_distribution_cache_is_generation_stamped() {
        let n = 16;
        let mut p = HstHedge::new(n, 5, 2);
        let _ = p.leaf_distribution();
        let stamped = p.probs_gen.get();
        // Re-reading without serving reuses the cache (stamp stable).
        let _ = p.leaf_distribution();
        assert_eq!(p.probs_gen.get(), stamped);
        // A serve that charges cost advances the generation and the
        // next read recomputes under the new stamp.
        p.serve(&unit(n, 5));
        assert_ne!(p.gen, stamped);
        let _ = p.leaf_distribution();
        assert_eq!(p.probs_gen.get(), p.gen);
        // An all-zero task changes no weight: same generation, cache
        // still fresh.
        let gen = p.gen;
        p.serve(&vec![0.0; n]);
        assert_eq!(p.gen, gen);
    }

    #[test]
    fn oblivious_round_robin_tracks_offline_optimum() {
        // Oblivious adversary (adaptive chasers void randomized
        // guarantees): hammer states round-robin. OPT pays ≈ T/N by
        // sitting anywhere; the hedge should stay within a polylog
        // factor plus the usual additive diameter·log term.
        let n = 32;
        let mut p = HstHedge::new(n, 16, 9);
        let steps = 60 * n;
        let tasks: Vec<Vec<f64>> = (0..steps).map(|t| unit(n, t % n)).collect();
        let mut total = 0.0;
        for task in &tasks {
            let cur = p.state();
            let next = p.serve(task);
            total += task[next] + cur.abs_diff(next) as f64;
        }
        let opt = crate::offline::optimum(n, 16, &tasks);
        let logn = (n as f64).ln();
        let budget = 8.0 * logn * logn * opt + 4.0 * n as f64 * logn;
        assert!(
            total <= budget,
            "hedge paid {total}, opt {opt}, budget {budget}"
        );
    }
}
