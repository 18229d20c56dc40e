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
//! The hierarchy lives in a **flat arena** in BFS order. Its topology —
//! parallel `Vec<u32>` columns `lo`/`hi`/`parent`/`child_start`/
//! `child_count`/`leaf_of_state`, plus each family's learning rate
//! `eta` — is immutable and depends only on `N`, so it lives in one
//! [`HstTree`] that every policy over `N` states shares through an
//! `Arc` (a partitioner's ℓ′ interval policies hold one copy, not ℓ′).
//! Each policy owns only its live state:
//! parallel `Vec<f64>` columns `log_w`/`phase_cost`, the
//! write-through conditional-probability cache `cond`, and the
//! softmax's exp cache `ex`/`top`, all indexed by arena node. Every
//! policy starts from the same live state (zero weights), so the tree
//! computes it once, with its leaf distribution, and a new policy
//! copies it; only the seeded draw of the coupling is per policy.
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
//! ## The incremental softmax
//!
//! A family's conditionals are `cond = ex / Σ ex` with
//! `ex[lane] = exp(log_w[lane] − top)` and `top` the family's largest
//! lane weight. Both are cached, so a hit walk's one-hot charge — one
//! lane's weight falls, its siblings' stay — recomputes only that
//! lane's `exp` when `top` is unchanged, then re-sums and re-divides
//! the family's lanes in lane order. A changed `top`, a phase reset,
//! the cost-vector path and [`MtsPolicy::restore_state`] recompute the
//! whole family. A lane at the max gets exactly `1.0` (`exp(+0)`)
//! without an `exp` call. Every path therefore produces the bits the
//! full per-family softmax produces (pinned by
//! `incremental_softmax_matches_full_refresh`).
//!
//! The explicit leaf distribution survives only as a
//! generation-stamped cache for [`HstHedge::leaf_distribution`]
//! (tests, ablations): `gen` advances whenever any weight changes and
//! the cached array is recomputed only when its stamp is stale.

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use rdbp_smin::{Distribution, QuantileCoupling};

use serde::{DeError, Deserialize, Serialize, Value};

use crate::policy::{
    coupling_from_value, coupling_to_value, validate_costs, MtsPolicy, PolicyCounters,
};

/// Maximum children per family (the near-equal split uses
/// `min(MAX_ARITY, width)` lanes). Four keeps the tree shallow — a
/// root→leaf path crosses at most 3 families at `k′ = 48`, 4 at 96 and
/// 5 at 384 (the three benchmark workloads' interval sizes), where a
/// binary tree crosses 6, 7 and 9 — while a family's lane slice still
/// fits one cache line.
const MAX_ARITY: usize = 4;

/// `parent` sentinel for the root.
const NO_PARENT: u32 = u32::MAX;

/// The immutable hierarchy over `num_states` line states: the arena
/// topology columns in BFS order. It depends only on the state count,
/// so policies over equally many states share one copy
/// ([`crate::PolicyKind::build_many`]).
#[derive(Debug)]
pub(crate) struct HstTree {
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
    /// Per family: the Hedge learning rate `η = 1/Δ` (leaves unused).
    eta: Vec<f64>,
    /// Tree depth in levels (a root-only tree has 1).
    levels: u32,
    /// The live state every policy on this tree starts from.
    start: Start,
}

impl HstTree {
    /// Builds the hierarchy over `[0, n)` in BFS order: node 0 is the
    /// root, every node's children are contiguous, and parents precede
    /// children. Internal nodes split into `min(MAX_ARITY, width)`
    /// near-equal parts (the first `width % arity` parts get the extra
    /// state), so e.g. 48 states level out as 48 → 12 → 3 → 1 with a
    /// uniform initial leaf distribution.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub(crate) fn new(n: usize) -> Self {
        assert!(n > 0, "need at least one state");
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
        let eta = lo
            .iter()
            .zip(&hi)
            .map(|(&l, &h)| 1.0 / f64::from(h - l))
            .collect();
        let mut tree = Self {
            lo,
            hi,
            parent,
            child_start,
            child_count,
            leaf_of_state,
            eta,
            levels,
            start: Start::default(),
        };
        tree.start = Start::new(&tree);
        tree
    }

    fn num_nodes(&self) -> usize {
        self.lo.len()
    }

    fn num_states(&self) -> usize {
        self.leaf_of_state.len()
    }

    /// `family`'s lanes: its children's arena index range.
    fn lanes(&self, family: usize) -> std::ops::Range<usize> {
        let cs = self.child_start[family] as usize;
        cs..cs + self.child_count[family] as usize
    }

    /// `family`'s span `Δ`: its subtree's width in states.
    fn span(&self, family: usize) -> f64 {
        f64::from(self.hi[family] - self.lo[family])
    }

    /// Writes the normalized leaf distribution of the conditionals
    /// `cond` into `out` (top-down product of conditionals, normalized
    /// exactly as [`Distribution::new`] would).
    fn leaf_probs(&self, cond: &[f64], out: &mut [f64]) {
        let n_nodes = self.num_nodes();
        let mut node_prob = vec![0.0f64; n_nodes];
        for i in 0..n_nodes {
            let p = if self.parent[i] == NO_PARENT {
                1.0
            } else {
                node_prob[self.parent[i] as usize] * cond[i]
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
}

/// A policy's live state before its first serve: zero weights and
/// phase costs with fresh caches, and the leaf distribution they give.
/// It depends only on the tree, so [`HstTree::new`] computes it once and
/// [`HstHedge::on_tree`] copies it.
#[derive(Debug, Default)]
struct Start {
    lanes: Lanes,
    /// The leaf-distribution cache for `lanes`: what
    /// [`HstTree::leaf_probs`] writes, fresh at generation 1. A single
    /// state has no such cache (its buffer stays zero and stale).
    probs: Vec<f64>,
    /// The probabilities of the [`Distribution`] that
    /// [`HstHedge::leaf_distribution`] returns for `lanes`: `probs`
    /// re-normalized, or the point mass on a single state.
    dist: Vec<f64>,
}

impl Start {
    fn new(tree: &HstTree) -> Self {
        let lanes = Lanes::new(tree);
        let mut probs = vec![0.0; tree.num_states()];
        let dist = if tree.num_states() == 1 {
            Distribution::point(0, 1)
        } else {
            tree.leaf_probs(&lanes.cond, &mut probs);
            Distribution::new(probs.clone())
        };
        Self {
            lanes,
            probs,
            dist: dist.probs().to_vec(),
        }
    }
}

/// A policy's live Hedge state, one entry per arena node: the node's
/// lane within its parent family (root entries are unused; `cond` of
/// the root is 1.0).
#[derive(Debug, Clone, Default)]
struct Lanes {
    /// Log-domain Hedge weights.
    log_w: Vec<f64>,
    /// Per-phase accumulated expected cost.
    phase_cost: Vec<f64>,
    /// Exp cache: `ex[i] = exp(log_w[i] − top[parent(i)])`.
    ex: Vec<f64>,
    /// Per family (internal nodes only): the largest lane weight, the
    /// shift `ex` was computed against.
    top: Vec<f64>,
    /// Write-through conditional-probability cache:
    /// `cond[i] = P(node i | parent(i))`, the softmax of the parent
    /// family's lane weights. Updated in place whenever a family's
    /// weights change, so a serve never rebuilds probabilities for
    /// untouched families.
    cond: Vec<f64>,
}

impl Lanes {
    /// All-zero weights and phase costs, every family's caches fresh.
    fn new(tree: &HstTree) -> Self {
        let n_nodes = tree.num_nodes();
        let mut lanes = Self {
            log_w: vec![0.0; n_nodes],
            phase_cost: vec![0.0; n_nodes],
            ex: vec![0.0; n_nodes],
            top: vec![0.0; n_nodes],
            cond: vec![0.0; n_nodes],
        };
        lanes.cond[0] = 1.0;
        lanes.refresh_all(tree);
        lanes
    }

    /// Full refresh of every family (construction and restore).
    fn refresh_all(&mut self, tree: &HstTree) {
        for family in 0..tree.num_nodes() {
            if tree.child_count[family] > 0 {
                self.refresh(family, tree.lanes(family));
            }
        }
    }

    /// Full refresh of one family: `top` from its lane weights, every
    /// lane's `ex`, then `cond`.
    fn refresh(&mut self, family: usize, lanes: std::ops::Range<usize>) {
        let top = self.max_weight(lanes.clone());
        self.refresh_from(family, lanes, top);
    }

    /// The largest of `lanes`' weights.
    fn max_weight(&self, lanes: std::ops::Range<usize>) -> f64 {
        let mut top = f64::NEG_INFINITY;
        for &w in &self.log_w[lanes] {
            top = top.max(w);
        }
        top
    }

    /// [`Self::refresh`] with the family's max `top` already known.
    fn refresh_from(&mut self, family: usize, lanes: std::ops::Range<usize>, top: f64) {
        debug_assert!(lanes.len() <= MAX_ARITY);
        self.top[family] = top;
        for (e, &w) in self.ex[lanes.clone()]
            .iter_mut()
            .zip(&self.log_w[lanes.clone()])
        {
            *e = shifted_exp(w, top);
        }
        self.normalize(lanes);
    }

    /// `cond = ex / Σ ex` over one family, summed in lane order.
    fn normalize(&mut self, lanes: std::ops::Range<usize>) {
        let ex = &self.ex[lanes.clone()];
        let mut sum = 0.0;
        for &e in ex {
            sum += e;
        }
        for (c, &e) in self.cond[lanes].iter_mut().zip(ex) {
            *c = e / sum;
        }
    }

    /// Phase end: every lane has suffered ≥ span — any strategy inside
    /// this subtree paid Ω(span); forgive the past. Returns whether the
    /// phase ended.
    fn end_phase_if_due(&mut self, lanes: std::ops::Range<usize>, span: f64) -> bool {
        if self.phase_cost[lanes.clone()].iter().all(|&p| p >= span) {
            self.log_w[lanes.clone()].fill(0.0);
            self.phase_cost[lanes].fill(0.0);
            return true;
        }
        false
    }

    /// Charges per-lane costs to `family` (the cost-vector path): Hedge
    /// weight step with `η = 1/Δ`, phase accounting, phase reset once
    /// every lane has suffered ≥ Δ, then a full refresh.
    fn charge(&mut self, tree: &HstTree, family: usize, lane_costs: &[f64]) {
        let lanes = tree.lanes(family);
        debug_assert_eq!(lane_costs.len(), lanes.len());
        let span = tree.span(family);
        let eta = tree.eta[family];
        for (lane, &cost) in lanes.clone().zip(lane_costs) {
            self.log_w[lane] -= eta * cost;
            self.phase_cost[lane] += cost;
        }
        self.end_phase_if_due(lanes.clone(), span);
        self.refresh(family, lanes);
    }

    /// [`Self::charge`] for a one-hot lane-cost vector: `cost` on
    /// `lane`, zero on its siblings — whose `log_w − η·0` and
    /// `phase_cost + 0` are IEEE no-ops, so only `lane` is written. If
    /// the family's max survives, only `lane`'s `exp` is recomputed
    /// (the bits a full refresh would produce: its siblings' weights
    /// and `top` are unchanged).
    fn charge_hit(&mut self, tree: &HstTree, family: usize, lane: usize, cost: f64) {
        let lanes = tree.lanes(family);
        let span = tree.span(family);
        self.log_w[lane] -= tree.eta[family] * cost;
        self.phase_cost[lane] += cost;
        if self.end_phase_if_due(lanes.clone(), span) {
            self.refresh(family, lanes);
            return;
        }
        let top = self.max_weight(lanes.clone());
        if top != self.top[family] {
            self.refresh_from(family, lanes, top);
            return;
        }
        let w = self.log_w[lane];
        self.ex[lane] = shifted_exp(w, top);
        debug_assert_eq!(
            self.ex[lane].to_bits(),
            (w - top).exp().to_bits(),
            "incremental exp of lane {lane} drifted from a fresh one"
        );
        self.normalize(lanes);
    }
}

/// `exp(w − top)`, with the max lane's `exp(+0) = 1.0` taken without
/// calling `exp`.
fn shifted_exp(w: f64, top: f64) -> f64 {
    if w == top {
        1.0
    } else {
        (w - top).exp()
    }
}

/// Randomized hierarchical-Hedge MTS policy on the line (see module
/// docs).
#[derive(Debug)]
pub struct HstHedge {
    /// The shared immutable hierarchy.
    tree: Arc<HstTree>,
    /// Live Hedge state and its caches.
    lanes: Lanes,
    /// Weight generation: advances whenever any `log_w` changes.
    gen: u64,
    /// Generation-stamped leaf-distribution cache (lazy; only
    /// [`HstHedge::leaf_distribution`] reads it, so it lives behind
    /// interior mutability and never touches the serve paths).
    probs: RefCell<Vec<f64>>,
    /// The `gen` the cached `probs` were computed at.
    probs_gen: Cell<u64>,
    /// Scratch: bottom-up conditional expected costs (aligned with the
    /// arena; vector-serve path only, so allocated on its first use).
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
        Self::on_tree(Arc::new(HstTree::new(num_states)), initial, seed)
    }

    /// [`Self::new`] over an already built (shared) hierarchy: a copy
    /// of the tree's start state, with the coupling drawn from `seed`.
    ///
    /// # Panics
    /// Panics if `initial` is not one of the tree's states.
    pub(crate) fn on_tree(tree: Arc<HstTree>, initial: usize, seed: u64) -> Self {
        assert!(initial < tree.num_states(), "initial state out of range");
        let start = &tree.start;
        let mut rng = StdRng::seed_from_u64(seed);
        // Draw u uniformly inside initial's quantile block, so the
        // realized initial state is `initial` while u stays random
        // within the block (see the same note in `SminGradient::new`).
        let mut cdf = 0.0;
        for &p in &start.dist[..initial] {
            cdf += p;
        }
        let jitter: f64 = rng.random::<f64>().max(1e-9);
        let u = (cdf + jitter * start.dist[initial]).clamp(1e-12, 1.0 - 1e-12);
        let coupling =
            QuantileCoupling::from_parts(u, Distribution::quantile_of(&start.dist, u), 0);
        debug_assert_eq!(coupling.state(), initial);
        Self {
            lanes: start.lanes.clone(),
            gen: 1,
            probs: RefCell::new(start.probs.clone()),
            // Generation 1 marks `start.probs` fresh; a single state
            // keeps it stale, as `leaf_distribution` never fills it.
            probs_gen: Cell::new(u64::from(tree.num_states() > 1)),
            val: Vec::new(),
            coupling,
            rng,
            serves: 0,
            hits: 0,
            node_visits: 0,
            cache_hits: 0,
            tree,
        }
    }

    /// The current leaf distribution (product of conditional Hedge
    /// probabilities along root→leaf paths), served from the
    /// generation-stamped cache when the weights have not changed since
    /// the last call.
    #[must_use]
    pub fn leaf_distribution(&self) -> Distribution {
        if self.tree.num_states() == 1 {
            return Distribution::point(0, 1);
        }
        if self.probs_gen.get() != self.gen {
            self.tree
                .leaf_probs(&self.lanes.cond, &mut self.probs.borrow_mut());
            self.probs_gen.set(self.gen);
        }
        Distribution::new(self.probs.borrow().clone())
    }

    /// Number of levels in the hierarchy (1 for a single state). The
    /// `serve_hit` walk touches at most `hst_levels() - 1` families.
    #[must_use]
    pub fn hst_levels(&self) -> u32 {
        self.tree.levels
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
        let tree = &*self.tree;
        assert!(state < tree.num_states(), "state out of range");
        let mut path = Vec::with_capacity(tree.levels as usize);
        let mut node = tree.leaf_of_state[state] as usize;
        while tree.parent[node] != NO_PARENT {
            let family = tree.parent[node] as usize;
            path.push((tree.lo[family], tree.hi[family]));
            node = family;
        }
        path
    }

    /// The cost-vector serve body: one bottom-up sweep computing the
    /// conditional expected cost of every subtree, then an independent
    /// Hedge update per family that carries cost. Reverse BFS order is
    /// a valid bottom-up order (parents precede children), and all
    /// `val` reads use the pre-update `cond` — the property the
    /// `serve_hit` walk's old-cond read reproduces.
    fn serve_vector_body(&mut self, costs: &[f64]) -> usize {
        self.cache_hits += 1;
        let tree = &*self.tree;
        let n_nodes = tree.num_nodes();
        let mut val = std::mem::take(&mut self.val);
        val.resize(n_nodes, 0.0);
        for i in (0..n_nodes).rev() {
            val[i] = if tree.child_count[i] == 0 {
                costs[tree.lo[i] as usize]
            } else {
                tree.lanes(i).map(|c| self.lanes.cond[c] * val[c]).sum()
            };
        }
        let mut touched = false;
        for i in (0..n_nodes).rev() {
            if tree.child_count[i] == 0 {
                continue;
            }
            let lane_costs = &val[tree.lanes(i)];
            if lane_costs.iter().all(|&c| c == 0.0) {
                continue;
            }
            self.node_visits += 1;
            touched = true;
            self.lanes.charge(tree, i, lane_costs);
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
        let tree = &*self.tree;
        let mut node = tree.leaf_of_state[index] as usize;
        let mut val = 1.0f64;
        let mut touched = false;
        while tree.parent[node] != NO_PARENT && val != 0.0 {
            let family = tree.parent[node] as usize;
            let next_val = self.lanes.cond[node] * val;
            self.node_visits += 1;
            touched = true;
            self.lanes.charge_hit(tree, family, node, val);
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
        let tree = &*self.tree;
        let mut u = self.coupling.u();
        let mut node = 0usize;
        while tree.child_count[node] != 0 {
            let lanes = tree.lanes(node);
            let mut cdf = 0.0f64;
            let mut last_positive = lanes.start;
            let mut chosen = usize::MAX;
            for c in lanes {
                let p = self.lanes.cond[c];
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
        let state = tree.lo[node] as usize;
        self.coupling.follow_to(state);
        state
    }
}

impl MtsPolicy for HstHedge {
    fn num_states(&self) -> usize {
        self.tree.num_states()
    }

    fn state(&self) -> usize {
        self.coupling.state()
    }

    fn serve(&mut self, costs: &[f64]) -> usize {
        validate_costs(costs, self.num_states());
        self.serves += 1;
        if self.num_states() == 1 {
            return 0;
        }
        self.serve_vector_body(costs)
    }

    fn serve_hit(&mut self, index: usize) -> usize {
        assert!(
            index < self.num_states(),
            "hit index {index} out of range 0..{}",
            self.num_states()
        );
        self.hits += 1;
        if self.num_states() == 1 {
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
            ("log_w".into(), self.lanes.log_w.to_value()),
            ("phase_cost".into(), self.lanes.phase_cost.to_value()),
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
        let n_nodes = self.tree.num_nodes();
        if log_w.len() != n_nodes || phase.len() != n_nodes {
            return Err(DeError(format!(
                "arena length mismatch: snapshot has {}/{} entries, arena has {n_nodes}",
                log_w.len(),
                phase.len(),
            )));
        }
        // The binary decoder carries any f64 bit pattern. Serving only
        // ever produces finite weights and finite, non-negative phase
        // costs (never -0.0), and the exp cache's max comparisons rely
        // on it.
        if let Some((i, w)) = log_w.iter().enumerate().find(|(_, w)| !w.is_finite()) {
            return Err(DeError(format!("log_w[{i}] = {w} is not finite")));
        }
        if let Some((i, c)) = phase
            .iter()
            .enumerate()
            .find(|(_, c)| !(c.is_finite() && c.is_sign_positive()))
        {
            return Err(DeError(format!(
                "phase_cost[{i}] = {c} is not a finite non-negative cost"
            )));
        }
        let coupling = coupling_from_value(state.get_field("coupling")?, self.num_states())?;
        let probs_fresh = bool::from_value(state.get_field("probs_fresh")?)?;
        self.rng = StdRng::from_value(state.get_field("rng")?)?;
        self.coupling = coupling;
        self.lanes.log_w = log_w;
        self.lanes.phase_cost = phase;
        // Rebuild the exp and conditional caches for the restored
        // weights (the full refresh the serve paths' caches agree with
        // bit for bit), then honor the snapshot's leaf-cache freshness.
        self.lanes.refresh_all(&self.tree);
        self.gen = 1;
        if probs_fresh {
            if self.num_states() > 1 {
                self.tree
                    .leaf_probs(&self.lanes.cond, &mut self.probs.borrow_mut());
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

    /// The full per-family softmax every serve path used before the
    /// exp cache: `cond[cs..cs+cc] = softmax(log_w[cs..cs+cc])`,
    /// max-shifted, one `exp` per lane. Kept verbatim as the reference
    /// the incremental cache is diffed against.
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

    /// The construction every policy ran before its tree carried the
    /// start state: fresh lanes, the leaf distribution computed from
    /// them behind a placeholder coupling, then the jitter and the
    /// coupling. Kept as the reference [`HstHedge::on_tree`] is diffed
    /// against.
    fn reference_on_tree(tree: Arc<HstTree>, initial: usize, seed: u64) -> HstHedge {
        let num_states = tree.num_states();
        let lanes = Lanes::new(&tree);
        let mut policy = HstHedge {
            tree,
            lanes,
            gen: 1,
            probs: RefCell::new(vec![0.0; num_states]),
            probs_gen: Cell::new(0),
            val: Vec::new(),
            coupling: QuantileCoupling::with_u(&Distribution::uniform(num_states), 0.5),
            rng: StdRng::seed_from_u64(seed),
            serves: 0,
            hits: 0,
            node_visits: 0,
            cache_hits: 0,
        };
        let dist = policy.leaf_distribution();
        let mut cdf = 0.0;
        for i in 0..initial {
            cdf += dist.prob(i);
        }
        let jitter: f64 = policy.rng.random::<f64>().max(1e-9);
        let u = (cdf + jitter * dist.prob(initial)).clamp(1e-12, 1.0 - 1e-12);
        policy.coupling = QuantileCoupling::with_u(&dist, u);
        policy
    }

    /// Every live column of `p` and its leaf cache, as bits.
    fn state_bits(p: &HstHedge) -> Vec<Vec<u64>> {
        let l = &p.lanes;
        let probs = p.probs.borrow();
        [&l.log_w, &l.phase_cost, &l.ex, &l.top, &l.cond, &*probs]
            .iter()
            .map(|column| column.iter().map(|x| x.to_bits()).collect())
            .collect()
    }

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
    fn copied_start_state_matches_per_policy_construction() {
        // Policies copied from one shared tree's start state against
        // the per-policy reference, each on its own tree: the same
        // snapshot, counters, caches and leaf distribution at the start
        // and after 300 hits, and the same state after every hit.
        for n in [1usize, 2, 3, 4, 5, 7, 48, 96, 384] {
            let shared = Arc::new(HstTree::new(n));
            for initial in [0, n / 2, n - 1] {
                for seed in [0u64, 7, 1009] {
                    let context = format!("n={n} initial={initial} seed={seed}");
                    let mut copied = HstHedge::on_tree(Arc::clone(&shared), initial, seed);
                    let mut reference = reference_on_tree(Arc::new(HstTree::new(n)), initial, seed);
                    assert_eq!(copied.state(), initial, "{context}");
                    let mut rng = StdRng::seed_from_u64(seed ^ n as u64);
                    for step in 0..=300 {
                        assert_eq!(
                            copied.export_state(),
                            reference.export_state(),
                            "{context} step {step}"
                        );
                        assert_eq!(
                            copied.work_counters(),
                            reference.work_counters(),
                            "{context} step {step}"
                        );
                        assert_eq!(
                            state_bits(&copied),
                            state_bits(&reference),
                            "{context} step {step}"
                        );
                        assert_eq!(copied.gen, reference.gen, "{context} step {step}");
                        assert_eq!(
                            copied.probs_gen.get(),
                            reference.probs_gen.get(),
                            "{context} step {step}"
                        );
                        if step == 300 {
                            break;
                        }
                        let hit = rng.random_range(0..n);
                        assert_eq!(
                            copied.serve_hit(hit),
                            reference.serve_hit(hit),
                            "{context} step {step}"
                        );
                    }
                    assert_eq!(
                        copied.leaf_distribution(),
                        reference.leaf_distribution(),
                        "{context}"
                    );
                    assert_eq!(copied.export_state(), reference.export_state());
                }
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
            let p = &*p.tree;
            let nodes = p.num_nodes();
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
            assert!(p.levels >= 1);
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

    #[test]
    fn incremental_softmax_matches_full_refresh() {
        // Seeded streams of hits — a drifting hot spot plus uniform
        // noise — with cost-vector and scaled one-hot serves mixed in
        // (the one-hot ones sometimes heavy enough to underflow a
        // lane's exp to 0.0). After every serve, every family's
        // conditionals must carry exactly the bits the full softmax of
        // its weights gives, and the run must cross phase resets at
        // every level.
        for n in [2usize, 3, 5, 23, 48, 96, 384] {
            let mut p = HstHedge::new(n, n / 2, 11);
            let mut rng = StdRng::seed_from_u64(n as u64);
            let tree = Arc::clone(&p.tree);
            let families: Vec<usize> = (0..tree.num_nodes())
                .filter(|&i| tree.child_count[i] > 0)
                .collect();
            let mut depth = vec![0usize; tree.num_nodes()];
            for i in 1..tree.num_nodes() {
                depth[i] = depth[tree.parent[i] as usize] + 1;
            }
            let mut resets = vec![0u32; tree.levels as usize - 1];
            let mut want = vec![0.0f64; tree.num_nodes()];
            for t in 0..8 * n + 400 {
                let before = p.lanes.phase_cost.clone();
                match rng.random_range(0..8u32) {
                    0 | 1 => {
                        let costs: Vec<f64> = (0..n)
                            .map(|_| {
                                if rng.random_range(0..4u32) == 0 {
                                    0.0
                                } else {
                                    rng.random_range(0.0..2.0)
                                }
                            })
                            .collect();
                        let _ = p.serve(&costs);
                    }
                    2 => {
                        let weight = if rng.random_range(0..10u32) == 0 {
                            2000.0
                        } else {
                            rng.random_range(0.0..3.0)
                        };
                        let mut costs = vec![0.0; n];
                        costs[rng.random_range(0..n)] = weight;
                        let _ = p.serve(&costs);
                    }
                    3 => {
                        let _ = p.serve_hit(rng.random_range(0..n));
                    }
                    _ => {
                        let hot = (t / 40 + rng.random_range(0..3usize)) % n;
                        let _ = p.serve_hit(hot);
                    }
                }
                for &f in &families {
                    let lanes = tree.lanes(f);
                    refresh_family_cond(&p.lanes.log_w, &mut want, lanes.start, lanes.len());
                    for c in lanes.clone() {
                        assert_eq!(
                            p.lanes.cond[c].to_bits(),
                            want[c].to_bits(),
                            "n={n} step {t}: family {f} lane {c}: {} vs {}",
                            p.lanes.cond[c],
                            want[c]
                        );
                    }
                    let reset = before[lanes.clone()].iter().any(|&c| c > 0.0)
                        && p.lanes.phase_cost[lanes].iter().all(|&c| c == 0.0);
                    resets[depth[f]] += u32::from(reset);
                }
            }
            assert!(
                resets.iter().all(|&r| r > 0),
                "n={n}: phase resets per level {resets:?}"
            );
        }
    }

    /// A snapshot of a policy that served a few hits, with entry `i` of
    /// array field `field` replaced by `x`.
    fn mutated_snapshot(field: &str, i: usize, x: f64) -> Value {
        let mut p = HstHedge::new(23, 11, 4);
        for t in 0..60usize {
            let _ = p.serve_hit(t * 7 % 23);
        }
        let mut snap = p.export_state().expect("hedge snapshots");
        let Value::Obj(fields) = &mut snap else {
            panic!("snapshot is an object")
        };
        let (_, column) = fields
            .iter_mut()
            .find(|(k, _)| k == field)
            .expect("field present");
        let Value::Arr(items) = column else {
            panic!("{field} is an array")
        };
        items[i] = Value::Float(x);
        snap
    }

    #[test]
    fn restore_rejects_impossible_weights() {
        // Non-finite weights and non-finite or negative phase costs
        // fail before anything is mutated; the unmutated snapshot of
        // the same run restores.
        for (field, i, x) in [
            ("log_w", 1, f64::NAN),
            ("log_w", 2, f64::INFINITY),
            ("log_w", 2, f64::NEG_INFINITY),
            ("phase_cost", 3, -5.0),
            ("phase_cost", 3, -0.0),
            ("phase_cost", 4, f64::NAN),
            ("phase_cost", 4, f64::INFINITY),
        ] {
            let mut q = HstHedge::new(23, 11, 4);
            let fresh = q.export_state();
            let err = q
                .restore_state(&mutated_snapshot(field, i, x))
                .expect_err(&format!("{field}[{i}] = {x} must be rejected"));
            assert!(err.0.contains(field), "{field}: {}", err.0);
            assert_eq!(q.export_state(), fresh, "{field}: restore mutated state");
            let _ = q.serve_hit(5);
            let _ = q.leaf_distribution();
        }
        let mut q = HstHedge::new(23, 11, 4);
        let ok = mutated_snapshot("log_w", 1, -0.25);
        q.restore_state(&ok).expect("finite weights restore");
        let _ = q.leaf_distribution();
    }
}
