//! Theorem 2.1: the dynamic-model algorithm (Section 3).
//!
//! Structure (Section 3.1):
//! * `k′ = ⌈(1+ε)k⌉`, `ℓ′ = ⌈n/k′⌉`, shift `R ∈ {0,…,k′−1}` uniform.
//! * Interval `Iᵢ = [R+(i−1)k′, R+i·k′]` — `k′` edges each; consecutive
//!   intervals share one vertex; the last interval may wrap and share
//!   *edges* with the first.
//! * Every interval runs an independent MTS policy whose states are the
//!   interval's edges. A request inside the interval becomes a unit cost
//!   vector; the policy's state is the interval's *cut edge*.
//! * Cut edges induce the server mapping: server `i` hosts the slice
//!   between cut `i` and cut `i+1` (Lemma 3.1: load ≤ 2(1+ε)k).
//!
//! ### Server mapping in the wrap region
//!
//! Cut positions are tracked in *unwrapped* coordinates
//! `ūᵢ = i·k′ + stateᵢ ∈ [i·k′, (i+1)k′−1]` (offsets from `R`), which
//! are strictly increasing in `i` by construction — so cuts never
//! "cross" in unwrapped space. Because `ℓ′k′` may exceed `n`, the last
//! cut can pass position `ū₀ + n`, where the ring closes; boundaries are
//! therefore clamped: `vᵢ = min(ūᵢ, ū₀+n)`, server `i` hosts unwrapped
//! `(vᵢ, vᵢ₊₁]`, and server `ℓ′−1` hosts `(v_{ℓ′−1}, ū₀+n]` (possibly
//! empty — the paper's "the slice formed between `e_{ℓ′}` and `e₁`
//! could be empty"). Moving a cut by `d` moves its clamped boundary by
//! at most `d`, which keeps Observation 3.2 (migrations ≤ interval
//! moves) true, including the "no slice changes" case in the overlap.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{DeError, Deserialize, Serialize, Value};

use rdbp_model::{Edge, OnlineAlgorithm, Placement, Referee, RingInstance, Server};
use rdbp_mts::{MtsPolicy, PolicyKind};

/// Configuration for [`DynamicPartitioner`].
#[derive(Debug, Clone, Copy)]
pub struct DynamicConfig {
    /// Augmentation slack `ε > 0`; the algorithm guarantees load
    /// ≤ `2⌈(1+ε)k⌉` (Lemma 3.1, up to the ceiling).
    pub epsilon: f64,
    /// Which MTS black box to run per interval (DESIGN.md ablation A1).
    pub policy: PolicyKind,
    /// Seed for the shift `R` and all policy randomness.
    pub seed: u64,
    /// Fix the shift instead of drawing it uniformly from
    /// `{0,…,k′−1}` (used by the shift ablation; `None` = random, as
    /// the analysis requires).
    pub shift: Option<u32>,
}

impl Default for DynamicConfig {
    fn default() -> Self {
        Self {
            epsilon: 0.5,
            policy: PolicyKind::HstHedge,
            seed: 0,
            shift: None,
        }
    }
}

impl DynamicConfig {
    /// The interval width `k′ = ⌈(1+ε)k⌉` for capacity `k`; a fixed
    /// shift must lie below it.
    #[must_use]
    pub fn k_prime(&self, capacity: u32) -> u32 {
        (((1.0 + self.epsilon) * f64::from(capacity)).ceil() as u32).max(1)
    }
}

/// The Theorem 2.1 online algorithm.
pub struct DynamicPartitioner {
    instance: RingInstance,
    k_prime: u32,
    ell_prime: u32,
    shift: u32,
    policies: Vec<Box<dyn MtsPolicy>>,
    /// Mirror of each policy's current state (the cut edge's local
    /// index inside its interval); restore derives it from the
    /// policies.
    cut_state: Vec<u32>,
    placement: Placement,
    /// Scratch: per-request interval routes for
    /// [`OnlineAlgorithm::serve_refereed`] (reused across batches).
    route_buf: Vec<[(u32, u32); 2]>,
    /// Proxy costs per interval: hits on the cut edge…
    interval_hit: Vec<u64>,
    /// …and cut-edge movement distance (Observation 3.2 upper-bounds
    /// the true costs by these).
    interval_move: Vec<u64>,
    /// Migration distance between the canonical contiguous placement
    /// and this algorithm's initial slice placement (one-time setup,
    /// the additive constant `c` of Theorem 2.1).
    setup_migrations: u64,
}

impl std::fmt::Debug for DynamicPartitioner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DynamicPartitioner")
            .field("k_prime", &self.k_prime)
            .field("ell_prime", &self.ell_prime)
            .field("shift", &self.shift)
            .field("cut_state", &self.cut_state)
            .finish_non_exhaustive()
    }
}

impl DynamicPartitioner {
    /// Builds the algorithm for `instance` with the given config.
    ///
    /// # Panics
    /// Panics if `ε ≤ 0`, if a fixed shift is ≥ `k′`, or if the
    /// instance needs more slices than servers (cannot happen when
    /// `n ≤ ℓ·k`).
    #[must_use]
    pub fn new(instance: &RingInstance, config: DynamicConfig) -> Self {
        assert!(
            config.epsilon > 0.0 && config.epsilon.is_finite(),
            "epsilon must be positive"
        );
        let n = instance.n();
        let k = instance.capacity();
        let k_prime = config.k_prime(k);
        let ell_prime = n.div_ceil(k_prime);
        assert!(
            ell_prime <= instance.servers(),
            "need {ell_prime} slices but only {} servers",
            instance.servers()
        );
        let mut rng = StdRng::seed_from_u64(config.seed);
        let shift = match config.shift {
            Some(r) => {
                assert!(r < k_prime, "shift {r} out of range 0..{k_prime}");
                r
            }
            None => rng.random_range(0..k_prime),
        };
        // Every interval starts with its cut edge at the middle state;
        // the initial choice only affects the additive constant.
        let initial_state = k_prime / 2;
        let policies = config.policy.build_many(
            ell_prime as usize,
            k_prime as usize,
            initial_state as usize,
            |i| config.seed.wrapping_add(i as u64 + 1),
        );
        let cut_state = vec![initial_state; ell_prime as usize];

        let assignment = assignment_from_cuts(n, k_prime, ell_prime, shift, &cut_state);
        // The distance from the contiguous placement, which hosts
        // process p on server p / k.
        let setup_migrations = (0..n)
            .zip(&assignment)
            .filter(|&(p, &server)| server != p / k)
            .count() as u64;
        let placement = Placement::from_assignment(instance, assignment);

        Self {
            instance: *instance,
            k_prime,
            ell_prime,
            shift,
            policies,
            cut_state,
            placement,
            route_buf: Vec::new(),
            interval_hit: vec![0; ell_prime as usize],
            interval_move: vec![0; ell_prime as usize],
            setup_migrations,
        }
    }

    /// The interval width `k′ = ⌈(1+ε)k⌉`.
    #[must_use]
    pub fn k_prime(&self) -> u32 {
        self.k_prime
    }

    /// Number of intervals `ℓ′ = ⌈n/k′⌉`.
    #[must_use]
    pub fn num_intervals(&self) -> u32 {
        self.ell_prime
    }

    /// The shift `R` in use.
    #[must_use]
    pub fn shift(&self) -> u32 {
        self.shift
    }

    /// The load bound this algorithm guarantees (Lemma 3.1 with
    /// ceilings): `2·k′`.
    #[must_use]
    pub fn load_bound(&self) -> u32 {
        2 * self.k_prime
    }

    /// Per-interval hit-cost proxies `cost_hit(I)` (Observation 3.2).
    #[must_use]
    pub fn interval_hits(&self) -> &[u64] {
        &self.interval_hit
    }

    /// Per-interval move-cost proxies `cost_move(I)`.
    #[must_use]
    pub fn interval_moves(&self) -> &[u64] {
        &self.interval_move
    }

    /// One-time migration distance from the canonical contiguous
    /// placement to this algorithm's initial slice placement (part of
    /// the additive constant of Theorem 2.1).
    #[must_use]
    pub fn setup_migrations(&self) -> u64 {
        self.setup_migrations
    }

    /// Sum of all interval proxy costs — the quantity `ONL_R` that
    /// Lemma 3.3 bounds by `α(k)·OPT_R + c`.
    #[must_use]
    pub fn proxy_cost(&self) -> u64 {
        self.interval_hit.iter().sum::<u64>() + self.interval_move.iter().sum::<u64>()
    }

    /// Unwrapped cut position of interval `i`: `ūᵢ = i·k′ + stateᵢ`.
    fn unwrapped(&self, i: usize) -> u64 {
        u64::from(self.k_prime) * i as u64 + u64::from(self.cut_state[i])
    }

    /// The intervals containing the requested edge, as
    /// `(interval index, local state index)` pairs. One hit for the
    /// body of the ring, plus possibly the wrapped tail of the last
    /// interval (which shares edges with the first intervals).
    fn intervals_of(&self, e: Edge) -> [(u32, u32); 2] {
        const NONE: (u32, u32) = (u32::MAX, u32::MAX);
        let n = u64::from(self.instance.n());
        let kp = u64::from(self.k_prime);
        // `shift % n`: when k′ > n (single-interval instances) the shift
        // can exceed the ring size.
        let o = (u64::from(e.0) + n - u64::from(self.shift) % n) % n;
        let mut out = [NONE; 2];
        let i1 = o / kp;
        debug_assert!(i1 < u64::from(self.ell_prime));
        out[0] = (i1 as u32, (o - i1 * kp) as u32);
        // Wrapped tail: the last interval covers unwrapped edge offsets
        // [(ℓ′−1)k′, ℓ′k′−1]; offsets ≥ n re-enter the ring start.
        let last = u64::from(self.ell_prime) - 1;
        let tail_end = u64::from(self.ell_prime) * kp; // exclusive
        if o + n < tail_end && i1 != last {
            out[1] = (last as u32, (o + n - last * kp) as u32);
        }
        out
    }

    /// Moves interval `i`'s cut to `new_state`, migrating the processes
    /// between the old and new (clamped) boundary. Returns migrations.
    /// The work is the window between the old and new cut: fewer than
    /// `k′` positions, for interval 0 too.
    fn set_cut(&mut self, i: usize, new_state: u32) -> u64 {
        debug_assert!(new_state < self.k_prime);
        let old_u = self.unwrapped(i);
        let old_u0 = self.unwrapped(0);
        self.cut_state[i] = new_state;
        let new_u = self.unwrapped(i);
        if self.ell_prime == 1 {
            return 0; // single slice: every boundary move is a no-op
        }
        if i == 0 {
            return self.move_cut_zero(old_u, new_u);
        }
        let cap = old_u0 + u64::from(self.instance.n());
        self.move_boundary(i, old_u.min(cap), new_u.min(cap))
    }

    /// Moves cut 0 from unwrapped position `from` to `to` (both below
    /// `k′`); the cut states already hold `to`. Returns migrations.
    ///
    /// Boundary 0 and the clamp cap `ū₀+n` are the same ring edge mod
    /// n, so moving cut 0 moves the cap with it and a per-boundary
    /// transfer would alias (a position past the cap re-enters the ring
    /// start). But only the `|to − from| < k′` ring positions between
    /// the old and new cut change owner: every other position keeps its
    /// unwrapped coordinate, and a boundary `vⱼ` lies below it under
    /// either cap exactly when `ūⱼ` does. So the window's processes are
    /// re-derived from the new cuts ([`Self::server_at`]) and migrated
    /// in ascending process order — the order, and hence the journal
    /// and load-histogram updates, of a full diff against
    /// [`assignment_from_cuts`]. `O(k′)`; Observation 3.2 holds because
    /// at most the cut's move distance changes owner.
    fn move_cut_zero(&mut self, from: u64, to: u64) -> u64 {
        let n = u64::from(self.instance.n());
        let (lo, hi) = (from.min(to), from.max(to));
        // Window positions lo+1..=hi hold processes first, first+1, …
        // (mod n); those past process n−1 wrap to 0 and come first in
        // ascending order.
        let first = (u64::from(self.shift) + lo + 1) % n;
        let before_wrap = (hi - lo).min(n - first);
        let mut moved = 0;
        for x in (lo + 1 + before_wrap..=hi).chain(lo + 1..=lo + before_wrap) {
            // In the new frame `(to, to+n]`, ring offset x sits at x
            // itself past the new cut, else one lap later.
            let pos = if x > to { x } else { x + n };
            let target = self.server_at(pos);
            let p = self.instance.process(u64::from(self.shift) + x);
            if self.placement.migrate(p, target) {
                moved += 1;
            }
        }
        moved
    }

    /// The server hosting unwrapped position `pos ∈ (ū₀, ū₀+n]` under
    /// the current cuts: the last `j` whose clamped boundary
    /// `min(ūⱼ, ū₀+n)` lies below `pos` — equivalently, as `pos` never
    /// exceeds the cap, the last `j` with `ūⱼ < pos`. Since
    /// `ūⱼ ∈ [j·k′, (j+1)·k′)`, only interval `⌊pos/k′⌋` can straddle
    /// `pos`.
    fn server_at(&self, pos: u64) -> Server {
        let q = pos / u64::from(self.k_prime);
        if q >= u64::from(self.ell_prime) {
            return Server(self.ell_prime - 1);
        }
        let j = q as u32;
        if self.unwrapped(j as usize) < pos {
            Server(j)
        } else {
            Server(j - 1)
        }
    }

    /// Serves one request along its pre-computed interval route —
    /// the shared body of [`OnlineAlgorithm::serve`] and the batched
    /// [`OnlineAlgorithm::serve_refereed`]. Each hit goes through the
    /// policies' [`MtsPolicy::serve_hit`] point fast path, so no cost
    /// vector is ever materialized.
    fn serve_routed(&mut self, route: [(u32, u32); 2]) -> u64 {
        let mut migrations = 0;
        for (i, local) in route {
            if i == u32::MAX {
                continue;
            }
            let (i, local) = (i as usize, local as usize);
            let new_state = self.policies[i].serve_hit(local);
            if new_state == local {
                self.interval_hit[i] += 1;
            }
            let old_state = self.cut_state[i];
            if new_state as u32 != old_state {
                self.interval_move[i] += u64::from(old_state.abs_diff(new_state as u32));
                migrations += self.set_cut(i, new_state as u32);
            }
            debug_assert_eq!(self.cut_state[i] as usize, self.policies[i].state());
        }
        migrations
    }

    /// Moves boundary `j` (separating server `j−1` and server `j`) from
    /// unwrapped edge position `from` to `to`; migrates the processes in
    /// between. Returns the number of migrations.
    fn move_boundary(&mut self, j: usize, from: u64, to: u64) -> u64 {
        if from == to {
            return 0;
        }
        let n = u64::from(self.instance.n());
        let left = Server((j as u32 + self.ell_prime - 1) % self.ell_prime);
        let right = Server(j as u32);
        let (lo, hi, target) = if to > from {
            // Positions (from, to] leave server j and join server j−1.
            (from, to, left)
        } else {
            // Positions (to, from] leave server j−1 and join server j.
            (to, from, right)
        };
        let mut moved = 0;
        // Position `pos` (an unwrapped edge offset) corresponds to the
        // process at absolute index `(shift + pos) mod n`: the slice
        // between cut edges a and b is [a+1, b], i.e. boundary-exclusive
        // at the left cut.
        for pos in lo + 1..=hi {
            let p = self.instance.process(u64::from(self.shift) + pos % n);
            if self.placement.migrate(p, target) {
                moved += 1;
            }
        }
        moved
    }
}

/// Reference (from-scratch) assignment computation: server of every
/// process from the cut states. The incremental path in
/// [`DynamicPartitioner::set_cut`] is property-tested against this.
#[must_use]
pub(crate) fn assignment_from_cuts(
    n: u32,
    k_prime: u32,
    ell_prime: u32,
    shift: u32,
    cut_state: &[u32],
) -> Vec<u32> {
    assert_eq!(cut_state.len(), ell_prime as usize);
    let n64 = u64::from(n);
    let u: Vec<u64> = (0..ell_prime as usize)
        .map(|i| u64::from(k_prime) * i as u64 + u64::from(cut_state[i]))
        .collect();
    let cap = u[0] + n64;
    let v: Vec<u64> = u.iter().map(|&x| x.min(cap)).collect();

    let mut assignment = vec![0u32; n as usize];
    for j in 0..ell_prime as usize {
        let start = v[j];
        let end = if j + 1 < ell_prime as usize {
            v[j + 1]
        } else {
            cap
        };
        // Server j hosts unwrapped positions (start, end]; process at
        // position pos is (shift + pos) mod n.
        for pos in start + 1..=end {
            let p = (u64::from(shift) + (pos % n64)) % n64;
            assignment[p as usize] = j as u32;
        }
    }
    assignment
}

impl OnlineAlgorithm for DynamicPartitioner {
    fn placement(&self) -> &Placement {
        &self.placement
    }

    fn placement_mut(&mut self) -> &mut Placement {
        &mut self.placement
    }

    fn serve(&mut self, request: Edge) -> u64 {
        let route = self.intervals_of(request);
        self.serve_routed(route)
    }

    // Batch specialization: interval routing depends only on the fixed
    // geometry (shift, k′), never on the placement, so the whole batch
    // is routed up front in one tight pass; serving then touches the
    // policies request by request, with the referee's charge and audit
    // around each, so the placement moves exactly as under `serve`.
    fn serve_refereed(&mut self, requests: &[Edge], referee: &mut dyn Referee) {
        let mut route = std::mem::take(&mut self.route_buf);
        route.clear();
        route.extend(requests.iter().map(|&e| self.intervals_of(e)));
        for (&request, &pairs) in requests.iter().zip(&route) {
            referee.before_serve(&self.placement, request);
            let migrations = self.serve_routed(pairs);
            referee.after_serve(&mut self.placement, migrations);
        }
        self.route_buf = route;
    }

    fn name(&self) -> &'static str {
        "dynamic-partitioner"
    }

    // Placement counters plus the per-interval MTS policies' counters
    // (the policy layer is where most of this algorithm's work lives).
    fn work_counters(&self) -> rdbp_model::WorkCounters {
        let mut counters = rdbp_model::WorkCounters::default();
        self.placement.add_work_counters(&mut counters);
        let mut policy_counters = rdbp_mts::PolicyCounters::default();
        for policy in &self.policies {
            policy_counters.merge(&policy.work_counters());
        }
        counters.policy_serve_vector = policy_counters.serve_vector;
        counters.policy_serve_hit = policy_counters.serve_hit;
        counters.hst_node_visits = policy_counters.node_visits;
        counters.hst_cache_hits = policy_counters.cache_hits;
        counters.coupling_follows = policy_counters.coupling_follows;
        counters
    }

    // Only what a same-config, same-seed instance cannot rebuild: the
    // proxy costs and the per-interval MTS policies. Geometry and the
    // shift (hence `setup_migrations`) are drawn at construction; each
    // cut is its policy's state, and the cuts induce the placement
    // (Section 3.1), so restore derives both.
    fn export_state(&self) -> Option<Value> {
        let policies: Option<Vec<Value>> = self.policies.iter().map(|p| p.export_state()).collect();
        Some(Value::Obj(vec![
            ("interval_hit".into(), self.interval_hit.to_value()),
            ("interval_move".into(), self.interval_move.to_value()),
            ("policies".into(), Value::Arr(policies?)),
        ]))
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), DeError> {
        let policies = match state.get_field("policies")? {
            Value::Arr(items) => items,
            other => return Err(DeError(format!("expected policy array, got {other:?}"))),
        };
        if policies.len() != self.policies.len() {
            return Err(DeError(format!(
                "snapshot has {} policies, expected {}",
                policies.len(),
                self.policies.len()
            )));
        }
        let interval_hit = <Vec<u64> as Deserialize>::from_value(state.get_field("interval_hit")?)?;
        let interval_move =
            <Vec<u64> as Deserialize>::from_value(state.get_field("interval_move")?)?;
        if interval_hit.len() != self.ell_prime as usize
            || interval_move.len() != self.ell_prime as usize
        {
            return Err(DeError("interval cost arity mismatch".into()));
        }
        // Top-level fields are parsed and validated before any mutation.
        // The per-policy restores below mutate as they go, so an error
        // partway through this loop leaves some policies restored and
        // others not — per the trait contract, a failed restore means
        // the instance must be discarded (Session::restore does). Each
        // policy's restore bounds its state by k′.
        for (policy, snap) in self.policies.iter_mut().zip(policies) {
            policy.restore_state(snap)?;
        }
        self.cut_state = self.policies.iter().map(|p| p.state() as u32).collect();
        let assignment = assignment_from_cuts(
            self.instance.n(),
            self.k_prime,
            self.ell_prime,
            self.shift,
            &self.cut_state,
        );
        self.placement = Placement::from_assignment(&self.instance, assignment);
        self.interval_hit = interval_hit;
        self.interval_move = interval_move;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use rdbp_model::workload::{self, Workload};
    use rdbp_model::{run, AuditLevel};

    fn cfg(policy: PolicyKind, seed: u64) -> DynamicConfig {
        DynamicConfig {
            epsilon: 0.5,
            policy,
            seed,
            shift: None,
        }
    }

    #[test]
    fn geometry_matches_paper() {
        let inst = RingInstance::packed(4, 8); // n=32, k=8
        let alg = DynamicPartitioner::new(&inst, cfg(PolicyKind::WorkFunction, 1));
        assert_eq!(alg.k_prime(), 12); // ⌈1.5·8⌉
        assert_eq!(alg.num_intervals(), 3); // ⌈32/12⌉
        assert!(alg.shift() < 12);
        assert_eq!(alg.load_bound(), 24);
    }

    #[test]
    fn initial_placement_respects_load_bound() {
        for seed in 0..20 {
            let inst = RingInstance::packed(5, 7);
            let alg = DynamicPartitioner::new(&inst, cfg(PolicyKind::WorkFunction, seed));
            assert!(
                alg.placement().max_load() <= alg.load_bound(),
                "seed {seed}: load {} > bound {}",
                alg.placement().max_load(),
                alg.load_bound()
            );
        }
    }

    #[test]
    fn slices_are_contiguous_segments() {
        let inst = RingInstance::packed(4, 8);
        let alg = DynamicPartitioner::new(&inst, cfg(PolicyKind::HstHedge, 3));
        // Each server's processes must form one contiguous cyclic run:
        // the number of cut edges where the server id changes equals the
        // number of non-empty servers.
        let p = alg.placement();
        let boundaries = p.cut_edges().count();
        let nonempty = p.loads().iter().filter(|&&l| l > 0).count();
        assert_eq!(boundaries, nonempty.max(1) * usize::from(nonempty > 1));
    }

    #[test]
    fn incremental_mapping_matches_reference() {
        // Drive random cut moves through set_cut and compare against the
        // from-scratch assignment after every move. Besides the small
        // shapes, packed(7,5), packed(6,7) and packed(16,64) (n = 1024)
        // all have ℓ′k′ > n, so the clamp is active. An interval-0 move
        // must also journal exactly the reference diff's records, in
        // ascending process order, with the same load-histogram updates.
        let mut rng = StdRng::seed_from_u64(42);
        let mut shapes: Vec<(u32, u32)> = (0..30).map(|t| (2 + t % 4, 3 + t % 5)).collect();
        shapes.extend([(7, 5), (6, 7), (16, 64)]);
        for (trial, &(servers, k)) in shapes.iter().enumerate() {
            let inst = RingInstance::packed(servers, k);
            let mut alg =
                DynamicPartitioner::new(&inst, cfg(PolicyKind::WorkFunction, trial as u64));
            if trial >= 30 {
                assert!(
                    alg.ell_prime * alg.k_prime > inst.n(),
                    "packed({servers},{k}) leaves the clamp inactive"
                );
            }
            alg.placement.set_journaling(true);
            for step in 0..60 {
                let i = if rng.random_range(0..2u32) == 0 {
                    0
                } else {
                    rng.random_range(0..alg.ell_prime) as usize
                };
                let s = rng.random_range(0..alg.k_prime);
                let before = alg.cut_state.clone();
                let mut reference = alg.placement.clone();
                alg.set_cut(i, s);
                let want = assignment_from_cuts(
                    inst.n(),
                    alg.k_prime,
                    alg.ell_prime,
                    alg.shift,
                    &alg.cut_state,
                );
                let context = format!(
                    "trial {trial} step {step}: set_cut({i},{s}) from cuts {before:?} \
                     (n={}, k'={}, l'={}, shift={})",
                    inst.n(),
                    alg.k_prime,
                    alg.ell_prime,
                    alg.shift
                );
                assert_eq!(alg.placement.assignment(), &want[..], "{context}");
                let journal = alg.placement.drain_journal();
                if i != 0 {
                    continue;
                }
                // The reference: today's O(n) diff, applied in process
                // order.
                let old = reference.assignment().to_vec();
                for (p, (&from, &to)) in old.iter().zip(&want).enumerate() {
                    if from != to {
                        reference.migrate(rdbp_model::Process(p as u32), Server(to));
                    }
                }
                assert_eq!(journal, reference.drain_journal(), "{context}");
                assert_eq!(
                    alg.placement.max_load_updates(),
                    reference.max_load_updates(),
                    "{context}"
                );
            }
        }
    }

    #[test]
    fn setup_migrations_is_the_distance_from_the_contiguous_placement() {
        // The shapes of `incremental_mapping_matches_reference`, the
        // benchmark's two packed sizes and two rings with spare slots
        // (where the contiguous placement leaves servers part-full),
        // each under five seeds and one fixed shift.
        let mut shapes: Vec<RingInstance> = (0..30)
            .map(|t| RingInstance::packed(2 + t % 4, 3 + t % 5))
            .collect();
        shapes.extend([
            RingInstance::packed(16, 64),
            RingInstance::packed(64, 256),
            RingInstance::new(50, 8, 8),
            RingInstance::new(1000, 40, 29),
        ]);
        for inst in &shapes {
            let contiguous = Placement::contiguous(inst);
            let mut configs: Vec<DynamicConfig> = (0..5)
                .map(|seed| cfg(PolicyKind::WorkFunction, seed))
                .collect();
            let k_prime = DynamicPartitioner::new(inst, configs[0]).k_prime();
            configs.push(DynamicConfig {
                shift: Some(k_prime - 1),
                ..configs[0]
            });
            for config in configs {
                let alg = DynamicPartitioner::new(inst, config);
                assert_eq!(
                    alg.setup_migrations(),
                    contiguous.migration_distance(alg.placement()),
                    "{inst:?} seed {} shift {}",
                    config.seed,
                    alg.shift()
                );
            }
        }
    }

    #[test]
    fn load_invariant_holds_under_all_workloads() {
        let inst = RingInstance::packed(4, 8);
        let sources: Vec<Box<dyn Workload>> = vec![
            Box::new(workload::Sequential::new()),
            Box::new(workload::UniformRandom::new(1)),
            Box::new(workload::Zipf::new(&inst, 1.1, 2)),
            Box::new(workload::SlidingWindow::new(6, 5, 3)),
            Box::new(workload::Bursty::new(0.9, 4)),
            Box::new(workload::CutChaser::new()),
        ];
        for mut src in sources {
            for policy in [
                PolicyKind::WorkFunction,
                PolicyKind::SminGradient,
                PolicyKind::HstHedge,
            ] {
                let mut alg = DynamicPartitioner::new(&inst, cfg(policy, 7));
                let bound = alg.load_bound();
                let report = run(
                    &mut alg,
                    src.as_mut(),
                    2000,
                    AuditLevel::Full { load_limit: bound },
                );
                assert_eq!(
                    report.capacity_violations,
                    0,
                    "{} × {}: max load {} > {bound}",
                    policy.label(),
                    src.name(),
                    report.max_load_seen
                );
            }
        }
    }

    #[test]
    fn observation_3_2_costs_bounded_by_interval_proxies() {
        let inst = RingInstance::packed(4, 6);
        for policy in [
            PolicyKind::WorkFunction,
            PolicyKind::SminGradient,
            PolicyKind::HstHedge,
        ] {
            let mut alg = DynamicPartitioner::new(&inst, cfg(policy, 11));
            let mut w = workload::UniformRandom::new(5);
            let bound = alg.load_bound();
            let report = run(
                &mut alg,
                &mut w,
                3000,
                AuditLevel::Full { load_limit: bound },
            );
            let hits: u64 = alg.interval_hits().iter().sum();
            let moves: u64 = alg.interval_moves().iter().sum();
            // Observation 3.2, adjusted for request ordering: the model
            // charges communication *before* migrations, while the
            // paper's interval accounting charges the MTS hit on the
            // *post-move* state. A request on a cut edge is therefore
            // covered by a hit (policy stayed) or by ≥1 unit of move
            // (policy fled): comm ≤ hits + moves. Migrations are always
            // bounded by cut-edge movement: mig ≤ moves.
            assert!(
                report.ledger.communication <= hits + moves,
                "{}: comm {} > hits {hits} + moves {moves}",
                policy.label(),
                report.ledger.communication
            );
            assert!(
                report.ledger.migration <= moves,
                "{}: mig {} > interval moves {moves}",
                policy.label(),
                report.ledger.migration
            );
        }
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let inst = RingInstance::packed(3, 8);
        let run_once = |seed: u64| {
            let mut alg = DynamicPartitioner::new(&inst, cfg(PolicyKind::HstHedge, seed));
            let mut w = workload::UniformRandom::new(17);
            let r = run(&mut alg, &mut w, 500, AuditLevel::None);
            (r.ledger, alg.placement().assignment().to_vec())
        };
        assert_eq!(run_once(5), run_once(5));
    }

    #[test]
    fn fixed_shift_is_honored() {
        let inst = RingInstance::packed(3, 8);
        let mut config = cfg(PolicyKind::WorkFunction, 9);
        config.shift = Some(7);
        let alg = DynamicPartitioner::new(&inst, config);
        assert_eq!(alg.shift(), 7);
    }

    #[test]
    fn single_interval_instance_works() {
        // n ≤ k′: one interval, one slice, no migrations ever.
        let inst = RingInstance::new(6, 2, 6);
        let mut alg = DynamicPartitioner::new(&inst, cfg(PolicyKind::SminGradient, 2));
        assert_eq!(alg.num_intervals(), 1);
        let mut w = workload::UniformRandom::new(3);
        let report = run(&mut alg, &mut w, 500, AuditLevel::Full { load_limit: 12 });
        assert_eq!(report.ledger.migration, 0);
        assert_eq!(report.ledger.communication, 0, "single slice never cuts");
    }

    #[test]
    fn restore_derives_cuts_and_placement_from_the_policies() {
        // Interval 1's boundary on packed(4, 8) (k′ = 12, ℓ′ = 3) is
        // never clamped, so moving its cut moves processes.
        let inst = RingInstance::packed(4, 8);
        let config = cfg(PolicyKind::HstHedge, 5);
        let mut alg = DynamicPartitioner::new(&inst, config);
        let bound = alg.load_bound();
        let audit = AuditLevel::Full { load_limit: bound };
        let mut w = workload::UniformRandom::new(3);
        let _ = run(&mut alg, &mut w, 300, audit);

        // Edit interval 1's coupling state, `[u, state, moved]`.
        let edited = (alg.cut_state[1] + alg.k_prime / 2) % alg.k_prime;
        let mut snap = alg.export_state().unwrap();
        let Value::Obj(fields) = &mut snap else {
            panic!("a snapshot is an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["interval_hit", "interval_move", "policies"]);
        let (_, Value::Arr(policies)) = fields.iter_mut().find(|(k, _)| k == "policies").unwrap()
        else {
            panic!("policies is an array")
        };
        let Value::Obj(policy) = &mut policies[1] else {
            panic!("a policy snapshot is an object")
        };
        let (_, Value::Arr(coupling)) = policy.iter_mut().find(|(k, _)| k == "coupling").unwrap()
        else {
            panic!("coupling is an array")
        };
        coupling[1] = Value::UInt(u64::from(edited));

        let mut restored = DynamicPartitioner::new(&inst, config);
        restored.restore_state(&snap).unwrap();
        let mut cuts = alg.cut_state.clone();
        cuts[1] = edited;
        assert_eq!(restored.cut_state, cuts);
        let want = assignment_from_cuts(inst.n(), alg.k_prime, alg.ell_prime, alg.shift, &cuts);
        assert_eq!(restored.placement().assignment(), &want[..]);
        assert_ne!(restored.placement(), alg.placement());
        let report = run(&mut restored, &mut w, 500, audit);
        assert_eq!(report.capacity_violations, 0);
    }

    #[test]
    #[should_panic(expected = "epsilon must be positive")]
    fn rejects_nonpositive_epsilon() {
        let inst = RingInstance::packed(3, 4);
        let mut config = cfg(PolicyKind::WorkFunction, 0);
        config.epsilon = 0.0;
        let _ = DynamicPartitioner::new(&inst, config);
    }
}
