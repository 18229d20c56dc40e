//! Request generators: oblivious workloads and adaptive adversaries.
//!
//! Oblivious generators ignore the placement argument; adaptive
//! adversaries ([`CutChaser`] here, more in [`crate::adversary`])
//! inspect the algorithm's current placement, which is exactly the power the lower-bound proofs
//! (Lemma 4.1, Avin et al.'s Ω(k)) grant the adversary against
//! deterministic algorithms.
//!
//! All randomized generators are seeded ([`rand::rngs::StdRng`]) and
//! therefore reproducible.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{DeError, Deserialize, Serialize, Value};

use crate::seed::{rng_from_value, rng_to_value};
use crate::{Edge, Placement, RingInstance};

/// A source of communication requests on the ring.
pub trait Workload {
    /// Produces the next requested edge. Adaptive adversaries may
    /// inspect `placement`; oblivious workloads ignore it.
    fn next_request(&mut self, placement: &Placement) -> Edge;

    /// Whether this workload inspects the live placement (an adaptive
    /// adversary). Batched executors must generate adaptive requests
    /// one at a time, interleaved with serving — pre-generating a batch
    /// would show the adversary a stale placement. Oblivious workloads
    /// (the default) may be pre-generated freely.
    fn is_adaptive(&self) -> bool {
        false
    }

    /// Appends `n` requests to `out`, generated against `placement`.
    ///
    /// For oblivious workloads this is exactly `n` calls to
    /// [`Workload::next_request`] — same RNG stream, same requests —
    /// with one virtual dispatch per batch instead of one per edge;
    /// implementations specialize it with tight loops that hoist the
    /// per-request instance lookups. For adaptive workloads the default
    /// generates against the *fixed* `placement` snapshot, which is
    /// only correct when the placement cannot change mid-batch — the
    /// batched driver never calls `fill_batch` on an adaptive workload
    /// (see [`Workload::is_adaptive`]).
    fn fill_batch(&mut self, placement: &Placement, n: u64, out: &mut Vec<Edge>) {
        out.reserve(n as usize);
        for _ in 0..n {
            out.push(self.next_request(placement));
        }
    }

    /// Human-readable name (for reports).
    fn name(&self) -> &'static str;

    /// Exports a serializable snapshot of all mutable state, or `None`
    /// if the workload does not support checkpointing. Same contract as
    /// [`crate::OnlineAlgorithm::export_state`]: restoring into a
    /// freshly constructed (same parameters, same seed) instance must
    /// continue the request stream bit-identically.
    fn export_state(&self) -> Option<Value> {
        None
    }

    /// Restores a snapshot produced by [`Self::export_state`] on an
    /// identically-configured instance.
    ///
    /// # Errors
    /// Returns a [`DeError`] if the workload does not support
    /// checkpointing or the snapshot does not fit.
    fn restore_state(&mut self, _state: &Value) -> Result<(), DeError> {
        Err(DeError(format!(
            "workload `{}` does not support snapshot/restore",
            self.name()
        )))
    }
}

/// Shorthand for the `{field: value}` objects the workload snapshots
/// are built from (shared with [`crate::adversary`]).
pub(crate) fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Deterministic ring-allreduce traffic: request edge `t mod n` at step
/// `t` — repeated full passes around the ring, the communication shape
/// of ring-allreduce collectives in distributed ML (paper §1, [13–15]).
#[derive(Debug, Clone, Default)]
pub struct Sequential {
    t: u64,
}

impl Sequential {
    /// Starts a fresh pass at edge 0.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Workload for Sequential {
    fn next_request(&mut self, placement: &Placement) -> Edge {
        let e = placement.instance().edge(self.t);
        self.t += 1;
        e
    }

    fn fill_batch(&mut self, placement: &Placement, n: u64, out: &mut Vec<Edge>) {
        let inst = *placement.instance();
        out.reserve(n as usize);
        for _ in 0..n {
            out.push(inst.edge(self.t));
            self.t += 1;
        }
    }

    fn name(&self) -> &'static str {
        "allreduce"
    }

    fn export_state(&self) -> Option<Value> {
        Some(obj(vec![("t", self.t.to_value())]))
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), DeError> {
        self.t = u64::from_value(state.get_field("t")?)?;
        Ok(())
    }
}

/// Uniformly random edges.
#[derive(Debug)]
pub struct UniformRandom {
    rng: StdRng,
}

impl UniformRandom {
    /// Creates a seeded uniform generator.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Workload for UniformRandom {
    fn next_request(&mut self, placement: &Placement) -> Edge {
        let n = placement.instance().n();
        Edge(self.rng.random_range(0..n))
    }

    fn fill_batch(&mut self, placement: &Placement, n: u64, out: &mut Vec<Edge>) {
        let edges = placement.instance().n();
        out.reserve(n as usize);
        for _ in 0..n {
            out.push(Edge(self.rng.random_range(0..edges)));
        }
    }

    fn name(&self) -> &'static str {
        "uniform"
    }

    fn export_state(&self) -> Option<Value> {
        Some(obj(vec![("rng", rng_to_value(&self.rng))]))
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), DeError> {
        self.rng = rng_from_value(state.get_field("rng")?)?;
        Ok(())
    }
}

/// Zipf-distributed edge popularity: rank-`r` edge has weight
/// `1/(r+1)^s`, with ranks assigned by a seeded random permutation so the
/// hot edges are scattered around the ring.
#[derive(Debug)]
pub struct Zipf {
    rng: StdRng,
    cdf: Vec<f64>,
    edge_of_rank: Vec<u32>,
}

impl Zipf {
    /// Creates a Zipf generator with exponent `s > 0` over the edges of
    /// `instance`.
    ///
    /// # Panics
    /// Panics if `s` is not finite and positive.
    #[must_use]
    pub fn new(instance: &RingInstance, s: f64, seed: u64) -> Self {
        assert!(s.is_finite() && s > 0.0, "Zipf exponent must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let n = instance.n() as usize;
        let mut edge_of_rank: Vec<u32> = (0..instance.n()).collect();
        // Fisher–Yates shuffle.
        for i in (1..n).rev() {
            let j = rng.random_range(0..=i);
            edge_of_rank.swap(i, j);
        }
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Self {
            rng,
            cdf,
            edge_of_rank,
        }
    }
}

impl Workload for Zipf {
    fn next_request(&mut self, _placement: &Placement) -> Edge {
        let u: f64 = self.rng.random();
        let rank = self.cdf.partition_point(|&c| c < u);
        let rank = rank.min(self.edge_of_rank.len() - 1);
        Edge(self.edge_of_rank[rank])
    }

    fn fill_batch(&mut self, _placement: &Placement, n: u64, out: &mut Vec<Edge>) {
        let last = self.edge_of_rank.len() - 1;
        out.reserve(n as usize);
        for _ in 0..n {
            let u: f64 = self.rng.random();
            let rank = self.cdf.partition_point(|&c| c < u).min(last);
            out.push(Edge(self.edge_of_rank[rank]));
        }
    }

    fn name(&self) -> &'static str {
        "zipf"
    }

    // The cdf and rank permutation are construction-derived (same
    // parameters + seed ⇒ identical tables), so only the RNG position
    // is live state.
    fn export_state(&self) -> Option<Value> {
        Some(obj(vec![("rng", rng_to_value(&self.rng))]))
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), DeError> {
        self.rng = rng_from_value(state.get_field("rng")?)?;
        Ok(())
    }
}

/// A hot window of `width` consecutive edges; requests are uniform
/// within the window, and the window slides forward by one edge every
/// `period` requests. Models drifting locality.
#[derive(Debug)]
pub struct SlidingWindow {
    rng: StdRng,
    width: u32,
    period: u64,
    t: u64,
}

impl SlidingWindow {
    /// Creates a sliding-window generator.
    ///
    /// # Panics
    /// Panics if `width == 0` or `period == 0`.
    #[must_use]
    pub fn new(width: u32, period: u64, seed: u64) -> Self {
        assert!(width > 0, "window width must be positive");
        assert!(period > 0, "slide period must be positive");
        Self {
            rng: StdRng::seed_from_u64(seed),
            width,
            period,
            t: 0,
        }
    }
}

impl Workload for SlidingWindow {
    fn next_request(&mut self, placement: &Placement) -> Edge {
        let inst = placement.instance();
        let base = self.t / self.period;
        let offset = u64::from(self.rng.random_range(0..self.width.min(inst.n())));
        self.t += 1;
        inst.edge(base + offset)
    }

    fn fill_batch(&mut self, placement: &Placement, n: u64, out: &mut Vec<Edge>) {
        let inst = *placement.instance();
        let width = self.width.min(inst.n());
        out.reserve(n as usize);
        for _ in 0..n {
            let base = self.t / self.period;
            let offset = u64::from(self.rng.random_range(0..width));
            self.t += 1;
            out.push(inst.edge(base + offset));
        }
    }

    fn name(&self) -> &'static str {
        "sliding-window"
    }

    fn export_state(&self) -> Option<Value> {
        Some(obj(vec![
            ("rng", rng_to_value(&self.rng)),
            ("t", self.t.to_value()),
        ]))
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), DeError> {
        self.rng = rng_from_value(state.get_field("rng")?)?;
        self.t = u64::from_value(state.get_field("t")?)?;
        Ok(())
    }
}

/// A single hot edge requested with probability `p_hot` (else a uniform
/// edge); the hotspot teleports by `jump` edges every `dwell` requests.
/// Models tenant churn / failover in a datacenter.
#[derive(Debug)]
pub struct RotatingHotspot {
    rng: StdRng,
    p_hot: f64,
    jump: u32,
    dwell: u64,
    t: u64,
}

impl RotatingHotspot {
    /// Creates a rotating-hotspot generator.
    ///
    /// # Panics
    /// Panics if `p_hot ∉ [0,1]` or `dwell == 0`.
    #[must_use]
    pub fn new(p_hot: f64, jump: u32, dwell: u64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p_hot), "p_hot must be in [0,1]");
        assert!(dwell > 0, "dwell must be positive");
        Self {
            rng: StdRng::seed_from_u64(seed),
            p_hot,
            jump,
            dwell,
            t: 0,
        }
    }
}

impl Workload for RotatingHotspot {
    fn next_request(&mut self, placement: &Placement) -> Edge {
        let inst = placement.instance();
        let epoch = self.t / self.dwell;
        self.t += 1;
        if self.rng.random::<f64>() < self.p_hot {
            inst.edge(epoch * u64::from(self.jump))
        } else {
            Edge(self.rng.random_range(0..inst.n()))
        }
    }

    fn fill_batch(&mut self, placement: &Placement, n: u64, out: &mut Vec<Edge>) {
        let inst = *placement.instance();
        out.reserve(n as usize);
        for _ in 0..n {
            let epoch = self.t / self.dwell;
            self.t += 1;
            out.push(if self.rng.random::<f64>() < self.p_hot {
                inst.edge(epoch * u64::from(self.jump))
            } else {
                Edge(self.rng.random_range(0..inst.n()))
            });
        }
    }

    fn name(&self) -> &'static str {
        "rotating-hotspot"
    }

    fn export_state(&self) -> Option<Value> {
        Some(obj(vec![
            ("rng", rng_to_value(&self.rng)),
            ("t", self.t.to_value()),
        ]))
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), DeError> {
        self.rng = rng_from_value(state.get_field("rng")?)?;
        self.t = u64::from_value(state.get_field("t")?)?;
        Ok(())
    }
}

/// Geometric bursts: keep requesting the same edge with probability
/// `p_continue`, otherwise jump to a fresh uniform edge.
#[derive(Debug)]
pub struct Bursty {
    rng: StdRng,
    current: Option<Edge>,
    p_continue: f64,
}

impl Bursty {
    /// Creates a bursty generator (expected burst length
    /// `1/(1-p_continue)`).
    ///
    /// # Panics
    /// Panics if `p_continue ∉ [0,1)`.
    #[must_use]
    pub fn new(p_continue: f64, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&p_continue),
            "p_continue must be in [0,1)"
        );
        Self {
            rng: StdRng::seed_from_u64(seed),
            current: None,
            p_continue,
        }
    }
}

impl Workload for Bursty {
    fn next_request(&mut self, placement: &Placement) -> Edge {
        let n = placement.instance().n();
        let fresh = match self.current {
            Some(e) if self.rng.random::<f64>() < self.p_continue => e,
            _ => Edge(self.rng.random_range(0..n)),
        };
        self.current = Some(fresh);
        fresh
    }

    fn fill_batch(&mut self, placement: &Placement, n: u64, out: &mut Vec<Edge>) {
        let edges = placement.instance().n();
        out.reserve(n as usize);
        for _ in 0..n {
            let fresh = match self.current {
                Some(e) if self.rng.random::<f64>() < self.p_continue => e,
                _ => Edge(self.rng.random_range(0..edges)),
            };
            self.current = Some(fresh);
            out.push(fresh);
        }
    }

    fn name(&self) -> &'static str {
        "bursty"
    }

    fn export_state(&self) -> Option<Value> {
        Some(obj(vec![
            ("rng", rng_to_value(&self.rng)),
            ("current", self.current.map(|e| e.0).to_value()),
        ]))
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), DeError> {
        self.rng = rng_from_value(state.get_field("rng")?)?;
        self.current =
            <Option<u32> as Deserialize>::from_value(state.get_field("current")?)?.map(Edge);
        Ok(())
    }
}

/// The requested edge performs a lazy ±1 random walk on the ring.
/// Produces long runs of spatially correlated requests.
#[derive(Debug)]
pub struct RandomWalk {
    rng: StdRng,
    position: u64,
}

impl RandomWalk {
    /// Creates a random-walk generator starting at edge `start`.
    #[must_use]
    pub fn new(start: u32, seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            position: u64::from(start),
        }
    }
}

impl Workload for RandomWalk {
    fn next_request(&mut self, placement: &Placement) -> Edge {
        let n = u64::from(placement.instance().n());
        match self.rng.random_range(0..3u8) {
            0 => self.position = (self.position + 1) % n,
            1 => self.position = (self.position + n - 1) % n,
            _ => {}
        }
        placement.instance().edge(self.position)
    }

    fn fill_batch(&mut self, placement: &Placement, n: u64, out: &mut Vec<Edge>) {
        let inst = *placement.instance();
        let edges = u64::from(inst.n());
        out.reserve(n as usize);
        for _ in 0..n {
            match self.rng.random_range(0..3u8) {
                0 => self.position = (self.position + 1) % edges,
                1 => self.position = (self.position + edges - 1) % edges,
                _ => {}
            }
            out.push(inst.edge(self.position));
        }
    }

    fn name(&self) -> &'static str {
        "random-walk"
    }

    fn export_state(&self) -> Option<Value> {
        Some(obj(vec![
            ("rng", rng_to_value(&self.rng)),
            ("position", self.position.to_value()),
        ]))
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), DeError> {
        self.rng = rng_from_value(state.get_field("rng")?)?;
        self.position = u64::from_value(state.get_field("position")?)?;
        Ok(())
    }
}

/// **Adaptive adversary**: always requests a current cut edge of the
/// online algorithm (scanning clockwise from the previous request so the
/// pressure rotates). This is the adversary from the deterministic
/// lower bounds — any deterministic algorithm pays 1 on every request or
/// migrates.
///
/// If the placement has no cut edge (only possible when one server hosts
/// everything), edge 0 is requested.
#[derive(Debug, Clone, Default)]
pub struct CutChaser {
    cursor: u32,
}

impl CutChaser {
    /// Creates a cut-chasing adversary.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Workload for CutChaser {
    // Adaptive: inspects the live placement, so batched executors must
    // generate its requests one serve at a time.
    fn is_adaptive(&self) -> bool {
        true
    }

    fn next_request(&mut self, placement: &Placement) -> Edge {
        let n = placement.instance().n();
        for off in 1..=n {
            let e = Edge((self.cursor + off) % n);
            if placement.is_cut(e) {
                self.cursor = e.0;
                return e;
            }
        }
        Edge(0)
    }

    fn name(&self) -> &'static str {
        "cut-chaser"
    }

    fn export_state(&self) -> Option<Value> {
        Some(obj(vec![("cursor", self.cursor.to_value())]))
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), DeError> {
        self.cursor = u32::from_value(state.get_field("cursor")?)?;
        Ok(())
    }
}

/// Replays a fixed request vector, cycling when exhausted.
#[derive(Debug)]
pub struct Replay {
    requests: Vec<Edge>,
    t: usize,
}

impl Replay {
    /// Creates a replay source.
    ///
    /// # Panics
    /// Panics if `requests` is empty.
    #[must_use]
    pub fn new(requests: Vec<Edge>) -> Self {
        assert!(!requests.is_empty(), "cannot replay an empty trace");
        Self { requests, t: 0 }
    }
}

impl Workload for Replay {
    fn next_request(&mut self, _placement: &Placement) -> Edge {
        let e = self.requests[self.t % self.requests.len()];
        self.t += 1;
        e
    }

    fn fill_batch(&mut self, _placement: &Placement, n: u64, out: &mut Vec<Edge>) {
        let len = self.requests.len();
        out.reserve(n as usize);
        for _ in 0..n {
            out.push(self.requests[self.t % len]);
            self.t += 1;
        }
    }

    fn name(&self) -> &'static str {
        "replay"
    }

    // The request vector is a construction parameter; only the cursor
    // is live state.
    fn export_state(&self) -> Option<Value> {
        Some(obj(vec![("t", self.t.to_value())]))
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), DeError> {
        self.t = usize::from_value(state.get_field("t")?)?;
        Ok(())
    }
}

/// Records `steps` requests from a workload into a vector, driving it
/// with a fixed placement (useful for oblivious workloads whose output
/// does not depend on the placement).
pub fn record<W: Workload + ?Sized>(
    workload: &mut W,
    placement: &Placement,
    steps: u64,
) -> Vec<Edge> {
    (0..steps)
        .map(|_| workload.next_request(placement))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Placement;

    fn placement() -> Placement {
        Placement::contiguous(&RingInstance::new(16, 4, 4))
    }

    #[test]
    fn sequential_walks_the_ring() {
        let p = placement();
        let mut w = Sequential::new();
        let got = record(&mut w, &p, 18);
        assert_eq!(got[0], Edge(0));
        assert_eq!(got[15], Edge(15));
        assert_eq!(got[16], Edge(0));
        assert_eq!(got[17], Edge(1));
    }

    #[test]
    fn uniform_is_seed_deterministic_and_in_range() {
        let p = placement();
        let a = record(&mut UniformRandom::new(42), &p, 100);
        let b = record(&mut UniformRandom::new(42), &p, 100);
        let c = record(&mut UniformRandom::new(43), &p, 100);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|e| e.0 < 16));
    }

    #[test]
    fn zipf_concentrates_on_few_edges() {
        let p = placement();
        let mut w = Zipf::new(p.instance(), 1.2, 7);
        let reqs = record(&mut w, &p, 4000);
        let mut counts = [0u32; 16];
        for e in &reqs {
            counts[e.0 as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        // The rank-1 edge alone carries ≥ 1/H(16)^... far above uniform.
        assert!(max > 4000 / 16 * 2, "Zipf should be skewed, max={max}");
    }

    #[test]
    fn sliding_window_stays_in_window() {
        let p = placement();
        let mut w = SlidingWindow::new(4, 10, 3);
        for t in 0..200u64 {
            let e = w.next_request(&p);
            let base = t / 10;
            let off = (u64::from(e.0) + 16 - base % 16) % 16;
            assert!(off < 4, "step {t}: edge {} outside window", e.0);
        }
    }

    #[test]
    fn bursty_repeats_edges() {
        let p = placement();
        let mut w = Bursty::new(0.9, 5);
        let reqs = record(&mut w, &p, 1000);
        let repeats = reqs.windows(2).filter(|w| w[0] == w[1]).count();
        assert!(repeats > 700, "expected long bursts, got {repeats} repeats");
    }

    #[test]
    fn random_walk_moves_at_most_one() {
        let p = placement();
        let mut w = RandomWalk::new(5, 9);
        let reqs = record(&mut w, &p, 500);
        for pair in reqs.windows(2) {
            let d = p.instance().edge_distance(pair[0], pair[1]);
            assert!(d <= 1);
        }
    }

    #[test]
    fn cut_chaser_always_requests_cut_edges() {
        let p = placement();
        let mut w = CutChaser::new();
        for _ in 0..50 {
            let e = w.next_request(&p);
            assert!(p.is_cut(e));
        }
    }

    #[test]
    fn cut_chaser_rotates_over_all_cuts() {
        let p = placement();
        let mut w = CutChaser::new();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..8 {
            seen.insert(w.next_request(&p));
        }
        assert_eq!(seen.len(), 4, "should cycle through all 4 cut edges");
    }

    #[test]
    fn rotating_hotspot_is_mostly_hot() {
        let p = placement();
        let mut w = RotatingHotspot::new(0.9, 3, 50, 11);
        let reqs = record(&mut w, &p, 50);
        let hot = reqs.iter().filter(|e| e.0 == 0).count();
        assert!(hot >= 35, "first epoch hotspot is edge 0, got {hot}");
    }

    #[test]
    fn fill_batch_matches_repeated_next_request() {
        // The batched generation path must consume the identical RNG
        // stream as per-request generation — split points must not
        // matter (the property the batched driver's bit-identity
        // relies on).
        let p = placement();
        type Build = fn() -> Box<dyn Workload>;
        let make: Vec<(&str, Build)> = vec![
            ("allreduce", || Box::new(Sequential::new())),
            ("uniform", || Box::new(UniformRandom::new(9))),
            ("zipf", || {
                Box::new(Zipf::new(placement().instance(), 1.2, 4))
            }),
            ("sliding", || Box::new(SlidingWindow::new(4, 10, 3))),
            ("hotspot", || Box::new(RotatingHotspot::new(0.8, 3, 20, 6))),
            ("bursty", || Box::new(Bursty::new(0.9, 5))),
            ("random-walk", || Box::new(RandomWalk::new(5, 9))),
            ("replay", || {
                Box::new(Replay::new(vec![Edge(1), Edge(2), Edge(3)]))
            }),
        ];
        for (name, build) in make {
            let mut per_step = build();
            let want = record(per_step.as_mut(), &p, 300);
            let mut batched = build();
            assert!(!batched.is_adaptive(), "{name} must be oblivious");
            let mut got = Vec::new();
            for chunk in [1u64, 7, 100, 192] {
                batched.fill_batch(&p, chunk, &mut got);
            }
            assert_eq!(got, want, "{name}: batched stream diverged");
        }
    }

    #[test]
    fn cut_chaser_is_adaptive() {
        assert!(CutChaser::new().is_adaptive());
        assert!(!UniformRandom::new(0).is_adaptive());
    }

    #[test]
    fn replay_cycles() {
        let p = placement();
        let mut w = Replay::new(vec![Edge(1), Edge(2)]);
        let got = record(&mut w, &p, 5);
        assert_eq!(got, vec![Edge(1), Edge(2), Edge(1), Edge(2), Edge(1)]);
    }
}
