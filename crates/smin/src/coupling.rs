//! Inverse-CDF coupling: realizing states from a drifting distribution.

use rand::{Rng, RngExt};

use crate::Distribution;

/// Realizes a concrete state from a sequence of distributions such that
/// the expected movement between successive realizations equals the
/// 1-Wasserstein distance between the distributions.
///
/// The paper's randomized algorithms maintain a probability distribution
/// `p⁽ᵗ⁾ = ∇smin'(x⁽ᵗ⁾)` over the edges of an interval and must *play* a
/// concrete edge whose marginal matches `p⁽ᵗ⁾` while keeping movement
/// small. On a line, the inverse-CDF (quantile) coupling — fix a uniform
/// draw `u` and play `F⁻¹_{p⁽ᵗ⁾}(u)` — is an optimal transport plan, so
/// `E[|state_t - state_{t-1}|] = W₁(p⁽ᵗ⁻¹⁾, p⁽ᵗ⁾)`. This is never worse
/// (and typically much better) than the `k·‖p - q‖₁` bound used in the
/// paper's analysis (Section 4.1).
///
/// `resample` draws a fresh `u`; the paper needs this when an interval
/// grows and a new edge must be chosen inside the new interval.
#[derive(Debug, Clone)]
pub struct QuantileCoupling {
    u: f64,
    state: usize,
    moved: u64,
    /// Work counter: follow/resample operations performed. Transient
    /// instrumentation for the perf gate — not part of the
    /// `(u, state, moved)` persistence triple.
    follows: u64,
}

impl QuantileCoupling {
    /// Creates a coupling with a fresh uniform draw and realizes the
    /// initial state from `dist`.
    pub fn new<R: Rng + ?Sized>(dist: &Distribution, rng: &mut R) -> Self {
        let u = draw_unit(rng);
        let state = dist.quantile(u);
        Self {
            u,
            state,
            moved: 0,
            follows: 0,
        }
    }

    /// Creates a coupling pinned at a specific `u` (deterministic replay
    /// in tests).
    ///
    /// # Panics
    /// Panics if `u` is outside `[0, 1]`.
    pub fn with_u(dist: &Distribution, u: f64) -> Self {
        let state = dist.quantile(u);
        Self {
            u,
            state,
            moved: 0,
            follows: 0,
        }
    }

    /// Currently realized state.
    #[must_use]
    pub fn state(&self) -> usize {
        self.state
    }

    /// The fixed uniform draw `u` the coupling realizes states through
    /// (exposed for checkpoint/restore).
    #[must_use]
    pub fn u(&self) -> f64 {
        self.u
    }

    /// Rebuilds a coupling from a previously captured
    /// `(u, state, distance_moved)` triple. Paired with [`Self::u`],
    /// [`Self::state`] and [`Self::distance_moved`], this lets callers
    /// persist a coupling and resume it bit-identically.
    ///
    /// # Panics
    /// Panics if `u` is outside `[0, 1]`.
    #[must_use]
    pub fn from_parts(u: f64, state: usize, moved: u64) -> Self {
        assert!((0.0..=1.0).contains(&u), "u must be in [0,1], got {u}");
        Self {
            u,
            state,
            moved,
            follows: 0,
        }
    }

    /// Total line distance moved so far (sum over updates of
    /// `|new - old|`), excluding distance charged by [`Self::resample`]
    /// callers.
    #[must_use]
    pub fn distance_moved(&self) -> u64 {
        self.moved
    }

    /// Work counter: follow/resample operations performed since
    /// construction (one per served task in the policies built on this
    /// coupling). Resets to 0 across [`Self::from_parts`] restores —
    /// counters describe work this instance actually did.
    #[must_use]
    pub fn follows(&self) -> u64 {
        self.follows
    }

    /// Updates the realized state to follow `dist`, returning the line
    /// distance moved.
    pub fn follow(&mut self, dist: &Distribution) -> u64 {
        self.follow_probs(dist.probs())
    }

    /// [`QuantileCoupling::follow`] over a raw normalized probability
    /// slice — the allocation-free path for policies that keep their
    /// distribution in a scratch buffer. Identical arithmetic to
    /// following an owned [`Distribution`] built from the same slice.
    pub fn follow_probs(&mut self, probs: &[f64]) -> u64 {
        self.follows += 1;
        let next = Distribution::quantile_of(probs, self.u);
        let d = self.state.abs_diff(next) as u64;
        self.moved += d;
        self.state = next;
        d
    }

    /// Follows the coupling to a state the *caller* already realized
    /// from its own representation of the distribution — e.g. a
    /// hierarchical policy descending its tree with one quantile step
    /// per level instead of materializing the full leaf distribution.
    /// Same bookkeeping as [`Self::follow_probs`] (one follow
    /// operation, movement accrued), minus the linear scan; the caller
    /// is responsible for `next` being `F⁻¹(u)` of its distribution.
    /// Returns the line distance moved.
    pub fn follow_to(&mut self, next: usize) -> u64 {
        self.follows += 1;
        let d = self.state.abs_diff(next) as u64;
        self.moved += d;
        self.state = next;
        d
    }

    /// Draws a fresh uniform `u` and re-realizes the state from `dist`,
    /// returning the line distance moved. Used at interval growth, where
    /// the paper pays up to `|I'|` to choose a new edge.
    pub fn resample<R: Rng + ?Sized>(&mut self, dist: &Distribution, rng: &mut R) -> u64 {
        self.follows += 1;
        self.u = draw_unit(rng);
        let next = dist.quantile(self.u);
        let d = self.state.abs_diff(next) as u64;
        self.moved += d;
        self.state = next;
        d
    }
}

/// Draws from the open interval (0, 1); endpoints would make quantile
/// behaviour depend on floating-point shortfall.
fn draw_unit<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.random();
        if u > 0.0 && u < 1.0 {
            return u;
        }
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use super::*;

    #[test]
    fn initial_state_has_correct_marginal() {
        let dist = Distribution::new(vec![0.2, 0.5, 0.3]);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0usize; 3];
        let trials = 60_000;
        for _ in 0..trials {
            let c = QuantileCoupling::new(&dist, &mut rng);
            counts[c.state()] += 1;
        }
        for (i, &count) in counts.iter().enumerate() {
            let freq = count as f64 / trials as f64;
            assert!(
                (freq - dist.prob(i)).abs() < 0.01,
                "state {i}: freq {freq} vs prob {}",
                dist.prob(i)
            );
        }
    }

    #[test]
    fn follow_keeps_marginal_after_update() {
        let d0 = Distribution::uniform(4);
        let d1 = Distribution::new(vec![0.1, 0.2, 0.3, 0.4]);
        let mut rng = StdRng::seed_from_u64(11);
        let mut counts = [0usize; 4];
        let trials = 60_000;
        for _ in 0..trials {
            let mut c = QuantileCoupling::new(&d0, &mut rng);
            c.follow(&d1);
            counts[c.state()] += 1;
        }
        for (i, &count) in counts.iter().enumerate() {
            let freq = count as f64 / trials as f64;
            assert!(
                (freq - d1.prob(i)).abs() < 0.01,
                "state {i}: freq {freq} vs prob {}",
                d1.prob(i)
            );
        }
    }

    #[test]
    fn expected_movement_matches_wasserstein() {
        let d0 = Distribution::new(vec![0.6, 0.3, 0.1, 0.0]);
        let d1 = Distribution::new(vec![0.1, 0.2, 0.3, 0.4]);
        let w1 = d0.wasserstein1(&d1);
        let mut rng = StdRng::seed_from_u64(13);
        let trials = 120_000;
        let mut total = 0u64;
        for _ in 0..trials {
            let mut c = QuantileCoupling::new(&d0, &mut rng);
            total += c.follow(&d1);
        }
        let mean = total as f64 / trials as f64;
        assert!((mean - w1).abs() < 0.02, "mean movement {mean} vs W1 {w1}");
    }

    #[test]
    fn pinned_u_is_deterministic() {
        let d0 = Distribution::uniform(5);
        let d1 = Distribution::point(4, 5);
        let mut a = QuantileCoupling::with_u(&d0, 0.31);
        let mut b = QuantileCoupling::with_u(&d0, 0.31);
        assert_eq!(a.state(), b.state());
        a.follow(&d1);
        b.follow(&d1);
        assert_eq!(a.state(), 4);
        assert_eq!(b.state(), 4);
    }

    #[test]
    fn distance_moved_accumulates() {
        let d0 = Distribution::point(0, 8);
        let d1 = Distribution::point(5, 8);
        let d2 = Distribution::point(2, 8);
        let mut c = QuantileCoupling::with_u(&d0, 0.5);
        assert_eq!(c.follow(&d1), 5);
        assert_eq!(c.follow(&d2), 3);
        assert_eq!(c.distance_moved(), 8);
    }

    #[test]
    fn follow_counter_counts_operations_not_distance() {
        let d0 = Distribution::point(0, 8);
        let d1 = Distribution::point(5, 8);
        let mut c = QuantileCoupling::with_u(&d0, 0.5);
        assert_eq!(c.follows(), 0);
        c.follow(&d1);
        c.follow(&d1); // no movement, still one operation
        assert_eq!(c.follows(), 2);
        let mut rng = StdRng::seed_from_u64(1);
        c.resample(&d1, &mut rng);
        assert_eq!(c.follows(), 3);
        // The persistence triple does not carry the counter.
        let restored = QuantileCoupling::from_parts(c.u(), c.state(), c.distance_moved());
        assert_eq!(restored.follows(), 0);
    }

    #[test]
    fn follow_to_matches_follow_probs_bookkeeping() {
        let probs = [0.25, 0.25, 0.25, 0.25];
        let mut via_scan = QuantileCoupling::with_u(&Distribution::point(0, 4), 0.6);
        let mut via_caller = QuantileCoupling::with_u(&Distribution::point(0, 4), 0.6);
        let next = Distribution::quantile_of(&probs, 0.6);
        let a = via_scan.follow_probs(&probs);
        let b = via_caller.follow_to(next);
        assert_eq!(a, b);
        assert_eq!(via_scan.state(), via_caller.state());
        assert_eq!(via_scan.distance_moved(), via_caller.distance_moved());
        assert_eq!(via_scan.follows(), via_caller.follows());
    }

    #[test]
    fn resample_redraws_state_from_new_support() {
        let d0 = Distribution::point(0, 10);
        let mut rng = StdRng::seed_from_u64(3);
        let mut c = QuantileCoupling::new(&d0, &mut rng);
        assert_eq!(c.state(), 0);
        let d1 = Distribution::point(9, 10);
        let moved = c.resample(&d1, &mut rng);
        assert_eq!(c.state(), 9);
        assert_eq!(moved, 9);
    }
}
