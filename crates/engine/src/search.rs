//! Adversary search: randomized hill climbing over request prefixes
//! maximizing the observed cost/LB ratio.
//!
//! The adaptive strategies in [`rdbp_model::adversary`] are
//! deterministic inner moves; this module composes them into a search
//! for the *empirical worst case* of a resolved algorithm:
//!
//! 1. **Seed round** — one full rollout per strategy from the empty
//!    prefix.
//! 2. **Hill climbing** — mutate the incumbent schedule: keep a random
//!    prefix of its request trace, then either hand control to a
//!    (possibly different) strategy for the remaining steps, or
//!    *hammer* — repeat the heaviest cut edge at the cut point for the
//!    rest of the run (the single-edge attack that is worst-case for
//!    lazy algorithms). Strictly better ratios are kept.
//! 3. **Restarts** — after [`SearchConfig::restart_after`] consecutive
//!    non-improving evaluations the incumbent restarts from a fresh
//!    strategy rollout (the global best is never forgotten).
//!
//! The ratio's denominator is a certified lower bound LB ≤ OPT on the
//! dynamic optimum from the configured [`OracleSpec`] (default
//! `ringload`), so cost/LB ≥ cost/OPT: the true ratio on the found
//! schedule is *at most* the reported one. The numerator is the
//! driver's standard-model ledger total.
//!
//! **Determinism:** every rollout replays the algorithm from its
//! construction seed, every strategy is deterministic, and the only
//! randomness is the search's own [`StdRng`] seeded from
//! [`SearchConfig::seed`] — so the whole search, including the found
//! trace, is a pure function of its configuration. CI pins this by
//! running the search twice and diffing the JSON.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use rdbp_model::{
    AuditLevel, Driver, Edge, GreedyCutMaximizer, NoopObserver, Placement, RingInstance, Workload,
};

use crate::registry::Registries;
use crate::spec::{AlgorithmSpec, OracleSpec, SpecError, WorkloadSpec};

/// Configuration of one adversary search.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// The algorithm under attack (resolved freshly for every rollout
    /// with [`SearchConfig::seed`], so deterministic algorithms replay
    /// identically).
    pub algorithm: AlgorithmSpec,
    /// The lower-bound oracle used as the ratio denominator.
    pub oracle: OracleSpec,
    /// Strategy keys to search over; empty means every canonical
    /// built-in strategy.
    pub adversaries: Vec<String>,
    /// Schedule length (requests per rollout).
    pub steps: u64,
    /// Total rollout evaluations the search may spend (the seed round
    /// included).
    pub budget: u64,
    /// Seed for the search's own randomness (mutation choices).
    pub seed: u64,
    /// Consecutive non-improving evaluations before the incumbent
    /// restarts from a fresh strategy rollout.
    pub restart_after: u64,
}

impl SearchConfig {
    /// A search against `algorithm` with the default knobs: ringload
    /// denominator, all built-in strategies, `steps` requests, a
    /// 24-evaluation budget, seed 0, restart after 6 misses.
    #[must_use]
    pub fn new(algorithm: AlgorithmSpec, steps: u64) -> Self {
        Self {
            algorithm,
            oracle: OracleSpec::named("ringload"),
            adversaries: Vec::new(),
            steps,
            budget: 24,
            seed: 0,
            restart_after: 6,
        }
    }
}

/// The result of an adversary search.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The best observed cost/LB ratio.
    pub best_ratio: f64,
    /// The online cost of the best schedule (standard-model ledger).
    pub best_cost: u64,
    /// The certified lower bound on OPT for the best schedule.
    pub best_lower_bound: f64,
    /// The strategy (or `strategy+hammer` mutation) that produced the
    /// best schedule.
    pub best_adversary: String,
    /// Rollout evaluations actually spent.
    pub evaluations: u64,
    /// Incumbent restarts performed.
    pub restarts: u64,
    /// The best schedule itself (replayable via `run_trace`).
    pub trace: Vec<Edge>,
}

/// How a rollout continues after the replayed prefix.
enum Continuation {
    /// Hand control to the named strategy.
    Strategy(String),
    /// Repeat the heaviest cut edge at the cut point for the rest.
    Hammer,
}

/// One evaluated schedule.
#[derive(Clone)]
struct Candidate {
    trace: Vec<Edge>,
    cost: u64,
    lower_bound: f64,
    ratio: f64,
    label: String,
}

/// Runs the adversary search for `config` on `instance`.
///
/// # Errors
/// Returns a [`SpecError`] if the algorithm, oracle or any strategy
/// key fails to resolve, or if `steps` or `budget` is zero.
///
/// # Panics
/// Never in practice: rollouts run unaudited ([`AuditLevel::None`]).
pub fn adversary_search(
    instance: &RingInstance,
    config: &SearchConfig,
    registries: &Registries,
) -> Result<SearchOutcome, SpecError> {
    if config.steps == 0 {
        return Err(SpecError("adversary search needs steps > 0".into()));
    }
    if config.budget == 0 {
        return Err(SpecError("adversary search needs budget > 0".into()));
    }
    let keys: Vec<String> = if config.adversaries.is_empty() {
        registries.workloads.canonical_adversary_keys()
    } else {
        config.adversaries.clone()
    };
    if keys.is_empty() {
        return Err(SpecError(
            "adversary search needs at least one strategy".into(),
        ));
    }
    // Fail fast on unknown or oblivious keys before spending any
    // budget.
    for key in &keys {
        registries.workloads.check_adversary(key)?;
    }
    let mut oracle = registries.oracles.resolve(&config.oracle, instance)?;
    let initial = Placement::contiguous(instance);

    let mut evaluate =
        |prefix: &[Edge], continuation: &Continuation| -> Result<Candidate, SpecError> {
            let built = registries
                .algorithms
                .resolve(&config.algorithm, instance, config.seed)?;
            let mut alg = built.algorithm;
            let mut driver = Driver::new(alg.name(), "adversary-search", AuditLevel::None);
            let mut trace = Vec::with_capacity(config.steps as usize);
            for &e in prefix.iter().take(config.steps as usize) {
                driver.step(alg.as_mut(), e, &mut NoopObserver);
                trace.push(e);
            }
            let label = match continuation {
                Continuation::Strategy(key) => {
                    let spec = WorkloadSpec::named(key.as_str());
                    let mut adv = registries.workloads.resolve(&spec, instance, config.seed)?;
                    while (trace.len() as u64) < config.steps {
                        let e = adv.next_request(alg.placement());
                        driver.step(alg.as_mut(), e, &mut NoopObserver);
                        trace.push(e);
                    }
                    key.clone()
                }
                Continuation::Hammer => {
                    // The heaviest cut edge at the cut point, repeated: the
                    // single-edge attack (worst case for lazy algorithms,
                    // and a strong local move after any prefix).
                    let e = GreedyCutMaximizer::new().next_request(alg.placement());
                    while (trace.len() as u64) < config.steps {
                        driver.step(alg.as_mut(), e, &mut NoopObserver);
                        trace.push(e);
                    }
                    "hammer".to_string()
                }
            };
            let cost = driver.report().ledger.total();
            let lower_bound = oracle.lower_bound(instance, &initial, &trace).max(1.0);
            let ratio = cost as f64 / lower_bound;
            Ok(Candidate {
                trace,
                cost,
                lower_bound,
                ratio,
                label,
            })
        };

    let mut evaluations = 0u64;
    let mut restarts = 0u64;
    let mut best: Option<Candidate> = None;
    let mut incumbent: Option<Candidate> = None;

    // Seed round: every strategy from the empty prefix.
    for key in &keys {
        if evaluations >= config.budget {
            break;
        }
        let cand = evaluate(&[], &Continuation::Strategy(key.clone()))?;
        evaluations += 1;
        if incumbent.as_ref().is_none_or(|c| cand.ratio > c.ratio) {
            incumbent = Some(cand.clone());
        }
        if best.as_ref().is_none_or(|b| cand.ratio > b.ratio) {
            best = Some(cand);
        }
    }

    // Hill climbing with restarts.
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut misses = 0u64;
    while evaluations < config.budget {
        let base = incumbent.as_ref().expect("seed round ran");
        let cut = rng.random_range(0..=base.trace.len());
        let prefix: Vec<Edge> = base.trace[..cut].to_vec();
        let continuation = if rng.random::<f64>() < 0.5 {
            Continuation::Hammer
        } else {
            Continuation::Strategy(keys[rng.random_range(0..keys.len())].clone())
        };
        let cand = evaluate(&prefix, &continuation)?;
        evaluations += 1;
        let improved = incumbent.as_ref().is_none_or(|c| cand.ratio > c.ratio);
        if improved {
            misses = 0;
            incumbent = Some(cand.clone());
        } else {
            misses += 1;
        }
        if best.as_ref().is_none_or(|b| cand.ratio > b.ratio) {
            best = Some(cand);
        }
        if misses >= config.restart_after && evaluations < config.budget {
            // Restart the incumbent from a fresh strategy rollout.
            restarts += 1;
            misses = 0;
            let key = &keys[rng.random_range(0..keys.len())];
            let fresh = evaluate(&[], &Continuation::Strategy(key.clone()))?;
            evaluations += 1;
            if best.as_ref().is_none_or(|b| fresh.ratio > b.ratio) {
                best = Some(fresh.clone());
            }
            incumbent = Some(fresh);
        }
    }

    let best = best.expect("budget > 0 and at least one strategy ⇒ one evaluation ran");
    Ok(SearchOutcome {
        best_ratio: best.ratio,
        best_cost: best.cost,
        best_lower_bound: best.lower_bound,
        best_adversary: best.label,
        evaluations,
        restarts,
        trace: best.trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::InstanceSpec;
    use rdbp_model::run_trace;

    fn instance() -> RingInstance {
        InstanceSpec::packed(4, 8).build().unwrap()
    }

    #[test]
    fn search_is_deterministic_under_a_fixed_seed() {
        let inst = instance();
        let mut config = SearchConfig::new(AlgorithmSpec::named("greedy"), 200);
        config.budget = 10;
        let registries = Registries::builtin();
        let a = adversary_search(&inst, &config, &registries).unwrap();
        let b = adversary_search(&inst, &config, &registries).unwrap();
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.best_cost, b.best_cost);
        assert!((a.best_ratio - b.best_ratio).abs() < f64::EPSILON);
        assert_eq!(a.best_adversary, b.best_adversary);
        assert_eq!(a.evaluations, 10);
    }

    #[test]
    fn found_ratio_is_finite_and_at_least_one_for_lazy_victims() {
        let inst = instance();
        let config = SearchConfig::new(AlgorithmSpec::named("never-move"), 300);
        let outcome = adversary_search(&inst, &config, &Registries::builtin()).unwrap();
        assert!(outcome.best_ratio.is_finite());
        assert!(
            outcome.best_ratio >= 1.0,
            "never-move must be beatable: {}",
            outcome.best_ratio
        );
        assert_eq!(outcome.trace.len(), 300);
    }

    #[test]
    fn best_trace_replays_to_the_reported_cost() {
        // The search's certified contract: replaying the found schedule
        // through a freshly resolved algorithm reproduces best_cost
        // exactly (deterministic algorithms replay identically).
        let inst = instance();
        let mut config = SearchConfig::new(AlgorithmSpec::named("greedy"), 150);
        config.budget = 8;
        let registries = Registries::builtin();
        let outcome = adversary_search(&inst, &config, &registries).unwrap();
        let mut alg = registries
            .algorithms
            .resolve(&config.algorithm, &inst, config.seed)
            .unwrap()
            .algorithm;
        let report = run_trace(alg.as_mut(), &outcome.trace, AuditLevel::None);
        assert_eq!(report.ledger.total(), outcome.best_cost);
    }

    #[test]
    fn search_rejects_bad_configs() {
        let inst = instance();
        let registries = Registries::builtin();
        let mut config = SearchConfig::new(AlgorithmSpec::named("greedy"), 0);
        assert!(adversary_search(&inst, &config, &registries).is_err());
        config.steps = 100;
        config.budget = 0;
        assert!(adversary_search(&inst, &config, &registries).is_err());
        config.budget = 4;
        config.adversaries = vec!["oracle-of-delphi".into()];
        let err =
            adversary_search(&inst, &config, &registries).expect_err("unknown strategy must fail");
        assert!(err.0.contains("unknown adversary"), "{err}");
        // An oblivious workload is not an adversary.
        config.adversaries = vec!["uniform".into()];
        let err =
            adversary_search(&inst, &config, &registries).expect_err("oblivious key must fail");
        assert_eq!(
            err.0,
            "unknown adversary `uniform` (valid: chaser, cut-chaser, greedy-cut, separation, \
             separation-chaser)"
        );
    }

    #[test]
    fn explicit_strategy_subsets_are_honoured() {
        let inst = instance();
        let mut config = SearchConfig::new(AlgorithmSpec::named("never-move"), 100);
        config.adversaries = vec!["greedy-cut".into()];
        config.budget = 3;
        let outcome = adversary_search(&inst, &config, &Registries::builtin()).unwrap();
        assert!(outcome.best_adversary == "greedy-cut" || outcome.best_adversary == "hammer");
    }
}
