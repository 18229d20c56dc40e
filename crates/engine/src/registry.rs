//! String-keyed registries resolving specs into live trait objects.
//!
//! The registries are the single construction path from a declarative
//! [`AlgorithmSpec`] / [`WorkloadSpec`] / [`OracleSpec`] to a boxed
//! [`OnlineAlgorithm`] / [`Workload`] / [`OfflineOracle`]: the CLI, the
//! `exp_*` binaries, examples and tests all resolve through here
//! instead of privately matching on names. All three are one
//! [`Registry`] type, so registration, aliases, key listing and the
//! unknown-key error (which lists the valid keys) exist once. Every
//! registry is extensible via [`Registry::register`], so downstream
//! crates can plug in their own strategies and run them through the
//! same scenario machinery.
//!
//! Adversaries have no registry of their own: they are the workloads
//! that see the placement ([`Workload::is_adaptive`]), listed by
//! [`WorkloadRegistry::adversary_keys`].

use std::collections::BTreeMap;
use std::sync::Arc;

use rdbp_baselines::{
    learning_weights, BisectionSwap, ComponentSweep, GreedySwap, LearningCollocator, NeverMove,
};
use rdbp_core::{DynamicConfig, DynamicPartitioner, StaticConfig, StaticPartitioner};
use rdbp_model::{
    workload, GreedyCutMaximizer, OnlineAlgorithm, RingInstance, SeparationChaser, Workload,
};
use rdbp_offline::{ExactDynamicOracle, IntervalOracle, OfflineOracle};
use rdbp_ringload::RingloadOracle;

use crate::spec::{AlgorithmSpec, OracleSpec, SpecError, WorkloadSpec};

/// A resolved algorithm together with the load bound it guarantees
/// (used when a scenario asks for [`crate::AuditSpec::Full`] auditing).
pub struct BuiltAlgorithm {
    /// The ready-to-run algorithm.
    pub algorithm: Box<dyn OnlineAlgorithm>,
    /// The resource-augmentation load bound this algorithm honours.
    pub load_bound: u32,
}

/// The constructor every registry stores: instance, spec and seed in.
type Builder<S, T> = dyn Fn(&RingInstance, &S, u64) -> Result<T, SpecError> + Send + Sync;

/// A string-keyed table of constructors turning an `S` spec into a `T`
/// (aliases share one constructor).
pub struct Registry<S, T> {
    entries: BTreeMap<String, Arc<Builder<S, T>>>,
}

/// Registry of online algorithms, keyed by name.
pub type AlgorithmRegistry = Registry<AlgorithmSpec, BuiltAlgorithm>;

/// Registry of request sources, keyed by name (aliases included, e.g.
/// `chaser` / `cut-chaser`); the adaptive ones are the adversaries.
pub type WorkloadRegistry = Registry<WorkloadSpec, Box<dyn Workload>>;

/// Registry of offline oracles ([`rdbp_offline::OfflineOracle`]),
/// keyed by name — the construction path behind `rdbp-sim
/// --opt-oracle` and the ratio experiments.
pub type OracleRegistry = Registry<OracleSpec, Box<dyn OfflineOracle>>;

/// The error for `key` missing from a registry of `kind`s.
fn unknown_key<'a>(kind: &str, key: &str, valid: impl IntoIterator<Item = &'a str>) -> SpecError {
    let valid: Vec<&str> = valid.into_iter().collect();
    SpecError(format!(
        "unknown {kind} `{key}` (valid: {})",
        valid.join(", ")
    ))
}

impl<S, T> Registry<S, T> {
    /// An empty registry.
    #[must_use]
    pub fn empty() -> Self {
        Self {
            entries: BTreeMap::new(),
        }
    }

    /// Registers (or replaces) a constructor under `name`.
    pub fn register<F>(&mut self, name: impl Into<String>, builder: F)
    where
        F: Fn(&RingInstance, &S, u64) -> Result<T, SpecError> + Send + Sync + 'static,
    {
        self.entries.insert(name.into(), Arc::new(builder));
    }

    /// Registers one constructor under several keys.
    fn register_alias<F>(&mut self, names: &[&str], builder: F)
    where
        F: Fn(&RingInstance, &S, u64) -> Result<T, SpecError> + Send + Sync + 'static,
    {
        let shared: Arc<Builder<S, T>> = Arc::new(builder);
        for name in names {
            self.entries
                .insert((*name).to_string(), Arc::clone(&shared));
        }
    }

    /// The registered keys, sorted (aliases included).
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(String::as_str)
    }

    /// The constructor under `key`, or the unknown-`kind` error listing
    /// every key.
    fn lookup(&self, kind: &str, key: &str) -> Result<&Builder<S, T>, SpecError> {
        self.entries
            .get(key)
            .map(|builder| &**builder)
            .ok_or_else(|| unknown_key(kind, key, self.keys()))
    }
}

impl AlgorithmRegistry {
    /// The registry of built-in algorithms: `dynamic` (Theorem 2.1),
    /// `static` (Theorem 2.2), the `greedy` / `component` /
    /// `never-move` baselines, and the related-work family algorithms
    /// `bisection` (online bisection with ring demands, `ℓ = 2` only)
    /// and `learning` (the generalized learning model's rent-or-buy
    /// collocator).
    #[must_use]
    pub fn builtin() -> Self {
        let mut reg = Self::empty();
        reg.register("dynamic", |inst, spec, seed| {
            let alg = DynamicPartitioner::new(
                inst,
                DynamicConfig {
                    epsilon: spec.epsilon.unwrap_or(0.5),
                    policy: spec
                        .policy
                        .as_deref()
                        .unwrap_or("hedge")
                        .parse()
                        .map_err(SpecError)?,
                    seed,
                    shift: spec.shift,
                },
            );
            let load_bound = alg.load_bound();
            Ok(BuiltAlgorithm {
                algorithm: Box::new(alg),
                load_bound,
            })
        });
        reg.register("static", |inst, spec, seed| {
            let alg = StaticPartitioner::with_contiguous(
                inst,
                StaticConfig {
                    epsilon: spec.epsilon.unwrap_or(1.0),
                    seed,
                },
            );
            let load_bound = alg.load_bound();
            Ok(BuiltAlgorithm {
                algorithm: Box::new(alg),
                load_bound,
            })
        });
        reg.register("greedy", |inst, _spec, _seed| {
            Ok(BuiltAlgorithm {
                algorithm: Box::new(GreedySwap::new(inst)),
                load_bound: inst.capacity(),
            })
        });
        reg.register("component", |inst, _spec, _seed| {
            let alg = ComponentSweep::new(inst);
            let load_bound = alg.load_bound();
            Ok(BuiltAlgorithm {
                algorithm: Box::new(alg),
                load_bound,
            })
        });
        reg.register("never-move", |inst, _spec, _seed| {
            Ok(BuiltAlgorithm {
                algorithm: Box::new(NeverMove::new(inst)),
                load_bound: inst.capacity(),
            })
        });
        reg.register("bisection", |inst, _spec, _seed| {
            if inst.servers() != 2 {
                return Err(SpecError(format!(
                    "algorithm `bisection` requires exactly 2 servers (online \
                     bisection is ℓ = 2 by definition), got ℓ = {}",
                    inst.servers()
                )));
            }
            let alg = BisectionSwap::new(inst);
            let load_bound = alg.load_bound();
            Ok(BuiltAlgorithm {
                algorithm: Box::new(alg),
                load_bound,
            })
        });
        reg.register("learning", |inst, _spec, seed| {
            // The canonical deterministic weight table — experiments
            // charging CostModel::learning use the same generator with
            // the same seed so algorithm and accounting agree on w(e).
            let alg = LearningCollocator::new(inst, learning_weights(inst.n(), seed));
            Ok(BuiltAlgorithm {
                algorithm: Box::new(alg),
                load_bound: inst.capacity(),
            })
        });
        reg
    }

    /// Resolves `spec` into a live algorithm for `instance`.
    ///
    /// # Errors
    /// Returns a [`SpecError`] for unknown keys (listing the valid
    /// ones) or invalid parameters.
    pub fn resolve(
        &self,
        spec: &AlgorithmSpec,
        instance: &RingInstance,
        seed: u64,
    ) -> Result<BuiltAlgorithm, SpecError> {
        self.lookup("algorithm", &spec.name)?(instance, spec, seed)
    }
}

impl WorkloadRegistry {
    /// The registry of built-in workloads: `uniform`, `zipf`,
    /// `sliding`(-window), `allreduce`/`sequential`, `bursty`,
    /// `random-walk`, `hotspot`/`rotating-hotspot` and the adaptive
    /// adversaries `chaser`/`cut-chaser`, `greedy-cut` and
    /// `separation`(-chaser).
    #[must_use]
    pub fn builtin() -> Self {
        let mut reg = Self::empty();
        reg.register("uniform", |_inst, _spec, seed| {
            Ok(Box::new(workload::UniformRandom::new(seed)) as Box<dyn Workload>)
        });
        reg.register("zipf", |inst, spec, seed| {
            let s = spec.zipf_s.unwrap_or(1.2);
            if !(s.is_finite() && s > 0.0) {
                return Err(SpecError(format!("zipf_s must be positive, got {s}")));
            }
            Ok(Box::new(workload::Zipf::new(inst, s, seed)))
        });
        reg.register_alias(&["sliding", "sliding-window"], |inst, spec, seed| {
            let width = spec.width.unwrap_or_else(|| inst.capacity());
            let period = spec.period.unwrap_or(8);
            if width == 0 || period == 0 {
                return Err(SpecError(
                    "sliding window width and period must be positive".into(),
                ));
            }
            Ok(Box::new(workload::SlidingWindow::new(width, period, seed)))
        });
        reg.register_alias(&["allreduce", "sequential"], |_inst, _spec, _seed| {
            Ok(Box::new(workload::Sequential::new()))
        });
        reg.register("bursty", |_inst, spec, seed| {
            let p = spec.p_continue.unwrap_or(0.9);
            if !(0.0..1.0).contains(&p) {
                return Err(SpecError(format!("p_continue must be in [0,1), got {p}")));
            }
            Ok(Box::new(workload::Bursty::new(p, seed)))
        });
        reg.register("random-walk", |_inst, spec, seed| {
            Ok(Box::new(workload::RandomWalk::new(spec.start.unwrap_or(0), seed)) as _)
        });
        reg.register_alias(&["hotspot", "rotating-hotspot"], |_inst, spec, seed| {
            let p_hot = spec.p_hot.unwrap_or(0.8);
            let dwell = spec.dwell.unwrap_or(200);
            if !(0.0..=1.0).contains(&p_hot) {
                return Err(SpecError(format!("p_hot must be in [0,1], got {p_hot}")));
            }
            if dwell == 0 {
                return Err(SpecError("dwell must be positive".into()));
            }
            Ok(Box::new(workload::RotatingHotspot::new(
                p_hot,
                spec.jump.unwrap_or(7),
                dwell,
                seed,
            )))
        });
        reg.register_alias(&["chaser", "cut-chaser"], |_inst, _spec, _seed| {
            Ok(Box::new(workload::CutChaser::new()))
        });
        reg.register("greedy-cut", |_inst, _spec, _seed| {
            Ok(Box::new(GreedyCutMaximizer::new()))
        });
        reg.register_alias(
            &["separation", "separation-chaser"],
            |_inst, _spec, _seed| Ok(Box::new(SeparationChaser::new())),
        );
        reg
    }

    /// Resolves `spec` into a live workload for `instance`.
    ///
    /// # Errors
    /// Returns a [`SpecError`] for unknown keys (listing the valid
    /// ones) or invalid parameters.
    pub fn resolve(
        &self,
        spec: &WorkloadSpec,
        instance: &RingInstance,
        seed: u64,
    ) -> Result<Box<dyn Workload>, SpecError> {
        self.lookup("workload", &spec.name)?(instance, spec, seed)
    }

    /// Every adversary key with its workload's [`Workload::name`],
    /// sorted by key, aliases included. A key is an adversary when its
    /// workload is adaptive; adaptivity is a property of the strategy,
    /// so each key is probed once with default parameters on a small
    /// packed instance (a key that does not build there is skipped).
    fn adversaries(&self) -> Vec<(&str, &'static str)> {
        let probe = RingInstance::packed(2, 2);
        self.keys()
            .filter_map(|key| {
                let w = self.resolve(&WorkloadSpec::named(key), &probe, 0).ok()?;
                w.is_adaptive().then(|| (key, w.name()))
            })
            .collect()
    }

    /// The adversary keys — the workloads that see the placement before
    /// each request — sorted, aliases included.
    #[must_use]
    pub fn adversary_keys(&self) -> Vec<&str> {
        self.adversaries().into_iter().map(|(key, _)| key).collect()
    }

    /// The canonical adversary keys a search sweeps by default: one per
    /// strategy, aliases folded into the key that equals the workload's
    /// [`Workload::name`].
    #[must_use]
    pub fn canonical_adversary_keys(&self) -> Vec<String> {
        self.adversaries()
            .into_iter()
            .filter(|(key, name)| key == name)
            .map(|(key, _)| key.to_string())
            .collect()
    }

    /// Checks that `key` names an adversary.
    ///
    /// # Errors
    /// Returns a [`SpecError`] listing the adversary keys if `key` is
    /// unknown or names an oblivious workload.
    pub fn check_adversary(&self, key: &str) -> Result<(), SpecError> {
        let valid = self.adversary_keys();
        if valid.contains(&key) {
            Ok(())
        } else {
            Err(unknown_key("adversary", key, valid))
        }
    }
}

impl OracleRegistry {
    /// The registry of built-in oracles: `exact` (brute-force dynamic
    /// OPT, tiny instances only), `interval` (the `OPT_R` comparator)
    /// and `ringload` (the scalable certified-bound oracle). Oracles are
    /// deterministic: their builders ignore the seed.
    #[must_use]
    pub fn builtin() -> Self {
        let mut reg = Self::empty();
        reg.register("exact", |_inst, _spec, _seed| {
            Ok(Box::new(ExactDynamicOracle) as Box<dyn OfflineOracle>)
        });
        reg.register("interval", |_inst, spec, _seed| {
            let epsilon = spec.epsilon.unwrap_or(0.5);
            if !(epsilon.is_finite() && epsilon > 0.0) {
                return Err(SpecError(format!(
                    "interval oracle epsilon must be positive, got {epsilon}"
                )));
            }
            Ok(Box::new(IntervalOracle {
                epsilon,
                shift: spec.shift.unwrap_or(0),
            }) as _)
        });
        reg.register("ringload", |_inst, _spec, _seed| {
            Ok(Box::new(RingloadOracle::new()) as _)
        });
        reg
    }

    /// Resolves `spec` into a live oracle for `instance`.
    ///
    /// # Errors
    /// Returns a [`SpecError`] for unknown keys (listing the valid
    /// ones) or invalid parameters.
    pub fn resolve(
        &self,
        spec: &OracleSpec,
        instance: &RingInstance,
    ) -> Result<Box<dyn OfflineOracle>, SpecError> {
        self.lookup("oracle", &spec.name)?(instance, spec, 0)
    }
}

/// All three registries bundled — what [`crate::Scenario::run_with`]
/// and the grid executor take.
pub struct Registries {
    /// Algorithm constructors.
    pub algorithms: AlgorithmRegistry,
    /// Workload constructors (adversaries included).
    pub workloads: WorkloadRegistry,
    /// Offline-oracle constructors.
    pub oracles: OracleRegistry,
}

impl Registries {
    /// All built-in registries.
    #[must_use]
    pub fn builtin() -> Self {
        Self {
            algorithms: AlgorithmRegistry::builtin(),
            workloads: WorkloadRegistry::builtin(),
            oracles: OracleRegistry::builtin(),
        }
    }
}

impl Default for Registries {
    fn default() -> Self {
        Self::builtin()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::InstanceSpec;

    #[test]
    fn unknown_algorithm_lists_valid_keys() {
        let reg = AlgorithmRegistry::builtin();
        let inst = InstanceSpec::packed(4, 8).build().unwrap();
        let err = reg
            .resolve(&AlgorithmSpec::named("quantum"), &inst, 0)
            .err()
            .expect("must fail");
        assert!(err.0.contains("unknown algorithm `quantum`"), "{err}");
        assert!(err.0.contains("dynamic"), "{err}");
        assert!(err.0.contains("never-move"), "{err}");
    }

    #[test]
    fn unknown_workload_lists_valid_keys() {
        let reg = WorkloadRegistry::builtin();
        let inst = InstanceSpec::packed(4, 8).build().unwrap();
        let err = reg
            .resolve(&WorkloadSpec::named("tsunami"), &inst, 0)
            .err()
            .expect("must fail");
        assert!(err.0.contains("unknown workload `tsunami`"), "{err}");
        assert!(err.0.contains("zipf"), "{err}");
        assert!(err.0.contains("cut-chaser"), "{err}");
    }

    #[test]
    fn bad_parameters_error_instead_of_panicking() {
        let reg = WorkloadRegistry::builtin();
        let inst = InstanceSpec::packed(4, 8).build().unwrap();
        let spec = WorkloadSpec {
            zipf_s: Some(-1.0),
            ..WorkloadSpec::named("zipf")
        };
        assert!(reg.resolve(&spec, &inst, 0).is_err());
        let spec = WorkloadSpec {
            p_continue: Some(1.0),
            ..WorkloadSpec::named("bursty")
        };
        assert!(reg.resolve(&spec, &inst, 0).is_err());
    }

    #[test]
    fn unknown_oracle_lists_valid_keys() {
        let reg = OracleRegistry::builtin();
        let inst = InstanceSpec::packed(4, 8).build().unwrap();
        let err = reg
            .resolve(&OracleSpec::named("crystal-ball"), &inst)
            .err()
            .expect("must fail");
        assert!(err.0.contains("unknown oracle `crystal-ball`"), "{err}");
        assert!(err.0.contains("exact"), "{err}");
        assert!(err.0.contains("interval"), "{err}");
        assert!(err.0.contains("ringload"), "{err}");
    }

    #[test]
    fn builtin_oracles_resolve_and_report_their_names() {
        let reg = OracleRegistry::builtin();
        let inst = InstanceSpec::packed(2, 4).build().unwrap();
        for key in ["exact", "interval", "ringload"] {
            let oracle = reg.resolve(&OracleSpec::named(key), &inst).unwrap();
            assert_eq!(oracle.name(), key);
        }
        let spec = OracleSpec {
            epsilon: Some(-0.5),
            ..OracleSpec::named("interval")
        };
        assert!(reg.resolve(&spec, &inst).is_err());
    }

    #[test]
    fn unknown_adversary_lists_valid_keys() {
        let reg = WorkloadRegistry::builtin();
        let valid = "(valid: chaser, cut-chaser, greedy-cut, separation, separation-chaser)";
        let err = reg
            .check_adversary("oracle-of-delphi")
            .expect_err("must fail");
        assert_eq!(
            err.0,
            format!("unknown adversary `oracle-of-delphi` {valid}")
        );
        // An oblivious workload is a workload key but not an adversary.
        let err = reg.check_adversary("uniform").expect_err("must fail");
        assert_eq!(err.0, format!("unknown adversary `uniform` {valid}"));
        assert!(reg.check_adversary("chaser").is_ok());
    }

    #[test]
    fn builtin_adversaries_are_the_adaptive_workloads() {
        let reg = WorkloadRegistry::builtin();
        let inst = InstanceSpec::packed(4, 8).build().unwrap();
        for key in ["cut-chaser", "greedy-cut", "separation"] {
            let w = reg.resolve(&WorkloadSpec::named(key), &inst, 0).unwrap();
            assert!(w.is_adaptive(), "{key} must be adaptive as a workload");
            assert_eq!(w.name(), key);
        }
        assert_eq!(
            reg.adversary_keys(),
            [
                "chaser",
                "cut-chaser",
                "greedy-cut",
                "separation",
                "separation-chaser"
            ]
        );
        assert_eq!(
            reg.canonical_adversary_keys(),
            vec!["cut-chaser", "greedy-cut", "separation"]
        );
    }

    #[test]
    fn family_algorithms_resolve_with_their_constraints() {
        let reg = AlgorithmRegistry::builtin();
        let two = InstanceSpec::packed(2, 8).build().unwrap();
        let four = InstanceSpec::packed(4, 8).build().unwrap();
        let built = reg
            .resolve(&AlgorithmSpec::named("bisection"), &two, 0)
            .unwrap();
        assert_eq!(built.algorithm.name(), "bisection");
        assert_eq!(built.load_bound, 8, "bisection keeps exact balance");
        let err = reg
            .resolve(&AlgorithmSpec::named("bisection"), &four, 0)
            .err()
            .expect("bisection must reject ℓ != 2");
        assert!(err.0.contains("exactly 2 servers"), "{err}");
        let built = reg
            .resolve(&AlgorithmSpec::named("learning"), &four, 7)
            .unwrap();
        assert_eq!(built.algorithm.name(), "learning");
    }

    #[test]
    fn registries_are_extensible() {
        let mut reg = AlgorithmRegistry::builtin();
        reg.register("my-lazy", |inst, _spec, _seed| {
            Ok(BuiltAlgorithm {
                algorithm: Box::new(NeverMove::new(inst)),
                load_bound: inst.capacity(),
            })
        });
        let inst = InstanceSpec::packed(4, 8).build().unwrap();
        let built = reg
            .resolve(&AlgorithmSpec::named("my-lazy"), &inst, 0)
            .unwrap();
        assert_eq!(built.algorithm.name(), "never-move");
    }
}
