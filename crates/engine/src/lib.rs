//! The scenario engine: declarative, serializable descriptions of
//! *instance × algorithm × workload × run* that one executor resolves,
//! audits and reports on.
//!
//! This crate is the single construction path between names and live
//! objects for the whole workspace:
//!
//! * [`Scenario`] and its parts ([`InstanceSpec`], [`AlgorithmSpec`],
//!   [`WorkloadSpec`], [`AuditSpec`]) — a JSON-serializable spec of one
//!   run ([`Scenario::load`] / [`Scenario::save`] / [`Scenario::run`]);
//! * [`AlgorithmRegistry`] / [`WorkloadRegistry`] / [`OracleRegistry`]
//!   — one string-keyed, extensible [`Registry`] type resolving specs
//!   into boxed [`rdbp_model::OnlineAlgorithm`] /
//!   [`rdbp_model::Workload`] / [`rdbp_offline::OfflineOracle`] trait
//!   objects, with one consistent unknown-key error listing the valid
//!   keys. Adversaries are the adaptive workloads, so the workload
//!   registry lists and resolves them too;
//! * [`adversary_search`] — the seeded hill climb over adversary
//!   schedules behind S8;
//! * [`ScenarioGrid`] — the batched multi-run executor: sweep
//!   capacities/ε/policies/seeds, fan out via [`parallel_map`],
//!   aggregate with [`summarize`];
//! * streaming results: every run accepts an
//!   [`rdbp_model::Observer`] ([`Scenario::run_with`]), so per-step
//!   cost curves, CSV emission and load head-room come from
//!   [`rdbp_model::observers`] instead of end-of-run diffing.
//!
//! ```
//! use rdbp_engine::{AlgorithmSpec, InstanceSpec, Scenario, WorkloadSpec};
//!
//! let scenario = Scenario::new(
//!     InstanceSpec::packed(4, 8),
//!     AlgorithmSpec::named("dynamic"),
//!     WorkloadSpec::named("zipf"),
//!     1_000,
//! );
//! let report = scenario.run().expect("built-in keys resolve");
//! assert_eq!(report.capacity_violations, 0);
//! // The spec round-trips through JSON for persistence/sharing.
//! let same = Scenario::from_json(&scenario.to_json()).unwrap();
//! assert_eq!(same.run().unwrap(), report);
//! ```

pub mod exec;
pub mod grid;
pub mod registry;
pub mod runner;
pub mod search;
pub mod spec;

pub use exec::{mean, parallel_map, stddev};
pub use grid::{summarize, GridRun, GridSummary, ScenarioGrid};
pub use registry::{
    AlgorithmRegistry, BuiltAlgorithm, OracleRegistry, Registries, Registry, WorkloadRegistry,
};
pub use runner::{workload_seed, PreparedScenario};
pub use search::{adversary_search, SearchConfig, SearchOutcome};
pub use spec::{
    AlgorithmSpec, AuditSpec, InstanceSpec, OracleSpec, Scenario, SpecError, WorkloadSpec,
};
