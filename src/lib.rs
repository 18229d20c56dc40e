//! # rdbp — dynamic balanced graph partitioning for ring demands
//!
//! A faithful, executable reproduction of Räcke, Schmid & Zabrodin,
//! *"Polylog-Competitive Algorithms for Dynamic Balanced Graph
//! Partitioning for Ring Demands"* (SPAA 2023, arXiv:2304.10350):
//! `n` processes on a communication ring must be packed onto `ℓ`
//! servers of capacity `k`; requests to ring edges cost 1 when they
//! cross servers; migrations cost 1 per process. This crate bundles
//!
//! * [`core`] — the paper's two randomized online
//!   algorithms: the **dynamic-model** algorithm (Theorem 2.1,
//!   `O(ε⁻¹log³k)`-competitive vs a dynamic optimum, augmentation
//!   `2+ε`) and the **static-model** algorithm (Theorem 2.2,
//!   `O(ε⁻²log²k)`-competitive vs a static optimum, augmentation
//!   `3+ε`);
//! * [`model`] — the ring substrate: instances, placements,
//!   cost accounting, workload generators, traces, and the auditing
//!   simulation driver;
//! * [`mts`] — metrical task systems on the line (the
//!   dynamic algorithm's engine): work function, smin-gradient,
//!   HST-Hedge, exact offline optimum;
//! * [`smin`] — the Appendix-A smooth-minimum machinery and
//!   optimal-transport couplings;
//! * [`offline`] — every comparator the analysis uses:
//!   exact static OPT, exact tiny dynamic OPT, interval-based `OPT_R`,
//!   the Lemma 3.4 well-behaved strategy, lower-bound adversaries, and
//!   the [`OfflineOracle`](rdbp_offline::OfflineOracle) trait
//!   unifying them for ratio reporting;
//! * [`ringload`] — the scalable certified-bound OPT oracle behind the
//!   S6 ratio sweep: window phases below, explicit schedules above
//!   (DESIGN.md §13);
//! * [`baselines`] — the straw men (never-move, greedy
//!   swapping, component-growing deterministic repartitioners) and the
//!   related-work family algorithms
//!   ([`BisectionSwap`](rdbp_baselines::BisectionSwap),
//!   [`LearningCollocator`](rdbp_baselines::LearningCollocator));
//! * [`engine`] — the scenario engine: serializable
//!   [`Scenario`](rdbp_engine::Scenario) specs, one
//!   [`Registry`](rdbp_engine::Registry) type for the algorithm,
//!   workload (adversaries included) and oracle tables, the
//!   [`ScenarioGrid`](rdbp_engine::ScenarioGrid) multi-run executor,
//!   streaming [`Observer`](rdbp_model::Observer) hooks (DESIGN.md §7),
//!   and the [`adversary_search`](rdbp_engine::adversary_search)
//!   harness for empirical competitive ratios (DESIGN.md §15);
//! * [`serve`] — the serving subsystem: long-lived
//!   concurrent partition [`Session`](rdbp_serve::Session)s with
//!   snapshot/restore, the sharded
//!   [`SessionManager`](rdbp_serve::SessionManager) worker pool, and
//!   the `rdbp-serve`/`rdbp-load` NDJSON-over-TCP pair (DESIGN.md §8).
//!
//! ## Quickstart
//!
//! ```
//! use rdbp::prelude::*;
//!
//! // 4 servers × capacity 8 → a ring of 32 processes.
//! let inst = RingInstance::packed(4, 8);
//! let mut alg = DynamicPartitioner::new(&inst, DynamicConfig::default());
//! let load_limit = alg.load_bound();
//! let mut workload = workload::UniformRandom::new(42);
//! let report = run(
//!     &mut alg,
//!     &mut workload,
//!     10_000,
//!     AuditLevel::Full { load_limit },
//! );
//! assert_eq!(report.capacity_violations, 0);
//! println!("cost: {}", report.ledger);
//! ```
//!
//! See `examples/` for realistic scenarios and `crates/bench` for the
//! full experiment suite (EXPERIMENTS.md).

pub use rdbp_baselines as baselines;
pub use rdbp_core as core;
pub use rdbp_engine as engine;
pub use rdbp_model as model;
pub use rdbp_mts as mts;
pub use rdbp_offline as offline;
pub use rdbp_ringload as ringload;
pub use rdbp_serve as serve;
pub use rdbp_smin as smin;

/// The commonly needed surface in one import.
pub mod prelude {
    pub use rdbp_baselines::{
        learning_weights, BisectionSwap, ComponentSweep, GreedySwap, LearningCollocator, NeverMove,
    };
    pub use rdbp_core::staticmodel::HittingGame;
    pub use rdbp_core::{DynamicConfig, DynamicPartitioner, StaticConfig, StaticPartitioner};
    pub use rdbp_engine::{
        adversary_search, summarize, AlgorithmRegistry, AlgorithmSpec, AuditSpec, InstanceSpec,
        OracleRegistry, OracleSpec, Registries, Scenario, ScenarioGrid, SearchConfig,
        SearchOutcome, SpecError, WorkloadRegistry, WorkloadSpec,
    };
    pub use rdbp_model::observers;
    pub use rdbp_model::workload;
    pub use rdbp_model::{
        run, run_trace, AuditLevel, BatchEvent, CostLedger, CostModel, Edge, FamilyCostObserver,
        GreedyCutMaximizer, MigrationRecord, Observer, OnlineAlgorithm, Placement, Process,
        RingInstance, RunReport, Segment, SeparationChaser, Server, StepEvent, Workload,
    };
    pub use rdbp_mts::PolicyKind;
    pub use rdbp_offline::{
        dynamic_opt, interval_opt, static_opt, ExactDynamicOracle, IntervalLayout, OfflineOracle,
        OracleReport,
    };
    pub use rdbp_ringload::RingloadOracle;
    pub use rdbp_serve::{Session, SessionManager};
}
