//! Ring-demand balanced graph partitioning: the problem substrate.
//!
//! This crate implements Section 2 (model) of Räcke, Schmid & Zabrodin,
//! *"Polylog-Competitive Algorithms for Dynamic Balanced Graph
//! Partitioning for Ring Demands"* (SPAA 2023), plus everything a
//! simulation study needs around it:
//!
//! * [`RingInstance`] — `n` processes on a cycle, `ℓ` servers of
//!   capacity `k`, with all modular index arithmetic in one place.
//! * [`Placement`] — a process→server assignment with incrementally
//!   maintained server loads, cut-edge queries and migration distance.
//! * [`CostLedger`] — communication + migration cost accounting exactly
//!   as the model defines it (a request costs 1 iff its endpoints are on
//!   different servers *at request time*; each process move costs 1).
//! * [`OnlineAlgorithm`] / [`run`] — the simulation driver. The driver —
//!   not the algorithm — charges costs and audits capacity, so cost
//!   accounting cannot be gamed by an algorithm implementation.
//! * [`Observer`] / [`observers`] — a streaming view of every driver
//!   step ([`StepEvent`]): cost curves, CSV emission, load head-room and
//!   trace recording without touching the hot loop's accounting.
//! * [`workload`] — request generators behind the one request-source
//!   trait, [`Workload`]: the ML ring-allreduce pattern the paper's
//!   introduction motivates, plus Zipf, sliding windows, bursts,
//!   rotating hotspots, random walks, and *adaptive adversaries* (the
//!   cut-chaser used in the Ω(k) lower-bound experiments).
//! * [`adversary`] — the greedy cut-maximizer and separation-chaser
//!   strategies behind the adversary-search harness: workloads whose
//!   [`Workload::is_adaptive`] answers `true`, because they see the
//!   placement before each request.
//! * [`family`] — related-work cost-model families (online bisection
//!   with ring demands; the generalized learning model) charged by
//!   reweighting driver events, no algorithm changes required.
//! * [`trace`] — (de)serialization of recorded request traces.
//! * [`WorkCounters`] — the always-on deterministic work-counter ledger
//!   (requests, migrations, audited steps, …) the perf gate diffs
//!   instead of noisy wall-clock.

pub mod adversary;
mod counters;
pub mod family;
mod instance;
mod ledger;
pub mod observers;
mod placement;
pub mod seed;
mod sim;
pub mod trace;
pub mod workload;

pub use adversary::{GreedyCutMaximizer, SeparationChaser};
pub use counters::{WorkCounters, NUM_WORK_METRICS};
pub use family::{CostModel, FamilyCostObserver};
pub use instance::{Edge, Process, RingInstance, Segment, Server};
pub use ledger::CostLedger;
pub use placement::{JournalIter, MigrationJournal, MigrationRecord, Placement};
pub use seed::split_mix64;
pub use sim::{
    run, run_trace, AuditLevel, BatchEvent, BatchOutcome, Driver, NoopObserver, Observer,
    OnlineAlgorithm, Referee, RunReport, StepEvent,
};
pub use workload::Workload;
