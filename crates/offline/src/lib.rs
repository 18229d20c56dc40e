//! Offline optima, analysis comparators and adversaries for
//! ring-demand balanced partitioning.
//!
//! Competitive ratios cannot be *measured* without the other side of
//! the fraction; this crate provides every comparator the paper's
//! analysis uses, implemented exactly:
//!
//! * [`static_opt`] — optimal static partition via a cycle DP
//!   (comparator of Theorem 2.2), with a packing certificate.
//! * [`dynamic_opt`] — exact optimal dynamic algorithm by brute force
//!   over canonicalized configurations (comparator of Theorem 2.1,
//!   tiny instances).
//! * [`interval_opt`] — the interval-based optimum `OPT_R` of
//!   Lemma 3.3, exact per-interval line-MTS DP.
//! * [`WellBehaved`] — the well-behaved clustering strategy of
//!   Lemma 3.4 as an executable object that verifies the potential
//!   argument step by step.
//! * [`adversaries`] — the position-chasing adversary of Lemma 4.1 for
//!   the deterministic lower-bound experiments.
//! * [`OfflineOracle`] — one interchangeable comparator surface over
//!   the exact dynamic optimum (and over `rdbp_ringload`'s scalable
//!   ring-loading oracle), with a certified
//!   `lower_bound ≤ OPT ≤ upper_bound` contract (DESIGN.md §13).

pub mod adversaries;
mod dynamic_opt;
mod interval_opt;
mod oracle;
mod static_opt;
mod well_behaved;

pub use dynamic_opt::dynamic_opt;
pub use interval_opt::{interval_opt, IntervalLayout, IntervalOpt};
pub use oracle::{ExactDynamicOracle, OfflineOracle, OracleReport};
pub use static_opt::{static_opt, static_opt_bruteforce, StaticOpt};
pub use well_behaved::{WbStep, WellBehaved};
