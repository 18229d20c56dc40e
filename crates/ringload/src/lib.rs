//! # rdbp_ringload — ring-cut structure as a fast OPT oracle
//!
//! The exact offline comparators (`rdbp_offline::dynamic_opt`) are
//! feasible to `n ≤ 12`. [`RingloadOracle`] is an
//! [`rdbp_offline::OfflineOracle`] that bounds the same dynamic
//! optimum (communication plus migrations under capacity `k`) at `n`
//! in the tens of thousands (DESIGN.md §13, EXPERIMENTS.md S6):
//!
//! * a certified **lower bound** from counting request phases against
//!   disjoint `k`-edge cut windows, since a capacity-`k` placement cuts
//!   every window;
//! * a certified **upper bound** from explicit feasible schedules: the
//!   lazy one, and on packed rings migrate-then-freeze into every
//!   rotation of the contiguous placement.
//!
//! Everything is deterministic; the work both bounds perform is
//! surfaced as the `oracle_cut_evals` / `oracle_rounding_passes`
//! metrics of [`rdbp_model::WorkCounters`] and gated by the perf suite.

mod oracle;

pub use oracle::RingloadOracle;
