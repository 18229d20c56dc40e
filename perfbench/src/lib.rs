//! The rdbp repository benchmark.
//!
//! Three workloads drive the workspace through its public entry points
//! (see `NOTES.md` for why each exists):
//!
//! * `sim-ratio` — the paper's experiment in process: one large
//!   `sliding` trace replayed through the audited driver, then
//!   certified by the ringload oracle;
//! * `serve-replay` — a closed-loop TCP client against an in-process
//!   `rdbp_serve::serve` reactor with small submits;
//! * `cluster-migrate` — the same client against `serve_router` over
//!   two backends, live-migrating every session every 8th round.
//!
//! Every input is generated from the seed before timing starts; the
//! program under test only ever receives requests. A plain run
//! ([`run::end_to_end`]) reports the end-to-end metrics; a traced run
//! ([`ladder::traced`]) pushes the same inputs down the layer ladder
//! and reports per-layer metrics as rung-time differences.

pub mod checks;
pub mod inputs;
pub mod ladder;
pub mod metrics;
pub mod run;
pub mod split;
pub mod stats;
pub mod trace;
pub mod wire;
