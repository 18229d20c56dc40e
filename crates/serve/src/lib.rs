//! The serving subsystem: long-lived, concurrent partition sessions.
//!
//! Everything before this crate runs a [`rdbp_engine::Scenario`] as a
//! batch — resolve, execute start-to-finish, report. This crate hosts
//! the *online* operating model the paper actually describes (and the
//! ROADMAP's north star requires): a server holding many concurrent
//! partitioner sessions that ingest communication requests as they
//! arrive, audited live, checkpointable, and restorable.
//!
//! Layers, bottom up:
//!
//! * [`Session`] — one scenario torn open: resolved algorithm +
//!   workload + the incremental [`rdbp_model::Driver`], fed through
//!   [`Session::submit`]. Snapshot/restore captures the spec, the
//!   mid-run report, the work counters and the algorithm's/workload's
//!   state that a rebuild cannot derive; restore-then-continue is
//!   **bit-identical** to an uninterrupted run, counters included
//!   (pinned by property tests).
//! * [`SessionManager`] — sessions sharded `id % workers` across a
//!   worker-thread pool (vendored [`crossbeam`] channels +
//!   [`parking_lot`] routing locks); per-session FIFO ordering,
//!   cross-session parallelism, aggregate stats. Each op is one
//!   closure that runs on the worker owning the session's shard; the
//!   blocking API waits on its async form.
//! * [`proto`] — the request/response model, thirteen ops (`create`,
//!   `submit`, `query`, `snapshot`, `restore`, `close`, `stats`,
//!   `ping`, `hello`, `shutdown`, and the router's `migrate`,
//!   `lineage`, `cluster`) with its newline-delimited-JSON encoding.
//!   Its payload structs derive their serde; only the enum tagging and
//!   the `created` and `status` arms are written by hand.
//! * [`wire`] — the length-prefixed binary framing of the same model:
//!   one opcode/kind byte plus a binary value tree, decoding to the
//!   exact [`serde::Value`]s the NDJSON form produces, so both
//!   protocols drive identical server behavior (numeric arrays travel
//!   as packed columns of raw little-endian numbers; replay submits
//!   take a typed `u32` layout that decodes to the same requests); the
//!   [`SnapshotBlob`] a snapshot travels in as bytes; and the
//!   [`wire::Framer`] every connection (reactor, router, [`Client`])
//!   parses and encodes through.
//! * [`server`] — the nonblocking TCP front end (`rdbp-serve` binary):
//!   an epoll reactor (vendored [`mio`]-style poll shim) multiplexing
//!   thousands of connections over the worker pool with per-connection
//!   request pipelining, plus the blocking [`Client`] the `rdbp-load`
//!   load generator drives it with. Both wire protocols are accepted,
//!   auto-detected on the first byte of each connection.
//!
//! ```
//! use rdbp_engine::{AlgorithmSpec, InstanceSpec, Registries, Scenario, WorkloadSpec};
//! use rdbp_serve::Session;
//!
//! let spec = Scenario::new(
//!     InstanceSpec::packed(4, 8),
//!     AlgorithmSpec::named("dynamic"),
//!     WorkloadSpec::named("zipf"),
//!     0, // sessions are open-ended; steps arrive via submit
//! );
//! let registries = Registries::builtin();
//! let mut session = Session::new(spec, &registries).unwrap();
//! session.submit(250);
//! let snapshot = session.snapshot().unwrap();
//! session.submit(250);
//! // A restored session continues exactly where the snapshot was taken.
//! let mut resumed = Session::restore(&snapshot, &registries).unwrap();
//! resumed.submit(250);
//! assert_eq!(resumed.report(), session.report());
//! // The snapshot carried the work counters, so they agree too.
//! assert_eq!(resumed.work_counters(), session.work_counters());
//! ```

pub mod manager;
pub mod proto;
pub mod server;
pub mod session;
pub mod wire;

pub use manager::{
    ManagerStats, SessionInfo, SessionManager, SessionStatus, StopReport, Work, MAX_PROCESSES,
    MAX_SUBMIT,
};
pub use proto::{BackendSummary, Request, Response, ServerHello, SessionLineage, PROTO_VERSION};
pub use server::{serve, serve_config, Client, ServerConfig};
pub use session::{BatchSummary, Session, SNAPSHOT_VERSION};
pub use wire::{Proto, SnapshotBlob, MAX_FRAME};

/// An error from the serving layer: spec resolution, snapshot
/// round-trips, routing, or worker failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeError(pub String);

impl core::fmt::Display for ServeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "serve error: {}", self.0)
    }
}

impl std::error::Error for ServeError {}

impl From<rdbp_engine::SpecError> for ServeError {
    fn from(e: rdbp_engine::SpecError) -> Self {
        ServeError(e.0)
    }
}

impl From<wire::WireError> for ServeError {
    fn from(e: wire::WireError) -> Self {
        ServeError(e.message().to_owned())
    }
}
