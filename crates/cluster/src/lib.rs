//! The multi-process serve cluster: a router frontend over N
//! `rdbp-serve` backends.
//!
//! A single `rdbp-serve` process scales to its worker threads and no
//! further; this crate scales *out*. The `rdbp-router` binary fronts a
//! fleet of ordinary `rdbp-serve` processes (spawned by the router or
//! attached to) and speaks the exact same wire protocols to clients —
//! binary and NDJSON, auto-detected — so everything written against a
//! single server drives a cluster unchanged. On top of plain routing
//! it adds the three capabilities a fleet needs:
//!
//! * **Live migration** — a session moves between backends
//!   mid-conversation via the snapshot/restore contract
//!   (quiesce → snapshot → restore → continue), invisible to the
//!   client: the migrated transcript is byte-identical to an
//!   unmigrated one, work counters included (the snapshot carries the
//!   session's counters, so the router keeps none of its own). The
//!   snapshot crosses the router as opaque bytes
//!   ([`rdbp_serve::SnapshotBlob`]), never decoded there.
//! * **Rebalancing** — a policy loop watches per-backend session
//!   counts and migrates sessions from the hottest backend to the
//!   least loaded when the spread crosses a threshold: greedy
//!   least-loaded placement, the systems-layer echo of the paper's
//!   online repartitioning problem.
//! * **Crash failover** — the router retains a restore point for
//!   every session: the create request until the session's first
//!   snapshot, then the latest snapshot. When a backend dies (op I/O
//!   error or ping timeout), its sessions are reopened on survivors
//!   and the client sees at most a replay gap, reported honestly
//!   through the `lineage` op as "replayed from snapshot step N, lost
//!   K acknowledged requests".
//!
//! Module map: [`backend`] wraps one `rdbp-serve` process (spawn or
//! attach, health-checked `hello` handshake, pooled connections,
//! liveness pings); [`cluster`] is the routing table and the
//! migration/failover/rebalance engine; [`frontend`] is the
//! client-facing TCP listener (blocking, thread per connection). A
//! private `stop` module is the stop flag, which wakes the
//! maintenance loop and the frontend's blocked threads at once.
//!
//! ```no_run
//! use std::sync::Arc;
//! use rdbp_cluster::{Cluster, ClusterConfig};
//!
//! let mut config = ClusterConfig::default();
//! config.spawn = 3; // three rdbp-serve children
//! let cluster = Cluster::start(&config).unwrap();
//! let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
//! rdbp_cluster::serve_router(listener, &cluster, rdbp_serve::Proto::Auto).unwrap();
//! cluster.shutdown();
//! ```

pub mod backend;
pub mod cluster;
pub mod frontend;
mod stop;

pub use backend::{Backend, PING_TIMEOUT};
pub use cluster::{sibling_serve_bin, Cluster, ClusterConfig};
pub use frontend::serve_router;
