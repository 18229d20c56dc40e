//! The newline-delimited-JSON wire protocol.
//!
//! One request line in, one response line out, per connection, in
//! order. Requests carry an `"op"` discriminator, responses an `"ok"`
//! discriminator (errors use `{"ok": "error", "message": …}`), so a
//! client can dispatch on one string. Serialization is hand-written
//! against the vendored serde value tree — the offline derive stand-in
//! has no enum support (same approach as `rdbp_engine::spec`).
//!
//! A snapshot is a [`SnapshotBlob`] in the model and its tree on an
//! NDJSON line; the binary encoding ([`crate::wire`]) carries the
//! blob's bytes as they are.
//!
//! ```text
//! → {"op":"create","scenario":{…}}
//! ← {"ok":"created","session":1,"algorithm":"dynamic-partitioner",…}
//! → {"op":"submit","session":1,"steps":500}
//! ← {"ok":"submitted","session":1,"served":500,"steps":500,…}
//! → {"op":"snapshot","session":1}
//! ← {"ok":"snapshot","session":1,"snapshot":{…}}
//! → {"op":"restore","snapshot":{…}}
//! ← {"ok":"created","session":2,…}
//! → {"op":"close","session":1}
//! ← {"ok":"closed","session":1,"report":{…}}
//! → {"op":"shutdown"}
//! ← {"ok":"bye"}
//! ```

use serde::{DeError, Deserialize, Serialize, Value};

use rdbp_engine::Scenario;
use rdbp_model::{CostLedger, Edge, RunReport, WorkCounters};

use crate::manager::{ManagerStats, SessionInfo, SessionStatus, Work};
use crate::session::BatchSummary;
use crate::wire::SnapshotBlob;

/// Version of the request/response model (NDJSON and binary encodings
/// alike). Servers report it in their `hello` response; a router
/// refuses to attach to a backend speaking a different version.
/// Version 2 added the admin ops: `hello`, `migrate`, `lineage`,
/// `cluster`. Version 3 sends replay submits as typed frames (opcode
/// 0x0E) and moves snapshots as [`SnapshotBlob`]s. Version 4 moves
/// [`crate::SNAPSHOT_VERSION`] 3 snapshots, which carry the session's
/// work counters, so a router refuses a backend it could not move
/// sessions to or from; no message layout changed.
pub const PROTO_VERSION: u64 = 4;

/// What a server says about itself in reply to `hello` — the liveness
/// handshake a router (or `rdbp-load --ping`) health-checks before
/// trusting an address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerHello {
    /// Which binary answered (`rdbp-serve`, `rdbp-router`).
    pub server: String,
    /// The answering crate's version string.
    pub version: String,
    /// The protocol model version ([`PROTO_VERSION`]).
    pub proto: u64,
    /// Session worker threads (for a router: attached backends).
    pub workers: u64,
}

/// One session's cluster provenance: where it lives and what migration
/// and failover did to it. Only a router answers `lineage`; a plain
/// `rdbp-serve` reports an error (it has no cluster state).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionLineage {
    /// The (router-assigned) session id.
    pub session: u64,
    /// Backend currently hosting the session.
    pub backend: u64,
    /// Completed live migrations.
    pub migrations: u64,
    /// Crash failovers (re-restores from a router-held snapshot).
    pub failovers: u64,
    /// Steps at the retained snapshot the router would replay from.
    pub snapshot_steps: u64,
    /// Requests acknowledged to clients but lost to crashes — the
    /// explicit "replayed from snapshot N, lost K requests" contract.
    pub lost_requests: u64,
}

/// One backend's row in a router's `cluster` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendSummary {
    /// Router-assigned backend id (stable for the router's lifetime).
    pub id: u64,
    /// The backend's listen address.
    pub addr: String,
    /// OS pid when the router spawned the process; 0 when attached.
    pub pid: u64,
    /// Whether the router currently considers the backend live.
    pub alive: bool,
    /// Sessions currently routed to the backend.
    pub sessions: u64,
}

/// A client → server message.
#[derive(Debug, Clone)]
pub enum Request {
    /// Create a session from a scenario spec.
    Create {
        /// The spec to resolve (boxed: specs dwarf the other variants).
        scenario: Box<Scenario>,
    },
    /// Serve requests on a session: `steps` workload-generated requests
    /// or an explicit `requests` batch.
    Submit {
        /// Target session.
        session: u64,
        /// What to serve.
        work: Work,
    },
    /// Read a session's current report.
    Query {
        /// Target session.
        session: u64,
    },
    /// Capture a session snapshot (session stays live).
    Snapshot {
        /// Target session.
        session: u64,
    },
    /// Recreate a session from a snapshot under a fresh id.
    Restore {
        /// A blob previously returned by `Snapshot`.
        snapshot: SnapshotBlob,
    },
    /// Close a session and fetch its final report.
    Close {
        /// Target session.
        session: u64,
    },
    /// Read server-wide aggregate stats.
    Stats,
    /// Liveness probe.
    Ping,
    /// Identify the server: name, version, protocol, worker count.
    Hello,
    /// Live-migrate a session to another backend (router only).
    Migrate {
        /// Target session.
        session: u64,
        /// Destination backend id; `None` = least-loaded placement.
        backend: Option<u64>,
    },
    /// Read a session's migration/failover lineage (router only).
    Lineage {
        /// Target session.
        session: u64,
    },
    /// Read the backend roster (router only).
    Cluster,
    /// Stop the server after replying.
    Shutdown,
}

/// A server → client message.
#[derive(Debug, Clone)]
pub enum Response {
    /// A session was created or restored.
    Created {
        /// Identity + provenance of the new session.
        info: SessionInfo,
    },
    /// A submission completed.
    Submitted {
        /// The session that served it.
        session: u64,
        /// Batch + cumulative accounting.
        summary: BatchSummary,
    },
    /// A query result.
    Status {
        /// The point-in-time view.
        status: SessionStatus,
    },
    /// A captured snapshot.
    Snapshot {
        /// The session it was taken from (still live).
        session: u64,
        /// The opaque snapshot (feed back to `Restore`).
        snapshot: SnapshotBlob,
    },
    /// A session was closed.
    Closed {
        /// The closed session's id.
        session: u64,
        /// Its final report.
        report: RunReport,
    },
    /// Server-wide aggregate stats.
    Stats {
        /// The counters.
        stats: ManagerStats,
    },
    /// Reply to `Ping`.
    Pong,
    /// Reply to `Hello`.
    Hello {
        /// The server's self-description.
        hello: ServerHello,
    },
    /// A live migration completed.
    Migrated {
        /// The migrated session.
        session: u64,
        /// Backend the session left.
        from: u64,
        /// Backend now hosting the session.
        to: u64,
    },
    /// A session's cluster lineage.
    Lineage {
        /// The provenance record.
        lineage: SessionLineage,
    },
    /// The router's backend roster.
    Cluster {
        /// One row per backend, in id order.
        backends: Vec<BackendSummary>,
    },
    /// Reply to `Shutdown` (the server stops after sending it).
    Bye,
    /// Any failure (the connection stays usable).
    Error {
        /// Human-readable description.
        message: String,
    },
}

fn tag(kind: &str, mut rest: Vec<(String, Value)>, key: &str) -> Value {
    let mut pairs = vec![(key.to_string(), Value::Str(kind.into()))];
    pairs.append(&mut rest);
    Value::Obj(pairs)
}

impl Serialize for Request {
    fn to_value(&self) -> Value {
        match self {
            Request::Create { scenario } => tag(
                "create",
                vec![("scenario".into(), scenario.to_value())],
                "op",
            ),
            Request::Submit { session, work } => {
                let payload = match work {
                    Work::Generate(steps) => ("steps".to_string(), steps.to_value()),
                    Work::Replay(requests) => {
                        let edges: Vec<u32> = requests.iter().map(|e| e.0).collect();
                        ("requests".to_string(), edges.to_value())
                    }
                };
                tag(
                    "submit",
                    vec![("session".into(), session.to_value()), payload],
                    "op",
                )
            }
            Request::Query { session } => {
                tag("query", vec![("session".into(), session.to_value())], "op")
            }
            Request::Snapshot { session } => tag(
                "snapshot",
                vec![("session".into(), session.to_value())],
                "op",
            ),
            Request::Restore { snapshot } => tag(
                "restore",
                vec![("snapshot".into(), snapshot.to_value())],
                "op",
            ),
            Request::Close { session } => {
                tag("close", vec![("session".into(), session.to_value())], "op")
            }
            Request::Stats => tag("stats", vec![], "op"),
            Request::Ping => tag("ping", vec![], "op"),
            Request::Hello => tag("hello", vec![], "op"),
            Request::Migrate { session, backend } => {
                let mut fields = vec![("session".into(), session.to_value())];
                if let Some(backend) = backend {
                    fields.push(("backend".into(), backend.to_value()));
                }
                tag("migrate", fields, "op")
            }
            Request::Lineage { session } => tag(
                "lineage",
                vec![("session".into(), session.to_value())],
                "op",
            ),
            Request::Cluster => tag("cluster", vec![], "op"),
            Request::Shutdown => tag("shutdown", vec![], "op"),
        }
    }
}

fn opt_field<T: Deserialize>(v: &Value, key: &str) -> Result<Option<T>, DeError> {
    match v {
        Value::Obj(pairs) => match pairs.iter().find(|(k, _)| k == key) {
            None | Some((_, Value::Null)) => Ok(None),
            Some((_, val)) => Ok(Some(T::from_value(val)?)),
        },
        other => Err(DeError(format!("expected object, got {other:?}"))),
    }
}

impl Deserialize for Request {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let op = String::from_value(v.get_field("op")?)?;
        match op.as_str() {
            "create" => Ok(Request::Create {
                scenario: Box::new(Scenario::from_value(v.get_field("scenario")?)?),
            }),
            "submit" => {
                let session = u64::from_value(v.get_field("session")?)?;
                let steps: Option<u64> = opt_field(v, "steps")?;
                let requests: Option<Vec<u32>> = opt_field(v, "requests")?;
                let work = match (steps, requests) {
                    (Some(steps), None) => Work::Generate(steps),
                    (None, Some(edges)) => Work::Replay(edges.into_iter().map(Edge).collect()),
                    _ => {
                        return Err(DeError(
                            "submit needs exactly one of `steps` or `requests`".into(),
                        ))
                    }
                };
                Ok(Request::Submit { session, work })
            }
            "query" => Ok(Request::Query {
                session: u64::from_value(v.get_field("session")?)?,
            }),
            "snapshot" => Ok(Request::Snapshot {
                session: u64::from_value(v.get_field("session")?)?,
            }),
            "restore" => Ok(Request::Restore {
                snapshot: SnapshotBlob::from_value(v.get_field("snapshot")?)?,
            }),
            "close" => Ok(Request::Close {
                session: u64::from_value(v.get_field("session")?)?,
            }),
            "stats" => Ok(Request::Stats),
            "ping" => Ok(Request::Ping),
            "hello" => Ok(Request::Hello),
            "migrate" => Ok(Request::Migrate {
                session: u64::from_value(v.get_field("session")?)?,
                backend: opt_field(v, "backend")?,
            }),
            "lineage" => Ok(Request::Lineage {
                session: u64::from_value(v.get_field("session")?)?,
            }),
            "cluster" => Ok(Request::Cluster),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(DeError(format!(
                "unknown op `{other}` (valid: create, submit, query, snapshot, restore, \
                 close, stats, ping, hello, migrate, lineage, cluster, shutdown)"
            ))),
        }
    }
}

impl Serialize for Response {
    fn to_value(&self) -> Value {
        match self {
            Response::Created { info } => tag(
                "created",
                vec![
                    ("session".into(), info.id.to_value()),
                    ("algorithm".into(), info.algorithm.to_value()),
                    ("workload".into(), info.workload.to_value()),
                    ("load_bound".into(), info.load_bound.to_value()),
                    ("steps".into(), info.steps.to_value()),
                ],
                "ok",
            ),
            Response::Submitted { session, summary } => tag(
                "submitted",
                vec![
                    ("session".into(), session.to_value()),
                    ("served".into(), summary.served.to_value()),
                    ("steps".into(), summary.steps.to_value()),
                    ("ledger".into(), summary.ledger.to_value()),
                    ("batch_cost".into(), summary.batch_cost.to_value()),
                    ("max_load".into(), summary.max_load.to_value()),
                    ("violations".into(), summary.violations.to_value()),
                ],
                "ok",
            ),
            Response::Status { status } => tag(
                "status",
                vec![
                    ("session".into(), status.id.to_value()),
                    ("report".into(), status.report.to_value()),
                    ("load_bound".into(), status.load_bound.to_value()),
                    ("counters".into(), status.counters.to_value()),
                ],
                "ok",
            ),
            Response::Snapshot { session, snapshot } => tag(
                "snapshot",
                vec![
                    ("session".into(), session.to_value()),
                    ("snapshot".into(), snapshot.to_value()),
                ],
                "ok",
            ),
            Response::Closed { session, report } => tag(
                "closed",
                vec![
                    ("session".into(), session.to_value()),
                    ("report".into(), report.to_value()),
                ],
                "ok",
            ),
            Response::Stats { stats } => tag(
                "stats",
                vec![
                    ("open_sessions".into(), stats.open_sessions.to_value()),
                    ("created".into(), stats.created.to_value()),
                    ("total_served".into(), stats.total_served.to_value()),
                    ("total_violations".into(), stats.total_violations.to_value()),
                ],
                "ok",
            ),
            Response::Pong => tag("pong", vec![], "ok"),
            Response::Hello { hello } => tag(
                "hello",
                vec![
                    ("server".into(), hello.server.to_value()),
                    ("version".into(), hello.version.to_value()),
                    ("proto".into(), hello.proto.to_value()),
                    ("workers".into(), hello.workers.to_value()),
                ],
                "ok",
            ),
            Response::Migrated { session, from, to } => tag(
                "migrated",
                vec![
                    ("session".into(), session.to_value()),
                    ("from".into(), from.to_value()),
                    ("to".into(), to.to_value()),
                ],
                "ok",
            ),
            Response::Lineage { lineage } => tag(
                "lineage",
                vec![
                    ("session".into(), lineage.session.to_value()),
                    ("backend".into(), lineage.backend.to_value()),
                    ("migrations".into(), lineage.migrations.to_value()),
                    ("failovers".into(), lineage.failovers.to_value()),
                    ("snapshot_steps".into(), lineage.snapshot_steps.to_value()),
                    ("lost_requests".into(), lineage.lost_requests.to_value()),
                ],
                "ok",
            ),
            Response::Cluster { backends } => {
                let rows: Vec<Value> = backends
                    .iter()
                    .map(|b| {
                        Value::Obj(vec![
                            ("id".into(), b.id.to_value()),
                            ("addr".into(), b.addr.to_value()),
                            ("pid".into(), b.pid.to_value()),
                            ("alive".into(), b.alive.to_value()),
                            ("sessions".into(), b.sessions.to_value()),
                        ])
                    })
                    .collect();
                tag("cluster", vec![("backends".into(), Value::Arr(rows))], "ok")
            }
            Response::Bye => tag("bye", vec![], "ok"),
            Response::Error { message } => {
                tag("error", vec![("message".into(), message.to_value())], "ok")
            }
        }
    }
}

impl Deserialize for Response {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let kind = String::from_value(v.get_field("ok")?)?;
        match kind.as_str() {
            "created" => Ok(Response::Created {
                info: SessionInfo {
                    id: u64::from_value(v.get_field("session")?)?,
                    algorithm: String::from_value(v.get_field("algorithm")?)?,
                    workload: String::from_value(v.get_field("workload")?)?,
                    load_bound: u32::from_value(v.get_field("load_bound")?)?,
                    steps: u64::from_value(v.get_field("steps")?)?,
                },
            }),
            "submitted" => Ok(Response::Submitted {
                session: u64::from_value(v.get_field("session")?)?,
                summary: BatchSummary {
                    served: u64::from_value(v.get_field("served")?)?,
                    steps: u64::from_value(v.get_field("steps")?)?,
                    ledger: CostLedger::from_value(v.get_field("ledger")?)?,
                    batch_cost: u64::from_value(v.get_field("batch_cost")?)?,
                    max_load: u32::from_value(v.get_field("max_load")?)?,
                    violations: u64::from_value(v.get_field("violations")?)?,
                },
            }),
            "status" => Ok(Response::Status {
                status: SessionStatus {
                    id: u64::from_value(v.get_field("session")?)?,
                    report: RunReport::from_value(v.get_field("report")?)?,
                    load_bound: u32::from_value(v.get_field("load_bound")?)?,
                    counters: WorkCounters::from_value(v.get_field("counters")?)?,
                },
            }),
            "snapshot" => Ok(Response::Snapshot {
                session: u64::from_value(v.get_field("session")?)?,
                snapshot: SnapshotBlob::from_value(v.get_field("snapshot")?)?,
            }),
            "closed" => Ok(Response::Closed {
                session: u64::from_value(v.get_field("session")?)?,
                report: RunReport::from_value(v.get_field("report")?)?,
            }),
            "stats" => Ok(Response::Stats {
                stats: ManagerStats {
                    open_sessions: u64::from_value(v.get_field("open_sessions")?)?,
                    created: u64::from_value(v.get_field("created")?)?,
                    total_served: u64::from_value(v.get_field("total_served")?)?,
                    total_violations: u64::from_value(v.get_field("total_violations")?)?,
                },
            }),
            "pong" => Ok(Response::Pong),
            "hello" => Ok(Response::Hello {
                hello: ServerHello {
                    server: String::from_value(v.get_field("server")?)?,
                    version: String::from_value(v.get_field("version")?)?,
                    proto: u64::from_value(v.get_field("proto")?)?,
                    workers: u64::from_value(v.get_field("workers")?)?,
                },
            }),
            "migrated" => Ok(Response::Migrated {
                session: u64::from_value(v.get_field("session")?)?,
                from: u64::from_value(v.get_field("from")?)?,
                to: u64::from_value(v.get_field("to")?)?,
            }),
            "lineage" => Ok(Response::Lineage {
                lineage: SessionLineage {
                    session: u64::from_value(v.get_field("session")?)?,
                    backend: u64::from_value(v.get_field("backend")?)?,
                    migrations: u64::from_value(v.get_field("migrations")?)?,
                    failovers: u64::from_value(v.get_field("failovers")?)?,
                    snapshot_steps: u64::from_value(v.get_field("snapshot_steps")?)?,
                    lost_requests: u64::from_value(v.get_field("lost_requests")?)?,
                },
            }),
            "cluster" => {
                let rows = match v.get_field("backends")? {
                    Value::Arr(rows) => rows,
                    other => return Err(DeError(format!("expected array, got {other:?}"))),
                };
                let backends = rows
                    .iter()
                    .map(|row| {
                        Ok(BackendSummary {
                            id: u64::from_value(row.get_field("id")?)?,
                            addr: String::from_value(row.get_field("addr")?)?,
                            pid: u64::from_value(row.get_field("pid")?)?,
                            alive: bool::from_value(row.get_field("alive")?)?,
                            sessions: u64::from_value(row.get_field("sessions")?)?,
                        })
                    })
                    .collect::<Result<Vec<_>, DeError>>()?;
                Ok(Response::Cluster { backends })
            }
            "bye" => Ok(Response::Bye),
            "error" => Ok(Response::Error {
                message: String::from_value(v.get_field("message")?)?,
            }),
            other => Err(DeError(format!("unknown response kind `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdbp_engine::{AlgorithmSpec, InstanceSpec, WorkloadSpec};

    fn round_trip_request(req: &Request) -> Request {
        let text = serde_json::to_string(req).unwrap();
        serde_json::from_str(&text).unwrap()
    }

    fn round_trip_response(resp: &Response) -> Response {
        let text = serde_json::to_string(resp).unwrap();
        serde_json::from_str(&text).unwrap()
    }

    #[test]
    fn requests_round_trip() {
        let scenario = Scenario::new(
            InstanceSpec::packed(4, 8),
            AlgorithmSpec::named("dynamic"),
            WorkloadSpec::named("zipf"),
            100,
        );
        for req in [
            Request::Create {
                scenario: Box::new(scenario.clone()),
            },
            Request::Submit {
                session: 7,
                work: Work::Generate(500),
            },
            Request::Submit {
                session: 7,
                work: Work::Replay(vec![Edge(1), Edge(2)]),
            },
            Request::Query { session: 3 },
            Request::Snapshot { session: 3 },
            Request::Restore {
                snapshot: SnapshotBlob::encode(&Value::Obj(vec![("x".into(), Value::UInt(1))]))
                    .unwrap(),
            },
            Request::Close { session: 3 },
            Request::Stats,
            Request::Ping,
            Request::Hello,
            Request::Migrate {
                session: 4,
                backend: None,
            },
            Request::Migrate {
                session: 4,
                backend: Some(2),
            },
            Request::Lineage { session: 4 },
            Request::Cluster,
            Request::Shutdown,
        ] {
            let text = serde_json::to_string(&req).unwrap();
            let back = round_trip_request(&req);
            assert_eq!(
                serde_json::to_string(&back).unwrap(),
                text,
                "request round trip changed the wire form"
            );
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in [
            Response::Created {
                info: SessionInfo {
                    id: 1,
                    algorithm: "dynamic-partitioner".into(),
                    workload: "zipf".into(),
                    load_bound: 24,
                    steps: 0,
                },
            },
            Response::Submitted {
                session: 1,
                summary: BatchSummary {
                    served: 10,
                    steps: 30,
                    ledger: CostLedger {
                        communication: 5,
                        migration: 6,
                    },
                    batch_cost: 3,
                    max_load: 9,
                    violations: 0,
                },
            },
            Response::Pong,
            Response::Bye,
            Response::Error {
                message: "nope".into(),
            },
            Response::Stats {
                stats: ManagerStats {
                    open_sessions: 2,
                    created: 5,
                    total_served: 1000,
                    total_violations: 0,
                },
            },
            Response::Hello {
                hello: ServerHello {
                    server: "rdbp-serve".into(),
                    version: "0.1.0".into(),
                    proto: PROTO_VERSION,
                    workers: 4,
                },
            },
            Response::Migrated {
                session: 9,
                from: 0,
                to: 2,
            },
            Response::Lineage {
                lineage: SessionLineage {
                    session: 9,
                    backend: 2,
                    migrations: 1,
                    failovers: 1,
                    snapshot_steps: 400,
                    lost_requests: 17,
                },
            },
            Response::Cluster {
                backends: vec![
                    BackendSummary {
                        id: 0,
                        addr: "127.0.0.1:4100".into(),
                        pid: 1234,
                        alive: true,
                        sessions: 5,
                    },
                    BackendSummary {
                        id: 1,
                        addr: "127.0.0.1:4101".into(),
                        pid: 0,
                        alive: false,
                        sessions: 0,
                    },
                ],
            },
        ] {
            let text = serde_json::to_string(&resp).unwrap();
            let back = round_trip_response(&resp);
            assert_eq!(serde_json::to_string(&back).unwrap(), text);
        }
    }

    #[test]
    fn submit_requires_exactly_one_payload() {
        assert!(serde_json::from_str::<Request>(r#"{"op":"submit","session":1}"#).is_err());
        assert!(serde_json::from_str::<Request>(
            r#"{"op":"submit","session":1,"steps":5,"requests":[1]}"#
        )
        .is_err());
        assert!(
            serde_json::from_str::<Request>(r#"{"op":"submit","session":1,"steps":5}"#).is_ok()
        );
    }

    #[test]
    fn unknown_ops_list_the_valid_ones() {
        let err = serde_json::from_str::<Request>(r#"{"op":"frobnicate"}"#).expect_err("must fail");
        let msg = format!("{err}");
        assert!(msg.contains("unknown op"), "{msg}");
        assert!(msg.contains("snapshot"), "{msg}");
    }
}
