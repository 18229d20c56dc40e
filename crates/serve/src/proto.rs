//! The newline-delimited-JSON wire protocol.
//!
//! One request line in, one response line out, per connection, in
//! order. Requests carry an `"op"` discriminator, responses an `"ok"`
//! discriminator (errors use `{"ok": "error", "message": …}`), so a
//! client can dispatch on one string. The payload structs derive their
//! serde. What is written by hand against the vendored serde value tree
//! is the enum tagging of [`Request`] and [`Response`] (the offline
//! derive stand-in has no enum support, same approach as
//! `rdbp_engine::spec`): a response is its `"ok"` tag followed by its
//! variant's fields, a payload struct's derived fields spliced in where
//! the struct stands. The `created` and `status` arms spell their
//! struct's fields out instead, because the id is `session` on the wire
//! but `id` in [`SessionInfo`] and [`SessionStatus`].
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
use rdbp_model::{Edge, RunReport, WorkCounters};

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
/// sessions to or from; no message layout changed. Version 5 sends
/// every non-empty numeric array as a packed column (value tags 0x09
/// and 0x0A, see [`crate::wire`]), which a version-4 peer cannot
/// decode; NDJSON and the snapshot tree are unchanged. Version 6
/// moves [`crate::SNAPSHOT_VERSION`] 4 snapshots, for the same reason
/// as version 4; no message layout changed.
pub const PROTO_VERSION: u64 = 6;

/// What a server says about itself in reply to `hello` — the liveness
/// handshake a router (or `rdbp-load --ping`) health-checks before
/// trusting an address.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionLineage {
    /// The (router-assigned) session id.
    pub session: u64,
    /// Backend currently hosting the session.
    pub backend: u64,
    /// Completed live migrations.
    pub migrations: u64,
    /// Crash failovers (reopenings from the router-held restore point).
    pub failovers: u64,
    /// Steps at the restore point the router would replay from (0
    /// while that is the session's create request).
    pub snapshot_steps: u64,
    /// Requests acknowledged to clients but lost to crashes — the
    /// explicit "replayed from snapshot N, lost K requests" contract.
    pub lost_requests: u64,
}

/// One backend's row in a router's `cluster` response.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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

/// The object `key: kind` followed by `rest`, built in one allocation.
fn tag(kind: &str, rest: impl IntoIterator<Item = (String, Value)>, key: &str) -> Value {
    let rest = rest.into_iter();
    let mut pairs = Vec::with_capacity(1 + rest.size_hint().0);
    pairs.push((key.to_string(), Value::Str(kind.into())));
    pairs.extend(rest);
    Value::Obj(pairs)
}

/// The pairs of a derived struct's object, in declaration order.
fn derived_pairs(value: &impl Serialize) -> Vec<(String, Value)> {
    match value.to_value() {
        Value::Obj(pairs) => pairs,
        other => unreachable!("a derived struct serializes as an object, got {other:?}"),
    }
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
                std::iter::once(("session".into(), session.to_value()))
                    .chain(derived_pairs(summary)),
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
            Response::Stats { stats } => tag("stats", derived_pairs(stats), "ok"),
            Response::Pong => tag("pong", vec![], "ok"),
            Response::Hello { hello } => tag("hello", derived_pairs(hello), "ok"),
            Response::Migrated { session, from, to } => tag(
                "migrated",
                vec![
                    ("session".into(), session.to_value()),
                    ("from".into(), from.to_value()),
                    ("to".into(), to.to_value()),
                ],
                "ok",
            ),
            Response::Lineage { lineage } => tag("lineage", derived_pairs(lineage), "ok"),
            Response::Cluster { backends } => tag(
                "cluster",
                vec![("backends".into(), backends.to_value())],
                "ok",
            ),
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
                summary: BatchSummary::from_value(v)?,
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
                stats: ManagerStats::from_value(v)?,
            }),
            "pong" => Ok(Response::Pong),
            "hello" => Ok(Response::Hello {
                hello: ServerHello::from_value(v)?,
            }),
            "migrated" => Ok(Response::Migrated {
                session: u64::from_value(v.get_field("session")?)?,
                from: u64::from_value(v.get_field("from")?)?,
                to: u64::from_value(v.get_field("to")?)?,
            }),
            "lineage" => Ok(Response::Lineage {
                lineage: SessionLineage::from_value(v)?,
            }),
            "cluster" => Ok(Response::Cluster {
                backends: Vec::from_value(v.get_field("backends")?)?,
            }),
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
    use rdbp_model::CostLedger;

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

    /// One response of each of the thirteen kinds, in wire status
    /// order.
    fn sample_responses() -> Vec<Response> {
        let report = RunReport {
            algorithm: "dynamic-partitioner".into(),
            workload: "zipf".into(),
            ledger: CostLedger {
                communication: 5,
                migration: 6,
            },
            steps: 30,
            max_load_seen: 9,
            capacity_violations: 0,
        };
        vec![
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
                    ledger: report.ledger,
                    batch_cost: 3,
                    max_load: 9,
                    violations: 0,
                },
            },
            Response::Status {
                status: SessionStatus {
                    id: 3,
                    report: report.clone(),
                    load_bound: 24,
                    counters: WorkCounters {
                        requests: 30,
                        migrations: 6,
                        ..WorkCounters::default()
                    },
                },
            },
            Response::Snapshot {
                session: 3,
                snapshot: SnapshotBlob::encode(&Value::Obj(vec![("x".into(), Value::UInt(1))]))
                    .unwrap(),
            },
            Response::Closed {
                session: 3,
                report: RunReport::new("dynamic-partitioner", "zipf"),
            },
            Response::Stats {
                stats: ManagerStats {
                    open_sessions: 2,
                    created: 5,
                    total_served: 1000,
                    total_violations: 0,
                },
            },
            Response::Pong,
            Response::Hello {
                hello: ServerHello {
                    server: "rdbp-serve".into(),
                    version: "0.1.0".into(),
                    proto: 4,
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
            Response::Bye,
            Response::Error {
                message: "nope".into(),
            },
        ]
    }

    /// The NDJSON line of each of [`sample_responses`], in order.
    const GOLDEN_LINES: [&str; 13] = [
        r#"{"ok":"created","session":1,"algorithm":"dynamic-partitioner","workload":"zipf","load_bound":24,"steps":0}"#,
        r#"{"ok":"submitted","session":1,"served":10,"steps":30,"ledger":{"communication":5,"migration":6},"batch_cost":3,"max_load":9,"violations":0}"#,
        r#"{"ok":"status","session":3,"report":{"algorithm":"dynamic-partitioner","workload":"zipf","ledger":{"communication":5,"migration":6},"steps":30,"max_load_seen":9,"capacity_violations":0},"load_bound":24,"counters":{"requests":30,"audited_steps":0,"journal_records":0,"migrations":6,"max_load_updates":0,"policy_serve_vector":0,"policy_serve_hit":0,"hst_node_visits":0,"hst_cache_hits":0,"coupling_follows":0,"oracle_cut_evals":0,"oracle_rounding_passes":0}}"#,
        r#"{"ok":"snapshot","session":3,"snapshot":{"x":1}}"#,
        r#"{"ok":"closed","session":3,"report":{"algorithm":"dynamic-partitioner","workload":"zipf","ledger":{"communication":0,"migration":0},"steps":0,"max_load_seen":0,"capacity_violations":0}}"#,
        r#"{"ok":"stats","open_sessions":2,"created":5,"total_served":1000,"total_violations":0}"#,
        r#"{"ok":"pong"}"#,
        r#"{"ok":"hello","server":"rdbp-serve","version":"0.1.0","proto":4,"workers":4}"#,
        r#"{"ok":"migrated","session":9,"from":0,"to":2}"#,
        r#"{"ok":"lineage","session":9,"backend":2,"migrations":1,"failovers":1,"snapshot_steps":400,"lost_requests":17}"#,
        r#"{"ok":"cluster","backends":[{"id":0,"addr":"127.0.0.1:4100","pid":1234,"alive":true,"sessions":5},{"id":1,"addr":"127.0.0.1:4101","pid":0,"alive":false,"sessions":0}]}"#,
        r#"{"ok":"bye"}"#,
        r#"{"ok":"error","message":"nope"}"#,
    ];

    /// The binary frame, in hex, of the five samples whose payload is
    /// one struct's fields (`submitted`, `stats`, `hello`, `lineage`,
    /// `cluster`), by index into [`sample_responses`].
    const GOLDEN_FRAMES: [(usize, &str); 5] = [
        (1, "b582c000000008070000000700000073657373696f6e03010000000000000006000000736572766564030a00000000000000050000007374657073031e00000000000000060000006c656467657208020000000d000000636f6d6d756e69636174696f6e030500000000000000090000006d6967726174696f6e0306000000000000000a00000062617463685f636f7374030300000000000000080000006d61785f6c6f61640309000000000000000a00000076696f6c6174696f6e73030000000000000000"),
        (5, "b5866900000008040000000d0000006f70656e5f73657373696f6e7303020000000000000007000000637265617465640305000000000000000c000000746f74616c5f73657276656403e80300000000000010000000746f74616c5f76696f6c6174696f6e73030000000000000000"),
        (7, "b58959000000080400000006000000736572766572060a000000726462702d73657276650700000076657273696f6e0605000000302e312e300500000070726f746f03040000000000000007000000776f726b657273030400000000000000"),
        (9, "b58b8f00000008060000000700000073657373696f6e030900000000000000070000006261636b656e640302000000000000000a0000006d6967726174696f6e73030100000000000000090000006661696c6f766572730301000000000000000e000000736e617073686f745f73746570730390010000000000000d0000006c6f73745f7265717565737473031100000000000000"),
        (10, "b58cd20000000801000000080000006261636b656e6473070200000008050000000200000069640300000000000000000400000061646472060e0000003132372e302e302e313a343130300300000070696403d20400000000000005000000616c697665020800000073657373696f6e7303050000000000000008050000000200000069640301000000000000000400000061646472060e0000003132372e302e302e313a343130310300000070696403000000000000000005000000616c697665010800000073657373696f6e73030000000000000000"),
    ];

    #[test]
    fn golden_wire_forms_are_pinned() {
        let samples = sample_responses();
        for (resp, line) in samples.iter().zip(GOLDEN_LINES) {
            assert_eq!(serde_json::to_string(resp).unwrap(), line);
        }
        for (index, frame) in GOLDEN_FRAMES {
            let bytes = crate::wire::encode_response(&samples[index]);
            let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(hex, frame, "frame of {}", GOLDEN_LINES[index]);
        }
    }

    /// The `snapshot` response of a `dynamic`×`hedge` session on
    /// packed(4, 8), seed 7, after 200 `uniform` requests: Hedge
    /// weights and phase costs (f64 columns), interval tallies (integer
    /// columns), and RNG words.
    fn pinned_snapshot_response() -> Response {
        let mut algorithm = AlgorithmSpec::named("dynamic");
        algorithm.policy = Some("hedge".into());
        let mut scenario = Scenario::new(
            InstanceSpec::packed(4, 8),
            algorithm,
            WorkloadSpec::named("uniform"),
            0,
        );
        scenario.seed = 7;
        let mut session =
            crate::Session::new(scenario, &rdbp_engine::Registries::builtin()).unwrap();
        session.submit(200);
        Response::Snapshot {
            session: 1,
            snapshot: SnapshotBlob::encode(&session.snapshot().unwrap()).unwrap(),
        }
    }

    #[test]
    fn real_snapshot_line_is_pinned() {
        let line = crate::wire::Framer::new(crate::wire::Proto::Ndjson)
            .encode_response(&pinned_snapshot_response());
        assert_eq!(
            String::from_utf8(line).unwrap(),
            include_str!("../tests/data/snapshot_response.ndjson")
        );
    }

    #[test]
    fn responses_round_trip() {
        for resp in sample_responses() {
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
