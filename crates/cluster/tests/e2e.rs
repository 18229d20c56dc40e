//! End-to-end cluster tests driving the real `rdbp-router` binary
//! (which spawns real `rdbp-serve` backends) over TCP: the migration
//! differential (a live-migrated session's transcript is
//! byte-identical to an unmigrated one, over both wire protocols),
//! snapshots crossing between the protocols through the router,
//! migrate-under-pipelined-load, SIGKILL failover with the
//! lost-requests contract, and the router's error surface, hostile
//! input included.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::time::{Duration, Instant};

use rdbp_engine::{AlgorithmSpec, InstanceSpec, Scenario, WorkloadSpec};
use rdbp_model::Edge;
use rdbp_serve::wire::{self, HEADER_LEN, MAX_FRAME};
use rdbp_serve::{Client, Request, Response, Work};

/// The `rdbp-serve` binary the router will spawn (its sibling in the
/// target directory). `cargo test -p rdbp_cluster` does not build
/// other packages' binaries, so build it on demand.
fn ensure_serve_binary() {
    let router = PathBuf::from(env!("CARGO_BIN_EXE_rdbp-router"));
    let serve = router.parent().unwrap().join("rdbp-serve");
    if serve.is_file() {
        return;
    }
    let cargo = option_env!("CARGO").unwrap_or("cargo");
    let status = Command::new(cargo)
        .args(["build", "-p", "rdbp_serve", "--bin", "rdbp-serve"])
        .status()
        .expect("run cargo build for rdbp-serve");
    assert!(status.success(), "building rdbp-serve failed");
    assert!(serve.is_file(), "rdbp-serve still missing after build");
}

struct RouterUnderTest {
    child: Child,
    addr: SocketAddr,
}

impl RouterUnderTest {
    /// Starts `rdbp-router --backends n` on an ephemeral port, plus
    /// extra flags (maintenance cadences etc.).
    fn start(tag: &str, backends: u32, extra: &[&str]) -> Self {
        ensure_serve_binary();
        let addr_file: PathBuf =
            std::env::temp_dir().join(format!("rdbp-router-e2e-{}-{tag}.addr", std::process::id()));
        let _ = std::fs::remove_file(&addr_file);
        let child = Command::new(env!("CARGO_BIN_EXE_rdbp-router"))
            .args(["--port", "0", "--backends", &backends.to_string()])
            .args(["--addr-file"])
            .arg(&addr_file)
            .args(extra)
            .spawn()
            .expect("spawn rdbp-router");
        let mut addr = None;
        for _ in 0..400 {
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                if let Ok(parsed) = text.trim().parse() {
                    addr = Some(parsed);
                    break;
                }
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        let _ = std::fs::remove_file(&addr_file);
        let addr = addr.expect("router never wrote its address file");
        Self { child, addr }
    }

    fn connect(&self, ndjson: bool) -> Client {
        if ndjson {
            Client::connect_ndjson(self.addr)
        } else {
            Client::connect(self.addr)
        }
        .expect("connect to router")
    }

    /// The backend roster via the `cluster` admin op.
    fn backends(&self) -> Vec<rdbp_serve::BackendSummary> {
        let mut client = self.connect(false);
        match client.call(&Request::Cluster).expect("cluster op") {
            Response::Cluster { backends } => backends,
            other => panic!("expected a cluster reply, got {other:?}"),
        }
    }

    /// Sends `shutdown` and asserts the router (and therefore all its
    /// spawned backends) exits cleanly.
    fn shutdown(mut self, ndjson: bool) {
        let mut client = self.connect(ndjson);
        match client.call(&Request::Shutdown).expect("shutdown call") {
            Response::Bye => {}
            other => panic!("expected bye, got {other:?}"),
        }
        let status = self.child.wait().expect("wait for router");
        assert!(status.success(), "router exited with {status}");
    }
}

impl Drop for RouterUnderTest {
    /// A test that panics before `shutdown` must not leak the router or
    /// the backends it spawned. Once `shutdown` has reaped the router
    /// this does nothing; otherwise it asks the router to shut down,
    /// which stops its backends, and kills it if it has not exited in
    /// time.
    fn drop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(None)) {
            return;
        }
        if let Ok(mut client) = Client::connect(self.addr) {
            let _ = client.set_read_timeout(Some(Duration::from_secs(2)));
            let _ = client.call(&Request::Shutdown);
        }
        let deadline = Instant::now() + Duration::from_secs(15);
        while matches!(self.child.try_wait(), Ok(None)) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn scenario(seed: u64) -> Scenario {
    let mut s = Scenario::new(
        InstanceSpec::packed(4, 8),
        AlgorithmSpec::named("dynamic"),
        WorkloadSpec::named("zipf"),
        0,
    );
    s.seed = seed;
    s
}

/// A 256-request replay over the 32 edges of [`scenario`]'s ring —
/// sent as a typed frame on every binary hop.
fn replay() -> Work {
    Work::Replay((0..256u32).map(|i| Edge((i * 5 + 3) % 32)).collect())
}

fn canonical(response: &Response) -> String {
    serde_json::to_string(response).expect("serialize response")
}

/// Drives one session through a fixed conversation, calling `mid`
/// between the submit batches (that's where a migration is injected),
/// and returns every recorded response as canonical JSON — the
/// differential fingerprint. Responses to `mid`'s own admin traffic
/// are not part of the transcript.
fn transcript(client: &mut Client, mid: &mut dyn FnMut(u64)) -> Vec<String> {
    let mut out = Vec::new();
    let created = client
        .call(&Request::Create {
            scenario: Box::new(scenario(42)),
        })
        .expect("create");
    let Response::Created { info } = &created else {
        panic!("create failed: {created:?}")
    };
    let id = info.id;
    out.push(canonical(&created));
    for batch in 0..4 {
        let submitted = client
            .call(&Request::Submit {
                session: id,
                work: Work::Generate(150),
            })
            .expect("submit");
        assert!(
            matches!(submitted, Response::Submitted { .. }),
            "submit failed: {submitted:?}"
        );
        out.push(canonical(&submitted));
        if batch == 1 {
            mid(id);
        }
    }
    let replayed = client
        .call(&Request::Submit {
            session: id,
            work: replay(),
        })
        .expect("replay");
    assert!(
        matches!(replayed, Response::Submitted { .. }),
        "replay failed: {replayed:?}"
    );
    out.push(canonical(&replayed));
    out.push(canonical(
        &client.call(&Request::Query { session: id }).expect("query"),
    ));
    out.push(canonical(
        &client.call(&Request::Close { session: id }).expect("close"),
    ));
    out
}

/// The tentpole differential: a session live-migrated between backends
/// mid-trace produces a byte-identical transcript — responses *and*
/// final counters — to the same trace on a single unmigrated backend.
/// Run over both wire protocols.
#[test]
fn migrated_transcript_is_byte_identical_to_unmigrated() {
    for ndjson in [false, true] {
        let proto = if ndjson { "ndjson" } else { "binary" };
        // Reference: a 1-backend cluster, nothing ever moves.
        let reference = RouterUnderTest::start(
            &format!("diff-ref-{proto}"),
            1,
            &["--snapshot-ms", "0", "--rebalance-ms", "0"],
        );
        let mut ref_client = reference.connect(ndjson);
        let want = transcript(&mut ref_client, &mut |_| {});

        // Subject: a 3-backend cluster with a forced migration between
        // batches 2 and 3, issued over a separate admin connection.
        let subject = RouterUnderTest::start(
            &format!("diff-mig-{proto}"),
            3,
            &["--snapshot-ms", "0", "--rebalance-ms", "0"],
        );
        let mut admin = subject.connect(false);
        let mut migrated_to = None;
        let mut subject_client = subject.connect(ndjson);
        let got = transcript(&mut subject_client, &mut |id| match admin
            .call(&Request::Migrate {
                session: id,
                backend: None,
            })
            .expect("migrate")
        {
            Response::Migrated { from, to, .. } => {
                assert_ne!(from, to, "migration must change backends");
                migrated_to = Some(to);
            }
            other => panic!("migrate failed: {other:?}"),
        });
        assert!(migrated_to.is_some(), "the migration hook never ran");
        assert_eq!(
            want, got,
            "[{proto}] migrated transcript diverged from the unmigrated reference"
        );
        reference.shutdown(ndjson);
        subject.shutdown(false);
    }
}

/// Serves a generated and a replayed batch on `session`, then queries
/// and closes it; returns what each reply says about the session,
/// without its id.
fn drive(client: &mut Client, session: u64) -> Vec<String> {
    let mut out = Vec::new();
    for work in [Work::Generate(200), replay()] {
        let Response::Submitted { summary, .. } =
            client.call(&Request::Submit { session, work }).unwrap()
        else {
            panic!("submit failed")
        };
        out.push(format!("{summary:?}"));
    }
    let Response::Status { status } = client.call(&Request::Query { session }).unwrap() else {
        panic!("query failed")
    };
    // A restored twin's counters cover its whole history too.
    assert_eq!(status.counters.requests, status.report.steps);
    out.push(format!("{:?} {:?}", status.report, status.counters));
    let Response::Closed { report, .. } = client.call(&Request::Close { session }).unwrap() else {
        panic!("close failed")
    };
    out.push(format!("{report:?}"));
    out
}

/// Through the router, a snapshot taken over NDJSON restores over
/// binary, and the reverse: the router hands out the same snapshot
/// bytes over both protocols, and the twins restored across them
/// continue identically.
#[test]
fn snapshots_cross_between_protocols_through_the_router() {
    let router = RouterUnderTest::start("cross", 2, &["--snapshot-ms", "0", "--rebalance-ms", "0"]);
    let mut binary = router.connect(false);
    let mut ndjson = router.connect(true);
    let Response::Created { info } = binary
        .call(&Request::Create {
            scenario: Box::new(scenario(11)),
        })
        .unwrap()
    else {
        panic!("create failed")
    };
    for work in [Work::Generate(300), replay()] {
        let Response::Submitted { .. } = binary
            .call(&Request::Submit {
                session: info.id,
                work,
            })
            .unwrap()
        else {
            panic!("submit failed")
        };
    }
    let snapshot = |client: &mut Client| match client
        .call(&Request::Snapshot { session: info.id })
        .unwrap()
    {
        Response::Snapshot { snapshot, .. } => snapshot,
        other => panic!("snapshot failed: {other:?}"),
    };
    let from_ndjson = snapshot(&mut ndjson);
    let from_binary = snapshot(&mut binary);
    assert_eq!(
        from_ndjson.as_bytes(),
        from_binary.as_bytes(),
        "the protocols must carry the same snapshot"
    );
    let restore = |client: &mut Client, snapshot| match client
        .call(&Request::Restore { snapshot })
        .unwrap()
    {
        Response::Created { info } => {
            assert_eq!(info.steps, 556);
            info.id
        }
        other => panic!("restore failed: {other:?}"),
    };
    let over_binary = restore(&mut binary, from_ndjson);
    let over_ndjson = restore(&mut ndjson, from_binary);
    let twin = drive(&mut binary, over_binary);
    assert_eq!(twin, drive(&mut ndjson, over_ndjson));
    let original = drive(&mut binary, info.id);
    assert_eq!(original.last(), twin.last(), "the twins left the original");
    router.shutdown(false);
}

/// Migration under pipelined load: a batch of submits is in flight on
/// the session's own connection while an admin connection forces a
/// migration. The submits must all succeed, answer strictly in order,
/// and the final state must match an unmigrated run of the same trace.
#[test]
fn migrate_under_pipelined_load_is_lossless() {
    let router = RouterUnderTest::start("pipeline", 2, &["--snapshot-ms", "0"]);
    let mut client = router.connect(false);
    let Response::Created { info } = client
        .call(&Request::Create {
            scenario: Box::new(scenario(7)),
        })
        .expect("create")
    else {
        panic!("create failed")
    };

    // Fire 8 submits without reading a single response…
    for _ in 0..8 {
        client
            .send(&Request::Submit {
                session: info.id,
                work: Work::Generate(100),
            })
            .expect("pipelined send");
    }
    // …and migrate mid-flight from another connection.
    let mut admin = router.connect(false);
    let migrated = admin
        .call(&Request::Migrate {
            session: info.id,
            backend: None,
        })
        .expect("migrate");
    assert!(
        matches!(migrated, Response::Migrated { .. }),
        "migrate failed: {migrated:?}"
    );

    // Every pipelined submit answers, in order, with cumulative steps.
    for i in 0..8u64 {
        let Response::Submitted { summary, .. } = client.recv().expect("pipelined recv") else {
            panic!("pipelined response {i} was not a submit ack")
        };
        assert_eq!(summary.steps, (i + 1) * 100, "response {i} out of order");
        assert_eq!(summary.violations, 0);
    }

    // The final report matches the same trace run without a migration.
    let Response::Closed { report, .. } = client
        .call(&Request::Close { session: info.id })
        .expect("close")
    else {
        panic!("close failed")
    };
    let Response::Created { info: twin } = client
        .call(&Request::Create {
            scenario: Box::new(scenario(7)),
        })
        .expect("create twin")
    else {
        panic!("twin create failed")
    };
    let Response::Submitted { .. } = client
        .call(&Request::Submit {
            session: twin.id,
            work: Work::Generate(800),
        })
        .expect("twin submit")
    else {
        panic!("twin submit failed")
    };
    let Response::Closed { report: want, .. } = client
        .call(&Request::Close { session: twin.id })
        .expect("twin close")
    else {
        panic!("twin close failed")
    };
    assert_eq!(report, want, "migration under load changed the outcome");
    router.shutdown(false);
}

/// The failover acceptance test: SIGKILL one of 3 backends under load.
/// Every session it hosted is restored from a router-held snapshot
/// onto a survivor and continues with zero audit violations, and the
/// replay gap is reported through `lineage` — not silent.
#[test]
fn sigkill_failover_restores_every_session_with_the_gap_reported() {
    // Background snapshots off: the retained snapshots are exactly the
    // ones this test places, so the replay gap is deterministic.
    let router = RouterUnderTest::start(
        "failover",
        3,
        &[
            "--snapshot-ms",
            "0",
            "--rebalance-ms",
            "0",
            "--ping-ms",
            "50",
        ],
    );
    let mut client = router.connect(false);

    // 6 sessions, 2 per backend (least-loaded placement round-robins).
    let mut sessions = Vec::new();
    for seed in 0..6u64 {
        let Response::Created { info } = client
            .call(&Request::Create {
                scenario: Box::new(scenario(seed)),
            })
            .expect("create")
        else {
            panic!("create failed")
        };
        sessions.push(info.id);
    }
    for &id in &sessions {
        let Response::Submitted { summary, .. } = client
            .call(&Request::Submit {
                session: id,
                work: Work::Generate(200),
            })
            .expect("submit")
        else {
            panic!("submit failed")
        };
        assert_eq!(summary.violations, 0);
    }
    // Checkpoint everything at step 200, then advance to step 300 —
    // the 100 steps past the snapshot are the doomed backend's gap.
    for &id in &sessions {
        assert!(matches!(
            client.call(&Request::Snapshot { session: id }).unwrap(),
            Response::Snapshot { .. }
        ));
        assert!(matches!(
            client
                .call(&Request::Submit {
                    session: id,
                    work: Work::Generate(100),
                })
                .unwrap(),
            Response::Submitted { .. }
        ));
    }

    // Kill one backend outright.
    let roster = router.backends();
    assert_eq!(roster.len(), 3);
    assert!(roster.iter().all(|b| b.alive && b.sessions == 2));
    let victim = &roster[0];
    let status = Command::new("kill")
        .args(["-9", &victim.pid.to_string()])
        .status()
        .expect("run kill");
    assert!(status.success(), "kill -9 failed");

    // The ping sweep detects the death and the maintenance loop
    // restores the orphans without any client traffic prompting it.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let roster = router.backends();
        let dead = roster.iter().find(|b| b.id == victim.id).unwrap();
        if !dead.alive && dead.sessions == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "failover never completed: {roster:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    // Every session — orphaned or not — continues, audited, clean.
    let mut failovers = 0u64;
    for &id in &sessions {
        let Response::Status { status } = client
            .call(&Request::Query { session: id })
            .expect("query after failover")
        else {
            panic!("query failed after failover")
        };
        assert_eq!(status.report.capacity_violations, 0);
        // The counters rewind with the session: they are the snapshot's
        // plus whatever the survivor served since.
        assert_eq!(status.counters.requests, status.report.steps);
        let Response::Lineage { lineage } = client
            .call(&Request::Lineage { session: id })
            .expect("lineage")
        else {
            panic!("lineage failed")
        };
        if lineage.failovers > 0 {
            failovers += 1;
            // The contract: "replayed from snapshot 200, lost 100
            // acknowledged requests" — queryable, not silent.
            assert_eq!(lineage.snapshot_steps, 200);
            assert_eq!(lineage.lost_requests, 100);
            assert_eq!(
                status.report.steps, 200,
                "session must rewind to its snapshot"
            );
        } else {
            assert_eq!(lineage.lost_requests, 0);
            assert_eq!(status.report.steps, 300);
        }
        let Response::Submitted { summary, .. } = client
            .call(&Request::Submit {
                session: id,
                work: Work::Generate(100),
            })
            .expect("submit after failover")
        else {
            panic!("submit failed after failover")
        };
        assert_eq!(summary.violations, 0, "audit violation after failover");
    }
    assert_eq!(
        failovers, 2,
        "exactly the killed backend's sessions fail over"
    );

    // The cluster still reports the death honestly.
    let roster = router.backends();
    let dead: Vec<_> = roster.iter().filter(|b| !b.alive).collect();
    assert_eq!(dead.len(), 1);
    assert_eq!(dead[0].id, victim.id);
    router.shutdown(false);
}

/// The router's error surface matches a single server's: unknown and
/// closed sessions answer the established `unknown session N` error
/// shape, bad migrate targets are refused, and a post-error connection
/// keeps working.
#[test]
fn router_rejects_unknown_and_closed_sessions_with_the_error_shape() {
    let router = RouterUnderTest::start("errors", 2, &[]);
    for ndjson in [false, true] {
        let mut client = router.connect(ndjson);
        let proto = if ndjson { "ndjson" } else { "binary" };

        // Unknown session, across ops.
        for request in [
            Request::Submit {
                session: 999,
                work: Work::Generate(10),
            },
            Request::Query { session: 999 },
            Request::Snapshot { session: 999 },
            Request::Close { session: 999 },
            Request::Migrate {
                session: 999,
                backend: None,
            },
            Request::Lineage { session: 999 },
        ] {
            let Response::Error { message } = client.call(&request).expect("call") else {
                panic!("[{proto}] expected an error for an unknown session")
            };
            assert!(
                message.contains("unknown session 999"),
                "[{proto}] wrong error shape: {message}"
            );
        }

        // A closed session becomes unknown.
        let Response::Created { info } = client
            .call(&Request::Create {
                scenario: Box::new(scenario(1)),
            })
            .expect("create")
        else {
            panic!("create failed")
        };
        assert!(matches!(
            client.call(&Request::Close { session: info.id }).unwrap(),
            Response::Closed { .. }
        ));
        let Response::Error { message } = client
            .call(&Request::Query { session: info.id })
            .expect("query closed")
        else {
            panic!("[{proto}] expected an error for a closed session")
        };
        assert!(
            message.contains(&format!("unknown session {}", info.id)),
            "[{proto}] wrong error shape: {message}"
        );

        // Bad migrate targets.
        let Response::Created { info } = client
            .call(&Request::Create {
                scenario: Box::new(scenario(2)),
            })
            .expect("create")
        else {
            panic!("create failed")
        };
        let Response::Error { message } = client
            .call(&Request::Migrate {
                session: info.id,
                backend: Some(7),
            })
            .expect("migrate")
        else {
            panic!("[{proto}] expected an error for a bad backend")
        };
        assert!(message.contains("unknown backend 7"), "{message}");
        assert!(matches!(
            client.call(&Request::Close { session: info.id }).unwrap(),
            Response::Closed { .. }
        ));

        // The connection survived all of it.
        assert!(matches!(
            client.call(&Request::Ping).unwrap(),
            Response::Pong
        ));
    }
    router.shutdown(false);
}

/// A plain `rdbp-serve` refuses router-only admin ops with a clear
/// pointer, and the router's `hello` identifies it as a router — the
/// two sides of the health-check handshake.
#[test]
fn hello_identifies_router_and_backends_reject_router_ops() {
    let router = RouterUnderTest::start("hello", 2, &[]);
    let mut client = router.connect(false);
    let Response::Hello { hello } = client.call(&Request::Hello).expect("hello") else {
        panic!("hello failed")
    };
    assert_eq!(hello.server, "rdbp-router");
    assert_eq!(hello.proto, rdbp_serve::PROTO_VERSION);
    assert_eq!(hello.workers, 2, "router reports its backend count");

    // Speak to a backend directly: it identifies as rdbp-serve and
    // refuses cluster ops.
    let backend_addr: SocketAddr = router.backends()[0].addr.parse().expect("backend addr");
    let mut direct = Client::connect(backend_addr).expect("connect backend");
    let Response::Hello { hello } = direct.call(&Request::Hello).expect("backend hello") else {
        panic!("backend hello failed")
    };
    assert_eq!(hello.server, "rdbp-serve");
    let Response::Error { message } = direct
        .call(&Request::Migrate {
            session: 1,
            backend: None,
        })
        .expect("backend migrate")
    else {
        panic!("expected an error from a plain backend")
    };
    assert!(message.contains("requires a router"), "{message}");
    router.shutdown(false);
}

/// Rebalancing: pile sessions onto an imbalanced cluster and watch the
/// policy loop migrate them until the spread is under the gap.
#[test]
fn rebalance_loop_evens_out_a_skewed_cluster() {
    // A short cadence and the router's fixed gap of 2; convergence is
    // checked after the fact.
    let router = RouterUnderTest::start(
        "rebalance",
        3,
        &["--rebalance-ms", "50", "--snapshot-ms", "0"],
    );
    let mut client = router.connect(false);
    let mut sessions = Vec::new();
    for seed in 0..9u64 {
        let Response::Created { info } = client
            .call(&Request::Create {
                scenario: Box::new(scenario(seed)),
            })
            .expect("create")
        else {
            panic!("create failed")
        };
        sessions.push(info.id);
    }
    // Least-loaded placement already spreads creates 3/3/3; force a
    // skew by migrating everything onto backend 0 explicitly.
    for &id in &sessions {
        match client
            .call(&Request::Migrate {
                session: id,
                backend: Some(0),
            })
            .expect("migrate onto 0")
        {
            Response::Migrated { .. } => {}
            Response::Error { message } => panic!("forced migrate failed: {message}"),
            other => panic!("forced migrate failed: {other:?}"),
        }
    }
    // The policy loop must now drain backend 0 until the spread is
    // within the gap.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let roster = router.backends();
        let counts: Vec<u64> = roster.iter().map(|b| b.sessions).collect();
        let spread = counts.iter().max().unwrap() - counts.iter().min().unwrap();
        if spread < 2 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "rebalancing never converged: {counts:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    // Sessions still work wherever they ended up.
    for &id in &sessions {
        let Response::Submitted { summary, .. } = client
            .call(&Request::Submit {
                session: id,
                work: Work::Generate(50),
            })
            .expect("submit after rebalance")
        else {
            panic!("submit failed after rebalance")
        };
        assert_eq!(summary.violations, 0);
    }
    router.shutdown(false);
}

/// Dropping a started router without `shutdown`, as a panicking test
/// does, leaves neither the router nor its backends running.
#[test]
fn dropped_router_stops_itself_and_its_backends() {
    let router = RouterUnderTest::start("drop", 2, &["--snapshot-ms", "0", "--rebalance-ms", "0"]);
    let mut pids: Vec<u64> = router.backends().iter().map(|b| b.pid).collect();
    assert!(
        pids.iter().all(|&pid| pid != 0),
        "spawned backends have pids: {pids:?}"
    );
    pids.push(u64::from(router.child.id()));
    drop(router);
    for pid in pids {
        assert!(
            !Path::new(&format!("/proc/{pid}")).exists(),
            "process {pid} outlived the dropped router"
        );
    }
}

/// A raw connection to the router that gives up instead of hanging
/// when an expected reply or close never comes.
fn raw_connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect to router");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("set read timeout");
    stream
}

/// Reads one binary frame from a raw stream and decodes it as a
/// response.
fn read_response(stream: &mut TcpStream) -> Response {
    let mut header = [0u8; HEADER_LEN];
    stream
        .read_exact(&mut header)
        .expect("response frame header");
    assert_eq!(header[0], wire::MAGIC, "response must be a binary frame");
    let len = u32::from_le_bytes([header[2], header[3], header[4], header[5]]) as usize;
    let mut payload = vec![0u8; len];
    stream
        .read_exact(&mut payload)
        .expect("response frame payload");
    wire::decode_response(header[1], &payload).expect("decodable response")
}

fn error_message(response: Response) -> String {
    match response {
        Response::Error { message } => message,
        other => panic!("expected an error reply, got {other:?}"),
    }
}

/// The peer hung up (a timeout is not a close).
fn assert_closed(stream: &mut TcpStream) {
    match stream.read(&mut [0u8; 1]) {
        Ok(0) => {}
        Err(e) if e.kind() == io::ErrorKind::ConnectionReset => {}
        other => panic!("connection must close, got {other:?}"),
    }
}

/// The hostile inputs the backend e2e suite sends `rdbp-serve` draw the
/// same answers from the router: a desynchronizing frame an error and a
/// close, a malformed but delimited frame (an unknown opcode, a
/// snapshot nested too deep or holding a column of a width no encoder
/// writes) an error on a connection that stays usable, and an NDJSON
/// line over the cap an error and a close.
#[test]
fn router_answers_hostile_input_like_a_backend() {
    let router = RouterUnderTest::start("hostile", 1, &["--snapshot-ms", "0"]);

    // An oversized declared frame length: error, then close.
    let mut stream = raw_connect(router.addr);
    let mut header = vec![wire::MAGIC, 0x02];
    header.extend_from_slice(&u32::MAX.to_le_bytes());
    stream.write_all(&header).unwrap();
    let message = error_message(read_response(&mut stream));
    assert!(message.contains("cap"), "{message}");
    assert_closed(&mut stream);

    // An unknown opcode, then a ping: error, then pong.
    let mut stream = raw_connect(router.addr);
    let mut unknown_op = vec![wire::MAGIC, 0x7E];
    unknown_op.extend_from_slice(&1u32.to_le_bytes());
    unknown_op.push(0x00); // null body
    stream.write_all(&unknown_op).unwrap();
    stream
        .write_all(&wire::encode_request(&Request::Ping))
        .unwrap();
    error_message(read_response(&mut stream));
    assert!(matches!(read_response(&mut stream), Response::Pong));
    // A restore whose snapshot nests past the depth limit (the field
    // sits at depth 1, so MAX_DEPTH arrays put its null one too
    // deep): error, then pong.
    let mut payload = vec![0x08]; // an object…
    payload.extend_from_slice(&1u32.to_le_bytes()); // …of one field…
    payload.extend_from_slice(&8u32.to_le_bytes());
    payload.extend_from_slice(b"snapshot"); // …named `snapshot`
    for _ in 0..wire::MAX_DEPTH {
        payload.push(0x07); // an array of one element
        payload.extend_from_slice(&1u32.to_le_bytes());
    }
    payload.push(0x00); // null
    let mut restore = vec![wire::MAGIC, 0x05];
    restore.extend_from_slice(&u32::try_from(payload.len()).unwrap().to_le_bytes());
    restore.extend_from_slice(&payload);
    stream.write_all(&restore).unwrap();
    stream
        .write_all(&wire::encode_request(&Request::Ping))
        .unwrap();
    let message = error_message(read_response(&mut stream));
    assert!(message.contains("depth"), "{message}");
    assert!(matches!(read_response(&mut stream), Response::Pong));
    // A restore whose snapshot is an unsigned column of width 3, which
    // no encoder writes: error, then pong.
    let mut payload = vec![0x08]; // an object…
    payload.extend_from_slice(&1u32.to_le_bytes()); // …of one field…
    payload.extend_from_slice(&8u32.to_le_bytes());
    payload.extend_from_slice(b"snapshot"); // …named `snapshot`…
    payload.push(0x0A); // …holding an unsigned column…
    payload.extend_from_slice(&2u32.to_le_bytes()); // …of two elements…
    payload.push(3); // …3 bytes wide
    payload.extend_from_slice(&[0; 6]);
    let mut restore = vec![wire::MAGIC, 0x05];
    restore.extend_from_slice(&u32::try_from(payload.len()).unwrap().to_le_bytes());
    restore.extend_from_slice(&payload);
    stream.write_all(&restore).unwrap();
    stream
        .write_all(&wire::encode_request(&Request::Ping))
        .unwrap();
    let message = error_message(read_response(&mut stream));
    assert!(message.contains("width 3"), "{message}");
    assert!(matches!(read_response(&mut stream), Response::Pong));
    // Then a bad magic byte: error, then close.
    stream.write_all(&[0x00]).unwrap();
    let message = error_message(read_response(&mut stream));
    assert!(message.contains("magic"), "{message}");
    assert_closed(&mut stream);

    // An NDJSON line over the cap: error, then close.
    let mut stream = raw_connect(router.addr);
    let chunk = vec![b'a'; 64 * 1024];
    let mut sent = 0usize;
    while sent <= MAX_FRAME {
        // The router may hang up mid-send; that's the point.
        if stream.write_all(&chunk).is_err() {
            break;
        }
        sent += chunk.len();
    }
    let mut reply = String::new();
    let _ = stream.read_to_string(&mut reply);
    assert!(
        reply.contains("\"ok\":\"error\"") && reply.contains("cap"),
        "expected an oversized-line error, got: {reply:?}"
    );
    router.shutdown(false);
}
