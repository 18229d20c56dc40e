//! End-to-end tests driving the real `rdbp-serve` binary over TCP —
//! the same path the CI smoke job exercises: ephemeral port via
//! `--addr-file`, full protocol flow including snapshot/restore over
//! the wire, both wire protocols (binary frames and NDJSON, plus their
//! failure surfaces: oversized/garbage frames, abrupt disconnects),
//! connection scaling without thread-per-connection, the `rdbp-load`
//! client binary, and a clean shutdown, on time or at the drain
//! deadline.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use rdbp_engine::{AlgorithmSpec, InstanceSpec, Scenario, WorkloadSpec};
use rdbp_serve::wire::{self, HEADER_LEN, MAX_FRAME};
use rdbp_serve::{Client, Request, Response, Work, MAX_SUBMIT};

struct ServerUnderTest {
    child: Child,
    addr: SocketAddr,
}

impl ServerUnderTest {
    /// Starts `rdbp-serve` on an ephemeral loopback port and waits for
    /// the address handshake file.
    fn start(tag: &str) -> Self {
        Self::start_with(tag, &[], Stdio::inherit())
    }

    /// [`ServerUnderTest::start`] with extra command-line flags and a
    /// choice of where the server's log goes.
    fn start_with(tag: &str, extra: &[&str], stderr: Stdio) -> Self {
        let addr_file: PathBuf =
            std::env::temp_dir().join(format!("rdbp-serve-e2e-{}-{tag}.addr", std::process::id()));
        let _ = std::fs::remove_file(&addr_file);
        let child = Command::new(env!("CARGO_BIN_EXE_rdbp-serve"))
            .args(["--port", "0", "--workers", "4", "--addr-file"])
            .arg(&addr_file)
            .args(extra)
            .stderr(stderr)
            .spawn()
            .expect("spawn rdbp-serve");
        let mut addr = None;
        for _ in 0..200 {
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                if let Ok(parsed) = text.trim().parse() {
                    addr = Some(parsed);
                    break;
                }
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        let _ = std::fs::remove_file(&addr_file);
        let addr = addr.expect("server never wrote its address file");
        Self { child, addr }
    }

    /// Sends `shutdown` (binary protocol) and asserts a clean exit.
    fn shutdown(self) {
        self.shutdown_proto(false);
    }

    /// Sends `shutdown` over the chosen protocol and asserts the
    /// server exits cleanly.
    fn shutdown_proto(mut self, ndjson: bool) {
        let mut client = if ndjson {
            Client::connect_ndjson(self.addr)
        } else {
            Client::connect(self.addr)
        }
        .expect("connect for shutdown");
        match client.call(&Request::Shutdown).expect("shutdown call") {
            Response::Bye => {}
            other => panic!("expected bye, got {other:?}"),
        }
        let status = self.child.wait().expect("wait for server");
        assert!(status.success(), "server exited with {status}");
    }
}

/// Reads one binary frame (code, payload) from a raw stream, or `None`
/// at EOF.
fn read_frame(stream: &mut TcpStream) -> Option<(u8, Vec<u8>)> {
    let mut header = [0u8; HEADER_LEN];
    stream.read_exact(&mut header).ok()?;
    assert_eq!(header[0], wire::MAGIC, "response must be a binary frame");
    let len = u32::from_le_bytes([header[2], header[3], header[4], header[5]]) as usize;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).ok()?;
    Some((header[1], payload))
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

#[test]
fn full_protocol_flow_over_tcp() {
    let server = ServerUnderTest::start("proto");
    let mut client = Client::connect(server.addr).expect("connect");

    // Ping.
    assert!(matches!(
        client.call(&Request::Ping).unwrap(),
        Response::Pong
    ));

    // Create + submit.
    let Response::Created { info } = client
        .call(&Request::Create {
            scenario: Box::new(scenario(5)),
        })
        .unwrap()
    else {
        panic!("create failed")
    };
    assert_eq!(info.algorithm, "dynamic-partitioner");
    let Response::Submitted { summary, .. } = client
        .call(&Request::Submit {
            session: info.id,
            work: Work::Generate(400),
        })
        .unwrap()
    else {
        panic!("submit failed")
    };
    assert_eq!(summary.steps, 400);
    assert_eq!(summary.violations, 0);

    // Snapshot over the wire, restore under a fresh id, drive both
    // sessions on — they must stay bit-identical.
    let Response::Snapshot { snapshot, .. } = client
        .call(&Request::Snapshot { session: info.id })
        .unwrap()
    else {
        panic!("snapshot failed")
    };
    let Response::Created { info: twin } = client.call(&Request::Restore { snapshot }).unwrap()
    else {
        panic!("restore failed")
    };
    assert_eq!(twin.steps, 400);
    assert_ne!(twin.id, info.id);
    for session in [info.id, twin.id] {
        let Response::Submitted { .. } = client
            .call(&Request::Submit {
                session,
                work: Work::Generate(300),
            })
            .unwrap()
        else {
            panic!("continue failed")
        };
    }
    let Response::Closed { report: a, .. } =
        client.call(&Request::Close { session: info.id }).unwrap()
    else {
        panic!("close failed")
    };
    let Response::Closed { report: b, .. } =
        client.call(&Request::Close { session: twin.id }).unwrap()
    else {
        panic!("close failed")
    };
    assert_eq!(a, b, "restored session diverged over the wire");

    // Replay submission + error surface.
    let Response::Created { info } = client
        .call(&Request::Create {
            scenario: Box::new(scenario(6)),
        })
        .unwrap()
    else {
        panic!("create failed")
    };
    let Response::Submitted { summary, .. } = client
        .call(&Request::Submit {
            session: info.id,
            work: Work::Replay((0..32).map(rdbp_model::Edge).collect()),
        })
        .unwrap()
    else {
        panic!("replay failed")
    };
    assert_eq!(summary.served, 32);
    let Response::Error { message } = client.call(&Request::Query { session: 999 }).unwrap() else {
        panic!("expected an error for an unknown session")
    };
    assert!(message.contains("unknown session"), "{message}");

    // Stats reflect everything this test did.
    let Response::Stats { stats } = client.call(&Request::Stats).unwrap() else {
        panic!("stats failed")
    };
    assert_eq!(stats.open_sessions, 1);
    assert_eq!(stats.total_served, 400 + 400 + 300 + 300 + 32);
    assert_eq!(stats.total_violations, 0);

    server.shutdown();
}

#[test]
fn load_generator_drives_concurrent_sessions_cleanly() {
    let server = ServerUnderTest::start("load");
    let csv_path = std::env::temp_dir().join(format!("rdbp-load-e2e-{}.csv", std::process::id()));
    let _ = std::fs::remove_file(&csv_path);
    let output = Command::new(env!("CARGO_BIN_EXE_rdbp-load"))
        .args([
            "--addr",
            &server.addr.to_string(),
            "--sessions",
            "6",
            "--batches",
            "8",
            "--batch-size",
            "200",
            "--workload",
            "zipf",
            "--json",
            "--csv",
        ])
        .arg(&csv_path)
        .output()
        .expect("run rdbp-load");
    assert!(
        output.status.success(),
        "rdbp-load reported violations or failures: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    // The JSON summary reports latency percentiles…
    let summary = String::from_utf8_lossy(&output.stdout);
    for key in ["\"p50\"", "\"p95\"", "\"p99\"", "\"req_per_sec\""] {
        assert!(summary.contains(key), "summary missing {key}: {summary}");
    }
    // …and the CSV records them alongside the aggregate throughput.
    let csv = std::fs::read_to_string(&csv_path).expect("csv written");
    let _ = std::fs::remove_file(&csv_path);
    let mut lines = csv.lines();
    let header = lines.next().expect("csv header");
    for column in ["req_per_sec", "p50_us", "p95_us", "p99_us"] {
        assert!(header.contains(column), "csv header missing {column}");
    }
    let row = lines.next().expect("csv data row");
    assert_eq!(row.split(',').count(), header.split(',').count());
    assert!(row.starts_with("6,8,200,dynamic,zipf,full,9600,"));
    let mut client = Client::connect(server.addr).expect("connect");
    let Response::Stats { stats } = client.call(&Request::Stats).unwrap() else {
        panic!("stats failed")
    };
    assert_eq!(stats.total_served, 6 * 8 * 200);
    assert_eq!(stats.total_violations, 0);
    assert_eq!(stats.open_sessions, 0, "rdbp-load must close its sessions");
    server.shutdown();
}

/// Issues a fixed request sequence and returns every response,
/// re-serialized as canonical JSON — the cross-protocol fingerprint.
fn transcript(client: &mut Client) -> Vec<String> {
    let mut out = Vec::new();
    let mut push = |response: &Response| {
        out.push(serde_json::to_string(response).expect("serialize response"));
    };
    push(&client.call(&Request::Ping).unwrap());
    let Response::Created { info } = client
        .call(&Request::Create {
            scenario: Box::new(scenario(42)),
        })
        .unwrap()
    else {
        panic!("create failed")
    };
    push(&Response::Created { info: info.clone() });
    push(
        &client
            .call(&Request::Submit {
                session: info.id,
                work: Work::Generate(200),
            })
            .unwrap(),
    );
    push(&client.call(&Request::Query { session: info.id }).unwrap());
    let snapshot_response = client
        .call(&Request::Snapshot { session: info.id })
        .unwrap();
    push(&snapshot_response);
    let Response::Snapshot { snapshot, .. } = snapshot_response else {
        panic!("snapshot failed")
    };
    let restored = client.call(&Request::Restore { snapshot }).unwrap();
    push(&restored);
    let Response::Created { info: twin } = restored else {
        panic!("restore failed")
    };
    push(&client.call(&Request::Close { session: info.id }).unwrap());
    push(&client.call(&Request::Close { session: twin.id }).unwrap());
    push(&client.call(&Request::Stats).unwrap());
    out
}

/// The differential pin: the same request sequence over NDJSON and
/// over binary frames must produce byte-identical responses once
/// decoded — the two protocols are encodings of one behavior.
#[test]
fn binary_and_ndjson_transcripts_are_identical() {
    let ndjson_server = ServerUnderTest::start("diff-ndjson");
    let binary_server = ServerUnderTest::start("diff-binary");
    let mut ndjson_client = Client::connect_ndjson(ndjson_server.addr).expect("connect ndjson");
    let mut binary_client = Client::connect(binary_server.addr).expect("connect binary");
    let over_ndjson = transcript(&mut ndjson_client);
    let over_binary = transcript(&mut binary_client);
    assert_eq!(
        over_ndjson, over_binary,
        "protocols must be byte-equivalent after decode"
    );
    ndjson_server.shutdown_proto(true);
    binary_server.shutdown();
}

/// Pipelining: many requests sent before any response is read still
/// answer strictly in request order.
#[test]
fn pipelined_requests_answer_in_order() {
    let server = ServerUnderTest::start("pipeline");
    let mut client = Client::connect(server.addr).expect("connect");
    let Response::Created { info } = client
        .call(&Request::Create {
            scenario: Box::new(scenario(9)),
        })
        .unwrap()
    else {
        panic!("create failed")
    };
    // Fire-and-forget a whole conversation, then read it back.
    for _ in 0..3 {
        client
            .send(&Request::Submit {
                session: info.id,
                work: Work::Generate(100),
            })
            .unwrap();
    }
    client.send(&Request::Ping).unwrap();
    client.send(&Request::Query { session: info.id }).unwrap();
    client.send(&Request::Close { session: info.id }).unwrap();
    for i in 0..3u64 {
        let Response::Submitted { summary, .. } = client.recv().unwrap() else {
            panic!("response {i} out of order: expected submitted")
        };
        // `steps` is cumulative, so in-order delivery shows 100/200/300.
        assert_eq!(summary.steps, (i + 1) * 100);
    }
    assert!(matches!(client.recv().unwrap(), Response::Pong));
    let Response::Status { status } = client.recv().unwrap() else {
        panic!("expected status after pong")
    };
    assert_eq!(status.report.steps, 300);
    let Response::Closed { report, .. } = client.recv().unwrap() else {
        panic!("expected closed last")
    };
    assert_eq!(report.steps, 300);
    server.shutdown();
}

/// An oversized declared frame length draws a protocol error and a
/// close — never an allocation of the declared size.
#[test]
fn oversized_binary_frame_is_rejected_and_closed() {
    let server = ServerUnderTest::start("oversized-bin");
    let mut stream = TcpStream::connect(server.addr).expect("connect");
    let mut header = vec![wire::MAGIC, 0x02];
    header.extend_from_slice(&u32::MAX.to_le_bytes());
    stream.write_all(&header).expect("send bad header");
    let (code, payload) = read_frame(&mut stream).expect("error frame before close");
    let Ok(Response::Error { message }) = wire::decode_response(code, &payload) else {
        panic!("expected a decodable error response")
    };
    assert!(message.contains("cap"), "{message}");
    // The stream is desynchronized: the server hangs up after replying.
    assert!(read_frame(&mut stream).is_none(), "connection must close");
    server.shutdown();
}

/// An NDJSON line over the cap draws a protocol error and a close
/// instead of buffering without bound.
#[test]
fn oversized_ndjson_line_is_rejected_and_closed() {
    let server = ServerUnderTest::start("oversized-ndjson");
    let mut stream = TcpStream::connect(server.addr).expect("connect");
    let chunk = vec![b'a'; 64 * 1024];
    let mut sent = 0usize;
    while sent <= MAX_FRAME {
        // The server may hang up mid-send; that's the point.
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
    server.shutdown();
}

/// Garbage inside well-delimited frames answers an in-order error and
/// the connection survives; garbage that desynchronizes the stream
/// closes it after a final error.
#[test]
fn garbage_binary_frames_answer_errors_then_fatal_desync_closes() {
    let server = ServerUnderTest::start("garbage");
    let mut stream = TcpStream::connect(server.addr).expect("connect");

    // Recoverable: unknown opcode in a well-formed frame.
    let mut unknown_op = vec![wire::MAGIC, 0x7E];
    unknown_op.extend_from_slice(&1u32.to_le_bytes());
    unknown_op.push(0x00); // null body
    stream.write_all(&unknown_op).unwrap();
    // Recoverable: known opcode, truncated/garbage payload.
    let mut bad_payload = vec![wire::MAGIC, 0x02];
    bad_payload.extend_from_slice(&1u32.to_le_bytes());
    bad_payload.push(0xFF); // no such value tag
    stream.write_all(&bad_payload).unwrap();
    // Still alive afterwards: a valid ping must answer.
    stream
        .write_all(&wire::encode_request(&Request::Ping))
        .unwrap();

    for expected_error in [true, true, false] {
        let (code, payload) = read_frame(&mut stream).expect("in-order response");
        let response = wire::decode_response(code, &payload).expect("decodable response");
        match (expected_error, response) {
            (true, Response::Error { .. }) | (false, Response::Pong) => {}
            (_, other) => panic!("unexpected response {other:?}"),
        }
    }

    // Fatal: a non-magic byte where a frame must start.
    stream.write_all(&[0x00]).unwrap();
    let (code, payload) = read_frame(&mut stream).expect("final error frame");
    assert!(matches!(
        wire::decode_response(code, &payload),
        Ok(Response::Error { .. })
    ));
    assert!(read_frame(&mut stream).is_none(), "connection must close");
    server.shutdown();
}

/// A client vanishing with requests still in flight must not wedge or
/// poison anything: its work completes (responses discarded) and the
/// server stays fully serviceable.
#[test]
fn abrupt_disconnect_with_requests_in_flight_leaves_server_healthy() {
    let server = ServerUnderTest::start("abrupt");
    let mut client = Client::connect(server.addr).expect("connect");
    let Response::Created { info } = client
        .call(&Request::Create {
            scenario: Box::new(scenario(3)),
        })
        .unwrap()
    else {
        panic!("create failed")
    };
    for _ in 0..3 {
        client
            .send(&Request::Submit {
                session: info.id,
                work: Work::Generate(50_000),
            })
            .unwrap();
    }
    // Hang up without reading a single response.
    drop(client);

    let mut probe = Client::connect(server.addr).expect("reconnect");
    assert!(matches!(
        probe.call(&Request::Ping).unwrap(),
        Response::Pong
    ));
    // The worker shard that owned the orphaned session still serves.
    let Response::Created { info } = probe
        .call(&Request::Create {
            scenario: Box::new(scenario(4)),
        })
        .unwrap()
    else {
        panic!("create after disconnect failed")
    };
    let Response::Submitted { summary, .. } = probe
        .call(&Request::Submit {
            session: info.id,
            work: Work::Generate(100),
        })
        .unwrap()
    else {
        panic!("submit after disconnect failed")
    };
    assert_eq!(summary.steps, 100);
    server.shutdown();
}

/// The reactor scales connections without threads: 1000 idle sessions
/// over 100 open connections leave the server's thread count at
/// reactor + worker pool, nowhere near the connection count.
#[test]
#[cfg(target_os = "linux")]
fn thousand_idle_sessions_without_a_thousand_threads() {
    fn thread_count(pid: u32) -> usize {
        std::fs::read_to_string(format!("/proc/{pid}/status"))
            .expect("read /proc status")
            .lines()
            .find_map(|line| line.strip_prefix("Threads:"))
            .and_then(|v| v.trim().parse().ok())
            .expect("Threads: line")
    }

    let server = ServerUnderTest::start("scale");
    let mut clients = Vec::with_capacity(100);
    let mut session_ids = Vec::with_capacity(1000);
    for c in 0..100u64 {
        let mut client = Client::connect(server.addr).expect("connect");
        for s in 0..10u64 {
            let Response::Created { info } = client
                .call(&Request::Create {
                    scenario: Box::new(scenario(c * 10 + s)),
                })
                .unwrap()
            else {
                panic!("create failed")
            };
            session_ids.push(info.id);
        }
        clients.push(client);
    }
    assert_eq!(session_ids.len(), 1000);

    let mut probe = Client::connect(server.addr).expect("probe connect");
    let Response::Stats { stats } = probe.call(&Request::Stats).unwrap() else {
        panic!("stats failed")
    };
    assert_eq!(stats.open_sessions, 1000);

    let threads = thread_count(server.child.id());
    // 4 workers + the reactor thread, with slack for runtime threads —
    // the old thread-per-connection design would sit at 100+ here.
    assert!(
        threads <= 16,
        "server uses {threads} threads for 100 connections / 1000 sessions"
    );

    // Close everything through the connections that own nothing in
    // particular (sessions are connection-independent).
    for (i, id) in session_ids.iter().enumerate() {
        let slot = i % clients.len();
        let client = &mut clients[slot];
        let Response::Closed { .. } = client.call(&Request::Close { session: *id }).unwrap() else {
            panic!("close failed")
        };
    }
    drop(clients);
    server.shutdown();
}

/// `--proto` pins one protocol: the other protocol's hello is rejected
/// as a framing error instead of being auto-detected.
#[test]
fn pinned_protocol_rejects_the_other_protocol() {
    // A binary-only server treats JSON text as a bad frame magic.
    let binary_server =
        ServerUnderTest::start_with("pin-binary", &["--proto", "binary"], Stdio::inherit());
    let mut stream = TcpStream::connect(binary_server.addr).expect("connect");
    stream.write_all(b"{\"op\":\"ping\"}\n").unwrap();
    let (code, payload) = read_frame(&mut stream).expect("binary error frame");
    let Ok(Response::Error { message }) = wire::decode_response(code, &payload) else {
        panic!("expected a binary-encoded error")
    };
    assert!(message.contains("magic"), "{message}");
    assert!(read_frame(&mut stream).is_none(), "connection must close");
    binary_server.shutdown();

    // An NDJSON-only server answers binary frames with a JSON parse
    // error (newline-terminated so the line ends).
    let ndjson_server =
        ServerUnderTest::start_with("pin-ndjson", &["--proto", "ndjson"], Stdio::inherit());
    let mut stream = TcpStream::connect(ndjson_server.addr).expect("connect");
    let mut hello = wire::encode_request(&Request::Ping);
    hello.push(b'\n');
    stream.write_all(&hello).unwrap();
    let mut reply = [0u8; 4096];
    let n = stream.read(&mut reply).expect("read ndjson error");
    let text = String::from_utf8_lossy(&reply[..n]);
    assert!(text.contains("\"ok\":\"error\""), "got: {text:?}");
    ndjson_server.shutdown_proto(true);
}

/// A submit still running when the shutdown drain expires: the reactor
/// drops its connection unanswered, the worker pool gets one more
/// drain and is then detached, and the server exits cleanly long
/// before the submit could have finished.
#[test]
fn shutdown_drain_deadline_drops_a_busy_connection() {
    let mut server = ServerUnderTest::start_with("drain", &["--drain-ms", "50"], Stdio::piped());
    let mut busy = Client::connect(server.addr).expect("connect");
    // A MAX_SUBMIT-sized submit of online bisection against the
    // greedy-cut adversary at n = 1024 takes ~12 s in a release build
    // and ~3 min in a debug one.
    let slow = Scenario::new(
        InstanceSpec::packed(2, 512),
        AlgorithmSpec::named("bisection"),
        WorkloadSpec::named("greedy-cut"),
        0,
    );
    let Response::Created { info } = busy
        .call(&Request::Create {
            scenario: Box::new(slow),
        })
        .unwrap()
    else {
        panic!("create failed")
    };
    busy.send(&Request::Submit {
        session: info.id,
        work: Work::Generate(MAX_SUBMIT),
    })
    .unwrap();
    // The reactor starts draining only after it has handled every
    // ready event of its poll round, so the submit need only reach the
    // server's socket before the shutdown does; the pause makes sure
    // of that. The log assertions below fail if it ever did not.
    std::thread::sleep(Duration::from_millis(200));

    let mut closer = Client::connect(server.addr).expect("connect for shutdown");
    let asked = Instant::now();
    assert!(matches!(
        closer.call(&Request::Shutdown).unwrap(),
        Response::Bye
    ));
    let status = server.child.wait().expect("wait for server");
    let exited = asked.elapsed();
    assert!(status.success(), "server exited with {status}");
    // Two 50 ms drains plus process exit; the submit needs seconds.
    assert!(
        exited < Duration::from_secs(3),
        "shutdown took {exited:?} with a 50 ms drain"
    );
    let closed = busy.recv();
    assert!(
        closed.is_err(),
        "the busy connection must close without a reply, got {closed:?}"
    );
    let mut log = String::new();
    server
        .child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut log)
        .unwrap();
    assert!(
        log.contains("shutdown drain deadline reached; dropping 1 connection(s)"),
        "{log}"
    );
    assert!(
        log.contains("worker(s) still busy at the 50ms stop deadline"),
        "{log}"
    );
}
