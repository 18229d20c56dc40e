//! `rdbp-load` — load generator for `rdbp-serve`.
//!
//! ```text
//! rdbp-load --addr 127.0.0.1:4117 --sessions 8 --batches 40 --batch-size 250
//! rdbp-load --sessions 64 --connections 16 --proto binary
//! ```
//!
//! Drives `N` concurrent sessions from registry workloads: every
//! session is created from the flag-built scenario (per-session seeds
//! mixed with `rdbp_model::split_mix64`, so streams are decoupled),
//! submits `batches × batch-size` requests, and closes. By default
//! each session gets its own connection and thread; `--connections C`
//! multiplexes the sessions over exactly `C` connections instead (one
//! thread each, sessions interleaved batch-by-batch), which is how the
//! scaling experiments hold connection count and session count apart.
//! `--proto` picks the wire protocol (binary frames by default, NDJSON
//! for debugging); the server auto-detects, so both work against one
//! port. The process reports aggregate throughput, per-batch latency
//! percentiles, and total audit violations; the exit code is nonzero
//! if any request failed or any capacity violation was observed —
//! which is exactly what the CI smoke job asserts.
//!
//! Cluster mode: `--router --backends 4` spawns a sibling
//! `rdbp-router` fronting 4 `rdbp-serve` backends on an ephemeral
//! port, aims the load at it, and shuts the whole cluster down when
//! done — the one-command way to drive the scaling experiments.
//! `--ping` skips the load entirely: it sends the `hello` admin op,
//! prints the server's identity (name, version, protocol, workers),
//! and exits 0 iff the server answers sanely — the same health check
//! the router runs before attaching a backend.

use std::net::SocketAddr;
use std::process::exit;
use std::time::Instant;

use rdbp_engine::{AlgorithmSpec, InstanceSpec, Scenario, WorkloadSpec};
use rdbp_model::split_mix64;
use rdbp_serve::{Client, Request, Response, Work};

struct Config {
    addr: String,
    sessions: u64,
    /// Connections to spread the sessions over; 0 = one per session.
    connections: u64,
    /// Speak NDJSON instead of binary frames.
    ndjson: bool,
    batches: u64,
    batch_size: u64,
    servers: u32,
    capacity: u32,
    algorithm: String,
    workload: String,
    epsilon: f64,
    policy: String,
    seed: u64,
    audit: bool,
    shutdown: bool,
    json: bool,
    /// Send `hello` and report the server identity instead of loading.
    ping: bool,
    /// Spawn a sibling `rdbp-router` and aim the load at it.
    router: bool,
    /// Backends for the spawned router (`--router` mode only).
    backends: u64,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:4117".into(),
            sessions: 4,
            connections: 0,
            ndjson: false,
            batches: 20,
            batch_size: 250,
            servers: 4,
            capacity: 16,
            algorithm: "dynamic".into(),
            workload: "uniform".into(),
            epsilon: 0.5,
            policy: "hedge".into(),
            seed: 0,
            audit: true,
            shutdown: false,
            json: false,
            ping: false,
            router: false,
            backends: 2,
        }
    }
}

fn fail(err: impl std::fmt::Display) -> ! {
    eprintln!("rdbp-load: {err}");
    exit(2)
}

fn print_help() {
    println!(
        "rdbp-load — load generator for rdbp-serve\n\n\
         USAGE: rdbp-load [FLAGS]\n\n\
         --addr H:P       server address (default 127.0.0.1:4117)\n\
         --sessions N     concurrent sessions (default 4)\n\
         --connections C  spread the sessions over C connections\n\
         \x20                (default: one connection per session)\n\
         --proto P        wire protocol: binary|ndjson (default binary)\n\
         --batches N      submissions per session (default 20)\n\
         --batch-size N   requests per submission (default 250)\n\
         --servers N      scenario: servers ℓ (default 4)\n\
         --capacity N     scenario: capacity k (default 16)\n\
         --algorithm A    scenario: algorithm key (default dynamic)\n\
         --workload W     scenario: workload key (default uniform)\n\
         --epsilon X      scenario: augmentation slack (default 0.5)\n\
         --policy P       scenario: MTS policy for dynamic (default hedge)\n\
         --seed N         base seed; session i uses split_mix64(seed ^ i) (default 0)\n\
         --no-audit       run sessions without per-step auditing\n\
         --shutdown       send a shutdown request when done\n\
         --json           machine-readable summary on stdout (req/s, cost,\n\
         \x20                violations, failures, latency percentiles)\n\
         --ping           health-check: send `hello`, print the server\n\
         \x20                identity, exit 0 iff it answers (no load)\n\
         --router         spawn a sibling rdbp-router (ephemeral port) and\n\
         \x20                drive it instead of --addr; implies --shutdown\n\
         --backends N     backends for the spawned router (default 2)\n\n\
         Exit code: 0 clean, 1 on violations or request failures, 2 on usage errors."
    );
}

fn parse_args() -> Config {
    let mut cfg = Config::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--help" => {
                print_help();
                exit(0);
            }
            "--no-audit" => cfg.audit = false,
            "--shutdown" => cfg.shutdown = true,
            "--json" => cfg.json = true,
            "--ping" => cfg.ping = true,
            "--router" => cfg.router = true,
            name => {
                let Some(value) = it.next() else {
                    fail(format!("flag {name} needs a value"));
                };
                let bad = || -> ! { fail(format!("invalid value `{value}` for {name}")) };
                match name {
                    "--addr" => cfg.addr = value,
                    "--sessions" => cfg.sessions = value.parse().unwrap_or_else(|_| bad()),
                    "--connections" => cfg.connections = value.parse().unwrap_or_else(|_| bad()),
                    "--proto" => match value.as_str() {
                        "binary" => cfg.ndjson = false,
                        "ndjson" => cfg.ndjson = true,
                        _ => fail(format!("unknown protocol `{value}` (binary|ndjson)")),
                    },
                    "--batches" => cfg.batches = value.parse().unwrap_or_else(|_| bad()),
                    "--batch-size" => cfg.batch_size = value.parse().unwrap_or_else(|_| bad()),
                    "--servers" => cfg.servers = value.parse().unwrap_or_else(|_| bad()),
                    "--capacity" => cfg.capacity = value.parse().unwrap_or_else(|_| bad()),
                    "--algorithm" => cfg.algorithm = value,
                    "--workload" => cfg.workload = value,
                    "--epsilon" => cfg.epsilon = value.parse().unwrap_or_else(|_| bad()),
                    "--policy" => cfg.policy = value,
                    "--seed" => cfg.seed = value.parse().unwrap_or_else(|_| bad()),
                    "--backends" => cfg.backends = value.parse().unwrap_or_else(|_| bad()),
                    other => fail(format!("unknown flag `{other}` (try --help)")),
                }
            }
        }
    }
    if cfg.sessions == 0 || cfg.batches == 0 || cfg.batch_size == 0 {
        fail("sessions, batches and batch-size must be positive");
    }
    cfg
}

fn scenario_for(cfg: &Config, session_index: u64) -> Scenario {
    let mut algorithm = AlgorithmSpec::named(cfg.algorithm.clone());
    algorithm.epsilon = Some(cfg.epsilon);
    algorithm.policy = Some(cfg.policy.clone());
    let workload = WorkloadSpec::named(cfg.workload.clone());
    let mut scenario = Scenario::new(
        InstanceSpec::packed(cfg.servers, cfg.capacity),
        algorithm,
        workload,
        cfg.batches * cfg.batch_size,
    );
    // Decorrelate per-session randomness from one base seed — the same
    // mixing discipline the engine uses for its workload sub-seeds.
    scenario.seed = split_mix64(cfg.seed ^ session_index);
    scenario.audit = if cfg.audit {
        rdbp_engine::AuditSpec::Full
    } else {
        rdbp_engine::AuditSpec::None
    };
    scenario
}

struct SessionOutcome {
    served: u64,
    total_cost: u64,
    violations: u64,
    /// Per-batch round-trip latencies in microseconds.
    latencies_us: Vec<u64>,
}

fn connect_client(cfg: &Config, addr: SocketAddr) -> std::io::Result<Client> {
    if cfg.ndjson {
        Client::connect_ndjson(addr)
    } else {
        Client::connect(addr)
    }
}

/// Spawns a sibling `rdbp-router` fronting `cfg.backends` spawned
/// `rdbp-serve` processes, returning the child and its bound address
/// (via the same `--addr-file` handshake the router uses on its own
/// backends).
fn spawn_router(cfg: &Config) -> (std::process::Child, SocketAddr) {
    let exe = std::env::current_exe()
        .unwrap_or_else(|e| fail(format!("cannot locate current executable: {e}")));
    let bin = exe
        .parent()
        .map(|dir| dir.join("rdbp-router"))
        .filter(|p| p.is_file())
        .unwrap_or_else(|| {
            fail(format!(
                "rdbp-router binary not found next to {} (build the workspace first)",
                exe.display()
            ))
        });
    let addr_file =
        std::env::temp_dir().join(format!("rdbp-load-router-{}.addr", std::process::id()));
    let _ = std::fs::remove_file(&addr_file);
    let mut child = std::process::Command::new(&bin)
        .arg("--port")
        .arg("0")
        .arg("--backends")
        .arg(cfg.backends.to_string())
        .arg("--addr-file")
        .arg(&addr_file)
        .spawn()
        .unwrap_or_else(|e| fail(format!("cannot spawn {}: {e}", bin.display())));
    let deadline = Instant::now() + std::time::Duration::from_secs(15);
    let addr = loop {
        if let Ok(text) = std::fs::read_to_string(&addr_file) {
            let text = text.trim();
            if !text.is_empty() {
                break text
                    .parse()
                    .unwrap_or_else(|_| fail(format!("router wrote a bad address `{text}`")));
            }
        }
        if let Ok(Some(status)) = child.try_wait() {
            fail(format!(
                "router exited ({status}) before writing its address"
            ));
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            fail("spawned router never wrote its address file");
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    };
    let _ = std::fs::remove_file(&addr_file);
    (child, addr)
}

/// The `--ping` health check: `hello` round trip, identity on stdout.
/// Returns the process exit code.
fn ping(cfg: &Config, addr: SocketAddr) -> i32 {
    match connect_client(cfg, addr).and_then(|mut c| c.call(&Request::Hello)) {
        Ok(Response::Hello { hello }) => {
            println!(
                "{} {} proto {} workers {}",
                hello.server, hello.version, hello.proto, hello.workers
            );
            0
        }
        Ok(other) => {
            eprintln!("rdbp-load: unexpected hello reply: {other:?}");
            1
        }
        Err(e) => {
            eprintln!("rdbp-load: ping failed: {e}");
            1
        }
    }
}

/// One session's progress on a shared connection.
enum Slot {
    /// Protocol-level failure; the connection stays usable.
    Failed(String),
    Open {
        id: u64,
        latencies_us: Vec<u64>,
    },
    Done(SessionOutcome),
}

/// Drives every session in `indices` over one connection, interleaving
/// their batches. A connection-level I/O error fails all of them
/// (`Err`); per-session protocol failures are reported individually.
fn drive_connection(
    addr: SocketAddr,
    cfg: &Config,
    indices: &[u64],
) -> Result<Vec<Result<SessionOutcome, String>>, String> {
    let mut client = connect_client(cfg, addr).map_err(|e| e.to_string())?;
    let mut slots: Vec<Slot> = Vec::with_capacity(indices.len());
    for &index in indices {
        let created = client
            .call(&Request::Create {
                scenario: Box::new(scenario_for(cfg, index)),
            })
            .map_err(|e| e.to_string())?;
        slots.push(match created {
            Response::Created { info } => Slot::Open {
                id: info.id,
                latencies_us: Vec::with_capacity(cfg.batches as usize),
            },
            other => Slot::Failed(format!("session {index}: create failed: {other:?}")),
        });
    }
    for _ in 0..cfg.batches {
        for (slot, &index) in slots.iter_mut().zip(indices) {
            let Slot::Open { id, latencies_us } = slot else {
                continue;
            };
            let start = Instant::now();
            let response = client
                .call(&Request::Submit {
                    session: *id,
                    work: Work::Generate(cfg.batch_size),
                })
                .map_err(|e| e.to_string())?;
            let elapsed = start.elapsed();
            match response {
                Response::Submitted { .. } => {
                    latencies_us.push(u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX));
                }
                other => *slot = Slot::Failed(format!("session {index}: submit failed: {other:?}")),
            }
        }
    }
    for (slot, &index) in slots.iter_mut().zip(indices) {
        let Slot::Open { id, latencies_us } = slot else {
            continue;
        };
        let closed = client
            .call(&Request::Close { session: *id })
            .map_err(|e| e.to_string())?;
        *slot = match closed {
            Response::Closed { report, .. } => Slot::Done(SessionOutcome {
                served: report.steps,
                total_cost: report.ledger.total(),
                violations: report.capacity_violations,
                latencies_us: std::mem::take(latencies_us),
            }),
            other => Slot::Failed(format!("session {index}: close failed: {other:?}")),
        };
    }
    Ok(slots
        .into_iter()
        .map(|slot| match slot {
            Slot::Done(outcome) => Ok(outcome),
            Slot::Failed(message) => Err(message),
            Slot::Open { .. } => unreachable!("every open session was closed above"),
        })
        .collect())
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn main() {
    let mut cfg = parse_args();
    let mut router = None;
    if cfg.router {
        let (child, addr) = spawn_router(&cfg);
        cfg.addr = addr.to_string();
        // A spawned cluster is ours to tear down.
        cfg.shutdown = true;
        router = Some(child);
    }
    let addr: SocketAddr = cfg
        .addr
        .parse()
        .unwrap_or_else(|_| fail(format!("invalid address `{}`", cfg.addr)));

    if cfg.ping {
        let code = ping(&cfg, addr);
        if cfg.shutdown {
            let _ = connect_client(&cfg, addr).and_then(|mut c| c.call(&Request::Shutdown));
        }
        if let Some(mut child) = router {
            let _ = child.wait();
        }
        exit(code);
    }

    // Round-robin the session indices over the connections (every
    // connection gets its own driver thread).
    let connection_count = match cfg.connections {
        0 => cfg.sessions,
        c => c.min(cfg.sessions),
    };
    let mut assignments: Vec<Vec<u64>> = vec![Vec::new(); connection_count as usize];
    for index in 0..cfg.sessions {
        assignments[(index % connection_count) as usize].push(index);
    }

    let start = Instant::now();
    let outcomes: Vec<Result<SessionOutcome, String>> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = assignments
            .iter()
            .map(|indices| {
                let cfg = &cfg;
                scope.spawn(move |_| match drive_connection(addr, cfg, indices) {
                    Ok(results) => results,
                    // The whole connection died: every session on it
                    // reports the failure.
                    Err(e) => indices
                        .iter()
                        .map(|i| Err(format!("session {i}: connection failed: {e}")))
                        .collect(),
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    })
    .unwrap_or_else(|_| fail("a connection thread panicked"));
    let wall = start.elapsed();

    let mut served = 0u64;
    let mut cost = 0u64;
    let mut violations = 0u64;
    let mut failures = 0u64;
    let mut latencies: Vec<u64> = Vec::new();
    for outcome in &outcomes {
        match outcome {
            Ok(o) => {
                served += o.served;
                cost += o.total_cost;
                violations += o.violations;
                latencies.extend_from_slice(&o.latencies_us);
            }
            Err(e) => {
                eprintln!("rdbp-load: {e}");
                failures += 1;
            }
        }
    }
    latencies.sort_unstable();
    let secs = wall.as_secs_f64();
    let throughput = if secs > 0.0 {
        served as f64 / secs
    } else {
        0.0
    };
    let (p50, p95, p99) = (
        percentile(&latencies, 50.0),
        percentile(&latencies, 95.0),
        percentile(&latencies, 99.0),
    );

    if cfg.shutdown {
        match connect_client(&cfg, addr).and_then(|mut c| c.call(&Request::Shutdown)) {
            Ok(Response::Bye) => {}
            Ok(other) => eprintln!("rdbp-load: unexpected shutdown reply: {other:?}"),
            Err(e) => eprintln!("rdbp-load: shutdown failed: {e}"),
        }
    }
    if let Some(mut child) = router {
        // The router tears its spawned backends down before exiting.
        let _ = child.wait();
    }

    if cfg.json {
        println!(
            "{{\"sessions\":{},\"served\":{served},\"seconds\":{secs:.3},\
             \"req_per_sec\":{throughput:.1},\"total_cost\":{cost},\
             \"violations\":{violations},\"failures\":{failures},\
             \"latency_us\":{{\"p50\":{p50},\"p95\":{p95},\"p99\":{p99}}}}}",
            cfg.sessions
        );
    } else {
        println!(
            "{} sessions × {} batches × {} requests ({} against {}; {} connection(s), {})",
            cfg.sessions,
            cfg.batches,
            cfg.batch_size,
            cfg.workload,
            cfg.algorithm,
            connection_count,
            if cfg.ndjson { "ndjson" } else { "binary" },
        );
        println!("served {served} requests in {secs:.3}s → {throughput:.0} req/s");
        println!("batch latency µs: p50={p50} p95={p95} p99={p99}");
        println!("total cost {cost}, violations {violations}, failures {failures}");
    }

    if violations > 0 || failures > 0 {
        exit(1);
    }
}
