//! `rdbp-router` — the cluster frontend.
//!
//! ```text
//! rdbp-router --port 4118 --backends 3             # spawn 3 rdbp-serve children
//! rdbp-router --attach 127.0.0.1:4117              # front an existing server
//! rdbp-router --backends 2 --attach 127.0.0.1:4117 # mix spawned + attached
//! ```
//!
//! Clients speak to the router exactly as they would to a single
//! `rdbp-serve` (both wire protocols, auto-detected); the router
//! spreads sessions across the backends, live-migrates them to keep
//! load balanced, and fails them over from retained restore points
//! when a backend dies. See DESIGN.md §12 for the architecture.

use std::net::TcpListener;
use std::process::exit;
use std::time::Duration;

use rdbp_cluster::{serve_router, Cluster, ClusterConfig};
use rdbp_serve::Proto;

fn fail(err: impl std::fmt::Display) -> ! {
    eprintln!("rdbp-router: {err}");
    exit(2)
}

fn main() {
    let mut port: u16 = 4118;
    let mut addr_file: Option<String> = None;
    let mut proto = Proto::Auto;
    let mut config = ClusterConfig::default();

    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--help" => {
                println!(
                    "rdbp-router — cluster frontend over N rdbp-serve backends\n\n\
                     USAGE: rdbp-router [FLAGS]\n\n\
                     --port N          loopback TCP port; 0 = ephemeral (default 4118)\n\
                     --backends N      rdbp-serve processes to spawn (default 0)\n\
                     --attach ADDR     attach an already-running backend (repeatable)\n\
                     --workers N       worker threads per spawned backend (default 2)\n\
                     --proto P         client protocol: auto|ndjson|binary (default auto)\n\
                     --addr-file F     write the bound host:port to F once listening\n\
                     --serve-bin PATH  rdbp-serve binary to spawn (default: sibling\n\
                     \x20                 of this executable)\n\
                     --ping-ms N       liveness-ping cadence; 0 disables (default 250)\n\
                     --snapshot-ms N   background snapshot cadence; 0 disables\n\
                     \x20                 (default 500)\n\
                     --rebalance-ms N  rebalance-check cadence; 0 disables (default\n\
                     \x20                 1000); a check migrates one session when the\n\
                     \x20                 fullest and emptiest live backends differ by\n\
                     \x20                 2 or more sessions"
                );
                exit(0);
            }
            "--port" | "--backends" | "--attach" | "--workers" | "--proto" | "--addr-file"
            | "--serve-bin" | "--ping-ms" | "--snapshot-ms" | "--rebalance-ms" => {
                let Some(value) = it.next() else {
                    fail(format!("flag {flag} needs a value"));
                };
                let cadence = |v: &str| -> Option<Duration> {
                    let ms: u64 = v
                        .parse()
                        .unwrap_or_else(|_| fail(format!("invalid interval `{v}`")));
                    (ms > 0).then(|| Duration::from_millis(ms))
                };
                match flag.as_str() {
                    "--port" => {
                        port = value
                            .parse()
                            .unwrap_or_else(|_| fail(format!("invalid port `{value}`")));
                    }
                    "--backends" => {
                        config.spawn = value
                            .parse()
                            .unwrap_or_else(|_| fail(format!("invalid backend count `{value}`")));
                    }
                    "--attach" => {
                        config.attach.push(
                            value
                                .parse()
                                .unwrap_or_else(|_| fail(format!("invalid address `{value}`"))),
                        );
                    }
                    "--workers" => {
                        config.workers_per_backend = value
                            .parse()
                            .unwrap_or_else(|_| fail(format!("invalid worker count `{value}`")));
                        if config.workers_per_backend == 0 {
                            fail("need at least one worker per backend");
                        }
                    }
                    "--proto" => proto = value.parse().unwrap_or_else(|e| fail(e)),
                    "--addr-file" => addr_file = Some(value),
                    "--serve-bin" => config.serve_bin = Some(value.into()),
                    "--ping-ms" => config.ping_interval = cadence(&value),
                    "--snapshot-ms" => config.snapshot_interval = cadence(&value),
                    "--rebalance-ms" => config.rebalance_interval = cadence(&value),
                    _ => unreachable!(),
                }
            }
            other => fail(format!("unknown flag `{other}` (try --help)")),
        }
    }

    if config.spawn == 0 && config.attach.is_empty() {
        fail("no backends: pass --backends N and/or --attach ADDR (try --help)");
    }

    let cluster = Cluster::start(&config).unwrap_or_else(|e| fail(e));
    let listener = TcpListener::bind(("127.0.0.1", port))
        .unwrap_or_else(|e| fail(format!("cannot bind 127.0.0.1:{port}: {e}")));
    let addr = listener
        .local_addr()
        .unwrap_or_else(|e| fail(format!("cannot read bound address: {e}")));
    if let Some(path) = &addr_file {
        std::fs::write(path, format!("{addr}\n"))
            .unwrap_or_else(|e| fail(format!("cannot write {path}: {e}")));
    }
    eprintln!(
        "rdbp-router: listening on {addr} ({} backend(s), proto {proto:?})",
        cluster.backends()
    );

    if let Err(e) = serve_router(listener, &cluster, proto) {
        cluster.shutdown();
        fail(e);
    }
    cluster.shutdown();
    eprintln!("rdbp-router: clean shutdown");
}
