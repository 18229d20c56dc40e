//! `rdbp-serve` — the partition-session server.
//!
//! ```text
//! rdbp-serve --port 4117 --workers 4
//! rdbp-serve --port 0 --addr-file /tmp/rdbp.addr   # ephemeral port for scripts
//! rdbp-serve --proto ndjson                        # debug: NDJSON only
//! ```
//!
//! Binds a loopback TCP listener and runs the nonblocking reactor
//! (`rdbp_serve::server`) until a client sends a shutdown request.
//! By default both wire protocols are accepted, auto-detected from
//! each connection's first byte: the length-prefixed binary framing
//! (`rdbp_serve::wire`) and the NDJSON debug protocol
//! (`rdbp_serve::proto`). `--proto ndjson|binary` pins one of them.
//! With `--addr-file PATH` the actual bound address is written to
//! `PATH` once the listener is live — the handshake the CI smoke job
//! and the end-to-end tests use with `--port 0`.

use std::net::TcpListener;
use std::process::exit;
use std::time::Duration;

use rdbp_engine::Registries;
use rdbp_serve::server::serve_config;
use rdbp_serve::{Proto, ServerConfig, SessionManager};

fn fail(err: impl std::fmt::Display) -> ! {
    eprintln!("rdbp-serve: {err}");
    exit(2)
}

fn main() {
    let mut port: u16 = 4117;
    let mut workers: usize = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
        .clamp(1, 8);
    let mut addr_file: Option<String> = None;
    let mut proto = Proto::Auto;
    let mut config = ServerConfig::default();

    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--help" => {
                println!(
                    "rdbp-serve — concurrent partition-session server\n\n\
                     USAGE: rdbp-serve [FLAGS]\n\n\
                     --port N       loopback TCP port; 0 = ephemeral (default 4117)\n\
                     --workers N    session worker threads (default: cores, capped at 8)\n\
                     --proto P      wire protocol: auto|ndjson|binary (default auto)\n\
                     --addr-file F  write the bound host:port to F once listening\n\
                     --drain-ms N   shutdown grace period for connections and\n\
                                    busy workers, in milliseconds (default 5000)"
                );
                exit(0);
            }
            "--port" | "--workers" | "--proto" | "--addr-file" | "--drain-ms" => {
                let Some(value) = it.next() else {
                    fail(format!("flag {flag} needs a value"));
                };
                match flag.as_str() {
                    "--port" => {
                        port = value
                            .parse()
                            .unwrap_or_else(|_| fail(format!("invalid port `{value}`")));
                    }
                    "--workers" => {
                        workers = value
                            .parse()
                            .unwrap_or_else(|_| fail(format!("invalid worker count `{value}`")));
                        if workers == 0 {
                            fail("need at least one worker");
                        }
                    }
                    "--proto" => proto = value.parse().unwrap_or_else(|e| fail(e)),
                    "--drain-ms" => {
                        let ms: u64 = value
                            .parse()
                            .unwrap_or_else(|_| fail(format!("invalid drain `{value}`")));
                        config.drain = Duration::from_millis(ms);
                    }
                    _ => addr_file = Some(value),
                }
            }
            other => fail(format!("unknown flag `{other}` (try --help)")),
        }
    }

    let listener = TcpListener::bind(("127.0.0.1", port))
        .unwrap_or_else(|e| fail(format!("cannot bind 127.0.0.1:{port}: {e}")));
    let addr = listener
        .local_addr()
        .unwrap_or_else(|e| fail(format!("cannot read bound address: {e}")));
    if let Some(path) = &addr_file {
        std::fs::write(path, format!("{addr}\n"))
            .unwrap_or_else(|e| fail(format!("cannot write {path}: {e}")));
    }
    eprintln!("rdbp-serve: listening on {addr} ({workers} workers, proto {proto:?})");

    let manager = SessionManager::new(workers, Registries::builtin());
    config.proto = proto;
    if let Err(e) = serve_config(listener, manager, config) {
        fail(e);
    }
    eprintln!("rdbp-serve: clean shutdown");
}
