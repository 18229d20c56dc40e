//! The router's client-facing TCP frontend.
//!
//! Speaks exactly what an `rdbp-serve` backend speaks — the
//! length-prefixed binary framing and the NDJSON debug protocol,
//! auto-detected from each connection's first byte — so every existing
//! client (`rdbp-load`, the e2e harnesses, a bare `nc` session) works
//! against a router unchanged. It frames through the backend reactor's
//! own [`Framer`], so the error semantics are the reactor's: a
//! malformed message earns an error reply and the connection
//! continues; a framing violation (bad magic, oversized frame or line)
//! earns a final error reply and the connection closes (the stream is
//! desynchronized).
//!
//! Unlike the backend's epoll reactor, the router frontend is a
//! blocking thread per connection: its work is dominated by backend
//! round trips (which hold per-session route locks anyway), and the
//! handful of client connections a router fronts don't need
//! multiplexing. Requests pipelined on one connection are answered
//! strictly in order.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use rdbp_serve::wire::{Framer, WireError};
use rdbp_serve::{Proto, Request, Response};

use crate::cluster::Cluster;

/// How often a connection thread wakes from a blocking read to check
/// the cluster-wide stop flag.
const READ_TICK: Duration = Duration::from_millis(100);

/// Runs the router frontend on `listener` until a client sends
/// `shutdown` (or [`Cluster::begin_stop`] is called). Does **not**
/// tear the cluster down — callers follow up with
/// [`Cluster::shutdown`].
///
/// # Errors
/// Returns I/O errors from the accept loop's own machinery;
/// per-connection errors only end that connection.
pub fn serve_router(listener: TcpListener, cluster: &Arc<Cluster>, proto: Proto) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let mut workers = Vec::new();
    while !cluster.stopping() {
        match listener.accept() {
            Ok((stream, _)) => {
                let cluster = Arc::clone(cluster);
                let handle = std::thread::Builder::new()
                    .name("rdbp-router-conn".into())
                    .spawn(move || connection_main(stream, &cluster, proto))?;
                workers.push(handle);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
        workers.retain(|handle| !handle.is_finished());
    }
    // Connection threads observe the stop flag within one read tick.
    for handle in workers {
        let _ = handle.join();
    }
    Ok(())
}

fn connection_main(mut stream: TcpStream, cluster: &Arc<Cluster>, proto: Proto) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_TICK));
    let mut framer = Framer::new(proto);
    // Set on EOF, a framing violation or `shutdown`: no further
    // message is read or answered.
    let mut closing = false;
    let mut chunk = [0u8; 16 * 1024];
    while !closing && !cluster.stopping() {
        match stream.read(&mut chunk) {
            Ok(0) => closing = true,
            Ok(n) => framer.push(&chunk[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                continue;
            }
            Err(_) => return,
        }
        while let Some(message) = framer.next_request() {
            let response = match message {
                Ok(Request::Shutdown) => {
                    cluster.begin_stop();
                    closing = true;
                    Response::Bye
                }
                Ok(request) => dispatch(cluster, request),
                Err(WireError::Frame(message)) => Response::Error { message },
                Err(WireError::Fatal(message)) => {
                    closing = true;
                    Response::Error { message }
                }
            };
            if stream
                .write_all(&framer.encode_response(&response))
                .is_err()
            {
                return;
            }
            if closing {
                break;
            }
        }
    }
}

/// Executes one well-formed request against the cluster.
fn dispatch(cluster: &Cluster, request: Request) -> Response {
    let answer = |r: Result<Response, rdbp_serve::ServeError>| {
        r.unwrap_or_else(|e| Response::Error { message: e.0 })
    };
    match request {
        Request::Create { scenario } => answer(
            cluster
                .create(*scenario)
                .map(|info| Response::Created { info }),
        ),
        Request::Submit { session, work } => answer(
            cluster
                .submit(session, &work)
                .map(|summary| Response::Submitted { session, summary }),
        ),
        Request::Query { session } => answer(
            cluster
                .query(session)
                .map(|status| Response::Status { status }),
        ),
        Request::Snapshot { session } => answer(
            cluster
                .snapshot(session)
                .map(|snapshot| Response::Snapshot { session, snapshot }),
        ),
        Request::Restore { snapshot } => answer(
            cluster
                .restore(snapshot)
                .map(|info| Response::Created { info }),
        ),
        Request::Close { session } => answer(
            cluster
                .close(session)
                .map(|report| Response::Closed { session, report }),
        ),
        Request::Stats => Response::Stats {
            stats: cluster.stats(),
        },
        Request::Ping => Response::Pong,
        Request::Hello => Response::Hello {
            hello: cluster.hello(),
        },
        Request::Migrate { session, backend } => answer(
            cluster
                .migrate(session, backend)
                .map(|(from, to)| Response::Migrated { session, from, to }),
        ),
        Request::Lineage { session } => answer(
            cluster
                .lineage(session)
                .map(|lineage| Response::Lineage { lineage }),
        ),
        Request::Cluster => Response::Cluster {
            backends: cluster.cluster_info(),
        },
        // Handled by the caller before dispatch.
        Request::Shutdown => Response::Bye,
    }
}
