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
//!
//! Nothing here sleeps or polls on a timer. The accept loop blocks in
//! `accept`, and connection threads block in their reads;
//! [`Cluster::begin_stop`] connects to the listener and shuts every
//! connection for reading, so a stop wakes all of them at once.

use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;

use rdbp_serve::wire::{Framer, WireError};
use rdbp_serve::{Proto, Request, Response};

use crate::cluster::Cluster;

/// Runs the router frontend on `listener` until a client sends
/// `shutdown` (or [`Cluster::begin_stop`] is called). Does **not**
/// tear the cluster down — callers follow up with
/// [`Cluster::shutdown`].
///
/// # Errors
/// Returns I/O errors from the accept loop's own machinery;
/// per-connection errors only end that connection.
pub fn serve_router(listener: TcpListener, cluster: &Arc<Cluster>, proto: Proto) -> io::Result<()> {
    listener.set_nonblocking(false)?;
    // A stop wakes the blocked accept with a connection of its own.
    let wake = reachable(listener.local_addr()?);
    let Some(_on_stop) = cluster.on_stop(move || {
        let _ = TcpStream::connect(wake);
    }) else {
        return Ok(());
    };
    let mut workers = Vec::new();
    loop {
        let accepted = listener.accept();
        if cluster.stopping() {
            break;
        }
        match accepted {
            Ok((stream, _)) => {
                let cluster = Arc::clone(cluster);
                let handle = std::thread::Builder::new()
                    .name("rdbp-router-conn".into())
                    .spawn(move || connection_main(stream, &cluster, proto))?;
                workers.push(handle);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
        workers.retain(|handle| !handle.is_finished());
    }
    // The stop woke every connection thread too.
    for handle in workers {
        let _ = handle.join();
    }
    Ok(())
}

/// The address this host connects to to reach a listener bound to
/// `addr`: loopback in place of an unspecified address.
fn reachable(addr: SocketAddr) -> SocketAddr {
    let ip = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, addr.port())
}

fn connection_main(mut stream: TcpStream, cluster: &Arc<Cluster>, proto: Proto) {
    let _ = stream.set_nodelay(true);
    // A stop shuts the connection for reading, which ends a blocked
    // read; a reply being written still goes out. A connection that
    // cannot be watched, or that opens after the stop, closes at once.
    let Ok(watched) = stream.try_clone() else {
        return;
    };
    let Some(_on_stop) = cluster.on_stop(move || {
        let _ = watched.shutdown(Shutdown::Read);
    }) else {
        return;
    };
    let mut framer = Framer::new(proto);
    // Set on EOF, a framing violation or `shutdown`: no further
    // message is read or answered.
    let mut closing = false;
    let mut chunk = [0u8; 16 * 1024];
    while !closing && !cluster.stopping() {
        match stream.read(&mut chunk) {
            Ok(0) => closing = true,
            Ok(n) => framer.push(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
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
