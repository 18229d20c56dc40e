//! Booting in-process servers and clusters, and the wire calls the
//! closed-loop client makes through `rdbp_serve::Client`.

use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::thread::JoinHandle;

use rdbp_cluster::{serve_router, Cluster, ClusterConfig};
use rdbp_engine::{Registries, Scenario};
use rdbp_model::{Edge, RunReport};
use rdbp_serve::{
    serve, BatchSummary, Client, Proto, Request, Response, SessionManager, SessionStatus, Work,
};

use crate::inputs::Topology;

type ServerThread = JoinHandle<std::io::Result<()>>;

/// A running topology: the address clients connect to, and what must
/// be torn down afterwards.
pub struct Target {
    /// Where clients connect (the router, or the single backend).
    pub addr: SocketAddr,
    cluster: Option<(Arc<Cluster>, ServerThread)>,
    backends: Vec<(SocketAddr, ServerThread)>,
}

impl Target {
    /// Boots `topology` in process on loopback: the backends'
    /// `serve` reactors, then (for a router topology) a quiescent
    /// `Cluster` attached to them and its `serve_router` frontend.
    ///
    /// # Errors
    /// Returns a description of any bind or cluster-start failure.
    pub fn boot(topology: Topology) -> Result<Self, String> {
        let mut backends = Vec::with_capacity(topology.backends);
        for _ in 0..topology.backends {
            let listener = bind()?;
            let addr = listener.local_addr().map_err(|e| e.to_string())?;
            let manager = SessionManager::new(topology.workers, Registries::builtin());
            backends.push((addr, std::thread::spawn(move || serve(listener, manager))));
        }
        if !topology.router {
            assert_eq!(topology.backends, 1, "a direct topology has one backend");
            return Ok(Self {
                addr: backends[0].0,
                cluster: None,
                backends,
            });
        }
        let mut config = ClusterConfig::quiescent();
        config.attach = backends.iter().map(|(addr, _)| *addr).collect();
        // Nothing is spawned (`spawn` is 0); naming a binary only skips
        // the search for a sibling `rdbp-serve` executable.
        config.serve_bin = Some("rdbp-serve".into());
        let cluster = Cluster::start(&config).map_err(|e| e.0)?;
        let listener = bind()?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let frontend = {
            let cluster = Arc::clone(&cluster);
            std::thread::spawn(move || serve_router(listener, &cluster, Proto::Auto))
        };
        Ok(Self {
            addr,
            cluster: Some((cluster, frontend)),
            backends,
        })
    }

    /// The router's shared state, for direct in-process calls.
    #[must_use]
    pub fn cluster(&self) -> Option<&Arc<Cluster>> {
        self.cluster.as_ref().map(|(cluster, _)| cluster)
    }

    /// Shuts everything down in order and joins every thread.
    ///
    /// # Errors
    /// Returns a description of the first shutdown failure.
    pub fn shutdown(self) -> Result<(), String> {
        let mut first_error = None;
        let mut note = |r: Result<(), String>| {
            if let Err(e) = r {
                first_error.get_or_insert(e);
            }
        };
        if let Some((cluster, frontend)) = self.cluster {
            note(say_bye(self.addr));
            note(join(frontend));
            cluster.shutdown();
        }
        for (addr, handle) in self.backends {
            note(say_bye(addr));
            note(join(handle));
        }
        first_error.map_or(Ok(()), Err)
    }
}

fn bind() -> Result<TcpListener, String> {
    TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind loopback: {e}"))
}

fn join(handle: ServerThread) -> Result<(), String> {
    match handle.join() {
        Ok(Ok(())) => Ok(()),
        Ok(Err(e)) => Err(format!("server exited with {e}")),
        Err(_) => Err("server thread panicked".into()),
    }
}

fn say_bye(addr: SocketAddr) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect for shutdown: {e}"))?;
    match call(&mut client, &Request::Shutdown)? {
        Response::Bye => Ok(()),
        other => Err(format!("expected bye, got {other:?}")),
    }
}

/// Connects a binary-protocol client.
///
/// # Errors
/// Returns a description of the connect failure.
pub fn connect(addr: SocketAddr) -> Result<Client, String> {
    Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))
}

/// One round trip; I/O failures and `error` replies become `Err`.
///
/// # Errors
/// Returns the I/O error or the server's error message.
pub fn call(client: &mut Client, request: &Request) -> Result<Response, String> {
    match client.call(request) {
        Ok(Response::Error { message }) => Err(message),
        Ok(response) => Ok(response),
        Err(e) => Err(format!("i/o: {e}")),
    }
}

/// A submit of `edges` to session 0; [`set_session`] retargets it.
#[must_use]
pub fn submit_request(edges: &[Edge]) -> Request {
    Request::Submit {
        session: 0,
        work: Work::Replay(edges.to_vec()),
    }
}

/// Points a pre-built submit at `session`.
pub fn set_session(request: &mut Request, id: u64) {
    if let Request::Submit { session, .. } = request {
        *session = id;
    }
}

/// Creates a session from `scenario`; returns its id.
///
/// # Errors
/// Returns the failure or an unexpected reply.
pub fn create(client: &mut Client, scenario: &Scenario) -> Result<u64, String> {
    let request = Request::Create {
        scenario: Box::new(scenario.clone()),
    };
    match call(client, &request)? {
        Response::Created { info } => Ok(info.id),
        other => Err(format!("expected created, got {other:?}")),
    }
}

/// Sends a pre-built submit.
///
/// # Errors
/// Returns the failure or an unexpected reply.
pub fn submit(client: &mut Client, request: &Request) -> Result<BatchSummary, String> {
    match call(client, request)? {
        Response::Submitted { summary, .. } => Ok(summary),
        other => Err(format!("expected submitted, got {other:?}")),
    }
}

/// Live-migrates a session through the router (`migrate` op, least
/// loaded other backend).
///
/// # Errors
/// Returns the failure or an unexpected reply.
pub fn migrate(client: &mut Client, session: u64) -> Result<(), String> {
    let request = Request::Migrate {
        session,
        backend: None,
    };
    match call(client, &request)? {
        Response::Migrated { .. } => Ok(()),
        other => Err(format!("expected migrated, got {other:?}")),
    }
}

/// Reads a session's report and counters.
///
/// # Errors
/// Returns the failure or an unexpected reply.
pub fn query(client: &mut Client, session: u64) -> Result<SessionStatus, String> {
    match call(client, &Request::Query { session })? {
        Response::Status { status } => Ok(status),
        other => Err(format!("expected status, got {other:?}")),
    }
}

/// Closes a session; returns its final report.
///
/// # Errors
/// Returns the failure or an unexpected reply.
pub fn close(client: &mut Client, session: u64) -> Result<RunReport, String> {
    match call(client, &Request::Close { session })? {
        Response::Closed { report, .. } => Ok(report),
        other => Err(format!("expected closed, got {other:?}")),
    }
}
