//! One `rdbp-serve` backend as the router sees it.
//!
//! A [`Backend`] is either **spawned** (the router launches the
//! `rdbp-serve` binary with `--port 0 --addr-file` and reads the bound
//! address back — the same handshake the CI smoke jobs use) or
//! **attached** (an already-running server's address is handed to the
//! router). Either way the router health-checks it with the `hello`
//! admin op before trusting it: the backend must identify as an
//! `rdbp-serve` speaking the same [`PROTO_VERSION`] — a blind TCP
//! connect to the wrong process or an incompatible build is refused at
//! attach time instead of corrupting sessions later.
//!
//! Each backend carries a small pool of persistent binary-protocol
//! [`Client`] connections. A session's operations always use the
//! connection `session % pool`, so per-session ordering is preserved
//! (one connection = one FIFO on the backend reactor) while different
//! sessions fan out across the pool. A separate **monitor** connection
//! with a short read timeout serves the liveness pings — a wedged
//! backend stalls a ping, not an operation path.

use std::io;
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use rdbp_serve::{Client, Request, Response, ServeError, PROTO_VERSION};

/// How long a liveness ping may take before the backend is presumed
/// dead.
pub const PING_TIMEOUT: Duration = Duration::from_millis(500);

/// Operation connections kept per backend; a session's ops use
/// connection `session % POOL`.
pub(crate) const POOL: usize = 4;

/// How long to wait for a spawned `rdbp-serve` to write its
/// `--addr-file`.
const SPAWN_DEADLINE: Duration = Duration::from_secs(10);

/// One `rdbp-serve` process the router routes sessions to.
pub struct Backend {
    /// Router-assigned id (stable for the router's lifetime).
    pub id: u64,
    /// The backend's listen address.
    pub addr: SocketAddr,
    /// The spawned process (None when attached).
    child: Mutex<Option<Child>>,
    /// OS pid when spawned, 0 when attached.
    pub pid: u64,
    /// Persistent operation connections, pinned by `session % pool`.
    pool: Vec<Mutex<Client>>,
    /// The liveness-ping connection (short read timeout).
    monitor: Mutex<Client>,
    alive: AtomicBool,
    /// Sessions currently routed here (maintained by the cluster).
    pub sessions: AtomicU64,
}

impl Backend {
    /// Spawns `serve_bin` on an ephemeral port and attaches to it via
    /// the `--addr-file` handshake.
    ///
    /// # Errors
    /// Returns a [`ServeError`] if the process cannot start, never
    /// writes its address, or fails the `hello` health check.
    pub fn spawn(id: u64, serve_bin: &Path, workers: usize) -> Result<Self, ServeError> {
        let addr_file = std::env::temp_dir().join(format!(
            "rdbp-backend-{}-{id}-{:x}.addr",
            std::process::id(),
            spawn_nonce()
        ));
        let _ = std::fs::remove_file(&addr_file);
        let mut child = Command::new(serve_bin)
            .arg("--port")
            .arg("0")
            .arg("--workers")
            .arg(workers.to_string())
            .arg("--addr-file")
            .arg(&addr_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| ServeError(format!("cannot spawn {}: {e}", serve_bin.display())))?;
        let addr = match wait_for_addr(&addr_file, &mut child) {
            Ok(addr) => addr,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = std::fs::remove_file(&addr_file);
                return Err(e);
            }
        };
        let _ = std::fs::remove_file(&addr_file);
        let pid = u64::from(child.id());
        match Self::attach_inner(id, addr, Some(child)) {
            Ok(mut backend) => {
                backend.pid = pid;
                Ok(backend)
            }
            Err(e) => Err(e),
        }
    }

    /// Attaches to an already-running `rdbp-serve` at `addr` (the
    /// backend outlives the router; shutdown leaves it alone).
    ///
    /// # Errors
    /// Returns a [`ServeError`] if the address is unreachable or the
    /// `hello` health check fails.
    pub fn attach(id: u64, addr: SocketAddr) -> Result<Self, ServeError> {
        Self::attach_inner(id, addr, None)
    }

    fn attach_inner(id: u64, addr: SocketAddr, child: Option<Child>) -> Result<Self, ServeError> {
        let cleanup = |mut child: Option<Child>| {
            if let Some(child) = child.as_mut() {
                let _ = child.kill();
                let _ = child.wait();
            }
        };
        let mut monitor = match Client::connect(addr) {
            Ok(client) => client,
            Err(e) => {
                cleanup(child);
                return Err(ServeError(format!("backend {id} at {addr}: connect: {e}")));
            }
        };
        let _ = monitor.set_read_timeout(Some(PING_TIMEOUT));
        if let Err(e) = health_check(&mut monitor, id) {
            cleanup(child);
            return Err(e);
        }
        let mut conns = Vec::with_capacity(POOL);
        for _ in 0..POOL {
            match Client::connect(addr) {
                Ok(client) => conns.push(Mutex::new(client)),
                Err(e) => {
                    cleanup(child);
                    return Err(ServeError(format!("backend {id} at {addr}: connect: {e}")));
                }
            }
        }
        Ok(Self {
            id,
            addr,
            child: Mutex::new(child),
            pid: 0,
            pool: conns,
            monitor: Mutex::new(monitor),
            alive: AtomicBool::new(true),
            sessions: AtomicU64::new(0),
        })
    }

    /// Whether the router currently considers this backend live.
    pub fn alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    /// Marks the backend dead; its sessions fail over on next touch or
    /// on the maintenance sweep. Returns whether this call did the
    /// marking (false if it was already dead).
    pub fn mark_dead(&self) -> bool {
        self.alive.swap(false, Ordering::AcqRel)
    }

    /// Sends one request on the session-pinned connection and reads its
    /// response.
    ///
    /// # Errors
    /// Returns the I/O error of a broken/unreachable backend — the
    /// caller's signal to mark it dead and fail the session over.
    pub fn call(&self, session_hint: u64, request: &Request) -> io::Result<Response> {
        let idx = (session_hint % self.pool.len() as u64) as usize;
        self.pool[idx].lock().call(request)
    }

    /// Liveness probe on the monitor connection (bounded by
    /// [`PING_TIMEOUT`]).
    pub fn ping(&self) -> bool {
        matches!(self.monitor.lock().call(&Request::Ping), Ok(Response::Pong))
    }

    /// Whether this backend was spawned by the router (vs attached).
    pub fn spawned(&self) -> bool {
        self.pid != 0
    }

    /// Stops a spawned backend: asks it to shut down over the wire,
    /// waits briefly, then kills it. Attached backends are left
    /// running.
    pub fn shutdown(&self) {
        let mut guard = self.child.lock();
        let Some(child) = guard.as_mut() else {
            return;
        };
        if self.alive() {
            let _ = self.monitor.lock().send(&Request::Shutdown);
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break;
                }
            }
        }
        *guard = None;
    }
}

impl Drop for Backend {
    fn drop(&mut self) {
        // Never leak a spawned process: if `shutdown` was skipped
        // (panic, early error path), kill it outright.
        if let Some(child) = self.child.get_mut().as_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The `hello` handshake: the peer must be an `rdbp-serve` speaking
/// our protocol version.
fn health_check(client: &mut Client, id: u64) -> Result<(), ServeError> {
    match client.call(&Request::Hello) {
        Ok(Response::Hello { hello }) => {
            if hello.proto != PROTO_VERSION {
                return Err(ServeError(format!(
                    "backend {id}: protocol version {} (router speaks {PROTO_VERSION})",
                    hello.proto
                )));
            }
            if hello.server != "rdbp-serve" {
                return Err(ServeError(format!(
                    "backend {id}: `{}` is not an rdbp-serve backend",
                    hello.server
                )));
            }
            Ok(())
        }
        Ok(other) => Err(ServeError(format!(
            "backend {id}: unexpected hello reply {other:?}"
        ))),
        Err(e) => Err(ServeError(format!("backend {id}: hello failed: {e}"))),
    }
}

fn wait_for_addr(path: &Path, child: &mut Child) -> Result<SocketAddr, ServeError> {
    let deadline = Instant::now() + SPAWN_DEADLINE;
    loop {
        if let Ok(text) = std::fs::read_to_string(path) {
            let text = text.trim();
            if !text.is_empty() {
                return text.parse().map_err(|_| {
                    ServeError(format!("spawned backend wrote a bad address `{text}`"))
                });
            }
        }
        if let Ok(Some(status)) = child.try_wait() {
            return Err(ServeError(format!(
                "spawned backend exited ({status}) before writing its address"
            )));
        }
        if Instant::now() >= deadline {
            return Err(ServeError(
                "spawned backend never wrote its address file".into(),
            ));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A cheap per-call nonce for temp-file names (uniqueness within one
/// process is what matters; the pid handles cross-process collisions).
fn spawn_nonce() -> u64 {
    static NONCE: AtomicU64 = AtomicU64::new(1);
    NONCE.fetch_add(1, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;
    use std::thread::JoinHandle;

    use rdbp_serve::wire::Framer;
    use rdbp_serve::{Proto, ServerHello};

    /// A loopback stub that accepts one connection, answers its `hello`
    /// with `hello`, and hangs up.
    fn stub(hello: ServerHello) -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("stub address");
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept the router");
            let mut framer = Framer::new(Proto::Binary);
            let mut chunk = [0u8; 1024];
            let request = loop {
                if let Some(request) = framer.next_request() {
                    break request.expect("a well-formed request");
                }
                let n = stream.read(&mut chunk).expect("read the request");
                framer.push(&chunk[..n]);
            };
            assert!(matches!(request, Request::Hello), "{request:?}");
            let reply = framer.encode_response(&Response::Hello { hello });
            stream.write_all(&reply).expect("answer hello");
        });
        (addr, handle)
    }

    fn attach_error(server: &str, proto: u64) -> String {
        let (addr, stub) = stub(ServerHello {
            server: server.into(),
            version: "0.0.0".into(),
            proto,
            workers: 1,
        });
        let refused = Backend::attach(3, addr).err();
        stub.join().expect("stub thread");
        refused.expect("the backend must be refused").0
    }

    #[test]
    fn attach_refuses_another_protocol_version() {
        let message = attach_error("rdbp-serve", 2);
        assert!(
            message.contains(&format!(
                "backend 3: protocol version 2 (router speaks {PROTO_VERSION})"
            )),
            "{message}"
        );
    }

    #[test]
    fn attach_refuses_a_peer_that_is_not_rdbp_serve() {
        let message = attach_error("other", PROTO_VERSION);
        assert!(
            message.contains("`other` is not an rdbp-serve backend"),
            "{message}"
        );
    }
}
