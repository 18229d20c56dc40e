//! The TCP front end: a nonblocking readiness-based reactor.
//!
//! One reactor thread owns every connection. Sockets are nonblocking
//! and registered on a vendored [`mio`]-style epoll [`Poll`]; the
//! reactor multiplexes thousands of idle connections without a thread
//! apiece (the server's thread count is the reactor plus the
//! [`SessionManager`]'s fixed worker pool, independent of connection
//! count). Each connection speaks either wire protocol:
//!
//! * **binary** ([`crate::wire`]) — length-prefixed frames, the
//!   production default;
//! * **NDJSON** ([`crate::proto`]) — newline-delimited JSON, kept as
//!   the debuggable fallback.
//!
//! In [`Proto::Auto`] mode (the default) the protocol is detected from
//! a connection's first byte: [`crate::wire::MAGIC`] is never a valid
//! first byte of JSON text, so binary clients and `nc`-style NDJSON
//! clients share one port. Each connection parses and encodes through
//! a [`Framer`], as do the [`Client`] and the router frontend, so all
//! three apply one set of framing rules.
//!
//! **Pipelining.** Clients may send many requests without waiting;
//! parsed requests queue per connection and responses return strictly
//! in request order. At most one request per connection occupies the
//! worker pool at a time — worker ops complete back to the reactor via
//! a channel plus a [`Waker`] — so per-session FIFO ordering is
//! preserved while different connections' requests run in parallel
//! across the pool's shards.
//!
//! **Robustness.** Frames and NDJSON lines are capped at
//! [`MAX_FRAME`]: an oversized request draws a protocol error and
//! closes that connection instead of growing buffers without bound.
//! Malformed frames and JSON lines draw an in-order error response and
//! the connection continues. A broken peer (abrupt disconnect,
//! mid-write EPIPE) ends only its own connection — in-flight worker
//! ops complete normally and their responses are discarded.
//!
//! **Shutdown.** A `shutdown` request answers `bye`, stops the accept
//! loop, and drains: live connections get a grace period to finish
//! their in-flight op and flush, then the reactor logs and drops any
//! stragglers, asks the worker pool to stop ([`SessionManager::stop`] —
//! no exclusive-ownership teardown, so a lingering completion callback
//! can never turn shutdown into a panic), and returns.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Sender};
use mio::{Events, Interest, Poll, Token, Waker};

use crate::manager::SessionManager;
use crate::proto::{Request, Response, ServerHello, PROTO_VERSION};
use crate::wire::{Framer, Proto, WireError, HEADER_LEN, MAX_FRAME};

const LISTENER: Token = Token(0);
const WAKER: Token = Token(1);
/// First token handed to a connection (0/1 are reserved above).
const FIRST_CONN: usize = 2;

/// Read at most this much ahead of the parser per readiness round; the
/// remainder stays in the kernel buffer and re-triggers (the poll is
/// level-triggered), so one greedy peer cannot balloon the input
/// buffer.
const READ_SOFT_CAP: usize = MAX_FRAME + HEADER_LEN;

/// Parsed-but-unstarted requests one connection may queue. Beyond
/// this, the reactor stops reading from it until the queue drains
/// (backpressure instead of unbounded growth).
const PIPELINE_MAX: usize = 1024;

/// Default grace period for live connections to finish in-flight work
/// after a `shutdown` request before they are dropped (see
/// [`ServerConfig::shutdown_drain`]).
pub const DEFAULT_SHUTDOWN_DRAIN: Duration = Duration::from_secs(5);

/// Tunables for one [`serve_config`] run. The drains used to be buried
/// magic constants; they are knobs now so tests can exercise the
/// timeout paths and operators can size them to their workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Which wire protocol(s) to accept.
    pub proto: Proto,
    /// Grace period for live connections to finish in-flight work and
    /// flush after a `shutdown` request, before they are dropped.
    pub shutdown_drain: Duration,
    /// Deadline handed to [`SessionManager::stop_with_deadline`] when
    /// the reactor exits: how long to wait for busy workers before
    /// logging the sessions still live and detaching.
    pub stop_drain: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            proto: Proto::Auto,
            shutdown_drain: DEFAULT_SHUTDOWN_DRAIN,
            stop_drain: DEFAULT_SHUTDOWN_DRAIN,
        }
    }
}

/// A unit of work queued on one connection, in request order.
enum Job {
    /// A parsed request to execute.
    Op(Request),
    /// A pre-computed response (parse error); connection stays usable.
    Respond(Response),
    /// A pre-computed response after which the connection closes
    /// (fatal framing error: the stream can no longer be trusted).
    RespondClose(Response),
}

/// What starting a request produced.
enum Started {
    /// Answer available immediately (no worker involved).
    Inline(Response),
    /// Dispatched to the worker pool; the completion callback answers.
    InFlight,
    /// The request was `shutdown`: answer `bye` and stop the server.
    Shutdown,
}

struct Connection {
    stream: TcpStream,
    framer: Framer,
    outbuf: Vec<u8>,
    /// Prefix of `outbuf` already written to the socket.
    written: usize,
    /// Parsed requests not yet started, in arrival order.
    pending: VecDeque<Job>,
    /// Whether one request is currently in flight on a worker.
    busy: bool,
    /// No further input is read; close once `outbuf` and the in-flight
    /// op drain.
    closing: bool,
    /// What the socket is currently registered for (`None` while
    /// waiting on a worker completion alone).
    registered: Option<Interest>,
}

impl Connection {
    fn new(stream: TcpStream, proto: Proto) -> Self {
        Self {
            stream,
            framer: Framer::new(proto),
            outbuf: Vec::new(),
            written: 0,
            pending: VecDeque::new(),
            busy: false,
            closing: false,
            registered: Some(Interest::READABLE),
        }
    }

    fn has_output(&self) -> bool {
        self.written < self.outbuf.len()
    }

    /// Serializes `response` onto the output buffer in this
    /// connection's protocol.
    fn push_response(&mut self, response: &Response) {
        self.outbuf
            .extend_from_slice(&self.framer.encode_response(response));
    }

    /// Reads whatever the socket has (up to the soft cap), then parses
    /// complete messages into `pending`. Returns `false` if the
    /// connection died.
    fn fill(&mut self) -> bool {
        let mut chunk = [0u8; 16 * 1024];
        while !self.closing
            && self.framer.buffered() < READ_SOFT_CAP
            && self.pending.len() < PIPELINE_MAX
        {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    // Peer finished sending; answer what was queued,
                    // then close.
                    self.closing = true;
                    break;
                }
                Ok(n) => self.framer.push(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        self.parse();
        true
    }

    /// Queues every complete message as a job: requests become ops, a
    /// malformed message its error response, and a framing violation a
    /// final error-then-close job.
    fn parse(&mut self) {
        while let Some(message) = self.framer.next_request() {
            match message {
                Ok(request) => self.pending.push_back(Job::Op(request)),
                Err(WireError::Frame(message)) => self
                    .pending
                    .push_back(Job::Respond(Response::Error { message })),
                Err(WireError::Fatal(message)) => {
                    self.pending
                        .push_back(Job::RespondClose(Response::Error { message }));
                    self.closing = true;
                    return;
                }
            }
        }
    }

    /// Writes buffered output until the socket blocks. Returns `false`
    /// if the connection died (e.g. broken pipe): the caller drops
    /// only this connection — the worker pool is untouched.
    fn flush(&mut self) -> bool {
        while self.has_output() {
            match self.stream.write(&self.outbuf[self.written..]) {
                Ok(0) => return false,
                Ok(n) => self.written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        if !self.has_output() {
            self.outbuf.clear();
            self.written = 0;
        }
        true
    }

    /// The registration this connection's state calls for right now.
    fn wanted(&self) -> Option<Interest> {
        let wants_read = !self.closing
            && self.pending.len() < PIPELINE_MAX
            && self.framer.buffered() < READ_SOFT_CAP;
        match (wants_read, self.has_output()) {
            (true, true) => Some(Interest::READABLE.add(Interest::WRITABLE)),
            (true, false) => Some(Interest::READABLE),
            (false, true) => Some(Interest::WRITABLE),
            // Waiting only on a worker completion (delivered via the
            // waker): no socket events wanted.
            (false, false) => None,
        }
    }

    /// Fully drained and finished?
    fn done(&self) -> bool {
        self.closing && !self.busy && !self.has_output() && self.pending.is_empty()
    }
}

/// Runs the server on `listener` (accepting both protocols,
/// auto-detected) until a client sends `shutdown`.
///
/// # Errors
/// Returns any I/O error from the reactor's own machinery (accept
/// loop, poll); per-connection errors only end that connection.
pub fn serve(listener: TcpListener, manager: SessionManager) -> io::Result<()> {
    serve_config(listener, manager, ServerConfig::default())
}

/// [`serve`], with every tunable exposed.
///
/// # Errors
/// Returns any I/O error from the reactor's own machinery (accept
/// loop, poll); per-connection errors only end that connection.
pub fn serve_config(
    listener: TcpListener,
    manager: SessionManager,
    config: ServerConfig,
) -> io::Result<()> {
    let proto = config.proto;
    listener.set_nonblocking(true)?;
    let manager = Arc::new(manager);
    let mut poll = Poll::new()?;
    let waker = Arc::new(Waker::new(&poll, WAKER)?);
    poll.register(&listener, LISTENER, Interest::READABLE)?;
    let (done_tx, done_rx) = unbounded::<(usize, Response)>();

    let mut events = Events::with_capacity(1024);
    let mut conns: HashMap<usize, Connection> = HashMap::new();
    let mut next_token = FIRST_CONN;
    let mut drain_deadline: Option<Instant> = None;

    let result = 'reactor: loop {
        let timeout =
            drain_deadline.map(|deadline| deadline.saturating_duration_since(Instant::now()));
        if let Err(e) = poll.poll(&mut events, timeout) {
            break Err(e);
        }

        let mut shutdown_requested = false;

        for event in events.iter() {
            match event.token() {
                LISTENER => {
                    if let Err(e) = accept_all(
                        &listener,
                        &mut conns,
                        &mut next_token,
                        &poll,
                        proto,
                        drain_deadline.is_some(),
                    ) {
                        break 'reactor Err(e);
                    }
                }
                WAKER => waker.drain(),
                Token(t) => {
                    // The connection may already be gone (removed
                    // earlier in this batch).
                    let Some(conn) = conns.get_mut(&t) else {
                        continue;
                    };
                    let alive = if event.is_readable() {
                        conn.fill()
                    } else {
                        true
                    };
                    let keep = alive && {
                        shutdown_requested |= pump(conn, t, &manager, &done_tx, &waker);
                        settle(&poll, t, conn)
                    };
                    if !keep {
                        conns.remove(&t);
                    }
                }
            }
        }

        // Worker completions (signalled through the waker, but drained
        // every pass): each frees its connection to answer and start
        // its next queued request.
        while let Ok((t, response)) = done_rx.try_recv() {
            // A vanished connection simply discards its response.
            let Some(conn) = conns.get_mut(&t) else {
                continue;
            };
            conn.busy = false;
            conn.push_response(&response);
            shutdown_requested |= pump(conn, t, &manager, &done_tx, &waker);
            if !settle(&poll, t, conn) {
                conns.remove(&t);
            }
        }

        if shutdown_requested && drain_deadline.is_none() {
            drain_deadline = Some(Instant::now() + config.shutdown_drain);
            let _ = poll.deregister(&listener);
            // Every connection stops reading; in-flight ops and queued
            // output get the grace period to finish.
            let stale: Vec<usize> = conns
                .iter_mut()
                .filter_map(|(&t, conn)| {
                    conn.closing = true;
                    conn.pending.clear();
                    (!settle(&poll, t, conn)).then_some(t)
                })
                .collect();
            for t in stale {
                conns.remove(&t);
            }
        }

        if let Some(deadline) = drain_deadline {
            if conns.is_empty() {
                break Ok(());
            }
            if Instant::now() >= deadline {
                eprintln!(
                    "rdbp-serve: shutdown drain deadline reached; dropping {} connection(s)",
                    conns.len()
                );
                break Ok(());
            }
        }
    };

    // Close any remaining sockets, then stop the worker pool. Workers
    // drain their queues; straggler completions land in `done_rx` and
    // are dropped with it. A worker still busy at the deadline is
    // logged (with the sessions it strands) and detached rather than
    // wedging the exit path forever.
    drop(conns);
    manager.stop_with_deadline(config.stop_drain);
    result
}

/// Accepts until the listener would block. Transient per-connection
/// failures skip that connection; only listener-level errors return.
fn accept_all(
    listener: &TcpListener,
    conns: &mut HashMap<usize, Connection>,
    next_token: &mut usize,
    poll: &Poll,
    proto: Proto,
    draining: bool,
) -> io::Result<()> {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if draining {
                    continue; // dropped: the server is shutting down
                }
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                if let Err(e) = stream.set_nodelay(true) {
                    // Best-effort latency knob: keep the connection,
                    // but surface the refusal instead of hiding it.
                    eprintln!("rdbp-serve: set_nodelay failed on a new connection: {e}");
                }
                let token = *next_token;
                *next_token += 1;
                let conn = Connection::new(stream, proto);
                if poll
                    .register(&conn.stream, Token(token), Interest::READABLE)
                    .is_ok()
                {
                    conns.insert(token, conn);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::Interrupted | io::ErrorKind::ConnectionAborted
                ) => {}
            Err(e) => return Err(e),
        }
    }
}

/// Starts queued jobs until one is in flight (or the queue is empty).
/// Returns whether a `shutdown` request was processed.
fn pump(
    conn: &mut Connection,
    token: usize,
    manager: &Arc<SessionManager>,
    done_tx: &Sender<(usize, Response)>,
    waker: &Arc<Waker>,
) -> bool {
    let mut shutdown = false;
    while !conn.busy {
        let Some(job) = conn.pending.pop_front() else {
            break;
        };
        match job {
            Job::Respond(response) => conn.push_response(&response),
            Job::RespondClose(response) => {
                conn.push_response(&response);
                conn.closing = true;
                conn.pending.clear();
            }
            Job::Op(request) => {
                let tx = done_tx.clone();
                let wake = Arc::clone(waker);
                let done = move |response: Response| {
                    let _ = tx.send((token, response));
                    let _ = wake.wake();
                };
                match start_op(manager, request, done) {
                    Started::Inline(response) => conn.push_response(&response),
                    Started::InFlight => conn.busy = true,
                    Started::Shutdown => {
                        conn.push_response(&Response::Bye);
                        conn.closing = true;
                        conn.pending.clear();
                        shutdown = true;
                    }
                }
            }
        }
    }
    shutdown
}

/// Flushes and (re)registers a connection to match its state. Returns
/// `false` when the connection is finished or broken and must go.
fn settle(poll: &Poll, token: usize, conn: &mut Connection) -> bool {
    if !conn.flush() {
        return false;
    }
    if conn.done() {
        return false;
    }
    let want = conn.wanted();
    if want != conn.registered {
        let applied = match (conn.registered, want) {
            (Some(_), Some(interest)) => poll.reregister(&conn.stream, Token(token), interest),
            (None, Some(interest)) => poll.register(&conn.stream, Token(token), interest),
            (Some(_), None) => poll.deregister(&conn.stream),
            (None, None) => Ok(()),
        };
        if applied.is_err() {
            return false;
        }
        conn.registered = want;
    }
    true
}

/// Maps one request onto the manager's async API (or answers inline).
fn start_op(
    manager: &Arc<SessionManager>,
    request: Request,
    done: impl FnOnce(Response) + Send + 'static,
) -> Started {
    match request {
        Request::Create { scenario } => {
            manager.create_async(*scenario, move |r| {
                done(match r {
                    Ok(info) => Response::Created { info },
                    Err(e) => Response::Error { message: e.0 },
                });
            });
            Started::InFlight
        }
        Request::Submit { session, work } => {
            manager.submit_async(session, work, move |r| {
                done(match r {
                    Ok(summary) => Response::Submitted { session, summary },
                    Err(e) => Response::Error { message: e.0 },
                });
            });
            Started::InFlight
        }
        Request::Query { session } => {
            manager.query_async(session, move |r| {
                done(match r {
                    Ok(status) => Response::Status { status },
                    Err(e) => Response::Error { message: e.0 },
                });
            });
            Started::InFlight
        }
        Request::Snapshot { session } => {
            manager.snapshot_async(session, move |r| {
                done(match r {
                    Ok(snapshot) => Response::Snapshot { session, snapshot },
                    Err(e) => Response::Error { message: e.0 },
                });
            });
            Started::InFlight
        }
        Request::Restore { snapshot } => {
            manager.restore_async(snapshot, move |r| {
                done(match r {
                    Ok(info) => Response::Created { info },
                    Err(e) => Response::Error { message: e.0 },
                });
            });
            Started::InFlight
        }
        Request::Close { session } => {
            manager.close_async(session, move |r| {
                done(match r {
                    Ok(report) => Response::Closed { session, report },
                    Err(e) => Response::Error { message: e.0 },
                });
            });
            Started::InFlight
        }
        Request::Stats => Started::Inline(Response::Stats {
            stats: manager.stats(),
        }),
        Request::Ping => Started::Inline(Response::Pong),
        Request::Hello => Started::Inline(Response::Hello {
            hello: ServerHello {
                server: "rdbp-serve".into(),
                version: env!("CARGO_PKG_VERSION").into(),
                proto: PROTO_VERSION,
                workers: manager.workers() as u64,
            },
        }),
        // Cluster admin ops: answered by rdbp-router, refused here with
        // the established error shape so misdirected clients learn what
        // they connected to instead of hanging.
        Request::Migrate { .. } => Started::Inline(not_a_router("migrate")),
        Request::Lineage { .. } => Started::Inline(not_a_router("lineage")),
        Request::Cluster => Started::Inline(not_a_router("cluster")),
        Request::Shutdown => Started::Shutdown,
    }
}

fn not_a_router(op: &str) -> Response {
    Response::Error {
        message: format!("op `{op}` requires a router; this server is a plain rdbp-serve backend"),
    }
}

/// A blocking protocol client over one TCP connection — what
/// `rdbp-load` and the end-to-end tests drive the server with.
/// Defaults to the binary protocol; [`Client::connect_ndjson`] selects
/// the NDJSON fallback. [`Client::send`]/[`Client::recv`] are split so
/// callers can pipeline several requests before reading responses.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    framer: Framer,
}

impl Client {
    /// Connects to a running server, speaking the binary protocol.
    ///
    /// # Errors
    /// Returns any underlying I/O error.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        Self::connect_proto(addr, Proto::Binary)
    }

    /// Connects to a running server, speaking NDJSON.
    ///
    /// # Errors
    /// Returns any underlying I/O error.
    pub fn connect_ndjson(addr: SocketAddr) -> io::Result<Self> {
        Self::connect_proto(addr, Proto::Ndjson)
    }

    fn connect_proto(addr: SocketAddr, proto: Proto) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        if let Err(e) = stream.set_nodelay(true) {
            eprintln!("rdbp client: set_nodelay failed: {e}");
        }
        Ok(Self {
            stream,
            framer: Framer::new(proto),
        })
    }

    /// Bounds every subsequent [`Client::recv`] (`None` = block
    /// forever, the default). A timed-out `recv` returns
    /// [`io::ErrorKind::WouldBlock`]/[`io::ErrorKind::TimedOut`] —
    /// how a router's monitor detects a backend that stopped answering
    /// pings without committing its own thread forever.
    ///
    /// # Errors
    /// Returns any underlying socket error.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Sends one request without waiting for its response.
    ///
    /// # Errors
    /// Returns an I/O error on a broken connection.
    pub fn send(&mut self, request: &Request) -> io::Result<()> {
        self.stream.write_all(&self.framer.encode_request(request))
    }

    /// Reads the next response, in request order.
    ///
    /// # Errors
    /// Returns an I/O error on a broken connection or a protocol error
    /// on an unparseable (or oversized) response.
    pub fn recv(&mut self) -> io::Result<Response> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some(response) = self.framer.next_response() {
                return response
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()));
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(n) => self.framer.push(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Sends one request and reads its response.
    ///
    /// # Errors
    /// Returns an I/O error on a broken connection or a protocol error
    /// on an unparseable response.
    pub fn call(&mut self, request: &Request) -> io::Result<Response> {
        self.send(request)?;
        self.recv()
    }
}
