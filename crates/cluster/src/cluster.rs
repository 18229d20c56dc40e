//! The cluster state machine: routing table, live migration, crash
//! failover, and the rebalancing policy loop.
//!
//! ## Routing
//!
//! The router assigns its own session ids and maps each to a
//! `(backend, remote id)` pair. Every session op locks that session's
//! route entry for the duration of the backend round trip, which gives
//! three properties at once: per-session FIFO ordering end to end, a
//! natural **quiesce point** for migration (the migrating thread holds
//! the lock, concurrent/pipelined ops for the session block and then
//! transparently continue against the new backend), and a single place
//! to detect a dead backend and repair the route before retrying.
//!
//! ## Migration
//!
//! A migration moves the session's snapshot as the [`SnapshotBlob`] the
//! source backend sent: the router keeps its bytes as the retained
//! restore point, forwards them to the target, and never decodes them.
//!
//! The router keeps routes, not counters. A snapshot carries the
//! session's work counters, and a restored session reports them plus
//! its own, so `query` passes the backend's counters through: a session
//! that migrated five times answers exactly what a never-migrated twin
//! would.
//!
//! ## Failover and the lost-requests contract
//!
//! The router retains a restore point for every session: what it was
//! last handed that reopens the session. That is the create request's
//! scenario (the session at step 0) until the session's first
//! snapshot, and from then on the latest snapshot, as opaque bytes (a
//! client `restore`'s own blob, then every migration's, every
//! client-requested snapshot and every maintenance refresh). So
//! opening a session costs one backend call. When a backend dies — an
//! op hits an I/O error, or the monitor ping times out — its sessions
//! are reopened from their restore points on the least-loaded
//! survivors; a session reopened from its scenario is snapshotted
//! once there, and that snapshot becomes its restore point. Requests
//! acknowledged after the restore point are **lost** (the session
//! rewinds to it); the router counts them and reports `replayed from
//! snapshot N, lost K` through the `lineage` op rather than hiding the
//! gap. Sessions whose algorithm cannot snapshot (the `static`
//! partitioner) fail that first snapshot: the copy is closed and the
//! session is reported lost explicitly on its next op.
//!
//! ## Rebalancing
//!
//! A maintenance tick compares per-backend session counts; when the
//! spread reaches the configured gap, one session migrates from the
//! hottest backend to the least loaded — the online-balanced-
//! repartitioning decision rule (greedy least-loaded placement,
//! threshold-triggered), applied at the systems layer.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};

use rdbp_engine::Scenario;
use rdbp_model::RunReport;
use rdbp_serve::{
    BackendSummary, BatchSummary, ManagerStats, Request, Response, ServeError, ServerHello,
    SessionInfo, SessionLineage, SessionStatus, SnapshotBlob, Work, PROTO_VERSION,
};

use crate::backend::Backend;
use crate::stop::{OnStop, Stop};

/// How a [`Cluster`] is assembled and how its maintenance loop runs.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// `rdbp-serve` processes to spawn.
    pub spawn: usize,
    /// Path to the `rdbp-serve` binary for spawning (`None` = the
    /// sibling of the current executable). Not looked up when `spawn`
    /// is 0.
    pub serve_bin: Option<PathBuf>,
    /// Already-running backends to attach to.
    pub attach: Vec<SocketAddr>,
    /// `--workers` for each spawned backend.
    pub workers_per_backend: usize,
    /// Liveness-ping cadence (`None` disables pings; deaths are then
    /// detected by op I/O errors only).
    pub ping_interval: Option<Duration>,
    /// Background snapshot-refresh cadence (`None` disables; restore
    /// points then only update on restore/migrate/client snapshot).
    pub snapshot_interval: Option<Duration>,
    /// Rebalance-check cadence (`None` disables rebalancing).
    pub rebalance_interval: Option<Duration>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            spawn: 0,
            serve_bin: None,
            attach: Vec::new(),
            workers_per_backend: 2,
            ping_interval: Some(Duration::from_millis(250)),
            snapshot_interval: Some(Duration::from_millis(500)),
            rebalance_interval: Some(Duration::from_secs(1)),
        }
    }
}

impl ClusterConfig {
    /// A config with all background maintenance disabled — what the
    /// deterministic bench/perf-gate paths use, so no background
    /// snapshot or rebalance ever lands between measured operations.
    #[must_use]
    pub fn quiescent() -> Self {
        Self {
            ping_interval: None,
            snapshot_interval: None,
            rebalance_interval: None,
            ..Self::default()
        }
    }
}

/// Minimum session-count spread between the hottest and coldest
/// backend before a rebalance migration triggers.
const REBALANCE_GAP: u64 = 2;

/// How often the maintenance loop wakes to check its cadences.
const MAINTENANCE_TICK: Duration = Duration::from_millis(10);

/// A session's retained restore point: what the router was last handed
/// that reopens the session, kept so a failover can send it again.
enum Retained {
    /// The create request's scenario: the session at step 0.
    Scenario(Box<Scenario>),
    /// A snapshot blob, and the session's steps when it was taken.
    Snapshot { blob: SnapshotBlob, steps: u64 },
}

impl Retained {
    /// The session's steps at this restore point.
    fn steps(&self) -> u64 {
        match self {
            Self::Scenario(_) => 0,
            Self::Snapshot { steps, .. } => *steps,
        }
    }

    /// The request that reopens the session at this restore point.
    fn reopen(&self) -> Request {
        match self {
            Self::Scenario(scenario) => Request::Create {
                scenario: scenario.clone(),
            },
            Self::Snapshot { blob, .. } => Request::Restore {
                snapshot: blob.clone(),
            },
        }
    }
}

/// One session's routing entry. Locked for the duration of every op —
/// see the module docs for why.
struct RouteState {
    backend: usize,
    remote: u64,
    retained: Retained,
    /// The session's steps as its backend last reported them: when it
    /// opened there, and after each acknowledged submit.
    acked_steps: u64,
    /// Cumulative violations at the last acknowledgment (for the
    /// router-level aggregate's delta accounting).
    last_violations: u64,
    migrations: u64,
    failovers: u64,
    lost_requests: u64,
    /// Set when the session is unrecoverable; every subsequent op
    /// answers this error.
    lost: Option<String>,
}

type Route = Arc<Mutex<RouteState>>;

/// What opening a session on one backend came to.
enum Opened {
    Created(SessionInfo),
    /// The backend answered, but not with a session.
    Refused(String),
    /// The call failed; the backend is marked dead.
    Died(std::io::Error),
}

/// The router's shared state: backends, routing table, aggregate stats.
pub struct Cluster {
    backends: Vec<Arc<Backend>>,
    routes: RwLock<HashMap<u64, Route>>,
    next_id: AtomicU64,
    created: AtomicU64,
    served: AtomicU64,
    violations: AtomicU64,
    stop: Stop,
    maintenance: Mutex<Option<JoinHandle<()>>>,
}

impl Cluster {
    /// Assembles the cluster: spawns/attaches every backend (each
    /// health-checked via `hello`), then starts the maintenance thread
    /// if any cadence is configured.
    ///
    /// # Errors
    /// Returns a [`ServeError`] if no backend is configured, a spawn
    /// fails, or any health check fails — partial clusters are torn
    /// down rather than limping.
    pub fn start(config: &ClusterConfig) -> Result<Arc<Self>, ServeError> {
        if config.spawn == 0 && config.attach.is_empty() {
            return Err(ServeError("cluster needs at least one backend".into()));
        }
        let mut backends = Vec::new();
        if config.spawn > 0 {
            let serve_bin = match &config.serve_bin {
                Some(path) => path.clone(),
                None => sibling_serve_bin()?,
            };
            for i in 0..config.spawn {
                backends.push(Arc::new(Backend::spawn(
                    i as u64,
                    &serve_bin,
                    config.workers_per_backend,
                )?));
            }
        }
        for (i, &addr) in config.attach.iter().enumerate() {
            backends.push(Arc::new(Backend::attach((config.spawn + i) as u64, addr)?));
        }
        let cluster = Arc::new(Self {
            backends,
            routes: RwLock::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            created: AtomicU64::new(0),
            served: AtomicU64::new(0),
            violations: AtomicU64::new(0),
            stop: Stop::default(),
            maintenance: Mutex::new(None),
        });
        let cadences = [
            config.ping_interval,
            config.snapshot_interval,
            config.rebalance_interval,
        ];
        if cadences.iter().any(Option::is_some) {
            let state = Arc::clone(&cluster);
            let cfg = config.clone();
            let handle = std::thread::Builder::new()
                .name("rdbp-router-maint".into())
                .spawn(move || maintenance_main(&state, &cfg))
                .map_err(|e| ServeError(format!("cannot spawn maintenance thread: {e}")))?;
            *cluster.maintenance.lock() = Some(handle);
        }
        Ok(cluster)
    }

    /// Number of attached/spawned backends.
    #[must_use]
    pub fn backends(&self) -> usize {
        self.backends.len()
    }

    /// The router's self-description for the `hello` op.
    #[must_use]
    pub fn hello(&self) -> ServerHello {
        ServerHello {
            server: "rdbp-router".into(),
            version: env!("CARGO_PKG_VERSION").into(),
            proto: PROTO_VERSION,
            workers: self.backends.len() as u64,
        }
    }

    /// Whether shutdown has been requested.
    #[must_use]
    pub fn stopping(&self) -> bool {
        self.stop.requested()
    }

    /// Requests shutdown and wakes, at once, the maintenance loop, the
    /// frontend's accept loop and every connection waiting for a
    /// request; each winds down.
    pub fn begin_stop(&self) {
        self.stop.request();
    }

    /// Runs `wake` when [`Cluster::begin_stop`] is called, for as long
    /// as the returned guard lives; `None` if it was called already.
    /// How the maintenance loop and the frontend unblock their waits.
    pub(crate) fn on_stop(&self, wake: impl Fn() + Send + 'static) -> Option<OnStop<'_>> {
        self.stop.on_request(wake)
    }

    /// Full teardown: stops maintenance, then shuts every *spawned*
    /// backend down over the wire (attached backends keep running).
    pub fn shutdown(&self) {
        self.begin_stop();
        if let Some(handle) = self.maintenance.lock().take() {
            let _ = handle.join();
        }
        for backend in &self.backends {
            if backend.spawned() {
                backend.shutdown();
            }
        }
    }

    // --- placement ---------------------------------------------------

    /// The alive backend with the fewest sessions, excluding `exclude`.
    fn least_loaded(&self, exclude: Option<usize>) -> Result<usize, ServeError> {
        self.backends
            .iter()
            .enumerate()
            .filter(|(i, b)| Some(*i) != exclude && b.alive())
            .min_by_key(|(_, b)| b.sessions.load(Ordering::Relaxed))
            .map(|(i, _)| i)
            .ok_or_else(|| ServeError("no live backends".into()))
    }

    fn move_session_count(&self, from: usize, to: usize) {
        self.backends[from].sessions.fetch_sub(1, Ordering::Relaxed);
        self.backends[to].sessions.fetch_add(1, Ordering::Relaxed);
    }

    // --- backend round trips ------------------------------------------

    /// One backend round trip for a routed session, with transparent
    /// failover: a dead backend (marked, or discovered via the I/O
    /// error) triggers [`Cluster::failover_locked`] and the op retries
    /// against the repaired route.
    fn roundtrip(
        &self,
        id: u64,
        state: &mut RouteState,
        make: impl Fn(u64) -> Request,
    ) -> Result<Response, ServeError> {
        if let Some(msg) = &state.lost {
            return Err(ServeError(msg.clone()));
        }
        // Bounded by the backend count: each failed attempt kills one
        // backend, and failover errors out once none are left.
        for _ in 0..=self.backends.len() {
            let backend = &self.backends[state.backend];
            if !backend.alive() {
                self.failover_locked(id, state)?;
                continue;
            }
            match backend.call(id, &make(state.remote)) {
                Ok(response) => return Ok(response),
                Err(e) => {
                    self.report_death(state.backend, &e);
                    self.failover_locked(id, state)?;
                }
            }
        }
        Err(ServeError("no live backends".into()))
    }

    fn report_death(&self, backend: usize, err: &dyn std::fmt::Display) {
        if self.backends[backend].mark_dead() {
            eprintln!(
                "rdbp-router: backend {backend} ({}) died: {err}",
                self.backends[backend].addr
            );
        }
    }

    /// Reopens the session from its restore point on a surviving
    /// backend. A session reopened from its scenario is snapshotted
    /// there once: the snapshot becomes its restore point, and a
    /// session that cannot snapshot is lost, as it would have no
    /// restore point past step 0. Caller holds the route lock.
    fn failover_locked(&self, id: u64, state: &mut RouteState) -> Result<(), ServeError> {
        let dead = state.backend;
        // Reopening may need several placement attempts if survivors
        // keep dying under us.
        let request = state.retained.reopen();
        for _ in 0..self.backends.len() {
            let target = self.least_loaded(Some(dead))?;
            let info = match self.open_on(target, id, &request) {
                Opened::Created(info) => info,
                Opened::Refused(message) => {
                    return Err(self.lose(
                        state,
                        format!("session {id} lost: failover restore refused: {message}"),
                    ));
                }
                Opened::Died(_) => continue,
            };
            if let Retained::Scenario(_) = state.retained {
                let copy = &self.backends[target];
                match copy.call(id, &Request::Snapshot { session: info.id }) {
                    Ok(Response::Snapshot { snapshot, .. }) => {
                        state.retained = Retained::Snapshot {
                            blob: snapshot,
                            steps: info.steps,
                        };
                    }
                    Ok(_) => {
                        if let Err(e) = copy.call(id, &Request::Close { session: info.id }) {
                            self.report_death(target, &e);
                        }
                        return Err(self.lose(
                            state,
                            format!(
                                "session {id} lost: backend {dead} died and the session's \
                                 algorithm does not support snapshot/restore"
                            ),
                        ));
                    }
                    Err(e) => {
                        self.report_death(target, &e);
                        continue;
                    }
                }
            }
            let from = state.retained.steps();
            let lost = state.acked_steps.saturating_sub(from);
            if lost > 0 {
                eprintln!(
                    "rdbp-router: session {id} replayed from snapshot at step {from} on \
                     backend {target}; {lost} acknowledged request(s) lost"
                );
            }
            state.lost_requests += lost;
            state.acked_steps = info.steps;
            state.failovers += 1;
            self.move_session_count(dead, target);
            state.backend = target;
            state.remote = info.id;
            return Ok(());
        }
        Err(ServeError("no live backends".into()))
    }

    /// Marks the session lost for good and gives its dead backend's
    /// count back; returns the error every later op answers.
    fn lose(&self, state: &mut RouteState, msg: String) -> ServeError {
        state.lost = Some(msg.clone());
        self.backends[state.backend]
            .sessions
            .fetch_sub(1, Ordering::Relaxed);
        ServeError(msg)
    }

    /// Sends `request`, which opens a session, to backend `target`.
    /// Anything but `created` or an I/O error counts as a refusal.
    fn open_on(&self, target: usize, id: u64, request: &Request) -> Opened {
        match self.backends[target].call(id, request) {
            Ok(Response::Created { info }) => Opened::Created(info),
            Ok(Response::Error { message }) => Opened::Refused(message),
            Ok(other) => Opened::Refused(format!("unexpected reply {other:?}")),
            Err(e) => {
                self.report_death(target, &e);
                Opened::Died(e)
            }
        }
    }

    fn route_of(&self, id: u64) -> Result<Route, ServeError> {
        self.routes
            .read()
            .get(&id)
            .cloned()
            .ok_or_else(|| ServeError(format!("unknown session {id}")))
    }

    /// Every route, copied out so no sweep holds the table lock while
    /// it locks one.
    fn all_routes(&self) -> Vec<(u64, Route)> {
        self.routes
            .read()
            .iter()
            .map(|(&id, route)| (id, Arc::clone(route)))
            .collect()
    }

    /// Takes a fresh snapshot of the session and retains it as its
    /// restore point. Under the route lock the session's steps are
    /// `acked_steps`, so the snapshot is one call. On an error the
    /// previous restore point stays.
    fn take_snapshot(&self, id: u64, state: &mut RouteState) -> Result<SnapshotBlob, ServeError> {
        let snapshot =
            match self.roundtrip(id, state, |remote| Request::Snapshot { session: remote })? {
                Response::Snapshot { snapshot, .. } => snapshot,
                Response::Error { message } => return Err(ServeError(message)),
                other => return Err(ServeError(format!("unexpected snapshot reply {other:?}"))),
            };
        state.retained = Retained::Snapshot {
            blob: snapshot.clone(),
            steps: state.acked_steps,
        };
        Ok(snapshot)
    }

    // --- session API --------------------------------------------------

    /// Creates a session on the least-loaded backend in one backend
    /// call. The scenario is the session's restore point until its
    /// first snapshot, so the session is failover-protected from its
    /// very first request.
    ///
    /// # Errors
    /// Returns a [`ServeError`] if resolution fails or no backend is
    /// alive.
    pub fn create(&self, scenario: Scenario) -> Result<SessionInfo, ServeError> {
        let point = Retained::Scenario(Box::new(scenario));
        let (id, target, info) = self.place(&point.reopen())?;
        Ok(self.install_route(id, target, info, point))
    }

    /// Restores a session from a client-provided snapshot, placing it
    /// like [`Cluster::create`]. The client's snapshot is the session's
    /// restore point.
    ///
    /// # Errors
    /// Returns a [`ServeError`] on snapshot mismatches or if no backend
    /// is alive.
    pub fn restore(&self, snapshot: SnapshotBlob) -> Result<SessionInfo, ServeError> {
        let (id, target, info) = self.place(&Request::Restore {
            snapshot: snapshot.clone(),
        })?;
        let point = Retained::Snapshot {
            blob: snapshot,
            steps: info.steps,
        };
        Ok(self.install_route(id, target, info, point))
    }

    /// Sends `request`, which opens a session, to the least-loaded
    /// backend, retrying past backends that die under the call. Returns
    /// the router's id for the session, the backend it opened on, and
    /// the backend's answer.
    fn place(&self, request: &Request) -> Result<(u64, usize, SessionInfo), ServeError> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        for _ in 0..self.backends.len() {
            let target = self.least_loaded(None)?;
            match self.open_on(target, id, request) {
                Opened::Created(info) => return Ok((id, target, info)),
                Opened::Refused(message) => return Err(ServeError(message)),
                Opened::Died(_) => {}
            }
        }
        Err(ServeError("no live backends".into()))
    }

    /// Registers a fresh route for a just-created/restored remote
    /// session, with `retained` as its restore point. Makes no backend
    /// call unless the session opened past step 0.
    fn install_route(
        &self,
        id: u64,
        target: usize,
        info: SessionInfo,
        retained: Retained,
    ) -> SessionInfo {
        let mut state = RouteState {
            backend: target,
            remote: info.id,
            retained,
            acked_steps: info.steps,
            last_violations: 0,
            migrations: 0,
            failovers: 0,
            lost_requests: 0,
            lost: None,
        };
        // Counted before the first call that can fail the session over,
        // which moves the count.
        self.backends[target]
            .sessions
            .fetch_add(1, Ordering::Relaxed);
        // A fresh session has no violations yet; a restored one may.
        if info.steps > 0 {
            if let Ok(Response::Status { status }) =
                self.roundtrip(id, &mut state, |remote| Request::Query { session: remote })
            {
                state.last_violations = status.report.capacity_violations;
            }
        }
        self.created.fetch_add(1, Ordering::Relaxed);
        self.routes.write().insert(id, Arc::new(Mutex::new(state)));
        SessionInfo { id, ..info }
    }

    /// Submits work to a routed session (quiesced against migration,
    /// transparently failed over on backend death).
    ///
    /// # Errors
    /// Returns a [`ServeError`] for unknown/lost sessions or when every
    /// backend is gone.
    pub fn submit(&self, id: u64, work: &Work) -> Result<BatchSummary, ServeError> {
        let route = self.route_of(id)?;
        let mut state = route.lock();
        let response = self.roundtrip(id, &mut state, |remote| Request::Submit {
            session: remote,
            work: work.clone(),
        })?;
        match response {
            Response::Submitted { summary, .. } => {
                state.acked_steps = summary.steps;
                self.served.fetch_add(summary.served, Ordering::Relaxed);
                let delta = summary.violations.saturating_sub(state.last_violations);
                state.last_violations = summary.violations;
                self.violations.fetch_add(delta, Ordering::Relaxed);
                Ok(summary)
            }
            Response::Error { message } => Err(ServeError(message)),
            other => Err(ServeError(format!("unexpected submit reply {other:?}"))),
        }
    }

    /// Queries a session. The backend's counters cover the session's
    /// whole history, so the answer is independent of how many times
    /// the session moved.
    ///
    /// # Errors
    /// Returns a [`ServeError`] for unknown/lost sessions.
    pub fn query(&self, id: u64) -> Result<SessionStatus, ServeError> {
        let route = self.route_of(id)?;
        let mut state = route.lock();
        let response =
            self.roundtrip(id, &mut state, |remote| Request::Query { session: remote })?;
        match response {
            Response::Status { mut status } => {
                status.id = id;
                Ok(status)
            }
            Response::Error { message } => Err(ServeError(message)),
            other => Err(ServeError(format!("unexpected query reply {other:?}"))),
        }
    }

    /// Takes a session snapshot for the client — and refreshes the
    /// router's retained restore point with it for free.
    ///
    /// # Errors
    /// Returns a [`ServeError`] for unknown/lost sessions or
    /// non-snapshottable algorithms.
    pub fn snapshot(&self, id: u64) -> Result<SnapshotBlob, ServeError> {
        let route = self.route_of(id)?;
        let mut state = route.lock();
        self.take_snapshot(id, &mut state)
    }

    /// Closes a session and removes its route. A lost session has no
    /// copy left to close, and its backend's count was already given
    /// back, so closing it removes the route and answers the loss.
    ///
    /// # Errors
    /// Returns a [`ServeError`] for unknown/lost sessions.
    pub fn close(&self, id: u64) -> Result<RunReport, ServeError> {
        let route = self.route_of(id)?;
        let mut state = route.lock();
        let response =
            match self.roundtrip(id, &mut state, |remote| Request::Close { session: remote }) {
                Ok(response) => response,
                Err(e) => {
                    if state.lost.is_some() {
                        drop(state);
                        self.routes.write().remove(&id);
                    }
                    return Err(e);
                }
            };
        match response {
            Response::Closed { report, .. } => {
                self.backends[state.backend]
                    .sessions
                    .fetch_sub(1, Ordering::Relaxed);
                drop(state);
                self.routes.write().remove(&id);
                Ok(report)
            }
            Response::Error { message } => Err(ServeError(message)),
            other => Err(ServeError(format!("unexpected close reply {other:?}"))),
        }
    }

    /// Live-migrates a session: quiesce (the route lock), snapshot the
    /// source (which becomes the retained restore point), restore on
    /// the target, close the source copy. Ops blocked on the route lock
    /// continue seamlessly against the new backend. A source that dies
    /// under the snapshot call is failed over inside it; the migration
    /// then starts from the survivor, and is already done if that is
    /// the target.
    ///
    /// # Errors
    /// Returns a [`ServeError`] for unknown/lost sessions, bad targets,
    /// or non-snapshottable algorithms.
    pub fn migrate(&self, id: u64, backend: Option<u64>) -> Result<(u64, u64), ServeError> {
        let route = self.route_of(id)?;
        let mut state = route.lock();
        if let Some(msg) = &state.lost {
            return Err(ServeError(msg.clone()));
        }
        let from = state.backend;
        if !self.backends[from].alive() {
            // Migration off a dead backend *is* failover.
            self.failover_locked(id, &mut state)?;
            return Ok((from as u64, state.backend as u64));
        }
        let target = match backend {
            Some(b) => {
                let b = b as usize;
                if b >= self.backends.len() {
                    return Err(ServeError(format!("unknown backend {b}")));
                }
                if !self.backends[b].alive() {
                    return Err(ServeError(format!("backend {b} is dead")));
                }
                b
            }
            None => self.least_loaded(Some(from))?,
        };
        if target == from {
            return Ok((from as u64, from as u64));
        }
        let snapshot = self.take_snapshot(id, &mut state)?;
        // A failover inside the snapshot call may have moved the
        // session already.
        let source = state.backend;
        if source == target {
            return Ok((from as u64, target as u64));
        }
        let info = match self.open_on(target, id, &Request::Restore { snapshot }) {
            Opened::Created(info) => info,
            Opened::Refused(message) => {
                return Err(ServeError(format!("migration restore refused: {message}")))
            }
            Opened::Died(e) => {
                return Err(ServeError(format!("migration target {target} died: {e}")))
            }
        };
        let old_remote = state.remote;
        state.acked_steps = info.steps;
        state.migrations += 1;
        self.move_session_count(source, target);
        state.backend = target;
        state.remote = info.id;
        // The source copy is dead weight now; reclaim it best-effort
        // (the source may be mid-crash, which failover will handle).
        if let Err(e) = self.backends[source].call(
            id,
            &Request::Close {
                session: old_remote,
            },
        ) {
            self.report_death(source, &e);
        }
        Ok((from as u64, target as u64))
    }

    /// A session's migration/failover provenance — including the
    /// explicit "replayed from snapshot N, lost K requests" record.
    ///
    /// # Errors
    /// Returns a [`ServeError`] for unknown sessions.
    pub fn lineage(&self, id: u64) -> Result<SessionLineage, ServeError> {
        let route = self.route_of(id)?;
        let state = route.lock();
        Ok(SessionLineage {
            session: id,
            backend: state.backend as u64,
            migrations: state.migrations,
            failovers: state.failovers,
            snapshot_steps: state.retained.steps(),
            lost_requests: state.lost_requests,
        })
    }

    /// The backend roster for the `cluster` op.
    #[must_use]
    pub fn cluster_info(&self) -> Vec<BackendSummary> {
        self.backends
            .iter()
            .map(|b| BackendSummary {
                id: b.id,
                addr: b.addr.to_string(),
                pid: b.pid,
                alive: b.alive(),
                sessions: b.sessions.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Router-level aggregate stats (same shape as a single server's).
    #[must_use]
    pub fn stats(&self) -> ManagerStats {
        ManagerStats {
            open_sessions: self.routes.read().len() as u64,
            created: self.created.load(Ordering::Relaxed),
            total_served: self.served.load(Ordering::Relaxed),
            total_violations: self.violations.load(Ordering::Relaxed),
        }
    }

    // --- maintenance -------------------------------------------------

    /// One liveness sweep: ping every live backend, mark the silent
    /// ones dead.
    fn ping_sweep(&self) {
        for (i, backend) in self.backends.iter().enumerate() {
            if backend.alive() && !backend.ping() {
                self.report_death(i, &"ping timed out");
            }
        }
    }

    /// Proactively fails over every session routed to a dead backend,
    /// so orphans recover without waiting to be touched by a client.
    fn failover_sweep(&self) {
        let needs_sweep = self
            .backends
            .iter()
            .any(|b| !b.alive() && b.sessions.load(Ordering::Relaxed) > 0);
        if !needs_sweep {
            return;
        }
        for (id, route) in self.all_routes() {
            let mut state = route.lock();
            if state.lost.is_none() && !self.backends[state.backend].alive() {
                if let Err(e) = self.failover_locked(id, &mut state) {
                    eprintln!("rdbp-router: failover of session {id}: {e}");
                }
            }
        }
    }

    /// Refreshes every session's restore point with a snapshot (the
    /// periodic background checkpoint that bounds the failover replay
    /// gap).
    fn snapshot_sweep(&self) {
        for (id, route) in self.all_routes() {
            let mut state = route.lock();
            if state.lost.is_some() || !self.backends[state.backend].alive() {
                continue;
            }
            // A snapshot refresh is an optimization, not an obligation:
            // errors (unsupported algorithm, backend mid-crash) keep
            // the previous restore point.
            let _ = self.take_snapshot(id, &mut state);
        }
    }

    /// One rebalance check: if the hottest and coldest alive backends
    /// differ by at least [`REBALANCE_GAP`] sessions, migrate one
    /// session from hot to cold (greedy least-loaded placement).
    fn rebalance_once(&self) {
        let alive: Vec<(usize, u64)> = self
            .backends
            .iter()
            .enumerate()
            .filter(|(_, b)| b.alive())
            .map(|(i, b)| (i, b.sessions.load(Ordering::Relaxed)))
            .collect();
        let Some(&(hot, hot_n)) = alive.iter().max_by_key(|&&(_, n)| n) else {
            return;
        };
        let Some(&(cold, cold_n)) = alive.iter().min_by_key(|&&(_, n)| n) else {
            return;
        };
        if hot == cold || hot_n.saturating_sub(cold_n) < REBALANCE_GAP {
            return;
        }
        let candidate = self.all_routes().into_iter().find_map(|(id, route)| {
            let state = route.lock();
            (state.lost.is_none() && state.backend == hot).then_some(id)
        });
        if let Some(id) = candidate {
            match self.migrate(id, Some(cold as u64)) {
                Ok((from, to)) => {
                    eprintln!(
                        "rdbp-router: rebalanced session {id} from backend {from} to {to} \
                         (spread was {hot_n}-{cold_n})"
                    );
                }
                Err(e) => eprintln!("rdbp-router: rebalance of session {id}: {e}"),
            }
        }
    }
}

/// The background loop: pings, failover sweeps, snapshot refreshes,
/// rebalance checks — each on its own cadence, checked every
/// [`MAINTENANCE_TICK`]. A stop unparks the thread, ending the wait
/// between ticks at once.
fn maintenance_main(cluster: &Cluster, config: &ClusterConfig) {
    let this = std::thread::current();
    let Some(_on_stop) = cluster.on_stop(move || this.unpark()) else {
        return;
    };
    let now = Instant::now();
    let mut last_ping = now;
    let mut last_snapshot = now;
    let mut last_rebalance = now;
    loop {
        // An early return only brings the tick sooner.
        std::thread::park_timeout(MAINTENANCE_TICK);
        if cluster.stopping() {
            break;
        }
        let now = Instant::now();
        if let Some(every) = config.ping_interval {
            if now.duration_since(last_ping) >= every {
                last_ping = now;
                cluster.ping_sweep();
            }
        }
        // Failover runs on every tick: deaths discovered by ops (not
        // just pings) should orphan sessions for at most ~one tick.
        cluster.failover_sweep();
        if let Some(every) = config.snapshot_interval {
            if now.duration_since(last_snapshot) >= every {
                last_snapshot = now;
                cluster.snapshot_sweep();
            }
        }
        if let Some(every) = config.rebalance_interval {
            if now.duration_since(last_rebalance) >= every {
                last_rebalance = now;
                cluster.rebalance_once();
            }
        }
    }
}

/// The `rdbp-serve` binary next to the currently running executable —
/// how the router and the test/bench harnesses find the backend binary
/// without configuration (all workspace binaries land in the same
/// target directory).
///
/// # Errors
/// Returns a [`ServeError`] when the executable path is unavailable.
pub fn sibling_serve_bin() -> Result<PathBuf, ServeError> {
    let exe = std::env::current_exe()
        .map_err(|e| ServeError(format!("cannot locate current executable: {e}")))?;
    let dir = exe
        .parent()
        .ok_or_else(|| ServeError("executable has no parent directory".into()))?;
    // Integration-test binaries live one level below the bin dir
    // (target/debug/deps); probe both.
    let candidates = [
        dir.join("rdbp-serve"),
        dir.parent()
            .map_or_else(PathBuf::new, |p| p.join("rdbp-serve")),
    ];
    candidates
        .iter()
        .find(|p| p.is_file())
        .cloned()
        .ok_or_else(|| {
            ServeError(format!(
                "rdbp-serve binary not found next to {} (build it first, or pass --serve-bin)",
                exe.display()
            ))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{self, Read, Write};
    use std::net::{Shutdown, TcpListener, TcpStream};

    use rdbp_engine::{AlgorithmSpec, InstanceSpec, Registries, WorkloadSpec};
    use rdbp_serve::wire::Framer;
    use rdbp_serve::{serve, Client, Proto, Session, SessionManager};
    use serde::{Deserialize, Serialize};

    type Reactor = (SocketAddr, JoinHandle<std::io::Result<()>>);

    /// An `rdbp-serve` reactor running in this process on a loopback
    /// listener.
    fn reactor() -> Reactor {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("reactor address");
        let manager = SessionManager::new(1, Registries::builtin());
        (addr, std::thread::spawn(move || serve(listener, manager)))
    }

    /// Shuts a reactor down over its own connection, behind any
    /// router's back, and waits for it to exit.
    fn stop((addr, handle): Reactor) {
        let mut client = Client::connect(addr).expect("connect to the reactor");
        assert!(matches!(client.call(&Request::Shutdown), Ok(Response::Bye)));
        handle
            .join()
            .expect("reactor thread")
            .expect("reactor exit");
    }

    fn open_sessions(addr: SocketAddr) -> u64 {
        let mut client = Client::connect(addr).expect("connect to the reactor");
        match client.call(&Request::Stats) {
            Ok(Response::Stats { stats }) => stats.open_sessions,
            other => panic!("stats answered {other:?}"),
        }
    }

    /// A quiescent cluster attached to `backends`.
    fn cluster_over(backends: &[SocketAddr]) -> Arc<Cluster> {
        let mut config = ClusterConfig::quiescent();
        config.attach = backends.to_vec();
        Cluster::start(&config).expect("cluster over the reactors")
    }

    /// A `dynamic`×`hedge` session spec, which can snapshot.
    fn hedge(seed: u64) -> Scenario {
        let mut algorithm = AlgorithmSpec::named("dynamic");
        algorithm.policy = Some("hedge".into());
        Scenario::new(
            InstanceSpec::packed(4, 8),
            algorithm,
            WorkloadSpec::named("uniform"),
            seed,
        )
    }

    type Proxy = (SocketAddr, Arc<Mutex<Vec<String>>>, JoinHandle<()>);

    /// A loopback proxy in front of `backend` that passes every byte
    /// through both ways and records the op of each request it passes.
    /// It serves the connections one router's backend opens (monitor
    /// and pool), and its thread ends once the router closes them.
    fn recording_proxy(backend: SocketAddr) -> Proxy {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("proxy address");
        let ops = Arc::new(Mutex::new(Vec::new()));
        let seen = Arc::clone(&ops);
        let handle = std::thread::spawn(move || {
            std::thread::scope(|scope| {
                for client in listener.incoming().take(1 + crate::backend::POOL) {
                    let client = client.expect("accept the router");
                    let server = TcpStream::connect(backend).expect("connect to the reactor");
                    let mut replies = server.try_clone().expect("clone the reactor side");
                    let mut to_client = client.try_clone().expect("clone the router side");
                    scope.spawn(move || {
                        let _ = io::copy(&mut replies, &mut to_client);
                        let _ = to_client.shutdown(Shutdown::Both);
                    });
                    let seen = &seen;
                    scope.spawn(move || forward_requests(client, server, seen));
                }
            });
        });
        (addr, ops, handle)
    }

    fn forward_requests(mut client: TcpStream, mut server: TcpStream, seen: &Mutex<Vec<String>>) {
        let mut framer = Framer::new(Proto::Binary);
        let mut chunk = [0u8; 16 * 1024];
        while let Ok(n @ 1..) = client.read(&mut chunk) {
            framer.push(&chunk[..n]);
            while let Some(request) = framer.next_request() {
                let tree = request.expect("a well-formed request").to_value();
                let op = String::from_value(tree.get_field("op").expect("an op tag"));
                seen.lock().push(op.expect("a string op"));
            }
            if server.write_all(&chunk[..n]).is_err() {
                break;
            }
        }
        let _ = server.shutdown(Shutdown::Both);
    }

    #[test]
    fn create_and_restore_each_make_one_backend_call() {
        let backend = reactor();
        let (proxy, ops, forwarding) = recording_proxy(backend.0);
        let cluster = cluster_over(&[proxy]);
        ops.lock().clear();

        let id = cluster.create(hedge(0)).expect("create").id;
        assert_eq!(*ops.lock(), ["create"], "the scenario is the restore point");
        cluster.submit(id, &Work::Generate(30)).expect("submit");
        let blob = cluster.snapshot(id).expect("snapshot");

        ops.lock().clear();
        let twin = cluster.restore(blob).expect("restore").id;
        // The client's blob is the restore point; the query reads the
        // violations the twin opened with.
        assert_eq!(*ops.lock(), ["restore", "query"], "no snapshot call");
        assert_eq!(cluster.lineage(twin).expect("lineage").snapshot_steps, 30);

        cluster.close(twin).expect("close the twin");
        cluster.close(id).expect("close");
        cluster.shutdown();
        drop(cluster);
        forwarding.join().expect("proxy thread");
        stop(backend);
    }

    #[test]
    fn a_never_snapshotted_session_fails_over_from_its_create_request() {
        let mut reactors = vec![reactor(), reactor()];
        let cluster = cluster_over(&[reactors[0].0, reactors[1].0]);
        let id = cluster.create(hedge(3)).expect("create").id;
        cluster.submit(id, &Work::Generate(60)).expect("submit");
        let host = cluster.lineage(id).expect("lineage").backend as usize;
        stop(reactors.remove(host));

        // The query finds the host dead: the survivor creates the
        // session afresh, and the 60 acknowledged requests are lost.
        let status = cluster.query(id).expect("query after the failover");
        assert_eq!(status.report.steps, 0);
        let lineage = cluster.lineage(id).expect("lineage");
        assert_eq!(lineage.backend, 1 - host as u64);
        assert_eq!(
            (
                lineage.failovers,
                lineage.snapshot_steps,
                lineage.lost_requests
            ),
            (1, 0, 60)
        );
        let survivor = reactors[0].0;
        assert_eq!(open_sessions(survivor), 1, "one copy on the survivor");
        let roster: Vec<_> = cluster.cluster_info().iter().map(|b| b.sessions).collect();
        assert_eq!(roster.iter().sum::<u64>(), 1, "counted once: {roster:?}");

        // What the survivor holds is the session at step 0: the blob
        // the create-time snapshot used to retain.
        let blob = cluster.snapshot(id).expect("snapshot on the survivor");
        let fresh = Session::new(hedge(3), &Registries::builtin()).expect("in-process session");
        let want =
            SnapshotBlob::encode(&fresh.snapshot().expect("fresh snapshot")).expect("encode");
        assert_eq!(blob.as_bytes(), want.as_bytes());

        cluster.close(id).expect("close");
        assert_eq!(open_sessions(survivor), 0);
        cluster.shutdown();
        stop(reactors.remove(0));
    }

    #[test]
    fn a_session_failed_over_from_its_create_request_keeps_the_survivors_snapshot() {
        let mut reactors = vec![reactor(), reactor(), reactor()];
        let (proxy, ops, forwarding) = recording_proxy(reactors[2].0);
        let cluster = cluster_over(&[reactors[0].0, reactors[1].0, proxy]);
        let id = cluster.create(hedge(7)).expect("create").id;
        cluster.submit(id, &Work::Generate(20)).expect("submit");
        // Ties in session count go to the lowest backend id.
        stop(reactors.remove(0));
        cluster
            .submit(id, &Work::Generate(30))
            .expect("submit after the first failover");
        assert_eq!(cluster.lineage(id).expect("lineage").backend, 1);

        // The first failover re-created the session and snapshotted it
        // there, so the second restores that snapshot.
        ops.lock().clear();
        stop(reactors.remove(0));
        let status = cluster.query(id).expect("query after the second failover");
        assert_eq!(status.report.steps, 0);
        assert_eq!(*ops.lock(), ["restore", "query"]);
        let lineage = cluster.lineage(id).expect("lineage");
        assert_eq!(
            (
                lineage.failovers,
                lineage.snapshot_steps,
                lineage.lost_requests
            ),
            (2, 0, 50)
        );

        cluster.close(id).expect("close");
        cluster.shutdown();
        drop(cluster);
        forwarding.join().expect("proxy thread");
        stop(reactors.remove(0));
    }

    #[test]
    fn a_restored_session_fails_over_to_the_clients_snapshot() {
        let mut reactors = vec![reactor(), reactor()];
        let cluster = cluster_over(&[reactors[0].0, reactors[1].0]);
        let id = cluster.create(hedge(5)).expect("create").id;
        cluster.submit(id, &Work::Generate(40)).expect("submit");
        let blob = cluster.snapshot(id).expect("snapshot");
        let twin = cluster.restore(blob).expect("restore").id;
        cluster
            .submit(twin, &Work::Generate(25))
            .expect("submit to the twin");
        let host = cluster.lineage(twin).expect("lineage").backend as usize;
        stop(reactors.remove(host));

        let status = cluster.query(twin).expect("query after the failover");
        assert_eq!(status.report.steps, 40, "rewound to the client's snapshot");
        let lineage = cluster.lineage(twin).expect("lineage");
        assert_eq!(
            (
                lineage.failovers,
                lineage.snapshot_steps,
                lineage.lost_requests
            ),
            (1, 40, 25)
        );

        for session in [twin, id] {
            cluster.close(session).expect("close");
        }
        assert_eq!(open_sessions(reactors[0].0), 0);
        cluster.shutdown();
        stop(reactors.remove(0));
    }

    #[test]
    fn a_source_that_dies_during_the_snapshot_call_leaves_one_copy() {
        let mut reactors = vec![reactor(), reactor()];
        let mut config = ClusterConfig::quiescent();
        config.attach = reactors.iter().map(|&(addr, _)| addr).collect();
        let cluster = Cluster::start(&config).expect("cluster over two reactors");
        let mut algorithm = AlgorithmSpec::named("dynamic");
        algorithm.policy = Some("hedge".into());
        let scenario = Scenario::new(
            InstanceSpec::packed(4, 8),
            algorithm,
            WorkloadSpec::named("uniform"),
            0,
        );
        let id = cluster.create(scenario).expect("create").id;
        cluster.submit(id, &Work::Generate(100)).expect("submit");
        let host = cluster.lineage(id).expect("lineage").backend as usize;
        let survivor = 1 - host;

        // The host dies unnoticed, so the migration's snapshot call is
        // what finds out: it fails the session over to the survivor,
        // which is also where the migration was headed.
        stop(reactors.remove(host));
        let moved = cluster.migrate(id, None).expect("migrate");
        assert_eq!(moved, (host as u64, survivor as u64));

        let roster: Vec<_> = cluster
            .cluster_info()
            .iter()
            .map(|b| (b.id, b.alive, b.sessions))
            .collect();
        let mut want = vec![(0, true, 0), (1, true, 0)];
        want[host].1 = false;
        want[survivor].2 = 1;
        assert_eq!(roster, want, "one copy, counted once");
        let survivor_addr = reactors[0].0;
        assert_eq!(open_sessions(survivor_addr), 1, "no second copy");
        let lineage = cluster.lineage(id).expect("lineage");
        assert_eq!(lineage.backend, survivor as u64);
        assert_eq!((lineage.migrations, lineage.failovers), (0, 1));
        // The failover rewound to the create request.
        assert_eq!(lineage.lost_requests, 100);
        let summary = cluster.submit(id, &Work::Generate(10)).expect("submit");
        assert_eq!(summary.steps, 10);

        cluster.close(id).expect("close");
        assert_eq!(open_sessions(survivor_addr), 0);
        cluster.shutdown();
        stop(reactors.remove(0));
    }

    #[test]
    fn closing_a_lost_session_removes_its_route() {
        let mut reactors = vec![reactor(), reactor()];
        let mut config = ClusterConfig::quiescent();
        config.attach = reactors.iter().map(|&(addr, _)| addr).collect();
        let cluster = Cluster::start(&config).expect("cluster over two reactors");
        // `static` cannot snapshot, so its session has no restore point
        // and dies with its host.
        let scenario = Scenario::new(
            InstanceSpec::packed(4, 8),
            AlgorithmSpec::named("static"),
            WorkloadSpec::named("uniform"),
            0,
        );
        let id = cluster.create(scenario).expect("create").id;
        cluster.submit(id, &Work::Generate(100)).expect("submit");
        let host = cluster.lineage(id).expect("lineage").backend as usize;
        stop(reactors.remove(host));

        let lost = cluster
            .submit(id, &Work::Generate(1))
            .expect_err("the session died with its host");
        assert_eq!(
            lost.0,
            format!(
                "session {id} lost: backend {host} died and the session's algorithm \
                 does not support snapshot/restore"
            )
        );
        let closed = cluster.close(id).expect_err("closing answers the loss");
        assert_eq!(closed.0, lost.0);
        assert_eq!(cluster.stats().open_sessions, 0, "the route is gone");
        let again = cluster.close(id).expect_err("the session is gone");
        assert_eq!(again.0, format!("unknown session {id}"));
        let roster: Vec<_> = cluster.cluster_info().iter().map(|b| b.sessions).collect();
        assert_eq!(roster, vec![0, 0], "the lost session is counted nowhere");

        cluster.shutdown();
        stop(reactors.remove(0));
    }
}
