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
//! ## Migration and the counter base
//!
//! Work counters are transient on a backend: a restored session's
//! counters restart at zero. To keep a migrated session's *observable*
//! counters identical to an unmigrated one (the differential test's
//! contract), each route carries a `counter_base`: the merged counters
//! accumulated on all previous backends. `query` reports `base +
//! live`, so a session that migrated five times answers exactly what a
//! never-migrated twin would. This only works because restore is
//! work-counter-neutral (snapshot format v2 carries the `hst-hedge`
//! distribution-cache bit for precisely this reason).
//!
//! ## Failover and the lost-requests contract
//!
//! The router retains the latest snapshot of every session (taken at
//! create/restore/migrate, refreshed by the maintenance loop and by
//! every client-requested snapshot). When a backend dies — an op hits
//! an I/O error, or the monitor ping times out — its sessions are
//! restored from the retained snapshots onto the least-loaded
//! survivors. Requests acknowledged after the retained snapshot are
//! **lost** (the session rewinds to the snapshot); the router counts
//! them and reports `replayed from snapshot N, lost K` through the
//! `lineage` op rather than hiding the gap. Sessions whose algorithm
//! cannot snapshot (the `static` partitioner) are reported lost
//! explicitly on their next op.
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
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};
use serde::Value;

use rdbp_engine::Scenario;
use rdbp_model::{RunReport, WorkCounters};
use rdbp_serve::{
    BackendSummary, BatchSummary, ManagerStats, Request, Response, ServeError, ServerHello,
    SessionInfo, SessionLineage, SessionStatus, Work, PROTO_VERSION,
};

use crate::backend::Backend;

/// How a [`Cluster`] is assembled and how its maintenance loop runs.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// `rdbp-serve` processes to spawn.
    pub spawn: usize,
    /// Path to the `rdbp-serve` binary for spawning (`None` = the
    /// sibling of the current executable).
    pub serve_bin: Option<PathBuf>,
    /// Already-running backends to attach to.
    pub attach: Vec<SocketAddr>,
    /// `--workers` for each spawned backend.
    pub workers_per_backend: usize,
    /// Operation connections kept per backend.
    pub pool_per_backend: usize,
    /// Liveness-ping cadence (`None` disables pings; deaths are then
    /// detected by op I/O errors only).
    pub ping_interval: Option<Duration>,
    /// Background snapshot-refresh cadence (`None` disables; retained
    /// snapshots then only update on create/migrate/client snapshot).
    pub snapshot_interval: Option<Duration>,
    /// Rebalance-check cadence (`None` disables rebalancing).
    pub rebalance_interval: Option<Duration>,
    /// Minimum session-count spread between the hottest and coldest
    /// backend before a rebalance migration triggers.
    pub rebalance_gap: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            spawn: 0,
            serve_bin: None,
            attach: Vec::new(),
            workers_per_backend: 2,
            pool_per_backend: 4,
            ping_interval: Some(Duration::from_millis(250)),
            snapshot_interval: Some(Duration::from_millis(500)),
            rebalance_interval: Some(Duration::from_secs(1)),
            rebalance_gap: 2,
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

/// The retained restore point for one session.
struct Retained {
    value: Value,
    steps: u64,
    /// Total observable counters (base + live) at the snapshot point;
    /// becomes the new `counter_base` after a failover restore.
    counters_at: WorkCounters,
}

/// One session's routing entry. Locked for the duration of every op —
/// see the module docs for why.
struct RouteState {
    backend: usize,
    remote: u64,
    counter_base: WorkCounters,
    retained: Option<Retained>,
    /// `summary.steps` of the last acknowledged submit.
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

/// The router's shared state: backends, routing table, counters.
pub struct Cluster {
    backends: Vec<Arc<Backend>>,
    routes: RwLock<HashMap<u64, Route>>,
    next_id: AtomicU64,
    created: AtomicU64,
    closed: AtomicU64,
    served: AtomicU64,
    violations: AtomicU64,
    stopping: AtomicBool,
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
        let serve_bin = match &config.serve_bin {
            Some(path) => path.clone(),
            None => sibling_serve_bin()?,
        };
        let mut backends = Vec::new();
        for i in 0..config.spawn {
            backends.push(Arc::new(Backend::spawn(
                i as u64,
                &serve_bin,
                config.workers_per_backend,
                config.pool_per_backend,
            )?));
        }
        for (i, &addr) in config.attach.iter().enumerate() {
            backends.push(Arc::new(Backend::attach(
                (config.spawn + i) as u64,
                addr,
                config.pool_per_backend,
            )?));
        }
        let cluster = Arc::new(Self {
            backends,
            routes: RwLock::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            created: AtomicU64::new(0),
            closed: AtomicU64::new(0),
            served: AtomicU64::new(0),
            violations: AtomicU64::new(0),
            stopping: AtomicBool::new(false),
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
        self.stopping.load(Ordering::Acquire)
    }

    /// Requests shutdown: the maintenance loop and the frontend accept
    /// loop observe the flag and wind down.
    pub fn begin_stop(&self) {
        self.stopping.store(true, Ordering::Release);
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

    /// Restores the session from its retained snapshot onto a
    /// surviving backend. Caller holds the route lock.
    fn failover_locked(&self, id: u64, state: &mut RouteState) -> Result<(), ServeError> {
        let dead = state.backend;
        let Some(retained) = &state.retained else {
            let msg = format!(
                "session {id} lost: backend {dead} died and the session's algorithm \
                 does not support snapshot/restore"
            );
            state.lost = Some(msg.clone());
            self.backends[dead].sessions.fetch_sub(1, Ordering::Relaxed);
            return Err(ServeError(msg));
        };
        // The snapshot may need several placement attempts if survivors
        // keep dying under us.
        for _ in 0..self.backends.len() {
            let target = self.least_loaded(Some(dead))?;
            let request = Request::Restore {
                snapshot: retained.value.clone(),
            };
            match self.backends[target].call(id, &request) {
                Ok(Response::Created { info }) => {
                    let lost = state.acked_steps.saturating_sub(retained.steps);
                    if lost > 0 {
                        eprintln!(
                            "rdbp-router: session {id} replayed from snapshot at step {} on \
                             backend {target}; {lost} acknowledged request(s) lost",
                            retained.steps
                        );
                    }
                    state.lost_requests += lost;
                    state.acked_steps = retained.steps;
                    state.counter_base = retained.counters_at;
                    state.failovers += 1;
                    self.move_session_count(dead, target);
                    state.backend = target;
                    state.remote = info.id;
                    return Ok(());
                }
                Ok(Response::Error { message }) => {
                    let msg = format!("session {id} lost: failover restore refused: {message}");
                    state.lost = Some(msg.clone());
                    self.backends[dead].sessions.fetch_sub(1, Ordering::Relaxed);
                    return Err(ServeError(msg));
                }
                Ok(other) => {
                    return Err(ServeError(format!(
                        "failover restore got an unexpected reply {other:?}"
                    )))
                }
                Err(e) => self.report_death(target, &e),
            }
        }
        Err(ServeError("no live backends".into()))
    }

    fn route_of(&self, id: u64) -> Result<Route, ServeError> {
        self.routes
            .read()
            .get(&id)
            .cloned()
            .ok_or_else(|| ServeError(format!("unknown session {id}")))
    }

    /// Reads the session's status and a fresh snapshot in one quiesced
    /// exchange; both come from the same instant because the route lock
    /// is held across the two calls.
    fn status_and_snapshot(
        &self,
        id: u64,
        state: &mut RouteState,
    ) -> Result<(SessionStatus, Value), ServeError> {
        let status = match self.roundtrip(id, state, |remote| Request::Query { session: remote })? {
            Response::Status { status } => status,
            Response::Error { message } => return Err(ServeError(message)),
            other => return Err(ServeError(format!("unexpected query reply {other:?}"))),
        };
        let snapshot =
            match self.roundtrip(id, state, |remote| Request::Snapshot { session: remote })? {
                Response::Snapshot { snapshot, .. } => snapshot,
                Response::Error { message } => return Err(ServeError(message)),
                other => return Err(ServeError(format!("unexpected snapshot reply {other:?}"))),
            };
        Ok((status, snapshot))
    }

    /// Total observable counters for a route: accumulated base plus the
    /// live backend session's transient counters.
    fn total_counters(state: &RouteState, live: &WorkCounters) -> WorkCounters {
        let mut total = state.counter_base;
        total.merge(live);
        total
    }

    // --- session API --------------------------------------------------

    /// Creates a session on the least-loaded backend and retains its
    /// initial snapshot (when the algorithm supports one) so the
    /// session is failover-protected from its very first request.
    ///
    /// # Errors
    /// Returns a [`ServeError`] if resolution fails or no backend is
    /// alive.
    pub fn create(&self, scenario: Scenario) -> Result<SessionInfo, ServeError> {
        let scenario = Box::new(scenario);
        self.place("create", &Request::Create { scenario })
    }

    /// Restores a session from a client-provided snapshot, placing it
    /// like [`Cluster::create`].
    ///
    /// # Errors
    /// Returns a [`ServeError`] on snapshot mismatches or if no backend
    /// is alive.
    pub fn restore(&self, snapshot: Value) -> Result<SessionInfo, ServeError> {
        self.place("restore", &Request::Restore { snapshot })
    }

    /// Sends `request` (the `op` that opens a session) to the
    /// least-loaded backend, retrying past backends that die under the
    /// call, and installs the new session's route.
    fn place(&self, op: &str, request: &Request) -> Result<SessionInfo, ServeError> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        for _ in 0..self.backends.len() {
            let target = self.least_loaded(None)?;
            match self.backends[target].call(id, request) {
                Ok(Response::Created { info }) => return self.install_route(id, target, info),
                Ok(Response::Error { message }) => return Err(ServeError(message)),
                Ok(other) => return Err(ServeError(format!("unexpected {op} reply {other:?}"))),
                Err(e) => self.report_death(target, &e),
            }
        }
        Err(ServeError("no live backends".into()))
    }

    /// Registers a fresh route for a just-created/restored remote
    /// session, taking the initial retained snapshot.
    fn install_route(
        &self,
        id: u64,
        target: usize,
        info: SessionInfo,
    ) -> Result<SessionInfo, ServeError> {
        let mut state = RouteState {
            backend: target,
            remote: info.id,
            counter_base: WorkCounters::default(),
            retained: None,
            acked_steps: info.steps,
            last_violations: 0,
            migrations: 0,
            failovers: 0,
            lost_requests: 0,
            lost: None,
        };
        // Best-effort initial snapshot: a `static`-algorithm session
        // simply stays unprotected (and is reported lost if its backend
        // dies); everything else is restorable from step 0.
        if let Ok((status, snapshot)) = self.status_and_snapshot(id, &mut state) {
            state.retained = Some(Retained {
                value: snapshot,
                steps: status.report.steps,
                counters_at: Self::total_counters(&state, &status.counters),
            });
            state.last_violations = status.report.capacity_violations;
        }
        self.backends[state.backend]
            .sessions
            .fetch_add(1, Ordering::Relaxed);
        self.created.fetch_add(1, Ordering::Relaxed);
        self.routes.write().insert(id, Arc::new(Mutex::new(state)));
        Ok(SessionInfo { id, ..info })
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

    /// Queries a session. Counters are the migration-compensated totals
    /// (`base + live`), so the answer is independent of how many times
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
                status.counters = Self::total_counters(&state, &status.counters);
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
    pub fn snapshot(&self, id: u64) -> Result<Value, ServeError> {
        let route = self.route_of(id)?;
        let mut state = route.lock();
        let (status, snapshot) = self.status_and_snapshot(id, &mut state)?;
        state.retained = Some(Retained {
            value: snapshot.clone(),
            steps: status.report.steps,
            counters_at: Self::total_counters(&state, &status.counters),
        });
        Ok(snapshot)
    }

    /// Closes a session and removes its route.
    ///
    /// # Errors
    /// Returns a [`ServeError`] for unknown/lost sessions.
    pub fn close(&self, id: u64) -> Result<RunReport, ServeError> {
        let route = self.route_of(id)?;
        let mut state = route.lock();
        let response =
            self.roundtrip(id, &mut state, |remote| Request::Close { session: remote })?;
        match response {
            Response::Closed { report, .. } => {
                self.backends[state.backend]
                    .sessions
                    .fetch_sub(1, Ordering::Relaxed);
                self.closed.fetch_add(1, Ordering::Relaxed);
                drop(state);
                self.routes.write().remove(&id);
                Ok(report)
            }
            Response::Error { message } => Err(ServeError(message)),
            other => Err(ServeError(format!("unexpected close reply {other:?}"))),
        }
    }

    /// Live-migrates a session: quiesce (the route lock), pull status +
    /// snapshot from the source, restore on the target, roll the
    /// counter base forward, close the source copy. Ops blocked on the
    /// route lock continue seamlessly against the new backend.
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
        let (status, snapshot) = self.status_and_snapshot(id, &mut state)?;
        let response = self.backends[target]
            .call(
                id,
                &Request::Restore {
                    snapshot: snapshot.clone(),
                },
            )
            .map_err(|e| {
                self.report_death(target, &e);
                ServeError(format!("migration target {target} died: {e}"))
            })?;
        let info = match response {
            Response::Created { info } => info,
            Response::Error { message } => {
                return Err(ServeError(format!("migration restore refused: {message}")))
            }
            other => {
                return Err(ServeError(format!(
                    "unexpected migration restore reply {other:?}"
                )))
            }
        };
        let total = Self::total_counters(&state, &status.counters);
        let old_remote = state.remote;
        state.counter_base = total;
        state.retained = Some(Retained {
            value: snapshot,
            steps: status.report.steps,
            counters_at: total,
        });
        state.acked_steps = status.report.steps;
        state.migrations += 1;
        self.move_session_count(from, target);
        state.backend = target;
        state.remote = info.id;
        // The source copy is dead weight now; reclaim it best-effort
        // (the source may be mid-crash, which failover will handle).
        if let Err(e) = self.backends[from].call(
            id,
            &Request::Close {
                session: old_remote,
            },
        ) {
            self.report_death(from, &e);
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
            snapshot_steps: state.retained.as_ref().map_or(0, |r| r.steps),
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
        let routes: Vec<(u64, Route)> = self
            .routes
            .read()
            .iter()
            .map(|(&id, route)| (id, Arc::clone(route)))
            .collect();
        for (id, route) in routes {
            let mut state = route.lock();
            if state.lost.is_none() && !self.backends[state.backend].alive() {
                if let Err(e) = self.failover_locked(id, &mut state) {
                    eprintln!("rdbp-router: failover of session {id}: {e}");
                }
            }
        }
    }

    /// Refreshes every session's retained snapshot (the periodic
    /// background checkpoint that bounds the failover replay gap).
    fn snapshot_sweep(&self) {
        let routes: Vec<(u64, Route)> = self
            .routes
            .read()
            .iter()
            .map(|(&id, route)| (id, Arc::clone(route)))
            .collect();
        for (id, route) in routes {
            let mut state = route.lock();
            if state.lost.is_some() || !self.backends[state.backend].alive() {
                continue;
            }
            // A snapshot refresh is an optimization, not an obligation:
            // errors (unsupported algorithm, backend mid-crash) keep
            // the previous retained snapshot.
            if let Ok((status, snapshot)) = self.status_and_snapshot(id, &mut state) {
                state.retained = Some(Retained {
                    value: snapshot,
                    steps: status.report.steps,
                    counters_at: Self::total_counters(&state, &status.counters),
                });
            }
        }
    }

    /// One rebalance check: if the hottest and coldest alive backends
    /// differ by at least the configured gap, migrate one session from
    /// hot to cold (greedy least-loaded placement).
    fn rebalance_once(&self, gap: u64) {
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
        if hot == cold || hot_n.saturating_sub(cold_n) < gap {
            return;
        }
        let routes: Vec<(u64, Route)> = self
            .routes
            .read()
            .iter()
            .map(|(&id, route)| (id, Arc::clone(route)))
            .collect();
        let candidate = routes.iter().find_map(|(id, route)| {
            let state = route.lock();
            (state.lost.is_none() && state.backend == hot).then_some(*id)
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
/// rebalance checks — each on its own cadence.
fn maintenance_main(cluster: &Cluster, config: &ClusterConfig) {
    let now = Instant::now();
    let mut last_ping = now;
    let mut last_snapshot = now;
    let mut last_rebalance = now;
    while !cluster.stopping() {
        std::thread::sleep(Duration::from_millis(10));
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
                cluster.rebalance_once(config.rebalance_gap);
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
