//! The multi-session manager: sessions sharded across a worker pool.
//!
//! A [`SessionManager`] owns `W` worker threads, each with its own FIFO
//! queue ([`crossbeam::channel`]) and its own shard of live sessions.
//! Sessions are pinned to `worker = id % W` at creation, so every
//! operation on one session flows through one queue — **per-session
//! ordering is guaranteed** while different sessions proceed fully in
//! parallel.
//!
//! The manager keeps only routing state ([`parking_lot::RwLock`] over
//! the id → shard map) and aggregate counters; all partitioning state
//! lives inside the workers, so no lock is ever held across a
//! simulation step.
//!
//! An op is one closure that runs on the worker owning the session's
//! shard, with that shard's sessions, and answers the caller's
//! completion callback there; if that worker is gone, the sender runs
//! it without a shard and it answers "session worker terminated". The
//! **asynchronous** form (`create_async`, `submit_async`, …) sends the
//! closure and returns at once — what the nonblocking TCP reactor
//! ([`crate::server`]) drives, so one reactor thread keeps thousands of
//! connections in flight. The **blocking** form (`create`, `submit`, …)
//! runs the async one and waits for its callback on a channel — what
//! library users and the in-process bench paths drive.
//!
//! Snapshots enter and leave a worker as [`SnapshotBlob`]s: the worker
//! that owns a session encodes its snapshot tree, and the one that
//! restores decodes it, so nothing between them handles a tree.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, SendError, Sender};
use parking_lot::{Mutex, RwLock};

use serde::{Deserialize, Serialize};

use rdbp_engine::{Registries, Scenario};
use rdbp_model::{Edge, RunReport, WorkCounters};

use crate::session::{BatchSummary, Session};
use crate::wire::SnapshotBlob;
use crate::ServeError;

/// Upper bound on one submission (generated steps or replay length).
///
/// Submissions run to completion inside a worker, so this caps how
/// long one request can occupy a shard: without it, a single
/// `{"steps": u64::MAX}` line from any client would wedge its worker's
/// FIFO queue — and the final `shutdown` join — forever. ~1M steps is
/// a few seconds of worker time; clients stream larger runs as
/// multiple batches (which is also what gives them progress feedback).
pub const MAX_SUBMIT: u64 = 1_000_000;

/// Upper bound on a session's processes `n` and servers `ℓ`:
/// [`Session::new`] refuses a larger ring before allocating for it, so
/// one `create` or `restore` cannot exhaust the server's memory.
pub const MAX_PROCESSES: u32 = 1 << 20;

/// What a submission carries: a request count to generate from the
/// session's workload, or an explicit request batch to replay.
#[derive(Debug, Clone)]
pub enum Work {
    /// Serve this many workload-generated requests.
    Generate(u64),
    /// Serve exactly these requests.
    Replay(Vec<Edge>),
}

/// Identity and provenance of a created (or restored) session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionInfo {
    /// The session id all further operations use.
    pub id: u64,
    /// Trait-reported algorithm name.
    pub algorithm: String,
    /// Trait-reported workload name.
    pub workload: String,
    /// The load bound the resolved algorithm guarantees.
    pub load_bound: u32,
    /// Steps already served (nonzero when restored from a snapshot).
    pub steps: u64,
}

/// A point-in-time view of one session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionStatus {
    /// The session id.
    pub id: u64,
    /// The accumulated report so far.
    pub report: RunReport,
    /// The load bound the resolved algorithm guarantees.
    pub load_bound: u32,
    /// The session's deterministic work counters over its whole
    /// history (see [`crate::Session::work_counters`]).
    pub counters: WorkCounters,
}

/// What [`SessionManager::stop_with_deadline`] observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StopReport {
    /// Whether every worker exited within the deadline.
    pub clean: bool,
    /// Session ids still live when the deadline expired (empty on a
    /// clean stop).
    pub live_sessions: Vec<u64>,
}

/// Aggregate counters across all workers and sessions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ManagerStats {
    /// Sessions currently live.
    pub open_sessions: u64,
    /// Sessions ever created (including restores).
    pub created: u64,
    /// Requests served across all sessions, ever.
    pub total_served: u64,
    /// Capacity violations across all sessions, ever.
    pub total_violations: u64,
}

#[derive(Default)]
struct Counters {
    created: AtomicU64,
    closed: AtomicU64,
    served: AtomicU64,
    violations: AtomicU64,
}

/// A completion callback: invoked at most once, on the worker thread
/// that executed the op, or inline by the submitting thread when the
/// op fails before reaching a worker. A worker that stops with the op
/// still queued drops it uncalled.
type Reply<T> = Box<dyn FnOnce(Result<T, ServeError>) + Send + 'static>;

/// One worker's state: its sessions, and what ops on them need.
struct Shard {
    sessions: HashMap<u64, Session>,
    registries: Arc<Registries>,
    counters: Arc<Counters>,
}

impl Shard {
    fn session(&mut self, id: u64) -> Result<&mut Session, ServeError> {
        self.sessions.get_mut(&id).ok_or_else(|| unknown(id))
    }

    /// Adds a created or restored session, counting what it served
    /// before it came here.
    fn insert(&mut self, id: u64, session: Session) -> SessionInfo {
        let report = session.report();
        let counters = &self.counters;
        counters.created.fetch_add(1, Ordering::Relaxed);
        counters.served.fetch_add(report.steps, Ordering::Relaxed);
        counters
            .violations
            .fetch_add(report.capacity_violations, Ordering::Relaxed);
        let info = SessionInfo {
            id,
            algorithm: report.algorithm.clone(),
            workload: report.workload.clone(),
            load_bound: session.load_bound(),
            steps: report.steps,
        };
        self.sessions.insert(id, session);
        info
    }
}

/// An op: runs on the worker that owns its shard, or with `None` on the
/// sending thread when that worker is gone. `None` in the queue stops
/// the worker once everything queued before it has run.
type Op = Box<dyn FnOnce(Option<&mut Shard>) + Send + 'static>;

/// The concurrent session pool. See the module docs for the sharding
/// and ordering model.
pub struct SessionManager {
    queues: Vec<Sender<Option<Op>>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// Never sent on: each worker holds a sender and drops it as it
    /// exits, on a normal return and on a panic alike, so this
    /// disconnects once the last worker is out.
    exited: Mutex<Receiver<()>>,
    next_id: AtomicU64,
    /// Shared with the ops `create`, `restore` and `close` send, which
    /// update it when they complete.
    shard_of: Arc<RwLock<HashMap<u64, usize>>>,
    counters: Arc<Counters>,
}

impl SessionManager {
    /// Spawns a manager with `workers` worker threads resolving specs
    /// through `registries`.
    ///
    /// # Panics
    /// Panics if `workers == 0`.
    #[must_use]
    pub fn new(workers: usize, registries: Registries) -> Self {
        assert!(workers > 0, "need at least one worker");
        let registries = Arc::new(registries);
        let counters = Arc::new(Counters::default());
        let (exit, exited) = unbounded::<()>();
        let mut queues = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let (tx, rx) = unbounded::<Option<Op>>();
            let regs = Arc::clone(&registries);
            let stats = Arc::clone(&counters);
            let exit = exit.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("rdbp-worker-{w}"))
                    .spawn(move || {
                        let _exit = exit;
                        let mut shard = Shard {
                            sessions: HashMap::new(),
                            registries: regs,
                            counters: stats,
                        };
                        while let Ok(Some(op)) = rx.recv() {
                            op(Some(&mut shard));
                        }
                    })
                    .expect("spawn worker thread"),
            );
            queues.push(tx);
        }
        Self {
            queues,
            handles: Mutex::new(handles),
            exited: Mutex::new(exited),
            next_id: AtomicU64::new(1),
            shard_of: Arc::new(RwLock::new(HashMap::new())),
            counters,
        }
    }

    /// A manager with one worker per available core (capped at 8) and
    /// the built-in registries.
    #[must_use]
    pub fn with_default_workers() -> Self {
        let workers = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(4)
            .clamp(1, 8);
        Self::new(workers, Registries::builtin())
    }

    /// Number of worker threads.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.queues.len()
    }

    /// Creates a session from a scenario spec; returns its identity.
    ///
    /// # Errors
    /// Returns a [`ServeError`] if the spec fails to resolve.
    pub fn create(&self, scenario: Scenario) -> Result<SessionInfo, ServeError> {
        wait(|done| self.create_async(scenario, done))
    }

    /// Restores a session from a [`SessionManager::snapshot`] blob
    /// under a fresh id.
    ///
    /// # Errors
    /// Returns a [`ServeError`] on any snapshot mismatch.
    pub fn restore(&self, snapshot: SnapshotBlob) -> Result<SessionInfo, ServeError> {
        wait(|done| self.restore_async(snapshot, done))
    }

    /// Submits work to a session (FIFO-ordered per session).
    ///
    /// # Errors
    /// Returns a [`ServeError`] for unknown sessions, submissions
    /// larger than [`MAX_SUBMIT`], or replayed edges outside the ring.
    pub fn submit(&self, id: u64, work: Work) -> Result<BatchSummary, ServeError> {
        wait(|done| self.submit_async(id, work, done))
    }

    /// Reads a session's current report without advancing it.
    ///
    /// # Errors
    /// Returns a [`ServeError`] for unknown sessions.
    pub fn query(&self, id: u64) -> Result<SessionStatus, ServeError> {
        wait(|done| self.query_async(id, done))
    }

    /// Captures a session's snapshot (the session stays live): the
    /// binary encoding of [`Session::snapshot`]'s tree.
    ///
    /// # Errors
    /// Returns a [`ServeError`] for unknown sessions or unsupported
    /// algorithms/workloads.
    pub fn snapshot(&self, id: u64) -> Result<SnapshotBlob, ServeError> {
        wait(|done| self.snapshot_async(id, done))
    }

    /// Closes a session, yielding its final report.
    ///
    /// # Errors
    /// Returns a [`ServeError`] for unknown sessions.
    pub fn close(&self, id: u64) -> Result<RunReport, ServeError> {
        wait(|done| self.close_async(id, done))
    }

    // --- asynchronous API: each op's one closure ---------------------

    /// Creates a session asynchronously; `done` runs on the worker
    /// thread once the outcome is known.
    pub fn create_async(
        &self,
        scenario: Scenario,
        done: impl FnOnce(Result<SessionInfo, ServeError>) + Send + 'static,
    ) {
        self.open(done, move |registries| Session::new(scenario, registries));
    }

    /// Restores a session from a snapshot asynchronously.
    pub fn restore_async(
        &self,
        snapshot: SnapshotBlob,
        done: impl FnOnce(Result<SessionInfo, ServeError>) + Send + 'static,
    ) {
        self.open(done, move |registries| {
            Session::restore(&snapshot.decode(), registries)
        });
    }

    /// Submits work asynchronously. Size-cap and routing errors
    /// complete `done` inline on the calling thread.
    pub fn submit_async(
        &self,
        id: u64,
        work: Work,
        done: impl FnOnce(Result<BatchSummary, ServeError>) + Send + 'static,
    ) {
        if let Err(e) = check_submit_size(&work) {
            return done(Err(e));
        }
        self.on_session(id, done, move |shard| {
            let session = shard.session(id)?;
            let before_violations = session.report().capacity_violations;
            let summary = match work {
                Work::Generate(steps) => session.submit(steps),
                Work::Replay(requests) => {
                    check_edges(&requests, session.instance().n())?;
                    session.submit_trace(&requests)
                }
            };
            let counters = &shard.counters;
            counters.served.fetch_add(summary.served, Ordering::Relaxed);
            counters
                .violations
                .fetch_add(summary.violations - before_violations, Ordering::Relaxed);
            Ok(summary)
        });
    }

    /// Queries a session's status asynchronously.
    pub fn query_async(
        &self,
        id: u64,
        done: impl FnOnce(Result<SessionStatus, ServeError>) + Send + 'static,
    ) {
        self.on_session(id, done, move |shard| {
            let session = shard.session(id)?;
            Ok(SessionStatus {
                id,
                report: session.report().clone(),
                load_bound: session.load_bound(),
                counters: session.work_counters(),
            })
        });
    }

    /// Captures a session snapshot asynchronously.
    pub fn snapshot_async(
        &self,
        id: u64,
        done: impl FnOnce(Result<SnapshotBlob, ServeError>) + Send + 'static,
    ) {
        self.on_session(id, done, move |shard| {
            let tree = shard.session(id)?.snapshot()?;
            Ok(SnapshotBlob::encode(&tree)?)
        });
    }

    /// Closes a session asynchronously; a closed session's id is
    /// forgotten.
    pub fn close_async(
        &self,
        id: u64,
        done: impl FnOnce(Result<RunReport, ServeError>) + Send + 'static,
    ) {
        let shard_of = Arc::clone(&self.shard_of);
        self.on_session(id, done, move |shard| {
            let session = shard.sessions.remove(&id).ok_or_else(|| unknown(id))?;
            shard_of.write().remove(&id);
            shard.counters.closed.fetch_add(1, Ordering::Relaxed);
            Ok(session.finish())
        });
    }

    /// Routes a fresh id to its shard, where `make` builds the session.
    /// A create or restore that fails forgets the id again.
    fn open(
        &self,
        done: impl FnOnce(Result<SessionInfo, ServeError>) + Send + 'static,
        make: impl FnOnce(&Registries) -> Result<Session, ServeError> + Send + 'static,
    ) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let shard = (id % self.queues.len() as u64) as usize;
        self.shard_of.write().insert(id, shard);
        let shard_of = Arc::clone(&self.shard_of);
        self.send(
            shard,
            Box::new(move |shard| {
                let result = match shard {
                    Some(shard) => make(&shard.registries).map(|session| shard.insert(id, session)),
                    None => Err(terminated()),
                };
                if result.is_err() {
                    shard_of.write().remove(&id);
                }
                done(result);
            }),
        );
    }

    /// Runs `body` on session `id`'s shard and answers `done` with its
    /// result, or fails `done` inline if the session is unknown.
    fn on_session<T: 'static>(
        &self,
        id: u64,
        done: impl FnOnce(Result<T, ServeError>) + Send + 'static,
        body: impl FnOnce(&mut Shard) -> Result<T, ServeError> + Send + 'static,
    ) {
        let Some(shard) = self.shard_of.read().get(&id).copied() else {
            return done(Err(unknown(id)));
        };
        self.send(
            shard,
            Box::new(move |shard| done(shard.map_or_else(|| Err(terminated()), body))),
        );
    }

    /// Queues `op` on `shard`'s worker, or runs it here without a shard
    /// if that worker is gone.
    fn send(&self, shard: usize, op: Op) {
        if let Err(SendError(Some(op))) = self.queues[shard].send(Some(op)) {
            op(None);
        }
    }

    /// Aggregate counters across all sessions ever.
    #[must_use]
    pub fn stats(&self) -> ManagerStats {
        let created = self.counters.created.load(Ordering::Relaxed);
        let closed = self.counters.closed.load(Ordering::Relaxed);
        ManagerStats {
            open_sessions: created.saturating_sub(closed),
            created,
            total_served: self.counters.served.load(Ordering::Relaxed),
            total_violations: self.counters.violations.load(Ordering::Relaxed),
        }
    }

    /// Asks every worker to finish its queued ops and exit, then joins
    /// the pool. Idempotent, and callable through a shared reference,
    /// so the server can stop the pool while connection callbacks still
    /// hold `Arc` clones of the manager.
    pub fn stop(&self) {
        for queue in &self.queues {
            let _ = queue.send(None);
        }
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.handles.lock());
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// [`SessionManager::stop`] with a bound: asks every worker to
    /// drain and exit, but waits at most `deadline` for the joins. On
    /// timeout the still-busy workers are left to finish in the
    /// background (a later [`SessionManager::stop`] can re-join them),
    /// and the sessions they strand are logged by id — so a wedged
    /// submission can delay process exit, but never block it silently.
    pub fn stop_with_deadline(&self, deadline: Duration) -> StopReport {
        for queue in &self.queues {
            let _ = queue.send(None);
        }
        // One timed receive, woken by the last worker out.
        let clean = matches!(
            self.exited.lock().recv_timeout(deadline),
            Err(RecvTimeoutError::Disconnected)
        );
        // After a clean wait every join only reaps a thread on its way
        // out; after a timeout, only the finished ones are joined.
        let mut pending = Vec::new();
        for handle in std::mem::take(&mut *self.handles.lock()) {
            if clean || handle.is_finished() {
                let _ = handle.join();
            } else {
                pending.push(handle);
            }
        }
        if pending.is_empty() {
            return StopReport {
                clean: true,
                live_sessions: Vec::new(),
            };
        }
        let mut live_sessions: Vec<u64> = self.shard_of.read().keys().copied().collect();
        live_sessions.sort_unstable();
        eprintln!(
            "rdbp-serve: {} worker(s) still busy at the {deadline:?} stop deadline; \
             sessions still live: {live_sessions:?}",
            pending.len(),
        );
        // Hand the stragglers back so the pool can still be joined
        // cleanly later.
        self.handles.lock().extend(pending);
        StopReport {
            clean: false,
            live_sessions,
        }
    }

    /// Stops every worker (open sessions are dropped) and joins the
    /// pool. Returns the final aggregate stats.
    #[must_use]
    pub fn shutdown(self) -> ManagerStats {
        self.stop();
        self.stats()
    }
}

fn check_submit_size(work: &Work) -> Result<(), ServeError> {
    let size = match work {
        Work::Generate(steps) => *steps,
        Work::Replay(requests) => requests.len() as u64,
    };
    if size > MAX_SUBMIT {
        return Err(ServeError(format!(
            "submission of {size} requests exceeds the per-call cap {MAX_SUBMIT}; \
             split it into batches"
        )));
    }
    Ok(())
}

/// Refuses a replay naming an edge the session's ring of `n` edges
/// does not have, before any of it is served.
fn check_edges(requests: &[Edge], n: u32) -> Result<(), ServeError> {
    match requests.iter().find(|edge| edge.0 >= n) {
        Some(edge) => Err(ServeError(format!(
            "replay edge {} is outside the ring's {n} edges (0..{n})",
            edge.0
        ))),
        None => Ok(()),
    }
}

/// Runs an async op and blocks until its reply arrives.
fn wait<T: Send + 'static>(start: impl FnOnce(Reply<T>)) -> Result<T, ServeError> {
    let (tx, rx) = unbounded();
    start(Box::new(move |result| {
        let _ = tx.send(result);
    }));
    rx.recv().map_err(|_| terminated())?
}

fn terminated() -> ServeError {
    ServeError("session worker terminated".into())
}

fn unknown(id: u64) -> ServeError {
    ServeError(format!("unknown session {id}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdbp_engine::{AlgorithmSpec, InstanceSpec, WorkloadSpec};

    fn scenario(seed: u64) -> Scenario {
        let mut s = Scenario::new(
            InstanceSpec::packed(4, 8),
            AlgorithmSpec::named("dynamic"),
            WorkloadSpec::named("uniform"),
            0,
        );
        s.seed = seed;
        s
    }

    #[test]
    fn manager_matches_single_session_run() {
        let manager = SessionManager::new(3, Registries::builtin());
        let info = manager.create(scenario(7)).unwrap();
        assert_eq!(info.algorithm, "dynamic-partitioner");
        for _ in 0..5 {
            manager.submit(info.id, Work::Generate(100)).unwrap();
        }
        let status = manager.query(info.id).unwrap();
        let report = manager.close(info.id).unwrap();
        assert_eq!(status.report, report);

        let mut direct = Session::new(scenario(7), &Registries::builtin()).unwrap();
        direct.submit(500);
        assert_eq!(direct.finish(), report);
        let stats = manager.shutdown();
        assert_eq!(stats.total_served, 500);
        assert_eq!(stats.open_sessions, 0);
    }

    #[test]
    fn many_concurrent_sessions_stay_isolated() {
        let manager = std::sync::Arc::new(SessionManager::new(4, Registries::builtin()));
        let solo: Vec<RunReport> = (0..8)
            .map(|i| {
                let mut s = Session::new(scenario(i), &Registries::builtin()).unwrap();
                s.submit(300);
                s.finish()
            })
            .collect();
        let ids: Vec<u64> = (0..8)
            .map(|i| manager.create(scenario(i)).unwrap().id)
            .collect();
        crossbeam::thread::scope(|scope| {
            for &id in &ids {
                let m = std::sync::Arc::clone(&manager);
                scope.spawn(move |_| {
                    for _ in 0..3 {
                        m.submit(id, Work::Generate(100)).unwrap();
                    }
                });
            }
        })
        .unwrap();
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(
                manager.close(id).unwrap(),
                solo[i],
                "session {i} diverged under concurrency"
            );
        }
    }

    #[test]
    fn oversized_submissions_are_rejected_up_front() {
        let manager = SessionManager::new(1, Registries::builtin());
        let id = manager.create(scenario(1)).unwrap().id;
        let err = manager
            .submit(id, Work::Generate(MAX_SUBMIT + 1))
            .expect_err("cap must hold");
        assert!(err.0.contains("per-call cap"), "{err}");
        // The session is untouched and still usable.
        let summary = manager.submit(id, Work::Generate(10)).unwrap();
        assert_eq!(summary.steps, 10);
    }

    #[test]
    fn a_replay_edge_outside_the_ring_is_refused_and_the_session_serves_on() {
        let manager = SessionManager::new(1, Registries::builtin());
        let id = manager.create(scenario(1)).unwrap().id;
        let err = manager
            .submit(id, Work::Replay(vec![Edge(3), Edge(1000)]))
            .expect_err("packed(4, 8) has edges 0..32");
        assert!(err.0.contains("replay edge 1000"), "{err}");
        // Nothing of the refused batch was served, and the worker lives.
        let summary = manager
            .submit(id, Work::Replay(vec![Edge(0), Edge(31)]))
            .unwrap();
        assert_eq!((summary.served, summary.steps), (2, 2));
        assert_eq!(manager.query(id).unwrap().report.steps, 2);
        assert!(manager.create(scenario(2)).is_ok());
    }

    #[test]
    fn a_ring_past_the_process_cap_is_refused_and_the_pool_serves_on() {
        let manager = SessionManager::new(1, Registries::builtin());
        let mut huge = scenario(1);
        huge.algorithm = AlgorithmSpec::named("never-move");
        huge.instance = InstanceSpec::packed(65_536, 65_535);
        let refused = |err: ServeError| {
            assert!(err.0.contains("n = 4294901760"), "{err}");
            assert!(err.0.contains(&MAX_PROCESSES.to_string()), "{err}");
        };
        refused(manager.create(huge.clone()).unwrap_err());
        // A snapshot naming the same ring is refused the same way.
        let mut session = Session::new(scenario(1), &Registries::builtin()).unwrap();
        session.submit(10);
        let serde::Value::Obj(mut fields) = session.snapshot().unwrap() else {
            panic!("a snapshot is an object")
        };
        for (key, value) in &mut fields {
            if key == "scenario" {
                *value = serde::Serialize::to_value(&huge);
            }
        }
        let blob = SnapshotBlob::encode(&serde::Value::Obj(fields)).unwrap();
        refused(manager.restore(blob).unwrap_err());
        let id = manager.create(scenario(2)).unwrap().id;
        assert_eq!(manager.submit(id, Work::Generate(10)).unwrap().steps, 10);
        assert_eq!(manager.stats().open_sessions, 1);
    }

    #[test]
    fn a_bad_epsilon_or_shift_is_refused_and_the_pool_serves_on() {
        // packed(4, 8) at the default ε = 0.5 has k′ = 12.
        let manager = SessionManager::new(1, Registries::builtin());
        let earlier = manager.create(scenario(1)).unwrap().id;
        let with = |name: &str, epsilon: Option<f64>, shift: Option<u32>| {
            let mut s = scenario(2);
            s.algorithm = AlgorithmSpec::named(name);
            s.algorithm.epsilon = epsilon;
            s.algorithm.shift = shift;
            s
        };
        for (spec, field) in [
            (with("dynamic", Some(0.0), None), "epsilon"),
            (with("dynamic", Some(-1.0), None), "epsilon"),
            (with("dynamic", Some(f64::NAN), None), "epsilon"),
            (with("dynamic", Some(f64::INFINITY), None), "epsilon"),
            (with("dynamic", None, Some(12)), "shift"),
            (with("dynamic", None, Some(999)), "shift"),
            (with("static", Some(0.0), None), "epsilon"),
            (with("static", Some(f64::NAN), None), "epsilon"),
        ] {
            let err = manager.create(spec.clone()).expect_err("must be refused");
            assert!(err.0.starts_with(field), "{:?}: {err}", spec.algorithm);
            let summary = manager.submit(earlier, Work::Generate(10)).unwrap();
            assert_eq!(summary.served, 10, "after {:?}", spec.algorithm);
        }
        let last = manager.create(with("dynamic", None, Some(11))).unwrap().id;
        assert_eq!(manager.submit(last, Work::Generate(10)).unwrap().steps, 10);
        assert_eq!(manager.query(earlier).unwrap().report.steps, 80);
    }

    #[test]
    fn unknown_sessions_error() {
        let manager = SessionManager::new(1, Registries::builtin());
        assert!(manager.submit(99, Work::Generate(1)).is_err());
        assert!(manager.query(99).is_err());
        assert!(manager.close(99).is_err());
    }

    #[test]
    fn failed_ops_forget_their_routes_and_a_stopped_pool_answers() {
        let manager = SessionManager::new(2, Registries::builtin());
        let bogus = Scenario::new(
            InstanceSpec::packed(4, 8),
            AlgorithmSpec::named("no-such-algorithm"),
            WorkloadSpec::named("uniform"),
            0,
        );
        assert!(manager.create(bogus.clone()).is_err());
        let (tx, rx) = unbounded();
        let reply = tx.clone();
        manager.create_async(bogus, move |result| {
            let _ = reply.send(result);
        });
        assert!(rx.recv().unwrap().is_err());
        let null = SnapshotBlob::encode(&serde::Value::Null).unwrap();
        assert!(manager.restore(null).is_err());
        let id = manager.create(scenario(1)).unwrap().id;
        manager.close(id).unwrap();
        assert!(manager.shard_of.read().is_empty());

        let id = manager.create(scenario(2)).unwrap().id;
        manager.stop();
        let terminated = |e: ServeError| assert_eq!(e.0, "session worker terminated");
        terminated(manager.submit(id, Work::Generate(1)).unwrap_err());
        terminated(manager.query(id).unwrap_err());
        terminated(manager.snapshot(id).unwrap_err());
        terminated(manager.close(id).unwrap_err());
        terminated(manager.create(scenario(3)).unwrap_err());
        // The async form is answered too, not dropped uncalled.
        manager.create_async(scenario(4), move |result| {
            let _ = tx.send(result);
        });
        terminated(rx.recv().unwrap().unwrap_err());
        assert_eq!(manager.shard_of.read().keys().collect::<Vec<_>>(), [&id]);
    }

    #[test]
    fn stop_deadline_reports_stranded_sessions_then_rejoins() {
        let manager = SessionManager::new(1, Registries::builtin());
        let id = manager.create(scenario(2)).unwrap().id;
        // Wedge the single worker with a near-cap submission (hundreds
        // of milliseconds at minimum), then stop with a tiny deadline:
        // the timeout path must fire and name the stranded session.
        manager.submit_async(id, Work::Generate(MAX_SUBMIT), |_| {});
        let report = manager.stop_with_deadline(Duration::from_millis(20));
        assert!(
            !report.clean,
            "worker cannot drain a {MAX_SUBMIT}-step batch in 20ms"
        );
        assert_eq!(report.live_sessions, vec![id]);
        // The straggler was handed back: an unbounded stop still joins
        // the pool cleanly once the batch completes.
        manager.stop();
        let report = manager.stop_with_deadline(Duration::from_millis(20));
        assert!(report.clean, "pool already joined");
    }

    #[test]
    fn stop_deadline_is_clean_on_an_idle_pool() {
        let manager = SessionManager::new(2, Registries::builtin());
        let id = manager.create(scenario(4)).unwrap().id;
        manager.submit(id, Work::Generate(50)).unwrap();
        let report = manager.stop_with_deadline(Duration::from_secs(5));
        assert!(report.clean);
        assert!(report.live_sessions.is_empty());
    }

    #[test]
    fn snapshot_restore_through_the_manager() {
        let manager = SessionManager::new(2, Registries::builtin());
        let a = manager.create(scenario(3)).unwrap().id;
        manager.submit(a, Work::Generate(250)).unwrap();
        let snap = manager.snapshot(a).unwrap();
        let b = manager.restore(snap).unwrap();
        assert_eq!(b.steps, 250);
        manager.submit(a, Work::Generate(250)).unwrap();
        manager.submit(b.id, Work::Generate(250)).unwrap();
        let ra = manager.close(a).unwrap();
        let rb = manager.close(b.id).unwrap();
        assert_eq!(ra, rb, "restored session diverged from original");
    }
}
