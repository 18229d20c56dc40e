//! The pinned perf-gate bench suite and its machine-readable report.
//!
//! A suite is a fixed list of [`BenchCase`]s — scenario × batch size ×
//! serving shape — chosen to span the registries: every `dynamic` MTS
//! policy (`hedge`, `wfa`, `smin`, `marking`), the baselines, oblivious
//! and adaptive workloads, trace replay, per-step (`batch = 1`) and
//! large-batch driving, and both audit levels — plus the
//! [`WireCase`]s, which drive one deterministic session fleet over
//! real TCP under both wire protocols, either straight into one
//! reactor or through an `rdbp-router` over several backends that
//! live-migrates every session mid-run, and the [`OracleCase`]s.
//! Running a suite yields a [`BenchReport`]: per case the exact
//! [`WorkCounters`] (the *gated* signal — deterministic for a pinned
//! scenario + seed) and the wall-clock of its measured phase (the
//! *informational* signal — never gated; see DESIGN.md §10).
//!
//! Reports serialize as versioned `BENCH_<suite>.json` files under
//! `bench_results/`; `bench_results/BENCH_main.json` is the committed
//! baseline CI compares against (see [`crate::perfgate`]).

use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::{DeError, Deserialize, Serialize, Value};

use rdbp_cluster::{serve_router, Cluster, ClusterConfig};
use rdbp_engine::{
    workload_seed, AlgorithmSpec, AuditSpec, InstanceSpec, Registries, Scenario, WorkloadSpec,
};
use rdbp_model::{Edge, NoopObserver, Placement, WorkCounters};
use rdbp_serve::{serve, Client, Proto, Request, Response, SessionManager, Work};

/// Version of the `BENCH_*.json` schema. Bumped on any incompatible
/// change to the report layout or to the [`WorkCounters`] metric set;
/// [`crate::perfgate::compare`] refuses to diff mismatched versions.
///
/// v2: the metric set grew the offline-oracle counters
/// (`oracle_cut_evals`, `oracle_rounding_passes`) and the suite grew
/// the oracle cases.
pub const BENCH_SCHEMA_VERSION: u64 = 2;

/// Name of the pinned default suite (and of its committed baseline,
/// `bench_results/BENCH_main.json`).
pub const MAIN_SUITE: &str = "main";

/// Default number of timed repetitions per case (counters are asserted
/// identical across repetitions; wall-clock takes the minimum).
pub const DEFAULT_REPEATS: u32 = 3;

/// One pinned benchmark: a scenario plus how to drive it.
#[derive(Debug, Clone)]
pub struct BenchCase {
    /// Stable case id (doubles as the report key — renaming one is a
    /// baseline change).
    pub id: String,
    /// The fully pinned scenario (instance, algorithm, workload, steps,
    /// seed, audit). Never scaled by `RDBP_FULL`: the gate diffs exact
    /// counters, so the workload must be bit-identical everywhere.
    pub scenario: Scenario,
    /// Driver batch size (1 = the per-step path).
    pub batch: u64,
    /// Serve a pre-recorded trace of the scenario's workload instead of
    /// generating live (exercises the replay path; oblivious workloads
    /// only).
    pub replay: bool,
}

impl BenchCase {
    fn new(
        id: &str,
        algorithm: &str,
        policy: Option<&str>,
        workload: &str,
        steps: u64,
        batch: u64,
        audit: AuditSpec,
    ) -> Self {
        let mut alg = AlgorithmSpec::named(algorithm);
        alg.policy = policy.map(Into::into);
        let mut scenario = Scenario::new(
            InstanceSpec::packed(8, 32),
            alg,
            WorkloadSpec::named(workload),
            steps,
        );
        scenario.seed = 0x5EED + steps; // pinned, distinct per case size
        scenario.audit = audit;
        Self {
            id: id.to_string(),
            scenario,
            batch,
            replay: false,
        }
    }
}

/// The measured outcome of one [`BenchCase`].
#[derive(Debug, Clone, PartialEq)]
pub struct CaseResult {
    /// The case id.
    pub id: String,
    /// Requests served.
    pub steps: u64,
    /// Exact work counters — identical across repeats and machines for
    /// a pinned case; this is what the gate diffs.
    pub counters: WorkCounters,
    /// Minimum wall-clock of the measured phase over the repeats,
    /// nanoseconds (informational only): the algorithm run for an
    /// in-process case, the client drive for a wire case, and the
    /// whole evaluation for an oracle case.
    pub wall_ns: u64,
    /// `steps / wall` requests per second (informational only).
    pub throughput: f64,
}

/// A whole suite run: the `BENCH_<suite>.json` payload.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// [`BENCH_SCHEMA_VERSION`] at write time.
    pub schema_version: u64,
    /// Suite name (e.g. [`MAIN_SUITE`]).
    pub suite: String,
    /// Per-case results, in suite order.
    pub cases: Vec<CaseResult>,
}

impl BenchReport {
    /// Looks a case up by id.
    #[must_use]
    pub fn case(&self, id: &str) -> Option<&CaseResult> {
        self.cases.iter().find(|c| c.id == id)
    }

    /// Serializes to JSON text.
    ///
    /// # Panics
    /// Never in practice: reports always serialize.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("bench report serialization cannot fail")
    }

    /// Parses a report from JSON text (any schema version — the
    /// version check happens in [`crate::perfgate::compare`]).
    ///
    /// # Errors
    /// Returns a [`DeError`] on malformed JSON or a shape mismatch.
    pub fn from_json(text: &str) -> Result<Self, DeError> {
        serde_json::from_str(text).map_err(|e| DeError(e.to_string()))
    }

    /// Writes the report as JSON to `path`.
    ///
    /// # Errors
    /// Returns any underlying I/O error.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Loads a report from a JSON file.
    ///
    /// # Errors
    /// Returns any underlying I/O or parse error.
    pub fn load(path: &Path) -> std::io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        Self::from_json(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.0))
    }
}

// ---------------------------------------------------------------------
// Hand-written serde: the report schema is a contract (pinned by the
// golden round-trip test), so it is spelled out rather than derived.

impl Serialize for CaseResult {
    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("id".into(), self.id.to_value()),
            ("steps".into(), self.steps.to_value()),
            ("counters".into(), self.counters.to_value()),
            ("wall_ns".into(), self.wall_ns.to_value()),
            ("throughput".into(), self.throughput.to_value()),
        ])
    }
}

impl Deserialize for CaseResult {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(Self {
            id: String::from_value(v.get_field("id")?)?,
            steps: u64::from_value(v.get_field("steps")?)?,
            counters: WorkCounters::from_value(v.get_field("counters")?)?,
            wall_ns: u64::from_value(v.get_field("wall_ns")?)?,
            throughput: f64::from_value(v.get_field("throughput")?)?,
        })
    }
}

impl Serialize for BenchReport {
    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("schema_version".into(), self.schema_version.to_value()),
            ("suite".into(), self.suite.to_value()),
            ("cases".into(), self.cases.to_value()),
        ])
    }
}

impl Deserialize for BenchReport {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(Self {
            schema_version: u64::from_value(v.get_field("schema_version")?)?,
            suite: String::from_value(v.get_field("suite")?)?,
            cases: <Vec<CaseResult> as Deserialize>::from_value(v.get_field("cases")?)?,
        })
    }
}

/// The pinned `main` suite: ~10 cases spanning the registries
/// (including the `bisection` and `learning` family algorithms against
/// the S8 adversary workloads). Case ids,
/// scenarios, seeds, step counts and batch sizes are all frozen — any
/// change here invalidates the committed `BENCH_main.json` baseline and
/// requires regenerating it in the same commit.
#[must_use]
pub fn pinned_cases() -> Vec<BenchCase> {
    let mut cases = vec![
        // The serving hot path: large batches, no audit — the S2/S3
        // throughput shape.
        BenchCase::new(
            "dyn-hedge-zipf-b1000-none",
            "dynamic",
            Some("hedge"),
            "zipf",
            40_000,
            1_000,
            AuditSpec::None,
        ),
        // Same shape under the full journal audit.
        BenchCase::new(
            "dyn-hedge-uniform-b1000-full",
            "dynamic",
            Some("hedge"),
            "uniform",
            40_000,
            1_000,
            AuditSpec::Full,
        ),
        // The per-step driver (batch = 1) with the deterministic
        // work-function policy.
        BenchCase::new(
            "dyn-wfa-uniform-b1-full",
            "dynamic",
            Some("wfa"),
            "uniform",
            8_000,
            1,
            AuditSpec::Full,
        ),
        // Randomized smin gradient against a rotating hotspot.
        BenchCase::new(
            "dyn-smin-hotspot-b1000-full",
            "dynamic",
            Some("smin"),
            "hotspot",
            40_000,
            1_000,
            AuditSpec::Full,
        ),
        // The uniform-metric marking reference policy.
        BenchCase::new(
            "dyn-marking-zipf-b1000-none",
            "dynamic",
            Some("marking"),
            "zipf",
            40_000,
            1_000,
            AuditSpec::None,
        ),
        // A baseline algorithm against the adaptive cut-chaser (adaptive
        // workloads force per-request generation inside the batch).
        BenchCase::new(
            "greedy-chaser-b1000-full",
            "greedy",
            None,
            "chaser",
            10_000,
            1_000,
            AuditSpec::Full,
        ),
        // The static partitioner's serve loop.
        BenchCase::new(
            "static-uniform-b1000-full",
            "static",
            None,
            "uniform",
            40_000,
            1_000,
            AuditSpec::Full,
        ),
        // The related-work cost-model families against the adversary
        // workloads introduced with them (S8). Online bisection is a
        // two-server model, so its case overrides the suite's default
        // instance shape (same n, ℓ = 2).
        {
            let mut case = BenchCase::new(
                "bisection-greedycut-b1000-full",
                "bisection",
                None,
                "greedy-cut",
                10_000,
                1_000,
                AuditSpec::Full,
            );
            case.scenario.instance = InstanceSpec::packed(2, 128);
            case
        },
        BenchCase::new(
            "learning-separation-b1000-full",
            "learning",
            None,
            "separation",
            10_000,
            1_000,
            AuditSpec::Full,
        ),
    ];
    // Trace replay through the per-step driver.
    let mut replay = BenchCase::new(
        "dyn-hedge-replay-full",
        "dynamic",
        Some("hedge"),
        "uniform",
        20_000,
        1,
        AuditSpec::Full,
    );
    replay.replay = true;
    cases.push(replay);
    cases
}

/// Where a [`WireCase`] serves its session fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireTarget {
    /// One bare `rdbp-serve` reactor: no router, no migration.
    Direct,
    /// An `rdbp-router` frontend over in-process `rdbp-serve` reactors.
    ///
    /// The cluster runs quiescent ([`ClusterConfig::quiescent`] — no
    /// background pings, snapshots or rebalance moves land between
    /// measured ops) and entirely in-process (each backend is an
    /// ordinary reactor on a loopback listener the router attaches
    /// to), so the merged counters are exactly as deterministic as a
    /// direct case's.
    Routed {
        /// Reactors the router fronts.
        backends: usize,
        /// Before this batch round every connection live-migrates all
        /// of its sessions to the least-loaded other backend (requires
        /// `backends >= 2`); `None` drives without migrations.
        migrate_after: Option<u64>,
    },
}

/// One pinned wire-layer benchmark: a fleet of pinned sessions driven
/// over real TCP into a [`WireTarget`], with many connections
/// multiplexed onto fixed worker pools.
///
/// Counters are the merged per-session [`WorkCounters`] fetched over
/// the wire (`query`) before closing — deterministic for pinned
/// scenarios regardless of connection interleaving, worker sharding,
/// routing or migration, so they gate exactly like the in-process
/// cases. Cases with the same fleet shape must produce *identical*
/// counters whatever their encoding or target: the wire protocol is an
/// encoding, and routing and live migration are placement, not
/// behavior.
#[derive(Debug, Clone)]
pub struct WireCase {
    /// Stable case id (report key).
    pub id: String,
    /// A bare reactor, or a router over several.
    pub target: WireTarget,
    /// Concurrent TCP connections (one client thread each).
    pub connections: u64,
    /// Sessions multiplexed on each connection.
    pub sessions_per_connection: u64,
    /// Submitted batches per session.
    pub batches: u64,
    /// Requests per batch.
    pub batch: u64,
    /// Worker threads per reactor (pinned — the thread count is part
    /// of the benchmark shape, not taken from the machine).
    pub workers: usize,
    /// Drive the NDJSON debug protocol instead of binary frames.
    pub ndjson: bool,
}

impl WireCase {
    /// Total requests the case serves.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.connections * self.sessions_per_connection * self.batches * self.batch
    }

    /// Boots the target, drives the fleet through it, and tears
    /// everything down in order. Returns the merged session counters
    /// and the wall-clock of the drive phase alone.
    fn run_once(&self) -> (WorkCounters, Duration) {
        let (backends, migrate_after) = match self.target {
            WireTarget::Direct => (1, None),
            WireTarget::Routed {
                backends,
                migrate_after,
            } => (backends, migrate_after),
        };
        let servers: Vec<_> = (0..backends)
            .map(|_| {
                let listener = TcpListener::bind("127.0.0.1:0").expect("bind server listener");
                let addr = listener.local_addr().expect("server address");
                let manager = SessionManager::new(self.workers, Registries::builtin());
                (addr, std::thread::spawn(move || serve(listener, manager)))
            })
            .collect();
        let router = (self.target != WireTarget::Direct).then(|| {
            let mut config = ClusterConfig::quiescent();
            config.attach = servers.iter().map(|&(addr, _)| addr).collect();
            let cluster = Cluster::start(&config).expect("cluster start");
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind router listener");
            let addr = listener.local_addr().expect("router address");
            let handle = {
                let cluster = Arc::clone(&cluster);
                std::thread::spawn(move || serve_router(listener, &cluster, Proto::Auto))
            };
            (addr, handle, cluster)
        });
        let addr = router.as_ref().map_or(servers[0].0, |&(addr, ..)| addr);
        let (merged, drive) = timed(|| drive_wire_sessions(self, addr, migrate_after));
        if let Some((addr, handle, cluster)) = router {
            wire_shutdown(addr);
            handle
                .join()
                .expect("router thread")
                .expect("router exited with an error");
            cluster.shutdown();
        }
        for (addr, handle) in servers {
            wire_shutdown(addr);
            handle
                .join()
                .expect("server thread")
                .expect("server exited with an error");
        }
        (merged, drive)
    }
}

/// The pinned scenario of the wire-driven session with global index
/// `index`, shared by every [`WireCase`] so their fleets are
/// interchangeable: dynamic×hedge on zipf, ℓ=8 k=32, full
/// audit, seed `0xC0DE + index`.
fn wire_session_scenario(index: u64) -> Scenario {
    let mut algorithm = AlgorithmSpec::named("dynamic");
    algorithm.policy = Some("hedge".into());
    let mut scenario = Scenario::new(
        InstanceSpec::packed(8, 32),
        algorithm,
        WorkloadSpec::named("zipf"),
        0,
    );
    scenario.seed = 0xC0DE + index; // pinned, distinct per session
    scenario.audit = AuditSpec::Full;
    scenario
}

/// Drives `case`'s fleet of `connections × sessions_per_connection`
/// pinned sessions over TCP against `addr` (one client thread per
/// connection, sessions advancing batch-by-batch interleaved on their
/// shared connection — the multiplexing shape the reactor exists for)
/// and returns the merged over-the-wire counters queried before
/// closing. With `migrate_after = Some(n)` each connection additionally
/// asks the server to live-migrate every one of its sessions right
/// before its `n`-th batch round — meaningful against a router
/// frontend only (a plain `rdbp-serve` rejects the op).
fn drive_wire_sessions(
    case: &WireCase,
    addr: SocketAddr,
    migrate_after: Option<u64>,
) -> WorkCounters {
    let &WireCase {
        connections,
        sessions_per_connection,
        batches,
        batch,
        ndjson,
        ..
    } = case;
    let mut merged = WorkCounters::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = if ndjson {
                        Client::connect_ndjson(addr)
                    } else {
                        Client::connect(addr)
                    }
                    .expect("connect bench client");
                    let expect = |response: Response| match response {
                        Response::Error { message } => panic!("serve bench: {message}"),
                        other => other,
                    };
                    let ids: Vec<u64> = (0..sessions_per_connection)
                        .map(|s| {
                            let index = c * sessions_per_connection + s;
                            let scenario = Box::new(wire_session_scenario(index));
                            match expect(
                                client.call(&Request::Create { scenario }).expect("create"),
                            ) {
                                Response::Created { info } => info.id,
                                other => panic!("expected created, got {other:?}"),
                            }
                        })
                        .collect();
                    for round in 0..batches {
                        if migrate_after == Some(round) {
                            for &session in &ids {
                                let migrate = Request::Migrate {
                                    session,
                                    backend: None,
                                };
                                match expect(client.call(&migrate).expect("migrate")) {
                                    Response::Migrated { .. } => {}
                                    other => panic!("expected migrated, got {other:?}"),
                                }
                            }
                        }
                        for &session in &ids {
                            let work = Work::Generate(batch);
                            expect(
                                client
                                    .call(&Request::Submit { session, work })
                                    .expect("submit"),
                            );
                        }
                    }
                    let mut counters = WorkCounters::default();
                    for &session in &ids {
                        match expect(client.call(&Request::Query { session }).expect("query")) {
                            Response::Status { status } => counters.merge(&status.counters),
                            other => panic!("expected status, got {other:?}"),
                        }
                        expect(client.call(&Request::Close { session }).expect("close"));
                    }
                    counters
                })
            })
            .collect();
        for handle in handles {
            merged.merge(&handle.join().expect("bench connection thread"));
        }
    });
    merged
}

/// Sends a wire `shutdown` to `addr` and insists on the `bye`.
fn wire_shutdown(addr: SocketAddr) {
    let mut closer = Client::connect(addr).expect("connect for shutdown");
    match closer.call(&Request::Shutdown).expect("shutdown") {
        Response::Bye => {}
        other => panic!("expected bye, got {other:?}"),
    }
}

/// The pinned wire-layer cases of the `main` suite: one fleet shape,
/// served directly by one reactor and routed through a 3-backend
/// cluster with a forced mid-run live migration of all 32 sessions,
/// each once per wire protocol. The four cases carry one pinned
/// session fleet (same scenarios, same batch shape), so the committed
/// baseline *pins* that binary and NDJSON serving perform the same
/// deterministic work and that routing and migration leave every work
/// counter untouched: all four rows carry *identical* counters.
#[must_use]
pub fn pinned_wire_cases() -> Vec<WireCase> {
    let shape = |id: &str, target, workers, ndjson| WireCase {
        id: id.to_string(),
        target,
        connections: 16,
        sessions_per_connection: 2,
        batches: 4,
        batch: 250,
        workers,
        ndjson,
    };
    let routed = WireTarget::Routed {
        backends: 3,
        migrate_after: Some(2),
    };
    vec![
        shape("serve-16conn-binary", WireTarget::Direct, 4, false),
        shape("serve-16conn-ndjson", WireTarget::Direct, 4, true),
        shape("cluster-3x16conn-binary", routed, 2, false),
        shape("cluster-3x16conn-ndjson", routed, 2, true),
    ]
}

/// One pinned oracle benchmark: a pinned workload trace pushed through
/// the ringload oracle (certified dynamic-OPT bounds, the hot loop of
/// the S6 ratio sweep) plus a seeded classical ring-loading instance
/// pushed through the `O(n²)` split scan and the unsplit rounding.
///
/// The gated signal is the oracle work — `oracle_cut_evals` /
/// `oracle_rounding_passes` — which is deterministic for a pinned
/// trace and demand seed; `requests` is set to the trace length so the
/// shared measurement harness can assert the case served its steps.
#[derive(Debug, Clone)]
pub struct OracleCase {
    /// Stable case id (report key).
    pub id: String,
    /// Pinned scenario whose workload supplies the trace (the
    /// algorithm is never run — oracles bound OPT, not the online
    /// cost).
    pub scenario: Scenario,
    /// Seeded ring-loading demands evaluated by the classical solver.
    pub demands: u32,
    /// Seed for the demand set (chained through [`workload_seed`]).
    pub demand_seed: u64,
}

impl OracleCase {
    fn new(id: &str, workload: &str, steps: u64, demands: u32, demand_seed: u64) -> Self {
        let mut algorithm = AlgorithmSpec::named("dynamic");
        algorithm.policy = Some("hedge".into());
        let mut scenario = Scenario::new(
            InstanceSpec::packed(8, 32),
            algorithm,
            WorkloadSpec::named(workload),
            steps,
        );
        scenario.seed = 0x0AC1E + steps; // pinned, distinct per case size
        scenario.audit = AuditSpec::None;
        Self {
            id: id.to_string(),
            scenario,
            demands,
            demand_seed,
        }
    }

    /// The seeded demand set: endpoints and amounts drawn from a
    /// [`workload_seed`] chain — deterministic, instance-shaped.
    fn demand_set(&self, n: u32) -> Vec<rdbp_ringload::Demand> {
        let mut state = self.demand_seed;
        let mut draw = || {
            state = workload_seed(state);
            state
        };
        (0..self.demands)
            .map(|_| {
                let from = (draw() % u64::from(n)) as u32;
                let delta = 1 + (draw() % u64::from(n - 1)) as u32;
                let amount = 1 + draw() % 9;
                rdbp_ringload::Demand::new(from, (from + delta) % n, amount)
            })
            .collect()
    }

    /// Bounds the trace with the ringload oracle and solves the seeded
    /// ring-loading instance, returning the merged work counters.
    fn run_once(&self, trace: &[Edge]) -> WorkCounters {
        use rdbp_offline::OfflineOracle as _;
        let instance = self
            .scenario
            .instance
            .build()
            .expect("pinned instance must build");
        let initial = Placement::contiguous(&instance);
        let mut oracle = rdbp_ringload::RingloadOracle::new();
        let lb = oracle.lower_bound(&instance, &initial, trace);
        let ub = oracle
            .upper_bound(&instance, &initial, trace)
            .expect("ringload always has an upper bound");
        assert!(lb <= ub, "case {}: certificate inverted", self.id);
        let mut counters = oracle.work_counters();

        let mut solver =
            rdbp_ringload::RingLoading::new(instance.n(), self.demand_set(instance.n()));
        let split = solver.split_optimum();
        let rounded = solver.round_unsplit();
        assert!(
            split <= rounded.max_load as f64,
            "case {}: rounding below the split optimum",
            self.id
        );
        counters.merge(&solver.work_counters());
        // The shared harness gates on "served exactly the pinned
        // steps"; an oracle case's unit of service is a trace element.
        counters.requests = trace.len() as u64;
        counters
    }
}

/// The pinned oracle cases of the `main` suite: the ringload oracle +
/// classical solver over two workload shapes (skew and drift). These
/// gate the S6 ratio-sweep hot path the same way the serve cases gate
/// the wire path.
#[must_use]
pub fn pinned_oracle_cases() -> Vec<OracleCase> {
    vec![
        OracleCase::new("oracle-ringload-zipf", "zipf", 20_000, 96, 0x0DD5),
        OracleCase::new("oracle-ringload-sliding", "sliding", 20_000, 96, 0x0DD6),
    ]
}

/// Runs `f`, returning its result and how long it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// One warm-up pass plus `repeats` runs of `run`, which returns its
/// counters and the wall-clock of its measured phase: counters are
/// asserted bit-identical across repetitions and to have served
/// exactly `steps` requests; wall-clock takes the minimum.
fn measure_case(
    id: &str,
    steps: u64,
    repeats: u32,
    run: impl Fn() -> (WorkCounters, Duration),
) -> CaseResult {
    let _ = run(); // warm-up (thread-pool and page-in)
    let mut counters: Option<WorkCounters> = None;
    let mut best_ns = u64::MAX;
    for rep in 0..repeats {
        let (c, wall) = run();
        let elapsed = wall.as_nanos().min(u128::from(u64::MAX)) as u64;
        match &counters {
            None => counters = Some(c),
            Some(first) => assert_eq!(
                *first, c,
                "case {id}: counters drifted between repetitions {rep}"
            ),
        }
        best_ns = best_ns.min(elapsed.max(1));
    }
    let counters = counters.expect("at least one repetition ran");
    assert_eq!(counters.requests, steps, "case {id}: under-served");
    CaseResult {
        id: id.to_string(),
        steps,
        counters,
        wall_ns: best_ns,
        throughput: steps as f64 / (best_ns as f64 / 1e9),
    }
}

/// Runs wire-layer cases with one warm-up pass and `repeats` timed
/// repetitions each, mirroring [`run_cases`]: merged counters are
/// asserted bit-identical across repetitions (which, for a migrating
/// case, is the determinism claim of the whole migration design:
/// placement changes may never show up in the counters), and
/// wall-clock takes the minimum drive phase — boot and teardown are
/// not timed.
///
/// # Panics
/// Panics if `repeats == 0`, on any server/cluster/protocol error, or
/// if counters drift between repetitions.
#[must_use]
pub fn run_wire_cases(cases: &[WireCase], repeats: u32) -> Vec<CaseResult> {
    assert!(repeats > 0, "need at least one repetition");
    cases
        .iter()
        .map(|case| measure_case(&case.id, case.steps(), repeats, || case.run_once()))
        .collect()
}

/// Runs oracle cases through the shared measurement harness: the
/// pinned trace is recorded once, then warm-up + `repeats` timed
/// oracle evaluations with counters asserted bit-identical across
/// repetitions — the determinism claim `rdbp-sim --ratio` and the S6
/// sweep rely on.
///
/// # Panics
/// Panics if `repeats == 0`, a case fails to resolve, a certificate
/// inverts (LB > UB), or counters drift between repetitions.
#[must_use]
pub fn run_oracle_cases(cases: &[OracleCase], repeats: u32) -> Vec<CaseResult> {
    assert!(repeats > 0, "need at least one repetition");
    let registries = Registries::builtin();
    cases
        .iter()
        .map(|case| {
            let trace = record_scenario_trace(&case.id, &case.scenario, &registries);
            measure_case(&case.id, case.scenario.steps, repeats, || {
                timed(|| case.run_once(&trace))
            })
        })
        .collect()
}

/// Pre-records `scenario.steps` requests of the scenario's workload
/// (resolved with the scenario's derived workload seed, exactly as a
/// live run would) against the canonical contiguous placement.
///
/// # Panics
/// Panics if the workload is adaptive — an adaptive adversary has no
/// placement-independent trace.
fn record_scenario_trace(id: &str, scenario: &Scenario, registries: &Registries) -> Vec<Edge> {
    let instance = scenario
        .instance
        .build()
        .expect("pinned instance must build");
    let mut workload = registries
        .workloads
        .resolve(&scenario.workload, &instance, workload_seed(scenario.seed))
        .expect("pinned workload must resolve");
    assert!(
        !workload.is_adaptive(),
        "case {id}: cannot pre-record an adaptive workload"
    );
    let placement = Placement::contiguous(&instance);
    let mut requests = Vec::with_capacity(scenario.steps as usize);
    workload.fill_batch(&placement, scenario.steps, &mut requests);
    requests
}

fn record_trace(case: &BenchCase, registries: &Registries) -> Vec<Edge> {
    record_scenario_trace(&case.id, &case.scenario, registries)
}

/// Runs `cases` with one warm-up pass and `repeats` timed repetitions
/// each, returning the suite report.
///
/// Counters come from the first timed repetition and are asserted
/// bit-identical across all of them — a drift here means the scenario
/// is not actually deterministic, which the perf gate is built on.
/// Wall-clock times [`rdbp_engine::PreparedScenario::run`] alone (not
/// `resolve`) and takes the minimum over the repetitions.
///
/// # Panics
/// Panics if `repeats == 0`, a case fails to resolve, or counters
/// drift between repetitions.
#[must_use]
pub fn run_cases(suite: &str, cases: &[BenchCase], repeats: u32) -> BenchReport {
    assert!(repeats > 0, "need at least one repetition");
    let registries = Registries::builtin();
    let results = cases
        .iter()
        .map(|case| {
            let trace = case.replay.then(|| record_trace(case, &registries));
            measure_case(&case.id, case.scenario.steps, repeats, || {
                let prepared = case
                    .scenario
                    .resolve(&registries)
                    .unwrap_or_else(|e| panic!("case {}: {e}", case.id));
                let ((_, counters), wall) =
                    timed(|| prepared.run(trace.as_deref(), case.batch, &mut NoopObserver));
                (counters, wall)
            })
        })
        .collect();
    BenchReport {
        schema_version: BENCH_SCHEMA_VERSION,
        suite: suite.to_string(),
        cases: results,
    }
}

/// Runs a named suite ([`MAIN_SUITE`] is the only built-in one): the
/// in-process [`pinned_cases`], then the over-the-wire
/// [`pinned_wire_cases`], then the offline [`pinned_oracle_cases`].
///
/// # Panics
/// Panics on an unknown suite name (callers validate beforehand) and
/// under the same conditions as [`run_cases`] / [`run_wire_cases`] /
/// [`run_oracle_cases`].
#[must_use]
pub fn run_suite(suite: &str, repeats: u32) -> BenchReport {
    assert_eq!(suite, MAIN_SUITE, "unknown suite `{suite}` (valid: main)");
    let mut report = run_cases(suite, &pinned_cases(), repeats);
    report
        .cases
        .extend(run_wire_cases(&pinned_wire_cases(), repeats));
    report
        .cases
        .extend(run_oracle_cases(&pinned_oracle_cases(), repeats));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_case_ids_are_unique_and_cover_the_policy_matrix() {
        let cases = pinned_cases();
        assert!(cases.len() >= 8, "the suite spans ≥ 8 cases");
        let mut ids: Vec<&str> = cases.iter().map(|c| c.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), cases.len(), "case ids must be unique");
        for policy in ["hedge", "wfa", "smin", "marking"] {
            assert!(
                cases
                    .iter()
                    .any(|c| c.scenario.algorithm.policy.as_deref() == Some(policy)),
                "suite must cover dynamic×{policy}"
            );
        }
        for family in ["bisection", "learning"] {
            assert!(
                cases.iter().any(|c| c.scenario.algorithm.name == family),
                "suite must cover the {family} family algorithm"
            );
        }
        assert!(cases.iter().any(|c| c.batch == 1), "per-step case");
        assert!(cases.iter().any(|c| c.batch >= 1000), "batched case");
        assert!(cases.iter().any(|c| c.replay), "replay case");
        assert!(
            cases.iter().any(|c| c.scenario.audit == AuditSpec::None)
                && cases.iter().any(|c| c.scenario.audit == AuditSpec::Full),
            "both audit levels"
        );
    }

    #[test]
    fn pinned_serve_cases_are_protocol_twins() {
        let cases: Vec<WireCase> = pinned_wire_cases()
            .into_iter()
            .filter(|c| c.target == WireTarget::Direct)
            .collect();
        assert_eq!(cases.len(), 2, "one shape, once per wire protocol");
        let ids: Vec<&str> = cases.iter().map(|c| c.id.as_str()).collect();
        assert!(ids.contains(&"serve-16conn-binary"));
        assert!(ids.contains(&"serve-16conn-ndjson"));
        let [a, b] = &cases[..] else { unreachable!() };
        assert_ne!(a.ndjson, b.ndjson, "twins differ only in encoding");
        assert_eq!(a.steps(), b.steps());
        assert_eq!(a.connections, b.connections);
        assert!(
            a.connections > a.workers as u64,
            "more connections than worker threads"
        );
        // Every wire case drives the one shared pinned per-session
        // scenario — spot-check its pins.
        let scenario = wire_session_scenario(7);
        assert_eq!(scenario.seed, 0xC0DE + 7, "per-session seeds stay pinned");
        assert_eq!(scenario.audit, AuditSpec::Full);
    }

    #[test]
    fn pinned_cluster_cases_are_routed_twins_of_the_serve_cases() {
        let wire = pinned_wire_cases();
        let (serve, cluster): (Vec<&WireCase>, Vec<&WireCase>) =
            wire.iter().partition(|c| c.target == WireTarget::Direct);
        assert_eq!(cluster.len(), 2, "one shape, once per wire protocol");
        let ids: Vec<&str> = cluster.iter().map(|c| c.id.as_str()).collect();
        assert!(ids.contains(&"cluster-3x16conn-binary"));
        assert!(ids.contains(&"cluster-3x16conn-ndjson"));
        let [a, b] = &cluster[..] else { unreachable!() };
        assert_ne!(a.ndjson, b.ndjson, "twins differ only in encoding");
        assert_eq!(a.steps(), b.steps());
        assert_eq!(a.target, b.target);
        let WireTarget::Routed {
            backends,
            migrate_after,
        } = a.target
        else {
            unreachable!()
        };
        assert!(backends >= 2, "migration needs somewhere to go");
        let round = migrate_after.expect("the cluster cases must migrate");
        assert!(
            round > 0 && round < a.batches,
            "the forced migration lands mid-run"
        );
        // The fleet is the serve twins' fleet exactly — that is what
        // lets the baseline pin serve and cluster counters as equal.
        let serve = serve[0];
        assert_eq!(a.steps(), serve.steps());
        assert_eq!(a.connections, serve.connections);
        assert_eq!(a.sessions_per_connection, serve.sessions_per_connection);
        assert_eq!(a.batches, serve.batches);
        assert_eq!(a.batch, serve.batch);
    }

    #[test]
    fn pinned_oracle_cases_are_pinned_and_runnable() {
        let cases = pinned_oracle_cases();
        assert_eq!(cases.len(), 2, "two oracle shapes");
        let ids: Vec<&str> = cases.iter().map(|c| c.id.as_str()).collect();
        assert!(ids.contains(&"oracle-ringload-zipf"));
        assert!(ids.contains(&"oracle-ringload-sliding"));
        for case in &cases {
            assert_eq!(case.demands, 96, "demand count stays pinned");
            // The demand set is fully seed-determined and well-formed.
            let demands = case.demand_set(256);
            assert_eq!(demands, case.demand_set(256));
            assert_eq!(demands.len(), 96);
            assert!(demands.iter().all(|d| d.from != d.to && d.amount > 0));
        }
        assert_ne!(
            cases[0].demand_seed, cases[1].demand_seed,
            "distinct demand seeds"
        );
    }

    #[test]
    fn oracle_cases_produce_identical_counters_across_independent_runs() {
        // The oracle-determinism claim at suite scope: two *separate*
        // invocations (fresh traces, fresh oracles) must agree bit for
        // bit, and the oracle metrics must actually be exercised.
        let mini = OracleCase::new("oracle-mini", "zipf", 500, 12, 0x0DD7);
        let a = run_oracle_cases(std::slice::from_ref(&mini), 1);
        let b = run_oracle_cases(std::slice::from_ref(&mini), 1);
        assert_eq!(a[0].counters, b[0].counters);
        assert_eq!(a[0].counters.requests, 500);
        assert!(a[0].counters.oracle_cut_evals > 0);
        assert!(a[0].counters.oracle_rounding_passes > 0);
    }

    #[test]
    fn every_pinned_case_resolves() {
        let registries = Registries::builtin();
        for case in pinned_cases() {
            assert!(
                case.scenario.resolve(&registries).is_ok(),
                "case {} must resolve",
                case.id
            );
        }
    }
}
