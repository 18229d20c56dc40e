//! Workload shapes and their seeded inputs.
//!
//! Every trace is generated here, from the seed, before any timing
//! starts. The program under test receives only explicit request
//! batches (`Work::Replay` submits or driver batches), which is the
//! paper's oblivious adversary: the trace is fixed in advance and does
//! not react to the algorithm's choices.

use rdbp_engine::{
    workload_seed, AlgorithmSpec, AuditSpec, InstanceSpec, Registries, Scenario, WorkloadSpec,
};
use rdbp_model::{split_mix64, Edge, Placement, RunReport, WorkCounters};
use rdbp_serve::Session;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process driver replay of one large trace, then certification.
    SimRatio,
    /// Closed-loop TCP client against one in-process server.
    ServeReplay,
    /// Closed-loop TCP client against a router with live migration.
    ClusterMigrate,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::SimRatio,
        Workload::ServeReplay,
        Workload::ClusterMigrate,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimRatio => "sim-ratio",
            Workload::ServeReplay => "serve-replay",
            Workload::ClusterMigrate => "cluster-migrate",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Where client requests land: `backends` in-process reactors with
/// `workers` session workers each, reached directly (one backend) or
/// through `serve_router`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    /// In-process `rdbp_serve::serve` reactors.
    pub backends: usize,
    /// `SessionManager` workers per reactor.
    pub workers: usize,
    /// Whether clients talk to a `serve_router` in front of the
    /// backends instead of to the (single) backend directly.
    pub router: bool,
}

impl Topology {
    /// `serve-replay`: one server with 2 workers.
    pub const SERVE: Topology = Topology {
        backends: 1,
        workers: 2,
        router: false,
    };
    /// `cluster-migrate`: a router over 2 backends of 1 worker each.
    pub const CLUSTER: Topology = Topology {
        backends: 2,
        workers: 1,
        router: true,
    };
}

/// Input scale: `Full` is the benchmark; `Tiny` keeps every code path
/// but shrinks request counts so a smoke run takes about a second.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's sizes.
    Full,
    /// Smoke-test sizes.
    Tiny,
}

/// Everything that defines one workload's inputs and client shape.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Which workload this is.
    pub workload: Workload,
    /// Servers `ℓ` of the packed instance.
    pub servers: u32,
    /// Capacity `k` of each server (`n = ℓ·k`).
    pub capacity: u32,
    /// Registry name of the trace generator.
    pub trace: &'static str,
    /// Sessions (independent scenarios with their own trace) served
    /// together in one pass.
    pub sessions: usize,
    /// Independent session sets; passes take turns over them, so a run
    /// averages the seed-dependent cost over `sets × sessions`
    /// sessions. The traced run uses set 0.
    pub sets: usize,
    /// Client connections; sessions are split evenly across them.
    /// Zero for the in-process workload.
    pub connections: usize,
    /// Requests per submit (or per driver batch).
    pub submit: usize,
    /// Submits per session in one pass over the inputs.
    pub rounds: usize,
    /// Live-migrate every session before every `n`-th round.
    pub migrate_every: Option<usize>,
    /// Where the closed-loop client sends its requests.
    pub topology: Topology,
}

impl Shape {
    /// The pinned shape of `workload` at `size`.
    #[must_use]
    pub fn of(workload: Workload, size: Size) -> Self {
        let tiny = size == Size::Tiny;
        match workload {
            Workload::SimRatio => Shape {
                workload,
                servers: 64,
                capacity: 256,
                trace: "sliding",
                sessions: 1,
                sets: 1,
                connections: 0,
                submit: 1000,
                rounds: if tiny { 40 } else { 2000 },
                migrate_every: None,
                topology: Topology::SERVE,
            },
            Workload::ServeReplay => Shape {
                workload,
                servers: 8,
                capacity: 32,
                trace: "zipf",
                sessions: 8,
                sets: if tiny { 2 } else { 4 },
                connections: 2,
                submit: 64,
                rounds: if tiny { 48 } else { 2048 },
                migrate_every: None,
                topology: Topology::SERVE,
            },
            Workload::ClusterMigrate => Shape {
                workload,
                servers: 16,
                capacity: 64,
                trace: "uniform",
                sessions: 8,
                sets: 1,
                connections: 2,
                submit: 256,
                rounds: if tiny { 24 } else { 512 },
                migrate_every: Some(8),
                topology: Topology::CLUSTER,
            },
        }
    }

    /// Requests one session is sent per pass.
    #[must_use]
    pub fn trace_len(&self) -> usize {
        self.submit * self.rounds
    }

    /// Requests one set of sessions is sent per pass.
    #[must_use]
    pub fn requests_per_pass(&self) -> u64 {
        (self.sessions * self.trace_len()) as u64
    }
}

/// One session's pinned scenario and the trace it is sent.
#[derive(Debug, Clone)]
pub struct SessionInput {
    /// `dynamic`×`hedge` on the shape's instance, full audit.
    pub scenario: Scenario,
    /// The requests, sent in `Shape::submit`-sized chunks.
    pub trace: Vec<Edge>,
}

/// A workload's inputs for one seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The shape they were generated for.
    pub shape: Shape,
    /// Every session of every set, set by set.
    pub sessions: Vec<SessionInput>,
}

impl Inputs {
    /// Generates `shape`'s inputs from `seed`: per-session scenario
    /// seeds are a `split_mix64` chain from the seed, and each trace is
    /// drawn from the scenario's workload generator exactly as a live
    /// run of that scenario would draw it.
    ///
    /// # Panics
    /// Panics if the pinned specs fail to resolve (a bug in the shape).
    #[must_use]
    pub fn generate(shape: &Shape, seed: u64) -> Self {
        let registries = Registries::builtin();
        let mut state = split_mix64(seed ^ (shape.workload as u64 + 1).wrapping_mul(0xA5A5));
        let sessions = (0..shape.sets * shape.sessions)
            .map(|_| {
                state = split_mix64(state);
                let scenario = session_scenario(shape, state);
                let instance = scenario.instance.build().expect("pinned instance");
                let mut generator = registries
                    .workloads
                    .resolve(&scenario.workload, &instance, workload_seed(scenario.seed))
                    .expect("pinned workload");
                assert!(!generator.is_adaptive(), "traces must be oblivious");
                let placement = Placement::contiguous(&instance);
                let mut trace = Vec::with_capacity(shape.trace_len());
                generator.fill_batch(&placement, shape.trace_len() as u64, &mut trace);
                SessionInput { scenario, trace }
            })
            .collect();
        Self {
            shape: shape.clone(),
            sessions,
        }
    }

    /// The sessions of set `set`.
    #[must_use]
    pub fn set(&self, set: usize) -> &[SessionInput] {
        let n = self.shape.sessions;
        &self.sessions[set * n..(set + 1) * n]
    }

    /// The `round`-th submit of session `session` of set 0.
    #[must_use]
    pub fn chunk(&self, session: usize, round: usize) -> &[Edge] {
        let submit = self.shape.submit;
        &self.sessions[session].trace[round * submit..(round + 1) * submit]
    }

    /// Set 0's submits in the order every rung sends them: round-major,
    /// so all sessions advance together. Yields `(submit id, session, round)`.
    pub fn order(&self) -> impl Iterator<Item = (u64, usize, usize)> + '_ {
        let sessions = self.shape.sessions;
        (0..self.shape.rounds)
            .flat_map(move |round| (0..sessions).map(move |s| (round, s)))
            .enumerate()
            .map(|(id, (round, s))| (id as u64, s, round))
    }
}

/// The pinned scenario of one session.
fn session_scenario(shape: &Shape, seed: u64) -> Scenario {
    let mut algorithm = AlgorithmSpec::named("dynamic");
    algorithm.policy = Some("hedge".into());
    let mut scenario = Scenario::new(
        InstanceSpec::packed(shape.servers, shape.capacity),
        algorithm,
        WorkloadSpec::named(shape.trace),
        shape.trace_len() as u64,
    );
    scenario.seed = seed;
    scenario.audit = AuditSpec::Full;
    scenario
}

/// What an in-process replay of one session produced: the reference a
/// wire session must match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    /// The final report (ledger, steps, violations).
    pub report: RunReport,
    /// The session's merged work counters.
    pub counters: WorkCounters,
}

/// Replays every session (of every set) in process through
/// `Session::submit_trace`, in the same submit chunks the wire client
/// sends.
///
/// # Panics
/// Panics if a pinned scenario fails to resolve.
#[must_use]
pub fn replay_in_process(inputs: &Inputs) -> Vec<Expected> {
    let registries = Registries::builtin();
    inputs
        .sessions
        .iter()
        .map(|input| {
            let mut session =
                Session::new(input.scenario.clone(), &registries).expect("pinned scenario");
            for chunk in input.trace.chunks(inputs.shape.submit) {
                session.submit_trace(chunk);
            }
            Expected {
                report: session.report().clone(),
                counters: session.work_counters(),
            }
        })
        .collect()
}
