//! Executing a [`Scenario`]: spec → registries → audited driver run.

use rdbp_model::{
    AuditLevel, Driver, Edge, NoopObserver, Observer, OnlineAlgorithm, RingInstance, RunReport,
    WorkCounters, Workload,
};

/// Batch size [`Scenario::run_with`] hands [`PreparedScenario::run`]
/// (identical accounting for every size; this only sets the
/// [`rdbp_model::BatchEvent`] granularity when no observer needs
/// per-step events).
const DEFAULT_RUN_BATCH: u64 = 4096;

use crate::registry::Registries;
use crate::spec::{AuditSpec, Scenario, SpecError};

/// Derives the workload's sub-seed from the scenario seed (one
/// [`rdbp_model::split_mix64`] step). The algorithm consumes the
/// scenario seed directly; mixing the workload's keeps the two
/// `StdRng` streams decoupled — an oblivious workload must not be
/// correlated with the algorithm's random choices (the independence
/// the Theorem 2.1 guarantee is stated under).
#[must_use]
pub fn workload_seed(seed: u64) -> u64 {
    rdbp_model::split_mix64(seed)
}

/// A scenario resolved into live objects, ready to execute. Produced
/// by [`Scenario::resolve`]; lets callers read the audit limit before
/// running and reuse one resolution for a live run or a trace replay.
pub struct PreparedScenario {
    instance: RingInstance,
    algorithm: Box<dyn OnlineAlgorithm>,
    workload: Box<dyn Workload>,
    steps: u64,
    audit: AuditLevel,
    load_bound: u32,
}

impl PreparedScenario {
    /// The materialized ring instance.
    #[must_use]
    pub fn instance(&self) -> &RingInstance {
        &self.instance
    }

    /// The load bound the resolved algorithm guarantees.
    #[must_use]
    pub fn load_bound(&self) -> u32 {
        self.load_bound
    }

    /// The concrete audit level the run will use.
    #[must_use]
    pub fn audit(&self) -> AuditLevel {
        self.audit
    }

    /// Runs the scenario to completion — the one run entry point of the
    /// engine. Returns the report and the run's merged
    /// [`WorkCounters`].
    ///
    /// With `trace`, the resolved algorithm replays that fixed request
    /// sequence instead of generating the scenario's `steps` workload
    /// requests (the report's workload then reads `"trace"`). When
    /// `observer` asks for per-step events ([`Observer::wants_steps`]),
    /// requests are served one at a time, each emitting a
    /// [`rdbp_model::StepEvent`]; otherwise they are served in driver
    /// batches of `batch` requests, one [`rdbp_model::BatchEvent`]
    /// each. Report and counters are identical on every path and for
    /// every batch size.
    ///
    /// # Panics
    /// Panics if `batch == 0`, or under full auditing if the algorithm
    /// mis-reports migrations (same contract as [`rdbp_model::run`]).
    pub fn run(
        mut self,
        trace: Option<&[Edge]>,
        batch: u64,
        observer: &mut dyn Observer,
    ) -> (RunReport, WorkCounters) {
        assert!(batch > 0, "batch size must be positive");
        let algorithm = self.algorithm.as_mut();
        let workload = self.workload.as_mut();
        let source = if trace.is_some() {
            "trace"
        } else {
            workload.name()
        };
        let mut driver = Driver::new(algorithm.name(), source, self.audit);
        match (trace, observer.wants_steps()) {
            (Some(requests), true) => {
                for &request in requests {
                    driver.step(algorithm, request, observer);
                }
            }
            (Some(requests), false) => {
                let size = usize::try_from(batch).unwrap_or(usize::MAX);
                for chunk in requests.chunks(size) {
                    driver.step_batch(algorithm, chunk, observer);
                }
            }
            (None, true) => {
                for _ in 0..self.steps {
                    driver.step_generated(algorithm, workload, observer);
                }
            }
            (None, false) => {
                let mut left = self.steps;
                while left > 0 {
                    let take = left.min(batch);
                    driver.step_batch_generated(algorithm, workload, take, observer);
                    left -= take;
                }
            }
        }
        let counters = driver.work_counters(algorithm);
        (driver.finish(observer), counters)
    }

    /// Decomposes the resolution into its live parts — what a
    /// long-lived session (the serve subsystem) owns instead of
    /// running to completion: the instance, the boxed algorithm and
    /// workload, the declared step budget, the concrete audit level,
    /// and the algorithm's guaranteed load bound.
    #[must_use]
    pub fn into_parts(
        self,
    ) -> (
        RingInstance,
        Box<dyn OnlineAlgorithm>,
        Box<dyn Workload>,
        u64,
        AuditLevel,
        u32,
    ) {
        (
            self.instance,
            self.algorithm,
            self.workload,
            self.steps,
            self.audit,
            self.load_bound,
        )
    }
}

impl Scenario {
    /// Resolves the scenario against the built-in registries and runs
    /// it to completion.
    ///
    /// # Errors
    /// Returns a [`SpecError`] if any spec fails to resolve.
    pub fn run(&self) -> Result<RunReport, SpecError> {
        self.run_with(&Registries::builtin(), &mut NoopObserver)
    }

    /// Runs the scenario against explicit registries — the hook for
    /// custom algorithms/workloads registered by downstream crates —
    /// streaming driver events to `observer` (pass
    /// `&Registries::builtin()` for the built-in registries).
    ///
    /// # Errors
    /// Returns a [`SpecError`] if any spec fails to resolve.
    pub fn run_with(
        &self,
        registries: &Registries,
        observer: &mut dyn Observer,
    ) -> Result<RunReport, SpecError> {
        let prepared = self.resolve(registries)?;
        Ok(prepared.run(None, DEFAULT_RUN_BATCH, observer).0)
    }

    /// Resolves every spec into live objects without running anything.
    ///
    /// The scenario's one seed is reproducible end-to-end: the
    /// algorithm consumes it directly and the workload gets a
    /// [`workload_seed`]-mixed sub-seed, so the two random streams are
    /// decoupled. The workload is generated live against the
    /// algorithm's placements, which makes adaptive adversaries (e.g.
    /// `chaser`) first-class citizens.
    ///
    /// # Errors
    /// Returns a [`SpecError`] if any spec fails to resolve.
    pub fn resolve(&self, registries: &Registries) -> Result<PreparedScenario, SpecError> {
        let instance = self.instance.build()?;
        let built = registries
            .algorithms
            .resolve(&self.algorithm, &instance, self.seed)?;
        let workload =
            registries
                .workloads
                .resolve(&self.workload, &instance, workload_seed(self.seed))?;
        Ok(PreparedScenario {
            instance,
            algorithm: built.algorithm,
            workload,
            steps: self.steps,
            audit: self.audit_level(built.load_bound),
            load_bound: built.load_bound,
        })
    }

    /// The concrete [`AuditLevel`] this scenario runs under, given the
    /// algorithm's registry-resolved load bound.
    #[must_use]
    pub fn audit_level(&self, algorithm_bound: u32) -> AuditLevel {
        match self.audit {
            AuditSpec::None => AuditLevel::None,
            AuditSpec::Full => AuditLevel::Full {
                load_limit: algorithm_bound,
            },
            AuditSpec::FullWithLimit(load_limit) => AuditLevel::Full { load_limit },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AlgorithmSpec, InstanceSpec, WorkloadSpec};

    fn scenario(algorithm: &str, workload: &str) -> Scenario {
        let mut s = Scenario::new(
            InstanceSpec::packed(4, 8),
            AlgorithmSpec::named(algorithm),
            WorkloadSpec::named(workload),
            500,
        );
        s.seed = 3;
        s
    }

    #[test]
    fn runs_are_reproducible_from_the_spec() {
        let s = scenario("dynamic", "zipf");
        let a = s.run().unwrap();
        let b = s.run().unwrap();
        assert_eq!(a, b, "same spec + seed → identical report");
        assert_eq!(a.steps, 500);
        assert_eq!(a.algorithm, "dynamic-partitioner", "trait-reported name");
        assert_eq!(a.workload, "zipf");
    }

    #[test]
    fn different_seeds_differ() {
        let s = scenario("dynamic", "uniform");
        let mut t = s.clone();
        t.seed = 4;
        assert_ne!(s.run().unwrap().ledger, t.run().unwrap().ledger);
    }

    #[test]
    fn workload_stream_is_decoupled_from_the_algorithm_stream() {
        assert_ne!(workload_seed(3), 3, "sub-seed must differ from the seed");
        assert_ne!(workload_seed(3), workload_seed(4));
        // The same scenario seed drives algorithm and workload through
        // different RNG streams: a `uniform` workload resolved with the
        // raw seed produces a different request sequence than the
        // engine's.
        let registries = Registries::builtin();
        let inst = InstanceSpec::packed(4, 8).build().unwrap();
        let placement = rdbp_model::Placement::contiguous(&inst);
        let spec = WorkloadSpec::named("uniform");
        let mut raw = registries.workloads.resolve(&spec, &inst, 3).unwrap();
        let mut mixed = registries
            .workloads
            .resolve(&spec, &inst, workload_seed(3))
            .unwrap();
        let raw_reqs: Vec<_> = (0..32).map(|_| raw.next_request(&placement)).collect();
        let mixed_reqs: Vec<_> = (0..32).map(|_| mixed.next_request(&placement)).collect();
        assert_ne!(raw_reqs, mixed_reqs);
    }

    #[test]
    fn adaptive_adversaries_run_against_live_placements() {
        let report = scenario("greedy", "chaser").run().unwrap();
        // The chaser always finds a cut edge, so every request costs.
        assert!(report.ledger.communication > 0);
        assert_eq!(report.workload, "cut-chaser");
    }

    #[test]
    fn full_audit_uses_the_algorithms_bound() {
        let s = scenario("dynamic", "uniform");
        // ε=0.5, k=8 → k′=12, bound 24.
        let prepared = s.resolve(&Registries::builtin()).unwrap();
        assert_eq!(prepared.load_bound(), 24);
        assert_eq!(prepared.audit(), AuditLevel::Full { load_limit: 24 });
        let report = s.run().unwrap();
        assert_eq!(report.capacity_violations, 0);
    }

    #[test]
    fn batched_and_per_step_scenario_runs_are_identical() {
        // Every routing of the one `run` entry point — live or replayed,
        // per-step or batched at any size, audited or not — yields the
        // same report and the same work counters.
        let registries = Registries::builtin();
        for audit in [AuditSpec::Full, AuditSpec::None] {
            for workload in ["uniform", "zipf", "chaser"] {
                let mut s = scenario("dynamic", workload);
                s.audit = audit;
                let run = |trace: Option<&[Edge]>, batch: u64, observer: &mut dyn Observer| {
                    s.resolve(&registries).unwrap().run(trace, batch, observer)
                };
                let mut recorder = rdbp_model::observers::TraceRecorder::new();
                let per_step = run(None, 1, &mut recorder);
                let trace = recorder.into_requests();
                assert_eq!(trace.len(), 500);
                for batch in [1u64, 7, 64, 100_000] {
                    let batched = run(None, batch, &mut NoopObserver);
                    assert_eq!(batched, per_step, "{workload} {audit:?} batch={batch}");
                }
                // Replaying the served requests is the same run under
                // the `trace` provenance name.
                let mut want = per_step.clone();
                want.0.workload = "trace".into();
                let mut replay_recorder = rdbp_model::observers::TraceRecorder::new();
                let stepped = run(Some(&trace), 100_000, &mut replay_recorder);
                assert_eq!(stepped, want, "{workload} {audit:?} stepped replay");
                assert_eq!(replay_recorder.requests(), &trace[..]);
                for batch in [1u64, 7, 100_000] {
                    let replayed = run(Some(&trace), batch, &mut NoopObserver);
                    assert_eq!(replayed, want, "{workload} {audit:?} replay batch={batch}");
                }
            }
        }
    }

    #[test]
    fn replay_reuses_one_resolution() {
        let registries = Registries::builtin();
        let s = scenario("dynamic", "uniform");
        // Record the live run's requests, then replay them through a
        // fresh resolution: identical ledger.
        let mut recorder = rdbp_model::observers::TraceRecorder::new();
        let (live, _) = s.resolve(&registries).unwrap().run(None, 1, &mut recorder);
        let (replayed, _) =
            s.resolve(&registries)
                .unwrap()
                .run(Some(recorder.requests()), 1, &mut NoopObserver);
        assert_eq!(live.ledger, replayed.ledger);
        assert_eq!(replayed.workload, "trace");
    }
}
