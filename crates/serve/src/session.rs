//! One long-lived, audited partition session.
//!
//! A [`Session`] is a [`Scenario`] torn open: instead of running
//! start-to-finish in one call, the resolved algorithm × workload ×
//! driver triple is held live and fed incrementally through
//! [`Session::submit`] / [`Session::submit_trace`]. Accounting and
//! auditing go through the same [`rdbp_model::Driver`] the batch
//! executor uses, so any interleaving of submissions produces exactly
//! the [`RunReport`] the equivalent `Scenario::run` would.
//!
//! ## Snapshot contract
//!
//! [`Session::snapshot`] captures the scenario spec, the mid-run
//! [`RunReport`], and the algorithm's and workload's full mutable state
//! (via their `export_state` hooks). [`Session::restore`] rebuilds the
//! session from the spec — same construction path, same seeds — then
//! overwrites the mutable state. The contract, pinned by the
//! `snapshot_restore` property tests: **restore-then-continue is
//! bit-identical to an uninterrupted run** — same requests, same
//! ledger, same audits, same final report.

use serde::{DeError, Deserialize, Serialize, Value};

use rdbp_engine::{Registries, Scenario};
use rdbp_model::{
    AuditLevel, BatchEvent, CostLedger, Driver, Edge, NoopObserver, OnlineAlgorithm, RingInstance,
    RunReport, WorkCounters, Workload,
};

use crate::ServeError;

/// Snapshot format version; bumped on incompatible layout changes.
/// Version 2: `hst-hedge` state gained the `probs_fresh` cache bit, so
/// a restored session performs work-counter-identical serves.
pub const SNAPSHOT_VERSION: u64 = 2;

/// What one batched submission did (cumulative fields cover the whole
/// session so far, not just this batch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchSummary {
    /// Requests served by this submission.
    pub served: u64,
    /// Total requests served by the session so far.
    pub steps: u64,
    /// Cumulative session ledger.
    pub ledger: CostLedger,
    /// Cost charged by this batch alone.
    pub batch_cost: u64,
    /// Largest server load ever observed.
    pub max_load: u32,
    /// Cumulative capacity violations (only counted under full audit).
    pub violations: u64,
}

/// A live partition session: resolved algorithm + workload + audited
/// driver, created from a [`Scenario`] spec through the shared
/// registries.
pub struct Session {
    scenario: Scenario,
    instance: RingInstance,
    algorithm: Box<dyn OnlineAlgorithm>,
    workload: Box<dyn Workload>,
    driver: Driver,
    load_bound: u32,
}

impl Session {
    /// Resolves `scenario` into a live session. The scenario's `steps`
    /// field is advisory for sessions — requests arrive via `submit` —
    /// but everything else (instance, algorithm, workload, seed, audit)
    /// applies exactly as in a batch run.
    ///
    /// # Errors
    /// Returns a [`ServeError`] if the spec fails to resolve.
    pub fn new(scenario: Scenario, registries: &Registries) -> Result<Self, ServeError> {
        let prepared = scenario.resolve(registries)?;
        let (instance, algorithm, workload, _steps, audit, load_bound) = prepared.into_parts();
        let driver = Driver::new(algorithm.name(), workload.name(), audit);
        Ok(Self {
            scenario,
            instance,
            algorithm,
            workload,
            driver,
            load_bound,
        })
    }

    /// The spec this session was created from.
    #[must_use]
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

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

    /// The audit level every submission runs under.
    #[must_use]
    pub fn audit(&self) -> AuditLevel {
        self.driver.audit()
    }

    /// The accumulated report so far.
    #[must_use]
    pub fn report(&self) -> &RunReport {
        self.driver.report()
    }

    /// The session's merged deterministic work counters (driver +
    /// algorithm + policies). For a restored session these cover only
    /// the work performed since the restore — counters are transient
    /// instrumentation and are not part of a snapshot.
    #[must_use]
    pub fn work_counters(&self) -> WorkCounters {
        self.driver.work_counters(self.algorithm.as_ref())
    }

    /// Serves `steps` workload-generated requests as one driver batch:
    /// one [`rdbp_model::Driver::step_batch_generated`] call serves the
    /// whole submission (requests pre-generated chunk-wise for
    /// oblivious workloads, per-request for adaptive adversaries), so a
    /// submission costs one dispatch instead of one per request.
    /// Accounting is identical to per-step serving.
    ///
    /// # Panics
    /// Same contract as [`rdbp_model::run`]: panics under full auditing
    /// if the algorithm mis-reports its migrations.
    pub fn submit(&mut self, steps: u64) -> BatchSummary {
        let event = self.driver.step_batch_generated(
            self.algorithm.as_mut(),
            self.workload.as_mut(),
            steps,
            &mut NoopObserver,
        );
        self.summarize(&event)
    }

    /// Serves an explicit request batch (bypasses the workload) through
    /// the batched driver.
    ///
    /// # Panics
    /// Same contract as [`Session::submit`].
    pub fn submit_trace(&mut self, requests: &[Edge]) -> BatchSummary {
        let event = self
            .driver
            .step_batch(self.algorithm.as_mut(), requests, &mut NoopObserver);
        self.summarize(&event)
    }

    /// This batch's figures from the driver's [`BatchEvent`], the
    /// cumulative ones from its report.
    fn summarize(&self, event: &BatchEvent) -> BatchSummary {
        let report = self.driver.report();
        BatchSummary {
            served: event.served,
            steps: report.steps,
            ledger: report.ledger,
            batch_cost: event.cost_delta(),
            max_load: report.max_load_seen,
            violations: report.capacity_violations,
        }
    }

    /// Ends the session, yielding the final report.
    #[must_use]
    pub fn finish(self) -> RunReport {
        self.driver.finish(&mut NoopObserver)
    }

    /// Captures the full session state as a serializable value.
    ///
    /// # Errors
    /// Returns a [`ServeError`] if the resolved algorithm or workload
    /// does not support checkpointing (e.g. the `static` partitioner).
    pub fn snapshot(&self) -> Result<Value, ServeError> {
        let algorithm = self.algorithm.export_state().ok_or_else(|| {
            ServeError(format!(
                "algorithm `{}` does not support snapshot/restore",
                self.algorithm.name()
            ))
        })?;
        let workload = self.workload.export_state().ok_or_else(|| {
            ServeError(format!(
                "workload `{}` does not support snapshot/restore",
                self.workload.name()
            ))
        })?;
        Ok(Value::Obj(vec![
            ("version".into(), SNAPSHOT_VERSION.to_value()),
            ("scenario".into(), self.scenario.to_value()),
            ("report".into(), self.driver.report().to_value()),
            ("algorithm".into(), algorithm),
            ("workload".into(), workload),
        ]))
    }

    /// Rebuilds a session from a [`Session::snapshot`] value.
    /// Continuing the restored session is bit-identical to continuing
    /// the one the snapshot was taken from.
    ///
    /// # Errors
    /// Returns a [`ServeError`] on version/shape mismatches, resolution
    /// failures, or state that does not fit the resolved objects.
    pub fn restore(snapshot: &Value, registries: &Registries) -> Result<Self, ServeError> {
        let version = u64::from_value(snapshot.get_field("version")?)?;
        if version != SNAPSHOT_VERSION {
            return Err(ServeError(format!(
                "snapshot version {version} unsupported (expected {SNAPSHOT_VERSION})"
            )));
        }
        let scenario = Scenario::from_value(snapshot.get_field("scenario")?)?;
        let report = RunReport::from_value(snapshot.get_field("report")?)?;
        let mut session = Self::new(scenario, registries)?;
        if report.algorithm != session.algorithm.name()
            || report.workload != session.workload.name()
        {
            return Err(ServeError(format!(
                "snapshot provenance `{}`×`{}` does not match resolved `{}`×`{}`",
                report.algorithm,
                report.workload,
                session.algorithm.name(),
                session.workload.name()
            )));
        }
        session
            .algorithm
            .restore_state(snapshot.get_field("algorithm")?)
            .map_err(|e| ServeError(format!("algorithm state: {}", e.0)))?;
        session
            .workload
            .restore_state(snapshot.get_field("workload")?)
            .map_err(|e| ServeError(format!("workload state: {}", e.0)))?;
        session.driver = Driver::resume(report, session.driver.audit());
        Ok(session)
    }
}

impl From<DeError> for ServeError {
    fn from(e: DeError) -> Self {
        ServeError(e.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdbp_engine::{AlgorithmSpec, InstanceSpec, WorkloadSpec};

    fn scenario(algorithm: &str, workload: &str, seed: u64) -> Scenario {
        let mut s = Scenario::new(
            InstanceSpec::packed(4, 8),
            AlgorithmSpec::named(algorithm),
            WorkloadSpec::named(workload),
            0,
        );
        s.seed = seed;
        s
    }

    #[test]
    fn incremental_submission_equals_batch_run() {
        let registries = Registries::builtin();
        let spec = scenario("dynamic", "zipf", 5);
        let mut batch_spec = spec.clone();
        batch_spec.steps = 700;
        let batch = batch_spec.run().unwrap();

        let mut session = Session::new(spec, &registries).unwrap();
        let summaries = [session.submit(100), session.submit(599), session.submit(1)];
        assert_eq!(summaries[2].steps, 700);
        // Per-submit figures tie out with the final report.
        let served: u64 = summaries.iter().map(|s| s.served).sum();
        let cost: u64 = summaries.iter().map(|s| s.batch_cost).sum();
        assert_eq!(served, batch.steps);
        assert_eq!(cost, batch.ledger.total());
        assert_eq!(session.finish(), batch);
    }

    #[test]
    fn snapshot_restore_continues_bit_identically() {
        let registries = Registries::builtin();
        let spec = scenario("dynamic", "uniform", 11);

        let mut uninterrupted = Session::new(spec.clone(), &registries).unwrap();
        uninterrupted.submit(500);
        let want = uninterrupted.finish();

        let mut session = Session::new(spec, &registries).unwrap();
        session.submit(123);
        let snap = session.snapshot().unwrap();
        // The snapshot survives a JSON text round trip.
        let text = serde_json::to_string(&SnapWrap(snap)).unwrap();
        let SnapWrap(back) = serde_json::from_str(&text).unwrap();
        let mut restored = Session::restore(&back, &registries).unwrap();
        restored.submit(377);
        assert_eq!(restored.finish(), want);
    }

    /// Wrapper making a raw `Value` (de)serializable through the text
    /// layer.
    struct SnapWrap(Value);

    impl Serialize for SnapWrap {
        fn to_value(&self) -> Value {
            self.0.clone()
        }
    }

    impl Deserialize for SnapWrap {
        fn from_value(v: &Value) -> Result<Self, DeError> {
            Ok(SnapWrap(v.clone()))
        }
    }

    #[test]
    fn static_partitioner_reports_unsupported_snapshot() {
        let registries = Registries::builtin();
        let mut session = Session::new(scenario("static", "uniform", 1), &registries).unwrap();
        session.submit(10);
        let err = session.snapshot().expect_err("static has no export hook");
        assert!(err.0.contains("static-partitioner"), "{err}");
    }

    #[test]
    fn corrupt_snapshots_are_rejected() {
        let registries = Registries::builtin();
        let mut session = Session::new(scenario("dynamic", "uniform", 3), &registries).unwrap();
        session.submit(50);
        let snap = session.snapshot().unwrap();
        // Flip the version.
        let Value::Obj(mut pairs) = snap.clone() else {
            panic!("snapshot must be an object")
        };
        pairs[0].1 = Value::UInt(99);
        assert!(Session::restore(&Value::Obj(pairs), &registries).is_err());
        // Drop a field.
        let Value::Obj(mut pairs) = snap else {
            panic!()
        };
        pairs.retain(|(k, _)| k != "workload");
        assert!(Session::restore(&Value::Obj(pairs), &registries).is_err());
    }
}
