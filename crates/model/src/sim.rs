//! The simulation driver: charges costs, audits invariants.
//!
//! The driver — not the algorithm — is the source of truth for cost
//! accounting. For every request it
//!
//! 1. charges communication cost from the *current* placement ("serving
//!    a communication request incurs cost of exactly 1, if both
//!    requested processes are located on different servers"),
//! 2. lets the algorithm react (migrations happen here),
//! 3. charges the migrations the algorithm reports and, in
//!    [`AuditLevel::Full`], cross-checks them against the placement's
//!    drained migration journal — O(changed) per step instead of the
//!    former O(n) clone + Hamming diff,
//! 4. audits the capacity constraint `max load ≤ limit` (an O(1) read
//!    of the placement's incrementally maintained max).
//!
//! ## Batched stepping
//!
//! [`Driver::step_batch`] / [`Driver::step_batch_generated`] serve a
//! whole request batch with one observer dispatch ([`BatchEvent`])
//! instead of one per request. Every entry point, per-step or batched,
//! at either audit level, hands its requests to
//! [`OnlineAlgorithm::serve_refereed`] with the driver as the
//! [`Referee`]: the algorithm keeps its own batch loop (e.g. a
//! pre-routed one), and the driver still charges and audits each
//! request itself, on the placement as it stands, checking that the
//! algorithm reported every request once and in order. So accounting
//! is bit-identical to the per-step entry points, and nothing an
//! algorithm claims about its own costs reaches the ledger. Adaptive
//! workloads (those that inspect the live placement) are automatically
//! generated request-by-request so batching never changes what an
//! adversary sees.

use std::collections::HashMap;

use serde::{DeError, Deserialize, Serialize, Value};

use crate::workload::Workload;
use crate::{CostLedger, Edge, Placement, Process, WorkCounters};

/// How many requests [`Driver::step_batch_generated`] pre-generates per
/// [`Workload::fill_batch`] call. Bounds the driver's request buffer
/// while amortizing the per-edge virtual dispatch.
const GEN_CHUNK: u64 = 4096;

/// What a whole batch did inside [`OnlineAlgorithm::serve_batch`]:
/// the counting [`Referee`] that method runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Requests whose edge was cut *at request time* (communication
    /// cost, charged in request order as each request is served).
    pub charged: u64,
    /// Total migrations reported across the batch.
    pub migrations: u64,
    /// Largest max-load observed after serving each request of the
    /// batch.
    pub max_load_seen: u32,
}

impl Referee for BatchOutcome {
    fn before_serve(&mut self, placement: &Placement, request: Edge) {
        self.charged += u64::from(placement.is_cut(request));
    }

    fn after_serve(&mut self, placement: &mut Placement, migrations: u64) {
        self.migrations += migrations;
        self.max_load_seen = self.max_load_seen.max(placement.max_load());
    }
}

/// The per-request callback of [`OnlineAlgorithm::serve_refereed`]: an
/// algorithm's batch loop hands every request to its referee before and
/// after serving it, so the referee charges and audits each request on
/// the placement as it stands while the algorithm keeps its own loop.
pub trait Referee {
    /// Called once per request, in order, before the algorithm reacts
    /// to it: `placement` is the placement the request is charged on.
    fn before_serve(&mut self, placement: &Placement, request: Edge);

    /// Called once per request, right after the algorithm served it,
    /// with the migrations it reports for that request. The referee may
    /// drain the placement's migration journal here.
    fn after_serve(&mut self, placement: &mut Placement, migrations: u64);
}

/// An online algorithm for ring-demand balanced partitioning.
///
/// Implementations maintain their own [`Placement`] and react to one
/// request at a time. They must report the number of migrations each
/// request triggered; the driver verifies the report against the
/// placement's migration journal in [`AuditLevel::Full`] runs.
pub trait OnlineAlgorithm {
    /// The algorithm's current placement of processes onto servers.
    fn placement(&self) -> &Placement;

    /// Mutable access to the placement — **driver plumbing**, used to
    /// arm and disarm the migration journal around each refereed call.
    /// Algorithms must route their own moves through
    /// [`Placement::migrate`]/[`Placement::migrate_segment`] as usual.
    fn placement_mut(&mut self) -> &mut Placement;

    /// Serves one communication request and returns the number of
    /// process migrations performed while serving it.
    ///
    /// The driver never calls this directly: it goes through
    /// [`OnlineAlgorithm::serve_refereed`], whose default loops over
    /// `serve`.
    fn serve(&mut self, request: Edge) -> u64;

    /// Serves a request batch in order, reporting every request to
    /// `referee`: [`Referee::before_serve`] with the placement as it
    /// stands when that request is reached, then
    /// [`Referee::after_serve`] with the migrations serving it took.
    /// Every [`Driver`] entry point charges and audits through this.
    ///
    /// The default loops over [`OnlineAlgorithm::serve`].
    /// Implementations may specialize it (e.g. pre-route the whole
    /// batch) but must call the referee exactly once before and once
    /// after each request, in request order, with the requests given,
    /// and make no move after the last `after_serve`: the driver panics
    /// on a skipped, repeated, substituted or unsettled request, and
    /// under full audit on an unsettled migration.
    fn serve_refereed(&mut self, requests: &[Edge], referee: &mut dyn Referee) {
        for &request in requests {
            referee.before_serve(self.placement(), request);
            let migrations = self.serve(request);
            referee.after_serve(self.placement_mut(), migrations);
        }
    }

    /// Serves a request batch without a driver and counts what it did:
    /// [`OnlineAlgorithm::serve_refereed`] with [`BatchOutcome`] as the
    /// referee. The driver never calls this, so nothing an algorithm
    /// reports here reaches a ledger.
    fn serve_batch(&mut self, requests: &[Edge]) -> BatchOutcome {
        let mut outcome = BatchOutcome::default();
        self.serve_refereed(requests, &mut outcome);
        outcome
    }

    /// Human-readable name (for reports).
    fn name(&self) -> &'static str {
        "online"
    }

    /// Exports a serializable snapshot of every piece of mutable state,
    /// or `None` if the algorithm does not support checkpointing.
    ///
    /// The contract (shared with [`Workload::export_state`]): restoring
    /// the snapshot into a *freshly constructed* instance — same
    /// instance, same configuration, same seed — via
    /// [`Self::restore_state`] must make every subsequent `serve` call
    /// behave bit-identically to the instance the snapshot was taken
    /// from. Construction-time randomness (e.g. a random shift) need
    /// not be captured separately as long as the snapshot overwrites
    /// everything it influenced.
    fn export_state(&self) -> Option<Value> {
        None
    }

    /// Restores a snapshot produced by [`Self::export_state`] on an
    /// identically-configured instance.
    ///
    /// # Errors
    /// Returns a [`DeError`] if the algorithm does not support
    /// checkpointing or the snapshot does not fit this instance. On
    /// error the instance may have been partially updated and must be
    /// discarded — restore into a freshly constructed instance.
    fn restore_state(&mut self, _state: &Value) -> Result<(), DeError> {
        Err(DeError(format!(
            "algorithm `{}` does not support snapshot/restore",
            self.name()
        )))
    }

    /// The algorithm's deterministic work counters (see
    /// [`WorkCounters`]): everything the algorithm and its placement
    /// counted since construction. The default surfaces the placement's
    /// counters (migrations, max-load updates); algorithms that own
    /// further instrumented machinery (e.g. per-interval MTS policies)
    /// override this to merge those counters in.
    fn work_counters(&self) -> WorkCounters {
        let mut counters = WorkCounters::default();
        self.placement().add_work_counters(&mut counters);
        counters
    }
}

/// How strictly the driver validates each step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditLevel {
    /// Verify reported migrations against the placement's migration
    /// journal (O(changed)/step) and check the capacity limit after
    /// every step.
    Full {
        /// Maximum allowed server load, typically `⌈α·k⌉` for the
        /// algorithm's resource-augmentation factor `α`.
        load_limit: u32,
    },
    /// Charge costs only; no per-step invariant checks (for throughput
    /// benchmarks).
    None,
}

/// Outcome of a simulation run.
///
/// Reports are self-describing when serialized: the driver captures the
/// algorithm and workload names from their traits, so a persisted report
/// records what produced it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunReport {
    /// Name of the algorithm that was driven ([`OnlineAlgorithm::name`]).
    pub algorithm: String,
    /// Name of the request source ([`Workload::name`], or `"trace"` for
    /// [`run_trace`] replays).
    pub workload: String,
    /// Total communication + migration costs.
    pub ledger: CostLedger,
    /// Requests served.
    pub steps: u64,
    /// Largest server load ever observed (after serving each request).
    pub max_load_seen: u32,
    /// Steps on which the load limit was exceeded (only counted under
    /// [`AuditLevel::Full`]).
    pub capacity_violations: u64,
}

impl RunReport {
    /// An empty report carrying the given provenance names.
    #[must_use]
    pub fn new(algorithm: impl Into<String>, workload: impl Into<String>) -> Self {
        Self {
            algorithm: algorithm.into(),
            workload: workload.into(),
            ledger: CostLedger::new(),
            steps: 0,
            max_load_seen: 0,
            capacity_violations: 0,
        }
    }
}

/// What the driver observed while serving one request. Emitted to
/// [`Observer::on_step`] after the step's costs were charged and its
/// audits ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepEvent {
    /// 0-based index of the step within the run.
    pub step: u64,
    /// The requested edge.
    pub request: Edge,
    /// Whether communication cost 1 was charged (the edge was cut at
    /// request time).
    pub charged: bool,
    /// Migrations the algorithm reported for this step (the migration
    /// cost delta).
    pub migrations: u64,
    /// Maximum server load after serving the request.
    pub max_load: u32,
    /// Whether this step exceeded the load limit (always `false` under
    /// [`AuditLevel::None`]).
    pub violated: bool,
}

impl StepEvent {
    /// The step's contribution to the total cost
    /// (`communication + migration` delta).
    #[must_use]
    pub fn cost_delta(&self) -> u64 {
        u64::from(self.charged) + self.migrations
    }
}

/// What the driver observed over one request batch. Emitted to
/// [`Observer::on_batch`] after the whole batch was charged and
/// audited — one dispatch instead of `served`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchEvent {
    /// 0-based index of the batch's first step within the run.
    pub start_step: u64,
    /// Requests served by this batch.
    pub served: u64,
    /// Requests of the batch that were charged communication.
    pub charged: u64,
    /// Migrations reported across the batch.
    pub migrations: u64,
    /// Largest max-load observed after serving each request.
    pub max_load: u32,
    /// Steps of the batch that exceeded the load limit (always 0 under
    /// [`AuditLevel::None`]).
    pub violations: u64,
}

impl BatchEvent {
    fn at(start_step: u64) -> Self {
        Self {
            start_step,
            served: 0,
            charged: 0,
            migrations: 0,
            max_load: 0,
            violations: 0,
        }
    }

    /// The batch's contribution to the total cost
    /// (`communication + migration` delta).
    #[must_use]
    pub fn cost_delta(&self) -> u64 {
        self.charged + self.migrations
    }
}

/// A streaming consumer of driver events.
///
/// Observers see every step as it happens — per-step cost curves, CSV
/// emission, load head-room tracking — instead of only the end-of-run
/// [`RunReport`]. They are passive: an observer cannot alter costs,
/// audits, or the algorithm's behaviour. Built-in implementations live
/// in [`crate::observers`].
pub trait Observer {
    /// Called once per request, after costs were charged and audits ran.
    fn on_step(&mut self, _event: &StepEvent) {}

    /// Called once per batch by the batched entry points
    /// ([`Driver::step_batch`], [`Driver::step_batch_generated`]).
    /// Batched runs do **not** call [`Observer::on_step`].
    fn on_batch(&mut self, _event: &BatchEvent) {}

    /// Whether this observer needs per-step events. Executors that are
    /// free to choose (e.g. the scenario engine) route runs through the
    /// batched driver when every observer answers `false` — the
    /// allocation-free fast path. Defaults to `true` so custom per-step
    /// observers keep working unchanged.
    fn wants_steps(&self) -> bool {
        true
    }

    /// Called once when the run completes, with the final report.
    fn on_finish(&mut self, _report: &RunReport) {}
}

/// The do-nothing observer ([`run`] and [`run_trace`] use it).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl Observer for NoopObserver {
    fn wants_steps(&self) -> bool {
        false
    }
}

/// Runs `algorithm` against `workload` for `steps` requests, one
/// [`Driver::step_generated`] call per request.
///
/// Callers that need an observer, a batch size or the run's
/// [`WorkCounters`] hold a [`Driver`] themselves (or go through the
/// scenario engine's `PreparedScenario::run`).
///
/// # Panics
/// Panics under [`AuditLevel::Full`] if the algorithm mis-reports its
/// migrations (reported ≠ journaled moves), and at either level if its
/// [`OnlineAlgorithm::serve_refereed`] skips, repeats, substitutes or
/// leaves unsettled a request.
pub fn run<A, W>(algorithm: &mut A, workload: &mut W, steps: u64, audit: AuditLevel) -> RunReport
where
    A: OnlineAlgorithm + ?Sized,
    W: Workload + ?Sized,
{
    let mut driver = Driver::new(algorithm.name(), workload.name(), audit);
    for _ in 0..steps {
        driver.step_generated(algorithm, workload, &mut NoopObserver);
    }
    driver.finish(&mut NoopObserver)
}

/// Replays a fixed request trace against `algorithm`, one
/// [`Driver::step`] call per request.
///
/// # Panics
/// Same contract as [`run`].
pub fn run_trace<A>(algorithm: &mut A, requests: &[Edge], audit: AuditLevel) -> RunReport
where
    A: OnlineAlgorithm + ?Sized,
{
    let mut driver = Driver::new(algorithm.name(), "trace", audit);
    for &request in requests {
        driver.step(algorithm, request, &mut NoopObserver);
    }
    driver.finish(&mut NoopObserver)
}

/// The incremental driver: the referee state of a run in flight.
///
/// [`run`] and [`run_trace`] are thin loops over this; long-lived
/// callers (the serve subsystem's sessions) hold a `Driver` open and
/// feed it requests as they arrive. Cost charging and auditing are
/// identical in both shapes — a run assembled from any
/// interleaving of [`Driver::step`]/[`Driver::step_batch`] calls
/// produces the same [`RunReport`] as the equivalent batch run.
///
/// A driver can also be [resumed](Driver::resume) from a persisted
/// [`RunReport`], which continues the accounting exactly where the
/// report left off (the snapshot/restore path).
#[derive(Debug, Clone)]
pub struct Driver {
    report: RunReport,
    audit: AuditLevel,
    /// Scratch: request buffer reused across generated batches. Pure
    /// cache — never part of a snapshot.
    gen_buf: Vec<Edge>,
    /// Scratch: process → latest destination while verifying one step's
    /// journal (cleared per step, capacity retained).
    chain: HashMap<u32, u32>,
    /// Work counter: requests this driver instance served. Unlike
    /// `report.steps` this never includes pre-[`Driver::resume`]
    /// history — counters describe work actually performed here.
    requests: u64,
    /// Work counter: steps that ran the full per-step audit.
    audited_steps: u64,
    /// Work counter: journal records verified and drained.
    journal_records: u64,
}

impl Driver {
    /// A fresh driver for the named algorithm × workload pair.
    #[must_use]
    pub fn new(
        algorithm: impl Into<String>,
        workload: impl Into<String>,
        audit: AuditLevel,
    ) -> Self {
        Self {
            report: RunReport::new(algorithm, workload),
            audit,
            gen_buf: Vec::new(),
            chain: HashMap::new(),
            requests: 0,
            audited_steps: 0,
            journal_records: 0,
        }
    }

    /// Resumes accounting from a mid-run report (snapshot restore).
    /// Work counters start at zero: they describe work this driver
    /// instance performs, not the restored history.
    #[must_use]
    pub fn resume(report: RunReport, audit: AuditLevel) -> Self {
        Self {
            report,
            audit,
            gen_buf: Vec::new(),
            chain: HashMap::new(),
            requests: 0,
            audited_steps: 0,
            journal_records: 0,
        }
    }

    /// The audit level every step runs under.
    #[must_use]
    pub fn audit(&self) -> AuditLevel {
        self.audit
    }

    /// The accumulated report so far.
    #[must_use]
    pub fn report(&self) -> &RunReport {
        &self.report
    }

    /// The merged deterministic work counters of this run: the driver's
    /// own counts (requests, audited steps, journal records) plus
    /// everything `algorithm` counted
    /// ([`OnlineAlgorithm::work_counters`]). Pass the same algorithm
    /// this driver has been stepping.
    #[must_use]
    pub fn work_counters<A>(&self, algorithm: &A) -> WorkCounters
    where
        A: OnlineAlgorithm + ?Sized,
    {
        let mut counters = algorithm.work_counters();
        counters.requests += self.requests;
        counters.audited_steps += self.audited_steps;
        counters.journal_records += self.journal_records;
        counters
    }

    /// Draws the next request from `workload` and serves it.
    ///
    /// # Panics
    /// Same contract as [`run`].
    pub fn step_generated<A, W>(
        &mut self,
        algorithm: &mut A,
        workload: &mut W,
        observer: &mut dyn Observer,
    ) -> StepEvent
    where
        A: OnlineAlgorithm + ?Sized,
        W: Workload + ?Sized,
    {
        let request = workload.next_request(algorithm.placement());
        self.step(algorithm, request, observer)
    }

    /// Serves one request: charges communication from the current
    /// placement, lets the algorithm react, charges reported
    /// migrations, audits, and emits the [`StepEvent`].
    ///
    /// # Panics
    /// Same contract as [`run`].
    pub fn step<A>(
        &mut self,
        algorithm: &mut A,
        request: Edge,
        observer: &mut dyn Observer,
    ) -> StepEvent
    where
        A: OnlineAlgorithm + ?Sized,
    {
        let mut one = BatchEvent::at(self.report.steps);
        self.referee(algorithm, std::slice::from_ref(&request), &mut one);
        let event = StepEvent {
            step: one.start_step,
            request,
            charged: one.charged == 1,
            migrations: one.migrations,
            max_load: one.max_load,
            violated: one.violations == 1,
        };
        observer.on_step(&event);
        event
    }

    /// Serves an explicit request batch, emitting one [`BatchEvent`] to
    /// `observer` (no per-step events). Every request is charged and
    /// audited exactly as [`Driver::step`] would.
    ///
    /// # Panics
    /// Same contract as [`run`].
    pub fn step_batch<A>(
        &mut self,
        algorithm: &mut A,
        requests: &[Edge],
        observer: &mut dyn Observer,
    ) -> BatchEvent
    where
        A: OnlineAlgorithm + ?Sized,
    {
        let mut event = BatchEvent::at(self.report.steps);
        self.referee(algorithm, requests, &mut event);
        observer.on_batch(&event);
        event
    }

    /// Serves `steps` workload-generated requests as one batch,
    /// emitting one [`BatchEvent`].
    ///
    /// Oblivious workloads are pre-generated chunk-wise through
    /// [`Workload::fill_batch`] (one virtual call per chunk); adaptive
    /// workloads ([`Workload::is_adaptive`]) fall back to per-request
    /// generation so the adversary sees exactly the placements it would
    /// see unbatched.
    ///
    /// # Panics
    /// Same contract as [`run`].
    pub fn step_batch_generated<A, W>(
        &mut self,
        algorithm: &mut A,
        workload: &mut W,
        steps: u64,
        observer: &mut dyn Observer,
    ) -> BatchEvent
    where
        A: OnlineAlgorithm + ?Sized,
        W: Workload + ?Sized,
    {
        let mut event = BatchEvent::at(self.report.steps);
        if workload.is_adaptive() {
            for _ in 0..steps {
                let request = workload.next_request(algorithm.placement());
                self.referee(algorithm, std::slice::from_ref(&request), &mut event);
            }
        } else {
            let mut buf = std::mem::take(&mut self.gen_buf);
            let mut left = steps;
            while left > 0 {
                let take = left.min(GEN_CHUNK);
                buf.clear();
                workload.fill_batch(algorithm.placement(), take, &mut buf);
                debug_assert_eq!(buf.len() as u64, take, "fill_batch under-filled");
                self.referee(algorithm, &buf, &mut event);
                left -= take;
            }
            self.gen_buf = buf;
        }
        observer.on_batch(&event);
        event
    }

    /// The one serving path of every entry point: hands `requests` to
    /// [`OnlineAlgorithm::serve_refereed`] with this driver as the
    /// [`Referee`], adding each request's accounting to `event`.
    ///
    /// The journal is armed (full audit) or disarmed (no audit) once per
    /// call: a snapshot restore replaces the placement wholesale, but
    /// none can happen inside a call. Under full audit the call must
    /// also leave the journal drained, so no move made after the last
    /// request was settled goes unaudited.
    fn referee<A>(&mut self, algorithm: &mut A, requests: &[Edge], event: &mut BatchEvent)
    where
        A: OnlineAlgorithm + ?Sized,
    {
        let journaling = matches!(self.audit, AuditLevel::Full { .. });
        if algorithm.placement().journaling() != journaling {
            algorithm.placement_mut().set_journaling(journaling);
        }
        let mut referee = DriverReferee {
            driver: self,
            requests,
            next: 0,
            open: None,
            event,
        };
        algorithm.serve_refereed(requests, &mut referee);
        referee.close();
        let left = algorithm.placement().journal().len();
        assert!(
            left == 0,
            "referee: the algorithm made {left} migration(s) after settling its last request \
             (an unsettled migration)"
        );
    }

    /// The O(changed) migration audit: the reported count must equal the
    /// journaled moves exactly, the journaled moves must chain (a
    /// process re-moving within one step must depart from where the
    /// previous record left it), and every chain must end where the
    /// placement actually has the process.
    fn verify_journal(&mut self, placement: &Placement, reported: u64) {
        let journal = placement.journal();
        let actual = journal.len() as u64;
        self.journal_records += actual;
        assert!(
            reported >= actual,
            "algorithm under-reported migrations: reported {reported}, actual {actual}"
        );
        assert!(
            reported <= actual,
            "algorithm over-reported migrations: reported {reported}, actual {actual}"
        );
        self.chain.clear();
        for rec in journal {
            assert!(
                rec.from != rec.to,
                "journal records a no-op move of process {}",
                rec.process.0
            );
            if let Some(&prev_to) = self.chain.get(&rec.process.0) {
                assert!(
                    prev_to == rec.from.0,
                    "journal chain broken for process {}: departs server {} but was last \
                     placed on {}",
                    rec.process.0,
                    rec.from.0,
                    prev_to
                );
            }
            self.chain.insert(rec.process.0, rec.to.0);
        }
        for (&p, &s) in &self.chain {
            assert!(
                placement.server(Process(p)).0 == s,
                "journal end position of process {p} (server {s}) disagrees with the \
                 placement (server {})",
                placement.server(Process(p)).0
            );
        }
    }

    /// Ends the run: emits `on_finish` and yields the final report.
    #[must_use]
    pub fn finish(self, observer: &mut dyn Observer) -> RunReport {
        observer.on_finish(&self.report);
        self.report
    }
}

/// The driver's [`Referee`] for one [`OnlineAlgorithm::serve_refereed`]
/// call: charges and audits each request as the algorithm reports it,
/// and checks that the algorithm reports exactly the driver's requests,
/// once each and in order.
struct DriverReferee<'a> {
    driver: &'a mut Driver,
    requests: &'a [Edge],
    /// Index of the next request `before_serve` expects.
    next: usize,
    /// Whether the request `before_serve` opened was charged, until
    /// `after_serve` settles it.
    open: Option<bool>,
    event: &'a mut BatchEvent,
}

impl DriverReferee<'_> {
    /// Ends the call: every request must have been opened and settled.
    fn close(self) {
        if self.open.is_some() {
            self.unsettled();
        }
        assert!(
            self.next == self.requests.len(),
            "referee: the algorithm returned after serving {} of its {} requests (a skipped \
             request)",
            self.next,
            self.requests.len()
        );
    }

    fn unsettled(&self) -> ! {
        panic!(
            "referee: request {} (edge {}) was never settled by after_serve (an unsettled \
             request)",
            self.next - 1,
            self.requests[self.next - 1].0
        )
    }
}

impl Referee for DriverReferee<'_> {
    fn before_serve(&mut self, placement: &Placement, request: Edge) {
        if self.open.is_some() {
            self.unsettled();
        }
        let Some(&expected) = self.requests.get(self.next) else {
            panic!(
                "referee: the algorithm served edge {} after all {} requests of the call (a \
                 repeated request)",
                request.0,
                self.requests.len()
            );
        };
        assert!(
            request == expected,
            "referee: the algorithm served edge {} as request {}, which is edge {} (a \
             substituted request)",
            request.0,
            self.next,
            expected.0
        );
        debug_assert!(
            placement.journal().is_empty(),
            "journal must be drained between steps"
        );
        self.next += 1;
        let charged = placement.is_cut(request);
        self.driver.report.ledger.communication += u64::from(charged);
        self.open = Some(charged);
    }

    fn after_serve(&mut self, placement: &mut Placement, migrations: u64) {
        let Some(charged) = self.open.take() else {
            panic!(
                "referee: after_serve called with no request open, {} of {} served (a \
                 repeated request)",
                self.next,
                self.requests.len()
            );
        };
        let driver = &mut *self.driver;
        driver.report.ledger.migration += migrations;
        driver.report.steps += 1;
        driver.requests += 1;
        let max_load = placement.max_load();
        driver.report.max_load_seen = driver.report.max_load_seen.max(max_load);

        let mut violated = false;
        if let AuditLevel::Full { load_limit } = driver.audit {
            driver.audited_steps += 1;
            driver.verify_journal(placement, migrations);
            placement.clear_journal();
            if max_load > load_limit {
                driver.report.capacity_violations += 1;
                violated = true;
            }
        }

        let event = &mut *self.event;
        event.served += 1;
        event.charged += u64::from(charged);
        event.migrations += migrations;
        event.max_load = event.max_load.max(max_load);
        event.violations += u64::from(violated);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Sequential;
    use crate::{Process, RingInstance, Server};

    /// A do-nothing algorithm that keeps the initial placement.
    struct Lazy {
        placement: Placement,
    }

    impl OnlineAlgorithm for Lazy {
        fn placement(&self) -> &Placement {
            &self.placement
        }

        fn placement_mut(&mut self) -> &mut Placement {
            &mut self.placement
        }

        fn serve(&mut self, _request: Edge) -> u64 {
            0
        }

        fn name(&self) -> &'static str {
            "lazy"
        }
    }

    /// Collocates the endpoints of every requested cut edge by moving
    /// the counter-clockwise endpoint (deliberately ignores capacity).
    struct GreedyPull {
        placement: Placement,
    }

    impl OnlineAlgorithm for GreedyPull {
        fn placement(&self) -> &Placement {
            &self.placement
        }

        fn placement_mut(&mut self) -> &mut Placement {
            &mut self.placement
        }

        fn serve(&mut self, request: Edge) -> u64 {
            let (a, b) = self.placement.instance().endpoints(request);
            if self.placement.server(a) != self.placement.server(b) {
                let target = self.placement.server(b);
                u64::from(self.placement.migrate(a, target))
            } else {
                0
            }
        }
    }

    /// Serves `steps` generated requests through one [`Driver`] in
    /// batches of `batch`, returning the report and merged counters.
    fn drive<A, W>(
        alg: &mut A,
        w: &mut W,
        steps: u64,
        batch: u64,
        audit: AuditLevel,
        observer: &mut dyn Observer,
    ) -> (RunReport, WorkCounters)
    where
        A: OnlineAlgorithm,
        W: Workload,
    {
        let mut driver = Driver::new(alg.name(), w.name(), audit);
        let mut left = steps;
        while left > 0 {
            let take = left.min(batch);
            driver.step_batch_generated(alg, w, take, observer);
            left -= take;
        }
        let counters = driver.work_counters(alg);
        (driver.finish(observer), counters)
    }

    #[test]
    fn lazy_pays_communication_only() {
        let inst = RingInstance::new(12, 3, 4);
        let mut alg = Lazy {
            placement: Placement::contiguous(&inst),
        };
        // One full ring pass: hits the 3 cut edges exactly once each.
        let mut w = Sequential::new();
        let report = run(&mut alg, &mut w, 12, AuditLevel::Full { load_limit: 4 });
        assert_eq!(report.ledger.communication, 3);
        assert_eq!(report.ledger.migration, 0);
        assert_eq!(report.capacity_violations, 0);
        assert_eq!(report.max_load_seen, 4);
    }

    #[test]
    fn greedy_migrations_are_charged_and_audited() {
        let inst = RingInstance::new(12, 3, 4);
        let mut alg = GreedyPull {
            placement: Placement::contiguous(&inst),
        };
        let trace = vec![Edge(3), Edge(3), Edge(2)];
        let report = run_trace(&mut alg, &trace, AuditLevel::Full { load_limit: 12 });
        // First request to edge 3 is cut (comm 1) and pulls p3 over
        // (mig 1). Second request: no longer cut. Third request edge 2 is
        // now cut (p2 on server 0, p3 on server 1): comm 1, mig 1.
        assert_eq!(report.ledger.communication, 2);
        assert_eq!(report.ledger.migration, 2);
        assert_eq!(report.steps, 3);
    }

    #[test]
    fn capacity_violations_are_counted() {
        let inst = RingInstance::new(6, 3, 2);
        let mut p = Placement::contiguous(&inst);
        // Overload server 0 from the start.
        p.migrate(Process(2), Server(0));
        p.migrate(Process(3), Server(0));
        let mut alg = Lazy { placement: p };
        let mut w = Sequential::new();
        let report = run(&mut alg, &mut w, 5, AuditLevel::Full { load_limit: 3 });
        assert_eq!(report.capacity_violations, 5);
        assert_eq!(report.max_load_seen, 4);
    }

    #[test]
    #[should_panic(expected = "under-reported")]
    fn under_reporting_is_caught() {
        struct Cheater {
            placement: Placement,
        }
        impl OnlineAlgorithm for Cheater {
            fn placement(&self) -> &Placement {
                &self.placement
            }
            fn placement_mut(&mut self) -> &mut Placement {
                &mut self.placement
            }
            fn serve(&mut self, _r: Edge) -> u64 {
                self.placement.migrate(Process(0), Server(1));
                0 // lies
            }
        }
        let inst = RingInstance::new(6, 3, 2);
        let mut alg = Cheater {
            placement: Placement::contiguous(&inst),
        };
        let _ = run_trace(&mut alg, &[Edge(0)], AuditLevel::Full { load_limit: 10 });
    }

    #[test]
    #[should_panic(expected = "over-reported")]
    fn over_reporting_is_caught() {
        struct Braggart {
            placement: Placement,
        }
        impl OnlineAlgorithm for Braggart {
            fn placement(&self) -> &Placement {
                &self.placement
            }
            fn placement_mut(&mut self) -> &mut Placement {
                &mut self.placement
            }
            fn serve(&mut self, _r: Edge) -> u64 {
                2 // claims migrations it never made
            }
        }
        let inst = RingInstance::new(6, 3, 2);
        let mut alg = Braggart {
            placement: Placement::contiguous(&inst),
        };
        let _ = run_trace(&mut alg, &[Edge(0)], AuditLevel::Full { load_limit: 10 });
    }

    #[test]
    fn batched_runs_match_per_step_runs_exactly() {
        // Same seeds, same workload, every batch size: identical report.
        let inst = RingInstance::new(12, 3, 4);
        let baseline = {
            let mut alg = GreedyPull {
                placement: Placement::contiguous(&inst),
            };
            let mut w = crate::workload::UniformRandom::new(7);
            run(&mut alg, &mut w, 500, AuditLevel::Full { load_limit: 12 })
        };
        for (batch, audit) in [
            (1u64, AuditLevel::Full { load_limit: 12 }),
            (7, AuditLevel::Full { load_limit: 12 }),
            (500, AuditLevel::Full { load_limit: 12 }),
            (64, AuditLevel::None),
        ] {
            let mut alg = GreedyPull {
                placement: Placement::contiguous(&inst),
            };
            let mut w = crate::workload::UniformRandom::new(7);
            let (report, _) = drive(&mut alg, &mut w, 500, batch, audit, &mut NoopObserver);
            assert_eq!(report.ledger, baseline.ledger, "batch={batch}");
            assert_eq!(report.steps, baseline.steps, "batch={batch}");
            assert_eq!(
                report.max_load_seen, baseline.max_load_seen,
                "batch={batch}"
            );
        }
    }

    #[test]
    fn batch_events_sum_to_the_report() {
        struct Sum {
            served: u64,
            cost: u64,
            batches: u64,
            steps_seen: u64,
        }
        impl Observer for Sum {
            fn on_step(&mut self, _e: &StepEvent) {
                self.steps_seen += 1;
            }
            fn on_batch(&mut self, e: &BatchEvent) {
                self.served += e.served;
                self.cost += e.cost_delta();
                self.batches += 1;
            }
        }
        let inst = RingInstance::new(12, 3, 4);
        let mut alg = GreedyPull {
            placement: Placement::contiguous(&inst),
        };
        let mut w = crate::workload::UniformRandom::new(3);
        let mut sum = Sum {
            served: 0,
            cost: 0,
            batches: 0,
            steps_seen: 0,
        };
        let (report, _) = drive(
            &mut alg,
            &mut w,
            300,
            64,
            AuditLevel::Full { load_limit: 12 },
            &mut sum,
        );
        assert_eq!(sum.served, report.steps);
        assert_eq!(sum.cost, report.ledger.total());
        assert_eq!(sum.batches, 5); // ⌈300/64⌉
        assert_eq!(sum.steps_seen, 0, "batched runs never emit step events");
    }

    #[test]
    fn adaptive_workloads_are_generated_per_request_in_batches() {
        // The cut-chaser inspects the live placement; batching must not
        // change what it sees, so batched == unbatched bit-for-bit.
        let inst = RingInstance::new(12, 3, 4);
        let mut a = GreedyPull {
            placement: Placement::contiguous(&inst),
        };
        let mut wa = crate::workload::CutChaser::new();
        let unbatched = run(&mut a, &mut wa, 200, AuditLevel::None);
        let mut b = GreedyPull {
            placement: Placement::contiguous(&inst),
        };
        let mut wb = crate::workload::CutChaser::new();
        let (batched, _) = drive(
            &mut b,
            &mut wb,
            200,
            50,
            AuditLevel::None,
            &mut NoopObserver,
        );
        assert_eq!(unbatched.ledger, batched.ledger);
        assert_eq!(
            a.placement.assignment(),
            b.placement.assignment(),
            "final placements must coincide"
        );
    }

    #[test]
    fn work_counters_tie_out_with_the_ledger_under_full_audit() {
        // Every journaled record the audit verified is exactly one
        // charged migration, every step is audited, and the driver's
        // request count equals the report's.
        let inst = RingInstance::new(12, 3, 4);
        let mut alg = GreedyPull {
            placement: Placement::contiguous(&inst),
        };
        let mut w = crate::workload::UniformRandom::new(7);
        let (report, counters) = drive(
            &mut alg,
            &mut w,
            400,
            1,
            AuditLevel::Full { load_limit: 12 },
            &mut NoopObserver,
        );
        assert_eq!(counters.requests, report.steps);
        assert_eq!(counters.audited_steps, report.steps);
        assert_eq!(counters.journal_records, report.ledger.migration);
        assert_eq!(counters.migrations, report.ledger.migration);
        assert!(counters.max_load_updates > 0, "loads churned");
    }

    #[test]
    fn work_counters_are_deterministic_across_batched_reruns() {
        let inst = RingInstance::new(12, 3, 4);
        let run_once = |batch: u64, audit: AuditLevel| {
            let mut alg = GreedyPull {
                placement: Placement::contiguous(&inst),
            };
            let mut w = crate::workload::UniformRandom::new(3);
            drive(&mut alg, &mut w, 500, batch, audit, &mut NoopObserver)
        };
        for audit in [AuditLevel::Full { load_limit: 12 }, AuditLevel::None] {
            let (report_a, counters_a) = run_once(64, audit);
            let (report_b, counters_b) = run_once(64, audit);
            assert_eq!(report_a, report_b);
            assert_eq!(counters_a, counters_b, "same seed → identical counters");
            assert_eq!(counters_a.requests, 500);
        }
        // Unaudited batches skip the journal audit entirely.
        let (_, unaudited) = run_once(64, AuditLevel::None);
        assert_eq!(unaudited.audited_steps, 0);
        assert_eq!(unaudited.journal_records, 0);
    }
}
