//! Built-in [`Observer`] implementations for the simulation driver.
//!
//! Observers stream per-step information out of a [`crate::Driver`]
//! while the run is in flight, replacing ad-hoc "re-run and diff
//! ledgers" instrumentation:
//!
//! * [`CostCurve`] — samples the cumulative cost ledger every `every`
//!   steps (the per-step cost curves the experiment figures plot);
//! * [`CsvEmitter`] — writes one CSV row per step to any [`Write`] sink;
//! * [`LoadHeadroom`] — tracks the minimum head-room between observed
//!   load and a limit (how close a run came to violating its bound);
//! * [`TraceRecorder`] — records the served requests (this is how the
//!   CLI captures adaptive-adversary traces for `--save-trace`);
//! * [`Fanout`] — broadcasts events to several observers.

use std::io::Write;

use crate::sim::{Observer, RunReport, StepEvent};
use crate::{CostLedger, Edge};

/// One sample of the cumulative cost curve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CurvePoint {
    /// Steps served so far (1-based: the sample is taken *after* this
    /// many requests).
    pub steps: u64,
    /// Cumulative ledger at that point.
    pub ledger: CostLedger,
}

/// Samples the cumulative cost ledger every `every` steps, plus a final
/// sample at the end of the run.
#[derive(Debug, Clone)]
pub struct CostCurve {
    every: u64,
    running: CostLedger,
    last_sampled: u64,
    samples: Vec<CurvePoint>,
}

impl CostCurve {
    /// Creates a curve sampling every `every` steps.
    ///
    /// # Panics
    /// Panics if `every == 0`.
    #[must_use]
    pub fn new(every: u64) -> Self {
        assert!(every > 0, "sampling interval must be positive");
        Self {
            every,
            running: CostLedger::new(),
            last_sampled: 0,
            samples: Vec::new(),
        }
    }

    /// The samples collected so far.
    #[must_use]
    pub fn samples(&self) -> &[CurvePoint] {
        &self.samples
    }

    /// Consumes the observer, returning its samples.
    #[must_use]
    pub fn into_samples(self) -> Vec<CurvePoint> {
        self.samples
    }
}

impl Observer for CostCurve {
    fn on_step(&mut self, event: &StepEvent) {
        self.running.communication += u64::from(event.charged);
        self.running.migration += event.migrations;
        let served = event.step + 1;
        if served.is_multiple_of(self.every) {
            self.last_sampled = served;
            self.samples.push(CurvePoint {
                steps: served,
                ledger: self.running,
            });
        }
    }

    fn on_finish(&mut self, report: &RunReport) {
        if report.steps > self.last_sampled {
            self.last_sampled = report.steps;
            self.samples.push(CurvePoint {
                steps: report.steps,
                ledger: self.running,
            });
        }
    }
}

/// Writes one CSV row per step (`step,edge,comm,mig,max_load,violated`)
/// to a [`Write`] sink.
///
/// The header is written on the first step. Experiments fail loudly:
/// I/O errors panic, matching the harness's CSV conventions.
#[derive(Debug)]
pub struct CsvEmitter<W: Write> {
    out: W,
    started: bool,
}

impl<W: Write> CsvEmitter<W> {
    /// Creates an emitter writing to `out`.
    pub fn new(out: W) -> Self {
        Self {
            out,
            started: false,
        }
    }

    /// Flushes and returns the underlying sink.
    ///
    /// # Panics
    /// Panics if the flush fails.
    pub fn into_inner(mut self) -> W {
        self.out.flush().expect("flush step csv");
        self.out
    }
}

impl<W: Write> Observer for CsvEmitter<W> {
    fn on_step(&mut self, event: &StepEvent) {
        if !self.started {
            writeln!(self.out, "step,edge,comm,mig,max_load,violated").expect("write csv header");
            self.started = true;
        }
        writeln!(
            self.out,
            "{},{},{},{},{},{}",
            event.step,
            event.request.0,
            u64::from(event.charged),
            event.migrations,
            event.max_load,
            u8::from(event.violated),
        )
        .expect("write csv row");
    }

    fn on_finish(&mut self, _report: &RunReport) {
        self.out.flush().expect("flush step csv");
    }
}

/// Tracks how close the run came to a load limit: the minimum of
/// `limit - max_load` over all steps (negative if the limit was ever
/// exceeded).
#[derive(Debug, Clone, Copy)]
pub struct LoadHeadroom {
    limit: u32,
    min_headroom: Option<i64>,
    worst_step: u64,
}

impl LoadHeadroom {
    /// Creates a tracker against `limit`.
    #[must_use]
    pub fn new(limit: u32) -> Self {
        Self {
            limit,
            min_headroom: None,
            worst_step: 0,
        }
    }

    /// The limit being tracked.
    #[must_use]
    pub fn limit(&self) -> u32 {
        self.limit
    }

    /// Minimum observed `limit - max_load` (`None` before any step).
    #[must_use]
    pub fn min_headroom(&self) -> Option<i64> {
        self.min_headroom
    }

    /// The step on which the minimum head-room was (first) attained.
    #[must_use]
    pub fn worst_step(&self) -> u64 {
        self.worst_step
    }
}

impl Observer for LoadHeadroom {
    fn on_step(&mut self, event: &StepEvent) {
        let headroom = i64::from(self.limit) - i64::from(event.max_load);
        if self.min_headroom.is_none_or(|m| headroom < m) {
            self.min_headroom = Some(headroom);
            self.worst_step = event.step;
        }
    }
}

/// Records the request sequence the driver served — the way to capture
/// a replayable trace from an *adaptive* workload, whose requests only
/// exist once the algorithm's placements do.
#[derive(Debug, Clone, Default)]
pub struct TraceRecorder {
    requests: Vec<Edge>,
}

impl TraceRecorder {
    /// Creates an empty recorder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The requests recorded so far.
    #[must_use]
    pub fn requests(&self) -> &[Edge] {
        &self.requests
    }

    /// Consumes the recorder, returning the recorded requests.
    #[must_use]
    pub fn into_requests(self) -> Vec<Edge> {
        self.requests
    }
}

impl Observer for TraceRecorder {
    fn on_step(&mut self, event: &StepEvent) {
        self.requests.push(event.request);
    }
}

/// Broadcasts every event to a set of observers, in order.
pub struct Fanout<'a> {
    observers: Vec<&'a mut dyn Observer>,
}

impl<'a> Fanout<'a> {
    /// Creates a fan-out over `observers`.
    #[must_use]
    pub fn new(observers: Vec<&'a mut dyn Observer>) -> Self {
        Self { observers }
    }
}

impl Observer for Fanout<'_> {
    fn on_step(&mut self, event: &StepEvent) {
        for obs in &mut self.observers {
            obs.on_step(event);
        }
    }

    fn on_batch(&mut self, event: &crate::BatchEvent) {
        for obs in &mut self.observers {
            obs.on_batch(event);
        }
    }

    fn wants_steps(&self) -> bool {
        self.observers.iter().any(|obs| obs.wants_steps())
    }

    fn on_finish(&mut self, report: &RunReport) {
        for obs in &mut self.observers {
            obs.on_finish(report);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Sequential;
    use crate::{AuditLevel, Driver, OnlineAlgorithm, Placement, RingInstance, Workload};

    /// A placement-frozen dummy algorithm.
    struct Lazy {
        placement: Placement,
    }

    impl crate::OnlineAlgorithm for Lazy {
        fn placement(&self) -> &Placement {
            &self.placement
        }
        fn placement_mut(&mut self) -> &mut Placement {
            &mut self.placement
        }
        fn serve(&mut self, _request: Edge) -> u64 {
            0
        }
    }

    fn lazy() -> Lazy {
        Lazy {
            placement: Placement::contiguous(&RingInstance::new(12, 3, 4)),
        }
    }

    /// Runs `steps` sequential requests against [`lazy`], streaming
    /// every step to `observer`.
    fn observe(steps: u64, audit: AuditLevel, observer: &mut dyn Observer) -> RunReport {
        let mut alg = lazy();
        let mut w = Sequential::new();
        let mut driver = Driver::new(alg.name(), w.name(), audit);
        for _ in 0..steps {
            driver.step_generated(&mut alg, &mut w, observer);
        }
        driver.finish(observer)
    }

    #[test]
    fn cost_curve_samples_and_finishes() {
        let mut curve = CostCurve::new(5);
        let report = observe(12, AuditLevel::None, &mut curve);
        let samples = curve.samples();
        assert_eq!(
            samples.iter().map(|s| s.steps).collect::<Vec<_>>(),
            vec![5, 10, 12],
            "samples every 5 steps plus the final point"
        );
        assert_eq!(samples.last().unwrap().ledger, report.ledger);
    }

    #[test]
    fn csv_emitter_writes_one_row_per_step() {
        let mut emitter = CsvEmitter::new(Vec::new());
        let _ = observe(4, AuditLevel::None, &mut emitter);
        let text = String::from_utf8(emitter.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5, "header + 4 rows");
        assert_eq!(lines[0], "step,edge,comm,mig,max_load,violated");
        assert!(lines[1].starts_with("0,0,"));
    }

    #[test]
    fn load_headroom_tracks_minimum() {
        let mut head = LoadHeadroom::new(6);
        let _ = observe(3, AuditLevel::Full { load_limit: 6 }, &mut head);
        // Contiguous load is 4 on every step → head-room 2 throughout.
        assert_eq!(head.min_headroom(), Some(2));
        assert_eq!(head.limit(), 6);
    }

    #[test]
    fn trace_recorder_captures_requests() {
        let mut rec = TraceRecorder::new();
        let _ = observe(3, AuditLevel::None, &mut rec);
        assert_eq!(rec.requests(), &[Edge(0), Edge(1), Edge(2)]);
        assert_eq!(rec.into_requests().len(), 3);
    }

    #[test]
    fn fanout_feeds_all_observers() {
        let mut rec = TraceRecorder::new();
        let mut curve = CostCurve::new(1);
        {
            let mut fan = Fanout::new(vec![&mut rec, &mut curve]);
            let _ = observe(2, AuditLevel::None, &mut fan);
        }
        assert_eq!(rec.requests().len(), 2);
        assert_eq!(curve.samples().len(), 2);
    }
}
