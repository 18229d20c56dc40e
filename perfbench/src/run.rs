//! The untraced end-to-end runs.
//!
//! A run repeats *passes* over the same pre-generated inputs until
//! `--seconds` have elapsed (at least [`Options::min_passes`]). Every
//! pass does identical, deterministic work, so its ledgers and work
//! counters must repeat exactly; timings are taken per pass and the
//! median over passes is reported.

use std::time::{Duration, Instant};

use rdbp_engine::Registries;
use rdbp_model::{Driver, NoopObserver, Placement, RunReport, WorkCounters};
use rdbp_offline::OfflineOracle as _;
use rdbp_ringload::RingloadOracle;
use rdbp_serve::{Client, Request, SessionStatus};

use crate::checks::Checks;
use crate::inputs::{replay_in_process, Expected, Inputs, SessionInput, Shape, Topology, Workload};
use crate::stats::{median, peak_rss_mib, reset_peak_rss, PassMedians, Samples};
use crate::wire::{self, Target};

/// How long to measure.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Keep starting passes until this many seconds have elapsed.
    pub seconds: f64,
    /// Passes to run regardless of `seconds` (≥ 2 so the repeat check
    /// has something to compare).
    pub min_passes: usize,
}

/// What an end-to-end run measured.
#[derive(Debug)]
pub struct Measured {
    /// `(end-to-end metric, value)` for every end-to-end metric.
    pub values: Vec<(&'static str, f64)>,
    /// Correctness checks made along the way.
    pub checks: Checks,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Human-readable detail (sample counts, supported percentiles).
    pub notes: Vec<String>,
}

impl Measured {
    /// The value recorded for `metric`.
    ///
    /// # Panics
    /// Panics if the run recorded no such metric.
    #[must_use]
    pub fn value(&self, metric: &str) -> f64 {
        self.values
            .iter()
            .find(|(name, _)| *name == metric)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("no value for `{metric}`"))
    }
}

/// Runs `inputs`' workload.
#[must_use]
pub fn end_to_end(inputs: &Inputs, options: &Options) -> Measured {
    match inputs.shape.workload {
        Workload::SimRatio => sim_ratio(inputs, options),
        Workload::ServeReplay | Workload::ClusterMigrate => closed_loop(
            inputs,
            inputs.shape.topology,
            inputs.shape.migrate_every,
            options,
            &replay_in_process(inputs),
        ),
    }
}

/// The ringload oracle's certificate for one session's trace.
#[derive(Debug, Clone, Copy)]
pub struct Certificate {
    /// Certified lower bound on the offline optimum.
    pub lb: f64,
    /// Cost of an explicit feasible schedule (upper bound).
    pub ub: f64,
    /// Time computing the lower bound.
    pub lb_time: Duration,
    /// Time computing the upper bound.
    pub ub_time: Duration,
    /// The oracle's work counters.
    pub counters: WorkCounters,
}

/// Certifies one session's trace from the canonical contiguous
/// placement (the start every `dynamic` run shares).
///
/// # Panics
/// Panics if the pinned instance fails to build.
#[must_use]
pub fn certify(input: &SessionInput) -> Certificate {
    let instance = input.scenario.instance.build().expect("pinned instance");
    let initial = Placement::contiguous(&instance);
    let mut oracle = RingloadOracle::new();
    let t = Instant::now();
    let lb = oracle.lower_bound(&instance, &initial, &input.trace);
    let lb_time = t.elapsed();
    let t = Instant::now();
    let ub = oracle
        .upper_bound(&instance, &initial, &input.trace)
        .unwrap_or(f64::INFINITY);
    let ub_time = t.elapsed();
    Certificate {
        lb,
        ub,
        lb_time,
        ub_time,
        counters: oracle.work_counters(),
    }
}

/// `sim-ratio`: each pass resolves the scenario, replays the trace in
/// driver batches under full audit, and certifies it.
fn sim_ratio(inputs: &Inputs, options: &Options) -> Measured {
    let shape = &inputs.shape;
    let input = &inputs.sessions[0];
    let registries = Registries::builtin();
    let mut checks = Checks::default();
    let mut setup = Samples::default();
    let mut batches = Samples::default();
    let mut per_pass = PassMedians::default();
    let mut certify_s = Vec::new();
    let mut pass_rps = Vec::new();
    let mut attempted = 0u64;
    let mut first: Option<(RunReport, WorkCounters)> = None;
    let mut lb = 0.0;
    let rss_reset = reset_peak_rss();
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let prepared = input.scenario.resolve(&registries);
        setup.push(t.elapsed());
        drop(prepared);
    }
    let started = Instant::now();
    let mut passes = 0;
    while passes < options.min_passes || started.elapsed().as_secs_f64() < options.seconds {
        let t = Instant::now();
        let prepared = input
            .scenario
            .resolve(&registries)
            .expect("pinned scenario");
        setup.push(t.elapsed());
        let (_, mut algorithm, _, _, audit, _) = prepared.into_parts();
        let mut driver = Driver::new(algorithm.name(), "trace", audit);
        let mut pass_batches = Samples::default();
        let t0 = Instant::now();
        for chunk in input.trace.chunks(shape.submit) {
            let t = Instant::now();
            driver.step_batch(algorithm.as_mut(), chunk, &mut NoopObserver);
            pass_batches.push(t.elapsed());
            attempted += 1;
        }
        batches.extend(&pass_batches);
        per_pass.add(&pass_batches);
        pass_rps.push(input.trace.len() as f64 / t0.elapsed().as_secs_f64());
        let counters = driver.work_counters(algorithm.as_ref());
        let report = driver.finish(&mut NoopObserver);
        checks.no_capacity_violations("sim-ratio", &report);

        let cert = certify(input);
        certify_s.push((cert.lb_time + cert.ub_time).as_secs_f64());
        checks.certificate("sim-ratio", cert.lb, cert.ub);
        lb = cert.lb;

        match &first {
            None => first = Some((report, counters)),
            Some((report0, counters0)) => {
                checks.same_counters("sim-ratio repeat", counters0, &counters);
                checks.require(*report0 == report, || {
                    "sim-ratio: report differs between repeats".into()
                });
            }
        }
        passes += 1;
    }
    let peak = peak_rss_mib().unwrap_or(0.0);
    let (report, _) = first.expect("at least one pass");
    let cost_per_req = report.ledger.total() as f64 / input.trace.len() as f64;
    let mut notes = vec![format!("passes={passes}")];
    notes.push(describe("submit (driver batch)", &batches));
    if !rss_reset {
        notes.push("peak_rss_mib: clear_refs unavailable, peak covers input generation".into());
    }
    Measured {
        values: vec![
            ("throughput_rps", median(&pass_rps)),
            ("submit_p50_us", per_pass.p50_us()),
            ("certify_s", median(&certify_s)),
            ("cost_per_req", cost_per_req),
            ("ratio_lb", report.ledger.total() as f64 / lb),
            ("setup_s", setup.median_s()),
            ("peak_rss_mib", peak),
        ],
        checks,
        attempted,
        failed: 0,
        notes,
    }
}

/// One sample line over the whole run: count, pooled median and p99,
/// and the highest percentile the sample supports (informational; the
/// gated median is the median over passes of each pass's median).
#[must_use]
pub fn describe(what: &str, samples: &Samples) -> String {
    let supported = samples
        .supported_percentile()
        .map_or_else(|| "none".into(), |p| format!("p{p}"));
    format!(
        "{what}: n={} p50={:.1}us p99={:.1}us (highest percentile with 10 samples beyond: {supported})",
        samples.len(),
        samples.quantile_us(0.5),
        samples.quantile_us(0.99)
    )
}

/// What one client connection measured in a pass.
#[derive(Debug, Default)]
struct ConnResult {
    submits: Samples,
    migrations: Samples,
    attempted: u64,
    errors: Vec<String>,
}

/// Extra set-ups timed before the passes (each pass adds one more).
const SETUP_REPEATS: usize = 10;

/// What one pass of the closed loop measured.
struct Pass {
    setup: Duration,
    measured: Duration,
    conns: Vec<ConnResult>,
    /// Final per-session status (queried before close) and close report.
    finals: Vec<Result<(SessionStatus, RunReport), String>>,
}

/// `serve-replay` and `cluster-migrate`: a closed-loop client, one
/// thread per connection and one outstanding call each, drives every
/// session's pre-built submits against `topology`, migrating every
/// session before every `migrate_every`-th round. Passes take turns
/// over the session sets. Every wire session's final ledger and
/// counters are checked against `expected` (one entry per session of
/// `inputs`, normally [`replay_in_process`]). After each pass, the
/// oracle certifies what that pass's sessions were sent, so the
/// certification times spread over the run like the passes do.
#[must_use]
pub fn closed_loop(
    inputs: &Inputs,
    topology: Topology,
    migrate_every: Option<usize>,
    options: &Options,
    expected: &[Expected],
) -> Measured {
    let shape = &inputs.shape;
    let mut requests: Vec<Vec<Request>> = inputs
        .sessions
        .iter()
        .map(|s| {
            s.trace
                .chunks(shape.submit)
                .map(wire::submit_request)
                .collect()
        })
        .collect();
    let mut checks = Checks::default();
    let mut setup = Samples::default();
    let mut submits = Samples::default();
    let mut per_pass = PassMedians::default();
    let mut migrations = Samples::default();
    let mut pass_rps = Vec::new();
    let mut attempted = 0u64;
    let mut errors = Vec::new();
    let mut first: Vec<Option<WorkCounters>> = vec![None; shape.sets];
    let mut certify_s: Vec<Vec<f64>> = vec![Vec::new(); shape.sets];
    let mut lb = vec![0.0; shape.sets];
    let rss_reset = reset_peak_rss();
    for _ in 0..SETUP_REPEATS {
        attempted += 1;
        match setup_only(shape, inputs.set(0), topology) {
            Ok(took) => setup.push(took),
            Err(e) => errors.push(e),
        }
    }
    let started = Instant::now();
    let mut passes = 0;
    while passes < options.min_passes.max(shape.sets)
        || started.elapsed().as_secs_f64() < options.seconds
    {
        let set = passes % shape.sets;
        let sessions = set * shape.sessions..(set + 1) * shape.sessions;
        passes += 1;
        let pass = match run_pass(
            shape,
            &inputs.sessions[sessions.clone()],
            &mut requests[sessions.clone()],
            topology,
            migrate_every,
        ) {
            Ok(pass) => pass,
            Err(e) => {
                attempted += 1;
                errors.push(e);
                break;
            }
        };
        setup.push(pass.setup);
        pass_rps.push(shape.requests_per_pass() as f64 / pass.measured.as_secs_f64());
        let mut pass_submits = Samples::default();
        for conn in pass.conns {
            pass_submits.extend(&conn.submits);
            migrations.extend(&conn.migrations);
            attempted += conn.attempted;
            errors.extend(conn.errors);
        }
        submits.extend(&pass_submits);
        per_pass.add(&pass_submits);
        let mut merged = WorkCounters::default();
        for (s, result) in sessions.clone().zip(pass.finals) {
            attempted += 2;
            match result {
                Ok((status, closed)) => {
                    check_session(&mut checks, s, &status, &closed, &expected[s]);
                    merged.merge(&status.counters);
                }
                Err(e) => errors.push(e),
            }
        }
        match &first[set] {
            None => first[set] = Some(merged),
            Some(counters0) => {
                checks.same_counters(&format!("set {set} repeat"), counters0, &merged);
            }
        }

        let mut took = Duration::ZERO;
        lb[set] = 0.0;
        for (s, input) in sessions.clone().zip(inputs.set(set)) {
            let cert = certify(input);
            checks.certificate(&format!("session {s}"), cert.lb, cert.ub);
            took += cert.lb_time + cert.ub_time;
            lb[set] += cert.lb;
        }
        certify_s[set].push(took.as_secs_f64());
    }
    let peak = peak_rss_mib().unwrap_or(0.0);
    let cost: u64 = expected.iter().map(|e| e.report.ledger.total()).sum();
    let sent = shape.requests_per_pass() * shape.sets as u64;

    let mut notes = vec![format!("passes={passes} over {} session sets", shape.sets)];
    notes.push(describe("submit (Client::call)", &submits));
    if !migrations.is_empty() {
        notes.push(describe("migrate (router migrate op)", &migrations));
    }
    notes.extend(errors.iter().take(5).map(|e| format!("failed op: {e}")));
    if !rss_reset {
        notes.push("peak_rss_mib: clear_refs unavailable, peak covers input generation".into());
    }
    Measured {
        values: vec![
            ("throughput_rps", median(&pass_rps)),
            ("submit_p50_us", per_pass.p50_us()),
            // Each set's median certification time, summed over sets.
            ("certify_s", certify_s.iter().map(|t| median(t)).sum()),
            ("cost_per_req", cost as f64 / sent as f64),
            ("ratio_lb", cost as f64 / lb.iter().sum::<f64>()),
            ("setup_s", setup.median_s()),
            ("peak_rss_mib", peak),
        ],
        checks,
        attempted,
        failed: errors.len() as u64,
        notes,
    }
}

fn check_session(
    checks: &mut Checks,
    s: usize,
    status: &SessionStatus,
    closed: &RunReport,
    want: &Expected,
) {
    let what = format!("session {s}");
    checks.no_capacity_violations(&what, closed);
    checks.same_ledger(&what, closed, &want.report);
    checks.same_ledger(&format!("{what} query"), &status.report, &want.report);
    checks.same_counters(
        &format!("{what} wire vs in-process"),
        &status.counters,
        &want.counters,
    );
}

/// Boots `topology`, connects the client and creates `sessions`;
/// returns the running parts and the time all of that took (one
/// `setup_s` sample).
fn boot_and_create(
    shape: &Shape,
    sessions: &[SessionInput],
    topology: Topology,
) -> Result<(Target, Vec<Client>, Vec<u64>, Duration), String> {
    let per_conn = shape.sessions / shape.connections;
    let t = Instant::now();
    let target = Target::boot(topology)?;
    let mut clients = (0..shape.connections)
        .map(|_| wire::connect(target.addr))
        .collect::<Result<Vec<Client>, String>>()?;
    let mut ids = Vec::with_capacity(sessions.len());
    for (s, input) in sessions.iter().enumerate() {
        ids.push(wire::create(&mut clients[s / per_conn], &input.scenario)?);
    }
    Ok((target, clients, ids, t.elapsed()))
}

/// A set-up sample with no measured phase: boot, create, close, shut
/// down.
fn setup_only(
    shape: &Shape,
    sessions: &[SessionInput],
    topology: Topology,
) -> Result<Duration, String> {
    let per_conn = shape.sessions / shape.connections;
    let (target, mut clients, ids, took) = boot_and_create(shape, sessions, topology)?;
    for (s, &id) in ids.iter().enumerate() {
        wire::close(&mut clients[s / per_conn], id)?;
    }
    drop(clients);
    target.shutdown()?;
    Ok(took)
}

/// Boots `topology`, creates `sessions`, runs the measured phase, then
/// queries, closes and shuts down.
fn run_pass(
    shape: &Shape,
    sessions: &[SessionInput],
    requests: &mut [Vec<Request>],
    topology: Topology,
    migrate_every: Option<usize>,
) -> Result<Pass, String> {
    let per_conn = shape.sessions / shape.connections;
    let (target, mut clients, ids, setup) = boot_and_create(shape, sessions, topology)?;
    for (session, &id) in requests.iter_mut().zip(&ids) {
        for request in session.iter_mut() {
            wire::set_session(request, id);
        }
    }

    let start = Instant::now();
    let conns: Vec<ConnResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(requests.chunks(per_conn))
            .zip(ids.chunks(per_conn))
            .map(|((client, requests), ids)| {
                scope.spawn(move || drive_connection(client, requests, ids, migrate_every))
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("client thread panicked"))
            .collect()
    });
    let measured = start.elapsed();

    let finals = ids
        .iter()
        .enumerate()
        .map(|(s, &id)| {
            let client = &mut clients[s / per_conn];
            Ok((wire::query(client, id)?, wire::close(client, id)?))
        })
        .collect();
    drop(clients);
    target.shutdown()?;
    Ok(Pass {
        setup,
        measured,
        conns,
        finals,
    })
}

/// One connection's closed loop: round by round, migrate (when due)
/// then submit once for each of its sessions, one call outstanding.
fn drive_connection(
    client: &mut Client,
    requests: &[Vec<Request>],
    ids: &[u64],
    migrate_every: Option<usize>,
) -> ConnResult {
    let mut out = ConnResult::default();
    let rounds = requests.first().map_or(0, Vec::len);
    for round in 0..rounds {
        if migrate_every.is_some_and(|every| round > 0 && round % every == 0) {
            for &id in ids {
                let t = Instant::now();
                out.attempted += 1;
                match wire::migrate(client, id) {
                    Ok(()) => out.migrations.push(t.elapsed()),
                    Err(e) => out.errors.push(e),
                }
            }
        }
        for session in requests {
            let t = Instant::now();
            out.attempted += 1;
            match wire::submit(client, &session[round]) {
                Ok(_) => out.submits.push(t.elapsed()),
                Err(e) => out.errors.push(e),
            }
        }
    }
    out
}
