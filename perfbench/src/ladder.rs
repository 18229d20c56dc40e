//! The traced run: the workload's own inputs pushed down the layer
//! ladder, one rung at a time,
//!
//! ```text
//! serve_batch → Driver (audit off) → Driver (full audit) → Session
//!   → SessionManager → TCP serve → router
//! ```
//!
//! Every rung sends the same submits in the same (round-major) order
//! from one caller with one call outstanding, recording a span around
//! each public call; spans of the same submit share its id on every
//! rung. The whole ladder runs [`REPEATS`] times, rungs interleaved, so
//! neighbouring rungs see the same machine. A layer's self time is the
//! median over submits of its rung's span minus the rung below's span
//! for the same submit and repeat; its noise floor is how far that
//! median moves between repeats. Every rung must end with the same
//! ledger and the same algorithm work counters; the audited rungs must
//! also agree on the driver's counters. Probes of the codecs, snapshot
//! and restore, `Cluster::migrate`, the ringload oracle,
//! `Scenario::resolve` and the cost of a span itself follow.

use std::path::Path;
use std::time::Instant;

use rdbp_engine::Registries;
use rdbp_model::{
    AuditLevel, CostLedger, Driver, NoopObserver, OnlineAlgorithm, Placement, RunReport,
    WorkCounters,
};
use rdbp_offline::OfflineOracle as _;
use rdbp_ringload::RingloadOracle;
use rdbp_serve::wire::{self as codec, HEADER_LEN};
use rdbp_serve::{Request, Response, Session, SessionManager, Work};

use crate::checks::Checks;
use crate::inputs::{Inputs, Topology};
use crate::metrics::PER_LAYER;
use crate::run::Measured;
use crate::stats::median;
use crate::trace::{Tracer, NO_SUBMIT};
use crate::wire::{self, Target};

/// Repetitions of each probe (codec loops, snapshot/restore, resolve).
const PROBE_REPEATS: usize = 5;
/// `Cluster::migrate` calls per session in the migration probe.
const MIGRATIONS_PER_SESSION: usize = 2;
/// Interleaved runs of the whole ladder.
const REPEATS: usize = 3;
/// Empty spans per loop of the span-cost probe.
const SPAN_PROBE_CALLS: u64 = 200_000;

/// The rungs, bottom to top, as indices into one repeat's rungs.
const CORE: usize = 0;
const DRIVER_OFF: usize = 1;
const DRIVER_FULL: usize = 2;
const SESSION: usize = 3;
const MANAGER: usize = 4;
const TCP: usize = 5;
const ROUTER: usize = 6;
const RUNGS: usize = 7;

/// What a rung's sessions ended with, summed over sessions.
#[derive(Debug, Clone, Default)]
struct Totals {
    counters: WorkCounters,
    ledger: CostLedger,
    violations: u64,
}

impl Totals {
    fn add(&mut self, counters: &WorkCounters, report: &RunReport) {
        self.counters.merge(counters);
        self.ledger = self.ledger + report.ledger;
        self.violations += report.capacity_violations;
    }
}

/// What one run of one rung did.
#[derive(Debug, Clone)]
struct Rung {
    /// The rung's name (also its root span's name).
    name: &'static str,
    /// Duration of each submit's call, indexed by submit id.
    ns: Vec<u64>,
    totals: Totals,
}

/// Counters the algorithm and placement own (the driver's zeroed), so
/// rungs with and without a driver compare.
fn algorithm_view(c: &WorkCounters) -> WorkCounters {
    WorkCounters {
        requests: 0,
        audited_steps: 0,
        journal_records: 0,
        ..*c
    }
}

fn resolve_algorithms(inputs: &Inputs) -> Vec<(Box<dyn OnlineAlgorithm>, AuditLevel)> {
    let registries = Registries::builtin();
    inputs
        .set(0)
        .iter()
        .map(|s| {
            let (_, algorithm, _, _, audit, _) = s
                .scenario
                .resolve(&registries)
                .expect("pinned scenario")
                .into_parts();
            (algorithm, audit)
        })
        .collect()
}

/// Finishes a rung from the `call` spans under its (closed) root.
fn finish(
    tracer: &Tracer,
    inputs: &Inputs,
    root: usize,
    name: &'static str,
    call: &str,
    totals: Totals,
) -> Result<Rung, String> {
    let ns = tracer
        .per_submit(root, call, inputs.order().count())
        .ok_or_else(|| format!("rung {name}: not one `{call}` span per submit"))?;
    Ok(Rung { name, ns, totals })
}

/// Rung 1: `OnlineAlgorithm::serve_batch`, no driver.
fn rung_core(inputs: &Inputs, tracer: &mut Tracer) -> Result<Rung, String> {
    let mut algorithms = resolve_algorithms(inputs);
    let root = tracer.open("serve_batch", NO_SUBMIT, None);
    let mut totals = Totals::default();
    for (id, s, round) in inputs.order() {
        let chunk = inputs.chunk(s, round);
        let (algorithm, audit) = &mut algorithms[s];
        if algorithm.placement().journaling() {
            algorithm.placement_mut().set_journaling(false);
        }
        let out = tracer.time("OnlineAlgorithm::serve_batch", id, Some(root), || {
            algorithm.serve_batch(chunk)
        });
        totals.ledger.communication += out.charged;
        totals.ledger.migration += out.migrations;
        if let AuditLevel::Full { load_limit } = audit {
            totals.violations += u64::from(out.max_load_seen > *load_limit);
        }
    }
    tracer.close(root);
    for (algorithm, _) in &algorithms {
        totals.counters.merge(&algorithm.work_counters());
    }
    finish(
        tracer,
        inputs,
        root,
        "serve_batch",
        "OnlineAlgorithm::serve_batch",
        totals,
    )
}

/// Rungs 2 and 3: `Driver::step_batch` with the audit off or at the
/// scenario's full level.
fn rung_driver(inputs: &Inputs, tracer: &mut Tracer, full_audit: bool) -> Result<Rung, String> {
    let mut sessions: Vec<(Box<dyn OnlineAlgorithm>, Driver)> = resolve_algorithms(inputs)
        .into_iter()
        .map(|(algorithm, audit)| {
            let audit = if full_audit { audit } else { AuditLevel::None };
            let driver = Driver::new(algorithm.name(), "trace", audit);
            (algorithm, driver)
        })
        .collect();
    let name = if full_audit {
        "Driver(full audit)"
    } else {
        "Driver(audit off)"
    };
    let root = tracer.open(name, NO_SUBMIT, None);
    for (id, s, round) in inputs.order() {
        let chunk = inputs.chunk(s, round);
        let (algorithm, driver) = &mut sessions[s];
        tracer.time("Driver::step_batch", id, Some(root), || {
            driver.step_batch(algorithm.as_mut(), chunk, &mut NoopObserver)
        });
    }
    tracer.close(root);
    let mut totals = Totals::default();
    for (algorithm, driver) in &sessions {
        totals.add(&driver.work_counters(algorithm.as_ref()), driver.report());
    }
    finish(tracer, inputs, root, name, "Driver::step_batch", totals)
}

/// Rung 4: `Session::submit_trace`. Returns the live sessions for the
/// snapshot probe.
fn rung_session(inputs: &Inputs, tracer: &mut Tracer) -> Result<(Rung, Vec<Session>), String> {
    let registries = Registries::builtin();
    let mut sessions: Vec<Session> = inputs
        .set(0)
        .iter()
        .map(|s| Session::new(s.scenario.clone(), &registries).expect("pinned scenario"))
        .collect();
    let root = tracer.open("Session", NO_SUBMIT, None);
    for (id, s, round) in inputs.order() {
        let chunk = inputs.chunk(s, round);
        let session = &mut sessions[s];
        tracer.time("Session::submit_trace", id, Some(root), || {
            session.submit_trace(chunk)
        });
    }
    tracer.close(root);
    let mut totals = Totals::default();
    for session in &sessions {
        totals.add(&session.work_counters(), session.report());
    }
    let rung = finish(
        tracer,
        inputs,
        root,
        "Session",
        "Session::submit_trace",
        totals,
    )?;
    Ok((rung, sessions))
}

/// Rung 5: synchronous `SessionManager::submit` (queue, worker hop,
/// reply channel).
fn rung_manager(inputs: &Inputs, tracer: &mut Tracer, workers: usize) -> Result<Rung, String> {
    let manager = SessionManager::new(workers, Registries::builtin());
    let ids = inputs
        .set(0)
        .iter()
        .map(|s| manager.create(s.scenario.clone()).map(|info| info.id))
        .collect::<Result<Vec<u64>, _>>()
        .map_err(|e| e.0)?;
    let root = tracer.open("SessionManager", NO_SUBMIT, None);
    for (id, s, round) in inputs.order() {
        let work = Work::Replay(inputs.chunk(s, round).to_vec());
        tracer
            .time("SessionManager::submit", id, Some(root), || {
                manager.submit(ids[s], work)
            })
            .map_err(|e| e.0)?;
    }
    tracer.close(root);
    let mut totals = Totals::default();
    for &id in &ids {
        let status = manager.query(id).map_err(|e| e.0)?;
        totals.add(&status.counters, &manager.close(id).map_err(|e| e.0)?);
    }
    let _ = manager.shutdown();
    finish(
        tracer,
        inputs,
        root,
        "SessionManager",
        "SessionManager::submit",
        totals,
    )
}

/// What the wire rungs hand to the probes after them.
struct WireRung {
    rung: Rung,
    /// The submits as sent (real session ids).
    requests: Vec<Request>,
    /// The replies as received.
    responses: Vec<Response>,
    /// `Cluster::migrate` durations (router rung only).
    migrate_ns: Vec<u64>,
}

/// Rungs 6 and 7: `Client::call` over TCP to a plain server, or to a
/// router over two backends. The router rung then migrates every
/// session with direct `Cluster::migrate` calls and re-reads the
/// counters, which migration must not change.
fn rung_wire(inputs: &Inputs, tracer: &mut Tracer, topology: Topology) -> Result<WireRung, String> {
    let (name, call) = if topology.router {
        ("router", "Client::call(router)")
    } else {
        ("TCP serve", "Client::call(serve)")
    };
    let target = Target::boot(topology)?;
    let mut client = wire::connect(target.addr)?;
    let ids = inputs
        .set(0)
        .iter()
        .map(|s| wire::create(&mut client, &s.scenario))
        .collect::<Result<Vec<u64>, String>>()?;
    let requests: Vec<Request> = inputs
        .order()
        .map(|(_, s, round)| {
            let mut request = wire::submit_request(inputs.chunk(s, round));
            wire::set_session(&mut request, ids[s]);
            request
        })
        .collect();
    let mut responses = Vec::with_capacity(requests.len());
    let root = tracer.open(name, NO_SUBMIT, None);
    for (request, (id, _, _)) in requests.iter().zip(inputs.order()) {
        let response = tracer.time(call, id, Some(root), || wire::call(&mut client, request))?;
        responses.push(response);
    }
    tracer.close(root);
    let mut migrate_ns = Vec::new();
    if let Some(cluster) = target.cluster() {
        let probe = tracer.open("probe:migrate", NO_SUBMIT, None);
        for &id in &ids {
            for _ in 0..MIGRATIONS_PER_SESSION {
                tracer
                    .time("Cluster::migrate", NO_SUBMIT, Some(probe), || {
                        cluster.migrate(id, None)
                    })
                    .map_err(|e| e.0)?;
                migrate_ns.push(tracer.spans().last().map_or(0, |span| span.ns()));
            }
        }
        tracer.close(probe);
    }
    let mut totals = Totals::default();
    for &id in &ids {
        let status = wire::query(&mut client, id)?;
        totals.add(&status.counters, &wire::close(&mut client, id)?);
    }
    drop(client);
    target.shutdown()?;
    Ok(WireRung {
        rung: finish(tracer, inputs, root, name, call, totals)?,
        requests,
        responses,
        migrate_ns,
    })
}

/// Minimum over [`PROBE_REPEATS`] of the time `f` takes, inside spans.
fn probe_loop(tracer: &mut Tracer, parent: usize, name: &'static str, mut f: impl FnMut()) -> u64 {
    (0..PROBE_REPEATS)
        .map(|_| {
            let span = tracer.open(name, NO_SUBMIT, Some(parent));
            f();
            tracer.close(span);
            tracer.spans()[span].ns()
        })
        .min()
        .unwrap_or(0)
}

/// Per-submit codec costs on the workload's real submit frames and
/// replies: `(encode ns, decode ns, bytes per request)` for the binary
/// frames and then for NDJSON.
fn codec_probe(
    tracer: &mut Tracer,
    requests: &[Request],
    responses: &[Response],
    submit: usize,
    checks: &mut Checks,
) -> [f64; 6] {
    let root = tracer.open("probe:codec", NO_SUBMIT, None);
    let calls = requests.len() as f64;
    let request_frames: Vec<Vec<u8>> = requests.iter().map(codec::encode_request).collect();
    let response_frames: Vec<Vec<u8>> = responses.iter().map(codec::encode_response).collect();
    let request_lines: Vec<String> = requests
        .iter()
        .map(|r| serde_json::to_string(r).expect("requests serialize"))
        .collect();
    let response_lines: Vec<String> = responses
        .iter()
        .map(|r| serde_json::to_string(r).expect("responses serialize"))
        .collect();
    let decoded_ok = request_frames
        .iter()
        .all(|f| codec::decode_request(f[1], &f[HEADER_LEN..]).is_ok())
        && response_frames
            .iter()
            .all(|f| codec::decode_response(f[1], &f[HEADER_LEN..]).is_ok())
        && request_lines
            .iter()
            .all(|l| serde_json::from_str::<Request>(l).is_ok())
        && response_lines
            .iter()
            .all(|l| serde_json::from_str::<Response>(l).is_ok());
    checks.require(decoded_ok, || {
        "codec probe: a frame failed to decode".into()
    });

    let encode = probe_loop(tracer, root, "wire::encode_request+response", || {
        for (q, r) in requests.iter().zip(responses) {
            std::hint::black_box(codec::encode_request(q));
            std::hint::black_box(codec::encode_response(r));
        }
    });
    let decode = probe_loop(tracer, root, "wire::decode_request+response", || {
        for (q, r) in request_frames.iter().zip(&response_frames) {
            let _ = std::hint::black_box(codec::decode_request(q[1], &q[HEADER_LEN..]));
            let _ = std::hint::black_box(codec::decode_response(r[1], &r[HEADER_LEN..]));
        }
    });
    let nd_encode = probe_loop(
        tracer,
        root,
        "serde_json::to_string(request+response)",
        || {
            for (q, r) in requests.iter().zip(responses) {
                let _ = std::hint::black_box(serde_json::to_string(q));
                let _ = std::hint::black_box(serde_json::to_string(r));
            }
        },
    );
    let nd_decode = probe_loop(
        tracer,
        root,
        "serde_json::from_str(request+response)",
        || {
            for (q, r) in request_lines.iter().zip(&response_lines) {
                let _ = std::hint::black_box(serde_json::from_str::<Request>(q));
                let _ = std::hint::black_box(serde_json::from_str::<Response>(r));
            }
        },
    );
    tracer.close(root);
    let frame_bytes: usize = request_frames
        .iter()
        .chain(&response_frames)
        .map(Vec::len)
        .sum();
    // NDJSON lines carry a trailing newline on the wire.
    let line_bytes: usize = request_lines
        .iter()
        .chain(&response_lines)
        .map(|l| l.len() + 1)
        .sum();
    let requests_sent = calls * submit as f64;
    [
        encode as f64 / calls,
        decode as f64 / calls,
        frame_bytes as f64 / requests_sent,
        nd_encode as f64 / calls,
        nd_decode as f64 / calls,
        line_bytes as f64 / requests_sent,
    ]
}

/// `Session::snapshot` and `Session::restore` on the session rung's
/// final sessions: `(snapshot µs, snapshot bytes, restore µs)`, means
/// over sessions of each session's fastest repeat. The bytes are the
/// snapshot's binary wire encoding.
fn snapshot_probe(tracer: &mut Tracer, sessions: &[Session], checks: &mut Checks) -> [f64; 3] {
    let registries = Registries::builtin();
    let root = tracer.open("probe:snapshot", NO_SUBMIT, None);
    let (mut snap_ns, mut restore_ns, mut bytes) = (0u64, 0u64, 0usize);
    for (s, session) in sessions.iter().enumerate() {
        let Ok(snapshot) = session.snapshot() else {
            checks.require(false, || format!("session {s}: snapshot failed"));
            continue;
        };
        let mut encoded = Vec::new();
        codec::encode_value(&snapshot, &mut encoded);
        bytes += encoded.len();
        snap_ns += probe_loop(tracer, root, "Session::snapshot", || {
            let _ = std::hint::black_box(session.snapshot());
        });
        let mut restored = None;
        restore_ns += probe_loop(tracer, root, "Session::restore", || {
            restored = Some(Session::restore(&snapshot, &registries));
        });
        checks.require(
            matches!(&restored, Some(Ok(r)) if r.report() == session.report()),
            || format!("session {s}: restore does not reproduce the report"),
        );
    }
    tracer.close(root);
    let n = sessions.len() as f64;
    [
        snap_ns as f64 / n / 1e3,
        bytes as f64 / n,
        restore_ns as f64 / n / 1e3,
    ]
}

/// Median `Scenario::resolve` time per session, in µs.
fn resolve_probe(tracer: &mut Tracer, inputs: &Inputs) -> f64 {
    let registries = Registries::builtin();
    let root = tracer.open("probe:resolve", NO_SUBMIT, None);
    let mut samples = Vec::new();
    for input in inputs.set(0) {
        for _ in 0..PROBE_REPEATS {
            let span = tracer.open("Scenario::resolve", NO_SUBMIT, Some(root));
            let prepared = input.scenario.resolve(&registries);
            tracer.close(span);
            drop(prepared);
            samples.push(tracer.spans()[span].ns() as f64 / 1e3);
        }
    }
    tracer.close(root);
    median(&samples)
}

/// The ringload oracle on every session's trace: `(LB s, UB s, cut
/// evaluations, ΣUB / ΣLB)`.
fn ringload_probe(tracer: &mut Tracer, inputs: &Inputs, checks: &mut Checks) -> [f64; 4] {
    let root = tracer.open("probe:ringload", NO_SUBMIT, None);
    let (mut lb_ns, mut ub_ns, mut lb_sum, mut ub_sum, mut cut_evals) = (0, 0, 0.0, 0.0, 0);
    for (s, input) in inputs.set(0).iter().enumerate() {
        let instance = input.scenario.instance.build().expect("pinned instance");
        let initial = Placement::contiguous(&instance);
        let mut oracle = RingloadOracle::new();
        let lb = tracer.time("RingloadOracle::lower_bound", NO_SUBMIT, Some(root), || {
            oracle.lower_bound(&instance, &initial, &input.trace)
        });
        lb_ns += tracer.spans().last().map_or(0, |span| span.ns());
        let ub = tracer.time("RingloadOracle::upper_bound", NO_SUBMIT, Some(root), || {
            oracle.upper_bound(&instance, &initial, &input.trace)
        });
        ub_ns += tracer.spans().last().map_or(0, |span| span.ns());
        let ub = ub.unwrap_or(f64::INFINITY);
        checks.certificate(&format!("session {s}"), lb, ub);
        lb_sum += lb;
        ub_sum += ub;
        cut_evals += oracle.work_counters().oracle_cut_evals;
    }
    tracer.close(root);
    [
        lb_ns as f64 / 1e9,
        ub_ns as f64 / 1e9,
        cut_evals as f64,
        ub_sum / lb_sum,
    ]
}

/// Median cost of one empty span (open and close around a no-op), in
/// ns, over [`PROBE_REPEATS`] loops of [`SPAN_PROBE_CALLS`] spans, each
/// into a fresh tracer as the ladder's own spans are.
fn span_probe() -> f64 {
    let samples: Vec<f64> = (0..PROBE_REPEATS)
        .map(|_| {
            let mut scratch = Tracer::new(Instant::now());
            let t = Instant::now();
            for id in 0..SPAN_PROBE_CALLS {
                scratch.time("probe:span", id, None, || ());
            }
            t.elapsed().as_nanos() as f64 / SPAN_PROBE_CALLS as f64
        })
        .collect();
    median(&samples)
}

/// Per submit, the fastest of the repeats of rung `k`.
fn fastest(repeats: &[[Rung; RUNGS]], k: usize) -> Vec<u64> {
    let mut best = repeats[0][k].ns.clone();
    for repeat in &repeats[1..] {
        for (b, &ns) in best.iter_mut().zip(&repeat[k].ns) {
            *b = (*b).min(ns);
        }
    }
    best
}

/// The self time of rung `upper` over rung `lower`, in ns per submit:
/// for each submit, the median over repeats of its `upper` span minus
/// its `lower` span in the same repeat, then the median over submits.
/// Also returns the noise floor: the range, across repeats, of the
/// median over submits of one repeat's differences.
fn self_time(repeats: &[[Rung; RUNGS]], upper: usize, lower: usize) -> (f64, f64) {
    let diffs: Vec<Vec<f64>> = repeats
        .iter()
        .map(|r| {
            r[upper]
                .ns
                .iter()
                .zip(&r[lower].ns)
                .map(|(&a, &b)| a as f64 - b as f64)
                .collect()
        })
        .collect();
    let per_submit: Vec<f64> = (0..diffs[0].len())
        .map(|i| median(&diffs.iter().map(|d| d[i]).collect::<Vec<f64>>()))
        .collect();
    let per_repeat: Vec<f64> = diffs.iter().map(|d| median(d)).collect();
    let (lo, hi) = per_repeat
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    (median(&per_submit), hi - lo)
}

/// Runs the ladder and its probes and writes every span to `spans` as
/// CSV.
#[must_use]
pub fn traced(inputs: &Inputs, spans: &Path) -> Measured {
    let mut tracer = Tracer::new(Instant::now());
    let mut checks = Checks::default();
    let mut notes = Vec::new();
    let (values, attempted, failed) = match ladder(inputs, &mut tracer, &mut checks, &mut notes) {
        Ok(values) => {
            let calls = (RUNGS * REPEATS * inputs.order().count()) as u64;
            (values, calls, 0)
        }
        Err(e) => {
            checks.require(false, || format!("ladder: {e}"));
            let values = PER_LAYER.iter().map(|m| (m.name, f64::NAN)).collect();
            (values, 1, 1)
        }
    };
    match tracer.write_csv(spans) {
        Ok(()) => notes.push(format!(
            "{} spans written to {}",
            tracer.spans().len(),
            spans.display()
        )),
        Err(e) => notes.push(format!("spans not written to {}: {e}", spans.display())),
    }
    Measured {
        values,
        checks,
        attempted,
        failed,
        notes,
    }
}

/// The interleaved rungs plus probes; returns every per-layer metric.
fn ladder(
    inputs: &Inputs,
    tracer: &mut Tracer,
    checks: &mut Checks,
    notes: &mut Vec<String>,
) -> Result<Vec<(&'static str, f64)>, String> {
    let shape = &inputs.shape;
    let requests = shape.requests_per_pass();
    let submits = inputs.order().count() as f64;

    let span_ns = span_probe();
    let resolve_us = resolve_probe(tracer, inputs);
    let mut repeats = Vec::with_capacity(REPEATS);
    let mut migrate_ns = Vec::new();
    let (mut live, mut wire_io) = (Vec::new(), (Vec::new(), Vec::new()));
    for _ in 0..REPEATS {
        // Whichever rung runs first after the previous repeat (or the
        // probes) runs slower throughout: an untimed run of the bottom
        // rung takes that place.
        rung_core(inputs, &mut Tracer::new(Instant::now()))?;
        let core = rung_core(inputs, tracer)?;
        let off = rung_driver(inputs, tracer, false)?;
        let full = rung_driver(inputs, tracer, true)?;
        let (session, sessions) = rung_session(inputs, tracer)?;
        let manager = rung_manager(inputs, tracer, Topology::SERVE.workers)?;
        let tcp = rung_wire(inputs, tracer, Topology::SERVE)?;
        let router = rung_wire(inputs, tracer, Topology::CLUSTER)?;
        migrate_ns.extend(router.migrate_ns);
        live = sessions;
        wire_io = (tcp.requests, tcp.responses);
        repeats.push([core, off, full, session, manager, tcp.rung, router.rung]);
    }

    let bottom = &repeats[0][CORE].totals;
    let audited = &repeats[0][DRIVER_FULL].totals;
    for (r, repeat) in repeats.iter().enumerate() {
        for (k, rung) in repeat.iter().enumerate() {
            let what = format!("repeat {r} rung {}", rung.name);
            checks.same_counters(
                &format!("{what} vs serve_batch (algorithm counters)"),
                &algorithm_view(&bottom.counters),
                &algorithm_view(&rung.totals.counters),
            );
            if k >= DRIVER_FULL {
                checks.same_counters(
                    &format!("{what} vs Driver(full audit)"),
                    &audited.counters,
                    &rung.totals.counters,
                );
            }
            checks.require(rung.totals.ledger == bottom.ledger, || {
                format!(
                    "{what}: ledger {:?} differs from serve_batch's {:?}",
                    rung.totals.ledger, bottom.ledger
                )
            });
            checks.require(rung.totals.violations == 0, || {
                format!("{what}: {} capacity violations", rung.totals.violations)
            });
        }
        let off = &repeat[DRIVER_OFF].totals.counters;
        checks.require(off.requests == requests, || {
            format!(
                "repeat {r}: Driver(audit off) counted {} requests, sent {requests}",
                off.requests
            )
        });
    }

    // Per call, the fastest repeat of each submit.
    let call_ns: Vec<f64> = (0..RUNGS)
        .map(|k| fastest(&repeats, k).iter().sum::<u64>() as f64 / submits)
        .collect();
    notes.push(format!(
        "{:<20} {:>8} {:>10} {:>10}  (per submit, fastest of {REPEATS})",
        "rung", "calls", "ns/req", "us/call"
    ));
    for (k, rung) in repeats[0].iter().enumerate() {
        notes.push(format!(
            "{:<20} {:>8} {:>10.1} {:>10.2}",
            rung.name,
            rung.ns.len(),
            call_ns[k] * submits / requests as f64,
            call_ns[k] / 1e3
        ));
    }
    let per_req = shape.submit as f64;
    let layers = [
        ("model.driver_ns_per_req", DRIVER_OFF, per_req),
        ("model.audit_ns_per_req", DRIVER_FULL, per_req),
        ("serve.session_ns_per_req", SESSION, per_req),
        ("serve.manager_hop_us", MANAGER, 1e3),
        ("serve.reactor_us", TCP, 1e3),
        ("cluster.router_hop_us", ROUTER, 1e3),
    ];
    notes.push(format!(
        "{:<28} {:>12} {:>12}  (paired per submit)",
        "self time", "median", "noise floor"
    ));
    let mut own = Vec::new();
    for (name, upper, scale) in layers {
        let (ns, noise) = self_time(&repeats, upper, upper - 1);
        notes.push(format!(
            "{name:<28} {:>12.3} {:>12.3}",
            ns / scale,
            noise / scale
        ));
        own.push((ns / scale, noise / scale));
    }
    // A span per call inflates every rung's calls by the same amount,
    // so it weighs most on the cheapest rung.
    let cheapest = call_ns.iter().copied().fold(f64::INFINITY, f64::min);
    notes.push(format!(
        "tracing overhead: {span_ns:.1} ns per span, {:.1} us per call on the cheapest rung",
        cheapest / 1e3
    ));

    let (requests_sent, responses) = &wire_io;
    let codec = codec_probe(tracer, requests_sent, responses, shape.submit, checks);
    let snapshot = snapshot_probe(tracer, &live, checks);
    let ringload = ringload_probe(tracer, inputs, checks);
    let migrate_us = migrate_ns.iter().sum::<u64>() as f64 / migrate_ns.len().max(1) as f64 / 1e3;

    let per_req = |c: u64| c as f64 / requests as f64;
    let counters = &audited.counters;
    Ok(vec![
        ("engine.resolve_us", resolve_us),
        (
            "core.serve_ns_per_req",
            call_ns[CORE] * submits / requests as f64,
        ),
        ("core.migrations_per_req", per_req(counters.migrations)),
        (
            "mts.hst_node_visits_per_req",
            per_req(counters.hst_node_visits),
        ),
        (
            "mts.hst_cache_hit_ratio",
            counters.hst_cache_hits as f64 / counters.policy_serve_hit as f64,
        ),
        (
            "smin.coupling_follows_per_req",
            per_req(counters.coupling_follows),
        ),
        ("model.driver_ns_per_req", own[0].0),
        ("model.driver_ns_per_req.noise", own[0].1),
        ("model.audit_ns_per_req", own[1].0),
        ("model.audit_ns_per_req.noise", own[1].1),
        (
            "model.journal_records_per_req",
            per_req(counters.journal_records),
        ),
        ("serve.session_ns_per_req", own[2].0),
        ("serve.session_ns_per_req.noise", own[2].1),
        ("serve.manager_hop_us", own[3].0),
        ("serve.manager_hop_us.noise", own[3].1),
        ("serve.wire_encode_ns", codec[0]),
        ("serve.wire_decode_ns", codec[1]),
        ("serve.frame_bytes_per_req", codec[2]),
        ("serve.ndjson_encode_ns", codec[3]),
        ("serve.ndjson_decode_ns", codec[4]),
        ("serve.ndjson_bytes_per_req", codec[5]),
        ("serve.reactor_us", own[4].0),
        ("serve.reactor_us.noise", own[4].1),
        ("cluster.router_hop_us", own[5].0),
        ("cluster.router_hop_us.noise", own[5].1),
        ("cluster.snapshot_us", snapshot[0]),
        ("cluster.snapshot_bytes", snapshot[1]),
        ("cluster.restore_us", snapshot[2]),
        ("cluster.migrate_us", migrate_us),
        ("ringload.lower_bound_s", ringload[0]),
        ("ringload.upper_bound_s", ringload[1]),
        ("ringload.cut_evals", ringload[2]),
        ("ringload.ub_over_lb", ringload[3]),
        ("trace.overhead_pct", span_ns / cheapest * 100.0),
    ])
}
