//! Root-level audit tests for the simulation driver: the driver — not
//! the algorithm — is the source of truth for cost accounting and
//! capacity auditing, so these properties must hold for *any*
//! `OnlineAlgorithm` implementation, including adversarial ones.

use rdbp::prelude::*;
use rdbp_model::workload::Sequential;
use rdbp_model::{BatchOutcome, Driver, NoopObserver, Process, Server};

/// Scripted algorithm: on the first serve it crams every process onto
/// server 0, blowing straight through any sensible load bound, and
/// truthfully reports its migrations.
struct Overloader {
    placement: Placement,
    fired: bool,
}

impl OnlineAlgorithm for Overloader {
    fn placement(&self) -> &Placement {
        &self.placement
    }

    fn placement_mut(&mut self) -> &mut Placement {
        &mut self.placement
    }

    fn serve(&mut self, _request: Edge) -> u64 {
        if self.fired {
            return 0;
        }
        self.fired = true;
        let mut moves = 0;
        for p in self.placement.instance().processes() {
            if self.placement.migrate(p, Server(0)) {
                moves += 1;
            }
        }
        moves
    }

    fn name(&self) -> &'static str {
        "overloader"
    }
}

#[test]
fn run_flags_an_algorithm_that_exceeds_the_load_bound() {
    let inst = RingInstance::new(6, 3, 2);
    let mut alg = Overloader {
        placement: Placement::contiguous(&inst),
        fired: false,
    };
    let mut w = Sequential::new();
    // A generous augmented bound (2k = 4) that the overloader still
    // violates: all 6 processes end up on one server.
    let report = run(&mut alg, &mut w, 5, AuditLevel::Full { load_limit: 4 });
    assert_eq!(
        report.capacity_violations, 5,
        "every post-overload step must be flagged"
    );
    assert_eq!(report.max_load_seen, 6);

    // The identical run under a bound the algorithm respects up front
    // reports zero violations: the audit flags algorithms, not setups.
    let mut lazy = Overloader {
        placement: Placement::contiguous(&inst),
        fired: true, // never fires: stays at the balanced placement
    };
    let mut w = Sequential::new();
    let clean = run(&mut lazy, &mut w, 5, AuditLevel::Full { load_limit: 4 });
    assert_eq!(clean.capacity_violations, 0);
}

/// Scripted algorithm that performs a fixed migration script per step
/// and reports truthfully, letting the test pin down exactly when the
/// driver charges communication.
struct Scripted {
    placement: Placement,
    script: Vec<Vec<(Process, Server)>>,
    step: usize,
}

impl OnlineAlgorithm for Scripted {
    fn placement(&self) -> &Placement {
        &self.placement
    }

    fn placement_mut(&mut self) -> &mut Placement {
        &mut self.placement
    }

    fn serve(&mut self, _request: Edge) -> u64 {
        let moves = self.script.get(self.step).cloned().unwrap_or_default();
        self.step += 1;
        let mut n = 0;
        for (p, s) in moves {
            if self.placement.migrate(p, s) {
                n += 1;
            }
        }
        n
    }
}

#[test]
fn ledger_charges_iff_endpoints_split_at_request_time() {
    // Contiguous placement on n=6, ℓ=3, k=2: {0,1} {2,3} {4,5};
    // cut edges are 1, 3, 5.
    let inst = RingInstance::new(6, 3, 2);

    // Case 1: requested edge is cut at request time and the algorithm
    // collocates while serving → the request is still charged (costs
    // are assessed from the placement *before* serve), but a repeat of
    // the request afterwards is free.
    let mut alg = Scripted {
        placement: Placement::contiguous(&inst),
        script: vec![vec![(Process(2), Server(0))]],
        step: 0,
    };
    assert!(alg.placement.is_cut(Edge(1)));
    let report = run_trace(
        &mut alg,
        &[Edge(1), Edge(1)],
        AuditLevel::Full { load_limit: 6 },
    );
    assert_eq!(
        report.ledger.communication, 1,
        "first request charged (cut at request time), second free (collocated)"
    );
    assert_eq!(report.ledger.migration, 1);

    // Case 2: requested edge is NOT cut at request time, and the
    // algorithm splits its endpoints while serving → no communication
    // charge for that request, but the new cut is charged on the next
    // request to it.
    let mut alg = Scripted {
        placement: Placement::contiguous(&inst),
        script: vec![vec![(Process(1), Server(2))]],
        step: 0,
    };
    assert!(!alg.placement.is_cut(Edge(0)));
    let report = run_trace(
        &mut alg,
        &[Edge(0), Edge(0)],
        AuditLevel::Full { load_limit: 6 },
    );
    assert_eq!(
        report.ledger.communication, 1,
        "uncut-at-request-time edge is free even though serve() split it; the repeat is charged"
    );
    assert_eq!(report.ledger.migration, 1);

    // Case 3: an untouched, uncut edge is never charged.
    let mut alg = Scripted {
        placement: Placement::contiguous(&inst),
        script: vec![],
        step: 0,
    };
    let report = run_trace(
        &mut alg,
        &[Edge(0), Edge(4)],
        AuditLevel::Full { load_limit: 6 },
    );
    assert_eq!(report.ledger.communication, 0);
    assert_eq!(report.ledger.migration, 0);
    assert_eq!(report.steps, 2);
}

#[test]
#[should_panic(expected = "under-reported")]
fn driver_catches_migration_under_reporting() {
    /// Moves a process but reports zero migrations.
    struct Liar {
        placement: Placement,
    }
    impl OnlineAlgorithm for Liar {
        fn placement(&self) -> &Placement {
            &self.placement
        }

        fn placement_mut(&mut self) -> &mut Placement {
            &mut self.placement
        }
        fn serve(&mut self, _r: Edge) -> u64 {
            self.placement.migrate(Process(0), Server(2));
            0
        }
    }
    let inst = RingInstance::new(6, 3, 2);
    let mut alg = Liar {
        placement: Placement::contiguous(&inst),
    };
    let _ = run_trace(&mut alg, &[Edge(0)], AuditLevel::Full { load_limit: 6 });
}

/// The ring the referee tests run on: contiguous placement on n=6,
/// ℓ=3, k=2, so edges 1, 3 and 5 are cut.
fn six() -> RingInstance {
    RingInstance::new(6, 3, 2)
}

/// Every edge of the 6-ring in turn, 100 times: 600 requests, 300 of
/// them to the contiguous placement's cut edges.
fn ring_laps() -> Vec<Edge> {
    (0..600).map(|i| Edge(i % 6)).collect()
}

const FULL: AuditLevel = AuditLevel::Full { load_limit: 6 };
const BOTH_AUDITS: [AuditLevel; 2] = [FULL, AuditLevel::None];

/// Never moves, and claims its batches cost nothing: a batch loop that
/// reports `BatchOutcome::default()` whatever it served.
struct FreeRider {
    placement: Placement,
}

impl OnlineAlgorithm for FreeRider {
    fn placement(&self) -> &Placement {
        &self.placement
    }

    fn placement_mut(&mut self) -> &mut Placement {
        &mut self.placement
    }

    fn serve(&mut self, _request: Edge) -> u64 {
        0
    }

    fn serve_batch(&mut self, _requests: &[Edge]) -> BatchOutcome {
        BatchOutcome::default()
    }
}

#[test]
fn a_batch_loop_that_reports_no_cost_is_charged_anyway() {
    let trace = ring_laps();
    for audit in BOTH_AUDITS {
        let per_step = run_trace(
            &mut FreeRider {
                placement: Placement::contiguous(&six()),
            },
            &trace,
            audit,
        );
        assert_eq!(per_step.ledger.communication, 300, "{audit:?}");
        let mut alg = FreeRider {
            placement: Placement::contiguous(&six()),
        };
        let mut driver = Driver::new(alg.name(), "trace", audit);
        for chunk in trace.chunks(64) {
            driver.step_batch(&mut alg, chunk, &mut NoopObserver);
        }
        let batched = driver.finish(&mut NoopObserver);
        assert_eq!(batched, per_step, "{audit:?}: batching moved the ledger");
    }
}

/// How a [`Faulty`] algorithm's batch loop breaks the referee protocol.
#[derive(Debug, Clone, Copy)]
enum Fault {
    /// Never calls `after_serve` for the first request.
    SkipAfterServe,
    /// Calls `after_serve` twice for the first request.
    AfterServeTwice,
    /// Hands `before_serve` the first request's neighbour edge.
    OtherRequest,
    /// Serves nothing and returns.
    ReturnEarly,
}

impl Fault {
    /// The fault the referee's panic must name.
    fn named(self) -> &'static str {
        match self {
            Fault::SkipAfterServe => "(an unsettled request)",
            Fault::AfterServeTwice => "(a repeated request)",
            Fault::OtherRequest => "(a substituted request)",
            Fault::ReturnEarly => "(a skipped request)",
        }
    }
}

/// Serves honestly through `serve`, but its `serve_refereed` loop
/// commits one [`Fault`] on the first request.
struct Faulty {
    placement: Placement,
    fault: Fault,
}

impl OnlineAlgorithm for Faulty {
    fn placement(&self) -> &Placement {
        &self.placement
    }

    fn placement_mut(&mut self) -> &mut Placement {
        &mut self.placement
    }

    fn serve(&mut self, _request: Edge) -> u64 {
        0
    }

    fn serve_refereed(&mut self, requests: &[Edge], referee: &mut dyn Referee) {
        for (i, &request) in requests.iter().enumerate() {
            let first = i == 0;
            match self.fault {
                Fault::ReturnEarly if first => return,
                Fault::OtherRequest if first => {
                    let n = self.placement.instance().n();
                    referee.before_serve(&self.placement, Edge((request.0 + 1) % n));
                }
                _ => referee.before_serve(&self.placement, request),
            }
            let migrations = self.serve(request);
            match self.fault {
                Fault::SkipAfterServe if first => {}
                Fault::AfterServeTwice if first => {
                    referee.after_serve(&mut self.placement, migrations);
                    referee.after_serve(&mut self.placement, migrations);
                }
                _ => referee.after_serve(&mut self.placement, migrations),
            }
        }
    }
}

/// Runs `f` and returns its panic message (`None` if it returned).
fn panic_message(f: impl FnOnce()) -> Option<String> {
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).err()?;
    Some(
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default(),
    )
}

#[test]
fn a_batch_loop_that_breaks_the_referee_protocol_panics_naming_the_fault() {
    let faults = [
        Fault::SkipAfterServe,
        Fault::AfterServeTwice,
        Fault::OtherRequest,
        Fault::ReturnEarly,
    ];
    let trace = ring_laps();
    for fault in faults {
        for audit in BOTH_AUDITS {
            for entry in ["step", "step_batch", "step_batch_generated"] {
                let message = panic_message(|| {
                    let mut alg = Faulty {
                        placement: Placement::contiguous(&six()),
                        fault,
                    };
                    let mut driver = Driver::new("faulty", "trace", audit);
                    match entry {
                        "step" => {
                            driver.step(&mut alg, trace[0], &mut NoopObserver);
                        }
                        "step_batch" => {
                            driver.step_batch(&mut alg, &trace, &mut NoopObserver);
                        }
                        _ => {
                            let mut w = Sequential::new();
                            driver.step_batch_generated(&mut alg, &mut w, 50, &mut NoopObserver);
                        }
                    }
                })
                .unwrap_or_else(|| panic!("{fault:?} under {audit:?} via {entry} passed"));
                assert!(
                    message.contains(fault.named()),
                    "{fault:?} under {audit:?} via {entry}: {message}"
                );
            }
        }
    }
}

/// Serves every request honestly without moving, then moves process 0
/// once its last request is settled.
struct LateMover {
    placement: Placement,
}

impl OnlineAlgorithm for LateMover {
    fn placement(&self) -> &Placement {
        &self.placement
    }

    fn placement_mut(&mut self) -> &mut Placement {
        &mut self.placement
    }

    fn serve(&mut self, _request: Edge) -> u64 {
        0
    }

    fn serve_refereed(&mut self, requests: &[Edge], referee: &mut dyn Referee) {
        for &request in requests {
            referee.before_serve(&self.placement, request);
            referee.after_serve(&mut self.placement, 0);
        }
        let to = Server(1 - self.placement.server(Process(0)).0);
        self.placement.migrate(Process(0), to);
    }
}

#[test]
fn a_move_after_the_last_settled_request_is_caught_under_full_audit() {
    let trace = ring_laps();
    for entry in ["step", "step_batch"] {
        let message = panic_message(|| {
            let mut alg = LateMover {
                placement: Placement::contiguous(&six()),
            };
            let mut driver = Driver::new("late-mover", "trace", FULL);
            match entry {
                "step" => {
                    driver.step(&mut alg, trace[0], &mut NoopObserver);
                }
                _ => {
                    driver.step_batch(&mut alg, &trace, &mut NoopObserver);
                }
            }
        })
        .unwrap_or_else(|| panic!("a late move via {entry} passed"));
        assert!(
            message.contains("made 1 migration(s) after settling its last request"),
            "{entry}: {message}"
        );
    }
}

/// Migrates process 0 on every request through its own batch loop,
/// reporting `reported` migrations per request.
struct MisReporter {
    placement: Placement,
    reported: u64,
}

impl OnlineAlgorithm for MisReporter {
    fn placement(&self) -> &Placement {
        &self.placement
    }

    fn placement_mut(&mut self) -> &mut Placement {
        &mut self.placement
    }

    fn serve(&mut self, _request: Edge) -> u64 {
        unreachable!("the batch loop below never calls serve")
    }

    fn serve_refereed(&mut self, requests: &[Edge], referee: &mut dyn Referee) {
        for &request in requests {
            referee.before_serve(&self.placement, request);
            let to = Server(1 - self.placement.server(Process(0)).0);
            self.placement.migrate(Process(0), to);
            referee.after_serve(&mut self.placement, self.reported);
        }
    }
}

#[test]
fn mis_reporting_through_an_own_batch_loop_is_caught() {
    let trace = ring_laps();
    for (reported, named) in [(0, "under-reported"), (2, "over-reported")] {
        let message = panic_message(|| {
            let mut alg = MisReporter {
                placement: Placement::contiguous(&six()),
                reported,
            };
            let mut driver = Driver::new("mis-reporter", "trace", FULL);
            driver.step_batch(&mut alg, &trace, &mut NoopObserver);
        })
        .expect("the full audit must reject a mis-report");
        assert!(
            message.contains(&format!(
                "algorithm {named} migrations: reported {reported}, actual 1"
            )),
            "{message}"
        );
    }
    // The honest count passes, and is what the ledger charges.
    let mut alg = MisReporter {
        placement: Placement::contiguous(&six()),
        reported: 1,
    };
    let report = run_trace(&mut alg, &trace, FULL);
    assert_eq!(report.ledger.migration, 600);
}

/// Every registered algorithm key, with the instance it runs on:
/// `dynamic` under each MTS policy, and `bisection` on two servers.
const EVERY_ALGORITHM: [(&str, Option<&str>, u32, u32); 10] = [
    ("dynamic", Some("hedge"), 4, 8),
    ("dynamic", Some("wfa"), 4, 8),
    ("dynamic", Some("smin"), 4, 8),
    ("dynamic", Some("marking"), 4, 8),
    ("static", None, 4, 8),
    ("greedy", None, 4, 8),
    ("component", None, 4, 8),
    ("never-move", None, 4, 8),
    ("learning", None, 4, 8),
    ("bisection", None, 2, 16),
];

/// Sums a batched run's [`BatchEvent`]s, and records a per-step run's
/// [`StepEvent`]s.
#[derive(Debug, Default)]
struct Tally {
    steps: Vec<StepEvent>,
    batches: Vec<BatchEvent>,
}

impl Observer for Tally {
    fn on_step(&mut self, event: &StepEvent) {
        self.steps.push(*event);
    }

    fn on_batch(&mut self, event: &BatchEvent) {
        self.batches.push(*event);
    }
}

impl Tally {
    /// The batches as one event starting at step 0.
    fn summed_batches(&self) -> (u64, u64, u64, u32, u64) {
        let mut sum = (0, 0, 0, 0, 0);
        for b in &self.batches {
            sum.0 += b.served;
            sum.1 += b.charged;
            sum.2 += b.migrations;
            sum.3 = sum.3.max(b.max_load);
            sum.4 += b.violations;
        }
        sum
    }

    /// The steps summed the way a batch sums them.
    fn summed_steps(&self) -> (u64, u64, u64, u32, u64) {
        let mut sum = (0, 0, 0, 0, 0);
        for s in &self.steps {
            sum.0 += 1;
            sum.1 += u64::from(s.charged);
            sum.2 += s.migrations;
            sum.3 = sum.3.max(s.max_load);
            sum.4 += u64::from(s.violated);
        }
        sum
    }
}

/// A resolved algorithm and workload for one `(algorithm, workload)`
/// pair, with the audit level set to `full` or off.
fn resolve_pair(
    (algorithm, policy, servers, capacity): (&str, Option<&str>, u32, u32),
    workload: &str,
    full: bool,
) -> (Box<dyn OnlineAlgorithm>, Box<dyn Workload>, AuditLevel) {
    let mut spec = AlgorithmSpec::named(algorithm);
    spec.policy = policy.map(String::from);
    let mut scenario = Scenario::new(
        InstanceSpec::packed(servers, capacity),
        spec,
        WorkloadSpec::named(workload),
        0,
    );
    scenario.seed = 29;
    let (_, algorithm, workload, _, audit, _) = scenario
        .resolve(&Registries::builtin())
        .expect("resolve")
        .into_parts();
    (
        algorithm,
        workload,
        if full { audit } else { AuditLevel::None },
    )
}

#[test]
fn batched_runs_match_per_step_runs_for_every_algorithm() {
    const STEPS: u64 = 2100;
    for pair in EVERY_ALGORITHM {
        for workload_key in ["uniform", "sliding", "chaser"] {
            for full in [true, false] {
                let what = format!("{pair:?} × {workload_key}, full audit {full}");

                // Per step, through `Driver::step`.
                let (mut algorithm, mut workload, audit) = resolve_pair(pair, workload_key, full);
                let mut driver = Driver::new(algorithm.name(), workload.name(), audit);
                let mut per_step = Tally::default();
                for _ in 0..STEPS {
                    driver.step_generated(algorithm.as_mut(), workload.as_mut(), &mut per_step);
                }
                let counters = driver.work_counters(algorithm.as_ref());
                let report = driver.finish(&mut per_step);
                let trace: Vec<Edge> = per_step.steps.iter().map(|s| s.request).collect();

                // The step events are what serving by hand observes.
                let (mut by_hand, _, _) = resolve_pair(pair, workload_key, full);
                for (t, event) in per_step.steps.iter().enumerate() {
                    let charged = by_hand.placement().is_cut(event.request);
                    let migrations = by_hand.serve(event.request);
                    let max_load = by_hand.placement().max_load();
                    let violated = matches!(
                        audit,
                        AuditLevel::Full { load_limit } if max_load > load_limit
                    );
                    let want = StepEvent {
                        step: t as u64,
                        request: event.request,
                        charged,
                        migrations,
                        max_load,
                        violated,
                    };
                    assert_eq!(*event, want, "{what}: step {t}");
                }

                for batch in [1u64, 7, 1000] {
                    // Generated batches, through `step_batch_generated`.
                    let (mut algorithm, mut workload, _) = resolve_pair(pair, workload_key, full);
                    let mut driver = Driver::new(algorithm.name(), workload.name(), audit);
                    let mut batched = Tally::default();
                    let mut left = STEPS;
                    while left > 0 {
                        let take = left.min(batch);
                        driver.step_batch_generated(
                            algorithm.as_mut(),
                            workload.as_mut(),
                            take,
                            &mut batched,
                        );
                        left -= take;
                    }
                    assert_eq!(
                        driver.work_counters(algorithm.as_ref()),
                        counters,
                        "{what}, generated batch {batch}"
                    );
                    assert_eq!(
                        driver.finish(&mut batched),
                        report,
                        "{what}, generated batch {batch}"
                    );
                    assert!(batched.steps.is_empty(), "{what}: batches emit no steps");
                    assert_eq!(
                        batched.summed_batches(),
                        per_step.summed_steps(),
                        "{what}, generated batch {batch}"
                    );

                    // The recorded requests replayed, through `step_batch`.
                    let (mut algorithm, _, _) = resolve_pair(pair, workload_key, full);
                    let mut driver = Driver::new(algorithm.name(), report.workload.clone(), audit);
                    let mut replayed = Tally::default();
                    for chunk in trace.chunks(batch as usize) {
                        driver.step_batch(algorithm.as_mut(), chunk, &mut replayed);
                    }
                    assert_eq!(
                        driver.work_counters(algorithm.as_ref()),
                        counters,
                        "{what}, replayed batch {batch}"
                    );
                    assert_eq!(
                        driver.finish(&mut replayed),
                        report,
                        "{what}, replayed batch {batch}"
                    );
                    assert_eq!(
                        replayed.summed_batches(),
                        per_step.summed_steps(),
                        "{what}, replayed batch {batch}"
                    );
                }
            }
        }
    }
}
