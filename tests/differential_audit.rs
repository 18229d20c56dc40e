//! Differential audit property: the delta-driven journal audit (the
//! production `Driver::step` path) and the pre-refactor clone+Hamming
//! reference audit ([`StrictAuditor`], defined here) agree
//! step-for-step on random algorithm × workload runs.
//!
//! The reference run re-implements the old driver loop verbatim:
//! charge communication from the pre-serve placement, snapshot the
//! placement (O(n) clone), serve, verify `reported ≥ hamming`, rescan
//! all loads for the max (O(ℓ)). The journal run is the real driver.
//! Both see identical request streams (same scenario seed), so every
//! per-step observation — charged flag, reported migrations, post-step
//! max load, violation flag — must coincide, and both audits must
//! accept. This pins the refactor's claim that O(changed) auditing is
//! exactly as strict as O(n) auditing on honest algorithms.

use rdbp::prelude::*;

/// The pre-journal reference auditor: clones the placement before each
/// serve and verifies the reported migrations against the O(n) Hamming
/// diff, exactly as `Driver::step` did before the delta-driven refactor.
///
/// Kept as the independent ground truth for the differential-audit
/// property tests below: on any honest algorithm, the journal audit
/// and this reference must agree step-for-step. Not used on any hot
/// path.
#[derive(Debug, Default)]
pub struct StrictAuditor {
    scratch: Option<Placement>,
}

impl StrictAuditor {
    /// A fresh reference auditor.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Captures the pre-serve placement (clone into a reused scratch).
    pub fn arm(&mut self, placement: &Placement) {
        match &mut self.scratch {
            Some(prev) => prev.clone_from(placement),
            None => self.scratch = Some(placement.clone()),
        }
    }

    /// Verifies `reported` against the Hamming distance between the
    /// armed snapshot and `placement`; returns that distance.
    ///
    /// # Panics
    /// Panics if [`StrictAuditor::arm`] was never called, or if the
    /// algorithm under-reported (`reported <` actual diff) — the exact
    /// strictness the old driver enforced.
    pub fn verify(&self, placement: &Placement, reported: u64) -> u64 {
        let actual = self
            .scratch
            .as_ref()
            .expect("StrictAuditor::arm before verify")
            .migration_distance(placement);
        assert!(
            reported >= actual,
            "algorithm under-reported migrations: reported {reported}, actual {actual}"
        );
        actual
    }
}

/// Per-step observations shared by both runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Obs {
    charged: bool,
    migrations: u64,
    max_load: u32,
    violated: bool,
}

fn scenario_for(algorithm: &str, policy: Option<&str>, workload: &str, seed: u64) -> Scenario {
    let mut algorithm_spec = AlgorithmSpec::named(algorithm);
    algorithm_spec.policy = policy.map(String::from);
    let mut scenario = Scenario::new(
        InstanceSpec::packed(4, 8),
        algorithm_spec,
        WorkloadSpec::named(workload),
        400,
    );
    scenario.seed = seed;
    scenario.audit = AuditSpec::Full;
    scenario
}

/// The pre-refactor driver loop with the [`StrictAuditor`] reference
/// check. Returns per-step observations plus the brute-force
/// max-load-seen (recomputed by rescanning all loads each step).
fn strict_reference_run(scenario: &Scenario, registries: &Registries) -> (Vec<Obs>, u32) {
    let prepared = scenario.resolve(registries).expect("resolve");
    let (_instance, mut algorithm, mut workload, steps, audit, _bound) = prepared.into_parts();
    let AuditLevel::Full { load_limit } = audit else {
        panic!("differential audit needs full auditing");
    };
    let mut strict = StrictAuditor::new();
    let mut observations = Vec::with_capacity(steps as usize);
    let mut brute_max_seen = 0u32;
    for _ in 0..steps {
        let request = workload.next_request(algorithm.placement());
        let charged = algorithm.placement().is_cut(request);
        strict.arm(algorithm.placement());
        let migrations = algorithm.serve(request);
        // The reference audit: panics if reported < Hamming diff.
        let hamming = strict.verify(algorithm.placement(), migrations);
        assert!(
            migrations >= hamming,
            "strict audit must have verified this already"
        );
        // Brute-force max load: full rescan, the pre-refactor cost.
        let max_load = algorithm
            .placement()
            .loads()
            .iter()
            .copied()
            .max()
            .unwrap_or(0);
        brute_max_seen = brute_max_seen.max(max_load);
        observations.push(Obs {
            charged,
            migrations,
            max_load,
            violated: max_load > load_limit,
        });
    }
    (observations, brute_max_seen)
}

/// The production path: the journal-auditing driver, observed per step.
fn journal_run(scenario: &Scenario, registries: &Registries) -> (Vec<Obs>, RunReport) {
    #[derive(Default)]
    struct Collect(Vec<Obs>);
    impl Observer for Collect {
        fn on_step(&mut self, event: &StepEvent) {
            self.0.push(Obs {
                charged: event.charged,
                migrations: event.migrations,
                max_load: event.max_load,
                violated: event.violated,
            });
        }
    }
    let mut collect = Collect::default();
    let (report, _) = scenario
        .resolve(registries)
        .expect("resolve")
        .run(None, 1, &mut collect);
    (collect.0, report)
}

#[test]
fn strict_auditor_matches_honest_reports() {
    use rdbp::model::workload::{UniformRandom, Workload};

    let inst = RingInstance::new(12, 3, 4);
    let mut alg = GreedySwap::new(&inst);
    let mut strict = StrictAuditor::new();
    let mut w = UniformRandom::new(11);
    for _ in 0..200 {
        let request = w.next_request(alg.placement());
        strict.arm(alg.placement());
        let reported = alg.serve(request);
        let actual = strict.verify(alg.placement(), reported);
        assert_eq!(reported, actual);
    }
}

#[test]
fn journal_audit_agrees_with_clone_hamming_audit_step_for_step() {
    let registries = Registries::builtin();
    let combos: &[(&str, Option<&str>)] = &[
        ("dynamic", Some("hedge")),
        ("dynamic", Some("wfa")),
        ("dynamic", Some("smin")),
        ("static", None),
        ("greedy", None),
        ("component", None),
        ("never-move", None),
    ];
    let workloads = ["uniform", "zipf", "chaser", "bursty"];
    for (i, &(algorithm, policy)) in combos.iter().enumerate() {
        for (j, workload) in workloads.iter().enumerate() {
            let seed = 1000 + (i * workloads.len() + j) as u64;
            let scenario = scenario_for(algorithm, policy, workload, seed);
            let (strict, brute_max_seen) = strict_reference_run(&scenario, &registries);
            let (journal, report) = journal_run(&scenario, &registries);
            assert_eq!(
                journal.len(),
                strict.len(),
                "{algorithm}×{workload}: step counts differ"
            );
            for (t, (a, b)) in journal.iter().zip(&strict).enumerate() {
                assert_eq!(
                    a, b,
                    "{algorithm}×{workload} seed {seed}: audits disagree at step {t}"
                );
            }
            // Satellite regression: the report's incremental
            // max-load-seen equals the brute-force rescan.
            assert_eq!(
                report.max_load_seen, brute_max_seen,
                "{algorithm}×{workload}: incremental max_load_seen diverged from rescan"
            );
            assert_eq!(
                report.ledger.communication,
                strict.iter().map(|o| u64::from(o.charged)).sum::<u64>()
            );
            assert_eq!(
                report.ledger.migration,
                strict.iter().map(|o| o.migrations).sum::<u64>()
            );
            assert_eq!(
                report.capacity_violations,
                strict.iter().map(|o| u64::from(o.violated)).sum::<u64>()
            );
        }
    }
}

/// The two audits also agree about *cheaters*: an under-reporting
/// algorithm is rejected by both.
#[test]
fn both_audits_reject_an_under_reporter() {
    use rdbp_model::{Process, Server};

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
            self.placement.migrate(Process(0), Server(1));
            0 // lies
        }
    }
    let inst = RingInstance::new(6, 3, 2);

    // Reference audit.
    let mut alg = Liar {
        placement: Placement::contiguous(&inst),
    };
    let mut strict = StrictAuditor::new();
    strict.arm(alg.placement());
    let reported = alg.serve(Edge(0));
    let strict_caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        strict.verify(alg.placement(), reported)
    }))
    .is_err();
    assert!(strict_caught, "reference audit must reject the liar");

    // Journal audit (the production driver).
    let journal_caught = std::panic::catch_unwind(|| {
        let mut alg = Liar {
            placement: Placement::contiguous(&inst),
        };
        let _ = rdbp_model::run_trace(&mut alg, &[Edge(0)], AuditLevel::Full { load_limit: 6 });
    })
    .is_err();
    assert!(journal_caught, "journal audit must reject the liar");
}
