//! Root-level tests for the scenario engine: spec serialization,
//! registry resolution of every built-in key, the observer contract,
//! and the "one scenario, three execution paths, one report" guarantee.

use std::process::Command;

use rdbp::model::observers::TraceRecorder;
use rdbp::prelude::*;

fn sample_scenario() -> Scenario {
    let mut s = Scenario::new(
        InstanceSpec::packed(4, 8),
        AlgorithmSpec {
            epsilon: Some(0.5),
            policy: Some("hedge".into()),
            ..AlgorithmSpec::named("dynamic")
        },
        WorkloadSpec {
            zipf_s: Some(1.2),
            ..WorkloadSpec::named("zipf")
        },
        2_000,
    );
    s.seed = 11;
    s
}

#[test]
fn scenario_json_round_trip() {
    let s = sample_scenario();
    let json = s.to_json();
    let back = Scenario::from_json(&json).expect("round trip parses");
    assert_eq!(s, back);
    // And the round-tripped spec runs to the identical report.
    assert_eq!(s.run().unwrap(), back.run().unwrap());
}

#[test]
fn every_builtin_algorithm_key_resolves() {
    let registries = Registries::builtin();
    let inst = RingInstance::packed(4, 8);
    // `bisection` is ℓ = 2 by definition and rejects anything else.
    let two = RingInstance::packed(2, 8);
    let keys: Vec<String> = registries
        .algorithms
        .keys()
        .map(ToString::to_string)
        .collect();
    assert!(keys.len() >= 7, "expected the 7 built-ins, got {keys:?}");
    for key in keys {
        let inst = if key == "bisection" { &two } else { &inst };
        let built = registries
            .algorithms
            .resolve(&AlgorithmSpec::named(&key), inst, 1)
            .unwrap_or_else(|e| panic!("algorithm `{key}` failed to resolve: {e}"));
        assert!(built.load_bound >= inst.capacity(), "`{key}` bound below k");
        assert!(!built.algorithm.name().is_empty());
    }
}

#[test]
fn every_builtin_workload_key_resolves_and_generates() {
    let registries = Registries::builtin();
    let inst = RingInstance::packed(4, 8);
    let placement = Placement::contiguous(&inst);
    let keys: Vec<String> = registries
        .workloads
        .keys()
        .map(ToString::to_string)
        .collect();
    assert!(keys.len() >= 8, "expected ≥8 keys (with aliases): {keys:?}");
    for key in keys {
        let mut wl = registries
            .workloads
            .resolve(&WorkloadSpec::named(&key), &inst, 1)
            .unwrap_or_else(|e| panic!("workload `{key}` failed to resolve: {e}"));
        for _ in 0..16 {
            let e = wl.next_request(&placement);
            assert!(e.0 < inst.n(), "`{key}` generated out-of-range edge");
        }
    }
}

#[test]
fn unknown_keys_share_the_consistent_error_shape() {
    let registries = Registries::builtin();
    let inst = RingInstance::packed(4, 8);
    let err = registries
        .algorithms
        .resolve(&AlgorithmSpec::named("nope"), &inst, 0)
        .err()
        .expect("unknown algorithm must fail");
    assert!(
        err.0.starts_with("unknown algorithm `nope` (valid:"),
        "{err}"
    );
    let err = registries
        .workloads
        .resolve(&WorkloadSpec::named("nope"), &inst, 0)
        .err()
        .expect("unknown workload must fail");
    assert!(
        err.0.starts_with("unknown workload `nope` (valid:"),
        "{err}"
    );
}

/// Accumulates per-step cost deltas and counts lifecycle calls.
#[derive(Default)]
struct Summing {
    communication: u64,
    migration: u64,
    steps: u64,
    violations: u64,
    finished: Option<RunReport>,
}

impl Observer for Summing {
    fn on_step(&mut self, event: &StepEvent) {
        assert_eq!(event.step, self.steps, "events arrive in order");
        self.communication += u64::from(event.charged);
        self.migration += event.migrations;
        self.violations += u64::from(event.violated);
        self.steps += 1;
    }

    fn on_finish(&mut self, report: &RunReport) {
        assert!(self.finished.is_none(), "on_finish fires exactly once");
        self.finished = Some(report.clone());
    }
}

#[test]
fn step_event_deltas_sum_to_the_final_ledger_under_both_audit_levels() {
    for audit in [AuditSpec::Full, AuditSpec::None] {
        let mut scenario = sample_scenario();
        scenario.audit = audit;
        let mut sum = Summing::default();
        let report = scenario
            .run_with(&Registries::builtin(), &mut sum)
            .expect("runs");
        assert_eq!(
            sum.communication, report.ledger.communication,
            "comm deltas must sum to the ledger ({audit:?})"
        );
        assert_eq!(
            sum.migration, report.ledger.migration,
            "migration deltas must sum to the ledger ({audit:?})"
        );
        assert_eq!(sum.steps, report.steps);
        assert_eq!(sum.violations, report.capacity_violations);
        assert_eq!(
            sum.finished.as_ref(),
            Some(&report),
            "on_finish sees the report"
        );
    }
}

#[test]
fn observers_do_not_perturb_the_run() {
    let scenario = sample_scenario();
    let plain = scenario.run().unwrap();
    let mut recorder = TraceRecorder::new();
    let observed = scenario
        .run_with(&Registries::builtin(), &mut recorder)
        .unwrap();
    assert_eq!(plain, observed, "observers are passive");
    assert_eq!(recorder.requests().len() as u64, plain.steps);
}

/// Acceptance: a scenario authored as JSON executes identically via the
/// library API, via a grid of size 1, and via `rdbp-sim --scenario`.
#[test]
fn one_scenario_three_paths_one_report() {
    let scenario = sample_scenario();
    let dir = std::env::temp_dir().join("rdbp-scenario-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("scenario.json");
    scenario.save(&path).unwrap();

    // Path 1: the library API, loading back the authored JSON.
    let lib_report = Scenario::load(&path).unwrap().run().unwrap();

    // Path 2: a ScenarioGrid of size 1.
    let grid_runs = ScenarioGrid::new(scenario.clone()).run().unwrap();
    assert_eq!(grid_runs.len(), 1);

    // Path 3: the CLI with --scenario --json.
    let output = Command::new(env!("CARGO_BIN_EXE_rdbp-sim"))
        .arg("--scenario")
        .arg(&path)
        .arg("--json")
        .output()
        .expect("rdbp-sim runs");
    assert!(
        output.status.success(),
        "rdbp-sim failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).unwrap();
    let cli_report: RunReport =
        serde_json::from_str(stdout.trim()).expect("CLI emits a parseable RunReport");

    assert_eq!(lib_report, grid_runs[0].report, "library == grid");
    assert_eq!(lib_report, cli_report, "library == CLI");
    std::fs::remove_file(&path).ok();
}
