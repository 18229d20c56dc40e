//! Self-tests of the benchmark: its metric names match
//! `BENCHMARK.json`, every correctness check fires on a wrong input,
//! and a tiny-size run of each workload finishes in seconds.

use std::time::{Duration, Instant};

use serde::{DeError, Deserialize, Value};

use rdbp_model::{RunReport, WorkCounters};
use rdbp_perfbench::checks::Checks;
use rdbp_perfbench::inputs::{replay_in_process, Inputs, Shape, Size, Workload};
use rdbp_perfbench::metrics::{Metric, Outcome, END_TO_END, MOVES, PER_LAYER};
use rdbp_perfbench::run::{self, Options};
use rdbp_perfbench::{ladder, run::certify};

/// Any JSON value (the vendored serde has no `Deserialize for Value`).
struct Json(Value);

impl Deserialize for Json {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(Json(v.clone()))
    }
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str::<Json>(&text)
        .expect("BENCHMARK.json parses")
        .0
}

fn str_field(v: &Value, key: &str) -> String {
    match v.get_field(key) {
        Ok(Value::Str(s)) => s.clone(),
        other => panic!("`{key}` is not a string: {other:?}"),
    }
}

fn list(v: &Value, key: &str) -> Vec<Value> {
    match v.get_field(key) {
        Ok(Value::Arr(items)) => items.clone(),
        other => panic!("`{key}` is not a list: {other:?}"),
    }
}

fn names_and_units(v: &Value, key: &str) -> Vec<(String, String)> {
    list(v, key)
        .iter()
        .map(|m| (str_field(m, "name"), str_field(m, "unit")))
        .collect()
}

fn ours(metrics: &[Metric]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

/// Keys of the one-line result a run prints.
fn result_keys(line: &str) -> (Vec<String>, Vec<String>) {
    let v = serde_json::from_str::<Json>(line)
        .expect("result line parses")
        .0;
    let Value::Obj(top) = &v else {
        panic!("result is not an object")
    };
    let Ok(Value::Obj(metrics)) = v.get_field("metrics") else {
        panic!("no metrics object")
    };
    (
        top.iter().map(|(k, _)| k.clone()).collect(),
        metrics.iter().map(|(k, _)| k.clone()).collect(),
    )
}

#[test]
fn metric_names_and_units_match_benchmark_json() {
    let bench = benchmark_json();
    assert_eq!(names_and_units(&bench, "end_to_end"), ours(&END_TO_END));
    assert_eq!(names_and_units(&bench, "per_layer"), ours(&PER_LAYER));
    let workloads: Vec<String> = list(&bench, "workloads")
        .iter()
        .map(|w| str_field(w, "name"))
        .collect();
    let expected: Vec<String> = Workload::ALL.iter().map(|w| w.name().into()).collect();
    assert_eq!(workloads, expected);
}

#[test]
fn every_layer_metric_is_mapped_once_to_known_metrics_and_workloads() {
    let layer: Vec<&str> = MOVES.iter().map(|m| m.layer).collect();
    let names: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    assert_eq!(layer, names, "one MOVES row per per-layer metric, in order");
    for row in MOVES {
        for metric in row.end_to_end {
            assert!(
                END_TO_END.iter().any(|m| m.name == *metric),
                "{}: unknown end-to-end metric {metric}",
                row.layer
            );
        }
        for workload in row.workloads {
            assert!(
                Workload::parse(workload).is_some(),
                "{}: unknown workload {workload}",
                row.layer
            );
        }
    }
}

#[test]
fn result_line_has_exactly_the_required_keys() {
    let values: Vec<(&str, f64)> = END_TO_END.iter().map(|m| (m.name, 1.5)).collect();
    let line = Outcome::new(&END_TO_END, &values, true, 3, 0).json_line();
    let (top, metrics) = result_keys(&line);
    assert_eq!(top, ["correct", "attempted", "failed", "metrics"]);
    let names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    assert_eq!(metrics, names);
    let mut values = values;
    values[0].1 = f64::NAN;
    let line = Outcome::new(&END_TO_END, &values, true, 3, 0).json_line();
    assert!(
        line.starts_with("{\"correct\": false"),
        "a non-finite value must fail the run: {line}"
    );
}

fn tiny(workload: Workload) -> Inputs {
    Inputs::generate(&Shape::of(workload, Size::Tiny), 3)
}

const QUICK: Options = Options {
    seconds: 0.0,
    min_passes: 2,
};

#[test]
fn wrong_ledger_fails_the_ledger_check() {
    let inputs = tiny(Workload::ServeReplay);
    let expected = replay_in_process(&inputs);
    let mut checks = Checks::default();
    checks.same_ledger("honest", &expected[0].report, &expected[0].report);
    assert!(checks.ok());
    let mut wrong = expected[0].report.clone();
    wrong.ledger.migration += 1;
    checks.same_ledger("injected", &wrong, &expected[0].report);
    assert!(!checks.ok());
    assert!(checks.failures()[0].contains("injected"));
}

/// The runner itself applies the ledger and counter checks to what the
/// wire sessions report: a real tiny run against a wrong reference
/// fails, naming the sessions whose reference was changed.
#[test]
fn wrong_reference_fails_a_real_wire_run() {
    for workload in [Workload::ServeReplay, Workload::ClusterMigrate] {
        let inputs = tiny(workload);
        let mut expected = replay_in_process(&inputs);
        expected[0].report.ledger.migration += 1;
        expected[1].counters.migrations += 1;
        let shape = &inputs.shape;
        let measured = run::closed_loop(
            &inputs,
            shape.topology,
            shape.migrate_every,
            &QUICK,
            &expected,
        );
        assert_eq!(measured.failed, 0, "{:?}", measured.notes);
        let failures = measured.checks.failures();
        assert!(
            failures.iter().any(|f| f.starts_with("session 0: ledger")),
            "{}: {failures:?}",
            workload.name()
        );
        assert!(
            failures
                .iter()
                .any(|f| f.starts_with("session 1 wire vs in-process: counters drifted")),
            "{}: {failures:?}",
            workload.name()
        );
        assert!(
            failures
                .iter()
                .all(|f| f.starts_with("session 0") || f.starts_with("session 1")),
            "{}: {failures:?}",
            workload.name()
        );
    }
}

#[test]
fn inverted_certificate_fails_the_certificate_check() {
    let inputs = tiny(Workload::SimRatio);
    let cert = certify(&inputs.sessions[0]);
    let mut checks = Checks::default();
    checks.certificate("honest", cert.lb, cert.ub);
    assert!(checks.ok(), "{:?}", checks.failures());
    checks.certificate("injected", cert.ub + 1.0, cert.ub);
    assert!(!checks.ok());
    let mut checks = Checks::default();
    checks.certificate("not finite", 1.0, f64::INFINITY);
    assert!(!checks.ok());
}

#[test]
fn capacity_violation_fails_the_capacity_check() {
    let mut report = RunReport::new("dynamic-partitioner", "trace");
    let mut checks = Checks::default();
    checks.no_capacity_violations("clean", &report);
    assert!(checks.ok());
    report.capacity_violations = 1;
    checks.no_capacity_violations("injected", &report);
    assert!(!checks.ok());
}

#[test]
fn counter_drift_fails_the_counter_check() {
    let a = WorkCounters {
        requests: 10,
        migrations: 2,
        ..WorkCounters::default()
    };
    let mut checks = Checks::default();
    checks.same_counters("same", &a, &a);
    assert!(checks.ok());
    let b = WorkCounters { migrations: 3, ..a };
    checks.same_counters("injected", &a, &b);
    assert!(!checks.ok());
    assert!(checks.failures()[0].contains("migrations 2 vs 3"));
}

fn assert_sane(workload: Workload, values: &[(&str, f64)], positive: bool) {
    for (name, value) in values {
        assert!(value.is_finite(), "{}: {name} = {value}", workload.name());
        if positive {
            assert!(*value > 0.0, "{}: {name} = {value}", workload.name());
        }
    }
}

#[test]
fn tiny_untraced_runs_are_correct_and_quick() {
    for workload in Workload::ALL {
        let inputs = tiny(workload);
        let t = Instant::now();
        let measured = run::end_to_end(&inputs, &QUICK);
        assert!(
            t.elapsed() < Duration::from_secs(30),
            "{} took {:?}",
            workload.name(),
            t.elapsed()
        );
        assert!(measured.checks.ok(), "{:?}", measured.checks.failures());
        assert_eq!(measured.failed, 0, "{:?}", measured.notes);
        assert_sane(workload, &measured.values, true);
        let line = Outcome::new(&END_TO_END, &measured.values, true, 1, 0).json_line();
        assert_eq!(result_keys(&line).1.len(), END_TO_END.len());
    }
}

#[test]
fn tiny_traced_runs_agree_on_every_rung() {
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    for workload in Workload::ALL {
        let inputs = tiny(workload);
        let spans = dir.join(format!("spans-{}.csv", workload.name()));
        let t = Instant::now();
        let traced = ladder::traced(&inputs, &spans);
        assert!(
            t.elapsed() < Duration::from_secs(60),
            "{} took {:?}",
            workload.name(),
            t.elapsed()
        );
        assert!(traced.checks.ok(), "{:?}", traced.checks.failures());
        assert_eq!(traced.failed, 0);
        // Self times are medians of differences and may be negative.
        assert_sane(workload, &traced.values, false);
        let names: Vec<&str> = traced.values.iter().map(|(n, _)| *n).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, expected);
        let csv = std::fs::read_to_string(&spans).expect("spans written");
        assert!(csv.lines().count() > inputs.order().count());
    }
}
