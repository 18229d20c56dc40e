//! Perf-gate integration tests: counter determinism across the
//! algorithm registry, the pinned `BENCH_*.json` schema, and the
//! compare gate's pass/fail behaviour on real suite output.
//!
//! The suite cases here are *small twins* of the pinned `main` suite
//! (same shapes, far fewer steps) so the tests stay fast in debug
//! builds; the pinned suite itself is exercised by `rdbp-perfgate run`
//! in the CI perf-gate job.

use rdbp_bench::{
    compare, pinned_cases, pinned_oracle_cases, pinned_wire_cases, run_cases, run_oracle_cases,
    run_wire_cases, BenchCase, BenchReport, GateConfig, WireCase, WireTarget, BENCH_SCHEMA_VERSION,
};
use rdbp_engine::{AlgorithmSpec, AuditSpec, InstanceSpec, Registries, Scenario, WorkloadSpec};
use rdbp_model::{NoopObserver, WorkCounters};

fn scenario(algorithm: &str, policy: Option<&str>, workload: &str, audit: AuditSpec) -> Scenario {
    let mut alg = AlgorithmSpec::named(algorithm);
    alg.policy = policy.map(Into::into);
    let mut s = Scenario::new(
        InstanceSpec::packed(4, 8),
        alg,
        WorkloadSpec::named(workload),
        600,
    );
    s.seed = 11;
    s.audit = audit;
    s
}

/// Small twins of the pinned suite: one case per dynamic policy plus a
/// baseline, both audit levels, batched and per-step.
fn mini_cases() -> Vec<BenchCase> {
    let mk = |id: &str, alg: &str, policy: Option<&str>, workload: &str, audit, batch| BenchCase {
        id: id.into(),
        scenario: scenario(alg, policy, workload, audit),
        batch,
        replay: false,
    };
    vec![
        mk(
            "mini-hedge",
            "dynamic",
            Some("hedge"),
            "zipf",
            AuditSpec::Full,
            64,
        ),
        mk(
            "mini-wfa",
            "dynamic",
            Some("wfa"),
            "uniform",
            AuditSpec::None,
            1,
        ),
        mk(
            "mini-marking",
            "dynamic",
            Some("marking"),
            "uniform",
            AuditSpec::Full,
            64,
        ),
        mk("mini-greedy", "greedy", None, "chaser", AuditSpec::Full, 64),
    ]
}

#[test]
fn same_scenario_and_seed_yield_bit_identical_counters() {
    // The property the whole gate rests on: re-running a pinned
    // scenario reproduces every counter exactly, for every algorithm
    // family and audit level (run_cases itself asserts equality across
    // its repeats; this checks two *independent* harness invocations).
    let a = run_cases("mini", &mini_cases(), 2);
    let b = run_cases("mini", &mini_cases(), 2);
    for (ca, cb) in a.cases.iter().zip(&b.cases) {
        assert_eq!(ca.id, cb.id);
        assert_eq!(ca.counters, cb.counters, "case {}", ca.id);
        assert_eq!(ca.steps, cb.steps);
    }
}

#[test]
fn counters_reflect_real_work_per_family() {
    let report = run_cases("mini", &mini_cases(), 1);
    let hedge = report.case("mini-hedge").unwrap();
    assert_eq!(hedge.counters.requests, 600);
    assert_eq!(hedge.counters.audited_steps, 600, "full audit audits all");
    assert_eq!(
        hedge.counters.journal_records, hedge.counters.migrations,
        "every real move is journaled under full audit"
    );
    assert!(hedge.counters.policy_serve_hit > 0, "point fast path used");
    assert_eq!(
        hedge.counters.policy_serve_vector, 0,
        "the partitioner never materializes cost vectors"
    );
    assert!(hedge.counters.hst_node_visits > 0);
    // Arena depth pin: the 4-ary BFS arena (DESIGN.md §14) serves a
    // point request by walking at most one family per level above the
    // leaves — never more than 3 for the state counts the pinned
    // suite uses. The pre-arena binary hierarchy averaged ~5.6 visits
    // per serve; a regression past 3× serve count means the flat walk
    // lost its shape.
    assert!(
        hedge.counters.hst_node_visits <= 3 * hedge.counters.policy_serve_hit,
        "arena hit walk exceeded the 4-ary depth bound: {} visits for {} serves",
        hedge.counters.hst_node_visits,
        hedge.counters.policy_serve_hit
    );
    assert!(hedge.counters.coupling_follows > 0);

    let wfa = report.case("mini-wfa").unwrap();
    assert_eq!(wfa.counters.audited_steps, 0, "audit=none");
    assert_eq!(wfa.counters.journal_records, 0);
    assert_eq!(wfa.counters.hst_node_visits, 0, "wfa has no hierarchy");

    let greedy = report.case("mini-greedy").unwrap();
    assert_eq!(greedy.counters.policy_serve_hit, 0, "baselines have no MTS");
    assert!(greedy.counters.migrations > 0, "the chaser forces moves");

    // The oracle metrics belong to offline oracles alone: every online
    // mini case must leave them untouched.
    for case in &report.cases {
        assert_eq!(case.counters.oracle_cut_evals, 0, "case {}", case.id);
        assert_eq!(case.counters.oracle_rounding_passes, 0, "case {}", case.id);
    }
}

#[test]
fn oracle_counters_are_identical_across_independent_invocations() {
    // The oracle twin of the determinism property above: two fully
    // independent harness invocations (fresh trace recording, fresh
    // oracle and solver state) must produce bit-identical counters,
    // and the oracle metrics must be the ones doing the work.
    let minis = [
        rdbp_bench::OracleCase {
            id: "mini-oracle-zipf".into(),
            scenario: scenario("dynamic", Some("hedge"), "zipf", AuditSpec::None),
            demands: 16,
            demand_seed: 0x0DD8,
        },
        rdbp_bench::OracleCase {
            id: "mini-oracle-uniform".into(),
            scenario: scenario("never-move", None, "uniform", AuditSpec::None),
            demands: 16,
            demand_seed: 0x0DD9,
        },
    ];
    let a = run_oracle_cases(&minis, 2);
    let b = run_oracle_cases(&minis, 2);
    for (ca, cb) in a.iter().zip(&b) {
        assert_eq!(ca.id, cb.id);
        assert_eq!(ca.counters, cb.counters, "case {}", ca.id);
        assert_eq!(ca.counters.requests, 600, "one unit per trace element");
        assert!(ca.counters.oracle_cut_evals > 0, "case {}", ca.id);
        assert!(ca.counters.oracle_rounding_passes > 0, "case {}", ca.id);
        // Oracle cases run no online algorithm: the online metrics
        // stay zero, exactly mirroring the online cases' zero oracle
        // metrics.
        assert_eq!(ca.counters.migrations, 0, "case {}", ca.id);
        assert_eq!(ca.counters.policy_serve_hit, 0, "case {}", ca.id);
    }
}

#[test]
fn engine_counted_runs_match_plain_runs() {
    // The engine's run returns counters on the side: the report must be
    // identical to the plain path's.
    let registries = Registries::builtin();
    let spec = scenario("dynamic", Some("hedge"), "zipf", AuditSpec::Full);
    let plain = spec.run().unwrap();
    let (counted, counters) = spec
        .resolve(&registries)
        .unwrap()
        .run(None, 64, &mut NoopObserver);
    assert_eq!(plain, counted);
    assert_eq!(counters.requests, plain.steps);
}

#[test]
fn golden_bench_json_schema_round_trips_and_pins_the_version() {
    let report = run_cases("mini", &mini_cases()[..1], 1);
    let text = report.to_json();
    let back = BenchReport::from_json(&text).unwrap();
    assert_eq!(back, report, "JSON round trip must be lossless");

    // Golden schema pin: the exact field names the committed baseline
    // uses, down at the JSON text layer. Renaming any of these is a
    // schema change and must bump BENCH_SCHEMA_VERSION.
    assert_eq!(back.schema_version, BENCH_SCHEMA_VERSION);
    let mut expected = vec![
        "schema_version",
        "suite",
        "cases",
        "id",
        "steps",
        "counters",
        "wall_ns",
        "throughput",
    ];
    expected.extend(WorkCounters::default().named().iter().map(|&(n, _)| n));
    for field in expected {
        assert!(
            text.contains(&format!("\"{field}\"")),
            "field `{field}` missing from the JSON schema: {text}"
        );
    }
}

#[test]
fn gate_passes_on_identical_runs_and_names_injected_regressions() {
    let base = run_cases("mini", &mini_cases(), 1);
    let rerun = run_cases("mini", &mini_cases(), 1);
    let config = GateConfig::default();
    assert!(
        compare(&base, &rerun, &config).passed(),
        "identical-seed reruns must pass the exact gate"
    );

    // Inject a counter regression (as a perf bug would: extra policy
    // work) and require the gate to fail naming the exact metric.
    let mut regressed = rerun.clone();
    regressed.cases[0].counters.policy_serve_hit += 17;
    let comparison = compare(&base, &regressed, &config);
    assert!(!comparison.passed());
    let failures: Vec<_> = comparison.failures().collect();
    assert_eq!(failures.len(), 1);
    assert_eq!(failures[0].case, "mini-hedge");
    assert_eq!(failures[0].metric, "policy_serve_hit");

    // Wall-clock noise alone never fails the gate.
    let mut slow = rerun.clone();
    for case in &mut slow.cases {
        case.wall_ns *= 10;
        case.throughput /= 10.0;
    }
    assert!(compare(&base, &slow, &config).passed());
}

/// A small twin of the pinned wire cases' fleet: the same multiplexed
/// shape (more connections than workers, several sessions per
/// connection), far less work.
fn mini_wire_case(id: &str, target: WireTarget, ndjson: bool) -> WireCase {
    WireCase {
        id: id.into(),
        target,
        connections: 4,
        sessions_per_connection: 2,
        batches: 2,
        batch: 50,
        workers: 2,
        ndjson,
    }
}

#[test]
fn serve_counters_are_identical_across_wire_protocols_and_reruns() {
    // The merged over-the-wire counters of the direct mini fleet must
    // be bit-identical between the binary and NDJSON encodings *and*
    // across independent server boots — the property the committed
    // serve-16conn-{binary,ndjson} baseline pair rests on.
    let cases = [
        mini_wire_case("mini-serve-binary", WireTarget::Direct, false),
        mini_wire_case("mini-serve-ndjson", WireTarget::Direct, true),
    ];
    let results = run_wire_cases(&cases, 1);
    assert_eq!(results[0].steps, 4 * 2 * 2 * 50);
    assert_eq!(
        results[0].counters, results[1].counters,
        "wire protocols must perform identical deterministic work"
    );
    let rerun = run_wire_cases(&cases[..1], 1);
    assert_eq!(
        results[0].counters, rerun[0].counters,
        "serve counters must reproduce across server boots"
    );
}

#[test]
fn cluster_counters_match_the_single_server_twins() {
    // The same mini fleet, but routed through a 2-backend cluster with
    // every session force-migrated mid-run. The merged counters must
    // be identical (a) between the wire protocols, (b) across
    // independent cluster boots, and — the property the whole
    // migration design is built on — (c) to the single-server fleet's
    // counters: routing and live migration are placement, not
    // behavior.
    let routed = WireTarget::Routed {
        backends: 2,
        migrate_after: Some(1),
    };
    let cases = [
        mini_wire_case("mini-cluster-binary", routed, false),
        mini_wire_case("mini-cluster-ndjson", routed, true),
    ];
    let results = run_wire_cases(&cases, 1);
    assert_eq!(results[0].steps, 4 * 2 * 2 * 50);
    assert_eq!(
        results[0].counters, results[1].counters,
        "wire protocols must perform identical deterministic work"
    );
    let rerun = run_wire_cases(&cases[..1], 1);
    assert_eq!(
        results[0].counters, rerun[0].counters,
        "cluster counters must reproduce across cluster boots"
    );
    let single = run_wire_cases(
        &[mini_wire_case(
            "mini-cluster-reference",
            WireTarget::Direct,
            false,
        )],
        1,
    );
    assert_eq!(
        results[0].counters, single[0].counters,
        "a routed, live-migrated fleet must do exactly the work of a \
         single-server one — migration is counter-neutral"
    );
}

#[test]
fn committed_baseline_matches_the_pinned_suite_shape() {
    // The committed BENCH_main.json must stay loadable, carry the
    // current schema version, and cover exactly the pinned case ids —
    // otherwise `rdbp-perfgate compare` in CI gates on a stale file.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../bench_results/BENCH_main.json");
    let baseline = BenchReport::load(&path).expect("committed baseline must parse");
    assert_eq!(baseline.schema_version, BENCH_SCHEMA_VERSION);
    assert_eq!(baseline.suite, "main");
    let pinned: Vec<String> = pinned_cases()
        .into_iter()
        .map(|c| c.id)
        .chain(pinned_wire_cases().into_iter().map(|c| c.id))
        .chain(pinned_oracle_cases().into_iter().map(|c| c.id))
        .collect();
    let committed: Vec<String> = baseline.cases.iter().map(|c| c.id.clone()).collect();
    assert_eq!(
        committed, pinned,
        "baseline cases diverged from the pinned suite — regenerate BENCH_main.json"
    );

    // Arena-era efficiency pin: every hedge-bearing committed case
    // must stay strictly below the pre-arena (pointer-tree, binary
    // hierarchy) visit rates — e.g. dyn-hedge-zipf-b1000-none carried
    // 235 296 visits over 40 000 requests (5.88/req) before the
    // flattening, against ~3.06/req after. A committed baseline back
    // above 4 visits/request means the data-oriented serve path
    // regressed to pointer-tree workloads.
    for case in &baseline.cases {
        if case.counters.hst_node_visits == 0 {
            continue;
        }
        let per_req = case.counters.hst_node_visits as f64 / case.counters.requests.max(1) as f64;
        assert!(
            per_req < 4.0,
            "case {}: {per_req:.3} hst visits/request exceeds the arena bound",
            case.id
        );
    }
}
