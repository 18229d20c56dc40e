//! The ringload oracle's certificate, machine-checked wherever the
//! exact solver is feasible: on every small-instance family ×
//! algorithm × workload run,
//!
//! ```text
//! ringload LB  ≤  exact dynamic OPT  ≤  ringload UB
//! ```
//!
//! (the dynamic optimum is what the oracle bounds; online costs can be
//! *below* OPT(k) because the online algorithms run augmented, so they
//! are deliberately not part of the sandwich). The same sandwich holds
//! for every registered oracle key on the instances it supports.

use rdbp::model::observers::TraceRecorder;
use rdbp::prelude::*;
use rdbp_ringload::RingloadOracle;

/// Small-n families where `dynamic_opt` is still affordable — its DP
/// is quadratic in the number of canonical configurations, so many
/// servers with small capacities blow up fastest (`packed(4,3)` is
/// already ~15k states; these stay under ~500).
fn small_instances() -> Vec<RingInstance> {
    vec![
        RingInstance::packed(2, 4),
        RingInstance::packed(3, 3),
        RingInstance::packed(2, 5),
        RingInstance::packed(2, 6),
    ]
}

const ALGORITHMS: [(&str, Option<&str>); 6] = [
    ("dynamic", Some("hedge")),
    ("dynamic", Some("wfa")),
    ("static", None),
    ("greedy", None),
    ("component", None),
    ("never-move", None),
];

/// The requests one seeded run of `algorithm` on `inst` served.
fn recorded_trace(
    registries: &Registries,
    inst: &RingInstance,
    (algorithm, policy): (&str, Option<&str>),
    workload: &str,
    seed: u64,
) -> Vec<Edge> {
    let mut algorithm_spec = AlgorithmSpec::named(algorithm);
    algorithm_spec.policy = policy.map(String::from);
    let mut scenario = Scenario::new(
        InstanceSpec::packed(inst.servers(), inst.capacity()),
        algorithm_spec,
        WorkloadSpec::named(workload),
        60,
    );
    scenario.seed = seed;
    let prepared = scenario.resolve(registries).expect("resolve");
    let mut recorder = TraceRecorder::new();
    prepared.run(None, 1, &mut recorder);
    recorder.into_requests()
}

#[test]
fn ringload_sandwiches_the_exact_dynamic_opt_on_small_instances() {
    let registries = Registries::builtin();
    for inst in small_instances() {
        for (algorithm, policy) in ALGORITHMS {
            for workload in ["uniform", "zipf", "chaser"] {
                let trace = recorded_trace(&registries, &inst, (algorithm, policy), workload, 5);
                let initial = Placement::contiguous(&inst);
                let exact = dynamic_opt(&inst, &initial, &trace) as f64;
                let mut oracle = RingloadOracle::new();
                let lb = oracle.lower_bound(&inst, &initial, &trace);
                let ub = oracle
                    .upper_bound(&inst, &initial, &trace)
                    .expect("ringload always has a UB");
                assert!(
                    lb <= exact + 1e-9,
                    "LB {lb} > exact OPT {exact} on {inst:?} {algorithm}/{workload}"
                );
                assert!(
                    exact <= ub + 1e-9,
                    "exact OPT {exact} > UB {ub} on {inst:?} {algorithm}/{workload}"
                );
            }
        }
    }
}

/// The contract of every registered oracle key, not only `ringload`:
/// on each small instance it supports, `LB ≤ exact OPT ≤ UB` over
/// `dynamic`×`hedge` traces at six seeds, so an oracle registered later
/// cannot print a "lower bound" above OPT unseen.
#[test]
fn every_registered_oracle_sandwiches_the_exact_dynamic_opt() {
    let registries = Registries::builtin();
    for inst in small_instances() {
        let initial = Placement::contiguous(&inst);
        for workload in ["uniform", "zipf", "chaser"] {
            for seed in 0..=5 {
                let trace = recorded_trace(
                    &registries,
                    &inst,
                    ("dynamic", Some("hedge")),
                    workload,
                    seed,
                );
                let exact = dynamic_opt(&inst, &initial, &trace) as f64;
                for key in registries.oracles.keys() {
                    let mut oracle = registries
                        .oracles
                        .resolve(&OracleSpec::named(key), &inst)
                        .expect("a builtin oracle resolves");
                    if !oracle.supports(&inst) {
                        continue;
                    }
                    let run = format!("{inst:?} dynamic/hedge/{workload} seed {seed}");
                    let lb = oracle.lower_bound(&inst, &initial, &trace);
                    assert!(
                        lb <= exact + 1e-9,
                        "{key}: LB {lb} > exact OPT {exact} on {run}"
                    );
                    if let Some(ub) = oracle.upper_bound(&inst, &initial, &trace) {
                        assert!(
                            exact <= ub + 1e-9,
                            "{key}: exact OPT {exact} > UB {ub} on {run}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn exact_oracle_and_ringload_agree_on_ordering() {
    // Both oracle implementations must sit on the same trait and agree
    // that the exact value lies inside the ringload band.
    let inst = RingInstance::packed(2, 4);
    let initial = Placement::contiguous(&inst);
    let trace: Vec<Edge> = (0..80u64).map(|i| inst.edge(i * 5 + 2)).collect();
    let mut exact = ExactDynamicOracle::default();
    let mut ringload = RingloadOracle::new();
    let opt = exact
        .upper_bound(&inst, &initial, &trace)
        .expect("tiny instance");
    let lb = ringload.lower_bound(&inst, &initial, &trace);
    let ub = ringload.upper_bound(&inst, &initial, &trace).unwrap();
    assert!(lb <= opt && opt <= ub, "lb={lb} opt={opt} ub={ub}");
}
