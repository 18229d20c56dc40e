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
//! for every registered oracle key on the instances it supports. Plus
//! property tests for the classical ring-loading solver on every
//! instance with `n ≤ 8`: the streaming `O(n²)` demands-across-cuts
//! scan must match the brute-force per-cut-pair enumeration (the LP
//! optimum equals `max D(g,h)/2` on a cycle), the half-split
//! `{0, ½, 1}` routing grid must land inside the split↔unsplit
//! sandwich, and the rounded routing must respect the
//! Schrijver–Seymour–Winkler bound `unsplit ≤ split + 3/2·max demand`.

use proptest::prelude::*;
use rdbp::model::observers::TraceRecorder;
use rdbp::prelude::*;
use rdbp_ringload::{Demand, RingLoading, RingloadOracle};

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
    let mut exact = ExactDynamicOracle;
    let mut ringload = RingloadOracle::new();
    let opt = exact
        .opt_cost(&inst, &initial, &trace)
        .expect("tiny instance");
    let lb = ringload.lower_bound(&inst, &initial, &trace);
    let ub = ringload.upper_bound(&inst, &initial, &trace).unwrap();
    assert!(lb <= opt && opt <= ub, "lb={lb} opt={opt} ub={ub}");
}

/// Brute-force routing enumeration: every demand routed CW, CCW, or
/// split exactly in half. Every grid point is a feasible fractional
/// routing, so the grid minimum sits *between* the split LP optimum
/// and the unsplit optimum (the true LP optimum can need finer
/// fractions — sixths already appear at `n = 4` — so the grid is an
/// upper bound, not an equality). Loads are doubled to stay integral.
fn brute_force_split_doubled(n: u32, demands: &[Demand]) -> u64 {
    let m = demands.len() as u32;
    let mut best = u64::MAX;
    // 3^m assignments: fraction routed clockwise ∈ {0, ½, 1}.
    for mut code in 0..3u64.pow(m) {
        let mut loads = vec![0u64; n as usize];
        for d in demands {
            let cw_doubled = code % 3; // 0, 1 (=½·2), or 2 (=1·2)
            code /= 3;
            // Clockwise arc from..to, counterclockwise the rest.
            let mut e = d.from;
            while e != d.to {
                loads[e as usize] += cw_doubled * d.amount;
                e = (e + 1) % n;
            }
            let mut e = d.to;
            while e != d.from {
                loads[e as usize] += (2 - cw_doubled) * d.amount;
                e = (e + 1) % n;
            }
        }
        best = best.min(loads.iter().copied().max().unwrap_or(0));
    }
    best
}

fn demand_sets() -> impl Strategy<Value = (u32, Vec<Demand>)> {
    (3u32..8).prop_flat_map(|n| {
        // `to = from + delta mod n` with `delta ≥ 1` — never a
        // self-loop by construction.
        let demand = (0u32..n, 1u32..n, 0u64..5)
            .prop_map(move |(from, delta, amount)| Demand::new(from, (from + delta) % n, amount));
        (Just(n), proptest::collection::vec(demand, 1..=6))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The streaming O(n²) demands-across-cuts scan equals the
    /// brute-force per-pair reference (`demand_across_cut` recounts
    /// each pair from scratch), and the routing-grid enumeration lands
    /// inside the split↔unsplit sandwich.
    #[test]
    fn split_scan_matches_brute_force_enumeration(set in demand_sets()) {
        let (n, demands) = set;
        let mut rl = RingLoading::new(n, demands.clone());
        let scanned = rl.split_optimum_doubled();
        let reference = (0..n)
            .flat_map(|g| (g + 1..n).map(move |h| (g, h)))
            .map(|(g, h)| rl.demand_across_cut(g, h))
            .max()
            .unwrap_or(0);
        prop_assert_eq!(scanned, reference, "n={} demands={:?}", n, &demands);
        // Every grid point is a feasible routing (upper-bounds the LP)
        // and the grid contains all unsplit corners (lower-bounds the
        // unsplit optimum).
        let grid = brute_force_split_doubled(n, &demands);
        let exact = rl.unsplit_exact(6).expect("m ≤ 6 fits the limit");
        prop_assert!(scanned <= grid, "split LP above a feasible routing");
        prop_assert!(grid <= 2 * exact, "grid above the unsplit corner points");
    }

    /// Split ≤ exact unsplit ≤ rounded unsplit, the rounded routing is
    /// internally consistent, and the exact unsplit optimum respects
    /// the Schrijver–Seymour–Winkler additive bound
    /// `unsplit ≤ split + 3/2·max demand`.
    #[test]
    fn rounding_stays_sandwiched(set in demand_sets()) {
        let (n, demands) = set;
        let max_demand = demands.iter().map(|d| d.amount).max().unwrap_or(0);
        let mut rl = RingLoading::new(n, demands);
        let split = rl.split_optimum();
        let exact = rl.unsplit_exact(6).expect("m ≤ 6 fits the limit");
        let rounded = rl.round_unsplit();
        prop_assert!(split <= exact as f64 + 1e-9);
        prop_assert!(exact <= rounded.max_load);
        prop_assert!(exact as f64 <= split + 1.5 * max_demand as f64 + 1e-9);
        prop_assert_eq!(
            rounded.max_load,
            rounded.loads.iter().copied().max().unwrap_or(0)
        );
    }
}
