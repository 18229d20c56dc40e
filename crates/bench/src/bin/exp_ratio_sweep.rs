//! **S6** — competitive ratios at oracle scale: online cost vs the
//! ringload oracle's certified dynamic-OPT bounds, at `n` 10–100×
//! beyond what the exact comparators (F3/F5) can touch.
//!
//! For each `k` the dynamic algorithm serves a recorded trace and the
//! [`rdbp_ringload::RingloadOracle`] bounds the dynamic optimum on the
//! *same* trace, which brackets the trace's true competitive ratio:
//! `cost / UB ≤ ratio ≤ cost / LB`, because `LB ≤ OPT ≤ UB`. `UB / LB`
//! reports how tight the certificate itself is. A zero bound certifies
//! nothing on its side, so a row where some seed's bound is 0 prints
//! `-` in the columns that would divide by it. The paper predicts the
//! true ratio stays polylog in `k`; the `/ln³ k` column should not
//! grow.

use rdbp_bench::{f3, full_profile, mean, parallel_map, stddev, Table};
use rdbp_core::{DynamicConfig, DynamicPartitioner};
use rdbp_engine::{WorkloadRegistry, WorkloadSpec};
use rdbp_model::workload::record;
use rdbp_model::{run_trace, AuditLevel, Placement, RingInstance};
use rdbp_mts::PolicyKind;
use rdbp_offline::OfflineOracle;
use rdbp_ringload::RingloadOracle;

const EPSILON: f64 = 0.5;

fn main() {
    // F3/F5 top out at k = 256 (n = 2048) / n = 10; this sweep starts
    // where they stop.
    let ks: Vec<u32> = if full_profile() {
        vec![256, 1024, 2560]
    } else {
        vec![64, 256, 640]
    };
    let seeds: Vec<u64> = (0..3).collect();
    let servers = 8;
    let names = ["uniform", "zipf", "sliding"];
    let workloads = WorkloadRegistry::builtin();

    let mut table = Table::new(
        "S6 — ratio sweep at oracle scale: [cost/UB, cost/LB] vs k (ringload oracle)",
        &[
            "k",
            "n",
            "workload",
            "cost/UB",
            "cost/LB",
            "stdev",
            "UB/LB",
            "ratio/ln^3 k",
        ],
    );

    for name in names {
        let rows = parallel_map(ks.clone(), |&k| {
            let inst = RingInstance::packed(servers, k);
            let steps = 40 * u64::from(k);
            // (online cost, LB, UB) per seed.
            let mut runs = Vec::new();
            for &seed in &seeds {
                let mut src = workloads
                    .resolve(&WorkloadSpec::named(name), &inst, seed + 100)
                    .expect("built-in workload");
                let initial = Placement::contiguous(&inst);
                let trace = record(src.as_mut(), &initial, steps);
                let mut alg = DynamicPartitioner::new(
                    &inst,
                    DynamicConfig {
                        epsilon: EPSILON,
                        policy: PolicyKind::HstHedge,
                        seed,
                        shift: None,
                    },
                );
                let report = run_trace(&mut alg, &trace, AuditLevel::None);
                let mut oracle = RingloadOracle::new();
                let lb = oracle.lower_bound(&inst, &initial, &trace);
                let ub = oracle
                    .upper_bound(&inst, &initial, &trace)
                    .expect("ringload always has an upper bound");
                assert!(lb <= ub, "oracle certificate inverted at k={k}");
                runs.push((report.ledger.total() as f64, lb, ub));
            }
            (k, inst.n(), runs)
        });
        for (k, n, runs) in rows {
            let dash = || "-".to_string();
            let mut row = vec![k.to_string(), n.to_string(), name.into()];
            row.push(if runs.iter().all(|&(_, _, ub)| ub > 0.0) {
                let floors: Vec<f64> = runs.iter().map(|&(cost, _, ub)| cost / ub).collect();
                f3(mean(&floors))
            } else {
                dash()
            });
            if runs.iter().all(|&(_, lb, _)| lb > 0.0) {
                // OPT is a whole number, so a positive LB (a multiple of
                // ½) certifies OPT ≥ 1: dividing by max(LB, 1) stays an
                // upper bound on the ratio.
                let ratios: Vec<f64> = runs
                    .iter()
                    .map(|&(cost, lb, _)| cost / lb.max(1.0))
                    .collect();
                let tightness: Vec<f64> =
                    runs.iter().map(|&(_, lb, ub)| ub / lb.max(1.0)).collect();
                let r = mean(&ratios);
                row.extend([
                    f3(r),
                    f3(stddev(&ratios)),
                    f3(mean(&tightness)),
                    f3(r / f64::from(k).ln().powi(3)),
                ]);
            } else {
                row.extend([dash(), dash(), dash(), dash()]);
            }
            table.row(row);
        }
    }

    table.print();
    println!(
        "\nExpected shape: cost/LB stays polylog in k (the /ln³ k column\n\
         should not grow); UB/LB reports the certificate's own slack, and\n\
         `-` marks a bound that is 0 on some seed."
    );
    table.write_csv("s6_ratio_sweep");
}
