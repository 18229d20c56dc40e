//! **A1** — DESIGN.md decision D2: which MTS black box inside
//! Theorem 2.1's algorithm? Work-function vs smin-gradient vs
//! HST-Hedge, measured against the exact `OPT_R`.

use rdbp_bench::{f3, full_profile, mean, parallel_map, Table};
use rdbp_core::{DynamicConfig, DynamicPartitioner};
use rdbp_engine::{WorkloadRegistry, WorkloadSpec};
use rdbp_model::workload::record;
use rdbp_model::{run_trace, AuditLevel, OnlineAlgorithm, Placement, RingInstance};
use rdbp_mts::PolicyKind;
use rdbp_offline::{interval_opt, IntervalLayout};

const EPSILON: f64 = 0.5;

fn main() {
    let ks: Vec<u32> = if full_profile() {
        vec![8, 16, 32, 64, 128]
    } else {
        vec![8, 16, 32, 64]
    };
    let servers = 6;
    let policies = [
        PolicyKind::WorkFunction,
        PolicyKind::SminGradient,
        PolicyKind::HstHedge,
    ];

    let workloads = WorkloadRegistry::builtin();

    let mut table = Table::new(
        "A1 — MTS policy ablation inside the dynamic algorithm (cost/OPT_R)",
        &["k", "workload", "wfa", "smin", "hst-hedge"],
    );

    for wname in ["uniform", "sliding", "cut-chaser"] {
        let rows = parallel_map(ks.clone(), |&k| {
            let inst = RingInstance::packed(servers, k);
            let steps = 30 * u64::from(k);
            // A narrower, faster window than the registry's sliding
            // default; the other workloads ignore both fields.
            let spec = WorkloadSpec {
                width: Some(k / 2 + 1),
                period: Some(6),
                ..WorkloadSpec::named(wname)
            };
            let mut per_policy = [Vec::new(), Vec::new(), Vec::new()];
            for seed in 0..3u64 {
                for (slot, &policy) in policies.iter().enumerate() {
                    let mut alg = DynamicPartitioner::new(
                        &inst,
                        DynamicConfig {
                            epsilon: EPSILON,
                            policy,
                            seed,
                            shift: None,
                        },
                    );
                    // Adaptive workloads must see the algorithm's own
                    // placement, so generate per (policy, seed).
                    let mut src = workloads
                        .resolve(&spec, &inst, seed)
                        .expect("built-in workload");
                    let trace = if src.is_adaptive() {
                        // Drive adaptively, recording what was asked.
                        let mut t = Vec::with_capacity(steps as usize);
                        for _ in 0..steps {
                            let e = src.next_request(alg.placement());
                            t.push(e);
                            alg.serve(e);
                        }
                        t
                    } else {
                        let t = record(src.as_mut(), &Placement::contiguous(&inst), steps);
                        let _ = run_trace(&mut alg, &t, AuditLevel::None);
                        t
                    };
                    let layout = IntervalLayout::new(&inst, EPSILON, alg.shift());
                    let opt_r = interval_opt(&layout, &trace).total.max(1.0);
                    per_policy[slot].push(alg.proxy_cost() as f64 / opt_r);
                }
            }
            (
                k,
                mean(&per_policy[0]),
                mean(&per_policy[1]),
                mean(&per_policy[2]),
            )
        });
        for (k, wfa, smin, hst) in rows {
            table.row(vec![
                k.to_string(),
                wname.into(),
                f3(wfa),
                f3(smin),
                f3(hst),
            ]);
        }
    }

    table.print();
    println!(
        "\nExpected shape: WFA is robust everywhere (deterministic guarantee);\n\
         smin wins on near-static demand but drifts on moving demand;\n\
         HST-Hedge tracks both within polylog factors."
    );
    table.write_csv("a1_mts_ablation");
}
