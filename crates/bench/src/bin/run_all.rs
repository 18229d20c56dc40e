//! Runs the complete experiment suite (F1–F7, T1, T2, T4, S6, S8,
//! A1–A3) in sequence, as recorded in EXPERIMENTS.md. The throughput
//! experiments (T3, S1, S2, S4, S5, S7) have no binary: their CSVs
//! under `bench_results/` are the record, and perfbench's `--trace 1`
//! ladder re-measures those layers. Set `RDBP_FULL=1` for
//! publication-size sweeps (the nightly CI `full-sweep` job does).

use std::process::Command;

const EXPERIMENTS: &[&str] = &[
    "exp_hitting_game",
    "exp_lower_bound",
    "exp_dynamic_ratio",
    "exp_dynamic_tiny_opt",
    "exp_static_ratio",
    "exp_load_audit",
    "exp_cost_breakdown",
    "exp_epsilon_sweep",
    "exp_mts_ablation",
    "exp_coupling_ablation",
    "exp_shift_ablation",
    "exp_strictness",
    "exp_ratio_sweep",
    "exp_adversary_search",
    "exp_well_behaved",
];

fn main() {
    let exe = std::env::current_exe().expect("own path");
    let dir = exe.parent().expect("bin dir");
    let mut failed = Vec::new();
    for name in EXPERIMENTS {
        println!("\n########## {name} ##########");
        let status = Command::new(dir.join(name))
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {name}: {e}"));
        if !status.success() {
            failed.push(*name);
        }
    }
    if failed.is_empty() {
        println!("\nAll {} experiments completed.", EXPERIMENTS.len());
    } else {
        panic!("experiments failed: {failed:?}");
    }
}
