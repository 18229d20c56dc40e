//! Runs the complete experiment suite (F1–F7, T1–T4, S2, S4–S6, S8,
//! A1–A3) in sequence, as recorded in EXPERIMENTS.md. S7 has no binary
//! of its own: S2 measures its throughput sweep and the perf-gate case
//! `dyn-hedge-zipf-b1000-none` carries its counters. Set
//! `RDBP_FULL=1` for publication-size sweeps (the nightly CI
//! `full-sweep` job does).

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
    "exp_throughput",
    "exp_serve_throughput",
    "exp_serve_scaling",
    "exp_cluster_scaling",
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
