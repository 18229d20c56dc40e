//! Splits cluster-migrate's submit latency above serve-replay's into
//! parts, by changing one thing at a time between the two workloads:
//!
//! | step | inputs          | topology                    | migrate     |
//! |------|-----------------|-----------------------------|-------------|
//! | base | serve-replay    | 1 server × 2 workers        | no          |
//! | A    | cluster-migrate | 1 server × 2 workers        | no          |
//! | B    | cluster-migrate | router → 1 backend × 2      | no          |
//! | C    | cluster-migrate | router → 2 backends × 1     | no          |
//! | D    | cluster-migrate | router → 2 backends × 1     | every 8th   |
//!
//! A − base is the larger inputs (n = 1024, 256-edge submits), B − A
//! the router hop, C − B the worker split across backends, D − C the
//! migrations. Each step runs the benchmark's closed loop; the steps
//! are run `REPEATS` times, interleaved, and the median p50 is used.

use std::fmt::Write as _;

use crate::inputs::{replay_in_process, Inputs, Shape, Size, Topology, Workload};
use crate::run::{closed_loop, Options};
use crate::stats::median;

/// Interleaved repetitions of the five steps.
const REPEATS: usize = 3;

/// Runs the five steps for `options.seconds` each, `REPEATS` times,
/// and returns a Markdown table of the split.
///
/// # Errors
/// Returns the failed checks if any step was incorrect.
pub fn run(seed: u64, options: &Options) -> Result<String, String> {
    // Index 0 is serve-replay's inputs, index 1 cluster-migrate's.
    let inputs = [Workload::ServeReplay, Workload::ClusterMigrate]
        .map(|w| Inputs::generate(&Shape::of(w, Size::Full), seed));
    let expected = [replay_in_process(&inputs[0]), replay_in_process(&inputs[1])];
    let routed_one = Topology {
        backends: 1,
        workers: 2,
        router: true,
    };
    let steps: [(&str, usize, Topology, Option<usize>); 5] = [
        ("base: serve-replay", 0, Topology::SERVE, None),
        ("A: cluster inputs, direct", 1, Topology::SERVE, None),
        ("B: + router, 1 backend x 2 workers", 1, routed_one, None),
        ("C: 2 backends x 1 worker", 1, Topology::CLUSTER, None),
        (
            "D: + migrate every 8th round",
            1,
            Topology::CLUSTER,
            Some(8),
        ),
    ];
    let mut p50 = vec![Vec::new(); steps.len()];
    let mut rps = vec![Vec::new(); steps.len()];
    for _ in 0..REPEATS {
        for (i, &(name, input, topology, migrate)) in steps.iter().enumerate() {
            let m = closed_loop(&inputs[input], topology, migrate, options, &expected[input]);
            if !m.checks.ok() || m.failed > 0 {
                return Err(format!("{name}: {:?}", m.checks.failures()));
            }
            p50[i].push(m.value("submit_p50_us"));
            rps[i].push(m.value("throughput_rps"));
        }
    }
    let p50: Vec<f64> = p50.iter().map(|v| median(v)).collect();
    let mut out = String::new();
    let _ = writeln!(out, "| step | submit p50 (us) | throughput (req/s) |");
    let _ = writeln!(out, "|---|---:|---:|");
    for (i, (name, ..)) in steps.iter().enumerate() {
        let _ = writeln!(out, "| {name} | {:.1} | {:.0} |", p50[i], median(&rps[i]));
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "| part of the p50 gap | us | share |");
    let _ = writeln!(out, "|---|---:|---:|");
    let total = p50[4] - p50[0];
    let parts = [
        ("larger inputs (A - base)", p50[1] - p50[0]),
        ("router hop (B - A)", p50[2] - p50[1]),
        ("worker split across backends (C - B)", p50[3] - p50[2]),
        ("migration (D - C)", p50[4] - p50[3]),
        ("total (D - base)", total),
    ];
    for (name, us) in parts {
        let _ = writeln!(out, "| {name} | {us:.1} | {:.0}% |", us / total * 100.0);
    }
    Ok(out)
}
