//! Benchmark runner.
//!
//! ```text
//! rdbp_perfbench --workload <sim-ratio|serve-replay|cluster-migrate>
//!                [--seed N] [--seconds S] [--trace 0|1]
//! rdbp_perfbench --split [--seed N] [--seconds S]
//! ```
//!
//! Prints a human-readable summary on stderr and, as the last line of
//! stdout, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics untraced, the per-layer metrics
//! with `--trace 1`). A traced run writes its spans to
//! `perfbench/out/spans-<workload>-seed<N>.csv` under the current
//! directory. Exits 1 if any correctness check fails or any operation
//! failed, 2 on a usage error. `--split` instead prints the
//! decomposition of cluster-migrate's submit latency above
//! serve-replay's.

use std::path::PathBuf;
use std::process::ExitCode;

use rdbp_perfbench::checks::Checks;
use rdbp_perfbench::inputs::{Inputs, Shape, Size, Workload};
use rdbp_perfbench::metrics::{Outcome, END_TO_END, PER_LAYER};
use rdbp_perfbench::run::{self, Options};
use rdbp_perfbench::{ladder, split};

/// The seed used when `--seed` is absent. Seed 1009 (and the nine
/// after it) is held out: no tuning used it, so a claim can be
/// re-checked on it.
const DEFAULT_SEED: u64 = 1;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    split: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        split: false,
    };
    while let Some(flag) = argv.next() {
        if flag == "--split" {
            args.split = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("invalid value `{value}` for {flag}: {e}");
        match flag.as_str() {
            "--workload" => {
                args.workload =
                    Some(Workload::parse(&value).ok_or_else(|| {
                        bad(&"expected sim-ratio, serve-replay or cluster-migrate")
                    })?);
            }
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err(bad(&"must be a non-negative number"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !args.split && args.workload.is_none() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Prints the first failed checks (one failure often repeats per
/// session and pass).
fn report_failures(checks: &Checks) {
    const SHOWN: usize = 10;
    for failure in checks.failures().iter().take(SHOWN) {
        eprintln!("CHECK FAILED: {failure}");
    }
    if checks.failures().len() > SHOWN {
        eprintln!("... {} more failed checks", checks.failures().len() - SHOWN);
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("rdbp_perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let options = Options {
        seconds: args.seconds,
        min_passes: 2,
    };
    let Some(workload) = args.workload.filter(|_| !args.split) else {
        return match split::run(args.seed, &options) {
            Ok(table) => {
                println!("{table}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("rdbp_perfbench: split: {e}");
                ExitCode::FAILURE
            }
        };
    };
    let inputs = Inputs::generate(&Shape::of(workload, Size::Full), args.seed);
    eprintln!(
        "workload={} seed={} seconds={} trace={}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let (metrics, measured) = if args.trace {
        let spans = PathBuf::from(format!(
            "perfbench/out/spans-{}-seed{}.csv",
            workload.name(),
            args.seed
        ));
        (&PER_LAYER[..], ladder::traced(&inputs, &spans))
    } else {
        (&END_TO_END[..], run::end_to_end(&inputs, &options))
    };
    for line in &measured.notes {
        eprintln!("{line}");
    }
    report_failures(&measured.checks);
    let outcome = Outcome::new(
        metrics,
        &measured.values,
        measured.checks.ok() && measured.failed == 0,
        measured.attempted,
        measured.failed,
    );
    for (metric, value) in &outcome.values {
        eprintln!("  {:<32} {value:>16.4} {}", metric.name, metric.unit);
    }
    println!("{}", outcome.json_line());
    if outcome.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
