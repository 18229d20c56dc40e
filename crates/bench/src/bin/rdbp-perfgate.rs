//! `rdbp-perfgate` — run the pinned bench suite and gate on counter
//! regressions.
//!
//! ```text
//! rdbp-perfgate run [--out FILE] [--repeats N] [--strip-wall]
//! rdbp-perfgate compare BASE.json NEW.json
//! ```
//!
//! `run` executes the pinned `main` suite (see `rdbp_bench::suite`) and
//! writes a versioned `BENCH_main.json`; `compare` diffs two such
//! reports and exits nonzero when any deterministic work counter
//! differs at all. Wall-clock differences are printed but never gate —
//! see DESIGN.md §10 for the contract.
//!
//! `--strip-wall` zeroes the report-only wall-clock/throughput fields
//! before writing, making the report a pure function of the pinned
//! suite: two `run --strip-wall` invocations must produce byte-identical
//! JSON (CI's perf-gate reproducibility leg diffs them with `cmp`).

use std::path::{Path, PathBuf};
use std::process::exit;

use rdbp_bench::{
    compare, f3, results_dir, run_suite, BenchReport, Table, DEFAULT_REPEATS, MAIN_SUITE,
};

fn usage() -> ! {
    eprintln!(
        "rdbp-perfgate — deterministic perf gate over the pinned bench suite\n\n\
         USAGE:\n\
         \x20 rdbp-perfgate run [--out FILE] [--repeats N] [--strip-wall]\n\
         \x20     run the main suite; write BENCH_main.json (default under bench_results/);\n\
         \x20     --strip-wall zeroes wall-clock fields for byte-exact reproducibility\n\
         \x20 rdbp-perfgate compare BASE.json NEW.json\n\
         \x20     diff two reports; exit 1 if any counter differs\n"
    );
    exit(2)
}

fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("rdbp-perfgate: {message}");
    exit(2)
}

/// Pulls the value of `--flag` out of `args`, if present.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let pos = args.iter().position(|a| a == flag)?;
    if pos + 1 >= args.len() {
        fail(format!("{flag} needs a value"));
    }
    let value = args.remove(pos + 1);
    args.remove(pos);
    Some(value)
}

/// Pulls a valueless `--flag` out of `args`, returning whether it was
/// present.
fn take_bool_flag(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(pos) => {
            args.remove(pos);
            true
        }
        None => false,
    }
}

fn cmd_run(mut args: Vec<String>) {
    let repeats: u32 = take_flag(&mut args, "--repeats")
        .map(|raw| raw.parse().unwrap_or_else(|_| fail("invalid --repeats")))
        .unwrap_or(DEFAULT_REPEATS);
    let out: PathBuf = take_flag(&mut args, "--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| results_dir().join(format!("BENCH_{MAIN_SUITE}.json")));
    let strip_wall = take_bool_flag(&mut args, "--strip-wall");
    if !args.is_empty() {
        fail(format!("unexpected arguments: {args:?}"));
    }

    let mut report = run_suite(repeats);
    if strip_wall {
        // Wall-clock and throughput are the only nondeterministic
        // fields of a report; with them zeroed the JSON is a pure
        // function of the pinned suite and can be diffed byte-for-byte.
        for case in &mut report.cases {
            case.wall_ns = 0;
            case.throughput = 0.0;
        }
    }
    let mut table = Table::new(
        &format!("perf-gate suite `{MAIN_SUITE}` ({repeats} repeats, min wall-clock)"),
        &[
            "case",
            "steps",
            "requests",
            "migrations",
            "policy hits",
            "wall ms",
            "Mreq/s",
        ],
    );
    for case in &report.cases {
        table.row(vec![
            case.id.clone(),
            case.steps.to_string(),
            case.counters.requests.to_string(),
            case.counters.migrations.to_string(),
            case.counters.policy_serve_hit.to_string(),
            f3(case.wall_ns as f64 / 1e6),
            f3(case.throughput / 1e6),
        ]);
    }
    table.print();
    report
        .save(&out)
        .unwrap_or_else(|e| fail(format!("cannot write {}: {e}", out.display())));
    println!("\n[json] {}", out.display());
}

fn cmd_compare(args: Vec<String>) {
    let [base_path, new_path]: [String; 2] = args
        .try_into()
        .unwrap_or_else(|_| fail("compare takes exactly BASE.json and NEW.json"));
    let load = |p: &str| {
        BenchReport::load(Path::new(p)).unwrap_or_else(|e| fail(format!("cannot load {p}: {e}")))
    };
    let base = load(&base_path);
    let new = load(&new_path);
    let comparison = compare(&base, &new);
    comparison.table().print();
    for problem in &comparison.problems {
        println!("PROBLEM: {problem}");
    }
    if comparison.passed() {
        println!(
            "\nPASS: all counters equal across {} case(s)",
            base.cases.len()
        );
    } else {
        let failures: Vec<String> = comparison
            .failures()
            .map(|r| format!("{}/{}", r.case, r.metric))
            .collect();
        println!(
            "\nFAIL: {} problem(s), drifted gating metrics: {}",
            comparison.problems.len(),
            if failures.is_empty() {
                "none".to_string()
            } else {
                failures.join(", ")
            }
        );
        exit(1);
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") || args.is_empty() {
        usage();
    }
    let command = args.remove(0);
    match command.as_str() {
        "run" => cmd_run(args),
        "compare" => cmd_compare(args),
        other => fail(format!("unknown command `{other}` (valid: run, compare)")),
    }
}
