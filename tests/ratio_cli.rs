//! `rdbp-sim --ratio` compares a run against an offline oracle from
//! the CLI; these tests pin the JSON shape of the `oracle` object, the
//! default oracle choice, the absent ratio of a zero lower bound, and
//! the guard rails (unsupported instances, `--batch` incompatibility). The adversary flags' key list and
//! unknown-key error are pinned here too, and so are `--load-trace`
//! refusing a trace that names an edge outside its ring and the refusal
//! of a misspelled flag.

use std::process::Command;

fn sim(extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_rdbp-sim"))
        .args(extra)
        .output()
        .expect("run rdbp-sim")
}

fn sim_ok(extra: &[&str]) -> String {
    let output = sim(extra);
    assert!(
        output.status.success(),
        "rdbp-sim {extra:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("utf8 report")
}

#[test]
fn ratio_json_shape_is_pinned() {
    // The machine-readable contract downstream tooling parses: a
    // top-level wrapper with "report" and "oracle", the oracle object
    // carrying exactly these fields.
    let out = sim_ok(&[
        "--servers",
        "4",
        "--capacity",
        "16",
        "--steps",
        "2000",
        "--seed",
        "7",
        "--ratio",
        "--json",
    ]);
    assert!(out.starts_with("{\"report\":{"), "wrapper shape: {out}");
    assert!(out.contains("\"oracle\":{\"oracle\":\"ringload\""), "{out}");
    for field in [
        "\"cost\":",
        "\"lower_bound\":",
        "\"upper_bound\":",
        "\"ratio\":",
    ] {
        assert!(out.contains(field), "missing {field} in {out}");
    }
    // Default oracle is ringload — no --opt-oracle needed.
    assert!(!out.contains("\"counters\""), "no counters unless asked");
}

#[test]
fn ratio_with_counters_surfaces_oracle_work() {
    let out = sim_ok(&[
        "--servers",
        "4",
        "--capacity",
        "16",
        "--steps",
        "2000",
        "--seed",
        "7",
        "--ratio",
        "--counters",
        "--json",
    ]);
    assert!(out.contains("\"counters\""), "{out}");
    assert!(out.contains("\"oracle_cut_evals\":"), "{out}");
    // The window scan ran: its work must be non-zero in the merged
    // counter view.
    assert!(!out.contains("\"oracle_cut_evals\":0,"), "{out}");
}

#[test]
fn ratio_is_deterministic_across_invocations() {
    let args = [
        "--servers",
        "4",
        "--capacity",
        "8",
        "--steps",
        "3000",
        "--seed",
        "3",
        "--workload",
        "zipf",
        "--ratio",
        "--counters",
        "--json",
    ];
    assert_eq!(sim_ok(&args), sim_ok(&args), "same seed, same bytes");
}

#[test]
fn exact_oracle_works_on_tiny_instances_and_refuses_large_ones() {
    let out = sim_ok(&[
        "--servers",
        "2",
        "--capacity",
        "4",
        "--steps",
        "300",
        "--ratio",
        "--opt-oracle",
        "exact",
        "--json",
    ]);
    // Exact OPT is its own sandwich: LB == UB.
    assert!(out.contains("\"oracle\":\"exact\""), "{out}");
    let lb = out
        .split("\"lower_bound\":")
        .nth(1)
        .and_then(|s| s.split(',').next())
        .expect("lower_bound field");
    assert!(out.contains(&format!("\"upper_bound\":{lb}")), "{out}");

    let output = sim(&[
        "--servers",
        "8",
        "--capacity",
        "32",
        "--steps",
        "100",
        "--ratio",
        "--opt-oracle",
        "exact",
    ]);
    assert!(!output.status.success());
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(err.contains("does not support"), "unhelpful error: {err}");
    assert!(err.contains("ringload"), "should suggest ringload: {err}");
}

#[test]
fn a_zero_lower_bound_reports_no_ratio() {
    // 40·k zipf requests are too few for a k-edge window to complete a
    // phase, so LB = 0 certifies nothing: the ratio is absent, not the
    // raw online cost.
    let args = [
        "--servers",
        "8",
        "--capacity",
        "640",
        "--workload",
        "zipf",
        "--steps",
        "25600",
        "--ratio",
    ];
    let text = sim_ok(&args);
    assert!(
        text.contains("\noracle ringload: LB 0.0 UB 10.0 → ratio -\n"),
        "{text}"
    );
    let json = sim_ok(&[&args[..], &["--json"]].concat());
    assert!(
        json.contains("\"lower_bound\":0.0,\"upper_bound\":10.0,\"ratio\":null}"),
        "{json}"
    );
}

#[test]
fn unknown_oracle_lists_the_valid_keys() {
    let output = sim(&["--ratio", "--opt-oracle", "psychic"]);
    assert!(!output.status.success());
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(err.contains("unknown oracle `psychic`"), "{err}");
    assert!(err.contains("ringload"), "{err}");
}

#[test]
fn batch_rejects_ratio() {
    let output = sim(&["--batch", "10", "--ratio"]);
    assert!(!output.status.success());
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(err.contains("--ratio"), "unhelpful error: {err}");
}

#[test]
fn adversary_flags_list_and_check_the_adaptive_workloads() {
    assert_eq!(
        sim_ok(&["--list-adversaries"]),
        "chaser\ncut-chaser\ngreedy-cut\nseparation\nseparation-chaser\n"
    );
    // An oblivious workload key is not an adversary.
    let output = sim(&["--adversary", "uniform"]);
    assert_eq!(output.status.code(), Some(2));
    assert_eq!(
        String::from_utf8_lossy(&output.stderr),
        "unknown adversary `uniform` (valid: chaser, cut-chaser, greedy-cut, separation, \
         separation-chaser)\n"
    );
}

#[test]
fn load_trace_refuses_a_request_outside_the_ring() {
    let path = std::env::temp_dir().join(format!("rdbp-sim-bad-trace-{}.json", std::process::id()));
    std::fs::write(
        &path,
        r#"{"instance":{"n":8,"servers":2,"capacity":4},"workload":"manual","seed":0,"requests":[7,1000]}"#,
    )
    .unwrap();
    let output = sim(&[
        "--servers",
        "2",
        "--capacity",
        "4",
        "--load-trace",
        path.to_str().unwrap(),
    ]);
    std::fs::remove_file(&path).ok();
    assert_eq!(output.status.code(), Some(2), "{output:?}");
    assert_eq!(
        String::from_utf8_lossy(&output.stderr).trim_end(),
        "cannot load trace: request 1 (edge 1000) out of range for n = 8"
    );
}

#[test]
fn a_misspelled_flag_is_refused() {
    // `--capacty` used to be stored and never read, so the run served
    // the default capacity and exited 0.
    let output = sim(&[
        "--servers",
        "4",
        "--capacty",
        "32",
        "--steps",
        "1000",
        "--seed",
        "1",
    ]);
    assert_eq!(output.status.code(), Some(2), "{output:?}");
    assert_eq!(
        String::from_utf8_lossy(&output.stderr),
        "unknown flag `--capacty` (see --help)\n"
    );
    assert!(output.stdout.is_empty(), "nothing may run");
}
