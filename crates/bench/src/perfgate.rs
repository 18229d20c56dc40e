//! Comparing two [`BenchReport`]s: the regression gate itself.
//!
//! The contract ("counters gate, wall-clock informs", DESIGN.md §10):
//! every [`rdbp_model::WorkCounters`] metric and the step count are
//! *gating* — they must match the baseline **exactly**, because pinned
//! scenarios are deterministic;
//! wall-clock and throughput are *report-only* — they appear in the
//! diff table for context but can never fail the gate, because shared
//! CI runners make them noise.
//!
//! [`compare`] returns a [`Comparison`] whose [`Comparison::passed`]
//! drives the `rdbp-perfgate compare` exit code, and whose
//! [`Comparison::table`] renders the human-readable diff CI prints
//! into the job summary.

use crate::suite::{BenchReport, CaseResult};
use crate::Table;

/// One line of the diff table.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// Case id the metric belongs to.
    pub case: String,
    /// Metric name (a [`rdbp_model::WorkCounters::named`] name,
    /// `steps`, or the report-only `wall_ms`).
    pub metric: String,
    /// Baseline value.
    pub base: f64,
    /// New value.
    pub new: f64,
    /// Whether this row fails the gate: a counter row, emitted only
    /// where the counter differs. Wall-clock and derived rows are
    /// report-only.
    pub gating: bool,
}

impl DiffRow {
    /// Relative drift `(new − base) / base`; ±∞ when the baseline is 0
    /// and the new value is not.
    #[must_use]
    pub fn drift(&self) -> f64 {
        if self.base == 0.0 && self.new == 0.0 {
            0.0
        } else if self.base == 0.0 {
            f64::INFINITY * (self.new - self.base).signum()
        } else {
            (self.new - self.base) / self.base
        }
    }
}

/// The outcome of comparing two reports.
#[derive(Debug, Clone, Default)]
pub struct Comparison {
    /// Per-metric rows, in per-case metric order as emitted by
    /// [`compare`] (use [`Comparison::failures`] for the failing rows;
    /// [`Comparison::table`] sorts failures first for display).
    pub rows: Vec<DiffRow>,
    /// Structural failures that are not per-metric: schema-version or
    /// suite mismatches, missing or extra cases.
    pub problems: Vec<String>,
}

impl Comparison {
    /// Whether the gate passes: no structural problems and no counter
    /// drift.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.problems.is_empty() && self.failures().next().is_none()
    }

    /// The failing (gating) rows.
    pub fn failures(&self) -> impl Iterator<Item = &DiffRow> {
        self.rows.iter().filter(|r| r.gating)
    }

    /// Renders the diff as a printable [`Table`]: failures first, then
    /// the report-only rows.
    #[must_use]
    pub fn table(&self) -> Table {
        let mut table = Table::new(
            "perf-gate diff (counters gate, wall-clock informs)",
            &["case", "metric", "base", "new", "drift", "gate", "status"],
        );
        let mut ordered: Vec<&DiffRow> = self.rows.iter().collect();
        ordered.sort_by_key(|r| !r.gating);
        for row in ordered {
            table.row(vec![
                row.case.clone(),
                row.metric.clone(),
                format_value(row.base),
                format_value(row.new),
                format_drift(row.drift()),
                if row.gating { "exact" } else { "info" }.to_string(),
                if row.gating { "FAIL" } else { "·" }.to_string(),
            ]);
        }
        table
    }
}

fn format_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

fn format_drift(d: f64) -> String {
    if d == 0.0 {
        "0%".to_string()
    } else if d.is_infinite() {
        format!("{}∞", if d > 0.0 { "+" } else { "-" })
    } else {
        format!("{:+.2}%", d * 100.0)
    }
}

/// Diffs `new` against the `base`line.
///
/// Structural mismatches (schema version, suite name, missing/extra
/// cases) are reported as [`Comparison::problems`] and fail the gate;
/// per-metric drifts become [`DiffRow`]s. Counter rows with zero drift
/// are collapsed into nothing (the table stays readable); every case
/// still contributes its report-only wall-clock row.
#[must_use]
pub fn compare(base: &BenchReport, new: &BenchReport) -> Comparison {
    let mut out = Comparison::default();
    if base.schema_version != new.schema_version {
        out.problems.push(format!(
            "schema version mismatch: baseline v{}, new v{} — regenerate the baseline",
            base.schema_version, new.schema_version
        ));
        return out;
    }
    if base.suite != new.suite {
        out.problems.push(format!(
            "suite mismatch: baseline `{}`, new `{}`",
            base.suite, new.suite
        ));
        return out;
    }
    for b in &base.cases {
        match new.case(&b.id) {
            None => out
                .problems
                .push(format!("case `{}` missing from the new report", b.id)),
            Some(n) => diff_case(b, n, &mut out),
        }
    }
    for n in &new.cases {
        if base.case(&n.id).is_none() {
            out.problems.push(format!(
                "case `{}` is not in the baseline — regenerate BENCH_{}.json",
                n.id, base.suite
            ));
        }
    }
    out
}

fn diff_case(base: &CaseResult, new: &CaseResult, out: &mut Comparison) {
    let mut gate = |metric: &str, b: u64, n: u64| {
        if b == n {
            return; // exact match: no row, the table stays readable
        }
        out.rows.push(DiffRow {
            case: base.id.clone(),
            metric: metric.to_string(),
            base: b as f64,
            new: n as f64,
            gating: true,
        });
    };
    gate("steps", base.steps, new.steps);
    for ((name, b), (_, n)) in base.counters.named().iter().zip(new.counters.named()) {
        gate(name, *b, n);
    }
    // Report-only context: how the wall-clock moved (never gates).
    out.rows.push(DiffRow {
        case: base.id.clone(),
        metric: "wall_ms".to_string(),
        base: base.wall_ns as f64 / 1e6,
        new: new.wall_ns as f64 / 1e6,
        gating: false,
    });
    // Derived layout-efficiency ratio: hierarchy-node touches per
    // request. Report-only (it is a quotient of two gated counters, so
    // it can never disagree with the gate) — surfaced so data-layout
    // wins/regressions in the HstHedge hot path are visible at a
    // glance. Only emitted for cases that exercise the hierarchy at
    // all.
    if base.counters.hst_node_visits > 0 || new.counters.hst_node_visits > 0 {
        let per_req = |visits: u64, requests: u64| visits as f64 / requests.max(1) as f64;
        out.rows.push(DiffRow {
            case: base.id.clone(),
            metric: "hst_visits_per_req".to_string(),
            base: per_req(base.counters.hst_node_visits, base.counters.requests),
            new: per_req(new.counters.hst_node_visits, new.counters.requests),
            gating: false,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::BENCH_SCHEMA_VERSION;
    use rdbp_model::WorkCounters;

    fn report(migrations: u64, wall_ns: u64) -> BenchReport {
        BenchReport {
            schema_version: BENCH_SCHEMA_VERSION,
            suite: "main".into(),
            cases: vec![CaseResult {
                id: "case-a".into(),
                steps: 100,
                counters: WorkCounters {
                    requests: 100,
                    migrations,
                    ..WorkCounters::default()
                },
                wall_ns,
                throughput: 1.0,
            }],
        }
    }

    #[test]
    fn identical_reports_pass() {
        let cmp = compare(&report(7, 500), &report(7, 500));
        assert!(cmp.passed(), "{:?}", cmp);
        assert_eq!(cmp.failures().count(), 0);
    }

    #[test]
    fn wall_clock_drift_never_gates() {
        let cmp = compare(&report(7, 500), &report(7, 90_000));
        assert!(cmp.passed(), "wall-clock is report-only: {:?}", cmp);
    }

    #[test]
    fn counter_drift_fails_and_names_the_metric() {
        let cmp = compare(&report(7, 500), &report(8, 500));
        assert!(!cmp.passed());
        let failures: Vec<&DiffRow> = cmp.failures().collect();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].metric, "migrations");
        assert_eq!(failures[0].case, "case-a");
        assert_eq!(failures[0].base, 7.0);
        assert_eq!(failures[0].new, 8.0);
        // The table renders without panicking and marks the failure.
        let _ = cmp.table();
    }

    #[test]
    fn hst_visits_per_req_is_derived_and_report_only() {
        let with_hst = |visits: u64| {
            let mut r = report(7, 500);
            r.cases[0].counters.hst_node_visits = visits;
            r
        };
        // A hedge case surfaces the ratio; halving the visit count is
        // visible in the derived row yet (being derived) never gates on
        // its own — the underlying counter row is what fails.
        let cmp = compare(&with_hst(600), &with_hst(300));
        let row = cmp
            .rows
            .iter()
            .find(|r| r.metric == "hst_visits_per_req")
            .expect("derived ratio row");
        assert!(!row.gating);
        assert_eq!(row.base, 6.0);
        assert_eq!(row.new, 3.0);
        assert!(!cmp.passed(), "the raw hst_node_visits row still gates");
        // Cases that never touch the hierarchy (e.g. WFA-only) stay
        // ratio-free.
        let cmp = compare(&report(7, 500), &report(7, 500));
        assert!(cmp.rows.iter().all(|r| r.metric != "hst_visits_per_req"));
    }

    #[test]
    fn missing_case_fails_the_gate() {
        // A case present in the baseline but absent from the new report
        // must gate — silently dropping a case would let its
        // regressions through unseen.
        let mut base = report(7, 1);
        base.cases.push(CaseResult {
            id: "case-b".into(),
            steps: 50,
            counters: WorkCounters::default(),
            wall_ns: 1,
            throughput: 1.0,
        });
        let new = report(7, 1);
        let cmp = compare(&base, &new);
        assert!(!cmp.passed(), "a vanished case must fail the gate");
        assert_eq!(cmp.problems.len(), 1);
        assert!(
            cmp.problems[0].contains("case `case-b` missing from the new report"),
            "problem names the vanished case: {:?}",
            cmp.problems
        );
    }

    #[test]
    fn extra_case_fails_the_gate() {
        // The reverse direction gates too: a case in the new report
        // with no committed baseline entry means the baseline is stale
        // and must be regenerated in the same change.
        let base = report(7, 1);
        let mut new = report(7, 1);
        new.cases.push(CaseResult {
            id: "case-new".into(),
            steps: 50,
            counters: WorkCounters::default(),
            wall_ns: 1,
            throughput: 1.0,
        });
        let cmp = compare(&base, &new);
        assert!(!cmp.passed(), "an unbaselined case must fail the gate");
        assert_eq!(cmp.problems.len(), 1);
        assert!(
            cmp.problems[0].contains("case `case-new` is not in the baseline"),
            "problem names the unbaselined case: {:?}",
            cmp.problems
        );
    }

    #[test]
    fn structural_mismatches_are_problems() {
        let base = report(7, 1);
        let mut other = report(7, 1);
        other.schema_version += 1;
        assert!(!compare(&base, &other).passed());

        let mut renamed = report(7, 1);
        renamed.cases[0].id = "case-b".into();
        let cmp = compare(&base, &renamed);
        assert!(!cmp.passed());
        assert_eq!(cmp.problems.len(), 2, "one missing + one extra case");
    }
}
