//! Experiment harness shared by the `exp_*` binaries (see DESIGN.md §5
//! for the experiment index and EXPERIMENTS.md for recorded results),
//! plus the perf-gate subsystem: the pinned counter-instrumented bench
//! [`suite`] and the regression-gating [`perfgate`] comparison behind
//! the `rdbp-perfgate` binary (DESIGN.md §10).
//!
//! Conventions:
//! * every binary prints an aligned text table (the "figure/table" the
//!   paper's systems twin would contain) and writes the same rows as
//!   CSV under `bench_results/`;
//! * sweeps honour `RDBP_FULL=1` for publication-size runs and default
//!   to a quick profile that finishes in seconds;
//! * parameter points run in parallel via the engine's
//!   [`parallel_map`] executor.

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

pub mod perfgate;
pub mod suite;

// The parallel executor and summary stats now live in the scenario
// engine (promoted so non-bench consumers can batch runs too); the
// experiment binaries keep importing them from here.
pub use rdbp_engine::{mean, parallel_map, stddev};

pub use perfgate::{compare, Comparison, DiffRow, GateConfig};
pub use suite::{
    pinned_cases, pinned_oracle_cases, pinned_wire_cases, run_cases, run_oracle_cases, run_suite,
    run_wire_cases, BenchCase, BenchReport, CaseResult, OracleCase, WireCase, WireTarget,
    BENCH_SCHEMA_VERSION, DEFAULT_REPEATS, MAIN_SUITE,
};

/// Where CSV outputs land (created on demand).
///
/// # Panics
/// Panics if the directory cannot be created.
#[must_use]
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from("bench_results");
    fs::create_dir_all(&dir).expect("create bench_results/");
    dir
}

/// Whether the publication-size sweep was requested (`RDBP_FULL=1`).
#[must_use]
pub fn full_profile() -> bool {
    std::env::var("RDBP_FULL").is_ok_and(|v| v == "1")
}

/// A printable/serializable results table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    #[must_use]
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            headers: headers.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    ///
    /// # Panics
    /// Panics if the arity differs from the header.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Prints the aligned table to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        let _ = writeln!(out, "\n== {} ==", self.title);
        let header: Vec<String> = self
            .headers
            .iter()
            .zip(&widths)
            .map(|(h, w)| format!("{h:>w$}"))
            .collect();
        let _ = writeln!(out, "{}", header.join("  "));
        let rule: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        let _ = writeln!(out, "{}", "-".repeat(rule));
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            let _ = writeln!(out, "{}", line.join("  "));
        }
    }

    /// Writes the table as CSV under `bench_results/<name>.csv`.
    ///
    /// # Panics
    /// Panics on I/O errors (experiments should fail loudly).
    pub fn write_csv(&self, name: &str) {
        let path = results_dir().join(format!("{name}.csv"));
        let mut f = fs::File::create(&path).expect("create csv");
        writeln!(f, "{}", self.headers.join(",")).expect("write header");
        for row in &self.rows {
            writeln!(f, "{}", row.join(",")).expect("write row");
        }
        println!("[csv] {}", path.display());
    }

    /// The shared experiment tail: prints the aligned table, writes it
    /// as `bench_results/<csv_name>.csv`, and reminds the reader that
    /// debug-profile numbers are meaningless. Every `exp_*` binary used
    /// to hand-roll this trio; promoted here alongside the shared
    /// [`mean`] so the binaries end identically.
    pub fn emit(&self, csv_name: &str) {
        self.print();
        self.write_csv(csv_name);
        println!("\nNote: run with --release for meaningful numbers.");
    }
}

/// Least-squares scale `a` minimizing `Σ (y - a·g)²` — used to check
/// how well a ratio series fits `a·log^p k`.
#[must_use]
pub fn fit_scale(g: &[f64], y: &[f64]) -> f64 {
    let num: f64 = g.iter().zip(y).map(|(a, b)| a * b).sum();
    let den: f64 = g.iter().map(|a| a * a).sum();
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Residual RMS of the best scale fit of `y ≈ a·g` (lower = better
/// shape match).
#[must_use]
pub fn fit_rms(g: &[f64], y: &[f64]) -> f64 {
    let a = fit_scale(g, y);
    let se: f64 = g.iter().zip(y).map(|(gi, yi)| (yi - a * gi).powi(2)).sum();
    (se / y.len() as f64).sqrt()
}

/// Formats a float with 3 decimals.
#[must_use]
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_roundtrip() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        t.print();
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_rejects_bad_row() {
        let mut t = Table::new("demo", &["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn fit_recovers_exact_scale() {
        let g = vec![1.0, 2.0, 3.0];
        let y = vec![2.0, 4.0, 6.0];
        assert!((fit_scale(&g, &y) - 2.0).abs() < 1e-12);
        assert!(fit_rms(&g, &y) < 1e-12);
    }
}
