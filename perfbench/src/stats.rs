//! Sample statistics and the process memory high-water mark.

use std::time::Duration;

/// Nanoseconds in a duration, saturating at `u64::MAX`.
#[must_use]
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Latency samples in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    ns: Vec<u64>,
}

impl Samples {
    /// Records one sample.
    pub fn push(&mut self, d: Duration) {
        self.ns.push(nanos(d));
    }

    /// Appends every sample of `other`.
    pub fn extend(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// Whether no sample was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    /// The nearest-rank `q`-quantile (`0 < q ≤ 1`) in nanoseconds, or
    /// `None` without samples.
    #[must_use]
    pub fn quantile_ns(&self, q: f64) -> Option<f64> {
        let mut sorted = self.ns.clone();
        sorted.sort_unstable();
        quantile_sorted(&sorted, q).map(|v| v as f64)
    }

    /// The nearest-rank `q`-quantile in microseconds (0 without
    /// samples).
    #[must_use]
    pub fn quantile_us(&self, q: f64) -> f64 {
        self.quantile_ns(q).map_or(0.0, |ns| ns / 1e3)
    }

    /// The median in seconds (0 without samples).
    #[must_use]
    pub fn median_s(&self) -> f64 {
        self.quantile_ns(0.5).map_or(0.0, |ns| ns / 1e9)
    }

    /// The highest whole percentile that still has at least ten
    /// samples beyond it, or `None` below 20 samples.
    #[must_use]
    pub fn supported_percentile(&self) -> Option<u32> {
        let n = self.len() as f64;
        let p = ((1.0 - 10.0 / n) * 100.0).floor();
        (p >= 50.0).then_some(p.min(99.0) as u32)
    }
}

/// The median of each pass, reported as their median across passes: a
/// pass slowed by other load on the machine then moves the result less
/// than pooling its samples would.
#[derive(Debug, Clone, Default)]
pub struct PassMedians {
    p50: Vec<f64>,
}

impl PassMedians {
    /// Records one pass's samples.
    pub fn add(&mut self, pass: &Samples) {
        if !pass.is_empty() {
            self.p50.push(pass.quantile_us(0.5));
        }
    }

    /// Median over passes of the per-pass median, in µs.
    #[must_use]
    pub fn p50_us(&self) -> f64 {
        median(&self.p50)
    }
}

fn quantile_sorted(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    Some(sorted[rank.min(sorted.len()) - 1])
}

/// Median of a list of values (0 for an empty list).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Resets the kernel's resident-set high-water mark to the current
/// resident size (`/proc/self/clear_refs`, value 5). Returns whether
/// the reset took effect.
#[must_use]
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The resident-set high-water mark (`VmHWM`) in MiB, if readable.
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut s = Samples::default();
        for ns in 1..=100u64 {
            s.push(Duration::from_nanos(ns));
        }
        assert_eq!(s.quantile_ns(0.5), Some(50.0));
        assert_eq!(s.quantile_ns(0.99), Some(99.0));
        assert_eq!(s.quantile_ns(1.0), Some(100.0));
        assert_eq!(s.supported_percentile(), Some(90));
    }

    #[test]
    fn median_of_even_and_odd_lists() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
