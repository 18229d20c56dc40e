//! The always-on work-counter ledger behind the perf gate.
//!
//! Wall-clock is too noisy to gate on in shared CI, but every simulation
//! in this workspace is fully seeded — so the perf gate ([`rdbp_bench`]'s
//! `suite`/`perfgate` modules and the `rdbp-perfgate` binary) gates on
//! *deterministic work counters* instead: exact counts of the operations
//! the hot path performs (requests, migrations, policy-tree node visits,
//! journal records, …). Same scenario + same seed ⇒ bit-identical
//! counters, on any machine. This is the same style of cost accounting
//! the source paper uses to charge algorithms per migration rather than
//! per second; wall-clock stays in the bench reports as *informational*
//! context ("counters gate, wall-clock informs" — DESIGN.md §10).
//!
//! The counters are plain `u64` adds on single-threaded state (no
//! atomics anywhere near a serve loop), cheap enough to stay always-on:
//! the S2/S3 serve-throughput experiments bound the total overhead at
//! ~3% or less.
//!
//! Each layer owns the counters for the work it performs and
//! [`WorkCounters`] is the merged, serializable view:
//!
//! * the [`crate::Driver`] counts requests, audited steps and journal
//!   records it verified,
//! * [`crate::Placement`] counts migrations and incremental max-load
//!   updates,
//! * MTS policies (in `rdbp_mts`) count serve calls by shape
//!   (vector vs point fast path), hierarchy node visits, distribution
//!   cache hits and coupling follows, surfaced through
//!   `OnlineAlgorithm::work_counters`.

use serde::{Deserialize, Serialize};

/// Number of metrics in a [`WorkCounters`] (the arity of
/// [`WorkCounters::named`]).
pub const NUM_WORK_METRICS: usize = 12;

/// A merged snapshot of every deterministic work counter — the unit the
/// perf gate diffs. See the module docs for who counts what.
///
/// Counters are instrumentation: they never affect behaviour, equality
/// of placements, or reports, and each instance counts only the work it
/// performed. A serving session (`rdbp_serve::Session`) carries its
/// merged counters in its snapshot and adds them to a restored
/// instance's, so a session's counters cover its whole history. They
/// serialize (for `BENCH_*.json` and snapshots) as an object keyed by
/// the [`WorkCounters::named`] metric names.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkCounters {
    /// Requests this driver served (all audit levels).
    pub requests: u64,
    /// Requests that ran the full per-step audit.
    pub audited_steps: u64,
    /// Migration-journal records verified and drained by the audit.
    pub journal_records: u64,
    /// Actual process migrations performed by the placement.
    pub migrations: u64,
    /// Times the placement's incremental max-load value changed.
    pub max_load_updates: u64,
    /// MTS policy serves that took the cost-vector path.
    pub policy_serve_vector: u64,
    /// MTS policy serves that took the point (`serve_hit`) fast path.
    pub policy_serve_hit: u64,
    /// Hierarchy nodes whose Hedge weights were updated (`HstHedge`).
    pub hst_node_visits: u64,
    /// Serves that reused the cached leaf distribution (`HstHedge`).
    pub hst_cache_hits: u64,
    /// Quantile-coupling follow/resample operations (randomized
    /// policies).
    pub coupling_follows: u64,
    /// Cut evaluations performed by offline oracles: for the ringload
    /// oracle's lower bound, the (request, window offset) pairs decided
    /// (`trace.len() × offsets`, however many of them one skipped
    /// request settles at once); for its upper bound, the `ℓ` cut edges
    /// priced per rotation (`ℓ·k` on a packed ring).
    pub oracle_cut_evals: u64,
    /// Candidate schedules priced by offline oracles: for the ringload
    /// oracle's upper bound, the lazy schedule plus, on a packed ring,
    /// one migrate-then-freeze schedule per rotation (`1 + k`).
    pub oracle_rounding_passes: u64,
}

impl WorkCounters {
    /// The metrics as `(stable name, value)` pairs, in the pinned order
    /// the perf gate reports them. The names double as the
    /// `BENCH_*.json` field names — renaming one is a schema change.
    #[must_use]
    pub fn named(&self) -> [(&'static str, u64); NUM_WORK_METRICS] {
        [
            ("requests", self.requests),
            ("audited_steps", self.audited_steps),
            ("journal_records", self.journal_records),
            ("migrations", self.migrations),
            ("max_load_updates", self.max_load_updates),
            ("policy_serve_vector", self.policy_serve_vector),
            ("policy_serve_hit", self.policy_serve_hit),
            ("hst_node_visits", self.hst_node_visits),
            ("hst_cache_hits", self.hst_cache_hits),
            ("coupling_follows", self.coupling_follows),
            ("oracle_cut_evals", self.oracle_cut_evals),
            ("oracle_rounding_passes", self.oracle_rounding_passes),
        ]
    }

    /// Looks a metric up by its [`WorkCounters::named`] name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<u64> {
        self.named()
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Adds every counter of `other` into `self` (used to aggregate
    /// across sessions or policy instances).
    pub fn merge(&mut self, other: &Self) {
        self.requests += other.requests;
        self.audited_steps += other.audited_steps;
        self.journal_records += other.journal_records;
        self.migrations += other.migrations;
        self.max_load_updates += other.max_load_updates;
        self.policy_serve_vector += other.policy_serve_vector;
        self.policy_serve_hit += other.policy_serve_hit;
        self.hst_node_visits += other.hst_node_visits;
        self.hst_cache_hits += other.hst_cache_hits;
        self.coupling_follows += other.coupling_follows;
        self.oracle_cut_evals += other.oracle_cut_evals;
        self.oracle_rounding_passes += other.oracle_rounding_passes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_covers_every_field_exactly_once() {
        // A counter set with every field distinct: `named` must surface
        // each value under its own name.
        let c = WorkCounters {
            requests: 1,
            audited_steps: 2,
            journal_records: 3,
            migrations: 4,
            max_load_updates: 5,
            policy_serve_vector: 6,
            policy_serve_hit: 7,
            hst_node_visits: 8,
            hst_cache_hits: 9,
            coupling_follows: 10,
            oracle_cut_evals: 11,
            oracle_rounding_passes: 12,
        };
        let named = c.named();
        assert_eq!(named.len(), NUM_WORK_METRICS);
        let values: Vec<u64> = named.iter().map(|&(_, v)| v).collect();
        assert_eq!(values, (1..=12).collect::<Vec<u64>>());
        let mut names: Vec<&str> = named.iter().map(|&(n, _)| n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), NUM_WORK_METRICS, "metric names must be unique");
        assert_eq!(c.get("migrations"), Some(4));
        assert_eq!(c.get("no-such-metric"), None);
    }

    #[test]
    fn merge_is_componentwise_addition() {
        let mut a = WorkCounters {
            requests: 10,
            migrations: 3,
            ..WorkCounters::default()
        };
        let b = WorkCounters {
            requests: 5,
            hst_node_visits: 7,
            ..WorkCounters::default()
        };
        a.merge(&b);
        assert_eq!(a.requests, 15);
        assert_eq!(a.migrations, 3);
        assert_eq!(a.hst_node_visits, 7);
    }

    #[test]
    fn serde_round_trip_preserves_every_metric() {
        let c = WorkCounters {
            requests: 42,
            coupling_follows: 99,
            ..WorkCounters::default()
        };
        let v = c.to_value();
        let back = WorkCounters::from_value(&v).unwrap();
        assert_eq!(back, c);
    }
}
