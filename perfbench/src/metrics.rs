//! Metric names and units (mirrored in `BENCHMARK.json`), the layer →
//! end-to-end map, and the one-line JSON result.

/// A reported metric: its stable name and its unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Stable name (the `BENCHMARK.json` key).
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// End-to-end metrics, printed by every untraced run of every workload.
pub const END_TO_END: [Metric; 7] = [
    m("throughput_rps", "1/s"),
    m("submit_p50_us", "us"),
    m("certify_s", "s"),
    m("cost_per_req", "cost/req"),
    m("ratio_lb", "ratio"),
    m("setup_s", "s"),
    m("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed by every traced run of every workload.
pub const PER_LAYER: [Metric; 34] = [
    m("engine.resolve_us", "us"),
    m("core.serve_ns_per_req", "ns/req"),
    m("core.migrations_per_req", "count/req"),
    m("mts.hst_node_visits_per_req", "count/req"),
    m("mts.hst_cache_hit_ratio", "ratio"),
    m("smin.coupling_follows_per_req", "count/req"),
    m("model.driver_ns_per_req", "ns/req"),
    m("model.driver_ns_per_req.noise", "ns/req"),
    m("model.audit_ns_per_req", "ns/req"),
    m("model.audit_ns_per_req.noise", "ns/req"),
    m("model.journal_records_per_req", "count/req"),
    m("serve.session_ns_per_req", "ns/req"),
    m("serve.session_ns_per_req.noise", "ns/req"),
    m("serve.manager_hop_us", "us"),
    m("serve.manager_hop_us.noise", "us"),
    m("serve.wire_encode_ns", "ns"),
    m("serve.wire_decode_ns", "ns"),
    m("serve.frame_bytes_per_req", "B/req"),
    m("serve.ndjson_encode_ns", "ns"),
    m("serve.ndjson_decode_ns", "ns"),
    m("serve.ndjson_bytes_per_req", "B/req"),
    m("serve.reactor_us", "us"),
    m("serve.reactor_us.noise", "us"),
    m("cluster.router_hop_us", "us"),
    m("cluster.router_hop_us.noise", "us"),
    m("cluster.snapshot_us", "us"),
    m("cluster.snapshot_bytes", "B"),
    m("cluster.restore_us", "us"),
    m("cluster.migrate_us", "us"),
    m("ringload.lower_bound_s", "s"),
    m("ringload.upper_bound_s", "s"),
    m("ringload.cut_evals", "count"),
    m("ringload.ub_over_lb", "ratio"),
    m("trace.overhead_pct", "%"),
];

/// Which end-to-end metrics a layer metric should move, and on which
/// workloads. Written down before any optimisation, so a later claim
/// can name the workload, the metric and the layer metric that
/// explains it.
#[derive(Debug, Clone, Copy)]
pub struct Moves {
    /// The per-layer metric.
    pub layer: &'static str,
    /// End-to-end metrics it should move.
    pub end_to_end: &'static [&'static str],
    /// Workloads on which it should move them.
    pub workloads: &'static [&'static str],
}

const ALL: &[&str] = &["sim-ratio", "serve-replay", "cluster-migrate"];
const SIM: &[&str] = &["sim-ratio"];
const SERVE: &[&str] = &["serve-replay"];
const CLUSTER: &[&str] = &["cluster-migrate"];
const WIRE_E2E: &[&str] = &["submit_p50_us", "throughput_rps"];

const fn mv(
    layer: &'static str,
    end_to_end: &'static [&'static str],
    workloads: &'static [&'static str],
) -> Moves {
    Moves {
        layer,
        end_to_end,
        workloads,
    }
}

/// A self time's noise floor: it moves nothing a user sees, but says
/// whether a change in the self time above it is real.
const fn noise(layer: &'static str) -> Moves {
    mv(layer, &[], &[])
}

/// The layer → end-to-end map, one row per per-layer metric.
pub const MOVES: [Moves; 34] = [
    mv("engine.resolve_us", &["setup_s"], ALL),
    mv("core.serve_ns_per_req", &["throughput_rps"], SIM),
    mv("core.migrations_per_req", &["cost_per_req"], ALL),
    mv("mts.hst_node_visits_per_req", &["throughput_rps"], SIM),
    mv("mts.hst_cache_hit_ratio", &["throughput_rps"], SIM),
    mv("smin.coupling_follows_per_req", &["throughput_rps"], SIM),
    mv("model.driver_ns_per_req", &["throughput_rps"], SIM),
    noise("model.driver_ns_per_req.noise"),
    mv(
        "model.audit_ns_per_req",
        &["throughput_rps"],
        &["sim-ratio", "cluster-migrate"],
    ),
    noise("model.audit_ns_per_req.noise"),
    mv(
        "model.journal_records_per_req",
        &["throughput_rps"],
        &["sim-ratio", "cluster-migrate"],
    ),
    mv("serve.session_ns_per_req", &["submit_p50_us"], SERVE),
    noise("serve.session_ns_per_req.noise"),
    mv("serve.manager_hop_us", &["submit_p50_us"], SERVE),
    noise("serve.manager_hop_us.noise"),
    mv("serve.wire_encode_ns", WIRE_E2E, SERVE),
    mv("serve.wire_decode_ns", WIRE_E2E, SERVE),
    mv("serve.frame_bytes_per_req", WIRE_E2E, SERVE),
    mv("serve.ndjson_encode_ns", WIRE_E2E, SERVE),
    mv("serve.ndjson_decode_ns", WIRE_E2E, SERVE),
    mv("serve.ndjson_bytes_per_req", WIRE_E2E, SERVE),
    mv("serve.reactor_us", &["submit_p50_us"], SERVE),
    noise("serve.reactor_us.noise"),
    mv("cluster.router_hop_us", &["submit_p50_us"], CLUSTER),
    noise("cluster.router_hop_us.noise"),
    mv("cluster.snapshot_us", &["throughput_rps"], CLUSTER),
    mv("cluster.snapshot_bytes", &["throughput_rps"], CLUSTER),
    mv("cluster.restore_us", &["throughput_rps"], CLUSTER),
    mv("cluster.migrate_us", &["throughput_rps"], CLUSTER),
    mv("ringload.lower_bound_s", &["certify_s"], SIM),
    mv("ringload.upper_bound_s", &["certify_s"], SIM),
    mv("ringload.cut_evals", &["certify_s"], SIM),
    mv("ringload.ub_over_lb", &["ratio_lb"], SIM),
    // The benchmark's own tracing cost: moves nothing a user sees.
    mv("trace.overhead_pct", &[], &[]),
];

/// A finished run: the one-line JSON result the runner prints last.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Whether every correctness check passed and no op failed.
    pub correct: bool,
    /// Operations attempted (wire calls or driver batches).
    pub attempted: u64,
    /// Operations that returned an error or an I/O failure.
    pub failed: u64,
    /// `(metric, value)` in the order of the metric list.
    pub values: Vec<(Metric, f64)>,
}

impl Outcome {
    /// Pairs `values` (looked up by name) with the metrics of `list`.
    ///
    /// # Panics
    /// Panics if a metric of `list` has no value, or a value names no
    /// metric of `list`: both are bugs in the runner.
    #[must_use]
    pub fn new(
        list: &[Metric],
        values: &[(&str, f64)],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> Self {
        for (name, _) in values {
            assert!(
                list.iter().any(|m| m.name == *name),
                "value for unlisted metric `{name}`"
            );
        }
        let values = list
            .iter()
            .map(|metric| {
                let value = values
                    .iter()
                    .find(|(name, _)| *name == metric.name)
                    .map(|&(_, v)| v)
                    .unwrap_or_else(|| panic!("no value for metric `{}`", metric.name));
                (*metric, value)
            })
            .collect();
        Self {
            correct,
            attempted,
            failed,
            values,
        }
    }

    /// Whether the run passed: every check held and every value is
    /// finite (a non-finite value cannot be written as JSON).
    #[must_use]
    pub fn passed(&self) -> bool {
        self.correct && self.values.iter().all(|(_, v)| v.is_finite())
    }

    /// The result line. A non-finite value is written as 0 and marks
    /// the run incorrect.
    #[must_use]
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .values
            .iter()
            .map(|(metric, v)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    metric.name, metric.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.passed(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}
