//! Recorded request traces: a portable, human-inspectable JSON format.
//!
//! Traces pin down an instance, the workload that generated them and the
//! exact request sequence, so experiments can be replayed bit-for-bit
//! across machines and the offline optima can be computed on the same
//! input the online algorithm saw.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::{Edge, RingInstance};

/// A recorded request sequence together with its provenance.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    /// The instance the trace was generated for.
    pub instance: RingInstance,
    /// Name of the generating workload.
    pub workload: String,
    /// RNG seed used by the workload (0 for deterministic workloads).
    pub seed: u64,
    /// The requested edges, in order.
    pub requests: Vec<Edge>,
}

impl Trace {
    /// Creates a trace after validating every request against the
    /// instance.
    ///
    /// # Panics
    /// Panics if any request is not a valid edge of the instance.
    #[must_use]
    pub fn new(
        instance: RingInstance,
        workload: impl Into<String>,
        seed: u64,
        requests: Vec<Edge>,
    ) -> Self {
        let trace = Self {
            instance,
            workload: workload.into(),
            seed,
            requests,
        };
        trace.check_requests().unwrap_or_else(|bad| panic!("{bad}"));
        trace
    }

    /// The first request that is not an edge of the instance, if any.
    fn check_requests(&self) -> Result<(), String> {
        let n = self.instance.n();
        match self.requests.iter().enumerate().find(|(_, e)| e.0 >= n) {
            Some((i, e)) => Err(format!(
                "request {i} (edge {}) out of range for n = {n}",
                e.0
            )),
            None => Ok(()),
        }
    }

    /// Number of requests.
    #[must_use]
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Per-edge request counts (the weight vector `w_e` the offline
    /// static optimum is computed from).
    #[must_use]
    pub fn edge_weights(&self) -> Vec<u64> {
        let mut w = vec![0u64; self.instance.n() as usize];
        for e in &self.requests {
            w[e.0 as usize] += 1;
        }
        w
    }

    /// Serializes to pretty JSON.
    ///
    /// # Errors
    /// Returns any underlying I/O or serialization error.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let file = File::create(path)?;
        let mut writer = BufWriter::new(file);
        serde_json::to_writer(&mut writer, self)?;
        writer.flush()
    }

    /// Deserializes from JSON, holding the result to the rules
    /// [`RingInstance::new`] and [`Trace::new`] enforce.
    ///
    /// # Errors
    /// Returns any underlying I/O or parse error, and an
    /// [`std::io::ErrorKind::InvalidData`] error naming the first bad
    /// instance field or request.
    pub fn load(path: &Path) -> std::io::Result<Self> {
        let file = File::open(path)?;
        let trace: Self = serde_json::from_reader(BufReader::new(file))?;
        let inst = trace.instance;
        RingInstance::try_new(inst.n(), inst.servers(), inst.capacity())
            .map_err(|rule| format!("instance: {rule}"))
            .and_then(|_| trace.check_requests())
            .map_err(|bad| std::io::Error::new(std::io::ErrorKind::InvalidData, bad))?;
        Ok(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{record, UniformRandom};
    use crate::Placement;

    #[test]
    fn edge_weights_count_requests() {
        let inst = RingInstance::new(4, 2, 2);
        let t = Trace::new(inst, "manual", 0, vec![Edge(0), Edge(1), Edge(1), Edge(3)]);
        assert_eq!(t.edge_weights(), vec![1, 2, 0, 1]);
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
    }

    #[test]
    fn json_round_trip() {
        let inst = RingInstance::new(16, 4, 4);
        let placement = Placement::contiguous(&inst);
        let mut w = UniformRandom::new(99);
        let requests = record(&mut w, &placement, 64);
        let t = Trace::new(inst, "uniform", 99, requests);

        let dir = std::env::temp_dir().join("rdbp-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        t.save(&path).unwrap();
        let back = Trace::load(&path).unwrap();
        assert_eq!(t, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_what_new_refuses() {
        let path = std::env::temp_dir().join(format!("rdbp-bad-trace-{}.json", std::process::id()));
        for (instance, requests, want) in [
            (
                r#"{"n":8,"servers":2,"capacity":4}"#,
                "[1,1000,2000]",
                "request 1 (edge 1000) out of range for n = 8",
            ),
            (
                r#"{"n":9,"servers":2,"capacity":4}"#,
                "[1]",
                "instance: capacity infeasible: n = 9 > ℓ·k = 8",
            ),
            (
                r#"{"n":8,"servers":0,"capacity":4}"#,
                "[1]",
                "instance: need at least one server, got servers = 0",
            ),
        ] {
            let json = format!(
                r#"{{"instance":{instance},"workload":"manual","seed":0,"requests":{requests}}}"#
            );
            std::fs::write(&path, json).unwrap();
            let err = Trace::load(&path).expect_err("an invalid trace must not load");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert_eq!(err.to_string(), want);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_invalid_requests() {
        let inst = RingInstance::new(4, 2, 2);
        let _ = Trace::new(inst, "bad", 0, vec![Edge(9)]);
    }
}
