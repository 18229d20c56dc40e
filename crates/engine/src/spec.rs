//! Declarative, serializable scenario specifications.
//!
//! A [`Scenario`] is a first-class description of *instance × algorithm
//! × workload × run*: everything needed to reproduce a simulation,
//! portable as JSON. Specs are resolved into live objects by the
//! [`crate::registry`] layer, so the CLI, examples, benches and tests
//! all share one construction path.
//!
//! Serialization is hand-written against the vendored `serde` value
//! tree (the offline derive stand-in supports neither enums nor
//! missing-field defaults): optional fields are omitted when unset and
//! tolerated when absent, so hand-authored scenario files stay minimal.

use std::path::Path;

use serde::{DeError, Deserialize, Serialize, Value};

/// An error resolving or validating a scenario specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl core::fmt::Display for SpecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "scenario error: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

impl From<DeError> for SpecError {
    fn from(e: DeError) -> Self {
        SpecError(e.0)
    }
}

/// The ring instance to simulate on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstanceSpec {
    /// Number of processes; `None` means fully packed (`n = ℓ·k`, the
    /// paper's canonical setting).
    pub n: Option<u32>,
    /// Number of servers `ℓ`.
    pub servers: u32,
    /// Per-server capacity `k`.
    pub capacity: u32,
}

impl InstanceSpec {
    /// The fully packed instance `n = ℓ·k`.
    #[must_use]
    pub fn packed(servers: u32, capacity: u32) -> Self {
        Self {
            n: None,
            servers,
            capacity,
        }
    }

    /// Materializes the [`rdbp_model::RingInstance`].
    ///
    /// # Errors
    /// Returns a [`SpecError`] if the parameters are infeasible
    /// (`n < 3`, zero servers/capacity, or `n > ℓ·k`).
    pub fn build(&self) -> Result<rdbp_model::RingInstance, SpecError> {
        let n = match self.n {
            Some(n) => n,
            None => self
                .servers
                .checked_mul(self.capacity)
                .ok_or_else(|| SpecError("instance: ℓ·k overflows u32".into()))?,
        };
        rdbp_model::RingInstance::try_new(n, self.servers, self.capacity)
            .map_err(|rule| SpecError(format!("instance: {rule}")))
    }
}

/// Which online algorithm to run, by registry key, with its knobs.
///
/// Parameters irrelevant to the named algorithm are ignored by its
/// builder (e.g. `policy` only matters for `dynamic`), so one spec type
/// covers every registered algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct AlgorithmSpec {
    /// Registry key (`dynamic`, `static`, `greedy`, `component`,
    /// `never-move`, or any user-registered name).
    pub name: String,
    /// Augmentation slack ε (defaults: 0.5 for `dynamic`, 1.0 for
    /// `static`).
    pub epsilon: Option<f64>,
    /// MTS policy for `dynamic`: `wfa` | `smin` | `hedge` | `marking`
    /// (default `hedge`).
    pub policy: Option<String>,
    /// Fixed interval shift for `dynamic` (`None` = random, as the
    /// analysis requires).
    pub shift: Option<u32>,
}

impl AlgorithmSpec {
    /// A spec with the given registry key and default parameters.
    #[must_use]
    pub fn named(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            epsilon: None,
            policy: None,
            shift: None,
        }
    }
}

/// Which offline oracle to compare a run against, by registry key
/// (resolved by [`OracleRegistry`](crate::registry::OracleRegistry)).
#[derive(Debug, Clone, PartialEq)]
pub struct OracleSpec {
    /// Registry key (`exact`, `ringload`, or any user-registered name).
    pub name: String,
}

impl OracleSpec {
    /// A spec with the given registry key.
    #[must_use]
    pub fn named(name: impl Into<String>) -> Self {
        Self { name: name.into() }
    }
}

/// Which request source to run, by registry key, with its knobs.
///
/// As with [`AlgorithmSpec`], parameters not used by the named workload
/// are ignored by its builder.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Registry key (`uniform`, `zipf`, `sliding`, `allreduce`,
    /// `bursty`, `random-walk`, `hotspot`, `chaser`, or any
    /// user-registered name).
    pub name: String,
    /// Zipf exponent (default 1.2).
    pub zipf_s: Option<f64>,
    /// Window width for `sliding` (default: the instance capacity `k`).
    pub width: Option<u32>,
    /// Slide period for `sliding` (default 8).
    pub period: Option<u64>,
    /// Hot probability for `hotspot` (default 0.8).
    pub p_hot: Option<f64>,
    /// Hotspot jump distance (default 7).
    pub jump: Option<u32>,
    /// Hotspot dwell time (default 200).
    pub dwell: Option<u64>,
    /// Burst continuation probability for `bursty` (default 0.9).
    pub p_continue: Option<f64>,
    /// Start edge for `random-walk` (default 0).
    pub start: Option<u32>,
}

impl WorkloadSpec {
    /// A spec with the given registry key and default parameters.
    #[must_use]
    pub fn named(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            zipf_s: None,
            width: None,
            period: None,
            p_hot: None,
            jump: None,
            dwell: None,
            p_continue: None,
            start: None,
        }
    }
}

/// How strictly the engine audits the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AuditSpec {
    /// No per-step checks (throughput mode).
    None,
    /// Full auditing against the algorithm's own guaranteed load bound
    /// (resolved by the registry at build time).
    #[default]
    Full,
    /// Full auditing against an explicit load limit.
    FullWithLimit(u32),
}

/// A complete, serializable description of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The ring instance.
    pub instance: InstanceSpec,
    /// The online algorithm under test.
    pub algorithm: AlgorithmSpec,
    /// The request source.
    pub workload: WorkloadSpec,
    /// Number of requests to serve.
    pub steps: u64,
    /// Seed for all randomness (algorithm and workload alike).
    pub seed: u64,
    /// Audit strictness.
    pub audit: AuditSpec,
}

impl Scenario {
    /// A scenario with seed 0 and full (registry-resolved) auditing.
    #[must_use]
    pub fn new(
        instance: InstanceSpec,
        algorithm: AlgorithmSpec,
        workload: WorkloadSpec,
        steps: u64,
    ) -> Self {
        Self {
            instance,
            algorithm,
            workload,
            steps,
            seed: 0,
            audit: AuditSpec::Full,
        }
    }

    /// Serializes to JSON text.
    ///
    /// # Panics
    /// Never in practice: scenario specs always serialize.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("scenario serialization cannot fail")
    }

    /// Parses a scenario from JSON text.
    ///
    /// # Errors
    /// Returns a [`SpecError`] on malformed JSON or a shape mismatch.
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        serde_json::from_str(text).map_err(|e| SpecError(e.to_string()))
    }

    /// Writes the scenario as JSON to `path`.
    ///
    /// # Errors
    /// Returns any underlying I/O error.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Loads a scenario from a JSON file.
    ///
    /// # Errors
    /// Returns any underlying I/O or parse error.
    pub fn load(path: &Path) -> std::io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        Self::from_json(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }
}

// ---------------------------------------------------------------------
// Hand-written serde impls (see module docs for why).

/// Pushes `(key, value)` if the optional field is set.
fn push_opt<T: Serialize>(pairs: &mut Vec<(String, Value)>, key: &str, field: &Option<T>) {
    if let Some(v) = field {
        pairs.push((key.to_string(), v.to_value()));
    }
}

/// Reads an optional field: missing and `null` both mean `None`.
fn opt_field<T: Deserialize>(v: &Value, key: &str) -> Result<Option<T>, DeError> {
    match v {
        Value::Obj(pairs) => match pairs.iter().find(|(k, _)| k == key) {
            None | Some((_, Value::Null)) => Ok(None),
            Some((_, val)) => Ok(Some(T::from_value(val)?)),
        },
        other => Err(DeError(format!("expected object, got {other:?}"))),
    }
}

/// Reads a required field.
fn req_field<T: Deserialize>(v: &Value, key: &str) -> Result<T, DeError> {
    T::from_value(v.get_field(key)?)
}

impl Serialize for InstanceSpec {
    fn to_value(&self) -> Value {
        let mut pairs = Vec::new();
        push_opt(&mut pairs, "n", &self.n);
        pairs.push(("servers".into(), self.servers.to_value()));
        pairs.push(("capacity".into(), self.capacity.to_value()));
        Value::Obj(pairs)
    }
}

impl Deserialize for InstanceSpec {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(Self {
            n: opt_field(v, "n")?,
            servers: req_field(v, "servers")?,
            capacity: req_field(v, "capacity")?,
        })
    }
}

impl Serialize for AlgorithmSpec {
    fn to_value(&self) -> Value {
        let mut pairs = vec![("name".to_string(), self.name.to_value())];
        push_opt(&mut pairs, "epsilon", &self.epsilon);
        push_opt(&mut pairs, "policy", &self.policy);
        push_opt(&mut pairs, "shift", &self.shift);
        Value::Obj(pairs)
    }
}

impl Deserialize for AlgorithmSpec {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(Self {
            name: req_field(v, "name")?,
            epsilon: opt_field(v, "epsilon")?,
            policy: opt_field(v, "policy")?,
            shift: opt_field(v, "shift")?,
        })
    }
}

impl Serialize for WorkloadSpec {
    fn to_value(&self) -> Value {
        let mut pairs = vec![("name".to_string(), self.name.to_value())];
        push_opt(&mut pairs, "zipf_s", &self.zipf_s);
        push_opt(&mut pairs, "width", &self.width);
        push_opt(&mut pairs, "period", &self.period);
        push_opt(&mut pairs, "p_hot", &self.p_hot);
        push_opt(&mut pairs, "jump", &self.jump);
        push_opt(&mut pairs, "dwell", &self.dwell);
        push_opt(&mut pairs, "p_continue", &self.p_continue);
        push_opt(&mut pairs, "start", &self.start);
        Value::Obj(pairs)
    }
}

impl Deserialize for WorkloadSpec {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(Self {
            name: req_field(v, "name")?,
            zipf_s: opt_field(v, "zipf_s")?,
            width: opt_field(v, "width")?,
            period: opt_field(v, "period")?,
            p_hot: opt_field(v, "p_hot")?,
            jump: opt_field(v, "jump")?,
            dwell: opt_field(v, "dwell")?,
            p_continue: opt_field(v, "p_continue")?,
            start: opt_field(v, "start")?,
        })
    }
}

impl Serialize for AuditSpec {
    fn to_value(&self) -> Value {
        match self {
            AuditSpec::None => Value::Str("none".into()),
            AuditSpec::Full => Value::Str("full".into()),
            AuditSpec::FullWithLimit(limit) => {
                Value::Obj(vec![("full".to_string(), Value::UInt(u64::from(*limit)))])
            }
        }
    }
}

impl Deserialize for AuditSpec {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) if s == "none" => Ok(AuditSpec::None),
            Value::Str(s) if s == "full" => Ok(AuditSpec::Full),
            Value::Obj(_) => Ok(AuditSpec::FullWithLimit(req_field(v, "full")?)),
            other => Err(DeError(format!(
                "expected \"none\", \"full\" or {{\"full\": LIMIT}} for audit, got {other:?}"
            ))),
        }
    }
}

impl Serialize for Scenario {
    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("instance".into(), self.instance.to_value()),
            ("algorithm".into(), self.algorithm.to_value()),
            ("workload".into(), self.workload.to_value()),
            ("steps".into(), self.steps.to_value()),
            ("seed".into(), self.seed.to_value()),
            ("audit".into(), self.audit.to_value()),
        ])
    }
}

impl Deserialize for Scenario {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(Self {
            instance: req_field(v, "instance")?,
            algorithm: req_field(v, "algorithm")?,
            workload: req_field(v, "workload")?,
            steps: req_field(v, "steps")?,
            seed: opt_field(v, "seed")?.unwrap_or(0),
            audit: opt_field(v, "audit")?.unwrap_or_default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Scenario {
        Scenario {
            instance: InstanceSpec {
                n: Some(24),
                servers: 4,
                capacity: 8,
            },
            algorithm: AlgorithmSpec {
                name: "dynamic".into(),
                epsilon: Some(0.25),
                policy: Some("wfa".into()),
                shift: Some(3),
            },
            workload: WorkloadSpec {
                zipf_s: Some(1.5),
                ..WorkloadSpec::named("zipf")
            },
            steps: 1000,
            seed: 42,
            audit: AuditSpec::FullWithLimit(20),
        }
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let s = sample();
        let back = Scenario::from_json(&s.to_json()).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn minimal_json_fills_defaults() {
        let text = r#"{
            "instance": {"servers": 4, "capacity": 8},
            "algorithm": {"name": "static"},
            "workload": {"name": "uniform"},
            "steps": 100
        }"#;
        let s = Scenario::from_json(text).unwrap();
        assert_eq!(s.instance.n, None);
        assert_eq!(s.seed, 0);
        assert_eq!(s.audit, AuditSpec::Full);
        assert_eq!(s.algorithm.epsilon, None);
        let inst = s.instance.build().unwrap();
        assert_eq!(inst.n(), 32, "packed by default");
    }

    #[test]
    fn audit_spec_variants_round_trip() {
        for audit in [
            AuditSpec::None,
            AuditSpec::Full,
            AuditSpec::FullWithLimit(9),
        ] {
            let mut s = sample();
            s.audit = audit;
            assert_eq!(Scenario::from_json(&s.to_json()).unwrap().audit, audit);
        }
    }

    #[test]
    fn infeasible_instances_are_rejected() {
        assert!(InstanceSpec::packed(1, 2).build().is_err(), "n < 3");
        assert!(
            InstanceSpec {
                n: Some(10),
                servers: 2,
                capacity: 4
            }
            .build()
            .is_err(),
            "n > ℓ·k"
        );
        assert!(InstanceSpec::packed(4, 8).build().is_ok());
    }
}
