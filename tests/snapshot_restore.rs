//! The snapshot/restore contract, pinned as a property:
//!
//! > Snapshotting a session at a random step `t` and restoring yields
//! > the identical `RunReport`, ledger and work counters as the
//! > uninterrupted run, under both audit levels.
//!
//! Every snapshot goes through a full JSON **text** round trip before
//! restoring, so the property also pins the wire representation
//! (float formatting included — work-function values and Hedge weights
//! must survive `f64 → text → f64` exactly).

use proptest::prelude::*;
use rdbp::prelude::*;
use rdbp_serve::Session;
use serde::{DeError, Deserialize, Serialize, Value};

/// Algorithm × policy combinations with snapshot support (the `static`
/// partitioner deliberately has none — covered by a unit test in
/// `rdbp_serve::session`).
const ALGORITHMS: &[(&str, Option<&str>)] = &[
    ("dynamic", Some("hedge")),
    ("dynamic", Some("wfa")),
    ("dynamic", Some("smin")),
    ("greedy", None),
    ("component", None),
    ("never-move", None),
    ("dynamic", Some("marking")),
    ("learning", None),
];

const WORKLOADS: &[&str] = &[
    "uniform",
    "zipf",
    "sliding",
    "allreduce",
    "bursty",
    "random-walk",
    "hotspot",
    "chaser",
    "greedy-cut",
    "separation",
];

/// Wrapper pushing a raw snapshot `Value` through the JSON text layer.
struct SnapWrap(Value);

impl Serialize for SnapWrap {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

impl Deserialize for SnapWrap {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(SnapWrap(v.clone()))
    }
}

fn scenario_for(
    combo: usize,
    servers: u32,
    capacity: u32,
    seed: u64,
    audit_full: bool,
) -> Scenario {
    let (algorithm_key, policy) = ALGORITHMS[combo % ALGORITHMS.len()];
    let workload_key = WORKLOADS[(combo / ALGORITHMS.len()) % WORKLOADS.len()];
    let mut algorithm = AlgorithmSpec::named(algorithm_key);
    algorithm.policy = policy.map(String::from);
    let mut scenario = Scenario::new(
        InstanceSpec::packed(servers, capacity),
        algorithm,
        WorkloadSpec::named(workload_key),
        0,
    );
    scenario.seed = seed;
    scenario.audit = if audit_full {
        AuditSpec::Full
    } else {
        AuditSpec::None
    };
    scenario
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn restore_then_continue_is_bit_identical(
        combo in 0usize..(ALGORITHMS.len() * WORKLOADS.len()),
        servers in 2u32..=5,
        capacity in 3u32..=9,
        total in 60u64..=400,
        cut_frac in 0.0f64..1.0,
        seed in 0u64..1_000_000,
        audit_full in 0u32..2,
    ) {
        let registries = Registries::builtin();
        let spec = scenario_for(combo, servers, capacity, seed, audit_full == 1);
        let t = (cut_frac * total as f64) as u64; // 0 ≤ t < total

        // The uninterrupted reference run.
        let mut uninterrupted = Session::new(spec.clone(), &registries).unwrap();
        uninterrupted.submit(total);
        let want_counters = uninterrupted.work_counters();
        let want = uninterrupted.finish();

        // Interrupted: run t steps, snapshot through JSON text, restore,
        // run the remaining total − t steps.
        let mut original = Session::new(spec, &registries).unwrap();
        original.submit(t);
        let snap = original.snapshot().unwrap();
        let text = serde_json::to_string(&SnapWrap(snap)).unwrap();
        let SnapWrap(parsed) = serde_json::from_str(&text).unwrap();
        let mut restored = Session::restore(&parsed, &registries).unwrap();
        prop_assert_eq!(restored.report(), original.report());
        restored.submit(total - t);
        prop_assert_eq!(
            restored.work_counters(),
            want_counters,
            "counters diverged after restore"
        );
        let got = restored.finish();

        prop_assert_eq!(&got.ledger, &want.ledger, "ledger diverged after restore");
        prop_assert_eq!(&got, &want, "report diverged after restore");

        // Snapshotting must not disturb the original session either.
        original.submit(total - t);
        prop_assert_eq!(&original.finish(), &want, "snapshot disturbed the session");
    }
}

/// A snapshot is restorable more than once, and each restore continues
/// identically (snapshots are values, not consumable tokens).
#[test]
fn snapshots_are_reusable_values() {
    let registries = Registries::builtin();
    let spec = scenario_for(1, 4, 8, 99, true);
    let mut session = Session::new(spec, &registries).unwrap();
    session.submit(150);
    let snap = session.snapshot().unwrap();
    session.submit(150);
    let want = session.finish();

    for _ in 0..3 {
        let mut restored = Session::restore(&snap, &registries).unwrap();
        restored.submit(150);
        assert_eq!(restored.finish(), want);
    }
}

/// Entry `lane` of the `log_w` column of interval `interval`'s Hedge
/// policy inside a `dynamic`×`hedge` session snapshot.
fn hedge_weight(snapshot: &mut Value, interval: usize, lane: usize) -> &mut Value {
    fn field<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
        let Value::Obj(pairs) = v else {
            panic!("expected an object holding `{key}`")
        };
        &mut pairs.iter_mut().find(|(k, _)| k == key).expect(key).1
    }
    fn item(v: &mut Value, i: usize) -> &mut Value {
        let Value::Arr(items) = v else {
            panic!("expected an array")
        };
        &mut items[i]
    }
    let policies = field(field(snapshot, "algorithm"), "policies");
    item(field(item(policies, interval), "log_w"), lane)
}

/// A snapshot carrying a Hedge weight no run can produce — here NaN,
/// which the binary snapshot encoding carries bit for bit — fails
/// `Session::restore` with an error instead of restoring a policy whose
/// leaf distribution later panics. The untouched snapshot restores.
#[test]
fn restore_rejects_a_non_finite_hedge_weight() {
    let registries = Registries::builtin();
    let spec = scenario_for(0, 4, 8, 7, true);
    let mut session = Session::new(spec, &registries).unwrap();
    session.submit(200);
    let snap = session.snapshot().unwrap();
    let mut bad = snap.clone();
    *hedge_weight(&mut bad, 1, 1) = Value::Float(f64::NAN);
    let decoded = rdbp_serve::SnapshotBlob::encode(&bad).unwrap().decode();
    let Err(err) = Session::restore(&decoded, &registries) else {
        panic!("a NaN Hedge weight must not restore")
    };
    assert!(err.0.contains("log_w[1]"), "{}", err.0);
    let mut restored = Session::restore(&snap, &registries).unwrap();
    restored.submit(100);
    session.submit(100);
    assert_eq!(restored.finish(), session.finish());
}
