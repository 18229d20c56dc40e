//! Quickstart: describe runs as declarative scenarios, execute both
//! paper algorithms and a baseline on the same workload through the
//! scenario engine, and stream a cost curve out of the dynamic run.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use rdbp::model::observers::CostCurve;
use rdbp::prelude::*;

fn main() {
    // A datacenter rack group: 8 servers, 32 VM slots each, skewed
    // (Zipf) communication demand.
    let instance = InstanceSpec::packed(8, 32);
    let steps = 50_000;
    let base = |algorithm: &str| {
        let mut s = Scenario::new(
            instance,
            AlgorithmSpec::named(algorithm),
            WorkloadSpec::named("zipf"),
            steps,
        );
        s.seed = 7;
        s
    };
    let inst = instance.build().expect("feasible instance");
    println!(
        "instance: n={} processes, ℓ={} servers, k={} slots\n",
        inst.n(),
        inst.servers(),
        inst.capacity()
    );

    // Theorem 2.1's algorithm (vs dynamic optima, augmentation 2+ε),
    // with a streaming cost curve sampled every 10k requests.
    let mut curve = CostCurve::new(10_000);
    let dyn_report = base("dynamic")
        .run_with(&Registries::builtin(), &mut curve)
        .expect("built-in scenario");

    // Theorem 2.2's algorithm (vs static optima, augmentation 3+ε).
    let stat_report = base("static").run().expect("built-in scenario");

    // The lazy baseline: never migrate (audit off — it holds capacity
    // k trivially).
    let mut lazy = base("never-move");
    lazy.audit = AuditSpec::None;
    let lazy_report = lazy.run().expect("built-in scenario");

    println!("over {steps} requests (Zipf 1.2 demand):");
    println!(
        "  dynamic (Thm 2.1): {}  | max load {}",
        dyn_report.ledger, dyn_report.max_load_seen
    );
    println!(
        "  static  (Thm 2.2): {}  | max load {}",
        stat_report.ledger, stat_report.max_load_seen
    );
    println!("  never-move       : {}", lazy_report.ledger);

    println!("\ndynamic cost curve (streamed by the CostCurve observer):");
    for point in curve.samples() {
        println!("  after {:>6} requests: {}", point.steps, point.ledger);
    }

    println!(
        "\nself-adjustment saves {:.1}% of the lazy cost (dynamic) and {:.1}% (static)",
        100.0 * (1.0 - dyn_report.ledger.total() as f64 / lazy_report.ledger.total() as f64),
        100.0 * (1.0 - stat_report.ledger.total() as f64 / lazy_report.ledger.total() as f64),
    );
    // Scenarios audit against each algorithm's own guaranteed bound.
    assert_eq!(dyn_report.capacity_violations, 0);
    assert_eq!(stat_report.capacity_violations, 0);
}
