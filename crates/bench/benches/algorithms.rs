//! Criterion: per-request latency of the online algorithms, and the
//! cost of building the dynamic partitioner.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use rdbp_baselines::{GreedySwap, NeverMove};
use rdbp_core::{DynamicConfig, DynamicPartitioner, StaticConfig, StaticPartitioner};
use rdbp_model::workload::{record, UniformRandom};
use rdbp_model::{Edge, OnlineAlgorithm, Placement, RingInstance};
use rdbp_mts::PolicyKind;

fn drive<A: OnlineAlgorithm>(b: &mut criterion::Bencher<'_>, mut alg: A, trace: &[Edge]) {
    let mut i = 0;
    b.iter(|| {
        let e = trace[i % trace.len()];
        i += 1;
        black_box(alg.serve(e))
    });
}

fn bench_serve(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve");
    for &(ell, k) in &[(8u32, 32u32), (8, 128), (16, 256)] {
        let inst = RingInstance::packed(ell, k);
        let mut w = UniformRandom::new(7);
        let trace = record(&mut w, &Placement::contiguous(&inst), 4096);
        let tag = format!("n{}", inst.n());

        group.bench_with_input(BenchmarkId::new("dynamic-hedge", &tag), &trace, |b, t| {
            let alg = DynamicPartitioner::new(
                &inst,
                DynamicConfig {
                    epsilon: 0.5,
                    policy: PolicyKind::HstHedge,
                    seed: 1,
                    shift: None,
                },
            );
            drive(b, alg, t);
        });
        group.bench_with_input(BenchmarkId::new("dynamic-wfa", &tag), &trace, |b, t| {
            let alg = DynamicPartitioner::new(
                &inst,
                DynamicConfig {
                    epsilon: 0.5,
                    policy: PolicyKind::WorkFunction,
                    seed: 1,
                    shift: None,
                },
            );
            drive(b, alg, t);
        });
        group.bench_with_input(BenchmarkId::new("static", &tag), &trace, |b, t| {
            let alg = StaticPartitioner::with_contiguous(
                &inst,
                StaticConfig {
                    epsilon: 1.0,
                    seed: 1,
                },
            );
            drive(b, alg, t);
        });
        group.bench_with_input(BenchmarkId::new("greedy-swap", &tag), &trace, |b, t| {
            drive(b, GreedySwap::new(&inst), t);
        });
        group.bench_with_input(BenchmarkId::new("never-move", &tag), &trace, |b, t| {
            drive(b, NeverMove::new(&inst), t);
        });
    }
    group.finish();
}

/// `DynamicPartitioner::new` at the three benchmark workloads' shapes:
/// part of every session create and restore. Each iteration includes
/// dropping what it built.
fn bench_construct(c: &mut Criterion) {
    let mut group = c.benchmark_group("construct");
    group.sample_size(200);
    for &(ell, k) in &[(8u32, 32u32), (16, 64), (64, 256)] {
        let inst = RingInstance::packed(ell, k);
        group.bench_with_input(
            BenchmarkId::new("dynamic-hedge", format!("n{}", inst.n())),
            &inst,
            |b, inst| {
                b.iter(|| {
                    DynamicPartitioner::new(
                        inst,
                        DynamicConfig {
                            epsilon: 0.5,
                            policy: PolicyKind::HstHedge,
                            seed: 1,
                            shift: None,
                        },
                    )
                });
            },
        );
    }
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_serve, bench_construct
}
criterion_main!(benches);
