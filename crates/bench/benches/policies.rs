//! Criterion: MTS policy step latency as a function of the state count,
//! through the cost-vector `serve` and the point `serve_hit` paths, and
//! the cost of building a partitioner's interval policies.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use rdbp_mts::PolicyKind;

fn bench_policies(c: &mut Criterion) {
    let mut group = c.benchmark_group("mts-serve");
    for &states in &[16usize, 64, 256, 1024] {
        for kind in [
            PolicyKind::WorkFunction,
            PolicyKind::SminGradient,
            PolicyKind::HstHedge,
        ] {
            group.bench_with_input(
                BenchmarkId::new(kind.label(), states),
                &states,
                |b, &states| {
                    let mut policy = kind.build(states, states / 2, 42);
                    let mut task = vec![0.0; states];
                    let mut t = 0usize;
                    b.iter(|| {
                        let hot = (t * 7) % states;
                        t += 1;
                        task[hot] = 1.0;
                        let s = policy.serve(&task);
                        task[hot] = 0.0;
                        black_box(s)
                    });
                },
            );
        }
    }
    // The point fast path every partitioner calls: one unit task per
    // request, at the three benchmark workloads' interval sizes k′.
    for &states in &[48usize, 96, 384] {
        for kind in [
            PolicyKind::WorkFunction,
            PolicyKind::SminGradient,
            PolicyKind::HstHedge,
        ] {
            group.bench_with_input(
                BenchmarkId::new(format!("{}/serve_hit", kind.label()), states),
                &states,
                |b, &states| {
                    let mut policy = kind.build(states, states / 2, 42);
                    let mut t = 0usize;
                    b.iter(|| {
                        let hot = (t * 7) % states;
                        t += 1;
                        black_box(policy.serve_hit(hot))
                    });
                },
            );
        }
    }
    group.finish();
}

/// Building a partitioner's ℓ′ interval policies at once, at the three
/// benchmark workloads' (ℓ′, k′): part of every session create and
/// restore. Each iteration includes dropping what it built.
fn bench_construct(c: &mut Criterion) {
    let mut group = c.benchmark_group("construct");
    group.sample_size(200);
    for &(count, states) in &[(6usize, 48usize), (11, 96), (43, 384)] {
        group.bench_with_input(
            BenchmarkId::new("hst-hedge/build_many", format!("{count}x{states}")),
            &(count, states),
            |b, &(count, states)| {
                b.iter(|| {
                    PolicyKind::HstHedge.build_many(count, states, states / 2, |i| i as u64 + 1)
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
    targets = bench_policies, bench_construct
}
criterion_main!(benches);
