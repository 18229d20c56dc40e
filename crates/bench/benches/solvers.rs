//! Criterion: offline solver costs (static OPT DP, line-MTS DP, tiny
//! dynamic OPT, the ringload oracle's lower and upper bounds).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use rdbp_model::workload::{record, SlidingWindow, UniformRandom, Workload, Zipf};
use rdbp_model::{Placement, RingInstance};
use rdbp_mts::offline;
use rdbp_offline::{dynamic_opt, static_opt, OfflineOracle};
use rdbp_ringload::RingloadOracle;

fn bench_static_opt(c: &mut Criterion) {
    let mut group = c.benchmark_group("static-opt-dp");
    for &(ell, k) in &[(8u32, 32u32), (8, 128), (16, 512)] {
        let inst = RingInstance::packed(ell, k);
        let mut w = UniformRandom::new(3);
        let trace = record(&mut w, &Placement::contiguous(&inst), 20_000);
        let mut weights = vec![0u64; inst.n() as usize];
        for e in &trace {
            weights[e.0 as usize] += 1;
        }
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("n{}", inst.n())),
            &weights,
            |b, weights| {
                b.iter(|| black_box(static_opt(weights, ell, k).weight));
            },
        );
    }
    group.finish();
}

fn bench_line_mts_opt(c: &mut Criterion) {
    let mut group = c.benchmark_group("line-mts-dp");
    for &states in &[64usize, 256, 1024] {
        let tasks: Vec<Vec<f64>> = (0..512)
            .map(|t| {
                let mut v = vec![0.0; states];
                v[(t * 13) % states] = 1.0;
                v
            })
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(states), &tasks, |b, tasks| {
            b.iter(|| black_box(offline::optimum(states, states / 2, tasks)));
        });
    }
    group.finish();
}

fn bench_dynamic_opt(c: &mut Criterion) {
    let mut group = c.benchmark_group("dynamic-opt-bruteforce");
    group.sample_size(10);
    for &(ell, k) in &[(2u32, 3u32), (2, 4), (3, 3)] {
        let inst = RingInstance::packed(ell, k);
        let initial = Placement::contiguous(&inst);
        let mut w = UniformRandom::new(5);
        let trace = record(&mut w, &initial, 100);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("n{}l{}", inst.n(), ell)),
            &trace,
            |b, trace| {
                b.iter(|| black_box(dynamic_opt(&inst, &initial, trace)));
            },
        );
    }
    group.finish();
}

/// The ringload oracle's two bounds on the benchmark's shapes:
/// `sim-ratio`'s 64 offsets over a sliding trace, and `serve-replay`'s
/// zipf ring.
fn bench_ringload(c: &mut Criterion) {
    let wide = RingInstance::packed(64, 256);
    let small = RingInstance::packed(8, 32);
    let shapes: [(RingInstance, Box<dyn Workload>); 2] = [
        (wide, Box::new(SlidingWindow::new(wide.capacity(), 8, 1))),
        (small, Box::new(Zipf::new(&small, 1.2, 1))),
    ];
    let inputs: Vec<_> = shapes
        .into_iter()
        .map(|(inst, mut workload)| {
            let initial = Placement::contiguous(&inst);
            let trace = record(workload.as_mut(), &initial, 200_000);
            (inst, initial, trace)
        })
        .collect();
    let mut group = c.benchmark_group("ringload-lower-bound");
    group.sample_size(10);
    for (inst, initial, trace) in &inputs {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("n{}", inst.n())),
            trace,
            |b, trace| {
                b.iter(|| black_box(RingloadOracle::new().lower_bound(inst, initial, trace)));
            },
        );
    }
    group.finish();
    let mut group = c.benchmark_group("ringload-upper-bound");
    group.sample_size(10);
    for (inst, initial, trace) in &inputs {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("n{}", inst.n())),
            trace,
            |b, trace| {
                b.iter(|| black_box(RingloadOracle::new().upper_bound(inst, initial, trace)));
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
    targets = bench_static_opt, bench_line_mts_opt, bench_dynamic_opt, bench_ringload
}
criterion_main!(benches);
