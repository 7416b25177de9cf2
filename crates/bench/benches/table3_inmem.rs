//! Criterion micro-version of Table 3: TD-inmem (Algorithm 1) vs TD-inmem+
//! (Algorithm 2) on the in-memory datasets. The expected shape: TD-inmem+
//! wins everywhere, with the biggest margins on the skewed graphs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use truss_bench::datasets::{bench_graph, BenchScale};
use truss_core::decompose::naive::truss_decompose_naive_with_memory;
use truss_core::decompose::truss_decompose_improved;
use truss_graph::generators::datasets::Dataset;

fn bench_table3(c: &mut Criterion) {
    let mut group = c.benchmark_group("table3_inmem");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    for dataset in [
        Dataset::Wiki,
        Dataset::Amazon,
        Dataset::Skitter,
        Dataset::Blog,
    ] {
        let g = bench_graph(dataset, BenchScale::Tiny);
        let name = dataset.spec().name;
        group.bench_with_input(BenchmarkId::new("TD-inmem", name), &g, |b, g| {
            b.iter(|| black_box(truss_decompose_naive_with_memory(g)));
        });
        group.bench_with_input(BenchmarkId::new("TD-inmem+", name), &g, |b, g| {
            b.iter(|| black_box(truss_decompose_improved(g)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_table3);
criterion_main!(benches);
