//! Micro-benchmarks for the shared-memory parallel engine: the PKT-style
//! level-synchronous peel across a thread ladder vs the paper's serial
//! TD-inmem+, plus the parallel support-initialization pass on its own.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use truss_bench::datasets::{bench_graph, BenchScale};
use truss_core::decompose::truss_decompose_improved;
use truss_core::parallel::parallel_truss_decompose;
use truss_graph::generators::datasets::Dataset;
use truss_triangle::count::edge_supports;
use truss_triangle::{edge_supports_fwd_par, ForwardAdjacency};

fn bench_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_decompose");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    for dataset in [Dataset::Wiki, Dataset::Amazon] {
        let g = bench_graph(dataset, BenchScale::Tiny);
        let name = dataset.spec().name;
        group.bench_with_input(BenchmarkId::new("inmem+", name), &g, |b, g| {
            b.iter(|| black_box(truss_decompose_improved(g)));
        });
        for threads in [1usize, 2, 4, 8] {
            group.bench_with_input(
                BenchmarkId::new(format!("pkt-{threads}t"), name),
                &g,
                |b, g| {
                    b.iter(|| black_box(parallel_truss_decompose(g, threads)));
                },
            );
        }
        group.bench_with_input(BenchmarkId::new("supports-serial", name), &g, |b, g| {
            b.iter(|| black_box(edge_supports(g)));
        });
        group.bench_with_input(BenchmarkId::new("supports-4t", name), &g, |b, g| {
            b.iter(|| {
                let fwd = ForwardAdjacency::build_par(g, 4);
                black_box(edge_supports_fwd_par(&fwd, 4))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_parallel);
criterion_main!(benches);
