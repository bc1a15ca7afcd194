//! Criterion micro-benchmarks for the workload kernels and the substrate
//! hot paths: the reference algorithms, the Pregel engine, Datagen
//! throughput, and column compression.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use graphalytics_algos::{bfs, cd, conn, pagerank, stats};
use graphalytics_core::platform::RunContext;
use graphalytics_datagen::{generate, rmat, DatagenConfig, DegreeDistribution, RmatConfig};
use graphalytics_graph::CsrGraph;
use graphalytics_platforms::columnar::Column;
use std::sync::Arc;

fn bench_graph(scale: u32) -> Arc<CsrGraph> {
    Arc::new(CsrGraph::from_edge_list(&rmat::generate(
        &RmatConfig::graph500(scale, 42),
    )))
}

fn reference_kernels(c: &mut Criterion) {
    let g = bench_graph(11);
    let mut group = c.benchmark_group("reference");
    group.throughput(Throughput::Elements(g.num_edges() as u64));
    group.bench_function("bfs", |b| b.iter(|| bfs::bfs(&g, 0)));
    group.bench_function("conn_bfs", |b| b.iter(|| conn::connected_components(&g)));
    group.bench_function("conn_unionfind", |b| {
        b.iter(|| conn::connected_components_unionfind(&g))
    });
    group.bench_function("cd_10_rounds", |b| {
        b.iter(|| cd::community_detection(&g, 10, 0.05, 0.1))
    });
    group.bench_function("stats_mean_lcc", |b| b.iter(|| stats::stats(&g)));
    group.bench_function("pagerank_20_iters", |b| {
        b.iter(|| pagerank::pagerank(&g, 20, 0.85))
    });
    group.finish();
}

fn pregel_engine(c: &mut Criterion) {
    let g = bench_graph(11);
    let ctx = RunContext::unbounded();
    let mut group = c.benchmark_group("pregel");
    group.throughput(Throughput::Elements(g.num_edges() as u64));
    for workers in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("conn", workers),
            &workers,
            |b, &workers| {
                let config = graphalytics_platforms::pregel::PregelConfig {
                    workers,
                    ..Default::default()
                };
                b.iter(|| {
                    graphalytics_platforms::pregel::run(
                        &g,
                        &graphalytics_platforms::pregel::programs::ConnProgram,
                        &config,
                        &ctx,
                    )
                    .expect("run")
                })
            },
        );
    }
    group.finish();
}

fn datagen_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("datagen");
    group.sample_size(10);
    for persons in [5_000usize, 20_000] {
        group.throughput(Throughput::Elements(persons as u64));
        group.bench_with_input(
            BenchmarkId::new("facebook", persons),
            &persons,
            |b, &persons| {
                let cfg = DatagenConfig {
                    num_persons: persons,
                    seed: 7,
                    degree_distribution: DegreeDistribution::Facebook(16.0),
                    ..Default::default()
                };
                b.iter(|| generate(&cfg))
            },
        );
    }
    group.finish();
}

fn column_compression(c: &mut Criterion) {
    let sorted: Vec<u64> = (0..200_000u64).map(|i| i * 3).collect();
    let clustered: Vec<u64> = (0..200_000u64).map(|i| 1_000_000 + (i % 256)).collect();
    let mut group = c.benchmark_group("column");
    group.throughput(Throughput::Elements(sorted.len() as u64));
    group.bench_function("compress_sorted", |b| {
        b.iter(|| Column::from_values(&sorted))
    });
    group.bench_function("compress_clustered", |b| {
        b.iter(|| Column::from_values(&clustered))
    });
    let col = Column::from_values(&sorted);
    group.bench_function("decompress_blocks", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            let mut sum = 0u64;
            for blk in 0..col.num_blocks() {
                col.block(blk, &mut out);
                sum = sum.wrapping_add(out.iter().sum::<u64>());
            }
            sum
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    reference_kernels,
    pregel_engine,
    datagen_throughput,
    column_compression
);
criterion_main!(benches);
