//! Choke-point ablations (paper §2.1): one benchmark per choke point,
//! demonstrating the system-level effect the paper's workload design is
//! meant to stress.
//!
//! * **Excessive network utilization** — remote-message volume of the BSP
//!   engine under hash vs LDG partitioning on a community-structured
//!   graph: better partitioning cuts the "network" traffic.
//! * **Large graph memory footprint** — CSR vs record-store vs dataset
//!   bytes per edge (compact representations keep graphs in RAM longer).
//! * **Poor access locality** — sequential CSR sweeps vs random vertex
//!   probes over the same adjacency.
//! * **Skewed execution intensity** — per-superstep work skew on a skewed
//!   R-MAT graph vs a degree-regular grid at equal edge count.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphalytics_core::platform::RunContext;
use graphalytics_datagen::{generate, rmat, DatagenConfig, DegreeDistribution, RmatConfig};
use graphalytics_graph::partition::{edge_cut, HashPartitioner, LdgPartitioner, Partitioner};
use graphalytics_graph::rng::Xoshiro256;
use graphalytics_graph::{CsrGraph, EdgeListGraph, Vid};
use graphalytics_platforms::pregel::{programs::ConnProgram, run as pregel_run, PregelConfig};
use std::sync::Arc;

fn community_graph() -> Arc<CsrGraph> {
    Arc::new(CsrGraph::from_edge_list(&generate(&DatagenConfig {
        num_persons: 20_000,
        seed: 3,
        degree_distribution: DegreeDistribution::Facebook(12.0),
        ..Default::default()
    })))
}

/// Network choke point: CONN's remote messages under different partitioners.
/// The benchmark also prints the measured cut/remote-message reduction.
fn network_partitioning(c: &mut Criterion) {
    let g = community_graph();
    let ctx = RunContext::unbounded();
    let workers = 4;

    // Report the communication-volume ablation once, outside the timers.
    let hash_cut = edge_cut(&g, &HashPartitioner.partition(&g, workers));
    let ldg_cut = edge_cut(&g, &LdgPartitioner.partition(&g, workers));
    println!(
        "[chokepoint:network] edge cut over {} edges — hash: {hash_cut}, ldg: {ldg_cut} \
         ({:.1}% reduction)",
        g.num_edges(),
        100.0 * (1.0 - ldg_cut as f64 / hash_cut.max(1) as f64)
    );

    let mut group = c.benchmark_group("chokepoint_network");
    group.sample_size(10);
    for (name, partitioner) in [
        ("hash", &HashPartitioner as &dyn Partitioner),
        ("ldg", &LdgPartitioner),
    ] {
        group.bench_with_input(
            BenchmarkId::new("partition_cost", name),
            &partitioner,
            |b, p| b.iter(|| p.partition(&g, workers)),
        );
    }
    for kind in [
        graphalytics_platforms::pregel::PartitionerKind::Hash,
        graphalytics_platforms::pregel::PartitionerKind::Ldg,
    ] {
        let config = PregelConfig {
            workers,
            partitioner: kind,
            ..Default::default()
        };
        let stats = pregel_run(&g, &ConnProgram, &config, &ctx)
            .expect("run")
            .stats;
        println!(
            "[chokepoint:network] CONN remote messages with {kind:?}: {} of {}",
            stats.messages_remote, stats.messages_total
        );
        group.bench_with_input(
            BenchmarkId::new("conn", format!("{kind:?}")),
            &config,
            |b, config| {
                b.iter(|| {
                    pregel_run(&g, &ConnProgram, config, &ctx)
                        .expect("run")
                        .stats
                        .supersteps
                })
            },
        );
    }
    group.finish();
}

/// Memory-footprint choke point: bytes per edge across storage layouts.
fn memory_footprint(c: &mut Criterion) {
    let el = rmat::generate(&RmatConfig::graph500(12, 5));
    let csr = CsrGraph::from_edge_list(&el);
    let edges = csr.num_edges();
    // Record-store (Neo4j-style) footprint.
    let mut store = graphalytics_platforms::graphdb::GraphStore::new();
    store.create_nodes(csr.num_vertices());
    for v in 0..csr.num_vertices() as Vid {
        for &u in csr.neighbors(v) {
            if v < u {
                store.create_relationship(v, u);
            }
        }
    }
    // Columnar footprint.
    let mut arcs = Vec::new();
    for v in 0..csr.num_vertices() as Vid {
        for &u in csr.neighbors(v) {
            arcs.push((v as u64, u as u64));
        }
    }
    let table = graphalytics_platforms::columnar::EdgeTable::from_arcs(arcs);
    println!(
        "[chokepoint:memory] bytes/edge — csr: {:.1}, record store: {:.1}, \
         column store (compressed): {:.1}",
        csr.memory_footprint() as f64 / edges as f64,
        store.bytes() as f64 / edges as f64,
        table.compressed_bytes() as f64 / edges as f64,
    );

    let mut group = c.benchmark_group("chokepoint_memory");
    group.bench_function("build_csr", |b| b.iter(|| CsrGraph::from_edge_list(&el)));
    group.finish();
}

/// Locality choke point: sequential sweep vs random probes over the same
/// number of adjacency reads.
fn access_locality(c: &mut Criterion) {
    let g = CsrGraph::from_edge_list(&rmat::generate(&RmatConfig::graph500(14, 9)));
    let n = g.num_vertices() as u32;
    let mut rng = Xoshiro256::new(77);
    let random_order: Vec<u32> = (0..n).map(|_| rng.next_bounded(n as u64) as u32).collect();

    let mut group = c.benchmark_group("chokepoint_locality");
    group.bench_function("sequential_sweep", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for v in 0..n {
                for &u in g.neighbors(v) {
                    acc = acc.wrapping_add(u as u64);
                }
            }
            acc
        })
    });
    group.bench_function("random_probes", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &v in &random_order {
                for &u in g.neighbors(v) {
                    acc = acc.wrapping_add(u as u64);
                }
            }
            acc
        })
    });
    group.finish();
}

/// Skew choke point: per-superstep worker imbalance on a skewed graph vs a
/// regular grid with similar edge counts.
fn execution_skew(c: &mut Criterion) {
    let skewed = Arc::new(CsrGraph::from_edge_list(&rmat::generate(
        &RmatConfig::graph500(12, 13),
    )));
    let side = 220u64; // ~48k vertices, ~96k edges: similar to scale 12.
    let mut grid_edges = Vec::new();
    for r in 0..side {
        for col in 0..side {
            let v = r * side + col;
            if col + 1 < side {
                grid_edges.push((v, v + 1));
            }
            if r + 1 < side {
                grid_edges.push((v, v + side));
            }
        }
    }
    let regular = Arc::new(CsrGraph::from_edge_list(
        &EdgeListGraph::undirected_from_edges(grid_edges),
    ));
    let ctx = RunContext::unbounded();
    // Range partitioning concentrates R-MAT's low-id hubs in one worker —
    // the placement that makes degree skew visible as work skew.
    let config = PregelConfig {
        workers: 4,
        partitioner: graphalytics_platforms::pregel::PartitionerKind::Range,
        ..Default::default()
    };
    for (name, g) in [("skewed_rmat", &skewed), ("regular_grid", &regular)] {
        let stats = pregel_run(g, &ConnProgram, &config, &ctx)
            .expect("run")
            .stats;
        let tail = stats
            .active_per_superstep
            .iter()
            .filter(|&&a| (a as f64) < 0.05 * g.num_vertices() as f64)
            .count();
        println!(
            "[chokepoint:skew] {name}: message skew {:.2}, vertex skew {:.2},              {} supersteps of which {tail} low-work (<5% active)",
            stats.message_skew(4),
            stats.skew_factor(4),
            stats.supersteps
        );
    }

    let mut group = c.benchmark_group("chokepoint_skew");
    group.sample_size(10);
    group.bench_function("conn_skewed", |b| {
        b.iter(|| {
            pregel_run(&skewed, &ConnProgram, &config, &ctx)
                .expect("run")
                .stats
                .supersteps
        })
    });
    group.bench_function("conn_regular", |b| {
        b.iter(|| {
            pregel_run(&regular, &ConnProgram, &config, &ctx)
                .expect("run")
                .stats
                .supersteps
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    network_partitioning,
    memory_footprint,
    access_locality,
    execution_skew
);
criterion_main!(benches);
