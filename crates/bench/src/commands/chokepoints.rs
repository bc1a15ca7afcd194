//! Choke-point ablations (paper §2.1): one experiment per choke point,
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
//!
//! Cuts, message counts, bytes and skew factors are exact and repeat from
//! run to run. Only the locality ablation is a time (a ratio of two
//! medians on this machine); how fast partitioning, CSR builds and the
//! Pregel engine are is `perfbench/`'s to measure, not this command's.

use std::hint::black_box;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use graphalytics_core::platform::RunContext;
use graphalytics_core::runner::median;
use graphalytics_datagen::{generate, rmat, DatagenConfig, DegreeDistribution, RmatConfig};
use graphalytics_graph::partition::{edge_cut, HashPartitioner, LdgPartitioner, Partitioner};
use graphalytics_graph::rng::Xoshiro256;
use graphalytics_graph::{CsrGraph, EdgeListGraph, Vid};
use graphalytics_platforms::pregel::{
    programs::ConnProgram, run as pregel_run, PartitionerKind, PregelConfig, PregelStats,
};

use crate::{or_exit, Args};

/// Workers of every partitioned run, and timed passes per locality sweep.
const WORKERS: usize = 4;
const REPS: usize = 10;

fn rmat_csr(scale: u32, seed: u64) -> Arc<CsrGraph> {
    let edges = rmat::generate(&RmatConfig::graph500(scale, seed));
    Arc::new(CsrGraph::from_edge_list(&edges))
}

fn conn_stats(g: &Arc<CsrGraph>, partitioner: PartitionerKind) -> PregelStats {
    let config = PregelConfig {
        workers: WORKERS,
        partitioner,
        ..Default::default()
    };
    let run = pregel_run(g, &ConnProgram, &config, &RunContext::unbounded());
    run.expect("CONN on the in-process engine").stats
}

/// Network choke point: CONN's remote messages under different
/// partitioners.
fn network_partitioning(persons: usize) {
    let g = Arc::new(CsrGraph::from_edge_list(&generate(&DatagenConfig {
        num_persons: persons,
        seed: 3,
        degree_distribution: DegreeDistribution::Facebook(12.0),
        ..Default::default()
    })));
    let hash_cut = edge_cut(&g, &HashPartitioner.partition(&g, WORKERS));
    let ldg_cut = edge_cut(&g, &LdgPartitioner.partition(&g, WORKERS));
    println!(
        "[chokepoint:network] edge cut over {} edges — hash: {hash_cut}, ldg: {ldg_cut} \
         ({:.1}% reduction)",
        g.num_edges(),
        100.0 * (1.0 - ldg_cut as f64 / hash_cut.max(1) as f64)
    );
    for kind in [PartitionerKind::Hash, PartitionerKind::Ldg] {
        let stats = conn_stats(&g, kind);
        println!(
            "[chokepoint:network] CONN remote messages with {kind:?}: {} of {}",
            stats.messages_remote, stats.messages_total
        );
    }
}

/// Memory-footprint choke point: bytes per edge across storage layouts.
fn memory_footprint(scale: u32) {
    let csr = rmat_csr(scale, 5);
    let edges = csr.num_edges() as f64;
    // Record-store (Neo4j-style) and columnar footprints.
    let mut store = graphalytics_platforms::graphdb::GraphStore::new();
    store.create_nodes(csr.num_vertices());
    let mut arcs = Vec::new();
    for v in 0..csr.num_vertices() as Vid {
        for &u in csr.neighbors(v) {
            if v < u {
                store.create_relationship(v, u);
            }
            arcs.push((v as u64, u as u64));
        }
    }
    let table = graphalytics_platforms::columnar::EdgeTable::from_arcs(arcs);
    println!(
        "[chokepoint:memory] bytes/edge — csr: {:.1}, record store: {:.1}, \
         column store (compressed): {:.1}",
        csr.memory_footprint() as f64 / edges,
        store.bytes() as f64 / edges,
        table.compressed_bytes() as f64 / edges,
    );
}

/// Locality choke point: sequential sweep vs random probes over the same
/// number of adjacency reads, each the median of `REPS` passes.
fn access_locality(scale: u32) {
    let g = rmat_csr(scale, 9);
    let n = g.num_vertices() as u32;
    let mut rng = Xoshiro256::new(77);
    let random_order: Vec<u32> = (0..n).map(|_| rng.next_bounded(n as u64) as u32).collect();
    let sweep = |order: &mut dyn Iterator<Item = u32>| {
        let started = Instant::now();
        let mut acc = 0u64;
        for v in order {
            for &u in g.neighbors(v) {
                acc = acc.wrapping_add(u as u64);
            }
        }
        black_box(acc);
        started.elapsed().as_secs_f64()
    };
    let sequential: Vec<f64> = (0..REPS).map(|_| sweep(&mut (0..n))).collect();
    let random: Vec<f64> = (0..REPS)
        .map(|_| sweep(&mut random_order.iter().copied()))
        .collect();
    let (sequential, random) = (median(&sequential), median(&random));
    println!(
        "[chokepoint:locality] {n} adjacency lists — sequential sweep: {sequential:.6} s, \
         random probes: {random:.6} s ({:.2}x)",
        random / sequential
    );
}

/// Skew choke point: per-superstep worker imbalance on a skewed graph vs
/// a regular grid with the same edge count.
fn execution_skew(scale: u32) {
    let skewed = rmat_csr(scale, 13);
    // A side x side grid has 2 * side * (side - 1) edges.
    let side = ((skewed.num_edges() / 2) as f64).sqrt().round() as u64;
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
    let grid = EdgeListGraph::undirected_from_edges(grid_edges);
    let regular = Arc::new(CsrGraph::from_edge_list(&grid));
    for (name, g) in [("skewed_rmat", &skewed), ("regular_grid", &regular)] {
        // Range partitioning concentrates R-MAT's low-id hubs in one worker —
        // the placement that makes degree skew visible as work skew.
        let stats = conn_stats(g, PartitionerKind::Range);
        let tail = stats
            .active_per_superstep
            .iter()
            .filter(|&&a| (a as f64) < 0.05 * g.num_vertices() as f64)
            .count();
        println!(
            "[chokepoint:skew] {name}: message skew {:.2}, vertex skew {:.2}, \
             {} supersteps of which {tail} low-work (<5% active)",
            stats.message_skew(WORKERS),
            stats.skew_factor(WORKERS),
            stats.supersteps
        );
    }
}

/// `bench chokepoints`.
pub fn run(args: &Args) -> ExitCode {
    let scale = or_exit(args.knob::<usize>("GX_SCALE")) as u32;
    let persons: usize = or_exit(args.knob("GX_PERSONS"));
    println!("Choke points (paper §2.1): network, memory, locality, skew\n");
    network_partitioning(persons);
    memory_footprint(scale);
    access_locality(scale + 2);
    execution_skew(scale);
    ExitCode::SUCCESS
}
