//! Choke-point ablations (paper §2.1): one experiment per choke point,
//! demonstrating the system-level effect the paper's workload design is
//! meant to stress.
//!
//! * **Excessive network utilization** — remote-message volume of the BSP
//!   engine under hash vs LDG partitioning on a community-structured
//!   graph: better partitioning cuts the "network" traffic.
//! * **Large graph memory footprint** — CSR vs record-store vs dataset
//!   bytes per edge (compact representations keep graphs in RAM longer).
//! * **Skewed execution intensity** — per-superstep work skew on a skewed
//!   R-MAT graph vs a degree-regular grid at equal edge count.
//!
//! Every number printed — cuts, message counts, bytes and skew factors —
//! is exact and repeats from run to run. The fourth choke point, poor
//! access locality, is counted per run by the `--profile-out` choke-point
//! report (sequential vs random accesses); how fast partitioning, CSR
//! builds and the Pregel engine are is `perfbench/`'s to measure, not this
//! command's.

use std::process::ExitCode;
use std::sync::Arc;

use graphalytics_core::platform::RunContext;
use graphalytics_datagen::{generate, rmat, DatagenConfig, DegreeDistribution, RmatConfig};
use graphalytics_graph::partition::{edge_cut, HashPartitioner, LdgPartitioner, Partitioner};
use graphalytics_graph::{CsrGraph, EdgeListGraph, Vid};
use graphalytics_platforms::pregel::{
    programs::ConnProgram, run as pregel_run, PartitionerKind, PregelConfig, PregelStats,
};

use crate::{or_exit, Args};

/// Workers of every partitioned run.
const WORKERS: usize = 4;

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
    println!("Choke points (paper §2.1): network, memory, skew\n");
    network_partitioning(persons);
    memory_footprint(scale);
    execution_skew(scale);
    ExitCode::SUCCESS
}
