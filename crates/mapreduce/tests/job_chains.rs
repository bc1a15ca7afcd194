//! Direct tests of the MapReduce algorithm job chains (below the Platform
//! adapter): each kernel's propagate/update jobs against the reference
//! implementations, convergence behavior, and on-disk state layout.

use graphalytics_core::platform::RunContext;
use graphalytics_core::ScratchDir;
use graphalytics_graph::{CsrGraph, EdgeListGraph, Vid};
use graphalytics_mapreduce::algorithms;
use graphalytics_mapreduce::job::{JobConfig, RecordWriter};
use std::path::PathBuf;

struct Fixture {
    config: JobConfig,
    edge_files: Vec<PathBuf>,
    graph: CsrGraph,
    /// Holds the splits and every job's files; removed with the fixture.
    dir: ScratchDir,
}

fn fixture(name: &str, edges: Vec<(u64, u64)>) -> Fixture {
    let scratch = ScratchDir::new(None, &format!("gx-chains-{name}")).unwrap();
    let dir = scratch.path();
    let graph = CsrGraph::from_edge_list(&EdgeListGraph::undirected_from_edges(edges));
    // Two splits, arcs tagged "E <dst>" keyed by source, like the platform's ETL.
    let edge_files: Vec<PathBuf> = (0..2).map(|i| dir.join(format!("edges-{i}"))).collect();
    let mut writers: Vec<RecordWriter> = edge_files
        .iter()
        .map(|path| RecordWriter::create(path).unwrap())
        .collect();
    for v in 0..graph.num_vertices() as Vid {
        for &u in graph.neighbors(v) {
            writers[v as usize % 2]
                .write(v, format_args!("E {u}"))
                .unwrap();
        }
    }
    for writer in writers {
        writer.finish().unwrap();
    }
    Fixture {
        config: JobConfig::new(dir),
        edge_files,
        graph,
        dir: scratch,
    }
}

fn sample_edges() -> Vec<(u64, u64)> {
    // Triangle + tail + second component + a longer path.
    let mut edges = vec![(0, 1), (1, 2), (0, 2), (2, 3), (4, 5)];
    edges.extend((6..14).map(|i| (i, i + 1)));
    edges
}

#[test]
fn conn_chain_matches_reference() {
    let f = fixture("conn", sample_edges());
    let labels = algorithms::connected_components(
        &f.config,
        &f.edge_files,
        f.graph.num_vertices(),
        &RunContext::unbounded(),
    )
    .unwrap();
    assert_eq!(
        labels,
        graphalytics_algos::conn::connected_components(&f.graph)
    );
}

#[test]
fn bfs_chain_matches_reference_and_needs_diameter_rounds() {
    let f = fixture("bfs", sample_edges());
    let depths = algorithms::bfs(
        &f.config,
        &f.edge_files,
        f.graph.num_vertices(),
        Some(6),
        &RunContext::unbounded(),
    )
    .unwrap();
    assert_eq!(depths, graphalytics_algos::bfs::bfs(&f.graph, 6));
    // The long path forces many iterations; each round's state is its
    // update job's output on disk (iterative chains keep state in files).
    let rounds = std::fs::read_dir(f.dir.path())
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("bfs-update-"))
        .filter(|e| e.path().join("part-00000").exists())
        .count();
    assert!(
        rounds >= 8,
        "expected many BFS rounds on disk, saw {rounds}"
    );
}

#[test]
fn bfs_chain_without_source() {
    let f = fixture("bfs-nosrc", vec![(0, 1), (1, 2)]);
    let depths =
        algorithms::bfs(&f.config, &f.edge_files, 3, None, &RunContext::unbounded()).unwrap();
    assert_eq!(depths, vec![-1, -1, -1]);
}

#[test]
fn cd_chain_matches_reference() {
    let f = fixture("cd", sample_edges());
    let labels = algorithms::community_detection(
        &f.config,
        &f.edge_files,
        f.graph.num_vertices(),
        10,
        0.05,
        0.1,
        &RunContext::unbounded(),
    )
    .unwrap();
    assert_eq!(
        labels,
        graphalytics_algos::cd::community_detection(&f.graph, 10, 0.05, 0.1)
    );
}

#[test]
fn stats_chain_matches_reference() {
    let f = fixture("stats", sample_edges());
    let mean = algorithms::mean_local_cc(
        &f.config,
        &f.edge_files,
        f.graph.num_vertices(),
        &RunContext::unbounded(),
    )
    .unwrap();
    let expected = graphalytics_algos::stats::stats(&f.graph).mean_local_cc;
    assert!((mean - expected).abs() < 1e-12, "{mean} vs {expected}");
}

#[test]
fn pagerank_chain_matches_reference_within_counter_precision() {
    let f = fixture("pr", sample_edges());
    let ranks = algorithms::pagerank(
        &f.config,
        &f.edge_files,
        f.graph.num_vertices(),
        15,
        0.85,
        &RunContext::unbounded(),
    )
    .unwrap();
    let expected = graphalytics_algos::pagerank::pagerank(&f.graph, 15, 0.85);
    for (a, b) in ranks.iter().zip(&expected) {
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }
    let sum: f64 = ranks.iter().sum();
    assert!((sum - 1.0).abs() < 1e-9);
}

#[test]
fn evo_chain_matches_reference() {
    let f = fixture("evo", sample_edges());
    let external: Vec<u64> = (0..f.graph.num_vertices() as Vid)
        .map(|v| f.graph.external_id(v))
        .collect();
    let edges = algorithms::forest_fire(
        &f.config,
        &f.edge_files,
        &external,
        20,
        0.4,
        16,
        777,
        &RunContext::unbounded(),
    )
    .unwrap();
    let expected = graphalytics_algos::evo::forest_fire(&f.graph, 20, 0.4, 16, 777);
    assert_eq!(edges, expected);
}

#[test]
fn chains_honor_deadlines_between_jobs() {
    let f = fixture("deadline", (0..200).map(|i| (i, i + 1)).collect());
    let ctx = RunContext::with_timeout(std::time::Duration::from_millis(1));
    std::thread::sleep(std::time::Duration::from_millis(2));
    let err = algorithms::connected_components(&f.config, &f.edge_files, 201, &ctx).unwrap_err();
    assert_eq!(err, graphalytics_core::platform::PlatformError::Timeout);
}

#[test]
fn isolated_vertices_survive_the_chains() {
    // Vertex 3 has no edges: it must appear in outputs with its own label.
    let f = fixture("isolated", vec![(0, 1)]);
    let labels =
        algorithms::connected_components(&f.config, &f.edge_files, 4, &RunContext::unbounded())
            .unwrap();
    assert_eq!(labels[2], 2);
    assert_eq!(labels[3], 3);
    let depths = algorithms::bfs(
        &f.config,
        &f.edge_files,
        4,
        Some(0),
        &RunContext::unbounded(),
    )
    .unwrap();
    assert_eq!(depths, vec![0, 1, -1, -1]);
}
