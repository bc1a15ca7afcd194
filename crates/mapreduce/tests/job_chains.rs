//! Direct tests of the MapReduce algorithm job chains (below the Platform
//! adapter): each kernel's one-job rounds against the reference
//! implementations, convergence behavior, and on-disk state layout.

use graphalytics_core::platform::RunContext;
use graphalytics_core::ScratchDir;
use graphalytics_graph::{CsrGraph, EdgeListGraph, Vid};
use graphalytics_mapreduce::algorithms;
use graphalytics_mapreduce::job::JobConfig;
use graphalytics_mapreduce::platform::{write_splits, Splits};

struct Fixture {
    config: JobConfig,
    splits: Splits,
    graph: CsrGraph,
    /// Holds the splits and every job's files; removed with the fixture.
    dir: ScratchDir,
}

/// Two splits of `graph`, written by the platform's own ETL writer.
fn fixture_of(name: &str, graph: CsrGraph) -> Fixture {
    let scratch = ScratchDir::new(None, &format!("gx-chains-{name}")).unwrap();
    let splits = write_splits(&graph, scratch.path(), 2).unwrap();
    Fixture {
        config: JobConfig::new(scratch.path()),
        splits,
        graph,
        dir: scratch,
    }
}

fn fixture(name: &str, edges: Vec<(u64, u64)>) -> Fixture {
    let graph = CsrGraph::from_edge_list(&EdgeListGraph::undirected_from_edges(edges));
    fixture_of(name, graph)
}

/// The job directories of the fixture whose names start with `prefix`.
fn jobs(f: &Fixture, prefix: &str) -> usize {
    std::fs::read_dir(f.dir.path())
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.path().is_dir())
        .filter(|e| e.file_name().to_string_lossy().starts_with(prefix))
        .count()
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
        &f.splits.adjacency,
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
        &f.splits.adjacency,
        f.graph.num_vertices(),
        Some(6),
        &RunContext::unbounded(),
    )
    .unwrap();
    assert_eq!(depths, graphalytics_algos::bfs::bfs(&f.graph, 6));
    // The long path forces many iterations; each round's state is its
    // job's output on disk (iterative chains keep state in files).
    let rounds = std::fs::read_dir(f.dir.path())
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("bfs-round-"))
        .filter(|e| e.path().join("part-00000").exists())
        .count();
    assert_eq!(jobs(&f, ""), rounds, "one job per round, nothing else");
    assert!(
        rounds >= 8,
        "expected many BFS rounds on disk, saw {rounds}"
    );
}

#[test]
fn bfs_chain_without_source() {
    let f = fixture("bfs-nosrc", vec![(0, 1), (1, 2)]);
    let depths = algorithms::bfs(
        &f.config,
        &f.splits.adjacency,
        3,
        None,
        &RunContext::unbounded(),
    )
    .unwrap();
    assert_eq!(depths, vec![-1, -1, -1]);
}

#[test]
fn cd_chain_matches_reference() {
    let f = fixture("cd", sample_edges());
    let labels = algorithms::community_detection(
        &f.config,
        &f.splits.adjacency,
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
    let coefficients = algorithms::local_clustering(
        &f.config,
        &f.splits.adjacency,
        f.graph.num_vertices(),
        &RunContext::unbounded(),
    )
    .unwrap();
    // Summed in vertex order, the mean has the reference's bits.
    let mean = graphalytics_algos::stats::from_coefficients(0, &coefficients).mean_local_cc;
    let expected = graphalytics_algos::stats::stats(&f.graph).mean_local_cc;
    assert_eq!(mean.to_bits(), expected.to_bits(), "{mean} vs {expected}");
}

#[test]
fn pagerank_chain_matches_reference_within_counter_precision() {
    let f = fixture("pr", sample_edges());
    let ranks = algorithms::pagerank(
        &f.config,
        &f.splits.adjacency,
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
    // One job per iteration, and no other.
    assert_eq!(jobs(&f, "pr-round-"), 15);
    assert_eq!(jobs(&f, ""), 15);
}

#[test]
fn evo_chain_matches_reference() {
    let f = fixture("evo", sample_edges());
    let external: Vec<u64> = (0..f.graph.num_vertices() as Vid)
        .map(|v| f.graph.external_id(v))
        .collect();
    let edges = algorithms::forest_fire(
        &f.splits.adjacency,
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
    // EVO reads the splits as the load wrote them: no job runs.
    assert_eq!(jobs(&f, ""), 0);
}

#[test]
fn chains_honor_deadlines_between_jobs() {
    let f = fixture("deadline", (0..200).map(|i| (i, i + 1)).collect());
    let ctx = RunContext::with_timeout(std::time::Duration::from_millis(1));
    std::thread::sleep(std::time::Duration::from_millis(2));
    let err =
        algorithms::connected_components(&f.config, &f.splits.adjacency, 201, &ctx).unwrap_err();
    assert_eq!(err, graphalytics_core::platform::PlatformError::Timeout);
}

#[test]
fn isolated_vertices_survive_the_chains() {
    // Vertices 2 and 3 have no edges: their records in the splits carry
    // empty lists, and they must appear in outputs with their own labels.
    let graph =
        CsrGraph::from_edge_list(&EdgeListGraph::new(vec![0, 1, 2, 3], vec![(0, 1)], false));
    assert_eq!(graph.num_vertices(), 4);
    let f = fixture_of("isolated", graph);
    let labels = algorithms::connected_components(
        &f.config,
        &f.splits.adjacency,
        4,
        &RunContext::unbounded(),
    )
    .unwrap();
    assert_eq!(labels[2], 2);
    assert_eq!(labels[3], 3);
    let depths = algorithms::bfs(
        &f.config,
        &f.splits.adjacency,
        4,
        Some(0),
        &RunContext::unbounded(),
    )
    .unwrap();
    assert_eq!(depths, vec![0, 1, -1, -1]);
}
