//! LCC and STATS, engine by engine, against the definition: on drawn
//! undirected graphs of at most 64 vertices, every in-process engine's
//! per-vertex LCC is bit-equal to `metrics::local_clustering_coefficient`
//! (the unoriented point query), and its STATS, where it answers STATS,
//! equals the reference's.
//!
//! The drawn graphs mix the shapes a degree orientation handles worst —
//! degree ties broken only by id (rings, cliques, star leaves), hubs, and
//! isolated vertices — with arbitrary edges whose input list carries self
//! loops and repeated edges in both directions. The distributed engine's
//! fixed case lives beside its e2e suites (`crates/distrib/tests`).

use graphalytics::prelude::*;
use graphalytics_algos::reference;
use graphalytics_graph::metrics;
use proptest::prelude::*;

/// The edges of a named shape on ids `0..size + 2`: a star (every leaf
/// ties), a clique (every vertex ties), two adjacent hubs sharing every
/// leaf, a ring (every vertex ties) or nothing.
fn shape_edges(shape: u64, size: u64) -> Vec<(u64, u64)> {
    match shape {
        0 => (1..=size).map(|leaf| (0, leaf)).collect(),
        1 => (0..size)
            .flat_map(|i| (i + 1..size).map(move |j| (i, j)))
            .collect(),
        2 => (2..size + 2)
            .flat_map(|leaf| [(0, leaf), (1, leaf)])
            .chain([(0, 1)])
            .collect(),
        3 if size >= 3 => (0..size).map(|i| (i, (i + 1) % size)).collect(),
        _ => Vec::new(),
    }
}

/// An undirected graph of at most 64 vertices: a named shape, arbitrary
/// edges over the first `n` ids (some of them self loops), every third of
/// those repeated reversed, and isolated vertices up to id 63.
fn arb_graph() -> impl Strategy<Value = EdgeListGraph> {
    (
        (0u64..5, 0u64..12),
        1u64..65,
        proptest::collection::vec((0u64..64, 0u64..64), 0..160),
        0u64..8,
    )
        .prop_map(|((shape, size), n, noise, isolated)| {
            let mut edges = shape_edges(shape, size);
            let noise: Vec<(u64, u64)> = noise.into_iter().map(|(a, b)| (a % n, b % n)).collect();
            edges.extend(noise.iter().step_by(3).map(|&(a, b)| (b, a)));
            edges.extend(noise.iter().step_by(7).map(|&(a, _)| (a, a)));
            edges.extend(noise);
            let used = edges.iter().map(|&(a, b)| a.max(b) + 1).max().unwrap_or(0);
            let vertices = (0..(used + isolated).min(64)).collect();
            EdgeListGraph::new(vertices, edges, false)
        })
}

fn engines() -> Vec<Box<dyn Platform>> {
    vec![
        Box::new(GiraphPlatform::with_defaults()),
        Box::new(GraphXPlatform::with_defaults()),
        Box::new(MapReducePlatform::with_defaults()),
        Box::new(Neo4jPlatform::with_defaults()),
        Box::new(VirtuosoPlatform::with_defaults()),
    ]
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|x| x.to_bits()).collect()
}

/// Runs LCC and STATS on every engine and compares them with the
/// definition; `case` names the graph in a failure.
fn assert_engines_match(g: &EdgeListGraph, case: &str) {
    let csr = CsrGraph::from_edge_list(g);
    let want: Vec<u64> = csr
        .vertex_ids()
        .map(|v| metrics::local_clustering_coefficient(&csr, v).to_bits())
        .collect();
    let Output::Stats(want_stats) = reference(&csr, &Algorithm::Stats) else {
        panic!("STATS must emit Stats")
    };
    let ctx = RunContext::unbounded();
    for mut engine in engines() {
        let name = engine.name();
        let handle = engine.load_graph(&csr).expect("load");
        match engine.run(handle, &Algorithm::Lcc, &ctx) {
            Ok(Output::LocalClustering(got)) => {
                assert_eq!(bits(&got), want, "{name} LCC on {case}")
            }
            other => panic!("{name} LCC on {case}: {other:?}"),
        }
        let got = match engine.run(handle, &Algorithm::Stats, &ctx) {
            Ok(Output::Stats(got)) => got,
            // Virtuoso answers BFS, SSSP and LCC only.
            Err(PlatformError::Unsupported(_)) if name == "Virtuoso" => {
                engine.unload(handle);
                continue;
            }
            other => panic!("{name} STATS on {case}: {other:?}"),
        };
        assert_eq!(
            (got.num_vertices, got.num_edges),
            (want_stats.num_vertices, want_stats.num_edges),
            "{name} STATS on {case}"
        );
        // MapReduce sums the coefficients in the order its reduce
        // partitions return them (DESIGN.md §4), so only its last bits may
        // differ; every other engine sums in vertex order.
        if name == "MapReduce" {
            assert!(
                Output::Stats(want_stats).equivalent(&Output::Stats(got)),
                "{name} STATS on {case}: {got:?}"
            );
        } else {
            assert_eq!(
                got.mean_local_cc.to_bits(),
                want_stats.mean_local_cc.to_bits(),
                "{name} STATS on {case}"
            );
        }
        engine.unload(handle);
    }
}

#[test]
fn named_shapes_match_the_definition_on_every_engine() {
    for shape in 0..5 {
        for size in [0u64, 1, 2, 3, 5, 11] {
            let edges = shape_edges(shape, size);
            let g = EdgeListGraph::new((0..size + 4).collect(), edges, false);
            assert_engines_match(&g, &format!("shape {shape} size {size}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn drawn_graphs_match_the_definition_on_every_engine(g in arb_graph()) {
        let case = format!("{:?}", g.edges());
        assert_engines_match(&g, &case);
    }
}
