//! Everything a workload feeds the program is generated here from the
//! seed: graphs, BFS/SSSP sources, and the hashes round trips are checked
//! against.

use std::sync::Arc;

use graphalytics_core::datasets::{Dataset, DatasetSpec};
use graphalytics_datagen::{generator, rmat, DatagenConfig, DegreeDistribution, RmatConfig};
use graphalytics_graph::rng::{SplitMix64, Xoshiro256};
use graphalytics_graph::{CsrGraph, EdgeListGraph, VertexId, Vid};

use crate::spans::Recorder;

/// Seconds spent per named set-up stage, in call order.
pub type StageTimes = Vec<(&'static str, f64)>;

/// A generated graph with the descriptor the runner reports it under.
pub struct Input {
    pub dataset: Dataset,
    pub graph: Arc<CsrGraph>,
}

impl Input {
    /// Size of the graph as a cell works through it: vertices plus arcs.
    pub fn size(&self) -> f64 {
        (self.graph.num_vertices() + self.graph.num_arcs()) as f64
    }
}

/// Graph500 R-MAT edge list at `scale`.
pub fn rmat_edges(scale: u32, seed: u64) -> EdgeListGraph {
    rmat::generate(&RmatConfig::graph500(scale, seed))
}

/// SNB-style Datagen edge list, configured as `Dataset::snb` is.
pub fn snb_edges(persons: usize, seed: u64) -> EdgeListGraph {
    generator::generate(&DatagenConfig {
        num_persons: persons,
        seed,
        degree_distribution: DegreeDistribution::Facebook(18.0),
        threads: crate::engines::WORKERS,
        ..Default::default()
    })
}

/// Generates the Graph500 graph of `scale` and builds its CSR, timing both.
/// The edge list is handed back beside the input for the workload that
/// writes it to disk; the others drop it before their passes start.
pub fn graph500(
    scale: u32,
    seed: u64,
    rec: &mut Recorder,
    stages: &mut StageTimes,
) -> (Input, EdgeListGraph) {
    let (edges, s) = rec.time("datagen.rmat", "datagen", || rmat_edges(scale, seed));
    stages.push(("datagen.rmat_s", s));
    let (graph, s) = rec.time("graph.csr.build", "graph", || {
        CsrGraph::from_edge_list(&edges)
    });
    stages.push(("graph.csr.build_s", s));
    let input = Input {
        dataset: Dataset {
            name: format!("Graph500 {scale}"),
            spec: DatasetSpec::Graph500 { scale },
            seed,
        },
        graph: Arc::new(graph),
    };
    (input, edges)
}

/// `count` distinct sources of degree at least 1, as external ids.
pub fn pick_sources(graph: &CsrGraph, seed: u64, count: usize) -> Vec<VertexId> {
    let n = graph.num_vertices() as u64;
    let eligible = (0..n as Vid).filter(|&v| graph.degree(v) > 0).count();
    assert!(
        eligible >= count,
        "graph has only {eligible} non-isolated vertices"
    );
    let mut rng = Xoshiro256::new(seed ^ 0x5352_4353);
    let mut picked: Vec<Vid> = Vec::with_capacity(count);
    while picked.len() < count {
        let v = rng.next_bounded(n) as Vid;
        if graph.degree(v) > 0 && !picked.contains(&v) {
            picked.push(v);
        }
    }
    picked.into_iter().map(|v| graph.external_id(v)).collect()
}

/// Hash of the edge set that does not depend on edge order: the wrapping
/// sum of one mixed word per weighted edge.
pub fn edge_set_hash(g: &EdgeListGraph) -> u64 {
    g.edges()
        .iter()
        .zip(g.weights())
        .map(|(&(s, t), &w)| {
            let word =
                SplitMix64::new(s).next_u64() ^ SplitMix64::new(!t).next_u64().rotate_left(21);
            SplitMix64::new(word ^ w).next_u64()
        })
        .fold(0u64, u64::wrapping_add)
}

/// What a round trip must preserve: vertex count, edge count, edge hash.
pub fn fingerprint(g: &EdgeListGraph) -> (usize, usize, u64) {
    (g.num_vertices(), g.num_edges(), edge_set_hash(g))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input(seed: u64) -> (Input, EdgeListGraph) {
        graph500(8, seed, &mut Recorder::new(false), &mut Vec::new())
    }

    #[test]
    fn same_seed_same_graph_and_sources() {
        let ((a, a_edges), (b, b_edges)) = (input(11), input(11));
        assert_eq!(fingerprint(&a_edges), fingerprint(&b_edges));
        assert_eq!(
            pick_sources(&a.graph, 11, 16),
            pick_sources(&b.graph, 11, 16)
        );
    }

    #[test]
    fn another_seed_gives_another_graph() {
        let ((a, a_edges), (_, b_edges)) = (input(11), input(12));
        assert_ne!(edge_set_hash(&a_edges), edge_set_hash(&b_edges));
        assert_ne!(
            pick_sources(&a.graph, 11, 16),
            pick_sources(&a.graph, 12, 16)
        );
    }

    #[test]
    fn sources_are_distinct_and_never_isolated() {
        let (g, _) = input(5);
        // R-MAT at this scale leaves isolated vertices to step over.
        assert!((0..g.graph.num_vertices() as Vid).any(|v| g.graph.degree(v) == 0));
        let sources = pick_sources(&g.graph, 5, 16);
        assert_eq!(sources.len(), 16);
        for (i, &s) in sources.iter().enumerate() {
            let v = g.graph.internal_id(s).unwrap();
            assert!(g.graph.degree(v) > 0);
            assert!(!sources[..i].contains(&s));
        }
    }

    #[test]
    fn edge_hash_tells_edge_sets_and_weights_apart() {
        let hash = |edges: Vec<(u64, u64, u64)>| {
            edge_set_hash(&EdgeListGraph::new_weighted(Vec::new(), edges, false))
        };
        assert_ne!(
            hash(vec![(1, 2, 1), (2, 3, 1), (3, 4, 1)]),
            hash(vec![(1, 2, 1), (2, 3, 1), (3, 5, 1)])
        );
        // The same endpoints paired differently, and the same edges with
        // their weights swapped: a sum of per-endpoint words would collide.
        assert_ne!(
            hash(vec![(1, 3, 1), (2, 4, 1)]),
            hash(vec![(1, 4, 1), (2, 3, 1)])
        );
        assert_ne!(
            hash(vec![(1, 2, 5), (2, 3, 7)]),
            hash(vec![(1, 2, 7), (2, 3, 5)])
        );
    }
}
