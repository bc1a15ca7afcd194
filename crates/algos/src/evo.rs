//! EVO kernel: graph evolution, "predicts the evolution of the graph
//! according to the 'forest fire' model" (paper §3.2, citing Leskovec,
//! Kleinberg & Faloutsos, KDD'05).
//!
//! For each new vertex, the model picks an ambassador among the existing
//! vertices, then "burns" outward: at each burned vertex it draws a
//! geometric number of not-yet-burned neighbors to burn next, and the new
//! vertex links to every burned vertex. The process densifies the graph
//! the way real networks densify over time.
//!
//! Determinism contract: every random decision comes from a substream keyed
//! by `(workload seed, new-vertex index)` and candidate neighbors are
//! considered in *sorted internal-id order*, so every platform produces the
//! exact same predicted edge set and the Output Validator compares EVO
//! results exactly.

use graphalytics_graph::rng::Xoshiro256;
use graphalytics_graph::{CsrGraph, Edge, VertexId, Vid};

/// Predicts `new_vertices` additions under the forest-fire model.
///
/// Returns the new edges, sorted: each new vertex `k` gets the external id
/// `max_external_id + 1 + k` and links to the external ids of every vertex
/// its fire burned. Empty graphs yield no predictions (no ambassadors).
pub fn forest_fire(
    g: &CsrGraph,
    new_vertices: usize,
    p_forward: f64,
    max_burst: usize,
    seed: u64,
) -> Vec<Edge> {
    fire_walk(
        g.num_vertices(),
        |v| g.external_id(v),
        |v| g.neighbors(v),
        new_vertices,
        p_forward,
        max_burst,
        seed,
    )
}

/// [`forest_fire`] over plain sorted adjacency lists, for platforms whose
/// storage is not a [`CsrGraph`] (dataflow collections, MapReduce job
/// outputs, record stores). `adjacency[v]` must be sorted ascending;
/// `external_ids[v]` maps internal to external ids. Produces bit-identical
/// output to [`forest_fire`] on the same graph.
pub fn forest_fire_over_adjacency(
    adjacency: &[Vec<Vid>],
    external_ids: &[VertexId],
    new_vertices: usize,
    p_forward: f64,
    max_burst: usize,
    seed: u64,
) -> Vec<Edge> {
    debug_assert_eq!(adjacency.len(), external_ids.len());
    fire_walk(
        adjacency.len(),
        |v| external_ids[v as usize],
        |v| &adjacency[v as usize],
        new_vertices,
        p_forward,
        max_burst,
        seed,
    )
}

/// The one forest-fire walk. Each new vertex picks an ambassador and burns
/// breadth-first: at every burned vertex it draws a geometric number of the
/// not-yet-burned neighbors, taken in sorted order, until `max_burst`
/// vertices burned. The burned set is a dense bitmap that is reset from the
/// burned list after each fire.
fn fire_walk<'a>(
    n: usize,
    external_id: impl Fn(Vid) -> VertexId,
    neighbors: impl Fn(Vid) -> &'a [Vid],
    new_vertices: usize,
    p_forward: f64,
    max_burst: usize,
    seed: u64,
) -> Vec<Edge> {
    if n == 0 || new_vertices == 0 {
        return Vec::new();
    }
    let base_id = (0..n as Vid).map(&external_id).max().unwrap_or(0) + 1;
    let mut is_burned = vec![false; n];
    let mut burned: Vec<Vid> = Vec::new();
    let mut queue = std::collections::VecDeque::new();
    let mut candidates: Vec<Vid> = Vec::new();
    let mut edges = Vec::new();
    for k in 0..new_vertices as u64 {
        let mut rng = Xoshiro256::substream(seed ^ 0x464F_5245_5354, k);
        let ambassador = rng.next_bounded(n as u64) as Vid;
        is_burned[ambassador as usize] = true;
        burned.push(ambassador);
        queue.push_back(ambassador);
        while let Some(v) = queue.pop_front() {
            if burned.len() >= max_burst {
                break;
            }
            candidates.clear();
            candidates.extend(neighbors(v).iter().filter(|&&u| !is_burned[u as usize]));
            if candidates.is_empty() {
                continue;
            }
            // Geometric(1 - p) - 1 links, as in the original model.
            let fanout = if p_forward >= 1.0 {
                candidates.len() as u64
            } else {
                rng.geometric(1.0 - p_forward) - 1
            };
            let fanout = (fanout as usize).min(candidates.len());
            if fanout == 0 {
                continue;
            }
            for idx in rng.sample_distinct(candidates.len(), fanout) {
                let u = candidates[idx];
                if burned.len() >= max_burst {
                    break;
                }
                if !is_burned[u as usize] {
                    is_burned[u as usize] = true;
                    burned.push(u);
                    queue.push_back(u);
                }
            }
        }
        queue.clear();
        for b in burned.drain(..) {
            is_burned[b as usize] = false;
            edges.push((external_id(b), base_id + k));
        }
    }
    edges.sort_unstable();
    edges.dedup();
    edges
}

/// Densification check: mean number of edges per new vertex. Real networks
/// densify (mean > 1 for reasonable `p_forward`); used by statistical
/// validation of EVO outputs.
pub fn mean_new_degree(new_edges: &[Edge], new_vertices: usize) -> f64 {
    if new_vertices == 0 {
        return 0.0;
    }
    new_edges.len() as f64 / new_vertices as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphalytics_graph::EdgeListGraph;

    fn clique(n: u64) -> CsrGraph {
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                edges.push((i, j));
            }
        }
        CsrGraph::from_edge_list(&EdgeListGraph::undirected_from_edges(edges))
    }

    #[test]
    fn deterministic_given_seed() {
        let g = clique(20);
        let a = forest_fire(&g, 10, 0.4, 32, 7);
        let b = forest_fire(&g, 10, 0.4, 32, 7);
        assert_eq!(a, b);
        let c = forest_fire(&g, 10, 0.4, 32, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn new_ids_are_fresh_and_edges_sorted() {
        let g = clique(10);
        let edges = forest_fire(&g, 5, 0.5, 16, 1);
        assert!(!edges.is_empty());
        for &(src, dst) in &edges {
            assert!(src < 10, "burned endpoint must be an existing vertex");
            assert!((10..15).contains(&dst), "new endpoint in fresh range");
        }
        assert!(edges.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn every_new_vertex_links_at_least_ambassador() {
        let g = clique(8);
        let edges = forest_fire(&g, 20, 0.0, 16, 3);
        // p=0: fires never spread, but the ambassador itself is burned.
        let mut new_ids: Vec<u64> = edges.iter().map(|&(_, d)| d).collect();
        new_ids.sort_unstable();
        new_ids.dedup();
        assert_eq!(new_ids.len(), 20);
        assert_eq!(edges.len(), 20);
    }

    #[test]
    fn max_burst_caps_fire_size() {
        let g = clique(30);
        let edges = forest_fire(&g, 1, 1.0, 5, 4);
        assert!(edges.len() <= 5, "burst must be capped: {}", edges.len());
    }

    #[test]
    fn higher_p_burns_more() {
        let g = clique(40);
        let low = forest_fire(&g, 30, 0.1, 64, 5).len();
        let high = forest_fire(&g, 30, 0.8, 64, 5).len();
        assert!(high > low, "low={low} high={high}");
    }

    #[test]
    fn empty_graph_and_zero_requests() {
        let empty = CsrGraph::from_edge_list(&EdgeListGraph::undirected_from_edges(vec![]));
        assert!(forest_fire(&empty, 5, 0.5, 16, 1).is_empty());
        let g = clique(5);
        assert!(forest_fire(&g, 0, 0.5, 16, 1).is_empty());
    }

    #[test]
    fn respects_sparse_external_ids() {
        let g = CsrGraph::from_edge_list(&EdgeListGraph::undirected_from_edges(vec![
            (100, 200),
            (200, 350),
        ]));
        let edges = forest_fire(&g, 3, 0.5, 8, 9);
        for &(_, dst) in &edges {
            assert!(dst > 350, "fresh ids must exceed the max external id");
        }
    }

    #[test]
    fn mean_new_degree_math() {
        assert_eq!(mean_new_degree(&[(0, 5), (1, 5), (0, 6)], 2), 1.5);
        assert_eq!(mean_new_degree(&[], 0), 0.0);
    }
}
