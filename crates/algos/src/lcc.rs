//! LCC kernel: the per-vertex local clustering coefficient — the LDBC
//! Graphalytics workload's full-output variant of the STATS mean.
//!
//! For a vertex `v` with degree `d`, the coefficient is the fraction of
//! neighbor pairs that are themselves connected: `2·tri(v) / (d·(d−1))` on
//! an undirected graph, and 0 when `d < 2` (no pair exists).

use graphalytics_graph::metrics;
use graphalytics_graph::CsrGraph;

/// Local clustering coefficient of every vertex, in internal-id order.
/// Values lie in `[0, 1]`; vertices of degree < 2 get exactly `0.0`.
pub fn local_clustering(g: &CsrGraph) -> Vec<f64> {
    metrics::local_clustering_coefficients(g, 1)
}

/// Parallel LCC on up to `threads` workers.
///
/// Deterministic: the per-vertex triangle counts are integers summed from
/// per-worker vectors, so they — and the coefficients derived from them —
/// are byte-identical to [`local_clustering`] for any thread count.
pub fn local_clustering_parallel(g: &CsrGraph, threads: usize) -> Vec<f64> {
    metrics::local_clustering_coefficients(g, threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphalytics_graph::EdgeListGraph;

    fn csr(edges: Vec<(u64, u64)>) -> CsrGraph {
        CsrGraph::from_edge_list(&EdgeListGraph::undirected_from_edges(edges))
    }

    #[test]
    fn triangle_vertices_score_one() {
        let g = csr(vec![(0, 1), (1, 2), (0, 2)]);
        assert_eq!(local_clustering(&g), vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn path_vertices_score_zero() {
        let g = csr(vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(local_clustering(&g), vec![0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn triangle_with_pendant_mixes_coefficients() {
        // Vertex 0 has neighbors {1, 2, 3}; only the (1, 2) pair is linked.
        let g = csr(vec![(0, 1), (1, 2), (0, 2), (0, 3)]);
        let cc = local_clustering(&g);
        assert!((cc[0] - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(cc[1], 1.0);
        assert_eq!(cc[2], 1.0);
        assert_eq!(cc[3], 0.0); // Degree 1.
    }

    #[test]
    fn empty_graph_yields_empty_output() {
        let g = csr(vec![]);
        assert!(local_clustering(&g).is_empty());
        assert!(local_clustering_parallel(&g, 4).is_empty());
    }

    #[test]
    fn coefficients_stay_in_unit_interval() {
        let mut edges: Vec<(u64, u64)> = (1..30).map(|i| (0, i)).collect();
        edges.extend((1..30).map(|i| (i, (i % 29) + 1)).filter(|&(a, b)| a != b));
        let g = csr(edges);
        for (v, &c) in local_clustering(&g).iter().enumerate() {
            assert!((0.0..=1.0).contains(&c), "vertex {v} got {c}");
        }
    }

    #[test]
    fn parallel_matches_sequential_bytewise() {
        let mut edges: Vec<(u64, u64)> = (1..50).map(|i| (0, i)).collect();
        edges.extend((50..90).map(|i| (i, i + 1)));
        edges.extend([(10, 20), (20, 30), (10, 30), (70, 72)]);
        let g = csr(edges);
        let seq = local_clustering(&g);
        for threads in [1usize, 2, 8] {
            let par_out = local_clustering_parallel(&g, threads);
            assert_eq!(par_out.len(), seq.len());
            for (a, b) in par_out.iter().zip(&seq) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads={threads}");
            }
        }
    }
}
