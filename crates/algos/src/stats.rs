//! STATS kernel: "counts the numbers of vertices and edges in the graph and
//! computes the mean local clustering coefficient" (paper §3.2).

use graphalytics_graph::metrics;
use graphalytics_graph::CsrGraph;

/// Result of the STATS kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatsResult {
    /// Number of vertices.
    pub num_vertices: usize,
    /// Number of (logical) edges.
    pub num_edges: usize,
    /// Mean local clustering coefficient over all vertices (degree < 2
    /// vertices contribute 0).
    pub mean_local_cc: f64,
}

/// Reference STATS implementation.
pub fn stats(g: &CsrGraph) -> StatsResult {
    stats_parallel(g, 1)
}

/// STATS with the triangle pass on up to `threads` workers.
///
/// Deterministic: the coefficients are byte-identical at every thread
/// count (see [`crate::lcc::local_clustering_parallel`]) and are summed
/// sequentially in vertex order, so the mean is too.
pub fn stats_parallel(g: &CsrGraph, threads: usize) -> StatsResult {
    from_coefficients(
        g.num_edges(),
        &metrics::local_clustering_coefficients(g, threads),
    )
}

/// Assembles STATS from the per-vertex local clustering coefficients, in
/// internal-id order: |V| is their count, the mean is their sum in that
/// order over |V| (0 on the empty graph). Engines that produce the
/// coefficient vector end here, so the mean's bits cannot differ by engine.
pub fn from_coefficients(num_edges: usize, coefficients: &[f64]) -> StatsResult {
    let n = coefficients.len();
    let mut sum = 0.0;
    for c in coefficients {
        sum += c;
    }
    StatsResult {
        num_vertices: n,
        num_edges,
        mean_local_cc: if n == 0 { 0.0 } else { sum / n as f64 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphalytics_graph::EdgeListGraph;

    #[test]
    fn triangle_stats() {
        let g = CsrGraph::from_edge_list(&EdgeListGraph::undirected_from_edges(vec![
            (0, 1),
            (1, 2),
            (0, 2),
        ]));
        let s = stats(&g);
        assert_eq!(s.num_vertices, 3);
        assert_eq!(s.num_edges, 3);
        assert!((s.mean_local_cc - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_stats() {
        let g = CsrGraph::from_edge_list(&EdgeListGraph::undirected_from_edges(vec![]));
        let s = stats(&g);
        assert_eq!(s.num_vertices, 0);
        assert_eq!(s.num_edges, 0);
        assert_eq!(s.mean_local_cc, 0.0);
    }

    #[test]
    fn agrees_with_metrics_module() {
        let g = EdgeListGraph::undirected_from_edges(vec![(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]);
        let csr = CsrGraph::from_edge_list(&g);
        let s = stats(&csr);
        let c = graphalytics_graph::metrics::characteristics(&g);
        assert!((s.mean_local_cc - c.avg_local_cc).abs() < 1e-12);
        assert_eq!(s.num_edges, c.num_edges);
    }
}
