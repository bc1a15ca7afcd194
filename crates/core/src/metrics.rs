//! Performance metrics: runtime and TEPS accounting.
//!
//! Figure 5 of the paper reports CONN performance in kTEPS — thousands of
//! traversed edges per second — noting that "the size of the processed
//! graph is included in this metric, which reveals the influence of the
//! graph characteristics on performance."

use graphalytics_algos::Output;
use graphalytics_graph::CsrGraph;

/// Traversed edges per second.
pub fn teps(edges_traversed: usize, seconds: f64) -> f64 {
    if seconds <= 0.0 {
        return 0.0;
    }
    edges_traversed as f64 / seconds
}

/// Millions of traversed edges per second (§3.4's unit).
pub fn mteps(edges_traversed: usize, seconds: f64) -> f64 {
    teps(edges_traversed, seconds) / 1e6
}

/// Number of edges an algorithm run "traversed" for TEPS purposes:
///
/// * CONN (and other whole-graph kernels): every edge — the paper computes
///   Figure 5 as graph size over runtime;
/// * BFS: the edges incident to reached vertices (the Graph500 convention);
/// * other outputs: every edge.
pub fn edges_traversed(graph: &CsrGraph, output: &Output) -> usize {
    match output {
        Output::Depths(depths) => graphalytics_algos::bfs::traversed_edges(graph, depths),
        _ => graph.num_edges(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphalytics_graph::EdgeListGraph;

    #[test]
    fn unit_conversions() {
        assert_eq!(teps(10_000, 2.0), 5_000.0);
        assert_eq!(mteps(2_000_000, 1.0), 2.0);
        assert_eq!(teps(100, 0.0), 0.0);
    }

    #[test]
    fn edges_traversed_by_kind() {
        let g = CsrGraph::from_edge_list(&EdgeListGraph::undirected_from_edges(vec![
            (0, 1),
            (1, 2),
            (3, 4),
        ]));
        // CONN sees all edges.
        let conn = Output::Components(vec![0, 0, 0, 3, 3]);
        assert_eq!(edges_traversed(&g, &conn), 3);
        // BFS from 0 reaches only the first component (2 edges).
        let depths = Output::Depths(vec![0, 1, 2, -1, -1]);
        assert_eq!(edges_traversed(&g, &depths), 2);
    }
}
