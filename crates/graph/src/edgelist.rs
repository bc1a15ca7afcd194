//! Edge-list graph representation — the interchange format between the data
//! generator, file I/O, and the platform loaders.

use crate::GraphError;

/// External vertex identifier, as found in dataset files.
pub type VertexId = u64;

/// A directed or undirected edge between two external vertex ids.
pub type Edge = (VertexId, VertexId);

/// Fixed-point edge weight: the decimal weight from a `.e` file scaled by
/// [`WEIGHT_SCALE`]. Integer weights keep graph equality exact (`Eq`) and
/// make SSSP path sums associative, so parallel relaxation order cannot
/// change the result.
pub type Weight = u64;

/// The fixed-point scale: a file weight of `1.0` is stored as this value.
/// Unweighted edges default to it, so SSSP on an unweighted graph counts
/// hops (scaled).
pub const WEIGHT_SCALE: Weight = 1_000_000;

/// A weighted edge as `(source, target, weight)`.
pub type WeightedEdge = (VertexId, VertexId, Weight);

/// A graph held as a flat list of edges plus an explicit vertex set.
///
/// This is the "wire" representation: cheap to produce from generators and
/// files, and convertible to [`crate::CsrGraph`] for computation. Vertices
/// with no incident edges are representable (they appear in `vertices` only),
/// which matters for STATS and for validation of per-vertex outputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeListGraph {
    /// Sorted, deduplicated external vertex ids.
    vertices: Vec<VertexId>,
    /// Edges as (source, target) pairs of external ids.
    edges: Vec<Edge>,
    /// Per-edge fixed-point weights, parallel to `edges`. Unweighted graphs
    /// carry [`WEIGHT_SCALE`] (one hop) everywhere.
    weights: Vec<Weight>,
    /// Whether edges are directed. Undirected graphs store each edge once,
    /// in canonical (min, max) order.
    directed: bool,
}

impl EdgeListGraph {
    /// Builds a graph from explicit vertex and edge sets.
    ///
    /// Self-loops are dropped, duplicate edges are dropped, and endpoints are
    /// added to the vertex set if missing. For undirected graphs, edges are
    /// canonicalized so `(a, b)` and `(b, a)` are the same edge. Every edge
    /// gets the unit weight [`WEIGHT_SCALE`].
    pub fn new(vertices: Vec<VertexId>, edges: Vec<Edge>, directed: bool) -> Self {
        let weighted = edges
            .into_iter()
            .map(|(s, t)| (s, t, WEIGHT_SCALE))
            .collect();
        Self::new_weighted(vertices, weighted, directed)
    }

    /// Builds a graph from explicitly weighted edges.
    ///
    /// Same normalization as [`Self::new`]; when duplicates of an edge carry
    /// different weights, the minimum survives (duplicate lines in a `.e`
    /// file cannot lengthen a shortest path).
    pub fn new_weighted(vertices: Vec<VertexId>, edges: Vec<WeightedEdge>, directed: bool) -> Self {
        let mut vertices = vertices;
        let mut weighted: Vec<WeightedEdge> = edges
            .into_iter()
            .filter(|&(s, t, _)| s != t)
            .map(|(s, t, w)| {
                if directed || s <= t {
                    (s, t, w)
                } else {
                    (t, s, w)
                }
            })
            .collect();
        // Sorting by (s, t, w) puts the minimum weight first within each
        // duplicate group, so keep-first dedup keeps the minimum.
        weighted.sort_unstable();
        weighted.dedup_by_key(|&mut (s, t, _)| (s, t));
        let mut edges = Vec::with_capacity(weighted.len());
        let mut weights = Vec::with_capacity(weighted.len());
        for (s, t, w) in weighted {
            edges.push((s, t));
            weights.push(w);
        }
        vertices.extend(edges.iter().flat_map(|&(s, t)| [s, t]));
        vertices.sort_unstable();
        vertices.dedup();
        Self {
            vertices,
            edges,
            weights,
            directed,
        }
    }

    /// Builds an undirected graph from edges alone (vertex set inferred).
    pub fn undirected_from_edges(edges: Vec<Edge>) -> Self {
        Self::new(Vec::new(), edges, false)
    }

    /// Builds a directed graph from edges alone (vertex set inferred).
    pub fn directed_from_edges(edges: Vec<Edge>) -> Self {
        Self::new(Vec::new(), edges, true)
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Number of (logical) edges: undirected edges count once.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Whether the graph is directed.
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// The sorted vertex-id slice.
    pub fn vertices(&self) -> &[VertexId] {
        &self.vertices
    }

    /// The edge slice (canonicalized, sorted, deduplicated).
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Per-edge fixed-point weights, parallel to [`Self::edges`].
    pub fn weights(&self) -> &[Weight] {
        &self.weights
    }

    /// True if any edge carries a non-unit weight.
    pub fn is_weighted(&self) -> bool {
        self.weights.iter().any(|&w| w != WEIGHT_SCALE)
    }

    /// The weight of an edge (respecting directedness), if it exists.
    ///
    /// A binary search over the edge list: the oracle that tests compare
    /// CSR arc weights against. The CSR build does not call it; it places
    /// each edge's weight beside the edge's arcs.
    pub fn edge_weight(&self, s: VertexId, t: VertexId) -> Option<Weight> {
        let key = if self.directed || s <= t {
            (s, t)
        } else {
            (t, s)
        };
        self.edges.binary_search(&key).ok().map(|i| self.weights[i])
    }

    /// True if the external id belongs to this graph.
    pub fn contains_vertex(&self, v: VertexId) -> bool {
        self.vertices.binary_search(&v).is_ok()
    }

    /// True if the edge exists (respecting directedness).
    pub fn contains_edge(&self, s: VertexId, t: VertexId) -> bool {
        let key = if self.directed || s <= t {
            (s, t)
        } else {
            (t, s)
        };
        self.edges.binary_search(&key).is_ok()
    }

    /// Returns an undirected copy: directed edges are canonicalized and
    /// deduplicated (reciprocal edges keep the minimum weight); undirected
    /// graphs are returned as-is.
    pub fn to_undirected(&self) -> Self {
        if !self.directed {
            return self.clone();
        }
        let weighted = self
            .edges
            .iter()
            .zip(&self.weights)
            .map(|(&(s, t), &w)| (s, t, w))
            .collect();
        Self::new_weighted(self.vertices.clone(), weighted, false)
    }

    /// Checks structural invariants; used by tests and the output validator.
    pub fn validate(&self) -> Result<(), GraphError> {
        if self.weights.len() != self.edges.len() {
            return Err(GraphError::Invariant(
                "weight list length differs from edge list".into(),
            ));
        }
        if self.vertices.windows(2).any(|w| w[0] >= w[1]) {
            return Err(GraphError::Invariant(
                "vertex list not strictly sorted".into(),
            ));
        }
        if self.edges.windows(2).any(|w| w[0] >= w[1]) {
            return Err(GraphError::Invariant(
                "edge list not strictly sorted".into(),
            ));
        }
        for &(s, t) in &self.edges {
            if s == t {
                return Err(GraphError::Invariant(format!("self loop at {s}")));
            }
            if !self.directed && s > t {
                return Err(GraphError::Invariant(format!(
                    "non-canonical undirected edge ({s}, {t})"
                )));
            }
            if !self.contains_vertex(s) || !self.contains_vertex(t) {
                return Err(GraphError::Invariant(format!(
                    "edge ({s}, {t}) references unknown vertex"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedups_and_canonicalizes_undirected() {
        let g = EdgeListGraph::undirected_from_edges(vec![(2, 1), (1, 2), (3, 3), (0, 1)]);
        assert_eq!(g.edges(), &[(0, 1), (1, 2)]);
        assert_eq!(g.vertices(), &[0, 1, 2]);
        assert_eq!(g.num_edges(), 2);
        g.validate().unwrap();
    }

    #[test]
    fn directed_keeps_orientation() {
        let g = EdgeListGraph::directed_from_edges(vec![(2, 1), (1, 2)]);
        assert_eq!(g.edges(), &[(1, 2), (2, 1)]);
        assert_eq!(g.num_edges(), 2);
        g.validate().unwrap();
    }

    #[test]
    fn isolated_vertices_survive() {
        let g = EdgeListGraph::new(vec![9, 5], vec![(1, 2)], false);
        assert_eq!(g.vertices(), &[1, 2, 5, 9]);
        assert_eq!(g.num_vertices(), 4);
        assert!(g.contains_vertex(9));
        assert!(!g.contains_vertex(3));
    }

    #[test]
    fn contains_edge_respects_directedness() {
        let und = EdgeListGraph::undirected_from_edges(vec![(1, 2)]);
        assert!(und.contains_edge(1, 2));
        assert!(und.contains_edge(2, 1));
        let dir = EdgeListGraph::directed_from_edges(vec![(1, 2)]);
        assert!(dir.contains_edge(1, 2));
        assert!(!dir.contains_edge(2, 1));
    }

    #[test]
    fn to_undirected_merges_reciprocal_edges() {
        let dir = EdgeListGraph::directed_from_edges(vec![(1, 2), (2, 1), (2, 3)]);
        let und = dir.to_undirected();
        assert_eq!(und.edges(), &[(1, 2), (2, 3)]);
        assert!(!und.is_directed());
    }

    #[test]
    fn empty_graph_is_valid() {
        let g = EdgeListGraph::undirected_from_edges(vec![]);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        g.validate().unwrap();
    }

    #[test]
    fn unweighted_edges_default_to_unit_weight() {
        let g = EdgeListGraph::undirected_from_edges(vec![(0, 1), (1, 2)]);
        assert_eq!(g.weights(), &[WEIGHT_SCALE, WEIGHT_SCALE]);
        assert!(!g.is_weighted());
        assert_eq!(g.edge_weight(1, 0), Some(WEIGHT_SCALE));
        assert_eq!(g.edge_weight(0, 2), None);
    }

    #[test]
    fn weighted_duplicates_keep_the_minimum() {
        let g = EdgeListGraph::new_weighted(
            Vec::new(),
            vec![(2, 1, 500_000), (1, 2, 250_000), (0, 1, 3_000_000)],
            false,
        );
        assert_eq!(g.edges(), &[(0, 1), (1, 2)]);
        assert_eq!(g.weights(), &[3_000_000, 250_000]);
        assert!(g.is_weighted());
        assert_eq!(g.edge_weight(2, 1), Some(250_000));
        g.validate().unwrap();
    }

    #[test]
    fn to_undirected_keeps_minimum_weight_of_reciprocal_edges() {
        let g =
            EdgeListGraph::new_weighted(Vec::new(), vec![(1, 2, 700_000), (2, 1, 300_000)], true);
        let und = g.to_undirected();
        assert_eq!(und.edges(), &[(1, 2)]);
        assert_eq!(und.weights(), &[300_000]);
    }
}
