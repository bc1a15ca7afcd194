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
    pub fn new(vertices: Vec<VertexId>, mut edges: Vec<Edge>, directed: bool) -> Self {
        edges.retain_mut(|(s, t)| orient(s, t, directed));
        radix_sort_by_edge(&mut edges, |&e| e);
        edges.dedup();
        edges.shrink_to_fit();
        Self {
            vertices: vertex_set(vertices, &edges),
            weights: vec![WEIGHT_SCALE; edges.len()],
            edges,
            directed,
        }
    }

    /// Builds a graph from explicitly weighted edges.
    ///
    /// Same normalization as [`Self::new`]; when duplicates of an edge carry
    /// different weights, the minimum survives (duplicate lines in a `.e`
    /// file cannot lengthen a shortest path).
    pub fn new_weighted(
        vertices: Vec<VertexId>,
        mut weighted: Vec<WeightedEdge>,
        directed: bool,
    ) -> Self {
        weighted.retain_mut(|(s, t, _)| orient(s, t, directed));
        radix_sort_by_edge(&mut weighted, |&(s, t, _)| (s, t));
        let mut edges: Vec<Edge> = Vec::with_capacity(weighted.len());
        let mut weights: Vec<Weight> = Vec::with_capacity(weighted.len());
        for (s, t, w) in weighted {
            match weights.last_mut() {
                Some(last) if edges.last() == Some(&(s, t)) => *last = (*last).min(w),
                _ => {
                    edges.push((s, t));
                    weights.push(w);
                }
            }
        }
        edges.shrink_to_fit();
        weights.shrink_to_fit();
        Self {
            vertices: vertex_set(vertices, &edges),
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

/// Puts an edge in the orientation the graph stores: an undirected edge as
/// `(min, max)`. False for a self loop, which no graph stores.
fn orient(s: &mut VertexId, t: &mut VertexId, directed: bool) -> bool {
    if !directed && s > t {
        std::mem::swap(s, t);
    }
    s != t
}

/// Sorts `items` by the `(s, t)` pair `key` gives them, with no
/// comparisons: an LSD radix sort on `(s - min s) << t_bits | (t - min t)`,
/// where `t_bits` is the width of the `t` range, so the packed order is the
/// pair order. Should the two ranges not fit 64 bits together, it sorts by
/// `t` and then, stably, by `s`. Input that is already sorted (a CSR's edge
/// list, a file this crate wrote) costs one read and allocates nothing.
fn radix_sort_by_edge<T: Copy>(items: &mut Vec<T>, key: impl Fn(&T) -> Edge) {
    if items.windows(2).all(|w| key(&w[0]) <= key(&w[1])) {
        return;
    }
    let (mut s_lo, mut s_hi, mut t_lo, mut t_hi) = (VertexId::MAX, 0, VertexId::MAX, 0);
    for item in items.iter() {
        let (s, t) = key(item);
        (s_lo, s_hi) = (s_lo.min(s), s_hi.max(s));
        (t_lo, t_hi) = (t_lo.min(t), t_hi.max(t));
    }
    let t_bits = u64::BITS - (t_hi - t_lo).leading_zeros();
    let s_bits = u64::BITS - (s_hi - s_lo).leading_zeros();
    let mut scratch = Vec::new();
    if t_bits < u64::BITS && s_bits + t_bits <= u64::BITS {
        let packed = |item: &T| {
            let (s, t) = key(item);
            (s - s_lo) << t_bits | (t - t_lo)
        };
        let max = (s_hi - s_lo) << t_bits | (t_hi - t_lo);
        radix_sort(items, &mut scratch, packed, max);
    } else {
        radix_sort(items, &mut scratch, |item| key(item).1 - t_lo, t_hi - t_lo);
        radix_sort(items, &mut scratch, |item| key(item).0 - s_lo, s_hi - s_lo);
    }
}

/// Sorts `items` stably by `key`, whose values lie in `0..=max`: one
/// counting pass, then one scatter pass per digit of at most 12 bits (the
/// digits split `max`'s width evenly). A digit that is the same in every
/// key costs no pass. `scratch` is the second buffer; it is filled on first
/// use.
fn radix_sort<T: Copy>(
    items: &mut Vec<T>,
    scratch: &mut Vec<T>,
    key: impl Fn(&T) -> u64,
    max: u64,
) {
    let bits = u64::BITS - max.leading_zeros();
    if bits == 0 {
        return;
    }
    let passes = bits.div_ceil(12);
    let width = bits.div_ceil(passes);
    let radix = 1usize << width;
    let mask = radix as u64 - 1;
    let mut counts = vec![0usize; radix * passes as usize];
    for item in items.iter() {
        let k = key(item);
        for (pass, count) in counts.chunks_exact_mut(radix).enumerate() {
            count[(k >> (width as usize * pass) & mask) as usize] += 1;
        }
    }
    let mut next = vec![0usize; radix];
    for (pass, count) in counts.chunks_exact(radix).enumerate() {
        if count.contains(&items.len()) {
            continue;
        }
        let mut sum = 0;
        for (slot, &c) in next.iter_mut().zip(count) {
            *slot = sum;
            sum += c;
        }
        if scratch.len() != items.len() {
            scratch.clone_from(items);
        }
        let shift = width as usize * pass;
        for item in items.iter() {
            let digit = (key(item) >> shift & mask) as usize;
            scratch[next[digit]] = *item;
            next[digit] += 1;
        }
        std::mem::swap(items, scratch);
    }
}

/// The sorted union of `vertices` and every endpoint of `edges`, without
/// duplicates. Dense ids (R-MAT's and Datagen's `0..n`, a CSR's external
/// ids) are marked in a bitmap over their range and read back in order;
/// only ids spread wider than eight times their count are sorted.
fn vertex_set(mut vertices: Vec<VertexId>, edges: &[Edge]) -> Vec<VertexId> {
    let endpoints = || edges.iter().flat_map(|&(s, t)| [s, t]);
    let (lo, hi) = vertices
        .iter()
        .copied()
        .chain(endpoints())
        .fold((VertexId::MAX, 0), |(lo, hi), v| (lo.min(v), hi.max(v)));
    if lo > hi {
        return Vec::new();
    }
    let count = vertices.len() + 2 * edges.len();
    if (hi - lo) / 8 > count as u64 {
        vertices.extend(endpoints());
        radix_sort(&mut vertices, &mut Vec::new(), |&v| v - lo, hi - lo);
        vertices.dedup();
        vertices.shrink_to_fit();
        return vertices;
    }
    let mut bits = vec![0u64; ((hi - lo) / 64) as usize + 1];
    for v in vertices.iter().copied().chain(endpoints()) {
        let i = v - lo;
        bits[(i / 64) as usize] |= 1 << (i % 64);
    }
    let mut set = Vec::with_capacity(bits.iter().map(|w| w.count_ones() as usize).sum());
    for (i, &word) in bits.iter().enumerate() {
        let mut word = word;
        while word != 0 {
            set.push(lo + i as u64 * 64 + word.trailing_zeros() as u64);
            word &= word - 1;
        }
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    /// The normalisation [`EdgeListGraph::new_weighted`] had before it used
    /// a radix sort: a comparison sort of `(s, t, w)` triples, keep-first
    /// dedup, and a sort of every endpoint for the vertex set.
    fn oracle_new_weighted(
        vertices: Vec<VertexId>,
        edges: Vec<WeightedEdge>,
        directed: bool,
    ) -> EdgeListGraph {
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
        weighted.sort_unstable();
        weighted.dedup_by_key(|&mut (s, t, _)| (s, t));
        let edges: Vec<Edge> = weighted.iter().map(|&(s, t, _)| (s, t)).collect();
        let weights = weighted.iter().map(|&(_, _, w)| w).collect();
        vertices.extend(edges.iter().flat_map(|&(s, t)| [s, t]));
        vertices.sort_unstable();
        vertices.dedup();
        EdgeListGraph {
            vertices,
            edges,
            weights,
            directed,
        }
    }

    /// A random edge list of up to ~2k edges over one id family, with self
    /// loops, duplicates carrying different weights and both orientations.
    fn random_input(rng: &mut Xoshiro256, case: u64) -> (Vec<VertexId>, Vec<WeightedEdge>) {
        let n = 1 + rng.next_bounded(300);
        let id = |x: u64| match case % 4 {
            0 => x,
            1 => x * 7 + 3,
            2 => u64::MAX - x * 3,
            _ => x << 40 | x,
        };
        let edges: Vec<WeightedEdge> = (0..rng.next_bounded(2_000))
            .map(|_| {
                let s = rng.next_bounded(n);
                let t = match rng.next_bounded(8) {
                    0 => s,
                    _ => rng.next_bounded(n),
                };
                (id(s), id(t), rng.next_bounded(4) * WEIGHT_SCALE / 2)
            })
            .collect();
        let isolated = (0..rng.next_bounded(5))
            .map(|_| id(n + rng.next_bounded(50)))
            .collect();
        (isolated, edges)
    }

    #[test]
    fn normalisation_matches_the_comparison_sort_oracle() {
        let mut rng = Xoshiro256::new(0x5EED);
        for case in 0..400u64 {
            let (vertices, mut edges) = random_input(&mut rng, case);
            if case % 5 == 4 {
                edges.sort_unstable();
            }
            if case % 11 == 10 {
                edges.clear();
            }
            for directed in [false, true] {
                let want = oracle_new_weighted(vertices.clone(), edges.clone(), directed);
                let got = EdgeListGraph::new_weighted(vertices.clone(), edges.clone(), directed);
                assert_eq!(got, want, "case {case}, directed {directed}");
                let pairs: Vec<Edge> = edges.iter().map(|&(s, t, _)| (s, t)).collect();
                let unit = edges
                    .iter()
                    .map(|&(s, t, _)| (s, t, WEIGHT_SCALE))
                    .collect();
                assert_eq!(
                    EdgeListGraph::new(vertices.clone(), pairs, directed),
                    oracle_new_weighted(vertices.clone(), unit, directed),
                    "case {case}, directed {directed}, unweighted"
                );
                // A graph's own edge list is sorted input.
                let again = EdgeListGraph::new_weighted(
                    got.vertices().to_vec(),
                    got.edges()
                        .iter()
                        .zip(got.weights())
                        .map(|(&(s, t), &w)| (s, t, w))
                        .collect(),
                    directed,
                );
                assert_eq!(again, got, "case {case}, directed {directed}, sorted");
            }
        }
    }

    #[test]
    fn vertex_set_takes_sparse_and_extreme_ids() {
        let g = EdgeListGraph::new(vec![u64::MAX, 0], vec![(1 << 60, 5)], true);
        assert_eq!(g.vertices(), &[0, 5, 1 << 60, u64::MAX]);
        assert_eq!(g.edges(), &[(1 << 60, 5)]);
        let g = EdgeListGraph::new(vec![u64::MAX - 1], vec![(u64::MAX, u64::MAX - 2)], false);
        assert_eq!(g.vertices(), &[u64::MAX - 2, u64::MAX - 1, u64::MAX]);
        assert_eq!(g.edges(), &[(u64::MAX - 2, u64::MAX)]);
        // One source, targets over the whole u64 range; then both wide.
        let g = EdgeListGraph::new(vec![], vec![(5, u64::MAX), (5, 0), (5, 1 << 63)], true);
        assert_eq!(g.edges(), &[(5, 0), (5, 1 << 63), (5, u64::MAX)]);
        let g = EdgeListGraph::new(vec![], vec![(u64::MAX, 0), (0, u64::MAX), (1, 2)], true);
        assert_eq!(g.edges(), &[(0, u64::MAX), (1, 2), (u64::MAX, 0)]);
        let g = EdgeListGraph::new(vec![3, 3, 1], Vec::new(), false);
        assert_eq!(g.vertices(), &[1, 3]);
        g.validate().unwrap();
    }

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
