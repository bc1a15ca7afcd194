//! Compressed sparse row (CSR) adjacency — the computation-side graph
//! representation.
//!
//! Per the "large graph memory footprint" choke point (paper §2.1), all
//! adjacency is stored in flat arrays: an offsets array of `n + 1` entries
//! and a targets array of one `u32` per directed arc. Internal vertex
//! indices are dense `u32`s; a sorted table maps external [`VertexId`]s to
//! internal indices (with an O(1) fast path when external ids are already
//! dense `0..n`).

use crate::edgelist::{Edge, EdgeListGraph, VertexId, Weight};
use crate::GraphError;
use graphalytics_parallel as par;

/// Dense internal vertex index.
pub type Vid = u32;

/// A CSR graph. For undirected graphs every edge is materialized as two
/// arcs, so `neighbors(v)` is symmetric. For directed graphs both out- and
/// in-adjacency are stored to support reverse traversal (needed by several
/// platform engines).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    /// Sorted external ids; `ext_ids[i]` is the external id of internal `i`.
    ext_ids: Vec<VertexId>,
    /// True when `ext_ids == 0..n`, enabling O(1) id lookups.
    dense_ids: bool,
    /// Out-adjacency offsets (`n + 1` entries).
    out_offsets: Vec<usize>,
    /// Out-adjacency targets, sorted within each vertex's range.
    out_targets: Vec<Vid>,
    /// Per-arc weights, parallel to `out_targets`.
    out_weights: Vec<Weight>,
    /// In-adjacency offsets; empty for undirected graphs.
    in_offsets: Vec<usize>,
    /// In-adjacency sources; empty for undirected graphs.
    in_targets: Vec<Vid>,
    /// Per-arc weights, parallel to `in_targets`; empty for undirected.
    in_weights: Vec<Weight>,
    /// Logical edge count (undirected edges count once).
    num_edges: usize,
    /// Smallest arc weight; `Weight::MAX` when there is no arc.
    min_weight: Weight,
    directed: bool,
}

/// One placement instruction: put `target` into the adjacency run of the
/// vertex at `slot`.
type Placement = (Vid, Vid);

/// Builds one adjacency side — offsets, targets and the weights parallel
/// to the targets — in one counting pass and one fill pass over pre-sized
/// arrays:
///
/// 1. **per-chunk degree counting** — each worker counts its fixed edge
///    chunk into a private array;
/// 2. **prefix-sum placement** — per-chunk counts are turned into exclusive
///    per-chunk cursors (column-wise prefix over the chunk dimension), so
///    every worker writes each of its arcs, with the weight of the edge
///    behind it, to a slot no other worker touches.
///
/// Chunk `c`'s cursors start after every arc of chunks `0..c`, so each run
/// holds its arcs in edge-list order whatever the chunking: the arrays are
/// independent of the thread count. That order is also sorted, so no run
/// needs a sort: `edges` is strictly ascending by `(s, t)` (the invariant
/// of [`EdgeListGraph`]), the id map is monotone, and `emit` places `t` in
/// row `s` and/or `s` in row `t`. A row `s` receives its targets `t` in
/// ascending order, a row `t` its sources `s` in ascending order, and an
/// undirected row `v` gets the sources `s < v` of its edges `(s, v)` before
/// the targets `t > v` of its edges `(v, t)`, because every `(s, v)`
/// precedes every `(v, t)` in the edge list.
fn build_adjacency<E>(
    threads: usize,
    n: usize,
    edges: &[Edge],
    weights: &[Weight],
    emit: E,
) -> (Vec<usize>, Vec<Vid>, Vec<Weight>)
where
    E: Fn(&Edge) -> (Placement, Option<Placement>) + Sync,
{
    let m = edges.len();
    let edge_chunks = par::chunk_ranges(m, threads);

    // Phase 1: fixed-chunk degree counting into per-chunk arrays.
    let mut chunk_counts: Vec<Vec<u32>> = par::map_chunks(threads, m, |_, range| {
        let mut cnt = vec![0u32; n];
        for e in &edges[range] {
            let (a, b) = emit(e);
            cnt[a.0 as usize] += 1;
            if let Some(b) = b {
                cnt[b.0 as usize] += 1;
            }
        }
        cnt
    });

    // Phase 2a: column-wise exclusive prefix over the chunk dimension —
    // chunk c's count for vertex v becomes the number of arcs earlier
    // chunks place into v's run, and `totals[v]` becomes v's degree.
    let mut totals = vec![0usize; n];
    {
        let columns: Vec<par::SharedSlice<u32>> = chunk_counts
            .iter_mut()
            .map(|c| par::SharedSlice::new(c))
            .collect();
        par::for_each_chunk_mut(threads, &mut totals, |_, start, slice| {
            for (off, slot) in slice.iter_mut().enumerate() {
                let v = start + off;
                let mut run = 0u32;
                for col in &columns {
                    // SAFETY[36243a01]: vertex column `v` belongs to
                    // exactly one chunk of `totals`, so only this worker
                    // touches index `v` of any per-chunk count array.
                    let c = unsafe { col.read(v) };
                    // SAFETY[c1a535cb]: same column-ownership argument.
                    unsafe { col.write(v, run) };
                    run += c;
                }
                *slot = run as usize;
            }
        });
    }

    let mut offsets = vec![0usize; n + 1];
    for v in 0..n {
        offsets[v + 1] = offsets[v] + totals[v];
    }

    // Phase 2b: placement. Worker c scatters its edge chunk, target and
    // weight alike, to `offsets[v] + chunk_cursor[v]` — disjoint slots by
    // construction.
    let mut targets = vec![0 as Vid; offsets[n]];
    let mut arc_weights = vec![0 as Weight; offsets[n]];
    {
        let target_slots = par::SharedSlice::new(&mut targets);
        let weight_slots = par::SharedSlice::new(&mut arc_weights);
        let nchunks = chunk_counts.len();
        par::for_each_chunk_mut(nchunks, &mut chunk_counts, |_, first, mine| {
            for (off, cursors) in mine.iter_mut().enumerate() {
                let range = edge_chunks[first + off].clone();
                for (e, &w) in edges[range.clone()].iter().zip(&weights[range]) {
                    let (a, b) = emit(e);
                    for (slot, target) in std::iter::once(a).chain(b) {
                        let pos = offsets[slot as usize] + cursors[slot as usize] as usize;
                        cursors[slot as usize] += 1;
                        // SAFETY[573894ae]: `pos` lies in the half-open
                        // cursor range this chunk owns within vertex
                        // `slot`'s run; the ranges of distinct
                        // (chunk, vertex) pairs are disjoint, and neither
                        // array is read until the scope joins.
                        unsafe {
                            target_slots.write(pos, target);
                            weight_slots.write(pos, w);
                        }
                    }
                }
            }
        });
    }
    debug_assert!(
        (0..n).all(|v| targets[offsets[v]..offsets[v + 1]]
            .windows(2)
            .all(|w| w[0] < w[1])),
        "edge-order placement left an adjacency run unsorted"
    );

    (offsets, targets, arc_weights)
}

impl CsrGraph {
    /// Builds a CSR graph from an edge list (single-threaded).
    pub fn from_edge_list(g: &EdgeListGraph) -> Self {
        Self::from_edge_list_with_threads(g, 1)
    }

    /// Builds a CSR graph from an edge list on up to `threads` workers.
    ///
    /// Deterministic: the resulting structure is byte-identical for every
    /// thread count (see [`build_adjacency`] — each arc is placed, with its
    /// edge's weight beside it, in edge-list order, which leaves no trace
    /// of the chunking in the final arrays).
    pub fn from_edge_list_with_threads(g: &EdgeListGraph, threads: usize) -> Self {
        let threads = threads.max(1);
        let ext_ids = g.vertices().to_vec();
        let n = ext_ids.len();
        let dense_ids = ext_ids.iter().enumerate().all(|(i, &v)| v == i as u64);
        let lookup = |v: VertexId| -> Vid {
            if dense_ids {
                v as Vid
            } else {
                // Edge endpoints are guaranteed present by EdgeListGraph.
                ext_ids.binary_search(&v).expect("endpoint in vertex set") as Vid
            }
        };

        let directed = g.is_directed();
        let (edges, weights) = (g.edges(), g.weights());
        let (out_offsets, out_targets, out_weights) = if directed {
            build_adjacency(threads, n, edges, weights, |&(s, t)| {
                ((lookup(s), lookup(t)), None)
            })
        } else {
            build_adjacency(threads, n, edges, weights, |&(s, t)| {
                let (si, ti) = (lookup(s), lookup(t));
                ((si, ti), Some((ti, si)))
            })
        };
        let (in_offsets, in_targets, in_weights) = if directed {
            build_adjacency(threads, n, edges, weights, |&(s, t)| {
                ((lookup(t), lookup(s)), None)
            })
        } else {
            (Vec::new(), Vec::new(), Vec::new())
        };

        Self {
            ext_ids,
            dense_ids,
            out_offsets,
            out_targets,
            out_weights,
            in_offsets,
            in_targets,
            in_weights,
            num_edges: g.num_edges(),
            min_weight: weights.iter().copied().min().unwrap_or(Weight::MAX),
            directed,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.ext_ids.len()
    }

    /// Logical edge count (undirected edges count once).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Number of stored arcs (2·E for undirected, E for directed out-side).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.out_targets.len()
    }

    /// Whether the graph is directed.
    #[inline]
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// External id of internal vertex `v`.
    #[inline]
    pub fn external_id(&self, v: Vid) -> VertexId {
        self.ext_ids[v as usize]
    }

    /// Internal index of external id `v`, if present.
    #[inline]
    pub fn internal_id(&self, v: VertexId) -> Option<Vid> {
        if self.dense_ids {
            if (v as usize) < self.ext_ids.len() {
                Some(v as Vid)
            } else {
                None
            }
        } else {
            self.ext_ids.binary_search(&v).ok().map(|i| i as Vid)
        }
    }

    /// Out-neighbors (all neighbors for undirected graphs), sorted.
    #[inline]
    pub fn neighbors(&self, v: Vid) -> &[Vid] {
        &self.out_targets[self.out_offsets[v as usize]..self.out_offsets[v as usize + 1]]
    }

    /// In-neighbors. For undirected graphs this equals [`Self::neighbors`].
    #[inline]
    pub fn in_neighbors(&self, v: Vid) -> &[Vid] {
        if self.directed {
            &self.in_targets[self.in_offsets[v as usize]..self.in_offsets[v as usize + 1]]
        } else {
            self.neighbors(v)
        }
    }

    /// True if any arc carries a non-unit weight (the CSR of an unweighted
    /// graph carries [`WEIGHT_SCALE`](crate::WEIGHT_SCALE) everywhere).
    pub fn is_weighted(&self) -> bool {
        self.out_weights.iter().any(|&w| w != crate::WEIGHT_SCALE)
    }

    /// Smallest arc weight, `Weight::MAX` when the graph has no arc: the
    /// least any one hop adds to a path. Folded once at construction.
    #[inline]
    pub fn min_weight(&self) -> Weight {
        self.min_weight
    }

    /// Weights of the out-arcs of `v`, parallel to [`Self::neighbors`].
    #[inline]
    pub fn neighbor_weights(&self, v: Vid) -> &[Weight] {
        &self.out_weights[self.out_offsets[v as usize]..self.out_offsets[v as usize + 1]]
    }

    /// Weights of the in-arcs of `v`, parallel to [`Self::in_neighbors`].
    #[inline]
    pub fn in_neighbor_weights(&self, v: Vid) -> &[Weight] {
        if self.directed {
            &self.in_weights[self.in_offsets[v as usize]..self.in_offsets[v as usize + 1]]
        } else {
            self.neighbor_weights(v)
        }
    }

    /// Out-degree (total degree for undirected graphs).
    #[inline]
    pub fn degree(&self, v: Vid) -> usize {
        self.out_offsets[v as usize + 1] - self.out_offsets[v as usize]
    }

    /// In-degree.
    #[inline]
    pub fn in_degree(&self, v: Vid) -> usize {
        if self.directed {
            self.in_offsets[v as usize + 1] - self.in_offsets[v as usize]
        } else {
            self.degree(v)
        }
    }

    /// Membership test via binary search over the sorted adjacency run.
    #[inline]
    pub fn has_arc(&self, s: Vid, t: Vid) -> bool {
        self.neighbors(s).binary_search(&t).is_ok()
    }

    /// Iterator over all internal vertex indices.
    pub fn vertex_ids(&self) -> impl Iterator<Item = Vid> + '_ {
        (0..self.num_vertices() as Vid).filter(move |_| true)
    }

    /// Degree sequence (out-degrees), indexed by internal id.
    pub fn degrees(&self) -> Vec<usize> {
        (0..self.num_vertices() as Vid)
            .map(|v| self.degree(v))
            .collect()
    }

    /// Approximate resident memory of the structure in bytes, used by the
    /// platform engines' memory-budget accounting.
    pub fn memory_footprint(&self) -> usize {
        self.ext_ids.len() * std::mem::size_of::<VertexId>()
            + (self.out_offsets.len() + self.in_offsets.len()) * std::mem::size_of::<usize>()
            + (self.out_targets.len() + self.in_targets.len()) * std::mem::size_of::<Vid>()
            + (self.out_weights.len() + self.in_weights.len()) * std::mem::size_of::<Weight>()
    }

    /// Converts back to an edge list (used in round-trip tests and by the
    /// rewiring post-processor).
    pub fn to_edge_list(&self) -> EdgeListGraph {
        let mut edges = Vec::with_capacity(self.num_edges);
        for v in 0..self.num_vertices() as Vid {
            for (&t, &w) in self.neighbors(v).iter().zip(self.neighbor_weights(v)) {
                if self.directed || v < t {
                    edges.push((self.external_id(v), self.external_id(t), w));
                }
            }
        }
        EdgeListGraph::new_weighted(self.ext_ids.clone(), edges, self.directed)
    }

    /// Structural invariant checks for tests and the validator.
    pub fn validate(&self) -> Result<(), GraphError> {
        let n = self.num_vertices();
        if self.out_offsets.len() != n + 1 {
            return Err(GraphError::Invariant("bad offsets length".into()));
        }
        if self.out_offsets[n] != self.out_targets.len() {
            return Err(GraphError::Invariant("offsets/targets mismatch".into()));
        }
        if self.out_weights.len() != self.out_targets.len()
            || self.in_weights.len() != self.in_targets.len()
        {
            return Err(GraphError::Invariant("weights/targets mismatch".into()));
        }
        for v in 0..n as Vid {
            let run = self.neighbors(v);
            if run.windows(2).any(|w| w[0] >= w[1]) {
                return Err(GraphError::Invariant(format!(
                    "adjacency of {v} not strictly sorted"
                )));
            }
            if run.iter().any(|&t| t as usize >= n) {
                return Err(GraphError::Invariant(format!(
                    "adjacency of {v} references out-of-range vertex"
                )));
            }
            if !self.directed {
                for &t in run {
                    if !self.has_arc(t, v) {
                        return Err(GraphError::Invariant(format!(
                            "undirected arc ({v}, {t}) missing reverse"
                        )));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph() -> CsrGraph {
        // 0 - 1 - 2 - 3 undirected path.
        CsrGraph::from_edge_list(&EdgeListGraph::undirected_from_edges(vec![
            (0, 1),
            (1, 2),
            (2, 3),
        ]))
    }

    #[test]
    fn undirected_symmetry() {
        let g = path_graph();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_arcs(), 6);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.in_neighbors(1), &[0, 2]);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        g.validate().unwrap();
    }

    #[test]
    fn directed_in_out() {
        let g = CsrGraph::from_edge_list(&EdgeListGraph::directed_from_edges(vec![
            (0, 1),
            (0, 2),
            (2, 1),
        ]));
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[] as &[Vid]);
        assert_eq!(g.in_neighbors(1), &[0, 2]);
        assert_eq!(g.in_degree(1), 2);
        assert_eq!(g.degree(1), 0);
        g.validate().unwrap();
    }

    #[test]
    fn sparse_external_ids_map_correctly() {
        let g = CsrGraph::from_edge_list(&EdgeListGraph::undirected_from_edges(vec![
            (100, 200),
            (200, 300),
        ]));
        assert_eq!(g.num_vertices(), 3);
        let v100 = g.internal_id(100).unwrap();
        let v200 = g.internal_id(200).unwrap();
        assert!(g.has_arc(v100, v200));
        assert_eq!(g.external_id(v200), 200);
        assert_eq!(g.internal_id(150), None);
        g.validate().unwrap();
    }

    #[test]
    fn dense_id_fast_path() {
        let g = path_graph();
        assert_eq!(g.internal_id(2), Some(2));
        assert_eq!(g.internal_id(99), None);
    }

    #[test]
    fn round_trip_edge_list() {
        let el = EdgeListGraph::undirected_from_edges(vec![(5, 1), (1, 3), (3, 5), (7, 1)]);
        let csr = CsrGraph::from_edge_list(&el);
        assert_eq!(csr.to_edge_list(), el);
        let dir = EdgeListGraph::directed_from_edges(vec![(5, 1), (1, 3), (3, 5)]);
        let csr = CsrGraph::from_edge_list(&dir);
        assert_eq!(csr.to_edge_list(), dir);
    }

    #[test]
    fn isolated_vertices_have_empty_adjacency() {
        let el = EdgeListGraph::new(vec![0, 1, 2, 9], vec![(0, 1)], false);
        let g = CsrGraph::from_edge_list(&el);
        let v9 = g.internal_id(9).unwrap();
        assert_eq!(g.neighbors(v9), &[] as &[Vid]);
        assert_eq!(g.degree(v9), 0);
    }

    #[test]
    fn parallel_construction_is_thread_count_invariant() {
        // Skewed degrees + sparse ids + isolated vertex: the shapes that
        // would expose a chunking bug.
        let mut edges = Vec::new();
        for i in 1..200u64 {
            edges.push((0, i * 3));
            if i % 2 == 0 {
                edges.push((i * 3, (i + 1) * 3));
            }
        }
        for directed in [false, true] {
            let el = EdgeListGraph::new(vec![1], edges.clone(), directed);
            let base = CsrGraph::from_edge_list_with_threads(&el, 1);
            base.validate().unwrap();
            for threads in [2usize, 3, 8] {
                let par = CsrGraph::from_edge_list_with_threads(&el, threads);
                assert_eq!(base, par, "directed={directed} threads={threads}");
            }
        }
    }

    #[test]
    fn parallel_construction_matches_round_trip() {
        let el =
            EdgeListGraph::undirected_from_edges((0..500).map(|i| (i, (i * 7) % 501)).collect());
        let csr = CsrGraph::from_edge_list_with_threads(&el, 4);
        csr.validate().unwrap();
        assert_eq!(csr.to_edge_list(), el);
    }

    #[test]
    fn weights_follow_arcs_on_both_sides() {
        use crate::edgelist::WEIGHT_SCALE;
        let und = EdgeListGraph::new_weighted(
            Vec::new(),
            vec![(0, 1, 100), (1, 2, 200), (0, 2, 300)],
            false,
        );
        let g = CsrGraph::from_edge_list(&und);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbor_weights(1), &[100, 200]);
        assert_eq!(g.in_neighbor_weights(1), &[100, 200]);
        assert_eq!(g.min_weight(), 100);
        assert_eq!(g.to_edge_list(), und);
        g.validate().unwrap();

        let dir = EdgeListGraph::new_weighted(Vec::new(), vec![(0, 1, 5), (2, 1, 7)], true);
        let g = CsrGraph::from_edge_list(&dir);
        assert_eq!(g.neighbor_weights(0), &[5]);
        assert_eq!(g.in_neighbors(1), &[0, 2]);
        assert_eq!(g.in_neighbor_weights(1), &[5, 7]);
        assert_eq!(g.min_weight(), 5);
        assert_eq!(g.to_edge_list(), dir);
        g.validate().unwrap();
        assert!(g.is_weighted());

        // Unweighted construction carries unit weights everywhere.
        let plain = path_graph();
        assert!(plain.neighbor_weights(1).iter().all(|&w| w == WEIGHT_SCALE));
        assert_eq!(plain.min_weight(), WEIGHT_SCALE);
        assert!(!plain.is_weighted());
        let empty = EdgeListGraph::new_weighted(vec![0, 1], Vec::new(), false);
        assert_eq!(CsrGraph::from_edge_list(&empty).min_weight(), Weight::MAX);
    }

    #[test]
    fn weighted_parallel_construction_is_thread_count_invariant() {
        let edges: Vec<(u64, u64, u64)> = (1..300u64)
            .map(|i| (i % 37, i, 1 + (i * 2_654_435_761) % 1_000_000))
            .collect();
        for directed in [false, true] {
            let el = EdgeListGraph::new_weighted(Vec::new(), edges.clone(), directed);
            let base = CsrGraph::from_edge_list_with_threads(&el, 1);
            base.validate().unwrap();
            for threads in [2usize, 8] {
                let par = CsrGraph::from_edge_list_with_threads(&el, threads);
                assert_eq!(base, par, "directed={directed} threads={threads}");
            }
        }
    }

    #[test]
    fn memory_footprint_is_positive_and_scales() {
        let small = path_graph();
        let big = CsrGraph::from_edge_list(&EdgeListGraph::undirected_from_edges(
            (0..100).map(|i| (i, i + 1)).collect(),
        ));
        assert!(big.memory_footprint() > small.memory_footprint());
    }
}
