//! SSSP kernel: single-source shortest paths over fixed-point edge weights
//! — the weighted companion of BFS in the LDBC Graphalytics workload.
//!
//! Weights are `u64` fixed-point values ([`graphalytics_graph::WEIGHT_SCALE`]
//! per unit), so path sums are exact integers: there is a unique shortest
//! distance per vertex and every correct relaxation order converges to it.
//! That is what makes the parallel kernel deterministic by construction.

use crate::frontier::{self, Bitmap};
use graphalytics_graph::{CsrGraph, VertexId, Vid, WEIGHT_SCALE};
use graphalytics_parallel as par;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Distance of an unreachable vertex (including every vertex when the source
/// id is absent from the graph).
pub const INFINITY: u64 = u64::MAX;

/// Fixed-point shortest distance of every vertex from `source` (an external
/// id); [`INFINITY`] when unreachable. Directed graphs relax along out-edges.
///
/// Sequential Dijkstra with a lazy-deletion binary heap — the reference
/// oracle the platform kernels are validated against.
pub fn sssp(g: &CsrGraph, source: VertexId) -> Vec<u64> {
    let mut dist = vec![INFINITY; g.num_vertices()];
    let Some(src) = g.internal_id(source) else {
        return dist;
    };
    dist[src as usize] = 0;
    let mut heap: BinaryHeap<Reverse<(u64, Vid)>> = BinaryHeap::new();
    heap.push(Reverse((0, src)));
    while let Some(Reverse((dv, v))) = heap.pop() {
        if dv > dist[v as usize] {
            continue; // Stale heap entry: v was settled at a shorter distance.
        }
        for (&u, &w) in g.neighbors(v).iter().zip(g.neighbor_weights(v)) {
            let nd = dv.saturating_add(w);
            if nd < dist[u as usize] {
                dist[u as usize] = nd;
                heap.push(Reverse((nd, u)));
            }
        }
    }
    dist
}

/// Bucket width for delta-stepping: one weight unit. Unit-weight graphs then
/// degenerate to level-synchronous BFS, and the LDBC datagen's (0, 1] weights
/// keep buckets small.
const DELTA: u64 = WEIGHT_SCALE;

/// One delta-stepping bucket: the vertices queued into it and what the
/// direction rule needs of them, gathered as they are queued.
struct Bucket {
    members: Vec<Vid>,
    /// Out-arcs of the members, once per queued entry.
    arcs: usize,
    /// Lowest and highest distance a member had when it was queued.
    lo: u64,
    hi: u64,
}

impl Bucket {
    const EMPTY: Bucket = Bucket {
        members: Vec::new(),
        arcs: 0,
        lo: INFINITY,
        hi: 0,
    };

    fn push(&mut self, v: Vid, dist: u64, arcs: usize) {
        self.members.push(v);
        self.arcs += arcs;
        self.lo = self.lo.min(dist);
        self.hi = self.hi.max(dist);
    }

    /// The one distance every live member holds, if the bucket is flat.
    /// A member's last decrease queued it at its current distance, so the
    /// live members' distances lie in `lo..=hi`; stale entries can only
    /// widen that range, never narrow it.
    fn flat(&self) -> Option<u64> {
        (self.lo == self.hi).then_some(self.lo)
    }
}

/// Delta-stepping parallel SSSP (Meyer & Sanders) on up to `threads` workers,
/// direction-optimizing as [`bfs_parallel`](crate::bfs::bfs_parallel) is.
///
/// Deterministic: distances only ever decrease through compare-exchange
/// minimum writes, and integer weights admit a unique shortest-distance
/// fixpoint, so the settled values — hence the output — are byte-identical
/// to [`sssp`] for any thread count. Only the relaxation *order* varies.
///
/// A round pushes along its frontier's out-arcs, except when its live
/// members all hold one distance `f` and the frontier is big by
/// [`frontier::pulls`]: then every vertex farther than `f + w_min`
/// ([`CsrGraph::min_weight`]) takes the minimum of `f + w` over its in-arcs
/// from the frontier bitmap. Nothing a pull round writes is read in it —
/// frontier distances cannot drop below `f` — so it computes what a push
/// round would. Improved vertices are queued once each, in vertex order:
/// a push round's are sorted and deduplicated, a pull round's come out so.
pub fn sssp_parallel(g: &CsrGraph, source: VertexId, threads: usize) -> Vec<u64> {
    delta_stepping(g, source, threads).0
}

/// [`sssp_parallel`]'s distances and the number of rounds that pulled.
fn delta_stepping(g: &CsrGraph, source: VertexId, threads: usize) -> (Vec<u64>, usize) {
    let threads = threads.max(1);
    let n = g.num_vertices();
    let Some(src) = g.internal_id(source) else {
        return (vec![INFINITY; n], 0);
    };

    let dist: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(INFINITY)).collect();
    dist[src as usize].store(0, Ordering::Relaxed);
    let mut buckets = vec![Bucket::EMPTY];
    buckets[0].push(src, 0, g.degree(src));
    // Arcs no round has pushed from yet: the unreached vertices' and each
    // queued entry's. BFS's count, when every vertex is queued once.
    let mut unexplored_arcs = g.num_arcs();
    let mut reached = Bitmap::new(n);
    reached.insert(src);
    let w_min = g.min_weight();
    let mut members = Bitmap::new(n);
    let mut pull_rounds = 0;
    let mut i = 0usize;

    while i < buckets.len() {
        // A vertex can be re-relaxed into a later bucket after being queued;
        // settle the bucket by draining it until no member re-enters it.
        while !buckets[i].members.is_empty() {
            let frontier = std::mem::replace(&mut buckets[i], Bucket::EMPTY);
            let pull = frontier.flat().filter(|_| {
                frontier::pulls(frontier.arcs, unexplored_arcs, frontier.members.len(), n)
            });
            unexplored_arcs -= frontier.arcs;
            let parts: Vec<Vec<Vid>> = if let Some(f) = pull {
                pull_rounds += 1;
                let live = |&v: &Vid| dist[v as usize].load(Ordering::Relaxed) == f;
                members.fill(frontier.members.iter().copied().filter(live));
                let members = &members;
                // No hop from the frontier lands below `bound`.
                let bound = f.saturating_add(w_min);
                par::map_chunks(threads, n, |_, range| {
                    let mut improved = Vec::new();
                    for v in range {
                        let dv = dist[v].load(Ordering::Relaxed);
                        if dv <= bound {
                            continue;
                        }
                        let mut best = dv;
                        let arcs = g.in_neighbors(v as Vid).iter();
                        for (&u, &w) in arcs.zip(g.in_neighbor_weights(v as Vid)) {
                            if members.contains(u) {
                                best = best.min(f.saturating_add(w));
                                if best <= bound {
                                    break;
                                }
                            }
                        }
                        if best < dv {
                            dist[v].store(best, Ordering::Relaxed);
                            improved.push(v as Vid);
                        }
                    }
                    improved
                })
            } else {
                let frontier = &frontier.members;
                par::map_chunks(threads, frontier.len(), |_, range| {
                    let mut relaxed = Vec::new();
                    for &v in &frontier[range] {
                        let dv = dist[v as usize].load(Ordering::Relaxed);
                        if dv == INFINITY || dv / DELTA != i as u64 {
                            continue; // Stale entry: v moved to another bucket.
                        }
                        for (&u, &w) in g.neighbors(v).iter().zip(g.neighbor_weights(v)) {
                            let nd = dv.saturating_add(w);
                            let mut cur = dist[u as usize].load(Ordering::Relaxed);
                            while nd < cur {
                                match dist[u as usize].compare_exchange_weak(
                                    cur,
                                    nd,
                                    Ordering::Relaxed,
                                    Ordering::Relaxed,
                                ) {
                                    Ok(_) => {
                                        relaxed.push(u);
                                        break;
                                    }
                                    Err(seen) => cur = seen,
                                }
                            }
                        }
                    }
                    relaxed
                })
            };
            let mut updates = parts.concat();
            if pull.is_none() {
                updates.sort_unstable();
                updates.dedup();
            }
            // Requeue each improved vertex once, into the bucket of its
            // *current* distance (it may have been lowered again since).
            for u in updates {
                let du = dist[u as usize].load(Ordering::Relaxed);
                let b = (du / DELTA) as usize;
                if b >= buckets.len() {
                    buckets.resize_with(b + 1, || Bucket::EMPTY);
                }
                if b >= i {
                    let arcs = g.degree(u);
                    buckets[b].push(u, du, arcs);
                    // A first entry's arcs were counted as unreached.
                    if !reached.insert(u) {
                        unexplored_arcs += arcs;
                    }
                }
            }
        }
        i += 1;
    }

    let dist = dist.into_iter().map(AtomicU64::into_inner).collect();
    (dist, pull_rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphalytics_datagen::{rmat, RmatConfig};
    use graphalytics_graph::EdgeListGraph;

    fn w(units: u64) -> u64 {
        units * WEIGHT_SCALE
    }

    fn weighted_csr(edges: Vec<(u64, u64, u64)>, directed: bool) -> CsrGraph {
        CsrGraph::from_edge_list(&EdgeListGraph::new_weighted(Vec::new(), edges, directed))
    }

    #[test]
    fn path_distances_accumulate_weights() {
        let g = weighted_csr(vec![(0, 1, w(2)), (1, 2, w(3)), (2, 3, w(1))], false);
        assert_eq!(sssp(&g, 0), vec![0, w(2), w(5), w(6)]);
        assert_eq!(sssp(&g, 2), vec![w(5), w(3), 0, w(1)]);
    }

    #[test]
    fn shortcut_beats_fewer_hops() {
        // 0 -> 2 directly costs 10; the two-hop detour costs 3.
        let g = weighted_csr(vec![(0, 2, w(10)), (0, 1, w(1)), (1, 2, w(2))], false);
        assert_eq!(sssp(&g, 0)[2], w(3));
    }

    #[test]
    fn unreachable_vertices_get_infinity() {
        let g = weighted_csr(vec![(0, 1, w(1)), (2, 3, w(1))], false);
        assert_eq!(sssp(&g, 0), vec![0, w(1), INFINITY, INFINITY]);
    }

    #[test]
    fn missing_source_returns_all_infinite() {
        let g = weighted_csr(vec![(0, 1, w(1))], false);
        assert_eq!(sssp(&g, 99), vec![INFINITY, INFINITY]);
    }

    #[test]
    fn directed_respects_orientation() {
        let g = weighted_csr(vec![(0, 1, w(1)), (1, 2, w(1)), (2, 0, w(1))], true);
        assert_eq!(sssp(&g, 1), vec![w(2), 0, w(1)]);
    }

    #[test]
    fn unit_weights_reduce_to_scaled_bfs() {
        let g = CsrGraph::from_edge_list(&EdgeListGraph::undirected_from_edges(vec![
            (0, 1),
            (1, 2),
            (2, 3),
        ]));
        assert_eq!(sssp(&g, 0), vec![0, w(1), w(2), w(3)]);
    }

    #[test]
    fn sub_unit_weights_split_buckets() {
        // Fractional weights force multiple relaxations inside one bucket.
        let g = weighted_csr(
            vec![
                (0, 1, 300_000),
                (1, 2, 300_000),
                (2, 3, 300_000),
                (0, 3, 2_000_000),
            ],
            false,
        );
        let d = sssp(&g, 0);
        assert_eq!(d[3], 900_000);
        for threads in [1usize, 2, 8] {
            assert_eq!(sssp_parallel(&g, 0, threads), d);
        }
    }

    /// Hubs, a weighted path tail, and a disconnected part — exercises bucket
    /// progression, stale entries, and INFINITY propagation.
    fn mixed_shape() -> CsrGraph {
        let mut edges: Vec<(u64, u64, u64)> = (1..60).map(|i| (0, i, w(i % 5 + 1))).collect();
        edges.extend((60..120).map(|i| (i, i + 1, 400_000 + 100_000 * (i % 7))));
        edges.push((30, 60, w(2)));
        edges.extend([(200, 201, w(1)), (201, 202, w(4))]);
        weighted_csr(edges, false)
    }

    #[test]
    fn parallel_matches_sequential_bytewise() {
        let g = mixed_shape();
        for source in [0u64, 90, 200, 999] {
            let seq = sssp(&g, source);
            for threads in [1usize, 2, 8] {
                assert_eq!(
                    sssp_parallel(&g, source, threads),
                    seq,
                    "source={source} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn parallel_matches_sequential_on_directed() {
        let g = weighted_csr(
            vec![
                (0, 1, w(3)),
                (1, 2, w(1)),
                (2, 0, w(2)),
                (0, 3, 500_000),
                (3, 4, w(7)),
                (5, 0, w(1)),
            ],
            true,
        );
        for source in [0u64, 5] {
            for threads in [1usize, 4] {
                assert_eq!(sssp_parallel(&g, source, threads), sssp(&g, source));
            }
        }
    }

    /// A 0.3-unit path off hub leaf 1 re-enters bucket 1 round after round.
    /// Vertex 150 is lowered from the hub (to bucket 40) and again, rounds
    /// later, by the path, so it must re-enter an earlier bucket; vertex 151
    /// behind it shows whether it did. Fifty leaves lower vertex 160 in one
    /// round, each by less, and vertex 199 ends a 200-vertex id range.
    fn frontier_shape() -> CsrGraph {
        let mut edges: Vec<(u64, u64, u64)> = (1..=100).map(|i| (0, i, w(1))).collect();
        edges.extend((1..=50).map(|k| (k, 160, w(2) - k * 10_000)));
        edges.push((1, 101, 300_000));
        edges.extend((101..130).map(|i| (i, i + 1, 300_000)));
        edges.extend([(0, 150, w(40)), (110, 150, 100_000), (150, 151, w(1))]);
        edges.extend([(0, 199, w(1)), (199, 198, 1)]);
        CsrGraph::from_edge_list(&EdgeListGraph::new_weighted(
            (0..200).collect(),
            edges,
            false,
        ))
    }

    #[test]
    fn frontier_matches_dijkstra_with_sub_unit_weights() {
        let g = frontier_shape();
        for source in [0u64, 115, 199] {
            let expected = sssp(&g, source);
            for threads in [1usize, 2, 3, 8] {
                let first = sssp_parallel(&g, source, threads);
                assert_eq!(first, expected, "source={source} threads={threads}");
                assert_eq!(sssp_parallel(&g, source, threads), first);
            }
        }
    }

    #[test]
    fn parallel_handles_empty_graph() {
        let g = weighted_csr(vec![], false);
        assert!(sssp_parallel(&g, 0, 4).is_empty());
    }

    /// Graph500 12's edges over ids `id(v)`, each weighted `weight(s, t)`.
    fn graph500(
        directed: bool,
        id: impl Fn(u64) -> u64,
        weight: impl Fn(u64, u64) -> u64,
    ) -> CsrGraph {
        let el = rmat::generate(&RmatConfig::graph500(12, 7));
        let edges = el.edges().iter();
        let edges = edges.map(|&(s, t)| (id(s), id(t), weight(s, t))).collect();
        let vertices = el.vertices().iter().map(|&v| id(v)).collect();
        CsrGraph::from_edge_list(&EdgeListGraph::new_weighted(vertices, edges, directed))
    }

    /// Checks [`sssp_parallel`] against [`sssp`] at 1, 2 and 8 threads from
    /// the highest-degree vertex and two more with arcs; returns the fewest
    /// rounds any of those runs pulled.
    fn pull_rounds_matching_dijkstra(g: &CsrGraph) -> usize {
        let hub = (0..g.num_vertices() as Vid)
            .max_by_key(|&v| g.degree(v))
            .unwrap();
        let others = (0..g.num_vertices() as Vid).filter(|&v| g.degree(v) > 0);
        let sources = std::iter::once(hub).chain(others.step_by(997).take(2));
        let mut fewest = usize::MAX;
        for source in sources.map(|v| g.external_id(v)) {
            let expected = sssp(g, source);
            for threads in [1usize, 2, 8] {
                let (got, pulls) = delta_stepping(g, source, threads);
                assert_eq!(got, expected, "source={source} threads={threads}");
                fewest = fewest.min(pulls);
            }
        }
        fewest
    }

    #[test]
    fn pull_rounds_match_dijkstra_on_unit_weights() {
        let g = graph500(false, |v| v, |_, _| w(1));
        assert!(!g.is_weighted());
        assert!(pull_rounds_matching_dijkstra(&g) > 0);
    }

    #[test]
    fn pull_rounds_match_dijkstra_on_three_unit_weights() {
        let g = graph500(false, |v| v, |_, _| w(3));
        assert!(pull_rounds_matching_dijkstra(&g) > 0);
    }

    /// Every distance is a whole number of units, so every bucket is flat,
    /// but a pull round's candidates differ in their cost to the frontier.
    #[test]
    fn pull_rounds_match_dijkstra_on_one_and_two_unit_weights() {
        let g = graph500(false, |v| v, |s, t| w((s ^ t) % 2 + 1));
        assert!(pull_rounds_matching_dijkstra(&g) > 0);
    }

    /// In-arcs differ from out-arcs: a pull must scan the former.
    #[test]
    fn pull_rounds_match_dijkstra_on_a_directed_graph() {
        let g = graph500(true, |v| v, |s, t| w((s + t) % 2 + 1));
        assert!(pull_rounds_matching_dijkstra(&g) > 0);
    }

    #[test]
    fn pull_rounds_match_dijkstra_on_sparse_ids() {
        let g = graph500(false, |v| v * 5 + 11, |_, _| w(1));
        assert!(pull_rounds_matching_dijkstra(&g) > 0);
    }

    /// The micro-unit weights of the root determinism suite's SSSP graph
    /// never leave a big round flat, so every round pushes.
    #[test]
    fn micro_weights_never_pull() {
        let el = graphalytics_datagen::generate(&graphalytics_datagen::DatagenConfig::new(500, 7));
        let edges = el.edges().iter();
        let edges = edges
            .map(|&(u, v)| (u, v, (u * 13 + v * 7) % 11 + 1))
            .collect();
        let g = weighted_csr(edges, false);
        let expected = sssp(&g, 0);
        for threads in [1usize, 8] {
            assert_eq!(delta_stepping(&g, 0, threads), (expected.clone(), 0));
        }
    }

    #[test]
    fn sparse_external_ids() {
        let g = weighted_csr(vec![(100, 200, w(2)), (200, 300, w(3))], false);
        // Internal order is [100, 200, 300].
        assert_eq!(sssp(&g, 200), vec![w(2), 0, w(3)]);
    }
}
