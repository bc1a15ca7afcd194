//! SSSP kernel: single-source shortest paths over fixed-point edge weights
//! — the weighted companion of BFS in the LDBC Graphalytics workload.
//!
//! Weights are `u64` fixed-point values ([`graphalytics_graph::WEIGHT_SCALE`]
//! per unit), so path sums are exact integers: there is a unique shortest
//! distance per vertex and every correct relaxation order converges to it.
//! That is what makes the parallel kernel deterministic by construction.

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

/// Delta-stepping parallel SSSP (Meyer & Sanders) on up to `threads` workers.
///
/// Deterministic: distances only ever decrease through compare-exchange
/// minimum writes, and integer weights admit a unique shortest-distance
/// fixpoint, so the settled values — hence the output — are byte-identical
/// to [`sssp`] for any thread count. Only the relaxation *order* varies.
///
/// Each round's improved vertices are sorted and deduplicated: a frontier
/// in vertex order keeps its CSR reads local.
pub fn sssp_parallel(g: &CsrGraph, source: VertexId, threads: usize) -> Vec<u64> {
    let threads = threads.max(1);
    let n = g.num_vertices();
    let Some(src) = g.internal_id(source) else {
        return vec![INFINITY; n];
    };

    let dist: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(INFINITY)).collect();
    dist[src as usize].store(0, Ordering::Relaxed);
    let mut buckets: Vec<Vec<Vid>> = vec![vec![src]];
    let mut i = 0usize;

    while i < buckets.len() {
        // A vertex can be re-relaxed into a later bucket after being queued;
        // settle the bucket by draining it until no member re-enters it.
        while !buckets[i].is_empty() {
            let frontier = std::mem::take(&mut buckets[i]);
            let parts: Vec<Vec<Vid>> = par::map_chunks(threads, frontier.len(), |_, range| {
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
            });
            // Requeue each improved vertex once, into the bucket of its
            // *current* distance (it may have been lowered again since).
            let mut updates = parts.concat();
            updates.sort_unstable();
            updates.dedup();
            for u in updates {
                let du = dist[u as usize].load(Ordering::Relaxed);
                let b = (du / DELTA) as usize;
                if b >= buckets.len() {
                    buckets.resize_with(b + 1, Vec::new);
                }
                if b >= i {
                    buckets[b].push(u);
                }
            }
        }
        i += 1;
    }

    dist.into_iter().map(AtomicU64::into_inner).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn sparse_external_ids() {
        let g = weighted_csr(vec![(100, 200, w(2)), (200, 300, w(3))], false);
        // Internal order is [100, 200, 300].
        assert_eq!(sssp(&g, 200), vec![w(2), 0, w(3)]);
    }
}
