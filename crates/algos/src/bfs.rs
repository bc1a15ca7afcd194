//! BFS kernel: level-synchronous breadth-first search "starting from a seed
//! vertex, visiting first all the neighbors of a vertex before moving to the
//! neighbors of the neighbors" (paper §3.2).

use crate::frontier::{self, Bitmap};
use graphalytics_graph::{CsrGraph, VertexId, Vid};
use graphalytics_parallel as par;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicI64, Ordering};

/// Depth of every vertex from `source` (an external id); `-1` when
/// unreachable (including when `source` itself is absent from the graph).
/// Directed graphs are traversed along out-edges.
pub fn bfs(g: &CsrGraph, source: VertexId) -> Vec<i64> {
    let mut depths = vec![-1i64; g.num_vertices()];
    let Some(src) = g.internal_id(source) else {
        return depths;
    };
    let mut queue = VecDeque::new();
    depths[src as usize] = 0;
    queue.push_back(src);
    while let Some(v) = queue.pop_front() {
        let next = depths[v as usize] + 1;
        for &u in g.neighbors(v) {
            if depths[u as usize] < 0 {
                depths[u as usize] = next;
                queue.push_back(u);
            }
        }
    }
    depths
}

/// Direction-optimizing parallel BFS (push/pull, Beamer et al.) on up to
/// `threads` workers, switching by [`frontier::pulls`].
///
/// Deterministic: level-synchronous rounds assign every vertex the same
/// depth as [`bfs`] no matter the thread count — top-down claims race only
/// through compare-exchange writes of the *same* level value, and the
/// direction heuristic depends only on deterministic quantities (frontier
/// arc counts). Output is byte-identical to the sequential kernel.
pub fn bfs_parallel(g: &CsrGraph, source: VertexId, threads: usize) -> Vec<i64> {
    let threads = threads.max(1);
    let n = g.num_vertices();
    let Some(src) = g.internal_id(source) else {
        return vec![-1; n];
    };

    let depths: Vec<AtomicI64> = (0..n).map(|_| AtomicI64::new(-1)).collect();
    depths[src as usize].store(0, Ordering::Relaxed);
    let mut frontier: Vec<Vid> = vec![src];
    let mut scout_arcs = g.degree(src);
    let mut edges_to_check = g.num_arcs();
    let mut level = 0i64;
    let mut members = Bitmap::new(n);

    while !frontier.is_empty() {
        let next_level = level + 1;
        let bottom_up = frontier::pulls(scout_arcs, edges_to_check, frontier.len(), n);
        edges_to_check = edges_to_check.saturating_sub(scout_arcs);

        let parts: Vec<(Vec<Vid>, usize)> = if bottom_up {
            // Pull: every unvisited vertex scans its in-neighbors for a
            // frontier member in the bitmap; only the owning worker writes
            // its depth.
            members.fill(frontier.iter().copied());
            let members = &members;
            par::map_chunks(threads, n, |_, range| {
                let mut local = Vec::new();
                let mut arcs = 0usize;
                for v in range {
                    if depths[v].load(Ordering::Relaxed) >= 0 {
                        continue;
                    }
                    let hit = g
                        .in_neighbors(v as Vid)
                        .iter()
                        .any(|&u| members.contains(u));
                    if hit {
                        depths[v].store(next_level, Ordering::Relaxed);
                        local.push(v as Vid);
                        arcs += g.degree(v as Vid);
                    }
                }
                (local, arcs)
            })
        } else {
            // Push: frontier chunks claim unvisited out-neighbors. The
            // compare-exchange winner is scheduling-dependent; the stored
            // value is not.
            let frontier = &frontier;
            par::map_chunks(threads, frontier.len(), |_, range| {
                let mut local = Vec::new();
                let mut arcs = 0usize;
                for &v in &frontier[range] {
                    for &u in g.neighbors(v) {
                        if depths[u as usize]
                            .compare_exchange(-1, next_level, Ordering::Relaxed, Ordering::Relaxed)
                            .is_ok()
                        {
                            local.push(u);
                            arcs += g.degree(u);
                        }
                    }
                }
                (local, arcs)
            })
        };

        frontier = Vec::with_capacity(parts.iter().map(|(p, _)| p.len()).sum());
        scout_arcs = 0;
        for (part, arcs) in parts {
            frontier.extend(part);
            scout_arcs += arcs;
        }
        level = next_level;
    }

    depths.into_iter().map(AtomicI64::into_inner).collect()
}

/// Number of edges traversed by a BFS from `source`: the sum of the degrees
/// of all reached vertices — the Graph500 convention used for the TEPS
/// metric of Figure 5.
pub fn traversed_edges(g: &CsrGraph, depths: &[i64]) -> usize {
    let mut sum = 0usize;
    for v in 0..g.num_vertices() as Vid {
        if depths[v as usize] >= 0 {
            sum += g.degree(v);
        }
    }
    if g.is_directed() {
        sum
    } else {
        sum / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphalytics_graph::EdgeListGraph;

    fn csr(edges: Vec<(u64, u64)>, directed: bool) -> CsrGraph {
        CsrGraph::from_edge_list(&if directed {
            EdgeListGraph::directed_from_edges(edges)
        } else {
            EdgeListGraph::undirected_from_edges(edges)
        })
    }

    #[test]
    fn path_depths() {
        let g = csr(vec![(0, 1), (1, 2), (2, 3)], false);
        assert_eq!(bfs(&g, 0), vec![0, 1, 2, 3]);
        assert_eq!(bfs(&g, 2), vec![2, 1, 0, 1]);
    }

    #[test]
    fn unreachable_vertices_get_minus_one() {
        let g = csr(vec![(0, 1), (2, 3)], false);
        assert_eq!(bfs(&g, 0), vec![0, 1, -1, -1]);
    }

    #[test]
    fn missing_source_returns_all_unreachable() {
        let g = csr(vec![(0, 1)], false);
        assert_eq!(bfs(&g, 99), vec![-1, -1]);
    }

    #[test]
    fn directed_respects_orientation() {
        let g = csr(vec![(0, 1), (1, 2), (2, 0)], true);
        assert_eq!(bfs(&g, 0), vec![0, 1, 2]);
        // From 1: 1 -> 2 -> 0.
        assert_eq!(bfs(&g, 1), vec![2, 0, 1]);
    }

    #[test]
    fn depths_are_shortest_paths() {
        // Diamond: two paths of length 2 from 0 to 3, plus a long detour.
        let g = csr(
            vec![(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 0)],
            false,
        );
        let d = bfs(&g, 0);
        assert_eq!(d[3], 2);
        assert_eq!(d[5], 1); // Via the 5-0 edge.
        assert_eq!(d[4], 2);
    }

    #[test]
    fn traversed_edges_counts_reached_component_only() {
        let g = csr(vec![(0, 1), (1, 2), (3, 4)], false);
        let d = bfs(&g, 0);
        assert_eq!(traversed_edges(&g, &d), 2);
        let g500 = csr(vec![(0, 1), (1, 2), (0, 2)], false);
        assert_eq!(traversed_edges(&g500, &bfs(&g500, 0)), 3);
    }

    /// A graph with hubs, a long path tail, and a disconnected part —
    /// exercises both traversal directions and the heuristic switch.
    fn mixed_shape() -> CsrGraph {
        let mut edges: Vec<(u64, u64)> = (1..80).map(|i| (0, i)).collect();
        edges.extend((80..140).map(|i| (i, i + 1)));
        edges.push((50, 80));
        edges.extend([(200, 201), (201, 202)]);
        csr(edges, false)
    }

    #[test]
    fn parallel_matches_sequential_bytewise() {
        let g = mixed_shape();
        for source in [0u64, 100, 200, 999] {
            let seq = bfs(&g, source);
            for threads in [1usize, 2, 8] {
                assert_eq!(
                    bfs_parallel(&g, source, threads),
                    seq,
                    "source={source} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn parallel_matches_sequential_on_directed() {
        let g = csr(vec![(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (5, 0)], true);
        for source in [0u64, 5] {
            for threads in [1usize, 4] {
                assert_eq!(bfs_parallel(&g, source, threads), bfs(&g, source));
            }
        }
    }

    #[test]
    fn parallel_handles_empty_graph() {
        let g = csr(vec![], false);
        assert!(bfs_parallel(&g, 0, 4).is_empty());
    }

    #[test]
    fn sparse_external_ids() {
        let g = CsrGraph::from_edge_list(&EdgeListGraph::undirected_from_edges(vec![
            (100, 200),
            (200, 300),
        ]));
        let d = bfs(&g, 200);
        // Internal order is [100, 200, 300].
        assert_eq!(d, vec![1, 0, 1]);
    }
}
