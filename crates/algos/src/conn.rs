//! CONN kernel: "determines for each vertex the connected component it
//! belongs to" (paper §3.2). Components are computed on the undirected view
//! (weak connectivity for directed graphs), matching the Graphalytics
//! specification.

use graphalytics_graph::{CsrGraph, Vid};
use graphalytics_parallel as par;

/// Component label per vertex: the *minimum internal id* in the component —
/// a canonical labeling, so two correct results compare equal directly.
/// Implemented with BFS sweeps (O(V + E)).
pub fn connected_components(g: &CsrGraph) -> Vec<u32> {
    let n = g.num_vertices();
    let mut labels = vec![u32::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    for start in 0..n as Vid {
        if labels[start as usize] != u32::MAX {
            continue;
        }
        labels[start as usize] = start;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            for &u in g.neighbors(v).iter().chain(g.in_neighbors(v)) {
                if labels[u as usize] == u32::MAX {
                    labels[u as usize] = start;
                    queue.push_back(u);
                }
            }
        }
    }
    labels
}

/// Parallel CONN via frontier-free min-label propagation with pointer
/// jumping, on up to `threads` workers.
///
/// Each round is a Jacobi step — `next[v] = min(label[v], labels of v's
/// neighbors)` computed entirely from the previous round's array — followed
/// by pointer-jumping shortcut steps (`label[v] = label[label[v]]`), also
/// Jacobi. Nothing ever reads a value written in the same step, so the
/// result is a pure function of the graph at every thread count, and the
/// fixpoint is the *minimum internal id per component* — byte-identical to
/// [`connected_components`].
pub fn connected_components_parallel(g: &CsrGraph, threads: usize) -> Vec<u32> {
    let threads = threads.max(1);
    let n = g.num_vertices();
    let mut labels: Vec<u32> = (0..n as u32).collect();
    let mut next: Vec<u32> = vec![0; n];
    loop {
        // Propagate: adopt the smallest label in the closed neighborhood
        // (both directions, so directed graphs get weak connectivity).
        let changed = propagate_step(threads, g, &labels, &mut next);
        std::mem::swap(&mut labels, &mut next);
        // Shortcut: compress label chains until stable.
        loop {
            let jumped = jump_step(threads, &labels, &mut next);
            std::mem::swap(&mut labels, &mut next);
            if !jumped {
                break;
            }
        }
        if !changed {
            return labels;
        }
    }
}

fn propagate_step(threads: usize, g: &CsrGraph, labels: &[u32], next: &mut [u32]) -> bool {
    let changed = std::sync::atomic::AtomicBool::new(false);
    par::for_each_chunk_mut(threads, next, |_, start, slice| {
        let mut local = false;
        for (off, slot) in slice.iter_mut().enumerate() {
            let v = (start + off) as Vid;
            let mut best = labels[v as usize];
            for &u in g.neighbors(v) {
                best = best.min(labels[u as usize]);
            }
            if g.is_directed() {
                for &u in g.in_neighbors(v) {
                    best = best.min(labels[u as usize]);
                }
            }
            local |= best != labels[v as usize];
            *slot = best;
        }
        if local {
            changed.store(true, std::sync::atomic::Ordering::Relaxed);
        }
    });
    changed.into_inner()
}

fn jump_step(threads: usize, labels: &[u32], next: &mut [u32]) -> bool {
    let changed = std::sync::atomic::AtomicBool::new(false);
    par::for_each_chunk_mut(threads, next, |_, start, slice| {
        let mut local = false;
        for (off, slot) in slice.iter_mut().enumerate() {
            let v = start + off;
            let jumped = labels[labels[v] as usize];
            local |= jumped != labels[v];
            *slot = jumped;
        }
        if local {
            changed.store(true, std::sync::atomic::Ordering::Relaxed);
        }
    });
    changed.into_inner()
}

/// Disjoint-set forest (union by rank, path halving) used by the alternate
/// CONN implementation and by property tests as a cross-check.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        Self {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
        }
    }

    /// Finds the set representative with path halving.
    pub fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            self.parent[x as usize] = self.parent[self.parent[x as usize] as usize];
            x = self.parent[x as usize];
        }
        x
    }

    /// Unites the sets of `a` and `b`; returns true if they were disjoint.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra as usize] >= self.rank[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo as usize] = hi;
        if self.rank[hi as usize] == self.rank[lo as usize] {
            self.rank[hi as usize] += 1;
        }
        true
    }
}

/// CONN via union-find; same canonical labeling as
/// [`connected_components`].
pub fn connected_components_unionfind(g: &CsrGraph) -> Vec<u32> {
    let n = g.num_vertices();
    let mut uf = UnionFind::new(n);
    for v in 0..n as Vid {
        for &u in g.neighbors(v) {
            uf.union(v, u);
        }
    }
    // Canonicalize: min internal id per root.
    let mut min_of_root = vec![u32::MAX; n];
    for v in 0..n as u32 {
        let r = uf.find(v) as usize;
        min_of_root[r] = min_of_root[r].min(v);
    }
    (0..n as u32)
        .map(|v| min_of_root[uf.find(v) as usize])
        .collect()
}

/// Sizes of all components, descending — used for report summaries.
pub fn component_sizes(labels: &[u32]) -> Vec<usize> {
    let mut sorted = labels.to_vec();
    sorted.sort_unstable();
    let mut sizes: Vec<usize> = sorted.chunk_by(|a, b| a == b).map(<[u32]>::len).collect();
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphalytics_graph::EdgeListGraph;

    fn csr(edges: Vec<(u64, u64)>) -> CsrGraph {
        CsrGraph::from_edge_list(&EdgeListGraph::undirected_from_edges(edges))
    }

    #[test]
    fn two_components() {
        let g = csr(vec![(0, 1), (1, 2), (3, 4)]);
        assert_eq!(connected_components(&g), vec![0, 0, 0, 3, 3]);
    }

    #[test]
    fn bfs_and_unionfind_agree() {
        let g = csr(vec![(0, 1), (2, 3), (3, 4), (5, 6), (6, 0)]);
        assert_eq!(connected_components(&g), connected_components_unionfind(&g));
    }

    #[test]
    fn directed_uses_weak_connectivity() {
        // 0 -> 1, 2 -> 1: weakly one component despite no directed path
        // between 0 and 2.
        let g = CsrGraph::from_edge_list(&EdgeListGraph::directed_from_edges(vec![(0, 1), (2, 1)]));
        assert_eq!(connected_components(&g), vec![0, 0, 0]);
    }

    #[test]
    fn isolated_vertices_are_own_components() {
        let el = EdgeListGraph::new(vec![0, 1, 2], vec![(0, 1)], false);
        let g = CsrGraph::from_edge_list(&el);
        assert_eq!(connected_components(&g), vec![0, 0, 2]);
    }

    #[test]
    fn parallel_matches_sequential_bytewise() {
        // Long path (worst case for propagation rounds) + clusters +
        // isolated vertices.
        let mut edges: Vec<(u64, u64)> = (0..100).map(|i| (i, i + 1)).collect();
        edges.extend([(200, 201), (201, 202), (202, 200), (300, 301)]);
        let el = EdgeListGraph::new(vec![400, 401], edges, false);
        let g = CsrGraph::from_edge_list(&el);
        let seq = connected_components(&g);
        for threads in [1usize, 2, 8] {
            assert_eq!(
                connected_components_parallel(&g, threads),
                seq,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn parallel_weak_connectivity_on_directed() {
        let g = CsrGraph::from_edge_list(&EdgeListGraph::directed_from_edges(vec![
            (0, 1),
            (2, 1),
            (3, 4),
        ]));
        assert_eq!(
            connected_components_parallel(&g, 4),
            connected_components(&g)
        );
    }

    #[test]
    fn parallel_handles_empty_graph() {
        let g = csr(vec![]);
        assert!(connected_components_parallel(&g, 4).is_empty());
    }

    #[test]
    fn component_sizes_sorted_descending() {
        let labels = vec![0, 0, 0, 3, 3, 5];
        assert_eq!(component_sizes(&labels), vec![3, 2, 1]);
    }

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(4);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0));
        assert!(uf.union(2, 3));
        assert_ne!(uf.find(0), uf.find(2));
        uf.union(1, 3);
        assert_eq!(uf.find(0), uf.find(2));
    }
}
