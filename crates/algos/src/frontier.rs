//! The direction rule of the traversal kernels (Beamer et al., GAP), shared
//! by [`bfs_parallel`](crate::bfs::bfs_parallel) and
//! [`sssp_parallel`](crate::sssp::sssp_parallel): when a round pulls — every
//! candidate vertex scans its in-arcs for a frontier member — instead of
//! pushing along the frontier's out-arcs, and the bitmap the pull tests.

use graphalytics_graph::Vid;

/// Growth factor deciding the push → pull switch: pull once the frontier's
/// out-arcs exceed `1/ALPHA` of the unexplored arcs.
const ALPHA: usize = 15;
/// Shrink factor for the pull → push switch: return to pushing once the
/// frontier falls below `n / BETA` vertices.
const BETA: usize = 18;

/// Whether a round whose frontier holds `frontier_len` of the graph's `n`
/// vertices, with `frontier_arcs` out-arcs between them, pulls rather than
/// pushes; `unexplored_arcs` counts the arcs no earlier round has pushed
/// from, the frontier's included.
pub(crate) fn pulls(
    frontier_arcs: usize,
    unexplored_arcs: usize,
    frontier_len: usize,
    n: usize,
) -> bool {
    frontier_arcs * ALPHA > unexplored_arcs || frontier_len * BETA > n
}

/// A pull round's frontier: one bit per vertex, so an in-arc's test reads
/// `n / 8` bytes in all rather than a distance or depth per vertex.
pub(crate) struct Bitmap {
    words: Vec<u64>,
}

impl Bitmap {
    /// An empty bitmap over `n` vertices.
    pub(crate) fn new(n: usize) -> Self {
        Self {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// Sets exactly the bits of `members`, clearing every other.
    pub(crate) fn fill(&mut self, members: impl IntoIterator<Item = Vid>) {
        self.words.fill(0);
        for v in members {
            self.insert(v);
        }
    }

    /// Sets `v`'s bit; false when it was already set.
    pub(crate) fn insert(&mut self, v: Vid) -> bool {
        let (word, bit) = (&mut self.words[v as usize / 64], 1 << (v % 64));
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    #[inline]
    pub(crate) fn contains(&self, v: Vid) -> bool {
        self.words[v as usize / 64] & (1 << (v % 64)) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_replaces_the_previous_members() {
        let mut bits = Bitmap::new(130);
        bits.fill([0, 63, 64, 129]);
        let set = |b: &Bitmap| (0..130).filter(|&v| b.contains(v)).collect::<Vec<_>>();
        assert_eq!(set(&bits), vec![0, 63, 64, 129]);
        bits.fill([5, 5]);
        assert_eq!(set(&bits), vec![5]);
        assert!(bits.insert(64));
        assert!(!bits.insert(64));
        assert_eq!(set(&bits), vec![5, 64]);
    }

    #[test]
    fn the_rule_pulls_on_arc_share_or_frontier_size() {
        assert!(!pulls(1, 15, 1, 100));
        assert!(pulls(2, 15, 1, 100));
        assert!(pulls(0, 0, 6, 100));
        assert!(!pulls(0, 0, 5, 100));
    }
}
