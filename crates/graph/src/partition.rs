//! Graph partitioning for distributed engines.
//!
//! The "excessive network utilization" choke point (paper §2.1) names
//! "advanced (e.g., min-cut) graph partitioning methods" as a mitigation.
//! The distributed engines in this workspace place vertices on workers using
//! one of these partitioners, and the choke-point benchmarks compare the
//! resulting communication volume (edge cut).

use crate::csr::{CsrGraph, Vid};

/// A vertex-to-worker assignment strategy.
pub trait Partitioner {
    /// Assigns every vertex of `g` to one of `k` parts. The returned vector
    /// is indexed by internal vertex id; every entry is `< k`.
    fn partition(&self, g: &CsrGraph, k: usize) -> Vec<u32>;

    /// Strategy name for reports.
    fn name(&self) -> &'static str;
}

/// Hash partitioning: `part(v) = hash(external_id(v)) % k`. This is what
/// Giraph and GraphX do by default; cheap, balanced in expectation, but
/// oblivious to structure (worst-case edge cut).
#[derive(Debug, Clone, Copy, Default)]
pub struct HashPartitioner;

impl Partitioner for HashPartitioner {
    fn partition(&self, g: &CsrGraph, k: usize) -> Vec<u32> {
        assert!(k > 0);
        (0..g.num_vertices() as Vid)
            .map(|v| (mix64(g.external_id(v)) % k as u64) as u32)
            .collect()
    }

    fn name(&self) -> &'static str {
        "hash"
    }
}

/// Range partitioning: contiguous blocks of internal ids. Exploits id
/// locality when generators emit community-correlated ids (as Datagen does).
#[derive(Debug, Clone, Copy, Default)]
pub struct RangePartitioner;

impl Partitioner for RangePartitioner {
    fn partition(&self, g: &CsrGraph, k: usize) -> Vec<u32> {
        assert!(k > 0);
        let n = g.num_vertices();
        let per = n.div_ceil(k).max(1);
        (0..n)
            .map(|v| ((v / per) as u32).min(k as u32 - 1))
            .collect()
    }

    fn name(&self) -> &'static str {
        "range"
    }
}

/// Linear Deterministic Greedy (LDG) streaming partitioning
/// (Stanton & Kliot, KDD 2012): each vertex goes to the part holding most of
/// its already-placed neighbors, discounted by a load penalty. A cheap
/// stand-in for min-cut partitioners that markedly reduces edge cut on
/// community-structured graphs.
#[derive(Debug, Clone, Copy, Default)]
pub struct LdgPartitioner;

impl Partitioner for LdgPartitioner {
    fn partition(&self, g: &CsrGraph, k: usize) -> Vec<u32> {
        assert!(k > 0);
        let n = g.num_vertices();
        // Strict capacity: full parts are excluded, which is what gives LDG
        // its balance guarantee (Stanton & Kliot use C = n/k).
        let capacity = n.div_ceil(k).max(1);
        let mut assignment = vec![u32::MAX; n];
        let mut loads = vec![0usize; k];
        let mut neighbor_counts = vec![0usize; k];
        for v in 0..n as Vid {
            neighbor_counts.iter_mut().for_each(|c| *c = 0);
            for &u in g.neighbors(v) {
                let p = assignment[u as usize];
                if p != u32::MAX {
                    neighbor_counts[p as usize] += 1;
                }
            }
            let mut best = usize::MAX;
            let mut best_score = f64::NEG_INFINITY;
            for p in 0..k {
                if loads[p] >= capacity {
                    continue;
                }
                let penalty = 1.0 - loads[p] as f64 / capacity as f64;
                // Tie-break toward the least-loaded part for balance.
                let score = neighbor_counts[p] as f64 * penalty - loads[p] as f64 * 1e-9;
                if score > best_score {
                    best_score = score;
                    best = p;
                }
            }
            // Sum of capacities >= n, so an open part always exists.
            debug_assert!(best != usize::MAX);
            assignment[v as usize] = best as u32;
            loads[best] += 1;
        }
        assignment
    }

    fn name(&self) -> &'static str {
        "ldg"
    }
}

/// Number of edges whose endpoints land in different parts — the
/// communication volume proxy used by the choke-point benchmarks.
pub fn edge_cut(g: &CsrGraph, assignment: &[u32]) -> usize {
    assert_eq!(assignment.len(), g.num_vertices());
    let mut cut = 0usize;
    for v in 0..g.num_vertices() as Vid {
        for &u in g.neighbors(v) {
            if (g.is_directed() || u > v) && assignment[v as usize] != assignment[u as usize] {
                cut += 1;
            }
        }
    }
    cut
}

/// Load imbalance: `max_part_size / (n / k)`. 1.0 is perfect balance.
pub fn load_imbalance(assignment: &[u32], k: usize) -> f64 {
    if assignment.is_empty() || k == 0 {
        return 1.0;
    }
    let mut loads = vec![0usize; k];
    for &p in assignment {
        debug_assert!((p as usize) < k, "assignment references part >= k");
        if let Some(load) = loads.get_mut(p as usize) {
            *load += 1;
        }
    }
    let max = loads.iter().copied().max().unwrap_or(0) as f64;
    max / (assignment.len() as f64 / k as f64)
}

/// SplitMix64 finalizer as an avalanche hash for ids.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edgelist::EdgeListGraph;

    fn two_cliques() -> CsrGraph {
        // Two K8 cliques joined by one bridge edge: the ideal 2-way cut is 1.
        let mut edges = Vec::new();
        for base in [0u64, 8] {
            for i in 0..8 {
                for j in (i + 1)..8 {
                    edges.push((base + i, base + j));
                }
            }
        }
        edges.push((7, 8));
        CsrGraph::from_edge_list(&EdgeListGraph::undirected_from_edges(edges))
    }

    #[test]
    fn all_partitioners_cover_all_vertices() {
        let g = two_cliques();
        for p in [
            &HashPartitioner as &dyn Partitioner,
            &RangePartitioner,
            &LdgPartitioner,
        ] {
            let a = p.partition(&g, 4);
            assert_eq!(a.len(), g.num_vertices(), "{}", p.name());
            assert!(a.iter().all(|&x| x < 4), "{}", p.name());
        }
    }

    #[test]
    fn range_respects_contiguity() {
        let g = two_cliques();
        let a = RangePartitioner.partition(&g, 2);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(a[0], 0);
        assert_eq!(*a.last().unwrap(), 1);
    }

    #[test]
    fn ldg_beats_hash_on_community_structure() {
        let g = two_cliques();
        let hash_cut = edge_cut(&g, &HashPartitioner.partition(&g, 2));
        let ldg_cut = edge_cut(&g, &LdgPartitioner.partition(&g, 2));
        assert!(
            ldg_cut < hash_cut,
            "ldg={ldg_cut} should beat hash={hash_cut}"
        );
        assert!(ldg_cut <= 4, "near-optimal cut expected, got {ldg_cut}");
    }

    #[test]
    fn edge_cut_bounds() {
        let g = two_cliques();
        let all_same = vec![0u32; g.num_vertices()];
        assert_eq!(edge_cut(&g, &all_same), 0);
        let alternating: Vec<u32> = (0..g.num_vertices() as u32).map(|v| v % 2).collect();
        assert!(edge_cut(&g, &alternating) > 0);
    }

    #[test]
    fn load_imbalance_perfect_and_skewed() {
        let balanced = vec![0u32, 1, 0, 1];
        assert!((load_imbalance(&balanced, 2) - 1.0).abs() < 1e-12);
        let skewed = vec![0u32, 0, 0, 1];
        assert!((load_imbalance(&skewed, 2) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn single_partition_has_zero_cut() {
        let g = two_cliques();
        for p in [
            &HashPartitioner as &dyn Partitioner,
            &RangePartitioner,
            &LdgPartitioner,
        ] {
            let a = p.partition(&g, 1);
            assert_eq!(edge_cut(&g, &a), 0);
        }
    }

    #[test]
    fn hash_partition_is_deterministic() {
        let g = two_cliques();
        assert_eq!(
            HashPartitioner.partition(&g, 3),
            HashPartitioner.partition(&g, 3)
        );
    }

    #[test]
    fn directed_edge_cut_counts_each_arc_once() {
        let g = CsrGraph::from_edge_list(&EdgeListGraph::directed_from_edges(vec![
            (0, 1),
            (1, 0),
            (1, 2),
        ]));
        let a = vec![0u32, 1, 1];
        // (0,1) and (1,0) cross; (1,2) does not.
        assert_eq!(edge_cut(&g, &a), 2);
    }
}
