//! CD kernel: community detection, "detects groups of nodes that are
//! connected to each other stronger than they are connected to the rest of
//! the graph" (paper §3.2, citing Leung et al., "Towards real-time
//! community detection in large networks", Phys. Rev. E 79, 2009).
//!
//! We implement the synchronous, *deterministic* adaptation of Leung's
//! label propagation with hop attenuation and degree-weighted node
//! preference:
//!
//! * every vertex starts with its own label and score 1;
//! * each round, every vertex evaluates `W(L) = Σ_{u ∈ N(v), label(u)=L}
//!   score(u) · deg(u)^m` and adopts the arg-max label (smallest label wins
//!   ties — this is the determinism rule that lets the Output Validator
//!   compare platforms exactly). The per-label contributions are summed in
//!   ascending order (a canonical summation order), so the floating-point
//!   result — and therefore the arg-max — is bit-identical no matter in
//!   which order a platform's messages arrive;
//! * the adopted label's score at `v` becomes `(1 − δ) · max_{u: label(u)=L*}
//!   score(u)`, which attenuates labels as they travel (bounding community
//!   diameter).
//!
//! Because updates are synchronous and tie-breaks are total, every platform
//! produces bit-identical labels.

use graphalytics_graph::{CsrGraph, Vid};
use rustc_hash::FxHashMap;

/// Community label per vertex after `iterations` synchronous rounds.
pub fn community_detection(
    g: &CsrGraph,
    iterations: usize,
    hop_attenuation: f64,
    degree_exponent: f64,
) -> Vec<u32> {
    let n = g.num_vertices();
    let mut labels: Vec<u32> = (0..n as u32).collect();
    let mut scores: Vec<f64> = vec![1.0; n];
    let mut next_labels = labels.clone();
    let mut next_scores = scores.clone();
    let mut weight = LabelWeights::default();
    for _ in 0..iterations {
        let mut changed = false;
        for v in 0..n as Vid {
            weight.clear();
            for &u in g.neighbors(v) {
                let score = scores[u as usize];
                let sway = influence(score, g.degree(u), degree_exponent);
                add_vote(&mut weight, labels[u as usize], score, sway);
            }
            let own = (labels[v as usize], scores[v as usize]);
            let (label, score, adopted) = adopt_or_keep(own, &mut weight, hop_attenuation);
            changed |= adopted;
            next_labels[v as usize] = label;
            next_scores[v as usize] = score;
        }
        std::mem::swap(&mut labels, &mut next_labels);
        std::mem::swap(&mut scores, &mut next_scores);
        if !changed {
            break;
        }
    }
    labels
}

/// One vertex's view of its neighborhood, per label: the influence
/// contributions received and the largest score among their senders.
pub type LabelWeights = FxHashMap<u32, (Vec<f64>, f64)>;

/// What a neighbor of degree `degree` holding `score` contributes to its
/// label's weight: `score · degree^m`.
pub fn influence(score: f64, degree: usize, degree_exponent: f64) -> f64 {
    score * (degree as f64).powf(degree_exponent)
}

/// Records one neighbor's `(label, score, influence)` in `weight`.
pub fn add_vote(weight: &mut LabelWeights, label: u32, score: f64, influence: f64) {
    let entry = weight.entry(label).or_insert((Vec::new(), 0.0));
    entry.0.push(influence);
    entry.1 = entry.1.max(score);
}

/// The CD update step, shared by the reference and every engine: the
/// arg-max label of `weight` is adopted with its score attenuated by
/// `(1 − δ)` when it differs from `own.0`, and otherwise kept with the
/// larger of the two scores. A vertex that heard from nobody (`weight`
/// empty) keeps its state. Returns `(label, score, adopted)`.
pub fn adopt_or_keep(
    own: (u32, f64),
    weight: &mut LabelWeights,
    hop_attenuation: f64,
) -> (u32, f64, bool) {
    if weight.is_empty() {
        return (own.0, own.1, false);
    }
    let (best_label, best_score) = argmax_label(weight);
    if best_label != own.0 {
        (best_label, best_score * (1.0 - hop_attenuation), true)
    } else {
        (own.0, best_score.max(own.1), false)
    }
}

/// The CD arg-max: per-label contributions are sorted ascending and summed
/// (canonical order ⇒ the f64 total is platform-independent), then the
/// heaviest label wins with ties broken toward the smallest label. Returns
/// `(label, max_score)`.
fn argmax_label(weight: &mut FxHashMap<u32, (Vec<f64>, f64)>) -> (u32, f64) {
    let (mut best_label, mut best_weight, mut best_score) = (u32::MAX, f64::MIN, 0.0);
    // lint:allow(determinism-hash-iter): order-insensitive — contributions are sorted before summing and ties break by total order on the label, so every iteration order yields the same argmax
    for (&l, (contributions, max_score)) in weight.iter_mut() {
        contributions.sort_by(|a, b| a.total_cmp(b));
        let w: f64 = contributions.iter().sum();
        if w > best_weight || (w == best_weight && l < best_label) {
            best_label = l;
            best_weight = w;
            best_score = *max_score;
        }
    }
    (best_label, best_score)
}

/// Modularity of a labeling (Newman): used to *validate* that CD found
/// meaningful structure rather than to compare platforms.
pub fn modularity(g: &CsrGraph, labels: &[u32]) -> f64 {
    assert!(!g.is_directed(), "modularity defined on undirected graphs");
    let m2 = g.num_arcs() as f64; // 2m.
    if m2 == 0.0 {
        return 0.0;
    }
    // Intra-community edge fraction minus expected fraction. A BTreeMap
    // keeps the per-label summation in ascending label order, so the f64
    // total never depends on hash iteration order.
    let mut intra = 0.0f64;
    let mut degree_sum: std::collections::BTreeMap<u32, f64> = std::collections::BTreeMap::new();
    for v in 0..g.num_vertices() as Vid {
        *degree_sum.entry(labels[v as usize]).or_default() += g.degree(v) as f64;
        for &u in g.neighbors(v) {
            if labels[v as usize] == labels[u as usize] {
                intra += 1.0; // Counts each intra edge twice, matching 2m.
            }
        }
    }
    let expected: f64 = degree_sum.values().map(|&d| (d / m2) * (d / m2)).sum();
    intra / m2 - expected
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphalytics_graph::EdgeListGraph;

    fn csr(edges: Vec<(u64, u64)>) -> CsrGraph {
        CsrGraph::from_edge_list(&EdgeListGraph::undirected_from_edges(edges))
    }

    fn two_cliques_bridge() -> CsrGraph {
        let mut edges = Vec::new();
        for base in [0u64, 6] {
            for i in 0..6 {
                for j in (i + 1)..6 {
                    edges.push((base + i, base + j));
                }
            }
        }
        edges.push((5, 6));
        csr(edges)
    }

    #[test]
    fn detects_two_cliques() {
        let g = two_cliques_bridge();
        let labels = community_detection(&g, 10, 0.05, 0.1);
        // All of clique A share a label; all of clique B share a label;
        // the two labels differ.
        assert!(labels[..6].iter().all(|&l| l == labels[0]), "{labels:?}");
        assert!(labels[6..].iter().all(|&l| l == labels[6]), "{labels:?}");
        assert_ne!(labels[0], labels[6]);
    }

    #[test]
    fn modularity_of_good_split_is_high() {
        let g = two_cliques_bridge();
        let labels = community_detection(&g, 10, 0.05, 0.1);
        let q_good = modularity(&g, &labels);
        let all_same = vec![0u32; g.num_vertices()];
        let q_trivial = modularity(&g, &all_same);
        assert!(q_good > 0.3, "q={q_good}");
        assert!(q_good > q_trivial);
    }

    #[test]
    fn deterministic_across_runs() {
        let g = two_cliques_bridge();
        let a = community_detection(&g, 10, 0.05, 0.1);
        let b = community_detection(&g, 10, 0.05, 0.1);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_iterations_returns_identity() {
        let g = csr(vec![(0, 1), (1, 2)]);
        assert_eq!(community_detection(&g, 0, 0.05, 0.1), vec![0, 1, 2]);
    }

    #[test]
    fn isolated_vertices_keep_their_label() {
        let el = EdgeListGraph::new(vec![0, 1, 2, 9], vec![(0, 1)], false);
        let g = CsrGraph::from_edge_list(&el);
        let labels = community_detection(&g, 5, 0.05, 0.1);
        // Vertex 2 (internal) and 9 (internal 3) have no neighbors.
        assert_eq!(labels[2], 2);
        assert_eq!(labels[3], 3);
    }

    #[test]
    fn attenuation_bounds_community_spread() {
        // A long path: with strong attenuation labels cannot conquer the
        // whole path, so multiple communities must survive.
        let edges: Vec<(u64, u64)> = (0..60).map(|i| (i, i + 1)).collect();
        let g = csr(edges);
        let labels = community_detection(&g, 30, 0.5, 0.1);
        let mut distinct = labels.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(distinct.len() > 2, "labels collapsed: {}", distinct.len());
    }

    #[test]
    fn modularity_empty_graph_is_zero() {
        let g = csr(vec![]);
        assert_eq!(modularity(&g, &[]), 0.0);
    }
}
