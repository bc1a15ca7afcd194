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

/// One vertex's view of its neighborhood: every vote received, as
/// `(label, influence, score)`. Callers keep one buffer and `clear` it per
/// vertex; [`adopt_or_keep`] sorts it into per-label runs.
pub type LabelWeights = Vec<(u32, f64, f64)>;

/// What a neighbor of degree `degree` holding `score` contributes to its
/// label's weight: `score · degree^m`.
pub fn influence(score: f64, degree: usize, degree_exponent: f64) -> f64 {
    score * (degree as f64).powf(degree_exponent)
}

/// Records one neighbor's `(label, score, influence)` in `weight`.
pub fn add_vote(weight: &mut LabelWeights, label: u32, score: f64, influence: f64) {
    weight.push((label, influence, score));
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

/// The CD arg-max: the votes are sorted by label, then influence, then
/// score, so each label's contributions are one ascending run summed in
/// that canonical order (the f64 total is platform-independent), then the
/// heaviest label wins with ties broken toward the smallest label. Returns
/// `(label, max_score)`.
fn argmax_label(weight: &mut LabelWeights) -> (u32, f64) {
    weight.sort_unstable_by(|a, b| {
        a.0.cmp(&b.0)
            .then(a.1.total_cmp(&b.1))
            .then(a.2.total_cmp(&b.2))
    });
    let (mut best_label, mut best_weight, mut best_score) = (u32::MAX, f64::MIN, 0.0);
    for run in weight.chunk_by(|a, b| a.0 == b.0) {
        let l = run[0].0;
        let w: f64 = run.iter().map(|vote| vote.1).sum();
        if w > best_weight || (w == best_weight && l < best_label) {
            best_label = l;
            best_weight = w;
            best_score = run.iter().fold(0.0, |max: f64, vote| max.max(vote.2));
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
    fn adopt_or_keep_ignores_vote_order() {
        use graphalytics_graph::rng::Xoshiro256;
        // Labels from a small range repeat and tie; the influences repeat,
        // include both zeros, and sum differently in different orders
        // (1 + 1e-16 + 1e-16 is 1, 1e-16 + 1e-16 + 1 is not).
        const INFLUENCES: [f64; 6] = [0.0, -0.0, 1e-16, 0.5, 1.0, 1.0];
        let mut rng = Xoshiro256::new(0xCD);
        let mut weight = LabelWeights::default();
        for _ in 0..2000 {
            let len = 1 + rng.next_bounded(10) as usize;
            let mut votes: Vec<(u32, f64, f64)> = (0..len)
                .map(|_| {
                    let label = rng.next_bounded(4) as u32;
                    let score = rng.next_bounded(3) as f64 * 0.5;
                    (label, score, INFLUENCES[rng.next_bounded(6) as usize])
                })
                .collect();
            let own = (rng.next_bounded(4) as u32, 0.75);
            let mut first = None;
            for _ in 0..6 {
                for i in (1..votes.len()).rev() {
                    votes.swap(i, rng.next_bounded(i as u64 + 1) as usize);
                }
                weight.clear();
                for &(label, score, influence) in &votes {
                    add_vote(&mut weight, label, score, influence);
                }
                let (label, score, adopted) = adopt_or_keep(own, &mut weight, 0.05);
                let got = (label, score.to_bits(), adopted);
                assert_eq!(*first.get_or_insert(got), got, "{own:?} {votes:?}");
            }
        }
    }

    #[test]
    fn modularity_empty_graph_is_zero() {
        let g = csr(vec![]);
        assert_eq!(modularity(&g, &[]), 0.0);
    }
}
