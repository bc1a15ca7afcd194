//! Structure post-processing: degree-preserving rewiring toward target
//! structural characteristics.
//!
//! Paper §2.2 ("Different structural characteristics"): "we plan to extend
//! the current windowed based edge generation process of Datagen, to allow
//! the generation of graphs with a target average clustering coefficient,
//! but also to decide whether the assortativity is positive or negative,
//! while preserving the degree distribution of the graph. We envision this
//! process as a post processing step where the graph is iteratively rewired
//! until the desired values are achieved, in a hill climbing fashion."
//!
//! This module implements exactly that: hill-climbing double-edge swaps.
//! A swap `(a,b),(c,d) → (a,d),(c,b)` preserves every vertex degree, so the
//! degree distribution is invariant; we track the triangle count (and hence
//! the global clustering coefficient, whose wedge denominator is constant
//! under degree-preserving swaps) and the assortativity numerator
//! incrementally, accepting only swaps that reduce the distance to the
//! targets.

use graphalytics_graph::metrics::sorted_intersection_len;
use graphalytics_graph::rng::Xoshiro256;
use graphalytics_graph::{CsrGraph, EdgeListGraph};

/// Targets for the rewiring post-processor. `None` components are left
/// unconstrained.
#[derive(Debug, Clone, Copy, Default)]
pub struct RewireTargets {
    /// Target global clustering coefficient in `[0, 1]`.
    pub global_cc: Option<f64>,
    /// Target degree assortativity in `[-1, 1]` (sign is what the paper
    /// cares about; we aim for the value).
    pub assortativity: Option<f64>,
}

/// Outcome statistics of a rewiring run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RewireReport {
    /// Swaps proposed.
    pub proposed: usize,
    /// Swaps accepted.
    pub accepted: usize,
    /// Global clustering coefficient after rewiring.
    pub global_cc: f64,
    /// Assortativity after rewiring.
    pub assortativity: f64,
}

/// Mutable rewiring state over an undirected simple graph.
struct RewireState {
    /// Edge list; positions are stable, entries are updated in place.
    edges: Vec<(u32, u32)>,
    /// Sorted adjacency lists: binary-search membership, merge intersections.
    adj: Vec<Vec<u32>>,
    /// Fixed degree of every vertex (invariant under swaps).
    deg: Vec<u32>,
    /// Current triangle count (each triangle counted once).
    triangles: f64,
    /// Constant wedge count Σ d(d-1)/2.
    wedges: f64,
    /// Running Σ over edges of d(u)·d(v) (assortativity numerator part).
    sum_jk: f64,
    /// Constant assortativity terms.
    sum_j: f64,
    sum_j2: f64,
    m: f64,
}

impl RewireState {
    fn new(g: &EdgeListGraph) -> Self {
        let und = g.to_undirected();
        let csr = CsrGraph::from_edge_list(&und);
        let n = csr.num_vertices();
        let adj: Vec<Vec<u32>> = (0..n as u32).map(|v| csr.neighbors(v).to_vec()).collect();
        let mut edges = Vec::with_capacity(csr.num_edges());
        for v in 0..n as u32 {
            edges.extend(csr.neighbors(v).iter().filter(|&&u| v < u).map(|&u| (v, u)));
        }
        let deg: Vec<u32> = (0..n as u32).map(|v| csr.degree(v) as u32).collect();
        let triangles = graphalytics_graph::metrics::triangle_count(&csr) as f64;
        let wedges: f64 = deg.iter().map(|&d| d as f64 * (d as f64 - 1.0) / 2.0).sum();
        let mut sum_jk = 0.0;
        let mut sum_j = 0.0;
        let mut sum_j2 = 0.0;
        for &(u, v) in &edges {
            let (du, dv) = (deg[u as usize] as f64, deg[v as usize] as f64);
            sum_jk += du * dv;
            sum_j += 0.5 * (du + dv);
            sum_j2 += 0.5 * (du * du + dv * dv);
        }
        Self {
            m: edges.len() as f64,
            edges,
            adj,
            deg,
            triangles,
            wedges,
            sum_jk,
            sum_j,
            sum_j2,
        }
    }

    fn common_neighbors(&self, a: u32, b: u32) -> usize {
        sorted_intersection_len(&self.adj[a as usize], &self.adj[b as usize])
    }

    fn has_edge(&self, a: u32, b: u32) -> bool {
        self.adj[a as usize].binary_search(&b).is_ok()
    }

    /// Adds (`present`) or removes the undirected edge `(a, b)`.
    fn set_edge(&mut self, a: u32, b: u32, present: bool) {
        for (v, u) in [(a, b), (b, a)] {
            let list = &mut self.adj[v as usize];
            match (list.binary_search(&u), present) {
                (Err(at), true) => list.insert(at, u),
                (Ok(at), false) => {
                    list.remove(at);
                }
                _ => {}
            }
        }
    }

    fn global_cc(&self) -> f64 {
        if self.wedges == 0.0 {
            0.0
        } else {
            3.0 * self.triangles / self.wedges
        }
    }

    fn assortativity(&self) -> f64 {
        if self.m == 0.0 {
            return 0.0;
        }
        let mean = self.sum_j / self.m;
        let den = self.sum_j2 / self.m - mean * mean;
        if den.abs() < 1e-12 {
            0.0
        } else {
            (self.sum_jk / self.m - mean * mean) / den
        }
    }

    /// Triangle change if the four endpoint rewires were applied:
    /// remove (a,b) and (c,d), add (a,d) and (c,b). Computed by actually
    /// applying/unapplying set updates so intermediate intersections are
    /// exact.
    fn apply_swap(&mut self, e1: usize, e2: usize) {
        let (a, b) = self.edges[e1];
        let (c, d) = self.edges[e2];
        // Remove (a,b) and (c,d), then add (a,d) and (c,b).
        self.triangles -= self.common_neighbors(a, b) as f64;
        self.set_edge(a, b, false);
        self.triangles -= self.common_neighbors(c, d) as f64;
        self.set_edge(c, d, false);
        self.triangles += self.common_neighbors(a, d) as f64;
        self.set_edge(a, d, true);
        self.triangles += self.common_neighbors(c, b) as f64;
        self.set_edge(c, b, true);
        // Assortativity numerator: Δ(Σ jk) = (da-dc)(dd-db).
        let (da, db, dc, dd) = (
            self.deg[a as usize] as f64,
            self.deg[b as usize] as f64,
            self.deg[c as usize] as f64,
            self.deg[d as usize] as f64,
        );
        self.sum_jk += (da - dc) * (dd - db);
        // Keep tuple orientation: applying the same swap again must restore
        // the original pair (the undo path relies on this involution).
        self.edges[e1] = (a, d);
        self.edges[e2] = (c, b);
    }

    /// True if swapping edges `e1`, `e2` into `(a,d),(c,b)` keeps the graph
    /// simple (no self loops, no duplicate edges).
    fn swap_is_valid(&self, e1: usize, e2: usize) -> bool {
        let (a, b) = self.edges[e1];
        let (c, d) = self.edges[e2];
        if a == d || c == b {
            return false;
        }
        // Distinct vertices across the pair (a==c or b==d would recreate an
        // existing edge or a parallel one).
        !self.has_edge(a, d) && !self.has_edge(c, b)
    }
}

/// Objective distance to the targets (sum of squared errors over the
/// constrained components).
fn objective(state: &RewireState, targets: &RewireTargets) -> f64 {
    let mut obj = 0.0;
    if let Some(cc) = targets.global_cc {
        let diff = state.global_cc() - cc;
        obj += diff * diff;
    }
    if let Some(r) = targets.assortativity {
        let diff = state.assortativity() - r;
        obj += diff * diff;
    }
    obj
}

/// Rewires `g` toward the targets with up to `max_proposals` hill-climbing
/// double-edge swaps. Returns the rewired graph and a report. The degree
/// sequence of the result equals that of (the undirected projection of) the
/// input — the invariant the paper requires.
pub fn rewire(
    g: &EdgeListGraph,
    targets: &RewireTargets,
    seed: u64,
    max_proposals: usize,
) -> (EdgeListGraph, RewireReport) {
    let mut state = RewireState::new(g);
    let mut rng = Xoshiro256::new(seed ^ 0x5245_5749_5245);
    let m = state.edges.len();
    let mut accepted = 0usize;
    let mut proposed = 0usize;
    if m >= 2 {
        let mut current = objective(&state, targets);
        let tolerance = 1e-6;
        while proposed < max_proposals && current > tolerance {
            proposed += 1;
            let e1 = rng.next_bounded(m as u64) as usize;
            let e2 = rng.next_bounded(m as u64) as usize;
            if e1 == e2 || !state.swap_is_valid(e1, e2) {
                continue;
            }
            state.apply_swap(e1, e2);
            let next = objective(&state, targets);
            if next < current {
                current = next;
                accepted += 1;
            } else {
                // Undo: swapping the new pair back restores the original
                // edges (the transformation is an involution on the pair).
                state.apply_swap(e1, e2);
            }
        }
    }
    let report = RewireReport {
        proposed,
        accepted,
        global_cc: state.global_cc(),
        assortativity: state.assortativity(),
    };
    let vertices = (0..state.adj.len() as u64).collect();
    let edges = state
        .edges
        .iter()
        .map(|&(u, v)| (u as u64, v as u64))
        .collect();
    (EdgeListGraph::new(vertices, edges, false), report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributions::DegreeDistribution;
    use crate::generator::{generate, DatagenConfig};
    use graphalytics_graph::metrics;

    fn test_graph() -> EdgeListGraph {
        generate(&DatagenConfig {
            num_persons: 600,
            seed: 99,
            degree_distribution: DegreeDistribution::Geometric(0.2),
            ..Default::default()
        })
    }

    fn degree_multiset(g: &EdgeListGraph) -> Vec<usize> {
        let csr = CsrGraph::from_edge_list(g);
        let mut d = csr.degrees();
        d.sort_unstable();
        d
    }

    #[test]
    fn rewiring_preserves_degree_sequence() {
        let g = test_graph();
        let before = degree_multiset(&g);
        let (out, _) = rewire(
            &g,
            &RewireTargets {
                global_cc: Some(0.01),
                assortativity: None,
            },
            1,
            20_000,
        );
        assert_eq!(degree_multiset(&out), before);
        out.validate().unwrap();
    }

    #[test]
    fn rewiring_lowers_clustering_toward_target() {
        let g = test_graph();
        let before = metrics::characteristics(&g).global_cc;
        let target = before / 4.0;
        let (out, report) = rewire(
            &g,
            &RewireTargets {
                global_cc: Some(target),
                assortativity: None,
            },
            2,
            60_000,
        );
        let after = metrics::characteristics(&out).global_cc;
        assert!(
            (after - target).abs() < (before - target).abs(),
            "before={before} after={after} target={target}"
        );
        assert!(report.accepted > 0);
        // The incremental tracker must agree with the from-scratch metric.
        assert!((report.global_cc - after).abs() < 1e-9);
    }

    #[test]
    fn rewiring_can_flip_assortativity_sign() {
        let g = test_graph();
        let before = metrics::characteristics(&g).assortativity;
        let target = if before >= 0.0 { -0.15 } else { 0.15 };
        let (out, report) = rewire(
            &g,
            &RewireTargets {
                global_cc: None,
                assortativity: Some(target),
            },
            3,
            80_000,
        );
        let after = metrics::characteristics(&out).assortativity;
        assert_eq!(
            after.signum(),
            target.signum(),
            "before={before} after={after} target={target}"
        );
        assert!((report.assortativity - after).abs() < 1e-6);
    }

    #[test]
    fn joint_targets_improve_both() {
        let g = test_graph();
        let c0 = metrics::characteristics(&g);
        let targets = RewireTargets {
            global_cc: Some((c0.global_cc * 0.5).max(0.005)),
            assortativity: Some(0.1),
        };
        let (out, _) = rewire(&g, &targets, 4, 60_000);
        let c1 = metrics::characteristics(&out);
        let err0 = (c0.global_cc - targets.global_cc.unwrap()).powi(2)
            + (c0.assortativity - targets.assortativity.unwrap()).powi(2);
        let err1 = (c1.global_cc - targets.global_cc.unwrap()).powi(2)
            + (c1.assortativity - targets.assortativity.unwrap()).powi(2);
        assert!(err1 < err0, "err0={err0} err1={err1}");
    }

    #[test]
    fn no_targets_is_identity_objective() {
        let g = test_graph();
        let (out, report) = rewire(&g, &RewireTargets::default(), 5, 1000);
        // Objective starts at 0 (no targets), so nothing is proposed.
        assert_eq!(report.proposed, 0);
        assert_eq!(out.num_edges(), g.num_edges());
    }

    #[test]
    fn tiny_graphs_do_not_panic() {
        let g = EdgeListGraph::undirected_from_edges(vec![(0, 1)]);
        let (out, _) = rewire(
            &g,
            &RewireTargets {
                global_cc: Some(0.5),
                assortativity: None,
            },
            6,
            100,
        );
        assert_eq!(out.num_edges(), 1);
    }
}
