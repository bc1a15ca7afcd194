//! R-MAT / Graph500 Kronecker graph generator.
//!
//! The paper's evaluation uses "Graph500 23" — a scale-23 graph from the
//! Graph500 reference generator, which samples edges from a recursive
//! matrix (R-MAT / stochastic Kronecker) model with the standard Graph500
//! parameters `(A, B, C) = (0.57, 0.19, 0.19)` and edge factor 16. The
//! paper also notes (§1) that R-MAT "requires extensions to represent well
//! the detailed interconnections ... present in the real graphs" — which is
//! exactly why Datagen exists; we provide R-MAT for the Graph500 datasets
//! and for baseline comparisons.

use graphalytics_graph::rng::Xoshiro256;
use graphalytics_graph::{Edge, EdgeListGraph};

/// R-MAT generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct RmatConfig {
    /// log2 of the number of vertices ("scale" in Graph500 terms).
    pub scale: u32,
    /// Edges per vertex (Graph500 uses 16).
    pub edge_factor: usize,
    /// Quadrant probabilities; `d = 1 - a - b - c`.
    pub a: f64,
    pub b: f64,
    pub c: f64,
    /// Master seed.
    pub seed: u64,
}

impl RmatConfig {
    /// Standard Graph500 parameters at the given scale.
    pub fn graph500(scale: u32, seed: u64) -> Self {
        Self {
            scale,
            edge_factor: 16,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            seed,
        }
    }

    /// Number of vertices, `2^scale`.
    pub fn num_vertices(&self) -> u64 {
        1u64 << self.scale
    }

    /// Number of edge samples drawn (before dedup).
    pub fn num_edge_samples(&self) -> usize {
        self.edge_factor * self.num_vertices() as usize
    }
}

/// Samples one R-MAT edge by recursive quadrant descent. Each level draws
/// one uniform `r` and picks the first quadrant whose cumulative bound
/// exceeds it: top-left below `a`, top-right below `a + b`, bottom-left
/// below `a + b + c`, else bottom-right. The pick is computed from the three
/// comparisons rather than branched on, since the branches are random.
fn sample_edge(cfg: &RmatConfig, rng: &mut Xoshiro256) -> Edge {
    let mut src = 0u64;
    let mut dst = 0u64;
    let ab = cfg.a + cfg.b;
    let abc = ab + cfg.c;
    for _ in 0..cfg.scale {
        let r = rng.next_f64();
        let (below_a, below_ab, below_abc) = (r < cfg.a, r < ab, r < abc);
        src = src << 1 | (!below_a & !below_ab) as u64;
        dst = dst << 1 | (!below_a & (below_ab | !below_abc)) as u64;
    }
    (src, dst)
}

/// Generates an undirected Graph500-style graph (self-loops and duplicates
/// removed, per the Graph500 kernel-1 cleanup).
pub fn generate(cfg: &RmatConfig) -> EdgeListGraph {
    let mut rng = Xoshiro256::new(cfg.seed ^ 0x524D_4154);
    let mut edges = Vec::with_capacity(cfg.num_edge_samples());
    for _ in 0..cfg.num_edge_samples() {
        edges.push(sample_edge(cfg, &mut rng));
    }
    let vertices = (0..cfg.num_vertices()).collect();
    EdgeListGraph::new(vertices, edges, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphalytics_graph::{metrics, CsrGraph};

    #[test]
    fn sizes_match_scale() {
        let cfg = RmatConfig::graph500(10, 1);
        let g = generate(&cfg);
        assert_eq!(g.num_vertices(), 1024);
        // Dedup and self-loop removal lose some of the 16 * 1024 samples,
        // but most survive at this scale.
        assert!(g.num_edges() > 6_000, "edges={}", g.num_edges());
        assert!(g.num_edges() <= cfg.num_edge_samples());
    }

    #[test]
    fn determinism() {
        let cfg = RmatConfig::graph500(8, 5);
        assert_eq!(generate(&cfg), generate(&cfg));
        let other = RmatConfig::graph500(8, 6);
        assert_ne!(generate(&cfg), generate(&other));
    }

    #[test]
    fn degrees_are_skewed() {
        let g = generate(&RmatConfig::graph500(11, 2));
        let csr = CsrGraph::from_edge_list(&g);
        let degrees = csr.degrees();
        let max = *degrees.iter().max().unwrap();
        let mean = degrees.iter().sum::<usize>() as f64 / degrees.len() as f64;
        // R-MAT hubs: max degree far above the mean.
        assert!(max as f64 > mean * 10.0, "max={max} mean={mean}");
    }

    #[test]
    fn rmat_clustering_vanishes_with_scale() {
        // R-MAT has no sustainable community structure (paper §1 / [17]):
        // its clustering coefficient decays as the graph grows, unlike real
        // graphs whose clustering stays roughly constant.
        let small = metrics::characteristics(&generate(&RmatConfig::graph500(9, 3)));
        let large = metrics::characteristics(&generate(&RmatConfig::graph500(13, 3)));
        assert!(
            large.avg_local_cc < small.avg_local_cc * 0.7,
            "small={} large={}",
            small.avg_local_cc,
            large.avg_local_cc
        );
    }

    #[test]
    fn skewed_quadrants_bias_low_ids() {
        let g = generate(&RmatConfig::graph500(10, 4));
        let csr = CsrGraph::from_edge_list(&g);
        let n = csr.num_vertices();
        let low: usize = (0..(n / 4) as u32).map(|v| csr.degree(v)).sum();
        let high: usize = ((3 * n / 4) as u32..n as u32).map(|v| csr.degree(v)).sum();
        assert!(low > 2 * high, "low={low} high={high}");
    }
}
