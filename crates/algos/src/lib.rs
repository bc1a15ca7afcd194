//! # graphalytics-algos
//!
//! Reference ("oracle") implementations of the Graphalytics workload (paper
//! §3.2) plus the shared algorithm/output contract every platform
//! implements:
//!
//! * **STATS** — vertex/edge counts and mean local clustering coefficient;
//! * **BFS** — breadth-first search from a seed vertex;
//! * **CONN** — connected components;
//! * **CD** — community detection (Leung et al. label propagation with hop
//!   attenuation, deterministic variant);
//! * **EVO** — forest-fire graph evolution (Leskovec et al.);
//! * **PageRank** — the classic iterative ranking (an extension beyond the
//!   paper's five, used by the choke-point benchmarks);
//! * **SSSP** — single-source shortest paths over fixed-point edge weights
//!   (from LDBC Graphalytics, the paper's successor benchmark);
//! * **LCC** — per-vertex local clustering coefficient (ditto).
//!
//! The [`Algorithm`] enum is the workload description the harness hands to
//! a platform; [`Output`] is what the platform must return, in *internal
//! vertex-id order* of the canonical [`CsrGraph`]. The [`Output::equivalent`]
//! relation is what the Output Validator uses: exact for BFS/CONN/EVO
//! (CONN up to label renaming), tolerance-based for floating-point outputs.

pub mod bfs;
pub mod cd;
pub mod conn;
pub mod evo;
pub mod lcc;
pub mod pagerank;
pub mod sssp;
pub mod stats;

use graphalytics_graph::{CsrGraph, Edge, VertexId};

pub use sssp::INFINITY;
pub use stats::StatsResult;

/// A workload algorithm with its parameters (paper §3.2).
#[derive(Debug, Clone, PartialEq)]
pub enum Algorithm {
    /// General statistics: |V|, |E|, mean local clustering coefficient.
    Stats,
    /// Breadth-first search from `source` (an external vertex id).
    Bfs {
        /// External id of the seed vertex.
        source: VertexId,
    },
    /// Connected components (on the undirected view of the graph).
    Conn,
    /// Community detection via label propagation with hop attenuation
    /// (deterministic adaptation of Leung et al., Phys. Rev. E 79).
    Cd {
        /// Synchronous propagation rounds.
        iterations: usize,
        /// Hop attenuation δ: score multiplier `(1 - δ)` on label adoption.
        hop_attenuation: f64,
        /// Degree-preference exponent `m` weighting neighbor influence.
        degree_exponent: f64,
    },
    /// Graph evolution via the forest-fire model (Leskovec et al., KDD'05).
    Evo {
        /// Number of new vertices to add.
        new_vertices: usize,
        /// Forward-burning probability.
        p_forward: f64,
        /// Maximum vertices burned per new vertex (keeps fires bounded).
        max_burst: usize,
        /// Model seed (EVO is randomized; the seed is part of the workload
        /// so all platforms produce identical output).
        seed: u64,
    },
    /// PageRank with `iterations` power-iteration steps.
    PageRank {
        /// Power-iteration count.
        iterations: usize,
        /// Damping factor (0.85 classically).
        damping: f64,
    },
    /// Single-source shortest paths over the fixed-point edge weights
    /// (LDBC Graphalytics SSSP; delta-stepping on the reference platform).
    Sssp {
        /// External id of the source vertex.
        source: VertexId,
    },
    /// Local clustering coefficient per vertex (LDBC Graphalytics LCC).
    Lcc,
}

// Wire layout (the distributed runtime's Plan frame): a one-byte tag,
// then the parameters; `usize` parameters travel as `u64`.
graphalytics_codec::layout!(enum Algorithm {
    0 => Stats,
    1 => Bfs { source },
    2 => Conn,
    3 => Cd { iterations, hop_attenuation, degree_exponent },
    4 => Evo { new_vertices, p_forward, max_burst, seed },
    5 => PageRank { iterations, damping },
    6 => Sssp { source },
    7 => Lcc,
});

impl Algorithm {
    /// Workload acronym as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Stats => "STATS",
            Algorithm::Bfs { .. } => "BFS",
            Algorithm::Conn => "CONN",
            Algorithm::Cd { .. } => "CD",
            Algorithm::Evo { .. } => "EVO",
            Algorithm::PageRank { .. } => "PR",
            Algorithm::Sssp { .. } => "SSSP",
            Algorithm::Lcc => "LCC",
        }
    }

    /// Default BFS workload (seed vertex 0).
    pub fn default_bfs() -> Self {
        Algorithm::Bfs { source: 0 }
    }

    /// Default CD parameters (δ = 0.05, m = 0.1, 10 rounds).
    pub fn default_cd() -> Self {
        Algorithm::Cd {
            iterations: 10,
            hop_attenuation: 0.05,
            degree_exponent: 0.1,
        }
    }

    /// Default EVO parameters (forward probability 0.3, capped fires).
    pub fn default_evo() -> Self {
        Algorithm::Evo {
            new_vertices: 64,
            p_forward: 0.3,
            max_burst: 64,
            seed: 0x45564F,
        }
    }

    /// Default PageRank parameters.
    pub fn default_pagerank() -> Self {
        Algorithm::PageRank {
            iterations: 20,
            damping: 0.85,
        }
    }

    /// Default SSSP workload (source vertex 0).
    pub fn default_sssp() -> Self {
        Algorithm::Sssp { source: 0 }
    }

    /// The paper's five-kernel workload with default parameters.
    pub fn paper_workload() -> Vec<Algorithm> {
        vec![
            Algorithm::Stats,
            Algorithm::default_bfs(),
            Algorithm::Conn,
            Algorithm::default_cd(),
            Algorithm::default_evo(),
        ]
    }

    /// The LDBC Graphalytics successor workload: the paper's five kernels
    /// plus SSSP and LCC (arXiv 2011.15028).
    pub fn ldbc_workload() -> Vec<Algorithm> {
        let mut w = Self::paper_workload();
        w.push(Algorithm::default_sssp());
        w.push(Algorithm::Lcc);
        w
    }
}

/// The result of running an algorithm. Per-vertex vectors are indexed by
/// the canonical graph's *internal* vertex ids.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    /// STATS result.
    Stats(StatsResult),
    /// BFS depth per vertex; `-1` for unreachable vertices.
    Depths(Vec<i64>),
    /// Component label per vertex (any labeling; compared up to renaming).
    Components(Vec<u32>),
    /// Community label per vertex (deterministic spec ⇒ exact comparison).
    Communities(Vec<u32>),
    /// EVO: the predicted new edges, sorted.
    Evolution(Vec<Edge>),
    /// PageRank score per vertex.
    Ranks(Vec<f64>),
    /// SSSP fixed-point distance per vertex; [`INFINITY`] when unreachable.
    /// Integer-scaled weights make path sums exact, so comparison is exact.
    Distances(Vec<u64>),
    /// Local clustering coefficient per vertex, in `[0, 1]`.
    LocalClustering(Vec<f64>),
}

impl Output {
    /// Validator equivalence: exact where the spec is deterministic,
    /// partition-equality for component labelings, and small-tolerance
    /// comparison for floating-point outputs.
    pub fn equivalent(&self, other: &Output) -> bool {
        match (self, other) {
            (Output::Stats(a), Output::Stats(b)) => {
                a.num_vertices == b.num_vertices
                    && a.num_edges == b.num_edges
                    && (a.mean_local_cc - b.mean_local_cc).abs() < 1e-9
            }
            (Output::Depths(a), Output::Depths(b)) => a == b,
            (Output::Components(a), Output::Components(b)) => partitions_equal(a, b),
            (Output::Communities(a), Output::Communities(b)) => a == b,
            (Output::Evolution(a), Output::Evolution(b)) => a == b,
            (Output::Ranks(a), Output::Ranks(b)) => {
                a.len() == b.len()
                    && a.iter()
                        .zip(b)
                        .all(|(x, y)| (x - y).abs() <= 1e-9 + 1e-6 * x.abs().max(y.abs()))
            }
            (Output::Distances(a), Output::Distances(b)) => a == b,
            (Output::LocalClustering(a), Output::LocalClustering(b)) => {
                a.len() == b.len()
                    && a.iter()
                        .zip(b)
                        .all(|(x, y)| (x - y).abs() <= 1e-9 + 1e-6 * x.abs().max(y.abs()))
            }
            _ => false,
        }
    }

    /// Short content summary for reports.
    pub fn summary(&self) -> String {
        match self {
            Output::Stats(s) => format!(
                "|V|={} |E|={} meanLCC={:.4}",
                s.num_vertices, s.num_edges, s.mean_local_cc
            ),
            Output::Depths(d) => {
                let reached = d.iter().filter(|&&x| x >= 0).count();
                let max = d.iter().copied().max().unwrap_or(-1);
                format!("reached={reached} maxDepth={max}")
            }
            Output::Components(c) => {
                format!("components={}", distinct_count(c))
            }
            Output::Communities(c) => {
                format!("communities={}", distinct_count(c))
            }
            Output::Evolution(e) => format!("newEdges={}", e.len()),
            Output::Ranks(r) => {
                let sum: f64 = r.iter().sum();
                format!("vertices={} sum={sum:.4}", r.len())
            }
            Output::Distances(d) => {
                let reached = d.iter().filter(|&&x| x != INFINITY).count();
                let max = d.iter().copied().filter(|&x| x != INFINITY).max();
                match max {
                    Some(m) => format!("reached={reached} maxDist={m}"),
                    None => format!("reached={reached}"),
                }
            }
            Output::LocalClustering(c) => {
                let n = c.len();
                let mean = if n == 0 {
                    0.0
                } else {
                    c.iter().sum::<f64>() / n as f64
                };
                format!("vertices={n} meanLCC={mean:.4}")
            }
        }
    }
}

fn distinct_count(labels: &[u32]) -> usize {
    let mut sorted = labels.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    sorted.len()
}

/// True when two labelings induce the same partition of `0..n`.
pub fn partitions_equal(a: &[u32], b: &[u32]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    // The distinct (a-label, b-label) pairs are a bijection between the two
    // label sets exactly when no a-label and no b-label occurs in two of
    // them. Labels can be any u32, so sort rather than index by label.
    let mut pairs: Vec<(u32, u32)> = a.iter().copied().zip(b.iter().copied()).collect();
    pairs.sort_unstable();
    pairs.dedup();
    let mut b_labels: Vec<u32> = pairs.iter().map(|&(_, lb)| lb).collect();
    b_labels.sort_unstable();
    pairs.windows(2).all(|w| w[0].0 != w[1].0) && b_labels.windows(2).all(|w| w[0] != w[1])
}

/// Runs `alg` on `g` with the kernels the reference platform times, on up
/// to `threads` workers: direction-optimizing BFS, delta-stepping SSSP and
/// the parallel CONN, PageRank, LCC and STATS. CD and EVO have one kernel
/// and run it sequentially.
///
/// The kernels are built on the deterministic runtime
/// (`graphalytics-parallel`): the same code runs at every thread count
/// (one included), and its output is byte-identical at every thread count
/// and bitwise equal to the textbook kernels of [`reference()`]. That
/// function, not this one, is the validator's oracle, so the reference
/// platform's cells for these six kernels are checked against code they
/// do not share.
pub fn reference_with_threads(g: &CsrGraph, alg: &Algorithm, threads: usize) -> Output {
    match alg {
        Algorithm::Stats => Output::Stats(stats::stats_parallel(g, threads)),
        Algorithm::Bfs { source } => Output::Depths(bfs::bfs_parallel(g, *source, threads)),
        Algorithm::Conn => Output::Components(conn::connected_components_parallel(g, threads)),
        Algorithm::PageRank {
            iterations,
            damping,
        } => Output::Ranks(pagerank::pagerank_parallel(
            g,
            *iterations,
            *damping,
            threads,
        )),
        Algorithm::Sssp { source } => Output::Distances(sssp::sssp_parallel(g, *source, threads)),
        Algorithm::Lcc => Output::LocalClustering(lcc::local_clustering_parallel(g, threads)),
        other => reference(g, other),
    }
}

/// Runs the textbook implementation of `alg` on `g` — queue BFS,
/// binary-heap Dijkstra, push PageRank — sequentially: the oracle the
/// Output Validator and the tests compare every platform against.
pub fn reference(g: &CsrGraph, alg: &Algorithm) -> Output {
    match alg {
        Algorithm::Stats => Output::Stats(stats::stats(g)),
        Algorithm::Bfs { source } => Output::Depths(bfs::bfs(g, *source)),
        Algorithm::Conn => Output::Components(conn::connected_components(g)),
        Algorithm::Cd {
            iterations,
            hop_attenuation,
            degree_exponent,
        } => Output::Communities(cd::community_detection(
            g,
            *iterations,
            *hop_attenuation,
            *degree_exponent,
        )),
        Algorithm::Evo {
            new_vertices,
            p_forward,
            max_burst,
            seed,
        } => Output::Evolution(evo::forest_fire(
            g,
            *new_vertices,
            *p_forward,
            *max_burst,
            *seed,
        )),
        Algorithm::PageRank {
            iterations,
            damping,
        } => Output::Ranks(pagerank::pagerank(g, *iterations, *damping)),
        Algorithm::Sssp { source } => Output::Distances(sssp::sssp(g, *source)),
        Algorithm::Lcc => Output::LocalClustering(lcc::local_clustering(g)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphalytics_graph::EdgeListGraph;

    fn triangle() -> CsrGraph {
        CsrGraph::from_edge_list(&EdgeListGraph::undirected_from_edges(vec![
            (0, 1),
            (1, 2),
            (0, 2),
        ]))
    }

    #[test]
    fn all_algorithms_round_trip() {
        use graphalytics_codec::Codec;

        let algorithms = vec![
            Algorithm::Stats,
            Algorithm::Bfs { source: 42 },
            Algorithm::Conn,
            Algorithm::Cd {
                iterations: 9,
                hop_attenuation: 0.5,
                degree_exponent: 2.0,
            },
            Algorithm::Evo {
                new_vertices: 64,
                p_forward: 0.3,
                max_burst: 100,
                seed: 1234,
            },
            Algorithm::PageRank {
                iterations: 30,
                damping: 0.85,
            },
            Algorithm::Sssp { source: 7 },
            Algorithm::Lcc,
        ];
        for alg in algorithms {
            let mut buf = Vec::new();
            alg.encode_into(&mut buf);
            let mut pos = 0usize;
            let decoded = Algorithm::decode_from(&buf, &mut pos).expect("decodes");
            assert_eq!(pos, buf.len());
            assert_eq!(decoded, alg);
        }
    }

    #[test]
    fn names_match_paper_acronyms() {
        let names: Vec<&str> = Algorithm::paper_workload()
            .iter()
            .map(|a| a.name())
            .collect();
        assert_eq!(names, vec!["STATS", "BFS", "CONN", "CD", "EVO"]);
    }

    #[test]
    fn partition_equality_up_to_renaming() {
        assert!(partitions_equal(&[0, 0, 1, 1], &[7, 7, 3, 3]));
        assert!(!partitions_equal(&[0, 0, 1, 1], &[7, 3, 3, 3]));
        assert!(!partitions_equal(&[0, 0, 1, 1], &[7, 7, 7, 7]));
        assert!(!partitions_equal(&[0, 0], &[0, 0, 0]));
        assert!(partitions_equal(&[], &[]));
    }

    #[test]
    fn output_equivalence_rules() {
        assert!(Output::Depths(vec![0, 1, -1]).equivalent(&Output::Depths(vec![0, 1, -1])));
        assert!(!Output::Depths(vec![0, 1]).equivalent(&Output::Depths(vec![0, 2])));
        assert!(Output::Components(vec![1, 1, 2]).equivalent(&Output::Components(vec![9, 9, 4])));
        assert!(Output::Ranks(vec![0.5, 0.5]).equivalent(&Output::Ranks(vec![0.5 + 1e-10, 0.5])));
        assert!(!Output::Ranks(vec![0.5, 0.5]).equivalent(&Output::Ranks(vec![0.6, 0.4])));
        // SSSP distances compare exactly (integer-scaled weights).
        assert!(Output::Distances(vec![0, 7, INFINITY])
            .equivalent(&Output::Distances(vec![0, 7, INFINITY])));
        assert!(!Output::Distances(vec![0, 7]).equivalent(&Output::Distances(vec![0, 8])));
        // LCC coefficients compare with the floating-point tolerance.
        assert!(Output::LocalClustering(vec![0.5])
            .equivalent(&Output::LocalClustering(vec![0.5 + 1e-10])));
        assert!(!Output::LocalClustering(vec![0.5]).equivalent(&Output::LocalClustering(vec![0.6])));
        // Cross-kind comparisons are never equivalent.
        assert!(!Output::Depths(vec![]).equivalent(&Output::Components(vec![])));
        assert!(!Output::Distances(vec![]).equivalent(&Output::Depths(vec![])));
        assert!(!Output::LocalClustering(vec![]).equivalent(&Output::Ranks(vec![])));
    }

    #[test]
    fn reference_dispatches_every_algorithm() {
        let g = triangle();
        for alg in Algorithm::ldbc_workload() {
            let out = reference(&g, &alg);
            assert!(!out.summary().is_empty(), "{alg:?}");
        }
        let pr = reference(&g, &Algorithm::default_pagerank());
        assert!(matches!(pr, Output::Ranks(_)));
    }

    #[test]
    fn ldbc_workload_extends_the_paper_five() {
        let names: Vec<&str> = Algorithm::ldbc_workload()
            .iter()
            .map(|a| a.name())
            .collect();
        assert_eq!(
            names,
            vec!["STATS", "BFS", "CONN", "CD", "EVO", "SSSP", "LCC"]
        );
    }

    #[test]
    fn summaries_are_informative() {
        let g = triangle();
        let s = reference(&g, &Algorithm::Stats).summary();
        assert!(s.contains("|V|=3"));
        let d = reference(&g, &Algorithm::Bfs { source: 0 }).summary();
        assert!(d.contains("reached=3"));
    }
}
