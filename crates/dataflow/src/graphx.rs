//! GraphX-style graph processing on the dataflow substrate.
//!
//! "GraphX is a graph-processing library built on top of the generic Apache
//! Spark distributed processing platform... GraphX supports iterative
//! algorithms implemented according to the Pregel programming model"
//! (paper §3.2). Each iteration here does what GraphX's Pregel does: join
//! the edge dataset with the vertex-state dataset, shuffle the generated
//! messages by destination, reduce/group them, and apply updates — which is
//! exactly why this platform runs slower than the native BSP engine on the
//! same workload (the ~3× CONN gap of Figure 4) and why its memory use is
//! higher (several live datasets per iteration).

use std::sync::Arc;

use graphalytics_algos::cd;
use graphalytics_core::platform::{PlatformError, RunContext};
use graphalytics_graph::{metrics, CsrGraph, Edge, Vid};

use crate::rdd::{Dataset, SparkContext};

/// A graph held as an arc dataset (both directions for undirected input),
/// plus the vertex count.
pub struct GraphFrame {
    ctx: Arc<SparkContext>,
    /// (src, dst) arcs.
    arcs: Dataset<(u32, u32)>,
    /// (src, (dst, weight)) arcs — the weighted triplet view SSSP joins
    /// against (GraphX keeps edge attributes in the edge RDD the same way).
    weighted_arcs: Dataset<(u32, (u32, u64))>,
    /// Vertex count (ids are dense internal ids of the canonical graph).
    pub num_vertices: usize,
}

impl GraphFrame {
    /// Loads a canonical CSR graph into datasets ("ETL").
    pub fn from_csr(ctx: &Arc<SparkContext>, g: &CsrGraph) -> Result<Self, PlatformError> {
        let mut arcs = Vec::with_capacity(g.num_arcs());
        let mut weighted = Vec::with_capacity(g.num_arcs());
        for v in 0..g.num_vertices() as Vid {
            for (&u, &w) in g.neighbors(v).iter().zip(g.neighbor_weights(v)) {
                arcs.push((v, u));
                weighted.push((v, (u, w)));
            }
        }
        Ok(Self {
            ctx: Arc::clone(ctx),
            arcs: Dataset::from_vec(ctx, arcs)?,
            weighted_arcs: Dataset::from_vec(ctx, weighted)?,
            num_vertices: g.num_vertices(),
        })
    }

    /// One message round: joins `states` (keyed by source vertex) with the
    /// arc dataset and emits `(dst, msg)` pairs, merged with
    /// `reduce_by_key(merge)`. Returns the collected per-vertex messages.
    fn propagate_reduced<S, M>(
        &self,
        states: Vec<(u32, S)>,
        msg: impl Fn(u32, &S) -> M + Sync,
        merge: impl Fn(M, M) -> M + Sync,
    ) -> Result<Vec<(u32, M)>, PlatformError>
    where
        S: Clone + Send + Sync,
        M: Clone + Send + Sync,
    {
        let state_ds = Dataset::from_vec(&self.ctx, states)?;
        let triplets = self.arcs.join(&state_ds)?;
        let messages = triplets.map(|(src, (dst, s))| (*dst, msg(*src, s)))?;
        let merged = messages.reduce_by_key(merge)?;
        Ok(merged.collect())
    }

    /// Like [`Self::propagate_reduced`] but gathers all messages per vertex
    /// (GraphX `groupByKey`).
    fn propagate_gathered<S, M>(
        &self,
        states: Vec<(u32, S)>,
        msg: impl Fn(u32, &S) -> M + Sync,
    ) -> Result<Vec<(u32, Vec<M>)>, PlatformError>
    where
        S: Clone + Send + Sync,
        M: Clone + Send + Sync,
    {
        let state_ds = Dataset::from_vec(&self.ctx, states)?;
        let triplets = self.arcs.join(&state_ds)?;
        let messages = triplets.map(|(src, (dst, s))| (*dst, msg(*src, s)))?;
        let gathered = messages.group_by_key()?;
        Ok(gathered.collect())
    }

    /// The frontier loop BFS, SSSP and CONN share: each round, `propose`
    /// turns the frontier's `(vertex, value)` pairs into one proposal per
    /// destination; a proposal that `improves` on the destination's value
    /// replaces it and puts the vertex on the next frontier. The initial
    /// frontier's values are written to `values` first. Runs until a round
    /// improves nothing, one `graphx.iteration` span per round.
    fn frontier_rounds<S: Copy>(
        &self,
        job: &str,
        values: &mut [S],
        mut frontier: Vec<(u32, S)>,
        propose: impl Fn(Vec<(u32, S)>) -> Result<Vec<(u32, S)>, PlatformError>,
        improves: impl Fn(S, S) -> bool,
        ctx: &RunContext,
    ) -> Result<(), PlatformError> {
        for &(v, seed) in &frontier {
            values[v as usize] = seed;
        }
        let mut iteration = 0usize;
        while !frontier.is_empty() {
            ctx.check_deadline()?;
            let mut span = ctx.tracer().span("graphx.iteration");
            span.field("job", job)
                .field("iteration", iteration)
                .field("frontier", frontier.len());
            let stages_before = self.ctx.stats().stages;
            let mut next = Vec::new();
            for (v, proposal) in propose(frontier)? {
                if improves(proposal, values[v as usize]) {
                    values[v as usize] = proposal;
                    next.push((v, proposal));
                }
            }
            span.field("stages", self.ctx.stats().stages - stages_before);
            frontier = next;
            iteration += 1;
        }
        Ok(())
    }

    /// BFS depths from an internal source vertex: the frontier sends
    /// `depth + 1`, and only unreached vertices accept.
    pub fn bfs(&self, source: Option<Vid>, ctx: &RunContext) -> Result<Vec<i64>, PlatformError> {
        let mut depths = vec![-1i64; self.num_vertices];
        let frontier = source.map(|src| (src, 0)).into_iter().collect();
        self.frontier_rounds(
            "bfs",
            &mut depths,
            frontier,
            |frontier| self.propagate_reduced(frontier, |_, &d| d + 1, |a, b| a.min(b)),
            |_, current| current < 0,
            ctx,
        )?;
        Ok(depths)
    }

    /// SSSP fixed-point distances from an internal source vertex:
    /// Bellman-Ford rounds where the improved frontier joins the weighted
    /// arc dataset and proposals are min-reduced per destination — the
    /// shape of GraphX's built-in `ShortestPaths`.
    pub fn sssp(&self, source: Option<Vid>, ctx: &RunContext) -> Result<Vec<u64>, PlatformError> {
        let mut dists = vec![graphalytics_algos::INFINITY; self.num_vertices];
        let frontier = source.map(|src| (src, 0)).into_iter().collect();
        self.frontier_rounds(
            "sssp",
            &mut dists,
            frontier,
            |frontier| {
                let state_ds = Dataset::from_vec(&self.ctx, frontier)?;
                let triplets = self.weighted_arcs.join(&state_ds)?;
                let messages =
                    triplets.map(|(_src, ((dst, w), d))| (*dst, d.saturating_add(*w)))?;
                Ok(messages.reduce_by_key(|a, b| a.min(b))?.collect())
            },
            |proposal, current| proposal < current,
            ctx,
        )?;
        Ok(dists)
    }

    /// Connected components via HashMin label propagation (this uses the
    /// same built-in pattern as GraphX's `connectedComponents`).
    pub fn connected_components(&self, ctx: &RunContext) -> Result<Vec<u32>, PlatformError> {
        let mut labels: Vec<u32> = (0..self.num_vertices as u32).collect();
        let frontier: Vec<(u32, u32)> = labels.iter().map(|&l| (l, l)).collect();
        self.frontier_rounds(
            "conn",
            &mut labels,
            frontier,
            |frontier| self.propagate_reduced(frontier, |_, &l| l, |a, b| a.min(b)),
            |proposal, current| proposal < current,
            ctx,
        )?;
        Ok(labels)
    }

    /// Community detection following the deterministic Leung spec (see
    /// `graphalytics_algos::cd`); messages carry `(label, score,
    /// influence)` and are gathered (not reduced) per destination.
    pub fn community_detection(
        &self,
        iterations: usize,
        hop_attenuation: f64,
        degree_exponent: f64,
        degrees: &[usize],
        ctx: &RunContext,
    ) -> Result<Vec<u32>, PlatformError> {
        let n = self.num_vertices;
        let mut labels: Vec<u32> = (0..n as u32).collect();
        let mut scores: Vec<f64> = vec![1.0; n];
        for iteration in 0..iterations {
            ctx.check_deadline()?;
            let mut span = ctx.tracer().span("graphx.iteration");
            span.field("job", "cd")
                .field("iteration", iteration)
                .field("frontier", n);
            let stages_before = self.ctx.stats().stages;
            let states: Vec<(u32, (u32, f64, f64))> = (0..n as u32)
                .map(|v| {
                    let score = scores[v as usize];
                    let influence = cd::influence(score, degrees[v as usize], degree_exponent);
                    (v, (labels[v as usize], score, influence))
                })
                .collect();
            let gathered = self.propagate_gathered(states, |_, s| *s)?;
            let mut changed = false;
            let mut next_labels = labels.clone();
            let mut next_scores = scores.clone();
            for (v, messages) in gathered {
                let mut weight = cd::LabelWeights::default();
                for (label, score, influence) in messages {
                    cd::add_vote(&mut weight, label, score, influence);
                }
                let own = (labels[v as usize], scores[v as usize]);
                let (label, score, adopted) = cd::adopt_or_keep(own, &mut weight, hop_attenuation);
                changed |= adopted;
                next_labels[v as usize] = label;
                next_scores[v as usize] = score;
            }
            labels = next_labels;
            scores = next_scores;
            span.field("stages", self.ctx.stats().stages - stages_before)
                .field("changed", changed);
            if !changed {
                break;
            }
        }
        Ok(labels)
    }

    /// Per-vertex local clustering coefficients on the degree-oriented
    /// adjacency `N⁺` (`graph::metrics`): the oriented arcs are a narrow
    /// filter against the broadcast `degrees`. A join ships `N⁺(src)`, one
    /// shared list, to every `dst ∈ N⁺(src)`; a second meets it with
    /// `N⁺(dst)`, and each common `w` is a triangle `(src, dst, w)`. Each
    /// partition sums its credits before one `reduce_by_key`, so at most
    /// partitions × n credit records exist.
    pub fn local_clustering(
        &self,
        degrees: &[usize],
        ctx: &RunContext,
    ) -> Result<Vec<f64>, PlatformError> {
        ctx.check_deadline()?;
        let n = self.num_vertices;
        let mut coefficients = vec![0.0f64; n];
        if n == 0 {
            return Ok(coefficients);
        }
        let mut span = ctx.tracer().span("graphx.iteration");
        span.field("job", "lcc").field("iteration", 0usize);
        let stages_before = self.ctx.stats().stages;
        let degree = |v: u32| degrees[v as usize];
        let oriented = self
            .arcs
            .filter(|&(v, u)| metrics::outranks(degree(u), u, degree(v), v))?;
        // (v, N⁺(v)), sorted and shared by every record that carries it.
        let lists = oriented.group_by_key()?.map(|(v, ns)| {
            let mut sorted = ns.clone();
            sorted.sort_unstable();
            (*v, Arc::<[u32]>::from(sorted))
        })?;
        // (dst, (src, N⁺(src))), then N⁺(dst) beside it.
        let shipped = oriented
            .join(&lists)?
            .map(|(src, (dst, list))| (*dst, (*src, Arc::clone(list))))?;
        ctx.check_deadline()?;
        let met = shipped.join(&lists)?;
        let credits = met.map_partitions(|part| {
            let mut credit = vec![0usize; n];
            for (dst, ((src, theirs), mine)) in part {
                metrics::for_each_common(theirs, mine, |j| {
                    credit[*src as usize] += 1;
                    credit[*dst as usize] += 1;
                    credit[mine[j] as usize] += 1;
                });
            }
            (0..n as u32).zip(credit).filter(|&(_, c)| c > 0).collect()
        })?;
        for (v, triangles) in credits.reduce_by_key(|a, b| a + b)?.collect() {
            coefficients[v as usize] = metrics::closed_pair_fraction(triangles, degree(v));
        }
        span.field("stages", self.ctx.stats().stages - stages_before);
        Ok(coefficients)
    }

    /// PageRank: contribution shuffle + reduce per iteration, dangling mass
    /// redistributed from the driver (matching the reference step for
    /// step).
    pub fn pagerank(
        &self,
        iterations: usize,
        damping: f64,
        degrees: &[usize],
        ctx: &RunContext,
    ) -> Result<Vec<f64>, PlatformError> {
        let n = self.num_vertices;
        if n == 0 {
            return Ok(Vec::new());
        }
        let inv_n = 1.0 / n as f64;
        let mut ranks = vec![inv_n; n];
        for iteration in 0..iterations {
            ctx.check_deadline()?;
            let mut span = ctx.tracer().span("graphx.iteration");
            span.field("job", "pagerank").field("iteration", iteration);
            let stages_before = self.ctx.stats().stages;
            let shares: Vec<(u32, f64)> = (0..n as u32)
                .filter(|&v| degrees[v as usize] > 0)
                .map(|v| (v, ranks[v as usize] / degrees[v as usize] as f64))
                .collect();
            let dangling: f64 = (0..n).filter(|&v| degrees[v] == 0).map(|v| ranks[v]).sum();
            let received = self.propagate_reduced(shares, |_, &s| s, |a, b| a + b)?;
            let base = (1.0 - damping) * inv_n + damping * dangling * inv_n;
            let mut next = vec![base; n];
            for (v, sum) in received {
                next[v as usize] += damping * sum;
            }
            span.field("stages", self.ctx.stats().stages - stages_before);
            ranks = next;
        }
        Ok(ranks)
    }

    /// EVO: the adjacency is collected to the driver (GraphX programs
    /// collect small results to the driver routinely) and the spec'd
    /// forest-fire walk runs over it, reproducing the reference decisions
    /// bit for bit.
    pub fn forest_fire(
        &self,
        external_ids: &[u64],
        new_vertices: usize,
        p_forward: f64,
        max_burst: usize,
        seed: u64,
        ctx: &RunContext,
    ) -> Result<Vec<Edge>, PlatformError> {
        ctx.check_deadline()?;
        let n = self.num_vertices;
        if n == 0 || new_vertices == 0 {
            return Ok(Vec::new());
        }
        let mut adjacency: Vec<Vec<Vid>> = vec![Vec::new(); n];
        for (v, mut ns) in self.arcs.group_by_key()?.collect() {
            ns.sort_unstable();
            adjacency[v as usize] = ns;
        }
        ctx.check_deadline()?;
        Ok(graphalytics_algos::evo::forest_fire_over_adjacency(
            &adjacency,
            external_ids,
            new_vertices,
            p_forward,
            max_burst,
            seed,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphalytics_algos as algos;
    use graphalytics_graph::EdgeListGraph;

    fn setup(edges: Vec<(u64, u64)>) -> (Arc<SparkContext>, Arc<CsrGraph>, GraphFrame) {
        let g = Arc::new(CsrGraph::from_edge_list(
            &EdgeListGraph::undirected_from_edges(edges),
        ));
        let ctx = SparkContext::new(4, None);
        let frame = GraphFrame::from_csr(&ctx, &g).unwrap();
        (ctx, g, frame)
    }

    fn test_edges() -> Vec<(u64, u64)> {
        let mut edges = vec![(0, 1), (1, 2), (0, 2), (2, 3), (4, 5)];
        edges.extend((6..12).map(|i| (i, i + 1)));
        edges.push((12, 0));
        edges
    }

    #[test]
    fn bfs_matches_reference() {
        let (_c, g, frame) = setup(test_edges());
        let depths = frame.bfs(Some(0), &RunContext::unbounded()).unwrap();
        assert_eq!(depths, algos::bfs::bfs(&g, 0));
    }

    #[test]
    fn sssp_matches_reference_on_weighted_graph() {
        let g = Arc::new(CsrGraph::from_edge_list(&EdgeListGraph::new_weighted(
            Vec::new(),
            vec![
                (0, 1, 2_000_000),
                (1, 2, 500_000),
                (0, 2, 4_000_000),
                (2, 3, 1_500_000),
                (4, 5, 1_000_000),
            ],
            false,
        )));
        let ctx = SparkContext::new(4, None);
        let frame = GraphFrame::from_csr(&ctx, &g).unwrap();
        let dists = frame
            .sssp(g.internal_id(0), &RunContext::unbounded())
            .unwrap();
        assert_eq!(dists, algos::sssp::sssp(&g, 0));
        assert_eq!(dists[4], algos::INFINITY);
        let unreached = frame.sssp(None, &RunContext::unbounded()).unwrap();
        assert!(unreached.iter().all(|&d| d == algos::INFINITY));
    }

    #[test]
    fn local_clustering_matches_reference() {
        let (_c, g, frame) = setup(test_edges());
        let lccs = frame
            .local_clustering(&g.degrees(), &RunContext::unbounded())
            .unwrap();
        assert_eq!(lccs, algos::lcc::local_clustering(&g));
    }

    #[test]
    fn conn_matches_reference() {
        let (_c, g, frame) = setup(test_edges());
        let labels = frame
            .connected_components(&RunContext::unbounded())
            .unwrap();
        assert_eq!(labels, algos::conn::connected_components(&g));
    }

    #[test]
    fn cd_matches_reference() {
        let (_c, g, frame) = setup(test_edges());
        let labels = frame
            .community_detection(10, 0.05, 0.1, &g.degrees(), &RunContext::unbounded())
            .unwrap();
        assert_eq!(labels, algos::cd::community_detection(&g, 10, 0.05, 0.1));
    }

    #[test]
    fn stats_matches_reference() {
        let (_c, g, frame) = setup(test_edges());
        let lccs = frame
            .local_clustering(&g.degrees(), &RunContext::unbounded())
            .unwrap();
        assert_eq!(
            algos::stats::from_coefficients(g.num_edges(), &lccs),
            algos::stats::stats(&g)
        );
    }

    #[test]
    fn pagerank_matches_reference() {
        let (_c, g, frame) = setup(test_edges());
        let ranks = frame
            .pagerank(20, 0.85, &g.degrees(), &RunContext::unbounded())
            .unwrap();
        let expected = algos::pagerank::pagerank(&g, 20, 0.85);
        for (a, b) in ranks.iter().zip(&expected) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn evo_matches_reference() {
        let (_c, g, frame) = setup(test_edges());
        let ids: Vec<u64> = (0..g.num_vertices() as Vid)
            .map(|v| g.external_id(v))
            .collect();
        let edges = frame
            .forest_fire(&ids, 16, 0.3, 32, 0x45564F, &RunContext::unbounded())
            .unwrap();
        let expected = algos::evo::forest_fire(&g, 16, 0.3, 32, 0x45564F);
        assert_eq!(edges, expected);
    }

    #[test]
    fn shuffles_happen_every_iteration() {
        let (c, _g, frame) = setup(test_edges());
        let before = c.stats().shuffles;
        let _ = frame
            .connected_components(&RunContext::unbounded())
            .unwrap();
        let after = c.stats().shuffles;
        assert!(after > before + 2, "iterative shuffling expected");
    }

    #[test]
    fn memory_budget_aborts_iterative_jobs() {
        let g = Arc::new(CsrGraph::from_edge_list(
            &EdgeListGraph::undirected_from_edges((0..2000).map(|i| (i, i + 1)).collect()),
        ));
        let ctx = SparkContext::new(4, Some(20_000));
        match GraphFrame::from_csr(&ctx, &g) {
            Err(PlatformError::OutOfMemory { .. }) => {}
            Ok(frame) => {
                let err = frame.connected_components(&RunContext::unbounded());
                assert!(
                    matches!(err, Err(PlatformError::OutOfMemory { .. })),
                    "{err:?}"
                );
            }
            Err(e) => panic!("unexpected error {e:?}"),
        }
    }
}
