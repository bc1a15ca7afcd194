//! The reference platform: the `algos` kernels exposed through the
//! [`Platform`] API.
//!
//! Serves two purposes: a baseline any new platform can be diffed against
//! inside a benchmark run, and the minimal example of a platform
//! integration (the "no-frills" entry in comparison tables). It runs one
//! kernel per algorithm at every thread count — direction-optimizing BFS,
//! delta-stepping SSSP, the parallel CONN/PageRank/LCC/STATS — so its one-
//! and many-thread cells time the same code. The validator's oracle is
//! `algos::reference` (textbook BFS, Dijkstra, …), so every cell but CD
//! and EVO, which have one implementation, is checked against code it
//! does not share.

use std::sync::Arc;

use graphalytics_algos::{reference_with_threads, Algorithm, Output};
use graphalytics_graph::CsrGraph;

use crate::platform::{GraphHandle, GraphTable, Platform, PlatformError, RunContext};

/// Reference platform. One worker by default; [`ReferencePlatform::with_threads`]
/// spreads BFS/CONN/PageRank/SSSP/LCC/STATS over more workers of the
/// deterministic parallel runtime — the kernels are the same at every
/// thread count and so are their output bytes.
#[derive(Default)]
pub struct ReferencePlatform {
    graphs: GraphTable<Arc<CsrGraph>>,
    threads: usize,
}

impl ReferencePlatform {
    /// Creates the platform with one worker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a platform running its kernels on up to `threads`
    /// workers (`0` resolves to the machine default, see
    /// [`graphalytics_parallel::default_threads`]).
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: graphalytics_parallel::resolve_threads((threads > 0).then_some(threads)),
            ..Self::default()
        }
    }

    /// The worker count the kernels run on (`0`, from
    /// [`ReferencePlatform::new`], runs them on one).
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl Platform for ReferencePlatform {
    fn name(&self) -> &'static str {
        "Reference"
    }

    fn load_graph(&mut self, graph: &CsrGraph) -> Result<GraphHandle, PlatformError> {
        Ok(self.graphs.insert(Arc::new(graph.clone())))
    }

    fn run(
        &mut self,
        handle: GraphHandle,
        algorithm: &Algorithm,
        ctx: &RunContext,
    ) -> Result<Output, PlatformError> {
        ctx.check_deadline()?;
        let graph = self.graphs.get(handle)?;
        let threads = self.threads.max(1);
        let mut span = ctx.tracer().span("reference.kernel");
        span.field("algorithm", algorithm.name())
            .field("threads", threads as i64)
            .field("vertices", graph.num_vertices() as i64)
            .field("arcs", graph.num_arcs() as i64)
            // Locality proxies for the CSR kernels: the offset and arc
            // arrays stream sequentially; per-destination state updates
            // land at arbitrary vertex indices.
            .field("seq_accesses", graph.num_vertices() + graph.num_arcs())
            .field("rand_accesses", graph.num_arcs());
        ctx.tracer().metrics().set_gauge(
            "graphalytics_reference_threads",
            &[("algorithm", algorithm.name())],
            threads as f64,
        );
        Ok(reference_with_threads(graph, algorithm, threads))
    }

    fn unload(&mut self, handle: GraphHandle) {
        self.graphs.remove(handle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphalytics_algos::reference;
    use graphalytics_graph::EdgeListGraph;

    #[test]
    fn runs_every_kernel_and_validates_against_itself() {
        let g = CsrGraph::from_edge_list(&EdgeListGraph::undirected_from_edges(vec![
            (0, 1),
            (1, 2),
            (0, 2),
            (3, 4),
        ]));
        let mut p = ReferencePlatform::new();
        let handle = p.load_graph(&g).unwrap();
        for alg in Algorithm::paper_workload() {
            let out = p.run(handle, &alg, &RunContext::unbounded()).unwrap();
            assert!(reference(&g, &alg).equivalent(&out));
        }
        p.unload(handle);
        assert_eq!(
            p.run(handle, &Algorithm::Conn, &RunContext::unbounded()),
            Err(PlatformError::InvalidHandle)
        );
    }

    /// The shapes the kernels branch on, all from one Graph500 edge list.
    fn oracle_shapes() -> Vec<(&'static str, CsrGraph)> {
        use graphalytics_graph::WEIGHT_SCALE;

        let rmat = crate::Dataset::graph500(8)
            .load()
            .expect("generate")
            .to_edge_list();
        let edges = rmat.edges().to_vec();
        let sub_unit: Vec<_> = edges
            .iter()
            .map(|&(u, v)| (u, v, (u * 31 + v * 17) % 9 * (WEIGHT_SCALE / 10) + 1))
            .collect();
        let mut with_isolated = rmat.vertices().to_vec();
        with_isolated.extend(5000..5040);
        [
            (
                "undirected",
                EdgeListGraph::undirected_from_edges(edges.clone()),
            ),
            (
                "directed",
                EdgeListGraph::directed_from_edges(edges.clone()),
            ),
            (
                "sub-unit weights",
                EdgeListGraph::new_weighted(Vec::new(), sub_unit, false),
            ),
            (
                "isolated vertices",
                EdgeListGraph::new(with_isolated, edges, false),
            ),
        ]
        .into_iter()
        .map(|(name, g)| (name, CsrGraph::from_edge_list(&g)))
        .collect()
    }

    #[test]
    fn reference_platform_matches_the_oracle_at_every_thread_count() {
        let absent = 1 << 40;
        let mut algorithms = Algorithm::ldbc_workload();
        algorithms.extend([
            Algorithm::default_pagerank(),
            Algorithm::Bfs { source: 5001 },
            Algorithm::Sssp { source: 5001 },
            Algorithm::Bfs { source: absent },
            Algorithm::Sssp { source: absent },
        ]);
        for (shape, g) in oracle_shapes() {
            for mut p in [
                ReferencePlatform::new(),
                ReferencePlatform::with_threads(2),
                ReferencePlatform::with_threads(8),
            ] {
                let handle = p.load_graph(&g).unwrap();
                for alg in &algorithms {
                    let out = p.run(handle, alg, &RunContext::unbounded()).unwrap();
                    // Debug text is the shortest round-trip form of every
                    // float, so equal text is equal bits.
                    assert_eq!(
                        format!("{out:?}"),
                        format!("{:?}", reference(&g, alg)),
                        "{shape}, {alg:?}, {} threads",
                        p.threads()
                    );
                }
            }
        }
    }

    #[test]
    fn threaded_platform_emits_span() {
        use crate::trace::Tracer;

        let g = CsrGraph::from_edge_list(&EdgeListGraph::undirected_from_edges(vec![
            (0, 1),
            (1, 2),
            (0, 2),
            (3, 4),
        ]));
        let mut par = ReferencePlatform::with_threads(8);
        assert_eq!(par.threads(), 8);
        let hp = par.load_graph(&g).unwrap();
        let tracer = std::sync::Arc::new(Tracer::new());
        let ctx = RunContext::unbounded().with_tracer(std::sync::Arc::clone(&tracer));
        for alg in Algorithm::paper_workload() {
            par.run(hp, &alg, &ctx).unwrap();
        }
        let spans = tracer.finished_spans();
        assert_eq!(spans.len(), Algorithm::paper_workload().len());
        assert!(spans.iter().all(|s| s.name == "reference.kernel"));
        assert_eq!(spans[0].field("threads").and_then(|f| f.as_i64()), Some(8));
    }

    #[test]
    fn with_threads_zero_resolves_to_machine_default() {
        assert!(ReferencePlatform::with_threads(0).threads() >= 1);
    }

    #[test]
    fn respects_deadlines() {
        let g = CsrGraph::from_edge_list(&EdgeListGraph::undirected_from_edges(vec![(0, 1)]));
        let mut p = ReferencePlatform::new();
        let handle = p.load_graph(&g).unwrap();
        let ctx = RunContext::with_timeout(std::time::Duration::from_nanos(1));
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert_eq!(
            p.run(handle, &Algorithm::Conn, &ctx),
            Err(PlatformError::Timeout)
        );
    }
}
