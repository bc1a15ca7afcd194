//! The reference platform: the oracle algorithms exposed through the
//! [`Platform`] API.
//!
//! Serves two purposes: a correctness baseline any new platform can be
//! diffed against inside a benchmark run, and the minimal example of a
//! platform integration (it is the "single-threaded, no-frills" entry in
//! comparison tables).

use std::sync::Arc;

use graphalytics_algos::{reference, reference_with_threads, Algorithm, Output};
use graphalytics_graph::CsrGraph;

use crate::platform::{GraphHandle, GraphTable, Platform, PlatformError, RunContext};

/// Oracle platform. Sequential by default; [`ReferencePlatform::with_threads`]
/// switches BFS/CONN/PageRank/SSSP/LCC/STATS (and CSR loading) onto the
/// deterministic parallel runtime — outputs stay byte-identical at every thread count.
#[derive(Default)]
pub struct ReferencePlatform {
    graphs: GraphTable<Arc<CsrGraph>>,
    threads: usize,
}

impl ReferencePlatform {
    /// Creates the sequential platform.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a platform running the parallel kernels on up to `threads`
    /// workers (`0` resolves to the machine default, see
    /// [`graphalytics_parallel::default_threads`]).
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: graphalytics_parallel::resolve_threads((threads > 0).then_some(threads)),
            ..Self::default()
        }
    }

    /// The worker count used by the parallel kernels (`0` = sequential
    /// oracle paths).
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
        let mut span = ctx.tracer().span("reference.kernel");
        span.field("algorithm", algorithm.name())
            .field("threads", self.threads.max(1) as i64)
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
            self.threads.max(1) as f64,
        );
        Ok(if self.threads > 1 {
            reference_with_threads(graph, algorithm, self.threads)
        } else {
            reference(graph, algorithm)
        })
    }

    fn unload(&mut self, handle: GraphHandle) {
        self.graphs.remove(handle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn threaded_platform_matches_sequential_and_emits_span() {
        use crate::trace::Tracer;

        let g = CsrGraph::from_edge_list(&EdgeListGraph::undirected_from_edges(vec![
            (0, 1),
            (1, 2),
            (0, 2),
            (3, 4),
        ]));
        let mut seq = ReferencePlatform::new();
        let mut par = ReferencePlatform::with_threads(8);
        assert_eq!(par.threads(), 8);
        let hs = seq.load_graph(&g).unwrap();
        let hp = par.load_graph(&g).unwrap();
        let tracer = std::sync::Arc::new(Tracer::new());
        let ctx = RunContext::unbounded().with_tracer(std::sync::Arc::clone(&tracer));
        for alg in Algorithm::paper_workload() {
            let a = seq.run(hs, &alg, &RunContext::unbounded()).unwrap();
            let b = par.run(hp, &alg, &ctx).unwrap();
            assert_eq!(a, b, "{}", alg.name());
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
