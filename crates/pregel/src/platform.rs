//! The Giraph platform adapter: plugs the BSP engine into the harness's
//! [`Platform`] API.

use std::sync::Arc;

use graphalytics_algos::{Algorithm, Output};
use graphalytics_core::platform::{GraphHandle, GraphTable, Platform, PlatformError, RunContext};
use graphalytics_graph::CsrGraph;

use crate::engine::{run, PregelConfig, VertexProgram};
use crate::programs::{dispatch, ProgramVisitor};

/// Giraph stand-in: a BSP vertex-centric engine with hash-partitioned
/// workers.
pub struct GiraphPlatform {
    config: PregelConfig,
    graphs: GraphTable<Arc<CsrGraph>>,
}

impl GiraphPlatform {
    /// Creates the platform with the given engine configuration.
    pub fn new(config: PregelConfig) -> Self {
        Self {
            config,
            graphs: GraphTable::default(),
        }
    }

    /// Default configuration (4 workers, no memory cap).
    pub fn with_defaults() -> Self {
        Self::new(PregelConfig::default())
    }
}

/// Runs the dispatched program on the in-process BSP engine.
struct InProcess<'a> {
    graph: &'a Arc<CsrGraph>,
    config: &'a PregelConfig,
    ctx: &'a RunContext,
}

impl ProgramVisitor for InProcess<'_> {
    type Out = Result<Output, PlatformError>;

    fn visit<P: VertexProgram>(
        self,
        program: &P,
        output: fn(&CsrGraph, Vec<P::State>) -> Output,
    ) -> Self::Out {
        let result = run(self.graph, program, self.config, self.ctx)?;
        Ok(output(self.graph, result.states))
    }
}

impl Platform for GiraphPlatform {
    fn name(&self) -> &'static str {
        "Giraph"
    }

    fn load_graph(&mut self, graph: &CsrGraph) -> Result<GraphHandle, PlatformError> {
        // ETL: Giraph keeps the whole graph in worker memory; enforce the
        // budget at load time like the JVM heap does.
        if let Some(budget) = self.config.memory_budget {
            let need = graph.memory_footprint();
            if need > budget {
                return Err(PlatformError::OutOfMemory {
                    required: need,
                    budget,
                });
            }
        }
        Ok(self.graphs.insert(Arc::new(graph.clone())))
    }

    fn run(
        &mut self,
        handle: GraphHandle,
        algorithm: &Algorithm,
        ctx: &RunContext,
    ) -> Result<Output, PlatformError> {
        let graph = Arc::clone(self.graphs.get(handle)?);
        PlatformError::refuse_directed_triangles(algorithm, graph.is_directed())?;
        let threads = InProcess {
            graph: &graph,
            config: &self.config,
            ctx,
        };
        match dispatch(algorithm, &graph, threads) {
            Some(result) => result,
            None => {
                // EVO is coordinator-driven (Giraph would run it from
                // master.compute()): the fires walk the partitioned
                // adjacency directly.
                ctx.check_deadline()?;
                Ok(graphalytics_algos::reference(&graph, algorithm))
            }
        }
    }

    fn unload(&mut self, handle: GraphHandle) {
        self.graphs.remove(handle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ComputeContext;
    use graphalytics_algos::reference;
    use graphalytics_core::{BenchmarkConfig, BenchmarkSuite, Dataset, RunStatus};
    use graphalytics_graph::{EdgeListGraph, Vid};

    fn load(platform: &mut GiraphPlatform) -> (GraphHandle, Arc<CsrGraph>) {
        let g = CsrGraph::from_edge_list(&EdgeListGraph::undirected_from_edges(vec![
            (0, 1),
            (1, 2),
            (0, 2),
            (2, 3),
            (4, 5),
        ]));
        let handle = platform.load_graph(&g).unwrap();
        (handle, Arc::new(g))
    }

    #[test]
    fn all_workload_algorithms_validate() {
        let mut p = GiraphPlatform::with_defaults();
        let (handle, graph) = load(&mut p);
        for alg in Algorithm::paper_workload() {
            let out = p.run(handle, &alg, &RunContext::unbounded()).unwrap();
            let expected = reference(&graph, &alg);
            assert!(expected.equivalent(&out), "{alg:?}: {out:?}");
        }
    }

    #[test]
    fn ldbc_workload_algorithms_validate() {
        let mut p = GiraphPlatform::with_defaults();
        let (handle, graph) = load(&mut p);
        for alg in Algorithm::ldbc_workload() {
            let out = p.run(handle, &alg, &RunContext::unbounded()).unwrap();
            let expected = reference(&graph, &alg);
            assert!(expected.equivalent(&out), "{alg:?}: {out:?}");
        }
    }

    #[test]
    fn pagerank_validates() {
        let mut p = GiraphPlatform::with_defaults();
        let (handle, graph) = load(&mut p);
        let alg = Algorithm::default_pagerank();
        let out = p.run(handle, &alg, &RunContext::unbounded()).unwrap();
        assert!(reference(&graph, &alg).equivalent(&out));
    }

    #[test]
    fn lcc_and_stats_refuse_a_directed_graph() {
        let g = CsrGraph::from_edge_list(&EdgeListGraph::directed_from_edges(vec![
            (0, 1),
            (1, 2),
            (2, 0),
        ]));
        let mut p = GiraphPlatform::with_defaults();
        let handle = p.load_graph(&g).unwrap();
        for alg in [Algorithm::Lcc, Algorithm::Stats] {
            let err = p.run(handle, &alg, &RunContext::unbounded()).unwrap_err();
            assert!(matches!(err, PlatformError::Unsupported(_)), "{alg:?}");
        }
    }

    #[test]
    fn invalid_handle_is_reported() {
        let mut p = GiraphPlatform::with_defaults();
        let err = p
            .run(GraphHandle(99), &Algorithm::Conn, &RunContext::unbounded())
            .unwrap_err();
        assert_eq!(err, PlatformError::InvalidHandle);
    }

    #[test]
    fn unload_frees_handle() {
        let mut p = GiraphPlatform::with_defaults();
        let (handle, _) = load(&mut p);
        p.unload(handle);
        assert_eq!(
            p.run(handle, &Algorithm::Conn, &RunContext::unbounded()),
            Err(PlatformError::InvalidHandle)
        );
    }

    /// Halts everywhere except on vertex 2, where `compute` panics.
    struct PanicsOnVertex2;

    impl VertexProgram for PanicsOnVertex2 {
        type State = i64;
        type Message = i64;

        fn init(&self, _vertex: Vid, _graph: &CsrGraph) -> i64 {
            0
        }

        fn compute(&self, _state: &mut i64, _messages: &[i64], ctx: &mut ComputeContext<'_, i64>) {
            if ctx.vertex == 2 {
                panic!("vertex 2 exploded");
            }
            ctx.vote_to_halt();
        }
    }

    const WORKER_PANICKED: &str = "pregel worker panicked: vertex 2 exploded";

    #[test]
    fn a_panicking_compute_is_a_failed_run_at_any_worker_count() {
        let (_, graph) = load(&mut GiraphPlatform::with_defaults());
        // One worker computes on the calling thread, four on their own.
        for workers in [1, 4] {
            let config = PregelConfig {
                workers,
                ..PregelConfig::default()
            };
            let err = run(&graph, &PanicsOnVertex2, &config, &RunContext::unbounded());
            assert_eq!(
                err.map(|_| ()),
                Err(PlatformError::Internal(WORKER_PANICKED.into()))
            );
        }
    }

    /// Giraph, except that CONN is the panicking program, run the way
    /// [`GiraphPlatform::run`] runs every dispatched program.
    struct PanicsOnConn(GiraphPlatform);

    impl Platform for PanicsOnConn {
        fn name(&self) -> &'static str {
            "Giraph"
        }

        fn load_graph(&mut self, graph: &CsrGraph) -> Result<GraphHandle, PlatformError> {
            self.0.load_graph(graph)
        }

        fn run(
            &mut self,
            handle: GraphHandle,
            algorithm: &Algorithm,
            ctx: &RunContext,
        ) -> Result<Output, PlatformError> {
            if *algorithm != Algorithm::Conn {
                return self.0.run(handle, algorithm, ctx);
            }
            let in_process = InProcess {
                graph: self.0.graphs.get(handle)?,
                config: &self.0.config,
                ctx,
            };
            in_process.visit(&PanicsOnVertex2, |_, depths| Output::Depths(depths))
        }

        fn unload(&mut self, handle: GraphHandle) {
            self.0.unload(handle);
        }
    }

    #[test]
    fn a_panicking_program_is_a_failed_cell_and_the_platform_runs_the_next_one() {
        let suite = BenchmarkSuite::new(
            vec![Dataset::graph500(6)],
            vec![Algorithm::Conn, Algorithm::default_bfs()],
            BenchmarkConfig::default(),
        );
        let mut platforms: Vec<Box<dyn Platform>> =
            vec![Box::new(PanicsOnConn(GiraphPlatform::with_defaults()))];
        let result = suite.run(&mut platforms);
        let [conn, bfs] = &result.runs[..] else {
            panic!("expected two cells: {:?}", result.runs);
        };
        assert!(
            matches!(&conn.status, RunStatus::Failed(why) if why.ends_with(WORKER_PANICKED)),
            "{conn:?}"
        );
        assert!(bfs.status.is_success(), "{bfs:?}");
        assert!(bfs.validation.is_valid(), "{bfs:?}");
    }

    #[test]
    fn memory_budget_rejects_large_graphs_at_load() {
        let mut p = GiraphPlatform::new(PregelConfig {
            memory_budget: Some(64),
            ..Default::default()
        });
        let g = CsrGraph::from_edge_list(&EdgeListGraph::undirected_from_edges(
            (0..100).map(|i| (i, i + 1)).collect(),
        ));
        assert!(matches!(
            p.load_graph(&g),
            Err(PlatformError::OutOfMemory { .. })
        ));
    }
}
