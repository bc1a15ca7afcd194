//! The GraphX platform adapter.

use std::sync::Arc;

use graphalytics_algos::{Algorithm, Output};
use graphalytics_core::platform::{GraphHandle, GraphTable, Platform, PlatformError, RunContext};
use graphalytics_graph::{CsrGraph, Vid};

use crate::graphx::GraphFrame;
use crate::rdd::{ShuffleStats, SparkContext};

/// GraphX platform configuration.
#[derive(Debug, Clone)]
pub struct GraphXConfig {
    /// Dataset partitions (Spark executors × cores).
    pub partitions: usize,
    /// Executor memory budget in bytes (None = unlimited). GraphX keeps
    /// several datasets alive per iteration, so for the same graph it needs
    /// noticeably more than the BSP engine — which is how the paper's
    /// "GraphX is unable to process some of the workloads that Giraph can"
    /// failures reproduce.
    pub memory_budget: Option<usize>,
}

impl Default for GraphXConfig {
    fn default() -> Self {
        Self {
            partitions: 4,
            memory_budget: None,
        }
    }
}

struct Loaded {
    graph: Arc<CsrGraph>,
    ctx: Arc<SparkContext>,
    frame: GraphFrame,
}

/// GraphX stand-in: graph algorithms as dataflow jobs over an RDD-like
/// substrate with executor memory accounting.
pub struct GraphXPlatform {
    config: GraphXConfig,
    graphs: GraphTable<Loaded>,
}

impl GraphXPlatform {
    /// Creates the platform.
    pub fn new(config: GraphXConfig) -> Self {
        Self {
            config,
            graphs: GraphTable::default(),
        }
    }

    /// Default configuration.
    pub fn with_defaults() -> Self {
        Self::new(GraphXConfig::default())
    }

    /// Shuffle statistics for a loaded graph (for the choke-point benches).
    pub fn shuffle_stats(&self, handle: GraphHandle) -> Option<ShuffleStats> {
        self.graphs.get(handle).ok().map(|l| l.ctx.stats())
    }
}

impl Platform for GraphXPlatform {
    fn name(&self) -> &'static str {
        "GraphX"
    }

    fn load_graph(&mut self, graph: &CsrGraph) -> Result<GraphHandle, PlatformError> {
        let ctx = SparkContext::new(self.config.partitions, self.config.memory_budget);
        let frame = GraphFrame::from_csr(&ctx, graph)?;
        Ok(self.graphs.insert(Loaded {
            graph: Arc::new(graph.clone()),
            ctx,
            frame,
        }))
    }

    fn run(
        &mut self,
        handle: GraphHandle,
        algorithm: &Algorithm,
        ctx: &RunContext,
    ) -> Result<Output, PlatformError> {
        let loaded = self.graphs.get(handle)?;
        // Arm (or disarm) the engine's injection points — shuffle fetches
        // and allocations — from this run's context.
        loaded.ctx.arm(ctx);
        let graph = &loaded.graph;
        let frame = &loaded.frame;
        let mut job_span = ctx.tracer().span("graphx.job");
        job_span.field("job", algorithm.name());
        let stats_before = loaded.ctx.stats();
        let stages_before = stats_before.stages;
        let shuffle_before = stats_before.shuffle_records;
        let result = match algorithm {
            Algorithm::Stats => Ok(Output::Stats(graphalytics_algos::stats::from_coefficients(
                graph.num_edges(),
                &frame.local_clustering(ctx)?,
            ))),
            Algorithm::Bfs { source } => {
                Ok(Output::Depths(frame.bfs(graph.internal_id(*source), ctx)?))
            }
            Algorithm::Conn => Ok(Output::Components(frame.connected_components(ctx)?)),
            Algorithm::Cd {
                iterations,
                hop_attenuation,
                degree_exponent,
            } => Ok(Output::Communities(frame.community_detection(
                *iterations,
                *hop_attenuation,
                *degree_exponent,
                &graph.degrees(),
                ctx,
            )?)),
            Algorithm::Evo {
                new_vertices,
                p_forward,
                max_burst,
                seed,
            } => {
                let ids: Vec<u64> = (0..graph.num_vertices() as Vid)
                    .map(|v| graph.external_id(v))
                    .collect();
                Ok(Output::Evolution(frame.forest_fire(
                    &ids,
                    *new_vertices,
                    *p_forward,
                    *max_burst,
                    *seed,
                    ctx,
                )?))
            }
            Algorithm::Sssp { source } => Ok(Output::Distances(
                frame.sssp(graph.internal_id(*source), ctx)?,
            )),
            Algorithm::Lcc => Ok(Output::LocalClustering(frame.local_clustering(ctx)?)),
            Algorithm::PageRank {
                iterations,
                damping,
            } => Ok(Output::Ranks(frame.pagerank(
                *iterations,
                *damping,
                &graph.degrees(),
                ctx,
            )?)),
        };
        let stats_after = loaded.ctx.stats();
        job_span.field("stages", stats_after.stages - stages_before);
        // Shuffled records cross partition boundaries — the dataflow
        // engine's contribution to the network choke point.
        job_span.field(
            "shuffle_records",
            stats_after.shuffle_records - shuffle_before,
        );
        result
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

    fn load(platform: &mut GraphXPlatform) -> (GraphHandle, Arc<CsrGraph>) {
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
        let mut p = GraphXPlatform::with_defaults();
        let (handle, graph) = load(&mut p);
        for alg in Algorithm::paper_workload() {
            let out = p.run(handle, &alg, &RunContext::unbounded()).unwrap();
            let expected = reference(&graph, &alg);
            assert!(expected.equivalent(&out), "{alg:?}: {out:?}");
        }
    }

    #[test]
    fn ldbc_workload_algorithms_validate() {
        let mut p = GraphXPlatform::with_defaults();
        let (handle, graph) = load(&mut p);
        for alg in Algorithm::ldbc_workload() {
            let out = p.run(handle, &alg, &RunContext::unbounded()).unwrap();
            let expected = reference(&graph, &alg);
            assert!(expected.equivalent(&out), "{alg:?}: {out:?}");
        }
    }

    #[test]
    fn pagerank_validates() {
        let mut p = GraphXPlatform::with_defaults();
        let (handle, graph) = load(&mut p);
        let alg = Algorithm::default_pagerank();
        let out = p.run(handle, &alg, &RunContext::unbounded()).unwrap();
        assert!(reference(&graph, &alg).equivalent(&out));
    }

    #[test]
    fn oom_on_large_graph_with_small_budget() {
        let mut p = GraphXPlatform::new(GraphXConfig {
            partitions: 4,
            memory_budget: Some(4_000),
        });
        let g = CsrGraph::from_edge_list(&EdgeListGraph::undirected_from_edges(
            (0..2000).map(|i| (i, i + 1)).collect(),
        ));
        match p.load_graph(&g) {
            Err(PlatformError::OutOfMemory { .. }) => {}
            Ok(h) => {
                let err = p.run(h, &Algorithm::Conn, &RunContext::unbounded());
                assert!(matches!(err, Err(PlatformError::OutOfMemory { .. })));
            }
            Err(e) => panic!("unexpected {e:?}"),
        }
    }

    #[test]
    fn shuffle_stats_accessible() {
        let mut p = GraphXPlatform::with_defaults();
        let (handle, _) = load(&mut p);
        let _ = p
            .run(handle, &Algorithm::Conn, &RunContext::unbounded())
            .unwrap();
        let stats = p.shuffle_stats(handle).unwrap();
        assert!(stats.shuffles > 0);
        assert!(p.shuffle_stats(GraphHandle(42)).is_none());
    }

    #[test]
    fn jobs_emit_iteration_spans_with_stage_counts() {
        use graphalytics_core::trace::{FieldValue, Tracer};

        let mut p = GraphXPlatform::with_defaults();
        let (handle, _) = load(&mut p);
        let tracer = Arc::new(Tracer::new());
        let ctx = RunContext::unbounded().with_tracer(Arc::clone(&tracer));
        let _ = p.run(handle, &Algorithm::Conn, &ctx).unwrap();

        let spans = tracer.finished_spans();
        let job: Vec<_> = spans.iter().filter(|s| s.name == "graphx.job").collect();
        assert_eq!(job.len(), 1);
        assert_eq!(job[0].field("job"), Some(&FieldValue::Str("CONN".into())));

        let iters: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "graphx.iteration")
            .collect();
        assert!(!iters.is_empty(), "expected per-iteration spans");
        for (i, s) in iters.iter().enumerate() {
            assert_eq!(s.field("iteration"), Some(&FieldValue::I64(i as i64)));
            assert_eq!(s.parent, Some(job[0].id));
            let Some(&FieldValue::I64(stages)) = s.field("stages") else {
                panic!("iteration span missing stage count: {s:?}");
            };
            assert!(stages > 0, "each HashMin round runs dataflow stages");
        }
    }

    #[test]
    fn unload_invalidates() {
        let mut p = GraphXPlatform::with_defaults();
        let (handle, _) = load(&mut p);
        p.unload(handle);
        assert_eq!(
            p.run(handle, &Algorithm::Conn, &RunContext::unbounded()),
            Err(PlatformError::InvalidHandle)
        );
    }
}
