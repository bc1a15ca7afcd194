//! The Neo4j platform adapter.

use graphalytics_algos::{Algorithm, Output};
use graphalytics_core::platform::{GraphHandle, GraphTable, Platform, PlatformError, RunContext};
use graphalytics_graph::{CsrGraph, Vid};

use crate::algorithms;
use crate::store::GraphStore;

/// Neo4j platform configuration.
#[derive(Debug, Clone, Default)]
pub struct Neo4jConfig {
    /// Page-cache budget in bytes (None = unlimited). Graphs whose stores
    /// exceed the budget are refused at load time, matching the paper's
    /// "Neo4j is not able to process graphs larger than the memory of a
    /// single machine".
    pub page_cache_budget: Option<usize>,
}

struct LoadedGraph {
    store: GraphStore,
    /// Fixed-point weight per relationship, indexed by rel id (rel ids are
    /// assigned sequentially at import time) — the weight "property".
    rel_weights: Vec<u64>,
    external_ids: Vec<u64>,
    num_edges: usize,
    directed: bool,
}

impl LoadedGraph {
    /// The node holding external id `external`, if the graph has it.
    fn internal_id(&self, external: u64) -> Option<u32> {
        let position = self.external_ids.iter().position(|&e| e == external);
        position.map(|i| i as u32)
    }
}

/// Neo4j stand-in: an embedded single-machine graph database with
/// record-store storage and traversal-based algorithms.
pub struct Neo4jPlatform {
    config: Neo4jConfig,
    graphs: GraphTable<LoadedGraph>,
}

impl Neo4jPlatform {
    /// Creates the platform.
    pub fn new(config: Neo4jConfig) -> Self {
        Self {
            config,
            graphs: GraphTable::default(),
        }
    }

    /// Default configuration (no page-cache cap).
    pub fn with_defaults() -> Self {
        Self::new(Neo4jConfig::default())
    }
}

impl Platform for Neo4jPlatform {
    fn name(&self) -> &'static str {
        "Neo4j"
    }

    fn load_graph(&mut self, graph: &CsrGraph) -> Result<GraphHandle, PlatformError> {
        // ETL: bulk-import into the record stores.
        let mut store = GraphStore::new();
        let mut rel_weights = Vec::new();
        store.create_nodes(graph.num_vertices());
        for v in 0..graph.num_vertices() as Vid {
            for (&u, &w) in graph.neighbors(v).iter().zip(graph.neighbor_weights(v)) {
                if v < u {
                    let rel = store.create_relationship(v, u);
                    debug_assert_eq!(rel as usize, rel_weights.len());
                    rel_weights.push(w);
                }
            }
        }
        store.check_budget(self.config.page_cache_budget)?;
        Ok(self.graphs.insert(LoadedGraph {
            store,
            rel_weights,
            external_ids: (0..graph.num_vertices() as Vid)
                .map(|v| graph.external_id(v))
                .collect(),
            num_edges: graph.num_edges(),
            directed: graph.is_directed(),
        }))
    }

    fn run(
        &mut self,
        handle: GraphHandle,
        algorithm: &Algorithm,
        ctx: &RunContext,
    ) -> Result<Output, PlatformError> {
        let loaded = self.graphs.get(handle)?;
        let store = &loaded.store;
        PlatformError::refuse_directed_triangles(algorithm, loaded.directed)?;
        match algorithm {
            Algorithm::Stats => Ok(Output::Stats(graphalytics_algos::stats::from_coefficients(
                loaded.num_edges,
                &algorithms::local_clustering(store, ctx)?,
            ))),
            Algorithm::Bfs { source } => Ok(Output::Depths(algorithms::bfs(
                store,
                loaded.internal_id(*source),
                ctx,
            )?)),
            Algorithm::Conn => Ok(Output::Components(algorithms::connected_components(
                store, ctx,
            )?)),
            Algorithm::Cd {
                iterations,
                hop_attenuation,
                degree_exponent,
            } => Ok(Output::Communities(algorithms::community_detection(
                store,
                *iterations,
                *hop_attenuation,
                *degree_exponent,
                ctx,
            )?)),
            Algorithm::Evo {
                new_vertices,
                p_forward,
                max_burst,
                seed,
            } => {
                ctx.check_deadline()?;
                let adjacency = algorithms::project_adjacency(store);
                Ok(Output::Evolution(
                    graphalytics_algos::evo::forest_fire_over_adjacency(
                        &adjacency,
                        &loaded.external_ids,
                        *new_vertices,
                        *p_forward,
                        *max_burst,
                        *seed,
                    ),
                ))
            }
            Algorithm::Sssp { source } => Ok(Output::Distances(algorithms::sssp(
                store,
                &loaded.rel_weights,
                loaded.internal_id(*source),
                ctx,
            )?)),
            Algorithm::Lcc => Ok(Output::LocalClustering(algorithms::local_clustering(
                store, ctx,
            )?)),
            Algorithm::PageRank {
                iterations,
                damping,
            } => Ok(Output::Ranks(algorithms::pagerank(
                store,
                *iterations,
                *damping,
                ctx,
            )?)),
        }
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
    use std::sync::Arc;

    fn test_graph() -> Arc<CsrGraph> {
        Arc::new(CsrGraph::from_edge_list(
            &EdgeListGraph::undirected_from_edges(vec![(0, 1), (1, 2), (0, 2), (2, 3), (4, 5)]),
        ))
    }

    #[test]
    fn all_workload_algorithms_validate() {
        let mut p = Neo4jPlatform::with_defaults();
        let g = test_graph();
        let handle = p.load_graph(&g).unwrap();
        for alg in Algorithm::paper_workload() {
            let out = p.run(handle, &alg, &RunContext::unbounded()).unwrap();
            let expected = reference(&g, &alg);
            assert!(expected.equivalent(&out), "{alg:?}: got {out:?}");
        }
    }

    #[test]
    fn ldbc_workload_algorithms_validate() {
        let mut p = Neo4jPlatform::with_defaults();
        let g = test_graph();
        let handle = p.load_graph(&g).unwrap();
        for alg in Algorithm::ldbc_workload() {
            let out = p.run(handle, &alg, &RunContext::unbounded()).unwrap();
            let expected = reference(&g, &alg);
            assert!(expected.equivalent(&out), "{alg:?}: got {out:?}");
        }
    }

    #[test]
    fn sssp_validates_on_weighted_graph() {
        let mut p = Neo4jPlatform::with_defaults();
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
        let handle = p.load_graph(&g).unwrap();
        let alg = Algorithm::Sssp { source: 0 };
        let out = p.run(handle, &alg, &RunContext::unbounded()).unwrap();
        assert!(reference(&g, &alg).equivalent(&out), "{out:?}");
    }

    #[test]
    fn pagerank_validates() {
        let mut p = Neo4jPlatform::with_defaults();
        let g = test_graph();
        let handle = p.load_graph(&g).unwrap();
        let alg = Algorithm::default_pagerank();
        let out = p.run(handle, &alg, &RunContext::unbounded()).unwrap();
        assert!(reference(&g, &alg).equivalent(&out));
    }

    #[test]
    fn lcc_and_stats_refuse_a_directed_graph() {
        let g = CsrGraph::from_edge_list(&EdgeListGraph::directed_from_edges(vec![
            (0, 1),
            (1, 2),
            (2, 0),
        ]));
        let mut p = Neo4jPlatform::with_defaults();
        let handle = p.load_graph(&g).unwrap();
        for alg in [Algorithm::Lcc, Algorithm::Stats] {
            let err = p.run(handle, &alg, &RunContext::unbounded()).unwrap_err();
            assert!(matches!(err, PlatformError::Unsupported(_)), "{alg:?}");
        }
    }

    #[test]
    fn page_cache_budget_rejects_large_graphs() {
        let mut p = Neo4jPlatform::new(Neo4jConfig {
            page_cache_budget: Some(100),
        });
        let g = test_graph();
        assert!(matches!(
            p.load_graph(&g),
            Err(PlatformError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn sparse_external_ids_work() {
        let mut p = Neo4jPlatform::with_defaults();
        let g = Arc::new(CsrGraph::from_edge_list(
            &EdgeListGraph::undirected_from_edges(vec![(100, 200), (200, 300)]),
        ));
        let handle = p.load_graph(&g).unwrap();
        let out = p
            .run(
                handle,
                &Algorithm::Bfs { source: 200 },
                &RunContext::unbounded(),
            )
            .unwrap();
        assert!(reference(&g, &Algorithm::Bfs { source: 200 }).equivalent(&out));
    }

    #[test]
    fn unload_invalidates_handle() {
        let mut p = Neo4jPlatform::with_defaults();
        let g = test_graph();
        let handle = p.load_graph(&g).unwrap();
        p.unload(handle);
        assert_eq!(
            p.run(handle, &Algorithm::Conn, &RunContext::unbounded()),
            Err(PlatformError::InvalidHandle)
        );
    }
}
