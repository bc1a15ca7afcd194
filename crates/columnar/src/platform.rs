//! The Virtuoso platform adapter and SQL entry point.
//!
//! The paper evaluates Virtuoso on BFS only ("we use the OpenLink Virtuoso
//! column store to experiment with performance dynamics of BFS graph
//! traversal in a DBMS", §3.4); the adapter implements BFS via the
//! transitive operator, plus the LDBC SSSP and LCC kernels as driver-side
//! queries over the same table, and reports every other kernel as
//! unsupported — exercising the harness's unsupported-workload path.

use graphalytics_algos::{Algorithm, Output};
use graphalytics_core::platform::{GraphHandle, GraphTable, Platform, PlatformError, RunContext};
use graphalytics_graph::{CsrGraph, Vid};

use crate::analytics;
use crate::sql::{parse_transitive_count, SqlError};
use crate::table::EdgeTable;
use crate::transitive::{transitive_closure, TransitiveProfile};

/// Virtuoso platform configuration.
#[derive(Debug, Clone)]
pub struct VirtuosoConfig {
    /// Intra-query parallelism (partition threads).
    pub threads: usize,
}

impl Default for VirtuosoConfig {
    fn default() -> Self {
        Self { threads: 4 }
    }
}

struct LoadedGraph {
    table: EdgeTable,
    external_ids: Vec<u64>,
    num_vertices: usize,
    directed: bool,
}

impl LoadedGraph {
    /// The table key of external id `external`, if the graph has it.
    fn internal_id(&self, external: u64) -> Option<u64> {
        let position = self.external_ids.iter().position(|&e| e == external);
        position.map(|i| i as u64)
    }
}

/// Virtuoso stand-in: a compressed column store whose graph traversal runs
/// as a partitioned transitive SQL operator.
pub struct VirtuosoPlatform {
    config: VirtuosoConfig,
    graphs: GraphTable<LoadedGraph>,
    /// Profile of the last transitive run, for the §3.4 report.
    last_profile: Option<TransitiveProfile>,
}

impl VirtuosoPlatform {
    /// Creates the platform.
    pub fn new(config: VirtuosoConfig) -> Self {
        Self {
            config,
            graphs: GraphTable::default(),
            last_profile: None,
        }
    }

    /// Default configuration.
    pub fn with_defaults() -> Self {
        Self::new(VirtuosoConfig::default())
    }

    /// Profile of the most recent transitive execution.
    pub fn last_profile(&self) -> Option<&TransitiveProfile> {
        self.last_profile.as_ref()
    }

    /// Executes a §3.4-style transitive count query against a loaded graph.
    /// Returns `(reachable_count, profile)`.
    pub fn execute_sql(
        &mut self,
        handle: GraphHandle,
        sql: &str,
        ctx: &RunContext,
    ) -> Result<(usize, TransitiveProfile), PlatformError> {
        let query = parse_transitive_count(sql)
            .map_err(|e: SqlError| PlatformError::Unsupported(e.to_string()))?;
        if query.table != "sp_edge" {
            return Err(PlatformError::Unsupported(format!(
                "unknown table {}",
                query.table
            )));
        }
        let loaded = self.graphs.get(handle)?;
        let (profile, _depths) =
            transitive_closure(&loaded.table, query.source, self.config.threads, ctx)?;
        let count = profile.reachable;
        self.last_profile = Some(profile.clone());
        Ok((count, profile))
    }
}

impl Platform for VirtuosoPlatform {
    fn name(&self) -> &'static str {
        "Virtuoso"
    }

    fn load_graph(&mut self, graph: &CsrGraph) -> Result<GraphHandle, PlatformError> {
        // ETL: bulk-load the arcs into the sorted, compressed edge table,
        // keyed by *internal* ids so outputs align with the canonical graph.
        let mut arcs = Vec::with_capacity(graph.num_arcs());
        for v in 0..graph.num_vertices() as Vid {
            for (&u, &w) in graph.neighbors(v).iter().zip(graph.neighbor_weights(v)) {
                arcs.push((v as u64, u as u64, w));
            }
        }
        Ok(self.graphs.insert(LoadedGraph {
            table: EdgeTable::from_weighted_arcs(arcs),
            external_ids: (0..graph.num_vertices() as Vid)
                .map(|v| graph.external_id(v))
                .collect(),
            num_vertices: graph.num_vertices(),
            directed: graph.is_directed(),
        }))
    }

    fn run(
        &mut self,
        handle: GraphHandle,
        algorithm: &Algorithm,
        ctx: &RunContext,
    ) -> Result<Output, PlatformError> {
        match algorithm {
            Algorithm::Bfs { source } => {
                let loaded = self.graphs.get(handle)?;
                let n = loaded.num_vertices;
                let mut depths = vec![-1i64; n];
                let Some(src) = loaded.internal_id(*source) else {
                    return Ok(Output::Depths(depths));
                };
                let (profile, records) =
                    transitive_closure(&loaded.table, src, self.config.threads, ctx)?;
                for (v, d) in records {
                    if (v as usize) < n {
                        depths[v as usize] = d;
                    }
                }
                self.last_profile = Some(profile);
                Ok(Output::Depths(depths))
            }
            Algorithm::Sssp { source } => {
                let loaded = self.graphs.get(handle)?;
                Ok(Output::Distances(analytics::sssp(
                    &loaded.table,
                    loaded.num_vertices,
                    loaded.internal_id(*source),
                    ctx,
                )?))
            }
            Algorithm::Lcc => {
                let loaded = self.graphs.get(handle)?;
                PlatformError::refuse_directed_triangles(algorithm, loaded.directed)?;
                Ok(Output::LocalClustering(analytics::local_clustering(
                    &loaded.table,
                    loaded.num_vertices,
                    ctx,
                )?))
            }
            other => Err(PlatformError::Unsupported(format!(
                "{} (Virtuoso's Graphalytics driver implements BFS, SSSP, and LCC only)",
                other.name()
            ))),
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
    fn bfs_matches_reference() {
        let mut p = VirtuosoPlatform::with_defaults();
        let g = test_graph();
        let handle = p.load_graph(&g).unwrap();
        let alg = Algorithm::Bfs { source: 0 };
        let out = p.run(handle, &alg, &RunContext::unbounded()).unwrap();
        assert!(reference(&g, &alg).equivalent(&out), "{out:?}");
        assert!(p.last_profile().is_some());
    }

    #[test]
    fn sssp_validates_on_weighted_graph() {
        let mut p = VirtuosoPlatform::with_defaults();
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
    fn sssp_missing_source_leaves_all_unreachable() {
        let mut p = VirtuosoPlatform::with_defaults();
        let g = test_graph();
        let handle = p.load_graph(&g).unwrap();
        let alg = Algorithm::Sssp { source: 777 };
        let out = p.run(handle, &alg, &RunContext::unbounded()).unwrap();
        assert!(reference(&g, &alg).equivalent(&out), "{out:?}");
    }

    #[test]
    fn lcc_matches_reference() {
        let mut p = VirtuosoPlatform::with_defaults();
        let g = test_graph();
        let handle = p.load_graph(&g).unwrap();
        let out = p
            .run(handle, &Algorithm::Lcc, &RunContext::unbounded())
            .unwrap();
        assert!(reference(&g, &Algorithm::Lcc).equivalent(&out), "{out:?}");
    }

    #[test]
    fn lcc_and_stats_refuse_a_directed_graph() {
        let g = CsrGraph::from_edge_list(&EdgeListGraph::directed_from_edges(vec![
            (0, 1),
            (1, 2),
            (2, 0),
        ]));
        let mut p = VirtuosoPlatform::with_defaults();
        let handle = p.load_graph(&g).unwrap();
        for alg in [Algorithm::Lcc, Algorithm::Stats] {
            let err = p.run(handle, &alg, &RunContext::unbounded()).unwrap_err();
            assert!(matches!(err, PlatformError::Unsupported(_)), "{alg:?}");
        }
    }

    #[test]
    fn non_bfs_kernels_are_unsupported() {
        let mut p = VirtuosoPlatform::with_defaults();
        let g = test_graph();
        let handle = p.load_graph(&g).unwrap();
        for alg in [Algorithm::Stats, Algorithm::Conn, Algorithm::default_cd()] {
            let err = p.run(handle, &alg, &RunContext::unbounded()).unwrap_err();
            assert!(matches!(err, PlatformError::Unsupported(_)), "{alg:?}");
        }
    }

    #[test]
    fn sql_entry_point_counts_reachable() {
        let mut p = VirtuosoPlatform::with_defaults();
        let g = test_graph();
        let handle = p.load_graph(&g).unwrap();
        let sql = "select count (*) from (select spe_to from \
            (select transitive t_in (1) t_out (2) t_distinct \
            spe_from, spe_to from sp_edge) dt1 where spe_from = 0) dt2;";
        let (count, profile) = p
            .execute_sql(handle, sql, &RunContext::unbounded())
            .unwrap();
        assert_eq!(count, 4); // {0, 1, 2, 3}.
        assert!(profile.random_lookups >= 4);
        assert!(profile.endpoints_visited > 0);
    }

    #[test]
    fn bad_sql_is_reported() {
        let mut p = VirtuosoPlatform::with_defaults();
        let g = test_graph();
        let handle = p.load_graph(&g).unwrap();
        let err = p
            .execute_sql(handle, "select 1", &RunContext::unbounded())
            .unwrap_err();
        assert!(matches!(err, PlatformError::Unsupported(_)));
    }

    #[test]
    fn missing_bfs_source_yields_all_unreachable() {
        let mut p = VirtuosoPlatform::with_defaults();
        let g = test_graph();
        let handle = p.load_graph(&g).unwrap();
        let out = p
            .run(
                handle,
                &Algorithm::Bfs { source: 777 },
                &RunContext::unbounded(),
            )
            .unwrap();
        assert_eq!(out, Output::Depths(vec![-1; 6]));
    }
}
