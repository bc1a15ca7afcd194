//! The Hadoop MapReduce platform adapter.

use std::path::{Path, PathBuf};

use graphalytics_algos::{Algorithm, Output};
use graphalytics_core::platform::{GraphHandle, GraphTable, Platform, PlatformError, RunContext};
use graphalytics_core::ScratchDir;
use graphalytics_graph::{CsrGraph, Vid};

use crate::algorithms;
use crate::job::{Emitter, JobConfig};

/// MapReduce platform configuration.
#[derive(Debug, Clone)]
pub struct MapReduceConfig {
    /// Concurrent map tasks per job.
    pub map_tasks: usize,
    /// Reduce partitions per job.
    pub reduce_tasks: usize,
    /// Adjacency input splits written at ETL time (HDFS block count).
    pub input_splits: usize,
    /// Root scratch directory ("HDFS"); empty (the default) means the
    /// system temp dir. Every loaded graph gets its own [`ScratchDir`]
    /// under the root, removed at unload or when the platform is dropped;
    /// the root itself is used as is and left in place.
    pub work_root: PathBuf,
}

impl Default for MapReduceConfig {
    fn default() -> Self {
        Self {
            map_tasks: 4,
            reduce_tasks: 4,
            input_splits: 4,
            work_root: PathBuf::new(),
        }
    }
}

/// The input splits of a loaded graph: one adjacency record per vertex,
/// isolated vertices included (the value layouts are
/// [`crate::algorithms`]').
#[derive(Debug, Clone)]
pub struct Splits {
    /// `adj-*`: each vertex's neighbours.
    pub adjacency: Vec<PathBuf>,
    /// `wadj-*`, for a weighted graph only: each vertex's neighbours with
    /// the arcs' fixed-point weights, the SSSP input.
    pub weighted: Option<Vec<PathBuf>>,
}

impl Splits {
    /// SSSP's input: the weighted splits, or on an unweighted graph the
    /// adjacency splits, whose arcs weigh one hop.
    pub fn sssp(&self) -> &[PathBuf] {
        self.weighted.as_deref().unwrap_or(&self.adjacency)
    }
}

/// Writes `graph` into `dir` as `splits` adjacency split files, and as
/// many weighted ones when the graph is weighted: split `i` holds the
/// records of vertices `i`, `i + splits`, …, one split written at a time.
pub fn write_splits(graph: &CsrGraph, dir: &Path, splits: usize) -> Result<Splits, PlatformError> {
    let splits = splits.max(1);
    let mut files = Splits {
        adjacency: Vec::with_capacity(splits),
        weighted: graph.is_weighted().then(|| Vec::with_capacity(splits)),
    };
    for i in 0..splits {
        let (mut adjacency, mut weighted) = (Emitter::default(), Emitter::default());
        for v in (i..graph.num_vertices()).step_by(splits) {
            let v = v as Vid;
            let neighbors = graph.neighbors(v);
            adjacency.emit(v, |bytes| algorithms::push_adjacency(bytes, neighbors));
            if files.weighted.is_some() {
                let weights = graph.neighbor_weights(v);
                weighted.emit(v, |bytes| {
                    algorithms::push_weighted_adjacency(bytes, neighbors, weights)
                });
            }
        }
        let path = dir.join(format!("adj-{i:05}"));
        adjacency.write_to_file(&path)?;
        files.adjacency.push(path);
        if let Some(files) = &mut files.weighted {
            let path = dir.join(format!("wadj-{i:05}"));
            weighted.write_to_file(&path)?;
            files.push(path);
        }
    }
    Ok(files)
}

struct LoadedGraph {
    splits: Splits,
    num_vertices: usize,
    /// Logical edge count of the loaded graph (what STATS reports).
    num_edges: usize,
    directed: bool,
    external_ids: Vec<u64>,
    /// Input splits plus one `run-<tag>-<n>` job directory per run.
    work_dir: ScratchDir,
}

impl LoadedGraph {
    /// The internal id of external vertex id `external`, if present. The
    /// ids are a CSR's, ascending, so this is a binary search.
    fn internal_id(&self, external: u64) -> Option<u32> {
        debug_assert!(self.external_ids.windows(2).all(|w| w[0] < w[1]));
        self.external_ids
            .binary_search(&external)
            .ok()
            .map(|i| i as u32)
    }
}

/// Hadoop MapReduce stand-in: every kernel is an iterative chain of
/// disk-backed map/sort/shuffle/reduce jobs. Slow, and it keeps neither
/// the graph nor a kernel's state in memory between jobs — the paper's
/// "does not crash even when processing the largest workload". Within a
/// job, a task buffers its own output or partition (see [`crate::job`]).
pub struct MapReducePlatform {
    config: MapReduceConfig,
    graphs: GraphTable<LoadedGraph>,
    /// Runs started so far; names the job directories.
    run_seq: u64,
}

impl MapReducePlatform {
    /// Creates the platform.
    pub fn new(config: MapReduceConfig) -> Self {
        Self {
            config,
            graphs: GraphTable::default(),
            run_seq: 0,
        }
    }

    /// Default configuration.
    pub fn with_defaults() -> Self {
        Self::new(MapReduceConfig::default())
    }

    /// A fresh job scratch dir per run (jobs of different runs must not
    /// collide).
    fn job_config(&self, loaded: &LoadedGraph, tag: &str) -> Result<JobConfig, PlatformError> {
        let work_dir = loaded
            .work_dir
            .path()
            .join(format!("run-{tag}-{}", self.run_seq));
        std::fs::create_dir_all(&work_dir)
            .map_err(|e| PlatformError::TransientIo(format!("i/o: {e}")))?;
        Ok(JobConfig {
            map_tasks: self.config.map_tasks,
            reduce_tasks: self.config.reduce_tasks,
            work_dir,
        })
    }
}

impl Platform for MapReducePlatform {
    fn name(&self) -> &'static str {
        "MapReduce"
    }

    fn load_graph(&mut self, graph: &CsrGraph) -> Result<GraphHandle, PlatformError> {
        // ETL: write the adjacency records as `input_splits` HDFS-style
        // files.
        let root = &self.config.work_root;
        let root = (!root.as_os_str().is_empty()).then_some(root.as_path());
        let scratch = ScratchDir::new(root, "gx-hadoop")
            .map_err(|e| PlatformError::TransientIo(format!("i/o: {e}")))?;
        let splits = write_splits(graph, scratch.path(), self.config.input_splits)?;
        let external_ids = (0..graph.num_vertices() as Vid)
            .map(|v| graph.external_id(v))
            .collect();
        Ok(self.graphs.insert(LoadedGraph {
            splits,
            num_vertices: graph.num_vertices(),
            num_edges: graph.num_edges(),
            directed: graph.is_directed(),
            external_ids,
            work_dir: scratch,
        }))
    }

    fn run(
        &mut self,
        handle: GraphHandle,
        algorithm: &Algorithm,
        ctx: &RunContext,
    ) -> Result<Output, PlatformError> {
        self.run_seq += 1;
        let loaded = self.graphs.get(handle)?;
        PlatformError::refuse_directed_triangles(algorithm, loaded.directed)?;
        let n = loaded.num_vertices;
        // Job directories are named after the kernel: run-stats-1, run-pr-2, …
        let config = self.job_config(loaded, &algorithm.name().to_lowercase())?;
        let splits = &loaded.splits.adjacency;
        Ok(match algorithm {
            // |E| comes from the load-time manifest; only the clustering
            // coefficients need jobs, and their mean is summed in vertex
            // order, as every engine sums it.
            Algorithm::Stats => Output::Stats(graphalytics_algos::stats::from_coefficients(
                loaded.num_edges,
                &algorithms::local_clustering(&config, splits, n, ctx)?,
            )),
            Algorithm::Bfs { source } => {
                let source = loaded.internal_id(*source);
                Output::Depths(algorithms::bfs(&config, splits, n, source, ctx)?)
            }
            Algorithm::Conn => {
                Output::Components(algorithms::connected_components(&config, splits, n, ctx)?)
            }
            Algorithm::Cd {
                iterations,
                hop_attenuation,
                degree_exponent,
            } => Output::Communities(algorithms::community_detection(
                &config,
                splits,
                n,
                *iterations,
                *hop_attenuation,
                *degree_exponent,
                ctx,
            )?),
            Algorithm::Evo {
                new_vertices,
                p_forward,
                max_burst,
                seed,
            } => Output::Evolution(algorithms::forest_fire(
                splits,
                &loaded.external_ids,
                *new_vertices,
                *p_forward,
                *max_burst,
                *seed,
                ctx,
            )?),
            Algorithm::Sssp { source } => Output::Distances(algorithms::sssp(
                &config,
                loaded.splits.sssp(),
                n,
                loaded.internal_id(*source),
                ctx,
            )?),
            Algorithm::Lcc => {
                Output::LocalClustering(algorithms::local_clustering(&config, splits, n, ctx)?)
            }
            Algorithm::PageRank {
                iterations,
                damping,
            } => Output::Ranks(algorithms::pagerank(
                &config,
                splits,
                n,
                *iterations,
                *damping,
                ctx,
            )?),
        })
    }

    fn unload(&mut self, handle: GraphHandle) {
        // Dropping the loaded graph removes its scratch directory.
        self.graphs.remove(handle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphalytics_algos::reference;
    use graphalytics_graph::EdgeListGraph;
    use std::sync::Arc;
    use std::time::Duration;

    fn test_graph() -> Arc<CsrGraph> {
        Arc::new(CsrGraph::from_edge_list(
            &EdgeListGraph::undirected_from_edges(vec![(0, 1), (1, 2), (0, 2), (2, 3), (4, 5)]),
        ))
    }

    fn scratch_of(p: &MapReducePlatform, handle: GraphHandle) -> PathBuf {
        p.graphs.get(handle).unwrap().work_dir.path().to_path_buf()
    }

    #[test]
    fn all_workload_algorithms_validate() {
        let mut p = MapReducePlatform::with_defaults();
        let g = test_graph();
        let handle = p.load_graph(&g).unwrap();
        for alg in Algorithm::paper_workload() {
            let out = p.run(handle, &alg, &RunContext::unbounded()).unwrap();
            let expected = reference(&g, &alg);
            assert!(expected.equivalent(&out), "{alg:?}: got {out:?}");
        }
        p.unload(handle);
    }

    #[test]
    fn ldbc_workload_algorithms_validate() {
        let mut p = MapReducePlatform::with_defaults();
        let g = test_graph();
        let handle = p.load_graph(&g).unwrap();
        for alg in Algorithm::ldbc_workload() {
            let out = p.run(handle, &alg, &RunContext::unbounded()).unwrap();
            let expected = reference(&g, &alg);
            assert!(expected.equivalent(&out), "{alg:?}: got {out:?}");
        }
        p.unload(handle);
    }

    #[test]
    fn sssp_validates_on_weighted_graph() {
        let mut p = MapReducePlatform::with_defaults();
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
        p.unload(handle);
    }

    #[test]
    fn only_a_weighted_graph_gets_weighted_splits() {
        let weighted = Arc::new(CsrGraph::from_edge_list(&EdgeListGraph::new_weighted(
            Vec::new(),
            vec![(0, 1, 2_000_000), (1, 2, 500_000), (0, 2, 4_000_000)],
            false,
        )));
        for (g, is_weighted) in [(test_graph(), false), (weighted, true)] {
            let mut p = MapReducePlatform::with_defaults();
            let handle = p.load_graph(&g).unwrap();
            let wadj = std::fs::read_dir(scratch_of(&p, handle))
                .unwrap()
                .filter(|e| {
                    let name = e.as_ref().unwrap().file_name();
                    name.to_string_lossy().starts_with("wadj-")
                })
                .count();
            let splits = &p.graphs.get(handle).unwrap().splits;
            if is_weighted {
                assert_eq!(wadj, 4);
                assert_eq!(Some(splits.sssp()), splits.weighted.as_deref());
            } else {
                assert_eq!(wadj, 0);
                assert_eq!(splits.sssp(), splits.adjacency);
            }
            // An unweighted graph's SSSP, at one hop an arc, and a weighted
            // one's, over its own weights, both match the reference.
            for source in [0, 2] {
                let alg = Algorithm::Sssp { source };
                let out = p.run(handle, &alg, &RunContext::unbounded()).unwrap();
                assert!(reference(&g, &alg).equivalent(&out), "{out:?}");
            }
        }
    }

    #[test]
    fn pagerank_validates() {
        let mut p = MapReducePlatform::with_defaults();
        let g = test_graph();
        let handle = p.load_graph(&g).unwrap();
        let alg = Algorithm::default_pagerank();
        let out = p.run(handle, &alg, &RunContext::unbounded()).unwrap();
        assert!(reference(&g, &alg).equivalent(&out));
    }

    #[test]
    fn timeout_produces_dnf() {
        let mut p = MapReducePlatform::with_defaults();
        let g = Arc::new(CsrGraph::from_edge_list(
            &EdgeListGraph::undirected_from_edges((0..500).map(|i| (i, i + 1)).collect()),
        ));
        let handle = p.load_graph(&g).unwrap();
        // A long path needs many label-propagation iterations; a tiny
        // deadline must trip between jobs.
        let ctx = RunContext::with_timeout(Duration::from_millis(1));
        let err = p.run(handle, &Algorithm::Conn, &ctx).unwrap_err();
        assert_eq!(err, PlatformError::Timeout);
    }

    #[test]
    fn unload_removes_scratch_space() {
        let mut p = MapReducePlatform::with_defaults();
        let g = test_graph();
        let handle = p.load_graph(&g).unwrap();
        let dir = scratch_of(&p, handle);
        assert!(dir.exists());
        p.unload(handle);
        assert!(!dir.exists());
        assert_eq!(
            p.run(handle, &Algorithm::Conn, &RunContext::unbounded()),
            Err(PlatformError::InvalidHandle)
        );
    }

    #[test]
    fn concurrent_platforms_do_not_share_scratch() {
        // Two default-configured platforms in one process both number
        // their graphs from 0. When that number named the directory, the
        // second load overwrote the first one's splits and its unload
        // deleted them mid-run ("No such file or directory").
        let path = Arc::new(CsrGraph::from_edge_list(
            &EdgeListGraph::undirected_from_edges((0..40).map(|i| (i, i + 1)).collect()),
        ));
        let barrier = &std::sync::Barrier::new(2);
        let (freed_tx, freed_rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            let survivor = scope.spawn(move || {
                let mut p = MapReducePlatform::with_defaults();
                let g = test_graph();
                let handle = p.load_graph(&g).unwrap();
                let root = scratch_of(&p, handle);
                barrier.wait(); // Both graphs are loaded.
                let ctx = RunContext::unbounded();
                let check = |p: &mut MapReducePlatform, alg: Algorithm| {
                    let out = p.run(handle, &alg, &ctx).unwrap();
                    assert!(reference(&g, &alg).equivalent(&out), "{alg:?}: {out:?}");
                };
                check(&mut p, Algorithm::Conn);
                // The other platform is unloaded and dropped: keep running.
                let other_root: PathBuf = freed_rx.recv().unwrap();
                assert_ne!(root, other_root);
                assert!(!other_root.exists(), "dropped platform left its scratch");
                for alg in Algorithm::ldbc_workload() {
                    check(&mut p, alg);
                }
                drop(p);
                assert!(!root.exists(), "dropped platform left its scratch");
            });
            scope.spawn(move || {
                let mut p = MapReducePlatform::with_defaults();
                let handle = p.load_graph(&path).unwrap();
                let root = scratch_of(&p, handle);
                barrier.wait();
                let out = p
                    .run(handle, &Algorithm::Conn, &RunContext::unbounded())
                    .unwrap();
                assert!(reference(&path, &Algorithm::Conn).equivalent(&out));
                p.unload(handle);
                drop(p);
                freed_tx.send(root).unwrap();
            });
            survivor.join().unwrap();
        });
    }

    #[test]
    fn configured_work_root_is_used_as_is_and_kept() {
        let scratch = ScratchDir::new(None, "gx-hadoop-test").unwrap();
        let root = scratch.path();
        let mut p = MapReducePlatform::new(MapReduceConfig {
            work_root: root.to_path_buf(),
            ..MapReduceConfig::default()
        });
        let kept = p.load_graph(&test_graph()).unwrap();
        let unloaded = p.load_graph(&test_graph()).unwrap();
        let dirs = [scratch_of(&p, kept), scratch_of(&p, unloaded)];
        assert!(dirs.iter().all(|d| d.parent() == Some(root)));
        p.unload(unloaded);
        drop(p);
        assert!(
            dirs.iter().all(|d| !d.exists()),
            "a graph outlived its platform"
        );
        assert!(root.exists(), "a configured root is the caller's to remove");
    }

    #[test]
    fn lcc_and_stats_refuse_a_directed_graph() {
        let g = CsrGraph::from_edge_list(&EdgeListGraph::directed_from_edges(vec![
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 0),
        ]));
        let mut p = MapReducePlatform::with_defaults();
        let handle = p.load_graph(&g).unwrap();
        for alg in [Algorithm::Lcc, Algorithm::Stats] {
            let err = p.run(handle, &alg, &RunContext::unbounded()).unwrap_err();
            assert!(matches!(err, PlatformError::Unsupported(_)), "{alg:?}");
        }
    }

    #[test]
    fn bfs_and_sssp_find_first_last_and_absent_sources() {
        // Sparse external ids, so an internal id is not its external one.
        let g = Arc::new(CsrGraph::from_edge_list(&EdgeListGraph::new_weighted(
            vec![5, 900],
            vec![
                (10, 20, 2_000_000),
                (20, 30, 500_000),
                (30, 700, 1_500_000),
                (5, 700, 4_000_000),
            ],
            false,
        )));
        let mut p = MapReducePlatform::with_defaults();
        let handle = p.load_graph(&g).unwrap();
        for source in [5, 900, 700, 6, 1_000, 0] {
            for alg in [Algorithm::Bfs { source }, Algorithm::Sssp { source }] {
                let out = p.run(handle, &alg, &RunContext::unbounded()).unwrap();
                assert!(reference(&g, &alg).equivalent(&out), "{alg:?}: {out:?}");
            }
        }
        // An absent source reaches nothing.
        let out = p
            .run(
                handle,
                &Algorithm::Sssp { source: 6 },
                &RunContext::unbounded(),
            )
            .unwrap();
        let Output::Distances(distances) = out else {
            panic!("sssp output shape: {out:?}")
        };
        assert_eq!(distances, vec![graphalytics_algos::INFINITY; 6]);
        p.unload(handle);
    }

    #[test]
    fn bfs_with_missing_source() {
        let mut p = MapReducePlatform::with_defaults();
        let g = test_graph();
        let handle = p.load_graph(&g).unwrap();
        let out = p
            .run(
                handle,
                &Algorithm::Bfs { source: 999 },
                &RunContext::unbounded(),
            )
            .unwrap();
        assert_eq!(out, Output::Depths(vec![-1; 6]));
    }
}
