//! The platforms under measurement, each built from its public config type
//! with the same worker count.

use std::path::{Path, PathBuf};

use graphalytics_algos::Algorithm;
use graphalytics_columnar::{VirtuosoConfig, VirtuosoPlatform};
use graphalytics_core::platform::Platform;
use graphalytics_core::ReferencePlatform;
use graphalytics_dataflow::{GraphXConfig, GraphXPlatform};
use graphalytics_distrib::{DistribConfig, DistributedPlatform};
use graphalytics_graph::VertexId;
use graphalytics_graphdb::Neo4jPlatform;
use graphalytics_mapreduce::{MapReduceConfig, MapReducePlatform};
use graphalytics_pregel::{GiraphPlatform, PregelConfig};

/// Workers, partitions, threads or processes of every engine. Fixed, not
/// read from the machine, so numbers from different machines compare.
pub const WORKERS: usize = 2;

/// The worker counts for the run stamp.
pub fn worker_stamp() -> String {
    format!(
        "pregel.workers={w} dataflow.partitions={w} mapreduce.map_tasks={w} \
         mapreduce.reduce_tasks={w} columnar.threads={w} distrib.workers={w} reference.threads={w}",
        w = WORKERS
    )
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The sequential reference platform.
    Reference,
    /// The reference platform on [`WORKERS`] threads.
    ReferenceThreads,
    Giraph,
    GraphX,
    MapReduce,
    Neo4j,
    Virtuoso,
    Distributed,
}

/// The six engines of `engine-fleet`, in run order.
pub const FLEET: [Engine; 6] = [
    Engine::Giraph,
    Engine::GraphX,
    Engine::MapReduce,
    Engine::Neo4j,
    Engine::Virtuoso,
    Engine::Distributed,
];

/// Every platform `ingest` loads a graph into.
pub const ALL: [Engine; 7] = [
    Engine::Reference,
    Engine::Giraph,
    Engine::GraphX,
    Engine::MapReduce,
    Engine::Neo4j,
    Engine::Virtuoso,
    Engine::Distributed,
];

impl Engine {
    /// Name in cell labels, as the benchmark configuration spells it.
    pub fn label(self) -> &'static str {
        match self {
            Engine::Reference => "reference",
            Engine::ReferenceThreads => "reference-2t",
            Engine::Giraph => "giraph",
            Engine::GraphX => "graphx",
            Engine::MapReduce => "mapreduce",
            Engine::Neo4j => "neo4j",
            Engine::Virtuoso => "virtuoso",
            Engine::Distributed => "distributed-pregel",
        }
    }

    /// The crate whose execution model does the work, as metrics name it.
    pub fn layer(self) -> &'static str {
        match self {
            Engine::Reference | Engine::ReferenceThreads => "algos",
            Engine::Giraph => "pregel",
            Engine::GraphX => "dataflow",
            Engine::MapReduce => "mapreduce",
            Engine::Neo4j => "graphdb",
            Engine::Virtuoso => "columnar",
            Engine::Distributed => "distrib",
        }
    }

    /// The layer its `load_graph` time is charged to: the reference
    /// platform keeps its graphs in `core`, not in `algos`.
    pub fn load_layer(self) -> &'static str {
        match self {
            Engine::Reference | Engine::ReferenceThreads => "core.reference",
            other => other.layer(),
        }
    }

    /// The per-layer metric its `load_graph` time is reported under.
    pub fn load_metric(self) -> String {
        format!("{}.load_s", self.load_layer())
    }

    /// Kernels of the fleet workload this engine answers `Unsupported` to.
    /// A test runs every engine on every kernel to keep this list true.
    pub fn unsupported(self) -> &'static [&'static str] {
        match self {
            Engine::Virtuoso => &["CONN", "PR"],
            _ => &[],
        }
    }
}

/// Where the engines that need files keep them, and the worker binary the
/// distributed engine forks.
#[derive(Debug, Clone)]
pub struct EngineEnv {
    pub scratch: PathBuf,
    pub worker_bin: PathBuf,
}

impl EngineEnv {
    pub fn new(scratch: &Path, worker_bin: &Path) -> Self {
        Self {
            scratch: scratch.to_path_buf(),
            worker_bin: worker_bin.to_path_buf(),
        }
    }

    pub fn build(&self, engine: Engine) -> Box<dyn Platform> {
        match engine {
            Engine::Reference => Box::new(ReferencePlatform::new()),
            Engine::ReferenceThreads => Box::new(ReferencePlatform::with_threads(WORKERS)),
            Engine::Giraph => Box::new(GiraphPlatform::new(PregelConfig {
                workers: WORKERS,
                ..Default::default()
            })),
            Engine::GraphX => Box::new(GraphXPlatform::new(GraphXConfig {
                partitions: WORKERS,
                ..Default::default()
            })),
            Engine::MapReduce => Box::new(MapReducePlatform::new(MapReduceConfig {
                map_tasks: WORKERS,
                reduce_tasks: WORKERS,
                work_root: self.scratch.join("mapreduce"),
                ..Default::default()
            })),
            Engine::Neo4j => Box::new(Neo4jPlatform::with_defaults()),
            Engine::Virtuoso => {
                Box::new(VirtuosoPlatform::new(VirtuosoConfig { threads: WORKERS }))
            }
            Engine::Distributed => Box::new(DistributedPlatform::new(DistribConfig {
                workers: WORKERS as u32,
                worker_bin: Some(self.worker_bin.clone()),
                work_dir: Some(self.scratch.join("distrib")),
                ..Default::default()
            })),
        }
    }
}

/// The five kernels every fleet engine is asked for.
pub fn fleet_kernels(source: VertexId) -> Vec<Algorithm> {
    vec![
        Algorithm::Bfs { source },
        Algorithm::Conn,
        Algorithm::Sssp { source },
        Algorithm::default_pagerank(),
        Algorithm::Lcc,
    ]
}

/// The kernel's name inside metric names.
pub fn kernel_metric_name(alg: &Algorithm) -> &'static str {
    match alg {
        Algorithm::Stats => "stats",
        Algorithm::Bfs { .. } => "bfs",
        Algorithm::Conn => "conn",
        Algorithm::Cd { .. } => "cd",
        Algorithm::Evo { .. } => "evo",
        Algorithm::PageRank { .. } => "pagerank",
        Algorithm::Sssp { .. } => "sssp",
        Algorithm::Lcc => "lcc",
    }
}
