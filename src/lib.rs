//! # Graphalytics-RS
//!
//! A from-scratch Rust implementation of **Graphalytics**, the big-data
//! benchmark for graph-processing platforms (Capotă et al., 2015) —
//! including every platform the paper benchmarks, rebuilt as native Rust
//! engines.
//!
//! ## Crate map
//!
//! | Module | Contents |
//! |--------|----------|
//! | [`graph`] | graph structures, `.v`/`.e` I/O, metrics, distribution fitting, partitioners, deterministic RNG |
//! | [`datagen`] | LDBC-Datagen-style social network generator with degree-distribution plugins, rewiring, cluster/single deployments, R-MAT |
//! | [`algos`] | the workload (STATS, BFS, CONN, CD, EVO + PageRank) and its reference implementations |
//! | [`core`] | the benchmark harness: platform API, datasets, runner, validator, monitor, reports, results DB |
//! | [`pregel`] | Giraph stand-in (BSP vertex-centric engine) |
//! | [`dataflow`] | GraphX/Spark stand-in (partitioned datasets + graph layer) |
//! | [`mapreduce`] | Hadoop stand-in (disk-backed MapReduce job chains) |
//! | [`graphdb`] | Neo4j stand-in (record stores + traversals) |
//! | [`columnar`] | Virtuoso stand-in (compressed columns + transitive SQL) |
//! | [`platforms`] | the platform registry: every engine above (plus the multi-process `distributed-pregel`) by configuration name |
//! | [`obs`] | choke-point profiler: self-time span fold, flamegraph/Chrome-trace export, choke-point attribution |
//!
//! ## Quickstart
//!
//! ```
//! use graphalytics::prelude::*;
//!
//! // A small Graph500 graph, the five-kernel workload, two platforms.
//! let suite = BenchmarkSuite::new(
//!     vec![Dataset::graph500(8)],
//!     Algorithm::paper_workload(),
//!     BenchmarkConfig::default(),
//! );
//! let mut platforms: Vec<Box<dyn Platform>> = vec![
//!     Box::new(GiraphPlatform::with_defaults()),
//!     Box::new(Neo4jPlatform::with_defaults()),
//! ];
//! let result = suite.run(&mut platforms);
//! assert!(result.runs.iter().all(|r| r.validation.is_valid()));
//! ```

pub use graphalytics_algos as algos;
pub use graphalytics_columnar as columnar;
pub use graphalytics_core as core;
pub use graphalytics_dataflow as dataflow;
pub use graphalytics_datagen as datagen;
pub use graphalytics_graph as graph;
pub use graphalytics_graphdb as graphdb;
pub use graphalytics_mapreduce as mapreduce;
pub use graphalytics_obs as obs;
pub use graphalytics_platforms as platforms;
pub use graphalytics_pregel as pregel;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use graphalytics_algos::{Algorithm, Output};
    pub use graphalytics_columnar::VirtuosoPlatform;
    pub use graphalytics_core::{
        BenchmarkConfig, BenchmarkSuite, Dataset, Platform, PlatformError, ReferencePlatform,
        RunContext, RunStatus, SuiteResult, Validation,
    };
    pub use graphalytics_dataflow::GraphXPlatform;
    pub use graphalytics_datagen::{DatagenConfig, DegreeDistribution, RealWorldGraph};
    pub use graphalytics_graph::{CsrGraph, EdgeListGraph};
    pub use graphalytics_graphdb::Neo4jPlatform;
    pub use graphalytics_mapreduce::MapReducePlatform;
    pub use graphalytics_pregel::GiraphPlatform;
}
