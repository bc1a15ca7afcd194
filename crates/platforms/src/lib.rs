//! # graphalytics-platforms
//!
//! The platform registry: the one table that turns a configuration name
//! into an engine. Every front door (`benchmark`, `bench ladder`, the
//! figure drivers, the job server) resolves names, aliases and rosters
//! through it and passes its own flags as entries of the one [`Properties`]
//! map the constructors read, so a platform built by name is configured the
//! same wherever it is asked for. Adding a platform is one [`Platform`]
//! impl and one row. The table is a crate of its own because it links
//! every engine, and `core` sits below them.
//!
//! Code that needs a typed, non-default configuration keeps calling
//! `XPlatform::new(config)`; the engines are re-exported for that.

use std::collections::BTreeMap;

use graphalytics_core::config::{property, ConfigError};
use graphalytics_core::{Platform, ReferencePlatform};

pub use graphalytics_columnar::{self as columnar, VirtuosoConfig, VirtuosoPlatform};
pub use graphalytics_dataflow::{self as dataflow, GraphXConfig, GraphXPlatform};
pub use graphalytics_distrib::{self as distrib, DistribConfig, DistributedPlatform};
pub use graphalytics_graphdb::{self as graphdb, Neo4jConfig, Neo4jPlatform};
pub use graphalytics_mapreduce::{self as mapreduce, MapReduceConfig, MapReducePlatform};
pub use graphalytics_pregel::{self as pregel, GiraphPlatform, PregelConfig};

/// The raw `key = value` pairs of a benchmark configuration
/// ([`BenchmarkSpec::properties`](graphalytics_core::BenchmarkSpec)), plus
/// whatever a front door's own flags add.
pub type Properties = BTreeMap<String, String>;

/// One platform the harness can build by name.
pub struct PlatformRow {
    /// Name in configuration files, job submissions and `--platforms`.
    pub name: &'static str,
    /// Other accepted spellings.
    pub aliases: &'static [&'static str],
    /// What [`Platform::name`] returns: the name reports print.
    pub display_name: &'static str,
    /// The property keys `build` reads; it ignores every other key.
    pub property_keys: &'static [&'static str],
    /// The engine forks `gx-distrib-worker`, which must be built beside
    /// the invoking binary (or named by `GX_DISTRIB_WORKER_BIN`).
    pub needs_worker_binary: bool,
    /// Worker parallelism of the platform built from no properties, read
    /// from the engine's own `Config::default()`: OS processes for
    /// `distributed-pregel`, in-process workers, partitions or threads
    /// otherwise.
    pub default_workers: fn() -> usize,
    /// Builds a fresh platform: absent keys take the engine's default, a
    /// malformed value is an error.
    pub build: fn(&Properties) -> Result<Box<dyn Platform>, ConfigError>,
}

/// Every platform, in report order.
pub static PLATFORMS: [PlatformRow; 7] = [
    PlatformRow {
        name: "giraph",
        aliases: &[],
        display_name: "Giraph",
        property_keys: &["giraph.workers", "giraph.memory_mb"],
        needs_worker_binary: false,
        default_workers: || PregelConfig::default().workers,
        build: |p| {
            let defaults = PregelConfig::default();
            Ok(Box::new(GiraphPlatform::new(PregelConfig {
                workers: property(p, "giraph.workers")?.unwrap_or(defaults.workers),
                memory_budget: property(p, "giraph.memory_mb")?.map(|mb: usize| mb << 20),
                ..defaults
            })))
        },
    },
    PlatformRow {
        name: "graphx",
        aliases: &[],
        display_name: "GraphX",
        property_keys: &["graphx.partitions", "graphx.memory_mb"],
        needs_worker_binary: false,
        default_workers: || GraphXConfig::default().partitions,
        build: |p| {
            let defaults = GraphXConfig::default();
            Ok(Box::new(GraphXPlatform::new(GraphXConfig {
                partitions: property(p, "graphx.partitions")?.unwrap_or(defaults.partitions),
                memory_budget: property(p, "graphx.memory_mb")?.map(|mb: usize| mb << 20),
            })))
        },
    },
    PlatformRow {
        name: "mapreduce",
        aliases: &["hadoop"],
        display_name: "MapReduce",
        property_keys: &[],
        needs_worker_binary: false,
        default_workers: || MapReduceConfig::default().map_tasks,
        build: |_| Ok(Box::new(MapReducePlatform::with_defaults())),
    },
    PlatformRow {
        name: "neo4j",
        aliases: &[],
        display_name: "Neo4j",
        property_keys: &["neo4j.page_cache_mb"],
        needs_worker_binary: false,
        default_workers: || 1,
        build: |p| {
            Ok(Box::new(Neo4jPlatform::new(Neo4jConfig {
                page_cache_budget: property(p, "neo4j.page_cache_mb")?.map(|mb: usize| mb << 20),
            })))
        },
    },
    PlatformRow {
        name: "virtuoso",
        aliases: &[],
        display_name: "Virtuoso",
        property_keys: &[],
        needs_worker_binary: false,
        default_workers: || VirtuosoConfig::default().threads,
        build: |_| Ok(Box::new(VirtuosoPlatform::with_defaults())),
    },
    PlatformRow {
        name: "reference",
        aliases: &[],
        display_name: "Reference",
        property_keys: &["reference.threads"],
        needs_worker_binary: false,
        default_workers: || 1,
        build: |p| {
            Ok(Box::new(match property(p, "reference.threads")? {
                Some(threads) => ReferencePlatform::with_threads(threads),
                None => ReferencePlatform::new(),
            }))
        },
    },
    PlatformRow {
        name: "distributed-pregel",
        aliases: &["distrib"],
        display_name: "Distributed",
        property_keys: &["distrib.workers"],
        needs_worker_binary: true,
        default_workers: || DistribConfig::default().workers as usize,
        build: |p| {
            let defaults = DistribConfig::default();
            Ok(Box::new(DistributedPlatform::new(DistribConfig {
                workers: property(p, "distrib.workers")?.unwrap_or(defaults.workers),
                ..defaults
            })))
        },
    },
];

/// The paper's Figure 4 fleet: the roster of a run that names no platforms.
pub const PAPER_FLEET: [&str; 4] = ["giraph", "graphx", "mapreduce", "neo4j"];

/// The row a lower-case name or alias selects, or the one unknown-platform
/// message every front door prints.
pub fn resolve(name: &str) -> Result<&'static PlatformRow, String> {
    let row = PLATFORMS
        .iter()
        .find(|row| row.name == name || row.aliases.contains(&name));
    row.ok_or_else(|| {
        let names: Vec<&str> = PLATFORMS.iter().map(|row| row.name).collect();
        format!(
            "unknown platform {name:?} (available: {})",
            names.join(", ")
        )
    })
}

/// Builds one fresh platform by name or alias.
pub fn build(name: &str, properties: &Properties) -> Result<Box<dyn Platform>, String> {
    (resolve(name)?.build)(properties).map_err(|e| e.to_string())
}

/// Builds one fresh platform per name, in the order given.
pub fn build_all<S: AsRef<str>>(
    names: &[S],
    properties: &Properties,
) -> Result<Vec<Box<dyn Platform>>, String> {
    names
        .iter()
        .map(|name| build(name.as_ref(), properties))
        .collect()
}
