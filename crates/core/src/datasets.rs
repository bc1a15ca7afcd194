//! The Datasets database of the harness (paper Figure 2): named dataset
//! descriptors covering the paper's evaluation graphs, with on-disk
//! caching in the Graphalytics `.v`/`.e` format.
//!
//! "Graphalytics has a database for Datasets, which includes preconfigured
//! graphs ready to be used with Graphalytics. Furthermore, users can
//! generate using the Datagen Data Generator new synthetic datasets to suit
//! the requirements of their applications."

use std::path::PathBuf;
use std::sync::Arc;

use graphalytics_datagen::{generator, rmat, DatagenConfig, DegreeDistribution, RealWorldGraph};
use graphalytics_graph::{io, CsrGraph, EdgeListGraph, GraphError};

/// How a dataset is obtained.
#[derive(Debug, Clone)]
pub enum DatasetSpec {
    /// Graph500 R-MAT graph at the given scale (the paper uses scale 23;
    /// the default harness configuration uses reduced scales).
    Graph500 {
        /// log2(num vertices).
        scale: u32,
    },
    /// SNB-style Datagen social network with `persons` members (a stand-in
    /// for the paper's "SNB 1000" scale factor).
    Snb {
        /// Number of persons.
        persons: usize,
    },
    /// A calibrated stand-in for one of Table 1's real graphs.
    RealWorld {
        /// Which graph to imitate.
        graph: RealWorldGraph,
        /// Scale reduction factor (e.g. 40 ⇒ 1/40 of the real size).
        divisor: usize,
    },
    /// Datagen with an explicit configuration.
    Custom(DatagenConfig),
    /// Load from `.v`/`.e` files at this prefix.
    File {
        /// Path prefix (without extension).
        prefix: PathBuf,
        /// Whether the edge file is directed.
        directed: bool,
    },
}

/// A named dataset in the repository.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Report name, e.g. "Graph500 16".
    pub name: String,
    /// How to obtain it.
    pub spec: DatasetSpec,
    /// Generation seed (ignored for [`DatasetSpec::File`]).
    pub seed: u64,
}

impl Dataset {
    /// Graph500 dataset at `scale`.
    pub fn graph500(scale: u32) -> Self {
        Self {
            name: format!("Graph500 {scale}"),
            spec: DatasetSpec::Graph500 { scale },
            seed: 0x6500 + scale as u64,
        }
    }

    /// SNB Datagen dataset with `persons` members.
    pub fn snb(persons: usize) -> Self {
        Self {
            name: format!("SNB {persons}"),
            spec: DatasetSpec::Snb { persons },
            seed: 0x534E_4200,
        }
    }

    /// Stand-in for a Table 1 graph at 1/`divisor` scale.
    pub fn real_world(graph: RealWorldGraph, divisor: usize) -> Self {
        Self {
            name: graph.name().to_string(),
            spec: DatasetSpec::RealWorld { graph, divisor },
            seed: 0x5245_414C,
        }
    }

    /// Generates or loads the dataset as an edge list.
    pub fn edge_list(&self) -> Result<EdgeListGraph, GraphError> {
        match &self.spec {
            DatasetSpec::Graph500 { scale } => Ok(rmat::generate(&rmat::RmatConfig::graph500(
                *scale, self.seed,
            ))),
            DatasetSpec::Snb { persons } => {
                let cfg = DatagenConfig {
                    num_persons: *persons,
                    seed: self.seed,
                    degree_distribution: DegreeDistribution::Facebook(18.0),
                    ..Default::default()
                };
                Ok(generator::generate(&cfg))
            }
            DatasetSpec::RealWorld { graph, divisor } => {
                Ok(graph.generate_standin(*divisor, self.seed).0)
            }
            DatasetSpec::Custom(cfg) => Ok(generator::generate(cfg)),
            DatasetSpec::File { prefix, directed } => io::read_graph(prefix, *directed),
        }
    }

    /// Generates or loads the dataset and builds the canonical CSR graph.
    pub fn load(&self) -> Result<Arc<CsrGraph>, GraphError> {
        Ok(Arc::new(CsrGraph::from_edge_list(&self.edge_list()?)))
    }

    /// File-system-safe name for cache paths.
    fn file_stem(&self) -> String {
        self.name
            .chars()
            .map(|c| if c.is_alphanumeric() { c } else { '-' })
            .collect::<String>()
            .to_lowercase()
    }
}

/// A directory of cached datasets in `.v`/`.e` format.
pub struct DatasetRepository {
    root: PathBuf,
}

impl DatasetRepository {
    /// Opens (and creates) the repository directory.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, GraphError> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(Self { root })
    }

    /// Path prefix where `dataset` is cached.
    pub fn prefix(&self, dataset: &Dataset) -> PathBuf {
        self.root.join(dataset.file_stem())
    }

    /// Returns the dataset, generating and caching it on first use and
    /// reading the cached files afterwards.
    pub fn fetch(&self, dataset: &Dataset) -> Result<EdgeListGraph, GraphError> {
        let prefix = self.prefix(dataset);
        let v_file = prefix.with_extension("v");
        let directed = false; // All workload datasets are undirected.
        if v_file.exists() {
            return io::read_graph(&prefix, directed);
        }
        let graph = dataset.edge_list()?;
        io::write_graph(&graph, &prefix)?;
        Ok(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph500_dataset_loads() {
        let d = Dataset::graph500(8);
        let g = d.load().unwrap();
        assert_eq!(g.num_vertices(), 256);
        assert!(g.num_edges() > 500);
        assert_eq!(d.name, "Graph500 8");
    }

    #[test]
    fn snb_dataset_loads() {
        let d = Dataset::snb(500);
        let g = d.load().unwrap();
        assert_eq!(g.num_vertices(), 500);
        assert!(g.num_edges() > 500);
    }

    #[test]
    fn real_world_dataset_loads() {
        let d = Dataset::real_world(RealWorldGraph::Wikipedia, 400);
        let g = d.load().unwrap();
        assert!(g.num_vertices() >= 200);
    }

    #[test]
    fn datasets_are_reproducible() {
        let a = Dataset::graph500(7).edge_list().unwrap();
        let b = Dataset::graph500(7).edge_list().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn repository_caches_and_round_trips() {
        let dir = crate::ScratchDir::new(None, "gx-ds").unwrap();
        let repo = DatasetRepository::open(dir.path()).unwrap();
        let d = Dataset::graph500(7);
        let first = repo.fetch(&d).unwrap();
        assert!(repo.prefix(&d).with_extension("v").exists());
        let second = repo.fetch(&d).unwrap();
        assert_eq!(first, second);
    }

    #[test]
    fn file_spec_reads_written_graph() {
        let dir = crate::ScratchDir::new(None, "gx-ds").unwrap();
        let g = EdgeListGraph::undirected_from_edges(vec![(0, 1), (1, 2)]);
        let prefix = dir.path().join("tiny");
        io::write_graph(&g, &prefix).unwrap();
        let d = Dataset {
            name: "tiny".into(),
            spec: DatasetSpec::File {
                prefix,
                directed: false,
            },
            seed: 0,
        };
        assert_eq!(d.edge_list().unwrap(), g);
    }

    #[test]
    fn file_stems_are_fs_safe() {
        let d = Dataset::graph500(16);
        assert_eq!(d.file_stem(), "graph500-16");
    }
}
