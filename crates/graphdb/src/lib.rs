//! # graphalytics-graphdb
//!
//! An embedded single-machine graph database — the Neo4j stand-in (paper
//! §3.2): fixed-size record stores with doubly-linked relationship chains,
//! a traversal API, a page-cache budget that refuses graphs larger than
//! the machine's memory, and the Graphalytics workload as traversal
//! procedures.
//!
//! * [`store`] — node/relationship record stores;
//! * [`algorithms`] — the kernels as store traversals;
//! * [`platform`] — the [`Neo4jPlatform`] harness adapter.

pub mod algorithms;
pub mod platform;
pub mod store;

pub use platform::{Neo4jConfig, Neo4jPlatform};
pub use store::{GraphStore, NodeStore, RelationshipStore};
