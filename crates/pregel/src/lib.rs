//! # graphalytics-pregel
//!
//! A Pregel/Giraph-style bulk-synchronous parallel graph-processing engine
//! (paper §3.2: "Giraph is an Apache open-source project implementing the
//! Pregel programming model introduced by Google"):
//!
//! * [`drive`] — the one superstep loop, over worker threads here and
//!   over `graphalytics-distrib`'s worker processes;
//! * [`engine`] — workers, supersteps, message passing with combiners,
//!   aggregators, vote-to-halt, remote-message accounting;
//! * [`partition`] — the partition-local message store both Pregel
//!   runtimes run on (this engine and `graphalytics-distrib`'s workers),
//!   and its checkpoint codec;
//! * [`programs`] — the five workload kernels (plus PageRank) as vertex
//!   programs;
//! * [`platform`] — the [`GiraphPlatform`] harness adapter.

pub mod drive;
pub mod engine;
pub mod partition;
pub mod platform;
pub mod programs;

pub use drive::{drive, Report, Step, Transport, MAX_RESTARTS, MAX_SUPERSTEPS};
pub use engine::{
    run, ComputeContext, PartitionerKind, PregelConfig, PregelResult, PregelStats, VertexProgram,
};
pub use partition::{Partition, Placement};
pub use platform::GiraphPlatform;
