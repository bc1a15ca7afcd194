//! # graphalytics-mapreduce
//!
//! A disk-backed MapReduce runtime and the Graphalytics workload as
//! iterative job chains — the Hadoop MapReduce v2 stand-in (paper §3.2).
//!
//! * [`job`] — the runtime: binary records (vertex-id keys, length-framed
//!   values), map tasks that radix-sort their output's index and write one
//!   spill file each, reduce tasks that merge their partition's sorted
//!   segments, counters; all intermediates cross real files, and a task
//!   holds its whole output (map) or partition (reduce) in memory;
//! * [`algorithms`] — the kernels as job chains, one job per round;
//! * [`platform`] — the [`MapReducePlatform`] harness adapter.

pub mod algorithms;
pub mod job;
pub mod platform;

pub use job::{run_job, Emitter, JobConfig, JobCounters, Mapper, Reducer};
pub use platform::{MapReduceConfig, MapReducePlatform};
