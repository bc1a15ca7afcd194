//! `perfbench`: the benchmark every speed claim about this workspace is
//! measured with. Five seeded workloads, each run in a fresh process;
//! end-to-end metrics with tracing off, per-layer metrics from a traced
//! run. It measures each layer only from outside: by timing calls into the
//! crates' public functions and by reading what their public records and
//! spans already expose. `README.md` says what each number means.

pub mod batch;
pub mod compare;
pub mod engines;
pub mod ingest;
pub mod inputs;
pub mod metrics;
pub mod probes;
pub mod run;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod workload;
