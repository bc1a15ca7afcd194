//! # graphalytics-distrib
//!
//! True multi-process distributed execution: the Pregel engine as one
//! master process and N worker processes exchanging superstep messages
//! over a length-prefixed binary protocol on localhost TCP.
//!
//! * [`protocol`] — framed wire codec: version/type-tagged, CRC-checked
//!   payloads in the `graphalytics-codec` encoding;
//! * [`net`] — the one place a stream is opened: `TCP_NODELAY` and the read
//!   timeout on every master and peer connection;
//! * [`partition`] — deterministic vertex→worker assignment (computed
//!   independently by master and workers) and ordered output merge;
//! * [`worker`] — the worker process: local compute over its partition,
//!   message shuffle to peers, checkpoint write/restore;
//! * [`master`] — partition planning, superstep barrier, checkpoint
//!   coordination, worker health tracking, fleet restart recovery;
//! * [`telemetry`] — fleet observability: worker span buffering on the
//!   shared logical clock, Telemetry-frame shipping, and seq-deduplicated
//!   merging into the master's tracer with per-process lanes;
//! * [`driver`] — the self-spawning harness: [`DistributedPlatform`]
//!   implements the `Platform` API by forking `gx-distrib-worker`
//!   processes.
//!
//! Determinism is load-bearing: workers iterate partitions in ascending
//! internal-id order, shuffle batches apply in sender-worker-id order, and
//! the master folds aggregates in worker-id order, so an N-process run's
//! output is byte-identical to the in-process engine's with N workers.

pub mod driver;
pub mod master;
pub mod net;
pub mod partition;
pub mod protocol;
pub mod telemetry;
pub mod worker;

pub use driver::{DistribConfig, DistributedPlatform};
pub use master::{coordinate, MasterConfig, MasterStats};
pub use partition::PartitionPlan;
pub use protocol::{read_frame, write_frame, write_frames, Frame, PlanFrame, StepReport};
pub use telemetry::{SpanKind, TelemetryBuffer, TelemetryMerger, WireSpan};
