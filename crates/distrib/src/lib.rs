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
//! * [`worker`] — the worker process: local compute over its partition,
//!   message shuffle to peers, checkpoint write/restore, and a real exit
//!   when the master tells it to crash;
//! * [`master`] — the fleet transport of `graphalytics_pregel::drive`,
//!   the superstep loop in-process Giraph runs too: fleet launch,
//!   superstep exchange, checkpoint collection and relaunch from a
//!   checkpoint. The loop makes every decision (crash probe, restart,
//!   fold, halt), so the master ships no fault plan;
//! * `telemetry` — fleet observability: merging the spans a worker's
//!   own tracer shipped in Telemetry frames into the master's tracer, on
//!   the master's clock and with per-process lanes;
//! * [`driver`] — the self-spawning harness: [`DistributedPlatform`]
//!   implements the `Platform` API by driving the loop over a fleet of
//!   `gx-distrib-worker` processes.
//!
//! Determinism is load-bearing: workers iterate partitions in ascending
//! internal-id order, shuffle batches apply in sender-worker-id order, and
//! the loop folds aggregates in worker-id order, so an N-process run's
//! output is byte-identical to the in-process engine's with N workers.

pub mod driver;
pub mod master;
pub mod net;
pub mod protocol;
mod telemetry;
pub mod worker;

pub use driver::{DistribConfig, DistributedPlatform};
pub use master::MasterStats;
pub use protocol::{read_frame, write_frame, write_frames, Frame, PlanFrame, StepReport};
