//! # graphalytics-serve
//!
//! Benchmark-as-a-service: the live telemetry plane over the offline
//! harness. The paper frames Graphalytics as a benchmark meant to be
//! *operated* — many platforms, many datasets, repeated runs — and LDBC
//! Graphalytics standardizes a driver-orchestrated, renewable benchmark
//! process; this crate is that operational layer, built on
//! `std::net::TcpListener` with zero external dependencies:
//!
//! * [`registry`] — loaded graphs shared and cached across jobs, with a
//!   readiness latch for `/readyz`;
//! * [`jobs`] — job specs, the bounded FIFO queue with admission control,
//!   the per-job event log, and the computations store;
//! * [`server`] — routing, the worker pool, and the `/metrics`
//!   Prometheus surface (queue depth, active jobs, terminal-state
//!   counters, per-endpoint request latency, build info);
//! * [`http`] — the minimal HTTP/1.1 server/client layer everything
//!   above rides on.
//!
//! Determinism contract: compiling this crate in changes nothing about
//! offline runs — no server thread starts unless [`server::start`] is
//! called, and the crate sits inside `graphalytics-lint`'s determinism
//! scope (no wall-clock reads outside the shared [`Tracer`] epoch clock,
//! no hash-order iteration, no entropy).
//!
//! [`Tracer`]: graphalytics_core::Tracer

pub mod http;
pub mod jobs;
pub mod registry;
pub mod server;

pub use jobs::{Job, JobSpec, JobState, JobStore};
pub use registry::GraphRegistry;
pub use server::{start, ServerConfig, ServerHandle};
