//! # graphalytics-core
//!
//! The Graphalytics Benchmark Core (paper §2.3, Figure 2): the harness that
//! "binds together Graphalytics".
//!
//! * [`platform`] — the [`Platform`](platform::Platform) integration API
//!   ("platform-specific algorithm implementation" modules plug in here)
//!   and the [`GraphTable`] its implementations keep loaded graphs in;
//! * [`scratch`] — [`ScratchDir`], the self-removing scratch directory of
//!   the engines that spill to disk (re-exported from `graphalytics-graph`);
//! * [`datasets`] — the Datasets database (preconfigured graphs + Datagen);
//! * [`runner`] — the benchmark orchestrator (all platforms × datasets ×
//!   algorithms, with timeouts, repetitions, monitoring, validation);
//! * [`validator`] — the Output Validator;
//! * [`monitor`] — the System Monitor;
//! * [`sampler`] — the monitor's periodic background thread, stopped by a
//!   wake-up instead of a poll;
//! * [`report`] — the Report Generator (Figure 4 / Figure 5 style tables,
//!   JSON);
//! * [`results`] — the Results database (JSONL submissions);
//! * [`metrics`] — runtime and TEPS accounting;
//! * [`trace`] — structured spans, metrics registry (Prometheus text +
//!   JSONL export), and per-run phase timelines;
//! * [`json`] — the minimal JSON model used by reports and results.

/// The deterministic parallel runtime (scoped threads, fixed chunk
/// assignment) the reference kernels and CSR construction run on,
/// re-exported so harness code and platforms share one entry point.
pub use graphalytics_parallel as parallel;

/// The deterministic fault-injection and recovery subsystem (fault plans,
/// injectors, retry policies, checkpoint snapshots), re-exported so platforms
/// and benches share one entry point.
pub use graphalytics_faults as faults;

pub mod config;
pub mod datasets;
pub mod html;
pub mod json;
pub mod metrics;
pub mod monitor;
pub mod platform;
pub mod reference_platform;
pub mod report;
pub mod results;
pub mod runner;
pub mod sampler;
pub mod sync;
pub mod trace;
pub mod validator;

pub use graphalytics_graph::scratch;

pub use config::BenchmarkSpec;
pub use datasets::{Dataset, DatasetRepository, DatasetSpec};
pub use platform::{GraphHandle, GraphTable, Platform, PlatformError, RunContext};
pub use reference_platform::ReferencePlatform;
pub use runner::{BenchmarkConfig, BenchmarkSuite, RunRecord, RunStatus, SuiteResult};
pub use scratch::ScratchDir;
pub use trace::{MetricsRegistry, RunTimeline, Tracer};
pub use validator::{OutputValidator, Validation};
