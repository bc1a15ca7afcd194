//! # graphalytics-obs
//!
//! The analysis layer over the harness's observability primitives — where
//! the paper's choke-point methodology (§2.1) meets the System Monitor's
//! raw data (§2.3). The tracing layer *records* spans and counters; this
//! crate *interprets* them:
//!
//! * [`profiler`] — the span fold: [`Profile::from_spans`] turns finished
//!   spans into folded stacks weighted by each span's self time;
//! * [`export`] — exporters for flamegraph folded-stack text, a
//!   self-contained SVG flamegraph, and Chrome `trace_event` JSON that
//!   opens directly in `chrome://tracing` / Perfetto;
//! * [`chokepoints`] — the choke-point attribution engine mapping each
//!   run's spans and counters onto the paper's four choke points
//!   (network, memory, locality, skew).
//!
//! Everything here is analysis-only: it reads finished spans after a run,
//! so with no exporter invoked nothing in this crate runs and platform
//! outputs are untouched.

pub mod chokepoints;
pub mod export;
pub mod profiler;

pub use chokepoints::{attribute, RunChokePoints};
pub use export::{chrome_trace, flamegraph_svg};
pub use profiler::Profile;
