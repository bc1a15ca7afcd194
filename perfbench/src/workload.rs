//! What the five workloads have in common: a pass, its result, and the
//! sizes that fix how much work a pass is.

use crate::engines::EngineEnv;
use crate::inputs::StageTimes;
use crate::metrics::Values;
use crate::spans::Recorder;
use crate::{batch, ingest, serve};

/// The workloads, in suite order. `BENCHMARK.json` and the README say why
/// each exists.
pub const WORKLOADS: &[&str] = &[
    "ref-neighborhood",
    "ref-traversal",
    "engine-fleet",
    "ingest",
    "serve-closed",
];

/// How a pass is run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassKind {
    /// Untimed first pass with every output checked against the oracle.
    Warmup,
    /// Timed, tracing off.
    Timed,
    /// Timed, the program's tracer and the benchmark's recorder on.
    Traced,
}

/// What one pass measured.
#[derive(Debug, Default, Clone)]
pub struct Pass {
    /// Wall seconds of the pass, first call to last return.
    pub makespan_s: f64,
    /// Per cell: its size (vertices plus arcs worked through) and the
    /// seconds spent inside the work proper.
    pub cells: Vec<(f64, f64)>,
    /// Latency of each operation a user would wait for: a cell of a batch
    /// workload as the runner clocks it, a load stage, a served job.
    pub ops: Vec<f64>,
    pub attempted: usize,
    /// Operations that failed, timed out, were refused, or whose output
    /// the warm-up pass found invalid.
    pub failed: usize,
    /// Per-layer values this pass measured, by metric name.
    pub layer: Vec<(String, f64)>,
}

impl Pass {
    /// Σ over cells of the time inside the work proper.
    pub fn processing_s(&self) -> f64 {
        self.cells.iter().map(|&(_, s)| s).sum()
    }
}

pub trait Workload {
    fn pass(&mut self, kind: PassKind, rec: &mut Recorder) -> Pass;

    /// Per-layer measurements taken once, after the passes of a traced run.
    fn finish(&mut self, _rec: &mut Recorder, _layer: &mut Values) {}

    /// Sizes and counts for the run stamp.
    fn stamp(&self) -> Vec<(&'static str, String)>;
}

/// How much work a pass is. The full sizes are the benchmark; the tiny ones
/// let tests run every workload in a second.
#[derive(Debug, Clone)]
pub struct Sizes {
    pub neighborhood_scale: u32,
    pub traversal_scale: u32,
    /// BFS and SSSP sources, and EVO runs, per traversal pass.
    pub sources: usize,
    pub fleet_scale: u32,
    pub ingest_scale: u32,
    pub ingest_persons: usize,
    /// The two preloaded graphs of `serve-closed`.
    pub serve_scales: [u32; 2],
    pub serve_jobs_per_pass: usize,
    pub healthz_calls: usize,
    /// Vertex states in the checkpoint snapshot the codec probe encodes.
    pub probe_states: usize,
    /// Bytes of the shuffle batch the wire-frame probe sends.
    pub probe_frame_bytes: usize,
    /// Open/close pairs the span-cost probe times with the tracer off; a
    /// tenth as many with it on, where every span is kept.
    pub probe_spans: usize,
}

impl Sizes {
    pub fn full() -> Self {
        Self {
            neighborhood_scale: 13,
            traversal_scale: 17,
            sources: 16,
            fleet_scale: 10,
            ingest_scale: 15,
            ingest_persons: 25_000,
            serve_scales: [13, 12],
            serve_jobs_per_pass: 100,
            healthz_calls: 200,
            probe_states: 1_000_000,
            probe_frame_bytes: 4 << 20,
            probe_spans: 1_000_000,
        }
    }

    pub fn tiny() -> Self {
        Self {
            neighborhood_scale: 7,
            traversal_scale: 7,
            sources: 3,
            fleet_scale: 6,
            ingest_scale: 7,
            ingest_persons: 300,
            serve_scales: [7, 6],
            serve_jobs_per_pass: 12,
            healthz_calls: 5,
            probe_states: 2_000,
            probe_frame_bytes: 8 << 10,
            probe_spans: 2_000,
        }
    }
}

/// Builds a workload's inputs and platforms: everything before the warm-up
/// pass. The seconds of each named stage go to `stages`.
pub fn setup(
    name: &str,
    sizes: &Sizes,
    seed: u64,
    env: &EngineEnv,
    rec: &mut Recorder,
    stages: &mut StageTimes,
) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "ref-neighborhood" => Box::new(batch::ref_neighborhood(sizes, seed, env, rec, stages)),
        "ref-traversal" => Box::new(batch::ref_traversal(sizes, seed, env, rec, stages)),
        "engine-fleet" => Box::new(batch::engine_fleet(sizes, seed, env, rec, stages)),
        "ingest" => Box::new(ingest::Ingest::setup(sizes, seed, env, rec, stages)?),
        "serve-closed" => Box::new(serve::ServeClosed::setup(sizes, seed, env, rec, stages)?),
        other => {
            return Err(format!("unknown workload {other:?} (one of {WORKLOADS:?})"));
        }
    })
}
