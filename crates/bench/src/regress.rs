//! The measurement side of the perf-regression observatory.
//!
//! `bench regress` times a fixed workload — the seven-kernel LDBC
//! workload (the paper's five plus SSSP and LCC) on the reference
//! platform over one Graph500 graph — and
//! records, per kernel, the median-of-N execution seconds plus EVPS
//! (edges-plus-vertices per second, the Graphalytics normalized
//! throughput), and per phase the `run.load` median. `--record` writes
//! the committed `BENCH_baseline.json`; `--check` re-measures and holds
//! the result against the baseline with the noise-aware thresholds of
//! [`graphalytics_obs::regress`] (calibration-scaled relative factor plus
//! an absolute floor), exiting non-zero on regression.
//!
//! The workload also covers the serving plane: an in-process
//! `graphalytics-serve` instance is driven by the loadgen's fixed
//! 8-client/16-job mix and its p99 submit-to-terminal latency enters the
//! baseline under [`SERVE_KEY`], so a regression in the queueing or
//! serving path trips the same gate as a kernel slowdown.
//!
//! Knobs: `GX_REGRESS_SCALE` (Graph500 scale, default 16),
//! `GX_REGRESS_RUNS` (measurement rounds, default 5),
//! `GX_REGRESS_HANDICAP` (multiplier applied to measured medians,
//! default 1.0 — exists so the failure path of the gate itself can be
//! exercised in tests and demos), `GX_REGRESS_SERVE` (0 disables the
//! serving-plane measurement), `GX_REGRESS_SERVE_SCALE` (primary mix
//! graph scale, default 12).

use std::collections::BTreeMap;
use std::sync::Arc;

use graphalytics_core::metrics::evps;
use graphalytics_core::{
    BenchmarkConfig, BenchmarkSuite, Dataset, Platform, ReferencePlatform, Tracer,
};
use graphalytics_obs::regress::{
    calibration_loop, compare, median, Baseline, BaselineEntry, CompareReport, Thresholds,
};
use graphalytics_serve::http::http_call;
use graphalytics_serve::loadgen::{self, LoadgenConfig};
use graphalytics_serve::server::{start as start_server, ServerConfig};

use crate::{env_f64, env_usize};
use graphalytics_core::config::ConfigError;

/// Baseline key of the serving-plane entry: p99 submit-to-terminal
/// latency of the loadgen's fixed 8-client/16-job mix.
pub const SERVE_KEY: &str = "Serve/loadgen-8x16/p99-e2e";

/// The regression workload's shape.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressConfig {
    /// Graph500 scale of the measured graph.
    pub scale: u32,
    /// Measurement rounds (median-of-N).
    pub runs: usize,
    /// Multiplier applied to every measured median — 1.0 in production;
    /// tests raise it to simulate a regression.
    pub handicap: f64,
    /// Whether the serving-plane loadgen measurement runs.
    pub serve: bool,
    /// Primary graph scale of the loadgen mix (the secondary uses
    /// `serve_scale - 1`).
    pub serve_scale: u32,
}

impl RegressConfig {
    /// Reads the knobs from the environment.
    pub fn from_env() -> Result<Self, ConfigError> {
        Ok(Self {
            scale: env_usize("GX_REGRESS_SCALE", 16)? as u32,
            runs: env_usize("GX_REGRESS_RUNS", 5)?.max(1),
            handicap: env_f64("GX_REGRESS_HANDICAP", 1.0)?,
            serve: env_usize("GX_REGRESS_SERVE", 1)? != 0,
            serve_scale: env_usize("GX_REGRESS_SERVE_SCALE", 12)? as u32,
        })
    }

    /// One-line description for stderr banners.
    pub fn describe(&self) -> String {
        let mut out = format!(
            "Graph500 {} × LDBC workload on the reference platform, median of {} round(s)",
            self.scale, self.runs
        );
        if self.serve {
            out.push_str(&format!(
                ", plus loadgen 8×16 against graphalytics-serve at scale {}",
                self.serve_scale
            ));
        }
        if self.handicap != 1.0 {
            out.push_str(&format!(", handicap ×{}", self.handicap));
        }
        out
    }
}

/// Times the workload: every run of the suite is traced so the `run.load`
/// phase can be measured next to the per-kernel execution times reported
/// by the run records. Keys are `Reference/<dataset>/<kernel>` plus one
/// `Reference/<dataset>/load` phase entry.
pub fn measure(cfg: &RegressConfig) -> Result<Vec<BaselineEntry>, String> {
    let dataset = Dataset::graph500(cfg.scale);
    let graph = dataset
        .load()
        .map_err(|e| format!("cannot build {}: {e}", dataset.name))?;
    let (vertices, edges) = (graph.num_vertices(), graph.num_arcs());
    drop(graph);

    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for _round in 0..cfg.runs {
        let tracer = Arc::new(Tracer::new());
        let suite = BenchmarkSuite::new(
            vec![dataset.clone()],
            graphalytics_algos::Algorithm::ldbc_workload(),
            BenchmarkConfig::default(),
        );
        let mut platforms: Vec<Box<dyn Platform>> = vec![Box::new(ReferencePlatform::new())];
        let result = suite.run_traced(&mut platforms, &tracer);
        let mut platform_name = String::from("Reference");
        for r in &result.runs {
            if !r.status.is_success() || !r.validation.is_valid() {
                return Err(format!(
                    "regress kernel failed: {}/{}/{} was {:?}",
                    r.platform, r.dataset, r.algorithm, r.status
                ));
            }
            platform_name = r.platform.clone();
            if let Some(rt) = r.runtime_seconds {
                samples
                    .entry(format!("{}/{}/{}", r.platform, r.dataset, r.algorithm))
                    .or_default()
                    .push(rt);
            }
        }
        let load_key = format!("{platform_name}/{}/load", dataset.name);
        for span in tracer
            .finished_spans()
            .iter()
            .filter(|s| s.name == "run.load")
        {
            samples
                .entry(load_key.clone())
                .or_default()
                .push(span.duration_seconds());
        }
    }

    let mut entries: Vec<BaselineEntry> = samples
        .into_iter()
        .map(|(key, timings)| {
            let med = median(timings) * cfg.handicap;
            BaselineEntry {
                key,
                median_seconds: med,
                evps: evps(vertices, edges, med),
            }
        })
        .collect();
    if cfg.serve {
        entries.push(measure_serve(cfg)?);
    }
    Ok(entries)
}

/// Times the serving plane: an in-process server (both mix graphs
/// preloaded, so the measurement sees steady-state cache hits rather
/// than first-load ETL) driven by the loadgen's fixed 8-client/16-job
/// mix. The gate number is the p99 end-to-end latency; EVPS is
/// normalized by the primary mix graph.
fn measure_serve(cfg: &RegressConfig) -> Result<BaselineEntry, String> {
    let scale = cfg.serve_scale;
    let dataset = Dataset::graph500(scale);
    let graph = dataset
        .load()
        .map_err(|e| format!("cannot build {}: {e}", dataset.name))?;
    let (vertices, edges) = (graph.num_vertices(), graph.num_arcs());
    drop(graph);

    let handle = start_server(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        preload: vec![
            format!("graph500-{scale}"),
            format!("graph500-{}", scale.saturating_sub(1).max(1)),
        ],
        queue_capacity: 16,
        ..Default::default()
    })
    .map_err(|e| format!("serve measurement: {e}"))?;
    let addr = handle.local_addr().to_string();
    let mut ready = false;
    for _ in 0..2400 {
        if matches!(http_call(&addr, "GET", "/readyz", None), Ok((200, _))) {
            ready = true;
            break;
        }
        std::thread::sleep(core::time::Duration::from_millis(25));
    }
    if !ready {
        return Err(format!("serve measurement: {addr} never became ready"));
    }
    let report = loadgen::run(&LoadgenConfig {
        addr,
        scale,
        ..Default::default()
    })?;
    handle.shutdown();
    if !report.failures.is_empty() {
        return Err(format!(
            "serve measurement: {} of {} job(s) failed: {}",
            report.failures.len(),
            report.jobs,
            report.failures.join("; ")
        ));
    }
    let p99 = report
        .p99_e2e_seconds()
        .ok_or("serve measurement: loadgen produced no latency samples")?
        * cfg.handicap;
    Ok(BaselineEntry {
        key: SERVE_KEY.to_string(),
        median_seconds: p99,
        evps: evps(vertices, edges, p99),
    })
}

/// Measures the workload and stamps it with a fresh calibration run —
/// the document `--record` writes to `BENCH_baseline.json`.
pub fn record(cfg: &RegressConfig) -> Result<Baseline, String> {
    let entries = measure(cfg)?;
    Ok(Baseline {
        calibration_seconds: calibration_loop(),
        entries,
    })
}

/// Measures the workload and compares it against `baseline`.
pub fn check(
    cfg: &RegressConfig,
    baseline: &Baseline,
    thresholds: Thresholds,
) -> Result<CompareReport, String> {
    let entries = measure(cfg)?;
    Ok(compare(baseline, &entries, calibration_loop(), thresholds))
}
