//! The p99 load observatory: N concurrent clients replaying a fixed
//! platform×algorithm×graph job mix against a running server.
//!
//! Each client submits its share of the mix over HTTP, polls every job to
//! a terminal state, and records two distributions into a local
//! [`MetricsRegistry`]: end-to-end latency (submit → terminal, measured by
//! the client's own clock) and queue wait (reported by the server in the
//! job document). The report prints p50/p95/p99 from the existing
//! histogram quantile estimator — the first numbers this repo produces
//! *under load* rather than single-run.
//!
//! The mix is deterministic in the job index, so two runs against equal
//! servers submit identical work.

use core::time::Duration;
use std::sync::Arc;

use graphalytics_core::json;
use graphalytics_core::trace::Histogram;
use graphalytics_core::{MetricsRegistry, Tracer};

use crate::http::http_call;

/// Latency buckets for the observatory histograms: finer than the
/// runner's defaults at the low end, wide enough for load-spike tails.
pub const LOADGEN_BUCKETS: &[f64] = &[
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0,
];

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Concurrent client threads.
    pub clients: usize,
    /// Total jobs across all clients.
    pub jobs: usize,
    /// Graph500 scale of the primary mix graph (the secondary uses
    /// `scale - 1`).
    pub scale: u32,
    /// Platforms cycled through the mix.
    pub platforms: Vec<String>,
    /// Poll interval while waiting for jobs.
    pub poll_interval: Duration,
    /// Per-job timeout submitted with each job.
    pub timeout_secs: u64,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:8642".to_string(),
            clients: 8,
            jobs: 16,
            scale: 12,
            platforms: vec!["reference".to_string(), "giraph".to_string()],
            poll_interval: Duration::from_millis(10),
            timeout_secs: 120,
        }
    }
}

/// The deterministic job mix: job `j` cycles platforms, algorithms, and
/// two graph scales.
fn job_body(cfg: &LoadgenConfig, j: usize) -> String {
    let algorithms = ["bfs:0", "conn", "pagerank"];
    let platform = &cfg.platforms[j % cfg.platforms.len().max(1)];
    let algorithm = algorithms[j % algorithms.len()];
    let scale = if j.is_multiple_of(2) {
        cfg.scale
    } else {
        cfg.scale.saturating_sub(1).max(1)
    };
    format!(
        r#"{{"platform":"{platform}","algorithm":"{algorithm}","graph":"graph500-{scale}","timeout_secs":{}}}"#,
        cfg.timeout_secs
    )
}

/// What one finished load run measured.
pub struct LoadgenReport {
    /// Jobs submitted.
    pub jobs: usize,
    /// Jobs that reached `done` with valid output.
    pub completed: usize,
    /// One message per job that failed, timed out, or could not be
    /// tracked.
    pub failures: Vec<String>,
    /// End-to-end latency distribution (client-side clock).
    pub e2e: Option<Histogram>,
    /// Queue-wait distribution (server-reported).
    pub queue_wait: Option<Histogram>,
}

impl LoadgenReport {
    /// p99 end-to-end latency (client-side clock), by the histogram estimator.
    pub fn p99_e2e_seconds(&self) -> Option<f64> {
        self.e2e.as_ref().and_then(|h| h.quantile(0.99))
    }

    /// Human-readable summary table (quantiles via the histogram
    /// estimator).
    pub fn render_text(&self) -> String {
        fn row(name: &str, h: &Option<Histogram>) -> String {
            match h {
                Some(h) if h.count > 0 => {
                    let q = |p: f64| {
                        h.quantile(p)
                            .map(|v| format!("{v:.3}s"))
                            .unwrap_or_else(|| "-".to_string())
                    };
                    format!(
                        "{name:<12} p50 {:>9}  p95 {:>9}  p99 {:>9}  (n={})\n",
                        q(0.50),
                        q(0.95),
                        q(0.99),
                        h.count
                    )
                }
                _ => format!("{name:<12} (no samples)\n"),
            }
        }
        let mut out = String::new();
        out.push_str(&row("end-to-end", &self.e2e));
        out.push_str(&row("queue-wait", &self.queue_wait));
        if self.failures.is_empty() {
            out.push_str(&format!(
                "all {} job(s) completed and validated\n",
                self.completed
            ));
        } else {
            for f in &self.failures {
                out.push_str(&format!("FAILED: {f}\n"));
            }
        }
        out
    }
}

/// Submits one job, polls it to a terminal state, and records its
/// latencies. Returns an error message on any non-success outcome.
fn drive_job(
    cfg: &LoadgenConfig,
    metrics: &MetricsRegistry,
    clock: &Tracer,
    j: usize,
) -> Result<(), String> {
    let body = job_body(cfg, j);
    let submitted = clock.now_seconds();
    // 429 (admission control) is expected under load: back off and retry.
    let id = loop {
        let (status, response) = http_call(&cfg.addr, "POST", "/jobs", Some(&body))?;
        match status {
            202 => {
                let doc = json::parse(&response).ok_or("submit response is not JSON")?;
                break doc
                    .get("id")
                    .and_then(|v| v.as_str())
                    .ok_or("submit response has no id")?
                    .to_string();
            }
            429 => std::thread::sleep(cfg.poll_interval),
            other => return Err(format!("job {j}: submit returned {other}: {response}")),
        }
        if clock.now_seconds() - submitted > 2.0 * cfg.timeout_secs as f64 {
            return Err(format!("job {j}: queue stayed full past the deadline"));
        }
    };
    let doc = loop {
        let (status, response) = http_call(&cfg.addr, "GET", &format!("/jobs/{id}"), None)?;
        if status != 200 {
            return Err(format!("job {id}: status poll returned {status}"));
        }
        let doc = json::parse(&response).ok_or("status response is not JSON")?;
        let state = doc
            .get("state")
            .and_then(|v| v.as_str())
            .unwrap_or("unknown")
            .to_string();
        match state.as_str() {
            "done" | "failed" | "timeout" => break doc,
            _ => std::thread::sleep(cfg.poll_interval),
        }
        if clock.now_seconds() - submitted > 3.0 * cfg.timeout_secs as f64 {
            return Err(format!("job {id}: never reached a terminal state"));
        }
    };
    let e2e = clock.now_seconds() - submitted;
    metrics.observe_with_buckets(
        "graphalytics_loadgen_e2e_seconds",
        &[],
        e2e,
        LOADGEN_BUCKETS,
    );
    if let Some(wait) = doc.get("queue_wait_seconds").and_then(|v| v.as_f64()) {
        metrics.observe_with_buckets(
            "graphalytics_loadgen_queue_wait_seconds",
            &[],
            wait,
            LOADGEN_BUCKETS,
        );
    }
    let state = doc.get("state").and_then(|v| v.as_str()).unwrap_or("");
    if state != "done" {
        let error = doc
            .get("error")
            .and_then(|v| v.as_str())
            .unwrap_or("no error recorded");
        return Err(format!("job {id} ended {state}: {error}"));
    }
    let validation = doc.get("validation").and_then(|v| v.as_str()).unwrap_or("");
    if validation != "valid" {
        return Err(format!("job {id} validation verdict was {validation:?}"));
    }
    Ok(())
}

/// Runs the full mix: `cfg.jobs` jobs distributed round-robin over
/// `cfg.clients` threads. Fails fast only on configuration errors;
/// per-job failures are collected into the report.
pub fn run(cfg: &LoadgenConfig) -> Result<LoadgenReport, String> {
    if cfg.clients == 0 || cfg.jobs == 0 {
        return Err("loadgen needs at least one client and one job".to_string());
    }
    // Refuse to start against a server that is not ready: every job would
    // bounce off 503.
    let (status, _) = http_call(&cfg.addr, "GET", "/readyz", None)?;
    if status != 200 {
        return Err(format!(
            "server at {} is not ready (readyz={status})",
            cfg.addr
        ));
    }
    let metrics = Arc::new(MetricsRegistry::new());
    let clock = Arc::new(Tracer::disabled());
    let cfg = Arc::new(cfg.clone());
    let mut handles = Vec::new();
    for c in 0..cfg.clients {
        let cfg = Arc::clone(&cfg);
        let metrics = Arc::clone(&metrics);
        let clock = Arc::clone(&clock);
        let handle = std::thread::Builder::new()
            .name(format!("gx-loadgen-{c}"))
            // lint:allow(spawn-audit): load clients model external users, not determinism-scoped work; the job mix is index-deterministic
            .spawn(move || {
                let mut failures = Vec::new();
                let mut completed = 0usize;
                for j in (c..cfg.jobs).step_by(cfg.clients) {
                    match drive_job(&cfg, &metrics, &clock, j) {
                        Ok(()) => completed += 1,
                        Err(e) => failures.push(e),
                    }
                }
                (completed, failures)
            })
            .map_err(|e| format!("spawn client thread: {e}"))?;
        handles.push(handle);
    }
    let mut completed = 0usize;
    let mut failures = Vec::new();
    for handle in handles {
        let (c, f) = handle
            .join()
            .map_err(|_| "a client thread panicked".to_string())?;
        completed += c;
        failures.extend(f);
    }
    Ok(LoadgenReport {
        jobs: cfg.jobs,
        completed,
        failures,
        e2e: metrics.histogram("graphalytics_loadgen_e2e_seconds", &[]),
        queue_wait: metrics.histogram("graphalytics_loadgen_queue_wait_seconds", &[]),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic_and_cycles() {
        let cfg = LoadgenConfig {
            scale: 10,
            ..Default::default()
        };
        let a: Vec<String> = (0..16).map(|j| job_body(&cfg, j)).collect();
        let b: Vec<String> = (0..16).map(|j| job_body(&cfg, j)).collect();
        assert_eq!(a, b);
        // Both scales, all three algorithms, and both platforms appear.
        let all = a.join("\n");
        assert!(all.contains("graph500-10"));
        assert!(all.contains("graph500-9"));
        for needle in ["bfs:0", "conn", "pagerank", "reference", "giraph"] {
            assert!(all.contains(needle), "{needle}");
        }
    }

    #[test]
    fn report_renders_quantiles() {
        let metrics = MetricsRegistry::new();
        for v in [0.05, 0.1, 0.2, 0.4] {
            metrics.observe_with_buckets(
                "graphalytics_loadgen_e2e_seconds",
                &[],
                v,
                LOADGEN_BUCKETS,
            );
        }
        let report = LoadgenReport {
            jobs: 4,
            completed: 4,
            failures: Vec::new(),
            e2e: metrics.histogram("graphalytics_loadgen_e2e_seconds", &[]),
            queue_wait: None,
        };
        let text = report.render_text();
        assert!(text.contains("p50"), "{text}");
        assert!(text.contains("p99"), "{text}");
        assert!(text.contains("queue-wait   (no samples)"), "{text}");
        assert!(text.contains("all 4 job(s) completed"), "{text}");
        assert!(report.p99_e2e_seconds().unwrap() > 0.0);
    }
}
