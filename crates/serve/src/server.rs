//! The benchmark service: routing, workers, and the telemetry surface.
//!
//! One accept loop (thread-per-connection), a small worker pool draining
//! the [`JobStore`] queue, and a preload thread that materializes the
//! configured graphs before flipping `/readyz`. Every endpoint's latency
//! and status land in the server's [`MetricsRegistry`], which `/metrics`
//! renders in the Prometheus text exposition format.
//!
//! Endpoints:
//!
//! | Route | Purpose |
//! |---|---|
//! | `GET /healthz` | liveness (always 200 while the process accepts) |
//! | `GET /readyz` | readiness (503 until the preload set is cached) |
//! | `GET /metrics` | Prometheus text exposition |
//! | `POST /jobs` | submit a job (202, or 400/429/503) |
//! | `GET /jobs` | list all jobs |
//! | `GET /jobs/{id}` | one job's status document |
//! | `GET /jobs/{id}/events[?since=N]` | lifecycle event stream, JSONL |
//! | `GET /jobs/{id}/artifacts/{name}` | flamegraph.svg, trace.json, results.jsonl |
//!
//! [`MetricsRegistry`]: graphalytics_core::MetricsRegistry

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use graphalytics_core::config::parse_algorithm;
use graphalytics_core::json::{parse as parse_json, Json};
use graphalytics_core::report::record_to_json;
use graphalytics_core::runner::RunStatus;
use graphalytics_core::validator::{OutputValidator, Validation};
use graphalytics_core::{BenchmarkConfig, BenchmarkSuite, Tracer};

use crate::http::{read_request, Request, Response};
use crate::jobs::{Artifacts, JobSpec, JobState, JobStore, SubmitError, RETAINED_JOBS};
use crate::registry::GraphRegistry;

/// Request-latency buckets — an HTTP API lives well below the runner's
/// seconds-oriented [`DEFAULT_BUCKETS`](graphalytics_core::trace::DEFAULT_BUCKETS).
const REQUEST_BUCKETS: &[f64] = &[0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0];

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port (tests).
    pub addr: String,
    /// Bounded queue capacity (admission control).
    pub queue_capacity: usize,
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Graphs to materialize before `/readyz` flips (configuration
    /// syntax, e.g. `graph500-14`).
    pub preload: Vec<String>,
    /// Default per-job timeout when a submission does not set one.
    pub default_timeout_secs: u64,
    /// Worker count for the platforms a job can size: reference threads
    /// and distributed worker processes (None = each platform's default).
    pub threads: Option<usize>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:8642".to_string(),
            queue_capacity: 32,
            workers: 1,
            preload: Vec::new(),
            default_timeout_secs: 300,
            threads: None,
        }
    }
}

/// Everything handlers and workers share.
struct ServerCtx {
    config: ServerConfig,
    tracer: Arc<Tracer>,
    registry: GraphRegistry,
    store: JobStore,
    /// Every job validates through this one oracle cache.
    validator: Arc<OutputValidator>,
    /// The validator's oracle runs already added to
    /// `graphalytics_serve_oracle_runs_total`.
    oracle_runs_counted: AtomicU64,
    shutdown: AtomicBool,
}

/// A running server; dropping it shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    ctx: Arc<ServerCtx>,
    accept_thread: Option<JoinHandle<()>>,
    worker_threads: Vec<JoinHandle<()>>,
    preload_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's tracer (metrics registry included).
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.ctx.tracer
    }

    /// Blocks until a shutdown is requested from another thread — the
    /// foreground CLI path.
    pub fn wait(mut self) {
        if let Some(t) = self.accept_thread.take() {
            // lint:allow(swallowed-result): a panicked acceptor already logged; wait() has no caller to report to
            let _ = t.join();
        }
    }

    /// Requests shutdown and joins every server thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.ctx.shutdown.store(true, Ordering::Release);
        self.ctx.store.notify_all();
        // The accept loop only observes the flag on its next connection;
        // poke it so the join below cannot hang.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            // lint:allow(swallowed-result): shutdown is best-effort teardown; a panicked thread must not abort the others' joins
            let _ = t.join();
        }
        for t in self.worker_threads.drain(..) {
            // lint:allow(swallowed-result): shutdown is best-effort teardown; a panicked thread must not abort the others' joins
            let _ = t.join();
        }
        if let Some(t) = self.preload_thread.take() {
            // lint:allow(swallowed-result): shutdown is best-effort teardown; a panicked thread must not abort the others' joins
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.stop();
        }
    }
}

/// Registers `# HELP` text for every server metric family.
fn describe_serve_metrics(tracer: &Tracer) {
    let m = tracer.metrics();
    m.describe(
        "graphalytics_serve_jobs_total",
        "Jobs reaching a terminal state, by state (done/failed/timeout).",
    );
    m.describe(
        "graphalytics_serve_job_seconds",
        "End-to-end job latency (submit to terminal) by platform and kernel.",
    );
    m.describe(
        "graphalytics_serve_queue_wait_seconds",
        "Time jobs spent queued before a worker picked them up.",
    );
    m.describe(
        "graphalytics_serve_queue_depth",
        "Jobs currently waiting in the bounded FIFO queue.",
    );
    m.describe(
        "graphalytics_serve_active_jobs",
        "Jobs currently loading or running on a worker.",
    );
    m.describe(
        "graphalytics_serve_ready",
        "1 once the preload set is materialized and /readyz returns 200.",
    );
    m.describe(
        "graphalytics_serve_graphs_loaded",
        "Graphs currently cached in the registry.",
    );
    m.describe(
        "graphalytics_serve_graph_cache_hits_total",
        "Jobs that found their graph already cached in the registry.",
    );
    m.describe(
        "graphalytics_serve_requests_total",
        "HTTP requests by normalized endpoint and status code.",
    );
    m.describe(
        "graphalytics_serve_request_seconds",
        "HTTP request handling latency by normalized endpoint.",
    );
    m.describe(
        "graphalytics_serve_oracle_runs_total",
        "Reference-output computations run by the server's validator (cache misses).",
    );
    m.describe(
        "graphalytics_serve_jobs_dropped_total",
        "Finished jobs dropped from the job history, which keeps the newest ones.",
    );
    for counter in [
        "graphalytics_serve_oracle_runs_total",
        "graphalytics_serve_jobs_dropped_total",
    ] {
        m.inc_counter(counter, &[], 0);
    }
}

/// Starts the server: binds, spawns the preload thread, the worker pool,
/// and the accept loop, and returns immediately.
pub fn start(config: ServerConfig) -> Result<ServerHandle, String> {
    let listener =
        TcpListener::bind(&config.addr).map_err(|e| format!("bind {}: {e}", config.addr))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    let tracer = Arc::new(Tracer::new());
    tracer.metrics().register_build_info();
    describe_serve_metrics(&tracer);
    let store = JobStore::new(Arc::clone(&tracer), config.queue_capacity);
    let ctx = Arc::new(ServerCtx {
        tracer,
        registry: GraphRegistry::new(),
        store,
        validator: Arc::new(OutputValidator::new()),
        oracle_runs_counted: AtomicU64::new(0),
        shutdown: AtomicBool::new(false),
        config,
    });
    refresh_gauges(&ctx);

    let preload_thread = {
        let ctx = Arc::clone(&ctx);
        std::thread::Builder::new()
            .name("gx-serve-preload".into())
            .spawn(move || {
                for spec in ctx.config.preload.clone() {
                    match ctx.registry.get_or_load(&spec) {
                        Ok((dataset, graph, _)) => eprintln!(
                            "preloaded {} ({} vertices, {} edges)",
                            dataset.name,
                            graph.num_vertices(),
                            graph.num_edges()
                        ),
                        Err(e) => eprintln!("preload {spec:?} failed: {e}"),
                    }
                }
                ctx.registry.mark_ready();
                refresh_gauges(&ctx);
            })
            .map_err(|e| format!("spawn preload thread: {e}"))?
    };

    let mut worker_threads = Vec::new();
    for w in 0..ctx.config.workers.max(1) {
        let ctx = Arc::clone(&ctx);
        let t = std::thread::Builder::new()
            .name(format!("gx-serve-worker-{w}"))
            .spawn(move || {
                while let Some(id) = ctx.store.next_job(&ctx.shutdown) {
                    run_job(&ctx, id);
                }
            })
            .map_err(|e| format!("spawn worker thread: {e}"))?;
        worker_threads.push(t);
    }

    let accept_thread = {
        let ctx = Arc::clone(&ctx);
        std::thread::Builder::new()
            .name("gx-serve-accept".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if ctx.shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let ctx = Arc::clone(&ctx);
                    // Connection threads are detached: `Connection: close`
                    // bounds each one to a single exchange.
                    let _ = std::thread::Builder::new()
                        .name("gx-serve-conn".into())
                        .spawn(move || handle_connection(&ctx, stream));
                }
            })
            .map_err(|e| format!("spawn accept thread: {e}"))?
    };

    Ok(ServerHandle {
        addr,
        ctx,
        accept_thread: Some(accept_thread),
        worker_threads,
        preload_thread: Some(preload_thread),
    })
}

/// Updates the point-in-time server gauges, and brings the oracle-run
/// counter up to the shared validator's count.
fn refresh_gauges(ctx: &ServerCtx) {
    let m = ctx.tracer.metrics();
    let runs = ctx.validator.oracle_runs();
    let counted = ctx.oracle_runs_counted.fetch_max(runs, Ordering::Relaxed);
    if runs > counted {
        m.inc_counter("graphalytics_serve_oracle_runs_total", &[], runs - counted);
    }
    m.set_gauge(
        "graphalytics_serve_queue_depth",
        &[],
        ctx.store.queue_depth() as f64,
    );
    m.set_gauge(
        "graphalytics_serve_active_jobs",
        &[],
        ctx.store.active_count() as f64,
    );
    m.set_gauge(
        "graphalytics_serve_graphs_loaded",
        &[],
        ctx.registry.len() as f64,
    );
    m.set_gauge(
        "graphalytics_serve_ready",
        &[],
        if ctx.registry.is_ready() { 1.0 } else { 0.0 },
    );
}

fn handle_connection(ctx: &Arc<ServerCtx>, stream: TcpStream) {
    let mut reader = BufReader::new(stream);
    let response = match read_request(&mut reader) {
        Ok(request) => {
            let started = ctx.tracer.now_seconds();
            let endpoint = normalize_endpoint(&request.method, &request.path);
            let response = route(ctx, &request);
            let m = ctx.tracer.metrics();
            m.observe_with_buckets(
                "graphalytics_serve_request_seconds",
                &[("endpoint", endpoint)],
                ctx.tracer.now_seconds() - started,
                REQUEST_BUCKETS,
            );
            m.inc_counter(
                "graphalytics_serve_requests_total",
                &[
                    ("endpoint", endpoint),
                    ("status", &response.status.to_string()),
                ],
                1,
            );
            response
        }
        Err(e) => Response::error(400, &e),
    };
    // lint:allow(swallowed-result): the peer hanging up mid-response is its prerogative; there is no one left to tell
    let _ = response.write_to(reader.get_mut());
}

/// Collapses job-specific paths so the per-endpoint metrics stay
/// low-cardinality.
fn normalize_endpoint(method: &str, path: &str) -> &'static str {
    let parts: Vec<&str> = path.trim_matches('/').split('/').collect();
    match (method, parts.as_slice()) {
        ("GET", [""]) => "/",
        ("GET", ["healthz"]) => "/healthz",
        ("GET", ["readyz"]) => "/readyz",
        ("GET", ["metrics"]) => "/metrics",
        ("POST", ["jobs"]) => "POST /jobs",
        ("GET", ["jobs"]) => "/jobs",
        ("GET", ["jobs", _]) => "/jobs/{id}",
        ("GET", ["jobs", _, "events"]) => "/jobs/{id}/events",
        ("GET", ["jobs", _, "artifacts", _]) => "/jobs/{id}/artifacts/{name}",
        _ => "other",
    }
}

/// Parses `j-12` or `12`.
fn parse_job_id(raw: &str) -> Option<u64> {
    raw.strip_prefix("j-").unwrap_or(raw).parse().ok()
}

fn route(ctx: &Arc<ServerCtx>, request: &Request) -> Response {
    let parts: Vec<&str> = request.path.trim_matches('/').split('/').collect();
    match (request.method.as_str(), parts.as_slice()) {
        ("GET", [""]) => index(ctx),
        ("GET", ["healthz"]) => Response::text(200, "ok\n".into()),
        ("GET", ["readyz"]) => {
            if ctx.registry.is_ready() {
                Response::text(200, "ready\n".into())
            } else {
                Response::text(503, "initializing graph registry\n".into())
            }
        }
        ("GET", ["metrics"]) => {
            refresh_gauges(ctx);
            Response::with_type(
                200,
                "text/plain; version=0.0.4",
                ctx.tracer.metrics().render_prometheus(),
            )
        }
        ("POST", ["jobs"]) => submit_job(ctx, request),
        ("GET", ["jobs"]) => Response::json(200, ctx.store.list_json().to_string_compact()),
        ("GET", ["jobs", id]) => {
            let doc = parse_job_id(id).and_then(|id| {
                ctx.store
                    .with_job(id, |job| job.to_json().to_string_compact())
            });
            match doc {
                Some(doc) => Response::json(200, doc),
                None => job_not_found(ctx, id, &format!("no such job {id:?}")),
            }
        }
        ("GET", ["jobs", id, "events"]) => {
            let since = request
                .query_param("since")
                .and_then(|s| s.parse::<u64>().ok());
            match parse_job_id(id).and_then(|id| ctx.store.events_jsonl(id, since)) {
                Some((body, _terminal)) => Response::with_type(200, "application/jsonl", body),
                None => job_not_found(ctx, id, &format!("no such job {id:?}")),
            }
        }
        ("GET", ["jobs", id, "artifacts", name]) => {
            match parse_job_id(id).and_then(|id| ctx.store.artifact(id, name)) {
                Some((content_type, body)) => Response::with_type(200, content_type, body),
                None => job_not_found(
                    ctx,
                    id,
                    "no such artifact (job unknown, still running, or artifact name not one of \
                     flamegraph.svg, trace.json, results.jsonl)",
                ),
            }
        }
        ("GET" | "POST", _) => Response::error(404, &format!("no route for {:?}", request.path)),
        _ => Response::error(405, &format!("method {} not allowed", request.method)),
    }
}

/// The 404 for job `raw`: `why`, unless the job finished before the
/// newest [`RETAINED_JOBS`] and was dropped, which the body then says.
fn job_not_found(ctx: &ServerCtx, raw: &str, why: &str) -> Response {
    if parse_job_id(raw).is_some_and(|id| ctx.store.was_dropped(id)) {
        return Response::error(
            404,
            &format!(
                "job {raw:?} is no longer kept: the server keeps only the last {RETAINED_JOBS} \
                 finished jobs"
            ),
        );
    }
    Response::error(404, why)
}

/// `GET /` — a small machine-readable index.
fn index(ctx: &Arc<ServerCtx>) -> Response {
    let doc = Json::obj([
        ("service", Json::from("graphalytics-serve")),
        ("ready", Json::Bool(ctx.registry.is_ready())),
        (
            "graphs_loaded",
            Json::Arr(
                ctx.registry
                    .loaded_names()
                    .into_iter()
                    .map(Json::from)
                    .collect(),
            ),
        ),
        ("queue_depth", Json::from(ctx.store.queue_depth())),
        (
            "endpoints",
            Json::Arr(
                [
                    "GET /healthz",
                    "GET /readyz",
                    "GET /metrics",
                    "POST /jobs",
                    "GET /jobs",
                    "GET /jobs/{id}",
                    "GET /jobs/{id}/events",
                    "GET /jobs/{id}/artifacts/{name}",
                ]
                .iter()
                .map(|e| Json::from(*e))
                .collect(),
            ),
        ),
    ]);
    Response::json(200, doc.to_string_compact())
}

fn submit_job(ctx: &Arc<ServerCtx>, request: &Request) -> Response {
    if !ctx.registry.is_ready() {
        return Response::error(
            503,
            "graph registry still initializing; retry after /readyz",
        );
    }
    let body = match request.body_utf8() {
        Ok(b) => b,
        Err(e) => return Response::error(400, &e),
    };
    let Some(doc) = parse_json(body) else {
        return Response::error(400, "body is not valid JSON");
    };
    let spec = match JobSpec::from_json(&doc, ctx.config.default_timeout_secs) {
        Ok(s) => s,
        Err(e) => return Response::error(400, &e),
    };
    match ctx.store.submit(spec) {
        Ok(id) => {
            refresh_gauges(ctx);
            let doc = Json::obj([
                ("id", Json::from(format!("j-{id}"))),
                ("state", Json::from("queued")),
                ("queue_depth", Json::from(ctx.store.queue_depth())),
            ]);
            Response::json(202, doc.to_string_compact())
        }
        Err(SubmitError::QueueFull { capacity }) => Response::error(
            429,
            &format!("queue full (capacity {capacity}); retry after a job drains"),
        ),
    }
}

/// Executes one job on a worker thread: graph via the registry, platform
/// via the factory, the cell through the traced runner, artifacts from
/// the job's own tracer, and every outcome into the store and
/// the server metrics.
fn run_job(ctx: &Arc<ServerCtx>, id: u64) {
    let Some(spec) = ctx.store.with_job(id, |job| job.spec.clone()) else {
        return;
    };
    ctx.store.set_state(id, JobState::Loading);
    refresh_gauges(ctx);

    let load_started = ctx.tracer.now_seconds();
    let (dataset, graph, cached) = match ctx.registry.get_or_load(&spec.graph) {
        Ok(v) => v,
        Err(e) => {
            finish_job(ctx, id, JobState::Failed, None, None, Some(e), None);
            return;
        }
    };
    if cached {
        ctx.tracer
            .metrics()
            .inc_counter("graphalytics_serve_graph_cache_hits_total", &[], 1);
    }
    ctx.store.push_event(
        id,
        "graph_ready",
        vec![
            ("cached".to_string(), Json::Bool(cached)),
            ("vertices".to_string(), Json::from(graph.num_vertices())),
            ("edges".to_string(), Json::from(graph.num_edges())),
            (
                "load_seconds".to_string(),
                Json::Num(ctx.tracer.now_seconds() - load_started),
            ),
        ],
    );
    refresh_gauges(ctx);

    let algorithm = match parse_algorithm(&spec.algorithm) {
        Ok(a) => a,
        Err(e) => {
            finish_job(ctx, id, JobState::Failed, None, None, Some(e), None);
            return;
        }
    };
    // `--threads` sizes what a job can size: reference threads and the
    // distributed fleet.
    let properties = (ctx.config.threads.iter())
        .flat_map(|t| ["reference.threads", "distrib.workers"].map(|k| (k.into(), t.to_string())))
        .collect();
    let mut platforms = match graphalytics_platforms::build(&spec.platform, &properties) {
        Ok(p) => vec![p],
        Err(e) => {
            finish_job(ctx, id, JobState::Failed, None, None, Some(e), None);
            return;
        }
    };

    // The job gets its own tracer (span ids and timestamps relative to
    // this job) bridged into the store's event log; its spans become the
    // job's trace and flamegraph artifacts.
    let job_tracer = Arc::new(Tracer::new());
    {
        let ctx2 = Arc::clone(ctx);
        job_tracer.subscribe(move |span| {
            if span.name == "run" || span.name.starts_with("run.") || span.name == "suite.etl" {
                ctx2.store.push_event(
                    id,
                    "phase",
                    vec![
                        ("span".to_string(), Json::from(span.name.clone())),
                        (
                            "duration_seconds".to_string(),
                            Json::Num(span.duration_seconds()),
                        ),
                    ],
                );
            }
        });
    }
    ctx.store.set_state(id, JobState::Running);
    refresh_gauges(ctx);

    let suite = BenchmarkSuite::new(
        vec![dataset.clone()],
        vec![algorithm],
        BenchmarkConfig {
            timeout: Some(core::time::Duration::from_secs(spec.timeout_secs)),
            repetitions: 1,
            validate: true,
            ..Default::default()
        },
    )
    .with_validator(Arc::clone(&ctx.validator));
    let result = suite.run_traced_on_graph(&mut platforms, &dataset, &graph, &job_tracer);

    let spans = job_tracer.finished_spans();
    // Fold the job's per-worker fleet metrics (distributed runs only) into
    // the server registry so /metrics exposes the `graphalytics_worker_*`
    // series, and surface the merged telemetry on the job's event stream.
    ctx.tracer
        .metrics()
        .merge_prefixed(job_tracer.metrics(), "graphalytics_worker_");
    let worker_spans = spans
        .iter()
        .filter(|s| s.name.starts_with("distrib.worker."))
        .count();
    if worker_spans > 0 {
        let lanes: std::collections::BTreeSet<&str> = spans
            .iter()
            .filter_map(|s| {
                s.fields
                    .iter()
                    .find(|(k, _)| k == "proc")
                    .and_then(|(_, v)| v.as_str())
            })
            .collect();
        ctx.store.push_event(
            id,
            "fleet_telemetry",
            vec![
                ("worker_spans".to_string(), Json::from(worker_spans)),
                ("lanes".to_string(), Json::from(lanes.len())),
            ],
        );
    }
    let mut results_jsonl = String::new();
    for record in &result.runs {
        results_jsonl.push_str(&record_to_json(record).to_string_compact());
        results_jsonl.push('\n');
    }
    let artifacts = Artifacts {
        spans,
        title: format!(
            "j-{id}: {}/{}/{}",
            spec.platform, spec.algorithm, spec.graph
        ),
        results_jsonl,
    };

    let Some(record) = result.runs.first() else {
        finish_job(
            ctx,
            id,
            JobState::Failed,
            None,
            None,
            Some("runner produced no record".to_string()),
            Some(artifacts),
        );
        return;
    };
    let validation = Some(validation_label(&record.validation).to_string());
    let (state, error) = match &record.status {
        RunStatus::Success => match &record.validation {
            Validation::Invalid(diag) => (
                JobState::Failed,
                Some(format!("output validation failed: {diag}")),
            ),
            _ => (JobState::Done, None),
        },
        RunStatus::Timeout => (
            JobState::TimedOut,
            Some(format!("deadline of {}s expired", spec.timeout_secs)),
        ),
        RunStatus::Failed(e) => (JobState::Failed, Some(e.clone())),
    };
    finish_job(
        ctx,
        id,
        state,
        record.runtime_seconds,
        validation,
        error,
        Some(artifacts),
    );
}

fn validation_label(v: &Validation) -> &'static str {
    match v {
        Validation::Valid => "valid",
        Validation::Invalid(_) => "invalid",
        Validation::Skipped => "skipped",
    }
}

/// Terminal bookkeeping shared by every job outcome.
fn finish_job(
    ctx: &Arc<ServerCtx>,
    id: u64,
    state: JobState,
    runtime_seconds: Option<f64>,
    validation: Option<String>,
    error: Option<String>,
    artifacts: Option<Artifacts>,
) {
    let dropped = ctx
        .store
        .finish(id, state, runtime_seconds, validation, error, artifacts);
    let m = ctx.tracer.metrics();
    m.inc_counter(
        "graphalytics_serve_jobs_total",
        &[("state", state.as_str())],
        1,
    );
    m.inc_counter("graphalytics_serve_jobs_dropped_total", &[], dropped as u64);
    // Labelled by kernel, not by the submitted string, so that a distinct
    // `bfs:<source>` per job adds no series.
    let timings = ctx.store.with_job(id, |job| {
        let kernel = parse_algorithm(&job.spec.algorithm).map_or("unknown", |a| a.name());
        let labels = (job.spec.platform.clone(), kernel);
        (labels, job.e2e_seconds(), job.queue_wait_seconds())
    });
    if let Some(((platform, kernel), e2e, wait)) = timings {
        if let Some(e2e) = e2e {
            m.observe(
                "graphalytics_serve_job_seconds",
                &[("platform", &platform), ("algorithm", kernel)],
                e2e,
            );
        }
        if let Some(wait) = wait {
            m.observe("graphalytics_serve_queue_wait_seconds", &[], wait);
        }
    }
    refresh_gauges(ctx);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints_normalize_to_fixed_cardinality() {
        assert_eq!(normalize_endpoint("GET", "/jobs/j-12"), "/jobs/{id}");
        assert_eq!(
            normalize_endpoint("GET", "/jobs/7/events"),
            "/jobs/{id}/events"
        );
        assert_eq!(
            normalize_endpoint("GET", "/jobs/7/artifacts/flamegraph.svg"),
            "/jobs/{id}/artifacts/{name}"
        );
        assert_eq!(normalize_endpoint("POST", "/jobs"), "POST /jobs");
        assert_eq!(normalize_endpoint("GET", "/nope/nope"), "other");
    }

    #[test]
    fn a_dropped_job_is_a_404_that_names_the_bound() {
        let tracer = Arc::new(Tracer::disabled());
        let ctx = Arc::new(ServerCtx {
            config: ServerConfig::default(),
            store: JobStore::new(Arc::clone(&tracer), RETAINED_JOBS + 1),
            tracer,
            registry: GraphRegistry::new(),
            validator: Arc::new(OutputValidator::new()),
            oracle_runs_counted: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        });
        let spec = JobSpec {
            platform: "reference".into(),
            algorithm: "conn".into(),
            graph: "graph500-8".into(),
            timeout_secs: 60,
        };
        for _ in 0..=RETAINED_JOBS {
            let id = ctx.store.submit(spec.clone()).unwrap();
            ctx.store.finish(id, JobState::Done, None, None, None, None);
        }
        let get = |path: &str| {
            let response = route(
                &ctx,
                &Request {
                    method: "GET".into(),
                    path: path.into(),
                    query: String::new(),
                    body: Vec::new(),
                },
            );
            (response.status, String::from_utf8(response.body).unwrap())
        };
        let bound = format!("keeps only the last {RETAINED_JOBS} finished jobs");
        for path in [
            "/jobs/j-1",
            "/jobs/j-1/events",
            "/jobs/1/artifacts/trace.json",
        ] {
            let (status, body) = get(path);
            assert_eq!(status, 404, "{path}");
            assert!(body.contains(&bound), "{path}: {body}");
        }
        assert_eq!(get("/jobs/j-2").0, 200);
        let (status, body) = get("/jobs/j-999");
        assert_eq!(status, 404);
        assert!(
            body.contains("no such job") && !body.contains(&bound),
            "{body}"
        );
    }

    #[test]
    fn job_ids_parse_both_spellings() {
        assert_eq!(parse_job_id("j-12"), Some(12));
        assert_eq!(parse_job_id("12"), Some(12));
        assert_eq!(parse_job_id("j-"), None);
        assert_eq!(parse_job_id("nope"), None);
    }
}
