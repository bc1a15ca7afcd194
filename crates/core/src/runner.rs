//! Benchmark Core: orchestrates runs across all combinations of platforms,
//! datasets, and algorithms (paper §2.3).
//!
//! "By default, Graphalytics runs all the algorithms implemented on all
//! configured graphs" — [`BenchmarkSuite::run`] is that cross product, with
//! per-run timeouts, repetitions, output validation, and resource
//! monitoring. "The runtime measures the complete execution of an
//! algorithm, from job submission to result availability, but does not
//! include ETL" (§3.3): `load_graph` time is recorded separately from
//! per-algorithm runtimes.

use std::sync::Arc;
use std::time::{Duration, Instant};

use graphalytics_algos::Algorithm;
use graphalytics_faults::{FaultInjector, RecoveryAction, RetryPolicy};
use graphalytics_graph::CsrGraph;

use crate::datasets::Dataset;
use crate::metrics;
use crate::monitor::SystemMonitor;
use crate::platform::{Platform, PlatformError, RunContext};
use crate::trace::{self, FieldValue, RunTimeline, Tracer};
use crate::validator::{OutputValidator, Validation};

/// Suite-level configuration.
#[derive(Debug, Clone)]
pub struct BenchmarkConfig {
    /// Cooperative per-run timeout (None = unbounded).
    pub timeout: Option<Duration>,
    /// Timed repetitions per (platform, dataset, algorithm); the reported
    /// runtime is the median.
    pub repetitions: usize,
    /// Whether to validate outputs against the reference implementation.
    pub validate: bool,
    /// Resource-monitor sampling interval.
    pub monitor_interval: Duration,
    /// Retry policy for *transient* platform failures (see
    /// [`PlatformError::is_transient`]): the whole run is re-attempted with
    /// exponential, seed-jittered backoff charged to a virtual clock.
    /// Fatal errors never retry. Default: no retries.
    pub retry: RetryPolicy,
    /// Fault injector armed into every [`RunContext`] the suite builds;
    /// `None` (the default) leaves all injection points as no-ops.
    pub faults: Option<Arc<FaultInjector>>,
}

impl Default for BenchmarkConfig {
    fn default() -> Self {
        Self {
            timeout: None,
            repetitions: 1,
            validate: true,
            monitor_interval: Duration::from_millis(50),
            retry: RetryPolicy::none(),
            faults: None,
        }
    }
}

/// Outcome status of one run.
#[derive(Debug, Clone, PartialEq)]
pub enum RunStatus {
    /// Completed and produced output.
    Success,
    /// The platform failed (the "missing values" of Figure 4).
    Failed(String),
    /// The cooperative deadline expired.
    Timeout,
}

impl RunStatus {
    /// True for [`RunStatus::Success`].
    pub fn is_success(&self) -> bool {
        matches!(self, RunStatus::Success)
    }
}

/// The record of one (platform, dataset, algorithm) cell.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Platform name.
    pub platform: String,
    /// Dataset name.
    pub dataset: String,
    /// Algorithm acronym.
    pub algorithm: String,
    /// Outcome.
    pub status: RunStatus,
    /// Median runtime over repetitions (seconds); None on failure.
    pub runtime_seconds: Option<f64>,
    /// All repetition runtimes.
    pub repetition_seconds: Vec<f64>,
    /// Traversed-edges-per-second metric, when the run succeeded.
    pub teps: Option<f64>,
    /// Output validation verdict.
    pub validation: Validation,
    /// Short description of the produced output.
    pub output_summary: String,
    /// Peak resident set during the run (bytes; 0 when unavailable).
    pub peak_rss_bytes: u64,
    /// Mean CPU utilization during the run (cores).
    pub avg_cpu_utilization: f64,
    /// Wall-clock seconds for the whole cell (all repetitions plus
    /// validation) — the envelope the [`RunRecord::timeline`] phases
    /// decompose.
    pub wall_seconds: f64,
    /// Phase decomposition of the run (execute per repetition, validate).
    pub timeline: RunTimeline,
    /// Whole-run retries the harness performed after transient failures
    /// (platform-internal recoveries are not counted here).
    pub retries: usize,
}

/// ETL record per (platform, dataset).
#[derive(Debug, Clone)]
pub struct LoadRecord {
    /// Platform name.
    pub platform: String,
    /// Dataset name.
    pub dataset: String,
    /// Load (ETL) time in seconds, when successful.
    pub load_seconds: Option<f64>,
    /// Load failure, if any.
    pub error: Option<String>,
}

/// Everything a suite run produced.
#[derive(Debug, Clone, Default)]
pub struct SuiteResult {
    /// One record per (platform, dataset, algorithm).
    pub runs: Vec<RunRecord>,
    /// One record per (platform, dataset).
    pub loads: Vec<LoadRecord>,
}

impl SuiteResult {
    /// Looks up a run record.
    pub fn find(&self, platform: &str, dataset: &str, algorithm: &str) -> Option<&RunRecord> {
        self.runs
            .iter()
            .find(|r| r.platform == platform && r.dataset == dataset && r.algorithm == algorithm)
    }

    /// All distinct platform names, in first-seen order.
    pub fn platforms(&self) -> Vec<String> {
        let mut seen = Vec::new();
        for r in &self.runs {
            if !seen.contains(&r.platform) {
                seen.push(r.platform.clone());
            }
        }
        seen
    }

    /// All distinct dataset names, in first-seen order.
    pub fn datasets(&self) -> Vec<String> {
        let mut seen = Vec::new();
        for r in &self.runs {
            if !seen.contains(&r.dataset) {
                seen.push(r.dataset.clone());
            }
        }
        seen
    }

    /// All distinct algorithm names, in first-seen order.
    pub fn algorithms(&self) -> Vec<String> {
        let mut seen = Vec::new();
        for r in &self.runs {
            if !seen.contains(&r.algorithm) {
                seen.push(r.algorithm.clone());
            }
        }
        seen
    }
}

/// The benchmark suite: datasets × algorithms × platforms.
pub struct BenchmarkSuite {
    datasets: Vec<Dataset>,
    algorithms: Vec<Algorithm>,
    config: BenchmarkConfig,
    validator: Arc<OutputValidator>,
}

impl BenchmarkSuite {
    /// Creates a suite over the given workload.
    pub fn new(
        datasets: Vec<Dataset>,
        algorithms: Vec<Algorithm>,
        config: BenchmarkConfig,
    ) -> Self {
        Self {
            datasets,
            algorithms,
            config,
            validator: Arc::new(OutputValidator::new()),
        }
    }

    /// Validates through `validator` instead of the suite's own, so that
    /// suites sharing it run the oracle once per (graph, algorithm)
    /// between them.
    pub fn with_validator(mut self, validator: Arc<OutputValidator>) -> Self {
        self.validator = validator;
        self
    }

    /// Runs every algorithm on every dataset for every platform.
    ///
    /// A platform that fails to *load* a dataset gets a failure record for
    /// every algorithm on that dataset (that is how Neo4j/GraphX's
    /// too-large-graph failures appear in Figure 4).
    pub fn run(&self, platforms: &mut [Box<dyn Platform>]) -> SuiteResult {
        self.run_traced(platforms, &Arc::new(Tracer::disabled()))
    }

    /// Like [`BenchmarkSuite::run`], but with observability: every phase
    /// (etl, load, execute, validate) emits a span into `tracer`, platform
    /// internals (supersteps, jobs, operators) nest under them via the
    /// [`RunContext`], resource samples attach to the enclosing run span,
    /// and suite-level counters/histograms land in the tracer's metrics
    /// registry.
    pub fn run_traced(
        &self,
        platforms: &mut [Box<dyn Platform>],
        tracer: &Arc<Tracer>,
    ) -> SuiteResult {
        let mut result = SuiteResult::default();
        for dataset in &self.datasets {
            let graph = {
                let mut etl_span = tracer.span("suite.etl");
                etl_span.field("dataset", dataset.name.clone());
                match dataset.load() {
                    Ok(g) => {
                        etl_span
                            .field("vertices", g.num_vertices())
                            .field("edges", g.num_edges());
                        g
                    }
                    Err(e) => {
                        etl_span.field("error", e.to_string());
                        for platform in platforms.iter() {
                            result.loads.push(LoadRecord {
                                platform: platform.name().to_string(),
                                dataset: dataset.name.clone(),
                                load_seconds: None,
                                error: Some(format!("dataset generation failed: {e}")),
                            });
                        }
                        continue;
                    }
                }
            };
            for platform in platforms.iter_mut() {
                self.run_platform_on_dataset(
                    platform.as_mut(),
                    dataset,
                    &graph,
                    &mut result,
                    tracer,
                );
            }
        }
        result
    }

    /// Like [`BenchmarkSuite::run_traced`], but against an
    /// already-materialized graph instead of re-running ETL per dataset —
    /// the serving path, where a graph registry caches canonical graphs
    /// across jobs. Only `dataset` (the graph's dataset descriptor) is
    /// exercised; the suite's own dataset list is ignored.
    pub fn run_traced_on_graph(
        &self,
        platforms: &mut [Box<dyn Platform>],
        dataset: &Dataset,
        graph: &Arc<CsrGraph>,
        tracer: &Arc<Tracer>,
    ) -> SuiteResult {
        let mut result = SuiteResult::default();
        for platform in platforms.iter_mut() {
            self.run_platform_on_dataset(platform.as_mut(), dataset, graph, &mut result, tracer);
        }
        result
    }

    fn run_platform_on_dataset(
        &self,
        platform: &mut dyn Platform,
        dataset: &Dataset,
        graph: &Arc<CsrGraph>,
        result: &mut SuiteResult,
        tracer: &Arc<Tracer>,
    ) {
        let load_started = Instant::now();
        let mut load_span = tracer.span("run.load");
        load_span
            .field("platform", platform.name())
            .field("dataset", dataset.name.clone())
            .field("graph_bytes", graph.memory_footprint());
        let handle = match platform.load_graph(graph) {
            Ok(h) => {
                let load_seconds = load_started.elapsed().as_secs_f64();
                load_span.field("load_seconds", load_seconds);
                drop(load_span);
                tracer.metrics().set_gauge(
                    "graphalytics_graph_bytes",
                    &[("dataset", &dataset.name)],
                    graph.memory_footprint() as f64,
                );
                tracer.metrics().observe(
                    "graphalytics_load_seconds",
                    &[("platform", platform.name())],
                    load_seconds,
                );
                result.loads.push(LoadRecord {
                    platform: platform.name().to_string(),
                    dataset: dataset.name.clone(),
                    load_seconds: Some(load_seconds),
                    error: None,
                });
                h
            }
            Err(e) => {
                load_span.field("error", e.to_string());
                drop(load_span);
                result.loads.push(LoadRecord {
                    platform: platform.name().to_string(),
                    dataset: dataset.name.clone(),
                    load_seconds: None,
                    error: Some(e.to_string()),
                });
                // Every algorithm becomes a failure cell.
                for alg in &self.algorithms {
                    result.runs.push(RunRecord {
                        platform: platform.name().to_string(),
                        dataset: dataset.name.clone(),
                        algorithm: alg.name().to_string(),
                        status: RunStatus::Failed(format!("load failed: {e}")),
                        runtime_seconds: None,
                        repetition_seconds: Vec::new(),
                        teps: None,
                        validation: Validation::Skipped,
                        output_summary: String::new(),
                        peak_rss_bytes: 0,
                        avg_cpu_utilization: 0.0,
                        wall_seconds: 0.0,
                        timeline: RunTimeline::default(),
                        retries: 0,
                    });
                }
                return;
            }
        };
        for alg in &self.algorithms {
            result
                .runs
                .push(self.run_one(platform, handle, dataset, graph, alg, tracer));
        }
        platform.unload(handle);
    }

    fn run_one(
        &self,
        platform: &mut dyn Platform,
        handle: crate::platform::GraphHandle,
        dataset: &Dataset,
        graph: &Arc<CsrGraph>,
        alg: &Algorithm,
        tracer: &Arc<Tracer>,
    ) -> RunRecord {
        let mut record = RunRecord {
            platform: platform.name().to_string(),
            dataset: dataset.name.clone(),
            algorithm: alg.name().to_string(),
            status: RunStatus::Success,
            runtime_seconds: None,
            repetition_seconds: Vec::new(),
            teps: None,
            validation: Validation::Skipped,
            output_summary: String::new(),
            peak_rss_bytes: 0,
            avg_cpu_utilization: 0.0,
            wall_seconds: 0.0,
            timeline: RunTimeline::default(),
            retries: 0,
        };
        let reps = self.config.repetitions.max(1);
        let mut run_span = tracer.span("run");
        run_span
            .field("platform", record.platform.clone())
            .field("dataset", record.dataset.clone())
            .field("algorithm", record.algorithm.clone());
        let run_started = Instant::now();
        let monitor = SystemMonitor::start(self.config.monitor_interval);
        let mut last_output = None;
        for rep in 0..reps {
            let phase_start = run_started.elapsed().as_secs_f64();
            let started = Instant::now();
            // The attempt loop: transient failures (lost workers, lost
            // partitions, flaky I/O) re-run the whole repetition under the
            // retry policy. The backoff is recorded, never slept, so the
            // schedule is deterministic and costs no wall time.
            let mut attempt: u32 = 0;
            let outcome = loop {
                let mut ctx = match self.config.timeout {
                    Some(t) => RunContext::with_timeout(t),
                    None => RunContext::unbounded(),
                }
                .with_tracer(Arc::clone(tracer));
                if let Some(faults) = &self.config.faults {
                    ctx = ctx.with_faults(Arc::clone(faults));
                }
                let res = {
                    let mut exec_span = tracer.span("run.execute");
                    exec_span.field("repetition", rep);
                    if attempt > 0 {
                        exec_span.field("attempt", attempt);
                    }
                    platform.run(handle, alg, &ctx)
                };
                match res {
                    Err(e) if e.is_transient() && self.config.retry.allows(attempt + 1) => {
                        let backoff_ms = self.config.retry.backoff_ms(attempt);
                        ctx.note_recovery(RecoveryAction::RunRetry, None, backoff_ms);
                        record.retries += 1;
                        attempt += 1;
                    }
                    other => break other,
                }
            };
            match outcome {
                Ok(output) => {
                    let seconds = started.elapsed().as_secs_f64();
                    record.repetition_seconds.push(seconds);
                    record
                        .timeline
                        .push(trace::phase::EXECUTE, phase_start, seconds);
                    tracer.metrics().observe(
                        "graphalytics_run_seconds",
                        &[
                            ("platform", &record.platform),
                            ("algorithm", &record.algorithm),
                        ],
                        seconds,
                    );
                    last_output = Some(output);
                }
                Err(PlatformError::Timeout) => {
                    record.status = RunStatus::Timeout;
                    break;
                }
                Err(e) => {
                    record.status = RunStatus::Failed(e.to_string());
                    break;
                }
            }
        }
        // Validation runs inside the monitored window, so the timeline's
        // phases and the monitor's wall clock cover the same interval.
        if let (RunStatus::Success, Some(output)) = (&record.status, &last_output) {
            record.runtime_seconds = Some(median(&record.repetition_seconds));
            record.output_summary = output.summary();
            let traversed = metrics::edges_traversed(graph, output);
            record.teps = record.runtime_seconds.map(|t| metrics::teps(traversed, t));
            if self.config.validate {
                let phase_start = run_started.elapsed().as_secs_f64();
                let started = Instant::now();
                record.validation = {
                    let _validate_span = tracer.span("run.validate");
                    self.validator.validate(graph, alg, output)
                };
                record.timeline.push(
                    trace::phase::VALIDATE,
                    phase_start,
                    started.elapsed().as_secs_f64(),
                );
            }
        }
        let mon = monitor.stop();
        record.peak_rss_bytes = mon.peak_rss_bytes;
        record.avg_cpu_utilization = mon.avg_cpu_utilization;
        record.wall_seconds = mon.wall_seconds;
        // Attach the resource samples to the enclosing run span; the
        // sample's own clock (seconds from run start) rides as a field.
        if let Some(run_id) = run_span.id() {
            for s in &mon.samples {
                tracer.event(
                    "monitor.sample",
                    Some(run_id),
                    vec![
                        ("at_seconds".to_string(), FieldValue::F64(s.at_seconds)),
                        ("rss_bytes".to_string(), FieldValue::I64(s.rss_bytes as i64)),
                        ("cpu_seconds".to_string(), FieldValue::F64(s.cpu_seconds)),
                    ],
                );
            }
        }
        let status_label = match &record.status {
            RunStatus::Success => "success",
            RunStatus::Timeout => "timeout",
            RunStatus::Failed(_) => "failed",
        };
        if record.retries > 0 {
            run_span.field("retries", record.retries);
        }
        run_span
            .field("status", status_label)
            .field("peak_rss_bytes", record.peak_rss_bytes)
            .field("avg_cpu_utilization", record.avg_cpu_utilization)
            .field("wall_seconds", record.wall_seconds);
        tracer.metrics().inc_counter(
            "graphalytics_runs_total",
            &[
                ("platform", &record.platform),
                ("algorithm", &record.algorithm),
                ("status", status_label),
            ],
            1,
        );
        tracer.metrics().max_gauge(
            "graphalytics_peak_rss_bytes",
            &[("platform", &record.platform)],
            record.peak_rss_bytes as f64,
        );
        record
    }
}

/// Median of a non-empty slice (mean of the middle pair for even lengths).
fn median(xs: &[f64]) -> f64 {
    debug_assert!(!xs.is_empty());
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::GraphHandle;
    use graphalytics_algos::{reference, Output};

    /// A correct platform that just runs the reference implementation.
    struct RefPlatform {
        graphs: Vec<Arc<CsrGraph>>,
    }

    impl Platform for RefPlatform {
        fn name(&self) -> &'static str {
            "Reference"
        }
        fn load_graph(&mut self, graph: &CsrGraph) -> Result<GraphHandle, PlatformError> {
            self.graphs.push(Arc::new(graph.clone()));
            Ok(GraphHandle(self.graphs.len() as u64 - 1))
        }
        fn run(
            &mut self,
            handle: GraphHandle,
            algorithm: &Algorithm,
            _ctx: &RunContext,
        ) -> Result<Output, PlatformError> {
            let g = self
                .graphs
                .get(handle.0 as usize)
                .ok_or(PlatformError::InvalidHandle)?;
            Ok(reference(g, algorithm))
        }
        fn unload(&mut self, _handle: GraphHandle) {}
    }

    /// A platform that always fails to load.
    struct BrokenPlatform;

    impl Platform for BrokenPlatform {
        fn name(&self) -> &'static str {
            "Broken"
        }
        fn load_graph(&mut self, graph: &CsrGraph) -> Result<GraphHandle, PlatformError> {
            Err(PlatformError::OutOfMemory {
                required: graph.memory_footprint(),
                budget: 1,
            })
        }
        fn run(
            &mut self,
            _handle: GraphHandle,
            _algorithm: &Algorithm,
            _ctx: &RunContext,
        ) -> Result<Output, PlatformError> {
            Err(PlatformError::InvalidHandle)
        }
        fn unload(&mut self, _handle: GraphHandle) {}
    }

    /// A platform that respects the cooperative deadline by sleeping.
    struct SlowPlatform;

    impl Platform for SlowPlatform {
        fn name(&self) -> &'static str {
            "Slow"
        }
        fn load_graph(&mut self, _graph: &CsrGraph) -> Result<GraphHandle, PlatformError> {
            Ok(GraphHandle(0))
        }
        fn run(
            &mut self,
            _handle: GraphHandle,
            _algorithm: &Algorithm,
            ctx: &RunContext,
        ) -> Result<Output, PlatformError> {
            for _ in 0..50 {
                std::thread::sleep(Duration::from_millis(2));
                ctx.check_deadline()?;
            }
            Ok(Output::Components(vec![]))
        }
        fn unload(&mut self, _handle: GraphHandle) {}
    }

    /// The reference platform, except that vertex 0 of every BFS answer
    /// is one level off.
    struct WrongBfs(RefPlatform);

    impl Platform for WrongBfs {
        fn name(&self) -> &'static str {
            "WrongBfs"
        }
        fn load_graph(&mut self, graph: &CsrGraph) -> Result<GraphHandle, PlatformError> {
            self.0.load_graph(graph)
        }
        fn run(
            &mut self,
            handle: GraphHandle,
            algorithm: &Algorithm,
            ctx: &RunContext,
        ) -> Result<Output, PlatformError> {
            let mut output = self.0.run(handle, algorithm, ctx)?;
            if let Output::Depths(depths) = &mut output {
                depths[0] += 1;
            }
            Ok(output)
        }
        fn unload(&mut self, handle: GraphHandle) {
            self.0.unload(handle)
        }
    }

    fn suite(algorithms: Vec<Algorithm>, config: BenchmarkConfig) -> BenchmarkSuite {
        BenchmarkSuite::new(vec![Dataset::graph500(6)], algorithms, config)
    }

    #[test]
    fn suites_sharing_a_validator_run_the_oracle_once_and_still_compare() {
        let dataset = Dataset::graph500(6);
        let graph = dataset.load().unwrap();
        let validator = Arc::new(OutputValidator::new());
        let tracer = Arc::new(Tracer::disabled());
        let run = |platform: Box<dyn Platform>| {
            let s = suite(vec![Algorithm::default_bfs()], BenchmarkConfig::default())
                .with_validator(Arc::clone(&validator));
            let result = s.run_traced_on_graph(&mut [platform], &dataset, &graph, &tracer);
            result.runs[0].validation.clone()
        };
        let right = || Box::new(RefPlatform { graphs: vec![] });
        assert_eq!(run(right()), Validation::Valid);
        assert_eq!(run(right()), Validation::Valid);
        assert_eq!(validator.oracle_runs(), 1, "the second suite hit the cache");
        // A wrong answer on a cached key is still caught.
        assert!(matches!(
            run(Box::new(WrongBfs(*right()))),
            Validation::Invalid(_)
        ));
        assert_eq!(validator.oracle_runs(), 1);
        assert_eq!(validator.cache_size(), 1);
    }

    #[test]
    fn reference_platform_passes_validation() {
        let s = suite(
            vec![Algorithm::Stats, Algorithm::default_bfs(), Algorithm::Conn],
            BenchmarkConfig::default(),
        );
        let mut platforms: Vec<Box<dyn Platform>> = vec![Box::new(RefPlatform { graphs: vec![] })];
        let result = s.run(&mut platforms);
        assert_eq!(result.runs.len(), 3);
        for r in &result.runs {
            assert!(r.status.is_success(), "{r:?}");
            assert!(r.validation.is_valid(), "{r:?}");
            assert!(r.runtime_seconds.unwrap() >= 0.0);
            assert!(r.teps.unwrap() > 0.0);
            assert!(!r.timeline.is_empty(), "{r:?}");
            assert!(
                r.timeline.total_seconds() <= r.wall_seconds,
                "phases {} exceed wall {}",
                r.timeline.total_seconds(),
                r.wall_seconds
            );
        }
        assert_eq!(result.loads.len(), 1);
        assert!(result.loads[0].load_seconds.is_some());
    }

    #[test]
    fn traced_run_emits_phase_spans_and_metrics() {
        let s = suite(
            vec![Algorithm::Stats, Algorithm::Conn],
            BenchmarkConfig::default(),
        );
        let mut platforms: Vec<Box<dyn Platform>> = vec![Box::new(RefPlatform { graphs: vec![] })];
        let tracer = Arc::new(Tracer::new());
        let result = s.run_traced(&mut platforms, &tracer);
        assert_eq!(result.runs.len(), 2);
        let spans = tracer.finished_spans();
        let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
        assert_eq!(count("suite.etl"), 1);
        assert_eq!(count("run.load"), 1);
        assert_eq!(count("run"), 2);
        assert_eq!(count("run.execute"), 2);
        assert_eq!(count("run.validate"), 2);
        assert!(count("monitor.sample") >= 2, "final samples always exist");
        // Execute/validate spans nest under their run span.
        let run_ids: Vec<u64> = spans
            .iter()
            .filter(|s| s.name == "run")
            .map(|s| s.id)
            .collect();
        for s in spans.iter().filter(|s| s.name == "run.execute") {
            assert!(run_ids.contains(&s.parent.unwrap()));
        }
        // Suite-level metrics accumulated.
        assert_eq!(
            tracer.metrics().counter_value(
                "graphalytics_runs_total",
                &[
                    ("platform", "Reference"),
                    ("algorithm", "STATS"),
                    ("status", "success"),
                ],
            ),
            1
        );
        let prom = tracer.metrics().render_prometheus();
        assert!(prom.contains("graphalytics_runs_total"));
        assert!(prom.contains("graphalytics_run_seconds_bucket"));
    }

    #[test]
    fn load_failure_marks_all_algorithms_failed() {
        let s = suite(
            vec![Algorithm::Stats, Algorithm::Conn],
            BenchmarkConfig::default(),
        );
        let mut platforms: Vec<Box<dyn Platform>> = vec![Box::new(BrokenPlatform)];
        let result = s.run(&mut platforms);
        assert_eq!(result.runs.len(), 2);
        for r in &result.runs {
            assert!(matches!(r.status, RunStatus::Failed(_)), "{r:?}");
            assert_eq!(r.validation, Validation::Skipped);
        }
        assert!(result.loads[0].error.as_deref().unwrap().contains("memory"));
    }

    /// A platform that fails transiently a fixed number of times before
    /// succeeding — the shape the retry policy exists for.
    struct FlakyPlatform {
        failures_left: usize,
        fatal: bool,
    }

    impl Platform for FlakyPlatform {
        fn name(&self) -> &'static str {
            "Flaky"
        }
        fn load_graph(&mut self, _graph: &CsrGraph) -> Result<GraphHandle, PlatformError> {
            Ok(GraphHandle(0))
        }
        fn run(
            &mut self,
            _handle: GraphHandle,
            _algorithm: &Algorithm,
            _ctx: &RunContext,
        ) -> Result<Output, PlatformError> {
            if self.failures_left > 0 {
                self.failures_left -= 1;
                return Err(if self.fatal {
                    PlatformError::Internal("boom".into())
                } else {
                    PlatformError::TransientIo("flaky disk".into())
                });
            }
            Ok(Output::Components(vec![0; 64]))
        }
        fn unload(&mut self, _handle: GraphHandle) {}
    }

    #[test]
    fn transient_failures_retry_under_policy() {
        let s = suite(
            vec![Algorithm::Conn],
            BenchmarkConfig {
                validate: false,
                retry: RetryPolicy::new(4, 10, 42),
                ..Default::default()
            },
        );
        let mut platforms: Vec<Box<dyn Platform>> = vec![Box::new(FlakyPlatform {
            failures_left: 2,
            fatal: false,
        })];
        let tracer = Arc::new(Tracer::new());
        let result = s.run_traced(&mut platforms, &tracer);
        let r = &result.runs[0];
        assert!(r.status.is_success(), "{r:?}");
        assert_eq!(r.retries, 2);
        assert_eq!(
            tracer
                .metrics()
                .counter_value("graphalytics_recoveries_total", &[("action", "run_retry")]),
            2
        );
    }

    #[test]
    fn retry_budget_exhaustion_fails_the_cell() {
        let s = suite(
            vec![Algorithm::Conn],
            BenchmarkConfig {
                validate: false,
                retry: RetryPolicy::new(2, 10, 42),
                ..Default::default()
            },
        );
        let mut platforms: Vec<Box<dyn Platform>> = vec![Box::new(FlakyPlatform {
            failures_left: 5,
            fatal: false,
        })];
        let result = s.run(&mut platforms);
        let r = &result.runs[0];
        assert!(matches!(r.status, RunStatus::Failed(_)), "{r:?}");
        assert_eq!(r.retries, 1); // 2 attempts total = 1 retry.
    }

    #[test]
    fn fatal_errors_never_retry() {
        let s = suite(
            vec![Algorithm::Conn],
            BenchmarkConfig {
                validate: false,
                retry: RetryPolicy::new(4, 10, 42),
                ..Default::default()
            },
        );
        let mut platforms: Vec<Box<dyn Platform>> = vec![Box::new(FlakyPlatform {
            failures_left: 1,
            fatal: true,
        })];
        let result = s.run(&mut platforms);
        let r = &result.runs[0];
        assert!(matches!(r.status, RunStatus::Failed(_)), "{r:?}");
        assert_eq!(r.retries, 0);
    }

    #[test]
    fn timeout_is_recorded() {
        let s = suite(
            vec![Algorithm::Conn],
            BenchmarkConfig {
                timeout: Some(Duration::from_millis(10)),
                ..Default::default()
            },
        );
        let mut platforms: Vec<Box<dyn Platform>> = vec![Box::new(SlowPlatform)];
        let result = s.run(&mut platforms);
        assert_eq!(result.runs[0].status, RunStatus::Timeout);
        assert!(result.runs[0].runtime_seconds.is_none());
    }

    /// A platform whose kernel is a 2 ms nap: long enough for the monitor's
    /// sampler to be waiting when the run ends, and all of it accounted as
    /// runtime, so wall − runtime is the harness's own per-run cost.
    struct NapPlatform;

    impl Platform for NapPlatform {
        fn name(&self) -> &'static str {
            "Nap"
        }
        fn load_graph(&mut self, _graph: &CsrGraph) -> Result<GraphHandle, PlatformError> {
            Ok(GraphHandle(0))
        }
        fn run(
            &mut self,
            _handle: GraphHandle,
            _algorithm: &Algorithm,
            _ctx: &RunContext,
        ) -> Result<Output, PlatformError> {
            std::thread::sleep(Duration::from_millis(2));
            Ok(Output::Components(vec![]))
        }
        fn unload(&mut self, _handle: GraphHandle) {}
    }

    #[test]
    fn the_harness_adds_under_a_millisecond_to_a_run() {
        let s = suite(
            vec![Algorithm::Conn; 50],
            BenchmarkConfig {
                validate: false,
                ..Default::default()
            },
        );
        let mut platforms: Vec<Box<dyn Platform>> = vec![Box::new(NapPlatform)];
        let result = s.run(&mut platforms);
        assert_eq!(result.runs.len(), 50);
        let added: Vec<f64> = result
            .runs
            .iter()
            .map(|r| r.wall_seconds - r.runtime_seconds.expect("run succeeded"))
            .collect();
        // The median, so one descheduled run on a loaded box does not fail
        // the test; a wall clock that includes the monitor's shutdown does.
        assert!(median(&added) < 1e-3, "median added {}", median(&added));
    }

    #[test]
    fn repetitions_collect_multiple_timings() {
        let s = suite(
            vec![Algorithm::Stats],
            BenchmarkConfig {
                repetitions: 3,
                ..Default::default()
            },
        );
        let mut platforms: Vec<Box<dyn Platform>> = vec![Box::new(RefPlatform { graphs: vec![] })];
        let result = s.run(&mut platforms);
        assert_eq!(result.runs[0].repetition_seconds.len(), 3);
    }

    #[test]
    fn suite_result_lookups() {
        let s = suite(vec![Algorithm::Stats], BenchmarkConfig::default());
        let mut platforms: Vec<Box<dyn Platform>> = vec![Box::new(RefPlatform { graphs: vec![] })];
        let result = s.run(&mut platforms);
        assert!(result.find("Reference", "Graph500 6", "STATS").is_some());
        assert!(result.find("Reference", "Graph500 6", "BFS").is_none());
        assert_eq!(result.platforms(), vec!["Reference"]);
        assert_eq!(result.datasets(), vec!["Graph500 6"]);
        assert_eq!(result.algorithms(), vec!["STATS"]);
    }

    #[test]
    fn median_math() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[1.0, 2.0, 9.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }
}
