//! The platform integration API — the heart of the "advanced benchmarking
//! harness" (paper §2.3).
//!
//! "Adding a new platform to Graphalytics consists of implementing the
//! algorithms, adding a dataset loading method, providing a workload
//! processing interface, and logging the information required for results
//! reporting." The [`Platform`] trait is exactly that contract: `load_graph`
//! is the dataset-loading/ETL step, `run` is the workload-processing
//! interface, and the harness handles monitoring and reporting around it.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use graphalytics_algos::{Algorithm, Output};
use graphalytics_faults::{FaultInjector, FaultSite, RecoveryAction, RecoveryEvent};
use graphalytics_graph::CsrGraph;

use crate::trace::Tracer;

/// Opaque handle to a graph loaded into a platform's own storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GraphHandle(pub u64);

/// The loaded-graph table of a platform: `load_graph` inserts the
/// platform's own representation `T` and hands the harness the handle,
/// `run` looks it up, `unload` removes it. Handles count up from 0 and are
/// never reused, so a handle kept past `unload` stays invalid instead of
/// naming a later graph.
#[derive(Debug)]
pub struct GraphTable<T> {
    graphs: BTreeMap<u64, T>,
    next_handle: u64,
}

impl<T> Default for GraphTable<T> {
    fn default() -> Self {
        Self {
            graphs: BTreeMap::new(),
            next_handle: 0,
        }
    }
}

impl<T> GraphTable<T> {
    /// Stores a loaded graph under a fresh handle.
    pub fn insert(&mut self, graph: T) -> GraphHandle {
        let handle = GraphHandle(self.next_handle);
        self.next_handle += 1;
        self.graphs.insert(handle.0, graph);
        handle
    }

    /// The graph behind `handle`, or [`PlatformError::InvalidHandle`].
    pub fn get(&self, handle: GraphHandle) -> Result<&T, PlatformError> {
        self.graphs
            .get(&handle.0)
            .ok_or(PlatformError::InvalidHandle)
    }

    /// Takes the graph out of the table; `None` for an unknown handle.
    pub fn remove(&mut self, handle: GraphHandle) -> Option<T> {
        self.graphs.remove(&handle.0)
    }
}

/// Errors a platform can produce while loading or running.
#[derive(Debug, Clone, PartialEq)]
pub enum PlatformError {
    /// The platform ran out of its configured memory budget — how Fig. 4's
    /// "missing values indicate failures" happen for in-memory platforms.
    OutOfMemory {
        /// Bytes the operation needed.
        required: usize,
        /// Bytes the platform had available.
        budget: usize,
    },
    /// The cooperative deadline expired mid-run (MapReduce's DNF entries).
    Timeout,
    /// The workload is not supported by this platform.
    Unsupported(String),
    /// Unknown graph handle or other usage error.
    InvalidHandle,
    /// A worker was lost mid-computation (transient: a checkpoint restart
    /// or a rerun can recover — real clusters lose executors routinely).
    WorkerLost {
        /// Worker index.
        worker: u32,
        /// Superstep at which the worker was lost.
        superstep: usize,
    },
    /// A shuffle output partition was lost (transient: lineage-based
    /// recompute from the parent dataset recovers it).
    PartitionLost {
        /// Shuffle ordinal within the job.
        shuffle: u32,
        /// Lost partition index.
        partition: u32,
    },
    /// A transient I/O error in a task attempt (retrying the attempt
    /// recovers; distinct from [`PlatformError::Internal`], which covers
    /// deterministic failures like data corruption or panics).
    TransientIo(String),
    /// A transient allocation failure under memory pressure — unlike
    /// [`PlatformError::OutOfMemory`], which reports a *deterministic*
    /// budget excess that no retry can fix.
    AllocFailed {
        /// Bytes the allocation wanted (0 when unknown).
        bytes: usize,
    },
    /// Internal failure with a description. Fatal: internal errors are
    /// deterministic bugs (panics, corrupt records), not cluster weather.
    Internal(String),
}

impl PlatformError {
    /// True for errors a retry can plausibly cure. The runner's retry
    /// policy only re-runs transient failures; fatal ones (budget OOM,
    /// unsupported workloads, internal bugs) fail the cell immediately.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            PlatformError::WorkerLost { .. }
                | PlatformError::PartitionLost { .. }
                | PlatformError::TransientIo(_)
                | PlatformError::AllocFailed { .. }
        )
    }

    /// The failed cell for a worker panic caught by
    /// `graphalytics_parallel::try_map_each`: `what` names the fan-out
    /// ("pregel", "map"), `payload` is the panic's.
    pub fn worker_panicked(what: &str, payload: Box<dyn std::any::Any + Send>) -> Self {
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("non-string panic payload");
        PlatformError::Internal(format!("{what} worker panicked: {message}"))
    }

    /// `Unsupported` for LCC and STATS on a directed graph, `Ok` otherwise.
    /// Every engine counts triangles on the degree-oriented *undirected*
    /// adjacency, so on directed input it refuses these two kernels rather
    /// than answer wrongly; the reference platform keeps its out-neighbour
    /// definition.
    pub fn refuse_directed_triangles(
        algorithm: &Algorithm,
        directed: bool,
    ) -> Result<(), PlatformError> {
        if directed && matches!(algorithm, Algorithm::Lcc | Algorithm::Stats) {
            return Err(PlatformError::Unsupported(format!(
                "{} on a directed graph",
                algorithm.name()
            )));
        }
        Ok(())
    }
}

impl std::fmt::Display for PlatformError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlatformError::OutOfMemory { required, budget } => {
                write!(f, "out of memory: needed {required} B, budget {budget} B")
            }
            PlatformError::Timeout => write!(f, "timed out"),
            PlatformError::Unsupported(what) => write!(f, "unsupported workload: {what}"),
            PlatformError::InvalidHandle => write!(f, "invalid graph handle"),
            PlatformError::WorkerLost { worker, superstep } => {
                write!(f, "worker {worker} lost at superstep {superstep}")
            }
            PlatformError::PartitionLost { shuffle, partition } => {
                write!(f, "partition {partition} lost in shuffle {shuffle}")
            }
            PlatformError::TransientIo(msg) => write!(f, "transient i/o error: {msg}"),
            PlatformError::AllocFailed { bytes } => {
                write!(f, "transient allocation failure ({bytes} B)")
            }
            PlatformError::Internal(msg) => write!(f, "internal platform error: {msg}"),
        }
    }
}

impl std::error::Error for PlatformError {}

/// Per-run context handed to platforms: the cooperative deadline, the
/// tracer platforms emit spans and metrics into (a disabled tracer when
/// the harness runs without observability), and — when robustness
/// benchmarking is active — the fault injector whose plan decides which
/// injection points fire.
#[derive(Debug, Clone)]
pub struct RunContext {
    deadline: Option<Instant>,
    tracer: Option<Arc<Tracer>>,
    faults: Option<Arc<FaultInjector>>,
}

impl RunContext {
    /// No deadline.
    pub fn unbounded() -> Self {
        Self {
            deadline: None,
            tracer: None,
            faults: None,
        }
    }

    /// A deadline `timeout` from now. Platforms check it between supersteps
    /// / jobs / iterations and abort with [`PlatformError::Timeout`].
    pub fn with_timeout(timeout: Duration) -> Self {
        Self {
            deadline: Some(Instant::now() + timeout),
            tracer: None,
            faults: None,
        }
    }

    /// Attaches a tracer; platform spans (per-superstep, per-job,
    /// per-operator) land here.
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Attaches a fault injector. Platform injection points stay no-ops
    /// unless this is set *and* the injector's plan fires at their site.
    pub fn with_faults(mut self, faults: Arc<FaultInjector>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// The tracer to emit spans into (a shared disabled tracer when none
    /// was attached, so call sites never need to branch).
    pub fn tracer(&self) -> &Tracer {
        self.tracer.as_deref().unwrap_or(Tracer::noop())
    }

    /// The fault injector, when robustness benchmarking armed one.
    pub fn faults(&self) -> Option<&Arc<FaultInjector>> {
        self.faults.as_ref()
    }

    /// Fault injection point: consults the plan about `site` and, when it
    /// fires, records the injection, traces it (a `faults.injected` span
    /// and `graphalytics_faults_injected_total{kind}`) and returns the
    /// matching transient error for the platform to propagate (or recover
    /// from). With no injector armed this is a branch and nothing more.
    pub fn inject(&self, site: FaultSite) -> Result<(), PlatformError> {
        let Some(injector) = &self.faults else {
            return Ok(());
        };
        if !injector.decide(&site) {
            return Ok(());
        }
        let err = error_for(&site);
        let tracer = self.tracer();
        {
            let mut span = tracer.span("faults.injected");
            span.field("kind", site.kind().name());
            span.field("site", site.describe());
        }
        tracer.metrics().inc_counter(
            "graphalytics_faults_injected_total",
            &[("kind", site.kind().name())],
            1,
        );
        injector.record_injection(site);
        Err(err)
    }

    /// A bounded attempt loop around one injection point: probes
    /// `site_of_attempt(0)`, `site_of_attempt(1)`, … and, on each injected
    /// fault before attempt `max_attempts - 1`, notes `action` for that
    /// site and runs `recover`; the fault of the last attempt is returned.
    /// `Ok` at once when no injector is armed.
    pub fn retry_injected(
        &self,
        max_attempts: u32,
        action: RecoveryAction,
        mut site_of_attempt: impl FnMut(u32) -> FaultSite,
        mut recover: impl FnMut(),
    ) -> Result<(), PlatformError> {
        if self.faults.is_none() {
            return Ok(());
        }
        let mut attempt = 0;
        loop {
            let site = site_of_attempt(attempt);
            match self.inject(site.clone()) {
                Ok(()) => return Ok(()),
                Err(e) if attempt + 1 >= max_attempts => return Err(e),
                Err(_) => {
                    self.note_recovery(action, Some(site), 0);
                    recover();
                    attempt += 1;
                }
            }
        }
    }

    /// The worker-crash probe of both Pregel runtimes: injects at
    /// `PregelWorker { superstep, worker, incarnation }` for workers 0,
    /// 1, … in order and returns the first fault with its site. `None` at
    /// once when no injector is armed.
    ///
    /// A crash is recovered by a checkpoint restart, which replays from
    /// the checkpoint under the next incarnation instead of probing this
    /// site again, so `graphalytics_pregel::drive` bounds restarts by its
    /// `MAX_RESTARTS`, not by [`RunContext::retry_injected`].
    pub fn crashed_worker(
        &self,
        superstep: u64,
        workers: u32,
        incarnation: u32,
    ) -> Option<(FaultSite, PlatformError)> {
        self.faults.as_ref()?;
        (0..workers).find_map(|worker| {
            let site = FaultSite::PregelWorker {
                superstep,
                worker,
                incarnation,
            };
            self.inject(site.clone()).err().map(|e| (site, e))
        })
    }

    /// Records + traces a recovery action a platform just performed
    /// (checkpoint restart, lineage recompute, task retry, ...): a
    /// `recovery.restart` span and `graphalytics_recoveries_total{action}`.
    pub fn note_recovery(&self, action: RecoveryAction, site: Option<FaultSite>, backoff_ms: u64) {
        let tracer = self.tracer();
        {
            let mut span = tracer.span("recovery.restart");
            span.field("action", action.name());
            if let Some(site) = &site {
                span.field("site", site.describe());
            }
            if backoff_ms > 0 {
                span.field("backoff_ms", backoff_ms);
            }
        }
        tracer.metrics().inc_counter(
            "graphalytics_recoveries_total",
            &[("action", action.name())],
            1,
        );
        if let Some(injector) = &self.faults {
            injector.record_recovery(RecoveryEvent {
                action,
                site,
                backoff_ms,
            });
        }
    }

    /// Records + traces one checkpoint a platform just took: a
    /// `recovery.checkpoint` span and `graphalytics_checkpoints_total`.
    pub fn note_checkpoint(&self, superstep: u64, bytes: usize) {
        let tracer = self.tracer();
        {
            let mut span = tracer.span("recovery.checkpoint");
            span.field("superstep", superstep);
            span.field("bytes", bytes);
        }
        tracer
            .metrics()
            .inc_counter("graphalytics_checkpoints_total", &[], 1);
        if let Some(injector) = &self.faults {
            injector.record_recovery(RecoveryEvent {
                action: RecoveryAction::Checkpoint,
                site: None,
                backoff_ms: 0,
            });
        }
    }

    /// True when the deadline has passed.
    pub fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Returns `Err(Timeout)` when the deadline has passed — the one-liner
    /// platforms call at iteration boundaries.
    pub fn check_deadline(&self) -> Result<(), PlatformError> {
        if self.expired() {
            Err(PlatformError::Timeout)
        } else {
            Ok(())
        }
    }
}

impl Default for RunContext {
    fn default() -> Self {
        Self::unbounded()
    }
}

/// The transient error a platform would surface if the fault injected at
/// `site` were real.
fn error_for(site: &FaultSite) -> PlatformError {
    match site {
        FaultSite::PregelWorker {
            superstep, worker, ..
        } => PlatformError::WorkerLost {
            worker: *worker,
            superstep: *superstep as usize,
        },
        FaultSite::ShufflePartition {
            shuffle, partition, ..
        } => PlatformError::PartitionLost {
            shuffle: *shuffle,
            partition: *partition,
        },
        FaultSite::TaskIo { job, task, attempt } => PlatformError::TransientIo(format!(
            "injected i/o fault (job {job:#x}, task {task}, attempt {attempt})"
        )),
        FaultSite::Alloc { .. } => PlatformError::AllocFailed { bytes: 0 },
    }
}

/// A graph-processing platform under test.
///
/// Implementations translate the canonical [`CsrGraph`] into their own
/// storage at load time ("ETL"; the paper's runtime metric deliberately
/// excludes it) and run workload algorithms against that storage, returning
/// outputs in the canonical graph's internal-id order so the Output
/// Validator can compare platforms directly.
pub trait Platform: Send {
    /// Platform name as shown in reports ("Giraph", "GraphX", ...).
    fn name(&self) -> &'static str;

    /// ETL: imports the graph into platform storage.
    fn load_graph(&mut self, graph: &CsrGraph) -> Result<GraphHandle, PlatformError>;

    /// Runs one algorithm against a previously loaded graph.
    fn run(
        &mut self,
        handle: GraphHandle,
        algorithm: &Algorithm,
        ctx: &RunContext,
    ) -> Result<Output, PlatformError>;

    /// Frees the platform storage for a graph. Unknown handles are ignored.
    fn unload(&mut self, handle: GraphHandle);
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphalytics_faults::FaultPlan;

    fn armed(tracer: &Arc<Tracer>, injector: &Arc<FaultInjector>) -> RunContext {
        RunContext::unbounded()
            .with_tracer(Arc::clone(tracer))
            .with_faults(Arc::clone(injector))
    }

    #[test]
    fn disabled_injector_never_fires() {
        let tracer = Arc::new(Tracer::new());
        let inj = Arc::new(FaultInjector::disabled());
        let ctx = armed(&tracer, &inj);
        for w in 0..64 {
            let site = FaultSite::PregelWorker {
                superstep: 1,
                worker: w,
                incarnation: 0,
            };
            assert!(ctx.inject(site).is_ok());
        }
        assert_eq!(inj.injected_count(), 0);
        assert!(tracer.finished_spans().is_empty());
    }

    #[test]
    fn forced_fault_fires_and_is_traced() {
        let tracer = Arc::new(Tracer::new());
        let site = FaultSite::ShufflePartition {
            shuffle: 0,
            partition: 3,
            attempt: 0,
        };
        let inj = Arc::new(FaultInjector::new(FaultPlan::seeded(7).force(site.clone())));
        let err = armed(&tracer, &inj).inject(site.clone()).unwrap_err();
        assert_eq!(
            err,
            PlatformError::PartitionLost {
                shuffle: 0,
                partition: 3
            }
        );
        assert!(err.is_transient());
        assert_eq!(inj.injected(), vec![site]);
        let spans = tracer.finished_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "faults.injected");
        assert_eq!(
            tracer.metrics().counter_value(
                "graphalytics_faults_injected_total",
                &[("kind", "partition_loss")]
            ),
            1
        );
    }

    #[test]
    fn checkpoint_and_recovery_are_counted() {
        let tracer = Arc::new(Tracer::new());
        let inj = Arc::new(FaultInjector::new(
            FaultPlan::seeded(1).with_uniform_rate(0.0),
        ));
        let ctx = armed(&tracer, &inj);
        ctx.note_checkpoint(4, 128);
        ctx.note_recovery(RecoveryAction::CheckpointRestart, None, 20);
        assert_eq!(
            tracer
                .metrics()
                .counter_value("graphalytics_checkpoints_total", &[]),
            1
        );
        assert_eq!(
            tracer.metrics().counter_value(
                "graphalytics_recoveries_total",
                &[("action", "checkpoint_restart")]
            ),
            1
        );
        assert_eq!(inj.checkpoint_count(), 1);
        assert_eq!(inj.recovery_count(), 1);
        let names: Vec<String> = tracer
            .finished_spans()
            .into_iter()
            .map(|s| s.name)
            .collect();
        assert_eq!(names, vec!["recovery.checkpoint", "recovery.restart"]);
    }

    #[test]
    fn every_site_kind_maps_to_a_transient_error() {
        let sites = [
            FaultSite::PregelWorker {
                superstep: 2,
                worker: 1,
                incarnation: 0,
            },
            FaultSite::ShufflePartition {
                shuffle: 1,
                partition: 0,
                attempt: 1,
            },
            FaultSite::TaskIo {
                job: 9,
                task: 3,
                attempt: 0,
            },
            FaultSite::Alloc {
                scope: 5,
                sequence: 2,
                attempt: 0,
            },
        ];
        for site in sites {
            assert!(error_for(&site).is_transient(), "{site:?}");
        }
    }

    #[test]
    fn retry_injected_probes_exactly_max_attempts() {
        let site = |attempt| FaultSite::Alloc {
            scope: 1,
            sequence: 0,
            attempt,
        };
        // Every attempt of the site fails: attempts 0..3 are probed, the
        // first two are noted and recovered, the third fault escalates.
        let plan = (0..8).fold(FaultPlan::disabled(), |p, a| p.force(site(a)));
        let inj = Arc::new(FaultInjector::new(plan));
        let ctx = RunContext::unbounded().with_faults(Arc::clone(&inj));
        let mut recovered = 0;
        let res = ctx.retry_injected(3, RecoveryAction::AllocRetry, site, || recovered += 1);
        assert_eq!(res, Err(PlatformError::AllocFailed { bytes: 0 }));
        assert_eq!(inj.injected(), vec![site(0), site(1), site(2)]);
        assert_eq!(recovered, 2);
        let noted: Vec<_> = inj.recoveries().into_iter().map(|e| e.site).collect();
        assert_eq!(noted, vec![Some(site(0)), Some(site(1))]);

        // Only attempt 0 fails: one recovery, then success.
        let inj = Arc::new(FaultInjector::new(FaultPlan::disabled().force(site(0))));
        let ctx = RunContext::unbounded().with_faults(Arc::clone(&inj));
        let mut recovered = 0;
        let res = ctx.retry_injected(3, RecoveryAction::AllocRetry, site, || recovered += 1);
        assert_eq!(res, Ok(()));
        assert_eq!(
            (inj.injected_count(), inj.recovery_count(), recovered),
            (1, 1, 1)
        );

        // No injector armed: nothing is probed, nothing recovers.
        let mut probed = 0;
        let res = RunContext::unbounded().retry_injected(
            3,
            RecoveryAction::AllocRetry,
            |a| {
                probed += 1;
                site(a)
            },
            || unreachable!(),
        );
        assert_eq!((res, probed), (Ok(()), 0));
    }

    #[test]
    fn crashed_worker_returns_the_lowest_crashing_worker_only() {
        let site = |worker| FaultSite::PregelWorker {
            superstep: 3,
            worker,
            incarnation: 1,
        };
        let plan = FaultPlan::disabled().force(site(2)).force(site(1));
        let inj = Arc::new(FaultInjector::new(plan));
        let ctx = RunContext::unbounded().with_faults(Arc::clone(&inj));
        let (crashed, err) = ctx.crashed_worker(3, 4, 1).expect("a crash");
        assert_eq!(crashed, site(1));
        assert_eq!(
            err,
            PlatformError::WorkerLost {
                worker: 1,
                superstep: 3
            }
        );
        // Only the chosen worker's fault is injected.
        assert_eq!(inj.injected(), vec![site(1)]);
        // Another incarnation, or a fleet too small to hold the worker,
        // crashes nobody.
        assert!(ctx.crashed_worker(3, 4, 2).is_none());
        assert!(ctx.crashed_worker(3, 1, 1).is_none());
        assert!(RunContext::unbounded().crashed_worker(3, 4, 1).is_none());
        assert_eq!(inj.injected_count(), 1);
    }

    #[test]
    fn graph_table_never_reuses_a_handle() {
        let mut table = GraphTable::default();
        let a = table.insert("a");
        let b = table.insert("b");
        assert_ne!(a, b);
        assert_eq!(table.get(a), Ok(&"a"));
        assert_eq!(table.remove(a), Some("a"));
        assert_eq!(table.remove(a), None);
        let c = table.insert("c");
        assert!(c != a && c != b, "a freed handle was handed out again");
        assert_eq!(table.get(a), Err(PlatformError::InvalidHandle));
        assert_eq!(
            table.get(GraphHandle(99)),
            Err(PlatformError::InvalidHandle)
        );
        assert_eq!(table.get(c), Ok(&"c"));
    }

    #[test]
    fn deadline_expiry() {
        let ctx = RunContext::with_timeout(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(2));
        assert!(ctx.expired());
        assert_eq!(ctx.check_deadline(), Err(PlatformError::Timeout));
        let open = RunContext::unbounded();
        assert!(!open.expired());
        assert!(open.check_deadline().is_ok());
    }

    #[test]
    fn context_tracer_defaults_to_noop() {
        let ctx = RunContext::unbounded();
        assert!(!ctx.tracer().enabled());
        let tracer = Arc::new(Tracer::new());
        let ctx = RunContext::unbounded().with_tracer(Arc::clone(&tracer));
        assert!(ctx.tracer().enabled());
        {
            let _s = ctx.tracer().span("x");
        }
        assert_eq!(tracer.finished_spans().len(), 1);
    }

    #[test]
    fn error_display() {
        let e = PlatformError::OutOfMemory {
            required: 100,
            budget: 10,
        };
        assert!(e.to_string().contains("100"));
        assert!(PlatformError::Timeout.to_string().contains("timed out"));
        assert!(PlatformError::Unsupported("EVO".into())
            .to_string()
            .contains("EVO"));
    }
}
