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
use graphalytics_faults::{FaultInjector, FaultSite, RecoveryAction};
use graphalytics_graph::CsrGraph;

use crate::faultwire;
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
    /// unless this is set *and* the injector's plan is enabled.
    pub fn with_faults(mut self, faults: Arc<FaultInjector>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// The tracer to emit spans into (a shared disabled tracer when none
    /// was attached, so call sites never need to branch).
    pub fn tracer(&self) -> &Tracer {
        self.tracer.as_deref().unwrap_or(Tracer::noop())
    }

    /// The attached tracer, if any, by `Arc` — for platforms that stash the
    /// tracer in long-lived internal state (e.g. the dataflow context).
    pub fn tracer_arc(&self) -> Option<Arc<Tracer>> {
        self.tracer.clone()
    }

    /// The fault injector, when robustness benchmarking armed one.
    pub fn faults(&self) -> Option<&Arc<FaultInjector>> {
        self.faults.as_ref()
    }

    /// Fault injection point: consults the plan about `site` and, when it
    /// fires, records + traces the injection and returns the matching
    /// transient error for the platform to propagate (or recover from).
    /// With no injector armed this is a branch and nothing more.
    pub fn inject(&self, site: FaultSite) -> Result<(), PlatformError> {
        match &self.faults {
            Some(inj) => faultwire::inject_fault(self.tracer(), inj, site),
            None => Ok(()),
        }
    }

    /// Records + traces a recovery action a platform just performed
    /// (checkpoint restart, lineage recompute, task retry, ...).
    pub fn note_recovery(&self, action: RecoveryAction, site: Option<FaultSite>, backoff_ms: u64) {
        faultwire::note_recovery(
            self.tracer(),
            self.faults.as_deref(),
            action,
            site,
            backoff_ms,
        );
    }

    /// Records + traces one checkpoint a platform just took.
    pub fn note_checkpoint(&self, superstep: u64, bytes: usize) {
        faultwire::note_checkpoint(self.tracer(), self.faults.as_deref(), superstep, bytes);
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
