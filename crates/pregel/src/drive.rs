//! The one superstep loop of both Pregel runtimes: in-process Giraph on
//! worker threads ([`crate::engine::run`]) and the distributed master on a
//! fleet of worker processes (`graphalytics-distrib`).
//!
//! A [`Transport`] moves a superstep to its workers and brings their
//! reports back. Everything the loop decides is decided here, once: the
//! deadline, when a checkpoint is due, the crash probe, restart or
//! escalate, the fold of the reports in worker-id order (so the f64
//! aggregate is bitwise the same in both runtimes), the statistics, the
//! superstep span with its task events, and the halt test.

use graphalytics_core::faults::{FaultSite, RecoveryAction};
use graphalytics_core::platform::{PlatformError, RunContext};
use graphalytics_core::trace::{FieldValue, SpanGuard, Tracer};

use crate::engine::{PregelResult, PregelStats};
use crate::partition::Placement;

/// Hard cap on supersteps (guards non-converging programs).
pub const MAX_SUPERSTEPS: usize = 10_000;

/// Checkpoint restarts one run may perform before a worker loss escalates.
pub const MAX_RESTARTS: u32 = 8;

/// One superstep, as the loop hands it to a transport.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// Superstep number.
    pub superstep: u64,
    /// The aggregate the previous superstep folded.
    pub prev_aggregate: f64,
    /// Snapshot every worker before it computes.
    pub checkpoint: bool,
    /// The worker the crash probe chose: it is lost after its checkpoint
    /// and before it computes.
    pub crash: Option<u32>,
}

/// One worker's account of one superstep.
#[derive(Debug, Clone, Copy, Default)]
pub struct Report {
    /// Vertices computed.
    pub computed: usize,
    /// Vertices left active. An in-process worker counts those that did
    /// not vote to halt, a fleet worker those runnable after delivery; the
    /// two agree whenever no message is in flight, the one case the halt
    /// test reads.
    pub awake: usize,
    /// Messages sent.
    pub sent: usize,
    /// Messages sent to another worker.
    pub sent_remote: usize,
    /// Sum of the aggregator contributions, in compute order.
    pub aggregate: f64,
    /// Nanoseconds spent delivering and computing, when the transport
    /// timed them itself; fleet workers ship their own spans instead.
    pub timing: Option<(u64, u64)>,
}

/// How the loop reaches its workers. Generic, not `dyn`: each runtime's
/// loop is compiled for its own transport.
pub trait Transport {
    /// Per-vertex state the workers hand back.
    type State;
    /// Name of the superstep span.
    const SUPERSTEP_SPAN: &'static str;
    /// Name of the per-worker event under it.
    const TASK_EVENT: &'static str;

    /// Runs one superstep on every worker; returns every worker's report,
    /// in worker-id order, and the bytes the superstep put on a wire, for
    /// a transport that has one. The encoded bytes of a due checkpoint go
    /// to `checkpointed` once every worker's share landed, also when a
    /// worker is then lost. A lost worker is [`PlatformError::WorkerLost`].
    fn superstep(
        &mut self,
        step: Step,
        checkpointed: &mut Option<usize>,
    ) -> Result<(Vec<Report>, Option<u64>), PlatformError>;

    /// Puts every worker back to the checkpoint of `superstep`, as
    /// `incarnation`.
    fn restore(&mut self, superstep: u64, incarnation: u32) -> Result<(), PlatformError>;

    /// Hands back every worker's states, in worker order.
    fn finish(&mut self) -> Result<Vec<Vec<Self::State>>, PlatformError>;
}

/// Runs supersteps on `transport` until no vertex is active and no
/// message is in flight, or [`MAX_SUPERSTEPS`]; returns the states, merged
/// by `placement` into internal-id order, and the run's statistics.
///
/// Before each superstep the loop checks the deadline, decides whether a
/// checkpoint is due (every `checkpoint_interval` supersteps, taken before
/// compute, so a crash with a due checkpoint restores to that superstep
/// itself) and probes [`RunContext::crashed_worker`] under the current
/// incarnation. A lost worker, injected or not, restarts every worker from
/// the last checkpoint under the next incarnation, so a crash decided for
/// one incarnation does not fire again. Without a checkpoint, or past
/// [`MAX_RESTARTS`], the loss escalates: as the injected error, or as the
/// transport's `WorkerLost` for a death no probe injected. Any other error
/// ends the run. A superstep that a loss interrupted leaves no span and is
/// not counted; re-executed supersteps count again.
pub fn drive<T: Transport>(
    transport: &mut T,
    placement: &Placement,
    checkpoint_interval: Option<usize>,
    ctx: &RunContext,
) -> Result<PregelResult<T::State>, PlatformError> {
    let tracer = ctx.tracer();
    let workers = placement.workers() as u32;
    let mut stats = PregelStats::default();
    let (mut superstep, mut prev_aggregate, mut halted) = (0u64, 0.0f64, false);
    // The last superstep whose checkpoint every worker completed, with the
    // aggregate it started from: where a restart resumes.
    let mut restore_point: Option<(u64, f64)> = None;
    let mut incarnation = 0u32;
    loop {
        let (lost, crash) = if halted || superstep >= MAX_SUPERSTEPS as u64 {
            match transport.finish() {
                Ok(per_worker) => {
                    let states = placement.merge(per_worker).ok_or_else(|| {
                        PlatformError::Internal("pregel partition size mismatch".to_string())
                    })?;
                    return Ok(PregelResult { states, stats });
                }
                Err(e) => (e, None),
            }
        } else {
            ctx.check_deadline()?;
            let checkpoint =
                checkpoint_interval.is_some_and(|i| i > 0 && superstep.is_multiple_of(i as u64));
            let crash = ctx.crashed_worker(superstep, workers, incarnation);
            let step = Step {
                superstep,
                prev_aggregate,
                checkpoint,
                crash: crash.as_ref().and_then(|(site, _)| match site {
                    FaultSite::PregelWorker { worker, .. } => Some(*worker),
                    _ => None,
                }),
            };
            let mut checkpointed = None;
            let mut span = tracer.span(T::SUPERSTEP_SPAN);
            span.field("superstep", superstep);
            let outcome = match transport.superstep(step, &mut checkpointed) {
                Ok((reports, bytes)) => Ok(fold::<T>(&mut stats, &reports, bytes, span, tracer)),
                Err(e) => {
                    span.discard();
                    Err(e)
                }
            };
            if let Some(bytes) = checkpointed {
                ctx.note_checkpoint(superstep, bytes);
                restore_point = Some((superstep, prev_aggregate));
            }
            match outcome {
                Ok((aggregate, halt)) => {
                    (prev_aggregate, halted) = (aggregate, halt);
                    superstep += 1;
                    continue;
                }
                Err(e) => (e, crash),
            }
        };
        let PlatformError::WorkerLost { worker, .. } = lost else {
            return Err(lost);
        };
        // The crash the probe injected is the loss; a death no probe
        // injected is the lost worker's.
        let unprobed = FaultSite::PregelWorker {
            superstep,
            worker,
            incarnation,
        };
        let (site, err) = crash.unwrap_or((unprobed, lost));
        let Some((resume, aggregate)) = restore_point.filter(|_| incarnation < MAX_RESTARTS) else {
            return Err(err);
        };
        ctx.note_recovery(RecoveryAction::CheckpointRestart, Some(site), 0);
        incarnation += 1;
        stats.restarts += 1;
        ctx.check_deadline()?;
        transport.restore(resume, incarnation)?;
        (superstep, prev_aggregate, halted) = (resume, aggregate, false);
    }
}

/// The barrier: folds one superstep's reports in worker-id order into
/// `stats`, the superstep span, which it closes, and one task event per
/// worker. Returns the folded aggregate and whether the run halts: no
/// message sent and no vertex left active.
fn fold<T: Transport>(
    stats: &mut PregelStats,
    reports: &[Report],
    network_bytes: Option<u64>,
    mut span: SpanGuard<'_>,
    tracer: &Tracer,
) -> (f64, bool) {
    let (mut sent, mut remote, mut active, mut awake) = (0, 0, 0, 0);
    let (mut max_active, mut max_sent, mut aggregate) = (0, 0, 0.0f64);
    for (w, r) in reports.iter().enumerate() {
        sent += r.sent;
        remote += r.sent_remote;
        active += r.computed;
        awake += r.awake;
        max_active = max_active.max(r.computed);
        max_sent = max_sent.max(r.sent);
        aggregate += r.aggregate;
        // One work-distribution event per worker per superstep: the skew
        // choke point is the Gini over these within a superstep.
        let mut fields: Vec<(String, FieldValue)> = vec![
            ("worker".to_string(), (w as u64).into()),
            ("work".to_string(), r.computed.into()),
            ("messages".to_string(), r.sent.into()),
        ];
        if let Some((deliver_ns, compute_ns)) = r.timing {
            fields.push(("deliver_ns".to_string(), deliver_ns.into()));
            fields.push(("compute_ns".to_string(), compute_ns.into()));
        }
        tracer.event(T::TASK_EVENT, span.id(), fields);
    }
    stats.supersteps += 1;
    stats.messages_total += sent;
    stats.messages_remote += remote;
    stats.active_total += active;
    stats.max_worker_active += max_active;
    stats.max_worker_messages += max_sent;
    stats.active_per_superstep.push(active);
    span.field("active_vertices", active)
        .field("messages_sent", sent)
        .field("messages_remote", remote);
    if let Some(bytes) = network_bytes {
        span.field("network_bytes", bytes);
    }
    span.field("aggregate", aggregate)
        // Locality proxies: vertex state is scanned sequentially per
        // active vertex; every delivered message is a random inbox write.
        .field("seq_accesses", active)
        .field("rand_accesses", sent);
    (aggregate, sent == 0 && awake == 0)
}
