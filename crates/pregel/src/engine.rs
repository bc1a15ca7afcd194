//! A Pregel-style bulk-synchronous parallel (BSP) vertex-centric engine —
//! the Giraph stand-in.
//!
//! "In Pregel, a type of bulk synchronous parallel processing (BSP),
//! computation is vertex-centric and progresses in steps separated by
//! synchronization barriers. All vertices execute the same function in
//! parallel during a computation step, using as input messages received
//! from other vertices." (paper §3.2)
//!
//! Faithfully modeled pieces:
//!
//! * workers own hash-partitioned vertex sets; vertex state lives with its
//!   worker;
//! * per-superstep message exchange with an optional **combiner**;
//!   messages whose source and destination workers differ are counted as
//!   *network* messages (the "excessive network utilization" choke point);
//! * **vote-to-halt** semantics with reactivation on message receipt;
//! * a per-superstep f64 **aggregator** (sum), readable in the next
//!   superstep — Giraph's aggregator facility;
//! * cooperative deadlines checked at every barrier.

use graphalytics_codec::Codec;
use graphalytics_core::faults::{FaultSite, RecoveryAction, Snapshot};
use graphalytics_core::platform::{PlatformError, RunContext};
use graphalytics_graph::partition::{
    HashPartitioner, LdgPartitioner, Partitioner, RangePartitioner,
};
use graphalytics_graph::{CsrGraph, Vid};
use std::sync::Arc;

/// Vertex-placement strategy for the workers (see
/// `graphalytics_graph::partition`). Giraph defaults to hash partitioning;
/// the alternatives exist for the §2.1 choke-point ablations ("advanced
/// graph partitioning methods" against network traffic and skew).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionerKind {
    /// Hash of the external vertex id (Giraph's default).
    #[default]
    Hash,
    /// Contiguous internal-id ranges.
    Range,
    /// Linear deterministic greedy (locality-aware).
    Ldg,
}

impl PartitionerKind {
    fn partition(&self, graph: &CsrGraph, workers: usize) -> Vec<u32> {
        match self {
            PartitionerKind::Hash => HashPartitioner.partition(graph, workers),
            PartitionerKind::Range => RangePartitioner.partition(graph, workers),
            PartitionerKind::Ldg => LdgPartitioner.partition(graph, workers),
        }
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct PregelConfig {
    /// Number of workers (threads).
    pub workers: usize,
    /// Hard cap on supersteps (guards non-converging programs).
    pub max_supersteps: usize,
    /// Optional memory budget in bytes for graph + state + queues.
    pub memory_budget: Option<usize>,
    /// Vertex-placement strategy.
    pub partitioner: PartitionerKind,
    /// Checkpoint every N supersteps (Giraph's superstep-boundary
    /// checkpointing): vertex state + pending messages + halt flags +
    /// aggregator are snapshotted so a lost worker restarts the
    /// computation from the last checkpoint instead of failing the run.
    /// `None` (the default) never checkpoints.
    pub checkpoint_interval: Option<usize>,
    /// How many checkpoint restarts one run may perform before the worker
    /// loss is escalated to the harness.
    pub max_restarts: u32,
}

impl Default for PregelConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            max_supersteps: 10_000,
            memory_budget: None,
            partitioner: PartitionerKind::Hash,
            checkpoint_interval: None,
            max_restarts: 8,
        }
    }
}

/// A message addressed to a vertex.
pub type Envelope<M> = (Vid, M);

/// Execution statistics of one Pregel run — the raw material for the
/// choke-point analyses.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PregelStats {
    /// Supersteps executed.
    pub supersteps: usize,
    /// Total messages sent.
    pub messages_total: usize,
    /// Messages that crossed worker boundaries ("network" messages).
    pub messages_remote: usize,
    /// Sum over supersteps of the *maximum* per-worker active-vertex count;
    /// compared against `active_total / workers` this exposes skew
    /// (the "skewed execution intensity" choke point).
    pub max_worker_active: usize,
    /// Sum over supersteps of active vertices.
    pub active_total: usize,
    /// Sum over supersteps of the maximum per-worker *message* count — the
    /// work metric that exposes degree skew even when vertex counts are
    /// balanced.
    pub max_worker_messages: usize,
    /// Active vertices per superstep — iterative algorithms' tail of
    /// low-work iterations is visible here (the paper's "there can
    /// sometimes be many of such final iterations with little work").
    pub active_per_superstep: Vec<usize>,
}

impl PregelStats {
    /// Mean skew factor: max worker load over mean worker load, averaged
    /// over supersteps (1.0 = perfectly balanced).
    pub fn skew_factor(&self, workers: usize) -> f64 {
        if self.active_total == 0 {
            return 1.0;
        }
        self.max_worker_active as f64 / (self.active_total as f64 / workers as f64)
    }

    /// Message-work skew: max per-worker messages over mean per-worker
    /// messages (1.0 = balanced). Degree-skewed graphs show values well
    /// above 1 even under balanced vertex partitioning.
    pub fn message_skew(&self, workers: usize) -> f64 {
        if self.messages_total == 0 {
            return 1.0;
        }
        self.max_worker_messages as f64 / (self.messages_total as f64 / workers as f64)
    }
}

/// Per-vertex compute context.
pub struct ComputeContext<'a, M> {
    /// Current superstep (0-based).
    pub superstep: usize,
    /// The vertex being computed.
    pub vertex: Vid,
    /// The graph (adjacency access).
    pub graph: &'a CsrGraph,
    /// Value of the global aggregator from the *previous* superstep.
    pub prev_aggregate: f64,
    outgoing: Vec<Envelope<M>>,
    halt: bool,
    aggregate: f64,
}

impl<'a, M> ComputeContext<'a, M> {
    /// Sends `msg` to vertex `to` (delivered next superstep).
    pub fn send(&mut self, to: Vid, msg: M) {
        self.outgoing.push((to, msg));
    }

    /// Sends `msg` to every out-neighbor.
    pub fn send_to_neighbors(&mut self, msg: M)
    where
        M: Clone,
    {
        for &u in self.graph.neighbors(self.vertex) {
            self.outgoing.push((u, msg.clone()));
        }
    }

    /// Votes to halt; the vertex stays inactive until a message arrives.
    pub fn vote_to_halt(&mut self) {
        self.halt = true;
    }

    /// Adds to the global (sum) aggregator for this superstep.
    pub fn aggregate(&mut self, value: f64) {
        self.aggregate += value;
    }

    /// Degree of the current vertex.
    pub fn degree(&self) -> usize {
        self.graph.degree(self.vertex)
    }
}

/// A vertex program: the algorithm expressed in the Pregel model.
///
/// State and message types must be [`Codec`] so the engine can
/// snapshot them at superstep boundaries (the recovery path for injected
/// worker crashes); the codec is implemented for all primitives, tuples,
/// and `Vec`s the built-in programs use.
pub trait VertexProgram: Sync {
    /// Per-vertex state.
    type State: Clone + Send + Sync + Codec;
    /// Message type.
    type Message: Clone + Send + Sync + Codec;

    /// Initial state of a vertex.
    fn init(&self, vertex: Vid, graph: &CsrGraph) -> Self::State;

    /// One superstep of computation for an active vertex.
    fn compute(
        &self,
        state: &mut Self::State,
        messages: &[Self::Message],
        ctx: &mut ComputeContext<'_, Self::Message>,
    );

    /// Optional message combiner: merges `incoming` into `acc` for messages
    /// addressed to the same vertex, cutting message volume (Giraph's
    /// Combiner). Return `None` to disable combining.
    fn combiner(&self) -> Option<MessageCombiner<Self::Message>> {
        None
    }
}

/// A message combiner: merges the second message into the first.
pub type MessageCombiner<M> = fn(&mut M, M);

/// Result of a Pregel run.
#[derive(Debug, Clone)]
pub struct PregelResult<S> {
    /// Final state per vertex, indexed by internal vertex id.
    pub states: Vec<S>,
    /// Execution statistics.
    pub stats: PregelStats,
}

/// Runs `program` on `graph` to completion (all vertices halted and no
/// messages in flight), a superstep cap, or deadline expiry.
pub fn run<P: VertexProgram>(
    graph: &Arc<CsrGraph>,
    program: &P,
    config: &PregelConfig,
    ctx: &RunContext,
) -> Result<PregelResult<P::State>, PlatformError> {
    let n = graph.num_vertices();
    let workers = config.workers.max(1);
    if let Some(budget) = config.memory_budget {
        let need = estimated_footprint::<P>(graph);
        if need > budget {
            return Err(PlatformError::OutOfMemory {
                required: need,
                budget,
            });
        }
    }
    let assignment = config.partitioner.partition(graph, workers);
    let mut worker_vertices: Vec<Vec<Vid>> = vec![Vec::new(); workers];
    for v in 0..n as Vid {
        worker_vertices[assignment[v as usize] as usize].push(v);
    }
    let owner: Vec<u32> = assignment;

    let mut states: Vec<P::State> = (0..n as Vid).map(|v| program.init(v, graph)).collect();
    let mut active: Vec<bool> = vec![true; n];
    // Inbox per vertex, double buffered.
    let mut inbox: Vec<Vec<P::Message>> = vec![Vec::new(); n];
    let mut stats = PregelStats::default();
    let mut prev_aggregate = 0.0f64;

    // Superstep-boundary checkpointing (Giraph-style): the encoded last
    // snapshot, plus the incarnation counter that makes re-executed
    // supersteps distinguishable fault-plan sites (a crash decided for
    // incarnation 0 does not re-fire after the restart).
    let mut latest_checkpoint: Option<Vec<u8>> = None;
    let mut incarnation: u32 = 0;

    let mut superstep = 0usize;
    while superstep < config.max_supersteps {
        ctx.check_deadline()?;
        // A vertex is runnable when it hasn't voted to halt *or* has
        // pending messages (message receipt reactivates halted vertices).
        let any_runnable = active.iter().any(|&a| a) || inbox.iter().any(|m| !m.is_empty());
        if !any_runnable {
            break;
        }
        // Checkpoint before computing, so a crash in superstep k with a
        // due checkpoint restores to k itself, not k - interval.
        if config
            .checkpoint_interval
            .is_some_and(|i| i > 0 && superstep.is_multiple_of(i))
        {
            let snap = Snapshot {
                superstep: superstep as u64,
                states: states.clone(),
                inbox: inbox.clone(),
                active: active.clone(),
                aggregate: prev_aggregate,
            };
            let bytes = snap.encode();
            ctx.note_checkpoint(superstep as u64, bytes.len());
            latest_checkpoint = Some(bytes);
        }
        // Worker-crash injection point: each worker is probed against the
        // fault plan before the compute phase. A crashed worker either
        // restarts the computation from the last checkpoint or escalates
        // the loss to the harness.
        if ctx.faults().is_some() {
            let crashed = (0..workers as u32).find_map(|w| {
                let site = FaultSite::PregelWorker {
                    superstep: superstep as u64,
                    worker: w,
                    incarnation,
                };
                ctx.inject(site.clone()).err().map(|e| (site, e))
            });
            if let Some((site, err)) = crashed {
                match &latest_checkpoint {
                    Some(bytes) if incarnation < config.max_restarts => {
                        let snap: Snapshot<P::State, P::Message> = Snapshot::decode(bytes)
                            .ok_or_else(|| {
                                PlatformError::Internal("corrupt pregel checkpoint".to_string())
                            })?;
                        states = snap.states;
                        inbox = snap.inbox;
                        active = snap.active;
                        prev_aggregate = snap.aggregate;
                        superstep = snap.superstep as usize;
                        incarnation += 1;
                        ctx.note_recovery(RecoveryAction::CheckpointRestart, Some(site), 0);
                        continue;
                    }
                    _ => return Err(err),
                }
            }
        }
        // One span per superstep, carrying the same counts the engine
        // accumulates into `PregelStats`.
        let mut step_span = ctx.tracer().span("pregel.superstep");
        step_span.field("superstep", superstep);
        let remote_before = stats.messages_remote;
        // --- Compute phase: one worker per partition reads the shared
        // state, inbox and active vectors and returns its updates; a
        // panicking `compute` fails the run instead of unwinding out of it.
        let mut per_worker_active = vec![0usize; workers];
        let worker_outputs: Vec<WorkerOutput<P>> =
            graphalytics_parallel::try_map_each(&worker_vertices, |_, vertices| {
                compute_partition(
                    graph,
                    program,
                    superstep,
                    prev_aggregate,
                    vertices,
                    &states,
                    &active,
                    &inbox,
                )
            })
            .map_err(|payload| PlatformError::worker_panicked("pregel", payload))?;

        // --- Barrier: apply updates, route messages. ---
        for v in inbox.iter_mut() {
            v.clear();
        }
        let mut sent_this_step = 0usize;
        let mut any_message = false;
        let mut step_aggregate = 0.0f64;
        let mut max_worker_messages = 0usize;
        let mut step_active = 0usize;
        let combiner = program.combiner();
        let step_span_id = step_span.id();
        for (w, out) in worker_outputs.into_iter().enumerate() {
            per_worker_active[w] = out.active_count;
            stats.active_total += out.active_count;
            step_active += out.active_count;
            max_worker_messages = max_worker_messages.max(out.messages);
            // One work-distribution event per worker per superstep — the
            // skew choke point is the Gini over these within a superstep.
            ctx.tracer().event(
                "pregel.task",
                step_span_id,
                vec![
                    ("worker".to_string(), (w as u64).into()),
                    ("work".to_string(), out.active_count.into()),
                    ("messages".to_string(), out.messages.into()),
                ],
            );
            step_aggregate += out.aggregate;
            for (v, state, stay_active) in out.updates {
                states[v as usize] = state;
                active[v as usize] = stay_active;
            }
            sent_this_step += out.messages;
            for (to, msg) in out.outgoing {
                if owner[to as usize] as usize != w {
                    stats.messages_remote += 1;
                }
                any_message = true;
                let slot = &mut inbox[to as usize];
                match (combiner, slot.last_mut()) {
                    (Some(combine), Some(acc)) => combine(acc, msg),
                    _ => slot.push(msg),
                }
            }
        }
        prev_aggregate = step_aggregate;
        stats.messages_total += sent_this_step;
        stats.max_worker_active += per_worker_active.iter().copied().max().unwrap_or(0);
        stats.max_worker_messages += max_worker_messages;
        stats.active_per_superstep.push(step_active);
        stats.supersteps += 1;
        step_span
            .field("active_vertices", step_active)
            .field("messages_sent", sent_this_step)
            .field("messages_remote", stats.messages_remote - remote_before)
            .field("aggregate", step_aggregate)
            // Locality proxies: vertex state is scanned sequentially per
            // active vertex; every routed message is a random inbox write.
            .field("seq_accesses", step_active)
            .field("rand_accesses", sent_this_step);
        if !any_message && !active.iter().any(|&a| a) {
            break;
        }
        superstep += 1;
    }
    Ok(PregelResult { states, stats })
}

/// What one worker's compute phase produced over its partition: the unit of
/// work the barrier merges — and, in the distributed runtime, the unit a
/// worker process ships across the wire per superstep.
pub struct WorkerOutput<P: VertexProgram> {
    /// `(vertex, new state, stays active)` for every computed vertex, in
    /// partition-list order.
    pub updates: Vec<(Vid, P::State, bool)>,
    /// Messages generated this superstep, in generation order.
    pub outgoing: Vec<Envelope<P::Message>>,
    /// Sum of the worker's aggregator contributions.
    pub aggregate: f64,
    /// Vertices computed (runnable) this superstep.
    pub active_count: usize,
    /// Messages generated (`outgoing.len()`).
    pub messages: usize,
}

/// One worker's compute phase: runs `program` over the runnable vertices of
/// `vertices` (a partition list) against the *global-length* `states`,
/// `active`, and `inbox` slices, exactly as the in-process engine does
/// inside its worker threads. Public so the distributed runtime executes
/// byte-identical supersteps: same iteration order, same skip rule, same
/// aggregate accumulation order.
#[allow(clippy::too_many_arguments)]
pub fn compute_partition<P: VertexProgram>(
    graph: &CsrGraph,
    program: &P,
    superstep: usize,
    prev_aggregate: f64,
    vertices: &[Vid],
    states: &[P::State],
    active: &[bool],
    inbox: &[Vec<P::Message>],
) -> WorkerOutput<P> {
    let mut out = WorkerOutput::<P> {
        updates: Vec::new(),
        outgoing: Vec::new(),
        aggregate: 0.0,
        active_count: 0,
        messages: 0,
    };
    for &v in vertices {
        let msgs = &inbox[v as usize];
        if !active[v as usize] && msgs.is_empty() {
            continue;
        }
        out.active_count += 1;
        let mut cctx = ComputeContext {
            superstep,
            vertex: v,
            graph,
            prev_aggregate,
            outgoing: Vec::new(),
            halt: false,
            aggregate: 0.0,
        };
        let mut state = states[v as usize].clone();
        program.compute(&mut state, msgs, &mut cctx);
        out.aggregate += cctx.aggregate;
        out.messages += cctx.outgoing.len();
        out.updates.push((v, state, !cctx.halt));
        out.outgoing.extend(cctx.outgoing);
    }
    out
}

/// Rough memory estimate for the budget check: graph + one state and one
/// inbox slot per vertex. Heap payloads nested inside states/messages
/// (e.g. the STATS program's neighbor-list messages) are not counted;
/// the budget meters the structural footprint.
fn estimated_footprint<P: VertexProgram>(graph: &CsrGraph) -> usize {
    let per_vertex = std::mem::size_of::<P::State>()
        + std::mem::size_of::<Vec<P::Message>>()
        + std::mem::size_of::<bool>();
    graph.memory_footprint() + graph.num_vertices() * per_vertex
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphalytics_graph::EdgeListGraph;

    /// Min-label propagation: the classic HashMin connected components.
    struct MinLabel;

    impl VertexProgram for MinLabel {
        type State = u32;
        type Message = u32;

        fn init(&self, vertex: Vid, _graph: &CsrGraph) -> u32 {
            vertex
        }

        fn compute(&self, state: &mut u32, messages: &[u32], ctx: &mut ComputeContext<'_, u32>) {
            let incoming = messages.iter().copied().min();
            let best = incoming.unwrap_or(*state).min(*state);
            if best < *state || ctx.superstep == 0 {
                *state = best;
                ctx.send_to_neighbors(best);
            }
            ctx.vote_to_halt();
        }

        fn combiner(&self) -> Option<fn(&mut u32, u32)> {
            Some(|acc, m| *acc = (*acc).min(m))
        }
    }

    fn graph(edges: Vec<(u64, u64)>) -> Arc<CsrGraph> {
        Arc::new(CsrGraph::from_edge_list(
            &EdgeListGraph::undirected_from_edges(edges),
        ))
    }

    #[test]
    fn min_label_finds_components() {
        let g = graph(vec![(0, 1), (1, 2), (3, 4)]);
        let result = run(
            &g,
            &MinLabel,
            &PregelConfig::default(),
            &RunContext::unbounded(),
        )
        .unwrap();
        assert_eq!(result.states, vec![0, 0, 0, 3, 3]);
        assert!(result.stats.supersteps >= 2);
        assert!(result.stats.messages_total > 0);
    }

    #[test]
    fn superstep_spans_match_engine_stats() {
        use graphalytics_core::trace::{FieldValue, Tracer};

        let g = graph(vec![(0, 1), (1, 2), (2, 3), (3, 4), (5, 6)]);
        let tracer = std::sync::Arc::new(Tracer::new());
        let ctx = RunContext::unbounded().with_tracer(std::sync::Arc::clone(&tracer));
        let result = run(&g, &MinLabel, &PregelConfig::default(), &ctx).unwrap();
        let spans: Vec<_> = tracer
            .finished_spans()
            .into_iter()
            .filter(|s| s.name == "pregel.superstep")
            .collect();
        assert_eq!(spans.len(), result.stats.supersteps);
        let field = |s: &graphalytics_core::trace::Span, k: &str| {
            s.field(k).and_then(FieldValue::as_i64).unwrap()
        };
        for (i, s) in spans.iter().enumerate() {
            assert_eq!(field(s, "superstep"), i as i64);
            assert_eq!(
                field(s, "active_vertices"),
                result.stats.active_per_superstep[i] as i64
            );
        }
        let sent: i64 = spans.iter().map(|s| field(s, "messages_sent")).sum();
        assert_eq!(sent, result.stats.messages_total as i64);
        let remote: i64 = spans.iter().map(|s| field(s, "messages_remote")).sum();
        assert_eq!(remote, result.stats.messages_remote as i64);
    }

    #[test]
    fn worker_count_does_not_change_result() {
        let g = graph((0..50).map(|i| (i, (i * 7 + 1) % 50)).collect());
        let one = run(
            &g,
            &MinLabel,
            &PregelConfig {
                workers: 1,
                ..Default::default()
            },
            &RunContext::unbounded(),
        )
        .unwrap();
        let eight = run(
            &g,
            &MinLabel,
            &PregelConfig {
                workers: 8,
                ..Default::default()
            },
            &RunContext::unbounded(),
        )
        .unwrap();
        assert_eq!(one.states, eight.states);
    }

    #[test]
    fn remote_messages_are_counted() {
        let g = graph(vec![(0, 1), (1, 2), (2, 3), (3, 0)]);
        let result = run(
            &g,
            &MinLabel,
            &PregelConfig {
                workers: 4,
                ..Default::default()
            },
            &RunContext::unbounded(),
        )
        .unwrap();
        assert!(result.stats.messages_remote > 0);
        assert!(result.stats.messages_remote <= result.stats.messages_total);
        // A single worker never sends remote messages.
        let local = run(
            &g,
            &MinLabel,
            &PregelConfig {
                workers: 1,
                ..Default::default()
            },
            &RunContext::unbounded(),
        )
        .unwrap();
        assert_eq!(local.stats.messages_remote, 0);
    }

    #[test]
    fn memory_budget_enforced() {
        let g = graph((0..100).map(|i| (i, i + 1)).collect());
        let err = run(
            &g,
            &MinLabel,
            &PregelConfig {
                memory_budget: Some(16),
                ..Default::default()
            },
            &RunContext::unbounded(),
        )
        .unwrap_err();
        assert!(matches!(err, PlatformError::OutOfMemory { .. }));
    }

    #[test]
    fn deadline_aborts_run() {
        let g = graph((0..2000).map(|i| (i, i + 1)).collect());
        let ctx = RunContext::with_timeout(std::time::Duration::from_nanos(1));
        std::thread::sleep(std::time::Duration::from_millis(1));
        let err = run(&g, &MinLabel, &PregelConfig::default(), &ctx).unwrap_err();
        assert_eq!(err, PlatformError::Timeout);
    }

    #[test]
    fn superstep_cap_stops_runaway_programs() {
        /// A program that never halts.
        struct Chatterbox;
        impl VertexProgram for Chatterbox {
            type State = ();
            type Message = ();
            fn init(&self, _v: Vid, _g: &CsrGraph) {}
            fn compute(&self, _state: &mut (), _messages: &[()], ctx: &mut ComputeContext<'_, ()>) {
                ctx.send_to_neighbors(());
            }
        }
        let g = graph(vec![(0, 1)]);
        let result = run(
            &g,
            &Chatterbox,
            &PregelConfig {
                max_supersteps: 5,
                ..Default::default()
            },
            &RunContext::unbounded(),
        )
        .unwrap();
        assert_eq!(result.stats.supersteps, 5);
    }

    #[test]
    fn injected_crash_recovers_from_checkpoint() {
        use graphalytics_core::faults::{FaultInjector, FaultPlan};

        let g = graph((0..50).map(|i| (i, (i * 7 + 1) % 50)).collect());
        let baseline = run(
            &g,
            &MinLabel,
            &PregelConfig::default(),
            &RunContext::unbounded(),
        )
        .unwrap();
        // Crash between checkpoints (checkpoints land at supersteps 0 and
        // 2; the crash hits at 3) so the restart re-executes a superstep.
        let plan = FaultPlan::seeded(1).force(FaultSite::PregelWorker {
            superstep: 3,
            worker: 0,
            incarnation: 0,
        });
        let injector = Arc::new(FaultInjector::new(plan));
        let ctx = RunContext::unbounded().with_faults(Arc::clone(&injector));
        let config = PregelConfig {
            checkpoint_interval: Some(2),
            ..Default::default()
        };
        let result = run(&g, &MinLabel, &config, &ctx).unwrap();
        assert_eq!(result.states, baseline.states);
        assert_eq!(injector.injected_count(), 1);
        assert_eq!(injector.recovery_count(), 1);
        // The re-executed superstep shows up as recovery overhead.
        assert!(result.stats.supersteps > baseline.stats.supersteps);
    }

    #[test]
    fn crash_without_checkpoint_escalates() {
        use graphalytics_core::faults::{FaultInjector, FaultPlan};

        let g = graph(vec![(0, 1), (1, 2)]);
        let plan = FaultPlan::seeded(1).force(FaultSite::PregelWorker {
            superstep: 0,
            worker: 0,
            incarnation: 0,
        });
        let ctx = RunContext::unbounded().with_faults(Arc::new(FaultInjector::new(plan)));
        let err = run(&g, &MinLabel, &PregelConfig::default(), &ctx).unwrap_err();
        assert_eq!(
            err,
            PlatformError::WorkerLost {
                worker: 0,
                superstep: 0
            }
        );
    }

    #[test]
    fn restart_budget_is_bounded() {
        use graphalytics_core::faults::{FaultInjector, FaultPlan};

        let g = graph(vec![(0, 1), (1, 2)]);
        // Crash worker 0 at superstep 0 for every incarnation: the engine
        // restores, re-crashes, and eventually escalates.
        let mut plan = FaultPlan::seeded(1);
        for incarnation in 0..=2 {
            plan = plan.force(FaultSite::PregelWorker {
                superstep: 0,
                worker: 0,
                incarnation,
            });
        }
        let injector = Arc::new(FaultInjector::new(plan));
        let ctx = RunContext::unbounded().with_faults(Arc::clone(&injector));
        let config = PregelConfig {
            checkpoint_interval: Some(1),
            max_restarts: 2,
            ..Default::default()
        };
        let err = run(&g, &MinLabel, &config, &ctx).unwrap_err();
        assert!(matches!(err, PlatformError::WorkerLost { .. }));
        assert_eq!(injector.injected_count(), 3);
        assert_eq!(injector.recovery_count(), 2);
    }

    #[test]
    fn skew_factor_sane() {
        let g = graph(vec![(0, 1), (1, 2), (3, 4)]);
        let result = run(
            &g,
            &MinLabel,
            &PregelConfig::default(),
            &RunContext::unbounded(),
        )
        .unwrap();
        let skew = result.stats.skew_factor(4);
        assert!(skew >= 1.0, "skew={skew}");
    }

    #[test]
    fn empty_graph_runs() {
        let g = graph(vec![]);
        let result = run(
            &g,
            &MinLabel,
            &PregelConfig::default(),
            &RunContext::unbounded(),
        )
        .unwrap();
        assert!(result.states.is_empty());
    }
}
