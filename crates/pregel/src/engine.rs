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
//! * workers own hash-partitioned vertex sets; vertex state and the inbox
//!   live with their worker (see [`crate::partition`]);
//! * per-superstep message exchange with an optional **combiner**;
//!   messages whose source and destination workers differ are counted as
//!   *network* messages (the "excessive network utilization" choke point);
//! * **vote-to-halt** semantics with reactivation on message receipt;
//! * a per-superstep f64 **aggregator** (sum), readable in the next
//!   superstep — Giraph's aggregator facility;
//! * cooperative deadlines checked at every barrier.

use graphalytics_codec::Codec;
use graphalytics_core::platform::{PlatformError, RunContext};
use graphalytics_core::trace::Tracer;
use graphalytics_graph::partition::{
    HashPartitioner, LdgPartitioner, Partitioner, RangePartitioner,
};
use graphalytics_graph::{CsrGraph, Vid};
use std::sync::Arc;
use std::time::Instant;

use crate::drive::{drive, Report, Step, Transport};
use crate::partition::{Partition, Placement, Route};

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
    /// The owning worker of every vertex.
    pub(crate) fn partition(&self, graph: &CsrGraph, workers: usize) -> Vec<u32> {
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
}

impl Default for PregelConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            memory_budget: None,
            partitioner: PartitionerKind::Hash,
            checkpoint_interval: None,
        }
    }
}

/// A message in an outbox, addressed by its destination vertex's position
/// in the destination worker's partition.
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
    /// Checkpoint restarts performed.
    pub restarts: u32,
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
    pub(crate) routes: &'a [Route],
    pub(crate) outboxes: &'a mut [Vec<Envelope<M>>],
    pub(crate) halt: bool,
    pub(crate) aggregate: f64,
}

impl<M> ComputeContext<'_, M> {
    /// Sends `msg` to vertex `to` (delivered next superstep): appended to
    /// the outbox for `to`'s worker, addressed by its local position.
    pub fn send(&mut self, to: Vid, msg: M) {
        let route = self.routes[to as usize];
        self.outboxes[route.worker as usize].push((route.local, msg));
    }

    /// Sends `msg` to every out-neighbor.
    pub fn send_to_neighbors(&mut self, msg: M)
    where
        M: Clone,
    {
        let graph = self.graph;
        if let Some((&last, rest)) = graph.neighbors(self.vertex).split_last() {
            for &u in rest {
                self.send(u, msg.clone());
            }
            self.send(last, msg);
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
    /// Message type. `Default` fills the inbox's unused slots.
    type Message: Clone + Default + Send + Sync + Codec;

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
/// messages in flight), [`MAX_SUPERSTEPS`](crate::MAX_SUPERSTEPS), or
/// deadline expiry: the [`drive`] loop over worker threads.
pub fn run<P: VertexProgram>(
    graph: &Arc<CsrGraph>,
    program: &P,
    config: &PregelConfig,
    ctx: &RunContext,
) -> Result<PregelResult<P::State>, PlatformError> {
    let workers = config.workers.max(1);
    if let Some(budget) = config.memory_budget {
        let need = estimated_footprint(program, graph, workers);
        if need > budget {
            return Err(PlatformError::OutOfMemory {
                required: need,
                budget,
            });
        }
    }
    // Every vertex starts active and a superstep that leaves nothing
    // runnable ends the run, so only an empty graph needs no superstep.
    if graph.num_vertices() == 0 {
        ctx.check_deadline()?;
        return Ok(PregelResult {
            states: Vec::new(),
            stats: PregelStats::default(),
        });
    }
    let placement = Placement::from_owner(&config.partitioner.partition(graph, workers), workers);
    // The outboxes are reserved here, on the calling thread, at an even
    // share of one message per arc: grown from empty inside the fan-out,
    // they sit in the worker threads' allocator arenas, which kept
    // PageRank's peak RSS at scale 13 on two workers ~4 MB higher.
    let share = graph.num_arcs() / (workers * workers);
    let mut threads = Threads {
        program,
        graph,
        routes: placement.routes(),
        parts: (0..workers)
            .map(|w| Partition::new(program, graph, placement.members(w)))
            .collect(),
        mail: (0..workers * workers)
            .map(|_| Vec::with_capacity(share))
            .collect(),
        checkpoint: None,
        tracer: ctx.tracer(),
    };
    drive(&mut threads, &placement, config.checkpoint_interval, ctx)
}

/// The in-process transport: one [`Partition`] per worker thread and the
/// outbox matrix between them. A superstep is one fan-out in which worker
/// `d` delivers the outboxes addressed to it, in sender-worker order, and
/// computes its vertices in place, its sends landing in its own outboxes.
/// The serial barrier after it only frees the messages just read, counts
/// each worker's sends and hands every outbox to its receiver.
struct Threads<'a, P: VertexProgram> {
    program: &'a P,
    graph: &'a CsrGraph,
    routes: &'a [Route],
    parts: Vec<Partition<P>>,
    /// The outbox matrix, `workers` rows of `workers` outboxes. Between
    /// supersteps row `d` holds what worker `d` receives, one outbox per
    /// sender. In the fan-out worker `d` empties row `d` into its inbox and
    /// refills it with its sends, one outbox per destination; the barrier
    /// transposes the matrix. The outboxes keep their capacity throughout.
    mail: Vec<Vec<Envelope<P::Message>>>,
    /// The last checkpoint, one encoded snapshot per partition, as the
    /// distributed workers write them.
    checkpoint: Option<Vec<Vec<u8>>>,
    tracer: &'a Tracer,
}

impl<P: VertexProgram> Threads<'_, P> {
    /// Delivers every inbox and snapshots every partition; returns the
    /// encoded bytes. The snapshot holds delivered messages, so the
    /// superstep's fan-out then skips delivery.
    fn checkpoint(&mut self, step: Step) -> usize {
        let workers = self.parts.len();
        for (part, row) in self.parts.iter_mut().zip(self.mail.chunks_mut(workers)) {
            part.deliver(row);
        }
        let snaps: Vec<Vec<u8>> = self
            .parts
            .iter()
            .map(|p| p.checkpoint(step.superstep, step.prev_aggregate))
            .collect();
        let bytes = snaps.iter().map(Vec::len).sum();
        self.checkpoint = Some(snaps);
        bytes
    }

    /// The fan-out and the barrier; one report per worker.
    fn compute(&mut self, step: Step) -> Result<Vec<Report>, PlatformError> {
        let workers = self.parts.len();
        let (tracer, program, graph, routes) = (self.tracer, self.program, self.graph, self.routes);
        let superstep = step.superstep as usize;
        // A panicking `compute` fails the run instead of unwinding out of it.
        let tasks = {
            let _compute = tracer.span("pregel.compute");
            graphalytics_parallel::try_map_each(
                self.parts.iter_mut().zip(self.mail.chunks_mut(workers)),
                |_, (part, outboxes)| {
                    let start = Instant::now();
                    if !step.checkpoint {
                        part.deliver(outboxes);
                    }
                    let read = Instant::now();
                    let done = part.compute(
                        program,
                        graph,
                        routes,
                        superstep,
                        step.prev_aggregate,
                        outboxes,
                    );
                    let deliver_ns = (read - start).as_nanos() as u64;
                    (done, deliver_ns, read.elapsed().as_nanos() as u64)
                },
            )
            .map_err(|payload| PlatformError::worker_panicked("pregel", payload))?
        };
        let _barrier = tracer.span("pregel.barrier");
        // Read messages are freed here, on the calling thread. Freed inside
        // the fan-out, LCC's neighbour-list messages have the allocator
        // return their pages, which the next run faults back in: ~30-57k
        // minor faults per LCC run at scale 13 on two workers, against ~0.
        self.parts.iter_mut().for_each(Partition::clear_inbox);
        let reports = tasks
            .into_iter()
            .zip(self.mail.chunks(workers))
            .enumerate()
            .map(|(w, ((done, deliver_ns, compute_ns), outboxes))| {
                let sent: usize = outboxes.iter().map(Vec::len).sum();
                Report {
                    computed: done.computed,
                    awake: done.awake,
                    sent,
                    sent_remote: sent - outboxes[w].len(),
                    aggregate: done.aggregate,
                    timing: Some((deliver_ns, compute_ns)),
                }
            })
            .collect();
        transpose(&mut self.mail, workers);
        Ok(reports)
    }
}

impl<P: VertexProgram> Transport for Threads<'_, P> {
    type State = P::State;
    const SUPERSTEP_SPAN: &'static str = "pregel.superstep";
    const TASK_EVENT: &'static str = "pregel.task";

    fn superstep(
        &mut self,
        step: Step,
        checkpointed: &mut Option<usize>,
    ) -> Result<(Vec<Report>, Option<u64>), PlatformError> {
        if step.checkpoint {
            *checkpointed = Some(self.checkpoint(step));
        }
        match step.crash {
            Some(worker) => Err(PlatformError::WorkerLost {
                worker,
                superstep: step.superstep as usize,
            }),
            None => Ok((self.compute(step)?, None)),
        }
    }

    fn restore(&mut self, superstep: u64, _incarnation: u32) -> Result<(), PlatformError> {
        let corrupt = || PlatformError::Internal("corrupt pregel checkpoint".to_string());
        let workers = self.parts.len();
        let snaps = self.checkpoint.as_ref().ok_or_else(corrupt)?;
        self.mail.iter_mut().for_each(Vec::clear);
        for (w, (part, bytes)) in self.parts.iter_mut().zip(snaps).enumerate() {
            if !part.restore(bytes, superstep, &mut self.mail[w * workers + w]) {
                return Err(corrupt());
            }
        }
        Ok(())
    }

    fn finish(&mut self) -> Result<Vec<Vec<P::State>>, PlatformError> {
        let parts = std::mem::take(&mut self.parts);
        Ok(parts.into_iter().map(Partition::into_states).collect())
    }
}

/// Swaps outbox `(s, d)` with `(d, s)` for every pair of workers: what
/// `s` sent to `d` becomes `d`'s input from `s`.
fn transpose<T>(matrix: &mut [T], side: usize) {
    for s in 0..side {
        for d in s + 1..side {
            matrix.swap(s * side + d, d * side + s);
        }
    }
}

/// Memory estimate for the budget check: the graph, what the engine keeps
/// per vertex (state, active flag, route, partition member), and the
/// message store, at one message per arc per superstep as the built-in
/// programs send: the inbox (a slot per vertex plus a presence bitmap
/// with a combiner, offsets plus a flat array without) and the outboxes.
/// Heap payloads nested inside states/messages (e.g. the LCC program's
/// shared neighbour lists) are not counted; the budget meters the
/// structural footprint.
fn estimated_footprint<P: VertexProgram>(program: &P, graph: &CsrGraph, workers: usize) -> usize {
    use std::mem::size_of;
    let (n, arcs) = (graph.num_vertices(), graph.num_arcs());
    let per_vertex =
        size_of::<P::State>() + size_of::<bool>() + size_of::<Route>() + size_of::<Vid>();
    let inbox = match program.combiner() {
        Some(_) => n * size_of::<P::Message>() + (n / 64 + workers) * size_of::<u64>(),
        None => (n + workers) * size_of::<usize>() + arcs * size_of::<P::Message>(),
    };
    let outboxes = arcs * size_of::<Envelope<P::Message>>();
    graph.memory_footprint() + n * per_vertex + inbox + outboxes
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
    fn superstep_children_nest_and_every_worker_reports_a_task() {
        use graphalytics_core::trace::{FieldValue, Tracer};

        let g = graph(vec![(0, 1), (1, 2), (2, 3), (3, 4), (5, 6)]);
        let tracer = std::sync::Arc::new(Tracer::new());
        let ctx = RunContext::unbounded().with_tracer(std::sync::Arc::clone(&tracer));
        let config = PregelConfig {
            workers: 3,
            ..Default::default()
        };
        let result = run(&g, &MinLabel, &config, &ctx).unwrap();
        let spans = tracer.finished_spans();
        let named = |name: &str| spans.iter().filter(|s| s.name == name).count();
        assert_eq!(named("pregel.superstep"), result.stats.supersteps);
        assert_eq!(named("pregel.compute"), result.stats.supersteps);
        assert_eq!(named("pregel.barrier"), result.stats.supersteps);
        assert_eq!(named("pregel.task"), 3 * result.stats.supersteps);
        for step in spans.iter().filter(|s| s.name == "pregel.superstep") {
            let child = |name: &str| {
                let mut found = spans
                    .iter()
                    .filter(|s| s.name == name && s.parent == Some(step.id));
                let only = found.next().expect("one child");
                assert!(found.next().is_none(), "{name} twice");
                only
            };
            let (compute, barrier) = (child("pregel.compute"), child("pregel.barrier"));
            // The fan-out, then the barrier, both inside the superstep.
            assert!(step.start_seconds <= compute.start_seconds);
            assert!(compute.end_seconds <= barrier.start_seconds);
            assert!(barrier.end_seconds <= step.end_seconds);
            let mut workers: Vec<i64> = spans
                .iter()
                .filter(|s| s.name == "pregel.task" && s.parent == Some(step.id))
                .map(|t| {
                    for key in ["deliver_ns", "compute_ns"] {
                        assert!(t.field(key).and_then(FieldValue::as_i64).is_some(), "{key}");
                    }
                    t.field("worker").and_then(FieldValue::as_i64).unwrap()
                })
                .collect();
            workers.sort_unstable();
            assert_eq!(workers, [0, 1, 2]);
        }
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

    /// Runs `program` with a budget equal to the estimate (it fits) and one
    /// byte under it (out of memory); returns the estimate.
    fn fits_at_the_estimate<P: VertexProgram>(program: &P, g: &Arc<CsrGraph>) -> usize {
        let need = estimated_footprint(program, g, 4);
        let config = |budget| PregelConfig {
            memory_budget: Some(budget),
            ..Default::default()
        };
        let ctx = RunContext::unbounded();
        assert!(run(g, program, &config(need), &ctx).is_ok());
        assert_eq!(
            run(g, program, &config(need - 1), &ctx).err(),
            Some(PlatformError::OutOfMemory {
                required: need,
                budget: need - 1
            })
        );
        need
    }

    #[test]
    fn budget_at_the_estimate_runs() {
        use std::mem::size_of;

        let g = graph((0..100).map(|i| (i, (i * 7 + 1) % 100)).collect());
        let (n, arcs) = (g.num_vertices(), g.num_arcs());
        // With a combiner: a slot per vertex and the outboxes are charged.
        let combined = fits_at_the_estimate(&MinLabel, &g);
        assert!(combined >= g.memory_footprint() + n * size_of::<u32>() + arcs * 8);
        // Without one: the flat inbox array and the outboxes.
        let lists = fits_at_the_estimate(&crate::programs::LccProgram, &g);
        type Message = crate::programs::LccMessage;
        let message = size_of::<Message>();
        assert!(lists >= g.memory_footprint() + arcs * (message + size_of::<Envelope<Message>>()));
    }

    #[test]
    fn deadline_aborts_run() {
        let g = graph((0..2000).map(|i| (i, i + 1)).collect());
        let ctx = RunContext::with_timeout(std::time::Duration::from_nanos(1));
        std::thread::sleep(std::time::Duration::from_millis(1));
        let err = run(&g, &MinLabel, &PregelConfig::default(), &ctx).unwrap_err();
        assert_eq!(err, PlatformError::Timeout);
    }

    /// One worker, so no thread starts per superstep.
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
                workers: 1,
                ..Default::default()
            },
            &RunContext::unbounded(),
        )
        .unwrap();
        assert_eq!(result.stats.supersteps, crate::MAX_SUPERSTEPS);
    }

    #[test]
    fn injected_crash_recovers_from_checkpoint() {
        use graphalytics_core::faults::{FaultInjector, FaultPlan, FaultSite};

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
        use graphalytics_core::faults::{FaultInjector, FaultPlan, FaultSite};

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
        use graphalytics_core::faults::{FaultInjector, FaultPlan, FaultSite};

        let g = graph(vec![(0, 1), (1, 2)]);
        // Crash worker 0 at superstep 0 for every incarnation: the engine
        // restores, re-crashes, and eventually escalates.
        let mut plan = FaultPlan::seeded(1);
        for incarnation in 0..=crate::MAX_RESTARTS {
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
            ..Default::default()
        };
        let err = run(&g, &MinLabel, &config, &ctx).unwrap_err();
        assert!(matches!(err, PlatformError::WorkerLost { .. }));
        let restarts = crate::MAX_RESTARTS as usize;
        assert_eq!(
            (injector.injected_count(), injector.recovery_count()),
            (restarts + 1, restarts)
        );
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
