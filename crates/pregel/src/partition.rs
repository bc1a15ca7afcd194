//! The partition-local message store, one type for both Pregel runtimes:
//! the in-process engine's worker threads and `gx-distrib-worker`
//! processes each own one [`Partition`].
//!
//! A partition holds its vertices (ascending internal ids), their states
//! and active flags, and the inbox of those vertices only, indexed by
//! local position. Messages are bucketed when they are sent:
//! [`ComputeContext::send`] appends `(local position, message)` to the
//! sender's outbox for the destination worker, found through the
//! [`Placement`]'s route table. A superstep is then, per worker,
//! [`Partition::deliver`] of the outboxes addressed to it followed by
//! [`Partition::compute`], which reads the inbox in place and fills the
//! worker's own outboxes for the next superstep.
//!
//! **Delivery order.** A worker's outboxes are delivered in sender-worker
//! order, each in generation order. Combiner folds and the message lists a
//! vertex sees therefore follow one fixed order, whatever the thread or
//! process schedule, and it is the same order in both runtimes: this is
//! what makes a distributed run's bits equal the in-process engine's.

use graphalytics_core::faults::Snapshot;
use graphalytics_graph::{CsrGraph, Vid};

use crate::engine::{ComputeContext, Envelope, MessageCombiner, PartitionerKind, VertexProgram};

/// Where a vertex lives: its worker and its position in that worker's
/// partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    /// Owning worker.
    pub(crate) worker: u32,
    /// Position among the worker's vertices (ascending internal ids).
    pub(crate) local: u32,
}

/// The placement of every vertex on a fixed number of workers: a route
/// per vertex and, per worker, its vertices in ascending internal-id order
/// (the compute order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    routes: Vec<Route>,
    members: Vec<Vec<Vid>>,
}

impl Placement {
    /// Giraph's default placement: the hash of the external vertex id.
    /// A pure function of the graph and the worker count, so every
    /// distributed worker and the master compute it alike.
    pub fn new(graph: &CsrGraph, workers: usize) -> Self {
        let workers = workers.max(1);
        Self::from_owner(&PartitionerKind::Hash.partition(graph, workers), workers)
    }

    /// The placement given an owner per vertex (`owner[v] < workers`).
    pub(crate) fn from_owner(owner: &[u32], workers: usize) -> Self {
        let mut members: Vec<Vec<Vid>> = vec![Vec::new(); workers.max(1)];
        let routes = owner
            .iter()
            .enumerate()
            .map(|(v, &w)| {
                let mine = &mut members[w as usize];
                mine.push(v as Vid);
                Route {
                    worker: w,
                    local: (mine.len() - 1) as u32,
                }
            })
            .collect();
        Self { routes, members }
    }

    /// Worker count.
    pub fn workers(&self) -> usize {
        self.members.len()
    }

    /// Route per vertex, indexed by internal id.
    pub fn routes(&self) -> &[Route] {
        &self.routes
    }

    /// The vertices of `worker`, ascending.
    pub fn members(&self, worker: usize) -> &[Vid] {
        &self.members[worker]
    }

    /// Reassembles per-worker vectors (each in its worker's local order)
    /// into one vector indexed by internal id. `None` when a vector's
    /// length does not match its partition.
    pub fn merge<S>(&self, per_worker: Vec<Vec<S>>) -> Option<Vec<S>> {
        if per_worker.len() != self.members.len()
            || per_worker
                .iter()
                .zip(&self.members)
                .any(|(part, members)| part.len() != members.len())
        {
            return None;
        }
        let mut parts: Vec<_> = per_worker.into_iter().map(Vec::into_iter).collect();
        self.routes
            .iter()
            .map(|r| parts[r.worker as usize].next())
            .collect()
    }
}

/// A partition's pending messages, indexed by local position.
enum Inbox<M> {
    /// With a combiner: one slot per vertex, holding a message where the
    /// vertex's bit in `present` is set.
    Combined {
        combine: MessageCombiner<M>,
        slots: Vec<M>,
        present: Vec<u64>,
    },
    /// Without one: vertex `i`'s messages are
    /// `flat[offsets[i]..offsets[i + 1]]`. An empty `flat` is an empty
    /// inbox, whatever `offsets` holds.
    Lists { offsets: Vec<usize>, flat: Vec<M> },
}

impl<M: Default + Clone> Inbox<M> {
    /// An empty inbox for `len` vertices; without a combiner its flat
    /// array reserves room for `arcs` messages.
    fn new(len: usize, arcs: usize, combiner: Option<MessageCombiner<M>>) -> Self {
        match combiner {
            Some(combine) => Inbox::Combined {
                combine,
                slots: vec![M::default(); len],
                present: vec![0; len.div_ceil(64)],
            },
            None => Inbox::Lists {
                offsets: vec![0; len + 1],
                flat: Vec::with_capacity(arcs),
            },
        }
    }

    fn messages(&self, i: usize) -> &[M] {
        match self {
            Inbox::Combined { slots, present, .. } if present[i / 64] >> (i % 64) & 1 == 1 => {
                std::slice::from_ref(&slots[i])
            }
            Inbox::Lists { offsets, flat } if !flat.is_empty() => &flat[offsets[i]..offsets[i + 1]],
            _ => &[],
        }
    }

    fn clear(&mut self) {
        match self {
            Inbox::Combined { present, .. } => present.fill(0),
            Inbox::Lists { flat, .. } => flat.clear(),
        }
    }

    /// Replaces the inbox with every message of `outboxes`, first outbox
    /// first, each in its own order, and leaves the outboxes empty with
    /// their capacity.
    fn fill(&mut self, outboxes: &mut [Vec<Envelope<M>>]) {
        self.clear();
        match self {
            Inbox::Combined {
                combine,
                slots,
                present,
            } => {
                for outbox in outboxes {
                    for (local, msg) in outbox.drain(..) {
                        let i = local as usize;
                        let (word, bit) = (i / 64, 1u64 << (i % 64));
                        if present[word] & bit != 0 {
                            combine(&mut slots[i], msg);
                        } else {
                            slots[i] = msg;
                            present[word] |= bit;
                        }
                    }
                }
            }
            Inbox::Lists { offsets, flat } => {
                let total: usize = outboxes.iter().map(Vec::len).sum();
                if total == 0 {
                    return;
                }
                // Count pass: `offsets[i]` ends up at the end of vertex i's
                // run (inclusive prefix sum); `offsets[len]` is the total.
                offsets.fill(0);
                for outbox in outboxes.iter() {
                    for &(local, _) in outbox {
                        offsets[local as usize] += 1;
                    }
                }
                let mut end = 0;
                for o in offsets.iter_mut() {
                    end += *o;
                    *o = end;
                }
                // Place pass, back to front: each vertex's run fills from
                // its end, so the run keeps outbox order and `offsets[i]`
                // finishes at the run's start.
                flat.resize_with(total, M::default);
                for outbox in outboxes.iter_mut().rev() {
                    while let Some((local, msg)) = outbox.pop() {
                        let at = &mut offsets[local as usize];
                        *at -= 1;
                        flat[*at] = msg;
                    }
                }
            }
        }
    }
}

/// What one [`Partition::compute`] call did.
#[derive(Debug, Clone, Copy, Default)]
pub struct Computed {
    /// Vertices computed (runnable: active or with messages).
    pub computed: usize,
    /// Computed vertices that did not vote to halt.
    pub awake: usize,
    /// Sum of the aggregator contributions, in compute order.
    pub aggregate: f64,
}

/// One worker's share of a Pregel computation: its vertices, their states
/// and active flags, and their inbox.
pub struct Partition<P: VertexProgram> {
    vertices: Vec<Vid>,
    states: Vec<P::State>,
    active: Vec<bool>,
    inbox: Inbox<P::Message>,
}

impl<P: VertexProgram> Partition<P> {
    /// The initial partition of `vertices` (ascending internal ids): every
    /// vertex active, no messages. The inbox is allocated here, on the
    /// caller's thread, sized for one message per arc of the partition.
    pub fn new(program: &P, graph: &CsrGraph, vertices: &[Vid]) -> Self {
        let arcs = vertices.iter().map(|&v| graph.degree(v)).sum();
        Self {
            vertices: vertices.to_vec(),
            states: vertices.iter().map(|&v| program.init(v, graph)).collect(),
            active: vec![true; vertices.len()],
            inbox: Inbox::new(vertices.len(), arcs, program.combiner()),
        }
    }

    /// Takes the states out, in local order.
    pub fn into_states(self) -> Vec<P::State> {
        self.states
    }

    /// Vertices that would compute now: active or with a pending message.
    pub fn runnable(&self) -> usize {
        (0..self.vertices.len())
            .filter(|&i| self.active[i] || !self.inbox.messages(i).is_empty())
            .count()
    }

    /// Replaces the inbox with the messages addressed to this partition,
    /// one outbox per sending worker in worker order, and leaves the
    /// outboxes empty (and allocated) for this worker's own sends.
    pub fn deliver(&mut self, outboxes: &mut [Vec<Envelope<P::Message>>]) {
        self.inbox.fill(outboxes);
    }

    /// Drops the inbox's messages. [`deliver`](Self::deliver) does so
    /// too; this lets the caller choose the thread that frees them.
    pub(crate) fn clear_inbox(&mut self) {
        self.inbox.clear();
    }

    /// Runs `program` on every runnable vertex in local order, reading the
    /// inbox in place. Sends land in `outboxes`, one per destination
    /// worker. The inbox is left as it was.
    pub fn compute(
        &mut self,
        program: &P,
        graph: &CsrGraph,
        routes: &[Route],
        superstep: usize,
        prev_aggregate: f64,
        outboxes: &mut [Vec<Envelope<P::Message>>],
    ) -> Computed {
        let mut ctx = ComputeContext {
            superstep,
            vertex: 0,
            graph,
            prev_aggregate,
            routes,
            outboxes,
            halt: false,
            aggregate: 0.0,
        };
        let mut done = Computed::default();
        for (i, &v) in self.vertices.iter().enumerate() {
            let messages = self.inbox.messages(i);
            if !self.active[i] && messages.is_empty() {
                continue;
            }
            (ctx.vertex, ctx.halt, ctx.aggregate) = (v, false, 0.0);
            program.compute(&mut self.states[i], messages, &mut ctx);
            self.active[i] = !ctx.halt;
            done.computed += 1;
            done.awake += usize::from(!ctx.halt);
            done.aggregate += ctx.aggregate;
        }
        done
    }

    /// This partition's checkpoint: its states, pending messages and
    /// active flags in local order, with `superstep` and `aggregate`, in
    /// the [`Snapshot`] encoding.
    pub fn checkpoint(&self, superstep: u64, aggregate: f64) -> Vec<u8> {
        Snapshot {
            superstep,
            states: self.states.clone(),
            inbox: (0..self.vertices.len())
                .map(|i| self.inbox.messages(i).to_vec())
                .collect(),
            active: self.active.clone(),
            aggregate,
        }
        .encode()
    }

    /// Restores a [`checkpoint`](Self::checkpoint) of this partition taken
    /// at `superstep`: the states and flags, and its pending messages
    /// appended to `outbox`, as if this worker had sent them to itself, so
    /// delivering puts them back. `false`, with the partition and `outbox`
    /// unchanged, when the bytes do not decode, or name another superstep
    /// or another vertex count.
    pub fn restore(
        &mut self,
        bytes: &[u8],
        superstep: u64,
        outbox: &mut Vec<Envelope<P::Message>>,
    ) -> bool {
        let Some(snap) = Snapshot::<P::State, P::Message>::decode(bytes) else {
            return false;
        };
        let lens = [snap.states.len(), snap.active.len(), snap.inbox.len()];
        if snap.superstep != superstep || lens != [self.vertices.len(); 3] {
            return false;
        }
        self.states = snap.states;
        self.active = snap.active;
        self.inbox.clear();
        for (i, messages) in snap.inbox.into_iter().enumerate() {
            outbox.extend(messages.into_iter().map(|m| (i as Vid, m)));
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_routes_and_merges() {
        let owner = [1u32, 0, 1, 2, 0, 1];
        let p = Placement::from_owner(&owner, 3);
        assert_eq!(p.members(0), &[1, 4]);
        assert_eq!(p.members(1), &[0, 2, 5]);
        assert_eq!(p.members(2), &[3]);
        assert_eq!(
            p.routes()[5],
            Route {
                worker: 1,
                local: 2
            }
        );
        let parts = vec![vec![10, 40], vec![0, 20, 50], vec![30]];
        let global: Vec<u32> = (0..6).map(|v| v * 10).collect();
        assert_eq!(p.merge(parts.clone()), Some(global));
        assert_eq!(p.merge(parts[..2].to_vec()), None);
        let mut short = parts;
        short[1].pop();
        assert_eq!(p.merge(short), None);
    }

    #[test]
    fn hash_placement_is_deterministic_and_total() {
        let edges = (0..60u64).map(|i| (i * 3, i * 3 + 5)).collect();
        let graph = CsrGraph::from_edge_list(
            &graphalytics_graph::EdgeListGraph::undirected_from_edges(edges),
        );
        let one = Placement::new(&graph, 1);
        assert_eq!(one.members(0).len(), graph.num_vertices());
        let p = Placement::new(&graph, 4);
        assert_eq!(p, Placement::new(&graph, 4));
        assert_eq!(p.routes().len(), graph.num_vertices());
        let total: usize = (0..4).map(|w| p.members(w).len()).sum();
        assert_eq!(total, graph.num_vertices());
        for w in 0..4 {
            let members = p.members(w);
            assert!(members.windows(2).all(|m| m[0] < m[1]));
            for (i, &v) in members.iter().enumerate() {
                let back = Route {
                    worker: w as u32,
                    local: i as u32,
                };
                assert_eq!(p.routes()[v as usize], back);
            }
        }
    }

    #[test]
    fn lists_keep_outbox_then_generation_order() {
        let mut inbox: Inbox<u32> = Inbox::new(3, 0, None);
        let mut outboxes = vec![
            vec![(2, 10), (0, 11), (2, 12)],
            vec![],
            vec![(2, 30), (1, 31)],
        ];
        inbox.fill(&mut outboxes);
        assert!(outboxes.iter().all(Vec::is_empty));
        assert_eq!(inbox.messages(0), &[11]);
        assert_eq!(inbox.messages(1), &[31]);
        assert_eq!(inbox.messages(2), &[10, 12, 30]);
        inbox.fill(&mut [vec![(1, 40)]]);
        assert_eq!(inbox.messages(1), &[40]);
        assert!(inbox.messages(2).is_empty());
        inbox.fill(&mut [vec![]]);
        assert!((0..3).all(|i| inbox.messages(i).is_empty()));
    }

    #[test]
    fn combined_slots_fold_in_delivery_order() {
        // A non-commutative fold shows the order: acc = acc * 10 + m.
        let mut inbox: Inbox<u32> = Inbox::new(70, 0, Some(|acc, m| *acc = *acc * 10 + m));
        let mut outboxes = vec![vec![(69, 1), (3, 7)], vec![(69, 2)], vec![(69, 3)]];
        inbox.fill(&mut outboxes);
        assert_eq!(inbox.messages(69), &[123]);
        assert_eq!(inbox.messages(3), &[7]);
        assert!(inbox.messages(4).is_empty());
        inbox.fill(&mut [vec![(4, 5)]]);
        assert_eq!(inbox.messages(4), &[5]);
        assert!(inbox.messages(69).is_empty());
    }
}
