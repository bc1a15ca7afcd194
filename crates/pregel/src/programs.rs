//! The Graphalytics workload expressed as Pregel vertex programs, and the
//! one [`dispatch`] from an [`Algorithm`] to its program.

use std::sync::Arc;

use crate::engine::{ComputeContext, VertexProgram};
use graphalytics_algos::{cd, stats, Algorithm, Output};
use graphalytics_graph::{metrics, CsrGraph, Vid};

/// What an engine does with a kernel's vertex program: the in-process
/// engine runs it on its worker threads, the distributed master coordinates
/// a fleet over its state type, a worker process enters its superstep loop.
pub trait ProgramVisitor {
    /// What a visit yields.
    type Out;

    /// Receives the program of the dispatched kernel; `output` turns the
    /// final states, in internal-id order, into the kernel's [`Output`].
    fn visit<P: VertexProgram>(
        self,
        program: &P,
        output: fn(&CsrGraph, Vec<P::State>) -> Output,
    ) -> Self::Out;
}

/// The one place an [`Algorithm`] becomes a vertex program and its final
/// states become an [`Output`]: [`crate::GiraphPlatform`], the distributed
/// master and the distributed worker all come through here, so the three
/// cannot disagree on a kernel's program or parameters. `None` for EVO,
/// which has no vertex program — the coordinator walks the fires itself.
pub fn dispatch<V: ProgramVisitor>(
    algorithm: &Algorithm,
    graph: &CsrGraph,
    visitor: V,
) -> Option<V::Out> {
    Some(match *algorithm {
        Algorithm::Stats => visitor.visit(&LccProgram, |g, triangles| {
            let coefficients = metrics::coefficients(&triangles, g.degrees());
            Output::Stats(stats::from_coefficients(g.num_edges(), &coefficients))
        }),
        Algorithm::Lcc => visitor.visit(&LccProgram, |g, triangles| {
            Output::LocalClustering(metrics::coefficients(&triangles, g.degrees()))
        }),
        Algorithm::Bfs { source } => {
            let source = graph.internal_id(source);
            visitor.visit(&BfsProgram { source }, |_, s| Output::Depths(s))
        }
        Algorithm::Sssp { source } => {
            let source = graph.internal_id(source);
            visitor.visit(&SsspProgram { source }, |_, s| Output::Distances(s))
        }
        Algorithm::Conn => visitor.visit(&ConnProgram, |_, s| Output::Components(s)),
        Algorithm::Cd {
            iterations,
            hop_attenuation,
            degree_exponent,
        } => visitor.visit(
            &CdProgram {
                iterations,
                hop_attenuation,
                degree_exponent,
            },
            |_, states| Output::Communities(states.iter().map(|s| s.label).collect()),
        ),
        Algorithm::PageRank {
            iterations,
            damping,
        } => visitor.visit(
            &PageRankProgram {
                iterations,
                damping,
            },
            |_, s| Output::Ranks(s),
        ),
        Algorithm::Evo { .. } => return None,
    })
}

/// BFS: depths propagate level by level; the superstep number *is* the
/// depth, which is why BFS is the canonical Pregel program.
pub struct BfsProgram {
    /// Internal id of the seed vertex; `None` when the seed is absent from
    /// the graph (all vertices stay unreached).
    pub source: Option<Vid>,
}

impl VertexProgram for BfsProgram {
    type State = i64;
    type Message = i64;

    fn init(&self, _vertex: Vid, _graph: &CsrGraph) -> i64 {
        -1
    }

    fn compute(&self, state: &mut i64, messages: &[i64], ctx: &mut ComputeContext<'_, i64>) {
        if ctx.superstep == 0 {
            if Some(ctx.vertex) == self.source {
                *state = 0;
                ctx.send_to_neighbors(1);
            }
        } else if *state < 0 {
            if let Some(&depth) = messages.iter().min_by_key(|&&d| d) {
                *state = depth;
                ctx.send_to_neighbors(depth + 1);
            }
        }
        ctx.vote_to_halt();
    }

    fn combiner(&self) -> Option<fn(&mut i64, i64)> {
        Some(|acc, m| *acc = (*acc).min(m))
    }
}

/// SSSP: Bellman-Ford-style relaxation in supersteps. Every vertex keeps
/// its tentative fixed-point distance; whenever a message improves it, the
/// vertex relaxes all out-edges with their weights. Message receipt
/// reactivates halted vertices, so the run converges exactly when no
/// distance can improve — the unique integer shortest-path fixpoint.
pub struct SsspProgram {
    /// Internal id of the seed vertex; `None` when the seed is absent from
    /// the graph (every vertex stays at infinity).
    pub source: Option<Vid>,
}

impl SsspProgram {
    fn relax(state: u64, ctx: &mut ComputeContext<'_, u64>) {
        let graph = ctx.graph;
        let v = ctx.vertex;
        for (&u, &w) in graph.neighbors(v).iter().zip(graph.neighbor_weights(v)) {
            ctx.send(u, state.saturating_add(w));
        }
    }
}

impl VertexProgram for SsspProgram {
    type State = u64;
    type Message = u64;

    fn init(&self, _vertex: Vid, _graph: &CsrGraph) -> u64 {
        graphalytics_algos::INFINITY
    }

    fn compute(&self, state: &mut u64, messages: &[u64], ctx: &mut ComputeContext<'_, u64>) {
        if ctx.superstep == 0 {
            if Some(ctx.vertex) == self.source {
                *state = 0;
                Self::relax(0, ctx);
            }
        } else if let Some(&best) = messages.iter().min() {
            if best < *state {
                *state = best;
                Self::relax(best, ctx);
            }
        }
        ctx.vote_to_halt();
    }

    fn combiner(&self) -> Option<fn(&mut u64, u64)> {
        Some(|acc, m| *acc = (*acc).min(m))
    }
}

/// LCC, and the clustering half of STATS (which averages it), on the
/// degree-oriented adjacency `N⁺` of `graph::metrics`; a state is its
/// vertex's triangle count. Superstep 0: `v` sends `N⁺(v)`, one shared
/// allocation, to every `u ∈ N⁺(v)`. Superstep 1: `u` merges each list
/// with `N⁺(u)`; each common `w` is a triangle `(v, u, w)`, which `u`
/// credits to itself and, summed per target, to `v` and `w` in one message
/// each. Superstep 2: credits are added. The lists still cross the wire,
/// so LCC keeps its network choke point, but only along oriented arcs:
/// Σ |N⁺(v)|² ids instead of Σ deg(v)².
pub struct LccProgram;

/// A message of [`LccProgram`].
#[derive(Debug, Clone, PartialEq)]
pub enum LccMessage {
    /// The oriented list `N⁺(from)`.
    List(Vid, Arc<[Vid]>),
    /// Triangles credited to the receiver.
    Credit(usize),
}

impl Default for LccMessage {
    fn default() -> Self {
        LccMessage::Credit(0)
    }
}

graphalytics_codec::layout!(enum LccMessage { 0 => List(from, ids), 1 => Credit(count) });

/// `N⁺(v)`, sorted.
fn oriented(graph: &CsrGraph, v: Vid) -> Vec<Vid> {
    let d = graph.degree(v);
    let keep = |&&u: &&Vid| metrics::outranks(graph.degree(u), u, d, v);
    graph.neighbors(v).iter().filter(keep).copied().collect()
}

impl VertexProgram for LccProgram {
    type State = usize;
    type Message = LccMessage;

    fn init(&self, _vertex: Vid, _graph: &CsrGraph) -> usize {
        0
    }

    fn compute(
        &self,
        state: &mut usize,
        messages: &[LccMessage],
        ctx: &mut ComputeContext<'_, LccMessage>,
    ) {
        let (graph, me) = (ctx.graph, ctx.vertex);
        if ctx.superstep == 0 {
            // A list of one id closes no triangle at its receiver.
            let mine: Arc<[Vid]> = oriented(graph, me).into();
            if mine.len() >= 2 {
                for &u in mine.iter() {
                    ctx.send(u, LccMessage::List(me, Arc::clone(&mine)));
                }
            }
        } else {
            // The lists arrive in superstep 1, the credits in superstep 2.
            let mine = if ctx.superstep == 1 {
                oriented(graph, me)
            } else {
                Vec::new()
            };
            let mut per_w = vec![0; mine.len()];
            for message in messages {
                match message {
                    LccMessage::Credit(count) => *state += count,
                    LccMessage::List(from, theirs) => {
                        let hits = metrics::credit_members(theirs, &mine, &mut per_w);
                        if hits > 0 {
                            *state += hits;
                            ctx.send(*from, LccMessage::Credit(hits));
                        }
                    }
                }
            }
            for (&w, &count) in mine.iter().zip(&per_w).filter(|&(_, &c)| c > 0) {
                ctx.send(w, LccMessage::Credit(count));
            }
        }
        ctx.vote_to_halt();
    }
}

/// CONN: HashMin label propagation — every vertex repeatedly adopts the
/// minimum label among itself and its neighbors. Converges to the minimum
/// internal id per component, which is the canonical CONN labeling.
pub struct ConnProgram;

impl VertexProgram for ConnProgram {
    type State = u32;
    type Message = u32;

    fn init(&self, vertex: Vid, _graph: &CsrGraph) -> u32 {
        vertex
    }

    fn compute(&self, state: &mut u32, messages: &[u32], ctx: &mut ComputeContext<'_, u32>) {
        let incoming = messages.iter().copied().min().unwrap_or(*state);
        let best = incoming.min(*state);
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

/// CD: the deterministic Leung label-propagation spec (see
/// `graphalytics_algos::cd`) in message-passing form. Messages carry
/// `(label, score, influence)`; the update rule and tie-breaks are
/// identical to the reference, so outputs compare exactly.
pub struct CdProgram {
    /// Propagation rounds.
    pub iterations: usize,
    /// Hop attenuation δ.
    pub hop_attenuation: f64,
    /// Degree exponent m.
    pub degree_exponent: f64,
}

/// CD vertex state: current label and score.
#[derive(Debug, Clone, Copy)]
pub struct CdState {
    /// Current community label.
    pub label: u32,
    /// Current label score (attenuates as labels travel).
    pub score: f64,
}

graphalytics_codec::layout!(struct CdState { label, score });

impl VertexProgram for CdProgram {
    type State = CdState;
    type Message = (u32, f64, f64); // (label, score, influence)

    fn init(&self, vertex: Vid, _graph: &CsrGraph) -> CdState {
        CdState {
            label: vertex,
            score: 1.0,
        }
    }

    fn compute(
        &self,
        state: &mut CdState,
        messages: &[(u32, f64, f64)],
        ctx: &mut ComputeContext<'_, (u32, f64, f64)>,
    ) {
        if self.iterations == 0 {
            ctx.vote_to_halt();
            return;
        }
        if ctx.superstep == 0 {
            // Broadcast the initial label.
            let influence = cd::influence(state.score, ctx.degree(), self.degree_exponent);
            ctx.send_to_neighbors((state.label, state.score, influence));
            return;
        }
        // Early convergence, exactly like the reference: when the previous
        // round changed no label anywhere (aggregate 0), stop before
        // applying another round.
        if ctx.superstep >= 2 && ctx.prev_aggregate == 0.0 {
            ctx.vote_to_halt();
            return;
        }
        // Aggregate per label: influence contributions and max score.
        let mut weight = cd::LabelWeights::default();
        for &(label, score, influence) in messages {
            cd::add_vote(&mut weight, label, score, influence);
        }
        let own = (state.label, state.score);
        let (label, score, adopted) = cd::adopt_or_keep(own, &mut weight, self.hop_attenuation);
        *state = CdState { label, score };
        if adopted {
            ctx.aggregate(1.0); // A label changed somewhere this round.
        }
        if ctx.superstep < self.iterations {
            let influence = cd::influence(state.score, ctx.degree(), self.degree_exponent);
            ctx.send_to_neighbors((state.label, state.score, influence));
        } else {
            ctx.vote_to_halt();
        }
    }
}

/// PageRank in BSP form with a sum combiner; dangling mass is collected via
/// the aggregator and redistributed the next superstep, matching the
/// reference implementation step for step.
pub struct PageRankProgram {
    /// Power-iteration count.
    pub iterations: usize,
    /// Damping factor.
    pub damping: f64,
}

impl VertexProgram for PageRankProgram {
    type State = f64;
    type Message = f64;

    fn init(&self, _vertex: Vid, graph: &CsrGraph) -> f64 {
        1.0 / graph.num_vertices().max(1) as f64
    }

    fn compute(&self, state: &mut f64, messages: &[f64], ctx: &mut ComputeContext<'_, f64>) {
        let n = ctx.graph.num_vertices() as f64;
        if ctx.superstep > 0 {
            let received: f64 = messages.iter().sum();
            let base = (1.0 - self.damping) / n + self.damping * ctx.prev_aggregate / n;
            *state = base + self.damping * received;
        }
        if ctx.superstep < self.iterations {
            let out = ctx.degree();
            if out == 0 {
                ctx.aggregate(*state); // Dangling mass.
            } else {
                ctx.send_to_neighbors(*state / out as f64);
            }
        } else {
            ctx.vote_to_halt();
        }
    }

    fn combiner(&self) -> Option<fn(&mut f64, f64)> {
        Some(|acc, m| *acc += m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run, PregelConfig};
    use graphalytics_core::platform::RunContext;
    use graphalytics_graph::EdgeListGraph;
    use std::sync::Arc;

    fn graph(edges: Vec<(u64, u64)>) -> Arc<CsrGraph> {
        Arc::new(CsrGraph::from_edge_list(
            &EdgeListGraph::undirected_from_edges(edges),
        ))
    }

    fn run_default<P: VertexProgram>(g: &Arc<CsrGraph>, p: &P) -> Vec<P::State> {
        run(g, p, &PregelConfig::default(), &RunContext::unbounded())
            .unwrap()
            .states
    }

    #[test]
    fn bfs_program_matches_reference() {
        let g = graph(vec![(0, 1), (1, 2), (2, 3), (4, 5)]);
        let depths = run_default(&g, &BfsProgram { source: Some(0) });
        assert_eq!(depths, graphalytics_algos::bfs::bfs(&g, 0));
    }

    #[test]
    fn bfs_without_source_reaches_nothing() {
        let g = graph(vec![(0, 1)]);
        let depths = run_default(&g, &BfsProgram { source: None });
        assert_eq!(depths, vec![-1, -1]);
    }

    #[test]
    fn sssp_program_matches_reference() {
        let g = Arc::new(CsrGraph::from_edge_list(&EdgeListGraph::new_weighted(
            Vec::new(),
            vec![
                (0, 1, 2_000_000),
                (1, 2, 500_000),
                (0, 2, 4_000_000),
                (2, 3, 1_500_000),
                (4, 5, 1_000_000),
            ],
            false,
        )));
        let dists = run_default(
            &g,
            &SsspProgram {
                source: g.internal_id(0),
            },
        );
        assert_eq!(dists, graphalytics_algos::sssp::sssp(&g, 0));
        assert_eq!(dists[4], graphalytics_algos::INFINITY);
    }

    #[test]
    fn sssp_without_source_reaches_nothing() {
        let g = graph(vec![(0, 1)]);
        let dists = run_default(&g, &SsspProgram { source: None });
        assert_eq!(
            dists,
            vec![graphalytics_algos::INFINITY, graphalytics_algos::INFINITY]
        );
    }

    #[test]
    fn lcc_program_matches_reference() {
        let g = graph(vec![(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (1, 3)]);
        let triangles = run_default(&g, &LccProgram);
        assert_eq!(triangles, metrics::triangles_per_vertex(&g, 1));
        assert_eq!(
            metrics::coefficients(&triangles, g.degrees()),
            graphalytics_algos::lcc::local_clustering(&g)
        );
    }

    /// The Shuffle payload of an LCC superstep: a tag byte, then the
    /// sender and its list as a `Vec` travels, or the credit.
    #[test]
    fn lcc_message_layout_is_pinned() {
        use graphalytics_codec::Codec;
        let encoded = |m: LccMessage| {
            let mut out = Vec::new();
            m.encode_into(&mut out);
            out
        };
        let list = LccMessage::List(3, vec![5, 9].into());
        let mut want = vec![0u8, 3, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0];
        want.extend([5, 0, 0, 0, 9, 0, 0, 0]);
        assert_eq!(encoded(list.clone()), want);
        assert_eq!(encoded(LccMessage::Credit(2)), [1, 2, 0, 0, 0, 0, 0, 0, 0]);
        let mut pos = 0;
        assert_eq!(LccMessage::decode_from(&want, &mut pos), Some(list));
    }

    #[test]
    fn conn_program_matches_reference() {
        let g = graph(vec![(0, 1), (2, 3), (3, 4), (5, 6), (6, 0)]);
        let labels = run_default(&g, &ConnProgram);
        assert_eq!(labels, graphalytics_algos::conn::connected_components(&g));
    }

    #[test]
    fn cd_program_matches_reference() {
        // Two cliques with a bridge — and an asymmetric tail.
        let mut edges = Vec::new();
        for base in [0u64, 6] {
            for i in 0..6 {
                for j in (i + 1)..6 {
                    edges.push((base + i, base + j));
                }
            }
        }
        edges.push((5, 6));
        edges.push((11, 12));
        edges.push((12, 13));
        let g = graph(edges);
        let program = CdProgram {
            iterations: 10,
            hop_attenuation: 0.05,
            degree_exponent: 0.1,
        };
        let states = run_default(&g, &program);
        let labels: Vec<u32> = states.iter().map(|s| s.label).collect();
        let expected = graphalytics_algos::cd::community_detection(&g, 10, 0.05, 0.1);
        assert_eq!(labels, expected);
    }

    #[test]
    fn stats_program_matches_reference_lcc() {
        let g = graph(vec![(0, 1), (1, 2), (0, 2), (0, 3), (3, 4)]);
        let lccs = metrics::coefficients(&run_default(&g, &LccProgram), g.degrees());
        let mean = lccs.iter().sum::<f64>() / lccs.len() as f64;
        let expected = graphalytics_algos::stats::stats(&g).mean_local_cc;
        assert!(
            (mean - expected).abs() < 1e-12,
            "mean={mean} expected={expected}"
        );
    }

    #[test]
    fn pagerank_program_matches_reference() {
        let g = graph(vec![(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        let ranks = run_default(
            &g,
            &PageRankProgram {
                iterations: 20,
                damping: 0.85,
            },
        );
        let expected = graphalytics_algos::pagerank::pagerank(&g, 20, 0.85);
        for (a, b) in ranks.iter().zip(&expected) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn dispatch_has_a_program_for_every_kernel_but_evo() {
        struct RunIt<'a>(&'a Arc<CsrGraph>);
        impl ProgramVisitor for RunIt<'_> {
            type Out = Output;
            fn visit<P: VertexProgram>(
                self,
                program: &P,
                output: fn(&CsrGraph, Vec<P::State>) -> Output,
            ) -> Output {
                output(self.0, run_default(self.0, program))
            }
        }
        let g = graph(vec![(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (5, 6)]);
        let mut kernels = Algorithm::ldbc_workload();
        kernels.push(Algorithm::default_pagerank());
        for alg in kernels {
            match dispatch(&alg, &g, RunIt(&g)) {
                Some(out) => assert!(
                    graphalytics_algos::reference(&g, &alg).equivalent(&out),
                    "{alg:?}: {out:?}"
                ),
                None => assert!(matches!(alg, Algorithm::Evo { .. }), "{alg:?}"),
            }
        }
        assert!(dispatch(&Algorithm::default_evo(), &g, RunIt(&g)).is_none());
    }

    #[test]
    fn cd_zero_iterations_is_identity() {
        let g = graph(vec![(0, 1), (1, 2)]);
        let states = run_default(
            &g,
            &CdProgram {
                iterations: 0,
                hop_attenuation: 0.05,
                degree_exponent: 0.1,
            },
        );
        let labels: Vec<u32> = states.iter().map(|s| s.label).collect();
        assert_eq!(labels, vec![0, 1, 2]);
    }
}
