//! The Graphalytics workload over the record-store traversal API.
//!
//! Neo4j runs graph algorithms as single-machine procedures over its
//! stores; these implementations do the same — single-threaded walks over
//! the relationship chains. "Its performance is generally the best due to
//! its non-distributed nature" (paper §3.2) at the scales it can hold.

use graphalytics_algos::cd;
use graphalytics_core::platform::{PlatformError, RunContext};
use graphalytics_graph::metrics::{self, OrientedAdjacency};
use std::collections::VecDeque;

use crate::store::GraphStore;

/// BFS depths from an internal source node (None ⇒ all unreachable).
pub fn bfs(
    store: &GraphStore,
    source: Option<u32>,
    ctx: &RunContext,
) -> Result<Vec<i64>, PlatformError> {
    let n = store.nodes.len();
    let mut depths = vec![-1i64; n];
    let Some(src) = source else {
        return Ok(depths);
    };
    let mut span = ctx.tracer().span("neo4j.bfs");
    let mut queue = VecDeque::new();
    depths[src as usize] = 0;
    queue.push_back(src);
    let mut visited = 0usize;
    let mut chain_hops = 0usize;
    while let Some(v) = queue.pop_front() {
        visited += 1;
        if visited.is_multiple_of(4096) {
            ctx.check_deadline()?;
        }
        let next = depths[v as usize] + 1;
        for (_, u) in store.neighbors(v) {
            chain_hops += 1;
            if depths[u as usize] < 0 {
                depths[u as usize] = next;
                queue.push_back(u);
            }
        }
    }
    span.field("visited", visited)
        .field("max_depth", depths.iter().copied().max().unwrap_or(-1))
        // Locality proxies: the frontier pops stream in order; every
        // relationship-chain hop is a pointer chase to a random record.
        .field("seq_accesses", visited)
        .field("rand_accesses", chain_hops);
    Ok(depths)
}

/// Connected components: BFS sweeps over the chains, labeling by minimum
/// node id (the canonical CONN labeling).
pub fn connected_components(
    store: &GraphStore,
    ctx: &RunContext,
) -> Result<Vec<u32>, PlatformError> {
    let n = store.nodes.len();
    let mut span = ctx.tracer().span("neo4j.conn");
    let mut components = 0usize;
    let mut labels = vec![u32::MAX; n];
    let mut queue = VecDeque::new();
    let mut chain_hops = 0usize;
    for start in 0..n as u32 {
        if labels[start as usize] != u32::MAX {
            continue;
        }
        ctx.check_deadline()?;
        components += 1;
        labels[start as usize] = start;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            for (_, u) in store.neighbors(v) {
                chain_hops += 1;
                if labels[u as usize] == u32::MAX {
                    labels[u as usize] = start;
                    queue.push_back(u);
                }
            }
        }
    }
    span.field("components", components)
        .field("nodes", n)
        .field("seq_accesses", n)
        .field("rand_accesses", chain_hops);
    Ok(labels)
}

/// SSSP fixed-point distances from an internal source node: Dijkstra over
/// the relationship chains, reading each relationship's weight from the
/// rel-id-indexed `rel_weights` table (the property-store lookup a real
/// Neo4j procedure would do per relationship).
pub fn sssp(
    store: &GraphStore,
    rel_weights: &[u64],
    source: Option<u32>,
    ctx: &RunContext,
) -> Result<Vec<u64>, PlatformError> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let n = store.nodes.len();
    let mut dists = vec![graphalytics_algos::INFINITY; n];
    let Some(src) = source else {
        return Ok(dists);
    };
    let mut span = ctx.tracer().span("neo4j.sssp");
    dists[src as usize] = 0;
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    heap.push(Reverse((0, src)));
    let mut settled = 0usize;
    let mut chain_hops = 0usize;
    while let Some(Reverse((dv, v))) = heap.pop() {
        if dv > dists[v as usize] {
            continue; // Stale heap entry.
        }
        settled += 1;
        if settled.is_multiple_of(4096) {
            ctx.check_deadline()?;
        }
        for (rel, u) in store.neighbors(v) {
            chain_hops += 1;
            let nd = dv.saturating_add(rel_weights[rel as usize]);
            if nd < dists[u as usize] {
                dists[u as usize] = nd;
                heap.push(Reverse((nd, u)));
            }
        }
    }
    span.field("settled", settled)
        .field("seq_accesses", settled)
        .field("rand_accesses", chain_hops);
    Ok(dists)
}

/// Sorted, deduplicated adjacency materialized from the chains — Neo4j's
/// graph-algorithm library does the same projection before running
/// analytics.
pub fn project_adjacency(store: &GraphStore) -> Vec<Vec<u32>> {
    let n = store.nodes.len();
    let mut adjacency = vec![Vec::new(); n];
    for v in 0..n as u32 {
        let mut neighbors: Vec<u32> = store.neighbors(v).map(|(_, o)| o).collect();
        neighbors.sort_unstable();
        neighbors.dedup();
        adjacency[v as usize] = neighbors;
    }
    adjacency
}

/// Per-vertex local clustering coefficients over the projected adjacency,
/// by the shared degree-oriented count of `graph::metrics`: each triangle
/// is found once, at its lowest-ranked corner (nodes of degree < 2 stay
/// at 0).
pub fn local_clustering(store: &GraphStore, ctx: &RunContext) -> Result<Vec<f64>, PlatformError> {
    let n = store.nodes.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    let mut span = ctx.tracer().span("neo4j.lcc");
    span.field("nodes", n);
    let adjacency = {
        let _project = ctx.tracer().span("neo4j.project");
        project_adjacency(store)
    };
    ctx.check_deadline()?;
    let oriented = OrientedAdjacency::build(n, |v| &adjacency[v]);
    let triangles = oriented.triangles(1, || ctx.check_deadline())?;
    // Each oriented arc jumps to its target's list, then the merge scans
    // both oriented lists sequentially.
    let (mut seq_scans, mut list_jumps) = (0usize, 0usize);
    for v in 0..n {
        let mine = oriented.list(v);
        for &u in mine {
            list_jumps += 1;
            seq_scans += mine.len() + oriented.list(u as usize).len();
        }
    }
    span.field("seq_accesses", seq_scans)
        .field("rand_accesses", list_jumps);
    Ok(metrics::coefficients(
        &triangles,
        adjacency.iter().map(Vec::len),
    ))
}

/// Community detection: the deterministic Leung spec over the chains.
pub fn community_detection(
    store: &GraphStore,
    iterations: usize,
    hop_attenuation: f64,
    degree_exponent: f64,
    ctx: &RunContext,
) -> Result<Vec<u32>, PlatformError> {
    let n = store.nodes.len();
    let mut span = ctx.tracer().span("neo4j.cd");
    let mut rounds = 0usize;
    let mut labels: Vec<u32> = (0..n as u32).collect();
    let mut scores: Vec<f64> = vec![1.0; n];
    let mut next_labels = labels.clone();
    let mut next_scores = scores.clone();
    let mut weight = cd::LabelWeights::default();
    let mut chain_hops = 0usize;
    for _ in 0..iterations {
        ctx.check_deadline()?;
        rounds += 1;
        let mut changed = false;
        for v in 0..n as u32 {
            weight.clear();
            for (_, u) in store.neighbors(v) {
                chain_hops += 1;
                let score = scores[u as usize];
                let influence = cd::influence(score, store.degree(u), degree_exponent);
                cd::add_vote(&mut weight, labels[u as usize], score, influence);
            }
            let own = (labels[v as usize], scores[v as usize]);
            let (label, score, adopted) = cd::adopt_or_keep(own, &mut weight, hop_attenuation);
            changed |= adopted;
            next_labels[v as usize] = label;
            next_scores[v as usize] = score;
        }
        std::mem::swap(&mut labels, &mut next_labels);
        std::mem::swap(&mut scores, &mut next_scores);
        if !changed {
            break;
        }
    }
    span.field("iterations", rounds)
        .field("nodes", n)
        .field("seq_accesses", rounds * n)
        .field("rand_accesses", chain_hops);
    Ok(labels)
}

/// PageRank over the chains.
pub fn pagerank(
    store: &GraphStore,
    iterations: usize,
    damping: f64,
    ctx: &RunContext,
) -> Result<Vec<f64>, PlatformError> {
    let n = store.nodes.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    let mut span = ctx.tracer().span("neo4j.pagerank");
    span.field("iterations", iterations).field("nodes", n);
    let inv_n = 1.0 / n as f64;
    let mut ranks = vec![inv_n; n];
    let mut next = vec![0.0f64; n];
    let mut chain_hops = 0usize;
    for _ in 0..iterations {
        ctx.check_deadline()?;
        next.iter_mut().for_each(|x| *x = 0.0);
        let mut dangling = 0.0;
        for v in 0..n as u32 {
            let out = store.degree(v);
            if out == 0 {
                dangling += ranks[v as usize];
                continue;
            }
            let share = ranks[v as usize] / out as f64;
            for (_, u) in store.neighbors(v) {
                chain_hops += 1;
                next[u as usize] += share;
            }
        }
        let base = (1.0 - damping) * inv_n + damping * dangling * inv_n;
        for x in next.iter_mut() {
            *x = base + damping * *x;
        }
        std::mem::swap(&mut ranks, &mut next);
    }
    span.field("seq_accesses", iterations * n)
        .field("rand_accesses", chain_hops);
    Ok(ranks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_store() -> GraphStore {
        // Triangle 0-1-2, tail 2-3, separate pair 4-5.
        let mut s = GraphStore::new();
        s.create_nodes(6);
        for (a, b) in [(0, 1), (1, 2), (0, 2), (2, 3), (4, 5)] {
            s.create_relationship(a, b);
        }
        s
    }

    #[test]
    fn bfs_walks_chains() {
        let s = sample_store();
        let d = bfs(&s, Some(0), &RunContext::unbounded()).unwrap();
        assert_eq!(d, vec![0, 1, 1, 2, -1, -1]);
        let none = bfs(&s, None, &RunContext::unbounded()).unwrap();
        assert!(none.iter().all(|&x| x == -1));
    }

    #[test]
    fn components_are_canonical() {
        let s = sample_store();
        let labels = connected_components(&s, &RunContext::unbounded()).unwrap();
        assert_eq!(labels, vec![0, 0, 0, 0, 4, 4]);
    }

    #[test]
    fn lcc_matches_hand_computation() {
        let s = sample_store();
        let lccs = local_clustering(&s, &RunContext::unbounded()).unwrap();
        let mean = graphalytics_algos::stats::from_coefficients(5, &lccs).mean_local_cc;
        // v0: 1, v1: 1, v2: 1/3, v3: 0, v4: 0, v5: 0.
        let expected = (1.0 + 1.0 + 1.0 / 3.0) / 6.0;
        assert!((mean - expected).abs() < 1e-12, "{mean}");
    }

    #[test]
    fn projection_sorts_and_dedups() {
        let s = sample_store();
        let adj = project_adjacency(&s);
        assert_eq!(adj[2], vec![0, 1, 3]);
        assert_eq!(adj[4], vec![5]);
    }

    #[test]
    fn pagerank_sums_to_one() {
        let s = sample_store();
        let r = pagerank(&s, 30, 0.85, &RunContext::unbounded()).unwrap();
        let sum: f64 = r.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "{sum}");
    }

    #[test]
    fn cd_runs_and_separates_components() {
        let s = sample_store();
        let labels = community_detection(&s, 10, 0.05, 0.1, &RunContext::unbounded()).unwrap();
        assert_ne!(labels[0], labels[4]);
    }

    #[test]
    fn operators_emit_spans_with_counts() {
        use graphalytics_core::trace::Tracer;
        use std::sync::Arc;

        let s = sample_store();
        let tracer = Arc::new(Tracer::new());
        let ctx = RunContext::unbounded().with_tracer(Arc::clone(&tracer));
        let _ = bfs(&s, Some(0), &ctx).unwrap();
        let _ = connected_components(&s, &ctx).unwrap();
        let _ = local_clustering(&s, &ctx).unwrap();

        let spans = tracer.finished_spans();
        let b = spans.iter().find(|sp| sp.name == "neo4j.bfs").unwrap();
        assert_eq!(b.field("visited").and_then(|f| f.as_i64()), Some(4));
        assert_eq!(b.field("max_depth").and_then(|f| f.as_i64()), Some(2));
        let c = spans.iter().find(|sp| sp.name == "neo4j.conn").unwrap();
        assert_eq!(c.field("components").and_then(|f| f.as_i64()), Some(2));
        // The adjacency projection nests under the LCC operator span.
        let lcc = spans.iter().find(|sp| sp.name == "neo4j.lcc").unwrap();
        let proj = spans.iter().find(|sp| sp.name == "neo4j.project").unwrap();
        assert_eq!(proj.parent, Some(lcc.id));
    }
}
