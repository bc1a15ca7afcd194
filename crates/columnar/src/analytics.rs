//! Driver-side analytics over the compressed edge table, beyond the
//! paper's §3.4 BFS experiment: weighted single-source shortest paths via
//! vectored random lookups on the three-column `sp_edge` table, and local
//! clustering via a full column scan — the style a SQL driver would use
//! (point lookups for the traversal, a table scan for the aggregate).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use graphalytics_algos::INFINITY;
use graphalytics_core::platform::{PlatformError, RunContext};
use graphalytics_graph::metrics::{self, OrientedAdjacency};

use crate::table::{EdgeTable, LookupScratch};

/// Vertices processed between deadline checks.
const DEADLINE_STRIDE: usize = 4096;

/// Weighted single-source shortest paths: Dijkstra driven by
/// `outbound_weighted` random lookups. Distances are fixed-point weights;
/// unreached vertices stay at [`INFINITY`].
pub fn sssp(
    table: &EdgeTable,
    num_vertices: usize,
    source: Option<u64>,
    ctx: &RunContext,
) -> Result<Vec<u64>, PlatformError> {
    let mut span = ctx.tracer().span("virtuoso.sssp");
    let lookups_before = table.lookup_count();
    let mut dist = vec![INFINITY; num_vertices];
    let Some(src) = source.filter(|&s| (s as usize) < num_vertices) else {
        span.field("settled", 0usize)
            .field("random_lookups", 0usize);
        return Ok(dist);
    };
    let mut scratch = LookupScratch::default();
    let mut targets: Vec<(u64, u64)> = Vec::new();
    let mut heap = BinaryHeap::new();
    dist[src as usize] = 0;
    heap.push(Reverse((0u64, src)));
    let mut settled = 0usize;
    while let Some(Reverse((d, v))) = heap.pop() {
        if d > dist[v as usize] {
            continue; // Lazy deletion: a shorter path already settled `v`.
        }
        settled += 1;
        if settled.is_multiple_of(DEADLINE_STRIDE) {
            ctx.check_deadline()?;
        }
        targets.clear();
        table.outbound_weighted(v, &mut targets, &mut scratch);
        for &(u, w) in &targets {
            let nd = d.saturating_add(w);
            if (u as usize) < num_vertices && nd < dist[u as usize] {
                dist[u as usize] = nd;
                heap.push(Reverse((nd, u)));
            }
        }
    }
    span.field("settled", settled)
        .field("random_lookups", table.lookup_count() - lookups_before);
    Ok(dist)
}

/// Local clustering coefficient per vertex: one full scan projects the
/// (already sorted, dedup'd) adjacency lists out of the column store, then
/// the shared degree-oriented count of `graph::metrics` finds each
/// triangle once. Degree-<2 vertices score 0.
pub fn local_clustering(
    table: &EdgeTable,
    num_vertices: usize,
    ctx: &RunContext,
) -> Result<Vec<f64>, PlatformError> {
    let mut span = ctx.tracer().span("virtuoso.lcc");
    span.field("rows", table.num_rows());
    let mut adjacency: Vec<Vec<u64>> = vec![Vec::new(); num_vertices];
    table.scan(|from, to| {
        for (&f, &t) in from.iter().zip(to) {
            if (f as usize) < num_vertices && (t as usize) < num_vertices {
                adjacency[f as usize].push(t);
            }
        }
    });
    ctx.check_deadline()?;
    let oriented = OrientedAdjacency::build(num_vertices, |v| &adjacency[v]);
    let triangles = oriented.triangles(1, || ctx.check_deadline())?;
    span.field("vertices", num_vertices);
    Ok(metrics::coefficients(
        &triangles,
        adjacency.iter().map(Vec::len),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn undirected_weighted(edges: &[(u64, u64, u64)]) -> EdgeTable {
        let mut arcs = Vec::with_capacity(edges.len() * 2);
        for &(a, b, w) in edges {
            arcs.push((a, b, w));
            arcs.push((b, a, w));
        }
        EdgeTable::from_weighted_arcs(arcs)
    }

    #[test]
    fn sssp_takes_cheapest_path() {
        // 0-1 (2.0), 1-2 (0.5), 0-2 (4.0): the two-hop path wins.
        let t = undirected_weighted(&[
            (0, 1, 2_000_000),
            (1, 2, 500_000),
            (0, 2, 4_000_000),
            (2, 3, 1_500_000),
        ]);
        let dist = sssp(&t, 4, Some(0), &RunContext::unbounded()).unwrap();
        assert_eq!(dist, vec![0, 2_000_000, 2_500_000, 4_000_000]);
    }

    #[test]
    fn sssp_unreachable_and_missing_source() {
        let t = undirected_weighted(&[(0, 1, 1_000_000), (3, 4, 1_000_000)]);
        let dist = sssp(&t, 5, Some(0), &RunContext::unbounded()).unwrap();
        assert_eq!(dist[2], INFINITY);
        assert_eq!(dist[3], INFINITY);
        let none = sssp(&t, 5, None, &RunContext::unbounded()).unwrap();
        assert_eq!(none, vec![INFINITY; 5]);
        let oob = sssp(&t, 5, Some(99), &RunContext::unbounded()).unwrap();
        assert_eq!(oob, vec![INFINITY; 5]);
    }

    #[test]
    fn lcc_triangle_plus_tail() {
        // Triangle 0-1-2 with tail 2-3: vertices 0,1 close their only
        // wedge (1.0); 2 closes one of three (1/3); 3 has degree 1 (0).
        let t = undirected_weighted(&[(0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 1)]);
        let lcc = local_clustering(&t, 4, &RunContext::unbounded()).unwrap();
        assert_eq!(lcc[0], 1.0);
        assert_eq!(lcc[1], 1.0);
        assert!((lcc[2] - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(lcc[3], 0.0);
    }

    #[test]
    fn lcc_counts_lookups_via_scan_not_random_access() {
        let t = undirected_weighted(&[(0, 1, 1), (1, 2, 1), (0, 2, 1)]);
        let before = t.lookup_count();
        local_clustering(&t, 3, &RunContext::unbounded()).unwrap();
        assert_eq!(t.lookup_count(), before); // Pure scan: no point lookups.
    }

    #[test]
    fn sssp_span_reports_settled_count() {
        use graphalytics_core::trace::Tracer;
        use std::sync::Arc;

        let t = undirected_weighted(&[(0, 1, 1), (1, 2, 1)]);
        let tracer = Arc::new(Tracer::new());
        let ctx = RunContext::unbounded().with_tracer(Arc::clone(&tracer));
        sssp(&t, 3, Some(0), &ctx).unwrap();
        let spans = tracer.finished_spans();
        let op = spans.iter().find(|s| s.name == "virtuoso.sssp").unwrap();
        assert_eq!(op.field("settled").and_then(|f| f.as_i64()), Some(3));
    }
}
