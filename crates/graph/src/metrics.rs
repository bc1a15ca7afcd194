//! Structural graph metrics: clustering coefficients, degree assortativity,
//! and degree histograms.
//!
//! These are the statistics of the paper's Table 1 (nodes, edges, global
//! clustering coefficient, average local clustering coefficient, degree
//! assortativity) and the inputs to the distribution-fitting analysis of
//! §2.2. All metrics are defined on the *undirected projection* of the
//! graph, matching the convention of the SNAP statistics the paper cites
//! (the one exception, [`local_clustering_coefficient`] on a directed CSR,
//! is spelled out there).

use crate::csr::{CsrGraph, Vid};
use crate::edgelist::EdgeListGraph;
use graphalytics_parallel as par;

/// The structural characteristics reported in the paper's Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphCharacteristics {
    /// Number of vertices.
    pub num_vertices: usize,
    /// Number of undirected edges.
    pub num_edges: usize,
    /// Global clustering coefficient (transitivity): `3·triangles / wedges`.
    pub global_cc: f64,
    /// Average local clustering coefficient (vertices with degree < 2
    /// contribute 0, as in SNAP).
    pub avg_local_cc: f64,
    /// Degree assortativity (Pearson correlation of degrees at edge ends).
    pub assortativity: f64,
}

/// Computes all Table-1 characteristics in one pass over the graph.
pub fn characteristics(g: &EdgeListGraph) -> GraphCharacteristics {
    let und = g.to_undirected();
    let csr = CsrGraph::from_edge_list(&und);
    let (global_cc, avg_local_cc) = clustering_coefficients(&csr);
    GraphCharacteristics {
        num_vertices: und.num_vertices(),
        num_edges: und.num_edges(),
        global_cc,
        avg_local_cc,
        assortativity: degree_assortativity(&csr),
    }
}

/// Number of edges among the neighbors of `v` (i.e. triangles through `v`),
/// computed by sorted-adjacency intersection. A point query: whole-graph
/// callers use [`triangles_per_vertex`], which finds each triangle once
/// instead of six times; this stays as its test oracle and as the
/// directed-input definition of [`local_clustering_coefficient`].
pub fn triangles_at(g: &CsrGraph, v: Vid) -> usize {
    let nv = g.neighbors(v);
    let mut links = 0usize;
    for &u in nv {
        // Intersect N(v) with N(u); count each neighbor-pair edge twice
        // (once from u's side, once from w's side), halved below.
        links += sorted_intersection_len(nv, g.neighbors(u));
    }
    links / 2
}

/// Triangles through every vertex of an undirected graph, in internal-id
/// order, on up to `threads` workers: [`OrientedAdjacency::triangles`]
/// over the CSR's lists, the one triangle count behind LCC, STATS, the
/// clustering coefficients and [`triangle_count`]. Equal to
/// [`triangles_at`] for every vertex at every thread count.
pub fn triangles_per_vertex(g: &CsrGraph, threads: usize) -> Vec<usize> {
    assert!(
        !g.is_directed(),
        "triangles are counted on the undirected projection"
    );
    let oriented = OrientedAdjacency::build(g.num_vertices(), |v| g.neighbors(v as Vid));
    let Ok(triangles) = oriented.triangles(threads, || Ok::<_, std::convert::Infallible>(()));
    triangles
}

/// The degree orientation: neighbour `u` (of degree `deg_u`) stays in the
/// oriented list of `v` (of degree `deg_v`) iff `(deg_u, u) > (deg_v, v)`,
/// so exactly one direction of every edge is kept and ids break ties.
pub fn outranks<T: Ord>(deg_u: usize, u: T, deg_v: usize, v: T) -> bool {
    (deg_u, u) > (deg_v, v)
}

/// The degree-oriented adjacency (GAP's baseline, arXiv 1508.03619): every
/// list keeps the neighbours that [`outranks`] its vertex. A triangle then
/// has exactly one corner, its lowest-ranked, whose list holds the other
/// two; it is found once there by merging two oriented lists and credited
/// to all three corners. Hub lists shrink to their few higher-ranked
/// neighbours, which removes the hub×hub merges of an unoriented count.
/// Generic over the id width (the column scan keeps `u64` ids).
#[derive(Debug, Clone)]
pub struct OrientedAdjacency<T> {
    offsets: Vec<usize>,
    targets: Vec<T>,
}

impl<T: Copy + Ord + Into<u64>> OrientedAdjacency<T> {
    /// Orients the `n` lists `neighbors(0..n)`: sorted, duplicate-free,
    /// symmetric, ids below `n`; a list's length is its vertex's degree.
    pub fn build<'a>(n: usize, neighbors: impl Fn(usize) -> &'a [T]) -> Self
    where
        T: 'a,
    {
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        // Every edge keeps exactly one of its two arcs.
        let arcs: usize = (0..n).map(|v| neighbors(v).len()).sum();
        let mut targets = Vec::with_capacity(arcs / 2);
        for v in 0..n {
            let nv = neighbors(v);
            let keep = |&&u: &&T| outranks(neighbors(index(u)).len(), u.into(), nv.len(), v as u64);
            targets.extend(nv.iter().filter(keep));
            offsets.push(targets.len());
        }
        Self { offsets, targets }
    }

    /// The oriented list of `v`, sorted.
    pub fn list(&self, v: usize) -> &[T] {
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Triangles through every vertex, in id order, on up to `threads`
    /// workers. Deterministic: vertex ranges are cut at equal oriented-arc
    /// prefix sums (a pure function of the lists and `threads`), each
    /// worker credits a private integer vector, and the vectors are added
    /// in part order, so the counts are the same at every thread count.
    /// Each worker calls `check` before every 4096th vertex of its range
    /// and stops at its first error, which is returned: an engine's
    /// deadline reaches into the count.
    pub fn triangles<E: Send>(
        &self,
        threads: usize,
        check: impl Fn() -> Result<(), E> + Sync,
    ) -> Result<Vec<usize>, E>
    where
        T: Send + Sync,
    {
        let n = self.offsets.len() - 1;
        let parts = par::map_ranges(par::weighted_ranges(&self.offsets, threads), |_, range| {
            let mut credit = vec![0usize; n];
            for v in range {
                if v.is_multiple_of(4096) {
                    check()?;
                }
                let nv = self.list(v);
                for &u in nv {
                    let nu = self.list(index(u));
                    for_each_common(nv, nu, |j| {
                        credit[v] += 1;
                        credit[index(u)] += 1;
                        credit[index(nu[j])] += 1;
                    });
                }
            }
            Ok(credit)
        });
        let mut total = vec![0usize; n];
        for part in parts {
            for (t, c) in total.iter_mut().zip(part?) {
                *t += c;
            }
        }
        Ok(total)
    }
}

/// An id as a vector index.
fn index<T: Into<u64>>(id: T) -> usize {
    id.into() as usize
}

/// Calls `hit(j)` for every `b[j]` that is also in `a`, in ascending
/// order; both lists sorted and duplicate-free. On oriented lists, each
/// hit is one triangle.
pub fn for_each_common<T: Ord>(a: &[T], b: &[T], mut hit: impl FnMut(usize)) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                hit(j);
                i += 1;
                j += 1;
            }
        }
    }
}

/// The receiving end of an oriented list-shipping plan: every member
/// `own[j]` of the own list `N⁺(u)` that is also in a received `N⁺(v)`
/// closes the triangle `(v, u, own[j])`. Adds one to `per_member[j]` per
/// hit and returns the hit count, which is `v`'s credit and `u`'s own.
pub fn credit_members<T: Ord>(theirs: &[T], own: &[T], per_member: &mut [usize]) -> usize {
    let mut hits = 0;
    for_each_common(theirs, own, |j| {
        hits += 1;
        per_member[j] += 1;
    });
    hits
}

/// `2·tri / (d·(d−1))`, the fraction of a degree-`d` vertex's neighbor
/// pairs that are linked; zero when `d < 2` (no pair exists). The one
/// definition of the coefficient: the reference and every engine end here.
pub fn closed_pair_fraction(tri: usize, d: usize) -> f64 {
    if d < 2 {
        return 0.0;
    }
    (2 * tri) as f64 / (d * (d - 1)) as f64
}

/// Local clustering coefficient of `v`: triangles / possible neighbor pairs.
/// Zero for vertices of degree < 2.
///
/// On an undirected CSR this is the coefficient on the undirected
/// projection, as the module doc says. On a *directed* CSR it is computed
/// over out-neighbors only: `d` is the out-degree and `tri` is half the
/// number of arcs among the out-neighbors (rounded down) — not the
/// projection. The harness only builds undirected datasets; the directed
/// behaviour is pinned by a test and kept as is.
pub fn local_clustering_coefficient(g: &CsrGraph, v: Vid) -> f64 {
    closed_pair_fraction(triangles_at(g, v), g.degree(v))
}

/// [`local_clustering_coefficient`] of every vertex, in internal-id order,
/// on up to `threads` workers; bit-identical to the point query at every
/// thread count. Undirected input shares one [`triangles_per_vertex`] pass;
/// directed input keeps the point query's out-neighbor definition.
pub fn local_clustering_coefficients(g: &CsrGraph, threads: usize) -> Vec<f64> {
    if g.is_directed() {
        return g
            .vertex_ids()
            .map(|v| local_clustering_coefficient(g, v))
            .collect();
    }
    let degrees = g.vertex_ids().map(|v| g.degree(v));
    coefficients(&triangles_per_vertex(g, threads), degrees)
}

/// [`closed_pair_fraction`] of every vertex, from its triangle count and
/// its degree, both in vertex order.
pub fn coefficients(triangles: &[usize], degrees: impl IntoIterator<Item = usize>) -> Vec<f64> {
    let fraction = |(&tri, d)| closed_pair_fraction(tri, d);
    triangles.iter().zip(degrees).map(fraction).collect()
}

/// Computes `(global_cc, avg_local_cc)` together, sharing the per-vertex
/// triangle counts. Requires an undirected CSR graph.
pub fn clustering_coefficients(g: &CsrGraph) -> (f64, f64) {
    assert!(
        !g.is_directed(),
        "clustering coefficients are defined on the undirected projection"
    );
    let n = g.num_vertices();
    if n == 0 {
        return (0.0, 0.0);
    }
    let mut triangle_sum = 0usize; // Sum over v of triangles through v = 3·T.
    let mut wedges = 0usize;
    let mut local_sum = 0.0f64;
    for (tri, v) in triangles_per_vertex(g, 1).into_iter().zip(g.vertex_ids()) {
        let d = g.degree(v);
        if d < 2 {
            continue;
        }
        triangle_sum += tri;
        let pairs = d * (d - 1) / 2;
        wedges += pairs;
        local_sum += tri as f64 / pairs as f64;
    }
    let global = if wedges == 0 {
        0.0
    } else {
        triangle_sum as f64 / wedges as f64
    };
    (global, local_sum / n as f64)
}

/// Total number of triangles in the (undirected) graph.
pub fn triangle_count(g: &CsrGraph) -> usize {
    triangles_per_vertex(g, 1).into_iter().sum::<usize>() / 3
}

/// Degree assortativity: the Pearson correlation coefficient between the
/// degrees at the two ends of each edge (Newman 2002). Positive values mean
/// high-degree vertices attach to high-degree vertices. Returns 0 for
/// degree-regular graphs (zero variance).
pub fn degree_assortativity(g: &CsrGraph) -> f64 {
    assert!(!g.is_directed());
    let mut m = 0.0f64;
    let mut sum_jk = 0.0f64;
    let mut sum_j = 0.0f64;
    let mut sum_j2 = 0.0f64;
    for v in 0..g.num_vertices() as Vid {
        let dv = g.degree(v) as f64;
        for &u in g.neighbors(v) {
            if u <= v {
                continue; // Each undirected edge once.
            }
            let du = g.degree(u) as f64;
            m += 1.0;
            sum_jk += dv * du;
            sum_j += 0.5 * (dv + du);
            sum_j2 += 0.5 * (dv * dv + du * du);
        }
    }
    if m == 0.0 {
        return 0.0;
    }
    let mean = sum_j / m;
    let num = sum_jk / m - mean * mean;
    let den = sum_j2 / m - mean * mean;
    if den.abs() < 1e-12 {
        0.0
    } else {
        num / den
    }
}

/// Degree histogram: `hist[i] = (degree, count)` sorted by degree, skipping
/// degrees with zero count. Input to distribution fitting (Figure 1).
pub fn degree_histogram(g: &CsrGraph) -> Vec<(usize, usize)> {
    let mut counts: Vec<usize> = Vec::new();
    for v in 0..g.num_vertices() as Vid {
        let d = g.degree(v);
        if d >= counts.len() {
            counts.resize(d + 1, 0);
        }
        counts[d] += 1;
    }
    counts
        .into_iter()
        .enumerate()
        .filter(|&(_, c)| c > 0)
        .collect()
}

/// Length of the intersection of two sorted slices (merge-based; falls back
/// to galloping when lengths are very uneven): the unoriented point query
/// [`triangles_at`] and the rewiring generator's neighbourhood-overlap
/// check. Generic over the id type.
pub fn sorted_intersection_len<T: Ord + Copy>(a: &[T], b: &[T]) -> usize {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.is_empty() {
        return 0;
    }
    // Galloping pays off when the size ratio is large.
    if long.len() / short.len().max(1) >= 16 {
        let mut count = 0;
        let mut lo = 0usize;
        for &x in short {
            match long[lo..].binary_search(&x) {
                Ok(pos) => {
                    count += 1;
                    lo += pos + 1;
                }
                Err(pos) => lo += pos,
            }
            if lo >= long.len() {
                break;
            }
        }
        return count;
    }
    let mut i = 0;
    let mut j = 0;
    let mut count = 0;
    while i < short.len() && j < long.len() {
        match short[i].cmp(&long[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    fn csr(edges: Vec<(u64, u64)>) -> CsrGraph {
        CsrGraph::from_edge_list(&EdgeListGraph::undirected_from_edges(edges))
    }

    #[test]
    fn triangle_has_cc_one() {
        let g = csr(vec![(0, 1), (1, 2), (0, 2)]);
        let (global, avg) = clustering_coefficients(&g);
        assert_eq!(global, 1.0);
        assert_eq!(avg, 1.0);
        assert_eq!(triangle_count(&g), 1);
    }

    #[test]
    fn path_has_cc_zero() {
        let g = csr(vec![(0, 1), (1, 2), (2, 3)]);
        let (global, avg) = clustering_coefficients(&g);
        assert_eq!(global, 0.0);
        assert_eq!(avg, 0.0);
        assert_eq!(triangle_count(&g), 0);
    }

    #[test]
    fn paw_graph_coefficients() {
        // Triangle 0-1-2 plus pendant 3 attached to 0.
        let g = csr(vec![(0, 1), (1, 2), (0, 2), (0, 3)]);
        let (global, avg) = clustering_coefficients(&g);
        // Wedges: d0=3 -> 3, d1=2 -> 1, d2=2 -> 1, d3=1 -> 0. Total 5.
        // Closed wedges: 3 (one triangle). Global = 3/5.
        assert!((global - 0.6).abs() < 1e-12);
        // Local: v0 = 1/3, v1 = 1, v2 = 1, v3 = 0; avg = (1/3+1+1+0)/4.
        assert!((avg - (1.0 / 3.0 + 2.0) / 4.0).abs() < 1e-12);
    }

    #[test]
    fn complete_graph_k5() {
        let mut edges = Vec::new();
        for i in 0..5u64 {
            for j in (i + 1)..5 {
                edges.push((i, j));
            }
        }
        let g = csr(edges);
        let (global, avg) = clustering_coefficients(&g);
        assert!((global - 1.0).abs() < 1e-12);
        assert!((avg - 1.0).abs() < 1e-12);
        assert_eq!(triangle_count(&g), 10);
    }

    /// The oriented pass must agree with the unoriented point query on
    /// every vertex, at every thread count, down to the coefficient bits.
    fn assert_oriented_pass_matches_point_queries(g: &CsrGraph) {
        let oracle: Vec<usize> = g.vertex_ids().map(|v| triangles_at(g, v)).collect();
        let lcc_bits: Vec<u64> = g
            .vertex_ids()
            .map(|v| local_clustering_coefficient(g, v).to_bits())
            .collect();
        for threads in [1usize, 2, 3, 8] {
            assert_eq!(
                triangles_per_vertex(g, threads),
                oracle,
                "threads={threads}"
            );
            let bits: Vec<u64> = local_clustering_coefficients(g, threads)
                .iter()
                .map(|c| c.to_bits())
                .collect();
            assert_eq!(bits, lcc_bits, "threads={threads}");
        }
        assert_eq!(oracle.iter().sum::<usize>() % 3, 0);
        assert_eq!(oracle.iter().sum::<usize>() / 3, triangle_count(g));
    }

    /// Edges of the named worst cases for a degree orientation: a star
    /// (all rank ties among leaves), a clique (all degrees tie, ids break
    /// them), two adjacent hubs sharing every leaf (the hub×hub merge the
    /// orientation removes), and nothing (isolated vertices only).
    fn shape_edges(shape: u64, size: u64) -> Vec<(u64, u64)> {
        match shape {
            0 => (1..=size).map(|leaf| (0, leaf)).collect(),
            1 => (0..size)
                .flat_map(|i| (i + 1..size).map(move |j| (i, j)))
                .collect(),
            2 => (2..size + 2)
                .flat_map(|leaf| [(0, leaf), (1, leaf)])
                .chain([(0, 1)])
                .collect(),
            _ => Vec::new(),
        }
    }

    #[test]
    fn oriented_pass_matches_point_queries_on_named_shapes() {
        for shape in 0..4 {
            for size in [0u64, 1, 2, 3, 17] {
                let el =
                    EdgeListGraph::new((0..size + 4).collect(), shape_edges(shape, size), false);
                assert_oriented_pass_matches_point_queries(&CsrGraph::from_edge_list(&el));
            }
        }
        // Two hubs sharing 17 leaves: 17 triangles, all through both hubs.
        let g = csr(shape_edges(2, 17));
        let tri = triangles_per_vertex(&g, 2);
        assert_eq!((tri[0], tri[1], tri[2]), (17, 17, 1));
        assert_eq!(triangle_count(&g), 17);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        #[test]
        fn oriented_pass_matches_point_queries(
            shape in 0u64..4,
            size in 0u64..24,
            n in 1u64..40,
            noise in proptest::collection::vec((0u64..40, 0u64..40), 0..120),
        ) {
            // A named shape, overlaid with arbitrary edges over `n` ids
            // and padded with isolated vertices.
            let mut edges = shape_edges(shape, size);
            edges.extend(noise.into_iter().map(|(a, b)| (a % n, b % n)));
            let el = EdgeListGraph::new((0..n + 3).collect(), edges, false);
            assert_oriented_pass_matches_point_queries(&CsrGraph::from_edge_list(&el));
        }
    }

    #[test]
    fn oriented_lists_keep_the_higher_ranked_end_of_every_edge() {
        // Paw: triangle 0-1-2 plus pendant 3 on 0. Degrees 3, 2, 2, 1:
        // 3 < 1 < 2 < 0 by (degree, id), so 0's list is empty and the
        // triangle is found once, at 1.
        let lists: Vec<Vec<u64>> = vec![vec![1, 2, 3], vec![0, 2], vec![0, 1], vec![0]];
        let oriented = OrientedAdjacency::build(4, |v| &lists[v]);
        let kept: Vec<&[u64]> = (0..4).map(|v| oriented.list(v)).collect();
        assert_eq!(kept, [&[][..], &[0, 2], &[0], &[0]]);
        assert_eq!(
            oriented.triangles(1, || Ok::<_, ()>(())),
            Ok(vec![1, 1, 1, 0])
        );
        assert_eq!(oriented.triangles(1, || Err("late")), Err("late"));
        assert!(outranks(2, 1u64, 2, 0) && !outranks(2, 0u64, 2, 1));
        let mut common = Vec::new();
        for_each_common(&[1u32, 4, 6, 9], &[0, 4, 5, 9], |j| common.push(j));
        assert_eq!(common, [1, 3]);
        let mut per_member = [0; 4];
        assert_eq!(
            credit_members(&[1u32, 4, 6, 9], &[0, 4, 5, 9], &mut per_member),
            2
        );
        assert_eq!(per_member, [0, 1, 0, 1]);
    }

    #[test]
    fn directed_input_keeps_the_out_neighbor_definition() {
        // Pinned output of a directed CSR: `d` is the out-degree and `tri`
        // is half the arcs among out-neighbors, rounded down. Vertex 1 has
        // out-neighbors {2, 3} joined by the single arc 2→3, which halves
        // to zero; on the undirected projection it would have four
        // neighbors and a non-zero coefficient.
        let g = CsrGraph::from_edge_list(&EdgeListGraph::directed_from_edges(vec![
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 2),
            (2, 1),
            (2, 3),
            (3, 0),
            (1, 3),
            (4, 0),
            (4, 1),
            (4, 2),
        ]));
        let two_thirds = 0x3fe5_5555_5555_5555u64;
        let pinned = [two_thirds, 0, 0, 0, two_thirds];
        for threads in [1usize, 4] {
            let bits: Vec<u64> = local_clustering_coefficients(&g, threads)
                .iter()
                .map(|c| c.to_bits())
                .collect();
            assert_eq!(bits, pinned);
        }
        for v in g.vertex_ids() {
            assert_eq!(
                local_clustering_coefficient(&g, v).to_bits(),
                pinned[v as usize]
            );
        }
    }

    #[test]
    fn star_is_disassortative() {
        // A star: hub degree n, leaves degree 1 -> assortativity -1 in the
        // limit, strongly negative for finite n... actually for a pure star
        // the degree pairs are constant (n-1, 1), zero variance -> 0. Add
        // one leaf-leaf edge to create variance.
        let mut edges: Vec<(u64, u64)> = (1..=8).map(|i| (0, i)).collect();
        edges.push((1, 2));
        let g = csr(edges);
        assert!(degree_assortativity(&g) < -0.3);
    }

    #[test]
    fn regular_graph_assortativity_zero() {
        // Cycle: every degree is 2, zero variance.
        let g = csr(vec![(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_eq!(degree_assortativity(&g), 0.0);
    }

    #[test]
    fn assortative_graph_positive() {
        // Two cliques K4 joined by a single edge: high-degree vertices
        // mostly connect to high-degree vertices.
        let mut edges = Vec::new();
        for base in [0u64, 4] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    edges.push((base + i, base + j));
                }
            }
        }
        // Pendant vertices attached to low-degree side create contrast.
        edges.push((3, 4));
        edges.push((8, 0));
        edges.push((9, 5));
        let g = csr(edges);
        let r = degree_assortativity(&g);
        assert!(r < 0.0, "pendants make it disassortative: {r}");
    }

    #[test]
    fn histogram_counts_degrees() {
        let g = csr(vec![(0, 1), (1, 2), (2, 3)]);
        // Degrees: 1, 2, 2, 1.
        assert_eq!(degree_histogram(&g), vec![(1, 2), (2, 2)]);
    }

    #[test]
    fn histogram_includes_isolated_vertices() {
        let el = EdgeListGraph::new(vec![10, 11], vec![(0, 1)], false);
        let g = CsrGraph::from_edge_list(&el);
        assert_eq!(degree_histogram(&g), vec![(0, 2), (1, 2)]);
    }

    #[test]
    fn intersection_merge_and_gallop_agree() {
        let a: Vec<Vid> = (0..200).filter(|x| x % 3 == 0).collect();
        let b: Vec<Vid> = (0..2000).filter(|x| x % 5 == 0).collect();
        let expected = a.iter().filter(|x| b.binary_search(x).is_ok()).count();
        assert_eq!(sorted_intersection_len(&a, &b), expected);
        assert_eq!(sorted_intersection_len(&b, &a), expected);
        assert_eq!(sorted_intersection_len(&[], &b), 0);
        // The same lists as `u64` ids: the merge path, then the galloping
        // one (4 against 400 values, of which only 0 is shared).
        let wide = |list: &[Vid]| list.iter().map(|&x| x as u64).collect::<Vec<u64>>();
        assert_eq!(sorted_intersection_len(&wide(&a), &wide(&b)), expected);
        assert_eq!(sorted_intersection_len(&wide(&a[..4]), &wide(&b)), 1);
    }

    #[test]
    fn characteristics_from_edge_list_projects_directed() {
        let dir = EdgeListGraph::directed_from_edges(vec![(0, 1), (1, 0), (1, 2), (2, 0)]);
        let c = characteristics(&dir);
        assert_eq!(c.num_vertices, 3);
        assert_eq!(c.num_edges, 3); // (0,1),(1,2),(0,2) after projection.
        assert_eq!(c.global_cc, 1.0);
    }
}
