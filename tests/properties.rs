//! Property-based tests over the core invariants of the suite, using
//! randomly generated graphs and parameters.

use graphalytics::prelude::*;
use graphalytics_algos::{bfs, conn, lcc, pagerank, reference, sssp, INFINITY};
use graphalytics_datagen::{rewire, RewireTargets};
use graphalytics_graph::{metrics, partition, partition::Partitioner};
use proptest::prelude::*;
use std::sync::Arc;

/// Strategy: an arbitrary small undirected graph as an edge list.
fn arb_graph() -> impl Strategy<Value = EdgeListGraph> {
    (
        2u64..40,
        proptest::collection::vec((0u64..40, 0u64..40), 0..120),
    )
        .prop_map(|(n, raw_edges)| {
            let edges: Vec<(u64, u64)> =
                raw_edges.into_iter().map(|(a, b)| (a % n, b % n)).collect();
            EdgeListGraph::new((0..n).collect(), edges, false)
        })
}

/// Strategy: an arbitrary small weighted undirected graph (weights span
/// sub-unit to multi-unit fixed-point values).
fn arb_weighted_graph() -> impl Strategy<Value = EdgeListGraph> {
    (
        2u64..40,
        proptest::collection::vec((0u64..40, 0u64..40, 1u64..10_000_000), 0..120),
    )
        .prop_map(|(n, raw_edges)| {
            let edges: Vec<(u64, u64, u64)> = raw_edges
                .into_iter()
                .map(|(a, b, w)| (a % n, b % n, w))
                .collect();
            EdgeListGraph::new_weighted((0..n).collect(), edges, false)
        })
}

/// Strategy: an arbitrary small weighted graph, directed or undirected,
/// with sparse external ids (`id * 7 + 3`), three vertices that no edge
/// touches, and every edge listed twice with different weights (half of
/// the repeats reversed, which is a duplicate only when undirected).
fn arb_sparse_weighted_graph() -> impl Strategy<Value = EdgeListGraph> {
    (
        2u64..40,
        proptest::collection::vec((0u64..40, 0u64..40, 1u64..10_000_000), 0..120),
        any::<bool>(),
    )
        .prop_map(|(n, raw_edges, directed)| {
            let id = |v: u64| v * 7 + 3;
            let mut edges: Vec<(u64, u64, u64)> = raw_edges
                .into_iter()
                .map(|(a, b, w)| (id(a % n), id(b % n), w))
                .collect();
            let repeats: Vec<(u64, u64, u64)> = edges
                .iter()
                .enumerate()
                .map(|(i, &(s, t, w))| {
                    if i % 2 == 0 {
                        (s, t, w / 2 + 1)
                    } else {
                        (t, s, w + 1)
                    }
                })
                .collect();
            edges.extend(repeats);
            EdgeListGraph::new_weighted((0..n + 3).map(id).collect(), edges, directed)
        })
}

/// Strategy: an arbitrary small graph, directed or undirected, whose
/// weights are one or two whole units.
fn arb_unit_weighted_graph() -> impl Strategy<Value = EdgeListGraph> {
    (
        2u64..40,
        proptest::collection::vec((0u64..40, 0u64..40, 1u64..3), 0..120),
        any::<bool>(),
    )
        .prop_map(|(n, raw_edges, directed)| {
            let edges: Vec<(u64, u64, u64)> = raw_edges
                .into_iter()
                .map(|(a, b, units)| (a % n, b % n, units * graphalytics_graph::WEIGHT_SCALE))
                .collect();
            EdgeListGraph::new_weighted((0..n).collect(), edges, directed)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn csr_round_trips_edge_lists(g in arb_graph()) {
        let csr = CsrGraph::from_edge_list(&g);
        prop_assert_eq!(csr.to_edge_list(), g);
        csr.validate().unwrap();
    }

    #[test]
    fn csr_weights_follow_their_edges_at_every_thread_count(g in arb_sparse_weighted_graph()) {
        let base = CsrGraph::from_edge_list_with_threads(&g, 1);
        for threads in [1usize, 2, 3, 8] {
            let csr = CsrGraph::from_edge_list_with_threads(&g, threads);
            csr.validate().unwrap();
            prop_assert_eq!(&csr, &base, "threads={}", threads);
            let n = csr.num_vertices() as u32;
            prop_assert_eq!((0..n).map(|v| csr.in_degree(v)).sum::<usize>(), csr.num_arcs());
            // `EdgeListGraph::edge_weight` is the oracle for every arc, on
            // the out-side and on the in-side.
            for v in 0..n {
                let ext = csr.external_id(v);
                for (&t, &w) in csr.neighbors(v).iter().zip(csr.neighbor_weights(v)) {
                    prop_assert_eq!(Some(w), g.edge_weight(ext, csr.external_id(t)));
                }
                for (&s, &w) in csr.in_neighbors(v).iter().zip(csr.in_neighbor_weights(v)) {
                    prop_assert_eq!(Some(w), g.edge_weight(csr.external_id(s), ext));
                }
            }
            prop_assert_eq!(&csr.to_edge_list(), &g);
        }
    }

    #[test]
    fn bfs_depths_are_shortest_paths(g in arb_graph(), source in 0u64..40) {
        let csr = CsrGraph::from_edge_list(&g);
        let depths = bfs::bfs(&csr, source);
        // Triangle inequality on every edge: |d(u) - d(v)| <= 1 when both
        // reached; an edge from a reached to an unreached vertex is
        // impossible.
        for v in 0..csr.num_vertices() as u32 {
            for &u in csr.neighbors(v) {
                let (dv, du) = (depths[v as usize], depths[u as usize]);
                match (dv >= 0, du >= 0) {
                    (true, true) => prop_assert!((dv - du).abs() <= 1),
                    (true, false) | (false, true) => {
                        prop_assert!(false, "reached/unreached edge {v}-{u}")
                    }
                    (false, false) => {}
                }
            }
        }
        // The source (when present) has depth 0 and is the only depth-0.
        if let Some(s) = csr.internal_id(source) {
            prop_assert_eq!(depths[s as usize], 0);
            prop_assert_eq!(depths.iter().filter(|&&d| d == 0).count(), 1);
        }
    }

    #[test]
    fn sssp_distances_satisfy_the_triangle_inequality(
        g in arb_weighted_graph(),
        source in 0u64..40,
    ) {
        let csr = CsrGraph::from_edge_list(&g);
        let dist = sssp::sssp(&csr, source);
        // Relaxed triangle inequality on every edge: when both endpoints
        // are reached, neither distance exceeds the other plus the edge
        // weight; an edge from a reached to an unreached vertex is
        // impossible.
        for v in 0..csr.num_vertices() as u32 {
            for (&u, &w) in csr.neighbors(v).iter().zip(csr.neighbor_weights(v)) {
                let (dv, du) = (dist[v as usize], dist[u as usize]);
                match (dv != INFINITY, du != INFINITY) {
                    (true, true) => {
                        prop_assert!(du <= dv.saturating_add(w), "{v}-{u}: {du} > {dv}+{w}");
                        prop_assert!(dv <= du.saturating_add(w), "{v}-{u}: {dv} > {du}+{w}");
                    }
                    (true, false) | (false, true) => {
                        prop_assert!(false, "reached/unreached edge {v}-{u}")
                    }
                    (false, false) => {}
                }
            }
        }
        // A present source has distance 0; a missing one reaches nothing.
        if let Some(s) = csr.internal_id(source) {
            prop_assert_eq!(dist[s as usize], 0);
        } else {
            prop_assert!(dist.iter().all(|&d| d == INFINITY));
        }
    }

    // Whole-unit weights leave every delta-stepping bucket flat, so big
    // rounds pull from the frontier bitmap; the distances stay Dijkstra's.
    #[test]
    fn sssp_parallel_equals_dijkstra_on_one_and_two_unit_weights(
        g in arb_unit_weighted_graph(),
        source in 0u64..40,
        threads in 1usize..9,
    ) {
        let csr = CsrGraph::from_edge_list(&g);
        prop_assert_eq!(sssp::sssp_parallel(&csr, source, threads), sssp::sssp(&csr, source));
    }

    #[test]
    fn lcc_coefficients_are_well_defined(g in arb_graph()) {
        let csr = CsrGraph::from_edge_list(&g);
        let coefs = lcc::local_clustering(&csr);
        prop_assert_eq!(coefs.len(), csr.num_vertices());
        for (v, &c) in coefs.iter().enumerate() {
            prop_assert!((0.0..=1.0).contains(&c), "lcc[{v}]={c}");
            if csr.neighbors(v as u32).len() < 2 {
                prop_assert_eq!(c, 0.0, "degree<2 vertex {v} must have lcc 0");
            }
        }
    }

    #[test]
    fn sssp_and_lcc_are_invariant_under_monotone_relabeling(
        g in arb_weighted_graph(),
        source in 0u64..40,
        mult in 1u64..50,
        offset in 0u64..1000,
    ) {
        // A strictly monotone external-id map preserves internal vertex
        // order, so the positional output vectors must be bit-identical.
        let map = |v: u64| v * mult + offset;
        let renamed = EdgeListGraph::new_weighted(
            g.vertices().iter().map(|&v| map(v)).collect(),
            g.edges()
                .iter()
                .zip(g.weights())
                .map(|(&(a, b), &w)| (map(a), map(b), w))
                .collect(),
            false,
        );
        let csr_a = CsrGraph::from_edge_list(&g);
        let csr_b = CsrGraph::from_edge_list(&renamed);
        prop_assert_eq!(sssp::sssp(&csr_a, source), sssp::sssp(&csr_b, map(source)));
        let (la, lb) = (lcc::local_clustering(&csr_a), lcc::local_clustering(&csr_b));
        prop_assert_eq!(la.len(), lb.len());
        for (x, y) in la.iter().zip(&lb) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn conn_bfs_equals_union_find(g in arb_graph()) {
        let csr = CsrGraph::from_edge_list(&g);
        prop_assert_eq!(
            conn::connected_components(&csr),
            conn::connected_components_unionfind(&csr)
        );
    }

    #[test]
    fn pagerank_conserves_mass(g in arb_graph(), iters in 1usize..30) {
        let csr = CsrGraph::from_edge_list(&g);
        if csr.num_vertices() == 0 {
            return Ok(());
        }
        let ranks = pagerank::pagerank(&csr, iters, 0.85);
        let sum: f64 = ranks.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9, "sum={sum}");
        prop_assert!(ranks.iter().all(|&r| r > 0.0));
    }

    #[test]
    fn rewiring_preserves_degree_sequence(g in arb_graph(), seed in 0u64..1000) {
        let csr = CsrGraph::from_edge_list(&g);
        let mut before = csr.degrees();
        before.sort_unstable();
        let (out, _) = rewire(
            &g,
            &RewireTargets { global_cc: Some(0.2), assortativity: Some(0.0) },
            seed,
            2_000,
        );
        let mut after = CsrGraph::from_edge_list(&out).degrees();
        after.sort_unstable();
        prop_assert_eq!(before, after);
        out.validate().unwrap();
    }

    #[test]
    fn partitioners_cover_and_balance(g in arb_graph(), k in 1usize..6) {
        let csr = CsrGraph::from_edge_list(&g);
        for p in [
            &partition::HashPartitioner as &dyn Partitioner,
            &partition::RangePartitioner,
            &partition::LdgPartitioner,
        ] {
            let a = p.partition(&csr, k);
            prop_assert_eq!(a.len(), csr.num_vertices());
            prop_assert!(a.iter().all(|&x| (x as usize) < k), "{}", p.name());
            let cut = partition::edge_cut(&csr, &a);
            prop_assert!(cut <= csr.num_edges());
            // LDG uses strict capacity: imbalance bounded by ceil(n/k)/avg.
            if p.name() == "ldg" && !a.is_empty() {
                let imb = partition::load_imbalance(&a, k);
                let n = csr.num_vertices() as f64;
                let bound = (n / k as f64).ceil() / (n / k as f64) + 1e-9;
                prop_assert!(imb <= bound, "imb={imb} bound={bound}");
            }
        }
    }

    #[test]
    fn characteristics_are_well_defined(g in arb_graph()) {
        let c = metrics::characteristics(&g);
        prop_assert!((0.0..=1.0).contains(&c.global_cc));
        prop_assert!((0.0..=1.0).contains(&c.avg_local_cc));
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&c.assortativity));
        prop_assert_eq!(c.num_vertices, g.num_vertices());
        prop_assert_eq!(c.num_edges, g.num_edges());
    }

    #[test]
    fn stats_output_consistent_across_platforms(g in arb_graph()) {
        let csr = Arc::new(CsrGraph::from_edge_list(&g));
        let expected = reference(&csr, &Algorithm::Stats);
        let ctx = RunContext::unbounded();
        let mut giraph = GiraphPlatform::with_defaults();
        let h = giraph.load_graph(&csr).unwrap();
        let out = giraph.run(h, &Algorithm::Stats, &ctx).unwrap();
        prop_assert!(expected.equivalent(&out));
    }

    #[test]
    fn evo_produces_fresh_sorted_unique_edges(
        g in arb_graph(),
        new_vertices in 0usize..20,
        seed in 0u64..500,
    ) {
        let csr = CsrGraph::from_edge_list(&g);
        let edges = graphalytics_algos::evo::forest_fire(&csr, new_vertices, 0.4, 16, seed);
        prop_assert!(edges.windows(2).all(|w| w[0] < w[1]));
        let max_existing = g.vertices().last().copied().unwrap_or(0);
        for &(src, dst) in &edges {
            prop_assert!(g.contains_vertex(src));
            prop_assert!(dst > max_existing);
        }
        if csr.num_vertices() > 0 {
            // Every new vertex burns at least its ambassador.
            let distinct: std::collections::HashSet<u64> =
                edges.iter().map(|&(_, d)| d).collect();
            prop_assert_eq!(distinct.len(), new_vertices);
        }
    }

    #[test]
    fn json_round_trips_arbitrary_strings(s in ".{0,80}") {
        use graphalytics_core::json::{parse, Json};
        let doc = Json::obj([("text", Json::from(s.clone()))]);
        let parsed = parse(&doc.to_string_compact()).expect("parse");
        prop_assert_eq!(parsed.get("text").and_then(Json::as_str), Some(s.as_str()));
    }

    // --- Output::equivalent: the Output Validator's comparison relation ---

    #[test]
    fn conn_equivalence_is_invariant_under_label_renaming(
        labels in proptest::collection::vec(0u32..12, 1..60),
        // Offsets reach u32::MAX - 12·mult, so renamed labels reach the top
        // of the range: nothing may be sized by label value.
        (mult, offset) in (1u32..40, any::<u32>())
            .prop_map(|(mult, o)| (mult, o % (u32::MAX - 12 * mult + 1))),
    ) {
        // Any injective relabeling induces the same partition, so the
        // validator must accept it.
        let renamed: Vec<u32> = labels.iter().map(|&l| l * mult + offset).collect();
        let a = Output::Components(labels);
        let b = Output::Components(renamed);
        prop_assert!(a.equivalent(&b));
        prop_assert!(b.equivalent(&a));
    }

    #[test]
    fn conn_equivalence_rejects_merged_components(
        labels in proptest::collection::vec(0u32..12, 2..60),
    ) {
        let distinct: std::collections::BTreeSet<u32> = labels.iter().copied().collect();
        prop_assume!(distinct.len() >= 2);
        // Collapsing every label into one changes the partition, and so
        // does merging just two classes.
        let merged = vec![labels[0]; labels.len()];
        let (keep, gone) = (*distinct.first().unwrap(), *distinct.last().unwrap());
        let two_merged: Vec<u32> = labels.iter().map(|&l| if l == gone { keep } else { l }).collect();
        let original = Output::Components(labels);
        prop_assert!(!original.equivalent(&Output::Components(merged)));
        prop_assert!(!original.equivalent(&Output::Components(two_merged)));
    }

    #[test]
    fn rank_equivalence_is_reflexive_and_symmetric(
        a in proptest::collection::vec(0.0f64..1.0, 0..50),
        b in proptest::collection::vec(0.0f64..1.0, 0..50),
    ) {
        let (oa, ob) = (Output::Ranks(a), Output::Ranks(b));
        prop_assert!(oa.equivalent(&oa));
        prop_assert!(ob.equivalent(&ob));
        // The tolerance uses max(|x|, |y|), so the relation is symmetric.
        prop_assert_eq!(oa.equivalent(&ob), ob.equivalent(&oa));
    }

    #[test]
    fn rank_equivalence_rejects_out_of_tolerance_scores(
        ranks in proptest::collection::vec(0.0f64..1.0, 1..50),
        victim in 0usize..50,
    ) {
        let victim = victim % ranks.len();
        let mut bad = ranks.clone();
        bad[victim] += 1.0; // Far beyond 1e-9 + 1e-6 * max(|x|, |y|).
        prop_assert!(!Output::Ranks(ranks).equivalent(&Output::Ranks(bad)));
    }

    #[test]
    fn equivalence_rejects_a_deliberate_mismatch_for_every_algorithm(
        g in arb_graph(),
        source in 0u64..40,
    ) {
        let csr = CsrGraph::from_edge_list(&g);
        prop_assume!(csr.num_vertices() > 0);

        // BFS: flip one depth.
        let depths = bfs::bfs(&csr, source);
        let mut bad = depths.clone();
        bad[0] += 7;
        prop_assert!(!Output::Depths(depths).equivalent(&Output::Depths(bad)));

        // CONN: claim everything is one component (assume ≥2 exist).
        let labels = conn::connected_components(&csr);
        if labels.iter().any(|&l| l != labels[0]) {
            let merged = vec![labels[0]; labels.len()];
            prop_assert!(
                !Output::Components(labels).equivalent(&Output::Components(merged))
            );
        }

        // CD: community labels compare exactly — any flip is a mismatch.
        let Output::Communities(comms) = reference(&csr, &Algorithm::default_cd()) else {
            panic!("CD must emit Communities")
        };
        let mut bad = comms.clone();
        bad[0] = bad[0].wrapping_add(1);
        prop_assert!(!Output::Communities(comms).equivalent(&Output::Communities(bad)));

        // EVO: dropping a predicted edge is a mismatch.
        let Output::Evolution(edges) = reference(&csr, &Algorithm::default_evo()) else {
            panic!("EVO must emit Evolution")
        };
        if !edges.is_empty() {
            let truncated = edges[..edges.len() - 1].to_vec();
            prop_assert!(
                !Output::Evolution(edges).equivalent(&Output::Evolution(truncated))
            );
        }

        // SSSP: distances compare exactly — one fixed-point unit off is a
        // mismatch, as is claiming an unreachable vertex was reached.
        let dist = sssp::sssp(&csr, source);
        if let Some(i) = dist.iter().position(|&d| d != INFINITY) {
            let mut bad = dist.clone();
            bad[i] += 1;
            prop_assert!(!Output::Distances(dist.clone()).equivalent(&Output::Distances(bad)));
        }
        if let Some(j) = dist.iter().position(|&d| d == INFINITY) {
            let mut bad = dist.clone();
            bad[j] = 0;
            prop_assert!(!Output::Distances(dist).equivalent(&Output::Distances(bad)));
        }

        // LCC: a shift far beyond the float tolerance is a mismatch.
        let coefs = lcc::local_clustering(&csr);
        let mut bad = coefs.clone();
        bad[0] += 1e-3;
        prop_assert!(
            !Output::LocalClustering(coefs).equivalent(&Output::LocalClustering(bad))
        );

        // PR: perturb one score beyond tolerance.
        let ranks = pagerank::pagerank(&csr, 5, 0.85);
        let mut bad = ranks.clone();
        bad[0] += 0.5;
        prop_assert!(!Output::Ranks(ranks).equivalent(&Output::Ranks(bad)));

        // STATS: lie about the vertex count.
        let Output::Stats(stats) = reference(&csr, &Algorithm::Stats) else {
            panic!("STATS must emit Stats")
        };
        let mut bad = stats;
        bad.num_vertices += 1;
        prop_assert!(!Output::Stats(stats).equivalent(&Output::Stats(bad)));

        // And cross-variant comparisons never hold.
        prop_assert!(!Output::Depths(vec![0]).equivalent(&Output::Components(vec![0])));
    }
}
