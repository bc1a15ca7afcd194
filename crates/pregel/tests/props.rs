//! Property tests for the BSP engine: program outputs match the reference
//! implementations on arbitrary graphs, results are invariant under worker
//! count and partitioner, and engine accounting stays consistent.

use graphalytics_core::platform::RunContext;
use graphalytics_graph::partition::{
    HashPartitioner, LdgPartitioner, Partitioner, RangePartitioner,
};
use graphalytics_graph::{CsrGraph, EdgeListGraph};
use graphalytics_pregel::programs::{
    BfsProgram, CdProgram, ConnProgram, PageRankProgram, SsspProgram,
};
use graphalytics_pregel::{run, PartitionerKind, PregelConfig, PregelStats, VertexProgram};
use proptest::prelude::*;
use std::sync::Arc;

fn arb_graph() -> impl Strategy<Value = Arc<CsrGraph>> {
    (
        2u64..30,
        proptest::collection::vec((0u64..30, 0u64..30), 0..90),
    )
        .prop_map(|(n, raw)| {
            let edges: Vec<(u64, u64)> = raw.into_iter().map(|(a, b)| (a % n, b % n)).collect();
            Arc::new(CsrGraph::from_edge_list(&EdgeListGraph::new(
                (0..n).collect(),
                edges,
                false,
            )))
        })
}

const PARTITIONERS: [PartitionerKind; 3] = [
    PartitionerKind::Hash,
    PartitionerKind::Range,
    PartitionerKind::Ldg,
];

/// The accounting that must not depend on how many workers share the
/// vertices.
fn worker_free(stats: &PregelStats) -> (usize, usize, Vec<usize>) {
    (
        stats.messages_total,
        stats.supersteps,
        stats.active_per_superstep.clone(),
    )
}

fn run_on<P: VertexProgram>(
    g: &Arc<CsrGraph>,
    program: &P,
    workers: usize,
    partitioner: PartitionerKind,
) -> (Vec<P::State>, PregelStats) {
    let config = PregelConfig {
        workers,
        partitioner,
        ..Default::default()
    };
    let result = run(g, program, &config, &RunContext::unbounded()).unwrap();
    (result.states, result.stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    // The message store changes neither what a run computes nor what it
    // counts. From 1 to 6 workers, under every partitioner: message,
    // superstep and per-superstep active counts are the same, BFS, SSSP
    // and CONN states are the same bits, and the remote count is exactly
    // the messages between workers: 0 on one worker, and for PageRank,
    // which sends along every arc each iteration, iterations × cut arcs.
    #[test]
    fn the_store_is_invisible_to_the_worker_count(
        g in arb_graph(),
        source in 0u64..30,
        partitioner_idx in 0usize..3,
    ) {
        let partitioner = PARTITIONERS[partitioner_idx];
        let source = g.internal_id(source);
        let bfs = BfsProgram { source };
        let sssp = SsspProgram { source };
        let iterations = 4;
        let pagerank = PageRankProgram { iterations, damping: 0.85 };
        let (bfs1, sssp1, conn1) = (
            run_on(&g, &bfs, 1, partitioner),
            run_on(&g, &sssp, 1, partitioner),
            run_on(&g, &ConnProgram, 1, partitioner),
        );
        let (_, pagerank1) = run_on(&g, &pagerank, 1, partitioner);
        for stats in [&bfs1.1, &sssp1.1, &conn1.1, &pagerank1] {
            prop_assert_eq!(stats.messages_remote, 0);
        }
        prop_assert_eq!(pagerank1.messages_total, iterations * g.num_arcs());
        for workers in 2..=6 {
            let (states, stats) = run_on(&g, &bfs, workers, partitioner);
            prop_assert_eq!(&states, &bfs1.0);
            prop_assert_eq!(worker_free(&stats), worker_free(&bfs1.1));
            let (states, stats) = run_on(&g, &sssp, workers, partitioner);
            prop_assert_eq!(&states, &sssp1.0);
            prop_assert_eq!(worker_free(&stats), worker_free(&sssp1.1));
            let (states, stats) = run_on(&g, &ConnProgram, workers, partitioner);
            prop_assert_eq!(&states, &conn1.0);
            prop_assert_eq!(worker_free(&stats), worker_free(&conn1.1));
            let (_, stats) = run_on(&g, &pagerank, workers, partitioner);
            prop_assert_eq!(worker_free(&stats), worker_free(&pagerank1));
            let owner = match partitioner {
                PartitionerKind::Hash => HashPartitioner.partition(&g, workers),
                PartitionerKind::Range => RangePartitioner.partition(&g, workers),
                PartitionerKind::Ldg => LdgPartitioner.partition(&g, workers),
            };
            let cut = (0..g.num_vertices() as u32)
                .flat_map(|v| g.neighbors(v).iter().map(move |&u| (v, u)))
                .filter(|&(v, u)| owner[v as usize] != owner[u as usize])
                .count();
            prop_assert_eq!(stats.messages_remote, iterations * cut);
        }
    }

    #[test]
    fn conn_matches_reference_for_any_config(
        g in arb_graph(),
        workers in 1usize..6,
        partitioner_idx in 0usize..3,
    ) {
        let partitioner = [
            PartitionerKind::Hash,
            PartitionerKind::Range,
            PartitionerKind::Ldg,
        ][partitioner_idx];
        let config = PregelConfig { workers, partitioner, ..Default::default() };
        let result = run(&g, &ConnProgram, &config, &RunContext::unbounded()).unwrap();
        prop_assert_eq!(
            result.states,
            graphalytics_algos::conn::connected_components(&g)
        );
    }

    #[test]
    fn bfs_matches_reference(g in arb_graph(), source in 0u64..30, workers in 1usize..5) {
        let config = PregelConfig { workers, ..Default::default() };
        let program = BfsProgram { source: g.internal_id(source) };
        let result = run(&g, &program, &config, &RunContext::unbounded()).unwrap();
        prop_assert_eq!(result.states, graphalytics_algos::bfs::bfs(&g, source));
    }

    #[test]
    fn cd_matches_reference(g in arb_graph(), iterations in 0usize..8) {
        let program = CdProgram {
            iterations,
            hop_attenuation: 0.05,
            degree_exponent: 0.1,
        };
        let result = run(&g, &program, &PregelConfig::default(), &RunContext::unbounded())
            .unwrap();
        let labels: Vec<u32> = result.states.iter().map(|s| s.label).collect();
        prop_assert_eq!(
            labels,
            graphalytics_algos::cd::community_detection(&g, iterations, 0.05, 0.1)
        );
    }

    #[test]
    fn pagerank_matches_reference(g in arb_graph(), iterations in 1usize..15) {
        let program = PageRankProgram { iterations, damping: 0.85 };
        let result = run(&g, &program, &PregelConfig::default(), &RunContext::unbounded())
            .unwrap();
        let expected = graphalytics_algos::pagerank::pagerank(&g, iterations, 0.85);
        for (a, b) in result.states.iter().zip(&expected) {
            prop_assert!((a - b).abs() < 1e-9, "{} vs {}", a, b);
        }
    }

    #[test]
    fn stats_accounting_is_consistent(g in arb_graph(), workers in 1usize..5) {
        let config = PregelConfig { workers, ..Default::default() };
        let result = run(&g, &ConnProgram, &config, &RunContext::unbounded()).unwrap();
        let stats = &result.stats;
        prop_assert!(stats.messages_remote <= stats.messages_total);
        prop_assert!(stats.max_worker_messages <= stats.messages_total);
        prop_assert_eq!(stats.active_per_superstep.len(), stats.supersteps);
        prop_assert_eq!(
            stats.active_per_superstep.iter().sum::<usize>(),
            stats.active_total
        );
        if workers == 1 {
            prop_assert_eq!(stats.messages_remote, 0);
        }
        prop_assert!(stats.skew_factor(workers) >= 1.0 - 1e-9);
    }
}
