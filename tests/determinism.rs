//! Determinism regression tests: the invariants the `graphalytics-lint`
//! determinism rules exist to protect, checked end to end.
//!
//! The benchmark's repeatability story (paper §2.4: validation compares
//! platform outputs against reference outputs) only holds if the same seed
//! always produces the same graph and the same algorithm run always
//! produces the same labeling — *regardless of how many threads either is
//! given*. These tests run the Datagen generator and a Pregel program at
//! different parallelism levels and require bit-identical outputs.

use graphalytics_algos::{
    bfs, conn, lcc, pagerank, reference, reference_with_threads, sssp, Algorithm, Output,
};
use graphalytics_core::platform::RunContext;
use graphalytics_core::ScratchDir;
use graphalytics_datagen::cluster::{generate_to_disk, GenerationMode};
use graphalytics_datagen::DatagenConfig;
use graphalytics_graph::CsrGraph;
use graphalytics_pregel::programs::{BfsProgram, ConnProgram};
use graphalytics_pregel::{run, PregelConfig};
use std::path::PathBuf;
use std::sync::Arc;

/// Parses a `.e` edge file into its edge set, then folds it into one
/// order-insensitive hash (commutative XOR of per-edge SplitMix64 mixes)
/// plus the edge count. Two generator runs agree iff hash and count agree.
fn edge_set_hash(path: &PathBuf) -> (u64, usize) {
    let text = std::fs::read_to_string(path).expect("read edge file");
    let mut hash = 0u64;
    let mut count = 0usize;
    for line in text.lines() {
        let mut it = line.split_whitespace();
        let s: u64 = it.next().expect("src").parse().expect("src id");
        let d: u64 = it.next().expect("dst").parse().expect("dst id");
        hash ^= splitmix64(s.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ d);
        count += 1;
    }
    (hash, count)
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[test]
fn datagen_is_thread_count_invariant() {
    let scratch = ScratchDir::new(None, "gx-determinism").expect("create scratch dir");
    let dir = scratch.path();
    let cfg = DatagenConfig::new(400, 0xDECAF);

    let mut hashes = Vec::new();
    for threads in [1usize, 4] {
        let out = dir.join(format!("t{threads}.e"));
        generate_to_disk(&cfg, &GenerationMode::SingleNode { threads }, &out)
            .expect("single-node generation");
        hashes.push(edge_set_hash(&out));
    }
    // A simulated cluster deployment must also emit the same graph.
    let out = dir.join("cluster.e");
    let spill = dir.join("spill");
    std::fs::create_dir_all(&spill).expect("spill dir");
    generate_to_disk(
        &cfg,
        &GenerationMode::Cluster {
            workers: 3,
            spill_dir: spill,
        },
        &out,
    )
    .expect("cluster generation");
    hashes.push(edge_set_hash(&out));

    assert!(hashes[0].1 > 0, "generator produced no edges");
    assert_eq!(
        hashes[0], hashes[1],
        "1-thread and 4-thread runs disagree on the edge set"
    );
    assert_eq!(
        hashes[0], hashes[2],
        "single-node and cluster runs disagree on the edge set"
    );
}

#[test]
fn datagen_seed_changes_the_graph() {
    // The converse sanity check: hashing is not degenerate — a different
    // seed yields a different edge set.
    let scratch = ScratchDir::new(None, "gx-determinism").expect("create scratch dir");
    let dir = scratch.path();
    let mut hashes = Vec::new();
    for seed in [1u64, 2] {
        let out = dir.join(format!("s{seed}.e"));
        let cfg = DatagenConfig::new(300, seed);
        generate_to_disk(&cfg, &GenerationMode::SingleNode { threads: 2 }, &out)
            .expect("generation");
        hashes.push(edge_set_hash(&out));
    }
    assert_ne!(hashes[0], hashes[1], "seed does not influence the graph");
}

fn pregel_test_graph() -> Arc<CsrGraph> {
    // A Datagen social graph: community structure, skewed degrees — enough
    // shape that a partition-order bug would actually show up.
    let cfg = DatagenConfig::new(500, 7);
    let edges = graphalytics_datagen::generate(&cfg);
    Arc::new(CsrGraph::from_edge_list(&edges))
}

#[test]
fn pregel_is_worker_count_invariant() {
    let graph = pregel_test_graph();
    let ctx = RunContext::unbounded();
    let source = Some(0);

    let mut bfs_states = Vec::new();
    let mut conn_states = Vec::new();
    for workers in [1usize, 8] {
        let config = PregelConfig {
            workers,
            ..PregelConfig::default()
        };
        let bfs = run(&graph, &BfsProgram { source }, &config, &ctx).expect("bfs run");
        bfs_states.push(bfs.states);
        let conn = run(&graph, &ConnProgram, &config, &ctx).expect("conn run");
        conn_states.push(conn.states);
    }
    assert_eq!(
        bfs_states[0], bfs_states[1],
        "BFS depths differ between 1 and 8 workers"
    );
    assert_eq!(
        conn_states[0], conn_states[1],
        "CONN labels differ between 1 and 8 workers"
    );
    // And the run reached beyond the trivial all-unreached state.
    assert!(
        bfs_states[0].iter().any(|&d| d > 0),
        "BFS never left source"
    );
}

#[test]
fn csr_construction_is_thread_count_invariant() {
    // The parallel CSR builder (per-chunk degree counting + prefix-sum
    // placement) must produce byte-identical structure at every thread
    // count on a realistic skewed graph.
    let cfg = DatagenConfig::new(600, 0xC5A);
    let edges = graphalytics_datagen::generate(&cfg);
    let baseline = CsrGraph::from_edge_list_with_threads(&edges, 1);
    baseline.validate().expect("valid CSR");
    for threads in [2usize, 8] {
        assert_eq!(
            CsrGraph::from_edge_list_with_threads(&edges, threads),
            baseline,
            "CSR differs between 1 and {threads} threads"
        );
    }
}

#[test]
fn parallel_kernels_are_thread_count_invariant() {
    // The deterministic parallel runtime's contract, end to end: BFS,
    // CONN, and PageRank outputs are *byte-identical* to the sequential
    // oracles at 1 vs 8 threads on a Datagen social graph.
    let graph = pregel_test_graph();

    let bfs_seq = bfs::bfs(&graph, 0);
    let conn_seq = conn::connected_components(&graph);
    let pr_seq = pagerank::pagerank(&graph, 20, 0.85);
    assert!(bfs_seq.iter().any(|&d| d > 0), "BFS never left source");

    // SSSP runs on the same topology re-weighted with deterministic
    // pseudo-weights (non-uniform costs exercise the bucket relaxation);
    // LCC runs on the social graph directly.
    let el = graph.to_edge_list();
    let weighted = Arc::new(CsrGraph::from_edge_list(
        &graphalytics_graph::EdgeListGraph::new_weighted(
            el.vertices().to_vec(),
            el.edges()
                .iter()
                .map(|&(u, v)| (u, v, (u * 13 + v * 7) % 11 + 1))
                .collect(),
            false,
        ),
    ));
    let sssp_seq = sssp::sssp(&weighted, 0);
    let lcc_seq = lcc::local_clustering(&graph);
    assert!(
        sssp_seq
            .iter()
            .any(|&d| d > 0 && d != graphalytics_algos::INFINITY),
        "SSSP never left source"
    );

    for threads in [1usize, 8] {
        assert_eq!(
            bfs::bfs_parallel(&graph, 0, threads),
            bfs_seq,
            "BFS depths differ at {threads} threads"
        );
        assert_eq!(
            sssp::sssp_parallel(&weighted, 0, threads),
            sssp_seq,
            "SSSP distances differ at {threads} threads"
        );
        let lcc_par = lcc::local_clustering_parallel(&graph, threads);
        assert_eq!(lcc_par.len(), lcc_seq.len());
        for (v, (a, b)) in lcc_par.iter().zip(&lcc_seq).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "LCC bits differ at vertex {v}, {threads} threads"
            );
        }
        assert_eq!(
            conn::connected_components_parallel(&graph, threads),
            conn_seq,
            "CONN labels differ at {threads} threads"
        );
        let pr = pagerank::pagerank_parallel(&graph, 20, 0.85, threads);
        assert_eq!(pr.len(), pr_seq.len());
        for (v, (a, b)) in pr.iter().zip(&pr_seq).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "PageRank bits differ at vertex {v}, {threads} threads"
            );
        }
    }
}

#[test]
fn triangle_kernels_are_thread_count_invariant() {
    // LCC and STATS share one degree-oriented triangle pass whose part
    // boundaries move with the thread count (they are cut by work, not by
    // vertex count). Through the oracle entry point the platforms use,
    // both outputs must be bit-equal to the sequential oracle at every
    // thread count on the skewed social graph.
    let graph = pregel_test_graph();
    let Output::LocalClustering(lcc_seq) = reference(&graph, &Algorithm::Lcc) else {
        panic!("LCC must emit LocalClustering")
    };
    let Output::Stats(stats_seq) = reference(&graph, &Algorithm::Stats) else {
        panic!("STATS must emit Stats")
    };
    assert!(stats_seq.mean_local_cc > 0.0, "social graph has triangles");

    for threads in [1usize, 2, 3, 8] {
        let Output::LocalClustering(lcc_par) =
            reference_with_threads(&graph, &Algorithm::Lcc, threads)
        else {
            panic!("LCC must emit LocalClustering")
        };
        assert_eq!(lcc_par.len(), lcc_seq.len());
        for (v, (a, b)) in lcc_par.iter().zip(&lcc_seq).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "LCC bits differ at vertex {v}, {threads} threads"
            );
        }
        let Output::Stats(stats_par) = reference_with_threads(&graph, &Algorithm::Stats, threads)
        else {
            panic!("STATS must emit Stats")
        };
        assert_eq!(
            (stats_par.num_vertices, stats_par.num_edges),
            (stats_seq.num_vertices, stats_seq.num_edges)
        );
        assert_eq!(
            stats_par.mean_local_cc.to_bits(),
            stats_seq.mean_local_cc.to_bits(),
            "STATS mean LCC bits differ at {threads} threads"
        );
    }
}
