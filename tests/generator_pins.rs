//! What the generators produce and what the writer puts on disk, pinned.
//!
//! Every engine golden, the MapReduce split digest and every perfbench
//! oracle starts from a generated graph, so a change to edge-list
//! normalisation or to the decimal writer must leave both the graphs and
//! the bytes exactly where they were. This file pins the vertex count,
//! edge count and a digest of the sorted edges and weights of R-MAT
//! (Graph500 scales 10 and 12, two seeds each) and of the SNB-style
//! generator at one and two threads, plus the exact `.v`/`.e` bytes of an
//! unweighted R-MAT graph and of weighted graphs with fractional weights.

use graphalytics_datagen::{generate, rmat, DatagenConfig, DegreeDistribution, RmatConfig};
use graphalytics_graph::io::write_graph;
use graphalytics_graph::rng::SplitMix64;
use graphalytics_graph::{EdgeListGraph, ScratchDir, WEIGHT_SCALE};

/// FNV-1a over bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
}

/// `(vertices, edges, digest of the edge list and weights in order)`. The
/// edge list is sorted and deduplicated, so its order is part of the graph.
fn fingerprint(g: &EdgeListGraph) -> (usize, usize, u64) {
    let mut h = Fnv::new();
    for (&(s, t), &w) in g.edges().iter().zip(g.weights()) {
        h.word(s);
        h.word(t);
        h.word(w);
    }
    (g.num_vertices(), g.num_edges(), h.0)
}

/// Writes `g` and returns the digests of its `.v` and `.e` bytes.
fn written_digests(g: &EdgeListGraph, name: &str) -> (u64, u64) {
    let dir = ScratchDir::new(None, &format!("gx-gen-pins-{name}")).unwrap();
    let prefix = dir.path().join("g");
    write_graph(g, &prefix).unwrap();
    let digest = |ext: &str| {
        let mut h = Fnv::new();
        h.bytes(&std::fs::read(prefix.with_extension(ext)).unwrap());
        h.0
    };
    (digest("v"), digest("e"))
}

#[rustfmt::skip]
const RMAT: &[(u32, u64, (usize, usize, u64))] = &[
    (10, 1, (1024, 10530, 0x2b2b9d0363e19990)),
    (10, 7, (1024, 10594, 0xde893b3a50b0e6c0)),
    (12, 1, (4096, 48529, 0xc72c739b1d2818c6)),
    (12, 7, (4096, 48537, 0xf1261beea80d2e6e)),
];

#[test]
fn rmat_graphs_are_pinned() {
    for &(scale, seed, expected) in RMAT {
        let g = rmat::generate(&RmatConfig::graph500(scale, seed));
        assert_eq!(fingerprint(&g), expected, "Graph500 {scale} seed {seed}");
    }
}

/// `(persons, seed, fingerprint)`; each graph is generated at 1 and 2
/// threads.
#[rustfmt::skip]
const SNB: &[(usize, u64, (usize, usize, u64))] = &[
    (2000, 3, (2000, 17216, 0x26e1b41f6a8dc045)),
    (3000, 11, (3000, 27103, 0x3e29618bf9019f1b)),
];

#[test]
fn snb_graphs_are_pinned_at_every_thread_count() {
    for &(persons, seed, expected) in SNB {
        for threads in [1, 2] {
            let g = generate(&DatagenConfig {
                num_persons: persons,
                seed,
                degree_distribution: DegreeDistribution::Facebook(18.0),
                threads,
                ..Default::default()
            });
            assert_eq!(
                fingerprint(&g),
                expected,
                "{persons} persons, seed {seed}, {threads} threads"
            );
        }
    }
}

#[test]
fn unweighted_rmat_bytes_are_pinned() {
    let g = rmat::generate(&RmatConfig::graph500(9, 5));
    assert_eq!(
        written_digests(&g, "rmat"),
        (0x634b6ea95615f9bf, 0x5445eca04410caf4)
    );
}

#[test]
fn weighted_bytes_are_pinned() {
    // Every fraction width from none to six digits, zero, and a weight
    // whose integer part needs more than ten digits.
    let g = EdgeListGraph::new_weighted(
        vec![42],
        vec![
            (0, 1, 2 * WEIGHT_SCALE),
            (1, 2, WEIGHT_SCALE / 2),
            (2, 3, 1),
            (3, 4, 0),
            (4, 5, 123_456_789),
            (5, 6, 10_000_010),
            (6, 7, 98_765_432_109_876_543),
            (7, 8, 120_000),
        ],
        false,
    );
    let dir = ScratchDir::new(None, "gx-gen-pins-small").unwrap();
    let prefix = dir.path().join("g");
    write_graph(&g, &prefix).unwrap();
    assert_eq!(
        std::fs::read_to_string(prefix.with_extension("v")).unwrap(),
        "0\n1\n2\n3\n4\n5\n6\n7\n8\n42\n"
    );
    assert_eq!(
        std::fs::read_to_string(prefix.with_extension("e")).unwrap(),
        "0 1 2\n1 2 0.5\n2 3 0.000001\n3 4 0\n4 5 123.456789\n5 6 10.00001\n\
         6 7 98765432109.876543\n7 8 0.12\n"
    );

    // R-MAT's edges with a pseudo-random weight each; a quarter of them
    // are whole numbers, so the file mixes both forms.
    let rmat = rmat::generate(&RmatConfig::graph500(9, 5));
    let weighted = rmat
        .edges()
        .iter()
        .map(|&(s, t)| {
            let r = SplitMix64::new(s << 32 | t).next_u64();
            let w = match r % 4 {
                0 => (r >> 8) % 50 * WEIGHT_SCALE,
                _ => (r >> 8) % (50 * WEIGHT_SCALE),
            };
            (s, t, w)
        })
        .collect();
    let g = EdgeListGraph::new_weighted(rmat.vertices().to_vec(), weighted, false);
    assert!(g.is_weighted());
    assert_eq!(
        written_digests(&g, "weighted"),
        (0x634b6ea95615f9bf, 0xe5d447c2c8ffb1aa)
    );
}
