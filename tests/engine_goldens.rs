//! Golden output bits per engine: a hash over the exact bits every engine
//! returns (`f64::to_bits`, integers as is) for the seven LDBC kernels plus
//! PageRank on two seeded datasets. `cross_platform` only asks for outputs
//! *equivalent* to the reference, within a float tolerance; a refactor that
//! moves a shared rule must not move a single bit, and this is the gate
//! that says so. The constants were recorded before the kernel rules were
//! consolidated (PR 15) and pass untouched after it. MapReduce's STATS moved
//! once, to the reference's bits, when its mean came to be summed in vertex
//! order rather than in the order its part files held the coefficients.
//! (The distributed engine is pinned byte-for-byte to Giraph by
//! `e2e_distrib`.)

use graphalytics::prelude::*;
use graphalytics_graph::WEIGHT_SCALE;
use std::sync::Arc;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn words(&mut self, tag: u64, words: impl ExactSizeIterator<Item = u64>) {
        self.word(tag);
        self.word(words.len() as u64);
        words.for_each(|w| self.word(w));
    }
}

fn output_hash(out: &Output) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    match out {
        Output::Stats(s) => h.words(
            0,
            [
                s.num_vertices as u64,
                s.num_edges as u64,
                s.mean_local_cc.to_bits(),
            ]
            .into_iter(),
        ),
        Output::Depths(d) => h.words(1, d.iter().map(|&x| x as u64)),
        Output::Components(c) => h.words(2, c.iter().map(|&x| x as u64)),
        Output::Communities(c) => h.words(3, c.iter().map(|&x| x as u64)),
        Output::Evolution(e) => {
            h.words(4, e.iter().map(|&(a, _)| a));
            h.words(4, e.iter().map(|&(_, b)| b));
        }
        Output::Ranks(r) => h.words(5, r.iter().map(|x| x.to_bits())),
        Output::Distances(d) => h.words(6, d.iter().copied()),
        Output::LocalClustering(c) => h.words(7, c.iter().map(|x| x.to_bits())),
    }
    h.0
}

/// `Dataset::graph500(7)` as generated, and `Dataset::snb(300)` with
/// deterministic non-uniform weights so SSSP has real work to do.
fn graphs() -> Vec<(&'static str, Arc<CsrGraph>)> {
    let snb = Dataset::snb(300).load().expect("generate").to_edge_list();
    let weighted = EdgeListGraph::new_weighted(
        snb.vertices().to_vec(),
        snb.edges()
            .iter()
            .map(|&(u, v)| (u, v, ((u * 31 + v * 17) % 9 + 1) * (WEIGHT_SCALE / 4)))
            .collect(),
        false,
    );
    vec![
        ("graph500-7", Dataset::graph500(7).load().expect("generate")),
        (
            "snb-300-weighted",
            Arc::new(CsrGraph::from_edge_list(&weighted)),
        ),
    ]
}

fn engines() -> Vec<(&'static str, Box<dyn Platform>)> {
    vec![
        ("giraph", Box::new(GiraphPlatform::with_defaults())),
        ("graphx", Box::new(GraphXPlatform::with_defaults())),
        ("mapreduce", Box::new(MapReducePlatform::with_defaults())),
        ("neo4j", Box::new(Neo4jPlatform::with_defaults())),
        ("virtuoso", Box::new(VirtuosoPlatform::with_defaults())),
        ("reference-1", Box::new(ReferencePlatform::with_threads(1))),
        ("reference-4", Box::new(ReferencePlatform::with_threads(4))),
    ]
}

/// STATS, BFS, CONN, CD, EVO, SSSP, LCC, PR.
fn kernels() -> Vec<Algorithm> {
    let mut kernels = Algorithm::ldbc_workload();
    kernels.push(Algorithm::default_pagerank());
    kernels
}

/// `(graph, engine, one hash per kernel in `kernels()` order)`; 0 marks a
/// kernel the engine reports as unsupported.
#[rustfmt::skip]
const GOLDENS: &[(&str, &str, [u64; 8])] = &[
    ("graph500-7", "giraph", [
        0x59d778aac76fa008, 0xa940ccdec08ffea6, 0xb7e075b6eda0390b, 0x55d47383ee14f00a,
        0x0935110a4b20d949, 0x183576b84b6aea55, 0x9bf962ed938c56b4, 0x08a4e7ebb0820261,
    ]),
    ("graph500-7", "graphx", [
        0x59d778aac76fa008, 0xa940ccdec08ffea6, 0xb7e075b6eda0390b, 0x55d47383ee14f00a,
        0x0935110a4b20d949, 0x183576b84b6aea55, 0x9bf962ed938c56b4, 0xe75359f31373c572,
    ]),
    ("graph500-7", "mapreduce", [
        0x59d778aac76fa008, 0xa940ccdec08ffea6, 0xb7e075b6eda0390b, 0x55d47383ee14f00a,
        0x0935110a4b20d949, 0x183576b84b6aea55, 0x9bf962ed938c56b4, 0x43e7e3e2b88a919e,
    ]),
    ("graph500-7", "neo4j", [
        0x59d778aac76fa008, 0xa940ccdec08ffea6, 0xb7e075b6eda0390b, 0x55d47383ee14f00a,
        0x0935110a4b20d949, 0x183576b84b6aea55, 0x9bf962ed938c56b4, 0xaa643316b3c12746,
    ]),
    ("graph500-7", "virtuoso", [
        0x0000000000000000, 0xa940ccdec08ffea6, 0x0000000000000000, 0x0000000000000000,
        0x0000000000000000, 0x183576b84b6aea55, 0x9bf962ed938c56b4, 0x0000000000000000,
    ]),
    ("graph500-7", "reference-1", [
        0x59d778aac76fa008, 0xa940ccdec08ffea6, 0xb7e075b6eda0390b, 0x55d47383ee14f00a,
        0x0935110a4b20d949, 0x183576b84b6aea55, 0x9bf962ed938c56b4, 0xaa643316b3c12746,
    ]),
    ("graph500-7", "reference-4", [
        0x59d778aac76fa008, 0xa940ccdec08ffea6, 0xb7e075b6eda0390b, 0x55d47383ee14f00a,
        0x0935110a4b20d949, 0x183576b84b6aea55, 0x9bf962ed938c56b4, 0xaa643316b3c12746,
    ]),
    ("snb-300-weighted", "giraph", [
        0xc02da0386be6b332, 0x3d67e25967b26541, 0x25a249cb8b0af6b0, 0x20623d1866bc67e5,
        0x7d1aa21f834364f8, 0x1c663880ac20c3ec, 0xee62466163442196, 0x36fd80cef839b80b,
    ]),
    ("snb-300-weighted", "graphx", [
        0xc02da0386be6b332, 0x3d67e25967b26541, 0x25a249cb8b0af6b0, 0x20623d1866bc67e5,
        0x7d1aa21f834364f8, 0x1c663880ac20c3ec, 0xee62466163442196, 0xafa9b0b788d95d47,
    ]),
    ("snb-300-weighted", "mapreduce", [
        0xc02da0386be6b332, 0x3d67e25967b26541, 0x25a249cb8b0af6b0, 0x20623d1866bc67e5,
        0x7d1aa21f834364f8, 0x1c663880ac20c3ec, 0xee62466163442196, 0x7af5a9051ff4c65e,
    ]),
    ("snb-300-weighted", "neo4j", [
        0xc02da0386be6b332, 0x3d67e25967b26541, 0x25a249cb8b0af6b0, 0x20623d1866bc67e5,
        0x7d1aa21f834364f8, 0x1c663880ac20c3ec, 0xee62466163442196, 0xe26574ef2c935d39,
    ]),
    ("snb-300-weighted", "virtuoso", [
        0x0000000000000000, 0x3d67e25967b26541, 0x0000000000000000, 0x0000000000000000,
        0x0000000000000000, 0x1c663880ac20c3ec, 0xee62466163442196, 0x0000000000000000,
    ]),
    ("snb-300-weighted", "reference-1", [
        0xc02da0386be6b332, 0x3d67e25967b26541, 0x25a249cb8b0af6b0, 0x20623d1866bc67e5,
        0x7d1aa21f834364f8, 0x1c663880ac20c3ec, 0xee62466163442196, 0xe26574ef2c935d39,
    ]),
    ("snb-300-weighted", "reference-4", [
        0xc02da0386be6b332, 0x3d67e25967b26541, 0x25a249cb8b0af6b0, 0x20623d1866bc67e5,
        0x7d1aa21f834364f8, 0x1c663880ac20c3ec, 0xee62466163442196, 0xe26574ef2c935d39,
    ]),
];

#[test]
fn every_engine_returns_the_recorded_bits() {
    let ctx = RunContext::unbounded();
    let kernels = kernels();
    let mut table = Vec::new();
    for (graph_name, graph) in graphs() {
        for (engine_name, mut engine) in engines() {
            let handle = engine.load_graph(&graph).expect("load");
            let mut row = [0u64; 8];
            for (slot, alg) in row.iter_mut().zip(&kernels) {
                match engine.run(handle, alg, &ctx) {
                    Ok(out) => *slot = output_hash(&out),
                    Err(PlatformError::Unsupported(_)) => {}
                    Err(e) => panic!("{engine_name} {graph_name} {}: {e}", alg.name()),
                }
            }
            engine.unload(handle);
            table.push((graph_name, engine_name, row));
        }
    }
    let names: Vec<&str> = kernels.iter().map(|k| k.name()).collect();
    for (got, want) in table.iter().zip(GOLDENS) {
        assert_eq!((got.0, got.1), (want.0, want.1), "row order");
        for ((g, w), kernel) in got.2.iter().zip(&want.2).zip(&names) {
            assert_eq!(
                g, w,
                "{} on {} moved bits of {kernel}: {g:#018x}, recorded {w:#018x}",
                got.1, got.0
            );
        }
    }
    let rendered: Vec<String> = table
        .iter()
        .map(|(graph, engine, row)| format!("    ({graph:?}, {engine:?}, {row:#018x?}),"))
        .collect();
    assert_eq!(
        table.len(),
        GOLDENS.len(),
        "rows; computed table:\n{}",
        rendered.join("\n")
    );
}
