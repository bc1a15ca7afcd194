//! The MapReduce engine's on-disk bytes: a checksum of every adjacency
//! split the load writes and of every job's part files and counters for
//! CONN, PageRank and LCC on graph500-7. `engine_goldens` pins what the
//! engine returns; this pins what crosses its disk, so a change to the
//! record path (buffers, spills, merge) must leave every byte and counter
//! where it was. The constants were re-recorded when the per-arc
//! `edges-*`/`wedges-*` splits became one adjacency record per vertex and
//! every chain went from a propagate and an update job per round to one
//! job per round (CONN 6 → 3 jobs, PageRank 40 → 20), and LCC's degree job
//! became the mapper of its orientation job (4 → 3). They were re-recorded
//! again when records went from decimal `key\tvalue\n` text to the binary
//! layout (big-endian vertex-id keys, length-framed codec values): every
//! split, part file and spill size moved, and graph500-7, being unweighted,
//! lost its `wadj-*` splits. The job counts and every job's `map_input`,
//! `map_output` and `reduce_output` did not move.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use graphalytics::core::trace::{FieldValue, Tracer};
use graphalytics::core::ScratchDir;
use graphalytics::mapreduce::MapReduceConfig;
use graphalytics::prelude::*;

/// FNV-1a over bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The entries of `dir` whose names satisfy `keep`, sorted by name.
fn entries(dir: &Path, keep: impl Fn(&str) -> bool) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| keep(&p.file_name().unwrap().to_string_lossy()))
        .collect();
    out.sort();
    out
}

/// Hashes the name and bytes of every file in `files`.
fn hash_files(h: &mut Fnv, files: &[PathBuf]) {
    for file in files {
        h.bytes(file.file_name().unwrap().to_string_lossy().as_bytes());
        h.bytes(&std::fs::read(file).unwrap());
    }
}

/// `(kernel, jobs, digest of every job's part files, digest of every job's
/// counters)`.
#[rustfmt::skip]
const KERNELS: &[(&str, usize, u64, u64)] = &[
    ("CONN", 3, 0x7d3735e0d340a6f5, 0x56d8d29e0131aa80),
    ("PR", 20, 0xe68886656ba3ef49, 0x012c0097acdbb217),
    ("LCC", 3, 0x9acb32bb9210358e, 0x22daa44e03a46e36),
];

/// Digest of the `adj-*` and `wadj-*` splits (an unweighted graph has no
/// `wadj-*`).
const SPLITS: u64 = 0x7f168e89bb9b13d4;

#[test]
fn mapreduce_splits_parts_and_counters_are_unchanged() {
    let graph = Dataset::graph500(7).load().expect("generate");
    let root = ScratchDir::new(None, "gx-mr-bytes").unwrap();
    let mut platform = MapReducePlatform::new(MapReduceConfig {
        work_root: root.path().to_path_buf(),
        ..MapReduceConfig::default()
    });
    let handle = platform.load_graph(&graph).expect("load");
    let [graph_dir] = &entries(root.path(), |_| true)[..] else {
        panic!("one graph directory per load")
    };
    let mut splits = Fnv::new();
    hash_files(
        &mut splits,
        &entries(graph_dir, |n| {
            n.starts_with("adj-") || n.starts_with("wadj-")
        }),
    );

    let mut table = Vec::new();
    for alg in [
        Algorithm::Conn,
        Algorithm::default_pagerank(),
        Algorithm::Lcc,
    ] {
        let tracer = Arc::new(Tracer::new());
        let ctx = RunContext::unbounded().with_tracer(Arc::clone(&tracer));
        platform.run(handle, &alg, &ctx).expect("run");
        // This run's job directories are the newest `run-*` directory's.
        let runs = entries(graph_dir, |n| n.starts_with("run-"));
        let run_dir = runs
            .iter()
            .max_by_key(|d| {
                d.to_string_lossy()
                    .rsplit('-')
                    .next()
                    .unwrap()
                    .parse::<u64>()
                    .unwrap()
            })
            .unwrap();
        let mut parts = Fnv::new();
        for job in entries(run_dir, |_| true).iter().filter(|p| p.is_dir()) {
            parts.bytes(job.file_name().unwrap().to_string_lossy().as_bytes());
            hash_files(&mut parts, &entries(job, |n| n.starts_with("part-")));
        }
        let mut counters = Fnv::new();
        let jobs: Vec<_> = tracer
            .finished_spans()
            .into_iter()
            .filter(|s| s.name == "mapreduce.job")
            .collect();
        for span in &jobs {
            let Some(FieldValue::Str(name)) = span.field("job") else {
                panic!("job span without a name")
            };
            counters.bytes(name.as_bytes());
            for counter in ["map_input", "map_output", "reduce_output", "spill_bytes"] {
                let value = span.field(counter).and_then(|f| f.as_i64()).unwrap();
                counters.bytes(&value.to_le_bytes());
            }
        }
        table.push((alg.name(), jobs.len(), parts.0, counters.0));
    }
    platform.unload(handle);

    let rendered: Vec<String> = table
        .iter()
        .map(|(k, jobs, p, c)| format!("    ({k:?}, {jobs}, {p:#018x}, {c:#018x}),"))
        .collect();
    let rendered = format!("splits {:#018x}\n{}", splits.0, rendered.join("\n"));
    assert_eq!(splits.0, SPLITS, "splits moved; computed:\n{rendered}");
    for (got, want) in table.iter().zip(KERNELS) {
        assert_eq!(*got, *want, "computed:\n{rendered}");
    }
    assert_eq!(table.len(), KERNELS.len());
}
