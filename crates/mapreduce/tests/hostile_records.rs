//! Hostile bytes in the kinds of file the engine reads: job inputs, map
//! spill segments and part files, and the load's adjacency splits that the
//! kernels start from. A record is the key's four big-endian bytes, the
//! value's length as a little-endian `u32`, then the value. A file whose
//! last record is cut short, or whose length runs past the bytes that are
//! there, is a typed `PlatformError::Internal`, never a panic, and no read
//! allocates more than the file holds: a spill segment claimed longer than
//! its file is refused before anything is allocated for it. An adjacency
//! record with no `N` tag, a list that is not whole ids, or an id past the
//! graph's vertices is skipped by the kernels' mappers, so the kernels
//! answer from the records they can read.
//! Every truncation and single-bit flip of a valid split, spill segment and
//! part file, and arbitrary bytes, end in an answer or a typed error.

use std::path::{Path, PathBuf};

use graphalytics_algos::Algorithm;
use graphalytics_core::platform::{Platform, PlatformError, RunContext};
use graphalytics_core::ScratchDir;
use graphalytics_graph::{CsrGraph, EdgeListGraph};
use graphalytics_mapreduce::job::{
    for_each_record, part_files, read_segment, run_job, Emitter, JobConfig, Mapper, Records,
    Reducer,
};
use graphalytics_mapreduce::{algorithms, MapReducePlatform};
use proptest::prelude::*;

/// One record in the file layout, spelled out byte by byte.
fn record(key: u32, value: &[u8]) -> Vec<u8> {
    let mut bytes = key.to_be_bytes().to_vec();
    bytes.extend_from_slice(&(value.len() as u32).to_le_bytes());
    bytes.extend_from_slice(value);
    bytes
}

/// An adjacency value: `N`, then the ids as little-endian `u32`s.
fn adjacency(ids: &[u32]) -> Vec<u8> {
    let mut bytes = vec![b'N'];
    for id in ids {
        bytes.extend_from_slice(&id.to_le_bytes());
    }
    bytes
}

/// The records of `split`, concatenated: `(key, adjacency)` each.
fn split(records: &[(u32, Vec<u8>)]) -> Vec<u8> {
    records.iter().flat_map(|(k, v)| record(*k, v)).collect()
}

/// Malformed files, each after one good record: a header cut short, a
/// value cut short, and a length that claims far more than the file holds.
fn hostile() -> Vec<(&'static str, Vec<u8>)> {
    let good = record(0, b"E1");
    let with = |tail: &[u8]| [&good[..], tail].concat();
    vec![
        ("header cut short", with(&[0, 0, 0, 1, 5])),
        ("value cut short", with(&[0, 0, 0, 1, 5, 0, 0, 0, b'E'])),
        (
            "length past the end",
            with(&[0, 0, 0, 1, 255, 255, 255, 255, b'E']),
        ),
    ]
}

struct Identity;

impl Mapper for Identity {
    fn map(&self, key: u32, value: &[u8], out: &mut Emitter) {
        out.emit_bytes(key, value);
    }
}

impl Reducer for Identity {
    fn reduce(&self, key: u32, values: &[&[u8]], out: &mut Emitter) {
        for value in values {
            out.emit_bytes(key, value);
        }
    }
}

fn assert_malformed<T: std::fmt::Debug>(what: &str, result: Result<T, PlatformError>) {
    match result {
        Err(PlatformError::Internal(why)) if why.starts_with("malformed record file: ") => {}
        other => panic!("{what}: expected a malformed-record error, got {other:?}"),
    }
}

/// An answer, or a typed error that is not a worker's panic.
fn assert_typed<T: std::fmt::Debug>(what: &str, result: &Result<T, PlatformError>) {
    if let Err(e) = result {
        assert!(!e.to_string().contains("panicked"), "{what}: {e}");
    }
}

/// Runs an identity job over `input` in `dir`.
fn job_over(dir: &Path, input: &Path) -> Result<usize, PlatformError> {
    let config = JobConfig::new(dir);
    let inputs = [input.to_path_buf()];
    run_job(
        &config,
        "hostile",
        &inputs,
        &Identity,
        &Identity,
        &dir.join("out"),
    )
    .map(|counters| counters.map_input)
}

/// Reads `path` as the reduce side reads a spill segment: the claimed
/// range into a buffer, then the records in it. Returns the record count.
fn spill_segment(path: &Path, offset: u64, len: u64) -> Result<usize, PlatformError> {
    let mut buf = Vec::new();
    let result = read_segment(path, offset, len, &mut buf)
        .and_then(|()| Records::new(&buf).try_fold(0, |n, record| record.map(|_| n + 1)));
    let held = std::fs::metadata(path).unwrap().len() as usize;
    assert!(
        buf.capacity() <= held,
        "{} bytes allocated for a file of {held}",
        buf.capacity()
    );
    result
}

/// Reads every record of the part files in `dir`. Returns the count.
fn part_records(dir: &Path) -> Result<usize, PlatformError> {
    let mut n = 0;
    for_each_record(&part_files(dir)?, |_, _| {
        n += 1;
        Ok(())
    })?;
    Ok(n)
}

/// Writes `bytes` as `<dir>/<name>/part-00000`; returns the file.
fn part_file(dir: &Path, name: &str, bytes: &[u8]) -> PathBuf {
    let job = dir.join(name);
    std::fs::create_dir_all(&job).unwrap();
    let part = job.join("part-00000");
    std::fs::write(&part, bytes).unwrap();
    part
}

#[test]
fn malformed_inputs_spills_and_parts_are_typed_errors() {
    let scratch = ScratchDir::new(None, "gx-mr-hostile").unwrap();
    let dir = scratch.path();
    for (i, (what, bytes)) in hostile().iter().enumerate() {
        let part = part_file(dir, &format!("job-{i}"), bytes);
        assert_malformed(&format!("input, {what}"), job_over(dir, &part));
        let len = bytes.len() as u64;
        assert_malformed(&format!("spill, {what}"), spill_segment(&part, 0, len));
        assert_malformed(
            &format!("part, {what}"),
            part_records(part.parent().unwrap()),
        );
    }
}

#[test]
fn an_empty_file_holds_no_records_but_cannot_back_a_claimed_segment() {
    // An empty reduce partition writes an empty part file, so an empty file
    // is zero records wherever a whole file is read.
    let scratch = ScratchDir::new(None, "gx-mr-hostile-empty").unwrap();
    let dir = scratch.path();
    let part = part_file(dir, "job", b"");
    assert_eq!(job_over(dir, &part), Ok(0));
    assert_eq!(part_records(part.parent().unwrap()), Ok(0));
    assert_eq!(spill_segment(&part, 0, 0), Ok(0));
    // A segment index that claims records the file does not hold.
    assert_malformed("empty spill, claimed segment", spill_segment(&part, 0, 10));
}

#[test]
fn a_segment_claimed_past_a_short_file_allocates_nothing() {
    let scratch = ScratchDir::new(None, "gx-mr-hostile-short").unwrap();
    let dir = scratch.path();
    // Two records of 10 bytes each.
    let bytes = [record(0, b"E1"), record(1, b"E0")].concat();
    let spill = part_file(dir, "job", &bytes);
    assert_eq!(spill_segment(&spill, 0, 20), Ok(2));
    assert_eq!(spill_segment(&spill, 10, 10), Ok(1));
    for (offset, len) in [
        (0, 1 << 30),
        (10, 11),
        (21, 1),
        (u64::MAX, 1),
        (1, u64::MAX),
    ] {
        let what = format!("segment {offset}+{len} of a 20-byte spill");
        assert_malformed(&what, spill_segment(&spill, offset, len));
    }
}

/// Runs CONN and LCC over one adjacency split holding `bytes`, for three
/// vertices, with the jobs under `<dir>/<name>-jobs`.
fn kernels_over_split(
    dir: &Path,
    name: &str,
    bytes: &[u8],
) -> (
    Result<Vec<u32>, PlatformError>,
    Result<Vec<f64>, PlatformError>,
) {
    let split = dir.join(name);
    std::fs::write(&split, bytes).unwrap();
    let jobs = dir.join(format!("{name}-jobs"));
    std::fs::create_dir_all(&jobs).unwrap();
    let config = JobConfig::new(jobs);
    let splits = [split];
    let ctx = RunContext::unbounded();
    (
        algorithms::connected_components(&config, &splits, 3, &ctx),
        algorithms::local_clustering(&config, &splits, 3, &ctx),
    )
}

#[test]
fn malformed_adjacency_records_are_skipped() {
    let scratch = ScratchDir::new(None, "gx-mr-hostile-adj").unwrap();
    let dir = scratch.path();
    let triangle =
        |one: Vec<u8>| split(&[(0, adjacency(&[1, 2])), (1, one), (2, adjacency(&[0, 1]))]);
    // Vertex 1's record has no `N` tag, or a list of five bytes: it sends
    // nothing and keeps its own label, the messages sent to it find no
    // state, and 0 and 2 each see one neighbour.
    let no_tag = adjacency(&[0, 2])[1..].to_vec();
    let torn = adjacency(&[0, 2])[..6].to_vec();
    for (name, one) in [("adj-no-tag", no_tag), ("adj-torn", torn)] {
        let (conn, lcc) = kernels_over_split(dir, name, &triangle(one));
        assert_eq!(conn, Ok(vec![0, 1, 0]), "{name}");
        assert_eq!(lcc, Ok(vec![0.0, 0.0, 0.0]), "{name}");
    }
    // Vertex 1 also lists 7, which the graph does not have: its record is
    // skipped as above.
    let (conn, lcc) = kernels_over_split(dir, "adj-past-n", &triangle(adjacency(&[0, 2, 7])));
    assert_eq!(conn, Ok(vec![0, 1, 0]));
    assert_eq!(lcc, Ok(vec![0.0, 0.0, 0.0]));
    // A record keyed 7, a vertex the graph does not have, is skipped: the
    // triangle stands.
    let bytes = [triangle(adjacency(&[0, 2])), record(7, &adjacency(&[1]))].concat();
    let (conn, lcc) = kernels_over_split(dir, "adj-key-past-n", &bytes);
    assert_eq!(conn, Ok(vec![0, 0, 0]));
    assert_eq!(lcc, Ok(vec![1.0, 1.0, 1.0]));
}

/// Every kernel on a platform that loaded the triangle `0-1-2` into one
/// split, after its `adj-*` file — or for a weighted triangle its `wadj-*`
/// file, and SSSP alone — is replaced by `bytes`; each answers or fails
/// with a typed error.
fn every_kernel_over(bytes: &[u8], weighted: bool) {
    let weight = if weighted { 1_500_000 } else { 1_000_000 };
    let graph = CsrGraph::from_edge_list(&EdgeListGraph::new_weighted(
        Vec::new(),
        vec![(0, 1, weight), (1, 2, weight), (0, 2, weight)],
        false,
    ));
    let root = ScratchDir::new(None, "gx-mr-hostile-kernels").unwrap();
    let mut platform = MapReducePlatform::new(graphalytics_mapreduce::MapReduceConfig {
        map_tasks: 1,
        reduce_tasks: 2,
        input_splits: 1,
        work_root: root.path().to_path_buf(),
    });
    let handle = platform.load_graph(&graph).unwrap();
    let graph_dir = std::fs::read_dir(root.path())
        .unwrap()
        .next()
        .unwrap()
        .unwrap()
        .path();
    let name = if weighted { "wadj-00000" } else { "adj-00000" };
    std::fs::write(graph_dir.join(name), bytes).unwrap();
    let kernels = if weighted {
        vec![Algorithm::Sssp { source: 0 }]
    } else {
        vec![
            Algorithm::Conn,
            Algorithm::Bfs { source: 0 },
            Algorithm::Sssp { source: 1 },
            Algorithm::PageRank {
                iterations: 2,
                damping: 0.85,
            },
            Algorithm::Cd {
                iterations: 2,
                hop_attenuation: 0.1,
                degree_exponent: 0.1,
            },
            Algorithm::Lcc,
            Algorithm::Stats,
            Algorithm::Evo {
                new_vertices: 2,
                p_forward: 0.5,
                max_burst: 2,
                seed: 1,
            },
        ]
    };
    for alg in kernels {
        let result = platform.run(handle, &alg, &RunContext::unbounded());
        assert_typed(alg.name(), &result);
    }
}

/// The loaded triangle's split bytes, as `every_kernel_over` replaces them.
fn triangle_split(weighted: bool) -> Vec<u8> {
    let mut bytes = Vec::new();
    for (v, list) in [(0u32, [1u32, 2]), (1, [0, 2]), (2, [0, 1])] {
        let mut value = if weighted { vec![b'W'] } else { vec![b'N'] };
        for u in list {
            value.extend_from_slice(&u.to_le_bytes());
            if weighted {
                value.extend_from_slice(&1_500_000u64.to_le_bytes());
            }
        }
        bytes.extend(record(v, &value));
    }
    bytes
}

/// `bytes` cut to every shorter length, and with each of its bits flipped.
fn damaged(bytes: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    let cuts = (0..bytes.len()).map(|len| bytes[..len].to_vec());
    let flips = (0..bytes.len() * 8).map(|bit| {
        let mut copy = bytes.to_vec();
        copy[bit / 8] ^= 1 << (bit % 8);
        copy
    });
    cuts.chain(flips)
}

#[test]
fn every_cut_and_bit_flip_of_a_split_is_an_answer_or_a_typed_error() {
    for weighted in [false, true] {
        let valid = triangle_split(weighted);
        every_kernel_over(&valid, weighted);
        for bytes in damaged(&valid) {
            every_kernel_over(&bytes, weighted);
        }
    }
}

#[test]
fn every_cut_and_bit_flip_of_a_spill_segment_or_part_file_is_read_or_refused() {
    let scratch = ScratchDir::new(None, "gx-mr-hostile-flips").unwrap();
    let dir = scratch.path();
    // A real part file: one identity job's output over the triangle split.
    let input = part_file(dir, "in", &triangle_split(false));
    assert_eq!(job_over(dir, &input), Ok(3));
    let parts = part_files(&dir.join("out")).unwrap();
    let valid: Vec<u8> = parts
        .iter()
        .flat_map(|p| std::fs::read(p).unwrap())
        .collect();
    assert_eq!(valid.len(), triangle_split(false).len());
    for (i, bytes) in damaged(&valid).enumerate() {
        let file = part_file(dir, &format!("damaged-{i}"), &bytes);
        let len = bytes.len() as u64;
        for result in [
            spill_segment(&file, 0, len),
            part_records(file.parent().unwrap()),
        ] {
            assert!(
                matches!(result, Ok(_) | Err(PlatformError::Internal(_))),
                "{result:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn arbitrary_bytes_are_an_answer_or_a_typed_error(
        bytes in proptest::collection::vec(any::<u8>(), 0..120),
        weighted in any::<bool>(),
    ) {
        every_kernel_over(&bytes, weighted);
        let scratch = ScratchDir::new(None, "gx-mr-hostile-any").unwrap();
        let file = part_file(scratch.path(), "job", &bytes);
        let read = spill_segment(&file, 0, bytes.len() as u64);
        prop_assert!(matches!(read, Ok(_) | Err(PlatformError::Internal(_))));
        assert_typed("identity job", &job_over(scratch.path(), &file));
    }
}
