//! Hostile bytes in the three kinds of file the record reader reads — job
//! inputs, map spill segments and part files. Each malformed file is a
//! typed `PlatformError::Internal`, never a panic, and no read allocates
//! more than the file holds: a spill segment claimed longer than its file
//! is refused before anything is allocated for it. An adjacency split whose
//! record has a non-numeric id or no `N` tag is skipped by the chains'
//! mappers, so the kernels answer from the records they can read.

use std::path::{Path, PathBuf};

use graphalytics_core::platform::{PlatformError, RunContext};
use graphalytics_core::ScratchDir;
use graphalytics_mapreduce::algorithms;
use graphalytics_mapreduce::job::{
    for_each_record, part_files, read_segment, run_job, Emitter, JobConfig, Mapper, Records,
    Reducer,
};

/// Malformed files: a last line cut before its newline, bytes that are not
/// UTF-8, and a line with no tab between key and value.
const HOSTILE: &[(&str, &[u8])] = &[
    ("truncated last line", b"0\tE 1\n1\tE"),
    ("not UTF-8", b"0\tE 1\n1\tE \xff\n"),
    ("no tab", b"0\tE 1\n1 E 0\n"),
];

struct Identity;

impl Mapper for Identity {
    fn map(&self, key: &str, value: &str, out: &mut Emitter) {
        out.emit(key, value);
    }
}

struct Echo;

impl Reducer for Echo {
    fn reduce(&self, key: &str, values: &[&str], out: &mut Emitter) {
        for value in values {
            out.emit(key, value);
        }
    }
}

fn assert_malformed<T: std::fmt::Debug>(what: &str, result: Result<T, PlatformError>) {
    match result {
        Err(PlatformError::Internal(why)) if why.starts_with("malformed record file: ") => {}
        other => panic!("{what}: expected a malformed-record error, got {other:?}"),
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
        &Echo,
        &dir.join("out"),
    )
    .map(|counters| counters.map_input)
}

/// Reads `path` as the reduce side reads a spill segment: the claimed
/// range into a buffer, then the records in it. Returns the record count.
fn spill_segment(path: &Path, offset: u64, len: u64) -> Result<usize, PlatformError> {
    let mut buf = Vec::new();
    let result = read_segment(path, offset, len, &mut buf)
        .and_then(|()| Records::new(&buf)?.try_fold(0, |n, record| record.map(|_| n + 1)));
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
    for (i, (what, bytes)) in HOSTILE.iter().enumerate() {
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
    assert_malformed("empty spill, claimed segment", spill_segment(&part, 0, 6));
}

#[test]
fn a_segment_claimed_past_a_short_file_allocates_nothing() {
    let scratch = ScratchDir::new(None, "gx-mr-hostile-short").unwrap();
    let dir = scratch.path();
    let spill = part_file(dir, "job", b"0\tE 1\n1\tE 0\n");
    assert_eq!(spill_segment(&spill, 0, 12), Ok(2));
    assert_eq!(spill_segment(&spill, 6, 6), Ok(1));
    for (offset, len) in [(0, 1 << 30), (6, 7), (13, 1), (u64::MAX, 1), (1, u64::MAX)] {
        let what = format!("segment {offset}+{len} of a 12-byte spill");
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
    // A triangle whose vertex 1 also lists `x`, which has a record of its
    // own. That record sends nothing, the label sent to `x` is dropped, and
    // 1's degree counts only 0 and 2.
    let triangle = b"0\tN 1 2\n1\tN 0 2 x\n2\tN 0 1\nx\tN 1\n";
    let (conn, lcc) = kernels_over_split(dir, "adj-bad-id", triangle);
    assert_eq!(conn, Ok(vec![0, 0, 0]));
    assert_eq!(lcc, Ok(vec![1.0, 1.0, 1.0]));
    // Vertex 1's record has no `N` tag: it sends nothing and keeps its own
    // label, the messages sent to it find no state, and 0 and 2 each see
    // one neighbour.
    let (conn, lcc) = kernels_over_split(dir, "adj-no-tag", b"0\tN 1 2\n1\t0 2\n2\tN 0 1\n");
    assert_eq!(conn, Ok(vec![0, 1, 0]));
    assert_eq!(lcc, Ok(vec![0.0, 0.0, 0.0]));
}
