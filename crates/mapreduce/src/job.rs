//! A disk-backed MapReduce runtime — the Hadoop MapReduce v2 stand-in.
//!
//! "Hadoop MapReduce is an Apache open-source project implementing the
//! MapReduce programming model introduced by Google" (paper §3.2). The
//! performance property the paper relies on is that every record crosses
//! the disk between jobs, which makes MapReduce "two orders of magnitude
//! slower than Giraph and GraphX".
//!
//! This runtime reproduces that cost with real I/O, not simulation, and
//! moves records the way Hadoop's `MapOutputBuffer`, IFile and merge do:
//! * every file holds records in one binary layout, Hadoop's `Writable`
//!   stand-in: the key, a vertex id, as four big-endian bytes — so records
//!   order by their first bytes as they order by id, the property of
//!   Hadoop's raw comparators — then the value's length as a `crates/codec`
//!   `u32`, then the value's bytes. Load splits, spill segments, part files
//!   and the chains' state files are all such records;
//! * a map task reads each of its input files into a byte buffer and hands
//!   the mapper the key and a slice of the value; the mapper emits into the
//!   task's [`Emitter`], fixed-size byte buffers already in the file layout;
//! * the task sorts an index of its output records, one integer per record
//!   holding (partition, key, record number), by an LSD radix sort, and
//!   writes **one** spill file, `<job>-map-<task>` in the job's work
//!   directory, holding each reduce partition as a sorted segment whose
//!   offsets stay in memory (Hadoop's `file.out` + `file.out.index`);
//! * a reduce task reads its segment of every spill, k-way merges the
//!   sorted segments by key, groups by key and writes `part-NNNNN`.
//!
//! So a map task holds its whole output and a reduce task its whole
//! partition in memory: one spill per map task, as in Hadoop when the sort
//! buffer is larger than the task's output. Memory grows with the graph;
//! what the engine never does is keep the graph or a kernel's state in
//! memory *between* jobs. The framework allocates per buffer, never per
//! record.

use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use graphalytics_codec::Codec;
use graphalytics_core::faults::{fingerprint, FaultSite, RecoveryAction};
use graphalytics_core::platform::{PlatformError, RunContext};
use graphalytics_core::trace::Tracer;
use graphalytics_graph::partition::mix64;

/// Capacity of each of an [`Emitter`]'s buffers. Buffers of one fixed
/// size, not one buffer that doubles, hold a task's output plus at most one
/// buffer of slack, are never copied as they fill, and free and reuse
/// cleanly from one job to the next.
const CHUNK: usize = 1 << 18;

/// A record starts a new buffer when it would start this close to the end
/// of the current one.
const CHUNK_SLACK: usize = 1 << 14;

/// Bytes before a record's value: the key and the value's length.
const HEADER: usize = 8;

/// Where one record starts in an [`Emitter`]: buffer `chunk`, byte `start`.
#[derive(Debug, Clone, Copy)]
struct Span {
    chunk: u32,
    start: u32,
}

/// Collects emitted records from mappers and reducers, in byte buffers laid
/// out as the files are.
#[derive(Debug, Default)]
pub struct Emitter {
    chunks: Vec<Vec<u8>>,
    spans: Vec<Span>,
    /// The value [`Emitter::emit_each`] writes once.
    value: Vec<u8>,
}

impl Emitter {
    /// Emits a record whose value is what `value` appends to the buffer it
    /// is given.
    pub fn emit(&mut self, key: u32, value: impl FnOnce(&mut Vec<u8>)) {
        if self
            .chunks
            .last()
            .is_none_or(|bytes| bytes.len() + CHUNK_SLACK > CHUNK)
        {
            self.chunks.push(Vec::with_capacity(CHUNK));
        }
        let chunk = self.chunks.len() - 1;
        let bytes = &mut self.chunks[chunk];
        let start = bytes.len();
        self.spans.push(Span {
            chunk: chunk as u32,
            start: start as u32,
        });
        bytes.extend_from_slice(&key.to_be_bytes());
        0u32.encode_into(bytes);
        value(bytes);
        // A value is at most one adjacency list and a few words: far below
        // 4 GiB, so its length fits the `u32`.
        let len = (bytes.len() - start - HEADER) as u32;
        bytes[start + 4..start + HEADER].copy_from_slice(&len.to_le_bytes());
    }

    /// Emits a record whose value is `value`, copied as is.
    pub fn emit_bytes(&mut self, key: u32, value: &[u8]) {
        self.emit(key, |bytes| bytes.extend_from_slice(value));
    }

    /// Emits one record per key, all with the value `value` appends, which
    /// is written once.
    pub fn emit_each(
        &mut self,
        keys: impl IntoIterator<Item = u32>,
        value: impl FnOnce(&mut Vec<u8>),
    ) {
        let mut bytes = std::mem::take(&mut self.value);
        bytes.clear();
        value(&mut bytes);
        for key in keys {
            self.emit_bytes(key, &bytes);
        }
        self.value = bytes;
    }

    /// The record at `span`: its key and its bytes, header included.
    fn record(&self, span: &Span) -> (u32, &[u8]) {
        let bytes = &self.chunks[span.chunk as usize][span.start as usize..];
        let len = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]) as usize;
        (key_of(bytes), &bytes[..HEADER + len])
    }

    /// Writes every record, in emission order, to a new file at `path`.
    pub fn write_to_file(&self, path: &Path) -> Result<(), PlatformError> {
        let mut file = File::create(path).map_err(io_err)?;
        for chunk in &self.chunks {
            file.write_all(chunk).map_err(io_err)?;
        }
        Ok(())
    }
}

/// A map function over input records.
pub trait Mapper: Sync {
    /// Processes one input record.
    fn map(&self, key: u32, value: &[u8], out: &mut Emitter);
}

/// A reduce function over grouped records.
pub trait Reducer: Sync {
    /// Processes one key and all its values: map task by map task, and
    /// each map task's in the order it emitted them.
    fn reduce(&self, key: u32, values: &[&[u8]], out: &mut Emitter);
}

/// Job configuration: task parallelism and working directory.
#[derive(Debug, Clone)]
pub struct JobConfig {
    /// Concurrent map tasks.
    pub map_tasks: usize,
    /// Reduce partitions (and concurrent reduce tasks).
    pub reduce_tasks: usize,
    /// Scratch directory for spills and outputs.
    pub work_dir: PathBuf,
}

impl JobConfig {
    /// A config rooted at `work_dir` with 4/4 tasks.
    pub fn new(work_dir: impl Into<PathBuf>) -> Self {
        Self {
            map_tasks: 4,
            reduce_tasks: 4,
            work_dir: work_dir.into(),
        }
    }
}

/// Counters reported by a job run (Hadoop-style).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobCounters {
    /// Records read by mappers.
    pub map_input: usize,
    /// Records emitted by mappers (= records spilled to disk).
    pub map_output: usize,
    /// Records emitted by reducers.
    pub reduce_output: usize,
    /// Bytes written to intermediate spill files.
    pub spill_bytes: usize,
    /// User counters, keyed by name (used for convergence detection in
    /// iterative drivers).
    pub user: std::collections::BTreeMap<String, i64>,
}

impl JobCounters {
    /// Reads a user counter (0 when absent).
    pub fn user_counter(&self, name: &str) -> i64 {
        self.user.get(name).copied().unwrap_or(0)
    }
}

/// A reducer wrapper that can bump user counters through a shared cell.
pub struct ReduceContext<'a> {
    /// Output collector.
    pub out: &'a mut Emitter,
    /// User counter deltas.
    pub counters: &'a mut std::collections::BTreeMap<String, i64>,
}

/// Like [`Reducer`] but with counter access; jobs that need convergence
/// detection implement this (the plain [`Reducer`] impls get it for free
/// via a blanket adapter in [`run_job`]).
pub trait CountingReducer: Sync {
    /// Processes one key group with counter access.
    fn reduce(&self, key: u32, values: &[&[u8]], ctx: &mut ReduceContext<'_>);
}

impl<R: Reducer> CountingReducer for R {
    fn reduce(&self, key: u32, values: &[&[u8]], ctx: &mut ReduceContext<'_>) {
        Reducer::reduce(self, key, values, ctx.out)
    }
}

/// The records of a byte buffer in the file layout, as `(key, value)`, the
/// value borrowed from the buffer. A record whose header or value runs past
/// the end of the buffer (a truncated file, or a corrupt length) is an
/// error item, and the last: a length is never trusted beyond the bytes
/// that are there.
#[derive(Debug, Clone)]
pub struct Records<'a> {
    rest: &'a [u8],
}

impl<'a> Records<'a> {
    /// The records of `bytes`; an empty buffer holds none.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { rest: bytes }
    }
}

impl<'a> Iterator for Records<'a> {
    type Item = Result<(u32, &'a [u8]), PlatformError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.rest.is_empty() {
            return None;
        }
        let bytes = std::mem::take(&mut self.rest);
        let Some(len) = u32::decode_from(bytes, &mut 4) else {
            return Some(Err(malformed(&format!(
                "record header cut short: {} bytes",
                bytes.len()
            ))));
        };
        let Some(value) = bytes[HEADER..].get(..len as usize) else {
            return Some(Err(malformed(&format!(
                "record of {len} bytes with {} left",
                bytes.len() - HEADER
            ))));
        };
        self.rest = &bytes[HEADER + value.len()..];
        Some(Ok((key_of(bytes), value)))
    }
}

/// The key of the record that starts `bytes`, which holds its header.
fn key_of(bytes: &[u8]) -> u32 {
    u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]])
}

fn malformed(what: &str) -> PlatformError {
    // Corrupt records are deterministic, not cluster weather: no retry.
    PlatformError::Internal(format!("malformed record file: {what}"))
}

/// Replaces `buf`'s contents with the whole file at `path`.
fn read_file(path: &Path, buf: &mut Vec<u8>) -> Result<(), PlatformError> {
    buf.clear();
    File::open(path)
        .and_then(|mut f| f.read_to_end(buf))
        .map_err(io_err)?;
    Ok(())
}

/// Appends bytes `offset..offset + len` of the file at `path` to `buf`. A
/// file that holds fewer bytes is an error, found before anything is
/// allocated, so `buf` never grows by more than the file holds.
pub fn read_segment(
    path: &Path,
    offset: u64,
    len: u64,
    buf: &mut Vec<u8>,
) -> Result<(), PlatformError> {
    let mut file = File::open(path).map_err(io_err)?;
    let held = file
        .metadata()
        .map_err(io_err)?
        .len()
        .saturating_sub(offset);
    if held < len {
        return Err(malformed(&format!(
            "segment of {len} bytes at offset {offset}, file holds {held}"
        )));
    }
    file.seek(SeekFrom::Start(offset)).map_err(io_err)?;
    // `len` is at most the file's length, so the reservation is too.
    buf.reserve_exact(len as usize);
    let read = file.take(len).read_to_end(buf).map_err(io_err)?;
    if read as u64 != len {
        return Err(malformed(&format!(
            "segment of {len} bytes at offset {offset} ends after {read}"
        )));
    }
    Ok(())
}

/// Calls `f` on every record of `files`, in file order, reading each file
/// into one reused buffer.
pub fn for_each_record(
    files: &[PathBuf],
    mut f: impl FnMut(u32, &[u8]) -> Result<(), PlatformError>,
) -> Result<(), PlatformError> {
    let mut buf = Vec::new();
    for path in files {
        read_file(path, &mut buf)?;
        for record in Records::new(&buf) {
            let (key, value) = record?;
            f(key, value)?;
        }
    }
    Ok(())
}

/// The part files of a completed job's output directory, in partition
/// order.
pub fn part_files(dir: &Path) -> Result<Vec<PathBuf>, PlatformError> {
    let mut parts: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(io_err)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .is_some_and(|name| name.to_string_lossy().starts_with("part-"))
        })
        .collect();
    parts.sort();
    Ok(parts)
}

fn io_err(e: std::io::Error) -> PlatformError {
    // Transient by classification: a failed read/write of a spill or part
    // file is cluster weather (full disk, flaky mount), the kind of error
    // Hadoop retries task attempts for.
    PlatformError::TransientIo(format!("i/o: {e}"))
}

/// Task attempts allowed per map/reduce task before the job fails —
/// Hadoop's `mapreduce.map.maxattempts` default.
const MAX_TASK_ATTEMPTS: u32 = 4;

/// Task-attempt injection point: probes the fault plan at task start and
/// retries the attempt (bounded) on an injected transient I/O error, the
/// Hadoop speculative-reexecution model in miniature.
fn probe_task_attempts(ctx: &RunContext, job: u64, task: u32) -> Result<(), PlatformError> {
    ctx.retry_injected(
        MAX_TASK_ATTEMPTS,
        RecoveryAction::TaskRetry,
        |attempt| FaultSite::TaskIo { job, task, attempt },
        || {},
    )
}

/// A map output record's place in the sort, as one integer: its partition
/// in bits 64.., its key in bits 32..64 and its number in emission order
/// in bits 0..32.
fn sort_entry(partition: u32, key: u32, index: u32) -> u128 {
    (u128::from(partition) << 64) | (u128::from(key) << 32) | u128::from(index)
}

/// Sorts `entries` — [`sort_entry`]s in index order — by partition, then
/// key, then index: one stable LSD radix pass per byte of the partition and
/// key, skipping each byte that every entry shares.
fn radix_sort(entries: &mut Vec<u128>) {
    const DIGITS: usize = 8;
    let mut counts = [[0usize; 256]; DIGITS];
    for &entry in entries.iter() {
        for (digit, count) in counts.iter_mut().enumerate() {
            count[(entry >> (32 + 8 * digit)) as u8 as usize] += 1;
        }
    }
    let mut sorted = vec![0u128; entries.len()];
    for (digit, count) in counts.iter().enumerate() {
        if count.contains(&entries.len()) {
            continue;
        }
        let mut next = [0usize; 256];
        let mut at = 0;
        for (slot, &n) in next.iter_mut().zip(count) {
            *slot = at;
            at += n;
        }
        for &entry in entries.iter() {
            let byte = (entry >> (32 + 8 * digit)) as u8 as usize;
            sorted[next[byte]] = entry;
            next[byte] += 1;
        }
        std::mem::swap(entries, &mut sorted);
    }
}

/// What a finished map task reports: its counts and where each reduce
/// partition's sorted segment sits in its spill file.
struct MapTask {
    input: usize,
    output: usize,
    spilled: usize,
    /// The segments, in partition order, as pieces of whole records of at
    /// most [`CHUNK`] bytes each (or one record, if it is longer), so that
    /// a reduce task reads them into buffers the size of an [`Emitter`]'s.
    pieces: Vec<Piece>,
}

/// Bytes `offset..offset + len` of a spill file: whole records of one
/// partition.
struct Piece {
    partition: usize,
    offset: u64,
    len: u64,
}

/// A job's spill files, removed when the job ends, whether it succeeded or
/// not (Hadoop removes a job's intermediates after it).
struct Spills(Vec<PathBuf>);

impl Drop for Spills {
    fn drop(&mut self) {
        for path in &self.0 {
            // lint:allow(swallowed-result): spill cleanup is cosmetic; a task that failed before spilling left no file to remove
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Runs one map task over the inputs `task`, `task + map_tasks`, …: reads
/// them, maps every record into one buffer, sorts its index by (partition,
/// key) and writes the one spill file. Each of the four steps is a
/// `mapreduce.map.<step>` span under `parent`.
#[allow(clippy::too_many_arguments)]
fn map_task<M: Mapper>(
    inputs: &[PathBuf],
    task: usize,
    map_tasks: usize,
    reduce_tasks: usize,
    mapper: &M,
    spill: &Path,
    tracer: &Tracer,
    parent: Option<u64>,
) -> Result<MapTask, PlatformError> {
    let step = tracer.span_with_parent("mapreduce.map.read", parent);
    let mut files = Vec::new();
    for path in inputs.iter().skip(task).step_by(map_tasks) {
        let mut bytes = Vec::new();
        read_file(path, &mut bytes)?;
        files.push(bytes);
    }
    drop(step);
    let step = tracer.span_with_parent("mapreduce.map.mapper", parent);
    let mut out = Emitter::default();
    let mut input_count = 0usize;
    for bytes in &files {
        for record in Records::new(bytes) {
            let (key, value) = record?;
            input_count += 1;
            mapper.map(key, value, &mut out);
        }
    }
    drop((step, files));
    let step = tracer.span_with_parent("mapreduce.map.sort", parent);
    let spans = &out.spans;
    if u32::try_from(spans.len()).is_err() {
        return Err(PlatformError::Internal(format!(
            "map task {task} emitted {} records, more than its sort index holds",
            spans.len()
        )));
    }
    let mut order: Vec<u128> = spans
        .iter()
        .zip(0u32..)
        .map(|(span, index)| {
            let (key, _) = out.record(span);
            // The partitioner hashes the key, so neighbouring ids spread.
            let partition = mix64(u64::from(key)) % reduce_tasks as u64;
            sort_entry(partition as u32, key, index)
        })
        .collect();
    radix_sort(&mut order);
    drop(step);
    let step = tracer.span_with_parent("mapreduce.map.spill", parent);
    let mut file = BufWriter::with_capacity(WRITE_BUFFER, File::create(spill).map_err(io_err)?);
    let mut pieces: Vec<Piece> = Vec::new();
    let mut written = 0u64;
    for &entry in &order {
        let partition = (entry >> 64) as usize;
        let (_, record) = out.record(&spans[entry as u32 as usize]);
        let len = record.len() as u64;
        match pieces.last_mut() {
            Some(piece) if piece.partition == partition && piece.len + len <= CHUNK as u64 => {
                piece.len += len;
            }
            _ => pieces.push(Piece {
                partition,
                offset: written,
                len,
            }),
        }
        file.write_all(record).map_err(io_err)?;
        written += len;
    }
    file.flush().map_err(io_err)?;
    drop(step);
    Ok(MapTask {
        input: input_count,
        output: spans.len(),
        spilled: written as usize,
        pieces,
    })
}

/// Buffer size of the spill file writer.
const WRITE_BUFFER: usize = 1 << 16;

/// The records of one map task's sorted segment, piece after piece.
struct Segment<'a> {
    pieces: std::slice::Iter<'a, Vec<u8>>,
    records: Records<'a>,
}

impl<'a> Segment<'a> {
    fn next(&mut self) -> Result<Option<(u32, &'a [u8])>, PlatformError> {
        loop {
            if let Some(record) = self.records.next() {
                return record.map(Some);
            }
            let Some(piece) = self.pieces.next() else {
                return Ok(None);
            };
            self.records = Records::new(piece);
        }
    }
}

/// Runs reduce task `p`: reads segment `p` of every spill, k-way merges the
/// sorted segments, reduces each key group and writes `part-<p>`. Each of
/// the four steps is a `mapreduce.reduce.<step>` span under `parent`.
/// Returns the records written and the user counter deltas.
#[allow(clippy::too_many_arguments)]
fn reduce_task<R: CountingReducer>(
    spills: &[PathBuf],
    maps: &[MapTask],
    p: usize,
    reducer: &R,
    part: &Path,
    tracer: &Tracer,
    parent: Option<u64>,
) -> Result<(usize, std::collections::BTreeMap<String, i64>), PlatformError> {
    let step = tracer.span_with_parent("mapreduce.reduce.read", parent);
    let mut segments: Vec<Vec<Vec<u8>>> = Vec::with_capacity(maps.len());
    for (spill, map) in spills.iter().zip(maps) {
        let mut pieces = Vec::new();
        for piece in map.pieces.iter().filter(|piece| piece.partition == p) {
            let mut bytes = Vec::new();
            read_segment(spill, piece.offset, piece.len, &mut bytes)?;
            pieces.push(bytes);
        }
        segments.push(pieces);
    }
    drop(step);
    let step = tracer.span_with_parent("mapreduce.reduce.merge", parent);
    // One cursor per map task's segment, each with its next record.
    let mut cursors = Vec::with_capacity(segments.len());
    for pieces in &segments {
        let mut segment = Segment {
            pieces: pieces.iter(),
            records: Records::new(&[]),
        };
        let head = segment.next()?;
        cursors.push((head, segment));
    }
    // The record with the smallest key next, the earlier map task's on a
    // tie, by a linear scan over the heads: there are as few segments as
    // map tasks.
    let mut merged: Vec<(u32, &[u8])> = Vec::new();
    loop {
        let smallest = cursors
            .iter()
            .enumerate()
            .filter_map(|(i, (head, _))| head.map(|(key, _)| (key, i)))
            .min();
        let Some((_, i)) = smallest else {
            break;
        };
        let (head, segment) = &mut cursors[i];
        merged.extend(*head);
        *head = segment.next()?;
    }
    drop(step);
    let step = tracer.span_with_parent("mapreduce.reduce.reducer", parent);
    let mut out = Emitter::default();
    let mut user = std::collections::BTreeMap::new();
    let mut ctx = ReduceContext {
        out: &mut out,
        counters: &mut user,
    };
    let mut values: Vec<&[u8]> = Vec::new();
    for (i, &(key, value)) in merged.iter().enumerate() {
        values.push(value);
        if merged.get(i + 1).is_none_or(|&(next, _)| next != key) {
            reducer.reduce(key, &values, &mut ctx);
            values.clear();
        }
    }
    drop(step);
    let _step = tracer.span_with_parent("mapreduce.reduce.write", parent);
    out.write_to_file(part)?;
    Ok((out.spans.len(), user))
}

/// Runs one MapReduce job: `inputs` → mapper → sort/spill → shuffle →
/// reducer → `output_dir/part-NNNNN`. Returns counters.
pub fn run_job<M: Mapper, R: CountingReducer>(
    config: &JobConfig,
    job_name: &str,
    inputs: &[PathBuf],
    mapper: &M,
    reducer: &R,
    output_dir: &Path,
) -> Result<JobCounters, PlatformError> {
    run_job_traced(
        config,
        job_name,
        inputs,
        mapper,
        reducer,
        output_dir,
        &RunContext::unbounded(),
    )
}

/// [`run_job`] with observability and fault hooks from the harness's
/// [`RunContext`]: emits one `mapreduce.job` span carrying the job name
/// and final [`JobCounters`], with nested `mapreduce.map` /
/// `mapreduce.reduce` phase spans, and under those one span per task and
/// step: `mapreduce.map.{read,mapper,sort,spill}` and
/// `mapreduce.reduce.{read,merge,reducer,write}`. When a fault plan is
/// armed, every task is a transient-I/O injection point with bounded
/// attempt retries.
#[allow(clippy::too_many_arguments)]
pub fn run_job_traced<M: Mapper, R: CountingReducer>(
    config: &JobConfig,
    job_name: &str,
    inputs: &[PathBuf],
    mapper: &M,
    reducer: &R,
    output_dir: &Path,
    ctx: &RunContext,
) -> Result<JobCounters, PlatformError> {
    let tracer = ctx.tracer();
    let map_job_fp = fingerprint(&format!("{job_name}#map"));
    let reduce_job_fp = fingerprint(&format!("{job_name}#reduce"));
    let mut job_span = tracer.span("mapreduce.job");
    job_span.field("job", job_name);
    std::fs::create_dir_all(output_dir).map_err(io_err)?;
    let reduce_tasks = config.reduce_tasks.max(1);

    // --- Map phase: each task handles a slice of the input files. ---
    let map_tasks = config.map_tasks.max(1).min(inputs.len().max(1));
    let spills = Spills(
        (0..map_tasks)
            .map(|task| config.work_dir.join(format!("{job_name}-map-{task}")))
            .collect(),
    );
    let mut map_span = tracer.span("mapreduce.map");
    map_span.field("job", job_name).field("tasks", map_tasks);
    let map_span_id = map_span.id();
    // A task returns its own Result; a panicking mapper is an `Err` from the
    // fork-join — a failed map task becomes a failed job, not a harness crash.
    let map_results = graphalytics_parallel::try_map_each(&spills.0, |task, spill| {
        probe_task_attempts(ctx, map_job_fp, task as u32)?;
        map_task(
            inputs,
            task,
            map_tasks,
            reduce_tasks,
            mapper,
            spill,
            tracer,
            map_span_id,
        )
    })
    .map_err(|payload| PlatformError::worker_panicked("map", payload))?;
    let mut counters = JobCounters::default();
    let mut maps = Vec::with_capacity(map_tasks);
    for (task, r) in map_results.into_iter().enumerate() {
        let map = r?;
        // One work-distribution event per map task: straggler tasks are
        // what the skew choke point measures for MapReduce.
        tracer.event(
            "mapreduce.task",
            map_span_id,
            vec![
                ("phase".to_string(), "map".into()),
                ("task".to_string(), task.into()),
                ("work".to_string(), map.input.into()),
                ("output".to_string(), map.output.into()),
                ("spilled".to_string(), map.spilled.into()),
            ],
        );
        counters.map_input += map.input;
        counters.map_output += map.output;
        counters.spill_bytes += map.spilled;
        maps.push(map);
    }
    map_span
        .field("map_input", counters.map_input)
        .field("map_output", counters.map_output)
        .field("spill_bytes", counters.spill_bytes)
        // Locality proxies: input files stream sequentially; every mapped
        // record hash-partitions into a random reducer bucket.
        .field("seq_accesses", counters.map_input)
        .field("rand_accesses", counters.map_output);
    drop(map_span);

    // --- Reduce phase: each task merges its partition's segments. ---
    let mut reduce_span = tracer.span("mapreduce.reduce");
    reduce_span
        .field("job", job_name)
        .field("tasks", reduce_tasks);
    let reduce_span_id = reduce_span.id();
    let reduce_results = graphalytics_parallel::try_map_each(0..reduce_tasks, |_, p| {
        probe_task_attempts(ctx, reduce_job_fp, p as u32)?;
        let part = output_dir.join(format!("part-{p:05}"));
        reduce_task(&spills.0, &maps, p, reducer, &part, tracer, reduce_span_id)
    })
    .map_err(|payload| PlatformError::worker_panicked("reduce", payload))?;
    for (task, r) in reduce_results.into_iter().enumerate() {
        let (count, user) = r?;
        tracer.event(
            "mapreduce.task",
            reduce_span_id,
            vec![
                ("phase".to_string(), "reduce".into()),
                ("task".to_string(), task.into()),
                ("work".to_string(), count.into()),
            ],
        );
        counters.reduce_output += count;
        for (k, v) in user {
            *counters.user.entry(k).or_insert(0) += v;
        }
    }
    reduce_span
        .field("reduce_output", counters.reduce_output)
        // The sorted-spill merge streams each fragment sequentially.
        .field("seq_accesses", counters.reduce_output)
        .field("rand_accesses", 0usize);
    drop(reduce_span);
    job_span
        .field("map_input", counters.map_input)
        .field("map_output", counters.map_output)
        .field("reduce_output", counters.reduce_output)
        .field("spill_bytes", counters.spill_bytes);
    Ok(counters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphalytics_core::ScratchDir;

    fn tmp(name: &str) -> ScratchDir {
        ScratchDir::new(None, &format!("gx-mr-{name}")).unwrap()
    }

    fn write_records(path: &Path, records: &[(u32, &[u8])]) {
        let mut out = Emitter::default();
        for &(k, v) in records {
            out.emit_bytes(k, v);
        }
        out.write_to_file(path).unwrap();
    }

    /// Every record of a job's output, in part-file order.
    fn read_output(dir: &Path) -> Vec<(u32, Vec<u8>)> {
        let mut out = Vec::new();
        for_each_record(&part_files(dir).unwrap(), |k, v| {
            out.push((k, v.to_vec()));
            Ok(())
        })
        .unwrap();
        out
    }

    /// A value of `u32` tokens.
    fn tokens(ids: &[u32]) -> Vec<u8> {
        let mut bytes = Vec::new();
        u32::encode_slice(ids, &mut bytes);
        bytes
    }

    /// The canonical word count, over ids: one `1` per token of the value.
    struct TokenMapper;
    impl Mapper for TokenMapper {
        fn map(&self, _key: u32, value: &[u8], out: &mut Emitter) {
            for token in value.chunks_exact(4) {
                let token = u32::from_le_bytes([token[0], token[1], token[2], token[3]]);
                out.emit(token, |bytes| 1u64.encode_into(bytes));
            }
        }
    }

    struct SumReducer;
    impl Reducer for SumReducer {
        fn reduce(&self, key: u32, values: &[&[u8]], out: &mut Emitter) {
            let total: u64 = values
                .iter()
                .filter_map(|v| u64::decode_from(v, &mut 0))
                .sum();
            out.emit(key, |bytes| total.encode_into(bytes));
        }
    }

    #[test]
    fn token_count_end_to_end() {
        let scratch = tmp("wc");
        let dir = scratch.path();
        let input = dir.join("input-0");
        write_records(
            &input,
            &[(0, &tokens(&[7, 3, 9, 1])), (1, &tokens(&[7, 2, 5, 7, 4]))],
        );
        let config = JobConfig::new(dir);
        let out_dir = dir.join("out");
        let counters = run_job(
            &config,
            "wordcount",
            &[input],
            &TokenMapper,
            &SumReducer,
            &out_dir,
        )
        .unwrap();
        assert_eq!(counters.map_input, 2);
        assert_eq!(counters.map_output, 9);
        // Each of the 9 records is a header and a `u64`.
        assert_eq!(counters.spill_bytes, 9 * (HEADER + 8));
        let mut output = read_output(&out_dir);
        output.sort();
        let seven = output.iter().find(|(k, _)| *k == 7).unwrap();
        assert_eq!(seven.1, 3u64.to_le_bytes());
        assert_eq!(output.len(), 7);
        assert_eq!(counters.reduce_output, 7);
    }

    #[test]
    fn traced_job_emits_job_and_phase_spans_matching_counters() {
        use graphalytics_core::trace::{FieldValue, Tracer};
        use std::sync::Arc;

        let scratch = tmp("spans");
        let dir = scratch.path();
        let input = dir.join("input-0");
        write_records(&input, &[(0, &tokens(&[1, 2, 1]))]);
        let tracer = Arc::new(Tracer::new());
        let ctx = RunContext::unbounded().with_tracer(Arc::clone(&tracer));
        let counters = run_job_traced(
            &JobConfig::new(dir),
            "wc",
            &[input],
            &TokenMapper,
            &SumReducer,
            &dir.join("out"),
            &ctx,
        )
        .unwrap();

        let spans = tracer.finished_spans();
        let job = spans.iter().find(|s| s.name == "mapreduce.job").unwrap();
        assert_eq!(job.field("job"), Some(&FieldValue::Str("wc".into())));
        assert_eq!(
            job.field("map_output").and_then(|f| f.as_i64()),
            Some(counters.map_output as i64)
        );
        assert_eq!(
            job.field("reduce_output").and_then(|f| f.as_i64()),
            Some(counters.reduce_output as i64)
        );
        for (phase, steps) in [
            ("mapreduce.map", ["read", "mapper", "sort", "spill"]),
            ("mapreduce.reduce", ["read", "merge", "reducer", "write"]),
        ] {
            let s = spans.iter().find(|s| s.name == phase).unwrap();
            assert_eq!(s.parent, Some(job.id), "{phase} nests under the job");
            // One map task (one input); four reduce tasks by default.
            let tasks = s.field("tasks").and_then(|f| f.as_i64()).unwrap() as usize;
            for step in steps {
                let name = format!("{phase}.{step}");
                let under: Vec<_> = spans.iter().filter(|c| c.name == name).collect();
                assert_eq!(under.len(), tasks, "{name}");
                assert!(under.iter().all(|c| c.parent == Some(s.id)), "{name}");
            }
        }
    }

    #[test]
    fn a_panicking_mapper_fails_the_job() {
        struct PanickingMapper;
        impl Mapper for PanickingMapper {
            fn map(&self, _key: u32, value: &[u8], _out: &mut Emitter) {
                assert_ne!(value, b"poison", "cannot map it");
            }
        }
        let scratch = tmp("panic");
        let dir = scratch.path();
        let inputs = [dir.join("input-0"), dir.join("input-1")];
        write_records(&inputs[0], &[(0, b"fine")]);
        write_records(&inputs[1], &[(0, b"poison")]);
        // Two inputs are two map tasks on their own threads; one input is
        // one task on the calling thread.
        for inputs in [&inputs[..], &inputs[1..]] {
            let config = JobConfig::new(dir);
            let err = run_job(
                &config,
                "panic",
                inputs,
                &PanickingMapper,
                &SumReducer,
                &dir.join("out"),
            );
            assert!(
                matches!(&err, Err(PlatformError::Internal(why))
                    if why.starts_with("map worker panicked: ") && why.contains("cannot map it")),
                "{err:?}"
            );
        }
    }

    #[test]
    fn records_round_trip_via_disk() {
        let scratch = tmp("rt");
        let dir = scratch.path();
        let path = dir.join("part-00000");
        let records: [(u32, &[u8]); 4] = [
            (0, b"1 2"),
            (u32::MAX, b""),
            (256, b"\n\t\0\xff"),
            (7, &[0; 300]),
        ];
        write_records(&path, &records);
        assert_eq!(
            read_output(dir),
            records.map(|(k, v)| (k, v.to_vec())).to_vec()
        );
    }

    #[test]
    fn emitter_buffers_the_file_layout() {
        let mut out = Emitter::default();
        out.emit(7, |bytes| bytes.extend_from_slice(b"E8"));
        out.emit_bytes(0x0102_0304, b"");
        out.emit_each([1, 256], |bytes| bytes.push(b'C'));
        out.emit_each([], |bytes| bytes.push(b'!'));
        assert_eq!(
            out.chunks.concat(),
            [
                &[0, 0, 0, 7, 2, 0, 0, 0, b'E', b'8'][..],
                &[1, 2, 3, 4, 0, 0, 0, 0],
                &[0, 0, 0, 1, 1, 0, 0, 0, b'C'],
                &[0, 0, 1, 0, 1, 0, 0, 0, b'C'],
            ]
            .concat()
        );
        let starts: Vec<u32> = out.spans.iter().map(|s| s.start).collect();
        assert_eq!(starts, [0, 10, 18, 27]);
        let keys: Vec<u32> = out.spans.iter().map(|s| out.record(s).0).collect();
        assert_eq!(keys, [7, 0x0102_0304, 1, 256]);
    }

    #[test]
    fn emitter_buffers_fill_without_growing() {
        // Three buffers' worth of records: each buffer keeps the capacity it
        // was created with, and every record reads back whole.
        let mut out = Emitter::default();
        let value = [b'v'; 1000];
        let records = 3 * CHUNK / 1000;
        for i in 0..records as u32 {
            out.emit_bytes(i, &value);
        }
        assert_eq!(out.chunks.len(), 4);
        assert!(out.chunks.iter().all(|c| c.capacity() == CHUNK));
        for (i, span) in out.spans.iter().enumerate() {
            let (key, record) = out.record(span);
            assert_eq!(key, i as u32);
            assert_eq!(&record[HEADER..], value);
        }
    }

    /// Keeps every record as it is, on both sides.
    struct Keep;
    impl Mapper for Keep {
        fn map(&self, key: u32, value: &[u8], out: &mut Emitter) {
            out.emit_bytes(key, value);
        }
    }
    impl Reducer for Keep {
        fn reduce(&self, key: u32, values: &[&[u8]], out: &mut Emitter) {
            values.iter().for_each(|v| out.emit_bytes(key, v));
        }
    }

    #[test]
    fn spill_order_is_key_order_and_stable() {
        // Keys on both sides of every byte boundary of the sort's digits.
        let keys = [
            0,
            1,
            255,
            256,
            257,
            65_535,
            65_536,
            1 << 24,
            u32::MAX - 1,
            u32::MAX,
        ];
        let values: [&[u8]; 3] = [b"", b"b", b"a"];
        let mut records: Vec<(u32, &[u8])> = keys
            .iter()
            .flat_map(|&k| values.iter().map(move |&v| (k, v)))
            .collect();
        // Inputs in reverse order, spread over three map tasks.
        records.reverse();
        let scratch = tmp("order");
        let dir = scratch.path();
        let chunks: Vec<&[(u32, &[u8])]> = records.chunks(7).collect();
        let inputs: Vec<PathBuf> = chunks
            .iter()
            .enumerate()
            .map(|(i, chunk)| {
                let path = dir.join(format!("in-{i}"));
                write_records(&path, chunk);
                path
            })
            .collect();
        let config = JobConfig {
            map_tasks: 3,
            reduce_tasks: 1,
            work_dir: dir.to_path_buf(),
        };
        run_job(&config, "order", &inputs, &Keep, &Keep, &dir.join("out")).unwrap();
        // Map task t reads inputs t, t + 3, …; each key's values come map
        // task by map task, in the order each task read them.
        let mut expected: Vec<(usize, (u32, &[u8]))> = Vec::new();
        for task in 0..3 {
            for chunk in chunks.iter().skip(task).step_by(3) {
                expected.extend(chunk.iter().map(|&record| (task, record)));
            }
        }
        expected.sort_by_key(|&(task, (key, _))| (key, task));
        let expected: Vec<(u32, Vec<u8>)> = expected
            .into_iter()
            .map(|(_, (k, v))| (k, v.to_vec()))
            .collect();
        assert_eq!(read_output(&dir.join("out")), expected);
    }

    #[test]
    fn radix_sort_is_a_stable_sort_by_partition_and_key() {
        // Entries in index order, with every digit of the partition and key
        // varying somewhere, and one digit shared by all.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut entries: Vec<u128> = (0..5_000u32)
            .map(|index| {
                state = mix64(state);
                let key = (state as u32) & 0xff00_ffff;
                sort_entry((state >> 40) as u32 % 300, key, index)
            })
            .collect();
        let mut expected = entries.clone();
        expected.sort_unstable();
        radix_sort(&mut entries);
        assert_eq!(entries, expected);
        let mut empty = Vec::new();
        radix_sort(&mut empty);
        assert!(empty.is_empty());
    }

    #[test]
    fn user_counters_propagate() {
        struct CountingRed;
        impl CountingReducer for CountingRed {
            fn reduce(&self, key: u32, values: &[&[u8]], ctx: &mut ReduceContext<'_>) {
                *ctx.counters.entry("keys".into()).or_insert(0) += 1;
                ctx.out.emit(key, |bytes| values.len().encode_into(bytes));
            }
        }
        let scratch = tmp("counters");
        let dir = scratch.path();
        let input = dir.join("in");
        write_records(&input, &[(0, &tokens(&[1, 2, 1])), (1, &tokens(&[3]))]);
        let counters = run_job(
            &JobConfig::new(dir),
            "count",
            &[input],
            &TokenMapper,
            &CountingRed,
            &dir.join("out"),
        )
        .unwrap();
        assert_eq!(counters.user_counter("keys"), 3); // 1, 2, 3.
        assert_eq!(counters.user_counter("missing"), 0);
    }

    #[test]
    fn multiple_inputs_distribute_across_map_tasks() {
        let scratch = tmp("multi");
        let dir = scratch.path();
        let mut inputs = Vec::new();
        for i in 0..6 {
            let p = dir.join(format!("in-{i}"));
            write_records(&p, &[(i, &tokens(&[100 + i]))]);
            inputs.push(p);
        }
        let counters = run_job(
            &JobConfig::new(dir),
            "multi",
            &inputs,
            &TokenMapper,
            &SumReducer,
            &dir.join("out"),
        )
        .unwrap();
        assert_eq!(counters.map_input, 6);
        assert_eq!(read_output(&dir.join("out")).len(), 6);
    }

    #[test]
    fn empty_input_produces_empty_output() {
        let scratch = tmp("empty");
        let dir = scratch.path();
        let input = dir.join("in");
        write_records(&input, &[]);
        let counters = run_job(
            &JobConfig::new(dir),
            "empty",
            &[input],
            &TokenMapper,
            &SumReducer,
            &dir.join("out"),
        )
        .unwrap();
        assert_eq!(counters.map_input, 0);
        assert!(read_output(&dir.join("out")).is_empty());
    }

    #[test]
    fn injected_task_io_fault_retries_and_succeeds() {
        use graphalytics_core::faults::{FaultInjector, FaultPlan, FaultSite};
        use std::sync::Arc;

        let scratch = tmp("taskio");
        let dir = scratch.path();
        let input = dir.join("in");
        write_records(&input, &[(0, &tokens(&[1, 2, 1]))]);
        let baseline = run_job(
            &JobConfig::new(dir),
            "flaky",
            std::slice::from_ref(&input),
            &TokenMapper,
            &SumReducer,
            &dir.join("out-base"),
        )
        .unwrap();

        // Fail the first attempt of map task 0; attempt 1 must succeed.
        let plan = FaultPlan::disabled().force(FaultSite::TaskIo {
            job: fingerprint("flaky#map"),
            task: 0,
            attempt: 0,
        });
        let injector = Arc::new(FaultInjector::new(plan));
        let ctx = RunContext::unbounded().with_faults(Arc::clone(&injector));
        let counters = run_job_traced(
            &JobConfig::new(dir),
            "flaky",
            &[input],
            &TokenMapper,
            &SumReducer,
            &dir.join("out-faulty"),
            &ctx,
        )
        .unwrap();
        assert_eq!(counters, baseline);
        assert_eq!(
            read_output(&dir.join("out-faulty")),
            read_output(&dir.join("out-base"))
        );
        assert_eq!(injector.injected_count(), 1);
        assert_eq!(injector.recovery_count(), 1);
    }

    #[test]
    fn task_attempt_budget_exhaustion_fails_the_job() {
        use graphalytics_core::faults::{FaultInjector, FaultPlan, FaultSite};
        use std::sync::Arc;

        let scratch = tmp("taskio-fatal");
        let dir = scratch.path();
        let input = dir.join("in");
        write_records(&input, &[(0, &tokens(&[1]))]);
        let mut plan = FaultPlan::disabled();
        for attempt in 0..MAX_TASK_ATTEMPTS {
            plan = plan.force(FaultSite::TaskIo {
                job: fingerprint("doomed#reduce"),
                task: 2,
                attempt,
            });
        }
        let injector = Arc::new(FaultInjector::new(plan));
        let ctx = RunContext::unbounded().with_faults(Arc::clone(&injector));
        let err = run_job_traced(
            &JobConfig::new(dir),
            "doomed",
            &[input],
            &TokenMapper,
            &SumReducer,
            &dir.join("out"),
            &ctx,
        );
        match err {
            Err(PlatformError::TransientIo(_)) => {}
            other => panic!("expected TransientIo, got {other:?}"),
        }
        assert_eq!(injector.injected_count(), MAX_TASK_ATTEMPTS as usize);
        assert_eq!(injector.recovery_count(), (MAX_TASK_ATTEMPTS - 1) as usize);
    }

    #[test]
    fn spills_are_cleaned_after_job() {
        let scratch = tmp("clean");
        let dir = scratch.path();
        let input = dir.join("in");
        write_records(&input, &[(0, &tokens(&[1]))]);
        run_job(
            &JobConfig::new(dir),
            "cleanme",
            &[input],
            &TokenMapper,
            &SumReducer,
            &dir.join("out"),
        )
        .unwrap();
        let mut left: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        left.sort();
        assert_eq!(left, ["in", "out"]);
    }

    #[test]
    fn reducers_see_values_map_task_by_map_task() {
        struct Join;
        impl Reducer for Join {
            fn reduce(&self, key: u32, values: &[&[u8]], out: &mut Emitter) {
                out.emit(key, |bytes| values.iter().for_each(|v| bytes.extend(*v)));
            }
        }
        let scratch = tmp("merge");
        let dir = scratch.path();
        // Four inputs over two map tasks: task 0 reads inputs 0 and 2, task
        // 1 inputs 1 and 3, and each reduce partition merges two segments.
        let inputs: Vec<PathBuf> = (0..4).map(|i| dir.join(format!("in-{i}"))).collect();
        write_records(&inputs[0], &[(2, b"d"), (1, b"2")]);
        write_records(&inputs[1], &[(2, b"c"), (1, b"1")]);
        write_records(&inputs[2], &[(2, b"b"), (2, b"d")]);
        write_records(&inputs[3], &[(2, b"a"), (1, b"0")]);
        let config = JobConfig {
            map_tasks: 2,
            reduce_tasks: 2,
            work_dir: dir.to_path_buf(),
        };
        run_job(&config, "merge", &inputs, &Keep, &Join, &dir.join("out")).unwrap();
        let mut output = read_output(&dir.join("out"));
        output.sort();
        assert_eq!(output, [(1, b"210".to_vec()), (2, b"dbdca".to_vec())]);
    }
}
