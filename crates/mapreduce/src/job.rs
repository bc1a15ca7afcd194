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
//! * a map task reads each of its input files once into a byte buffer and
//!   hands the mapper `&str` slices of it; the mapper emits into the task's
//!   [`Emitter`], fixed-size byte buffers already in the on-disk layout
//!   `key\tvalue\n`;
//! * the task sorts an index of its output records by (partition, key,
//!   value) and writes **one** spill file, `<job>-map-<task>` in the job's
//!   work directory, holding each reduce partition as a sorted segment
//!   whose offsets stay in memory (Hadoop's `file.out` + `file.out.index`);
//! * a reduce task reads its segment of every spill, k-way merges the
//!   sorted segments, groups by key and writes `part-NNNNN`.
//!
//! So a map task holds its whole output and a reduce task its whole
//! partition in memory: one spill per map task, as in Hadoop when the sort
//! buffer is larger than the task's output. Memory grows with the graph;
//! what the engine never does is keep the graph or a kernel's state in
//! memory *between* jobs. The framework allocates per buffer, never per
//! record.

use std::fmt::Display;
use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use graphalytics_core::faults::{fingerprint, FaultSite, RecoveryAction};
use graphalytics_core::platform::{PlatformError, RunContext};
use graphalytics_graph::io::push_u64;
use graphalytics_graph::partition::mix64;

/// Capacity of each of an [`Emitter`]'s buffers. Buffers of one fixed
/// size, not one buffer that doubles, hold a task's output plus at most one
/// buffer of slack, are never copied as they fill, and free and reuse
/// cleanly from one job to the next.
const CHUNK: usize = 1 << 18;

/// A record starts a new buffer when it would start this close to the end
/// of the current one.
const CHUNK_SLACK: usize = 1 << 14;

/// Where one record sits in an [`Emitter`]: in buffer `chunk`, `start..tab`
/// is the key, `tab + 1..end` the value and `end` the newline.
#[derive(Debug, Clone, Copy)]
struct Span {
    chunk: usize,
    start: usize,
    tab: usize,
    end: usize,
}

/// Collects emitted records from mappers and reducers, in byte buffers laid
/// out as the files are: `key\tvalue\n` per record.
#[derive(Debug, Default)]
pub struct Emitter {
    chunks: Vec<Vec<u8>>,
    spans: Vec<Span>,
    /// The value [`Emitter::emit_each`] formats once.
    value: Vec<u8>,
}

impl Emitter {
    /// Emits a record. The value is written through [`Display`], so a
    /// `format_args!` value builds no `String`.
    pub fn emit(&mut self, key: &str, value: impl Display) {
        self.push(key, |bytes| {
            // Writing into a `Vec` fails only when a `Display` impl reports
            // an error, and the numbers, strings and `format_args!` emitted
            // here never do.
            let _ = write!(bytes, "{value}");
        });
    }

    /// Emits a record whose value is copied as is.
    pub fn emit_str(&mut self, key: &str, value: &str) {
        self.push(key, |bytes| bytes.extend_from_slice(value.as_bytes()));
    }

    /// Emits one record per key, all with `value`, which is formatted once.
    pub fn emit_each<'k>(&mut self, keys: impl IntoIterator<Item = &'k str>, value: impl Display) {
        let mut bytes = std::mem::take(&mut self.value);
        bytes.clear();
        // As in `emit`: only a failing `Display` impl could fail this.
        let _ = write!(bytes, "{value}");
        for key in keys {
            self.push(key, |out| out.extend_from_slice(&bytes));
        }
        self.value = bytes;
    }

    /// Appends `key`, a tab, what `value` writes and a newline.
    fn push(&mut self, key: &str, value: impl FnOnce(&mut Vec<u8>)) {
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
        bytes.extend_from_slice(key.as_bytes());
        let tab = bytes.len();
        bytes.push(b'\t');
        value(bytes);
        let end = bytes.len();
        bytes.push(b'\n');
        self.spans.push(Span {
            chunk,
            start,
            tab,
            end,
        });
    }

    /// The record at `span`, newline included.
    fn line(&self, span: &Span) -> &[u8] {
        &self.chunks[span.chunk][span.start..=span.end]
    }

    fn key(&self, span: &Span) -> &[u8] {
        &self.chunks[span.chunk][span.start..span.tab]
    }

    fn value(&self, span: &Span) -> &[u8] {
        &self.chunks[span.chunk][span.tab + 1..span.end]
    }

    /// Writes every record, in emission order, to a new file at `path`.
    fn write_to_file(&self, path: &Path) -> Result<(), PlatformError> {
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
    fn map(&self, key: &str, value: &str, out: &mut Emitter);
}

/// A reduce function over grouped records.
pub trait Reducer: Sync {
    /// Processes one key and all its values, in byte order.
    fn reduce(&self, key: &str, values: &[&str], out: &mut Emitter);
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
    fn reduce(&self, key: &str, values: &[&str], ctx: &mut ReduceContext<'_>);
}

impl<R: Reducer> CountingReducer for R {
    fn reduce(&self, key: &str, values: &[&str], ctx: &mut ReduceContext<'_>) {
        Reducer::reduce(self, key, values, ctx.out)
    }
}

/// Streams records into a file, one `key\tvalue\n` per record — the layout
/// [`Emitter`] buffers and [`Records`] reads.
pub struct RecordWriter {
    out: BufWriter<File>,
    /// The record [`RecordWriter::write_numbers`] builds.
    line: Vec<u8>,
}

impl RecordWriter {
    /// Creates (or truncates) `path`.
    pub fn create(path: &Path) -> Result<Self, PlatformError> {
        let file = File::create(path).map_err(io_err)?;
        Ok(Self {
            out: BufWriter::with_capacity(WRITE_BUFFER, file),
            line: Vec::new(),
        })
    }

    /// Appends one record.
    pub fn write(&mut self, key: impl Display, value: impl Display) -> Result<(), PlatformError> {
        writeln!(self.out, "{key}\t{value}").map_err(io_err)
    }

    /// Appends one record of numbers, `key\t<tag><field> <field>…`, written
    /// by the decimal codec of the `.e` writer rather than through `fmt`.
    pub fn write_numbers(
        &mut self,
        key: u64,
        tag: &str,
        fields: impl IntoIterator<Item = u64>,
    ) -> Result<(), PlatformError> {
        let line = &mut self.line;
        line.clear();
        push_u64(line, key);
        line.push(b'\t');
        line.extend_from_slice(tag.as_bytes());
        for (i, field) in fields.into_iter().enumerate() {
            if i > 0 {
                line.push(b' ');
            }
            push_u64(line, field);
        }
        line.push(b'\n');
        self.out.write_all(line).map_err(io_err)
    }

    /// Flushes the file; a write error surfaces here, not at drop.
    pub fn finish(mut self) -> Result<(), PlatformError> {
        self.out.flush().map_err(io_err)
    }
}

/// Buffer size of every file the engine writes record by record.
const WRITE_BUFFER: usize = 1 << 16;

/// The records of a byte buffer in the on-disk layout, as `(key, value)`
/// slices borrowed from it. Each malformed line is an error item: a line
/// with no tab, or a last line with no newline (a truncated file).
#[derive(Debug, Clone)]
pub struct Records<'a> {
    rest: &'a str,
}

impl<'a> Records<'a> {
    /// Checks that `bytes` is UTF-8; an empty buffer holds no records.
    pub fn new(bytes: &'a [u8]) -> Result<Self, PlatformError> {
        let rest = std::str::from_utf8(bytes)
            .map_err(|e| malformed(&format!("not UTF-8 at byte {}", e.valid_up_to())))?;
        Ok(Self { rest })
    }
}

impl<'a> Iterator for Records<'a> {
    type Item = Result<(&'a str, &'a str), PlatformError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.rest.is_empty() {
            return None;
        }
        let Some((line, rest)) = self.rest.split_once('\n') else {
            self.rest = "";
            return Some(Err(malformed("last line has no newline")));
        };
        self.rest = rest;
        Some(
            line.split_once('\t')
                .ok_or_else(|| malformed("line has no tab")),
        )
    }
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
    mut f: impl FnMut(&str, &str) -> Result<(), PlatformError>,
) -> Result<(), PlatformError> {
    let mut buf = Vec::new();
    for path in files {
        read_file(path, &mut buf)?;
        for record in Records::new(&buf)? {
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

/// A map output record's place in the sort: its partition, then its key
/// and value as [`word`]s, which order records by their bytes without
/// reading the buffer until two words tie.
#[derive(Clone, Copy)]
struct SortEntry {
    value: u128,
    key: u64,
    partition: u32,
    /// The record's index in the map task's [`Emitter`].
    index: u32,
}

/// The first `N - 1` bytes of `bytes`, zero-padded, followed by
/// `min(len, N)`, as a big-endian word. Words order as the bytes do; equal
/// words mean equal bytes unless both are longer than `N - 1` bytes (last
/// byte `N`).
fn word<const N: usize>(bytes: &[u8]) -> [u8; N] {
    let mut word = [0u8; N];
    let n = bytes.len().min(N - 1);
    word[..n].copy_from_slice(&bytes[..n]);
    word[N - 1] = bytes.len().min(N) as u8;
    word
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

/// Runs one map task over the inputs `task`, `task + map_tasks`, …: maps
/// every record into one buffer, sorts its index by (partition, key,
/// value) and writes the one spill file.
fn map_task<M: Mapper>(
    inputs: &[PathBuf],
    task: usize,
    map_tasks: usize,
    reduce_tasks: usize,
    mapper: &M,
    spill: &Path,
) -> Result<MapTask, PlatformError> {
    let mut input = Vec::new();
    let mut out = Emitter::default();
    let mut input_count = 0usize;
    for path in inputs.iter().skip(task).step_by(map_tasks) {
        read_file(path, &mut input)?;
        for record in Records::new(&input)? {
            let (key, value) = record?;
            input_count += 1;
            mapper.map(key, value, &mut out);
        }
    }
    let spans = &out.spans;
    if u32::try_from(spans.len()).is_err() {
        return Err(PlatformError::Internal(format!(
            "map task {task} emitted {} records, more than its sort index holds",
            spans.len()
        )));
    }
    let mut order: Vec<SortEntry> = spans
        .iter()
        .zip(0u32..)
        .map(|(span, index)| SortEntry {
            value: u128::from_be_bytes(word(out.value(span))),
            key: u64::from_be_bytes(word(out.key(span))),
            partition: (mix64(fx_hash(out.key(span))) % reduce_tasks as u64) as u32,
            index,
        })
        .collect();
    let span = |e: &SortEntry| &spans[e.index as usize];
    order.sort_unstable_by(|a, b| {
        (a.partition, a.key)
            .cmp(&(b.partition, b.key))
            // Tied words of keys longer than 7 bytes: compare the keys.
            .then_with(|| match a.key as u8 {
                8 => out.key(span(a)).cmp(out.key(span(b))),
                _ => std::cmp::Ordering::Equal,
            })
            .then(a.value.cmp(&b.value))
            .then_with(|| match a.value as u8 {
                16 => out.value(span(a)).cmp(out.value(span(b))),
                _ => std::cmp::Ordering::Equal,
            })
    });
    let mut file = BufWriter::with_capacity(WRITE_BUFFER, File::create(spill).map_err(io_err)?);
    let mut pieces: Vec<Piece> = Vec::new();
    let mut written = 0u64;
    for entry in &order {
        let partition = entry.partition as usize;
        let line = out.line(span(entry));
        let len = line.len() as u64;
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
        file.write_all(line).map_err(io_err)?;
        written += len;
    }
    file.flush().map_err(io_err)?;
    Ok(MapTask {
        input: input_count,
        output: spans.len(),
        spilled: written as usize,
        pieces,
    })
}

/// The records of one map task's sorted segment, piece after piece.
struct Segment<'a> {
    pieces: std::slice::Iter<'a, Vec<u8>>,
    records: Records<'a>,
}

impl<'a> Segment<'a> {
    fn next(&mut self) -> Result<Option<(&'a str, &'a str)>, PlatformError> {
        loop {
            if let Some(record) = self.records.next() {
                return record.map(Some);
            }
            let Some(piece) = self.pieces.next() else {
                return Ok(None);
            };
            self.records = Records::new(piece)?;
        }
    }
}

/// Runs reduce task `p`: reads segment `p` of every spill, k-way merges the
/// sorted segments, reduces each key group and writes `part-<p>`. Returns
/// the records written and the user counter deltas.
fn reduce_task<R: CountingReducer>(
    spills: &[PathBuf],
    maps: &[MapTask],
    p: usize,
    reducer: &R,
    part: &Path,
) -> Result<(usize, std::collections::BTreeMap<String, i64>), PlatformError> {
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
    // One cursor per map task's segment, each with its next record.
    let mut cursors = Vec::with_capacity(segments.len());
    for pieces in &segments {
        let mut segment = Segment {
            pieces: pieces.iter(),
            records: Records { rest: "" },
        };
        let head = segment.next()?;
        cursors.push((head, segment));
    }
    // The next record in byte order, by a linear scan over the heads: there
    // are as few segments as map tasks.
    let mut next_record = || -> Result<Option<(&str, &str)>, PlatformError> {
        let smallest = cursors
            .iter()
            .enumerate()
            .filter_map(|(i, (head, _))| head.map(|record| (record, i)))
            .min();
        let Some((record, i)) = smallest else {
            return Ok(None);
        };
        let (head, segment) = &mut cursors[i];
        *head = segment.next()?;
        Ok(Some(record))
    };
    let mut out = Emitter::default();
    let mut user = std::collections::BTreeMap::new();
    let mut ctx = ReduceContext {
        out: &mut out,
        counters: &mut user,
    };
    let mut values: Vec<&str> = Vec::new();
    let mut group: Option<&str> = None;
    loop {
        let record = next_record()?;
        if let Some(key) = group {
            if record.map(|(k, _)| k) != Some(key) {
                reducer.reduce(key, &values, &mut ctx);
                values.clear();
            }
        }
        let Some((key, value)) = record else {
            break;
        };
        group = Some(key);
        values.push(value);
    }
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
/// `mapreduce.reduce` phase spans; when a fault plan is armed, every task
/// is a transient-I/O injection point with bounded attempt retries.
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
    // A task returns its own Result; a panicking mapper is an `Err` from the
    // fork-join — a failed map task becomes a failed job, not a harness crash.
    let map_results = graphalytics_parallel::try_map_each(&spills.0, |task, spill| {
        probe_task_attempts(ctx, map_job_fp, task as u32)?;
        map_task(inputs, task, map_tasks, reduce_tasks, mapper, spill)
    })
    .map_err(|payload| PlatformError::worker_panicked("map", payload))?;
    let mut counters = JobCounters::default();
    let map_span_id = map_span.id();
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
    let reduce_results = graphalytics_parallel::try_map_each(0..reduce_tasks, |_, p| {
        probe_task_attempts(ctx, reduce_job_fp, p as u32)?;
        let part = output_dir.join(format!("part-{p:05}"));
        reduce_task(&spills.0, &maps, p, reducer, &part)
    })
    .map_err(|payload| PlatformError::worker_panicked("reduce", payload))?;
    let reduce_span_id = reduce_span.id();
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

/// The partitioner's hash: FxHash over the key's `str` bytes (with the
/// `0xff` terminator `str::hash` writes, so partitions stay where they were
/// when keys were `String`s).
fn fx_hash(key: &[u8]) -> u64 {
    use std::hash::Hasher;
    let mut h = rustc_hash::FxHasher::default();
    h.write(key);
    h.write_u8(0xff);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphalytics_core::ScratchDir;

    fn tmp(name: &str) -> ScratchDir {
        ScratchDir::new(None, &format!("gx-mr-{name}")).unwrap()
    }

    fn write_records(path: &Path, records: &[(&str, &str)]) {
        let mut writer = RecordWriter::create(path).unwrap();
        for (k, v) in records {
            writer.write(k, v).unwrap();
        }
        writer.finish().unwrap();
    }

    /// Every record of a job's output, in part-file order.
    fn read_output(dir: &Path) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for_each_record(&part_files(dir).unwrap(), |k, v| {
            out.push((k.to_string(), v.to_string()));
            Ok(())
        })
        .unwrap();
        out
    }

    /// The canonical word count.
    struct TokenMapper;
    impl Mapper for TokenMapper {
        fn map(&self, _key: &str, value: &str, out: &mut Emitter) {
            for token in value.split_whitespace() {
                out.emit(token, "1");
            }
        }
    }

    struct SumReducer;
    impl Reducer for SumReducer {
        fn reduce(&self, key: &str, values: &[&str], out: &mut Emitter) {
            let total: u64 = values.iter().map(|v| v.parse::<u64>().unwrap_or(0)).sum();
            out.emit(key, total);
        }
    }

    #[test]
    fn word_count_end_to_end() {
        let scratch = tmp("wc");
        let dir = scratch.path();
        let input = dir.join("input-0");
        write_records(
            &input,
            &[("0", "the quick brown fox"), ("1", "the lazy dog the end")],
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
        assert!(counters.spill_bytes > 0);
        let mut output = read_output(&out_dir);
        output.sort();
        let the = output.iter().find(|(k, _)| k == "the").unwrap();
        assert_eq!(the.1, "3");
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
        write_records(&input, &[("0", "a b a")]);
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
        for phase in ["mapreduce.map", "mapreduce.reduce"] {
            let s = spans.iter().find(|s| s.name == phase).unwrap();
            assert_eq!(s.parent, Some(job.id), "{phase} nests under the job");
        }
    }

    #[test]
    fn a_panicking_mapper_fails_the_job() {
        struct PanickingMapper;
        impl Mapper for PanickingMapper {
            fn map(&self, _key: &str, value: &str, _out: &mut Emitter) {
                assert_ne!(value, "poison", "cannot map it");
            }
        }
        let scratch = tmp("panic");
        let dir = scratch.path();
        let inputs = [dir.join("input-0"), dir.join("input-1")];
        write_records(&inputs[0], &[("0", "fine")]);
        write_records(&inputs[1], &[("0", "poison")]);
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
        write_records(&path, &[("a", "1 2"), ("b", ""), ("c", "x\ty")]);
        assert_eq!(
            read_output(dir),
            [("a", "1 2"), ("b", ""), ("c", "x\ty")].map(|(k, v)| (k.to_string(), v.to_string()))
        );
    }

    #[test]
    fn emitter_buffers_the_file_layout() {
        let mut out = Emitter::default();
        out.emit("7", format_args!("E {}", 8));
        out.emit_str("", "");
        out.emit("9", 0.5);
        out.emit_each(["1", "22"], format_args!("C {}", 0.25));
        out.emit_each([], "never");
        assert_eq!(
            out.chunks.concat(),
            b"7\tE 8\n\t\n9\t0.5\n1\tC 0.25\n22\tC 0.25\n"
        );
        let spans: Vec<(usize, usize, usize)> =
            out.spans.iter().map(|s| (s.start, s.tab, s.end)).collect();
        assert_eq!(
            spans,
            [(0, 1, 5), (6, 6, 7), (8, 9, 13), (14, 15, 22), (23, 25, 32)]
        );
    }

    #[test]
    fn emitter_buffers_fill_without_growing() {
        // Three buffers' worth of records: each buffer keeps the capacity it
        // was created with, and every record reads back whole.
        let mut out = Emitter::default();
        let value = "v".repeat(1000);
        let records = 3 * CHUNK / 1000;
        for i in 0..records {
            out.emit(&i.to_string(), &value);
        }
        assert_eq!(out.chunks.len(), 4);
        assert!(out.chunks.iter().all(|c| c.capacity() == CHUNK));
        for (i, span) in out.spans.iter().enumerate() {
            assert_eq!(out.line(span), format!("{i}\t{value}\n").as_bytes());
        }
    }

    #[test]
    fn spill_order_is_byte_order_for_keys_and_values_of_any_length() {
        struct Keep;
        impl Mapper for Keep {
            fn map(&self, key: &str, value: &str, out: &mut Emitter) {
                out.emit_str(key, value);
            }
        }
        struct Echo;
        impl Reducer for Echo {
            fn reduce(&self, key: &str, values: &[&str], out: &mut Emitter) {
                values.iter().for_each(|v| out.emit_str(key, v));
            }
        }
        // Keys and values around the 7- and 15-byte word widths, with NUL
        // bytes where zero padding could tie.
        let keys = [
            "",
            "a",
            "a\0",
            "abcdefg",
            "abcdefg\0",
            "abcdefgh",
            "abcdefgh\0",
            "b",
        ];
        let values = [
            "",
            "x",
            "x\0",
            "0123456789abcde",
            "0123456789abcde\0",
            "0123456789abcdef",
        ];
        let mut records: Vec<(&str, &str)> = keys
            .iter()
            .flat_map(|&k| values.iter().map(move |&v| (k, v)))
            .collect();
        // Inputs in reverse order, spread over three map tasks.
        records.reverse();
        let scratch = tmp("order");
        let dir = scratch.path();
        let inputs: Vec<PathBuf> = records
            .chunks(7)
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
        run_job(&config, "order", &inputs, &Keep, &Echo, &dir.join("out")).unwrap();
        records.sort();
        let expected: Vec<(String, String)> = records
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        assert_eq!(read_output(&dir.join("out")), expected);
    }

    #[test]
    fn user_counters_propagate() {
        struct CountingRed;
        impl CountingReducer for CountingRed {
            fn reduce(&self, key: &str, values: &[&str], ctx: &mut ReduceContext<'_>) {
                *ctx.counters.entry("keys".into()).or_insert(0) += 1;
                ctx.out.emit(key, values.len());
            }
        }
        let scratch = tmp("counters");
        let dir = scratch.path();
        let input = dir.join("in");
        write_records(&input, &[("x", "a b a"), ("y", "c")]);
        let counters = run_job(
            &JobConfig::new(dir),
            "count",
            &[input],
            &TokenMapper,
            &CountingRed,
            &dir.join("out"),
        )
        .unwrap();
        assert_eq!(counters.user_counter("keys"), 3); // a, b, c.
        assert_eq!(counters.user_counter("missing"), 0);
    }

    #[test]
    fn multiple_inputs_distribute_across_map_tasks() {
        let scratch = tmp("multi");
        let dir = scratch.path();
        let mut inputs = Vec::new();
        for i in 0..6 {
            let p = dir.join(format!("in-{i}"));
            write_records(&p, &[(i.to_string().as_str(), format!("w{i}").as_str())]);
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
        write_records(&input, &[("0", "a b a")]);
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
        write_records(&input, &[("0", "a")]);
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
        write_records(&input, &[("0", "a")]);
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
    fn reducers_see_values_merged_in_byte_order() {
        struct Keep;
        impl Mapper for Keep {
            fn map(&self, key: &str, value: &str, out: &mut Emitter) {
                out.emit(key, value);
            }
        }
        struct Join;
        impl Reducer for Join {
            fn reduce(&self, key: &str, values: &[&str], out: &mut Emitter) {
                out.emit(key, values.join(","));
            }
        }
        let scratch = tmp("merge");
        let dir = scratch.path();
        // Four inputs over two map tasks: each reduce partition merges two
        // sorted segments that interleave.
        let inputs: Vec<PathBuf> = (0..4).map(|i| dir.join(format!("in-{i}"))).collect();
        write_records(&inputs[0], &[("k", "d"), ("j", "2")]);
        write_records(&inputs[1], &[("k", "c"), ("j", "1")]);
        write_records(&inputs[2], &[("k", "b"), ("k", "d")]);
        write_records(&inputs[3], &[("k", "a"), ("j", "0")]);
        let config = JobConfig {
            map_tasks: 2,
            reduce_tasks: 2,
            work_dir: dir.to_path_buf(),
        };
        run_job(&config, "merge", &inputs, &Keep, &Join, &dir.join("out")).unwrap();
        let mut output = read_output(&dir.join("out"));
        output.sort();
        assert_eq!(
            output,
            [("j", "0,1,2"), ("k", "a,b,c,d,d")].map(|(k, v)| (k.to_string(), v.to_string()))
        );
    }
}
