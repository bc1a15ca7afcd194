//! A disk-backed MapReduce runtime — the Hadoop MapReduce v2 stand-in.
//!
//! "Hadoop MapReduce is an Apache open-source project implementing the
//! MapReduce programming model introduced by Google" (paper §3.2). The
//! defining performance property the paper relies on: "MapReduce does not
//! need to keep graph data in memory during processing and thus does not
//! crash even when processing the largest workload" — while being "two
//! orders of magnitude slower than Giraph and GraphX".
//!
//! This runtime reproduces that trade-off with real I/O, not simulation:
//! map tasks stream records from input files and spill sorted, hash-
//! partitioned intermediate files to disk; reduce tasks merge the spills
//! for their partition, group by key, and write output part files. Every
//! record crosses the disk between map and reduce, exactly like Hadoop's
//! shuffle, so jobs are slow but memory use stays bounded regardless of
//! graph size.

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

use graphalytics_core::faults::{fingerprint, FaultSite, RecoveryAction};
use graphalytics_core::platform::{PlatformError, RunContext};
use graphalytics_graph::partition::mix64;

/// A key-value record; keys and values are text (Hadoop's Text/Text).
pub type Record = (String, String);

/// Collects emitted records from mappers and reducers.
#[derive(Debug, Default)]
pub struct Emitter {
    records: Vec<Record>,
}

impl Emitter {
    /// Emits a record.
    pub fn emit(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.records.push((key.into(), value.into()));
    }
}

/// A map function over input records.
pub trait Mapper: Sync {
    /// Processes one input record.
    fn map(&self, key: &str, value: &str, out: &mut Emitter);
}

/// A reduce function over grouped records.
pub trait Reducer: Sync {
    /// Processes one key and all its values.
    fn reduce(&self, key: &str, values: &[String], out: &mut Emitter);
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
    fn reduce(&self, key: &str, values: &[String], ctx: &mut ReduceContext<'_>);
}

impl<R: Reducer> CountingReducer for R {
    fn reduce(&self, key: &str, values: &[String], ctx: &mut ReduceContext<'_>) {
        Reducer::reduce(self, key, values, ctx.out)
    }
}

/// Writes records to a file, one `key\tvalue` per line.
pub fn write_records(path: &Path, records: &[Record]) -> Result<(), PlatformError> {
    let file = File::create(path).map_err(io_err)?;
    let mut writer = BufWriter::new(file);
    for (k, v) in records {
        writeln!(writer, "{k}\t{v}").map_err(io_err)?;
    }
    writer.flush().map_err(io_err)
}

/// Reads records from a file written by [`write_records`].
pub fn read_records(path: &Path) -> Result<Vec<Record>, PlatformError> {
    let file = File::open(path).map_err(io_err)?;
    let reader = BufReader::new(file);
    let mut out = Vec::new();
    for line in reader.lines() {
        let line = line.map_err(io_err)?;
        if line.is_empty() {
            continue;
        }
        match line.split_once('\t') {
            Some((k, v)) => out.push((k.to_string(), v.to_string())),
            None => out.push((line, String::new())),
        }
    }
    Ok(out)
}

/// Reads all part files of a job output directory, concatenated.
pub fn read_output(dir: &Path) -> Result<Vec<Record>, PlatformError> {
    let mut parts: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(io_err)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("part-"))
        })
        .collect();
    parts.sort();
    let mut out = Vec::new();
    for part in parts {
        out.extend(read_records(&part)?);
    }
    Ok(out)
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
    if ctx.faults().is_none() {
        return Ok(());
    }
    let mut attempt = 0u32;
    loop {
        let site = FaultSite::TaskIo { job, task, attempt };
        match ctx.inject(site.clone()) {
            Ok(()) => return Ok(()),
            Err(e) if attempt + 1 >= MAX_TASK_ATTEMPTS => return Err(e),
            Err(_) => {
                ctx.note_recovery(RecoveryAction::TaskRetry, Some(site), 0);
                attempt += 1;
            }
        }
    }
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
    let spill_dir = config.work_dir.join(format!("{job_name}-spills"));
    std::fs::create_dir_all(&spill_dir).map_err(io_err)?;
    let reduce_tasks = config.reduce_tasks.max(1);

    // --- Map phase: each task handles a slice of the input files. ---
    let map_tasks = config.map_tasks.max(1).min(inputs.len().max(1));
    let mut map_span = tracer.span("mapreduce.map");
    map_span.field("job", job_name).field("tasks", map_tasks);
    // A task returns its own Result; a panicking mapper is an `Err` from the
    // fork-join — a failed map task becomes a failed job, not a harness crash.
    let map_results = graphalytics_parallel::try_map_each(
        0..map_tasks,
        |_, task| -> Result<(usize, usize, usize), PlatformError> {
            probe_task_attempts(ctx, map_job_fp, task as u32)?;
            let mut input_count = 0usize;
            let mut output_count = 0usize;
            let mut spilled = 0usize;
            // Per-reducer buffers for this map task.
            let mut buckets: Vec<Vec<Record>> = vec![Vec::new(); reduce_tasks];
            for (i, input) in inputs.iter().enumerate() {
                if i % map_tasks != task {
                    continue;
                }
                for (k, v) in read_records(input)? {
                    input_count += 1;
                    let mut emitter = Emitter::default();
                    mapper.map(&k, &v, &mut emitter);
                    for (ok, ov) in emitter.records {
                        let p = (mix64(fx_hash(&ok)) % reduce_tasks as u64) as usize;
                        buckets[p].push((ok, ov));
                        output_count += 1;
                    }
                }
            }
            // Sort and spill each bucket (Hadoop's sort-based shuffle).
            for (p, mut bucket) in buckets.into_iter().enumerate() {
                bucket.sort();
                let path = spill_dir.join(format!("map-{task}-part-{p}"));
                spilled += bucket
                    .iter()
                    .map(|(k, v)| k.len() + v.len() + 2)
                    .sum::<usize>();
                write_records(&path, &bucket)?;
            }
            Ok((input_count, output_count, spilled))
        },
    )
    .map_err(|payload| PlatformError::worker_panicked("map", payload))?;
    let mut counters = JobCounters::default();
    let map_span_id = map_span.id();
    for (task, r) in map_results.into_iter().enumerate() {
        let (i, o, s) = r?;
        // One work-distribution event per map task: straggler tasks are
        // what the skew choke point measures for MapReduce.
        tracer.event(
            "mapreduce.task",
            map_span_id,
            vec![
                ("phase".to_string(), "map".into()),
                ("task".to_string(), task.into()),
                ("work".to_string(), i.into()),
                ("output".to_string(), o.into()),
                ("spilled".to_string(), s.into()),
            ],
        );
        counters.map_input += i;
        counters.map_output += o;
        counters.spill_bytes += s;
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

    // --- Reduce phase: each task merges its partition's spills. ---
    let mut reduce_span = tracer.span("mapreduce.reduce");
    reduce_span
        .field("job", job_name)
        .field("tasks", reduce_tasks);
    let reduce_results = graphalytics_parallel::try_map_each(
        0..reduce_tasks,
        |_, p| -> Result<(usize, std::collections::BTreeMap<String, i64>), PlatformError> {
            probe_task_attempts(ctx, reduce_job_fp, p as u32)?;
            // Merge the sorted spill fragments for this partition.
            let mut records: Vec<Record> = Vec::new();
            for task in 0..map_tasks {
                let path = spill_dir.join(format!("map-{task}-part-{p}"));
                if path.exists() {
                    records.extend(read_records(&path)?);
                }
            }
            records.sort();
            // Group by key and reduce.
            let mut out = Emitter::default();
            let mut user = std::collections::BTreeMap::new();
            let mut idx = 0usize;
            while idx < records.len() {
                let key = records[idx].0.clone();
                let mut values = Vec::new();
                while idx < records.len() && records[idx].0 == key {
                    values.push(std::mem::take(&mut records[idx].1));
                    idx += 1;
                }
                let mut ctx = ReduceContext {
                    out: &mut out,
                    counters: &mut user,
                };
                reducer.reduce(&key, &values, &mut ctx);
            }
            let part = output_dir.join(format!("part-{p:05}"));
            write_records(&part, &out.records)?;
            Ok((out.records.len(), user))
        },
    )
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
    // Clean intermediate spills (Hadoop removes them after the job).
    // lint:allow(swallowed-result): spill cleanup is cosmetic; the job's outputs are already spilled and counted
    let _ = std::fs::remove_dir_all(&spill_dir);
    Ok(counters)
}

fn fx_hash(s: &str) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = rustc_hash::FxHasher::default();
    s.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphalytics_core::ScratchDir;

    fn tmp(name: &str) -> ScratchDir {
        ScratchDir::new(None, &format!("gx-mr-{name}")).unwrap()
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
        fn reduce(&self, key: &str, values: &[String], out: &mut Emitter) {
            let total: u64 = values.iter().map(|v| v.parse::<u64>().unwrap_or(0)).sum();
            out.emit(key, total.to_string());
        }
    }

    #[test]
    fn word_count_end_to_end() {
        let scratch = tmp("wc");
        let dir = scratch.path();
        let input = dir.join("input-0");
        write_records(
            &input,
            &[
                ("0".into(), "the quick brown fox".into()),
                ("1".into(), "the lazy dog the end".into()),
            ],
        )
        .unwrap();
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
        let mut output = read_output(&out_dir).unwrap();
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
        write_records(&input, &[("0".into(), "a b a".into())]).unwrap();
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
        write_records(&inputs[0], &[("0".into(), "fine".into())]).unwrap();
        write_records(&inputs[1], &[("0".into(), "poison".into())]).unwrap();
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
        let path = dir.join("records");
        let records = vec![
            ("a".to_string(), "1 2".to_string()),
            ("b".to_string(), String::new()),
        ];
        write_records(&path, &records).unwrap();
        assert_eq!(read_records(&path).unwrap(), records);
    }

    #[test]
    fn user_counters_propagate() {
        struct CountingRed;
        impl CountingReducer for CountingRed {
            fn reduce(&self, key: &str, values: &[String], ctx: &mut ReduceContext<'_>) {
                *ctx.counters.entry("keys".into()).or_insert(0) += 1;
                ctx.out.emit(key, values.len().to_string());
            }
        }
        let scratch = tmp("counters");
        let dir = scratch.path();
        let input = dir.join("in");
        write_records(
            &input,
            &[("x".into(), "a b a".into()), ("y".into(), "c".into())],
        )
        .unwrap();
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
            write_records(&p, &[(i.to_string(), format!("w{i}"))]).unwrap();
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
        assert_eq!(read_output(&dir.join("out")).unwrap().len(), 6);
    }

    #[test]
    fn empty_input_produces_empty_output() {
        let scratch = tmp("empty");
        let dir = scratch.path();
        let input = dir.join("in");
        write_records(&input, &[]).unwrap();
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
        assert!(read_output(&dir.join("out")).unwrap().is_empty());
    }

    #[test]
    fn injected_task_io_fault_retries_and_succeeds() {
        use graphalytics_core::faults::{FaultInjector, FaultPlan, FaultSite};
        use std::sync::Arc;

        let scratch = tmp("taskio");
        let dir = scratch.path();
        let input = dir.join("in");
        write_records(&input, &[("0".into(), "a b a".into())]).unwrap();
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
            read_output(&dir.join("out-faulty")).unwrap(),
            read_output(&dir.join("out-base")).unwrap()
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
        write_records(&input, &[("0".into(), "a".into())]).unwrap();
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
        write_records(&input, &[("0".into(), "a".into())]).unwrap();
        run_job(
            &JobConfig::new(dir),
            "cleanme",
            &[input],
            &TokenMapper,
            &SumReducer,
            &dir.join("out"),
        )
        .unwrap();
        assert!(!dir.join("cleanme-spills").exists());
    }
}
