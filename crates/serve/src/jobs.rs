//! Job specifications, the bounded FIFO queue, and the computations store.
//!
//! One job is one (platform, algorithm, graph) cell, executed by a worker
//! thread through the existing [`BenchmarkSuite`] runner. The store keeps
//! each job's full lifecycle — state transitions, an append-only event
//! log (the `/jobs/{id}/events` stream), timings, and post-mortem
//! artifacts — while it is queued or running, and afterwards while it is
//! among the newest [`RETAINED_JOBS`] finished jobs. An older finished job
//! is dropped whole, so the server's memory is its working set and not
//! the number of jobs it has finished.
//!
//! Queueing uses `std::sync::Mutex` and `Condvar`: `submit` enforces the
//! capacity bound (admission control → 429) and wakes a worker; `next_job`
//! blocks until a job or shutdown arrives. All timestamps come from the
//! server [`Tracer`]'s monotonic clock, in seconds since server start.
//!
//! [`BenchmarkSuite`]: graphalytics_core::BenchmarkSuite

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::AtomicBool;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use graphalytics_core::config::{parse_algorithm, parse_dataset};
use graphalytics_core::json::Json;
use graphalytics_core::trace::Span;
use graphalytics_core::Tracer;
use graphalytics_obs::{chrome_trace, flamegraph_svg, Profile};

/// Finished jobs the store keeps; finishing one more drops the one that
/// finished first (Spark's `retainedJobs`). Queued and running jobs are
/// never dropped.
pub const RETAINED_JOBS: usize = 256;

/// What a client submits: one benchmark cell plus its admission deadline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Platform name (configuration syntax, e.g. `reference`; an alias is
    /// stored as the registry name it selects).
    pub platform: String,
    /// Algorithm name (configuration syntax, e.g. `bfs:0`).
    pub algorithm: String,
    /// Dataset name (configuration syntax, e.g. `graph500-14`).
    pub graph: String,
    /// Cooperative per-job timeout in seconds.
    pub timeout_secs: u64,
}

impl JobSpec {
    /// Parses and validates a submission body. Every name must resolve
    /// under the same syntax configuration files use; errors name the
    /// offending field.
    pub fn from_json(doc: &Json, default_timeout_secs: u64) -> Result<Self, String> {
        let field = |key: &str| -> Result<String, String> {
            doc.get(key)
                .and_then(|v| v.as_str())
                .map(str::to_string)
                .ok_or_else(|| format!("missing or non-string field {key:?}"))
        };
        let spec = Self {
            platform: graphalytics_platforms::resolve(&field("platform")?.to_lowercase())?
                .name
                .to_string(),
            algorithm: field("algorithm")?.to_lowercase(),
            graph: field("graph")?.to_lowercase(),
            timeout_secs: match doc.get("timeout_secs") {
                Some(v) => {
                    v.as_f64()
                        .filter(|t| *t > 0.0)
                        .ok_or("timeout_secs must be a positive number")? as u64
                }
                None => default_timeout_secs,
            },
        };
        parse_algorithm(&spec.algorithm).map_err(|e| format!("algorithm: {e}"))?;
        parse_dataset(&spec.graph).map_err(|e| format!("graph: {e}"))?;
        Ok(spec)
    }
}

/// The job state machine. Terminal states are `Done`, `Failed`, and
/// `TimedOut`; transitions only move rightwards:
/// `Queued → Loading → Running → {Done | Failed | TimedOut}`
/// (a job may fail straight from `Loading` when its graph cannot be
/// materialized).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker is materializing / fetching the graph.
    Loading,
    /// The benchmark cell is executing.
    Running,
    /// Finished successfully with validated output.
    Done,
    /// Finished with an error (load failure, platform error, or invalid
    /// output).
    Failed,
    /// The cooperative per-job deadline expired.
    TimedOut,
}

impl JobState {
    /// Wire name (used in JSON bodies and metric labels).
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Loading => "loading",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::TimedOut => "timeout",
        }
    }

    /// True for states no transition leaves.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed | JobState::TimedOut)
    }
}

/// One line of a job's event stream.
#[derive(Debug, Clone)]
pub struct JobEvent {
    /// Monotonic per-job sequence number, starting at 0 — the `?since=`
    /// cursor.
    pub seq: u64,
    /// Seconds since server start.
    pub at_seconds: f64,
    /// Event name (`submitted`, `queued`, `loading`, `phase`, ...).
    pub event: String,
    /// Event payload.
    pub fields: BTreeMap<String, Json>,
}

impl JobEvent {
    /// The JSONL wire format: a flat object with the reserved keys
    /// `type`/`job`/`seq`/`at_seconds`/`event` plus the payload fields.
    pub fn to_json(&self, job_id: u64) -> Json {
        let mut obj: BTreeMap<String, Json> = self.fields.clone();
        obj.insert("type".into(), Json::from("job_event"));
        obj.insert("job".into(), Json::from(format!("j-{job_id}")));
        obj.insert("seq".into(), Json::from(self.seq as usize));
        obj.insert("at_seconds".into(), Json::from(self.at_seconds));
        obj.insert("event".into(), Json::from(self.event.clone()));
        Json::Obj(obj)
    }
}

/// Post-mortem artifacts of a completed job, served under
/// `/jobs/{id}/artifacts/`. The job's spans are kept as recorded;
/// `flamegraph.svg` and `trace.json` are rendered from them on each GET.
#[derive(Debug, Clone, Default)]
pub struct Artifacts {
    /// The job tracer's finished spans.
    pub spans: Vec<Span>,
    /// The flamegraph's title.
    pub title: String,
    /// Run records in the results-database JSONL schema.
    pub results_jsonl: String,
}

/// One job's full lifecycle record.
#[derive(Debug, Clone)]
pub struct Job {
    /// Job id (dense, starting at 1; rendered as `j-<id>`).
    pub id: u64,
    /// The submitted cell.
    pub spec: JobSpec,
    /// Current state.
    pub state: JobState,
    /// Submission timestamp (seconds since server start).
    pub submitted_seconds: f64,
    /// When a worker picked the job up.
    pub started_seconds: Option<f64>,
    /// When the job reached a terminal state.
    pub finished_seconds: Option<f64>,
    /// Algorithm runtime reported by the runner (median over
    /// repetitions), when the job succeeded.
    pub runtime_seconds: Option<f64>,
    /// Validation verdict string, when validation ran.
    pub validation: Option<String>,
    /// Terminal error, for failed/timed-out jobs.
    pub error: Option<String>,
    /// Append-only event log.
    pub events: Vec<JobEvent>,
    /// Post-mortem artifacts, present in terminal states when execution
    /// got far enough to produce them.
    pub artifacts: Option<Artifacts>,
}

impl Job {
    /// Queue wait: submission → worker pickup, when picked up.
    pub fn queue_wait_seconds(&self) -> Option<f64> {
        self.started_seconds.map(|s| s - self.submitted_seconds)
    }

    /// End-to-end latency: submission → terminal state, when finished.
    pub fn e2e_seconds(&self) -> Option<f64> {
        self.finished_seconds.map(|f| f - self.submitted_seconds)
    }

    /// The status document served by `GET /jobs/{id}`.
    pub fn to_json(&self) -> Json {
        let opt_num = |v: Option<f64>| v.map(Json::Num).unwrap_or(Json::Null);
        let opt_str = |v: &Option<String>| {
            v.as_ref()
                .map(|s| Json::from(s.clone()))
                .unwrap_or(Json::Null)
        };
        let artifacts = match &self.artifacts {
            Some(_) => Json::Arr(
                ["flamegraph.svg", "trace.json", "results.jsonl"]
                    .iter()
                    .map(|n| Json::from(*n))
                    .collect(),
            ),
            None => Json::Arr(Vec::new()),
        };
        Json::obj([
            ("id", Json::from(format!("j-{}", self.id))),
            ("platform", Json::from(self.spec.platform.clone())),
            ("algorithm", Json::from(self.spec.algorithm.clone())),
            ("graph", Json::from(self.spec.graph.clone())),
            ("timeout_secs", Json::from(self.spec.timeout_secs as usize)),
            ("state", Json::from(self.state.as_str())),
            ("submitted_seconds", Json::Num(self.submitted_seconds)),
            ("started_seconds", opt_num(self.started_seconds)),
            ("finished_seconds", opt_num(self.finished_seconds)),
            ("queue_wait_seconds", opt_num(self.queue_wait_seconds())),
            ("e2e_seconds", opt_num(self.e2e_seconds())),
            ("runtime_seconds", opt_num(self.runtime_seconds)),
            ("validation", opt_str(&self.validation)),
            ("error", opt_str(&self.error)),
            ("events", Json::from(self.events.len())),
            ("artifacts", artifacts),
        ])
    }
}

/// Why a submission was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is at capacity (admission control; HTTP 429).
    QueueFull {
        /// The configured bound that was hit.
        capacity: usize,
    },
}

struct StoreInner {
    next_id: u64,
    jobs: BTreeMap<u64, Job>,
    queue: VecDeque<u64>,
    /// Terminal jobs still kept, in the order they finished.
    finished: VecDeque<u64>,
}

/// The computations store plus the bounded FIFO queue.
pub struct JobStore {
    clock: Arc<Tracer>,
    capacity: usize,
    inner: Mutex<StoreInner>,
    wakeup: Condvar,
}

impl JobStore {
    /// An empty store. `clock` supplies all timestamps (the server
    /// tracer); `capacity` bounds the number of queued-but-unstarted jobs.
    pub fn new(clock: Arc<Tracer>, capacity: usize) -> Self {
        Self {
            clock,
            capacity: capacity.max(1),
            inner: Mutex::new(StoreInner {
                next_id: 0,
                jobs: BTreeMap::new(),
                queue: VecDeque::new(),
                finished: VecDeque::new(),
            }),
            wakeup: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, StoreInner> {
        // A worker panicking mid-update poisons the lock; the store's data
        // (append-only events, monotone states) stays usable, so recover.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn append_event(
        job: &mut Job,
        at_seconds: f64,
        event: &str,
        fields: impl IntoIterator<Item = (String, Json)>,
    ) {
        job.events.push(JobEvent {
            seq: job.events.len() as u64,
            at_seconds,
            event: event.to_string(),
            fields: fields.into_iter().collect(),
        });
    }

    /// Admits a job (or refuses it when the queue is full) and wakes a
    /// worker. Returns the new job id.
    pub fn submit(&self, spec: JobSpec) -> Result<u64, SubmitError> {
        let now = self.clock.now_seconds();
        let id = {
            let mut inner = self.lock();
            if inner.queue.len() >= self.capacity {
                return Err(SubmitError::QueueFull {
                    capacity: self.capacity,
                });
            }
            inner.next_id += 1;
            let id = inner.next_id;
            let mut job = Job {
                id,
                spec,
                state: JobState::Queued,
                submitted_seconds: now,
                started_seconds: None,
                finished_seconds: None,
                runtime_seconds: None,
                validation: None,
                error: None,
                events: Vec::new(),
                artifacts: None,
            };
            let submitted_fields = [
                (
                    "platform".to_string(),
                    Json::from(job.spec.platform.clone()),
                ),
                (
                    "algorithm".to_string(),
                    Json::from(job.spec.algorithm.clone()),
                ),
                ("graph".to_string(), Json::from(job.spec.graph.clone())),
            ];
            Self::append_event(&mut job, now, "submitted", submitted_fields);
            let depth = inner.queue.len() + 1;
            Self::append_event(
                &mut job,
                now,
                "queued",
                [("queue_depth".to_string(), Json::from(depth))],
            );
            inner.jobs.insert(id, job);
            inner.queue.push_back(id);
            id
        };
        self.wakeup.notify_one();
        Ok(id)
    }

    /// Blocks until a job is available (returning its id and stamping its
    /// pickup time) or `shutdown` is set (returning `None`). Workers call
    /// this in a loop.
    pub fn next_job(&self, shutdown: &AtomicBool) -> Option<u64> {
        let mut inner = self.lock();
        loop {
            if shutdown.load(Ordering::Acquire) {
                return None;
            }
            if let Some(id) = inner.queue.pop_front() {
                let now = self.clock.now_seconds();
                if let Some(job) = inner.jobs.get_mut(&id) {
                    job.started_seconds = Some(now);
                }
                return Some(id);
            }
            inner = self.wakeup.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Wakes all blocked workers so they can observe a shutdown flag.
    pub fn notify_all(&self) {
        self.wakeup.notify_all();
    }

    /// Transitions a job's state and appends the matching event.
    pub fn set_state(&self, id: u64, state: JobState) {
        let now = self.clock.now_seconds();
        let mut inner = self.lock();
        if let Some(job) = inner.jobs.get_mut(&id) {
            job.state = state;
            Self::append_event(job, now, state.as_str(), []);
        }
    }

    /// Appends an event to a job's log (no state change).
    pub fn push_event(&self, id: u64, event: &str, fields: Vec<(String, Json)>) {
        let now = self.clock.now_seconds();
        let mut inner = self.lock();
        if let Some(job) = inner.jobs.get_mut(&id) {
            Self::append_event(job, now, event, fields);
        }
    }

    /// Moves a job to a terminal state, recording outcome fields,
    /// artifacts, and the terminal event. Returns how many older finished
    /// jobs were dropped to keep [`RETAINED_JOBS`].
    pub fn finish(
        &self,
        id: u64,
        state: JobState,
        runtime_seconds: Option<f64>,
        validation: Option<String>,
        error: Option<String>,
        artifacts: Option<Artifacts>,
    ) -> usize {
        debug_assert!(state.is_terminal());
        let now = self.clock.now_seconds();
        let mut guard = self.lock();
        let inner = &mut *guard;
        let Some(job) = inner.jobs.get_mut(&id) else {
            return 0;
        };
        if !job.state.is_terminal() {
            inner.finished.push_back(id);
        }
        job.state = state;
        job.finished_seconds = Some(now);
        job.runtime_seconds = runtime_seconds;
        job.validation = validation;
        job.error = error.clone();
        job.artifacts = artifacts;
        let mut fields: Vec<(String, Json)> = Vec::new();
        if let Some(r) = runtime_seconds {
            fields.push(("runtime_seconds".to_string(), Json::Num(r)));
        }
        if let Some(e2e) = job.e2e_seconds() {
            fields.push(("e2e_seconds".to_string(), Json::Num(e2e)));
        }
        if let Some(e) = &error {
            fields.push(("error".to_string(), Json::from(e.clone())));
        }
        Self::append_event(job, now, state.as_str(), fields);
        let excess = inner.finished.len().saturating_sub(RETAINED_JOBS);
        for old in inner.finished.drain(..excess) {
            inner.jobs.remove(&old);
        }
        excess
    }

    /// Applies `f` to a job's record under the store lock, so that
    /// reading a status or two timings copies nothing else.
    pub fn with_job<R>(&self, id: u64, f: impl FnOnce(&Job) -> R) -> Option<R> {
        self.lock().jobs.get(&id).map(f)
    }

    /// True when `id` was issued but its job is no longer kept: it
    /// finished before the newest [`RETAINED_JOBS`] did.
    pub fn was_dropped(&self, id: u64) -> bool {
        let inner = self.lock();
        (1..=inner.next_id).contains(&id) && !inner.jobs.contains_key(&id)
    }

    /// The event stream as JSONL, starting after sequence number
    /// `since` (`None` = from the beginning). Also reports whether the
    /// job is terminal, so pollers know when the stream is complete.
    pub fn events_jsonl(&self, id: u64, since: Option<u64>) -> Option<(String, bool)> {
        let inner = self.lock();
        let job = inner.jobs.get(&id)?;
        let mut out = String::new();
        for event in &job.events {
            if since.is_some_and(|s| event.seq <= s) {
                continue;
            }
            out.push_str(&event.to_json(id).to_string_compact());
            out.push('\n');
        }
        Some((out, job.state.is_terminal()))
    }

    /// One artifact of a terminal job: `(content type, body)`, rendered
    /// outside the store lock.
    pub fn artifact(&self, id: u64, name: &str) -> Option<(&'static str, String)> {
        let artifacts = self.lock().jobs.get(&id)?.artifacts.clone()?;
        match name {
            "flamegraph.svg" => Some((
                "image/svg+xml",
                flamegraph_svg(&Profile::from_spans(&artifacts.spans), &artifacts.title),
            )),
            "trace.json" => Some(("application/json", chrome_trace(&artifacts.spans))),
            "results.jsonl" => Some(("application/jsonl", artifacts.results_jsonl)),
            _ => None,
        }
    }

    /// The `GET /jobs` listing (id order).
    pub fn list_json(&self) -> Json {
        Json::Arr(self.lock().jobs.values().map(Job::to_json).collect())
    }

    /// Jobs waiting in the queue.
    pub fn queue_depth(&self) -> usize {
        self.lock().queue.len()
    }

    /// Jobs picked up but not yet terminal.
    pub fn active_count(&self) -> usize {
        self.lock()
            .jobs
            .values()
            .filter(|j| matches!(j.state, JobState::Loading | JobState::Running))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(capacity: usize) -> JobStore {
        JobStore::new(Arc::new(Tracer::disabled()), capacity)
    }

    fn spec(alg: &str) -> JobSpec {
        JobSpec {
            platform: "reference".into(),
            algorithm: alg.into(),
            graph: "graph500-8".into(),
            timeout_secs: 60,
        }
    }

    #[test]
    fn spec_parses_and_validates() {
        let doc = graphalytics_core::json::parse(
            r#"{"platform":"Reference","algorithm":"BFS:3","graph":"graph500-10"}"#,
        )
        .unwrap();
        let spec = JobSpec::from_json(&doc, 300).unwrap();
        assert_eq!(spec.platform, "reference");
        assert_eq!(spec.algorithm, "bfs:3");
        assert_eq!(spec.timeout_secs, 300);

        let bad = graphalytics_core::json::parse(
            r#"{"platform":"spark","algorithm":"bfs","graph":"graph500-10"}"#,
        )
        .unwrap();
        assert_eq!(
            JobSpec::from_json(&bad, 300).unwrap_err(),
            graphalytics_platforms::resolve("spark").err().unwrap()
        );
        let alias = graphalytics_core::json::parse(
            r#"{"platform":"Hadoop","algorithm":"bfs","graph":"graph500-10"}"#,
        )
        .unwrap();
        assert_eq!(
            JobSpec::from_json(&alias, 300).unwrap().platform,
            "mapreduce"
        );
        let bad = graphalytics_core::json::parse(
            r#"{"platform":"reference","algorithm":"sort","graph":"graph500-10"}"#,
        )
        .unwrap();
        assert!(JobSpec::from_json(&bad, 300)
            .unwrap_err()
            .contains("algorithm"));
        let bad = graphalytics_core::json::parse(r#"{"platform":"reference","algorithm":"bfs"}"#)
            .unwrap();
        assert!(JobSpec::from_json(&bad, 300).unwrap_err().contains("graph"));
    }

    #[test]
    fn admission_control_bounds_the_queue() {
        let s = store(2);
        assert!(s.submit(spec("bfs")).is_ok());
        assert!(s.submit(spec("conn")).is_ok());
        assert_eq!(
            s.submit(spec("stats")),
            Err(SubmitError::QueueFull { capacity: 2 })
        );
        // Draining one slot re-admits.
        let shutdown = AtomicBool::new(false);
        let id = s.next_job(&shutdown).unwrap();
        assert_eq!(id, 1);
        assert!(s.submit(spec("stats")).is_ok());
    }

    #[test]
    fn lifecycle_events_and_state_machine() {
        let s = store(8);
        let id = s.submit(spec("bfs")).unwrap();
        let shutdown = AtomicBool::new(false);
        assert_eq!(s.next_job(&shutdown), Some(id));
        s.set_state(id, JobState::Loading);
        s.set_state(id, JobState::Running);
        s.finish(
            id,
            JobState::Done,
            Some(0.25),
            Some("valid".into()),
            None,
            Some(Artifacts::default()),
        );
        s.with_job(id, |job| {
            assert_eq!(job.state, JobState::Done);
            assert!(job.state.is_terminal());
            assert!(job.queue_wait_seconds().unwrap() >= 0.0);
            assert!(job.e2e_seconds().unwrap() >= 0.0);
            let names: Vec<&str> = job.events.iter().map(|e| e.event.as_str()).collect();
            assert_eq!(
                names,
                vec!["submitted", "queued", "loading", "running", "done"]
            );
            // Sequence numbers are dense and ordered.
            for (i, e) in job.events.iter().enumerate() {
                assert_eq!(e.seq, i as u64);
            }
        })
        .unwrap();
    }

    #[test]
    fn history_keeps_the_newest_finished_jobs_and_every_live_one() {
        let finished = RETAINED_JOBS + 10;
        let s = store(finished + 2);
        let shutdown = AtomicBool::new(false);
        let running = s.submit(spec("bfs")).unwrap();
        assert_eq!(s.next_job(&shutdown), Some(running));
        s.set_state(running, JobState::Running);
        let queued = s.submit(spec("conn")).unwrap();
        // Jobs finished straight from the queue, as if by other workers;
        // `queued` stays ahead of them, older than every one.
        let mut dropped = 0;
        let ids: Vec<u64> = (0..finished)
            .map(|_| {
                let id = s.submit(spec("pagerank")).unwrap();
                dropped += s.finish(id, JobState::Done, None, None, None, None);
                id
            })
            .collect();
        assert_eq!(dropped, 10);
        let state = |id| s.with_job(id, |j| j.state);
        assert_eq!(state(running), Some(JobState::Running));
        assert_eq!(state(queued), Some(JobState::Queued));
        for &id in &ids[..10] {
            assert_eq!(state(id), None, "j-{id} finished first and is dropped");
            assert!(s.was_dropped(id));
        }
        for &id in &ids[10..] {
            assert_eq!(state(id), Some(JobState::Done));
            assert!(!s.was_dropped(id));
        }
        assert!(!s.was_dropped(0) && !s.was_dropped(ids[finished - 1] + 1));
        let Json::Arr(listed) = s.list_json() else {
            panic!("the job list is an array");
        };
        assert_eq!(listed.len(), RETAINED_JOBS + 2);
        // The oldest job, once finished, is the newest kept.
        assert_eq!(
            s.finish(running, JobState::Failed, None, None, None, None),
            1
        );
        assert_eq!(state(running), Some(JobState::Failed));
        assert_eq!(state(ids[10]), None);
        assert_eq!(state(queued), Some(JobState::Queued));
    }

    #[test]
    fn event_stream_supports_since_cursor() {
        let s = store(8);
        let id = s.submit(spec("bfs")).unwrap();
        let (all, terminal) = s.events_jsonl(id, None).unwrap();
        assert_eq!(all.lines().count(), 2);
        assert!(!terminal);
        let (tail, _) = s.events_jsonl(id, Some(0)).unwrap();
        assert_eq!(tail.lines().count(), 1);
        let doc = graphalytics_core::json::parse(tail.trim()).unwrap();
        assert_eq!(doc.get("type").unwrap().as_str(), Some("job_event"));
        assert_eq!(doc.get("job").unwrap().as_str(), Some("j-1"));
        assert_eq!(doc.get("event").unwrap().as_str(), Some("queued"));
        let (none, _) = s.events_jsonl(id, Some(99)).unwrap();
        assert!(none.is_empty());
        assert!(s.events_jsonl(999, None).is_none());
    }

    #[test]
    fn shutdown_unblocks_workers() {
        let s = Arc::new(store(8));
        let shutdown = Arc::new(AtomicBool::new(false));
        let worker = {
            let s = Arc::clone(&s);
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || s.next_job(&shutdown))
        };
        shutdown.store(true, Ordering::Release);
        s.notify_all();
        assert_eq!(worker.join().unwrap(), None);
    }
}
