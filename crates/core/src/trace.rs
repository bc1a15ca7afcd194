//! Structured tracing and metrics — the observability layer.
//!
//! The paper's System Monitor gathers coarse resource statistics (§2.3,
//! Figure 2); this module adds the *attribution* side: where inside a run
//! the time goes. Three pieces:
//!
//! * a thread-safe span API ([`Tracer::span`]) with start/stop timestamps,
//!   parent links, and typed key-value fields — platforms emit one span per
//!   superstep / job / operator;
//! * a counter/gauge/histogram [`MetricsRegistry`] with a Prometheus
//!   text-format exporter ([`MetricsRegistry::render_prometheus`]) and a
//!   JSONL event sink ([`Tracer::export_jsonl`]) that composes with the
//!   results database's `graphalytics-results.jsonl`;
//! * a [`RunTimeline`] that decomposes a run into named phases (load,
//!   execute, validate, ...) so a Figure-4 runtime can be attributed to
//!   its parts.
//!
//! Everything is zero-dependency and cheap when disabled: a disabled
//! tracer never touches a lock.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use graphalytics_codec::layout;

use crate::json::Json;
use crate::sync::lock;

/// Canonical phase names used by the runner and the report generator.
pub mod phase {
    /// Dataset generation / canonical-graph materialization.
    pub const ETL: &str = "etl";
    /// Platform graph import (`Platform::load_graph`).
    pub const LOAD: &str = "load";
    /// Algorithm execution (one entry per repetition).
    pub const EXECUTE: &str = "execute";
    /// Output validation against the reference implementation.
    pub const VALIDATE: &str = "validate";
}

/// A typed field value attached to spans and events.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Text.
    Str(String),
    /// Boolean.
    Bool(bool),
}

layout!(enum FieldValue {
    1 => I64(value),
    2 => F64(value),
    3 => Str(value),
    4 => Bool(value),
});

impl FieldValue {
    /// Integer accessor (integers only; floats are not coerced).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            FieldValue::I64(x) => Some(*x),
            _ => None,
        }
    }

    /// Float accessor (also widens integers).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            FieldValue::F64(x) => Some(*x),
            FieldValue::I64(x) => Some(*x as f64),
            _ => None,
        }
    }

    /// String accessor.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            FieldValue::Str(s) => Some(s),
            _ => None,
        }
    }

    fn to_json(&self) -> Json {
        match self {
            FieldValue::I64(x) => Json::Num(*x as f64),
            FieldValue::F64(x) => Json::Num(*x),
            FieldValue::Str(s) => Json::Str(s.clone()),
            FieldValue::Bool(b) => Json::Bool(*b),
        }
    }
}

impl From<i64> for FieldValue {
    fn from(x: i64) -> Self {
        FieldValue::I64(x)
    }
}
impl From<u64> for FieldValue {
    fn from(x: u64) -> Self {
        FieldValue::I64(x as i64)
    }
}
impl From<usize> for FieldValue {
    fn from(x: usize) -> Self {
        FieldValue::I64(x as i64)
    }
}
impl From<u32> for FieldValue {
    fn from(x: u32) -> Self {
        FieldValue::I64(x as i64)
    }
}
impl From<f64> for FieldValue {
    fn from(x: f64) -> Self {
        FieldValue::F64(x)
    }
}
impl From<&str> for FieldValue {
    fn from(s: &str) -> Self {
        FieldValue::Str(s.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(s: String) -> Self {
        FieldValue::Str(s)
    }
}
impl From<bool> for FieldValue {
    fn from(b: bool) -> Self {
        FieldValue::Bool(b)
    }
}

/// A finished span: a named, timestamped interval with an optional parent
/// and typed fields. Timestamps are seconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique (per tracer) span id, assigned at start in start order.
    pub id: u64,
    /// Parent span id, when started inside another span on the same thread
    /// (or given explicitly via [`Tracer::span_with_parent`]).
    pub parent: Option<u64>,
    /// Span name, dot-separated by convention ("pregel.superstep").
    pub name: String,
    /// Start, seconds since the tracer epoch.
    pub start_seconds: f64,
    /// End, seconds since the tracer epoch.
    pub end_seconds: f64,
    /// Ordinal of the thread the span started on (process-wide, assigned
    /// in registration order starting at 1) — the Chrome-trace `tid`.
    pub thread: u64,
    /// Typed key-value fields.
    pub fields: Vec<(String, FieldValue)>,
}

// How a distributed worker ships its spans to the master.
layout!(struct Span { id, parent, name, start_seconds, end_seconds, thread, fields });

impl Span {
    /// Span duration in seconds (never negative).
    pub fn duration_seconds(&self) -> f64 {
        (self.end_seconds - self.start_seconds).max(0.0)
    }

    /// Looks up a field by key.
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// JSON representation, one object per span (the JSONL line).
    pub fn to_json(&self) -> Json {
        let fields: BTreeMap<String, Json> = self
            .fields
            .iter()
            .map(|(k, v)| (k.clone(), v.to_json()))
            .collect();
        Json::obj([
            ("type", Json::from("span")),
            ("id", Json::from(self.id as usize)),
            (
                "parent",
                self.parent
                    .map(|p| Json::from(p as usize))
                    .unwrap_or(Json::Null),
            ),
            ("name", Json::from(self.name.clone())),
            ("start_seconds", Json::from(self.start_seconds)),
            ("end_seconds", Json::from(self.end_seconds)),
            ("duration_seconds", Json::from(self.duration_seconds())),
            ("thread", Json::from(self.thread as usize)),
            ("fields", Json::Obj(fields)),
        ])
    }
}

static TRACER_UIDS: AtomicUsize = AtomicUsize::new(1);
static THREAD_ORDINALS: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Per-thread stack of open spans, keyed by tracer uid so independent
    /// tracers on the same thread don't adopt each other's parents.
    static SPAN_STACK: RefCell<Vec<(usize, u64)>> = const { RefCell::new(Vec::new()) };

    /// The thread's ordinal, assigned lazily on its first span/event.
    static THREAD_ORDINAL: u64 = THREAD_ORDINALS.fetch_add(1, Ordering::Relaxed);
}

/// This thread's ordinal (assigning one on first use). Falls back to 0
/// during thread teardown, when the TLS slot may already be destructed.
fn current_thread_ordinal() -> u64 {
    THREAD_ORDINAL.try_with(|o| *o).unwrap_or_default()
}

#[derive(Default)]
struct TracerInner {
    next_id: u64,
    finished: Vec<Span>,
}

/// A span-finish subscriber (see [`Tracer::subscribe`]).
type SpanListener = Arc<dyn Fn(&Span) + Send + Sync>;

/// A thread-safe span recorder with an embedded metrics registry.
///
/// Spans started on the same thread nest automatically (parent links via a
/// thread-local stack); work fanned out to worker threads uses
/// [`Tracer::span_with_parent`] with the id of the enclosing span.
pub struct Tracer {
    uid: usize,
    enabled: bool,
    epoch: Instant,
    inner: Mutex<TracerInner>,
    metrics: MetricsRegistry,
    /// Span-finish subscribers. Guarded by the fast-path flag below so the
    /// common case (no subscribers) costs one relaxed atomic load.
    listeners: Mutex<Vec<SpanListener>>,
    has_listeners: AtomicBool,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled)
            .finish()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An enabled tracer with epoch = now.
    pub fn new() -> Self {
        Self {
            uid: TRACER_UIDS.fetch_add(1, Ordering::Relaxed),
            enabled: true,
            epoch: Instant::now(),
            inner: Mutex::new(TracerInner::default()),
            metrics: MetricsRegistry::new(),
            listeners: Mutex::new(Vec::new()),
            has_listeners: AtomicBool::new(false),
        }
    }

    /// A tracer that records nothing (all operations are near-free).
    pub fn disabled() -> Self {
        Self {
            uid: TRACER_UIDS.fetch_add(1, Ordering::Relaxed),
            enabled: false,
            epoch: Instant::now(),
            inner: Mutex::new(TracerInner::default()),
            metrics: MetricsRegistry::disabled(),
            listeners: Mutex::new(Vec::new()),
            has_listeners: AtomicBool::new(false),
        }
    }

    /// A process-wide shared disabled tracer, for contexts without one.
    pub fn noop() -> &'static Tracer {
        static NOOP: OnceLock<Tracer> = OnceLock::new();
        NOOP.get_or_init(Tracer::disabled)
    }

    /// Whether spans and metrics are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The embedded metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Seconds since the tracer epoch.
    pub fn now_seconds(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Starts a span; its parent is the innermost span currently open on
    /// this thread (for this tracer). The span finishes when the returned
    /// guard drops.
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard {
                tracer: self,
                open: None,
            };
        }
        let parent = self.current_span_id();
        self.begin(name, parent)
    }

    /// Starts a span with an explicit parent — the cross-thread variant
    /// (worker threads don't inherit the spawning thread's span stack).
    pub fn span_with_parent(&self, name: &str, parent: Option<u64>) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard {
                tracer: self,
                open: None,
            };
        }
        self.begin(name, parent)
    }

    fn begin(&self, name: &str, parent: Option<u64>) -> SpanGuard<'_> {
        let id = {
            let mut inner = lock(&self.inner);
            inner.next_id += 1;
            inner.next_id
        };
        SPAN_STACK.with(|s| s.borrow_mut().push((self.uid, id)));
        SpanGuard {
            tracer: self,
            open: Some(OpenSpan {
                id,
                parent,
                name: name.to_string(),
                start_seconds: self.now_seconds(),
                thread: current_thread_ordinal(),
                fields: Vec::new(),
            }),
        }
    }

    /// Records an instantaneous event as a zero-duration span — e.g. a
    /// resource sample attached to its enclosing run span.
    pub fn event(&self, name: &str, parent: Option<u64>, fields: Vec<(String, FieldValue)>) {
        if !self.enabled {
            return;
        }
        let t = self.now_seconds();
        let thread = current_thread_ordinal();
        let id = {
            let mut inner = lock(&self.inner);
            inner.next_id += 1;
            inner.next_id
        };
        self.finish(Span {
            id,
            parent,
            name: name.to_string(),
            start_seconds: t,
            end_seconds: t,
            thread,
            fields,
        });
    }

    /// Registers a span-finish subscriber: `f` is called once per finished
    /// span (and per [`Tracer::event`]), on the thread that finished it,
    /// after the span has been recorded. Subscribers must not start spans
    /// on this tracer. Disabled tracers never notify. This is how an online
    /// consumer (e.g. a job event stream) observes progress live instead of
    /// waiting for [`Tracer::finished_spans`] post-mortem.
    pub fn subscribe(&self, f: impl Fn(&Span) + Send + Sync + 'static) {
        if !self.enabled {
            return;
        }
        lock(&self.listeners).push(Arc::new(f));
        self.has_listeners.store(true, Ordering::Release);
    }

    /// Records a finished span and notifies subscribers (outside the span
    /// lock, so a subscriber may query the tracer).
    fn finish(&self, span: Span) {
        if !self.has_listeners.load(Ordering::Acquire) {
            lock(&self.inner).finished.push(span);
            return;
        }
        lock(&self.inner).finished.push(span.clone());
        let listeners: Vec<SpanListener> = lock(&self.listeners).clone();
        for listener in &listeners {
            listener(&span);
        }
    }

    /// Records an externally-timed span — the merge path for spans
    /// measured in *another process* (a distributed worker) whose
    /// timestamps were already translated onto this tracer's clock. The
    /// span is finished immediately with the given interval; `end` is
    /// clamped to `start` so a skewed remote clock can't produce a
    /// negative duration. Returns the allocated span id (`None` on
    /// disabled tracers).
    pub fn record_span(
        &self,
        name: &str,
        parent: Option<u64>,
        start_seconds: f64,
        end_seconds: f64,
        fields: Vec<(String, FieldValue)>,
    ) -> Option<u64> {
        if !self.enabled {
            return None;
        }
        let thread = current_thread_ordinal();
        let id = {
            let mut inner = lock(&self.inner);
            inner.next_id += 1;
            inner.next_id
        };
        self.finish(Span {
            id,
            parent,
            name: name.to_string(),
            start_seconds,
            end_seconds: end_seconds.max(start_seconds),
            thread,
            fields,
        });
        Some(id)
    }

    /// Id of the innermost open span on this thread (for this tracer).
    pub fn current_span_id(&self) -> Option<u64> {
        SPAN_STACK.with(|s| {
            s.borrow()
                .iter()
                .rev()
                .find(|(uid, _)| *uid == self.uid)
                .map(|(_, id)| *id)
        })
    }

    /// Snapshot of all finished spans, in start (id) order.
    pub fn finished_spans(&self) -> Vec<Span> {
        let mut spans = lock(&self.inner).finished.clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// Drains the finished spans, in start (id) order: a process that ships
    /// its spans elsewhere (a distributed worker) sends each one once.
    pub fn take_finished(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut lock(&self.inner).finished);
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// Serializes finished spans plus the metrics registry as JSONL: one
    /// `{"type":"span",...}` object per span (in start order) followed by
    /// one `{"type":"counter"|"gauge"|"histogram",...}` object per metric.
    /// The format composes with `graphalytics-results.jsonl`: both are
    /// line-delimited JSON with a distinguishing shape.
    pub fn export_jsonl(&self) -> String {
        let mut out = String::new();
        for span in self.finished_spans() {
            out.push_str(&span.to_json().to_string_compact());
            out.push('\n');
        }
        out.push_str(&self.metrics.to_jsonl());
        out
    }
}

struct OpenSpan {
    id: u64,
    parent: Option<u64>,
    name: String,
    start_seconds: f64,
    thread: u64,
    fields: Vec<(String, FieldValue)>,
}

/// Guard for an open span; finishes (and records) the span on drop.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    open: Option<OpenSpan>,
}

impl SpanGuard<'_> {
    /// Attaches a typed field. No-op on disabled tracers.
    pub fn field(&mut self, key: &str, value: impl Into<FieldValue>) -> &mut Self {
        if let Some(open) = &mut self.open {
            open.fields.push((key.to_string(), value.into()));
        }
        self
    }

    /// The span id (None on disabled tracers) — pass to
    /// [`Tracer::span_with_parent`] from worker threads.
    pub fn id(&self) -> Option<u64> {
        self.open.as_ref().map(|o| o.id)
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else {
            return;
        };
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack
                .iter()
                .rposition(|&(uid, id)| uid == self.tracer.uid && id == open.id)
            {
                stack.remove(pos);
            }
        });
        let end_seconds = self.tracer.now_seconds();
        self.tracer.finish(Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            start_seconds: open.start_seconds,
            end_seconds,
            thread: open.thread,
            fields: open.fields,
        });
    }
}

/// Label set: sorted `(key, value)` pairs.
pub type Labels = Vec<(String, String)>;

/// Default histogram bucket upper bounds (seconds-oriented).
pub const DEFAULT_BUCKETS: &[f64] = &[0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0];

/// A fixed-bucket histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Bucket upper bounds (a final implicit +Inf bucket follows).
    pub bounds: Vec<f64>,
    /// Cumulative-format source counts: `counts[i]` observations fell in
    /// `(bounds[i-1], bounds[i]]`; the last slot is the +Inf bucket.
    pub counts: Vec<u64>,
    /// Sum of observed values.
    pub sum: f64,
    /// Number of observations.
    pub count: u64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        Self {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
        }
    }

    fn observe(&mut self, value: f64) {
        let slot = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[slot] += 1;
        self.sum += value;
        self.count += 1;
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) by linear interpolation
    /// over the bucket bounds — the `histogram_quantile` method: find the
    /// bucket the target rank falls in and interpolate between its lower
    /// and upper bound by the rank's position within the bucket. Ranks in
    /// the +Inf bucket clamp to the last finite bound (the estimate cannot
    /// exceed what the buckets resolve). Returns `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || self.bounds.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = q * self.count as f64;
        let mut cumulative = 0u64;
        for (i, &bucket_count) in self.counts.iter().enumerate() {
            let prev = cumulative;
            cumulative += bucket_count;
            if bucket_count == 0 || (cumulative as f64) < rank {
                continue;
            }
            if i >= self.bounds.len() {
                // +Inf bucket: clamp to the largest finite bound.
                return self.bounds.last().copied();
            }
            let upper = self.bounds[i];
            let lower = if i == 0 {
                0.0f64.min(upper)
            } else {
                self.bounds[i - 1]
            };
            let fraction = ((rank - prev as f64) / bucket_count as f64).clamp(0.0, 1.0);
            return Some(lower + (upper - lower) * fraction);
        }
        self.bounds.last().copied()
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<(String, Labels), u64>,
    gauges: BTreeMap<(String, Labels), f64>,
    histograms: BTreeMap<(String, Labels), Histogram>,
    help: BTreeMap<String, String>,
}

/// `# HELP` text for the metric families core emits, preloaded into every
/// enabled registry so scrapes are self-describing without every call site
/// repeating [`MetricsRegistry::describe`].
const WELL_KNOWN_HELP: &[(&str, &str)] = &[
    (
        "graphalytics_build_info",
        "Constant 1 gauge whose version/profile labels identify the binary.",
    ),
    (
        "graphalytics_graph_bytes",
        "Canonical CSR memory footprint of a loaded dataset, in bytes.",
    ),
    (
        "graphalytics_load_seconds",
        "Platform graph import (ETL) time per dataset, in seconds.",
    ),
    (
        "graphalytics_network_bytes_total",
        "Real wire bytes moved by the distributed runtime (shuffle and control frames).",
    ),
    (
        "graphalytics_network_messages_total",
        "Messages that crossed worker processes in the distributed runtime.",
    ),
    (
        "graphalytics_peak_rss_bytes",
        "Peak resident set size observed per platform during runs.",
    ),
    (
        "graphalytics_run_seconds",
        "Algorithm execution time per repetition, in seconds.",
    ),
    (
        "graphalytics_runs_total",
        "Benchmark runs by platform, algorithm, and terminal status.",
    ),
    (
        "graphalytics_worker_barrier_wait_seconds",
        "Time each distributed worker spent blocked at the superstep barrier, per superstep.",
    ),
    (
        "graphalytics_worker_checkpoint_seconds",
        "Durable checkpoint write time per distributed worker, per checkpointed superstep.",
    ),
    (
        "graphalytics_worker_compute_seconds",
        "Vertex-compute time per distributed worker, per superstep.",
    ),
    (
        "graphalytics_worker_shuffle_bytes_total",
        "Shuffle wire bytes each distributed worker sent to its peers.",
    ),
];

/// The cargo profile this crate was compiled under, used as the `profile`
/// label of `graphalytics_build_info`.
pub const BUILD_PROFILE: &str = if cfg!(debug_assertions) {
    "debug"
} else {
    "release"
};

/// A thread-safe counter/gauge/histogram registry with Prometheus
/// text-format and JSONL exporters.
pub struct MetricsRegistry {
    enabled: bool,
    inner: Mutex<RegistryInner>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// An enabled registry, pre-seeded with help text for the well-known
    /// core metric families.
    pub fn new() -> Self {
        let mut inner = RegistryInner::default();
        for (name, help) in WELL_KNOWN_HELP {
            inner.help.insert(name.to_string(), help.to_string());
        }
        Self {
            enabled: true,
            inner: Mutex::new(inner),
        }
    }

    /// A registry that drops all updates.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            inner: Mutex::new(RegistryInner::default()),
        }
    }

    /// Registers `# HELP` text for a metric family. Idempotent; the last
    /// call wins. Families without registered help render a generic line.
    pub fn describe(&self, name: &str, help: &str) {
        if !self.enabled {
            return;
        }
        lock(&self.inner)
            .help
            .insert(name.to_string(), help.to_string());
    }

    /// Sets the `graphalytics_build_info` gauge: constant 1, with the
    /// workspace version and compile profile as labels — the Prometheus
    /// idiom for identifying which binary a scrape came from.
    pub fn register_build_info(&self) {
        self.set_gauge(
            "graphalytics_build_info",
            &[
                ("profile", BUILD_PROFILE),
                ("version", env!("CARGO_PKG_VERSION")),
            ],
            1.0,
        );
    }

    fn key(name: &str, labels: &[(&str, &str)]) -> (String, Labels) {
        let mut l: Labels = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        l.sort();
        (name.to_string(), l)
    }

    /// Adds `delta` to a counter (created at 0 on first use).
    pub fn inc_counter(&self, name: &str, labels: &[(&str, &str)], delta: u64) {
        if !self.enabled {
            return;
        }
        *lock(&self.inner)
            .counters
            .entry(Self::key(name, labels))
            .or_insert(0) += delta;
    }

    /// Sets a gauge to `value`.
    pub fn set_gauge(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        if !self.enabled {
            return;
        }
        lock(&self.inner)
            .gauges
            .insert(Self::key(name, labels), value);
    }

    /// Sets a gauge to the max of its current value and `value` —
    /// the peak-RSS idiom.
    pub fn max_gauge(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        if !self.enabled {
            return;
        }
        let mut inner = lock(&self.inner);
        let slot = inner
            .gauges
            .entry(Self::key(name, labels))
            .or_insert(f64::NEG_INFINITY);
        if value > *slot {
            *slot = value;
        }
    }

    /// Observes `value` into a histogram with [`DEFAULT_BUCKETS`].
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.observe_with_buckets(name, labels, value, DEFAULT_BUCKETS);
    }

    /// Observes `value` into a histogram with the given bucket bounds
    /// (bounds are fixed by the first observation of a series).
    pub fn observe_with_buckets(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        value: f64,
        bounds: &[f64],
    ) {
        if !self.enabled {
            return;
        }
        lock(&self.inner)
            .histograms
            .entry(Self::key(name, labels))
            .or_insert_with(|| Histogram::new(bounds))
            .observe(value);
    }

    /// Merges every series of `other` whose metric name starts with
    /// `prefix` into this registry: counters add, gauges keep the max,
    /// histograms merge bucket-by-bucket (a series whose bucket bounds
    /// disagree with the existing one is skipped rather than corrupted),
    /// and curated help text travels along. This is how a long-lived
    /// server surfaces a job-scoped registry's fleet series without
    /// adopting the job's whole namespace.
    pub fn merge_prefixed(&self, other: &MetricsRegistry, prefix: &str) {
        if !self.enabled {
            return;
        }
        let src = lock(&other.inner);
        let mut dst = lock(&self.inner);
        for ((name, labels), value) in &src.counters {
            if !name.starts_with(prefix) {
                continue;
            }
            *dst.counters
                .entry((name.clone(), labels.clone()))
                .or_insert(0) += value;
        }
        for ((name, labels), value) in &src.gauges {
            if !name.starts_with(prefix) {
                continue;
            }
            let slot = dst
                .gauges
                .entry((name.clone(), labels.clone()))
                .or_insert(f64::NEG_INFINITY);
            if *value > *slot {
                *slot = *value;
            }
        }
        for ((name, labels), h) in &src.histograms {
            if !name.starts_with(prefix) {
                continue;
            }
            match dst.histograms.entry((name.clone(), labels.clone())) {
                std::collections::btree_map::Entry::Vacant(slot) => {
                    slot.insert(h.clone());
                }
                std::collections::btree_map::Entry::Occupied(mut slot) => {
                    let cur = slot.get_mut();
                    if cur.bounds == h.bounds {
                        for (c, add) in cur.counts.iter_mut().zip(&h.counts) {
                            *c += add;
                        }
                        cur.sum += h.sum;
                        cur.count += h.count;
                    }
                }
            }
        }
        for (name, help) in &src.help {
            if name.starts_with(prefix) {
                dst.help.entry(name.clone()).or_insert_with(|| help.clone());
            }
        }
    }

    /// Current counter value (0 when the series doesn't exist).
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        lock(&self.inner)
            .counters
            .get(&Self::key(name, labels))
            .copied()
            .unwrap_or(0)
    }

    /// Current gauge value.
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        lock(&self.inner)
            .gauges
            .get(&Self::key(name, labels))
            .copied()
    }

    /// Snapshot of a histogram series.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<Histogram> {
        lock(&self.inner)
            .histograms
            .get(&Self::key(name, labels))
            .cloned()
    }

    /// Snapshot of every histogram series with the given metric name,
    /// with their label sets — how the report enumerates per-platform
    /// latency series without knowing the platforms in advance.
    pub fn histograms_named(&self, name: &str) -> Vec<(Labels, Histogram)> {
        lock(&self.inner)
            .histograms
            .iter()
            .filter(|((n, _), _)| n == name)
            .map(|((_, labels), h)| (labels.clone(), h.clone()))
            .collect()
    }

    /// Renders the Prometheus text exposition format: `# HELP`/`# TYPE`
    /// comments and `name{label="value"} value` sample lines, histograms
    /// expanded into cumulative `_bucket`/`_sum`/`_count` series.
    pub fn render_prometheus(&self) -> String {
        // HELP text escapes backslash and newline (but not quotes), per the
        // text-format spec; label values additionally escape quotes.
        fn escape_help(v: &str) -> String {
            let mut out = String::with_capacity(v.len());
            for c in v.chars() {
                match c {
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    c => out.push(c),
                }
            }
            out
        }
        fn escape_label(v: &str) -> String {
            let mut out = String::with_capacity(v.len());
            for c in v.chars() {
                match c {
                    '\\' => out.push_str("\\\\"),
                    '"' => out.push_str("\\\""),
                    '\n' => out.push_str("\\n"),
                    c => out.push(c),
                }
            }
            out
        }
        fn label_str(labels: &Labels, extra: Option<(&str, &str)>) -> String {
            let mut parts: Vec<String> = labels
                .iter()
                .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
                .collect();
            if let Some((k, v)) = extra {
                parts.push(format!("{k}=\"{}\"", escape_label(v)));
            }
            if parts.is_empty() {
                String::new()
            } else {
                format!("{{{}}}", parts.join(","))
            }
        }
        fn fmt_value(x: f64) -> String {
            if x.fract() == 0.0 && x.abs() < 1e15 {
                format!("{}", x as i64)
            } else {
                format!("{x}")
            }
        }
        let inner = lock(&self.inner);
        let help = &inner.help;
        let mut out = String::new();
        let mut last_type: Option<String> = None;
        let mut type_line = |out: &mut String, name: &str, kind: &str| {
            if last_type.as_deref().is_none_or(|n| n != name) {
                let text = help
                    .get(name)
                    .map(|h| escape_help(h))
                    .unwrap_or_else(|| format!("Graphalytics {kind} {name}."));
                out.push_str(&format!("# HELP {name} {text}\n"));
                out.push_str(&format!("# TYPE {name} {kind}\n"));
                last_type = Some(name.to_string());
            }
        };
        for ((name, labels), value) in &inner.counters {
            type_line(&mut out, name, "counter");
            out.push_str(&format!("{name}{} {value}\n", label_str(labels, None)));
        }
        for ((name, labels), value) in &inner.gauges {
            type_line(&mut out, name, "gauge");
            out.push_str(&format!(
                "{name}{} {}\n",
                label_str(labels, None),
                fmt_value(*value)
            ));
        }
        for ((name, labels), h) in &inner.histograms {
            type_line(&mut out, name, "histogram");
            let mut cumulative = 0u64;
            for (i, bound) in h.bounds.iter().enumerate() {
                cumulative += h.counts[i];
                out.push_str(&format!(
                    "{name}_bucket{} {cumulative}\n",
                    label_str(labels, Some(("le", &fmt_value(*bound))))
                ));
            }
            out.push_str(&format!(
                "{name}_bucket{} {}\n",
                label_str(labels, Some(("le", "+Inf"))),
                h.count
            ));
            out.push_str(&format!(
                "{name}_sum{} {}\n",
                label_str(labels, None),
                fmt_value(h.sum)
            ));
            out.push_str(&format!(
                "{name}_count{} {}\n",
                label_str(labels, None),
                h.count
            ));
        }
        out
    }

    /// Serializes every series as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        fn quantile_json(h: &Histogram, q: f64) -> Json {
            h.quantile(q).map(Json::Num).unwrap_or(Json::Null)
        }
        fn labels_json(labels: &Labels) -> Json {
            Json::Obj(
                labels
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                    .collect(),
            )
        }
        let inner = lock(&self.inner);
        let mut out = String::new();
        for ((name, labels), value) in &inner.counters {
            let doc = Json::obj([
                ("type", Json::from("counter")),
                ("name", Json::from(name.clone())),
                ("labels", labels_json(labels)),
                ("value", Json::from(*value as usize)),
            ]);
            out.push_str(&doc.to_string_compact());
            out.push('\n');
        }
        for ((name, labels), value) in &inner.gauges {
            let doc = Json::obj([
                ("type", Json::from("gauge")),
                ("name", Json::from(name.clone())),
                ("labels", labels_json(labels)),
                ("value", Json::from(*value)),
            ]);
            out.push_str(&doc.to_string_compact());
            out.push('\n');
        }
        for ((name, labels), h) in &inner.histograms {
            let doc = Json::obj([
                ("type", Json::from("histogram")),
                ("name", Json::from(name.clone())),
                ("labels", labels_json(labels)),
                (
                    "bounds",
                    Json::Arr(h.bounds.iter().map(|&b| Json::from(b)).collect()),
                ),
                (
                    "counts",
                    Json::Arr(h.counts.iter().map(|&c| Json::from(c as usize)).collect()),
                ),
                ("sum", Json::from(h.sum)),
                ("count", Json::from(h.count as usize)),
                ("p50", quantile_json(h, 0.50)),
                ("p95", quantile_json(h, 0.95)),
                ("p99", quantile_json(h, 0.99)),
            ]);
            out.push_str(&doc.to_string_compact());
            out.push('\n');
        }
        out
    }
}

/// One named phase of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// Phase name (see [`phase`] for the canonical set).
    pub name: String,
    /// Start offset in seconds from the run's start.
    pub start_seconds: f64,
    /// Phase duration in seconds.
    pub duration_seconds: f64,
}

/// The per-run phase decomposition: how a `RunRecord`'s wall time divides
/// into load / execute / validate / ... phases.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunTimeline {
    /// Phases in chronological order (repeated names allowed, e.g. one
    /// `execute` entry per repetition).
    pub phases: Vec<Phase>,
}

impl RunTimeline {
    /// Appends a phase.
    pub fn push(&mut self, name: &str, start_seconds: f64, duration_seconds: f64) {
        self.phases.push(Phase {
            name: name.to_string(),
            start_seconds,
            duration_seconds,
        });
    }

    /// True when no phases were recorded.
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    /// Sum of all phase durations.
    pub fn total_seconds(&self) -> f64 {
        self.phases.iter().map(|p| p.duration_seconds).sum()
    }

    /// Total duration of all phases with the given name.
    pub fn phase_seconds(&self, name: &str) -> f64 {
        self.phases
            .iter()
            .filter(|p| p.name == name)
            .map(|p| p.duration_seconds)
            .sum()
    }

    /// Distinct phase names in first-seen order.
    pub fn phase_names(&self) -> Vec<String> {
        let mut seen = Vec::new();
        for p in &self.phases {
            if !seen.contains(&p.name) {
                seen.push(p.name.clone());
            }
        }
        seen
    }

    /// Aggregated JSON object: phase name → total seconds.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.phase_names()
                .into_iter()
                .map(|name| {
                    let secs = self.phase_seconds(&name);
                    (name, Json::from(secs))
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn spans_nest_on_one_thread() {
        let tracer = Tracer::new();
        {
            let mut outer = tracer.span("outer");
            outer.field("k", 1i64);
            {
                let _inner = tracer.span("inner");
            }
        }
        let spans = tracer.finished_spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(outer.parent, None);
        assert_eq!(inner.parent, Some(outer.id));
        assert!(inner.start_seconds >= outer.start_seconds);
        assert!(inner.end_seconds <= outer.end_seconds);
        assert_eq!(outer.field("k").and_then(FieldValue::as_i64), Some(1));
    }

    #[test]
    fn span_ids_are_in_start_order() {
        let tracer = Tracer::new();
        for name in ["a", "b", "c"] {
            let _s = tracer.span(name);
        }
        let names: Vec<String> = tracer
            .finished_spans()
            .into_iter()
            .map(|s| s.name)
            .collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn concurrent_threads_keep_independent_stacks() {
        let tracer = Arc::new(Tracer::new());
        let root_id = {
            let root = tracer.span("root");
            let root_id = root.id().unwrap();
            let mut handles = Vec::new();
            for t in 0..8 {
                let tracer = Arc::clone(&tracer);
                handles.push(std::thread::spawn(move || {
                    let mut worker = tracer.span_with_parent("worker", Some(root_id));
                    worker.field("thread", t as i64);
                    let _nested = tracer.span("worker.step");
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            root_id
        };
        let spans = tracer.finished_spans();
        assert_eq!(spans.len(), 17); // root + 8 workers + 8 steps.
        let mut ids = std::collections::HashSet::new();
        for s in &spans {
            assert!(ids.insert(s.id), "duplicate span id {}", s.id);
        }
        let workers: Vec<&Span> = spans.iter().filter(|s| s.name == "worker").collect();
        assert_eq!(workers.len(), 8);
        for w in &workers {
            assert_eq!(w.parent, Some(root_id));
        }
        // Each nested step's parent is its own thread's worker span.
        for step in spans.iter().filter(|s| s.name == "worker.step") {
            let parent = step.parent.expect("step has a parent");
            assert!(workers.iter().any(|w| w.id == parent));
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        {
            let mut s = tracer.span("ignored");
            s.field("k", 1i64);
            assert_eq!(s.id(), None);
        }
        tracer.event("e", None, vec![]);
        tracer.metrics().inc_counter("c", &[], 1);
        assert!(tracer.finished_spans().is_empty());
        assert_eq!(tracer.metrics().counter_value("c", &[]), 0);
        assert!(tracer.export_jsonl().is_empty());
    }

    #[test]
    fn events_are_zero_duration_children() {
        let tracer = Tracer::new();
        let parent_id = {
            let parent = tracer.span("run");
            let id = parent.id().unwrap();
            tracer.event(
                "monitor.sample",
                Some(id),
                vec![("rss_bytes".to_string(), FieldValue::I64(42))],
            );
            id
        };
        let spans = tracer.finished_spans();
        let event = spans.iter().find(|s| s.name == "monitor.sample").unwrap();
        assert_eq!(event.parent, Some(parent_id));
        assert_eq!(event.duration_seconds(), 0.0);
        assert_eq!(
            event.field("rss_bytes").and_then(FieldValue::as_i64),
            Some(42)
        );
    }

    #[test]
    fn prometheus_golden_format() {
        let registry = MetricsRegistry::new();
        registry.inc_counter("gx_runs_total", &[("platform", "Giraph")], 3);
        registry.set_gauge("gx_peak_rss_bytes", &[], 1048576.0);
        registry.observe_with_buckets("gx_run_seconds", &[], 0.3, &[0.1, 1.0]);
        registry.observe_with_buckets("gx_run_seconds", &[], 5.0, &[0.1, 1.0]);
        registry.describe("gx_runs_total", "Total runs.");
        let text = registry.render_prometheus();
        let expected = "\
# HELP gx_runs_total Total runs.
# TYPE gx_runs_total counter
gx_runs_total{platform=\"Giraph\"} 3
# HELP gx_peak_rss_bytes Graphalytics gauge gx_peak_rss_bytes.
# TYPE gx_peak_rss_bytes gauge
gx_peak_rss_bytes 1048576
# HELP gx_run_seconds Graphalytics histogram gx_run_seconds.
# TYPE gx_run_seconds histogram
gx_run_seconds_bucket{le=\"0.1\"} 0
gx_run_seconds_bucket{le=\"1\"} 1
gx_run_seconds_bucket{le=\"+Inf\"} 2
gx_run_seconds_sum 5.3
gx_run_seconds_count 2
";
        assert_eq!(text, expected);
    }

    #[test]
    fn prometheus_help_lines_precede_every_type_line() {
        let registry = MetricsRegistry::new();
        registry.inc_counter("graphalytics_runs_total", &[("p", "x")], 1);
        registry.set_gauge("custom_gauge", &[], 1.0);
        registry.observe("lat_seconds", &[], 0.1);
        registry.describe("weird", "line one\nline two \\ backslash");
        registry.inc_counter("weird", &[], 1);
        let text = registry.render_prometheus();
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let name = rest.split(' ').next().unwrap();
                let help = lines[i - 1];
                assert!(
                    help.starts_with(&format!("# HELP {name} ")),
                    "TYPE for {name} not preceded by HELP: {help:?}"
                );
            }
        }
        // Well-known families carry their curated help text.
        assert!(text.contains("# HELP graphalytics_runs_total Benchmark runs"));
        // Explicit describe() escapes newline and backslash.
        assert!(text.contains("# HELP weird line one\\nline two \\\\ backslash\n"));
        // Un-described families fall back to a generic line.
        assert!(text.contains("# HELP custom_gauge Graphalytics gauge custom_gauge.\n"));
    }

    #[test]
    fn build_info_gauge_identifies_binary() {
        let registry = MetricsRegistry::new();
        registry.register_build_info();
        assert_eq!(
            registry.gauge_value(
                "graphalytics_build_info",
                &[
                    ("profile", BUILD_PROFILE),
                    ("version", env!("CARGO_PKG_VERSION"))
                ]
            ),
            Some(1.0)
        );
        let text = registry.render_prometheus();
        assert!(text.contains("# TYPE graphalytics_build_info gauge"));
        assert!(text.contains(&format!("version=\"{}\"", env!("CARGO_PKG_VERSION"))));
    }

    #[test]
    fn span_listeners_observe_finishes_and_events() {
        let tracer = Arc::new(Tracer::new());
        let seen: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        {
            let seen = Arc::clone(&seen);
            let tracer2 = Arc::clone(&tracer);
            tracer.subscribe(move |span| {
                // Subscribers may query the tracer (no lock is held).
                let _ = tracer2.finished_spans();
                lock(&seen).push(span.name.clone());
            });
        }
        {
            let _outer = tracer.span("outer");
            let _inner = tracer.span("inner");
        }
        tracer.event("tick", None, vec![]);
        assert_eq!(&*lock(&seen), &["inner", "outer", "tick"]);
    }

    #[test]
    fn disabled_tracer_never_notifies_listeners() {
        let tracer = Tracer::disabled();
        let fired = Arc::new(AtomicBool::new(false));
        let fired2 = Arc::clone(&fired);
        tracer.subscribe(move |_| fired2.store(true, Ordering::SeqCst));
        let _s = tracer.span("ignored");
        drop(_s);
        tracer.event("e", None, vec![]);
        assert!(!fired.load(Ordering::SeqCst));
    }

    /// Parses one exposition line into (name, labels, value); None for
    /// comments/blank lines. A minimal format check: `name{labels} value`.
    fn parse_prom_line(line: &str) -> Option<(String, String, f64)> {
        if line.is_empty() || line.starts_with('#') {
            return None;
        }
        let (series, value) = line.rsplit_once(' ').expect("space before value");
        let value: f64 = value.parse().expect("numeric value");
        let (name, labels) = match series.split_once('{') {
            Some((n, rest)) => {
                assert!(rest.ends_with('}'), "unterminated labels in {line:?}");
                (n.to_string(), rest.trim_end_matches('}').to_string())
            }
            None => (series.to_string(), String::new()),
        };
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name {name:?}"
        );
        Some((name, labels, value))
    }

    #[test]
    fn prometheus_lines_parse() {
        let registry = MetricsRegistry::new();
        registry.inc_counter("a_total", &[("x", "1"), ("y", "weird \"label\"\n")], 7);
        registry.set_gauge("b", &[("z", "v")], 2.5);
        registry.observe("c_seconds", &[], 0.02);
        let text = registry.render_prometheus();
        let mut samples = 0;
        for line in text.lines() {
            if let Some((name, _labels, value)) = parse_prom_line(line) {
                assert!(!name.is_empty());
                assert!(value.is_finite());
                samples += 1;
            }
        }
        // counter + gauge + (10 bounds + Inf + sum + count) histogram lines.
        assert_eq!(samples, 2 + DEFAULT_BUCKETS.len() + 3);
    }

    #[test]
    fn counters_gauges_histograms_accumulate() {
        let registry = MetricsRegistry::new();
        registry.inc_counter("c", &[("p", "x")], 1);
        registry.inc_counter("c", &[("p", "x")], 2);
        registry.inc_counter("c", &[("p", "y")], 5);
        assert_eq!(registry.counter_value("c", &[("p", "x")]), 3);
        assert_eq!(registry.counter_value("c", &[("p", "y")]), 5);
        registry.max_gauge("g", &[], 2.0);
        registry.max_gauge("g", &[], 1.0);
        assert_eq!(registry.gauge_value("g", &[]), Some(2.0));
        registry.observe("h", &[], 0.003);
        registry.observe("h", &[], 100.0);
        let h = registry.histogram("h", &[]).unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 100.003);
        assert_eq!(*h.counts.last().unwrap(), 1); // the +Inf bucket.
    }

    #[test]
    fn label_order_is_canonical() {
        let registry = MetricsRegistry::new();
        registry.inc_counter("c", &[("b", "2"), ("a", "1")], 1);
        registry.inc_counter("c", &[("a", "1"), ("b", "2")], 1);
        assert_eq!(registry.counter_value("c", &[("a", "1"), ("b", "2")]), 2);
    }

    #[test]
    fn jsonl_export_parses_line_by_line() {
        let tracer = Tracer::new();
        {
            let mut s = tracer.span("phase");
            s.field("n", 3usize);
            s.field("what", "etl");
            s.field("ratio", 0.5f64);
            s.field("ok", true);
        }
        tracer.metrics().inc_counter("runs", &[("p", "G")], 1);
        tracer.metrics().set_gauge("rss", &[], 1.0);
        tracer.metrics().observe("lat", &[], 0.2);
        let jsonl = tracer.export_jsonl();
        let mut types = Vec::new();
        for line in jsonl.lines() {
            let doc = crate::json::parse(line).expect("line parses");
            types.push(doc.get("type").unwrap().as_str().unwrap().to_string());
        }
        assert_eq!(types, vec!["span", "counter", "gauge", "histogram"]);
        let span_line = jsonl.lines().next().unwrap();
        let doc = crate::json::parse(span_line).unwrap();
        assert_eq!(doc.get("name").unwrap().as_str(), Some("phase"));
        let fields = doc.get("fields").unwrap();
        assert_eq!(fields.get("n").unwrap().as_f64(), Some(3.0));
        assert_eq!(fields.get("what").unwrap().as_str(), Some("etl"));
    }

    #[test]
    fn spans_record_their_thread() {
        let tracer = Arc::new(Tracer::new());
        {
            let _main = tracer.span("main");
            let tracer2 = Arc::clone(&tracer);
            std::thread::spawn(move || {
                let _w = tracer2.span_with_parent("worker", None);
            })
            .join()
            .unwrap();
        }
        let spans = tracer.finished_spans();
        let main = spans.iter().find(|s| s.name == "main").unwrap();
        let worker = spans.iter().find(|s| s.name == "worker").unwrap();
        assert!(main.thread > 0);
        assert!(worker.thread > 0);
        assert_ne!(main.thread, worker.thread);
        let json = main.to_json();
        assert_eq!(
            json.get("thread").unwrap().as_f64(),
            Some(main.thread as f64)
        );
    }

    #[test]
    fn histogram_quantiles_interpolate() {
        let mut h = Histogram::new(&[1.0, 2.0, 4.0]);
        assert_eq!(h.quantile(0.5), None);
        for v in [0.5, 1.5, 1.5, 3.0] {
            h.observe(v);
        }
        // Rank 2 of 4 lands at the upper edge of the (1,2] bucket's first
        // observation: cumulative 1 before, bucket holds 2 → fraction 1/2.
        assert_eq!(h.quantile(0.5), Some(1.5));
        assert_eq!(h.quantile(0.0), Some(0.0));
        assert_eq!(h.quantile(1.0), Some(4.0));
        // Everything beyond the largest bound clamps to it.
        h.observe(100.0);
        assert_eq!(h.quantile(0.99), Some(4.0));
    }

    #[test]
    fn histogram_quantile_empty_returns_none() {
        let h = Histogram::new(&[1.0, 2.0, 4.0]);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), None, "q={q}");
        }
        // Degenerate: no buckets at all.
        let mut none = Histogram::new(&[]);
        none.observe(1.0);
        assert_eq!(none.quantile(0.5), None);
    }

    #[test]
    fn histogram_quantile_single_sample() {
        let mut h = Histogram::new(&[1.0, 2.0, 4.0]);
        h.observe(1.5);
        // Every quantile resolves inside the (1, 2] bucket that holds the
        // only observation.
        for q in [0.01, 0.5, 0.95, 0.99, 1.0] {
            let v = h.quantile(q).unwrap();
            assert!(v > 1.0 && v <= 2.0, "q={q} -> {v}");
        }
    }

    #[test]
    fn histogram_quantile_all_samples_in_one_bucket() {
        let mut h = Histogram::new(&[0.1, 1.0, 10.0]);
        for _ in 0..100 {
            h.observe(0.5);
        }
        // All mass in (0.1, 1]: quantiles interpolate across that bucket
        // and stay within its bounds, and are non-decreasing in q.
        let p50 = h.quantile(0.50).unwrap();
        let p95 = h.quantile(0.95).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        for (q, v) in [(0.5, p50), (0.95, p95), (0.99, p99)] {
            assert!(v > 0.1 && v <= 1.0, "q={q} -> {v}");
        }
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
    }

    #[test]
    fn histogram_quantiles_are_monotone() {
        // Spread observations over several buckets, including +Inf.
        let mut h = Histogram::new(&[0.01, 0.1, 1.0, 10.0]);
        for i in 0..50 {
            h.observe(0.005 * (1 + i % 7) as f64);
            h.observe(0.5 * (1 + i % 3) as f64);
        }
        h.observe(1000.0); // lands in +Inf, clamps to 10.0
        let mut prev = f64::NEG_INFINITY;
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            let v = h.quantile(q).unwrap();
            assert!(v >= prev, "quantile not monotone at q={q}: {v} < {prev}");
            prev = v;
        }
        assert_eq!(h.quantile(1.0), Some(10.0));
    }

    #[test]
    fn histogram_quantiles_in_jsonl() {
        let registry = MetricsRegistry::new();
        registry.observe_with_buckets("lat_seconds", &[], 0.5, &[1.0, 2.0]);
        registry.observe_with_buckets("lat_seconds", &[], 1.5, &[1.0, 2.0]);
        let line = registry.to_jsonl();
        let doc = crate::json::parse(line.trim()).unwrap();
        assert_eq!(doc.get("type").unwrap().as_str(), Some("histogram"));
        let p50 = doc.get("p50").unwrap().as_f64().unwrap();
        let p99 = doc.get("p99").unwrap().as_f64().unwrap();
        assert!(p50 > 0.0 && p50 <= 2.0, "p50 = {p50}");
        assert!(p99 >= p50 && p99 <= 2.0, "p99 = {p99}");
    }

    #[test]
    fn record_span_merges_externally_timed_intervals() {
        let tracer = Tracer::new();
        let parent = {
            let run = tracer.span("run");
            run.id().unwrap()
        };
        let id = tracer
            .record_span(
                "distrib.worker.compute",
                Some(parent),
                1.5,
                2.0,
                vec![("worker".to_string(), 3u32.into())],
            )
            .unwrap();
        // A skewed remote clock cannot produce a negative duration.
        tracer.record_span("distrib.worker.barrier", Some(parent), 5.0, 4.0, vec![]);
        let spans = tracer.finished_spans();
        let merged = spans.iter().find(|s| s.id == id).unwrap();
        assert_eq!(merged.name, "distrib.worker.compute");
        assert_eq!(merged.parent, Some(parent));
        assert_eq!(merged.start_seconds, 1.5);
        assert_eq!(merged.end_seconds, 2.0);
        assert_eq!(merged.field("worker").and_then(FieldValue::as_i64), Some(3));
        let clamped = spans
            .iter()
            .find(|s| s.name == "distrib.worker.barrier")
            .unwrap();
        assert_eq!(clamped.duration_seconds(), 0.0);
        assert_eq!(
            Tracer::disabled().record_span("x", None, 0.0, 1.0, vec![]),
            None
        );
    }

    #[test]
    fn take_finished_drains_in_start_order() {
        let tracer = Tracer::new();
        {
            let _outer = tracer.span("outer");
            let _inner = tracer.span("inner");
        }
        let names: Vec<String> = tracer.take_finished().into_iter().map(|s| s.name).collect();
        assert_eq!(names, ["outer", "inner"]);
        assert!(tracer.take_finished().is_empty(), "a span ships once");
        tracer.span("later");
        assert_eq!(tracer.take_finished().len(), 1);
        let disabled = Tracer::disabled();
        disabled.span("x");
        assert!(disabled.take_finished().is_empty());
    }

    /// Golden fixture: the exact bytes of one `Span`, the record a
    /// distributed worker ships inside a versioned `Telemetry` frame. A
    /// layout change breaks this test: bump the protocol version and
    /// regenerate deliberately.
    #[test]
    fn golden_span_layout_is_pinned() {
        use graphalytics_codec::Codec;
        let span = Span {
            id: 5,
            parent: Some(2),
            name: "compute".to_string(),
            start_seconds: 1.5,
            end_seconds: 2.25,
            thread: 1,
            fields: vec![("work".to_string(), FieldValue::I64(640))],
        };
        let mut blob = Vec::new();
        span.encode_into(&mut blob);
        let expected: Vec<u8> = [
            &[5, 0, 0, 0, 0, 0, 0, 0][..],      // id 5
            &[1, 2, 0, 0, 0, 0, 0, 0, 0],       // parent Some(2)
            &[7, 0, 0, 0, 0, 0, 0, 0],          // name length 7
            b"compute",                         // name
            &[0, 0, 0, 0, 0, 0, 0xf8, 0x3f],    // f64 1.5 bits
            &[0, 0, 0, 0, 0, 0, 0x02, 0x40],    // f64 2.25 bits
            &[1, 0, 0, 0, 0, 0, 0, 0],          // thread 1
            &[1, 0, 0, 0, 0, 0, 0, 0],          // one field
            &[4, 0, 0, 0, 0, 0, 0, 0],          // key length 4
            b"work",                            // key
            &[1, 0x80, 0x02, 0, 0, 0, 0, 0, 0], // I64 640
        ]
        .concat();
        assert_eq!(blob, expected);
        let mut pos = 0;
        assert_eq!(Span::decode_from(&blob, &mut pos), Some(span));
        assert_eq!(pos, blob.len());
    }

    #[test]
    fn merge_prefixed_adds_counters_and_folds_histograms() {
        let server = MetricsRegistry::new();
        let job = MetricsRegistry::new();
        job.inc_counter(
            "graphalytics_worker_shuffle_bytes_total",
            &[("worker", "0")],
            10,
        );
        job.inc_counter("graphalytics_serve_private_total", &[], 7);
        job.observe(
            "graphalytics_worker_compute_seconds",
            &[("worker", "0")],
            0.02,
        );
        server.inc_counter(
            "graphalytics_worker_shuffle_bytes_total",
            &[("worker", "0")],
            5,
        );
        server.merge_prefixed(&job, "graphalytics_worker_");
        assert_eq!(
            server.counter_value(
                "graphalytics_worker_shuffle_bytes_total",
                &[("worker", "0")]
            ),
            15
        );
        // Non-matching families stay out of the server namespace.
        assert_eq!(
            server.counter_value("graphalytics_serve_private_total", &[]),
            0
        );
        let h = server
            .histogram("graphalytics_worker_compute_seconds", &[("worker", "0")])
            .unwrap();
        assert_eq!(h.count, 1);
        // A second merge folds into the existing histogram.
        server.merge_prefixed(&job, "graphalytics_worker_");
        let h = server
            .histogram("graphalytics_worker_compute_seconds", &[("worker", "0")])
            .unwrap();
        assert_eq!(h.count, 2);
        // Merged families carry the curated help text into the exposition.
        let rendered = server.render_prometheus();
        assert!(rendered.contains("# HELP graphalytics_worker_compute_seconds Vertex-compute"));
    }

    #[test]
    fn timeline_accounting() {
        let mut t = RunTimeline::default();
        assert!(t.is_empty());
        t.push(phase::EXECUTE, 0.0, 1.0);
        t.push(phase::EXECUTE, 1.0, 2.0);
        t.push(phase::VALIDATE, 3.0, 0.5);
        assert!(!t.is_empty());
        assert_eq!(t.total_seconds(), 3.5);
        assert_eq!(t.phase_seconds(phase::EXECUTE), 3.0);
        assert_eq!(t.phase_seconds(phase::VALIDATE), 0.5);
        assert_eq!(t.phase_seconds("missing"), 0.0);
        assert_eq!(t.phase_names(), vec!["execute", "validate"]);
        let json = t.to_json();
        assert_eq!(json.get("execute").unwrap().as_f64(), Some(3.0));
    }
}
