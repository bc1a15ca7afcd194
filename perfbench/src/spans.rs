//! The benchmark's own in-memory span recorder.
//!
//! A traced run records one span around every call perfbench makes into a
//! layer, adopts the spans the program's tracer recorded beneath them, and
//! writes everything out when the run ends. A layer's self time is its
//! spans' duration minus the part of that interval their children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use graphalytics_core::json::Json;
use graphalytics_core::trace::{FieldValue, Span};

/// One recorded span. Times are seconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    pub id: usize,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// The pass the span belongs to (0 = set-up and probes).
    pub pass: u32,
    pub name: String,
    /// The workspace crate (or module of `core`) the time is charged to.
    pub layer: String,
    pub start_s: f64,
    pub end_s: f64,
    /// True for spans adopted from the program's own tracer.
    pub program: bool,
}

impl SpanRec {
    pub fn duration_s(&self) -> f64 {
        (self.end_s - self.start_s).max(0.0)
    }
}

/// Handle of an open span; `None` inside when the recorder is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Open(Option<usize>);

/// Span recorder for one thread. Spans nest in the order they are entered.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    pass: u32,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            pass: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off between passes.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggled with a span open");
        self.enabled = enabled;
    }

    pub fn now_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Spans entered from now on carry this pass id.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    /// Id of the innermost open span.
    fn current(&self) -> Option<usize> {
        self.open.last().copied()
    }

    pub fn enter(&mut self, name: &str, layer: &str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        let now = self.now_s();
        self.spans.push(SpanRec {
            id,
            parent: self.current(),
            pass: self.pass,
            name: name.to_string(),
            layer: layer.to_string(),
            start_s: now,
            end_s: now,
            program: false,
        });
        self.open.push(id);
        Open(Some(id))
    }

    pub fn exit(&mut self, open: Open) {
        if let Open(Some(id)) = open {
            assert_eq!(
                self.open.pop(),
                Some(id),
                "spans must close innermost first"
            );
            self.spans[id].end_s = self.now_s();
        }
    }

    /// Runs `f` inside a span and returns its result with the seconds it
    /// took; the seconds are measured whether or not recording is on.
    pub fn time<T>(&mut self, name: &str, layer: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.enter(name, layer);
        let started = Instant::now();
        let out = f();
        let seconds = started.elapsed().as_secs_f64();
        self.exit(open);
        (out, seconds)
    }

    /// A recorder for another thread that shares this one's clock, switch
    /// and pass id. Merge it back with [`Recorder::absorb`].
    pub fn fork(&self) -> Recorder {
        Recorder {
            enabled: self.enabled,
            epoch: self.epoch,
            pass: self.pass,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Adopts a forked recorder's spans under the innermost open span.
    pub fn absorb(&mut self, other: Recorder) {
        assert!(other.open.is_empty(), "absorbed with a span open");
        let base = self.spans.len();
        let parent = self.current();
        for mut span in other.spans {
            span.id += base;
            span.parent = span.parent.map(|p| p + base).or(parent);
            self.spans.push(span);
        }
    }

    /// Adopts spans the program's tracer finished, under the innermost open
    /// span. `offset_s` is this recorder's clock minus the tracer's.
    pub fn adopt(&mut self, program: &[Span], offset_s: f64) {
        if !self.enabled {
            return;
        }
        let top = self.current();
        // Program ids are per tracer; parents start before their children,
        // so one pass in id order can resolve parents and inherit platforms.
        let mut ids: BTreeMap<u64, (usize, String)> = BTreeMap::new();
        let mut sorted: Vec<&Span> = program.iter().collect();
        sorted.sort_by_key(|s| s.id);
        for span in sorted {
            let inherited = span.parent.and_then(|p| ids.get(&p));
            let platform = match span.field("platform") {
                Some(FieldValue::Str(p)) => p.clone(),
                _ => inherited.map(|(_, p)| p.clone()).unwrap_or_default(),
            };
            let id = self.spans.len();
            self.spans.push(SpanRec {
                id,
                parent: inherited.map(|(id, _)| *id).or(top),
                pass: self.pass,
                name: span.name.clone(),
                layer: program_layer(&span.name, &platform).to_string(),
                start_s: span.start_seconds + offset_s,
                end_s: span.end_seconds + offset_s,
                program: true,
            });
            ids.insert(span.id, (id, platform));
        }
    }

    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }
}

/// The layer a platform's own time is charged to.
pub fn platform_layer(platform: &str) -> &'static str {
    match platform {
        "Reference" => "core.reference",
        "Giraph" => "pregel",
        "GraphX" => "dataflow",
        "MapReduce" => "mapreduce",
        "Neo4j" => "graphdb",
        "Virtuoso" => "columnar",
        "Distributed" => "distrib",
        _ => "core.runner",
    }
}

/// The layer a span of the program's tracer is charged to: engine spans to
/// their crate, the runner's load and execute phases to the platform they
/// ran on, validation to the validator, the rest to the runner.
pub fn program_layer(name: &str, platform: &str) -> &'static str {
    match name {
        "run.validate" => return "core.validator",
        "run.load" | "run.execute" => return platform_layer(platform),
        _ => {}
    }
    match name.split('.').next().unwrap_or_default() {
        "reference" => "algos",
        "pregel" => "pregel",
        "graphx" => "dataflow",
        "mapreduce" => "mapreduce",
        "neo4j" => "graphdb",
        "virtuoso" => "columnar",
        "distrib" => "distrib",
        "fault" | "recovery" | "checkpoint" => "faults",
        _ => "core.runner",
    }
}

/// Total length of the union of `intervals`, each clipped to `lo..hi`.
fn covered(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut reach = lo;
    for (start, end) in intervals {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (children may overlap one another).
pub fn self_times(spans: &[SpanRec]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_s, span.end_s));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, kids)| (span.duration_s() - covered(kids, span.start_s, span.end_s)).max(0.0))
        .collect()
}

/// Self time per layer over the spans `keep` selects.
pub fn layer_self_times(
    spans: &[SpanRec],
    keep: impl Fn(&SpanRec) -> bool,
) -> BTreeMap<String, f64> {
    let mut layers = BTreeMap::new();
    for (span, self_s) in spans.iter().zip(self_times(spans)) {
        if keep(span) {
            *layers.entry(span.layer.clone()).or_insert(0.0) += self_s;
        }
    }
    layers
}

/// Writes one JSON object per span.
pub fn write_jsonl(path: &Path, spans: &[SpanRec]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (span, self_s) in spans.iter().zip(self_times(spans)) {
        let line = Json::obj([
            ("id", Json::from(span.id)),
            ("parent", span.parent.map(Json::from).unwrap_or(Json::Null)),
            ("pass", Json::from(span.pass as usize)),
            ("name", Json::from(span.name.clone())),
            ("layer", Json::from(span.layer.clone())),
            ("start_s", Json::Num(span.start_s)),
            ("end_s", Json::Num(span.end_s)),
            ("self_s", Json::Num(self_s)),
            (
                "source",
                Json::from(if span.program { "program" } else { "perfbench" }),
            ),
        ]);
        writeln!(out, "{}", line.to_string_compact())?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, layer: &str, start_s: f64, end_s: f64) -> SpanRec {
        SpanRec {
            id,
            parent,
            pass: 1,
            name: format!("s{id}"),
            layer: layer.to_string(),
            start_s,
            end_s,
            program: false,
        }
    }

    #[test]
    fn self_time_is_duration_minus_what_children_cover() {
        let spans = vec![
            span(0, None, "core.runner", 0.0, 10.0),
            span(1, Some(0), "pregel", 1.0, 4.0),
            span(2, Some(0), "pregel", 5.0, 9.0),
            span(3, Some(2), "faults", 6.0, 7.0),
        ];
        assert_eq!(self_times(&spans), vec![3.0, 3.0, 3.0, 1.0]);
        let layers = layer_self_times(&spans, |_| true);
        assert_eq!(layers["core.runner"], 3.0);
        assert_eq!(layers["pregel"], 6.0);
        assert_eq!(layers["faults"], 1.0);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        // Two worker-thread children overlap on 2..3 and one overhangs the
        // parent's end: the union inside the parent is 1..5.
        let spans = vec![
            span(0, None, "a", 0.0, 5.0),
            span(1, Some(0), "b", 1.0, 3.0),
            span(2, Some(0), "b", 2.0, 8.0),
        ];
        assert_eq!(self_times(&spans)[0], 1.0);
    }

    #[test]
    fn recorder_nests_and_stays_empty_when_off() {
        let mut rec = Recorder::new(true);
        rec.set_pass(3);
        let outer = rec.enter("pass", "core.runner");
        let (value, seconds) = rec.time("inner", "algos", || 7);
        rec.exit(outer);
        assert_eq!(value, 7);
        assert!(seconds >= 0.0);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].pass, 3);
        assert!(spans[0].end_s >= spans[1].end_s);

        let mut off = Recorder::new(false);
        let open = off.enter("pass", "core.runner");
        off.exit(open);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn forked_spans_land_under_the_open_span() {
        let mut rec = Recorder::new(true);
        let pass = rec.enter("pass", "core.runner");
        let mut fork = rec.fork();
        let a = fork.enter("http", "serve");
        let b = fork.enter("poll", "serve");
        fork.exit(b);
        fork.exit(a);
        rec.absorb(fork);
        rec.exit(pass);
        let spans = rec.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
    }

    #[test]
    fn program_spans_are_charged_to_their_layer() {
        assert_eq!(program_layer("run.execute", "Giraph"), "pregel");
        assert_eq!(program_layer("run.load", "Reference"), "core.reference");
        assert_eq!(program_layer("reference.kernel", "Reference"), "algos");
        assert_eq!(program_layer("run.validate", "Neo4j"), "core.validator");
        assert_eq!(program_layer("graphx.iteration", "GraphX"), "dataflow");
        assert_eq!(program_layer("run", "Virtuoso"), "core.runner");
    }
}
