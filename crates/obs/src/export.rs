//! Exporters: folded stacks → SVG flamegraph, spans → Chrome trace JSON.
//!
//! The SVG flamegraph is fully self-contained (inline styles, no script
//! dependencies beyond hover titles) and renders as an icicle: root on
//! top, callees below, frame width proportional to self time. The
//! Chrome export emits the `trace_event` format's complete ("X") events —
//! `{name, cat, ph, ts, pid, tid, dur, args}` with timestamps in
//! microseconds — which `chrome://tracing` and Perfetto open directly.

use std::collections::BTreeMap;

use graphalytics_core::html::escape;
use graphalytics_core::json::Json;
use graphalytics_core::trace::Span;

use crate::profiler::Profile;

/// One frame box of the flamegraph tree.
#[derive(Default)]
struct FrameNode {
    total: u64,
    children: BTreeMap<String, FrameNode>,
}

impl FrameNode {
    fn insert(&mut self, frames: &[&str], count: u64) {
        self.total += count;
        if let Some((first, rest)) = frames.split_first() {
            self.children
                .entry(first.to_string())
                .or_default()
                .insert(rest, count);
        }
    }

    fn depth(&self) -> usize {
        1 + self
            .children
            .values()
            .map(FrameNode::depth)
            .max()
            .unwrap_or(0)
    }
}

const FRAME_HEIGHT: f64 = 17.0;
const SVG_WIDTH: f64 = 1200.0;
const TOP_MARGIN: f64 = 28.0;

/// Deterministic warm color per frame name (flamegraph convention).
fn frame_color(name: &str) -> String {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    let r = 205 + (h % 50) as u8;
    let g = 80 + ((h >> 8) % 130) as u8;
    let b = ((h >> 16) % 55) as u8;
    format!("rgb({r},{g},{b})")
}

fn render_node(
    out: &mut String,
    name: Option<&str>,
    node: &FrameNode,
    x: f64,
    depth: usize,
    per_micro: f64,
    root_total: u64,
) {
    let width = node.total as f64 * per_micro;
    if let Some(name) = name {
        let y = TOP_MARGIN + depth as f64 * FRAME_HEIGHT;
        let pct = 100.0 * node.total as f64 / root_total as f64;
        let title = format!("{name} ({} µs, {pct:.2}%)", node.total);
        out.push_str(&format!(
            "<g><title>{}</title><rect x=\"{:.2}\" y=\"{:.1}\" width=\"{:.2}\" \
             height=\"{:.1}\" fill=\"{}\" rx=\"2\"/>",
            escape(&title),
            x,
            y,
            (width - 0.5).max(0.5),
            FRAME_HEIGHT - 1.0,
            frame_color(name),
        ));
        // Only label frames wide enough to hold text (~7 px per char).
        let max_chars = (width / 7.0) as usize;
        if max_chars >= 3 {
            let label: String = if name.len() > max_chars {
                format!("{}..", &name[..max_chars.saturating_sub(2)])
            } else {
                name.to_string()
            };
            out.push_str(&format!(
                "<text x=\"{:.2}\" y=\"{:.1}\">{}</text>",
                x + 3.0,
                y + FRAME_HEIGHT - 5.0,
                escape(&label),
            ));
        }
        out.push_str("</g>\n");
    }
    let mut child_x = x;
    let child_depth = if name.is_some() { depth + 1 } else { depth };
    for (child_name, child) in &node.children {
        render_node(
            out,
            Some(child_name),
            child,
            child_x,
            child_depth,
            per_micro,
            root_total,
        );
        child_x += child.total as f64 * per_micro;
    }
}

/// Renders a self-contained SVG flamegraph (icicle layout) from a folded
/// profile. An empty profile yields a small placeholder SVG.
pub fn flamegraph_svg(profile: &Profile, title: &str) -> String {
    let mut root = FrameNode::default();
    for (stack, &count) in &profile.folded {
        let frames: Vec<&str> = stack.split(';').collect();
        root.insert(&frames, count);
    }
    let depth = root.depth().saturating_sub(1).max(1);
    let height = TOP_MARGIN + depth as f64 * FRAME_HEIGHT + 12.0;
    let mut out = String::new();
    out.push_str(&format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{SVG_WIDTH}\" \
         height=\"{height:.0}\" viewBox=\"0 0 {SVG_WIDTH} {height:.0}\" \
         font-family=\"monospace\" font-size=\"11\">\n"
    ));
    out.push_str(&format!(
        "<text x=\"{:.0}\" y=\"17\" text-anchor=\"middle\" font-size=\"14\">{}</text>\n",
        SVG_WIDTH / 2.0,
        escape(title),
    ));
    if root.total == 0 {
        out.push_str(&format!(
            "<text x=\"{:.0}\" y=\"{:.0}\" text-anchor=\"middle\">no samples</text>\n",
            SVG_WIDTH / 2.0,
            TOP_MARGIN + FRAME_HEIGHT,
        ));
    } else {
        let per_micro = SVG_WIDTH / root.total as f64;
        render_node(&mut out, None, &root, 0.0, 0, per_micro, root.total);
    }
    out.push_str("</svg>\n");
    out
}

/// The Chrome `trace_event` required fields, per the Trace Event Format
/// spec: every event object must carry all of these.
pub const TRACE_EVENT_REQUIRED_FIELDS: &[&str] = &["name", "cat", "ph", "ts", "pid", "tid"];

fn span_category(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Serializes finished spans as Chrome `trace_event` JSON: one complete
/// ("X") event per span with microsecond timestamps, `tid` = the span's
/// thread ordinal, and span fields under `args`. The output is the
/// object form (`{"traceEvents": [...]}`), openable in `chrome://tracing`
/// and Perfetto.
///
/// Spans carrying a string `proc` field (merged worker-process spans from
/// the distributed runtime, e.g. `w1:i0`) render in their own process
/// lane: each distinct `proc` value gets a pid ≥ 2 and a `process_name`
/// metadata event, so a fleet run shows one timeline row per worker
/// process next to the master's (pid 1).
pub fn chrome_trace(spans: &[Span]) -> String {
    // Assign lane pids: master is pid 1; worker lanes sort by name.
    let lanes: BTreeMap<&str, f64> = {
        let mut names: Vec<&str> = spans
            .iter()
            .filter_map(|s| {
                s.fields
                    .iter()
                    .find(|(k, _)| k == "proc")
                    .and_then(|(_, v)| v.as_str())
            })
            .collect();
        names.sort_unstable();
        names.dedup();
        names
            .into_iter()
            .enumerate()
            .map(|(i, name)| (name, (i + 2) as f64))
            .collect()
    };
    let mut events: Vec<Json> = Vec::with_capacity(spans.len() + 1 + lanes.len());
    events.push(Json::obj([
        ("name", Json::from("process_name")),
        ("cat", Json::from("__metadata")),
        ("ph", Json::from("M")),
        ("ts", Json::Num(0.0)),
        ("pid", Json::Num(1.0)),
        ("tid", Json::Num(0.0)),
        ("args", Json::obj([("name", Json::from("graphalytics"))])),
    ]));
    for (name, &pid) in &lanes {
        events.push(Json::obj([
            ("name", Json::from("process_name")),
            ("cat", Json::from("__metadata")),
            ("ph", Json::from("M")),
            ("ts", Json::Num(0.0)),
            ("pid", Json::Num(pid)),
            ("tid", Json::Num(0.0)),
            (
                "args",
                Json::obj([("name", Json::from(format!("worker {name}")))]),
            ),
        ]));
    }
    for span in spans {
        let mut args: BTreeMap<String, Json> = span
            .fields
            .iter()
            .map(|(k, v)| {
                let value = match v {
                    graphalytics_core::trace::FieldValue::I64(x) => Json::Num(*x as f64),
                    graphalytics_core::trace::FieldValue::F64(x) => Json::Num(*x),
                    graphalytics_core::trace::FieldValue::Str(s) => Json::Str(s.clone()),
                    graphalytics_core::trace::FieldValue::Bool(b) => Json::Bool(*b),
                };
                (k.clone(), value)
            })
            .collect();
        args.insert("span_id".to_string(), Json::Num(span.id as f64));
        if let Some(parent) = span.parent {
            args.insert("parent_span_id".to_string(), Json::Num(parent as f64));
        }
        let pid = span
            .fields
            .iter()
            .find(|(k, _)| k == "proc")
            .and_then(|(_, v)| v.as_str())
            .and_then(|name| lanes.get(name).copied())
            .unwrap_or(1.0);
        events.push(Json::obj([
            ("name", Json::from(span.name.clone())),
            ("cat", Json::from(span_category(&span.name))),
            ("ph", Json::from("X")),
            ("ts", Json::Num(span.start_seconds * 1e6)),
            ("dur", Json::Num(span.duration_seconds() * 1e6)),
            ("pid", Json::Num(pid)),
            ("tid", Json::Num(span.thread as f64)),
            ("args", Json::Obj(args)),
        ]));
    }
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::from("ms")),
    ])
    .to_string_compact()
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphalytics_core::json;
    use graphalytics_core::trace::Tracer;

    fn sample_profile() -> Profile {
        let mut p = Profile::default();
        p.folded
            .insert("run;run.execute;pregel.superstep".into(), 6);
        p.folded.insert("run;run.execute".into(), 2);
        p.folded.insert("run;run.validate".into(), 2);
        p
    }

    #[test]
    fn svg_is_well_formed_and_proportional() {
        let svg = flamegraph_svg(&sample_profile(), "test run");
        assert!(svg.starts_with("<svg "));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert_eq!(svg.matches("<rect").count(), 4); // run, execute, superstep, validate.
        assert!(svg.contains("pregel.superstep"));
        // The root frame spans the full width.
        assert!(svg.contains(&format!("width=\"{:.2}\"", SVG_WIDTH - 0.5)));
        // Angle brackets from titles are escaped; no raw ampersands.
        assert!(!svg.contains("& "));
    }

    #[test]
    fn empty_profile_yields_placeholder_svg() {
        let svg = flamegraph_svg(&Profile::default(), "empty");
        assert!(svg.contains("no samples"));
        assert!(svg.trim_end().ends_with("</svg>"));
    }

    #[test]
    fn chrome_trace_has_required_fields_everywhere() {
        let tracer = Tracer::new();
        {
            let mut run = tracer.span("run");
            run.field("platform", "Reference");
            let _exec = tracer.span("run.execute");
        }
        let text = chrome_trace(&tracer.finished_spans());
        let doc = json::parse(&text).expect("chrome trace parses");
        let Some(Json::Arr(events)) = doc.get("traceEvents").cloned() else {
            panic!("traceEvents array missing");
        };
        assert_eq!(events.len(), 3); // metadata + 2 spans.
        for event in &events {
            for field in TRACE_EVENT_REQUIRED_FIELDS {
                assert!(event.get(field).is_some(), "missing {field}: {event:?}");
            }
        }
        let exec = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("run.execute"))
            .unwrap();
        assert_eq!(exec.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(exec.get("cat").and_then(Json::as_str), Some("run"));
        assert!(exec.get("dur").and_then(Json::as_f64).unwrap() >= 0.0);
        let args = exec.get("args").unwrap();
        assert!(args.get("span_id").is_some());
        assert!(args.get("parent_span_id").is_some());
    }

    #[test]
    fn proc_tagged_spans_get_their_own_process_lanes() {
        use graphalytics_core::trace::FieldValue;
        let tracer = Tracer::new();
        {
            let _run = tracer.span("run");
        }
        for lane in ["w0:i0", "w1:i0"] {
            tracer.record_span(
                "distrib.worker.compute",
                None,
                0.0,
                0.5,
                vec![("proc".to_string(), FieldValue::Str(lane.to_string()))],
            );
        }
        let text = chrome_trace(&tracer.finished_spans());
        let doc = json::parse(&text).expect("chrome trace parses");
        let Some(Json::Arr(events)) = doc.get("traceEvents").cloned() else {
            panic!("traceEvents array missing");
        };
        // One metadata event per lane: master + two workers.
        let lane_names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .filter_map(|e| e.get("args")?.get("name")?.as_str())
            .collect();
        assert_eq!(lane_names, ["graphalytics", "worker w0:i0", "worker w1:i0"]);
        // Worker spans sit on pids 2/3; the master span stays on pid 1.
        let pid_of = |name: &str, lane: &str| {
            events
                .iter()
                .find(|e| {
                    e.get("name").and_then(Json::as_str) == Some(name)
                        && e.get("args")
                            .and_then(|a| a.get("proc"))
                            .and_then(Json::as_str)
                            .map_or(lane.is_empty(), |p| p == lane)
                })
                .and_then(|e| e.get("pid"))
                .and_then(Json::as_f64)
                .unwrap()
        };
        assert_eq!(pid_of("run", ""), 1.0);
        assert_eq!(pid_of("distrib.worker.compute", "w0:i0"), 2.0);
        assert_eq!(pid_of("distrib.worker.compute", "w1:i0"), 3.0);
    }
}
