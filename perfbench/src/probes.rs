//! Micro-measurements of layers no workload isolates: the checkpoint codec,
//! the wire frames, the tracer's own cost, the observers, the JSON parser.
//! Each is timed a few times and the median kept.

use std::hint::black_box;

use graphalytics_core::json;
use graphalytics_core::trace::Tracer;
use graphalytics_distrib::protocol::crc32;
use graphalytics_distrib::{read_frame, write_frame, Frame};
use graphalytics_faults::Snapshot;
use graphalytics_obs::{chokepoints, export};

use crate::metrics::Values;
use crate::spans::Recorder;
use crate::workload::Sizes;

const REPEATS: usize = 5;

/// Times `f` [`REPEATS`] times inside one span; returns the seconds of each.
fn repeat<T>(rec: &mut Recorder, name: &str, layer: &str, mut f: impl FnMut() -> T) -> Vec<f64> {
    (0..REPEATS)
        .map(|_| rec.time(name, layer, || black_box(f())).1)
        .collect()
}

fn mbps(bytes: usize, seconds: &[f64]) -> Vec<f64> {
    seconds.iter().map(|s| bytes as f64 / 1e6 / s).collect()
}

/// Checkpoint codec and wire-frame throughput.
pub fn codecs(sizes: &Sizes, rec: &mut Recorder, layer: &mut Values) {
    let n = sizes.probe_states;
    let snapshot: Snapshot<f64, f64> = Snapshot {
        superstep: 7,
        states: (0..n).map(|i| i as f64 * 0.5).collect(),
        inbox: (0..n)
            .map(|i| {
                if i % 4 == 0 {
                    vec![i as f64]
                } else {
                    Vec::new()
                }
            })
            .collect(),
        active: (0..n).map(|i| i % 3 != 0).collect(),
        aggregate: 0.25,
    };
    let encoded = snapshot.encode();
    let s = repeat(rec, "faults.codec.encode", "faults", || snapshot.encode());
    layer.put_samples("faults.codec.encode_mbps", &mbps(encoded.len(), &s));
    let s = repeat(rec, "faults.codec.decode", "faults", || {
        Snapshot::<f64, f64>::decode(&encoded).expect("the snapshot just encoded decodes")
    });
    layer.put_samples("faults.codec.decode_mbps", &mbps(encoded.len(), &s));

    let frame = Frame::Shuffle {
        from: 1,
        superstep: 3,
        batch: (0..sizes.probe_frame_bytes)
            .map(|i| (i as u32).wrapping_mul(2_654_435_761) as u8)
            .collect(),
    };
    let mut wire = Vec::new();
    write_frame(&mut wire, &frame).expect("writing to a Vec cannot fail");
    let s = repeat(rec, "distrib.protocol.encode", "distrib", || {
        let mut out = Vec::with_capacity(wire.len());
        write_frame(&mut out, &frame).expect("writing to a Vec cannot fail");
        out
    });
    layer.put_samples("distrib.protocol.encode_mbps", &mbps(wire.len(), &s));
    let s = repeat(rec, "distrib.protocol.decode", "distrib", || {
        read_frame(&mut wire.as_slice()).expect("the frame just written reads back")
    });
    layer.put_samples("distrib.protocol.decode_mbps", &mbps(wire.len(), &s));
    let s = repeat(rec, "distrib.protocol.crc32", "distrib", || crc32(&wire));
    layer.put_samples("distrib.protocol.crc32_mbps", &mbps(wire.len(), &s));
}

/// Nanoseconds per span open/close pair, tracer on and off.
pub fn span_cost(sizes: &Sizes, rec: &mut Recorder, layer: &mut Values) {
    // A fresh tracer per repeat: an enabled one keeps every span it closes.
    let mut per_pair = |name: &str, make: fn() -> Tracer, pairs: usize| -> Vec<f64> {
        (0..REPEATS)
            .map(|_| {
                let tracer = make();
                let ((), seconds) = rec.time(name, "core.trace", || {
                    for _ in 0..pairs {
                        drop(black_box(tracer.span("probe.span")));
                    }
                });
                seconds * 1e9 / pairs as f64
            })
            .collect()
    };
    let on = per_pair("core.trace.span", Tracer::new, sizes.probe_spans / 10);
    layer.put_samples("core.trace.span_ns", &on);
    let off = per_pair(
        "core.trace.span_disabled",
        Tracer::disabled,
        sizes.probe_spans,
    );
    layer.put_samples("core.trace.span_disabled_ns", &off);
}

/// What the observers cost over the spans of one traced pass.
pub fn observer_cost(tracer: &Tracer, rec: &mut Recorder, layer: &mut Values) {
    let spans = tracer.finished_spans();
    let s = repeat(rec, "obs.chokepoints.attribute", "obs", || {
        chokepoints::attribute(&spans)
    });
    layer.put_samples("obs.chokepoints.attribute_s", &s);
    let s = repeat(rec, "obs.export.chrome_trace", "obs", || {
        export::chrome_trace(&spans)
    });
    layer.put_samples("obs.export.chrome_trace_s", &s);
    let s = repeat(rec, "core.trace.export_jsonl", "core.trace", || {
        tracer.export_jsonl()
    });
    layer.put_samples("core.trace.export_jsonl_s", &s);
}

/// JSON parser throughput over `document`.
pub fn json_parse(document: &str, rec: &mut Recorder, layer: &mut Values) {
    let s = repeat(rec, "core.json.parse", "core.json", || {
        json::parse(document).expect("the document is valid JSON")
    });
    layer.put_samples("core.json.parse_mbps", &mbps(document.len(), &s));
}
