//! Fleet telemetry, master side: folding a worker's spans into the run's
//! tracer.
//!
//! A worker process records its spans on its own [`Tracer`], built when it
//! reads its Plan, and ships them as they finish ([`Tracer::take_finished`])
//! in [`Frame::Telemetry`](crate::Frame::Telemetry) frames piggybacked on
//! the superstep barrier. Its span clock starts at Plan receipt; the master
//! noted its own clock just before it sent that Plan, so adding that origin
//! puts a worker span on the master's timeline: never late, and early only
//! by the time from the Plan's send to the worker reading it.
//!
//! Telemetry is strictly off the output path: a worker with a disabled
//! tracer finishes no spans, so it ships zero Telemetry frames.

use crate::master::PLATFORM_LABEL;
use crate::protocol::decode_blob;
use graphalytics_core::trace::{FieldValue, Span, Tracer};

/// Merges one Telemetry blob from `worker` of fleet `incarnation`, whose
/// Plan the master sent at `origin` on `tracer`'s clock, into `tracer`,
/// each span under `parent(span)`. Each span is tagged with its process lane (`proc` =
/// `w<worker>:i<incarnation>`), `worker`, `incarnation` and `seq` (its id
/// in the worker's tracer), and the compute, shuffle, barrier and
/// checkpoint spans feed the per-worker `graphalytics_worker_*` series.
///
/// A `(worker, incarnation)` pair is one process, which drains its tracer
/// into every frame, so no span arrives twice. A malformed blob merges
/// nothing: the frame CRC vouched for the transport, so a decode failure
/// is a version skew the run must not crash over. Returns the spans merged.
pub(crate) fn merge(
    tracer: &Tracer,
    origin: f64,
    worker: u32,
    incarnation: u32,
    blob: &[u8],
    parent: impl Fn(&Span) -> Option<u64>,
) -> usize {
    let Some(spans) = decode_blob::<Vec<Span>>(blob) else {
        return 0;
    };
    let merged = spans.len();
    let lane = format!("w{worker}:i{incarnation}");
    let worker_label = worker.to_string();
    let labels = [PLATFORM_LABEL, ("worker", worker_label.as_str())];
    let metrics = tracer.metrics();
    for span in spans {
        match span.name.as_str() {
            "distrib.worker.compute" => metrics.observe(
                "graphalytics_worker_compute_seconds",
                &labels,
                span.duration_seconds(),
            ),
            "distrib.worker.barrier" => metrics.observe(
                "graphalytics_worker_barrier_wait_seconds",
                &labels,
                span.duration_seconds(),
            ),
            "distrib.worker.checkpoint" => metrics.observe(
                "graphalytics_worker_checkpoint_seconds",
                &labels,
                span.duration_seconds(),
            ),
            "distrib.worker.shuffle" => metrics.inc_counter(
                "graphalytics_worker_shuffle_bytes_total",
                &labels,
                span.field("bytes")
                    .and_then(FieldValue::as_i64)
                    .unwrap_or(0) as u64,
            ),
            _ => {}
        }
        let mut fields = vec![
            ("proc".to_string(), FieldValue::Str(lane.clone())),
            ("worker".to_string(), worker.into()),
            ("incarnation".to_string(), incarnation.into()),
            ("seq".to_string(), span.id.into()),
        ];
        let parent = parent(&span);
        fields.extend(span.fields);
        tracer.record_span(
            &span.name,
            parent,
            origin + span.start_seconds,
            origin + span.end_seconds,
            fields,
        );
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::encode_blob;

    /// Two compute spans and a barrier wait, as one worker tracer ships them.
    fn shipped() -> Vec<u8> {
        let worker = Tracer::new();
        for superstep in 0..2u64 {
            let mut compute = worker.span("distrib.worker.compute");
            compute.field("superstep", superstep).field("work", 7u64);
        }
        worker.span("distrib.worker.barrier");
        encode_blob(&worker.take_finished())
    }

    #[test]
    fn merged_spans_are_translated_and_tagged() {
        let tracer = Tracer::new();
        let blob = shipped();
        let local = decode_blob::<Vec<Span>>(&blob).unwrap();
        // Spans naming superstep s go under span 10 + s, the rest under 9.
        let parent = |span: &Span| {
            let superstep = span.field("superstep").and_then(FieldValue::as_i64);
            Some(superstep.map_or(9, |s| 10 + s as u64))
        };
        assert_eq!(merge(&tracer, 100.0, 1, 2, &blob, parent), 3);

        let spans = tracer.finished_spans();
        assert_eq!(spans.len(), 3);
        for (merged, local) in spans.iter().zip(&local) {
            assert_eq!(merged.name, local.name);
            assert_eq!(merged.start_seconds, 100.0 + local.start_seconds);
            assert_eq!(merged.end_seconds, 100.0 + local.end_seconds);
            assert_eq!(merged.field("proc").and_then(|f| f.as_str()), Some("w1:i2"));
            assert_eq!(merged.field("worker").and_then(|f| f.as_i64()), Some(1));
            assert_eq!(
                merged.field("incarnation").and_then(|f| f.as_i64()),
                Some(2)
            );
            assert_eq!(
                merged.field("seq").and_then(|f| f.as_i64()),
                Some(local.id as i64)
            );
        }
        assert_eq!(
            spans[1].field("superstep").and_then(|f| f.as_i64()),
            Some(1)
        );
        assert_eq!(spans[1].field("work").and_then(|f| f.as_i64()), Some(7));
        let parents: Vec<_> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [Some(10), Some(11), Some(9)]);
        // Each compute span and the barrier wait feed the worker's series.
        let labels = [PLATFORM_LABEL, ("worker", "1")];
        let metrics = tracer.metrics();
        let compute = metrics.histogram("graphalytics_worker_compute_seconds", &labels);
        assert_eq!(compute.expect("compute histogram").count, 2);
        let barrier = metrics.histogram("graphalytics_worker_barrier_wait_seconds", &labels);
        assert_eq!(barrier.expect("barrier histogram").count, 1);
    }

    #[test]
    fn malformed_blob_merges_nothing() {
        let tracer = Tracer::new();
        assert_eq!(merge(&tracer, 0.0, 0, 0, &[0xFF; 7], |_| None), 0);
        let mut truncated = shipped();
        truncated.pop();
        assert_eq!(merge(&tracer, 0.0, 0, 0, &truncated, |_| None), 0);
        assert!(tracer.finished_spans().is_empty());
    }
}
