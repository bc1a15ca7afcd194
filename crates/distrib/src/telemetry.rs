//! Fleet telemetry: worker-side span buffering and master-side merging.
//!
//! Workers cannot write into the master's [`Tracer`] directly — they are
//! separate processes — so each worker records its compute, shuffle,
//! barrier-wait, and checkpoint intervals as compact [`WireSpan`]s on a
//! *logical clock* shared with the master (the `clock_origin` shipped in
//! the Plan frame plus local elapsed time), and ships them in a
//! [`Frame::Telemetry`] message piggybacked on the superstep barrier. The
//! master decodes the blob, drops duplicates by `(worker, incarnation,
//! seq)` — a restarted worker re-executes supersteps and may re-ship
//! spans it already sent before crashing — and merges survivors into its
//! own tracer with a per-process `proc` lane tag (`w<id>:i<incarnation>`)
//! plus per-worker Prometheus series.
//!
//! Telemetry is strictly off the output path: a disabled tracer means the
//! buffer records nothing, [`TelemetryBuffer::take_frame`] returns `None`,
//! and zero Telemetry frames cross the wire.

use crate::protocol::{decode_blob, encode_blob, Frame};
use graphalytics_codec::layout;
use graphalytics_core::trace::{FieldValue, Tracer};
use std::collections::{BTreeMap, BTreeSet};
// lint:allow(determinism-time): telemetry timestamps annotate spans only, never outputs
use std::time::Instant;

/// Platform label shared with the master's network counters.
const PLATFORM_LABEL: (&str, &str) = ("platform", "distributed-pregel");

/// What a worker was doing during a recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Vertex-program compute over the local partition.
    Compute,
    /// Shuffle send/recv exchange with peer workers.
    Shuffle,
    /// Blocked at the superstep barrier waiting for the master.
    BarrierWait,
    /// Durable checkpoint snapshot write.
    Checkpoint,
}

layout!(enum SpanKind {
    1 => Compute,
    2 => Shuffle,
    3 => BarrierWait,
    4 => Checkpoint,
});

impl SpanKind {
    /// Dotted span name the merged span carries in the master's tracer.
    pub fn span_name(self) -> &'static str {
        match self {
            SpanKind::Compute => "distrib.worker.compute",
            SpanKind::Shuffle => "distrib.worker.shuffle",
            SpanKind::BarrierWait => "distrib.worker.barrier",
            SpanKind::Checkpoint => "distrib.worker.checkpoint",
        }
    }

    /// Name of the kind-specific magnitude field on the merged span.
    fn value_field(self) -> &'static str {
        match self {
            SpanKind::Compute => "work",
            SpanKind::Shuffle => "bytes",
            SpanKind::BarrierWait => "waited_for",
            SpanKind::Checkpoint => "bytes",
        }
    }

    /// Histogram/counter family the merged span feeds, if any.
    fn metric(self) -> &'static str {
        match self {
            SpanKind::Compute => "graphalytics_worker_compute_seconds",
            SpanKind::Shuffle => "graphalytics_worker_shuffle_bytes_total",
            SpanKind::BarrierWait => "graphalytics_worker_barrier_wait_seconds",
            SpanKind::Checkpoint => "graphalytics_worker_checkpoint_seconds",
        }
    }
}

/// One timed interval recorded by a worker, in wire form. Timestamps are
/// seconds on the fleet logical clock (master tracer epoch).
#[derive(Debug, Clone, PartialEq)]
pub struct WireSpan {
    /// Monotonic per-(worker, incarnation) sequence number, used by the
    /// master to drop re-shipped duplicates after a restart.
    pub seq: u64,
    /// What the worker was doing; one tag byte on the wire.
    pub kind: SpanKind,
    /// Superstep the interval belongs to (0 for pre-loop work).
    pub superstep: u64,
    /// Interval start, seconds on the fleet logical clock.
    pub start_seconds: f64,
    /// Interval end, seconds on the fleet logical clock.
    pub end_seconds: f64,
    /// Kind-specific magnitude: active vertices computed, bytes shuffled
    /// or checkpointed, 0 for barrier waits.
    pub value: u64,
}

layout!(struct WireSpan { seq, kind, superstep, start_seconds, end_seconds, value });

/// Worker-side span buffer. Records intervals on the fleet logical clock
/// and drains them into [`Frame::Telemetry`] messages at superstep
/// barriers. Disabled buffers record nothing and emit no frames.
pub struct TelemetryBuffer {
    enabled: bool,
    clock_origin: f64,
    // lint:allow(determinism-time): span-clock anchor; never read on the output path
    epoch: Instant,
    next_seq: u64,
    buf: Vec<WireSpan>,
    barrier_started: Option<(u64, f64)>,
}

impl TelemetryBuffer {
    /// Builds a buffer from the Plan frame's trace context. `enabled`
    /// mirrors the master tracer; `clock_origin` is the master's
    /// `now_seconds()` at Plan-send time, anchoring this process's clock.
    pub fn new(enabled: bool, clock_origin: f64) -> Self {
        TelemetryBuffer {
            enabled,
            clock_origin,
            // lint:allow(determinism-time): span-clock anchor; never read on the output path
            epoch: Instant::now(),
            next_seq: 0,
            buf: Vec::new(),
            barrier_started: None,
        }
    }

    /// Whether this buffer records anything at all.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Current time in seconds on the fleet logical clock.
    pub fn now(&self) -> f64 {
        self.clock_origin + self.epoch.elapsed().as_secs_f64()
    }

    /// Records one finished interval. No-op when disabled.
    pub fn record(&mut self, kind: SpanKind, superstep: u64, start: f64, end: f64, value: u64) {
        if !self.enabled {
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.buf.push(WireSpan {
            seq,
            kind,
            superstep,
            start_seconds: start,
            end_seconds: end,
            value,
        });
    }

    /// Marks the start of a barrier wait (after StepDone is written).
    /// The matching [`Self::finish_barrier`] closes the interval when the
    /// next master frame arrives.
    pub fn start_barrier(&mut self, superstep: u64) {
        if self.enabled {
            self.barrier_started = Some((superstep, self.now()));
        }
    }

    /// Closes a pending barrier-wait interval, if one is open.
    pub fn finish_barrier(&mut self) {
        if let Some((superstep, start)) = self.barrier_started.take() {
            let end = self.now();
            self.record(SpanKind::BarrierWait, superstep, start, end, 0);
        }
    }

    /// Drains buffered spans into a Telemetry frame, or `None` when
    /// disabled or empty — so a disabled tracer ships zero frames and the
    /// wire stays byte-identical to an untraced run.
    pub fn take_frame(&mut self, worker: u32, incarnation: u32) -> Option<Frame> {
        if !self.enabled || self.buf.is_empty() {
            return None;
        }
        Some(Frame::Telemetry {
            worker,
            incarnation,
            spans: encode_blob(&std::mem::take(&mut self.buf)),
        })
    }
}

/// Master-side merger: decodes shipped span blobs, deduplicates by
/// `(worker, incarnation, seq)`, and folds survivors into the master's
/// tracer and metrics registry.
pub struct TelemetryMerger {
    seen: BTreeMap<(u32, u32), BTreeSet<u64>>,
}

impl Default for TelemetryMerger {
    fn default() -> Self {
        Self::new()
    }
}

impl TelemetryMerger {
    /// Empty merger; one per coordinated run.
    pub fn new() -> Self {
        TelemetryMerger {
            seen: BTreeMap::new(),
        }
    }

    /// Merges one shipped blob into `tracer` under `parent`. Returns the
    /// number of *fresh* spans merged (duplicates from re-shipment after a
    /// worker restart are dropped). Malformed blobs are ignored — the
    /// frame CRC already vouched for transport integrity, so a decode
    /// failure means a version skew we must not crash the run over.
    pub fn merge(
        &mut self,
        worker: u32,
        incarnation: u32,
        blob: &[u8],
        tracer: &Tracer,
        parent: Option<u64>,
    ) -> usize {
        let Some(spans) = decode_blob::<Vec<WireSpan>>(blob) else {
            return 0;
        };
        let seen = self.seen.entry((worker, incarnation)).or_default();
        let lane = format!("w{worker}:i{incarnation}");
        let worker_label = worker.to_string();
        let mut fresh = 0usize;
        for span in spans {
            if !seen.insert(span.seq) {
                continue;
            }
            fresh += 1;
            let kind = span.kind;
            let duration = (span.end_seconds - span.start_seconds).max(0.0);
            tracer.record_span(
                kind.span_name(),
                parent,
                span.start_seconds,
                span.end_seconds,
                vec![
                    ("proc".to_string(), FieldValue::Str(lane.clone())),
                    ("worker".to_string(), FieldValue::I64(worker as i64)),
                    (
                        "incarnation".to_string(),
                        FieldValue::I64(incarnation as i64),
                    ),
                    (
                        "superstep".to_string(),
                        FieldValue::I64(span.superstep as i64),
                    ),
                    ("seq".to_string(), FieldValue::I64(span.seq as i64)),
                    (
                        kind.value_field().to_string(),
                        FieldValue::I64(span.value as i64),
                    ),
                ],
            );
            let labels = [PLATFORM_LABEL, ("worker", worker_label.as_str())];
            match kind {
                SpanKind::Shuffle => {
                    tracer
                        .metrics()
                        .inc_counter(kind.metric(), &labels, span.value);
                }
                SpanKind::Compute | SpanKind::BarrierWait | SpanKind::Checkpoint => {
                    tracer.metrics().observe(kind.metric(), &labels, duration);
                }
            }
        }
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphalytics_codec::Codec;

    fn sample_span() -> WireSpan {
        WireSpan {
            seq: 5,
            kind: SpanKind::Compute,
            superstep: 3,
            start_seconds: 1.5,
            end_seconds: 2.25,
            value: 640,
        }
    }

    /// Golden fixture: the exact blob bytes of one `WireSpan`. A layout
    /// change breaks this test — bump the protocol version and regenerate
    /// deliberately (the blob travels inside a versioned Telemetry frame).
    #[test]
    fn golden_wire_span_layout_is_pinned() {
        let mut blob = Vec::new();
        sample_span().encode_into(&mut blob);
        let expected: Vec<u8> = vec![
            0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // seq 5
            0x01, // kind Compute
            0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // superstep 3
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x3f, // f64 1.5 bits
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x40, // f64 2.25 bits
            0x80, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // value 640
        ];
        assert_eq!(blob, expected);
    }

    #[test]
    fn wire_span_round_trips() {
        let spans = vec![
            sample_span(),
            WireSpan {
                seq: 6,
                kind: SpanKind::BarrierWait,
                superstep: 3,
                start_seconds: 2.25,
                end_seconds: 2.5,
                value: 0,
            },
        ];
        let mut blob = Vec::new();
        spans.encode_into(&mut blob);
        let mut pos = 0;
        let decoded = Vec::<WireSpan>::decode_from(&blob, &mut pos).unwrap();
        assert_eq!(decoded, spans);
        assert_eq!(pos, blob.len());
    }

    /// Corruption rejection: a kind byte naming no kind fails the decode
    /// outright — never a panic or an out-of-range kind.
    #[test]
    fn corrupted_span_blobs_never_decode_to_invalid_kinds() {
        let mut blob = Vec::new();
        vec![sample_span()].encode_into(&mut blob);
        // The span count, then the seq, then the kind byte.
        let kind_at = 16;
        for tag in [0u8, 5, 0xFF] {
            let mut bad = blob.clone();
            bad[kind_at] = tag;
            let mut pos = 0;
            assert!(
                Vec::<WireSpan>::decode_from(&bad, &mut pos).is_none(),
                "kind tag {tag} decoded"
            );
        }
        // Truncation at every prefix is also rejected (not a panic).
        for cut in 0..blob.len() {
            let mut pos = 0;
            assert!(
                Vec::<WireSpan>::decode_from(&blob[..cut], &mut pos).is_none(),
                "cut at {cut} decoded"
            );
        }
    }

    #[test]
    fn disabled_buffer_records_nothing_and_ships_no_frames() {
        let mut buf = TelemetryBuffer::new(false, 0.0);
        buf.record(SpanKind::Compute, 0, 0.0, 1.0, 10);
        buf.start_barrier(0);
        buf.finish_barrier();
        assert!(buf.take_frame(0, 0).is_none());
    }

    #[test]
    fn take_frame_drains_and_restarts_empty() {
        let mut buf = TelemetryBuffer::new(true, 100.0);
        assert!(buf.take_frame(1, 0).is_none(), "empty buffer ships nothing");
        buf.record(SpanKind::Compute, 0, 100.0, 100.5, 7);
        let frame = buf.take_frame(1, 0).expect("one frame");
        match frame {
            Frame::Telemetry {
                worker,
                incarnation,
                spans,
            } => {
                assert_eq!((worker, incarnation), (1, 0));
                let mut pos = 0;
                let decoded = Vec::<WireSpan>::decode_from(&spans, &mut pos).unwrap();
                assert_eq!(decoded.len(), 1);
                assert_eq!(decoded[0].seq, 0);
            }
            other => panic!("unexpected frame {other:?}"),
        }
        assert!(buf.take_frame(1, 0).is_none(), "drained buffer is empty");
    }

    /// Seq dedup: a restarted worker re-ships spans it already delivered
    /// before crashing; the merger must not double-merge them, while a
    /// fresh incarnation's spans (same seqs, new incarnation) still land.
    #[test]
    fn reshipped_spans_are_not_double_merged() {
        let tracer = Tracer::new();
        let mut merger = TelemetryMerger::new();
        let mut blob = Vec::new();
        vec![sample_span()].encode_into(&mut blob);

        assert_eq!(merger.merge(1, 0, &blob, &tracer, None), 1);
        assert_eq!(merger.merge(1, 0, &blob, &tracer, None), 0, "re-shipment");
        assert_eq!(
            merger.merge(1, 1, &blob, &tracer, None),
            1,
            "new incarnation is a distinct stream"
        );

        let spans = tracer.finished_spans();
        let compute: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "distrib.worker.compute")
            .collect();
        assert_eq!(compute.len(), 2, "one per incarnation, no duplicates");
        let lanes: BTreeSet<&str> = compute
            .iter()
            .filter_map(|s| {
                s.fields
                    .iter()
                    .find(|(k, _)| k == "proc")
                    .and_then(|(_, v)| v.as_str())
            })
            .collect();
        assert_eq!(
            lanes,
            BTreeSet::from(["w1:i0", "w1:i1"]),
            "incarnation-tagged lanes"
        );
        // Metrics counted each fresh span exactly once.
        let hist = tracer
            .metrics()
            .histogram(
                "graphalytics_worker_compute_seconds",
                &[PLATFORM_LABEL, ("worker", "1")],
            )
            .expect("histogram recorded");
        assert_eq!(hist.count, 2);
    }

    #[test]
    fn malformed_blob_merges_nothing() {
        let tracer = Tracer::new();
        let mut merger = TelemetryMerger::new();
        assert_eq!(merger.merge(0, 0, &[0xFF; 7], &tracer, None), 0);
        assert!(tracer.finished_spans().is_empty());
    }
}
