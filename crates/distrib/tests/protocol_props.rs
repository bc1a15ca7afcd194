#![recursion_limit = "256"]
//! Property tests for the wire protocol and every layout built on the
//! codec: arbitrary frames round-trip byte-identically, and hostile bytes
//! (random strings, bit flips, truncations) fed to any decoder yield an
//! error or a value that re-encodes to exactly those bytes — never a
//! panic. A CRC-framed frame yields an error or the original frame.

use graphalytics_algos::Algorithm;
use graphalytics_codec::Codec;
use graphalytics_core::faults::Snapshot;
use graphalytics_core::trace::{FieldValue, Span};
use graphalytics_distrib::protocol::{crc32, read_frame, write_frame, MAGIC, VERSION};
use graphalytics_distrib::{Frame, PlanFrame, StepReport};
use graphalytics_pregel::programs::CdState;
use proptest::prelude::*;

type CdSnapshot = Snapshot<CdState, (u32, f64, f64)>;

fn sample_plan() -> PlanFrame {
    PlanFrame {
        worker: 1,
        workers: 4,
        algorithm: Algorithm::Cd {
            iterations: 10,
            hop_attenuation: 0.1,
            degree_exponent: 1.0,
        },
        graph_prefix: "/tmp/gx/graph".to_string(),
        directed: false,
        weighted: true,
        checkpoint_dir: "/tmp/gx/ckpt".to_string(),
        incarnation: 2,
        resume: Some(8),
        trace: true,
    }
}

fn sample_frames() -> Vec<Frame> {
    vec![
        Frame::Hello { worker: 3 },
        Frame::Plan(sample_plan()),
        Frame::Ready { peer_port: 40123 },
        Frame::Peers {
            ports: vec![40123, 40124, 40125, 40126],
        },
        Frame::MeshReady,
        Frame::StartSuperstep {
            superstep: 12,
            prev_aggregate: 0.25,
            checkpoint: true,
            crash: true,
        },
        Frame::CheckpointDone {
            superstep: 12,
            bytes: 4096,
        },
        Frame::StepDone(StepReport {
            superstep: 12,
            computed: 100,
            active_after: 42,
            sent: 321,
            sent_remote: 200,
            bytes_sent: 9000,
            aggregate: -1.5,
        }),
        Frame::Finish,
        Frame::Output {
            worker: 2,
            states: vec![1, 2, 3, 4],
        },
        Frame::Shuffle {
            from: 0,
            superstep: 3,
            batch: vec![9, 9, 9],
        },
        Frame::PeerHello { from: 1 },
        Frame::Telemetry {
            worker: 1,
            incarnation: 2,
            spans: vec![0xAA, 0xBB, 0xCC],
        },
    ]
}

fn sample_snapshot() -> CdSnapshot {
    let state = |label, score| CdState { label, score };
    Snapshot {
        superstep: 5,
        states: vec![state(0, 1.0), state(0, 0.5), state(7, -0.0)],
        inbox: vec![vec![], vec![(0, 0.5, 2.0), (7, 1.0, 1.0)], vec![]],
        active: vec![true, false, true],
        aggregate: 0.125,
    }
}

/// Worker spans with and without a parent, carrying every field type.
fn sample_spans() -> Vec<Span> {
    let span = |id, parent, name: &str, field: (&str, FieldValue)| Span {
        id,
        parent,
        name: name.to_string(),
        start_seconds: 1.5,
        end_seconds: 2.25,
        thread: 1,
        fields: vec![
            ("superstep".to_string(), FieldValue::I64(3)),
            (field.0.to_string(), field.1),
        ],
    };
    vec![
        span(
            1,
            None,
            "distrib.worker.compute",
            ("work", FieldValue::I64(640)),
        ),
        span(
            2,
            Some(1),
            "distrib.worker.shuffle",
            ("share", FieldValue::F64(0.5)),
        ),
        span(3, None, "distrib.worker.barrier", ("note", "late".into())),
        span(
            4,
            None,
            "distrib.worker.checkpoint",
            ("synced", true.into()),
        ),
    ]
}

fn encoded<T: Codec>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode_into(&mut out);
    out
}

/// Decodes one `T` from `bytes`: `None`, or a value that re-encodes to
/// exactly the bytes it consumed (nothing dropped, nothing invented).
fn decode_canonical<T: Codec>(bytes: &[u8]) -> Option<T> {
    let mut pos = 0;
    let value = T::decode_from(bytes, &mut pos)?;
    assert_eq!(encoded(&value), bytes[..pos], "decode is not canonical");
    Some(value)
}

/// Feeds `bytes` to every decoder: the frame reader, the snapshot reader
/// and each layout's `Codec::decode_from`.
fn every_decoder_survives(bytes: &[u8]) {
    if let Ok(frame) = read_frame(&mut &bytes[..]) {
        assert_eq!(frame.encode(), bytes[..frame.encode().len()]);
    }
    if let Some(snapshot) = CdSnapshot::decode(bytes) {
        assert_eq!(snapshot.encode(), bytes);
    }
    decode_canonical::<Frame>(bytes);
    decode_canonical::<PlanFrame>(bytes);
    decode_canonical::<StepReport>(bytes);
    decode_canonical::<Algorithm>(bytes);
    decode_canonical::<FieldValue>(bytes);
    decode_canonical::<Span>(bytes);
    decode_canonical::<Vec<Span>>(bytes);
    decode_canonical::<CdState>(bytes);
    decode_canonical::<Vec<(u32, f64, f64)>>(bytes);
    decode_canonical::<String>(bytes);
}

/// Every single-bit flip and every proper prefix of `bytes`.
fn corruptions(bytes: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    let flips = (0..bytes.len() * 8).map(move |bit| {
        let mut bad = bytes.to_vec();
        bad[bit / 8] ^= 1 << (bit % 8);
        bad
    });
    flips.chain((0..bytes.len()).map(move |cut| bytes[..cut].to_vec()))
}

#[test]
fn every_frame_round_trips() {
    for frame in sample_frames() {
        let bytes = frame.encode();
        let mut cursor = &bytes[..];
        let decoded = read_frame(&mut cursor).expect("decodes");
        assert_eq!(decoded, frame);
        assert!(cursor.is_empty(), "frame fully consumed");
    }
}

#[test]
fn frames_stream_back_to_back() {
    let frames = sample_frames();
    let mut wire = Vec::new();
    for f in &frames {
        let n = write_frame(&mut wire, f).unwrap();
        assert_eq!(n, f.encode().len());
    }
    let mut cursor = &wire[..];
    for f in &frames {
        assert_eq!(&read_frame(&mut cursor).unwrap(), f);
    }
    assert!(cursor.is_empty());
}

/// The frame CRC and the layouts' exact lengths leave no way for a
/// flipped bit or a cut to decode as a different frame.
#[test]
fn corrupted_frames_are_rejected() {
    for frame in sample_frames() {
        let wire = frame.encode();
        for bad in corruptions(&wire) {
            if let Ok(decoded) = read_frame(&mut &bad[..]) {
                assert_eq!(decoded, frame, "corruption accepted: {bad:?}");
            }
            every_decoder_survives(&bad);
        }
    }
}

/// The CRC covers the header's tag and length: a flip of any of their
/// bits is an error, never another frame, and never the same frame read
/// from a different length.
#[test]
fn flipped_tag_and_length_bits_are_errors() {
    for frame in sample_frames() {
        let wire = frame.encode();
        // Bytes 8..17 are the tag and the length.
        for bit in 8 * 8..17 * 8 {
            let mut bad = wire.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            let read = read_frame(&mut &bad[..]);
            assert!(read.is_err(), "tag {} bit {bit}: {read:?}", frame.tag());
        }
    }
}

/// Unframed layouts carry no checksum: a flipped bit may decode as a
/// different value, but only as the one those bytes encode, and every cut
/// is rejected.
#[test]
fn corrupted_layouts_are_rejected_or_canonical() {
    let snapshot = sample_snapshot().encode();
    let spans = encoded(&sample_spans());
    let plan_frame = encoded(&sample_plan());
    for cut in 0..snapshot.len() {
        assert!(CdSnapshot::decode(&snapshot[..cut]).is_none());
    }
    let span = encoded(&sample_spans()[1]);
    for cut in 0..spans.len() {
        assert!(decode_canonical::<Vec<Span>>(&spans[..cut]).is_none());
    }
    for cut in 0..span.len() {
        assert!(decode_canonical::<Span>(&span[..cut]).is_none());
    }
    for cut in 0..plan_frame.len() {
        assert!(decode_canonical::<PlanFrame>(&plan_frame[..cut]).is_none());
    }
    for blob in [&snapshot, &spans, &span, &plan_frame] {
        for bad in corruptions(blob) {
            every_decoder_survives(&bad);
        }
    }
}

fn roundtrip(frame: &Frame) -> Frame {
    let mut wire = Vec::new();
    write_frame(&mut wire, frame).expect("write");
    read_frame(&mut &wire[..]).expect("read")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn step_reports_round_trip(
        superstep in any::<u64>(),
        computed in any::<u64>(),
        active_after in any::<u64>(),
        sent in any::<u64>(),
        sent_remote in any::<u64>(),
        bytes_sent in any::<u64>(),
        aggregate_bits in any::<i64>(),
    ) {
        let frame = Frame::StepDone(StepReport {
            superstep,
            computed,
            active_after,
            sent,
            sent_remote,
            bytes_sent,
            aggregate: f64::from_bits(aggregate_bits as u64),
        });
        let decoded = roundtrip(&frame);
        // Compare through re-encoding so NaN aggregates (bitwise preserved
        // by the codec but not PartialEq-equal) still verify.
        prop_assert_eq!(decoded.encode(), frame.encode());
    }

    #[test]
    fn peer_lists_round_trip(ports in proptest::collection::vec(any::<u32>(), 0..64)) {
        let frame = Frame::Peers { ports };
        prop_assert_eq!(roundtrip(&frame), frame);
    }

    #[test]
    fn shuffle_blobs_round_trip(
        from in any::<u32>(),
        superstep in any::<u64>(),
        batch in proptest::collection::vec(any::<u64>(), 0..256),
    ) {
        let batch: Vec<u8> = batch.iter().flat_map(|v| v.to_le_bytes()).collect();
        let frame = Frame::Shuffle { from, superstep, batch };
        prop_assert_eq!(roundtrip(&frame), frame);
    }

    // Flip one byte anywhere in an encoded frame: the reader must never
    // accept it as a *different* frame — every outcome is either an error
    // or the original (a single flip cannot cancel out).
    #[test]
    fn single_byte_corruption_never_decodes_to_different_content(
        worker in any::<u32>(),
        flip_at in any::<u64>(),
        flip_bit in 0u8..8,
    ) {
        let frame = Frame::Hello { worker };
        let mut wire = frame.encode();
        let at = (flip_at % wire.len() as u64) as usize;
        wire[at] ^= 1 << flip_bit;
        if let Ok(decoded) = read_frame(&mut &wire[..]) {
            prop_assert_eq!(decoded, frame, "corruption at byte {} accepted", at);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_are_rejected_or_canonical(
        bytes in proptest::collection::vec(any::<u8>(), 0..192),
    ) {
        every_decoder_survives(&bytes);
    }

    // Random payloads behind a valid header with a matching CRC reach
    // every frame's payload decoder.
    #[test]
    fn framed_garbage_is_rejected_or_canonical(
        tag in 0u8..16,
        payload in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        let mut wire = Vec::new();
        MAGIC.encode_into(&mut wire);
        VERSION.encode_into(&mut wire);
        wire.push(tag);
        (payload.len() as u64).encode_into(&mut wire);
        // The CRC covers the tag and length bytes, then the payload.
        crc32(&[&wire[8..], &payload[..]].concat()).encode_into(&mut wire);
        wire.extend_from_slice(&payload);
        if let Ok(frame) = read_frame(&mut &wire[..]) {
            prop_assert_eq!(frame.encode(), wire);
        }
    }
}
