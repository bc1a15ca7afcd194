#![recursion_limit = "256"]
//! Property tests for the wire protocol: arbitrary frames round-trip
//! byte-identically, and single-byte corruption anywhere in a frame never
//! yields a successful decode of different content.

use graphalytics_distrib::protocol::{read_frame, write_frame};
use graphalytics_distrib::{Frame, StepReport};
use proptest::prelude::*;

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
