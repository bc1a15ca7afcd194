//! Checkpoint snapshots: the pregel engine's superstep-boundary state
//! (vertex state + pending messages) in the [`Codec`] encoding, behind a
//! magic and version prefix.

use graphalytics_codec::{layout, Codec};

/// Magic prefix + format version of the snapshot encoding.
const SNAPSHOT_MAGIC: u32 = 0x4758_4350; // "GXCP"
const SNAPSHOT_VERSION: u32 = 1;

/// One superstep-boundary snapshot of a BSP computation: everything needed
/// to restart the superstep as if the crash never happened.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot<S, M> {
    /// The superstep about to execute when the snapshot was taken.
    pub superstep: u64,
    /// Per-vertex state.
    pub states: Vec<S>,
    /// Pending (undelivered) messages per vertex.
    pub inbox: Vec<Vec<M>>,
    /// Per-vertex active flags (vote-to-halt status).
    pub active: Vec<bool>,
    /// The aggregator value visible to the snapshot superstep.
    pub aggregate: f64,
}

layout!(struct Snapshot<S, M> { superstep, states, inbox, active, aggregate });

impl<S: Codec, M: Codec> Snapshot<S, M> {
    /// Serializes the snapshot.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        SNAPSHOT_MAGIC.encode_into(&mut out);
        SNAPSHOT_VERSION.encode_into(&mut out);
        self.encode_into(&mut out);
        out
    }

    /// Deserializes a snapshot; `None` on any malformation, including
    /// trailing garbage.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let mut pos = 0usize;
        if u32::decode_from(bytes, &mut pos)? != SNAPSHOT_MAGIC
            || u32::decode_from(bytes, &mut pos)? != SNAPSHOT_VERSION
        {
            return None;
        }
        let snap = Self::decode_from(bytes, &mut pos)?;
        (pos == bytes.len()).then_some(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_round_trips_byte_identically() {
        let snap: Snapshot<i64, i64> = Snapshot {
            superstep: 4,
            states: vec![-1, 0, 2, 3],
            inbox: vec![vec![], vec![1, 2], vec![3], vec![]],
            active: vec![true, false, true, true],
            aggregate: 2.5,
        };
        let bytes = snap.encode();
        let back = Snapshot::<i64, i64>::decode(&bytes).expect("decodes");
        assert_eq!(back, snap);
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn snapshot_rejects_garbage() {
        assert!(Snapshot::<u32, u32>::decode(&[]).is_none());
        assert!(Snapshot::<u32, u32>::decode(&[0; 16]).is_none());
        let snap: Snapshot<u32, u32> = Snapshot {
            superstep: 0,
            states: vec![],
            inbox: vec![],
            active: vec![],
            aggregate: 0.0,
        };
        let mut bytes = snap.encode();
        bytes.push(0); // Trailing garbage.
        assert!(Snapshot::<u32, u32>::decode(&bytes).is_none());
    }
}
