#![recursion_limit = "256"]
//! Property tests for superstep-boundary checkpointing: an encoded
//! [`Snapshot`] restores byte-identically (encode ∘ decode ∘ encode is the
//! identity on the wire), [`Partition::restore`] refuses hostile bytes and
//! leaves the partition as it was, and restoring mid-run continues to the
//! same result the uninterrupted run produces.

use graphalytics_core::faults::{FaultInjector, FaultPlan, FaultSite, Snapshot};
use graphalytics_core::platform::RunContext;
use graphalytics_graph::{CsrGraph, EdgeListGraph};
use graphalytics_pregel::programs::{
    BfsProgram, CdProgram, ConnProgram, LccProgram, PageRankProgram,
};
use graphalytics_pregel::{run, Partition, Placement, PregelConfig};
use proptest::prelude::*;
use std::sync::Arc;

fn arb_graph() -> impl Strategy<Value = Arc<CsrGraph>> {
    (
        2u64..30,
        proptest::collection::vec((0u64..30, 0u64..30), 0..90),
    )
        .prop_map(|(n, raw)| {
            let edges: Vec<(u64, u64)> = raw.into_iter().map(|(a, b)| (a % n, b % n)).collect();
            Arc::new(CsrGraph::from_edge_list(&EdgeListGraph::new(
                (0..n).collect(),
                edges,
                false,
            )))
        })
}

/// A path over `n` vertices and its one-worker placement.
fn path(n: usize) -> (CsrGraph, Placement) {
    let edges = (1..n as u64).map(|v| (v - 1, v)).collect();
    let g = CsrGraph::from_edge_list(&EdgeListGraph::new((0..n as u64).collect(), edges, false));
    let placement = Placement::new(&g, 1);
    (g, placement)
}

/// What a partition does next: one compute at superstep 3 (counts,
/// aggregate bits and sends), then its states.
type Next = (usize, usize, u64, Vec<Vec<(u32, u32)>>, Vec<u32>);

fn next(mut part: Partition<ConnProgram>, g: &CsrGraph, placement: &Placement) -> Next {
    let mut outboxes = vec![Vec::new()];
    let done = part.compute(&ConnProgram, g, placement.routes(), 3, 0.0, &mut outboxes);
    let aggregate = done.aggregate.to_bits();
    (
        done.computed,
        done.awake,
        aggregate,
        outboxes,
        part.into_states(),
    )
}

/// Feeds `bytes` to [`Partition::restore`] at superstep 3 on a fresh
/// partition of `g`; returns whether it restored, and `None` for a refusal
/// that changed the partition or the outbox.
fn restore_or_keep(bytes: &[u8], g: &CsrGraph, placement: &Placement) -> Option<bool> {
    let fresh = || Partition::new(&ConnProgram, g, placement.members(0));
    let mut part = fresh();
    let mut outbox = Vec::new();
    if part.restore(bytes, 3, &mut outbox) {
        return Some(true);
    }
    (outbox.is_empty() && next(part, g, placement) == next(fresh(), g, placement)).then_some(false)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    // Snapshot round-trip: decode(encode(s)) == s, and re-encoding the
    // restored snapshot reproduces the original bytes exactly.
    #[test]
    fn snapshot_round_trips_byte_identically(
        superstep in 0u64..1000,
        states in proptest::collection::vec(any::<i64>(), 1..50),
        inbox in proptest::collection::vec(
            proptest::collection::vec(any::<i64>(), 0..5), 1..50),
        active in proptest::collection::vec(any::<bool>(), 1..50),
        aggregate in -1e12f64..1e12,
    ) {
        let snap = Snapshot { superstep, states, inbox, active, aggregate };
        let bytes = snap.encode();
        let restored: Snapshot<i64, i64> = Snapshot::decode(&bytes).expect("decodes");
        prop_assert_eq!(restored.superstep, snap.superstep);
        prop_assert_eq!(&restored.states, &snap.states);
        prop_assert_eq!(&restored.inbox, &snap.inbox);
        prop_assert_eq!(&restored.active, &snap.active);
        prop_assert_eq!(restored.aggregate.to_bits(), snap.aggregate.to_bits());
        prop_assert_eq!(restored.encode(), bytes);
    }

    // Corrupting any single byte of a snapshot never round-trips into a
    // different valid snapshot that re-encodes to the corrupted bytes —
    // decode either rejects the buffer or produces a snapshot whose
    // canonical encoding differs. The same bytes fed to a partition of
    // that size restore only when they decode to a snapshot of its
    // superstep and vertex count. Truncated bytes, a flipped bit in the
    // states' length prefix, a snapshot of another superstep and one of
    // another vertex count are refused, and the refused partition computes
    // and hands back its states as an untouched one does. None panics.
    #[test]
    fn corrupted_snapshots_do_not_masquerade(
        states in proptest::collection::vec(any::<u32>(), 1..20),
        flip_at in any::<u64>(),
        cut_at in any::<u64>(),
        prefix_bit in 0usize..64,
    ) {
        let n = states.len();
        let (g, placement) = path(n);
        let inbox = vec![Vec::<u32>::new(); n];
        let active = vec![true; n];
        let snap = Snapshot { superstep: 3, states, inbox, active, aggregate: 0.0 };
        let bytes = snap.encode();
        let mut corrupt = bytes.clone();
        let idx = (flip_at % corrupt.len() as u64) as usize;
        corrupt[idx] ^= 0xFF;
        let decoded = Snapshot::<u32, u32>::decode(&corrupt);
        if let Some(restored) = &decoded {
            prop_assert!(restored.encode() != bytes);
        }
        let fits = decoded.is_some_and(|s| {
            s.superstep == 3 && [s.states.len(), s.active.len(), s.inbox.len()] == [n; 3]
        });
        prop_assert_eq!(restore_or_keep(&corrupt, &g, &placement), Some(fits));
        prop_assert_eq!(restore_or_keep(&bytes, &g, &placement), Some(true));

        // The magic, the version and the superstep come first: the states'
        // element count is bytes 16..24.
        let mut flipped = bytes.clone();
        flipped[16 + prefix_bit / 8] ^= 1 << (prefix_bit % 8);
        // Hostile snapshots that would change every vertex if restored.
        let halted = |superstep, n: usize| Snapshot {
            superstep,
            states: vec![7u32; n],
            inbox: vec![vec![1u32]; n],
            active: vec![false; n],
            aggregate: 1.0,
        }
        .encode();
        let hostile = [
            bytes[..(cut_at % bytes.len() as u64) as usize].to_vec(),
            flipped,
            halted(4, n),
            halted(3, n + 1),
            halted(3, n - 1),
        ];
        for (i, bytes) in hostile.iter().enumerate() {
            prop_assert_eq!(restore_or_keep(bytes, &g, &placement), Some(false), "case {}", i);
        }
    }

    // A run that crashes and restores from a checkpoint converges to the
    // same states as the uninterrupted run — the differential recovery
    // property, over arbitrary graphs, programs, and crash points. BFS,
    // CONN and PageRank combine their messages (the slot inbox); LCC and
    // CD do not (the offsets-plus-flat inbox).
    #[test]
    fn recovery_is_differentially_transparent(
        g in arb_graph(),
        interval in 1usize..4,
        crash_superstep in 0u64..6,
        program_idx in 0usize..5,
        three_workers in any::<bool>(),
    ) {
        let workers = if three_workers { 3 } else { 1 };
        let config = PregelConfig {
            workers,
            checkpoint_interval: Some(interval),
            ..Default::default()
        };
        let plan = FaultPlan::disabled().force(FaultSite::PregelWorker {
            superstep: crash_superstep,
            worker: 0,
            incarnation: 0,
        });
        let injector = Arc::new(FaultInjector::new(plan));
        let faulty = RunContext::unbounded().with_faults(Arc::clone(&injector));
        let clean = RunContext::unbounded();
        match program_idx {
            0 => {
                let p = BfsProgram { source: g.internal_id(0) };
                let base = run(&g, &p, &config, &clean).unwrap();
                let rec = run(&g, &p, &config, &faulty).unwrap();
                prop_assert_eq!(rec.states, base.states);
            }
            1 => {
                let base = run(&g, &ConnProgram, &config, &clean).unwrap();
                let rec = run(&g, &ConnProgram, &config, &faulty).unwrap();
                prop_assert_eq!(rec.states, base.states);
            }
            2 => {
                let base = run(&g, &LccProgram, &config, &clean).unwrap();
                let rec = run(&g, &LccProgram, &config, &faulty).unwrap();
                prop_assert_eq!(rec.states, base.states);
            }
            3 => {
                let p = CdProgram { iterations: 5, hop_attenuation: 0.05, degree_exponent: 0.1 };
                let base = run(&g, &p, &config, &clean).unwrap();
                let rec = run(&g, &p, &config, &faulty).unwrap();
                let bits = |s: &[graphalytics_pregel::programs::CdState]| -> Vec<(u32, u64)> {
                    s.iter().map(|c| (c.label, c.score.to_bits())).collect()
                };
                prop_assert_eq!(bits(&rec.states), bits(&base.states));
            }
            _ => {
                let p = PageRankProgram { iterations: 8, damping: 0.85 };
                let base = run(&g, &p, &config, &clean).unwrap();
                let rec = run(&g, &p, &config, &faulty).unwrap();
                // Restart replays the same deterministic float ops, so
                // even PageRank states must match bit for bit.
                let base_bits: Vec<u64> = base.states.iter().map(|s| s.to_bits()).collect();
                let rec_bits: Vec<u64> = rec.states.iter().map(|s| s.to_bits()).collect();
                prop_assert_eq!(rec_bits, base_bits);
            }
        }
        // The forced site only fires when the run actually reaches that
        // superstep; every fired crash must have been recovered (the run
        // succeeded), and the engine checkpoints at superstep 0, so a
        // restore target always exists.
        prop_assert_eq!(injector.recovery_count(), injector.injected_count());
    }
}
