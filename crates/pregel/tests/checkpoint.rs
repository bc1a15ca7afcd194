#![recursion_limit = "256"]
//! Property tests for superstep-boundary checkpointing: an encoded
//! [`Snapshot`] restores byte-identically (encode ∘ decode ∘ encode is the
//! identity on the wire), and restoring mid-run continues to the same
//! result the uninterrupted run produces.

use graphalytics_core::faults::{FaultInjector, FaultPlan, FaultSite, Snapshot};
use graphalytics_core::platform::RunContext;
use graphalytics_graph::{CsrGraph, EdgeListGraph};
use graphalytics_pregel::programs::{
    BfsProgram, CdProgram, ConnProgram, LccProgram, PageRankProgram,
};
use graphalytics_pregel::{run, PregelConfig};
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
    // canonical encoding differs.
    #[test]
    fn corrupted_snapshots_do_not_masquerade(
        states in proptest::collection::vec(any::<u32>(), 1..20),
        flip_at in any::<u64>(),
    ) {
        let inbox = vec![Vec::<u32>::new(); states.len()];
        let active = vec![true; states.len()];
        let snap = Snapshot { superstep: 3, states, inbox, active, aggregate: 0.0 };
        let bytes = snap.encode();
        let mut corrupt = bytes.clone();
        let idx = (flip_at % corrupt.len() as u64) as usize;
        corrupt[idx] ^= 0xFF;
        if let Some(restored) = Snapshot::<u32, u32>::decode(&corrupt) {
            prop_assert!(restored.encode() != bytes);
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
