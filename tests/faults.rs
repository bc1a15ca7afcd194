//! Integration gates for the fault-injection & recovery subsystem:
//!
//! * the differential recovery gate — a worker crash at superstep 2 on a
//!   Graph500 graph recovers through the superstep checkpoint and produces
//!   output equivalent to the fault-free run, for BFS, PageRank, and CONN;
//! * fault determinism — the same seed and plan produce identical
//!   injection/recovery logs and identical outputs on repeated runs;
//! * the disabled-faults contract — arming a disabled injector leaves
//!   every output byte-identical to a run with no injector at all;
//! * a fault-matrix smoke across all four injection kinds (worker crash,
//!   partition loss, task I/O, allocation failure), one engine each.
//!
//! The seeded runs also pin absolute counts and a digest of the recovery
//! log, and a rate-1.0 run pins every bounded attempt loop, so a changed
//! attempt bound or a moved recovery note fails here even when two runs
//! of the changed code still agree with each other.

use graphalytics::prelude::*;
use graphalytics_core::faults::{FaultInjector, FaultKind, FaultPlan, FaultSite};
use graphalytics_pregel::PregelConfig;
use std::sync::Arc;

/// FNV-1a over the canonical recovery log: each event's action name, its
/// site's description (or `-`) and its backoff, in log order.
fn recovery_digest(injector: &FaultInjector) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for event in injector.recoveries() {
        let site = event
            .site
            .as_ref()
            .map_or("-".to_string(), |s| s.describe());
        let line = format!("{} {site} {}\n", event.action.name(), event.backoff_ms);
        for b in line.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `(injected, recoveries, checkpoints)` of one injector's logs.
fn counts(injector: &FaultInjector) -> (usize, usize, usize) {
    (
        injector.injected_count(),
        injector.recovery_count(),
        injector.checkpoint_count(),
    )
}

/// The differential gate runs the full ISSUE scale in release CI; debug
/// `cargo test` uses a smaller graph so the tier-1 suite stays quick.
fn gate_scale() -> u32 {
    if cfg!(debug_assertions) {
        12
    } else {
        16
    }
}

fn checkpointing_giraph(interval: usize) -> GiraphPlatform {
    GiraphPlatform::new(PregelConfig {
        checkpoint_interval: Some(interval),
        ..Default::default()
    })
}

fn gate_algorithms() -> Vec<Algorithm> {
    vec![
        Algorithm::default_bfs(),
        Algorithm::default_pagerank(),
        Algorithm::Conn,
    ]
}

/// Differential recovery gate: crash worker 0 at superstep 2, recover from
/// the superstep-boundary checkpoint, and match the fault-free output.
#[test]
fn giraph_crash_at_superstep_two_recovers_equivalently() {
    let graph = Dataset::graph500(gate_scale()).load().expect("generate");
    let mut platform = checkpointing_giraph(2);
    let handle = platform.load_graph(&graph).expect("load");
    for alg in gate_algorithms() {
        let baseline = platform
            .run(handle, &alg, &RunContext::unbounded())
            .expect("fault-free run");
        let plan = FaultPlan::disabled().force(FaultSite::PregelWorker {
            superstep: 2,
            worker: 0,
            incarnation: 0,
        });
        let injector = Arc::new(FaultInjector::new(plan));
        let ctx = RunContext::unbounded().with_faults(Arc::clone(&injector));
        let recovered = platform.run(handle, &alg, &ctx).expect("recovered run");
        assert_eq!(injector.injected_count(), 1, "{alg:?}: crash must fire");
        assert_eq!(
            injector.recovery_count(),
            1,
            "{alg:?}: crash must recover via checkpoint restart"
        );
        assert!(
            injector.checkpoint_count() >= 1,
            "{alg:?}: checkpoints must have been taken"
        );
        assert!(
            baseline.equivalent(&recovered),
            "{alg:?}: recovered output diverged from fault-free baseline"
        );
    }
}

/// Runs the three fault-capable platforms under one injector and returns
/// the outputs (as debug strings, the byte-comparable form) plus the
/// injector for log inspection.
fn run_fleet(ctx: &RunContext) -> Vec<String> {
    let graph = Dataset::graph500(9).load().expect("generate");
    let mut platforms: Vec<Box<dyn Platform>> = vec![
        Box::new(GiraphPlatform::new(PregelConfig {
            checkpoint_interval: Some(1),
            max_restarts: 10_000,
            ..Default::default()
        })),
        Box::new(GraphXPlatform::with_defaults()),
        Box::new(MapReducePlatform::with_defaults()),
    ];
    let mut outputs = Vec::new();
    for platform in &mut platforms {
        let handle = platform.load_graph(&graph).expect("load");
        for alg in [Algorithm::default_bfs(), Algorithm::Conn] {
            let out = platform
                .run(handle, &alg, ctx)
                .unwrap_or_else(|e| panic!("{} {alg:?}: {e}", platform.name()));
            outputs.push(format!("{}/{alg:?}: {out:?}", platform.name()));
        }
        platform.unload(handle);
    }
    outputs
}

/// Same seed, same plan ⇒ identical injection and recovery logs, and
/// outputs equal to the fault-free run.
#[test]
fn same_seed_produces_identical_fault_logs_and_outputs() {
    let plan = || FaultPlan::seeded(0x5EED).with_uniform_rate(0.02);

    let baseline = run_fleet(&RunContext::unbounded());

    let first = Arc::new(FaultInjector::new(plan()));
    let first_out = run_fleet(&RunContext::unbounded().with_faults(Arc::clone(&first)));
    let second = Arc::new(FaultInjector::new(plan()));
    let second_out = run_fleet(&RunContext::unbounded().with_faults(Arc::clone(&second)));

    assert!(
        first.injected_count() > 0,
        "rate 0.02 must fire at least once across the fleet"
    );
    assert_eq!(first.injected(), second.injected(), "injection logs differ");
    assert_eq!(
        first.recoveries(),
        second.recoveries(),
        "recovery logs differ"
    );
    assert_eq!(first_out, second_out, "faulty outputs differ across runs");
    assert_eq!(
        first_out, baseline,
        "recovered outputs differ from fault-free baseline"
    );
    assert_eq!(
        counts(&first),
        (15, 15, 14),
        "seed 0x5EED fleet counts moved"
    );
}

/// Faults disabled (the default) ⇒ every hook is a no-op and outputs are
/// byte-identical to runs with no injector armed at all.
#[test]
fn disabled_injector_is_byte_transparent() {
    let bare = run_fleet(&RunContext::unbounded());
    let disarmed = Arc::new(FaultInjector::disabled());
    let armed = run_fleet(&RunContext::unbounded().with_faults(Arc::clone(&disarmed)));
    assert_eq!(bare, armed, "disabled injector changed an output");
    // No injections, no recoveries. (Checkpoint *saves* are still logged:
    // they are engine configuration, not fault-plan behavior.)
    assert_eq!(disarmed.injected_count(), 0);
    assert_eq!(disarmed.recovery_count(), 0);
}

/// Fault-matrix smoke: each injection kind fires in its engine and the
/// engine recovers with a reference-equivalent output.
#[test]
fn fault_matrix_smoke_covers_all_kinds() {
    let graph = Dataset::graph500(8).load().expect("generate");
    let reference_depths = graphalytics_algos::reference(&graph, &Algorithm::default_bfs());

    struct Case {
        platform: Box<dyn Platform>,
        kind: FaultKind,
        plan: FaultPlan,
        /// `(injected, recoveries, checkpoints, recovery_digest)`.
        pins: (usize, usize, usize, u64),
    }
    let cases = vec![
        Case {
            platform: Box::new(checkpointing_giraph(1)),
            kind: FaultKind::WorkerCrash,
            plan: FaultPlan::seeded(1729).with_rate(FaultKind::WorkerCrash, 0.05),
            pins: (3, 3, 7, 8396256190925908355),
        },
        Case {
            platform: Box::new(GraphXPlatform::with_defaults()),
            kind: FaultKind::PartitionLoss,
            plan: FaultPlan::seeded(1729).with_rate(FaultKind::PartitionLoss, 0.1),
            pins: (4, 4, 0, 17514068924322102535),
        },
        Case {
            platform: Box::new(GraphXPlatform::with_defaults()),
            kind: FaultKind::AllocFailure,
            plan: FaultPlan::seeded(1729).with_rate(FaultKind::AllocFailure, 0.1),
            pins: (1, 1, 0, 12206784615435661079),
        },
        Case {
            platform: Box::new(MapReducePlatform::with_defaults()),
            kind: FaultKind::TaskIo,
            plan: FaultPlan::seeded(1729).with_rate(FaultKind::TaskIo, 0.1),
            pins: (2, 2, 0, 11668748438431144227),
        },
        Case {
            // Virtuoso probes once per BFS round; on a small graph's
            // handful of rounds a rate-based plan can legitimately roll
            // zero faults, so this case forces the site instead.
            platform: Box::new(VirtuosoPlatform::with_defaults()),
            kind: FaultKind::AllocFailure,
            plan: FaultPlan::disabled().force(FaultSite::Alloc {
                scope: graphalytics_core::faults::fingerprint("virtuoso.transitive"),
                sequence: 2,
                attempt: 0,
            }),
            pins: (1, 1, 0, 4598972437528277859),
        },
    ];
    for mut case in cases {
        let injector = Arc::new(FaultInjector::new(case.plan.clone()));
        let ctx = RunContext::unbounded().with_faults(Arc::clone(&injector));
        let handle = case.platform.load_graph(&graph).expect("load");
        let out = case
            .platform
            .run(handle, &Algorithm::default_bfs(), &ctx)
            .unwrap_or_else(|e| panic!("{} under {:?}: {e}", case.platform.name(), case.kind));
        assert!(
            injector.injected_count() > 0,
            "{} {:?}: no fault fired — injection point not wired",
            case.platform.name(),
            case.kind
        );
        assert!(
            injector.recovery_count() > 0,
            "{} {:?}: no recovery recorded",
            case.platform.name(),
            case.kind
        );
        assert!(
            injector
                .injected()
                .iter()
                .all(|site| site.kind() == case.kind),
            "{} {:?}: plan leaked other fault kinds",
            case.platform.name(),
            case.kind
        );
        assert!(
            reference_depths.equivalent(&out),
            "{} {:?}: recovered output is wrong",
            case.platform.name(),
            case.kind
        );
        let (injected, recoveries, checkpoints) = counts(&injector);
        assert_eq!(
            (
                injected,
                recoveries,
                checkpoints,
                recovery_digest(&injector)
            ),
            case.pins,
            "{} {:?}: pinned fault counts or recovery log moved",
            case.platform.name(),
            case.kind
        );
    }
}

/// Every bounded attempt loop, pinned: under a rate-1.0 plan every probe
/// fires, so each site the run reaches is probed exactly the engine's
/// attempt bound (GraphX and Virtuoso 3, MapReduce 4), recovered once
/// fewer, and the last fault fails the run. MapReduce's first job runs
/// all four of its map tasks, so its site count is four.
#[test]
fn attempt_bounds_are_pinned() {
    let graph = Dataset::graph500(8).load().expect("generate");
    /// `(platform, kind, (injected, recoveries))`.
    type Case = (Box<dyn Platform>, FaultKind, (usize, usize));
    let cases: Vec<Case> = vec![
        (
            Box::new(GraphXPlatform::with_defaults()),
            FaultKind::AllocFailure,
            (3, 2),
        ),
        (
            Box::new(GraphXPlatform::with_defaults()),
            FaultKind::PartitionLoss,
            (3, 2),
        ),
        (
            Box::new(VirtuosoPlatform::with_defaults()),
            FaultKind::AllocFailure,
            (3, 2),
        ),
        (
            Box::new(MapReducePlatform::with_defaults()),
            FaultKind::TaskIo,
            (16, 12),
        ),
    ];
    for (mut platform, kind, pins) in cases {
        let plan = FaultPlan::seeded(1729).with_rate(kind, 1.0);
        let injector = Arc::new(FaultInjector::new(plan));
        let ctx = RunContext::unbounded().with_faults(Arc::clone(&injector));
        let handle = platform.load_graph(&graph).expect("load");
        let err = platform
            .run(handle, &Algorithm::default_bfs(), &ctx)
            .expect_err("every attempt failed, so the run must fail");
        assert!(err.is_transient(), "{} {kind:?}: {err}", platform.name());
        assert_eq!(
            (injector.injected_count(), injector.recovery_count()),
            pins,
            "{} {kind:?}: attempts per site moved",
            platform.name()
        );
    }
}
