//! The master's `distrib.launch` span names the time a fleet takes to
//! start: one span per fleet incarnation, from the first fork to the last
//! `MeshReady`, closed before that incarnation's first superstep.
//!
//! Named `e2e_*` so sanitizer CI jobs can `--skip e2e_`.

use std::path::PathBuf;
use std::sync::Arc;

use graphalytics_algos::Algorithm;
use graphalytics_core::faults::{FaultInjector, FaultPlan, FaultSite};
use graphalytics_core::platform::{Platform, RunContext};
use graphalytics_core::trace::Tracer;
use graphalytics_distrib::{DistribConfig, DistributedPlatform};
use graphalytics_graph::{CsrGraph, EdgeListGraph};

#[test]
fn e2e_every_fleet_launch_has_one_span_before_its_supersteps() {
    let n = 256u64;
    let edges = (0..n).flat_map(|i| [(i, (i + 1) % n), (i, (i * 5 + 2) % n)]);
    let graph = CsrGraph::from_edge_list(&EdgeListGraph::new(
        (0..n).collect(),
        edges.collect(),
        false,
    ));
    let mut platform = DistributedPlatform::new(DistribConfig {
        workers: 3,
        checkpoint_interval: Some(2),
        worker_bin: Some(PathBuf::from(env!("CARGO_BIN_EXE_gx-distrib-worker"))),
        ..DistribConfig::default()
    });
    let handle = platform.load_graph(&graph).unwrap();
    // A crash at superstep 3 restarts the fleet once: two launches.
    let plan = FaultPlan::seeded(5).force(FaultSite::PregelWorker {
        superstep: 3,
        worker: 2,
        incarnation: 0,
    });
    let tracer = Arc::new(Tracer::new());
    let ctx = RunContext::unbounded()
        .with_faults(Arc::new(FaultInjector::new(plan)))
        .with_tracer(Arc::clone(&tracer));
    let algorithm = Algorithm::PageRank {
        iterations: 6,
        damping: 0.85,
    };
    platform.run(handle, &algorithm, &ctx).unwrap();
    platform.unload(handle);

    let spans = tracer.finished_spans();
    let launches: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "distrib.launch")
        .collect();
    let incarnations: Vec<_> = launches
        .iter()
        .map(|s| s.field("incarnation").and_then(|f| f.as_i64()))
        .collect();
    assert_eq!(incarnations, [Some(0), Some(1)]);
    for launch in &launches {
        assert_eq!(launch.field("workers").and_then(|f| f.as_i64()), Some(3));
        assert!(launch.end_seconds >= launch.start_seconds);
        // The fleet's first superstep starts after its launch closed.
        let first_step = spans
            .iter()
            .filter(|s| s.name == "distrib.superstep" && s.start_seconds >= launch.start_seconds)
            .map(|s| s.start_seconds)
            .fold(f64::INFINITY, f64::min);
        assert!(
            launch.end_seconds <= first_step,
            "launch at {} ends after a superstep starting at {first_step}",
            launch.start_seconds
        );
    }
}
