//! Figures 4 and 5: the paper's four platforms on its three graphs.
//!
//! **Figure 4** — "Runtimes for all implementations of all algorithms
//! running on Graph500 23, Patents, and SNB 1000 graphs. Missing values
//! indicate failures." Reduced-scale reproduction: the same platform ×
//! algorithm × dataset cross product, the same failure mechanics (GraphX's
//! executor budget OOMs on the largest workloads; MapReduce never OOMs but
//! can exceed the time budget), and the same relative shapes (Neo4j
//! fastest at this scale, MapReduce orders of magnitude slower, GraphX
//! slower than Giraph on CONN).
//!
//! **Figure 5** — "Thousands of traversed edges per second (kTEPS) for all
//! implementations of CONN algorithm" on the same graphs. "The size of the
//! processed graph is included in this metric, which reveals the influence
//! of the graph characteristics on performance" — the reproduction target
//! is the *spread*: the same platform posts very different kTEPS on
//! different graphs (the paper's Giraph: 6272 on SNB vs 364 on Patents),
//! and the platform ordering from Figure 4 carries over.

use std::process::ExitCode;
use std::time::Duration;

use graphalytics_algos::Algorithm;
use graphalytics_core::{report, BenchmarkConfig, BenchmarkSuite, Dataset, RunStatus, SuiteResult};
use graphalytics_datagen::RealWorldGraph;
use graphalytics_platforms::{build_all, Properties, PAPER_FLEET};

use crate::{or_exit, Args, ObsSession};

/// Runs `algorithms` on the paper's experiment matrix — Graph500, the
/// Patents stand-in and SNB on the registry's paper fleet — one place, so
/// both figures read the same knobs and build the same platforms.
fn run_matrix(args: &Args, algorithms: Vec<Algorithm>, figure: &str) -> SuiteResult {
    let scale = or_exit(args.knob::<usize>("GX_SCALE")) as u32;
    let divisor: usize = or_exit(args.knob("GX_DIVISOR"));
    let persons: usize = or_exit(args.knob("GX_PERSONS"));
    let graphx_mb: usize = or_exit(args.knob("GX_GRAPHX_MB"));
    let timeout_secs: u64 = or_exit(args.knob("GX_TIMEOUT_SECS"));

    let datasets = vec![
        Dataset::graph500(scale),
        Dataset::real_world(RealWorldGraph::Patents, divisor),
        Dataset::snb(persons),
    ];
    let properties = Properties::from([("graphx.memory_mb".to_string(), graphx_mb.to_string())]);
    let mut platforms = or_exit(build_all(&PAPER_FLEET, &properties));
    let config = BenchmarkConfig {
        timeout: Some(Duration::from_secs(timeout_secs)),
        ..Default::default()
    };
    eprintln!(
        "{figure}: Graph500 {scale}, Patents/{divisor}, SNB {persons}; \
         GraphX budget {graphx_mb} MiB; timeout {timeout_secs}s"
    );
    let session = ObsSession::start(args);
    let suite = BenchmarkSuite::new(datasets, algorithms, config);
    let result = suite.run_traced(&mut platforms, &session.tracer);
    session.finish(figure);
    result
}

/// `bench fig4`.
pub fn fig4(args: &Args) -> ExitCode {
    let result = run_matrix(args, Algorithm::paper_workload(), "Figure 4 run");
    println!("Figure 4: runtimes [s] — missing values (—) are failures, DNF are timeouts\n");
    for dataset in result.datasets() {
        println!("{}", report::runtime_matrix(&result, &dataset));
    }
    let (valid, invalid, skipped) = report::validation_counts(&result);
    println!("validation: {valid} valid, {invalid} invalid, {skipped} skipped (failed cells)");
    for r in &result.runs {
        if let RunStatus::Failed(reason) = &r.status {
            println!(
                "  failure {}/{}/{}: {reason}",
                r.platform, r.dataset, r.algorithm
            );
        }
    }
    assert_eq!(invalid, 0, "output validation failed");
    ExitCode::SUCCESS
}

/// `bench fig5`.
pub fn fig5(args: &Args) -> ExitCode {
    let result = run_matrix(args, vec![Algorithm::Conn], "Figure 5 run (CONN only)");
    println!("Figure 5: CONN throughput — missing values (—) are failures\n");
    println!("{}", report::kteps_table(&result, "CONN"));
    let (_, invalid, _) = report::validation_counts(&result);
    assert_eq!(invalid, 0, "output validation failed");
    ExitCode::SUCCESS
}
