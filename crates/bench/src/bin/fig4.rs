//! Figure 4 — "Runtimes for all implementations of all algorithms running
//! on Graph500 23, Patents, and SNB 1000 graphs. Missing values indicate
//! failures."
//!
//! Reduced-scale reproduction: the same platform × algorithm × dataset
//! cross product, the same failure mechanics (GraphX's executor budget
//! OOMs on the largest workloads; MapReduce never OOMs but can exceed the
//! time budget), and the same relative shapes (Neo4j fastest at this
//! scale, MapReduce orders of magnitude slower, GraphX slower than Giraph
//! on CONN).
//!
//! Knobs: the shared [`PaperSetup`] set (`GX_SCALE`, `GX_DIVISOR`,
//! `GX_PERSONS`, `GX_GRAPHX_MB`, `GX_TIMEOUT_SECS`), plus the shared
//! observability flags (`--trace-out`, `--profile-out`, `--threads`).

use graphalytics_bench::{or_exit, ObsArgs, ObsSession, PaperSetup};
use graphalytics_core::report;
use graphalytics_core::BenchmarkSuite;
use graphalytics_platforms::{build_all, PAPER_FLEET};

fn main() {
    let args = ObsArgs::parse_env_or_exit("fig4", "");
    if !args.positional.is_empty() {
        eprintln!(
            "fig4 takes no positional arguments (got {:?})",
            args.positional
        );
        std::process::exit(2);
    }
    args.warn_unused_threads("fig4");
    let setup = or_exit(PaperSetup::from_env());
    let mut platforms = or_exit(build_all(&PAPER_FLEET, &setup.properties()));
    let suite = BenchmarkSuite::new(
        setup.datasets(),
        graphalytics_algos::Algorithm::paper_workload(),
        setup.config(),
    );

    eprintln!("Figure 4 run: {}", setup.describe());
    let session = ObsSession::start(&args);
    let result = suite.run_traced(&mut platforms, &session.tracer);
    session.finish("Figure 4");

    println!("Figure 4: runtimes [s] — missing values (—) are failures, DNF are timeouts\n");
    for dataset in result.datasets() {
        println!("{}", report::runtime_matrix(&result, &dataset));
    }
    let (valid, invalid, skipped) = report::validation_counts(&result);
    println!("validation: {valid} valid, {invalid} invalid, {skipped} skipped (failed cells)");
    for r in &result.runs {
        if let graphalytics_core::RunStatus::Failed(reason) = &r.status {
            println!(
                "  failure {}/{}/{}: {reason}",
                r.platform, r.dataset, r.algorithm
            );
        }
    }
    assert_eq!(invalid, 0, "output validation failed");
}
