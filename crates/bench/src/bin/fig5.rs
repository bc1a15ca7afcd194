//! Figure 5 — "Thousands of traversed edges per second (kTEPS) for all
//! implementations of CONN algorithm running on Graph500 23, Patents, and
//! SNB 1000 graphs."
//!
//! "The size of the processed graph is included in this metric, which
//! reveals the influence of the graph characteristics on performance" —
//! the reproduction target is the *spread*: the same platform posts very
//! different kTEPS on different graphs (the paper's Giraph: 6272 on SNB vs
//! 364 on Patents), and the platform ordering from Figure 4 carries over.
//!
//! Knobs: the shared [`PaperSetup`] set (`GX_SCALE`, `GX_DIVISOR`,
//! `GX_PERSONS`, `GX_GRAPHX_MB`, `GX_TIMEOUT_SECS`), plus the shared
//! observability flags (`--trace-out`, `--profile-out`, `--threads`).

use graphalytics_bench::{or_exit, ObsArgs, ObsSession, PaperSetup};
use graphalytics_core::report;
use graphalytics_core::BenchmarkSuite;
use graphalytics_platforms::{build_all, PAPER_FLEET};

fn main() {
    let args = ObsArgs::parse_env_or_exit("fig5", "");
    if !args.positional.is_empty() {
        eprintln!(
            "fig5 takes no positional arguments (got {:?})",
            args.positional
        );
        std::process::exit(2);
    }
    args.warn_unused_threads("fig5");
    let setup = or_exit(PaperSetup::from_env());
    let mut platforms = or_exit(build_all(&PAPER_FLEET, &setup.properties()));
    let suite = BenchmarkSuite::new(
        setup.datasets(),
        vec![graphalytics_algos::Algorithm::Conn],
        setup.config(),
    );
    eprintln!("Figure 5 run (CONN only): {}", setup.describe());
    let session = ObsSession::start(&args);
    let result = suite.run_traced(&mut platforms, &session.tracer);
    session.finish("Figure 5 (CONN)");
    println!("Figure 5: CONN throughput — missing values (—) are failures\n");
    println!("{}", report::kteps_table(&result, "CONN"));
    let (_, invalid, _) = report::validation_counts(&result);
    assert_eq!(invalid, 0, "output validation failed");
}
