//! `bench run` — the paper's "Unix shell script that triggers the
//! execution of the benchmark" (§2.3):
//!
//! ```text
//! cargo run --release -p graphalytics-bench -- run \
//!     [--trace-out trace.jsonl] [--profile-out prof] [--threads N] run.properties
//! ```
//!
//! The properties file selects graphs, algorithms, platforms, timeout, and
//! repetitions (see `graphalytics_core::config`). "After the execution
//! completes, the benchmark report is available in the local file system":
//! the report is printed and written next to the configuration, and the
//! run records are appended to the results database. With `--trace-out`,
//! the run is traced: spans and metrics are exported as JSONL to the given
//! path, and a Prometheus text rendering to `<path>.prom`. With
//! `--profile-out <base>`, the finished spans are folded into stacks
//! weighted by µs of self time and written as `<base>.folded` and
//! `<base>.svg`, next to `<base>.trace.json` and
//! `<base>.chokepoints.jsonl`; the choke-point reports are also appended
//! to the results database and spliced into the HTML report. `--threads N`
//! (or the `reference.threads` property; the flag wins) runs the reference
//! platform's kernels on the deterministic parallel runtime with up to `N`
//! workers — `0` means the machine default. Outputs are byte-identical at
//! every thread count, and with no observability flag at all the tracer is
//! disabled and outputs are byte-identical to an unobserved run.

use std::process::ExitCode;
use std::sync::Arc;

use crate::{or_exit, Args, ObsSession};
use graphalytics_core::config::BenchmarkSpec;
use graphalytics_core::results::ResultsDb;
use graphalytics_core::{report, BenchmarkSuite};
use graphalytics_obs::chokepoints;
use graphalytics_platforms::{build_all, PAPER_FLEET};

/// Runs the benchmark the properties file describes.
pub fn run(args: &Args) -> ExitCode {
    let Some(config_path) = args.positional.first() else {
        eprintln!("bench run needs a <run.properties> file");
        eprintln!("see graphalytics_core::config for the file format");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(config_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {config_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = or_exit(BenchmarkSpec::parse(&text));
    // `--threads` is the `reference.threads` property; the flag wins.
    let mut properties = spec.properties.clone();
    if let Some(threads) = or_exit(args.flag_as::<usize>("--threads")) {
        properties.insert("reference.threads".to_string(), threads.to_string());
    }
    let mut platforms = or_exit(if spec.platforms.is_empty() {
        build_all(&PAPER_FLEET, &properties)
    } else {
        build_all(&spec.platforms, &properties)
    });

    eprintln!(
        "running {} algorithm(s) on {} graph(s) across {} platform(s)...",
        spec.algorithms.len(),
        spec.datasets.len(),
        platforms.len()
    );
    let suite = BenchmarkSuite::new(
        spec.datasets.clone(),
        spec.algorithms.clone(),
        spec.config.clone(),
    );
    // Observability is only paid for when requested: with no flag the
    // session's tracer is disabled and every span/metric call is a no-op.
    let session = ObsSession::start(args);
    let tracer = Arc::clone(&session.tracer);
    let result = suite.run_traced(&mut platforms, &tracer);

    let title = config_path.as_str();
    let report_span = tracer.span("suite.report");
    let text_report = report::full_report(&result, title);
    println!("{text_report}");

    // Persist report + results like the original harness.
    let report_path = format!("{config_path}.report.txt");
    if let Err(e) = std::fs::write(&report_path, &text_report) {
        eprintln!("warning: could not write {report_path}: {e}");
    } else {
        eprintln!("report written to {report_path}");
    }
    let db_path = spec
        .property("results_db")
        .unwrap_or("graphalytics-results.jsonl")
        .to_string();
    let db = match ResultsDb::open(&db_path) {
        Ok(db) => Some(db),
        Err(e) => {
            eprintln!("warning: could not open results db {db_path}: {e}");
            None
        }
    };
    if let Some(db) = &db {
        if let Err(e) = db.submit(&result.runs) {
            eprintln!("warning: could not submit results: {e}");
        } else {
            eprintln!("{} run records submitted to {db_path}", result.runs.len());
        }
    }
    drop(report_span);

    // Write the trace/profile artifacts; the
    // choke-point reports additionally land in the results database and
    // the HTML report.
    let artifacts = session.finish(title);
    if !artifacts.chokepoints.is_empty() {
        if let Some(db) = &db {
            let docs: Vec<_> = artifacts.chokepoints.iter().map(|c| c.to_json()).collect();
            if let Err(e) = db.submit_docs(&docs) {
                eprintln!("warning: could not submit choke-point reports: {e}");
            } else {
                eprintln!(
                    "{} choke-point report(s) submitted to {db_path}",
                    docs.len()
                );
            }
        }
    }
    let html = if tracer.enabled() {
        let mut sections = Vec::new();
        if !artifacts.chokepoints.is_empty() {
            sections.push(chokepoints::html_section(&artifacts.chokepoints));
        }
        graphalytics_core::html::html_report_with(&result, title, Some(tracer.metrics()), &sections)
    } else {
        graphalytics_core::html::html_report(&result, title)
    };
    let html_path = format!("{config_path}.report.html");
    if let Err(e) = std::fs::write(&html_path, html) {
        eprintln!("warning: could not write {html_path}: {e}");
    } else {
        eprintln!("html report written to {html_path}");
    }

    let (_, invalid, _) = report::validation_counts(&result);
    if invalid > 0 {
        eprintln!("VALIDATION FAILED for {invalid} run(s)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
