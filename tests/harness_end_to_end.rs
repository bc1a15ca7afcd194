//! End-to-end harness runs: the full benchmark pipeline (datasets →
//! platforms → runner → validator → reports → results database), including
//! the failure modes Figure 4 depends on (OOM cells, timeouts,
//! unsupported workloads).

use graphalytics::prelude::*;
use graphalytics_core::report;
use graphalytics_core::results::ResultsDb;
use graphalytics_core::ScratchDir;
use graphalytics_dataflow::GraphXConfig;
use graphalytics_graphdb::Neo4jConfig;
use std::time::Duration;

fn suite(datasets: Vec<Dataset>, algorithms: Vec<Algorithm>) -> BenchmarkSuite {
    BenchmarkSuite::new(datasets, algorithms, BenchmarkConfig::default())
}

#[test]
fn full_benchmark_run_produces_valid_results_and_reports() {
    let s = suite(
        vec![Dataset::graph500(7), Dataset::snb(200)],
        Algorithm::paper_workload(),
    );
    let mut platforms: Vec<Box<dyn Platform>> = vec![
        Box::new(GiraphPlatform::with_defaults()),
        Box::new(Neo4jPlatform::with_defaults()),
    ];
    let result = s.run(&mut platforms);
    assert_eq!(result.runs.len(), 2 * 2 * 5);
    for r in &result.runs {
        assert!(r.status.is_success(), "{r:?}");
        assert!(r.validation.is_valid(), "{r:?}");
        assert!(r.teps.unwrap() > 0.0);
    }
    // ETL recorded per (platform, dataset).
    assert_eq!(result.loads.len(), 4);
    assert!(result.loads.iter().all(|l| l.load_seconds.is_some()));

    // Reports render all sections.
    let text = report::full_report(&result, "integration");
    assert!(text.contains("## Runtimes — Graph500 7"));
    assert!(text.contains("## Runtimes — SNB 200"));
    assert!(text.contains("## CONN throughput"));
    assert!(text.contains("valid: 20, invalid: 0, skipped: 0"));

    // JSON round-trips.
    let json = report::result_to_json(&result, "integration");
    let parsed = graphalytics_core::json::parse(&json.to_string_compact()).expect("parse");
    assert_eq!(parsed, json);
}

#[test]
fn memory_constrained_platforms_produce_failure_cells() {
    // A GraphX with a tiny executor budget and a Neo4j with a tiny page
    // cache: both must fail on a graph a default Giraph handles — the
    // "missing values indicate failures" pattern of Figure 4.
    let s = suite(vec![Dataset::graph500(9)], vec![Algorithm::Conn]);
    let mut platforms: Vec<Box<dyn Platform>> = vec![
        Box::new(GiraphPlatform::with_defaults()),
        Box::new(GraphXPlatform::new(GraphXConfig {
            partitions: 4,
            memory_budget: Some(10_000),
        })),
        Box::new(Neo4jPlatform::new(Neo4jConfig {
            page_cache_budget: Some(10_000),
        })),
    ];
    let result = s.run(&mut platforms);
    let giraph = result.find("Giraph", "Graph500 9", "CONN").expect("cell");
    assert!(giraph.status.is_success());
    for failing in ["GraphX", "Neo4j"] {
        let cell = result.find(failing, "Graph500 9", "CONN").expect("cell");
        assert!(
            matches!(cell.status, RunStatus::Failed(_)),
            "{failing}: {cell:?}"
        );
    }
    // The failure column renders as a missing value.
    let table = report::runtime_matrix(&result, "Graph500 9");
    assert!(table.contains("—"), "{table}");
}

#[test]
fn timeouts_render_as_dnf() {
    let s = BenchmarkSuite::new(
        vec![Dataset::graph500(9)],
        vec![Algorithm::Conn],
        BenchmarkConfig {
            timeout: Some(Duration::from_millis(5)),
            ..Default::default()
        },
    );
    // MapReduce on a scale-9 graph cannot finish label propagation in 5ms.
    let mut platforms: Vec<Box<dyn Platform>> = vec![Box::new(MapReducePlatform::with_defaults())];
    let result = s.run(&mut platforms);
    assert_eq!(result.runs[0].status, RunStatus::Timeout);
    let table = report::runtime_matrix(&result, "Graph500 9");
    assert!(table.contains("DNF"), "{table}");
}

#[test]
fn unsupported_workloads_are_failure_cells_not_crashes() {
    let s = suite(
        vec![Dataset::graph500(7)],
        vec![Algorithm::default_bfs(), Algorithm::Conn],
    );
    let mut platforms: Vec<Box<dyn Platform>> = vec![Box::new(VirtuosoPlatform::with_defaults())];
    let result = s.run(&mut platforms);
    let bfs = result.find("Virtuoso", "Graph500 7", "BFS").expect("cell");
    assert!(bfs.status.is_success());
    assert!(bfs.validation.is_valid());
    let conn = result.find("Virtuoso", "Graph500 7", "CONN").expect("cell");
    assert!(matches!(conn.status, RunStatus::Failed(_)));
}

#[test]
fn results_database_accumulates_submissions() {
    let dir = ScratchDir::new(None, "gx-e2e-results").expect("scratch dir");
    let db = ResultsDb::open(dir.path().join("results.jsonl")).expect("open");

    let s = suite(vec![Dataset::graph500(6)], vec![Algorithm::default_bfs()]);
    let mut platforms: Vec<Box<dyn Platform>> = vec![Box::new(GiraphPlatform::with_defaults())];
    let first = s.run(&mut platforms);
    db.submit(&first.runs).expect("submit");
    let second = s.run(&mut platforms);
    db.submit(&second.runs).expect("submit");

    let all = db
        .query(Some("Giraph"), Some("Graph500 6"), Some("BFS"))
        .expect("query");
    assert_eq!(all.len(), 2);
    let best = db
        .best_runtime("Giraph", "Graph500 6", "BFS")
        .expect("query")
        .expect("present");
    assert!(best > 0.0);
}

#[test]
fn repetitions_and_median_runtime() {
    let s = BenchmarkSuite::new(
        vec![Dataset::graph500(6)],
        vec![Algorithm::Stats],
        BenchmarkConfig {
            repetitions: 3,
            ..Default::default()
        },
    );
    let mut platforms: Vec<Box<dyn Platform>> = vec![Box::new(GiraphPlatform::with_defaults())];
    let result = s.run(&mut platforms);
    let r = &result.runs[0];
    assert_eq!(r.repetition_seconds.len(), 3);
    let mut sorted = r.repetition_seconds.clone();
    sorted.sort_by(|a, b| a.total_cmp(b));
    assert_eq!(r.runtime_seconds.unwrap(), sorted[1]);
}

#[test]
fn monitor_captures_resource_usage_during_runs() {
    let s = suite(vec![Dataset::snb(400)], vec![Algorithm::Stats]);
    let mut platforms: Vec<Box<dyn Platform>> = vec![Box::new(GiraphPlatform::with_defaults())];
    let result = s.run(&mut platforms);
    let r = &result.runs[0];
    assert!(r.peak_rss_bytes > 1 << 20, "rss={}", r.peak_rss_bytes);
}
