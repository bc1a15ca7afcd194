//! The serving plane's non-interference guarantee: compiling the server
//! in — and even *running* it, with jobs executing concurrently in the
//! same process — leaves offline benchmark outputs byte-identical.
//!
//! This is the serve-crate extension of
//! `crates/bench/tests/observability.rs`: the server owns its own tracer
//! and its own job tracers, whose spans become the job artifacts; none of
//! them may leak into an unobserved offline suite.

use graphalytics_core::json::parse as parse_json;
use graphalytics_core::{BenchmarkConfig, BenchmarkSuite, Dataset, Platform, ReferencePlatform};
use graphalytics_platforms::pregel::GiraphPlatform;
use graphalytics_serve::http::http_call;
use graphalytics_serve::server::{start, ServerConfig};

fn fleet() -> Vec<Box<dyn Platform>> {
    vec![
        Box::new(ReferencePlatform::new()),
        Box::new(GiraphPlatform::with_defaults()),
    ]
}

fn offline_outputs(suite: &BenchmarkSuite) -> Vec<String> {
    suite
        .run(&mut fleet())
        .runs
        .iter()
        .map(|r| {
            format!(
                "{}/{}/{} {:?} {:?} {}",
                r.platform, r.dataset, r.algorithm, r.status, r.validation, r.output_summary
            )
        })
        .collect()
}

#[test]
fn live_server_leaves_offline_outputs_byte_identical() {
    let suite = BenchmarkSuite::new(
        vec![Dataset::graph500(8)],
        vec![
            graphalytics_algos::Algorithm::default_bfs(),
            graphalytics_algos::Algorithm::Conn,
        ],
        BenchmarkConfig::default(),
    );

    // Baseline: no server exists (merely linking the crate in must not
    // start any thread or touch any global).
    let bare = offline_outputs(&suite);

    // Live server with a job actually executing while the offline suite
    // runs again in the same process.
    let handle = start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        preload: vec!["graph500-10".into()],
        ..Default::default()
    })
    .expect("server starts");
    let addr = handle.local_addr().to_string();
    for _ in 0..600 {
        if let Ok((200, _)) = http_call(&addr, "GET", "/readyz", None) {
            break;
        }
        std::thread::sleep(core::time::Duration::from_millis(25));
    }
    let (status, _) = http_call(
        &addr,
        "POST",
        "/jobs",
        Some(r#"{"platform":"reference","algorithm":"pagerank","graph":"graph500-10"}"#),
    )
    .expect("submit");
    assert_eq!(status, 202);

    let live = offline_outputs(&suite);

    // Drain the job before shutting down, then compare.
    let terminal = loop {
        let (_, body) = http_call(&addr, "GET", "/jobs/j-1", None).expect("poll");
        let doc = parse_json(&body).unwrap();
        let state = doc.get("state").unwrap().as_str().unwrap().to_string();
        if matches!(state.as_str(), "done" | "failed" | "timeout") {
            break state;
        }
        std::thread::sleep(core::time::Duration::from_millis(25));
    };
    assert_eq!(terminal, "done");
    handle.shutdown();

    let after = offline_outputs(&suite);
    assert_eq!(bare, live, "a live server perturbed offline outputs");
    assert_eq!(bare, after, "a shut-down server perturbed offline outputs");
}
