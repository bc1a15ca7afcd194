//! End-to-end observability guarantees of the command plumbing:
//!
//! * non-interference — with no observability flag the session's tracer
//!   is disabled and platform outputs are byte-identical to an entirely
//!   unobserved run, even while a *profiled* run executes concurrently
//!   elsewhere in the process;
//! * the profiled path — a scale-16 BFS run on the reference platform
//!   produces a non-empty folded-stack profile, a well-formed Chrome
//!   trace, and a choke-point report with all four sections populated.

use std::sync::Arc;

use graphalytics_bench::{cli, Args, ObsSession};
use graphalytics_core::json::{self, Json};
use graphalytics_core::{
    BenchmarkConfig, BenchmarkSuite, Dataset, Platform, ReferencePlatform, ScratchDir, SuiteResult,
};
use graphalytics_obs::export::TRACE_EVENT_REQUIRED_FIELDS;
use graphalytics_platforms::pregel::GiraphPlatform;

/// A session started from `bench fig4 <flags>`.
fn session(flags: &[&str]) -> ObsSession {
    let fig4 = cli::command("fig4").expect("fig4");
    ObsSession::start(&Args::parse(fig4, flags.iter().map(|s| s.to_string())).expect("flags"))
}

fn fleet() -> Vec<Box<dyn Platform>> {
    vec![
        Box::new(ReferencePlatform::new()),
        Box::new(GiraphPlatform::with_defaults()),
    ]
}

/// What each run of a suite produced, one line per run.
fn outputs(result: &SuiteResult) -> Vec<String> {
    result
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
fn disabled_observability_leaves_outputs_byte_identical() {
    let suite = BenchmarkSuite::new(
        vec![Dataset::graph500(8)],
        vec![
            graphalytics_algos::Algorithm::default_bfs(),
            graphalytics_algos::Algorithm::Conn,
        ],
        BenchmarkConfig::default(),
    );
    // Plain run: no session at all.
    let bare_outputs = outputs(&suite.run(&mut fleet()));

    // Default (flag-less) session: disabled tracer, no sampler.
    let off = session(&[]);
    assert!(off.tracer.finished_spans().is_empty());
    let off_outputs = outputs(&suite.run_traced(&mut fleet(), &off.tracer));

    // Profiled session running in the same process must not perturb the
    // unobserved run either: samplers only see their own tracer's spans.
    let dir = ScratchDir::new(None, "gx-obs-ni").unwrap();
    let base = dir.path().join("prof").to_string_lossy().to_string();
    let profiled = session(&["--profile-out", &base]);
    let profiled_outputs = outputs(&suite.run_traced(&mut fleet(), &profiled.tracer));
    profiled.finish("non-interference");

    assert_eq!(bare_outputs, off_outputs);
    assert_eq!(bare_outputs, profiled_outputs);
    assert!(off.tracer.finished_spans().is_empty());
    let idle = off.finish("off");
    assert!(idle.profile.is_none() && idle.chokepoints.is_empty());
}

#[test]
fn profiled_scale16_bfs_emits_all_artifacts() {
    let dir = ScratchDir::new(None, "gx-obs-prof16").unwrap();
    let base = dir.path().join("bfs16").to_string_lossy().to_string();
    let session = session(&["--profile-out", &base]);
    let suite = BenchmarkSuite::new(
        vec![Dataset::graph500(16)],
        vec![graphalytics_algos::Algorithm::default_bfs()],
        BenchmarkConfig::default(),
    );
    let mut platforms: Vec<Box<dyn Platform>> = vec![Box::new(ReferencePlatform::new())];
    let result = suite.run_traced(&mut platforms, &Arc::clone(&session.tracer));
    assert!(result.runs.iter().all(|r| r.status.is_success()));
    let artifacts = session.finish("BFS scale 16");

    // Non-empty folded profile, on disk and in memory.
    let profile = artifacts.profile.expect("profile present");
    assert!(profile.total_micros() > 0, "fold has no self time");
    let folded = std::fs::read_to_string(format!("{base}.folded")).unwrap();
    assert!(!folded.trim().is_empty());
    assert!(folded.lines().all(|l| l.rsplit_once(' ').is_some()));

    // Well-formed Chrome trace: parses, and every event carries the
    // trace_event required fields.
    let trace = std::fs::read_to_string(format!("{base}.trace.json")).unwrap();
    let doc = json::parse(&trace).expect("chrome trace parses");
    let Some(Json::Arr(events)) = doc.get("traceEvents").cloned() else {
        panic!("traceEvents missing");
    };
    assert!(events.len() > 1);
    for event in &events {
        for field in TRACE_EVENT_REQUIRED_FIELDS {
            assert!(event.get(field).is_some(), "missing {field}: {event:?}");
        }
    }

    // Choke-point report: one run, all four sections populated.
    assert_eq!(artifacts.chokepoints.len(), 1);
    let cp = &artifacts.chokepoints[0];
    assert_eq!(cp.platform, "Reference");
    assert_eq!(cp.algorithm, "BFS");
    assert!(cp.memory.graph_bytes > 0, "memory section empty");
    assert!(cp.locality.seq_accesses > 0, "locality section empty");
    assert!(!cp.skew.source.is_empty(), "skew section empty");
    let doc = cp.to_json();
    for section in ["network", "memory", "locality", "skew"] {
        assert!(doc.get(section).is_some(), "missing section {section}");
    }
    let jsonl = std::fs::read_to_string(format!("{base}.chokepoints.jsonl")).unwrap();
    assert_eq!(jsonl.lines().count(), 1);

    // The flamegraph SVG exists and is non-placeholder.
    let svg = std::fs::read_to_string(format!("{base}.svg")).unwrap();
    assert!(svg.contains("<rect"));
    assert!(!svg.contains("no samples"));
}
