//! No worker process outlives the run that forked it: after a run whose
//! master panics, a launch whose workers exit before connecting, and a
//! normal run, this process has no child left, running or zombie.
//!
//! In a file of its own so that no other test's workers are children of
//! this process; the tests here take one lock, as each looks at every child
//! of the process. Named `e2e_*` so sanitizer CI jobs can `--skip e2e_`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

use graphalytics_algos::Algorithm;
use graphalytics_core::platform::{Platform, PlatformError, RunContext};
use graphalytics_core::trace::Tracer;
use graphalytics_distrib::{DistribConfig, DistributedPlatform};
use graphalytics_graph::{CsrGraph, EdgeListGraph};

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn one_at_a_time() -> MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
}

fn graph() -> CsrGraph {
    let n = 256u64;
    let edges = (0..n).flat_map(|i| [(i, (i + 1) % n), (i, (i * 5 + 2) % n)]);
    CsrGraph::from_edge_list(&EdgeListGraph::new(
        (0..n).collect(),
        edges.collect(),
        false,
    ))
}

fn platform(worker_bin: PathBuf) -> DistributedPlatform {
    DistributedPlatform::new(DistribConfig {
        workers: 2,
        worker_bin: Some(worker_bin),
        ..DistribConfig::default()
    })
}

fn worker_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_gx-distrib-worker"))
}

/// Asserts that no `/proc/<pid>/stat` names this process as its parent.
fn assert_no_children() {
    let me = std::process::id().to_string();
    let mut children = Vec::new();
    for entry in std::fs::read_dir("/proc").unwrap().flatten() {
        let Ok(stat) = std::fs::read_to_string(entry.path().join("stat")) else {
            continue;
        };
        // `pid (comm) state ppid ...`; the command name may hold spaces.
        let Some((head, rest)) = stat.rsplit_once(") ") else {
            continue;
        };
        let mut fields = rest.split(' ');
        let state = fields.next().unwrap_or("?");
        if fields.next() == Some(me.as_str()) {
            children.push(format!("{head}) {state}"));
        }
    }
    assert!(children.is_empty(), "children left behind: {children:?}");
}

#[test]
fn e2e_a_master_panic_mid_run_leaves_no_worker() {
    let _lock = one_at_a_time();
    let tracer = Arc::new(Tracer::new());
    tracer.subscribe(|span| {
        if span.name == "distrib.superstep" {
            panic!("subscriber panics on the first superstep");
        }
    });
    let ctx = RunContext::unbounded().with_tracer(tracer);
    let mut platform = platform(worker_bin());
    let handle = platform.load_graph(&graph()).unwrap();
    let run = catch_unwind(AssertUnwindSafe(|| {
        platform.run(handle, &Algorithm::Conn, &ctx)
    }));
    assert!(
        run.is_err(),
        "the subscriber's panic unwinds through the run"
    );
    assert_no_children();
}

#[test]
fn e2e_a_worker_that_exits_before_hello_fails_the_launch_at_once() {
    let _lock = one_at_a_time();
    let mut platform = platform(PathBuf::from("/bin/false"));
    let handle = platform.load_graph(&graph()).unwrap();
    let err = platform
        .run(handle, &Algorithm::Conn, &RunContext::unbounded())
        .unwrap_err();
    let PlatformError::TransientIo(message) = &err else {
        panic!("expected a transient I/O error, got {err:?}");
    };
    assert!(
        message.starts_with("worker ")
            && message.ends_with(" exited before connecting (exit status: 1)"),
        "{message}"
    );
    assert_no_children();
}

#[test]
fn e2e_a_normal_run_leaves_no_worker() {
    let _lock = one_at_a_time();
    let graph = graph();
    let mut platform = platform(worker_bin());
    let handle = platform.load_graph(&graph).unwrap();
    let output = platform
        .run(handle, &Algorithm::Conn, &RunContext::unbounded())
        .unwrap();
    assert_eq!(
        output,
        graphalytics_algos::reference(&graph, &Algorithm::Conn)
    );
    assert_no_children();
}
