//! Crash-recovery end-to-end tests: the master's fault probe
//! (`RunContext::crashed_worker`) tells one worker *process* to exit at a
//! superstep boundary; the master restores the fleet from the last
//! complete checkpoint, and the final output is byte-identical to an
//! unfaulted run. Injection and recovery logs are seed-stable run to run,
//! and the forced crash pins absolute injection, recovery and checkpoint
//! counts, a recovery-log digest and the superstep count, so a moved
//! crash fails here even when two runs still agree with each other.
//!
//! Named `e2e_*` so sanitizer CI jobs can `--skip e2e_`.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;

use graphalytics_algos::{Algorithm, Output};
use graphalytics_core::faults::{FaultInjector, FaultPlan, FaultSite, RecoveryAction};
use graphalytics_core::platform::{Platform, PlatformError, RunContext};
use graphalytics_core::trace::Tracer;
use graphalytics_distrib::{DistribConfig, DistributedPlatform};
use graphalytics_graph::{CsrGraph, EdgeListGraph};
use graphalytics_pregel::{GiraphPlatform, PregelConfig, MAX_RESTARTS};

fn worker_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_gx-distrib-worker"))
}

fn test_graph() -> CsrGraph {
    let n: u64 = 1
        << std::env::var("GX_DISTRIB_SCALE")
            .ok()
            .and_then(|v| v.parse::<u32>().ok())
            .unwrap_or(8);
    let mut edges = Vec::new();
    for i in 0..n {
        edges.push((i, (i + 1) % n));
        edges.push((i, (i * 5 + 2) % n));
    }
    CsrGraph::from_edge_list(&EdgeListGraph::new((0..n).collect(), edges, false))
}

fn platform(checkpoint_interval: Option<usize>) -> DistributedPlatform {
    DistributedPlatform::new(DistribConfig {
        workers: 4,
        checkpoint_interval,
        worker_bin: Some(worker_bin()),
        ..DistribConfig::default()
    })
}

/// In-process Giraph on 4 worker threads, the fleet's counterpart.
fn giraph(checkpoint_interval: Option<usize>) -> GiraphPlatform {
    GiraphPlatform::new(PregelConfig {
        workers: 4,
        checkpoint_interval,
        ..PregelConfig::default()
    })
}

/// PageRank runs a fixed superstep count, so the forced crash site at
/// superstep 3 is always reached.
fn algorithm() -> Algorithm {
    Algorithm::PageRank {
        iterations: 6,
        damping: 0.85,
    }
}

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

/// How many spans named `name` the tracer finished.
fn span_count(tracer: &Tracer, name: &str) -> usize {
    tracer
        .finished_spans()
        .iter()
        .filter(|s| s.name == name)
        .count()
}

fn crash_plan() -> FaultPlan {
    FaultPlan::seeded(11).force(FaultSite::PregelWorker {
        superstep: 3,
        worker: 1,
        incarnation: 0,
    })
}

#[test]
fn e2e_killed_worker_recovers_byte_identically() {
    let graph = test_graph();

    // Unfaulted baseline.
    let mut p = platform(Some(2));
    let handle = p.load_graph(&graph).unwrap();
    let baseline = p
        .run(handle, &algorithm(), &RunContext::unbounded())
        .unwrap();

    // Kill worker 1's *process* at superstep 3; checkpoints land at even
    // supersteps, so the fleet restarts from superstep 2.
    let injector = Arc::new(FaultInjector::new(crash_plan()));
    let tracer = Arc::new(Tracer::new());
    let ctx = RunContext::unbounded()
        .with_faults(Arc::clone(&injector))
        .with_tracer(Arc::clone(&tracer));
    let recovered = p.run(handle, &algorithm(), &ctx).unwrap();
    assert_eq!(baseline, recovered, "recovered output differs");

    assert_eq!(injector.injected_count(), 1);
    assert_eq!(injector.recovery_count(), 1);
    // Absolute pins, so a moved crash or recovery note fails here even
    // when two runs of the changed code still agree with each other.
    assert_eq!(counts(&injector), (1, 1, 5));
    assert_eq!(recovery_digest(&injector), 0x2fa7_10b4_bad2_8a5e);
    // Two fleets ran (one restart); every superstep that completed left
    // one `distrib.superstep` span.
    assert_eq!(span_count(&tracer, "distrib.launch"), 2);
    assert_eq!(span_count(&tracer, "distrib.superstep"), 8);
    // recoveries() also logs checkpoint saves; the actual restart carries
    // the killed worker's site.
    let restarts: Vec<_> = injector
        .recoveries()
        .into_iter()
        .filter(|e| e.action == RecoveryAction::CheckpointRestart)
        .collect();
    assert_eq!(restarts.len(), 1);
    assert_eq!(
        restarts[0].site,
        Some(FaultSite::PregelWorker {
            superstep: 3,
            worker: 1,
            incarnation: 0,
        })
    );
    p.unload(handle);
}

/// The same seed produces the same injection and recovery logs on every
/// run — the distributed fault path is as deterministic as the in-process
/// one.
#[test]
fn e2e_injection_and_recovery_logs_are_seed_stable() {
    let graph = test_graph();
    let mut logs = Vec::new();
    for _ in 0..2 {
        let mut p = platform(Some(2));
        let handle = p.load_graph(&graph).unwrap();
        let injector = Arc::new(FaultInjector::new(crash_plan()));
        let ctx = RunContext::unbounded().with_faults(Arc::clone(&injector));
        p.run(handle, &algorithm(), &ctx).unwrap();
        logs.push((injector.injected(), injector.recoveries()));
        p.unload(handle);
    }
    assert_eq!(logs[0].0, logs[1].0, "injection log not seed-stable");
    assert_eq!(
        logs[0].1.len(),
        logs[1].1.len(),
        "recovery log not seed-stable"
    );
    for (a, b) in logs[0].1.iter().zip(&logs[1].1) {
        assert_eq!(a.action, b.action);
        assert_eq!(a.site, b.site);
    }
}

/// A crash-recovery run's merged trace never double-counts: re-shipped
/// spans are deduplicated per `(worker, incarnation, seq)`, and the
/// restarted worker's re-executed supersteps appear on a fresh
/// incarnation-tagged lane (`w1:i1`) next to its pre-crash lane (`w1:i0`).
#[test]
fn e2e_recovery_trace_dedups_spans_and_tags_incarnations() {
    let graph = test_graph();
    let mut p = platform(Some(2));
    let handle = p.load_graph(&graph).unwrap();
    let injector = Arc::new(FaultInjector::new(crash_plan()));
    let tracer = Arc::new(Tracer::new());
    let ctx = RunContext::unbounded()
        .with_faults(Arc::clone(&injector))
        .with_tracer(Arc::clone(&tracer));
    p.run(handle, &algorithm(), &ctx).unwrap();
    p.unload(handle);
    assert_eq!(injector.recovery_count(), 1, "expected one fleet restart");

    let spans = tracer.finished_spans();
    let worker_spans: Vec<_> = spans
        .iter()
        .filter(|s| s.name.starts_with("distrib.worker."))
        .collect();
    assert!(!worker_spans.is_empty(), "no merged worker spans");

    // No duplicated span seqs anywhere in the merged trace.
    let mut seen = BTreeSet::new();
    for span in &worker_spans {
        let key = (
            span.field("worker").and_then(|f| f.as_i64()),
            span.field("incarnation").and_then(|f| f.as_i64()),
            span.field("seq").and_then(|f| f.as_i64()),
        );
        assert!(
            seen.insert(key),
            "duplicated span seq in merged trace: {key:?}"
        );
    }

    // The killed worker's lanes: pre-crash incarnation 0 and post-restart
    // incarnation 1 both present; every surviving worker restarted too.
    let lanes: BTreeSet<&str> = worker_spans
        .iter()
        .filter_map(|s| s.field("proc").and_then(|f| f.as_str()))
        .collect();
    assert!(lanes.contains("w1:i0"), "pre-crash lane missing: {lanes:?}");
    assert!(lanes.contains("w1:i1"), "restart lane missing: {lanes:?}");
    for w in 0..4 {
        assert!(
            lanes.contains(format!("w{w}:i1").as_str()),
            "worker {w} has no incarnation-1 lane: {lanes:?}"
        );
    }
}

/// What one runtime did under one fault plan: the output's bits or the
/// error the loss escalated to, `(injected, recoveries, checkpoints)`,
/// the recovery-log digest, and the supersteps that completed.
#[derive(Debug, PartialEq)]
struct Recovered {
    output: Result<Vec<u64>, PlatformError>,
    counts: (usize, usize, usize),
    digest: u64,
    supersteps: usize,
}

/// Runs [`algorithm`] on `platform` under `plan`, counting the
/// supersteps by their `step_span` spans.
fn recover_on(platform: &mut dyn Platform, step_span: &str, plan: FaultPlan) -> Recovered {
    let handle = platform.load_graph(&test_graph()).unwrap();
    let injector = Arc::new(FaultInjector::new(plan));
    let tracer = Arc::new(Tracer::new());
    let ctx = RunContext::unbounded()
        .with_faults(Arc::clone(&injector))
        .with_tracer(Arc::clone(&tracer));
    let output = platform
        .run(handle, &algorithm(), &ctx)
        .map(|out| match out {
            Output::Ranks(ranks) => ranks.iter().map(|r| r.to_bits()).collect(),
            other => panic!("PageRank must emit ranks: {other:?}"),
        });
    platform.unload(handle);
    Recovered {
        output,
        counts: counts(&injector),
        digest: recovery_digest(&injector),
        supersteps: span_count(&tracer, step_span),
    }
}

/// Giraph's 4 threads and the fleet's 4 processes take the same
/// decisions under the same plan: the crash at superstep 3 on worker 1,
/// the same crash on workers 1 and 2 together, the crash on worker 1 in
/// every incarnation until the restart budget is spent (these three with
/// a checkpoint every 2 supersteps), and the crash with no checkpoint.
/// Each runtime gives the same output bits or escalation error, the same
/// logs and the same superstep count.
#[test]
fn e2e_giraph_and_the_fleet_recover_alike() {
    let site = |worker| FaultSite::PregelWorker {
        superstep: 3,
        worker,
        incarnation: 0,
    };
    let plans = [
        ("one worker", Some(2), crash_plan()),
        (
            "two workers",
            Some(2),
            FaultPlan::seeded(11).force(site(1)).force(site(2)),
        ),
        (
            "exhausted budget",
            Some(2),
            crash_every_incarnation(FaultPlan::seeded(11), 3, 1),
        ),
        ("no checkpoint", None, crash_plan()),
    ];
    for (name, interval, plan) in plans {
        let threads = recover_on(&mut giraph(interval), "pregel.superstep", plan.clone());
        let processes = recover_on(&mut platform(interval), "distrib.superstep", plan);
        assert_eq!(threads, processes, "{name}: the runtimes disagree");
        if name == "exhausted budget" {
            let restarts = MAX_RESTARTS as usize;
            assert!(
                matches!(threads.output, Err(PlatformError::WorkerLost { .. })),
                "{name}: {threads:?}"
            );
            assert_eq!(threads.counts.0, restarts + 1, "{name}: injections");
            assert_eq!(threads.counts.1, restarts, "{name}: restarts");
        }
    }
}

/// A `distrib.superstep` span is recorded only once every worker reported,
/// so the superstep a crash interrupted leaves none: the span count is the
/// master's superstep count, re-executed supersteps included.
#[test]
fn e2e_superstep_spans_count_the_supersteps_run() {
    let graph = test_graph();
    let mut p = platform(Some(2));
    let handle = p.load_graph(&graph).unwrap();
    let tracer = Arc::new(Tracer::new());
    let ctx = RunContext::unbounded()
        .with_tracer(Arc::clone(&tracer))
        .with_faults(Arc::new(FaultInjector::new(crash_plan())));
    let (_, stats) = p
        .run_with_stats(handle, &algorithm(), &ctx)
        .expect("recovered run");
    p.unload(handle);
    let stats = stats.pregel;
    assert_eq!(stats.restarts, 1, "expected one fleet restart");
    let steps = span_count(&tracer, "distrib.superstep");
    assert_eq!(steps, stats.supersteps);
    // The master's wait in the lost superstep goes with its span.
    assert_eq!(span_count(&tracer, "distrib.master.collect"), steps);
    assert_eq!((stats.restarts, stats.supersteps), (1, 8));
}

/// Two workers forced to crash at the same `(superstep, incarnation)`
/// cost one injection and one fleet restart — the lower worker id is the
/// one lost, as in the in-process engine's probe — and the output is
/// still byte-identical to an unfaulted run.
#[test]
fn e2e_two_workers_crashing_together_cost_one_restart() {
    let graph = test_graph();
    let mut p = platform(Some(2));
    let handle = p.load_graph(&graph).unwrap();
    let baseline = p
        .run(handle, &algorithm(), &RunContext::unbounded())
        .unwrap();
    let site = |worker| FaultSite::PregelWorker {
        superstep: 3,
        worker,
        incarnation: 0,
    };
    let plan = FaultPlan::seeded(11).force(site(1)).force(site(2));
    let injector = Arc::new(FaultInjector::new(plan));
    let ctx = RunContext::unbounded().with_faults(Arc::clone(&injector));
    let recovered = p.run(handle, &algorithm(), &ctx).unwrap();
    p.unload(handle);
    assert_eq!(baseline, recovered, "recovered output differs");
    assert_eq!(injector.injected(), vec![site(1)]);
    assert_eq!(counts(&injector), (1, 1, 5));
    assert_eq!(recovery_digest(&injector), 0x2fa7_10b4_bad2_8a5e);
}

/// Without checkpointing there is nothing to restore: the loss escalates
/// as `WorkerLost`, exactly like the in-process engine.
#[test]
fn e2e_crash_without_checkpoint_escalates() {
    let graph = test_graph();
    let mut p = platform(None);
    let handle = p.load_graph(&graph).unwrap();
    let plan = FaultPlan::seeded(7).force(FaultSite::PregelWorker {
        superstep: 0,
        worker: 0,
        incarnation: 0,
    });
    let injector = Arc::new(FaultInjector::new(plan));
    let ctx = RunContext::unbounded().with_faults(Arc::clone(&injector));
    let err = p.run(handle, &algorithm(), &ctx).unwrap_err();
    assert_eq!(
        err,
        PlatformError::WorkerLost {
            worker: 0,
            superstep: 0
        }
    );
    assert_eq!(injector.injected_count(), 1);
    assert_eq!(injector.recovery_count(), 0);
}

/// `plan` with a crash of `worker` at `superstep` forced for every
/// incarnation the restart budget allows, and one more.
fn crash_every_incarnation(mut plan: FaultPlan, superstep: u64, worker: u32) -> FaultPlan {
    for incarnation in 0..=MAX_RESTARTS {
        plan = plan.force(FaultSite::PregelWorker {
            superstep,
            worker,
            incarnation,
        });
    }
    plan
}

/// A crash striking every incarnation exhausts the restart budget and
/// escalates after `MAX_RESTARTS` recoveries.
#[test]
fn e2e_restart_budget_is_bounded() {
    let graph = test_graph();
    let plan = crash_every_incarnation(FaultPlan::seeded(3), 2, 1);
    let mut p = platform(Some(2));
    let handle = p.load_graph(&graph).unwrap();
    let injector = Arc::new(FaultInjector::new(plan));
    let ctx = RunContext::unbounded().with_faults(Arc::clone(&injector));
    let err = p.run(handle, &algorithm(), &ctx).unwrap_err();
    assert!(matches!(err, PlatformError::WorkerLost { .. }), "{err:?}");
    let restarts = MAX_RESTARTS as usize;
    assert_eq!(
        (injector.injected_count(), injector.recovery_count()),
        (restarts + 1, restarts)
    );
}

/// A failed run cleans up after itself: the checkpoints a run wrote before
/// its worker was lost for good are gone when `run` returns the error, the
/// graph's scratch goes at unload, and the configured root is left alone.
#[test]
fn e2e_failed_run_leaves_no_checkpoint_directory() {
    let root = graphalytics_core::ScratchDir::new(None, "gx-distrib-test-root").unwrap();
    let entries = |dir: &std::path::Path| -> Vec<PathBuf> {
        let mut paths: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        paths.sort();
        paths
    };
    let mut p = DistributedPlatform::new(DistribConfig {
        workers: 4,
        checkpoint_interval: Some(2),
        worker_bin: Some(worker_bin()),
        work_dir: Some(root.path().to_path_buf()),
    });
    let handle = p.load_graph(&test_graph()).unwrap();
    let graph_dir = match entries(root.path()).as_slice() {
        [only] => only.clone(),
        other => panic!("one loaded graph, one scratch directory: {other:?}"),
    };
    let dataset_files = entries(&graph_dir);

    // The crash at superstep 3 comes after the superstep-2 checkpoint, in
    // every incarnation, so the run fails once the restart budget is spent.
    let injector = Arc::new(FaultInjector::new(crash_every_incarnation(
        FaultPlan::seeded(11),
        3,
        1,
    )));
    let ctx = RunContext::unbounded().with_faults(Arc::clone(&injector));
    let err = p.run(handle, &algorithm(), &ctx).unwrap_err();
    assert!(matches!(err, PlatformError::WorkerLost { .. }), "{err:?}");
    assert!(injector.checkpoint_count() > 0, "nothing was checkpointed");
    assert_eq!(
        entries(&graph_dir),
        dataset_files,
        "the failed run left its checkpoint directory behind"
    );

    p.unload(handle);
    assert_eq!(entries(root.path()), Vec::<PathBuf>::new());
}
