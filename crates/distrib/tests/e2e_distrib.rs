//! End-to-end differential tests: a master + N real worker *processes*
//! must produce byte-identical output to the in-process Pregel engine with
//! the same worker count, for the full LDBC workload.
//!
//! Tests are named `e2e_*` so sanitizer CI jobs (which cannot follow forked
//! processes) can `--skip e2e_`. The graph scale is `GX_DISTRIB_SCALE`
//! (log2 vertices, default 8) so the CI smoke job can climb higher.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;

use graphalytics_algos::{Algorithm, Output};
use graphalytics_core::platform::{Platform, RunContext};
use graphalytics_core::trace::Tracer;
use graphalytics_distrib::{DistribConfig, DistributedPlatform, MasterStats};
use graphalytics_graph::{CsrGraph, EdgeListGraph, WEIGHT_SCALE};
use graphalytics_pregel::{GiraphPlatform, PregelConfig};

fn worker_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_gx-distrib-worker"))
}

fn scale() -> u32 {
    std::env::var("GX_DISTRIB_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8)
}

fn test_graph() -> Arc<CsrGraph> {
    graph_at(scale())
}

/// A deterministic weighted test graph of `2^scale` vertices: a ring for
/// connectivity, chords for cycles and triangles, and a hub for degree
/// skew.
fn graph_at(scale: u32) -> Arc<CsrGraph> {
    let n: u64 = 1 << scale;
    let mut edges = Vec::new();
    for i in 0..n {
        edges.push((
            i,
            (i + 1) % n,
            WEIGHT_SCALE + (i * 37 % 100) * (WEIGHT_SCALE / 100),
        ));
        edges.push((
            i,
            (i * 7 + 3) % n,
            WEIGHT_SCALE + (i * 13 % 50) * (WEIGHT_SCALE / 100),
        ));
        if i % 16 == 5 {
            edges.push((0, i, 2 * WEIGHT_SCALE));
        }
    }
    Arc::new(CsrGraph::from_edge_list(&EdgeListGraph::new_weighted(
        (0..n).collect(),
        edges,
        false,
    )))
}

fn distrib(workers: u32) -> DistributedPlatform {
    DistributedPlatform::new(DistribConfig {
        workers,
        worker_bin: Some(worker_bin()),
        ..DistribConfig::default()
    })
}

fn giraph(workers: usize) -> GiraphPlatform {
    GiraphPlatform::new(PregelConfig {
        workers,
        ..PregelConfig::default()
    })
}

fn workload() -> Vec<Algorithm> {
    let mut w = Algorithm::ldbc_workload();
    w.push(Algorithm::default_pagerank());
    w
}

fn run_all(platform: &mut dyn Platform, graph: &CsrGraph, ctx: &RunContext) -> Vec<Output> {
    let handle = platform.load_graph(graph).expect("load");
    let outputs = workload()
        .iter()
        .map(|alg| {
            platform
                .run(handle, alg, ctx)
                .unwrap_or_else(|e| panic!("{}: {e:?}", alg.name()))
        })
        .collect();
    platform.unload(handle);
    outputs
}

/// The acceptance differential: master + 4 worker processes vs the
/// in-process engine with 4 worker threads, byte-identical output for all
/// seven LDBC kernels plus PageRank.
#[test]
fn e2e_four_processes_match_in_process_engine() {
    let graph = test_graph();
    let expected = run_all(&mut giraph(4), &graph, &RunContext::unbounded());
    let tracer = Arc::new(Tracer::new());
    let ctx = RunContext::unbounded().with_tracer(Arc::clone(&tracer));
    let actual = run_all(&mut distrib(4), &graph, &ctx);
    for ((alg, want), got) in workload().iter().zip(&expected).zip(&actual) {
        assert_eq!(want, got, "{} differs between engines", alg.name());
    }
    // Real network accounting: the distributed run produced superstep spans
    // carrying actual wire-byte counts, and the Prometheus counters moved.
    let spans = tracer.finished_spans();
    let step_spans: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "distrib.superstep")
        .collect();
    assert!(!step_spans.is_empty(), "no distrib.superstep spans");
    let bytes: i64 = step_spans
        .iter()
        .filter_map(|s| s.field("network_bytes").and_then(|f| f.as_i64()))
        .sum();
    assert!(bytes > 0, "no network bytes accounted");
    let rendered = tracer.metrics().render_prometheus();
    assert!(
        rendered.contains("graphalytics_network_bytes_total"),
        "missing network bytes counter:\n{rendered}"
    );
    assert!(
        rendered.contains("graphalytics_network_messages_total"),
        "missing network messages counter:\n{rendered}"
    );
}

/// One worker process (no peers at all) must equal the in-process engine
/// with one worker thread — exercises the degenerate mesh.
#[test]
fn e2e_single_process_matches_in_process_engine() {
    let graph = test_graph();
    let ctx = RunContext::unbounded();
    let expected = run_all(&mut giraph(1), &graph, &ctx);
    let actual = run_all(&mut distrib(1), &graph, &ctx);
    for ((alg, want), got) in workload().iter().zip(&expected).zip(&actual) {
        assert_eq!(want, got, "{} differs between engines", alg.name());
    }
}

/// Worker-count invariance: 1 process vs 4 processes. Integer kernels are
/// byte-identical; floating-point kernels (whose message fold order
/// legitimately depends on the partition count, as in the in-process
/// engine) must still validate as equivalent.
#[test]
fn e2e_one_vs_four_workers_differential() {
    let graph = test_graph();
    let ctx = RunContext::unbounded();
    let one = run_all(&mut distrib(1), &graph, &ctx);
    let four = run_all(&mut distrib(4), &graph, &ctx);
    for ((alg, a), b) in workload().iter().zip(&one).zip(&four) {
        match alg {
            Algorithm::Bfs { .. }
            | Algorithm::Conn
            | Algorithm::Sssp { .. }
            | Algorithm::Evo { .. } => {
                assert_eq!(a, b, "{} not worker-count invariant", alg.name());
            }
            _ => {
                assert!(
                    a.equivalent(b),
                    "{} not equivalent across worker counts: {a:?} vs {b:?}",
                    alg.name()
                );
            }
        }
    }
}

/// The telemetry differential gate. Tracing disabled: the master receives
/// zero `Telemetry` frames and the run's output, superstep count, message
/// totals, and wire-byte accounting are exactly what they were before
/// telemetry existed. Tracing enabled: the output vector is still
/// bit-identical and the wire accounting does not move (telemetry frames
/// are excluded from `network_bytes` by design) — but the merged trace now
/// carries per-process worker lanes, a straggler table, and per-worker
/// Prometheus series.
#[test]
fn e2e_telemetry_is_off_the_output_path() {
    let graph = test_graph();
    let mut p = DistributedPlatform::new(DistribConfig {
        workers: 4,
        checkpoint_interval: Some(2),
        worker_bin: Some(worker_bin()),
        ..DistribConfig::default()
    });
    let handle = p.load_graph(&graph).expect("load");
    // Fixed iteration count: both runs execute the same superstep schedule.
    let alg = Algorithm::PageRank {
        iterations: 6,
        damping: 0.85,
    };
    let ranks = |run: Result<(Output, MasterStats), _>| match run {
        Ok((Output::Ranks(ranks), stats)) => (ranks, stats),
        other => panic!("PageRank must emit ranks: {other:?}"),
    };

    // Disabled tracer: the pre-PR behaviour, frame for frame.
    let (plain, stats_off) = ranks(p.run_with_stats(handle, &alg, &RunContext::unbounded()));
    assert_eq!(
        stats_off.telemetry_frames, 0,
        "disabled tracing must ship zero telemetry frames"
    );

    // Enabled tracer, under a `run` span so choke-point attribution and
    // the chrome-trace export see the whole fleet subtree.
    let tracer = Arc::new(Tracer::new());
    let ctx = RunContext::unbounded().with_tracer(Arc::clone(&tracer));
    let (traced, stats_on) = {
        let mut run = tracer.span("run");
        run.field("platform", "distributed-pregel")
            .field("dataset", "ring")
            .field("algorithm", "PageRank");
        ranks(p.run_with_stats(handle, &alg, &ctx))
    };
    p.unload(handle);

    // Output is bit-identical with tracing on.
    assert_eq!(plain.len(), traced.len());
    for (i, (a, b)) in plain.iter().zip(&traced).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "rank {i} differs with tracing enabled"
        );
    }
    // Wire accounting is identical: telemetry frames never count.
    assert!(stats_on.telemetry_frames > 0, "no telemetry frames shipped");
    let normalized = MasterStats {
        telemetry_frames: 0,
        ..stats_on.clone()
    };
    assert_eq!(
        normalized, stats_off,
        "tracing changed the run's accounted behaviour"
    );

    // The merged trace has one lane per worker process plus the master.
    let spans = tracer.finished_spans();
    let lanes: BTreeSet<String> = spans
        .iter()
        .filter(|s| s.name.starts_with("distrib.worker."))
        .filter_map(|s| s.field("proc").and_then(|f| f.as_str()).map(str::to_string))
        .collect();
    let want: BTreeSet<String> = ["w0:i0", "w1:i0", "w2:i0", "w3:i0"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    assert_eq!(lanes, want, "missing worker lanes");
    assert!(
        spans.iter().any(|s| s.name == "distrib.superstep"),
        "master lane lost its superstep spans"
    );
    let trace = graphalytics_obs::chrome_trace(&spans);
    for name in [
        "graphalytics",
        "worker w0:i0",
        "worker w1:i0",
        "worker w2:i0",
        "worker w3:i0",
    ] {
        assert!(trace.contains(name), "chrome trace missing lane {name}");
    }
    // The span fold sees the workers' shipped compute time.
    let folded = graphalytics_obs::Profile::from_spans(&spans).folded_text();
    assert!(
        folded.lines().any(|l| l
            .rsplit_once(' ')
            .unwrap()
            .0
            .ends_with(";distrib.worker.compute")),
        "fold has no worker compute stack:\n{folded}"
    );

    // Straggler attribution: every superstep row covers all four workers.
    let reports = graphalytics_obs::attribute(&spans);
    let report = reports
        .iter()
        .find(|r| r.platform == "distributed-pregel")
        .expect("no distributed run report");
    assert!(!report.stragglers.is_empty(), "no straggler rows");
    for row in &report.stragglers {
        assert_eq!(row.workers, 4, "superstep {} row incomplete", row.superstep);
        assert!(row.slowest_worker < 4);
        assert!((0.0..=1.0).contains(&row.gini));
        assert!(row.max_compute_seconds >= 0.0);
    }

    // Per-worker Prometheus series with the fixed-cardinality worker label.
    let rendered = tracer.metrics().render_prometheus();
    for family in [
        "graphalytics_worker_compute_seconds",
        "graphalytics_worker_barrier_wait_seconds",
        "graphalytics_worker_shuffle_bytes_total",
    ] {
        assert!(rendered.contains(family), "missing {family}:\n{rendered}");
    }
    assert!(
        rendered.contains("worker=\"0\"") && rendered.contains("worker=\"3\""),
        "missing worker label:\n{rendered}"
    );
}

/// Worker spans land on the master's timeline: the worker's graph load
/// lies inside `distrib.launch`, and it computes neither before the launch
/// ends nor outside its `distrib.superstep`. Translated worker times are
/// never late, so the load check is exact; they are early by the time from
/// the Plan's send to the worker reading it, which is usually well under
/// 1 ms but on a busy machine reaches several ms. A clock that starts
/// after the load puts every worker span early by the whole load, so the
/// compute checks allow a quarter of the load: 2^15 vertices make that
/// several ms even in an optimized build. One worker, so its wake-up does
/// not also wait behind a sibling's load.
#[test]
fn e2e_worker_spans_land_inside_the_master_timeline() {
    let graph = graph_at(15);
    let mut p = distrib(1);
    let handle = p.load_graph(&graph).expect("load");
    let alg = Algorithm::PageRank {
        iterations: 3,
        damping: 0.85,
    };
    let tracer = Arc::new(Tracer::new());
    let ctx = RunContext::unbounded().with_tracer(Arc::clone(&tracer));
    p.run(handle, &alg, &ctx).expect("traced run");
    p.unload(handle);

    let spans = tracer.finished_spans();
    let named = |name: &'static str| spans.iter().filter(move |s| s.name == name);
    let launch = named("distrib.launch").next().expect("launch span");
    let loads: Vec<_> = named("distrib.worker.load").collect();
    assert_eq!(loads.len(), 1, "one load span per worker");
    assert!(
        launch.start_seconds <= loads[0].start_seconds
            && loads[0].end_seconds <= launch.end_seconds,
        "load [{}, {}] outside launch [{}, {}]",
        loads[0].start_seconds,
        loads[0].end_seconds,
        launch.start_seconds,
        launch.end_seconds
    );
    let slack = loads[0].duration_seconds() / 4.0;
    let computes: Vec<_> = named("distrib.worker.compute").collect();
    assert!(!computes.is_empty(), "no worker compute spans");
    for compute in computes {
        assert!(
            compute.start_seconds >= launch.end_seconds - slack,
            "compute starts {} s before the launch ends",
            launch.end_seconds - compute.start_seconds
        );
        let step = spans
            .iter()
            .find(|s| Some(s.id) == compute.parent)
            .expect("compute span has its superstep as parent");
        assert_eq!(step.name, "distrib.superstep");
        assert_eq!(step.field("superstep"), compute.field("superstep"));
        // Durations need no translation: the compute ran within the
        // superstep, so it cannot be the longer of the two.
        assert!(
            compute.duration_seconds() <= step.duration_seconds()
                && compute.start_seconds >= step.start_seconds - slack
                && compute.end_seconds <= step.end_seconds,
            "compute [{}, {}] outside its superstep [{}, {}]",
            compute.start_seconds,
            compute.end_seconds,
            step.start_seconds,
            step.end_seconds
        );
    }
    assert_eq!(
        named("distrib.worker.deliver").count(),
        named("distrib.superstep").count()
    );
    // The fleet's waits are named: the worker's from MeshReady to its
    // first superstep, and the master's for every superstep's reports.
    assert_eq!(named("distrib.worker.wait_start").count(), 1);
    assert_eq!(
        named("distrib.master.collect").count(),
        named("distrib.superstep").count()
    );
    for collect in named("distrib.master.collect") {
        let step = spans
            .iter()
            .find(|s| Some(s.id) == collect.parent)
            .expect("collect span has its superstep as parent");
        assert_eq!(step.name, "distrib.superstep");
        assert_eq!(step.field("superstep"), collect.field("superstep"));
    }
}

/// LCC and STATS through two worker processes on a fixed graph that has
/// what a degree orientation must get right: a clique and a ring whose
/// degrees tie (ids break the ties), a star, two hubs sharing leaves, and
/// isolated vertices. Bit-equal to the definition, as the in-process
/// engines are in the root `lcc_differential` suite.
#[test]
fn e2e_lcc_and_stats_match_the_definition() {
    let mut edges: Vec<(u64, u64)> = Vec::new();
    edges.extend((0..5).flat_map(|i| (i + 1..5).map(move |j| (i, j))));
    edges.extend((10..16).map(|i| (i, 10 + (i - 9) % 6)));
    edges.extend((21..28).map(|leaf| (20, leaf)));
    edges.extend((32..38).flat_map(|leaf| [(30, leaf), (31, leaf)]));
    edges.extend([(30, 31), (4, 20), (15, 30), (0, 0), (1, 0)]);
    let graph = CsrGraph::from_edge_list(&EdgeListGraph::new((0..42).collect(), edges, false));
    let want: Vec<u64> = graph
        .vertex_ids()
        .map(|v| graphalytics_graph::metrics::local_clustering_coefficient(&graph, v).to_bits())
        .collect();
    let mut p = distrib(2);
    let handle = p.load_graph(&graph).expect("load");
    let ctx = RunContext::unbounded();
    let Output::LocalClustering(got) = p.run(handle, &Algorithm::Lcc, &ctx).expect("LCC") else {
        panic!("LCC must emit coefficients")
    };
    let got: Vec<u64> = got.iter().map(|c| c.to_bits()).collect();
    assert_eq!(got, want);
    let stats = p.run(handle, &Algorithm::Stats, &ctx).expect("STATS");
    assert_eq!(
        stats,
        graphalytics_algos::reference(&graph, &Algorithm::Stats)
    );
    p.unload(handle);
}

/// LCC's wire volume on Graph500 10 (R-MAT seed 1) over two worker
/// processes, as the benchmark's `engine-fleet` workload runs it: remote
/// messages per superstep and the shuffle frames' bytes, both exact. The
/// run's `network_bytes` adds the control frames, whose scratch paths
/// vary in length with the process id, so it is pinned to a band.
#[test]
fn e2e_lcc_wire_volume_is_pinned() {
    let graph = CsrGraph::from_edge_list(&graphalytics_datagen::rmat::generate(
        &graphalytics_datagen::RmatConfig::graph500(10, 1),
    ));
    let mut p = distrib(2);
    let handle = p.load_graph(&graph).expect("load");
    let tracer = Arc::new(Tracer::new());
    let ctx = RunContext::unbounded().with_tracer(Arc::clone(&tracer));
    p.run(handle, &Algorithm::Lcc, &ctx).expect("LCC");
    p.unload(handle);
    let spans = tracer.finished_spans();
    let int = |s: &graphalytics_core::trace::Span, key: &str| {
        s.field(key).and_then(|f| f.as_i64()).expect(key)
    };
    let remote: Vec<i64> = spans
        .iter()
        .filter(|s| s.name == "distrib.superstep")
        .map(|s| int(s, "messages_remote"))
        .collect();
    let network: i64 = spans
        .iter()
        .filter(|s| s.name == "distrib.superstep")
        .map(|s| int(s, "network_bytes"))
        .sum();
    let shuffle: i64 = spans
        .iter()
        .filter(|s| s.name == "distrib.worker.shuffle")
        .map(|s| int(s, "bytes"))
        .sum();
    let computed = format!("remote {remote:?}, shuffle {shuffle}, network {network}");
    assert_eq!(remote, [5_293, 7_453, 0], "{computed}");
    assert_eq!(shuffle, 648_424, "{computed}");
    // 1238 control bytes under /tmp with a five-digit process id.
    assert!((1_100..1_800).contains(&(network - shuffle)), "{computed}");
}

/// LCC and STATS on a directed graph are refused before any fleet starts.
#[test]
fn e2e_directed_lcc_and_stats_are_refused() {
    let graph = CsrGraph::from_edge_list(&EdgeListGraph::directed_from_edges(vec![
        (0, 1),
        (1, 2),
        (2, 0),
    ]));
    let mut p = distrib(2);
    let handle = p.load_graph(&graph).unwrap();
    for alg in [Algorithm::Lcc, Algorithm::Stats] {
        let err = p.run(handle, &alg, &RunContext::unbounded()).unwrap_err();
        assert!(
            matches!(
                err,
                graphalytics_core::platform::PlatformError::Unsupported(_)
            ),
            "{alg:?}: {err:?}"
        );
    }
}

/// An empty graph runs without spawning any fleet.
#[test]
fn e2e_empty_graph_short_circuits() {
    let graph = CsrGraph::from_edge_list(&EdgeListGraph::new(vec![], vec![], false));
    let mut p = distrib(4);
    let handle = p.load_graph(&graph).unwrap();
    let out = p
        .run(handle, &Algorithm::Conn, &RunContext::unbounded())
        .unwrap();
    assert_eq!(out, Output::Components(vec![]));
}

/// A missing worker binary is reported as `Unsupported`, not a hang.
#[test]
fn e2e_missing_worker_binary_is_reported() {
    let graph = test_graph();
    let mut p = DistributedPlatform::new(DistribConfig {
        workers: 2,
        worker_bin: Some(PathBuf::from("/nonexistent/gx-distrib-worker")),
        ..DistribConfig::default()
    });
    let handle = p.load_graph(&graph).unwrap();
    let err = p
        .run(handle, &Algorithm::Conn, &RunContext::unbounded())
        .unwrap_err();
    assert!(
        matches!(
            err,
            graphalytics_core::platform::PlatformError::Unsupported(_)
        ),
        "{err:?}"
    );
}

/// A malformed socket-timeout knob is a usage error (exit 2) naming the
/// knob and value, never a silent 60 s default.
#[test]
fn e2e_malformed_io_timeout_exits_2() {
    for value in ["soon", "0"] {
        let out = std::process::Command::new(worker_bin())
            .args(["--master=127.0.0.1:9", "--worker=0"])
            .env("GX_DISTRIB_IO_TIMEOUT_SECS", value)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{value}: {stderr}");
        let expected = format!("config error: GX_DISTRIB_IO_TIMEOUT_SECS = \"{value}\"");
        assert!(stderr.contains(&expected), "{stderr}");
    }
}
