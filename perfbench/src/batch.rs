//! The three batch workloads. Each drives its cells through
//! `BenchmarkSuite`, the entry point the `benchmark` binary, the ladder and
//! served jobs all use, against a graph generated once in set-up.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use graphalytics_algos::Algorithm;
use graphalytics_core::platform::Platform;
use graphalytics_core::runner::{BenchmarkConfig, BenchmarkSuite, RunRecord};
use graphalytics_core::trace::{self, FieldValue, Span, Tracer};

use crate::engines::{fleet_kernels, kernel_metric_name, Engine, EngineEnv, FLEET};
use crate::inputs::{self, Input, StageTimes};
use crate::metrics::Values;
use crate::probes;
use crate::spans::Recorder;
use crate::workload::{Pass, PassKind, Sizes, Workload};

/// One named unit of work: consecutive runs of one kernel on one platform.
struct Cell {
    label: String,
    runs: usize,
    /// The per-layer metric its seconds are reported under.
    metric: Option<String>,
}

/// One platform with the cells it runs, in suite order.
struct Group {
    engine: Engine,
    platform: Box<dyn Platform>,
    cells: Vec<Cell>,
    /// The per-layer metric the group's summed cell seconds go under.
    processing_metric: Option<String>,
    timed: BenchmarkSuite,
    checked: BenchmarkSuite,
}

impl Group {
    /// `kernels` lists each cell's algorithms; `metric` names the cell's
    /// per-layer metric from the kernel's metric name.
    fn new(
        engine: Engine,
        platform: Box<dyn Platform>,
        kernels: Vec<Vec<Algorithm>>,
        metric: impl Fn(&str) -> Option<String>,
        processing_metric: Option<String>,
    ) -> Self {
        let cells = kernels
            .iter()
            .map(|algs| Cell {
                label: format!("{}/{}", engine.label(), algs[0].name()),
                runs: algs.len(),
                metric: metric(kernel_metric_name(&algs[0])),
            })
            .collect();
        let algorithms: Vec<Algorithm> = kernels.into_iter().flatten().collect();
        let suite = |validate| {
            BenchmarkSuite::new(
                Vec::new(),
                algorithms.clone(),
                BenchmarkConfig {
                    timeout: Some(Duration::from_secs(120)),
                    repetitions: 1,
                    validate,
                    ..Default::default()
                },
            )
        };
        Self {
            engine,
            platform,
            cells,
            processing_metric,
            timed: suite(false),
            checked: suite(true),
        }
    }
}

pub struct Batch {
    input: Input,
    groups: Vec<Group>,
    /// Cells (group, cell) whose output the warm-up pass found invalid.
    invalid: BTreeSet<(usize, usize)>,
    /// The program's tracer of the latest traced pass.
    traced: Option<Arc<Tracer>>,
    /// Set on `engine-fleet`, which also carries the codec, span-cost and
    /// observer probes: their sizes.
    probes: Option<Sizes>,
}

/// How the spans the engines already publish turn into layer metrics.
enum Agg {
    Count,
    Seconds,
    Field(&'static str),
}

const PROGRAM_SPAN_METRICS: &[(&str, &str, Agg)] = &[
    ("pregel.supersteps", "pregel.superstep", Agg::Count),
    ("dataflow.jobs", "graphx.job", Agg::Count),
    ("dataflow.iterations", "graphx.iteration", Agg::Count),
    ("mapreduce.jobs", "mapreduce.job", Agg::Count),
    ("mapreduce.map_s", "mapreduce.map", Agg::Seconds),
    ("mapreduce.reduce_s", "mapreduce.reduce", Agg::Seconds),
    ("columnar.rounds", "virtuoso.round", Agg::Count),
    ("distrib.supersteps", "distrib.superstep", Agg::Count),
    (
        "distrib.messages_remote",
        "distrib.superstep",
        Agg::Field("messages_remote"),
    ),
    (
        "distrib.network_bytes",
        "distrib.superstep",
        Agg::Field("network_bytes"),
    ),
    (
        "distrib.barrier_wait_s",
        "distrib.worker.barrier",
        Agg::Seconds,
    ),
];

fn program_span_metrics(spans: &[Span], layer: &mut Vec<(String, f64)>) {
    for (metric, name, agg) in PROGRAM_SPAN_METRICS {
        let matching: Vec<&Span> = spans.iter().filter(|s| s.name == *name).collect();
        if matching.is_empty() {
            continue;
        }
        let value = match agg {
            Agg::Count => matching.len() as f64,
            Agg::Seconds => matching.iter().map(|s| s.duration_seconds()).sum(),
            Agg::Field(key) => matching
                .iter()
                .filter_map(|s| s.field(key).and_then(FieldValue::as_i64))
                .sum::<i64>() as f64,
        };
        layer.push((metric.to_string(), value));
    }
}

fn run_failed(run: &RunRecord, checked: bool) -> bool {
    !run.status.is_success() || (checked && !run.validation.is_valid())
}

impl Batch {
    fn new(input: Input, groups: Vec<Group>, probes: Option<Sizes>) -> Self {
        Self {
            input,
            groups,
            invalid: BTreeSet::new(),
            traced: None,
            probes,
        }
    }
}

impl Workload for Batch {
    fn pass(&mut self, kind: PassKind, rec: &mut Recorder) -> Pass {
        let tracer = Arc::new(match kind {
            PassKind::Traced => Tracer::new(),
            _ => Tracer::disabled(),
        });
        let clock_offset_s = rec.now_s() - tracer.now_seconds();
        let size = self.input.size();
        let mut pass = Pass::default();
        let mut adopted = 0;
        let (mut loads_s, mut validate_s, mut bfs_edges, mut bfs_s) = (0.0, 0.0, 0.0, 0.0);
        let started = Instant::now();
        for (g, group) in self.groups.iter_mut().enumerate() {
            let suite = match kind {
                PassKind::Warmup => &group.checked,
                _ => &group.timed,
            };
            let open = rec.enter("core.suite.run", "core.runner");
            let result = suite.run_traced_on_graph(
                std::slice::from_mut(&mut group.platform),
                &self.input.dataset,
                &self.input.graph,
                &tracer,
            );
            if kind == PassKind::Traced {
                let spans = tracer.finished_spans();
                rec.adopt(&spans[adopted..], clock_offset_s);
                adopted = spans.len();
            }
            rec.exit(open);

            let load_s = result.loads.first().and_then(|l| l.load_seconds);
            loads_s += load_s.unwrap_or(0.0);
            let mut runs = result.runs.iter();
            let mut group_s = 0.0;
            for (c, cell) in group.cells.iter().enumerate() {
                let runs: Vec<&RunRecord> = runs.by_ref().take(cell.runs).collect();
                let seconds: f64 = runs.iter().filter_map(|r| r.runtime_seconds).sum();
                let failed = runs.len() < cell.runs
                    || runs.iter().any(|r| run_failed(r, kind == PassKind::Warmup));
                if failed && kind == PassKind::Warmup {
                    eprintln!("perfbench: cell {} failed or is invalid", cell.label);
                    self.invalid.insert((g, c));
                }
                pass.attempted += 1;
                pass.failed += usize::from(failed || self.invalid.contains(&(g, c)));
                pass.cells.push((size * cell.runs as f64, seconds));
                pass.ops.push(runs.iter().map(|r| r.wall_seconds).sum());
                group_s += seconds;
                for run in &runs {
                    validate_s += run.timeline.phase_seconds(trace::phase::VALIDATE);
                    if let (Engine::Reference, "BFS", Some(teps), Some(s)) = (
                        group.engine,
                        run.algorithm.as_str(),
                        run.teps,
                        run.runtime_seconds,
                    ) {
                        bfs_edges += teps * s;
                        bfs_s += s;
                    }
                }
                if let (PassKind::Timed, Some(metric)) = (kind, &cell.metric) {
                    pass.layer.push((metric.clone(), seconds));
                }
            }
            if kind == PassKind::Timed {
                if let Some(load_s) = load_s {
                    pass.layer.push((group.engine.load_metric(), load_s));
                }
                if let Some(metric) = &group.processing_metric {
                    pass.layer.push((metric.clone(), group_s));
                }
            }
        }
        pass.makespan_s = started.elapsed().as_secs_f64();
        match kind {
            PassKind::Warmup => pass
                .layer
                .push(("core.validator.validate_s".to_string(), validate_s)),
            PassKind::Timed => {
                pass.layer.push((
                    "core.runner.overhead_s".to_string(),
                    pass.makespan_s - loads_s - pass.processing_s(),
                ));
                if bfs_s > 0.0 {
                    pass.layer
                        .push(("algos.bfs_teps".to_string(), bfs_edges / bfs_s));
                }
            }
            PassKind::Traced => {
                program_span_metrics(&tracer.finished_spans(), &mut pass.layer);
                self.traced = Some(tracer);
            }
        }
        pass
    }

    fn finish(&mut self, rec: &mut Recorder, layer: &mut Values) {
        if let (Some(sizes), Some(tracer)) = (&self.probes, &self.traced) {
            probes::codecs(sizes, rec, layer);
            probes::span_cost(sizes, rec, layer);
            probes::observer_cost(tracer, rec, layer);
        }
    }

    fn stamp(&self) -> Vec<(&'static str, String)> {
        let cells: Vec<&str> = self
            .groups
            .iter()
            .flat_map(|g| g.cells.iter().map(|c| c.label.as_str()))
            .collect();
        vec![
            ("graph", self.input.dataset.name.clone()),
            ("vertices", self.input.graph.num_vertices().to_string()),
            ("arcs", self.input.graph.num_arcs().to_string()),
            ("cells", cells.len().to_string()),
            ("cell_names", cells.join(" ")),
        ]
    }
}

fn algos_metric(suffix: &'static str) -> impl Fn(&str) -> Option<String> {
    move |kernel| Some(format!("algos.{kernel}{suffix}_s"))
}

/// Compute-bound reference kernels: LCC, STATS and CD sequentially, LCC
/// again on two threads.
pub fn ref_neighborhood(
    sizes: &Sizes,
    seed: u64,
    env: &EngineEnv,
    rec: &mut Recorder,
    stages: &mut StageTimes,
) -> Batch {
    let (input, _) = inputs::graph500(sizes.neighborhood_scale, seed, rec, stages);
    let one = |alg: Algorithm| vec![alg];
    // CD stops early once no label changes, which on some seeds is after
    // four or five rounds and on most not within ten; four rounds are the
    // same work on every seed.
    let cd = match Algorithm::default_cd() {
        Algorithm::Cd {
            hop_attenuation,
            degree_exponent,
            ..
        } => Algorithm::Cd {
            iterations: 4,
            hop_attenuation,
            degree_exponent,
        },
        other => other,
    };
    let groups = vec![
        Group::new(
            Engine::Reference,
            env.build(Engine::Reference),
            vec![one(Algorithm::Lcc), one(Algorithm::Stats), one(cd)],
            algos_metric(""),
            None,
        ),
        Group::new(
            Engine::ReferenceThreads,
            env.build(Engine::ReferenceThreads),
            vec![one(Algorithm::Lcc)],
            algos_metric("_2t"),
            None,
        ),
    ];
    Batch::new(input, groups, None)
}

/// Traversal kernels of the reference platform, sequential and on two
/// threads, from seeded sources of degree at least 1.
pub fn ref_traversal(
    sizes: &Sizes,
    seed: u64,
    env: &EngineEnv,
    rec: &mut Recorder,
    stages: &mut StageTimes,
) -> Batch {
    let (input, _) = inputs::graph500(sizes.traversal_scale, seed, rec, stages);
    let sources = inputs::pick_sources(&input.graph, seed, sizes.sources);
    let traversal = || -> Vec<Vec<Algorithm>> {
        vec![
            sources
                .iter()
                .map(|&source| Algorithm::Bfs { source })
                .collect(),
            sources
                .iter()
                .map(|&source| Algorithm::Sssp { source })
                .collect(),
            vec![Algorithm::Conn],
            vec![Algorithm::default_pagerank()],
        ]
    };
    let mut sequential = traversal();
    sequential.push(
        (0..sizes.sources as u64)
            .map(|i| match Algorithm::default_evo() {
                Algorithm::Evo {
                    new_vertices,
                    p_forward,
                    max_burst,
                    ..
                } => Algorithm::Evo {
                    new_vertices,
                    p_forward,
                    max_burst,
                    seed: seed.wrapping_add(i),
                },
                other => other,
            })
            .collect(),
    );
    let groups = vec![
        Group::new(
            Engine::Reference,
            env.build(Engine::Reference),
            sequential,
            algos_metric(""),
            None,
        ),
        Group::new(
            Engine::ReferenceThreads,
            env.build(Engine::ReferenceThreads),
            traversal(),
            algos_metric("_2t"),
            None,
        ),
    ];
    Batch::new(input, groups, None)
}

/// Six engines by five kernels, less the kernels an engine does not have.
pub fn engine_fleet(
    sizes: &Sizes,
    seed: u64,
    env: &EngineEnv,
    rec: &mut Recorder,
    stages: &mut StageTimes,
) -> Batch {
    let (input, _) = inputs::graph500(sizes.fleet_scale, seed, rec, stages);
    let source = inputs::pick_sources(&input.graph, seed, 1)[0];
    let groups = FLEET
        .iter()
        .map(|&engine| {
            let kernels = fleet_kernels(source)
                .into_iter()
                .filter(|alg| !engine.unsupported().contains(&alg.name()))
                .map(|alg| vec![alg])
                .collect();
            let layer = engine.layer();
            Group::new(
                engine,
                env.build(engine),
                kernels,
                |kernel| {
                    matches!(kernel, "lcc" | "pagerank").then(|| format!("{layer}.{kernel}_s"))
                },
                Some(format!("{layer}.processing_s")),
            )
        })
        .collect();
    Batch::new(input, groups, Some(sizes.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphalytics_algos::Output;
    use graphalytics_core::platform::{GraphHandle, PlatformError, RunContext};
    use graphalytics_core::ReferencePlatform;
    use graphalytics_graph::CsrGraph;

    /// The reference platform, except that one vertex of every BFS answer
    /// is off by one level.
    struct WrongBfs(ReferencePlatform);

    impl Platform for WrongBfs {
        fn name(&self) -> &'static str {
            "Reference"
        }
        fn load_graph(&mut self, graph: &CsrGraph) -> Result<GraphHandle, PlatformError> {
            self.0.load_graph(graph)
        }
        fn run(
            &mut self,
            handle: GraphHandle,
            algorithm: &Algorithm,
            ctx: &RunContext,
        ) -> Result<Output, PlatformError> {
            let mut output = self.0.run(handle, algorithm, ctx)?;
            if let Output::Depths(depths) = &mut output {
                depths[0] += 1;
            }
            Ok(output)
        }
        fn unload(&mut self, handle: GraphHandle) {
            self.0.unload(handle)
        }
    }

    #[test]
    fn a_wrong_output_fails_its_cell_in_every_pass() {
        let mut rec = Recorder::new(false);
        let (input, _) = inputs::graph500(7, 3, &mut rec, &mut Vec::new());
        let source = inputs::pick_sources(&input.graph, 3, 1)[0];
        let group = Group::new(
            Engine::Reference,
            Box::new(WrongBfs(ReferencePlatform::new())),
            vec![vec![Algorithm::Bfs { source }], vec![Algorithm::Conn]],
            |_| None,
            None,
        );
        let mut batch = Batch::new(input, vec![group], None);
        let warmup = batch.pass(PassKind::Warmup, &mut rec);
        assert_eq!((warmup.attempted, warmup.failed), (2, 1));
        // Timed passes do not validate, yet the cell stays failed.
        let timed = batch.pass(PassKind::Timed, &mut rec);
        assert_eq!((timed.attempted, timed.failed), (2, 1));
    }
}
