//! The scale ladder: time-to-failure scalability probing.
//!
//! LDBC Graphalytics measures vertical scalability by walking each
//! platform up a ladder of Graph500 scales until a run times out or the
//! platform fails (OOM, load refusal), then reports the largest scale the
//! platform still passes. `bench ladder` drives that walk: per platform,
//! per scale, the chosen kernels run under the cooperative timeout; the
//! first failing scale stops the climb and the report records the largest
//! passing scale, the per-scale wall time there, and the failure that
//! ended the climb.
//!
//! A platform that survives the whole ladder reports the ceiling scale
//! with no failure — raise `--max-scale` to find its true limit.

use std::sync::Arc;
use std::time::Duration;

use graphalytics_algos::Algorithm;
use graphalytics_core::config::parse_algorithm;
use graphalytics_core::{BenchmarkConfig, BenchmarkSuite, Dataset, Platform, RunStatus, Tracer};
use graphalytics_platforms::{self as platforms, Properties};

/// Ladder parameters (from the `bench ladder` command line).
#[derive(Debug, Clone, PartialEq)]
pub struct LadderConfig {
    /// Registry names of the platforms to climb; empty = every platform
    /// in the registry.
    pub platforms: Vec<String>,
    /// Kernels run at every rung.
    pub algorithms: Vec<Algorithm>,
    /// First Graph500 scale.
    pub start_scale: u32,
    /// Last Graph500 scale (inclusive) — the ladder's ceiling.
    pub max_scale: u32,
    /// Cooperative per-run timeout in seconds.
    pub timeout_secs: u64,
    /// Validate outputs against the reference oracle at every rung.
    pub validate: bool,
}

impl Default for LadderConfig {
    fn default() -> Self {
        Self {
            platforms: Vec::new(),
            algorithms: default_algorithms(),
            start_scale: 10,
            max_scale: 20,
            timeout_secs: 180,
            validate: false,
        }
    }
}

/// The default rung workload: the traversal kernel plus the two weighted/
/// neighborhood kernels the conformance suite gates.
pub fn default_algorithms() -> Vec<Algorithm> {
    vec![
        Algorithm::Bfs { source: 0 },
        Algorithm::Sssp { source: 0 },
        Algorithm::Lcc,
    ]
}

impl LadderConfig {
    /// Parses `bench ladder` flags. `--smoke` is shorthand for a CI-sized
    /// ladder (scales 10..=14, 60 s timeout, validation on).
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut cfg = Self::default();
        for arg in args {
            let (flag, value) = match arg.split_once('=') {
                Some((f, v)) => (f, Some(v)),
                None => (arg.as_str(), None),
            };
            let required = |what: &str| {
                value
                    .map(str::to_string)
                    .ok_or_else(|| format!("{flag} needs {what}, e.g. {flag}=..."))
            };
            match flag {
                "--smoke" => {
                    cfg.start_scale = 10;
                    cfg.max_scale = 14;
                    cfg.timeout_secs = 60;
                    cfg.validate = true;
                }
                "--platforms" => {
                    cfg.platforms = required("a comma-separated list")?
                        .split(',')
                        .map(|s| s.trim().to_lowercase())
                        .filter(|s| !s.is_empty())
                        .map(|s| platforms::resolve(&s).map(|row| row.name.to_string()))
                        .collect::<Result<_, _>>()?;
                }
                "--algorithms" => {
                    let list = required("a comma-separated list")?;
                    cfg.algorithms = list
                        .split(',')
                        .map(|s| parse_algorithm(s.trim()))
                        .collect::<Result<_, _>>()?;
                }
                "--start-scale" => {
                    cfg.start_scale = required("a scale")?
                        .parse()
                        .map_err(|_| "--start-scale must be an integer".to_string())?;
                }
                "--max-scale" => {
                    cfg.max_scale = required("a scale")?
                        .parse()
                        .map_err(|_| "--max-scale must be an integer".to_string())?;
                }
                "--timeout-secs" => {
                    cfg.timeout_secs = required("seconds")?
                        .parse()
                        .map_err(|_| "--timeout-secs must be an integer".to_string())?;
                }
                "--validate" => cfg.validate = true,
                other => return Err(format!("unknown ladder flag {other:?}")),
            }
        }
        if cfg.start_scale > cfg.max_scale {
            return Err(format!(
                "start scale {} exceeds max scale {}",
                cfg.start_scale, cfg.max_scale
            ));
        }
        if cfg.algorithms.is_empty() {
            return Err("no algorithms to run".to_string());
        }
        Ok(cfg)
    }

    /// Platform names this ladder climbs.
    pub fn platform_names(&self) -> Vec<String> {
        if self.platforms.is_empty() {
            (platforms::PLATFORMS.iter())
                .map(|row| row.name.to_string())
                .collect()
        } else {
            self.platforms.clone()
        }
    }
}

/// The climb result of one platform.
#[derive(Debug, Clone)]
pub struct LadderCell {
    /// Platform (fleet name).
    pub platform: String,
    /// Worker parallelism the platform climbed with (None when unknown,
    /// e.g. for custom factories).
    pub workers: Option<usize>,
    /// Largest Graph500 scale at which every kernel passed.
    pub largest_passing: Option<u32>,
    /// Wall seconds summed over the kernels at the largest passing scale.
    pub seconds_at_largest: Option<f64>,
    /// The scale at which the climb ended, if the ladder was not exhausted.
    pub failing_scale: Option<u32>,
    /// What ended the climb (kernel and failure kind).
    pub failure: Option<String>,
    /// Worst per-superstep worker-time Gini at the largest passing scale,
    /// from the distributed runtime's merged worker telemetry. `None` for
    /// platforms that ship no per-worker spans (everything in-process).
    pub max_skew: Option<f64>,
}

impl LadderCell {
    /// True when the platform survived the whole ladder.
    pub fn reached_ceiling(&self) -> bool {
        self.failing_scale.is_none()
    }
}

/// Walks every requested platform up the ladder using `factory` to build
/// a fresh platform instance per rung (so a rung's memory is released
/// before the next, larger graph is loaded). `progress` is called after
/// every rung with `(platform, scale, passed)`.
pub fn climb_with(
    cfg: &LadderConfig,
    factory: impl Fn(&str) -> Result<Box<dyn Platform>, String>,
    mut progress: impl FnMut(&str, u32, bool),
) -> Result<Vec<LadderCell>, String> {
    let mut cells = Vec::new();
    for name in cfg.platform_names() {
        let mut cell = LadderCell {
            platform: name.clone(),
            workers: platforms::resolve(&name)
                .ok()
                .map(|row| (row.default_workers)()),
            largest_passing: None,
            seconds_at_largest: None,
            failing_scale: None,
            failure: None,
            max_skew: None,
        };
        for scale in cfg.start_scale..=cfg.max_scale {
            let platform = factory(&name)?;
            let suite = BenchmarkSuite::new(
                vec![Dataset::graph500(scale)],
                cfg.algorithms.clone(),
                BenchmarkConfig {
                    timeout: Some(Duration::from_secs(cfg.timeout_secs)),
                    validate: cfg.validate,
                    ..Default::default()
                },
            );
            // Traced so the distributed runtime's worker telemetry lands
            // in the rung's span set for the skew column.
            let tracer = Arc::new(Tracer::new());
            let mut fleet: Vec<Box<dyn Platform>> = vec![platform];
            let result = suite.run_traced(&mut fleet, &tracer);
            let failure = result.runs.iter().find_map(|r| match &r.status {
                RunStatus::Success if cfg.validate && !r.validation.is_valid() => {
                    Some(format!("{}: invalid output", r.algorithm))
                }
                RunStatus::Success => None,
                RunStatus::Timeout => Some(format!(
                    "{}: timeout after {}s",
                    r.algorithm, cfg.timeout_secs
                )),
                RunStatus::Failed(e) => Some(format!("{}: {e}", r.algorithm)),
            });
            match failure {
                None => {
                    cell.largest_passing = Some(scale);
                    cell.seconds_at_largest = Some(
                        result
                            .runs
                            .iter()
                            .filter_map(|r| r.runtime_seconds)
                            .sum::<f64>(),
                    );
                    cell.max_skew = rung_max_skew(&tracer.finished_spans());
                    progress(&name, scale, true);
                }
                Some(why) => {
                    cell.failing_scale = Some(scale);
                    cell.failure = Some(why);
                    progress(&name, scale, false);
                    break;
                }
            }
        }
        cells.push(cell);
    }
    Ok(cells)
}

/// Worst per-superstep worker-time Gini across a rung's runs, from the
/// choke-point engine's straggler table over the rung's merged spans.
/// `None` when no run carried worker-process telemetry.
fn rung_max_skew(spans: &[graphalytics_core::trace::Span]) -> Option<f64> {
    graphalytics_obs::attribute(spans)
        .iter()
        .flat_map(|r| r.stragglers.iter().map(|row| row.gini))
        .fold(None, |acc, g| Some(acc.map_or(g, |a: f64| a.max(g))))
}

/// [`climb_with`] over the registry's platforms, each built with its
/// defaults.
pub fn climb(
    cfg: &LadderConfig,
    progress: impl FnMut(&str, u32, bool),
) -> Result<Vec<LadderCell>, String> {
    let defaults = Properties::new();
    climb_with(cfg, |name| platforms::build(name, &defaults), progress)
}

/// Renders the report rows (platform, worker count, largest passing
/// scale, wall time there, worst worker-time Gini, and what stopped the
/// climb) for [`crate::print_table`].
pub fn report_rows(cells: &[LadderCell]) -> Vec<Vec<String>> {
    cells
        .iter()
        .map(|c| {
            vec![
                c.platform.clone(),
                c.workers
                    .map(|w| w.to_string())
                    .unwrap_or_else(|| "-".to_string()),
                c.largest_passing
                    .map(|s| s.to_string())
                    .unwrap_or_else(|| "-".to_string()),
                c.seconds_at_largest
                    .map(|s| format!("{s:.2}"))
                    .unwrap_or_else(|| "-".to_string()),
                c.max_skew
                    .map(|g| format!("{g:.3}"))
                    .unwrap_or_else(|| "-".to_string()),
                match (&c.failure, c.failing_scale) {
                    (Some(why), Some(at)) => format!("scale {at}: {why}"),
                    _ => "ceiling reached".to_string(),
                },
            ]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphalytics_algos::Output;
    use graphalytics_core::platform::{GraphHandle, PlatformError, RunContext};
    use graphalytics_graph::CsrGraph;

    #[test]
    fn parses_flags() {
        let args: Vec<String> = [
            "--platforms=reference,virtuoso",
            "--start-scale=8",
            "--max-scale=12",
            "--timeout-secs=30",
            "--algorithms=sssp:3,lcc",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let cfg = LadderConfig::parse(&args).unwrap();
        assert_eq!(cfg.platforms, vec!["reference", "virtuoso"]);
        assert_eq!(cfg.start_scale, 8);
        assert_eq!(cfg.max_scale, 12);
        assert_eq!(cfg.timeout_secs, 30);
        assert_eq!(
            cfg.algorithms,
            vec![Algorithm::Sssp { source: 3 }, Algorithm::Lcc]
        );
    }

    #[test]
    fn smoke_preset_and_errors() {
        let cfg = LadderConfig::parse(&["--smoke".to_string()]).unwrap();
        assert_eq!((cfg.start_scale, cfg.max_scale), (10, 14));
        assert!(cfg.validate);
        assert!(LadderConfig::parse(&["--warp".to_string()]).is_err());
        assert_eq!(
            LadderConfig::parse(&["--platforms=hive".to_string()]),
            Err(platforms::resolve("hive").err().unwrap())
        );
        assert!(
            LadderConfig::parse(&["--start-scale=9".to_string(), "--max-scale=8".to_string()])
                .is_err()
        );
        assert!(LadderConfig::parse(&["--max-scale".to_string()]).is_err());
    }

    #[test]
    fn aliases_parse_to_registry_names_and_the_default_is_the_whole_registry() {
        let cfg = LadderConfig::parse(&["--platforms=Hadoop,distrib".to_string()]).unwrap();
        assert_eq!(cfg.platform_names(), ["mapreduce", "distributed-pregel"]);
        assert_eq!(
            LadderConfig::default().platform_names().len(),
            platforms::PLATFORMS.len()
        );
    }

    #[test]
    fn reference_climbs_a_small_ladder_to_the_ceiling() {
        let cfg = LadderConfig {
            platforms: vec!["reference".to_string()],
            start_scale: 6,
            max_scale: 7,
            timeout_secs: 120,
            validate: true,
            ..Default::default()
        };
        let mut rungs = Vec::new();
        let cells = climb(&cfg, |p, s, ok| rungs.push((p.to_string(), s, ok))).unwrap();
        assert_eq!(cells.len(), 1);
        let c = &cells[0];
        assert_eq!(c.largest_passing, Some(7));
        assert!(c.reached_ceiling(), "{c:?}");
        assert!(c.seconds_at_largest.unwrap() >= 0.0);
        assert_eq!(
            rungs,
            vec![
                ("reference".to_string(), 6, true),
                ("reference".to_string(), 7, true),
            ]
        );
    }

    /// A platform that refuses to load graphs at or above a scale cutoff —
    /// the OOM shape the ladder exists to find.
    struct CappedPlatform {
        max_vertices: usize,
    }

    impl Platform for CappedPlatform {
        fn name(&self) -> &'static str {
            "Capped"
        }
        fn load_graph(&mut self, graph: &CsrGraph) -> Result<GraphHandle, PlatformError> {
            if graph.num_vertices() > self.max_vertices {
                return Err(PlatformError::OutOfMemory {
                    required: graph.memory_footprint(),
                    budget: 1,
                });
            }
            Ok(GraphHandle(0))
        }
        fn run(
            &mut self,
            _handle: GraphHandle,
            _algorithm: &Algorithm,
            _ctx: &RunContext,
        ) -> Result<Output, PlatformError> {
            Ok(Output::Components(vec![]))
        }
        fn unload(&mut self, _handle: GraphHandle) {}
    }

    #[test]
    fn oom_stops_the_climb_and_is_reported() {
        let cfg = LadderConfig {
            platforms: vec!["capped".to_string()],
            algorithms: vec![Algorithm::Conn],
            start_scale: 6,
            max_scale: 12,
            timeout_secs: 60,
            validate: false,
        };
        // Scale 6 = 64 vertices fits; scale 7 = 128 does not.
        let cells = climb_with(
            &cfg,
            |_| Ok(Box::new(CappedPlatform { max_vertices: 64 })),
            |_, _, _| {},
        )
        .unwrap();
        let c = &cells[0];
        assert_eq!(c.largest_passing, Some(6));
        assert_eq!(c.failing_scale, Some(7));
        assert!(c.failure.as_deref().unwrap().contains("memory"), "{c:?}");
        assert!(!c.reached_ceiling());
        let rows = report_rows(&cells);
        assert_eq!(rows[0][1], "-", "unknown platform has no worker count");
        assert_eq!(rows[0][2], "6");
        assert_eq!(rows[0][4], "-", "no worker telemetry, no skew");
        assert!(rows[0][5].contains("scale 7"), "{:?}", rows[0]);
    }

    #[test]
    fn failing_the_first_rung_leaves_no_passing_scale() {
        let cfg = LadderConfig {
            platforms: vec!["capped".to_string()],
            algorithms: vec![Algorithm::Conn],
            start_scale: 8,
            max_scale: 10,
            timeout_secs: 60,
            validate: false,
        };
        let cells = climb_with(
            &cfg,
            |_| Ok(Box::new(CappedPlatform { max_vertices: 1 })),
            |_, _, _| {},
        )
        .unwrap();
        let c = &cells[0];
        assert_eq!(c.largest_passing, None);
        assert_eq!(c.failing_scale, Some(8));
        assert_eq!(report_rows(&cells)[0][2], "-");
    }
}
