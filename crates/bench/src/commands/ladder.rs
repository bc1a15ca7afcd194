//! The scale ladder: time-to-failure scalability probing.
//!
//! LDBC Graphalytics measures vertical scalability by walking each
//! platform up a ladder of Graph500 scales until a run times out or the
//! platform fails (OOM, load refusal), then reports the largest scale the
//! platform still passes. `bench ladder` drives that walk: per platform,
//! per scale, the chosen kernels run under the cooperative timeout; the
//! first failing scale stops the climb and the report records the largest
//! passing scale and the failure that ended the climb. How long a rung
//! took is `perfbench/`'s to measure, not this command's.
//!
//! A platform that survives the whole ladder reports the ceiling scale
//! with no failure — raise `--max-scale` to find its true limit.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use graphalytics_algos::Algorithm;
use graphalytics_core::config::{parse_algorithm, ConfigError};
use graphalytics_core::{BenchmarkConfig, BenchmarkSuite, Dataset, Platform, RunStatus, Tracer};
use graphalytics_platforms::{self as platforms, Properties};

use crate::{print_table, Args};

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
            // The traversal kernel plus the two weighted/neighborhood
            // kernels the conformance suite gates.
            algorithms: vec![
                Algorithm::Bfs { source: 0 },
                Algorithm::Sssp { source: 0 },
                Algorithm::Lcc,
            ],
            start_scale: 10,
            max_scale: 20,
            timeout_secs: 180,
            validate: false,
        }
    }
}

impl LadderConfig {
    /// Reads the `bench ladder` flags. `--smoke` is shorthand for a
    /// CI-sized ladder (scales 10..=14, 60 s timeout, validation on) that
    /// the explicit flags refine.
    pub fn from_args(args: &Args) -> Result<Self, String> {
        let mut cfg = Self::default();
        if args.flag("--smoke").is_some() {
            cfg.start_scale = 10;
            cfg.max_scale = 14;
            cfg.timeout_secs = 60;
            cfg.validate = true;
        }
        if let Some(list) = args.flag("--platforms") {
            cfg.platforms = list
                .split(',')
                .map(|s| s.trim().to_lowercase())
                .filter(|s| !s.is_empty())
                .map(|s| platforms::resolve(&s).map(|row| row.name.to_string()))
                .collect::<Result<_, _>>()?;
        }
        if let Some(list) = args.flag("--algorithms") {
            cfg.algorithms = list
                .split(',')
                .map(|s| parse_algorithm(s.trim()))
                .collect::<Result<_, _>>()?;
        }
        let malformed = |e: ConfigError| e.to_string();
        if let Some(scale) = args.flag_as("--start-scale").map_err(malformed)? {
            cfg.start_scale = scale;
        }
        if let Some(scale) = args.flag_as("--max-scale").map_err(malformed)? {
            cfg.max_scale = scale;
        }
        if let Some(secs) = args.flag_as("--timeout-secs").map_err(malformed)? {
            cfg.timeout_secs = secs;
        }
        cfg.validate |= args.flag("--validate").is_some();
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
    /// The scale at which the climb ended, if the ladder was not exhausted.
    pub failing_scale: Option<u32>,
    /// What ended the climb (kernel and failure kind).
    pub failure: Option<String>,
    /// Worst per-superstep worker-time Gini at the largest passing scale,
    /// from the distributed runtime's merged worker telemetry. `None` for
    /// platforms that ship no per-worker spans (everything in-process).
    pub max_skew: Option<f64>,
}

/// Walks every requested platform up the ladder using `factory` to build
/// a fresh platform instance per rung (so a rung's memory is released
/// before the next, larger graph is loaded); every rung's outcome goes to
/// stderr as it finishes.
pub fn climb(
    cfg: &LadderConfig,
    factory: impl Fn(&str) -> Result<Box<dyn Platform>, String>,
) -> Result<Vec<LadderCell>, String> {
    let mut cells = Vec::new();
    for name in cfg.platform_names() {
        let mut cell = LadderCell {
            platform: name.clone(),
            workers: platforms::resolve(&name)
                .ok()
                .map(|row| (row.default_workers)()),
            largest_passing: None,
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
                    cell.max_skew = rung_max_skew(&tracer.finished_spans());
                    eprintln!("  {name} @ scale {scale}: pass");
                }
                Some(why) => {
                    cell.failing_scale = Some(scale);
                    cell.failure = Some(why);
                    eprintln!("  {name} @ scale {scale}: FAIL");
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

/// `bench ladder`: climbs, prints progress to stderr and the report table
/// to stdout; exits 1 when no platform passes any rung.
pub fn run(args: &Args) -> ExitCode {
    let cfg = crate::or_exit(LadderConfig::from_args(args));
    eprintln!(
        "scale ladder: {} over Graph500 {}..={}, timeout {}s, {} kernel(s), validate={}",
        cfg.platform_names().join(", "),
        cfg.start_scale,
        cfg.max_scale,
        cfg.timeout_secs,
        cfg.algorithms.len(),
        cfg.validate,
    );
    let defaults = Properties::new();
    let registry = |name: &str| platforms::build(name, &defaults);
    let cells = match climb(&cfg, registry) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    print_table(
        &[
            "platform",
            "workers",
            "largest scale",
            "max-skew",
            "climb ended by",
        ],
        &report_rows(&cells),
    );
    if cells.iter().all(|c| c.largest_passing.is_none()) {
        eprintln!("no platform passed any rung");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Renders the report rows (platform, worker count, largest passing
/// scale, worst worker-time Gini there, and what stopped the climb) for
/// [`print_table`].
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

    fn parse(args: &[&str]) -> Result<LadderConfig, String> {
        let ladder = crate::cli::command("ladder").expect("ladder");
        LadderConfig::from_args(&Args::parse(ladder, args.iter().map(|s| s.to_string()))?)
    }

    #[test]
    fn parses_flags() {
        let cfg = parse(&[
            "--platforms=reference,virtuoso",
            "--start-scale=8",
            "--max-scale",
            "12",
            "--timeout-secs=30",
            "--algorithms=sssp:3,lcc",
        ])
        .unwrap();
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
        let cfg = parse(&["--smoke"]).unwrap();
        assert_eq!((cfg.start_scale, cfg.max_scale), (10, 14));
        assert!(cfg.validate);
        // Explicit flags refine the preset wherever they stand.
        let cfg = parse(&["--max-scale=11", "--smoke"]).unwrap();
        assert_eq!((cfg.max_scale, cfg.timeout_secs), (11, 60));
        assert!(parse(&["--warp"]).is_err());
        assert_eq!(
            parse(&["--platforms=hive"]),
            Err(platforms::resolve("hive").err().unwrap())
        );
        assert!(parse(&["--start-scale=9", "--max-scale=8"]).is_err());
        assert!(parse(&["--max-scale"]).is_err());
        // A switch takes no value.
        assert!(parse(&["--validate=yes"]).is_err());
        assert_eq!(
            parse(&["--max-scale=1e1"]).unwrap_err(),
            "config error: --max-scale = \"1e1\" is not a valid u32"
        );
    }

    #[test]
    fn aliases_parse_to_registry_names_and_the_default_is_the_whole_registry() {
        let cfg = parse(&["--platforms=Hadoop,distrib"]).unwrap();
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
        let registry = |name: &str| platforms::build(name, &Properties::new());
        let cells = climb(&cfg, registry).unwrap();
        assert_eq!(cells.len(), 1);
        let c = &cells[0];
        assert_eq!(c.largest_passing, Some(7));
        assert_eq!(c.failing_scale, None, "{c:?}");
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
        let cells = climb(&cfg, |_| Ok(Box::new(CappedPlatform { max_vertices: 64 }))).unwrap();
        let c = &cells[0];
        assert_eq!(c.largest_passing, Some(6));
        assert_eq!(c.failing_scale, Some(7));
        assert!(c.failure.as_deref().unwrap().contains("memory"), "{c:?}");
        let rows = report_rows(&cells);
        assert_eq!(rows[0][1], "-", "unknown platform has no worker count");
        assert_eq!(rows[0][2], "6");
        assert_eq!(rows[0][3], "-", "no worker telemetry, no skew");
        assert!(rows[0][4].contains("scale 7"), "{:?}", rows[0]);
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
        let cells = climb(&cfg, |_| Ok(Box::new(CappedPlatform { max_vertices: 1 }))).unwrap();
        let c = &cells[0];
        assert_eq!(c.largest_passing, None);
        assert_eq!(c.failing_scale, Some(8));
        assert_eq!(report_rows(&cells)[0][2], "-");
    }
}
