//! Benchmark configuration files.
//!
//! Paper §2.3, the user workflow: "*Add graphs* ... We also provide
//! configuration files associated with these graphs. ... users must write
//! their own configuration files. *Configure the platform* ... *Choose the
//! workload* ... If users want to run a subset of the algorithms, they
//! must define a run that includes only the algorithms and graphs of
//! interest. *Run the benchmark*."
//!
//! The format is Java-properties-like, matching the original toolchain:
//!
//! ```text
//! # datasets: graph500-<scale> | snb-<persons> | amazon|youtube|
//! #           livejournal|patents|wikipedia[-<divisor>] | file:<prefix>
//! graphs = graph500-13, patents-200, snb-10000
//! # algorithms: stats, bfs[:<source>], conn, cd, evo, pagerank,
//! #             sssp[:<source>], lcc
//! algorithms = stats, bfs:0, conn, cd, evo
//! timeout_secs = 180
//! repetitions = 1
//! validate = true
//! ```
//!
//! Platform selection lives outside this crate (the harness core does not
//! depend on the platform crates): `graphalytics-platforms` maps the
//! `platforms` names and the `<platform>.<key>` properties to engines.

use std::collections::BTreeMap;

use graphalytics_algos::Algorithm;
use graphalytics_datagen::RealWorldGraph;

use crate::datasets::{Dataset, DatasetSpec};
use crate::runner::BenchmarkConfig;

/// A parse failure with line context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// 1-based line (0 when not line-specific).
    pub line: usize,
    /// Explanation.
    pub message: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line > 0 {
            write!(f, "config error at line {}: {}", self.line, self.message)
        } else {
            write!(f, "config error: {}", self.message)
        }
    }
}

impl std::error::Error for ConfigError {}

fn err(line: usize, message: impl Into<String>) -> ConfigError {
    ConfigError {
        line,
        message: message.into(),
    }
}

/// A parsed benchmark specification.
#[derive(Debug, Clone)]
pub struct BenchmarkSpec {
    /// Datasets to run on.
    pub datasets: Vec<Dataset>,
    /// Algorithms to run.
    pub algorithms: Vec<Algorithm>,
    /// Platform names requested (interpreted by the driver).
    pub platforms: Vec<String>,
    /// Runner configuration.
    pub config: BenchmarkConfig,
    /// All raw key/value pairs, for driver-specific settings
    /// (e.g. `graphx.memory_mb`).
    pub properties: BTreeMap<String, String>,
}

impl BenchmarkSpec {
    /// Parses a properties-format specification.
    pub fn parse(input: &str) -> Result<BenchmarkSpec, ConfigError> {
        let mut properties = BTreeMap::new();
        let mut lines_of: BTreeMap<String, usize> = BTreeMap::new();
        for (idx, raw) in input.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') || line.starts_with("//") {
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(err(
                    idx + 1,
                    format!("expected `key = value`, got {line:?}"),
                ));
            };
            let key = key.trim().to_lowercase();
            if properties
                .insert(key.clone(), value.trim().to_string())
                .is_some()
            {
                return Err(err(idx + 1, format!("duplicate key {key:?}")));
            }
            lines_of.insert(key, idx + 1);
        }
        let line_of = |key: &str| lines_of.get(key).copied().unwrap_or(0);

        let mut datasets = Vec::new();
        for name in split_list(properties.get("graphs")) {
            datasets.push(parse_dataset(&name).map_err(|m| err(line_of("graphs"), m))?);
        }
        if datasets.is_empty() {
            return Err(err(0, "no `graphs` configured"));
        }
        // "By default, Graphalytics runs all the algorithms implemented."
        let algorithm_names = {
            let listed = split_list(properties.get("algorithms"));
            if listed.is_empty() {
                vec![
                    "stats".to_string(),
                    "bfs".to_string(),
                    "conn".to_string(),
                    "cd".to_string(),
                    "evo".to_string(),
                ]
            } else {
                listed
            }
        };
        let mut algorithms = Vec::new();
        for name in algorithm_names {
            algorithms.push(parse_algorithm(&name).map_err(|m| err(line_of("algorithms"), m))?);
        }
        let platforms = split_list(properties.get("platforms"));

        let mut config = BenchmarkConfig::default();
        if let Some(t) = properties.get("timeout_secs") {
            let secs: u64 = t
                .parse()
                .map_err(|_| err(line_of("timeout_secs"), "timeout_secs must be an integer"))?;
            config.timeout = Some(std::time::Duration::from_secs(secs));
        }
        if let Some(r) = properties.get("repetitions") {
            config.repetitions = r
                .parse()
                .map_err(|_| err(line_of("repetitions"), "repetitions must be an integer"))?;
        }
        if let Some(v) = properties.get("validate") {
            config.validate = match v.as_str() {
                "true" | "yes" | "1" => true,
                "false" | "no" | "0" => false,
                other => {
                    return Err(err(
                        line_of("validate"),
                        format!("validate must be a boolean, got {other:?}"),
                    ))
                }
            };
        }
        Ok(BenchmarkSpec {
            datasets,
            algorithms,
            platforms,
            config,
            properties,
        })
    }

    /// String property accessor.
    pub fn property(&self, key: &str) -> Option<&str> {
        self.properties.get(key).map(String::as_str)
    }
}

/// Parses the value of a knob — a property, an environment variable, a
/// flag. Only an unset knob takes its default: one that is set must parse,
/// so a typo never silently runs the default.
pub fn parse_knob<T: std::str::FromStr>(knob: &str, value: &str) -> Result<T, ConfigError> {
    value.trim().parse().map_err(|_| {
        let expected = std::any::type_name::<T>();
        err(0, format!("{knob} = {value:?} is not a valid {expected}"))
    })
}

/// Typed accessor for the driver-specific keys of
/// [`BenchmarkSpec::properties`]: `None` when the key is absent, an error
/// when it is present and malformed.
pub fn property<T: std::str::FromStr>(
    properties: &BTreeMap<String, String>,
    key: &str,
) -> Result<Option<T>, ConfigError> {
    properties
        .get(key)
        .map(|value| parse_knob(key, value))
        .transpose()
}

fn split_list(value: Option<&String>) -> Vec<String> {
    value
        .map(|v| {
            v.split(',')
                .map(|s| s.trim().to_lowercase())
                .filter(|s| !s.is_empty())
                .collect()
        })
        .unwrap_or_default()
}

/// Parses a dataset name in the configuration syntax (`graph500-<scale>`,
/// `snb-<persons>`, `patents[-<divisor>]`, `file:<prefix>`, ...) — public
/// so other entry points (e.g. the HTTP job API) accept the same names as
/// configuration files.
pub fn parse_dataset(name: &str) -> Result<Dataset, String> {
    if let Some(prefix) = name.strip_prefix("file:") {
        return Ok(Dataset {
            name: prefix.to_string(),
            spec: DatasetSpec::File {
                prefix: prefix.into(),
                directed: false,
            },
            seed: 0,
        });
    }
    let (base, param) = match name.rsplit_once('-') {
        Some((b, p)) if p.chars().all(|c| c.is_ascii_digit()) => (b, Some(p)),
        _ => (name, None),
    };
    let param_usize =
        |default: usize| -> usize { param.and_then(|p| p.parse().ok()).unwrap_or(default) };
    match base {
        "graph500" => {
            let scale = param
                .and_then(|p| p.parse::<u32>().ok())
                .ok_or_else(|| format!("graph500 needs a scale, e.g. graph500-13: {name:?}"))?;
            Ok(Dataset::graph500(scale))
        }
        "snb" => {
            let persons = param
                .and_then(|p| p.parse::<usize>().ok())
                .ok_or_else(|| format!("snb needs a person count, e.g. snb-10000: {name:?}"))?;
            Ok(Dataset::snb(persons))
        }
        "amazon" => Ok(Dataset::real_world(RealWorldGraph::Amazon, param_usize(40))),
        "youtube" => Ok(Dataset::real_world(
            RealWorldGraph::Youtube,
            param_usize(40),
        )),
        "livejournal" => Ok(Dataset::real_world(
            RealWorldGraph::LiveJournal,
            param_usize(40),
        )),
        "patents" => Ok(Dataset::real_world(
            RealWorldGraph::Patents,
            param_usize(40),
        )),
        "wikipedia" => Ok(Dataset::real_world(
            RealWorldGraph::Wikipedia,
            param_usize(40),
        )),
        other => Err(format!("unknown dataset {other:?}")),
    }
}

/// Parses an algorithm name in the configuration syntax (`stats`,
/// `bfs[:<source>]`, `conn`, `cd`, `evo`, `pagerank`, `sssp[:<source>]`,
/// `lcc`) — shared with the HTTP job API.
pub fn parse_algorithm(name: &str) -> Result<Algorithm, String> {
    let (base, param) = match name.split_once(':') {
        Some((b, p)) => (b, Some(p)),
        None => (name, None),
    };
    match base {
        "stats" => Ok(Algorithm::Stats),
        "bfs" => {
            let source = param
                .map(|p| {
                    p.parse::<u64>()
                        .map_err(|_| format!("bad bfs source {p:?}"))
                })
                .transpose()?
                .unwrap_or(0);
            Ok(Algorithm::Bfs { source })
        }
        "conn" => Ok(Algorithm::Conn),
        "cd" => Ok(Algorithm::default_cd()),
        "evo" => Ok(Algorithm::default_evo()),
        "pagerank" | "pr" => Ok(Algorithm::default_pagerank()),
        "sssp" => {
            let source = param
                .map(|p| {
                    p.parse::<u64>()
                        .map_err(|_| format!("bad sssp source {p:?}"))
                })
                .transpose()?
                .unwrap_or(0);
            Ok(Algorithm::Sssp { source })
        }
        "lcc" => Ok(Algorithm::Lcc),
        other => Err(format!("unknown algorithm {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r"
# The paper's Figure 4 configuration, scaled down.
graphs = graph500-13, patents-200, snb-10000
algorithms = stats, bfs:3, conn, cd, evo
platforms = giraph, graphx, mapreduce, neo4j
timeout_secs = 180
repetitions = 2
validate = true
graphx.memory_mb = 11
";

    #[test]
    fn parses_full_specification() {
        let spec = BenchmarkSpec::parse(SAMPLE).unwrap();
        assert_eq!(spec.datasets.len(), 3);
        assert_eq!(spec.datasets[0].name, "Graph500 13");
        assert_eq!(spec.datasets[1].name, "Patents");
        assert_eq!(spec.datasets[2].name, "SNB 10000");
        assert_eq!(spec.algorithms.len(), 5);
        assert_eq!(spec.algorithms[1], Algorithm::Bfs { source: 3 });
        assert_eq!(
            spec.platforms,
            vec!["giraph", "graphx", "mapreduce", "neo4j"]
        );
        assert_eq!(spec.config.repetitions, 2);
        assert_eq!(
            spec.config.timeout,
            Some(std::time::Duration::from_secs(180))
        );
        assert!(spec.config.validate);
        assert_eq!(property(&spec.properties, "graphx.memory_mb"), Ok(Some(11)));
        assert_eq!(
            property::<usize>(&spec.properties, "giraph.workers"),
            Ok(None)
        );
    }

    #[test]
    fn a_malformed_property_is_an_error_not_the_default() {
        let spec = BenchmarkSpec::parse("graphs = graph500-8\ngiraph.workers = four").unwrap();
        let e = property::<usize>(&spec.properties, "giraph.workers").unwrap_err();
        assert_eq!(
            e.to_string(),
            "config error: giraph.workers = \"four\" is not a valid usize"
        );
        assert!(parse_knob::<f64>("GX_FAULT_RATES", " 0.5 ").is_ok());
        assert!(parse_knob::<u64>("GX_SEED", "-1").is_err());
    }

    #[test]
    fn algorithms_default_to_all_five() {
        let spec = BenchmarkSpec::parse("graphs = graph500-8").unwrap();
        let names: Vec<&str> = spec.algorithms.iter().map(|a| a.name()).collect();
        assert_eq!(names, vec!["STATS", "BFS", "CONN", "CD", "EVO"]);
    }

    #[test]
    fn sssp_and_lcc_parse() {
        let spec = BenchmarkSpec::parse("graphs = graph500-8\nalgorithms = sssp:7, lcc").unwrap();
        assert_eq!(spec.algorithms[0], Algorithm::Sssp { source: 7 });
        assert_eq!(spec.algorithms[1], Algorithm::Lcc);
        let spec = BenchmarkSpec::parse("graphs = graph500-8\nalgorithms = sssp").unwrap();
        assert_eq!(spec.algorithms[0], Algorithm::Sssp { source: 0 });
        let e = BenchmarkSpec::parse("graphs = graph500-8\nalgorithms = sssp:x").unwrap_err();
        assert!(e.message.contains("bad sssp source"), "{e}");
    }

    #[test]
    fn file_datasets_and_pagerank() {
        let spec =
            BenchmarkSpec::parse("graphs = file:/data/mygraph\nalgorithms = pagerank").unwrap();
        assert!(matches!(spec.datasets[0].spec, DatasetSpec::File { .. }));
        assert_eq!(spec.algorithms[0], Algorithm::default_pagerank());
    }

    #[test]
    fn real_world_divisors() {
        let spec = BenchmarkSpec::parse("graphs = amazon-80, wikipedia").unwrap();
        assert!(matches!(
            spec.datasets[0].spec,
            DatasetSpec::RealWorld { divisor: 80, .. }
        ));
        assert!(matches!(
            spec.datasets[1].spec,
            DatasetSpec::RealWorld { divisor: 40, .. }
        ));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = BenchmarkSpec::parse("graphs = graph500-8\nbogus line").unwrap_err();
        assert_eq!(e.line, 2);
        let e = BenchmarkSpec::parse("graphs = graph500-8\ngraphs = snb-10").unwrap_err();
        assert!(e.message.contains("duplicate"));
        let e = BenchmarkSpec::parse("graphs = warpdrive-9").unwrap_err();
        assert!(e.message.contains("unknown dataset"), "{e}");
        let e = BenchmarkSpec::parse("").unwrap_err();
        assert!(e.message.contains("no `graphs`"));
    }

    #[test]
    fn bad_values_are_rejected() {
        let e = BenchmarkSpec::parse("graphs = graph500-8\ntimeout_secs = soon").unwrap_err();
        assert!(e.message.contains("timeout_secs"));
        let e = BenchmarkSpec::parse("graphs = graph500-8\nvalidate = maybe").unwrap_err();
        assert!(e.message.contains("validate"));
        let e = BenchmarkSpec::parse("graphs = graph500-8\nalgorithms = sort").unwrap_err();
        assert!(e.message.contains("unknown algorithm"));
        let e = BenchmarkSpec::parse("graphs = graph500").unwrap_err();
        assert!(e.message.contains("scale"));
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let spec = BenchmarkSpec::parse("# hi\n\n// also a comment\ngraphs = snb-100\n").unwrap();
        assert_eq!(spec.datasets.len(), 1);
    }
}
