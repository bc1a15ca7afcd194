//! # graphalytics-bench
//!
//! Experiment drivers that regenerate every table and figure of the
//! Graphalytics paper (see DESIGN.md §2 for the index):
//!
//! | target | reproduces |
//! |--------|------------|
//! | `table1` | Table 1 — characteristics of the real-graph stand-ins |
//! | `fig1` | Figure 1 — Datagen degree distributions vs Zeta/Geometric |
//! | `fig3` | Figure 3 — Datagen scalability, single node vs cluster |
//! | `fig4` | Figure 4 — runtimes of all algorithms × platforms × graphs |
//! | `fig5` | Figure 5 — CONN kTEPS per platform and graph |
//! | `sec34` | §3.4 — BFS via transitive SQL on the column store |
//! | `sec35` | §3.5 — code-quality report over this repository |
//!
//! Each binary accepts scale knobs through environment variables
//! (documented per binary) so the experiments can be grown toward the
//! paper's original sizes on bigger machines. The driver binaries share
//! one observability CLI surface ([`ObsArgs`]: `--trace-out`,
//! `--profile-out`, `--threads`) and one artifact writer ([`ObsSession`]);
//! the `bench` binary hosts the perf-regression observatory ([`regress`])
//! and the time-to-failure scale ladder ([`ladder`]).

pub mod ladder;
pub mod obs;
pub mod regress;

pub use obs::{ObsArgs, ObsArtifacts, ObsSession, OBS_USAGE};

use std::str::FromStr;
use std::time::Duration;

use graphalytics_core::config::{parse_knob, ConfigError};
use graphalytics_core::{BenchmarkConfig, Dataset};
use graphalytics_datagen::RealWorldGraph;
use graphalytics_platforms::Properties;

fn env_knob<T: FromStr>(name: &str, default: T) -> Result<T, ConfigError> {
    match std::env::var_os(name) {
        // Bytes that are not Unicode fail to parse like any other typo.
        Some(value) => parse_knob(name, &value.to_string_lossy()),
        None => Ok(default),
    }
}

/// Reads a `usize` knob from the environment: the default when unset, an
/// error naming the knob and its value when set to anything else.
pub fn env_usize(name: &str, default: usize) -> Result<usize, ConfigError> {
    env_knob(name, default)
}

/// Reads a `u64` knob from the environment (see [`env_usize`]).
pub fn env_u64(name: &str, default: u64) -> Result<u64, ConfigError> {
    env_knob(name, default)
}

/// Reads an `f64` knob from the environment (see [`env_usize`]).
pub fn env_f64(name: &str, default: f64) -> Result<f64, ConfigError> {
    env_knob(name, default)
}

/// Reads a comma-separated list knob from the environment (`default` when
/// unset); one malformed element fails the whole knob.
pub fn env_list<T: FromStr>(name: &str, default: &str) -> Result<Vec<T>, ConfigError> {
    let value = env_knob(name, default.to_string())?;
    value
        .split(',')
        .map(|item| parse_knob(name, item))
        .collect()
}

/// Unwraps a driver binary's configuration: a malformed knob, property or
/// platform name prints its error and exits 2, like a malformed command
/// line.
pub fn or_exit<T, E: std::fmt::Display>(configured: Result<T, E>) -> T {
    configured.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

/// The dataset/platform/config setup shared by the figure drivers — one
/// place for the paper's three-graph, four-platform experiment matrix so
/// every binary reads the same knobs and builds the registry's paper fleet
/// from the same properties.
///
/// Knobs: `GX_SCALE` (Graph500 scale, default 13), `GX_DIVISOR` (Patents
/// stand-in divisor, default 200), `GX_PERSONS` (SNB persons, default
/// 10000), `GX_GRAPHX_MB` (GraphX executor budget in MiB, default 11),
/// `GX_TIMEOUT_SECS` (per-run cooperative timeout, default 180).
#[derive(Debug, Clone)]
pub struct PaperSetup {
    /// Graph500 scale (log2 of the vertex count).
    pub scale: u32,
    /// Patents stand-in divisor.
    pub divisor: usize,
    /// SNB persons.
    pub persons: usize,
    /// GraphX executor budget in MiB.
    pub graphx_mb: usize,
    /// Cooperative per-run timeout in seconds.
    pub timeout_secs: u64,
}

impl PaperSetup {
    /// Reads the setup from the environment knobs.
    pub fn from_env() -> Result<Self, ConfigError> {
        Ok(Self {
            scale: env_usize("GX_SCALE", 13)? as u32,
            divisor: env_usize("GX_DIVISOR", 200)?,
            persons: env_usize("GX_PERSONS", 10_000)?,
            graphx_mb: env_usize("GX_GRAPHX_MB", 11)?,
            timeout_secs: env_u64("GX_TIMEOUT_SECS", 180)?,
        })
    }

    /// The paper's three datasets: Graph500, Patents stand-in, SNB.
    pub fn datasets(&self) -> Vec<Dataset> {
        vec![
            Dataset::graph500(self.scale),
            Dataset::real_world(RealWorldGraph::Patents, self.divisor),
            Dataset::snb(self.persons),
        ]
    }

    /// The platform properties of the setup: the GraphX executor budget.
    pub fn properties(&self) -> Properties {
        Properties::from([("graphx.memory_mb".to_string(), self.graphx_mb.to_string())])
    }

    /// A benchmark config with the cooperative timeout applied.
    pub fn config(&self) -> BenchmarkConfig {
        BenchmarkConfig {
            timeout: Some(Duration::from_secs(self.timeout_secs)),
            ..Default::default()
        }
    }

    /// One-line description of the knob values, for stderr banners.
    pub fn describe(&self) -> String {
        format!(
            "Graph500 {}, Patents/{}, SNB {}; GraphX budget {} MiB; timeout {}s",
            self.scale, self.divisor, self.persons, self.graphx_mb, self.timeout_secs
        )
    }
}

/// Renders a simple aligned table: `header` then rows.
pub fn print_table(header: &[&str], rows: &[Vec<String>]) {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let print_row = |cells: &[String]| {
        let line: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| {
                if i == 0 {
                    format!("{c:<w$}", w = widths[i])
                } else {
                    format!("{c:>w$}", w = widths[i])
                }
            })
            .collect();
        println!("{}", line.join("  "));
    };
    print_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1))
    );
    for row in rows {
        print_row(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_knobs_take_defaults_and_malformed_ones_are_errors() {
        assert_eq!(env_usize("GX_DEFINITELY_UNSET_KNOB", 7), Ok(7));
        assert_eq!(env_u64("GX_DEFINITELY_UNSET_KNOB", 9), Ok(9));
        assert_eq!(env_f64("GX_DEFINITELY_UNSET_KNOB", 0.5), Ok(0.5));
        assert_eq!(
            env_list::<f64>("GX_DEFINITELY_UNSET_KNOB", "0.02,0.1"),
            Ok(vec![0.02, 0.1])
        );
        // Each case owns its variable: tests share the process environment.
        std::env::set_var("GX_TEST_KNOB_OK", " 42 ");
        assert_eq!(env_usize("GX_TEST_KNOB_OK", 7), Ok(42));
        // The scale that used to run as the default 13.
        std::env::set_var("GX_TEST_KNOB_SCALE", "1e4");
        let e = env_usize("GX_TEST_KNOB_SCALE", 13).unwrap_err();
        assert_eq!(
            e.to_string(),
            "config error: GX_TEST_KNOB_SCALE = \"1e4\" is not a valid usize"
        );
        assert!(env_u64("GX_TEST_KNOB_SCALE", 13).is_err());
        assert_eq!(env_f64("GX_TEST_KNOB_SCALE", 1.0), Ok(1e4));
        std::env::set_var("GX_TEST_KNOB_EMPTY", "");
        assert!(env_f64("GX_TEST_KNOB_EMPTY", 1.0).is_err());
        // One bad rate used to be dropped from the list.
        std::env::set_var("GX_TEST_KNOB_RATES", "0.02,five,0.1");
        let e = env_list::<f64>("GX_TEST_KNOB_RATES", "0.5").unwrap_err();
        assert_eq!(
            e.message,
            "GX_TEST_KNOB_RATES = \"five\" is not a valid f64"
        );
    }
}
