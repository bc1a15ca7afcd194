//! `bench datagen` — the "Add graphs" step of the user workflow (paper
//! §2.3): "users can generate synthetic graphs using Datagen".
//!
//! ```text
//! bench datagen <kind> <output-prefix> [key=value ...]
//!
//! kinds:
//!   snb         person-knows-person network        (persons=10000)
//!   graph500    R-MAT, Graph500 parameters         (scale=13)
//!   amazon|youtube|livejournal|patents|wikipedia   (divisor=40)
//!
//! common keys: seed=42
//! snb keys:    distribution=facebook:16|zeta:1.7|geometric:0.12|
//!              poisson:8|weibull:6:1.2, window=64, max_degree=0 (off),
//!              target_cc=<f64> and target_assortativity=<f64> (rewiring)
//! ```
//!
//! Writes `<prefix>.v` / `<prefix>.e` plus a `<prefix>.properties` file
//! describing the generated graph — the "configuration files associated
//! with these graphs" the paper's workflow hands to users. A key the kind
//! does not take, an argument without `=` and a value that does not parse
//! are errors (exit 2), never a silently generated default graph.

use graphalytics_core::config::{parse_knob, property, ConfigError};
use graphalytics_datagen::{
    generate, rewire, DatagenConfig, DegreeDistribution, RealWorldGraph, RewireTargets, RmatConfig,
};
use graphalytics_graph::{io, metrics, EdgeListGraph};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use crate::Args;

fn error(message: String) -> ConfigError {
    ConfigError { line: 0, message }
}

/// The `key=value` arguments of one invocation, each a key the kind takes.
fn options(args: &[String], known: &[&str]) -> Result<BTreeMap<String, String>, ConfigError> {
    let mut options = BTreeMap::new();
    for arg in args {
        let Some((key, value)) = arg.split_once('=') else {
            return Err(error(format!("expected key=value, got {arg:?}")));
        };
        let key = key.to_lowercase();
        if !known.contains(&key.as_str()) {
            let known = known.join(", ");
            return Err(error(format!("unknown key {key:?} (known: {known})")));
        }
        options.insert(key, value.to_string());
    }
    Ok(options)
}

fn parse_distribution(spec: &str) -> Result<DegreeDistribution, ConfigError> {
    let parts: Vec<&str> = spec.split(':').collect();
    let num = |i: usize, default: f64| match parts.get(i) {
        Some(part) => parse_knob("distribution", part),
        None => Ok(default),
    };
    match parts[0] {
        "facebook" => Ok(DegreeDistribution::Facebook(num(1, 16.0)?)),
        "zeta" => Ok(DegreeDistribution::Zeta(num(1, 1.7)?)),
        "geometric" => Ok(DegreeDistribution::Geometric(num(1, 0.12)?)),
        "poisson" => Ok(DegreeDistribution::Poisson(num(1, 8.0)?)),
        "weibull" => Ok(DegreeDistribution::Weibull(num(1, 6.0)?, num(2, 1.2)?)),
        other => Err(error(format!("unknown distribution {other:?}"))),
    }
}

fn generate_graph(kind: &str, args: &[String]) -> Result<(EdgeListGraph, String), ConfigError> {
    match kind {
        "snb" => {
            let opts = options(
                args,
                &[
                    "seed",
                    "persons",
                    "distribution",
                    "window",
                    "max_degree",
                    "target_cc",
                    "target_assortativity",
                ],
            )?;
            let seed: u64 = property(&opts, "seed")?.unwrap_or(42);
            let distribution = match opts.get("distribution") {
                Some(spec) => parse_distribution(spec)?,
                None => DegreeDistribution::Facebook(16.0),
            };
            let max_degree: usize = property(&opts, "max_degree")?.unwrap_or(0);
            let cfg = DatagenConfig {
                num_persons: property(&opts, "persons")?.unwrap_or(10_000),
                seed,
                degree_distribution: distribution,
                window_size: property(&opts, "window")?.unwrap_or(64),
                max_degree: (max_degree > 0).then_some(max_degree),
                ..Default::default()
            };
            let mut graph = generate(&cfg);
            let mut description = format!("snb persons={} seed={seed}", cfg.num_persons);
            let targets = RewireTargets {
                global_cc: property(&opts, "target_cc")?,
                assortativity: property(&opts, "target_assortativity")?,
            };
            if targets.global_cc.is_some() || targets.assortativity.is_some() {
                let budget = graph.num_edges() * 20;
                let (rewired, report) = rewire(&graph, &targets, seed ^ 0x5357, budget);
                graph = rewired;
                description.push_str(&format!(
                    " rewired(accepted={} cc={:.4} assortativity={:+.4})",
                    report.accepted, report.global_cc, report.assortativity
                ));
            }
            Ok((graph, description))
        }
        "graph500" => {
            let opts = options(args, &["seed", "scale"])?;
            let seed: u64 = property(&opts, "seed")?.unwrap_or(42);
            let scale: u32 = property(&opts, "scale")?.unwrap_or(13);
            let cfg = RmatConfig::graph500(scale, seed);
            Ok((
                graphalytics_datagen::rmat::generate(&cfg),
                format!("graph500 scale={scale} seed={seed}"),
            ))
        }
        other => {
            let mut graphs = RealWorldGraph::all().into_iter();
            let Some(graph) = graphs.find(|g| g.name().to_lowercase() == other) else {
                return Err(error(format!(
                    "unknown kind {other:?} (snb, graph500, amazon, youtube, livejournal, \
                     patents, wikipedia)"
                )));
            };
            let opts = options(args, &["seed", "divisor"])?;
            let seed: u64 = property(&opts, "seed")?.unwrap_or(42);
            let divisor: usize = property(&opts, "divisor")?.unwrap_or(40);
            let (standin, report) = graph.generate_standin(divisor, seed);
            Ok((
                standin,
                format!(
                    "{other} divisor={divisor} seed={seed} rewired(cc={:.4} \
                     assortativity={:+.4})",
                    report.global_cc, report.assortativity
                ),
            ))
        }
    }
}

/// `bench datagen`.
pub fn run(args: &Args) -> ExitCode {
    let [kind, prefix, options @ ..] = args.positional.as_slice() else {
        eprintln!("bench datagen needs a <kind> and an <output-prefix>");
        eprintln!("see `bench datagen --help` and the module docs for kinds and keys");
        return ExitCode::from(2);
    };
    let kind = kind.to_lowercase();
    let prefix = Path::new(prefix);

    eprintln!("generating {kind} graph...");
    let (graph, description) = match generate_graph(&kind, options) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = io::write_graph(&graph, prefix) {
        eprintln!("cannot write {}: {e}", prefix.display());
        return ExitCode::FAILURE;
    }
    let c = metrics::characteristics(&graph);
    let properties = format!(
        "# generated by graphalytics datagen\n\
         source = {description}\n\
         vertices = {}\n\
         edges = {}\n\
         directed = false\n\
         global_cc = {:.6}\n\
         avg_local_cc = {:.6}\n\
         assortativity = {:.6}\n",
        c.num_vertices, c.num_edges, c.global_cc, c.avg_local_cc, c.assortativity
    );
    let props_path = prefix.with_extension("properties");
    if let Err(e) = std::fs::write(&props_path, properties) {
        eprintln!("warning: cannot write {}: {e}", props_path.display());
    }
    println!(
        "wrote {}.v / {}.e ({} vertices, {} edges) and {}",
        prefix.display(),
        prefix.display(),
        c.num_vertices,
        c.num_edges,
        props_path.display()
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn error(kind: &str, args: &[&str]) -> String {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        generate_graph(kind, &args).map(|_| ()).unwrap_err().message
    }

    /// Each of these used to generate the default graph without a word.
    #[test]
    fn malformed_arguments_are_errors_naming_key_and_value() {
        assert_eq!(
            error("snb", &["persons=1e4"]),
            "persons = \"1e4\" is not a valid usize"
        );
        assert_eq!(
            error("graph500", &["seed=-1"]),
            "seed = \"-1\" is not a valid u64"
        );
        assert_eq!(
            error("snb", &["distribution=zeta:abc"]),
            "distribution = \"abc\" is not a valid f64"
        );
        assert_eq!(
            error("snb", &["persons"]),
            "expected key=value, got \"persons\""
        );
        let typo = error("snb", &["person=800"]);
        assert!(
            typo.starts_with("unknown key \"person\" (known: seed, persons,"),
            "{typo}"
        );
        // A key of another kind is as unknown as a typo.
        assert!(error("graph500", &["persons=800"]).starts_with("unknown key"));
    }

    #[test]
    fn well_formed_arguments_reach_the_generator() {
        let args = [
            "Persons=300".to_string(),
            "distribution=weibull:5".to_string(),
        ];
        let (graph, description) = generate_graph("snb", &args).unwrap();
        assert_eq!(description, "snb persons=300 seed=42");
        assert!(graph.num_edges() > 0);
    }
}
