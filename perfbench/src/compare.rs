//! Compares two results files of the same commit: the benchmark's own
//! steadiness check.

use std::collections::BTreeMap;

use graphalytics_core::json::{self, Json};

use crate::metrics::{Def, END_TO_END};

/// Counts the engines publish that must repeat exactly at a fixed seed.
/// (`distrib.network_bytes` does not: its control frames carry port numbers
/// and clock readings of varying width, some tens of bytes in 7 MB.)
pub const EXACT_COUNTS: &[&str] = &[
    "pregel.supersteps",
    "dataflow.jobs",
    "dataflow.iterations",
    "mapreduce.jobs",
    "columnar.rounds",
    "distrib.supersteps",
    "distrib.messages_remote",
];

/// (workload, trace, seed) → metric values of one results file.
type Runs = BTreeMap<(String, String, String), BTreeMap<String, f64>>;

fn parse(text: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = json::parse(line).ok_or_else(|| format!("line {}: not JSON", i + 1))?;
        let run = doc
            .get("run")
            .ok_or_else(|| format!("line {}: no run stamp", i + 1))?;
        let stamp = |key: &str| {
            run.get(key)
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string()
        };
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            return Err(format!("line {}: no metrics", i + 1));
        };
        let values = metrics
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect();
        runs.insert((stamp("workload"), stamp("trace"), stamp("seed")), values);
    }
    Ok(runs)
}

/// By how large a share of the smaller value two measurements differ.
fn difference(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().min(b.abs())
}

/// The metrics on which the two files disagree: an end-to-end metric by
/// more than its bound, or an exact count at all.
pub fn disagreements(first: &str, second: &str) -> Result<Vec<String>, String> {
    let (first, second) = (parse(first)?, parse(second)?);
    if first.keys().ne(second.keys()) {
        return Err("the two files hold different runs".to_string());
    }
    let mut out = Vec::new();
    for (key, a) in &first {
        let (b, (workload, trace, seed)) = (&second[key], key);
        let mut check = |name: &str, limit: f64| {
            if let (Some(&x), Some(&y)) = (a.get(name), b.get(name)) {
                let diff = difference(x, y);
                let verdict = if diff > limit { "DIFFERS" } else { "agrees" };
                println!(
                    "{workload:<17} seed {seed:<4} {name:<26} {x:>16.6} {y:>16.6} {:>6.2} % of {:>5.1} %  {verdict}",
                    100.0 * diff,
                    100.0 * limit
                );
                if diff > limit {
                    out.push(format!("{workload} seed {seed}: {name} {x} vs {y}"));
                }
            }
        };
        if trace == "0" {
            for Def { name, bound, .. } in END_TO_END {
                check(name, *bound);
            }
        } else {
            for name in EXACT_COUNTS {
                check(name, 0.0);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(workload: &str, trace: u8, metric: &str, value: f64) -> String {
        format!(
            r#"{{"run":{{"workload":"{workload}","trace":"{trace}","seed":"1"}},"metrics":{{"{metric}":{{"value":{value},"unit":"s"}}}}}}"#
        )
    }

    #[test]
    fn end_to_end_metrics_may_differ_by_their_bound_only() {
        let a = line("ingest", 0, "makespan_s", 2.0);
        assert!(disagreements(&a, &line("ingest", 0, "makespan_s", 2.49))
            .unwrap()
            .is_empty());
        assert_eq!(
            disagreements(&a, &line("ingest", 0, "makespan_s", 2.51))
                .unwrap()
                .len(),
            1
        );
        assert_eq!(
            disagreements(&line("ingest", 0, "makespan_s", 2.51), &a)
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn exact_counts_may_not_differ_at_all() {
        let a = line("engine-fleet", 1, "pregel.supersteps", 57.0);
        assert!(disagreements(&a, &a).unwrap().is_empty());
        let b = line("engine-fleet", 1, "pregel.supersteps", 58.0);
        assert_eq!(disagreements(&a, &b).unwrap().len(), 1);
        // Timings of a traced run are not held to anything.
        let (a, b) = (
            line("ingest", 1, "graph.io.read_s", 1.0),
            line("ingest", 1, "graph.io.read_s", 3.0),
        );
        assert!(disagreements(&a, &b).unwrap().is_empty());
    }

    #[test]
    fn files_must_hold_the_same_runs() {
        let a = line("ingest", 0, "makespan_s", 2.0);
        let b = line("serve-closed", 0, "makespan_s", 2.0);
        assert!(disagreements(&a, &b).is_err());
    }
}
