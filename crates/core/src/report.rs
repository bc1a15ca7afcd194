//! Report Generator: "produces the main outcome of Graphalytics, a detailed
//! report on the performance of the SUT during the benchmark, which
//! includes all relevant configuration information" (paper §2.3).
//!
//! Produces the paper's presentation formats: the runtime matrix of
//! Figure 4 (algorithms × platforms per dataset, failures as missing
//! values), the TEPS table of Figure 5, and a machine-readable JSON
//! document for the results database.

use crate::json::Json;
use crate::runner::{RunRecord, RunStatus, SuiteResult};
use crate::validator::Validation;
use std::fmt::Write as _;

/// Formats a runtime cell: seconds with adaptive precision, or the
/// missing-value marker the paper uses for failures.
fn runtime_cell(record: Option<&RunRecord>) -> String {
    match record {
        Some(r) => match (&r.status, r.runtime_seconds) {
            (RunStatus::Success, Some(t)) => {
                if t >= 100.0 {
                    format!("{t:.0}")
                } else if t >= 1.0 {
                    format!("{t:.1}")
                } else {
                    format!("{t:.3}")
                }
            }
            (RunStatus::Timeout, _) => "DNF".to_string(),
            _ => "—".to_string(),
        },
        None => "".to_string(),
    }
}

/// Renders a fixed-width text table: first column left-aligned, the rest
/// right-aligned, two spaces between columns, a dashed rule under the
/// header.
pub fn render_table(header: &[impl AsRef<str>], rows: &[Vec<String>]) -> String {
    fn push_row(cells: &[impl AsRef<str>], widths: &[usize], out: &mut String) {
        for (i, cell) in cells.iter().enumerate() {
            let cell = cell.as_ref();
            if i > 0 {
                out.push_str("  ");
            }
            let pad = widths[i].saturating_sub(cell.chars().count());
            if i == 0 {
                out.push_str(cell);
                out.extend(std::iter::repeat_n(' ', pad));
            } else {
                out.extend(std::iter::repeat_n(' ', pad));
                out.push_str(cell);
            }
        }
        out.push('\n');
    }
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.as_ref().chars().count()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.chars().count());
        }
    }
    let mut out = String::new();
    push_row(header, &widths, &mut out);
    let total: usize = widths.iter().sum::<usize>() + 2 * cols.saturating_sub(1);
    out.extend(std::iter::repeat_n('-', total));
    out.push('\n');
    for row in rows {
        push_row(row, &widths, &mut out);
    }
    out
}

/// The Figure-4-style runtime matrix for one dataset: one row per
/// algorithm, one column per platform, failures shown as "—" and timeouts
/// as "DNF". Runtimes are in seconds.
pub fn runtime_matrix(result: &SuiteResult, dataset: &str) -> String {
    let platforms = result.platforms();
    let algorithms = result.algorithms();
    let mut header = vec![format!("{dataset} [s]")];
    header.extend(platforms.iter().cloned());
    let rows: Vec<Vec<String>> = algorithms
        .iter()
        .map(|alg| {
            let mut row = vec![alg.clone()];
            for p in &platforms {
                row.push(runtime_cell(result.find(p, dataset, alg)));
            }
            row
        })
        .collect();
    render_table(&header, &rows)
}

/// The Figure-5-style kTEPS table for one algorithm: one row per dataset,
/// one column per platform.
pub fn kteps_table(result: &SuiteResult, algorithm: &str) -> String {
    let platforms = result.platforms();
    let datasets = result.datasets();
    let mut header = vec![format!("{algorithm} [kTEPS]")];
    header.extend(platforms.iter().cloned());
    let rows: Vec<Vec<String>> = datasets
        .iter()
        .map(|d| {
            let mut row = vec![d.clone()];
            for p in &platforms {
                let cell = match result.find(p, d, algorithm) {
                    Some(r) if r.status.is_success() => match r.teps {
                        Some(t) => format!("{:.0}", t / 1e3),
                        None => "—".into(),
                    },
                    Some(_) => "—".into(),
                    None => "".into(),
                };
                row.push(cell);
            }
            row
        })
        .collect();
    render_table(&header, &rows)
}

/// The full human-readable benchmark report: configuration echo, per-
/// dataset runtime matrices, the CONN TEPS table, ETL times, and the
/// validation summary.
pub fn full_report(result: &SuiteResult, title: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# Graphalytics benchmark report — {title}\n");
    let _ = writeln!(
        out,
        "Platforms: {}\nDatasets: {}\nAlgorithms: {}\n",
        result.platforms().join(", "),
        result.datasets().join(", "),
        result.algorithms().join(", ")
    );
    for dataset in result.datasets() {
        let _ = writeln!(out, "## Runtimes — {dataset}\n");
        out.push_str(&runtime_matrix(result, &dataset));
        out.push('\n');
    }
    if result.algorithms().iter().any(|a| a == "CONN") {
        let _ = writeln!(out, "## CONN throughput\n");
        out.push_str(&kteps_table(result, "CONN"));
        out.push('\n');
    }
    if !result.loads.is_empty() {
        let _ = writeln!(out, "## ETL (graph load) times\n");
        let header = vec![
            "Platform".to_string(),
            "Dataset".to_string(),
            "Load [s]".to_string(),
        ];
        let rows: Vec<Vec<String>> = result
            .loads
            .iter()
            .map(|l| {
                vec![
                    l.platform.clone(),
                    l.dataset.clone(),
                    match l.load_seconds {
                        Some(t) => format!("{t:.3}"),
                        None => format!("failed: {}", l.error.as_deref().unwrap_or("?")),
                    },
                ]
            })
            .collect();
        out.push_str(&render_table(&header, &rows));
        out.push('\n');
    }
    let _ = writeln!(out, "## Validation\n");
    let (valid, invalid, skipped) = validation_counts(result);
    let _ = writeln!(
        out,
        "valid: {valid}, invalid: {invalid}, skipped: {skipped}\n"
    );
    for r in &result.runs {
        if let Validation::Invalid(msg) = &r.validation {
            let _ = writeln!(
                out,
                "INVALID {}/{}/{}: {msg}",
                r.platform, r.dataset, r.algorithm
            );
        }
    }
    out
}

/// Counts validation outcomes `(valid, invalid, skipped)`.
pub fn validation_counts(result: &SuiteResult) -> (usize, usize, usize) {
    let mut counts = (0usize, 0usize, 0usize);
    for r in &result.runs {
        match &r.validation {
            Validation::Valid => counts.0 += 1,
            Validation::Invalid(_) => counts.1 += 1,
            Validation::Skipped => counts.2 += 1,
        }
    }
    counts
}

/// Converts one run record to its JSON representation.
pub fn record_to_json(r: &RunRecord) -> Json {
    Json::obj([
        ("platform", Json::from(r.platform.clone())),
        ("dataset", Json::from(r.dataset.clone())),
        ("algorithm", Json::from(r.algorithm.clone())),
        (
            "status",
            Json::from(match &r.status {
                RunStatus::Success => "success".to_string(),
                RunStatus::Timeout => "timeout".to_string(),
                RunStatus::Failed(e) => format!("failed: {e}"),
            }),
        ),
        (
            "runtime_seconds",
            r.runtime_seconds.map(Json::from).unwrap_or(Json::Null),
        ),
        (
            "repetitions",
            Json::Arr(
                r.repetition_seconds
                    .iter()
                    .map(|&t| Json::from(t))
                    .collect(),
            ),
        ),
        ("teps", r.teps.map(Json::from).unwrap_or(Json::Null)),
        (
            "validation",
            Json::from(match &r.validation {
                Validation::Valid => "valid".to_string(),
                Validation::Invalid(m) => format!("invalid: {m}"),
                Validation::Skipped => "skipped".to_string(),
            }),
        ),
        ("output", Json::from(r.output_summary.clone())),
        ("peak_rss_bytes", Json::from(r.peak_rss_bytes as usize)),
        ("avg_cpu_utilization", Json::from(r.avg_cpu_utilization)),
        ("wall_seconds", Json::from(r.wall_seconds)),
        ("phases", r.timeline.to_json()),
    ])
}

/// Converts a full suite result to a JSON document.
pub fn result_to_json(result: &SuiteResult, title: &str) -> Json {
    Json::obj([
        ("title", Json::from(title)),
        (
            "runs",
            Json::Arr(result.runs.iter().map(record_to_json).collect()),
        ),
        (
            "loads",
            Json::Arr(
                result
                    .loads
                    .iter()
                    .map(|l| {
                        Json::obj([
                            ("platform", Json::from(l.platform.clone())),
                            ("dataset", Json::from(l.dataset.clone())),
                            (
                                "load_seconds",
                                l.load_seconds.map(Json::from).unwrap_or(Json::Null),
                            ),
                            (
                                "error",
                                l.error.clone().map(Json::from).unwrap_or(Json::Null),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::LoadRecord;

    fn record(platform: &str, dataset: &str, alg: &str, status: RunStatus) -> RunRecord {
        let success = matches!(status, RunStatus::Success);
        RunRecord {
            platform: platform.into(),
            dataset: dataset.into(),
            algorithm: alg.into(),
            status,
            runtime_seconds: success.then_some(12.34),
            repetition_seconds: if success { vec![12.34] } else { vec![] },
            teps: success.then_some(45_000.0),
            validation: if success {
                Validation::Valid
            } else {
                Validation::Skipped
            },
            output_summary: "ok".into(),
            peak_rss_bytes: 1024,
            avg_cpu_utilization: 1.5,
            wall_seconds: if success { 13.0 } else { 0.0 },
            timeline: {
                let mut t = crate::trace::RunTimeline::default();
                if success {
                    t.push(crate::trace::phase::EXECUTE, 0.0, 12.34);
                    t.push(crate::trace::phase::VALIDATE, 12.34, 0.1);
                }
                t
            },
            retries: 0,
        }
    }

    fn sample_result() -> SuiteResult {
        SuiteResult {
            runs: vec![
                record("Giraph", "Patents", "BFS", RunStatus::Success),
                record("GraphX", "Patents", "BFS", RunStatus::Failed("oom".into())),
                record("Giraph", "Patents", "CONN", RunStatus::Success),
                record("GraphX", "Patents", "CONN", RunStatus::Timeout),
            ],
            loads: vec![LoadRecord {
                platform: "Giraph".into(),
                dataset: "Patents".into(),
                load_seconds: Some(0.5),
                error: None,
            }],
        }
    }

    #[test]
    fn runtime_matrix_shows_failures_as_missing() {
        let table = runtime_matrix(&sample_result(), "Patents");
        assert!(table.contains("BFS"), "{table}");
        assert!(table.contains("—"), "{table}");
        assert!(table.contains("DNF"), "{table}");
        assert!(table.contains("12.3"), "{table}");
    }

    #[test]
    fn kteps_table_converts_units() {
        let table = kteps_table(&sample_result(), "CONN");
        // 45_000 TEPS = 45 kTEPS.
        assert!(table.contains("45"), "{table}");
        assert!(table.contains("—"), "{table}");
    }

    #[test]
    fn full_report_sections() {
        let report = full_report(&sample_result(), "unit test");
        assert!(report.contains("# Graphalytics benchmark report"));
        assert!(report.contains("## Runtimes — Patents"));
        assert!(report.contains("## CONN throughput"));
        assert!(report.contains("## ETL"));
        assert!(report.contains("valid: 2, invalid: 0, skipped: 2"));
    }

    #[test]
    fn invalid_runs_are_called_out() {
        let mut result = sample_result();
        result.runs[0].validation = Validation::Invalid("depth mismatch".into());
        let report = full_report(&result, "t");
        assert!(report.contains("INVALID Giraph/Patents/BFS"));
    }

    #[test]
    fn json_round_trips_through_parser() {
        let doc = result_to_json(&sample_result(), "json test");
        let text = doc.to_string_compact();
        let back = crate::json::parse(&text).unwrap();
        assert_eq!(back, doc);
        assert_eq!(back.get("title").unwrap().as_str(), Some("json test"));
    }

    #[test]
    fn records_carry_phase_breakdown_and_resource_peaks() {
        let doc = record_to_json(&record("p", "d", "a", RunStatus::Success));
        assert_eq!(doc.get("wall_seconds").and_then(Json::as_f64), Some(13.0));
        assert_eq!(
            doc.get("peak_rss_bytes").and_then(Json::as_f64),
            Some(1024.0)
        );
        let phases = doc.get("phases").unwrap();
        assert_eq!(phases.get("execute").and_then(Json::as_f64), Some(12.34));
        assert_eq!(phases.get("validate").and_then(Json::as_f64), Some(0.1));
    }

    #[test]
    fn runtime_cell_formatting() {
        let mut r = record("p", "d", "a", RunStatus::Success);
        r.runtime_seconds = Some(0.001234);
        assert_eq!(runtime_cell(Some(&r)), "0.001");
        r.runtime_seconds = Some(5.67);
        assert_eq!(runtime_cell(Some(&r)), "5.7");
        r.runtime_seconds = Some(6179.0);
        assert_eq!(runtime_cell(Some(&r)), "6179");
        assert_eq!(runtime_cell(None), "");
    }
}
