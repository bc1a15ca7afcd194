//! HTML report rendering.
//!
//! The Report Generator "produces the main outcome of Graphalytics, a
//! detailed report" (paper §2.3); the original harness renders it as HTML
//! for the browser. This module renders a [`SuiteResult`] as a standalone
//! HTML document: runtime matrices per dataset, the CONN throughput table,
//! ETL times, and the validation summary, with failure cells highlighted.

use crate::report::validation_counts;
use crate::runner::{RunStatus, SuiteResult};
use crate::trace::MetricsRegistry;
use crate::validator::Validation;
use std::fmt::Write as _;

/// Escapes text for HTML and XML: `&`, `<`, `>` and `"`.
pub fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
    out
}

fn runtime_cell_html(result: &SuiteResult, platform: &str, dataset: &str, alg: &str) -> String {
    match result.find(platform, dataset, alg) {
        Some(r) => match (&r.status, r.runtime_seconds) {
            (RunStatus::Success, Some(t)) => {
                let class = if r.validation.is_valid() || r.validation == Validation::Skipped {
                    "ok"
                } else {
                    "invalid"
                };
                format!("<td class=\"{class}\">{t:.3}</td>")
            }
            (RunStatus::Timeout, _) => "<td class=\"dnf\">DNF</td>".to_string(),
            (RunStatus::Failed(reason), _) => {
                format!("<td class=\"fail\" title=\"{}\">—</td>", escape(reason))
            }
            _ => "<td></td>".to_string(),
        },
        None => "<td></td>".to_string(),
    }
}

/// Renders the full HTML report document.
pub fn html_report(result: &SuiteResult, title: &str) -> String {
    html_report_with(result, title, None, &[])
}

/// Renders the run-latency quantile table from the per-platform
/// `graphalytics_run_seconds` histograms: p50/p95/p99 via the
/// histogram's bucket-interpolation estimator.
fn quantile_table(out: &mut String, metrics: &MetricsRegistry) {
    let mut series = metrics.histograms_named("graphalytics_run_seconds");
    if series.is_empty() {
        return;
    }
    series.sort_by(|a, b| a.0.cmp(&b.0));
    out.push_str(
        "<table><caption>Run latency quantiles [s]</caption>\
         <tr><th>Platform</th><th>Runs</th><th>p50</th><th>p95</th><th>p99</th></tr>",
    );
    for (labels, h) in series {
        let platform = labels
            .iter()
            .find(|(k, _)| k == "platform")
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| "all".to_string());
        let q = |p: f64| match h.quantile(p) {
            Some(v) => format!("{v:.3}"),
            None => "—".to_string(),
        };
        let _ = write!(
            out,
            "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
            escape(&platform),
            h.count,
            q(0.50),
            q(0.95),
            q(0.99),
        );
    }
    out.push_str("</table>");
}

/// Renders the full HTML report with optional observability extensions:
/// a run-latency quantile table when a metrics registry is supplied, and
/// caller-provided extra sections (e.g. the choke-point attribution
/// table) spliced in before the validation summary.
pub fn html_report_with(
    result: &SuiteResult,
    title: &str,
    metrics: Option<&MetricsRegistry>,
    extra_sections: &[String],
) -> String {
    let platforms = result.platforms();
    let mut out = String::new();
    let _ = write!(
        out,
        "<!DOCTYPE html><html><head><meta charset=\"utf-8\">\
         <title>Graphalytics — {t}</title><style>\
         body{{font-family:sans-serif;margin:2em}}\
         table{{border-collapse:collapse;margin:1em 0}}\
         th,td{{border:1px solid #999;padding:4px 10px;text-align:right}}\
         th:first-child,td:first-child{{text-align:left}}\
         td.fail{{background:#fdd}}td.dnf{{background:#ffd}}\
         td.invalid{{background:#f99}}\
         caption{{font-weight:bold;text-align:left;padding:4px 0}}\
         </style></head><body><h1>Graphalytics benchmark report — {t}</h1>",
        t = escape(title)
    );

    for dataset in result.datasets() {
        let _ = write!(
            out,
            "<table><caption>Runtimes [s] — {}</caption><tr><th>Algorithm</th>",
            escape(&dataset)
        );
        for p in &platforms {
            let _ = write!(out, "<th>{}</th>", escape(p));
        }
        out.push_str("</tr>");
        for alg in result.algorithms() {
            let _ = write!(out, "<tr><td>{}</td>", escape(&alg));
            for p in &platforms {
                out.push_str(&runtime_cell_html(result, p, &dataset, &alg));
            }
            out.push_str("</tr>");
        }
        out.push_str("</table>");
    }

    if result.algorithms().iter().any(|a| a == "CONN") {
        out.push_str("<table><caption>CONN throughput [kTEPS]</caption><tr><th>Dataset</th>");
        for p in &platforms {
            let _ = write!(out, "<th>{}</th>", escape(p));
        }
        out.push_str("</tr>");
        for dataset in result.datasets() {
            let _ = write!(out, "<tr><td>{}</td>", escape(&dataset));
            for p in &platforms {
                let cell = match result.find(p, &dataset, "CONN") {
                    Some(r) if r.status.is_success() => match r.teps {
                        Some(t) => format!("<td>{:.0}</td>", t / 1e3),
                        None => "<td class=\"fail\">—</td>".to_string(),
                    },
                    Some(_) => "<td class=\"fail\">—</td>".to_string(),
                    None => "<td></td>".to_string(),
                };
                out.push_str(&cell);
            }
            out.push_str("</tr>");
        }
        out.push_str("</table>");
    }

    if !result.loads.is_empty() {
        out.push_str(
            "<table><caption>ETL (graph load) times</caption>\
             <tr><th>Platform</th><th>Dataset</th><th>Load [s]</th></tr>",
        );
        for l in &result.loads {
            let cell = match l.load_seconds {
                Some(t) => format!("{t:.4}"),
                None => format!("failed: {}", escape(l.error.as_deref().unwrap_or("?"))),
            };
            let _ = write!(
                out,
                "<tr><td>{}</td><td>{}</td><td>{}</td></tr>",
                escape(&l.platform),
                escape(&l.dataset),
                cell
            );
        }
        out.push_str("</table>");
    }

    // Per-run phase timeline: how each run's wall time divides into the
    // tracer's phases, with the resource peaks sampled alongside.
    let timed: Vec<_> = result
        .runs
        .iter()
        .filter(|r| !r.timeline.is_empty())
        .collect();
    if !timed.is_empty() {
        let mut phase_names: Vec<String> = Vec::new();
        for r in &timed {
            for name in r.timeline.phase_names() {
                if !phase_names.contains(&name) {
                    phase_names.push(name);
                }
            }
        }
        out.push_str(
            "<table><caption>Per-run phase timeline</caption>\
             <tr><th>Platform</th><th>Dataset</th><th>Algorithm</th>",
        );
        for name in &phase_names {
            let _ = write!(out, "<th>{} [s]</th>", escape(name));
        }
        out.push_str("<th>Wall [s]</th><th>Peak RSS [MiB]</th><th>Avg CPU</th></tr>");
        for r in &timed {
            let _ = write!(
                out,
                "<tr><td>{}</td><td>{}</td><td>{}</td>",
                escape(&r.platform),
                escape(&r.dataset),
                escape(&r.algorithm)
            );
            for name in &phase_names {
                let secs = r.timeline.phase_seconds(name);
                if secs > 0.0 {
                    let _ = write!(out, "<td>{secs:.3}</td>");
                } else {
                    out.push_str("<td></td>");
                }
            }
            let _ = write!(
                out,
                "<td>{:.3}</td><td>{:.1}</td><td>{:.2}</td></tr>",
                r.wall_seconds,
                r.peak_rss_bytes as f64 / (1024.0 * 1024.0),
                r.avg_cpu_utilization
            );
        }
        out.push_str("</table>");
    }

    if let Some(metrics) = metrics {
        quantile_table(&mut out, metrics);
    }
    for section in extra_sections {
        out.push_str(section);
    }

    let (valid, invalid, skipped) = validation_counts(result);
    let _ = write!(
        out,
        "<p>Validation: {valid} valid, {invalid} invalid, {skipped} skipped.</p>\
         </body></html>"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{LoadRecord, RunRecord};
    use crate::trace::RunTimeline;

    fn record(platform: &str, alg: &str, status: RunStatus) -> RunRecord {
        let ok = matches!(status, RunStatus::Success);
        RunRecord {
            platform: platform.into(),
            dataset: "Patents".into(),
            algorithm: alg.into(),
            status,
            runtime_seconds: ok.then_some(1.5),
            repetition_seconds: vec![],
            teps: ok.then_some(2_000.0),
            validation: if ok {
                Validation::Valid
            } else {
                Validation::Skipped
            },
            output_summary: String::new(),
            peak_rss_bytes: 0,
            avg_cpu_utilization: 0.0,
            wall_seconds: 0.0,
            timeline: RunTimeline::default(),
            retries: 0,
        }
    }

    fn sample() -> SuiteResult {
        SuiteResult {
            runs: vec![
                record("Giraph", "CONN", RunStatus::Success),
                record("GraphX", "CONN", RunStatus::Failed("oom <2>".into())),
                record("MapReduce", "CONN", RunStatus::Timeout),
            ],
            loads: vec![LoadRecord {
                platform: "Giraph".into(),
                dataset: "Patents".into(),
                load_seconds: Some(0.01),
                error: None,
            }],
        }
    }

    #[test]
    fn renders_complete_document() {
        let html = html_report(&sample(), "test & demo");
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.ends_with("</html>"));
        assert!(html.contains("test &amp; demo"));
        assert!(html.contains("Runtimes [s] — Patents"));
        assert!(html.contains("CONN throughput"));
        assert!(html.contains("ETL (graph load) times"));
        assert!(html.contains("Validation: 1 valid, 0 invalid, 2 skipped."));
    }

    #[test]
    fn failure_cells_are_marked_and_escaped() {
        let html = html_report(&sample(), "t");
        assert!(html.contains("class=\"fail\" title=\"oom &lt;2&gt;\""));
        assert!(html.contains("class=\"dnf\">DNF"));
        assert!(html.contains("class=\"ok\">1.500"));
    }

    #[test]
    fn phase_timeline_table_renders_per_run_breakdown() {
        let mut result = sample();
        result.runs[0].wall_seconds = 2.0;
        result.runs[0].peak_rss_bytes = 3 * 1024 * 1024;
        result.runs[0].avg_cpu_utilization = 1.25;
        result.runs[0]
            .timeline
            .push(crate::trace::phase::LOAD, 0.0, 0.4);
        result.runs[0]
            .timeline
            .push(crate::trace::phase::EXECUTE, 0.4, 1.5);
        let html = html_report(&result, "t");
        assert!(html.contains("Per-run phase timeline"), "{html}");
        assert!(html.contains("<th>load [s]</th>"), "{html}");
        assert!(html.contains("<th>execute [s]</th>"), "{html}");
        assert!(html.contains("<td>0.400</td>"), "{html}");
        assert!(html.contains("<td>1.500</td>"), "{html}");
        assert!(html.contains("<td>3.0</td>"), "{html}");
        assert!(html.contains("<td>1.25</td>"), "{html}");
        // Runs without a timeline stay out of the table.
        assert_eq!(html.matches("Per-run phase timeline").count(), 1);
    }

    #[test]
    fn quantile_table_renders_from_registry() {
        let metrics = MetricsRegistry::new();
        for v in [0.2, 0.4, 0.6] {
            metrics.observe("graphalytics_run_seconds", &[("platform", "Giraph")], v);
        }
        let html = html_report_with(&sample(), "t", Some(&metrics), &[]);
        assert!(html.contains("Run latency quantiles"), "{html}");
        assert!(html.contains("<td>Giraph</td><td>3</td>"), "{html}");
        // Without a registry (or with no series) the table is absent.
        assert!(!html_report(&sample(), "t").contains("Run latency quantiles"));
        let empty = MetricsRegistry::new();
        assert!(
            !html_report_with(&sample(), "t", Some(&empty), &[]).contains("Run latency quantiles")
        );
    }

    #[test]
    fn extra_sections_splice_before_validation_summary() {
        let section =
            "<h2>Choke-point attribution</h2><table><tr><td>x</td></tr></table>".to_string();
        let html = html_report_with(&sample(), "t", None, &[section]);
        let choke = html.find("Choke-point attribution").unwrap();
        let validation = html.find("Validation:").unwrap();
        assert!(choke < validation);
        assert!(html.ends_with("</html>"));
    }

    #[test]
    fn escape_covers_special_characters() {
        assert_eq!(escape("a<b>&\"c"), "a&lt;b&gt;&amp;&quot;c");
        assert_eq!(escape("plain"), "plain");
    }

    #[test]
    fn balanced_tags() {
        let html = html_report(&sample(), "t");
        assert_eq!(
            html.matches("<table>").count(),
            html.matches("</table>").count()
        );
        assert_eq!(html.matches("<tr>").count(), html.matches("</tr>").count());
        let td_open = html.matches("<td").count();
        let td_close = html.matches("</td>").count();
        assert_eq!(td_open, td_close);
    }
}
