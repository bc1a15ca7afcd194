//! The choke-point attribution engine.
//!
//! The paper selects workloads by the *choke points* they stress (§2.1):
//! network traffic, memory pressure, access locality, and workload skew.
//! This module walks a run's span tree and attributes its counters onto
//! those four axes, producing one report per `run` span:
//!
//! * **network** — remote-message volume: `messages_remote` from pregel
//!   supersteps, `shuffle_records` from dataflow jobs, `spill_bytes`
//!   from MapReduce's sort-based shuffle;
//! * **memory** — the monitor's RSS peak against the canonical graph's
//!   in-memory footprint (`graph_bytes` on the `run.load` span): the
//!   platform's memory amplification factor;
//! * **locality** — the `seq_accesses` / `rand_accesses` proxy counters
//!   each platform emits at its kernel span sites: what fraction of
//!   accesses were pointer-chases rather than streams;
//! * **skew** — the Gini coefficient of per-worker / per-task work
//!   (`pregel.task`, `mapreduce.task` events), grouped per superstep or
//!   phase; when a platform has no task events the per-repetition
//!   `run.execute` durations stand in, so the section is always
//!   populated.

use std::collections::BTreeMap;

use graphalytics_core::html::escape;
use graphalytics_core::json::Json;
use graphalytics_core::trace::{FieldValue, Span};

/// Network choke point: data volume that crossed worker boundaries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetworkSection {
    /// Remote messages routed between pregel workers.
    pub remote_messages: u64,
    /// Records moved between dataflow partitions by shuffles.
    pub shuffle_records: u64,
    /// Bytes spilled to MapReduce's intermediate shuffle files.
    pub spill_bytes: u64,
    /// Real wire bytes measured by the distributed runtime (`network_bytes`
    /// on `distrib.superstep` spans) — 0 for simulated platforms, so the
    /// reports show real and simulated volume side by side.
    pub network_bytes: u64,
}

impl NetworkSection {
    /// Total cross-worker units (messages + records; bytes reported
    /// separately since the unit differs).
    pub fn remote_units(&self) -> u64 {
        self.remote_messages + self.shuffle_records
    }
}

/// Memory choke point: RSS peak vs the canonical graph's footprint.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemorySection {
    /// Monitor-observed peak RSS during the run (bytes).
    pub peak_rss_bytes: u64,
    /// Canonical CSR footprint of the dataset (bytes).
    pub graph_bytes: u64,
    /// `peak_rss / graph_bytes` (0 when the footprint is unknown).
    pub amplification: f64,
}

/// Locality choke point: sequential vs random access proxies.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LocalitySection {
    /// Streaming accesses (CSR scans, sorted merges, column scans).
    pub seq_accesses: u64,
    /// Pointer-chases (message routing, chain hops, hash probes).
    pub rand_accesses: u64,
    /// `rand / (seq + rand)` — 0 when no proxies were emitted.
    pub random_fraction: f64,
}

/// Skew choke point: work-distribution inequality across workers/tasks.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SkewSection {
    /// Task groups measured (supersteps, map/reduce waves, repetitions).
    pub groups: usize,
    /// Worst per-group Gini coefficient (0 = perfectly balanced).
    pub max_gini: f64,
    /// Mean per-group Gini coefficient.
    pub mean_gini: f64,
    /// What the Gini was computed over ("pregel.task", "run.execute", ...).
    pub source: String,
}

/// One row of the per-superstep straggler table: which worker process was
/// slowest, by how much, and how unequal the compute times were. Built
/// from the merged `distrib.worker.compute` / `distrib.worker.barrier`
/// spans of the final incarnation that executed the superstep.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StragglerRow {
    /// Superstep the row describes.
    pub superstep: u64,
    /// Worker processes that reported compute spans for it.
    pub workers: usize,
    /// Compute time of the slowest worker (seconds).
    pub max_compute_seconds: f64,
    /// Id of that slowest worker — the superstep's straggler.
    pub slowest_worker: u32,
    /// Longest barrier wait any worker spent blocked on this superstep —
    /// the price the fleet paid for the straggler.
    pub max_barrier_seconds: f64,
    /// Gini coefficient of per-worker compute time (0 = balanced).
    pub gini: f64,
}

/// The four-section choke-point attribution of one benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunChokePoints {
    /// Platform name from the run span.
    pub platform: String,
    /// Dataset name from the run span.
    pub dataset: String,
    /// Algorithm name from the run span.
    pub algorithm: String,
    /// Network attribution.
    pub network: NetworkSection,
    /// Memory attribution.
    pub memory: MemorySection,
    /// Locality attribution.
    pub locality: LocalitySection,
    /// Skew attribution.
    pub skew: SkewSection,
    /// Per-superstep straggler rows (empty unless the run carried merged
    /// worker-process telemetry from the distributed runtime).
    pub stragglers: Vec<StragglerRow>,
}

/// Gini coefficient of a work distribution: mean absolute difference
/// over twice the mean. 0 for empty, single-element, or all-zero input.
pub fn gini(values: &[u64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let sum: u64 = values.iter().sum();
    if sum == 0 {
        return 0.0;
    }
    let mut sorted: Vec<u64> = values.to_vec();
    sorted.sort_unstable();
    // Gini via the sorted form: (2·Σ i·x_i / (n·Σx)) - (n+1)/n.
    let weighted: f64 = sorted
        .iter()
        .enumerate()
        .map(|(i, &x)| (i as u64 + 1) as f64 * x as f64)
        .sum();
    (2.0 * weighted / (n as f64 * sum as f64) - (n as f64 + 1.0) / n as f64).max(0.0)
}

fn field_u64(span: &Span, key: &str) -> u64 {
    span.field(key)
        .and_then(FieldValue::as_i64)
        .map(|x| x.max(0) as u64)
        .unwrap_or(0)
}

fn field_str<'a>(span: &'a Span, key: &str) -> Option<&'a str> {
    span.field(key).and_then(FieldValue::as_str)
}

/// Attributes every `run` span in `spans` onto the four choke points.
/// Spans must come from one tracer (ids unique); order is preserved.
pub fn attribute(spans: &[Span]) -> Vec<RunChokePoints> {
    // Children adjacency over span ids; events are spans too.
    let mut children: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (idx, span) in spans.iter().enumerate() {
        if let Some(parent) = span.parent {
            children.entry(parent).or_default().push(idx);
        }
    }
    let mut reports = Vec::new();
    for run in spans.iter().filter(|s| s.name == "run") {
        let platform = field_str(run, "platform").unwrap_or("?").to_string();
        let dataset = field_str(run, "dataset").unwrap_or("?").to_string();
        let algorithm = field_str(run, "algorithm").unwrap_or("?").to_string();

        // Collect the run's subtree (the run span itself included).
        let mut subtree: Vec<&Span> = Vec::new();
        let mut stack = vec![run];
        while let Some(span) = stack.pop() {
            subtree.push(span);
            if let Some(kids) = children.get(&span.id) {
                for &k in kids {
                    stack.push(&spans[k]);
                }
            }
        }

        let mut network = NetworkSection::default();
        let mut locality = LocalitySection::default();
        // Per-parent task-work groups: one group per superstep / phase.
        let mut task_groups: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        let mut task_source = "";
        let mut execute_durations: Vec<u64> = Vec::new();
        for span in &subtree {
            network.remote_messages += field_u64(span, "messages_remote");
            network.shuffle_records += field_u64(span, "shuffle_records");
            network.spill_bytes += field_u64(span, "spill_bytes");
            network.network_bytes += field_u64(span, "network_bytes");
            locality.seq_accesses += field_u64(span, "seq_accesses");
            locality.rand_accesses += field_u64(span, "rand_accesses");
            if span.name.ends_with(".task") {
                task_groups
                    .entry(span.parent.unwrap_or(0))
                    .or_default()
                    .push(field_u64(span, "work"));
                if task_source.is_empty() {
                    task_source = &span.name;
                }
            }
            if span.name == "run.execute" {
                // Microsecond resolution keeps the Gini integral.
                execute_durations.push((span.duration_seconds() * 1e6) as u64);
            }
        }
        let total = locality.seq_accesses + locality.rand_accesses;
        if total > 0 {
            locality.random_fraction = locality.rand_accesses as f64 / total as f64;
        }

        let skew = if !task_groups.is_empty() {
            let ginis: Vec<f64> = task_groups.values().map(|g| gini(g)).collect();
            SkewSection {
                groups: ginis.len(),
                max_gini: ginis.iter().copied().fold(0.0, f64::max),
                mean_gini: ginis.iter().sum::<f64>() / ginis.len() as f64,
                source: task_source.to_string(),
            }
        } else {
            let g = gini(&execute_durations);
            SkewSection {
                groups: 1,
                max_gini: g,
                mean_gini: g,
                source: "run.execute".to_string(),
            }
        };

        // The graph footprint lives on the sibling run.load span for the
        // same (platform, dataset) — loads happen once per pair.
        let graph_bytes = spans
            .iter()
            .find(|s| {
                s.name == "run.load"
                    && field_str(s, "platform") == Some(platform.as_str())
                    && field_str(s, "dataset") == Some(dataset.as_str())
            })
            .map(|s| field_u64(s, "graph_bytes"))
            .unwrap_or(0);
        let peak_rss_bytes = field_u64(run, "peak_rss_bytes");
        let amplification = if graph_bytes > 0 {
            peak_rss_bytes as f64 / graph_bytes as f64
        } else {
            0.0
        };
        let stragglers = straggler_rows(&subtree);

        reports.push(RunChokePoints {
            platform,
            dataset,
            algorithm,
            network,
            memory: MemorySection {
                peak_rss_bytes,
                graph_bytes,
                amplification,
            },
            locality,
            skew,
            stragglers,
        });
    }
    reports
}

/// Builds the per-superstep straggler table from a run subtree's merged
/// worker spans. Supersteps re-executed after a crash recovery appear once
/// per incarnation in the trace; each row uses only the *final* (highest)
/// incarnation that ran the superstep, so the table describes the
/// execution that actually produced the output.
fn straggler_rows(subtree: &[&Span]) -> Vec<StragglerRow> {
    // (superstep → incarnation that counts).
    let mut final_inc: BTreeMap<u64, u64> = BTreeMap::new();
    for span in subtree {
        if span.name == "distrib.worker.compute" {
            let inc = field_u64(span, "incarnation");
            let entry = final_inc.entry(field_u64(span, "superstep")).or_insert(inc);
            *entry = (*entry).max(inc);
        }
    }
    let mut rows = Vec::with_capacity(final_inc.len());
    for (&superstep, &inc) in &final_inc {
        // Per-worker compute seconds (summed, though one span per worker
        // per superstep is the norm) and the longest barrier wait.
        let mut compute: BTreeMap<u64, f64> = BTreeMap::new();
        let mut max_barrier = 0.0f64;
        for span in subtree {
            if field_u64(span, "superstep") != superstep || field_u64(span, "incarnation") != inc {
                continue;
            }
            match span.name.as_str() {
                "distrib.worker.compute" => {
                    *compute.entry(field_u64(span, "worker")).or_insert(0.0) +=
                        span.duration_seconds();
                }
                "distrib.worker.barrier" => {
                    max_barrier = max_barrier.max(span.duration_seconds());
                }
                _ => {}
            }
        }
        let (slowest_worker, max_compute_seconds) = compute
            .iter()
            .map(|(&w, &secs)| (w as u32, secs))
            .fold(
                (0u32, 0.0f64),
                |acc, cur| if cur.1 > acc.1 { cur } else { acc },
            );
        // Microsecond resolution keeps the Gini integral.
        let micros: Vec<u64> = compute.values().map(|&s| (s * 1e6) as u64).collect();
        rows.push(StragglerRow {
            superstep,
            workers: compute.len(),
            max_compute_seconds,
            slowest_worker,
            max_barrier_seconds: max_barrier,
            gini: gini(&micros),
        });
    }
    rows
}

impl RunChokePoints {
    /// One results-JSONL document (`{"type":"chokepoints",...}`) — the
    /// shape appended to `graphalytics-results.jsonl` next to run records.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("type", Json::from("chokepoints")),
            ("platform", Json::from(self.platform.clone())),
            ("dataset", Json::from(self.dataset.clone())),
            ("algorithm", Json::from(self.algorithm.clone())),
            (
                "network",
                Json::obj([
                    (
                        "remote_messages",
                        Json::from(self.network.remote_messages as usize),
                    ),
                    (
                        "shuffle_records",
                        Json::from(self.network.shuffle_records as usize),
                    ),
                    ("spill_bytes", Json::from(self.network.spill_bytes as usize)),
                    (
                        "network_bytes",
                        Json::from(self.network.network_bytes as usize),
                    ),
                ]),
            ),
            (
                "memory",
                Json::obj([
                    (
                        "peak_rss_bytes",
                        Json::from(self.memory.peak_rss_bytes as usize),
                    ),
                    ("graph_bytes", Json::from(self.memory.graph_bytes as usize)),
                    ("amplification", Json::from(self.memory.amplification)),
                ]),
            ),
            (
                "locality",
                Json::obj([
                    (
                        "seq_accesses",
                        Json::from(self.locality.seq_accesses as usize),
                    ),
                    (
                        "rand_accesses",
                        Json::from(self.locality.rand_accesses as usize),
                    ),
                    ("random_fraction", Json::from(self.locality.random_fraction)),
                ]),
            ),
            (
                "skew",
                Json::obj([
                    ("groups", Json::from(self.skew.groups)),
                    ("max_gini", Json::from(self.skew.max_gini)),
                    ("mean_gini", Json::from(self.skew.mean_gini)),
                    ("source", Json::from(self.skew.source.clone())),
                ]),
            ),
            (
                "stragglers",
                Json::Arr(
                    self.stragglers
                        .iter()
                        .map(|row| {
                            Json::obj([
                                ("superstep", Json::from(row.superstep as usize)),
                                ("workers", Json::from(row.workers)),
                                ("max_compute_seconds", Json::from(row.max_compute_seconds)),
                                ("slowest_worker", Json::from(row.slowest_worker as usize)),
                                ("max_barrier_seconds", Json::from(row.max_barrier_seconds)),
                                ("gini", Json::from(row.gini)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Plain-text summary table of per-run choke-point attributions.
pub fn render_text(reports: &[RunChokePoints]) -> String {
    let mut out = String::new();
    out.push_str(
        "platform      dataset            algorithm  net-units  net-bytes  rss/graph  rand-frac  skew-gini\n",
    );
    for r in reports {
        out.push_str(&format!(
            "{:<13} {:<18} {:<10} {:>9} {:>9} {:>10.2} {:>10.3} {:>10.3}\n",
            r.platform,
            r.dataset,
            r.algorithm,
            r.network.remote_units(),
            r.network.network_bytes,
            r.memory.amplification,
            r.locality.random_fraction,
            r.skew.max_gini,
        ));
    }
    for r in reports.iter().filter(|r| !r.stragglers.is_empty()) {
        out.push_str(&format!(
            "\nstragglers: {} / {} / {}\n",
            r.platform, r.dataset, r.algorithm
        ));
        out.push_str("superstep  workers  max-compute-s  slowest  max-barrier-s  compute-gini\n");
        for row in &r.stragglers {
            out.push_str(&format!(
                "{:>9} {:>8} {:>14.6} {:>8} {:>14.6} {:>13.3}\n",
                row.superstep,
                row.workers,
                row.max_compute_seconds,
                format!("w{}", row.slowest_worker),
                row.max_barrier_seconds,
                row.gini,
            ));
        }
    }
    out
}

/// The choke-point section of the HTML report: one row per run with all
/// four attributions, ready to splice into `html_report_with`.
pub fn html_section(reports: &[RunChokePoints]) -> String {
    let mut out = String::new();
    out.push_str("<h2>Choke-point attribution</h2>\n");
    out.push_str(
        "<p>Per-run attribution onto the paper's four choke points (&sect;2.1): \
                  network volume, memory amplification, access locality, and work skew.</p>\n",
    );
    out.push_str(
        "<table>\n<tr><th>Platform</th><th>Dataset</th><th>Algorithm</th>\
         <th>Remote msgs</th><th>Shuffle records</th><th>Spill bytes</th>\
         <th>Network bytes (real)</th>\
         <th>Peak RSS / graph</th><th>Random-access fraction</th>\
         <th>Skew (max Gini)</th><th>Skew source</th></tr>\n",
    );
    for r in reports {
        out.push_str(&format!(
            "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td>\
             <td>{}</td><td>{}</td><td>{:.2}</td><td>{:.3}</td><td>{:.3}</td><td>{}</td></tr>\n",
            escape(&r.platform),
            escape(&r.dataset),
            escape(&r.algorithm),
            r.network.remote_messages,
            r.network.shuffle_records,
            r.network.spill_bytes,
            r.network.network_bytes,
            r.memory.amplification,
            r.locality.random_fraction,
            r.skew.max_gini,
            escape(&r.skew.source),
        ));
    }
    out.push_str("</table>\n");
    if reports.iter().any(|r| !r.stragglers.is_empty()) {
        out.push_str("<h3>Straggler attribution</h3>\n");
        out.push_str(
            "<p>Per-superstep worker-process skew from the distributed runtime's \
             merged telemetry: the slowest worker, its compute time, the longest \
             barrier wait it caused, and the compute-time Gini over workers.</p>\n",
        );
        out.push_str(
            "<table>\n<tr><th>Platform</th><th>Dataset</th><th>Algorithm</th>\
             <th>Superstep</th><th>Workers</th><th>Max compute (s)</th>\
             <th>Slowest worker</th><th>Max barrier wait (s)</th>\
             <th>Compute Gini</th></tr>\n",
        );
        for r in reports {
            for row in &r.stragglers {
                out.push_str(&format!(
                    "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td>\
                     <td>{:.6}</td><td>w{}</td><td>{:.6}</td><td>{:.3}</td></tr>\n",
                    escape(&r.platform),
                    escape(&r.dataset),
                    escape(&r.algorithm),
                    row.superstep,
                    row.workers,
                    row.max_compute_seconds,
                    row.slowest_worker,
                    row.max_barrier_seconds,
                    row.gini,
                ));
            }
        }
        out.push_str("</table>\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphalytics_core::trace::Tracer;

    #[test]
    fn gini_of_known_distributions() {
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[5]), 0.0);
        assert_eq!(gini(&[4, 4, 4, 4]), 0.0);
        assert_eq!(gini(&[0, 0, 0]), 0.0);
        // All work on one worker of n: Gini = (n-1)/n.
        let g = gini(&[0, 0, 0, 100]);
        assert!((g - 0.75).abs() < 1e-12, "{g}");
        // More unequal ⇒ larger Gini.
        assert!(gini(&[1, 9]) > gini(&[4, 6]));
    }

    fn traced_run(tracer: &Tracer) {
        {
            let mut load = tracer.span("run.load");
            load.field("platform", "Giraph")
                .field("dataset", "ldbc-16")
                .field("graph_bytes", 1000usize);
        }
        let mut run = tracer.span("run");
        run.field("platform", "Giraph")
            .field("dataset", "ldbc-16")
            .field("algorithm", "BFS")
            .field("peak_rss_bytes", 2500usize);
        let run_id = run.id();
        let step_id = {
            let mut step = tracer.span_with_parent("pregel.superstep", run_id);
            step.field("messages_remote", 40usize)
                .field("network_bytes", 4096usize)
                .field("seq_accesses", 90usize)
                .field("rand_accesses", 10usize);
            step.id()
        };
        for (worker, work) in [(0u64, 10u64), (1, 30)] {
            tracer.event(
                "pregel.task",
                step_id,
                vec![
                    ("worker".to_string(), worker.into()),
                    ("work".to_string(), work.into()),
                ],
            );
        }
        {
            let _exec = tracer.span_with_parent("run.execute", run_id);
        }
    }

    #[test]
    fn attributes_all_four_sections() {
        let tracer = Tracer::new();
        traced_run(&tracer);
        let reports = attribute(&tracer.finished_spans());
        assert_eq!(reports.len(), 1);
        let r = &reports[0];
        assert_eq!(
            (
                r.platform.as_str(),
                r.dataset.as_str(),
                r.algorithm.as_str()
            ),
            ("Giraph", "ldbc-16", "BFS")
        );
        assert_eq!(r.network.remote_messages, 40);
        assert_eq!(r.network.network_bytes, 4096);
        assert_eq!(r.memory.peak_rss_bytes, 2500);
        assert_eq!(r.memory.graph_bytes, 1000);
        assert!((r.memory.amplification - 2.5).abs() < 1e-12);
        assert_eq!(r.locality.seq_accesses, 90);
        assert_eq!(r.locality.rand_accesses, 10);
        assert!((r.locality.random_fraction - 0.1).abs() < 1e-12);
        assert_eq!(r.skew.source, "pregel.task");
        assert_eq!(r.skew.groups, 1);
        // Two workers at 10/30: Gini = 0.25.
        assert!(
            (r.skew.max_gini - 0.25).abs() < 1e-12,
            "{}",
            r.skew.max_gini
        );
    }

    #[test]
    fn skew_falls_back_to_execute_durations() {
        let tracer = Tracer::new();
        let mut run = tracer.span("run");
        run.field("platform", "Reference")
            .field("dataset", "d")
            .field("algorithm", "BFS");
        let run_id = run.id();
        for _ in 0..2 {
            let _exec = tracer.span_with_parent("run.execute", run_id);
        }
        drop(run);
        let reports = attribute(&tracer.finished_spans());
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].skew.source, "run.execute");
        assert_eq!(reports[0].skew.groups, 1);
        assert!(reports[0].skew.max_gini >= 0.0);
    }

    #[test]
    fn report_round_trips_through_json() {
        let tracer = Tracer::new();
        traced_run(&tracer);
        let reports = attribute(&tracer.finished_spans());
        let line = reports[0].to_json().to_string_compact();
        let doc = graphalytics_core::json::parse(&line).expect("parses");
        assert_eq!(doc.get("type").unwrap().as_str(), Some("chokepoints"));
        for section in ["network", "memory", "locality", "skew"] {
            assert!(doc.get(section).is_some(), "section {section} present");
        }
        assert_eq!(
            doc.get("skew").unwrap().get("source").unwrap().as_str(),
            Some("pregel.task")
        );
    }

    #[test]
    fn text_and_html_render() {
        let tracer = Tracer::new();
        traced_run(&tracer);
        let reports = attribute(&tracer.finished_spans());
        let text = render_text(&reports);
        assert!(text.contains("Giraph"));
        assert!(!text.contains("stragglers:"), "no worker telemetry");
        let html = html_section(&reports);
        assert!(html.contains("<h2>Choke-point attribution</h2>"));
        assert!(html.contains("<td>Giraph</td>"));
        assert!(!html.contains("Straggler attribution"));
    }

    /// Merged worker telemetry: `distrib.worker.*` spans under a run span,
    /// tagged with worker/incarnation/superstep fields the way the
    /// distributed master's telemetry merger stamps them.
    #[allow(clippy::too_many_arguments)]
    fn worker_span(
        tracer: &Tracer,
        parent: Option<u64>,
        name: &str,
        worker: i64,
        incarnation: i64,
        superstep: i64,
        start: f64,
        end: f64,
    ) {
        use graphalytics_core::trace::FieldValue;
        tracer.record_span(
            name,
            parent,
            start,
            end,
            vec![
                (
                    "proc".to_string(),
                    FieldValue::Str(format!("w{worker}:i{incarnation}")),
                ),
                ("worker".to_string(), FieldValue::I64(worker)),
                ("incarnation".to_string(), FieldValue::I64(incarnation)),
                ("superstep".to_string(), FieldValue::I64(superstep)),
            ],
        );
    }

    #[test]
    fn straggler_table_attributes_slowest_worker_per_superstep() {
        let tracer = Tracer::new();
        let run_id = {
            let mut run = tracer.span("run");
            run.field("platform", "distributed-pregel")
                .field("dataset", "d")
                .field("algorithm", "PageRank");
            run.id()
        };
        let compute = "distrib.worker.compute";
        let barrier = "distrib.worker.barrier";
        // Superstep 0, incarnation 0: w1 is the straggler (0.3s vs 0.1s).
        worker_span(&tracer, run_id, compute, 0, 0, 0, 0.0, 0.1);
        worker_span(&tracer, run_id, compute, 1, 0, 0, 0.0, 0.3);
        worker_span(&tracer, run_id, barrier, 0, 0, 0, 0.1, 0.3);
        // Superstep 0 re-executed by incarnation 1 after a crash: balanced.
        // Only this final incarnation should populate the row.
        worker_span(&tracer, run_id, compute, 0, 1, 0, 1.0, 1.2);
        worker_span(&tracer, run_id, compute, 1, 1, 0, 1.0, 1.2);
        let reports = attribute(&tracer.finished_spans());
        assert_eq!(reports.len(), 1);
        let rows = &reports[0].stragglers;
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!((row.superstep, row.workers), (0, 2));
        assert!(
            (row.max_compute_seconds - 0.2).abs() < 1e-9,
            "final incarnation only: {}",
            row.max_compute_seconds
        );
        assert_eq!(row.gini, 0.0, "incarnation 1 is balanced");
        assert_eq!(
            row.max_barrier_seconds, 0.0,
            "incarnation 0 barrier ignored"
        );

        // All three formats carry the table.
        let text = render_text(&reports);
        assert!(text.contains("stragglers: distributed-pregel / d / PageRank"));
        assert!(text.contains("compute-gini"));
        let html = html_section(&reports);
        assert!(html.contains("<h3>Straggler attribution</h3>"));
        assert!(html.contains("<td>w0</td>"));
        let doc =
            graphalytics_core::json::parse(&reports[0].to_json().to_string_compact()).unwrap();
        let Some(Json::Arr(stragglers)) = doc.get("stragglers").cloned() else {
            panic!("stragglers array missing");
        };
        assert_eq!(stragglers.len(), 1);
        assert_eq!(
            stragglers[0].get("workers").and_then(Json::as_f64),
            Some(2.0)
        );
    }
}
