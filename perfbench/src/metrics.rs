//! The metric tables. `BENCHMARK.json` lists the same names, units,
//! directions and bounds; a test holds the two together.

use std::collections::BTreeMap;

use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric: name, unit, direction, and for end-to-end metrics the share
/// of the baseline median by which it may worsen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> Def {
    e2e(name, unit, Better::Lower, 0.0)
}

const fn higher(name: &'static str, unit: &'static str) -> Def {
    e2e(name, unit, Better::Higher, 0.0)
}

/// What a user of the harness sees. The share of failed operations is the
/// eighth end-to-end number; the result line carries it as `failed` over
/// `attempted` because it is 0 on every workload and a metric may not be.
/// One bound for all: on the reference box the second vCPU comes and goes,
/// which alone moves the 2-thread cells and the engines by up to 18 %.
pub const END_TO_END: &[Def] = &[
    e2e("makespan_s", "s", Better::Lower, 0.25),
    e2e("processing_s", "s", Better::Lower, 0.25),
    e2e("evps_geomean", "1/s", Better::Higher, 0.25),
    e2e("job_p50_s", "s", Better::Lower, 0.25),
    e2e("job_p95_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

/// What single layers do, from the traced run. A workload reports 0 for a
/// layer it does not exercise.
pub const PER_LAYER: &[Def] = &[
    // Load path: `ingest` cells; generation and CSR build also from the
    // set-up of the other workloads, engine loads also from `engine-fleet`.
    lower("datagen.rmat_s", "s"),
    lower("datagen.snb_s", "s"),
    lower("graph.io.write_s", "s"),
    lower("graph.io.read_s", "s"),
    higher("graph.io.read_mbps", "MB/s"),
    lower("graph.csr.build_s", "s"),
    lower("graph.csr.build_2t_s", "s"),
    lower("core.reference.load_s", "s"),
    lower("pregel.load_s", "s"),
    lower("dataflow.load_s", "s"),
    lower("mapreduce.load_s", "s"),
    lower("graphdb.load_s", "s"),
    lower("columnar.load_s", "s"),
    lower("distrib.load_s", "s"),
    // Reference kernels: `ref-neighborhood`.
    lower("algos.lcc_s", "s"),
    lower("algos.stats_s", "s"),
    lower("algos.cd_s", "s"),
    lower("algos.lcc_2t_s", "s"),
    higher("parallel.lcc_speedup_2t", "x"),
    // Reference kernels: `ref-traversal`.
    lower("algos.bfs_s", "s"),
    lower("algos.sssp_s", "s"),
    lower("algos.conn_s", "s"),
    lower("algos.pagerank_s", "s"),
    lower("algos.evo_s", "s"),
    lower("algos.bfs_2t_s", "s"),
    lower("algos.sssp_2t_s", "s"),
    lower("algos.conn_2t_s", "s"),
    lower("algos.pagerank_2t_s", "s"),
    higher("algos.bfs_teps", "1/s"),
    higher("parallel.traversal_speedup_2t", "x"),
    // Engines: `engine-fleet`.
    lower("pregel.processing_s", "s"),
    lower("pregel.lcc_s", "s"),
    lower("pregel.pagerank_s", "s"),
    lower("dataflow.processing_s", "s"),
    lower("dataflow.lcc_s", "s"),
    lower("dataflow.pagerank_s", "s"),
    lower("mapreduce.processing_s", "s"),
    lower("mapreduce.lcc_s", "s"),
    lower("mapreduce.pagerank_s", "s"),
    lower("graphdb.processing_s", "s"),
    lower("graphdb.lcc_s", "s"),
    lower("graphdb.pagerank_s", "s"),
    lower("columnar.processing_s", "s"),
    lower("columnar.lcc_s", "s"),
    lower("distrib.processing_s", "s"),
    lower("distrib.lcc_s", "s"),
    lower("distrib.pagerank_s", "s"),
    // Exact counts and phase times from the spans the engines publish.
    lower("pregel.supersteps", "count"),
    lower("dataflow.jobs", "count"),
    lower("dataflow.iterations", "count"),
    lower("mapreduce.jobs", "count"),
    lower("mapreduce.map_s", "s"),
    lower("mapreduce.reduce_s", "s"),
    lower("columnar.rounds", "count"),
    lower("distrib.supersteps", "count"),
    lower("distrib.messages_remote", "count"),
    lower("distrib.network_bytes", "B"),
    lower("distrib.barrier_wait_s", "s"),
    // Codec probes: `engine-fleet`.
    higher("faults.codec.encode_mbps", "MB/s"),
    higher("faults.codec.decode_mbps", "MB/s"),
    higher("distrib.protocol.encode_mbps", "MB/s"),
    higher("distrib.protocol.decode_mbps", "MB/s"),
    higher("distrib.protocol.crc32_mbps", "MB/s"),
    // Harness: every batch workload.
    lower("core.runner.overhead_s", "s"),
    lower("core.validator.validate_s", "s"),
    // Request path: `serve-closed`.
    lower("serve.http.healthz_s", "s"),
    lower("serve.submit_s", "s"),
    lower("serve.queue_wait_p50_s", "s"),
    lower("serve.queue_wait_p95_s", "s"),
    lower("serve.run_p50_s", "s"),
    lower("serve.poll_requests", "count"),
    lower("serve.rejected", "count"),
    higher("serve.jobs_per_s", "1/s"),
    lower("serve.job_p99_s", "s"),
    higher("serve.registry.hit_share", "share"),
    higher("core.json.parse_mbps", "MB/s"),
    // Observer cost: every workload; the probes on `engine-fleet`.
    lower("core.trace.overhead_share", "share"),
    lower("core.trace.spans", "count"),
    lower("core.trace.span_ns", "ns"),
    lower("core.trace.span_disabled_ns", "ns"),
    lower("core.trace.export_jsonl_s", "s"),
    lower("obs.chokepoints.attribute_s", "s"),
    lower("obs.export.chrome_trace_s", "s"),
];

/// Looks a metric up in either table.
pub fn def(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Measured values by metric name. Only names from the tables are accepted,
/// so a misspelt metric fails the run instead of vanishing from it.
#[derive(Debug, Default, Clone)]
pub struct Values(BTreeMap<&'static str, Summary>);

impl Values {
    pub fn put(&mut self, name: &str, summary: Summary) {
        let def = def(name).unwrap_or_else(|| panic!("metric {name:?} is in no table"));
        self.0.insert(def.name, summary);
    }

    /// Sets a metric from one sample per pass.
    pub fn put_samples(&mut self, name: &str, samples: &[f64]) {
        self.put(name, Summary::of(samples));
    }

    pub fn get(&self, name: &str) -> Option<&Summary> {
        self.0.get(name)
    }

    /// The value of a metric, or 0 when this run did not measure it.
    pub fn value(&self, name: &str) -> f64 {
        self.get(name).map_or(0.0, |s| s.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphalytics_core::json::{self, Json};

    fn listed(doc: &Json, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        let Some(Json::Arr(items)) = doc.get(key) else {
            panic!("BENCHMARK.json has no {key} list");
        };
        items
            .iter()
            .map(|m| {
                let text = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (
                    text("name"),
                    text("unit"),
                    text("better"),
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let ours = |defs: &[Def], bounded: bool| -> Vec<_> {
            defs.iter()
                .map(|d| {
                    (
                        d.name.to_string(),
                        d.unit.to_string(),
                        d.better.as_str().to_string(),
                        bounded.then_some(d.bound),
                    )
                })
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), ours(END_TO_END, true));
        assert_eq!(listed(&doc, "per_layer"), ours(PER_LAYER, false));
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&Def> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, d) in all.iter().enumerate() {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(all[i + 1..].iter().all(|o| o.name != d.name), "{}", d.name);
        }
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    #[should_panic(expected = "is in no table")]
    fn unknown_names_are_refused() {
        Values::default().put("algos.lcc_seconds", Summary::single(1.0));
    }
}
