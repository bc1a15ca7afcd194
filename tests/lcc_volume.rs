//! LCC's data volume per in-process engine on Graph500 10 (R-MAT seed 1)
//! with two workers or partitions, as the benchmark's `engine-fleet`
//! workload runs it: Giraph's messages per superstep, GraphX's shuffle
//! statistics and Neo4j's access counts. Outputs are pinned elsewhere
//! (`engine_goldens`); this pins how much work a plan moves to get them,
//! so a plan change states its new volume. The distributed engine's wire
//! counts are pinned in `crates/distrib/tests/e2e_distrib.rs`.

use std::sync::Arc;

use graphalytics::core::trace::{FieldValue, Span, Tracer};
use graphalytics::dataflow::GraphXConfig;
use graphalytics::datagen::{rmat, RmatConfig};
use graphalytics::pregel::PregelConfig;
use graphalytics::prelude::*;

fn graph() -> CsrGraph {
    CsrGraph::from_edge_list(&rmat::generate(&RmatConfig::graph500(10, 1)))
}

/// Runs LCC on `platform` with a tracer and returns the finished spans.
fn traced_lcc(platform: &mut dyn Platform, graph: &CsrGraph) -> Vec<Span> {
    let handle = platform.load_graph(graph).expect("load");
    let tracer = Arc::new(Tracer::new());
    let ctx = RunContext::unbounded().with_tracer(Arc::clone(&tracer));
    platform.run(handle, &Algorithm::Lcc, &ctx).expect("LCC");
    platform.unload(handle);
    tracer.finished_spans()
}

fn int(span: &Span, key: &str) -> i64 {
    span.field(key)
        .and_then(FieldValue::as_i64)
        .unwrap_or_else(|| panic!("{} has no integer {key}", span.name))
}

#[test]
fn giraph_messages_per_superstep_are_pinned() {
    let mut giraph = GiraphPlatform::new(PregelConfig {
        workers: 2,
        ..Default::default()
    });
    let steps: Vec<(i64, i64)> = traced_lcc(&mut giraph, &graph())
        .iter()
        .filter(|s| s.name == "pregel.superstep")
        .map(|s| (int(s, "messages_sent"), int(s, "messages_remote")))
        .collect();
    // (messages sent, of which remote) per superstep.
    assert_eq!(
        steps,
        [(10_438, 5_293), (14_740, 7_453), (0, 0)],
        "computed: {steps:?}"
    );
}

#[test]
fn graphx_shuffle_stats_are_pinned() {
    let graph = graph();
    let mut graphx = GraphXPlatform::new(GraphXConfig {
        partitions: 2,
        ..Default::default()
    });
    let handle = graphx.load_graph(&graph).expect("load");
    let before = graphx.shuffle_stats(handle).unwrap();
    graphx
        .run(handle, &Algorithm::Lcc, &RunContext::unbounded())
        .expect("LCC");
    let after = graphx.shuffle_stats(handle).unwrap();
    let lcc = (
        after.shuffle_records - before.shuffle_records,
        after.shuffles - before.shuffles,
        after.stages - before.stages,
    );
    // (records moved between partitions, shuffles, stages).
    assert_eq!(lcc, (15_522, 6, 8), "computed: {lcc:?}");
}

#[test]
fn neo4j_access_counts_are_pinned() {
    let spans = traced_lcc(&mut Neo4jPlatform::with_defaults(), &graph());
    let [lcc] = &spans
        .iter()
        .filter(|s| s.name == "neo4j.lcc")
        .collect::<Vec<_>>()[..]
    else {
        panic!("one neo4j.lcc span")
    };
    let counts = (int(lcc, "seq_accesses"), int(lcc, "rand_accesses"));
    assert_eq!(counts, (436_310, 10_530), "computed: {counts:?}");
}
