//! Integrating a third-party platform (the paper's §2.3 API story):
//! "adding a new platform to Graphalytics consists of implementing the
//! algorithms, adding a dataset loading method, providing a workload
//! processing interface, and logging the information required for results
//! reporting."
//!
//! This example writes a minimal single-threaded platform from scratch —
//! about a hundred lines — plugs it into the harness next to Giraph, and
//! lets the Output Validator prove it correct.
//!
//! ```text
//! cargo run --release --example custom_platform
//! ```

use graphalytics::algos::{bfs, cd, conn, evo, lcc, pagerank, sssp, stats};
use graphalytics::core::platform::{GraphHandle, GraphTable};
use graphalytics::core::report;
use graphalytics::prelude::*;
use std::sync::Arc;

/// A brand-new platform: plain sequential algorithms over a shared CSR.
/// (Your real platform would translate into its own storage here.)
/// `GraphTable` is the harness's handle table: it hands out the handles
/// and answers a stale one with `PlatformError::InvalidHandle`.
struct MyPlatform {
    graphs: GraphTable<Arc<CsrGraph>>,
}

impl MyPlatform {
    fn new() -> Self {
        Self {
            graphs: GraphTable::default(),
        }
    }
}

impl Platform for MyPlatform {
    fn name(&self) -> &'static str {
        "MyPlatform"
    }

    // The dataset loading method (ETL).
    fn load_graph(&mut self, graph: &CsrGraph) -> Result<GraphHandle, PlatformError> {
        Ok(self.graphs.insert(Arc::new(graph.clone())))
    }

    // The workload processing interface.
    fn run(
        &mut self,
        handle: GraphHandle,
        algorithm: &Algorithm,
        ctx: &RunContext,
    ) -> Result<Output, PlatformError> {
        let g = self.graphs.get(handle)?;
        ctx.check_deadline()?;
        Ok(match algorithm {
            Algorithm::Stats => Output::Stats(stats::stats(g)),
            Algorithm::Bfs { source } => Output::Depths(bfs::bfs(g, *source)),
            Algorithm::Conn => Output::Components(conn::connected_components_unionfind(g)),
            Algorithm::Cd {
                iterations,
                hop_attenuation,
                degree_exponent,
            } => Output::Communities(cd::community_detection(
                g,
                *iterations,
                *hop_attenuation,
                *degree_exponent,
            )),
            Algorithm::Evo {
                new_vertices,
                p_forward,
                max_burst,
                seed,
            } => Output::Evolution(evo::forest_fire(
                g,
                *new_vertices,
                *p_forward,
                *max_burst,
                *seed,
            )),
            Algorithm::PageRank {
                iterations,
                damping,
            } => Output::Ranks(pagerank::pagerank(g, *iterations, *damping)),
            Algorithm::Sssp { source } => Output::Distances(sssp::sssp(g, *source)),
            Algorithm::Lcc => Output::LocalClustering(lcc::local_clustering(g)),
        })
    }

    fn unload(&mut self, handle: GraphHandle) {
        self.graphs.remove(handle);
    }
}

fn main() {
    let suite = BenchmarkSuite::new(
        vec![Dataset::graph500(10)],
        Algorithm::paper_workload(),
        BenchmarkConfig::default(),
    );
    // The new platform runs side by side with a built-in one; the harness
    // needs no changes. (A row in `graphalytics::platforms::PLATFORMS` is
    // what would make it selectable by name in run.properties, job
    // submissions and `bench ladder`.)
    let mut platforms: Vec<Box<dyn Platform>> = vec![
        Box::new(MyPlatform::new()),
        Box::new(GiraphPlatform::with_defaults()),
    ];
    let result = suite.run(&mut platforms);
    println!("{}", report::runtime_matrix(&result, "Graph500 10"));
    let (valid, invalid, _) = report::validation_counts(&result);
    println!("validation: {valid} valid, {invalid} invalid");
    assert_eq!(invalid, 0);
}
