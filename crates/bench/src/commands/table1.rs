//! Table 1 — "Characteristics of real graphs": generates the calibrated
//! synthetic stand-ins for the five SNAP graphs and reports their measured
//! characteristics next to the paper's values.

use std::process::ExitCode;

use crate::{or_exit, print_table, Args};
use graphalytics_datagen::RealWorldGraph;
use graphalytics_graph::metrics;

/// `bench table1`.
pub fn run(args: &Args) -> ExitCode {
    let divisor: usize = or_exit(args.knob("GX_DIVISOR"));
    let seed: u64 = or_exit(args.knob("GX_SEED"));
    println!("Table 1: characteristics of real-graph stand-ins (scale 1/{divisor})\n");
    let mut rows = Vec::new();
    for graph in RealWorldGraph::all() {
        let paper = graph.paper_characteristics();
        eprintln!("generating {} stand-in...", graph.name());
        let (standin, _) = graph.generate_standin(divisor, seed);
        let measured = metrics::characteristics(&standin);
        rows.push(vec![
            graph.name().to_string(),
            format!("{:.2}M", paper.num_vertices as f64 / 1e6),
            format!("{:.2}M", paper.num_edges as f64 / 1e6),
            format!("{}", measured.num_vertices),
            format!("{}", measured.num_edges),
            format!("{:.4}", paper.global_cc),
            format!("{:.4}", measured.global_cc),
            format!("{:.4}", paper.avg_local_cc),
            format!("{:.4}", measured.avg_local_cc),
            format!("{:+.4}", paper.assortativity),
            format!("{:+.4}", measured.assortativity),
        ]);
    }
    print_table(
        &[
            "Dataset", "Nodes(p)", "Edges(p)", "Nodes(m)", "Edges(m)", "GlCC(p)", "GlCC(m)",
            "AvgCC(p)", "AvgCC(m)", "Asrt(p)", "Asrt(m)",
        ],
        &rows,
    );
    println!("\n(p) = paper's Table 1 value, (m) = measured on the stand-in.");
    ExitCode::SUCCESS
}
