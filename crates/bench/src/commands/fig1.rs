//! Figure 1 — "Node degree of Datagen graphs compared to Zeta and
//! Geometric models": generates one graph per plugin and prints the
//! observed degree histogram next to the analytic expectation, plus the
//! fitted model parameters.

use std::process::ExitCode;

use crate::{or_exit, print_table, Args};
use graphalytics_datagen::{generate, DatagenConfig, DegreeDistribution};
use graphalytics_graph::distfit::{self, DegreeModel};
use graphalytics_graph::{metrics, CsrGraph};

fn series(name: &str, dist: DegreeDistribution, model: DegreeModel, persons: usize, seed: u64) {
    eprintln!("generating {name} graph ({persons} persons)...");
    let cfg = DatagenConfig {
        num_persons: persons,
        seed,
        degree_distribution: dist,
        max_degree: Some(persons / 4),
        ..Default::default()
    };
    let graph = generate(&cfg);
    let csr = CsrGraph::from_edge_list(&graph);
    let hist = metrics::degree_histogram(&csr);
    let positive: Vec<(usize, usize)> = hist.into_iter().filter(|&(d, _)| d >= 1).collect();
    let samples: usize = positive.iter().map(|&(_, c)| c).sum();
    let max_degree = positive.last().map(|&(d, _)| d).unwrap_or(1);
    let expected = model.expected_frequencies(samples, max_degree);

    println!("\n== Datagen vs {name} model ==");
    println!(
        "persons={persons} edges={} max_degree={max_degree}",
        graph.num_edges()
    );
    // Log-spaced sample of degrees, like the figure's log-log axes.
    let mut rows = Vec::new();
    let mut degree = 1usize;
    while degree <= max_degree {
        let observed = positive
            .iter()
            .find(|&&(d, _)| d == degree)
            .map(|&(_, c)| c)
            .unwrap_or(0);
        let exp = expected.get(degree - 1).map(|&(_, e)| e).unwrap_or(0.0);
        rows.push(vec![
            degree.to_string(),
            observed.to_string(),
            format!("{exp:.1}"),
        ]);
        degree = (degree * 2).max(degree + 1);
    }
    print_table(&["degree", "observed", "model"], &rows);

    // Model-selection check: which family fits the generated data best?
    println!("\nfitted models (best first):");
    for fit in distfit::fit_all(&positive).iter().take(3) {
        println!(
            "  {:<10} {:?}  AIC={:.0}",
            fit.model.name(),
            fit.model,
            fit.aic
        );
    }
}

/// `bench fig1`.
pub fn run(args: &Args) -> ExitCode {
    let persons: usize = or_exit(args.knob("GX_PERSONS"));
    let seed: u64 = or_exit(args.knob("GX_SEED"));
    println!("Figure 1: Datagen degree distributions vs analytic models");
    series(
        "Zeta(s=1.7)",
        DegreeDistribution::Zeta(1.7),
        DegreeModel::Zeta { s: 1.7 },
        persons,
        seed,
    );
    series(
        "Geometric(p=0.12)",
        DegreeDistribution::Geometric(0.12),
        DegreeModel::Geometric { p: 0.12 },
        persons,
        seed,
    );
    ExitCode::SUCCESS
}
