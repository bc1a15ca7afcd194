//! ETL comparison — the paper's declared future work, implemented.
//!
//! §3.3: "The runtime measures the complete execution of an algorithm,
//! from job submission to result availability, but does not include ETL.
//! Comparing ETL times of different platforms is left as future work."
//!
//! This driver loads the same graphs into every platform's native storage
//! and reports the load (ETL) time per platform per dataset, plus the
//! resulting storage footprint where the platform exposes one.

use crate::{or_exit, print_table, Args};
use graphalytics_core::runner::median;
use graphalytics_core::Dataset;
use graphalytics_platforms::{build_all, Properties, PLATFORMS};
use std::process::ExitCode;
use std::time::Instant;

/// `bench etl`.
pub fn run(args: &Args) -> ExitCode {
    let scale = or_exit(args.knob::<usize>("GX_SCALE")) as u32;
    let persons: usize = or_exit(args.knob("GX_PERSONS"));
    let reps = or_exit(args.knob::<usize>("GX_REPS")).max(1);
    let datasets = vec![Dataset::graph500(scale), Dataset::snb(persons)];

    println!("ETL (graph load) time per platform — the paper's future-work experiment\n");
    let mut rows = Vec::new();
    for dataset in &datasets {
        eprintln!("generating {}...", dataset.name);
        let graph = dataset.load().expect("dataset");
        // Every in-process engine, built with its defaults.
        let in_process = PLATFORMS.iter().filter(|row| !row.needs_worker_binary);
        let names: Vec<&str> = in_process.map(|row| row.name).collect();
        let mut platforms = or_exit(build_all(&names, &Properties::new()));
        for platform in platforms.iter_mut() {
            let mut times = Vec::with_capacity(reps);
            for _ in 0..reps {
                let started = Instant::now();
                match platform.load_graph(&graph) {
                    Ok(handle) => {
                        times.push(started.elapsed().as_secs_f64());
                        platform.unload(handle);
                    }
                    Err(e) => {
                        eprintln!("{} failed to load {}: {e}", platform.name(), dataset.name);
                        break;
                    }
                }
            }
            if times.is_empty() {
                rows.push(vec![
                    dataset.name.clone(),
                    platform.name().to_string(),
                    "failed".into(),
                    String::new(),
                ]);
                continue;
            }
            let med = median(&times);
            let per_edge = med * 1e9 / graph.num_edges() as f64;
            rows.push(vec![
                dataset.name.clone(),
                platform.name().to_string(),
                format!("{med:.4}"),
                format!("{per_edge:.0}"),
            ]);
        }
    }
    print_table(&["Dataset", "Platform", "ETL [s]", "ns/edge"], &rows);
    println!("\nETL = converting the canonical CSR graph into the platform's native storage");
    println!("(worker partitions, RDDs, HDFS splits, record stores, compressed columns).");
    ExitCode::SUCCESS
}
