//! Robustness report — success rate and recoveries vs fault rate.
//!
//! The paper's methodology (§2.3) lists *robustness* among the benchmark
//! dimensions next to raw performance: what happens to a platform when
//! the cluster misbehaves. This driver injects deterministic faults —
//! worker crashes (Giraph), shuffle-partition loss and allocation
//! failures (GraphX), transient task I/O (MapReduce) — at increasing
//! rates and reports the success rate of every platform × algorithm over
//! `GX_ROUNDS` independently-seeded rounds, and per rate the faults
//! injected, the recoveries and the checkpoints written.
//!
//! Every run validates against the reference implementation, so a
//! "recovered" run that silently corrupted its output would be reported
//! as invalid, not successful. Every number is a count, so the same
//! `GX_FAULT_SEED` prints the same report. What recovery costs in time is
//! `perfbench/`'s to measure. With `--trace-out`/`--profile-out` the
//! trace and profile cover every round.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use crate::{or_exit, print_table, Args, ObsSession};
use graphalytics_core::faults::{FaultInjector, FaultPlan, RetryPolicy};
use graphalytics_core::{BenchmarkConfig, BenchmarkSuite, Dataset, Platform};
use graphalytics_platforms::{GiraphPlatform, GraphXPlatform, MapReducePlatform, PregelConfig};

/// Fresh platform fleet; Giraph checkpoints so injected worker crashes
/// recover by restart instead of failing the run.
fn fleet(checkpoint_interval: usize) -> Vec<Box<dyn Platform>> {
    vec![
        Box::new(GiraphPlatform::new(PregelConfig {
            checkpoint_interval: Some(checkpoint_interval),
            ..Default::default()
        })),
        Box::new(GraphXPlatform::with_defaults()),
        Box::new(MapReducePlatform::with_defaults()),
    ]
}

/// `bench robustness`.
pub fn run(args: &Args) -> ExitCode {
    let session = ObsSession::start(args);
    let scale = or_exit(args.knob::<usize>("GX_SCALE")) as u32;
    let seed: u64 = or_exit(args.knob("GX_FAULT_SEED"));
    let rounds: usize = or_exit(args.knob("GX_ROUNDS"));
    let checkpoint_interval = or_exit(args.knob::<usize>("GX_CHECKPOINT_INTERVAL")).max(1);
    let timeout: u64 = or_exit(args.knob("GX_TIMEOUT_SECS"));
    let rates: Vec<f64> = or_exit(args.knob_list("GX_FAULT_RATES"));

    let datasets = vec![Dataset::graph500(scale)];
    let algorithms = vec![
        graphalytics_algos::Algorithm::default_bfs(),
        graphalytics_algos::Algorithm::Conn,
        graphalytics_algos::Algorithm::default_pagerank(),
    ];

    eprintln!(
        "Robustness run: Graph500 {scale}, seed {seed}, rates {rates:?}, \
         {rounds} rounds, checkpoint every {checkpoint_interval} supersteps"
    );

    // Per platform × algorithm: valid successful rounds at each rate.
    let mut successes: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
    let mut injected_per_rate = vec![0usize; rates.len()];
    let mut recovered_per_rate = vec![0usize; rates.len()];
    let mut checkpoints_per_rate = vec![0usize; rates.len()];

    for (ri, &rate) in rates.iter().enumerate() {
        for round in 0..rounds {
            // Each round is an independent deterministic universe: the
            // seed mixes the rate index and round, so rounds differ but
            // the whole report reproduces from GX_FAULT_SEED.
            let round_seed = seed
                .wrapping_add((ri as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .wrapping_add(round as u64);
            let injector = Arc::new(FaultInjector::new(
                FaultPlan::seeded(round_seed).with_uniform_rate(rate),
            ));
            let config = BenchmarkConfig {
                timeout: Some(Duration::from_secs(timeout)),
                retry: RetryPolicy::new(3, 10, round_seed),
                faults: Some(Arc::clone(&injector)),
                ..Default::default()
            };
            let suite = BenchmarkSuite::new(datasets.clone(), algorithms.clone(), config);
            let result = suite.run_traced(&mut fleet(checkpoint_interval), &session.tracer);
            for r in &result.runs {
                let key = (r.platform.clone(), r.algorithm.clone());
                let per_rate = successes.entry(key).or_insert_with(|| vec![0; rates.len()]);
                if r.status.is_success() && r.validation.is_valid() {
                    per_rate[ri] += 1;
                }
            }
            injected_per_rate[ri] += injector.injected_count();
            recovered_per_rate[ri] += injector.recovery_count();
            checkpoints_per_rate[ri] += injector.checkpoint_count();
        }
    }

    let mut header: Vec<String> = vec!["platform".into(), "algorithm".into()];
    header.extend(rates.iter().map(|rate| format!("ok@{rate}")));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut rows = Vec::new();
    for ((platform, algorithm), per_rate) in &successes {
        let mut row = vec![platform.clone(), algorithm.clone()];
        row.extend(per_rate.iter().map(|ok| format!("{ok}/{rounds}")));
        rows.push(row);
    }

    println!(
        "Robustness: success rate vs fault rate \
         (Graph500 {scale}, {rounds} rounds per rate, seed {seed})\n"
    );
    print_table(&header_refs, &rows);
    session.finish("Robustness");
    println!();
    for (ri, rate) in rates.iter().enumerate() {
        println!(
            "rate {rate}: {} faults injected, {} recoveries, {} checkpoints",
            injected_per_rate[ri], recovered_per_rate[ri], checkpoints_per_rate[ri]
        );
    }
    ExitCode::SUCCESS
}
