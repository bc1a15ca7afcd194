//! Figure 3 — "Scalability of Datagen": generation time as a function of
//! edge volume for the single-node deployment vs the 4-worker cluster
//! deployment.
//!
//! Two views are reported:
//!
//! * **measured** — pure wall clock on this machine. Here the single node
//!   always wins (the left, CPU-bound side of the paper's figure): both
//!   deployments share one machine's CPUs and page cache, so the cluster
//!   only adds duplicated per-worker setup.
//! * **modeled (HDD)** — measured compute plus the time the output would
//!   take to drain through commodity-HDD devices: one disk for the single
//!   node, one per worker for the cluster (whose output stays partitioned,
//!   as on HDFS). This restores the I/O asymmetry that a single machine
//!   cannot exhibit physically, and reproduces the paper's crossover: the
//!   cluster overtakes once generation becomes I/O-bound.
//!
//! Generation time is the one thing this figure plots, so this command is
//! the one `bench` command with a clock: it times each generation call
//! itself, and the generator stays clock-free.

use std::process::ExitCode;
use std::time::Instant;

use crate::{or_exit, print_table, Args};
use graphalytics_datagen::cluster::{generate_to_disk_with, DiskModel};
use graphalytics_datagen::{DatagenConfig, DegreeDistribution, GenerationMode};

/// `bench fig3`.
pub fn run(args: &Args) -> ExitCode {
    let sizes: Vec<usize> = or_exit(args.knob_list("GX_SIZES"));
    let workers: usize = or_exit(args.knob("GX_WORKERS"));
    let threads: usize = or_exit(args.knob("GX_THREADS"));
    let seed: u64 = or_exit(args.knob("GX_SEED"));
    let disk = DiskModel {
        bytes_per_sec: or_exit(args.knob::<usize>("GX_DISK_MBPS")) as f64 * 1024.0 * 1024.0,
    };
    // Modeled per-job scheduling latency (Hadoop-era clusters paid tens of
    // seconds per job; reduced-scale default 2 s).
    let job_latency = or_exit(args.knob::<usize>("GX_JOB_LATENCY_DECISECS")) as f64 / 10.0;
    let scratch = graphalytics_core::ScratchDir::new(None, "gx-fig3").expect("scratch dir");
    let dir = scratch.path();

    println!(
        "Figure 3: Datagen scalability — single node ({threads} threads, 1 disk) vs \
         cluster ({workers} workers, {workers} disks)\n"
    );

    let mut rows = Vec::new();
    for &persons in &sizes {
        let cfg = DatagenConfig {
            num_persons: persons,
            seed,
            degree_distribution: DegreeDistribution::Facebook(16.0),
            threads,
            ..Default::default()
        };
        eprintln!("generating {persons} persons (single node)...");
        let started = Instant::now();
        let single = generate_to_disk_with(
            &cfg,
            &GenerationMode::SingleNode { threads },
            &dir.join(format!("single-{persons}.e")),
            true,
        )
        .expect("single-node generation");
        let single_s = started.elapsed().as_secs_f64();
        eprintln!("generating {persons} persons (cluster)...");
        let started = Instant::now();
        let cluster = generate_to_disk_with(
            &cfg,
            &GenerationMode::Cluster {
                workers,
                spill_dir: dir.join(format!("spill-{persons}")),
            },
            &dir.join(format!("cluster-{persons}.e")),
            false, // Output stays partitioned across worker disks (HDFS).
        )
        .expect("cluster generation");
        let cluster_s = started.elapsed().as_secs_f64();
        assert_eq!(single.edges_written, cluster.edges_written);
        let single_hdd = single.modeled_total_seconds(single_s, &disk, job_latency);
        let cluster_hdd = cluster.modeled_total_seconds(cluster_s, &disk, job_latency);
        rows.push(vec![
            format!("{:.2}", single.edges_written as f64 / 1e6),
            format!("{single_s:.2}"),
            format!("{cluster_s:.2}"),
            format!("{single_hdd:.2}"),
            format!("{cluster_hdd:.2}"),
            format!("{:.2}x", single_hdd / cluster_hdd),
        ]);
    }
    print_table(
        &[
            "Edges (M)",
            "Single [s]",
            "Cluster [s]",
            "Single+HDD [s]",
            "Cluster+HDD [s]",
            "ratio",
        ],
        &rows,
    );
    println!("\nmeasured columns: wall clock on this machine (CPU-bound regime; single wins).");
    println!("+HDD columns: with modeled per-device drain time — the cluster's {workers} disks");
    println!("pull ahead as volume grows, the crossover of the paper's Figure 3.");
    ExitCode::SUCCESS
}
