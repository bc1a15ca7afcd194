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
//! Knobs: `GX_SIZES` (comma-separated person counts), `GX_WORKERS`
//! (default 4), `GX_THREADS` (default 8), `GX_SEED`, `GX_DISK_MBPS`
//! (default 150).

use graphalytics_bench::{env_list, env_u64, env_usize, or_exit, print_table};
use graphalytics_datagen::cluster::{generate_to_disk_with, DiskModel};
use graphalytics_datagen::{DatagenConfig, DegreeDistribution, GenerationMode};

fn main() {
    let sizes: Vec<usize> = or_exit(env_list("GX_SIZES", "20000,50000,100000,200000,400000"));
    let workers = or_exit(env_usize("GX_WORKERS", 4));
    let threads = or_exit(env_usize("GX_THREADS", 8));
    let seed = or_exit(env_u64("GX_SEED", 1));
    let disk = DiskModel {
        bytes_per_sec: or_exit(env_usize("GX_DISK_MBPS", 150)) as f64 * 1024.0 * 1024.0,
    };
    // Modeled per-job scheduling latency (Hadoop-era clusters paid tens of
    // seconds per job; reduced-scale default 2 s).
    let job_latency = or_exit(env_usize("GX_JOB_LATENCY_DECISECS", 20)) as f64 / 10.0;
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
        let single = generate_to_disk_with(
            &cfg,
            &GenerationMode::SingleNode { threads },
            &dir.join(format!("single-{persons}.e")),
            true,
        )
        .expect("single-node generation");
        eprintln!("generating {persons} persons (cluster)...");
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
        assert_eq!(single.edges_written, cluster.edges_written);
        rows.push(vec![
            format!("{:.2}", single.edges_written as f64 / 1e6),
            format!("{:.2}", single.total_seconds()),
            format!("{:.2}", cluster.total_seconds()),
            format!("{:.2}", single.modeled_total_seconds(&disk, job_latency)),
            format!("{:.2}", cluster.modeled_total_seconds(&disk, job_latency)),
            format!(
                "{:.2}x",
                single.modeled_total_seconds(&disk, job_latency)
                    / cluster.modeled_total_seconds(&disk, job_latency)
            ),
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
}
