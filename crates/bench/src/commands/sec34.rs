//! §3.4 — "BFS on a DBMS": the paper's transitive SQL query on the
//! compressed column store, with the full §3.4 accounting: random lookups,
//! edge end points visited, query time, MTEPS, and the CPU profile split
//! into border-hash-table / exchange / column-access shares (paper: 33% /
//! 10% / 57% at 41.3 MTEPS on SNB 1000).

use std::process::ExitCode;

use crate::{or_exit, Args};
use graphalytics_core::platform::{Platform, RunContext};
use graphalytics_core::Dataset;
use graphalytics_platforms::{VirtuosoConfig, VirtuosoPlatform};

/// `bench sec34`.
pub fn run(args: &Args) -> ExitCode {
    let persons: usize = or_exit(args.knob("GX_PERSONS"));
    let source = or_exit(args.knob::<usize>("GX_SOURCE")) as u64;
    let threads: usize = or_exit(args.knob("GX_THREADS"));

    eprintln!("generating SNB {persons} and bulk-loading the column store...");
    let graph = Dataset::snb(persons).load().expect("dataset");
    let mut virtuoso = VirtuosoPlatform::new(VirtuosoConfig { threads });
    let handle = virtuoso.load_graph(&graph).expect("load");

    let sql = format!(
        "select count (*) from (select spe_to from \
         (select transitive t_in (1) t_out (2) t_distinct \
         spe_from, spe_to from sp_edge) derived_table_1 \
         where spe_from = {source}) derived_table_2;"
    );
    println!("§3.4: BFS on a DBMS — SNB {persons}, {threads} partition threads\n");
    println!("query:\n{sql}\n");

    // Warm-up run (page cache / allocator), then the measured run.
    let _ = virtuoso
        .execute_sql(handle, &sql, &RunContext::unbounded())
        .expect("warm-up");
    let (count, profile) = virtuoso
        .execute_sql(handle, &sql, &RunContext::unbounded())
        .expect("query");

    println!("reachable vertices: {count}");
    println!(
        "random lookups: {:.2}e6 (paper: 2.28e6)",
        profile.random_lookups as f64 / 1e6
    );
    println!(
        "edge end points visited: {:.2}e8 (paper: 2.89e8)",
        profile.endpoints_visited as f64 / 1e8
    );
    println!(
        "query time: {:.3} s   rate: {:.1} MTEPS (paper: 7 s, 41.3 MTEPS)",
        profile.wall_seconds,
        profile.mteps()
    );
    let (hash, exchange, column) = profile.cycle_shares();
    println!("\nCPU profile (paper: 33% hash table, 10% exchange, 57% column access):");
    println!("  border hash table:                    {hash:5.1}%");
    println!("  exchange operator:                    {exchange:5.1}%");
    println!("  column random access + decompression: {column:5.1}%");
    ExitCode::SUCCESS
}
