//! `bench` — the harness's one driver binary, the paper's "Unix shell
//! script that triggers the execution of the benchmark" (§2.3) and every
//! table, figure and section command beside it. `bench --help` lists the
//! commands and the `GX_*` knobs; `graphalytics_bench::cli` holds both
//! tables.

fn main() -> std::process::ExitCode {
    graphalytics_bench::cli::main(std::env::args().skip(1))
}
