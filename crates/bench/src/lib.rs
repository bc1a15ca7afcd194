//! # graphalytics-bench
//!
//! The one `bench` binary that drives the harness: the benchmark run of
//! the paper's §2.3 workflow, the dataset generator, and one command per
//! table, figure and section of the Graphalytics paper. [`cli::COMMANDS`]
//! is the list (`bench --help` prints it, DESIGN.md §2 maps it to the
//! paper); [`cli`] also holds the `GX_*` knob table and the flag parser
//! the commands share, and [`ObsSession`] writes the artifacts of the
//! `--trace-out`/`--profile-out` flags. Nothing here measures the system's
//! speed for the record: that is `perfbench/`, the only code whose numbers
//! are compared across commits.

pub mod cli;
pub mod commands;
pub mod obs;

pub use cli::{or_exit, Args};
pub use obs::{ObsArtifacts, ObsSession};

/// Prints `header` and `rows` as the report's aligned table.
pub fn print_table(header: &[&str], rows: &[Vec<String>]) {
    print!("{}", graphalytics_core::report::render_table(header, rows));
}
