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

/// Renders a simple aligned table: `header` then rows.
pub fn print_table(header: &[&str], rows: &[Vec<String>]) {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let print_row = |cells: &[String]| {
        let line: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| {
                if i == 0 {
                    format!("{c:<w$}", w = widths[i])
                } else {
                    format!("{c:>w$}", w = widths[i])
                }
            })
            .collect();
        println!("{}", line.join("  "));
    };
    print_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1))
    );
    for row in rows {
        print_row(row);
    }
}
