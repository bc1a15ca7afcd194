//! §3.5 — "Code Quality": runs the static analyzer over this repository's
//! own sources and prints the per-crate quality report (the in-repo
//! substitute for the paper's SonarQube/Jenkins pipeline).

use graphalytics_core::quality::{analyze_tree, quality_report, QualityMetrics};
use std::path::PathBuf;
use std::process::ExitCode;

use crate::Args;

/// `bench sec35`.
pub fn run(args: &Args) -> ExitCode {
    let root = args.knob_path("GX_REPO_ROOT").unwrap_or_else(|| {
        // Two levels above this crate: the checkout the binary was built from.
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(|p| p.parent())
            .expect("repo root")
            .to_path_buf()
    });
    println!("§3.5: code-quality report for {}\n", root.display());

    let mut units: Vec<QualityMetrics> = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)
        .expect("crates dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let name = dir
            .file_name()
            .map(|n| n.to_string_lossy().to_string())
            .unwrap_or_default();
        let src = dir.join("src");
        if src.exists() {
            units.push(analyze_tree(&name, &src).expect("analyze"));
        }
    }
    for extra in ["src", "tests", "examples"] {
        let dir = root.join(extra);
        if dir.exists() {
            units.push(analyze_tree(extra, &dir).expect("analyze"));
        }
    }
    println!("{}", quality_report(&units));

    let totals = units.iter().fold(QualityMetrics::default(), |mut acc, m| {
        acc.files += m.files;
        acc.code_lines += m.code_lines;
        acc.comment_lines += m.comment_lines;
        acc.test_functions += m.test_functions;
        acc.functions += m.functions;
        acc.branch_points += m.branch_points;
        acc.unwraps_non_test += m.unwraps_non_test;
        acc
    });
    println!(
        "totals: {} files, {} code lines, {} comment lines ({:.0}% density), {} tests, {} fns",
        totals.files,
        totals.code_lines,
        totals.comment_lines,
        100.0 * totals.comment_density(),
        totals.test_functions,
        totals.functions,
    );
    println!(
        "quality gates: mean complexity {:.1} per fn, {:.1} unwraps/kloc outside tests",
        totals.mean_complexity(),
        totals.unwrap_density()
    );
    ExitCode::SUCCESS
}
