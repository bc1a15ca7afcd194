//! §3.5 — "Code Quality": prints `graphalytics_lint::quality`'s report over
//! this repository's own sources (the in-repo substitute for the paper's
//! SonarQube/Jenkins pipeline).

use std::path::Path;
use std::process::ExitCode;

use graphalytics_lint::quality;

use crate::{or_exit, Args};

/// `bench sec35`.
pub fn run(args: &Args) -> ExitCode {
    let root = args.knob_path("GX_REPO_ROOT").unwrap_or_else(|| {
        // Two levels above this crate: the checkout the binary was built from.
        let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
        manifest
            .ancestors()
            .nth(2)
            .unwrap_or(manifest)
            .to_path_buf()
    });
    let units = if root.join("crates").is_dir() {
        quality::workspace(&root).map_err(|e| e.to_string())
    } else {
        Err("no crates directory".to_string())
    };
    let units =
        or_exit(units.map_err(|why| format!("config error: GX_REPO_ROOT = {root:?}: {why}")));
    println!("§3.5: code-quality report for {}\n", root.display());
    print!("{}", quality::report(&units));
    ExitCode::SUCCESS
}
