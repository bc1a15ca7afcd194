//! `bench` — operational subcommands around the benchmark: the
//! perf-regression observatory gate and the time-to-failure scale ladder.
//!
//! ```text
//! bench regress --record BENCH_baseline.json   # (re)record the baseline
//! bench regress --check  BENCH_baseline.json   # exit 1 on regression
//! bench ladder [--smoke] [--platforms=a,b] [--algorithms=bfs:0,sssp:0,lcc]
//!              [--start-scale=N] [--max-scale=N] [--timeout-secs=N]
//!              [--validate]
//! ```
//!
//! `regress --record` times the fixed workload (Graph500 × the LDBC
//! seven-kernel workload on the reference platform; see
//! `graphalytics_bench::regress`) and writes the baseline, including a
//! calibration-loop timing of the recording machine. `--check` re-times
//! the workload and compares against the committed baseline with
//! calibration-scaled, noise-aware thresholds — a kernel fails only when
//! it exceeds the relative factor *and* the absolute floor (documented in
//! DESIGN.md §5d). CI runs the check as a blocking step.
//!
//! `ladder` walks every requested platform up Graph500 scales until a
//! kernel times out or the platform fails, then prints the largest
//! passing scale per platform (LDBC's time-to-failure methodology).
//! `--smoke` is the CI-sized preset: scales 10..=14, 60 s timeout,
//! validation on.
//!
//! Knobs: `GX_REGRESS_SCALE` (default 16), `GX_REGRESS_RUNS` (default 5),
//! `GX_REGRESS_HANDICAP` (test-only median multiplier, default 1.0).

use graphalytics_bench::ladder::{self, LadderConfig};
use graphalytics_bench::regress::{self, RegressConfig};
use graphalytics_bench::{or_exit, print_table};
use graphalytics_obs::regress::{Baseline, Thresholds};

fn usage() -> ! {
    eprintln!("usage: bench regress (--record | --check) <BENCH_baseline.json>");
    eprintln!(
        "       bench ladder [--smoke] [--platforms=a,b] [--algorithms=...]\n\
         \x20                   [--start-scale=N] [--max-scale=N] [--timeout-secs=N] [--validate]"
    );
    eprintln!("knobs: GX_REGRESS_SCALE, GX_REGRESS_RUNS, GX_REGRESS_HANDICAP");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("regress") => regress_main(&args[1..]),
        Some("ladder") => ladder_main(&args[1..]),
        _ => usage(),
    }
}

fn ladder_main(args: &[String]) {
    let cfg = match LadderConfig::parse(args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            usage();
        }
    };
    eprintln!(
        "scale ladder: {} over Graph500 {}..={}, timeout {}s, {} kernel(s), validate={}",
        cfg.platform_names().join(", "),
        cfg.start_scale,
        cfg.max_scale,
        cfg.timeout_secs,
        cfg.algorithms.len(),
        cfg.validate,
    );
    let cells = match ladder::climb(&cfg, |platform, scale, passed| {
        eprintln!(
            "  {platform} @ scale {scale}: {}",
            if passed { "pass" } else { "FAIL" }
        );
    }) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    print_table(
        &[
            "platform",
            "workers",
            "largest scale",
            "seconds",
            "max-skew",
            "climb ended by",
        ],
        &ladder::report_rows(&cells),
    );
    if cells.iter().all(|c| c.largest_passing.is_none()) {
        eprintln!("no platform passed any rung");
        std::process::exit(1);
    }
}

fn regress_main(args: &[String]) {
    let (mode, path) = match args.first().map(String::as_str) {
        Some("--record") => ("record", args.get(1).cloned()),
        Some("--check") => ("check", args.get(1).cloned()),
        Some(arg) if arg.starts_with("--record=") => {
            ("record", arg.strip_prefix("--record=").map(str::to_string))
        }
        Some(arg) if arg.starts_with("--check=") => {
            ("check", arg.strip_prefix("--check=").map(str::to_string))
        }
        _ => usage(),
    };
    let Some(path) = path else { usage() };

    let cfg = or_exit(RegressConfig::from_env());
    eprintln!("regress workload: {}", cfg.describe());

    match mode {
        "record" => {
            let baseline = match regress::record(&cfg) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(1);
                }
            };
            if let Err(e) = std::fs::write(&path, baseline.to_json_string()) {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!(
                "baseline with {} kernel(s) written to {path} \
                 (calibration {:.3}s)",
                baseline.entries.len(),
                baseline.calibration_seconds
            );
        }
        _ => {
            let text = match std::fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    std::process::exit(1);
                }
            };
            let Some(baseline) = Baseline::parse(&text) else {
                eprintln!("{path} is not a bench_baseline document");
                std::process::exit(1);
            };
            let report = match regress::check(&cfg, &baseline, Thresholds::default()) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(1);
                }
            };
            print!("{}", report.render_text());
            if report.failed() {
                eprintln!("PERF REGRESSION: see verdicts above");
                std::process::exit(1);
            }
            println!("no regressions across {} kernel(s)", report.verdicts.len());
        }
    }
}
