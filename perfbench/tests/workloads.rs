//! Every workload, end to end, at sizes that take a second. These tests need
//! the workspace's `gx-distrib-worker`: build the workspace first
//! (`cargo build --release` at the repository root does).

use std::collections::BTreeSet;
use std::path::PathBuf;

use graphalytics_core::platform::PlatformError;
use perfbench::engines::{fleet_kernels, EngineEnv, FLEET};
use perfbench::inputs;
use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::run::{self, Args};
use perfbench::spans::Recorder;
use perfbench::workload::{Sizes, WORKLOADS};

fn worker_bin() -> PathBuf {
    if let Ok(bin) = std::env::var("GX_DISTRIB_WORKER_BIN") {
        return PathBuf::from(bin);
    }
    // target/<profile>/deps/<this test>: look beside the profile directory,
    // then where the repository's own build puts its binaries.
    let exe = std::env::current_exe().unwrap();
    let target = exe.ancestors().nth(3).unwrap().to_path_buf();
    let repo_target = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../target");
    for dir in [target, repo_target] {
        for profile in ["release", "debug"] {
            let bin = dir.join(profile).join("gx-distrib-worker");
            if bin.is_file() {
                return bin;
            }
        }
    }
    panic!("gx-distrib-worker not found: run `cargo build --release` at the repository root, or set GX_DISTRIB_WORKER_BIN");
}

/// A lower-case scratch directory inside the build tree.
fn out_dir(test: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-{test}"))
}

fn args(workload: &str, trace: bool, test: &str) -> Args {
    Args {
        workload: workload.to_string(),
        seed: 7,
        seconds: 0.05,
        trace,
        out_dir: out_dir(test),
        worker_bin: worker_bin(),
        sizes: Sizes::tiny(),
    }
}

#[test]
fn every_workload_reports_every_end_to_end_metric_and_no_failure() {
    for workload in WORKLOADS {
        let outcome = run::run(&args(workload, false, "e2e")).unwrap();
        assert!(outcome.correct(), "{workload}");
        assert!(outcome.attempted > 0, "{workload}");
        for def in END_TO_END {
            let value = outcome.values.value(def.name);
            assert!(value > 0.0 && value.is_finite(), "{workload} {}", def.name);
        }
        assert!(run::result_line(&outcome)
            .unwrap()
            .starts_with("{\"attempted\":"));
    }
    // Nothing of the scratch directories is left behind.
    let left: Vec<_> = std::fs::read_dir(out_dir("e2e")).unwrap().collect();
    assert!(left.is_empty(), "{left:?}");
}

#[test]
fn every_per_layer_metric_is_measured_by_some_workload() {
    let mut measured = BTreeSet::new();
    for workload in WORKLOADS {
        let outcome = run::run(&args(workload, true, "layers")).unwrap();
        assert!(outcome.correct(), "{workload}");
        measured.extend(
            PER_LAYER
                .iter()
                .filter(|d| outcome.values.get(d.name).is_some())
                .map(|d| d.name),
        );
        assert!(out_dir("layers")
            .join(format!("{workload}.trace.jsonl"))
            .is_file());
    }
    let missing: Vec<_> = PER_LAYER
        .iter()
        .map(|d| d.name)
        .filter(|n| !measured.contains(n))
        .collect();
    assert!(missing.is_empty(), "no workload measures {missing:?}");
}

#[test]
fn unsupported_cells_are_exactly_the_listed_ones() {
    let dir = out_dir("unsupported");
    let env = EngineEnv::new(&dir, &worker_bin());
    let (input, _) = inputs::graph500(6, 7, &mut Recorder::new(false), &mut Vec::new());
    let source = inputs::pick_sources(&input.graph, 7, 1)[0];
    for engine in FLEET {
        let mut platform = env.build(engine);
        let handle = platform.load_graph(&input.graph).unwrap();
        for kernel in fleet_kernels(source) {
            let result = platform.run(handle, &kernel, &Default::default());
            let unsupported = matches!(result, Err(PlatformError::Unsupported(_)));
            assert_eq!(
                unsupported,
                engine.unsupported().contains(&kernel.name()),
                "{} {}: {:?}",
                engine.label(),
                kernel.name(),
                result.err()
            );
        }
        platform.unload(handle);
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn benchmark_json_names_the_workloads() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = graphalytics_core::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let Some(graphalytics_core::json::Json::Arr(listed)) = doc.get("workloads") else {
        panic!("BENCHMARK.json has no workloads");
    };
    let listed: Vec<&str> = listed
        .iter()
        .map(|w| w.get("name").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(listed, WORKLOADS);
}
