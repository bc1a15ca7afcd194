//! One run of one workload: set-up, a validated warm-up pass, timed passes
//! for `--seconds`, and the metrics computed from them.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use graphalytics_core::json::Json;

use crate::engines::EngineEnv;
use crate::metrics::{Def, Values, END_TO_END, PER_LAYER};
use crate::spans::{self, Recorder};
use crate::stats::{geomean, median, percentile, supported_percentile, Summary};
use crate::workload::{self, Pass, PassKind, Sizes, Workload};

/// Set-up is repeated so that `setup_s` is a median: at least this often,
/// and while it is quick, more.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 31;
const QUICK_SETUPS_S: f64 = 1.0;
/// Where scratch and trace files go when no directory is given.
pub const DEFAULT_OUT_DIR: &str = "perfbench/out";
/// Fewest timed passes of each kind a run reports from.
const MIN_PASSES: usize = 3;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where scratch and trace files go; removed scratch, kept traces.
    pub out_dir: PathBuf,
    pub worker_bin: PathBuf,
    pub sizes: Sizes,
}

pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    /// End-to-end metrics of an untraced run, per-layer metrics of a
    /// traced one.
    pub values: Values,
    pub defs: &'static [Def],
    /// Counts, sizes and machine shape to read the numbers by.
    pub stamp: Vec<(String, String)>,
    /// Self seconds per layer over the traced passes.
    pub layer_self_s: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// A directory that is removed when the run ends, also by a panic.
struct Scratch(PathBuf);

impl Scratch {
    fn create(path: PathBuf) -> Result<Self, String> {
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(Self(path))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        if let Err(e) = std::fs::remove_dir_all(&self.0) {
            eprintln!("perfbench: could not remove {}: {e}", self.0.display());
        }
    }
}

/// Peak resident set of this process in MB (`VmHWM`). Children, such as the
/// distributed engine's workers, are not part of it.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Runs pass number `id`. In a traced run the recorder is on except during
/// the timed passes the traced ones are compared with.
fn run_pass(
    w: &mut dyn Workload,
    kind: PassKind,
    id: u32,
    trace: bool,
    rec: &mut Recorder,
) -> Pass {
    rec.set_enabled(trace && kind != PassKind::Timed);
    rec.set_pass(id);
    let open = rec.enter("perfbench.pass", "perfbench");
    let pass = w.pass(kind, rec);
    rec.exit(open);
    pass
}

/// (V+E)/s of every cell, geometric mean: every cell weighs the same.
fn evps_geomean(pass: &Pass) -> f64 {
    let rates: Vec<f64> = pass
        .cells
        .iter()
        .filter(|&&(_, seconds)| seconds > 0.0)
        .map(|&(size, seconds)| size / seconds)
        .collect();
    geomean(&rates)
}

fn end_to_end(passes: &[Pass], setups_s: &[f64]) -> Result<Values, String> {
    let mut values = Values::default();
    let per_pass = |f: fn(&Pass) -> f64| -> Vec<f64> { passes.iter().map(f).collect() };
    values.put_samples("makespan_s", &per_pass(|p| p.makespan_s));
    values.put_samples("processing_s", &per_pass(Pass::processing_s));
    values.put_samples("evps_geomean", &per_pass(evps_geomean));
    let ops: Vec<f64> = passes.iter().flat_map(|p| p.ops.iter().copied()).collect();
    values.put_samples("job_p50_s", &ops);
    values.put(
        "job_p95_s",
        Summary {
            value: percentile(&ops, 0.95).0,
            ..Summary::of(&ops)
        },
    );
    values.put("peak_rss_mb", Summary::single(peak_rss_mb()?));
    values.put_samples("setup_s", setups_s);
    Ok(values)
}

/// Metrics that are ratios of other per-layer metrics.
fn derive(values: &mut Values) {
    let sum = |values: &Values, names: &[&str]| -> Option<f64> {
        names.iter().map(|n| values.get(n).map(|s| s.value)).sum()
    };
    let ratios: [(&str, &[&str], &[&str]); 2] = [
        (
            "parallel.lcc_speedup_2t",
            &["algos.lcc_s"],
            &["algos.lcc_2t_s"],
        ),
        (
            "parallel.traversal_speedup_2t",
            &[
                "algos.bfs_s",
                "algos.sssp_s",
                "algos.conn_s",
                "algos.pagerank_s",
            ],
            &[
                "algos.bfs_2t_s",
                "algos.sssp_2t_s",
                "algos.conn_2t_s",
                "algos.pagerank_2t_s",
            ],
        ),
    ];
    for (name, sequential, threaded) in ratios {
        if let (Some(seq), Some(par)) = (sum(values, sequential), sum(values, threaded)) {
            values.put(name, Summary::single(seq / par));
        }
    }
}

fn per_layer(
    stage_samples: &BTreeMap<&'static str, Vec<f64>>,
    warmup: &Pass,
    timed: &[Pass],
    traced: &[Pass],
    spans_per_traced_pass: &[f64],
) -> Values {
    let mut values = Values::default();
    for (name, samples) in stage_samples {
        values.put_samples(name, samples);
    }
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let passes = std::iter::once(warmup).chain(timed).chain(traced);
    for (name, value) in passes.flat_map(|p| p.layer.iter()) {
        by_name.entry(name).or_default().push(*value);
    }
    for (name, samples) in by_name {
        values.put_samples(name, &samples);
    }
    let makespans = |passes: &[Pass]| -> Vec<f64> { passes.iter().map(|p| p.makespan_s).collect() };
    values.put(
        "core.trace.overhead_share",
        Summary::single(median(&makespans(traced)) / median(&makespans(timed)) - 1.0),
    );
    values.put_samples("core.trace.spans", spans_per_traced_pass);
    values
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    let scratch = Scratch::create(args.out_dir.join(format!("scratch-{}", std::process::id())))?;
    let mut rec = Recorder::new(args.trace);

    // Set-up, several times; the last one is kept. The one before it is
    // dropped first, so that no two servers or MapReduce roots coexist.
    let mut setups_s = Vec::new();
    let mut stage_samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut workload: Option<Box<dyn Workload>> = None;
    while setups_s.len() < MIN_SETUPS
        || (setups_s.len() < MAX_SETUPS && setups_s.iter().sum::<f64>() < QUICK_SETUPS_S)
    {
        drop(workload.take());
        let env = EngineEnv::new(
            &scratch.0.join(format!("setup{}", setups_s.len())),
            &args.worker_bin,
        );
        let mut stages = Vec::new();
        let open = rec.enter("perfbench.setup", "perfbench");
        let started = Instant::now();
        workload = Some(workload::setup(
            &args.workload,
            &args.sizes,
            args.seed,
            &env,
            &mut rec,
            &mut stages,
        )?);
        setups_s.push(started.elapsed().as_secs_f64());
        rec.exit(open);
        let mut totals: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (name, seconds) in stages {
            *totals.entry(name).or_default() += seconds;
        }
        for (name, seconds) in totals {
            stage_samples.entry(name).or_default().push(seconds);
        }
    }
    let mut workload = workload.expect("set-up ran at least once");
    let w = workload.as_mut();

    let warmup = run_pass(w, PassKind::Warmup, 1, args.trace, &mut rec);
    let mut timed: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut traced_ids = Vec::new();
    let mut spans_per_traced_pass = Vec::new();
    let started = Instant::now();
    let mut next_id = 2;
    while started.elapsed().as_secs_f64() < args.seconds || timed.len() < MIN_PASSES {
        timed.push(run_pass(w, PassKind::Timed, next_id, args.trace, &mut rec));
        next_id += 1;
        if args.trace {
            let before = rec.spans().len();
            traced.push(run_pass(w, PassKind::Traced, next_id, true, &mut rec));
            spans_per_traced_pass.push((rec.spans().len() - before) as f64);
            traced_ids.push(next_id);
            next_id += 1;
        }
    }

    let measured = if args.trace { &traced } else { &timed };
    let counted = || std::iter::once(&warmup).chain(measured);
    let attempted: usize = counted().map(|p| p.attempted).sum();
    let failed: usize = counted().map(|p| p.failed).sum();
    let samples: usize = measured.iter().map(|p| p.ops.len()).sum();
    let mut layer_self_s = BTreeMap::new();
    let values = if args.trace {
        let mut values = per_layer(
            &stage_samples,
            &warmup,
            &timed,
            &traced,
            &spans_per_traced_pass,
        );
        rec.set_enabled(true);
        rec.set_pass(0);
        w.finish(&mut rec, &mut values);
        derive(&mut values);
        layer_self_s = spans::layer_self_times(rec.spans(), |s| traced_ids.contains(&s.pass));
        let path = args.out_dir.join(format!("{}.trace.jsonl", args.workload));
        spans::write_jsonl(&path, rec.spans())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        values
    } else {
        end_to_end(&timed, &setups_s)?
    };

    let mut stamp: Vec<(String, String)> = vec![
        ("workload".into(), args.workload.clone()),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), args.seconds.to_string()),
        ("trace".into(), u8::from(args.trace).to_string()),
        ("setups".into(), setups_s.len().to_string()),
        ("timed_passes".into(), timed.len().to_string()),
        ("traced_passes".into(), traced.len().to_string()),
        ("operations".into(), attempted.to_string()),
        (
            "job_p95_percentile".into(),
            supported_percentile(samples, 0.95).to_string(),
        ),
        ("workers".into(), crate::engines::worker_stamp()),
    ];
    stamp.extend(w.stamp().into_iter().map(|(k, v)| (k.to_string(), v)));
    drop(workload);
    drop(scratch);
    Ok(Outcome {
        attempted,
        failed,
        values,
        defs: if args.trace { PER_LAYER } else { END_TO_END },
        stamp,
        layer_self_s,
    })
}

/// The result line of the benchmark contract: `correct`, `attempted`,
/// `failed`, and every metric of the run's table, 0 where not measured.
pub fn result_line(outcome: &Outcome) -> Result<String, String> {
    let mut metrics = BTreeMap::new();
    for def in outcome.defs {
        let value = outcome.values.value(def.name);
        if !value.is_finite() {
            return Err(format!("metric {} is not a finite number", def.name));
        }
        metrics.insert(
            def.name.to_string(),
            Json::obj([("value", Json::Num(value)), ("unit", Json::from(def.unit))]),
        );
    }
    Ok(Json::obj([
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::from(outcome.attempted)),
        ("failed", Json::from(outcome.failed)),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_string_compact())
}

/// Everything a run measured, as one JSON document for a results file.
pub fn result_document(outcome: &Outcome, machine: &[(String, String)]) -> String {
    let text = |pairs: &[(String, String)]| {
        Json::Obj(
            pairs
                .iter()
                .map(|(k, v)| (k.clone(), Json::from(v.clone())))
                .collect(),
        )
    };
    let metrics = outcome
        .defs
        .iter()
        .filter_map(|def| Some((def, outcome.values.get(def.name)?)))
        .map(|(def, s)| {
            (
                def.name.to_string(),
                Json::obj([
                    ("value", Json::Num(s.value)),
                    ("unit", Json::from(def.unit)),
                    ("samples", Json::from(s.n)),
                    ("min", Json::Num(s.min)),
                    ("max", Json::Num(s.max)),
                ]),
            )
        })
        .collect();
    Json::obj([
        ("machine", text(machine)),
        ("run", text(&outcome.stamp)),
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::from(outcome.attempted)),
        ("failed", Json::from(outcome.failed)),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_string_compact()
}

/// Every metric by name with its unit, the sample count beside it.
pub fn print_report(outcome: &Outcome, machine: &[(String, String)]) {
    for (key, value) in machine.iter().chain(&outcome.stamp) {
        println!("# {key}: {value}");
    }
    for def in outcome.defs {
        match outcome.values.get(def.name) {
            Some(s) => println!(
                "{:<34} {:>16.6} {:<6} from {} samples (min {:.6}, max {:.6})",
                def.name, s.value, def.unit, s.n, s.min, s.max
            ),
            None => println!(
                "{:<34} {:>16} {:<6} not exercised by this workload",
                def.name, 0, def.unit
            ),
        }
    }
    if !outcome.layer_self_s.is_empty() {
        let total: f64 = outcome.layer_self_s.values().sum();
        println!(
            "# self time per layer over the traced passes (parallel layers add up their threads):"
        );
        for (layer, seconds) in &outcome.layer_self_s {
            println!(
                "#   {layer:<18} {seconds:>10.4} s  {:>5.1} %",
                100.0 * seconds / total
            );
        }
    }
    println!(
        "# failed_share: {} of {} operations failed",
        outcome.failed, outcome.attempted
    );
}
