use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use perfbench::run::{self, Args};
use perfbench::workload::{Sizes, WORKLOADS};

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                     [--result-file <file>]\n       perfbench compare <results> <results>\n       perfbench workloads";

/// How much faster two threads get through a fixed spin than one does
/// through both halves: 2 on two free cores, 1 when the machine has only one
/// core's worth of time to give, whatever `nproc` says.
fn two_thread_speedup() -> f64 {
    fn spin() {
        let mut x = 0u64;
        for i in 0..30_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
    }
    let started = Instant::now();
    spin();
    spin();
    let alone = started.elapsed().as_secs_f64();
    let started = Instant::now();
    std::thread::scope(|scope| {
        scope.spawn(spin);
        spin();
    });
    alone / started.elapsed().as_secs_f64()
}

/// The machine and build the numbers belong to. `run.sh` passes what only
/// the shell knows.
fn machine_stamp() -> Vec<(String, String)> {
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("nproc".to_string(), nproc.to_string()),
        (
            "two_thread_speedup".to_string(),
            format!("{:.2}", two_thread_speedup()),
        ),
        ("rustc".to_string(), env("PERFBENCH_RUSTC")),
        ("profile".to_string(), "release".to_string()),
        ("commit".to_string(), env("PERFBENCH_COMMIT")),
    ]
}

/// The `gx-distrib-worker` the build put beside this executable.
fn worker_bin() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bin = exe.with_file_name(format!("gx-distrib-worker{}", std::env::consts::EXE_SUFFIX));
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} is missing: build the workspace's gx-distrib-worker into the same target directory (run.sh does)", bin.display()))
    }
}

fn parse(args: &[String]) -> Result<(Args, Option<PathBuf>), String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out_dir: PathBuf::from(run::DEFAULT_OUT_DIR),
        worker_bin: worker_bin()?,
        sizes: Sizes::full(),
    };
    let mut result_file = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}\n{USAGE}");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => parsed.seconds = value.parse().map_err(|_| bad("a number"))?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--result-file" => result_file = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}\n{USAGE}"));
    }
    Ok((parsed, result_file))
}

fn compare(first: &str, second: &str) -> Result<ExitCode, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"));
    let differing = perfbench::compare::disagreements(&read(first)?, &read(second)?)?;
    for line in &differing {
        eprintln!("perfbench: runs of one commit disagree: {line}");
    }
    Ok(if differing.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn measure(args: &[String]) -> Result<ExitCode, String> {
    if cfg!(debug_assertions) {
        return Err("perfbench measures optimized builds only; build with --release".to_string());
    }
    let (args, result_file) = parse(args)?;
    let outcome = run::run(&args)?;
    let machine = machine_stamp();
    let line = run::result_line(&outcome)?;
    run::print_report(&outcome, &machine);
    if let Some(path) = result_file {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| format!("open {}: {e}", path.display()))?;
        writeln!(file, "{}", run::result_document(&outcome, &machine))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    println!("{line}");
    Ok(if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} of {} operations failed or gave a wrong output",
            outcome.failed, outcome.attempted
        );
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.as_slice() {
        [cmd, first, second] if cmd == "compare" => compare(first, second),
        [cmd] if cmd == "workloads" => {
            WORKLOADS.iter().for_each(|w| println!("{w}"));
            Ok(ExitCode::SUCCESS)
        }
        _ => measure(&args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        ExitCode::from(2)
    })
}
