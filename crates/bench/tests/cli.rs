//! The `bench` binary from the outside: every row of the command table
//! runs, `--help` prints both tables, mistakes exit 2 naming what was
//! wrong, the deterministic commands still print the bytes the separate
//! `table1`, `fig1` and `datagen` binaries printed before they were folded
//! into this one, and `chokepoints` and `robustness` print pinned bytes.

use std::path::Path;
use std::process::{Command, Output};

use graphalytics_bench::cli::COMMANDS;
use graphalytics_core::ScratchDir;

/// Sizes at which every command finishes within seconds, unoptimized.
const TINY: &[(&str, &str)] = &[
    ("GX_SCALE", "8"),
    ("GX_PERSONS", "500"),
    ("GX_DIVISOR", "4000"),
    ("GX_ROUNDS", "1"),
    ("GX_SIZES", "500"),
    ("GX_SEED", "1"),
];

/// Every command: its arguments here and the start of its title line.
#[rustfmt::skip] // one row per command
const TITLES: &[(&str, &[&str], &str)] = &[
    ("run", &["--threads=2", "run.properties"], "# Graphalytics benchmark report — run.properties"),
    ("datagen", &["graph500", "g", "scale=6"], "wrote g.v / g.e (64 vertices,"),
    ("table1", &[], "Table 1: characteristics of real-graph stand-ins (scale 1/4000)"),
    ("fig1", &[], "Figure 1: Datagen degree distributions vs analytic models"),
    ("fig3", &[], "Figure 3: Datagen scalability"),
    ("fig4", &[], "Figure 4: runtimes [s]"),
    ("fig5", &[], "Figure 5: CONN throughput"),
    ("sec34", &[], "§3.4: BFS on a DBMS — SNB 500, 8 partition threads"),
    ("sec35", &[], "§3.5: code-quality report for "),
    ("robustness", &[], "Robustness: success rate vs fault rate"),
    ("ladder", &["--platforms=reference", "--start-scale", "6", "--max-scale=6"],
     "platform   workers  largest scale  max-skew"),
    ("chokepoints", &[], "Choke points (paper §2.1)"),
];

/// Every `GX_*` variable with its type and per-command defaults, as
/// `bench --help` prints them: a renamed, retyped or re-defaulted knob
/// must change this list.
const KNOBS: &str = "\
GX_SCALE usize fig4=13 fig5=13 robustness=8 chokepoints=12
GX_DIVISOR usize table1=40 fig4=200 fig5=200
GX_PERSONS usize fig1=50000 fig4=10000 fig5=10000 sec34=100000 chokepoints=20000
GX_GRAPHX_MB usize fig4=11 fig5=11
GX_TIMEOUT_SECS u64 fig4=180 fig5=180 robustness=180
GX_SEED u64 table1=1 fig1=1 fig3=1
GX_SIZES usize list fig3=20000,50000,100000,200000,400000
GX_WORKERS usize fig3=4
GX_THREADS usize run=<nproc> fig3=8 sec34=8
GX_DISK_MBPS usize fig3=150
GX_JOB_LATENCY_DECISECS usize fig3=20
GX_SOURCE usize sec34=420
GX_REPO_ROOT path sec35=<checkout>
GX_FAULT_SEED u64 robustness=42
GX_FAULT_RATES f64 list robustness=0.02,0.05,0.1
GX_ROUNDS usize robustness=3
GX_CHECKPOINT_INTERVAL usize robustness=4
GX_DISTRIB_WORKER_BIN path run=<beside-bench> ladder=<beside-bench>
GX_DISTRIB_IO_TIMEOUT_SECS u64 run=60 ladder=60
";

fn bench(args: &[&str], env: &[(&str, &str)], cwd: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(args)
        .envs(env.iter().copied())
        .current_dir(cwd)
        .output()
        .expect("bench starts")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// FNV-1a, as in `tests/engine_goldens.rs`.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn every_command_runs_at_tiny_knobs_and_prints_its_title() {
    let dir = ScratchDir::new(None, "gx-bench-cli").unwrap();
    std::fs::write(
        dir.path().join("run.properties"),
        "graphs = graph500-7\nplatforms = giraph, reference\nalgorithms = bfs:0, conn\n\
         results_db = results.jsonl\n",
    )
    .unwrap();
    let covered: Vec<&str> = TITLES.iter().map(|row| row.0).collect();
    let commands: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
    assert_eq!(covered, commands, "TITLES has one row per command");
    for &(command, args, title) in TITLES {
        let out = bench(&[&[command][..], args].concat(), TINY, dir.path());
        let (stdout, stderr) = (text(&out.stdout), text(&out.stderr));
        assert!(out.status.success(), "bench {command}: {stderr}");
        assert!(
            stdout.lines().any(|line| line.starts_with(title)),
            "bench {command} printed no line starting {title:?}:\n{stdout}"
        );
    }
}

#[test]
fn help_prints_the_command_table_and_the_knob_table() {
    let dir = ScratchDir::new(None, "gx-bench-cli").unwrap();
    let out = bench(&["--help"], &[], dir.path());
    assert!(out.status.success());
    let help = text(&out.stdout);
    for command in &COMMANDS {
        let row = format!("  {:<12} {}\n", command.name, command.purpose);
        assert!(help.contains(&row), "{row:?} missing from:\n{help}");
    }
    let mut knob_rows = String::new();
    for line in help.lines().filter(|line| line.starts_with("  GX_")) {
        let columns: Vec<&str> = line.split_whitespace().collect();
        knob_rows += &(columns.join(" ") + "\n");
    }
    assert_eq!(knob_rows, KNOBS);
    // README's knob table is this one, pasted.
    let readme = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
    let readme = std::fs::read_to_string(readme).unwrap();
    let table = &help[help.find("knobs (environment").expect("knob section")..];
    assert!(
        readme.contains(table),
        "README's knob table is not `bench --help`'s"
    );

    // One command's help: its flags and only the knobs it reads.
    let fig4 = text(&bench(&["fig4", "--help"], &[], dir.path()).stdout);
    let usage = "usage: bench fig4 [--trace-out <trace.jsonl>] [--profile-out <base>]\n";
    assert!(fig4.starts_with(usage), "{fig4}");
    let graphx = "  GX_GRAPHX_MB                usize       11\n";
    assert!(fig4.contains(graphx), "{fig4}");
    assert!(!fig4.contains("GX_SIZES") && !fig4.contains("--threads"));
}

#[test]
fn mistakes_exit_2_and_say_what_was_wrong() {
    let dir = ScratchDir::new(None, "gx-bench-cli").unwrap();
    let failure = |args: &[&str], env: &[(&str, &str)]| {
        let out = bench(args, env, dir.path());
        assert_eq!(out.status.code(), Some(2), "bench {args:?}");
        assert!(out.stdout.is_empty(), "bench {args:?} printed a result");
        text(&out.stderr)
    };
    assert_eq!(
        failure(&["fig4"], &[("GX_SCALE", "1e4")]),
        "config error: GX_SCALE = \"1e4\" is not a valid usize\n"
    );
    // One bad element fails a list knob; it used to be dropped.
    assert_eq!(
        failure(&["robustness"], &[("GX_FAULT_RATES", "0.02,five,0.1")]),
        "config error: GX_FAULT_RATES = \"five\" is not a valid f64\n"
    );
    let names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
    let available = names.join(", ");
    for name in ["fig6", "etl"] {
        assert_eq!(
            failure(&[name], &[]),
            format!("unknown command \"{name}\" (available: {available})\n")
        );
    }
    assert!(failure(&[], &[]).contains("usage: bench <command>"));
    // `--threads` configures the reference platform, which only `run`
    // can build: elsewhere it is not a flag.
    for command in ["fig4", "fig5", "robustness"] {
        let stderr = failure(&[command, "--threads", "2"], TINY);
        let unknown = "unknown flag \"--threads\"\nusage: bench ";
        assert!(stderr.starts_with(unknown), "{stderr}");
    }
    assert_eq!(
        failure(&["table1", "extra"], TINY),
        "table1 takes no positional arguments (got [\"extra\"])\nusage: bench table1\n"
    );
    let typo = failure(&["datagen", "snb", "g", "person=800"], &[]);
    let unknown = "config error: unknown key \"person\" (known: seed, persons,";
    assert!(typo.contains(unknown), "{typo}");
    assert!(!dir.path().join("g.v").exists(), "datagen wrote a graph");
}

/// The byte-identity gate of folding twelve binaries into one: hashes of
/// what the parent commit's `table1`, `fig1` and `datagen` binaries wrote
/// for the same knobs, recorded before the fold. `chokepoints` and
/// `robustness` print only counts, so their output is pinned too: the same
/// `GX_FAULT_SEED` must print the same robustness report.
#[test]
fn deterministic_outputs_match_the_separate_binaries() {
    let dir = ScratchDir::new(None, "gx-bench-cli").unwrap();
    for (command, hash) in [
        ("table1", 0xaf53_fd37_de53_d3f9_u64),
        ("fig1", 0x3cc3_bffd_2adb_2b04),
        ("chokepoints", 0x48e1_373f_3642_a44d),
        ("robustness", 0xa8e0_b15a_e239_963f),
    ] {
        let out = bench(&[command], TINY, dir.path());
        assert!(out.status.success(), "bench {command}");
        assert_eq!(fnv(&out.stdout), hash, "{command}");
    }

    for args in [
        ["datagen", "snb", "snb", "persons=500", "seed=7"],
        ["datagen", "graph500", "g500", "scale=8", "seed=7"],
    ] {
        assert!(bench(&args, &[], dir.path()).status.success(), "{args:?}");
    }
    for (file, hash) in [
        ("snb.v", 0x4501_25c6_6b4b_c5db_u64),
        ("snb.e", 0x035d_6caf_7ccb_7396),
        ("snb.properties", 0x4562_f107_ba95_d6df),
        ("g500.v", 0xd80d_ec42_8773_9617),
        ("g500.e", 0x52a9_1d79_82e1_03ef),
        ("g500.properties", 0x2e56_53b5_3879_d6a6),
    ] {
        let bytes = std::fs::read(dir.path().join(file)).unwrap();
        assert_eq!(fnv(&bytes), hash, "{file}");
    }
}
