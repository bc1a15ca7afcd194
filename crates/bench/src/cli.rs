//! The command line of the one `bench` binary: the command table, the knob
//! table and the flag parser every command shares.
//!
//! A command is a row of [`COMMANDS`] (name, one-line purpose, the flags
//! and positional arguments it takes, its `fn(&Args) -> ExitCode`); a knob
//! is a row of [`KNOBS`] (`GX_*` name, type, default per command, doc).
//! `bench --help` and `bench <command> --help` print both tables, so a
//! knob's name, type and default are written down exactly once — here —
//! and every read goes through [`Args::knob`] and
//! `graphalytics_core::config::parse_knob`: an unset knob takes its row's
//! default, a set one must parse as the type its row declares or the
//! command exits 2 naming it (a `path` is the one type that cannot fail).

use std::any::type_name;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;

use graphalytics_core::config::{parse_knob, ConfigError};

use crate::commands::{
    chokepoints, datagen, fig1, fig3, fleet, ladder, robustness, run, sec34, sec35, table1,
};

/// A `--flag` of a command: the flag, the placeholder of its value in
/// usage lines (empty for a switch), a one-line description. Both
/// `--flag value` and `--flag=value` work.
pub type Flag = (&'static str, &'static str, &'static str);

/// One row of the command table.
pub struct Command {
    /// The word after `bench`.
    pub name: &'static str,
    /// One-line purpose, shown by `bench --help`.
    pub purpose: &'static str,
    /// Usage text of the positional arguments; empty when there are none.
    pub positional: &'static str,
    /// The flags the command accepts; any other `--flag` is an error.
    pub flags: &'static [Flag],
    /// The command itself.
    pub run: fn(&Args) -> ExitCode,
}

/// One row of the knob table: the environment variable, what its value
/// must parse as, `command=default` for every command that reads it, and
/// a one-line description. A default in `<>` describes a fallback that is
/// not a literal.
pub type Knob = (&'static str, &'static str, &'static str, &'static str);

const TRACE_OUT: Flag = (
    "--trace-out",
    "trace.jsonl",
    "export spans and metrics as JSONL, plus Prometheus text to <path>.prom",
);
const PROFILE_OUT: Flag = (
    "--profile-out",
    "base",
    "fold spans by self time (µs); write <base>.folded, .svg, .trace.json, .chokepoints.jsonl",
);
const THREADS: Flag = (
    "--threads",
    "n",
    "reference-platform workers (0 = machine default); wins over reference.threads",
);
const OBS_FLAGS: &[Flag] = &[TRACE_OUT, PROFILE_OUT];
#[rustfmt::skip] // one row per flag
const LADDER_FLAGS: &[Flag] = &[
    ("--smoke", "", "CI preset: scales 10..=14, 60 s timeout, validation on"),
    ("--platforms", "a,b", "registry names or aliases to climb (default: every platform)"),
    ("--algorithms", "bfs:0,sssp:0,lcc", "kernels run at every rung"),
    ("--start-scale", "n", "first Graph500 scale"),
    ("--max-scale", "n", "last Graph500 scale, inclusive"),
    ("--timeout-secs", "n", "cooperative per-kernel timeout in seconds"),
    ("--validate", "", "validate every output against the reference oracle"),
];

/// Every command of the binary, in `--help` order.
pub static COMMANDS: [Command; 12] = [
    Command {
        name: "run",
        purpose: "run the benchmark a properties file describes and write its reports (§2.3)",
        positional: "<run.properties>",
        flags: &[TRACE_OUT, PROFILE_OUT, THREADS],
        run: run::run,
    },
    Command {
        name: "datagen",
        purpose: "generate a graph as <prefix>.v/.e/.properties (the \"Add graphs\" step)",
        positional:
            "<snb|graph500|amazon|youtube|livejournal|patents|wikipedia> <prefix> [key=value ...]",
        flags: &[],
        run: datagen::run,
    },
    Command {
        name: "table1",
        purpose: "Table 1: characteristics of the real-graph stand-ins",
        positional: "",
        flags: &[],
        run: table1::run,
    },
    Command {
        name: "fig1",
        purpose: "Figure 1: Datagen degree distributions vs the Zeta and Geometric models",
        positional: "",
        flags: &[],
        run: fig1::run,
    },
    Command {
        name: "fig3",
        purpose: "Figure 3: Datagen scalability, single node vs cluster",
        positional: "",
        flags: &[],
        run: fig3::run,
    },
    Command {
        name: "fig4",
        purpose: "Figure 4: runtimes of all algorithms x platforms x graphs",
        positional: "",
        flags: OBS_FLAGS,
        run: fleet::fig4,
    },
    Command {
        name: "fig5",
        purpose: "Figure 5: CONN kTEPS per platform and graph",
        positional: "",
        flags: OBS_FLAGS,
        run: fleet::fig5,
    },
    Command {
        name: "sec34",
        purpose: "Section 3.4: BFS as transitive SQL on the column store",
        positional: "",
        flags: &[],
        run: sec34::run,
    },
    Command {
        name: "sec35",
        purpose: "Section 3.5: code-quality report over this repository",
        positional: "",
        flags: &[],
        run: sec35::run,
    },
    Command {
        name: "robustness",
        purpose: "success rate and recoveries vs injected fault rate",
        positional: "",
        flags: OBS_FLAGS,
        run: robustness::run,
    },
    Command {
        name: "ladder",
        purpose: "time-to-failure ladder: the largest Graph500 scale each platform passes",
        positional: "",
        flags: LADDER_FLAGS,
        run: ladder::run,
    },
    Command {
        name: "chokepoints",
        purpose: "Section 2.1 ablations: edge cut, remote messages, bytes/edge, skew",
        positional: "",
        flags: &[],
        run: chokepoints::run,
    },
];

/// Every `GX_*` variable a command reacts to, in `--help` order. `run`'s
/// `GX_THREADS` is read by `crates/parallel` and the last two rows by the
/// distributed-pregel runtime (`crates/distrib`), which `run` and `ladder`
/// can start; they are listed so this table names every variable.
#[rustfmt::skip] // one row per knob
pub static KNOBS: [Knob; 19] = [
    ("GX_SCALE", "usize", "fig4=13 fig5=13 robustness=8 chokepoints=12",
     "Graph500 scale (log2 of the vertex count)"),
    ("GX_DIVISOR", "usize", "table1=40 fig4=200 fig5=200",
     "size reduction of the real-graph stand-ins (fig4/fig5: Patents)"),
    ("GX_PERSONS", "usize", "fig1=50000 fig4=10000 fig5=10000 sec34=100000 chokepoints=20000",
     "persons of the SNB (Datagen) graph"),
    ("GX_GRAPHX_MB", "usize", "fig4=11 fig5=11", "GraphX executor memory budget in MiB"),
    ("GX_TIMEOUT_SECS", "u64", "fig4=180 fig5=180 robustness=180",
     "cooperative per-run timeout in seconds"),
    ("GX_SEED", "u64", "table1=1 fig1=1 fig3=1", "generator seed"),
    ("GX_SIZES", "usize list", "fig3=20000,50000,100000,200000,400000",
     "comma-separated person counts, one generation run each"),
    ("GX_WORKERS", "usize", "fig3=4", "cluster workers, one modeled disk each"),
    ("GX_THREADS", "usize", "run=<nproc> fig3=8 sec34=8",
     "reference workers when --threads is 0 (run), generator threads (fig3), partition threads (sec34)"),
    ("GX_DISK_MBPS", "usize", "fig3=150", "modeled per-device drain rate in MiB/s"),
    ("GX_JOB_LATENCY_DECISECS", "usize", "fig3=20",
     "modeled per-job scheduling latency in tenths of a second"),
    ("GX_SOURCE", "usize", "sec34=420", "source vertex of the transitive query"),
    ("GX_REPO_ROOT", "path", "sec35=<checkout>",
     "repository the quality report analyzes (default: the checkout this binary was built from)"),
    ("GX_FAULT_SEED", "u64", "robustness=42", "seed every round's fault plan derives from"),
    ("GX_FAULT_RATES", "f64 list", "robustness=0.02,0.05,0.1", "comma-separated uniform fault rates"),
    ("GX_ROUNDS", "usize", "robustness=3", "independently seeded rounds per fault rate"),
    ("GX_CHECKPOINT_INTERVAL", "usize", "robustness=4", "Giraph checkpoint interval in supersteps"),
    ("GX_DISTRIB_WORKER_BIN", "path", "run=<beside-bench> ladder=<beside-bench>",
     "worker executable the distributed-pregel master forks (default: gx-distrib-worker beside this binary)"),
    ("GX_DISTRIB_IO_TIMEOUT_SECS", "u64", "run=60 ladder=60", "distributed-pregel socket read timeout"),
];

/// The command named `name`.
pub fn command(name: &str) -> Option<&'static Command> {
    COMMANDS.iter().find(|c| c.name == name)
}

/// The default a knob row gives `command`, if the command reads the knob.
fn default_for(defaults: &'static str, command: &Command) -> Option<&'static str> {
    let mut each = defaults.split(' ');
    each.find_map(|d| d.strip_prefix(command.name)?.strip_prefix('='))
}

/// A parsed command line: the command, its flags and what remains.
pub struct Args {
    /// The row of [`COMMANDS`] being run.
    pub command: &'static Command,
    flags: Vec<(&'static str, String)>,
    /// Non-flag arguments, in order.
    pub positional: Vec<String>,
}

impl Args {
    /// Parses the arguments after the command name against the command's
    /// row: an undeclared `--flag`, a missing value, or a positional
    /// argument where the row takes none is an error.
    pub fn parse(
        command: &'static Command,
        args: impl IntoIterator<Item = String>,
    ) -> Result<Self, String> {
        let (mut flags, mut positional) = (Vec::new(), Vec::new());
        let mut rest = args.into_iter();
        while let Some(arg) = rest.next() {
            if !arg.starts_with("--") {
                positional.push(arg);
                continue;
            }
            let (name, inline) = match arg.split_once('=') {
                Some((name, value)) => (name, Some(value.to_string())),
                None => (arg.as_str(), None),
            };
            let Some(&(flag, placeholder, _)) = command.flags.iter().find(|f| f.0 == name) else {
                return Err(format!("unknown flag {arg:?}"));
            };
            let value = match (placeholder.is_empty(), inline) {
                (true, None) => String::new(),
                (true, Some(_)) => return Err(format!("{flag} takes no value")),
                (false, Some(value)) => value,
                (false, None) => rest
                    .next()
                    .ok_or_else(|| format!("{flag} requires a value"))?,
            };
            flags.push((flag, value));
        }
        if command.positional.is_empty() && !positional.is_empty() {
            return Err(format!(
                "{} takes no positional arguments (got {positional:?})",
                command.name
            ));
        }
        Ok(Self {
            command,
            flags,
            positional,
        })
    }

    /// The value of a flag (the last one when repeated); `Some("")` for a
    /// switch that is present.
    pub fn flag(&self, name: &str) -> Option<&str> {
        let given = self.flags.iter().rev().find(|(n, _)| *n == name);
        given.map(|(_, value)| value.as_str())
    }

    /// The typed value of a flag: `None` when absent, an error naming the
    /// flag when present and malformed.
    pub fn flag_as<T: FromStr>(&self, name: &str) -> Result<Option<T>, ConfigError> {
        self.flag(name).map(|v| parse_knob(name, v)).transpose()
    }

    /// The default the [`KNOBS`] row of `name` gives this command. The row
    /// must declare `ty`, the type the caller reads the knob as.
    fn knob_default(&self, name: &str, ty: &str) -> &'static str {
        let row = KNOBS.iter().find(|k| k.0 == name);
        let &(_, declared, defaults, _) = row.unwrap_or_else(|| panic!("{name} is not in KNOBS"));
        assert_eq!(declared, ty, "{name}: its row declares another type");
        default_for(defaults, self.command)
            .unwrap_or_else(|| panic!("{name} has no default for `{}`", self.command.name))
    }

    /// The text of a knob: the environment variable when set, else the
    /// row's default.
    fn knob_text(&self, name: &str, ty: &str) -> String {
        let default = self.knob_default(name, ty);
        // Bytes that are not Unicode fail to parse like any other typo.
        let set = std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
        set.unwrap_or_else(|| default.to_string())
    }

    /// Reads a knob as the type its row declares.
    pub fn knob<T: FromStr>(&self, name: &str) -> Result<T, ConfigError> {
        parse_knob(name, &self.knob_text(name, type_name::<T>()))
    }

    /// Reads a comma-separated list knob; one malformed element fails the
    /// whole knob.
    pub fn knob_list<T: FromStr>(&self, name: &str) -> Result<Vec<T>, ConfigError> {
        let text = self.knob_text(name, &format!("{} list", type_name::<T>()));
        let items = text.split(',').map(|item| parse_knob(name, item));
        items.collect()
    }

    /// Reads a `path` knob, whose default is not a literal: `None` when
    /// unset.
    pub fn knob_path(&self, name: &str) -> Option<PathBuf> {
        self.knob_default(name, "path");
        std::env::var_os(name).map(PathBuf::from)
    }
}

fn usage(command: &Command) -> String {
    let mut line = format!("usage: bench {}", command.name);
    for (flag, placeholder, _) in command.flags {
        let value = if placeholder.is_empty() {
            String::new()
        } else {
            format!(" <{placeholder}>")
        };
        let _ = write!(line, " [{flag}{value}]");
    }
    format!("{line} {}", command.positional)
        .trim_end()
        .to_string()
}

/// `bench --help` (every command, every knob) or, for one command, its
/// usage, flags and the knobs it reads with its defaults.
pub fn help(command: Option<&Command>) -> String {
    let mut out = String::new();
    match command {
        None => {
            out.push_str(
                "bench - the one driver of the Graphalytics harness\n\n\
                 usage: bench <command> [flags] [arguments]\n       \
                 bench <command> --help\n\ncommands:\n",
            );
            for c in &COMMANDS {
                let _ = writeln!(out, "  {:<12} {}", c.name, c.purpose);
            }
        }
        Some(command) => {
            let _ = writeln!(out, "{}\n\n{}", usage(command), command.purpose);
            for (i, (flag, _, doc)) in command.flags.iter().enumerate() {
                let heading = if i == 0 { "\nflags:\n" } else { "" };
                let _ = writeln!(out, "{heading}  {flag:<15} {doc}");
            }
        }
    }
    let mut knobs = String::new();
    for &(name, ty, defaults, doc) in &KNOBS {
        let default = match command {
            None => defaults,
            Some(command) => match default_for(defaults, command) {
                Some(default) => default,
                None => continue,
            },
        };
        let _ = writeln!(
            knobs,
            "  {name:<26}  {ty:<10}  {default}\n  {:<26}  {doc}",
            ""
        );
    }
    if !knobs.is_empty() {
        out.push_str(
            "\nknobs (environment variables: name, type, default; an unset knob takes the\n\
             default, a set one must parse or the command exits 2):\n",
        );
    }
    out + &knobs
}

/// Unwraps a command's configuration: a malformed knob, flag, property or
/// platform name prints its error and exits 2, like a malformed command
/// line.
pub fn or_exit<T, E: std::fmt::Display>(configured: Result<T, E>) -> T {
    configured.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

/// The binary's `main`: picks the command, parses its arguments, runs it.
pub fn main(args: impl IntoIterator<Item = String>) -> ExitCode {
    let mut args = args.into_iter();
    let Some(name) = args.next() else {
        eprint!("{}", help(None));
        return ExitCode::from(2);
    };
    if name == "--help" || name == "-h" {
        print!("{}", help(None));
        return ExitCode::SUCCESS;
    }
    let Some(command) = command(&name) else {
        let names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
        eprintln!("unknown command {name:?} (available: {})", names.join(", "));
        return ExitCode::from(2);
    };
    let rest: Vec<String> = args.collect();
    if rest.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", help(Some(command)));
        return ExitCode::SUCCESS;
    }
    match Args::parse(command, rest) {
        Ok(args) => (command.run)(&args),
        Err(e) => {
            eprintln!("{e}\n{}", usage(command));
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_knob_default_names_a_command_and_parses_as_its_type() {
        for (name, ty, defaults, _) in KNOBS {
            for (command, default) in defaults.split(' ').map(|d| d.split_once('=').unwrap()) {
                assert!(super::command(command).is_some(), "{name}: {command}");
                let ok = match ty {
                    _ if default.starts_with('<') => true,
                    "usize" => default.parse::<usize>().is_ok(),
                    "u64" => default.parse::<u64>().is_ok(),
                    "usize list" => default.split(',').all(|x| x.parse::<usize>().is_ok()),
                    "f64 list" => default.split(',').all(|x| x.parse::<f64>().is_ok()),
                    other => panic!("{name}: unknown type {other}"),
                };
                assert!(ok, "{name} default {default:?} is not a {ty}");
            }
        }
    }

    /// The distributed-pregel rows document a fallback `crates/distrib`
    /// owns; nothing in this crate's tests sets the variable.
    #[test]
    fn the_io_timeout_row_states_the_runtime_s_fallback() {
        let timeout = graphalytics_platforms::distrib::net::io_timeout();
        let secs = timeout.expect("the variable is unset").as_secs();
        let row = KNOBS.iter().find(|k| k.0 == "GX_DISTRIB_IO_TIMEOUT_SECS");
        assert_eq!(row.unwrap().2, format!("run={secs} ladder={secs}"));
    }
}
