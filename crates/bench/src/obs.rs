//! The observability session behind the `--trace-out` and `--profile-out`
//! flags of `run`, `fig4`, `fig5` and `robustness`:
//!
//! * `--trace-out <trace.jsonl>` — export spans + metrics as JSONL and a
//!   Prometheus text rendering to `<path>.prom`;
//! * `--profile-out <base>` — fold the finished spans and write
//!   `<base>.folded` (folded stacks weighted by µs of self time),
//!   `<base>.svg` (flamegraph),
//!   `<base>.trace.json` (Chrome `trace_event`), and
//!   `<base>.chokepoints.jsonl` (per-run choke-point attribution).
//!
//! [`ObsSession`] owns the tracer lifecycle so the commands stay
//! one-screen: observability is paid for only when a flag asks for it —
//! with no flag the tracer is disabled and every span and metric call is a
//! no-op, keeping command outputs byte-identical.

use std::sync::Arc;

use graphalytics_core::Tracer;
use graphalytics_obs::chokepoints::{self, RunChokePoints};
use graphalytics_obs::{chrome_trace, flamegraph_svg, Profile};

use crate::Args;

/// A live observability session: the tracer every suite run should be
/// handed, plus where its artifacts go.
pub struct ObsSession {
    /// Enabled iff any observability flag was set; pass to `run_traced`.
    pub tracer: Arc<Tracer>,
    trace_out: Option<String>,
    profile_out: Option<String>,
}

/// What [`ObsSession::finish`] hands back for callers that embed the
/// results elsewhere (results DB, HTML report).
#[derive(Default)]
pub struct ObsArtifacts {
    /// The aggregated profile (profiling runs only).
    pub profile: Option<Profile>,
    /// Per-run choke-point attribution (profiling runs only).
    pub chokepoints: Vec<RunChokePoints>,
}

impl ObsSession {
    /// Builds the tracer — enabled iff `args` carries an observability flag.
    pub fn start(args: &Args) -> Self {
        let trace_out = args.flag("--trace-out").map(str::to_string);
        let profile_out = args.flag("--profile-out").map(str::to_string);
        let tracer = Arc::new(if trace_out.is_some() || profile_out.is_some() {
            Tracer::new()
        } else {
            Tracer::disabled()
        });
        // Every observability export identifies the binary that produced
        // it (satisfies scrapes and JSONL consumers alike); no-op when
        // observability is off, keeping default outputs byte-identical.
        tracer.metrics().register_build_info();
        Self {
            tracer,
            trace_out,
            profile_out,
        }
    }

    /// Writes every requested artifact. `title` labels the flamegraph.
    /// Returns the profile and choke-point reports so drivers can splice
    /// them into their own outputs.
    pub fn finish(self, title: &str) -> ObsArtifacts {
        let mut artifacts = ObsArtifacts::default();
        if let Some(path) = &self.trace_out {
            write_or_warn(path, &self.tracer.export_jsonl(), "trace");
            write_or_warn(
                &format!("{path}.prom"),
                &self.tracer.metrics().render_prometheus(),
                "metrics",
            );
        }
        if let Some(base) = &self.profile_out {
            let spans = self.tracer.finished_spans();
            let profile = artifacts.profile.insert(Profile::from_spans(&spans));
            write_or_warn(
                &format!("{base}.folded"),
                &profile.folded_text(),
                "folded stacks",
            );
            write_or_warn(
                &format!("{base}.svg"),
                &flamegraph_svg(profile, title),
                "flamegraph",
            );
            write_or_warn(
                &format!("{base}.trace.json"),
                &chrome_trace(&spans),
                "chrome trace",
            );
            artifacts.chokepoints = chokepoints::attribute(&spans);
            let mut jsonl = String::new();
            for report in &artifacts.chokepoints {
                jsonl.push_str(&report.to_json().to_string_compact());
                jsonl.push('\n');
            }
            write_or_warn(
                &format!("{base}.chokepoints.jsonl"),
                &jsonl,
                "choke-point report",
            );
            eprint!("{}", chokepoints::render_text(&artifacts.chokepoints));
        }
        artifacts
    }
}

fn write_or_warn(path: &str, content: &str, what: &str) {
    match std::fs::write(path, content) {
        Ok(()) => eprintln!("{what} written to {path}"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
}
