//! `graphalytics-lint` — the workspace invariant checker.
//!
//! Graphalytics' credibility rests on reproducible, validated runs: the
//! choke-point methodology needs deterministic datagen, the harness needs
//! platform failures to surface as report cells rather than crashes, and
//! the observability layer needs a single metric namespace. This crate
//! *enforces* those invariants as named lints over every `.rs` file in the
//! workspace, using a string/char/comment-aware lexer so matches never fire
//! inside literals or doc comments — and, since the concurrency surface
//! grew (unsafe scatter in `parallel`, the Mutex/Condvar job store in
//! `serve`), a lightweight semantic layer on top: an item/block parser
//! ([`parse`]), per-function lock-guard live ranges and blocking-call
//! sites ([`regions`]), and a workspace-global lock-acquisition graph
//! ([`lockgraph`]).
//!
//! Rules (see [`rules::RULES`] and DESIGN.md §8 for rationale):
//!
//! | rule | scope | invariant |
//! |------|-------|-----------|
//! | `determinism-time` | determinism crates | no wall clocks |
//! | `determinism-entropy` | all crates | only seeded RNG constructors |
//! | `determinism-hash` | determinism crates | no hash container or hasher is named |
//! | `panic-safety` | platform crates | no `unwrap`/`expect`/`panic!` |
//! | `unsafe-audit` | all crates | every `unsafe` carries `// SAFETY:` |
//! | `metric-grammar` | all crates | canonical metric/span names |
//! | `allow-pragma` | all crates | well-formed, used, reasoned allows |
//! | `lock-order` | all crates | the lock-acquisition graph is acyclic |
//! | `guard-across-blocking` | all crates | no guard live across a blocking call |
//! | `unsafe-contract` | parallel, columnar, graph | pinned `SAFETY[hash]:` proofs |
//! | `swallowed-result` | platforms, serve, faults | no `let _ =` on fallible calls |
//! | `spawn-audit` | determinism + platform crates | threads come from the parallel runtime's fork-join |
//!
//! The same tokens, file walk and test territory feed the §3.5
//! code-quality report ([`quality`], printed by `bench sec35`).
//!
//! Escape hatch: `// lint:allow(<rule>): <reason>` on the offending line or
//! the line above suppresses one rule there; the reason is mandatory and an
//! allow that suppresses nothing is itself an error — annotations cannot
//! rot silently.
//!
//! Run it: `cargo run -p graphalytics-lint -- check [--json]`.

pub mod check;
pub mod lexer;
pub mod lockgraph;
pub mod parse;
pub mod quality;
pub mod regions;
pub mod rules;
pub mod walk;

pub use check::{check_source, check_sources, Finding};

use std::io;
use std::path::Path;

/// Checks every governed `.rs` file under `root` (the workspace root) as
/// one unit — the lock-acquisition graph spans all of them — and returns
/// all findings, sorted by path then line.
pub fn check_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut findings = check_sources(&walk::sources(root)?);
    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(findings)
}

/// Locates the workspace root by walking up from `start` until a directory
/// whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<std::path::PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders findings as a bare JSON array (one object per finding) — the
/// `findings` member of [`report_json`], kept public for tooling that
/// wants just the list.
pub fn findings_to_json(findings: &[Finding]) -> String {
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"rule\":\"{}\",\"path\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
            f.rule,
            esc(&f.path),
            f.line,
            esc(&f.message)
        ));
    }
    out.push_str("\n]\n");
    out
}

/// The machine-readable report envelope (`lint check --json`), a
/// SARIF-inspired shape CI consumes for annotations:
///
/// ```json
/// {
///   "schema": "graphalytics-lint/2",
///   "tool": {"name": "...", "version": "...", "rules": [{"id", "scope", "summary"}]},
///   "counts": {"<rule>": <n>, ...},
///   "findings": [{"rule", "path", "line", "message"}, ...]
/// }
/// ```
///
/// `counts` holds one member per rule with at least one finding, in rule
/// catalog order; a clean workspace renders `"counts": {}`.
pub fn report_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"graphalytics-lint/2\",\n");
    out.push_str(&format!(
        "  \"tool\": {{\"name\": \"graphalytics-lint\", \"version\": \"{}\", \"rules\": [",
        env!("CARGO_PKG_VERSION")
    ));
    for (i, r) in rules::RULES.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let scope = match r.crates {
            None => "all".to_string(),
            Some(names) => names.join(","),
        };
        out.push_str(&format!(
            "\n    {{\"id\": \"{}\", \"scope\": \"{}\", \"summary\": \"{}\"}}",
            r.id,
            esc(&scope),
            esc(r.summary)
        ));
    }
    out.push_str("\n  ]},\n");
    out.push_str("  \"counts\": {");
    let mut first = true;
    for r in rules::RULES {
        let n = findings.iter().filter(|f| f.rule == r.id).count();
        if n == 0 {
            continue;
        }
        if !first {
            out.push_str(", ");
        }
        first = false;
        out.push_str(&format!("\"{}\": {n}", r.id));
    }
    out.push_str("},\n");
    out.push_str("  \"findings\": ");
    let list = findings_to_json(findings);
    out.push_str(list.trim_end());
    out.push_str("\n}\n");
    out
}

/// Markdown per-rule violation summary for the CI job summary
/// (`lint check --summary-out $GITHUB_STEP_SUMMARY`).
pub fn summary_markdown(findings: &[Finding]) -> String {
    let mut out = String::from("### graphalytics-lint\n\n");
    if findings.is_empty() {
        out.push_str(&format!(
            "workspace clean — {} rules, 0 violations\n",
            rules::RULES.len()
        ));
        return out;
    }
    out.push_str("| rule | violations |\n|------|-----------:|\n");
    for r in rules::RULES {
        let n = findings.iter().filter(|f| f.rule == r.id).count();
        if n > 0 {
            out.push_str(&format!("| `{}` | {n} |\n", r.id));
        }
    }
    out.push_str(&format!("\n**total: {}**\n", findings.len()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_output_escapes() {
        let findings = vec![Finding {
            rule: "panic-safety",
            path: "crates/x/src/a.rs".to_string(),
            line: 3,
            message: "a \"quoted\" message".to_string(),
        }];
        let json = findings_to_json(&findings);
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"line\":3"));
        assert!(json.starts_with('[') && json.trim_end().ends_with(']'));
    }

    #[test]
    fn report_envelope_carries_counts_and_catalog() {
        let findings = vec![
            Finding {
                rule: "panic-safety",
                path: "crates/x/src/a.rs".to_string(),
                line: 3,
                message: "m".to_string(),
            },
            Finding {
                rule: "panic-safety",
                path: "crates/x/src/b.rs".to_string(),
                line: 9,
                message: "m".to_string(),
            },
            Finding {
                rule: "lock-order",
                path: "crates/x/src/a.rs".to_string(),
                line: 4,
                message: "m".to_string(),
            },
        ];
        let json = report_json(&findings);
        assert!(
            json.contains("\"schema\": \"graphalytics-lint/2\""),
            "{json}"
        );
        assert!(json.contains("\"panic-safety\": 2"), "{json}");
        assert!(json.contains("\"lock-order\": 1"), "{json}");
        // Every catalog rule is described.
        for r in rules::RULES {
            assert!(json.contains(&format!("\"id\": \"{}\"", r.id)), "{}", r.id);
        }
        // Clean runs render an empty counts object.
        assert!(report_json(&[]).contains("\"counts\": {}"));
    }

    #[test]
    fn summary_lists_only_violated_rules() {
        let findings = vec![Finding {
            rule: "spawn-audit",
            path: "crates/x/src/a.rs".to_string(),
            line: 3,
            message: "m".to_string(),
        }];
        let md = summary_markdown(&findings);
        assert!(md.contains("| `spawn-audit` | 1 |"), "{md}");
        assert!(!md.contains("`panic-safety`"), "{md}");
        assert!(md.contains("**total: 1**"), "{md}");
        assert!(summary_markdown(&[]).contains("workspace clean"));
    }

    #[test]
    fn workspace_root_discovery_from_here() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        assert!(root.join("crates/lint/Cargo.toml").exists());
    }
}
