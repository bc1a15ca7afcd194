//! The analysis pipeline: per-file passes (tokenize, parse, region
//! model, every applicable rule), a workspace-global lock-graph phase,
//! then `lint:allow` suppression and unused-pragma reporting per file.
//!
//! Entry points: [`check_sources`] analyzes a whole file set together —
//! required for `lock-order`, whose cycle check spans files —
//! and [`check_source`] is the single-file convenience used by fixture
//! tests (its lock graph is then file-local).

use crate::lexer::{lex, Tok, TokKind};
use crate::lockgraph::{self, LockEdge};
use crate::parse::{functions, render_hash, token_hash, unsafe_extents};
use crate::regions::{fn_regions, guards_across_blocking, Acquire};
use crate::rules::{
    rule, valid_metric_name, valid_span_name, Rule, RULES, SPAWN_AUDIT_EXEMPT_FILES,
};

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule ID (see [`crate::rules::RULES`]).
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl Finding {
    /// The `path:line: [rule] message` diagnostic line.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// A parsed, well-formed `// lint:allow(<rule>): <reason>` pragma.
struct Allow {
    rule: &'static str,
    line: u32,
    used: bool,
}

/// Everything the per-file phase produces; suppressions are applied only
/// after the global phase has contributed its findings.
struct FileAnalysis {
    rel_path: String,
    test_boundary: u32,
    findings: Vec<Finding>,
    allows: Vec<Allow>,
    lock_edges: Vec<LockEdge>,
}

/// Checks a set of files as one workspace: per-file rules, then the
/// global lock-acquisition graph, then per-file allow application.
/// `rel_path`s must be workspace-relative with `/` separators — rule
/// scoping keys off their leading components.
pub fn check_sources(files: &[(String, String)]) -> Vec<Finding> {
    let mut analyses: Vec<FileAnalysis> = files.iter().map(|(p, s)| analyze(p, s)).collect();
    let edges: Vec<LockEdge> = analyses
        .iter()
        .flat_map(|a| a.lock_edges.iter().cloned())
        .collect();
    for f in lockgraph::check_cycles(&edges) {
        if let Some(a) = analyses.iter_mut().find(|a| a.rel_path == f.path) {
            a.findings.push(f);
        }
    }
    analyses.into_iter().flat_map(finalize).collect()
}

/// Checks one file's source in isolation (the lock graph then sees only
/// this file's edges).
pub fn check_source(rel_path: &str, src: &str) -> Vec<Finding> {
    check_sources(&[(rel_path.to_string(), src.to_string())])
}

/// The per-file phase: everything except allow application.
fn analyze(rel_path: &str, src: &str) -> FileAnalysis {
    let mut analysis = FileAnalysis {
        rel_path: rel_path.to_string(),
        test_boundary: u32::MAX,
        findings: Vec::new(),
        allows: Vec::new(),
        lock_edges: Vec::new(),
    };
    if is_test_path(rel_path) {
        return analysis;
    }
    let crate_name = crate_of(rel_path);
    let toks = lex(src);
    analysis.test_boundary = first_cfg_test_line(&toks).unwrap_or(u32::MAX);

    // Split comments (for SAFETY / pragma detection) from code tokens.
    let mut comments: Vec<&Tok> = Vec::new();
    let mut code: Vec<&Tok> = Vec::new();
    for t in &toks {
        match t.kind {
            TokKind::LineComment | TokKind::BlockComment => comments.push(t),
            _ => code.push(t),
        }
    }

    let findings = &mut analysis.findings;
    collect_pragmas(
        rel_path,
        &comments,
        analysis.test_boundary,
        &mut analysis.allows,
        findings,
    );

    let in_scope = |r: &Rule| match r.crates {
        None => true,
        Some(names) => names.contains(&crate_name),
    };
    if in_scope(must("determinism-time")) {
        determinism_time(rel_path, &code, findings);
    }
    if in_scope(must("determinism-entropy")) {
        determinism_entropy(rel_path, &code, findings);
    }
    if in_scope(must("determinism-hash")) {
        determinism_hash(rel_path, &code, findings);
    }
    if in_scope(must("panic-safety")) {
        panic_safety(rel_path, &code, findings);
    }
    if in_scope(must("unsafe-audit")) {
        unsafe_audit(rel_path, &code, &comments, findings);
    }
    if in_scope(must("metric-grammar")) && rel_path != "crates/core/src/trace.rs" {
        metric_grammar(rel_path, &code, findings);
    }
    if in_scope(must("unsafe-contract")) {
        unsafe_contract(rel_path, &code, &comments, findings);
    }
    if in_scope(must("swallowed-result")) {
        swallowed_result(rel_path, &code, findings);
    }
    if in_scope(must("spawn-audit")) && !SPAWN_AUDIT_EXEMPT_FILES.contains(&rel_path) {
        spawn_audit(rel_path, &code, findings);
    }
    analysis.lock_edges = concurrency(
        crate_name,
        rel_path,
        &code,
        analysis.test_boundary,
        in_scope(must("guard-across-blocking")),
        findings,
    );
    analysis
}

/// The per-file epilogue: drop test-module findings, dedup, apply
/// suppressions, report unused pragmas.
fn finalize(analysis: FileAnalysis) -> Vec<Finding> {
    let FileAnalysis {
        rel_path,
        test_boundary,
        mut findings,
        mut allows,
        ..
    } = analysis;
    findings.retain(|f| f.line < test_boundary);
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings.dedup_by(|a, b| a.line == b.line && a.rule == b.rule);
    findings.retain(|f| {
        if f.rule == "allow-pragma" {
            return true; // Pragma problems cannot be pragma'd away.
        }
        for a in allows.iter_mut() {
            if a.rule == f.rule && (a.line == f.line || a.line + 1 == f.line) {
                a.used = true;
                return false;
            }
        }
        true
    });
    for a in &allows {
        if !a.used {
            findings.push(Finding {
                rule: "allow-pragma",
                path: rel_path.clone(),
                line: a.line,
                message: format!(
                    "unused allow: no `{}` finding on this line or the next",
                    a.rule
                ),
            });
        }
    }
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

fn must(id: &str) -> &'static Rule {
    // The ID strings above are compile-time members of RULES; a mismatch is
    // a bug in this file and surfaces immediately in every test.
    rule(id).unwrap_or(&RULES[0])
}

/// Whether the path is test-only territory (integration tests, benches,
/// examples): every component is checked so nested dirs count too.
pub(crate) fn is_test_path(rel_path: &str) -> bool {
    rel_path
        .split('/')
        .any(|c| c == "tests" || c == "benches" || c == "examples")
}

/// The crate-name scope key: `crates/<name>/...` → `<name>`, anything else
/// (the root facade's `src/`) → "graphalytics".
fn crate_of(rel_path: &str) -> &str {
    let mut parts = rel_path.split('/');
    if parts.next() == Some("crates") {
        if let Some(name) = parts.next() {
            return name;
        }
    }
    "graphalytics"
}

/// Line of the first `#[cfg(test)]` attribute, if any.
pub(crate) fn first_cfg_test_line(toks: &[Tok]) -> Option<u32> {
    let code: Vec<&Tok> = toks
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
    for w in code.windows(6) {
        if w[0].is_punct('#')
            && w[1].is_punct('[')
            && w[2].is_ident("cfg")
            && w[3].is_punct('(')
            && w[4].is_ident("test")
            && w[5].is_punct(')')
        {
            return Some(w[0].line);
        }
    }
    None
}

fn push(findings: &mut Vec<Finding>, rule: &'static str, path: &str, line: u32, message: String) {
    findings.push(Finding {
        rule,
        path: path.to_string(),
        line,
        message,
    });
}

fn collect_pragmas(
    path: &str,
    comments: &[&Tok],
    test_boundary: u32,
    allows: &mut Vec<Allow>,
    findings: &mut Vec<Finding>,
) {
    for c in comments {
        if c.line >= test_boundary {
            continue;
        }
        // Only a comment that *is* a pragma counts — prose that merely
        // mentions `lint:allow(...)` (docs, this very file) is ignored.
        let Some(rest) = c.text.trim_start().strip_prefix("lint:allow") else {
            continue;
        };
        let bad = |findings: &mut Vec<Finding>, msg: String| {
            push(findings, "allow-pragma", path, c.line, msg);
        };
        let Some(rest) = rest.strip_prefix('(') else {
            bad(
                findings,
                "malformed pragma: expected `lint:allow(<rule>): <reason>`".to_string(),
            );
            continue;
        };
        let Some(close) = rest.find(')') else {
            bad(findings, "malformed pragma: missing `)`".to_string());
            continue;
        };
        let id = rest[..close].trim();
        let Some(known) = rule(id) else {
            bad(findings, format!("unknown rule `{id}` in allow pragma"));
            continue;
        };
        let tail = &rest[close + 1..];
        let reason = tail.strip_prefix(':').map(str::trim).unwrap_or("");
        if reason.is_empty() {
            bad(
                findings,
                format!("allow pragma for `{id}` must give a reason: `lint:allow({id}): <why>`"),
            );
            continue;
        }
        allows.push(Allow {
            rule: known.id,
            line: c.line,
            used: false,
        });
    }
}

fn determinism_time(path: &str, code: &[&Tok], findings: &mut Vec<Finding>) {
    for w in code.windows(4) {
        if w[0].is_ident("std") && w[1].is_punct(':') && w[2].is_punct(':') && w[3].is_ident("time")
        {
            push(
                findings,
                "determinism-time",
                path,
                w[0].line,
                "std::time in a determinism-scoped crate: outputs must not depend on wall clocks"
                    .to_string(),
            );
        }
    }
    for t in code {
        if t.is_ident("Instant") || t.is_ident("SystemTime") {
            push(
                findings,
                "determinism-time",
                path,
                t.line,
                format!(
                    "`{}` in a determinism-scoped crate: outputs must not depend on wall clocks",
                    t.text
                ),
            );
        }
    }
}

fn determinism_entropy(path: &str, code: &[&Tok], findings: &mut Vec<Finding>) {
    const BANNED: &[&str] = &[
        "thread_rng",
        "from_entropy",
        "OsRng",
        "getrandom",
        "RandomState",
    ];
    for t in code {
        if t.kind == TokKind::Ident && BANNED.contains(&t.text.as_str()) {
            push(
                findings,
                "determinism-entropy",
                path,
                t.line,
                format!(
                    "`{}` draws OS entropy: seed a SplitMix64/Xoshiro256 instead",
                    t.text
                ),
            );
        }
    }
}

fn determinism_hash(path: &str, code: &[&Tok], findings: &mut Vec<Finding>) {
    const HASH_TYPES: &[&str] = &["HashMap", "HashSet", "FxHashMap", "FxHashSet", "FxHasher"];
    for t in code {
        if t.kind == TokKind::Ident && HASH_TYPES.contains(&t.text.as_str()) {
            push(
                findings,
                "determinism-hash",
                path,
                t.line,
                format!(
                    "`{}` in a determinism-scoped crate: keep per-vertex state in a \
                     vertex-indexed Vec, sort and scan, or use a BTreeMap",
                    t.text
                ),
            );
        }
    }
}

fn panic_safety(path: &str, code: &[&Tok], findings: &mut Vec<Finding>) {
    for (i, t) in code.iter().enumerate() {
        if !panics_at(code, i) {
            continue;
        }
        let message = match t.text.as_str() {
            "unwrap" => "`.unwrap()` in a platform crate: propagate PlatformError instead \
                         (a failed run must become a report cell, not a crash)"
                .to_string(),
            "expect" => "`.expect(..)` in a platform crate: propagate PlatformError instead, \
                         or allow with a written infallibility argument"
                .to_string(),
            name => format!("`{name}!` in a platform crate: propagate PlatformError instead"),
        };
        push(findings, "panic-safety", path, t.line, message);
    }
}

/// Whether `code[i]` is a call that panics: `.unwrap()`, a panic-family
/// macro, or `.expect(..)` not immediately followed by `?` — the trailing
/// `?` marks a Result-returning parser-combinator `expect`, not
/// `Result::expect`/`Option::expect`.
pub(crate) fn panics_at(code: &[&Tok], i: usize) -> bool {
    const MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
    let at = |j: usize, c: char| code.get(j).is_some_and(|n| n.is_punct(c));
    let t = code[i];
    let method = i > 0 && at(i - 1, '.') && at(i + 1, '(');
    match t.text.as_str() {
        _ if t.kind != TokKind::Ident => false,
        "unwrap" => method && at(i + 2, ')'),
        "expect" if method => {
            let mut depth = 0usize;
            let mut j = i + 1;
            while let Some(n) = code.get(j) {
                if n.is_punct('(') {
                    depth += 1;
                } else if n.is_punct(')') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            !at(j + 1, '?')
        }
        name => MACROS.contains(&name) && at(i + 1, '!'),
    }
}

fn unsafe_audit(path: &str, code: &[&Tok], comments: &[&Tok], findings: &mut Vec<Finding>) {
    for t in code {
        if !t.is_ident("unsafe") {
            continue;
        }
        // Accept a SAFETY comment (bare `SAFETY:` or pinned `SAFETY[..]:`)
        // on the same line, or anywhere inside the contiguous comment block
        // ending on the line directly above (multi-line justifications are
        // the norm for non-trivial blocks).
        let has_safety = |c: &Tok| c.text.contains("SAFETY:") || c.text.contains("SAFETY[");
        let mut documented = comments.iter().any(|c| c.line == t.line && has_safety(c));
        let mut line = t.line;
        while !documented && line > 1 {
            line -= 1;
            let Some(c) = comments.iter().find(|c| c.line == line) else {
                break;
            };
            documented = has_safety(c);
        }
        if !documented {
            push(
                findings,
                "unsafe-audit",
                path,
                t.line,
                "`unsafe` without a `// SAFETY:` comment on the same line or in \
                 the comment block directly above"
                    .to_string(),
            );
        }
    }
}

fn metric_grammar(path: &str, code: &[&Tok], findings: &mut Vec<Finding>) {
    const METRIC_FNS: &[&str] = &[
        "inc_counter",
        "set_gauge",
        "max_gauge",
        "observe",
        "observe_with_buckets",
    ];
    const SPAN_FNS: &[&str] = &["span", "span_with_parent", "event"];
    // Pattern: `. <method> ( "<name>"` — the tracer/registry APIs always
    // take the name as the first argument. Dynamic (non-literal) names are
    // not statically checkable and pass.
    for i in 3..code.len() {
        let name_tok = code[i];
        if name_tok.kind != TokKind::Str
            || !code[i - 1].is_punct('(')
            || code[i - 2].kind != TokKind::Ident
            || !code[i - 3].is_punct('.')
        {
            continue;
        }
        let method = code[i - 2].text.as_str();
        let name = name_tok.text.as_str();
        if METRIC_FNS.contains(&method) && !valid_metric_name(name) {
            push(
                findings,
                "metric-grammar",
                path,
                name_tok.line,
                format!(
                    "metric name \"{name}\" violates the canonical grammar \
                     `graphalytics_[a-z][a-z0-9_]*`"
                ),
            );
        }
        if SPAN_FNS.contains(&method) && !valid_span_name(name) {
            push(
                findings,
                "metric-grammar",
                path,
                name_tok.line,
                format!(
                    "span name \"{name}\" violates the dotted lowercase grammar \
                     `seg(.seg)*` with seg = `[a-z][a-z0-9_]*`"
                ),
            );
        }
    }
}

/// The comment block attached to line `line`: a comment on the line
/// itself, or the contiguous run of comment lines directly above it, in
/// top-down order.
fn attached_comments<'a>(comments: &[&'a Tok], line: u32) -> Vec<&'a Tok> {
    if let Some(c) = comments.iter().find(|c| c.line == line) {
        return vec![c];
    }
    let mut block: Vec<&Tok> = Vec::new();
    let mut l = line;
    while l > 1 {
        l -= 1;
        match comments.iter().find(|c| c.line == l) {
            Some(c) => block.push(c),
            None => break,
        }
    }
    block.reverse();
    block
}

/// `unsafe-contract`: every unsafe extent must carry a pinned
/// `SAFETY[<token-hash>]: <invariant>` proof. The hash covers the code
/// tokens of the extent — editing the guarded code without updating (and
/// therefore re-reviewing) the proof is flagged as a stale contract.
fn unsafe_contract(path: &str, code: &[&Tok], comments: &[&Tok], findings: &mut Vec<Finding>) {
    for ext in unsafe_extents(code) {
        let expected = render_hash(token_hash(code, ext.start, ext.end));
        let block = attached_comments(comments, ext.line);
        let Some(pos) = block.iter().position(|c| c.text.contains("SAFETY")) else {
            push(
                findings,
                "unsafe-contract",
                path,
                ext.line,
                format!(
                    "`unsafe` without a structured proof: add \
                     `// SAFETY[{expected}]: <invariant>` naming what makes this sound"
                ),
            );
            continue;
        };
        let text = &block[pos].text;
        let after = &text[text.find("SAFETY").unwrap_or(0) + "SAFETY".len()..];
        let (pin, rest) = match after.strip_prefix('[') {
            Some(r) => match r.find(']') {
                Some(close) => (Some(r[..close].trim()), &r[close + 1..]),
                None => (Some(""), r),
            },
            None => (None, after),
        };
        let Some(pin) = pin else {
            push(
                findings,
                "unsafe-contract",
                path,
                block[pos].line,
                format!(
                    "unpinned SAFETY comment: pin the proof to the code as \
                     `SAFETY[{expected}]:` so future edits re-trigger review"
                ),
            );
            continue;
        };
        if pin != expected {
            push(
                findings,
                "unsafe-contract",
                path,
                block[pos].line,
                format!(
                    "stale proof: contract pins token hash `{pin}` but the unsafe code \
                     now hashes to `{expected}` — re-review the invariant, then update the pin"
                ),
            );
            continue;
        }
        // Invariant text: the rest of the proof line plus any continuation
        // comment lines below it in the same block.
        let mut invariant = rest.trim_start_matches(':').trim().to_string();
        for c in &block[pos + 1..] {
            if !invariant.is_empty() {
                break;
            }
            invariant = c.text.trim().to_string();
        }
        if invariant.is_empty() {
            push(
                findings,
                "unsafe-contract",
                path,
                block[pos].line,
                "SAFETY contract names no invariant: state what the callers/code \
                 uphold that makes this sound"
                    .to_string(),
            );
        }
    }
}

/// Calls whose `Result` encodes a fault-taxonomy signal: discarding one
/// with `let _ =` turns a detectable fault into silence.
const FALLIBLE_CALLS: &[&str] = &[
    "remove_dir_all",
    "remove_file",
    "create_dir_all",
    "write_all",
    "flush",
    "sync_all",
    "join",
    "send",
    "checkpoint",
    "restore",
    "write_to",
];

fn swallowed_result(path: &str, code: &[&Tok], findings: &mut Vec<Finding>) {
    for i in 0..code.len() {
        if !(code[i].is_ident("let")
            && code.get(i + 1).is_some_and(|t| t.is_ident("_"))
            && code.get(i + 2).is_some_and(|t| t.is_punct('=')))
        {
            continue;
        }
        // Scan the right-hand side to its terminating `;`, looking for a
        // fallible call at any nesting depth.
        let mut depth = 0usize;
        let mut j = i + 3;
        while let Some(t) = code.get(j) {
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                if depth == 0 {
                    break; // Left the enclosing scope: malformed/expression tail.
                }
                depth -= 1;
            } else if t.is_punct(';') && depth == 0 {
                break;
            } else if t.kind == TokKind::Ident
                && FALLIBLE_CALLS.contains(&t.text.as_str())
                && code.get(j + 1).is_some_and(|n| n.is_punct('('))
            {
                push(
                    findings,
                    "swallowed-result",
                    path,
                    code[i].line,
                    format!(
                        "`let _ = …` discards the Result of `{}`: the fault taxonomy \
                         loses a signal — handle it, record it, or allow with a written \
                         reason why ignoring is sound",
                        t.text
                    ),
                );
                break;
            }
            j += 1;
        }
    }
}

fn spawn_audit(path: &str, code: &[&Tok], findings: &mut Vec<Finding>) {
    for i in 0..code.len() {
        let t = code[i];
        if !t.is_ident("spawn") || !code.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        if i > 0 && code[i - 1].is_ident("fn") {
            continue; // Defining a sanctioned spawn wrapper, not calling one.
        }
        push(
            findings,
            "spawn-audit",
            path,
            t.line,
            "thread spawned outside the parallel runtime / serve worker pool: \
             determinism-scoped and engine work must run on accounted threads — \
             route it through graphalytics_parallel::try_map_each (or map_each), \
             or allow with a written reason"
                .to_string(),
        );
    }
}

/// The concurrency pass: builds every function's region model once,
/// emitting `guard-across-blocking` findings and collecting the file's
/// lock-graph edges for the workspace-global `lock-order` phase.
fn concurrency(
    krate: &str,
    path: &str,
    code: &[&Tok],
    test_boundary: u32,
    check_blocking: bool,
    findings: &mut Vec<Finding>,
) -> Vec<LockEdge> {
    let mut edges = Vec::new();
    for func in functions(code) {
        if func.line >= test_boundary {
            continue;
        }
        let regions = fn_regions(code, &func);
        if check_blocking {
            for (a, b) in guards_across_blocking(&regions) {
                push(
                    findings,
                    "guard-across-blocking",
                    path,
                    b.line,
                    format!(
                        "`{}` guard (acquired line {}) is live across blocking `{}`: \
                         every other consumer of the lock stalls behind it — drop or \
                         scope the guard before blocking",
                        a.lock, a.line, b.callee
                    ),
                );
            }
        }
        let live: Vec<Acquire> = regions
            .acquires
            .iter()
            .filter(|a| a.line < test_boundary)
            .cloned()
            .collect();
        edges.extend(lockgraph::fn_edges(krate, path, &live));
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_at(path: &str, src: &str) -> Vec<(&'static str, u32)> {
        check_source(path, src)
            .into_iter()
            .map(|f| (f.rule, f.line))
            .collect()
    }

    #[test]
    fn scope_helpers() {
        assert_eq!(crate_of("crates/datagen/src/rmat.rs"), "datagen");
        assert_eq!(crate_of("src/lib.rs"), "graphalytics");
        assert!(is_test_path("crates/pregel/tests/props.rs"));
        assert!(is_test_path("crates/bench/benches/kernels.rs"));
        assert!(is_test_path("examples/quickstart.rs"));
        assert!(!is_test_path("crates/pregel/src/engine.rs"));
    }

    #[test]
    fn findings_inside_cfg_test_are_ignored() {
        let src = "fn f() { let t = Instant::now(); }\n\
                   #[cfg(test)]\n\
                   mod tests { fn g() { let t = Instant::now(); } }\n";
        assert_eq!(
            rules_at("crates/datagen/src/x.rs", src),
            vec![("determinism-time", 1)]
        );
    }

    #[test]
    fn platform_scope_is_respected() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert_eq!(
            rules_at("crates/pregel/src/x.rs", src),
            vec![("panic-safety", 1)]
        );
        // datagen is outside the panic-safety scope.
        assert_eq!(rules_at("crates/datagen/src/x.rs", src), vec![]);
    }

    #[test]
    fn parser_combinator_expect_is_not_flagged() {
        let src = "fn f(p: &mut P) -> Result<(), E> { p.expect(\"select\")?; Ok(()) }\n";
        assert_eq!(rules_at("crates/columnar/src/x.rs", src), vec![]);
        let bad = "fn f(p: Option<u8>) -> u8 { p.expect(\"present\") }\n";
        assert_eq!(
            rules_at("crates/columnar/src/x.rs", bad),
            vec![("panic-safety", 1)]
        );
    }

    #[test]
    fn allow_pragma_round_trip() {
        let src = "fn f(x: Option<u8>) -> u8 {\n\
                   // lint:allow(panic-safety): x is Some by construction above\n\
                   x.unwrap()\n\
                   }\n";
        assert_eq!(rules_at("crates/pregel/src/x.rs", src), vec![]);
    }

    #[test]
    fn allow_without_reason_is_itself_a_violation() {
        let src = "fn f(x: Option<u8>) -> u8 {\n\
                   // lint:allow(panic-safety)\n\
                   x.unwrap()\n\
                   }\n";
        let got = rules_at("crates/pregel/src/x.rs", src);
        assert!(got.contains(&("allow-pragma", 2)), "{got:?}");
        assert!(got.contains(&("panic-safety", 3)), "{got:?}");
    }

    #[test]
    fn unused_allow_is_reported() {
        let src = "// lint:allow(panic-safety): nothing here needs it\n\
                   fn f() {}\n";
        assert_eq!(
            rules_at("crates/pregel/src/x.rs", src),
            vec![("allow-pragma", 1)]
        );
    }

    #[test]
    fn unsafe_audit_accepts_safety_comments() {
        let with = "fn f(xs: &[u8]) -> u8 {\n\
                    // SAFETY: idx is bounded by xs.len() above.\n\
                    unsafe { *xs.get_unchecked(0) }\n\
                    }\n";
        assert_eq!(rules_at("crates/core/src/x.rs", with), vec![]);
        let without = "fn f(xs: &[u8]) -> u8 { unsafe { *xs.get_unchecked(0) } }\n";
        assert_eq!(
            rules_at("crates/core/src/x.rs", without),
            vec![("unsafe-audit", 1)]
        );
    }

    #[test]
    fn hash_types_are_findings_wherever_named() {
        // The import, the parameter type and the constructor path each
        // fire; iterating the binding adds nothing — naming is the finding.
        let src = "use rustc_hash::FxHashMap;\n\
                   fn f(weight: &mut FxHashMap<u32, f64>) -> Vec<u32> {\n\
                   let s: std::collections::HashSet<u32> = std::collections::HashSet::new();\n\
                   let h = rustc_hash::FxHasher::default();\n\
                   weight.keys().copied().collect()\n\
                   }\n";
        assert_eq!(
            rules_at("crates/algos/src/x.rs", src),
            vec![
                ("determinism-hash", 1),
                ("determinism-hash", 2),
                ("determinism-hash", 3),
                ("determinism-hash", 4),
            ]
        );
        // Outside the determinism crates the engines may hash freely.
        assert_eq!(rules_at("crates/dataflow/src/x.rs", src), vec![]);
        // Ordered containers, and hash names in strings or comments, pass.
        let ordered = "// a HashMap would do, but BTreeMap keeps the order\n\
                       fn f(m: &std::collections::BTreeMap<u32, u32>) -> &str { \"HashSet\" }\n";
        assert_eq!(rules_at("crates/algos/src/x.rs", ordered), vec![]);
    }

    #[test]
    fn for_loop_over_hash_collection_fires() {
        let src = "use rustc_hash::FxHashSet;\n\
                   fn f(burned: FxHashSet<u32>) {\n\
                   for b in burned {\n\
                   let _ = b;\n\
                   }\n\
                   }\n";
        assert_eq!(
            rules_at("crates/datagen/src/x.rs", src),
            vec![("determinism-hash", 1), ("determinism-hash", 2)]
        );
    }

    #[test]
    fn metric_and_span_grammar() {
        let src = "fn f(t: &Tracer) {\n\
                   t.metrics().inc_counter(\"gx_runs_total\", &[], 1);\n\
                   let _s = t.span(\"Run.Load\");\n\
                   let _ok = t.span(\"run.load\");\n\
                   t.metrics().observe(\"graphalytics_run_seconds\", &[], 0.1);\n\
                   }\n";
        assert_eq!(
            rules_at("crates/core/src/x.rs", src),
            vec![("metric-grammar", 2), ("metric-grammar", 3)]
        );
    }

    #[test]
    fn matches_never_fire_inside_literals_or_comments() {
        let src = "// Instant::now() and unwrap() in a comment\n\
                   fn f() -> &'static str { \"Instant::now() .unwrap() panic!()\" }\n";
        assert_eq!(rules_at("crates/datagen/src/x.rs", src), vec![]);
        assert_eq!(rules_at("crates/pregel/src/x.rs", src), vec![]);
    }

    #[test]
    fn guard_across_blocking_fires_and_is_allowable() {
        let src = "fn f(&self) {\n\
                   let g = self.state.lock();\n\
                   std::thread::sleep(d);\n\
                   }\n";
        assert_eq!(
            rules_at("crates/core/src/x.rs", src),
            vec![("guard-across-blocking", 3)]
        );
        let allowed = "fn f(&self) {\n\
                       let g = self.state.lock();\n\
                       // lint:allow(guard-across-blocking): single-threaded setup path\n\
                       std::thread::sleep(d);\n\
                       }\n";
        assert_eq!(rules_at("crates/core/src/x.rs", allowed), vec![]);
    }

    #[test]
    fn lock_order_cycle_spans_files() {
        let a = "fn f(&self) {\n\
                 let g = self.alpha.lock();\n\
                 let h = self.beta.lock();\n\
                 }\n";
        let b = "fn g(&self) {\n\
                 let g = self.beta.lock();\n\
                 let h = self.alpha.lock();\n\
                 }\n";
        let findings = check_sources(&[
            ("crates/core/src/a.rs".to_string(), a.to_string()),
            ("crates/core/src/b.rs".to_string(), b.to_string()),
        ]);
        let got: Vec<(&str, &str, u32)> = findings
            .iter()
            .map(|f| (f.rule, f.path.as_str(), f.line))
            .collect();
        assert_eq!(
            got,
            vec![
                ("lock-order", "crates/core/src/a.rs", 3),
                ("lock-order", "crates/core/src/b.rs", 3),
            ]
        );
        // Each file alone is consistent: no cycle, no findings.
        assert_eq!(rules_at("crates/core/src/a.rs", a), vec![]);
    }

    #[test]
    fn unsafe_contract_pins_proofs() {
        let src_with = |pin: &str| {
            format!(
                "fn f(xs: &[u8]) -> u8 {{\n\
                 // SAFETY[{pin}]: caller guarantees !xs.is_empty().\n\
                 unsafe {{ *xs.get_unchecked(0) }}\n\
                 }}\n"
            )
        };
        let stale = check_source("crates/graph/src/x.rs", &src_with("00000000"));
        assert_eq!(stale.len(), 1);
        assert_eq!((stale[0].rule, stale[0].line), ("unsafe-contract", 2));
        // The message carries the expected hash; pinning it makes the file
        // clean — the mechanical fix the diagnostic prescribes.
        let expected = stale[0].message.split('`').nth(3).unwrap().to_string();
        assert_eq!(expected.len(), 8, "{}", stale[0].message);
        assert_eq!(rules_at("crates/graph/src/x.rs", &src_with(&expected)), []);
    }

    #[test]
    fn unsafe_contract_requires_structure_and_invariant() {
        // Bare SAFETY: passes unsafe-audit but not the pinned contract.
        let bare = "fn f(xs: &[u8]) -> u8 {\n\
                    // SAFETY: fine.\n\
                    unsafe { *xs.get_unchecked(0) }\n\
                    }\n";
        assert_eq!(
            rules_at("crates/parallel/src/x.rs", bare),
            vec![("unsafe-contract", 2)]
        );
        // No comment at all: both the audit and the contract fire.
        let none = "fn f(xs: &[u8]) -> u8 { unsafe { *xs.get_unchecked(0) } }\n";
        let got = rules_at("crates/parallel/src/x.rs", none);
        assert!(got.contains(&("unsafe-audit", 1)), "{got:?}");
        assert!(got.contains(&("unsafe-contract", 1)), "{got:?}");
        // Outside the contract scope, bare SAFETY: still suffices.
        assert_eq!(rules_at("crates/serve/src/x.rs", bare), vec![]);
    }

    #[test]
    fn swallowed_result_catches_discards() {
        let src = "fn f(h: Handle) {\n\
                   let _ = h.join();\n\
                   let _ = x + 1;\n\
                   }\n";
        assert_eq!(
            rules_at("crates/mapreduce/src/x.rs", src),
            vec![("swallowed-result", 2)]
        );
        // Out of scope: algos is not a fault-taxonomy crate.
        assert_eq!(rules_at("crates/algos/src/x.rs", src), vec![]);
    }

    #[test]
    fn spawn_audit_scopes_and_exemptions() {
        let src = "fn f() { std::thread::spawn(|| {}); }\n";
        assert_eq!(
            rules_at("crates/datagen/src/x.rs", src),
            vec![("spawn-audit", 1)]
        );
        // The pool implementations are exempt wholesale.
        assert_eq!(rules_at("crates/parallel/src/lib.rs", src), vec![]);
        // Platform crates fan out through the parallel runtime too.
        assert_eq!(
            rules_at("crates/pregel/src/x.rs", src),
            vec![("spawn-audit", 1)]
        );
        // The harness and the driver own their threads.
        assert_eq!(rules_at("crates/core/src/x.rs", src), vec![]);
        // Defining a spawn wrapper is not a call.
        let def = "fn spawn(f: impl FnOnce()) { f() }\n";
        assert_eq!(rules_at("crates/datagen/src/x.rs", def), vec![]);
    }
}
