//! The code-quality report (paper §3.5).
//!
//! "In Graphalytics, the code for the reference implementations is
//! accompanied by code quality reports, such as code complexity, bugs
//! discovered through static analysis, etc." The paper's pipeline uses
//! SonarQube and Jenkins; here the report is a fold over the same tokens
//! and the same file set the invariant checker sees ([`lex`],
//! [`walk::rust_files`]), so a keyword or a `//` inside a string literal
//! is never counted, and "outside tests" is the checker's test territory:
//! a file under `tests/`, `benches/` or `examples/`, or anything from a
//! file's first `#[cfg(test)]` on.

use std::fmt::Write as _;
use std::io;
use std::ops::AddAssign;
use std::path::Path;

use crate::check::{first_cfg_test_line, is_test_path, panics_at};
use crate::lexer::{lex, Tok, TokKind};
use crate::walk;

/// Metrics for one unit of the report (a crate or a top-level directory).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QualityMetrics {
    /// Name of the unit.
    pub name: String,
    /// Files analyzed.
    pub files: usize,
    /// Lines holding at least one token that is not a comment.
    pub code_lines: usize,
    /// Lines holding only comments (`//`, doc and block comments).
    pub comment_lines: usize,
    /// `#[test]` functions.
    pub test_functions: usize,
    /// `fn` items (a `fn` keyword followed by a name).
    pub functions: usize,
    /// Branch points: `if`, `while` and `match` keywords, a loop's `for`
    /// (one with an `in` before the next `{` or `;`, so not the `for` of
    /// `impl Trait for Type`), `=>` tokens, and `&&` and `||` after an
    /// operand (so not a reference to a reference or a closure's empty
    /// parameter list) — a summed cyclomatic-complexity estimate.
    pub branch_points: usize,
    /// Calls that panic outside test territory: `.unwrap()`, `.expect(..)`
    /// and the `panic!` family, as the `panic-safety` rule finds them.
    pub unwraps_non_test: usize,
}

impl QualityMetrics {
    /// Comment density: comment lines per code line.
    pub fn comment_density(&self) -> f64 {
        ratio(self.comment_lines, self.code_lines)
    }

    /// Mean branch points per function — the complexity indicator.
    pub fn mean_complexity(&self) -> f64 {
        ratio(self.branch_points, self.functions)
    }

    /// Potential-bug density: unwraps per 1000 code lines.
    pub fn unwrap_density(&self) -> f64 {
        1000.0 * ratio(self.unwraps_non_test, self.code_lines)
    }

    /// Folds one file into the metrics; `rel_path` is workspace-relative
    /// with `/` separators and decides its test territory.
    pub fn add_file(&mut self, rel_path: &str, src: &str) {
        let toks = lex(src);
        let test_from = if is_test_path(rel_path) {
            0
        } else {
            first_cfg_test_line(&toks).unwrap_or(u32::MAX)
        };
        self.files += 1;
        // Per line: 0 blank, 1 comment only, 2 code.
        let mut lines = vec![0u8; src.matches('\n').count() + 1];
        for t in &toks {
            let comment = matches!(t.kind, TokKind::LineComment | TokKind::BlockComment);
            let first = t.line as usize - 1;
            let last = first + t.text.matches('\n').count();
            for line in &mut lines[first..=last] {
                *line = (*line).max(if comment { 1 } else { 2 });
            }
        }
        self.code_lines += lines.iter().filter(|&&l| l == 2).count();
        self.comment_lines += lines.iter().filter(|&&l| l == 1).count();

        let code: Vec<&Tok> = toks
            .iter()
            .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
            .collect();
        // `i.wrapping_sub(k)` before the first token is out of range: false.
        let at = |i: usize, c: char| code.get(i).is_some_and(|t| t.is_punct(c));
        for (i, t) in code.iter().enumerate() {
            let before = i.wrapping_sub(1);
            match t.kind {
                TokKind::Ident => match t.text.as_str() {
                    "if" | "while" | "match" => self.branch_points += 1,
                    "for" => {
                        // The first `in` ident, `{` or `;`: a loop if it is the `in`.
                        let stop = code[i + 1..].iter().find(|n| {
                            (n.kind == TokKind::Ident && n.text == "in")
                                || n.is_punct('{')
                                || n.is_punct(';')
                        });
                        let loop_in = stop.is_some_and(|n| n.kind == TokKind::Ident);
                        self.branch_points += usize::from(loop_in);
                    }
                    "fn" if code.get(i + 1).is_some_and(|n| n.kind == TokKind::Ident) => {
                        self.functions += 1
                    }
                    "test" if at(i.wrapping_sub(2), '#') && at(before, '[') && at(i + 1, ']') => {
                        self.test_functions += 1
                    }
                    _ => {
                        let panics = t.line < test_from && panics_at(&code, i);
                        self.unwraps_non_test += usize::from(panics);
                    }
                },
                // `=>`, `&&` and `||` arrive as two one-character tokens.
                TokKind::Punct => {
                    let pair = [('=', '>'), ('&', '&'), ('|', '|')]
                        .iter()
                        .any(|&(a, b)| t.is_punct(a) && at(i + 1, b) && !at(before, a));
                    // `&&` and `||` are operators only after an operand; else
                    // they open a closure or take a reference (`|&&x|`).
                    let operator = t.is_punct('=') || code.get(before).is_some_and(ends_operand);
                    self.branch_points += usize::from(pair && operator);
                }
                _ => {}
            }
        }
    }
}

/// Keywords an expression or a pattern can follow, so a `||` or `&&`
/// after one is not a binary operator (`move ||`, `return &&x`).
const NOT_OPERANDS: &[&str] = &[
    "break", "for", "if", "in", "let", "match", "move", "mut", "return", "while", "yield",
];

/// True when `t` can end an operand: a non-keyword identifier, a literal,
/// `)`, `]` or `?`.
fn ends_operand(t: &&Tok) -> bool {
    match t.kind {
        TokKind::Ident => !NOT_OPERANDS.contains(&t.text.as_str()),
        TokKind::Str | TokKind::Char | TokKind::Num => true,
        _ => t.is_punct(')') || t.is_punct(']') || t.is_punct('?'),
    }
}

impl AddAssign<&QualityMetrics> for QualityMetrics {
    fn add_assign(&mut self, m: &QualityMetrics) {
        self.files += m.files;
        self.code_lines += m.code_lines;
        self.comment_lines += m.comment_lines;
        self.test_functions += m.test_functions;
        self.functions += m.functions;
        self.branch_points += m.branch_points;
        self.unwraps_non_test += m.unwraps_non_test;
    }
}

fn ratio(n: usize, d: usize) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// Analyzes every `.rs` file [`walk::rust_files`] finds under `root`: one
/// unit per `crates/<name>` and one per other top-level directory, in walk
/// order.
pub fn workspace(root: &Path) -> io::Result<Vec<QualityMetrics>> {
    let mut units: Vec<QualityMetrics> = Vec::new();
    for (rel, src) in walk::sources(root)? {
        let mut parts = rel.split('/');
        let top = parts.next().unwrap_or_default();
        let name = match (top, parts.next()) {
            ("crates", Some(name)) => name,
            _ => top,
        };
        // A unit is a path prefix, so the sorted walk visits it in one run.
        if units.last().is_none_or(|u| u.name != name) {
            units.push(QualityMetrics {
                name: name.to_string(),
                ..Default::default()
            });
        }
        if let Some(unit) = units.last_mut() {
            unit.add_file(&rel, &src);
        }
    }
    Ok(units)
}

/// Renders the report: one row per unit, then the totals and the quality
/// gates across all of them.
pub fn report(units: &[QualityMetrics]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<24} {:>6} {:>8} {:>9} {:>7} {:>6} {:>10} {:>9}",
        "unit", "files", "code", "comments", "tests", "fns", "complexity", "unwrap/k"
    );
    let _ = writeln!(out, "{}", "-".repeat(88));
    let mut totals = QualityMetrics::default();
    for m in units {
        let _ = writeln!(
            out,
            "{:<24} {:>6} {:>8} {:>9} {:>7} {:>6} {:>10.1} {:>9.1}",
            m.name,
            m.files,
            m.code_lines,
            m.comment_lines,
            m.test_functions,
            m.functions,
            m.mean_complexity(),
            m.unwrap_density()
        );
        totals += m;
    }
    let _ = writeln!(
        out,
        "\ntotals: {} files, {} code lines, {} comment lines ({:.0}% density), {} tests, {} fns",
        totals.files,
        totals.code_lines,
        totals.comment_lines,
        100.0 * totals.comment_density(),
        totals.test_functions,
        totals.functions,
    );
    let _ = writeln!(
        out,
        "quality gates: mean complexity {:.1} per fn, {:.1} unwraps/kloc outside tests",
        totals.mean_complexity(),
        totals.unwrap_density()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphalytics_graph::scratch::ScratchDir;

    const SAMPLE: &str = r##"//! Module docs.

/// Doc comment.
pub fn decide(x: Option<i32>) -> i32 {
    // if x { x.unwrap() } in a comment
    let s = "if x { y.unwrap() }";
    let t = "first line
// not a comment: still inside the string
last line";
    if s.len() > 0 && t.len() > 0 {
        x.unwrap() + x.unwrap()
    } else {
        match x { Some(v) => v, None => panic!("none") }
    }
}

/* block
   comment */
fn a() {} fn b() -> fn(u8) { |_| () }

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        Some(1).expect("one");
    }
}
"##;

    fn metrics(rel_path: &str, src: &str) -> QualityMetrics {
        let mut m = QualityMetrics::default();
        m.add_file(rel_path, src);
        m
    }

    #[test]
    fn counts_tokens_not_substrings() {
        let m = metrics("crates/x/src/lib.rs", SAMPLE);
        let expected = QualityMetrics {
            name: String::new(),
            files: 1,
            // Lines 4, 6-15, 19 and 21-27; the string's `//` line is code.
            code_lines: 19,
            // Lines 1, 3, 5, 17 and 18.
            comment_lines: 5,
            test_functions: 1,
            // decide, a, b and t; `fn(u8)` is a type.
            functions: 4,
            // if, &&, match and two `=>`; none from the string or comment.
            branch_points: 5,
            // Two unwraps on one line and the panic!; not the test's expect.
            unwraps_non_test: 3,
        };
        assert_eq!(m, expected);
        // A parser-combinator `expect(..)?` returns a Result; `todo!` panics.
        let sql = "fn f() { p.expect(\"(\")?; q.expect(\"ok\"); todo!() }";
        assert_eq!(metrics("crates/x/src/sql.rs", sql).unwraps_non_test, 2);
        // A `for` branches only as a loop, `||` and `&&` only after an
        // operand.
        for (src, branches) in [
            ("impl Display for X {}", 0),
            (".map(|| 1)", 0),
            ("a || b", 1),
            ("for x in y {}", 1),
            ("let f = move || x?.y || z[0] || g() || true;", 3),
            ("v.iter().filter(|&&x| x > 0 && ok)", 1),
        ] {
            let m = metrics("crates/x/src/lib.rs", src);
            assert_eq!(m.branch_points, branches, "{src}");
        }
        for test_file in [
            "tests/sample.rs",
            "examples/sample.rs",
            "crates/x/tests/s.rs",
        ] {
            let m = metrics(test_file, SAMPLE);
            assert_eq!(m.unwraps_non_test, 0, "{test_file}");
            assert_eq!((m.code_lines, m.functions), (19, 4), "{test_file}");
        }
    }

    #[test]
    fn density_math() {
        let m = QualityMetrics {
            code_lines: 1000,
            comment_lines: 250,
            functions: 10,
            branch_points: 35,
            unwraps_non_test: 4,
            ..Default::default()
        };
        assert!((m.comment_density() - 0.25).abs() < 1e-12);
        assert!((m.mean_complexity() - 3.5).abs() < 1e-12);
        assert!((m.unwrap_density() - 4.0).abs() < 1e-12);
        let empty = QualityMetrics::default();
        assert_eq!(empty.comment_density(), 0.0);
        assert_eq!(empty.mean_complexity(), 0.0);
    }

    #[test]
    fn one_unit_per_crate_and_top_level_directory() {
        let dir = ScratchDir::new(None, "gx-lint-quality").unwrap();
        let root = dir.path();
        for sub in [
            "crates/a/src",
            "crates/a/tests",
            "crates/b/src",
            "tests",
            "target",
        ] {
            std::fs::create_dir_all(root.join(sub)).unwrap();
        }
        let lib = "fn f() -> u8 {\n    g().unwrap()\n}\n";
        std::fs::write(root.join("crates/a/src/lib.rs"), lib).unwrap();
        std::fs::write(root.join("crates/a/tests/t.rs"), lib).unwrap();
        std::fs::write(root.join("crates/b/src/lib.rs"), "// only a comment\n").unwrap();
        std::fs::write(root.join("tests/t.rs"), lib).unwrap();
        std::fs::write(root.join("target/junk.rs"), lib).unwrap();
        let units = workspace(root).unwrap();
        let rows: Vec<(&str, usize, usize, usize, usize)> = units
            .iter()
            .map(|u| {
                (
                    &*u.name,
                    u.files,
                    u.code_lines,
                    u.comment_lines,
                    u.unwraps_non_test,
                )
            })
            .collect();
        assert_eq!(
            rows,
            vec![("a", 2, 6, 0, 1), ("b", 1, 0, 1, 0), ("tests", 1, 3, 0, 0)]
        );
        let report = report(&units);
        assert!(report.starts_with("unit "), "{report}");
        assert!(report.contains(
            "\ntotals: 4 files, 9 code lines, 1 comment lines (11% density), 0 tests, 3 fns\n"
        ));
        assert!(report.ends_with(
            "quality gates: mean complexity 0.0 per fn, 111.1 unwraps/kloc outside tests\n"
        ));
    }
}
