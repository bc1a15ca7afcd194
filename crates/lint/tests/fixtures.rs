//! End-to-end lint tests over the fixture files in `tests/fixtures/`.
//!
//! Each fixture carries known violations; the tests pin the exact rule IDs
//! and line numbers so any drift in the lexer or the rule heuristics is
//! caught immediately. Fixture sources are fed through [`check_source`]
//! under a synthetic workspace-relative path, which is what selects the
//! crate scope each rule applies to.

use graphalytics_lint::check_source;

fn findings(rel_path: &str, src: &str) -> Vec<(&'static str, u32)> {
    check_source(rel_path, src)
        .into_iter()
        .map(|f| (f.rule, f.line))
        .collect()
}

#[test]
fn determinism_time_fixture() {
    let src = include_str!("fixtures/determinism_time.rs");
    assert_eq!(
        findings("crates/datagen/src/fixture.rs", src),
        vec![("determinism-time", 2), ("determinism-time", 5)]
    );
    // The same source is fine outside the determinism-scoped crates: the
    // platform crates may time whatever they like.
    assert_eq!(findings("crates/core/src/fixture.rs", src), vec![]);
}

#[test]
fn determinism_entropy_fixture() {
    let src = include_str!("fixtures/determinism_entropy.rs");
    // Entropy sources are banned in every crate, not just the determinism-
    // scoped ones.
    assert_eq!(
        findings("crates/core/src/fixture.rs", src),
        vec![("determinism-entropy", 4), ("determinism-entropy", 11)]
    );
}

#[test]
fn determinism_hash_fixture() {
    let src = include_str!("fixtures/determinism_hash.rs");
    assert_eq!(
        findings("crates/algos/src/fixture.rs", src),
        vec![
            ("determinism-hash", 2),
            ("determinism-hash", 5),
            ("determinism-hash", 10),
        ]
    );
    // The engines that model hashing systems are outside the scope.
    assert_eq!(findings("crates/columnar/src/fixture.rs", src), vec![]);
}

#[test]
fn panic_safety_fixture() {
    let src = include_str!("fixtures/panic_safety.rs");
    assert_eq!(
        findings("crates/pregel/src/fixture.rs", src),
        vec![
            ("panic-safety", 4),
            ("panic-safety", 8),
            ("panic-safety", 14),
        ]
    );
    // Non-platform crates are outside the rule's scope.
    assert_eq!(findings("crates/core/src/fixture.rs", src), vec![]);
}

#[test]
fn unsafe_audit_fixture() {
    let src = include_str!("fixtures/unsafe_audit.rs");
    // Outside the unsafe-contract crates only the bare audit applies.
    assert_eq!(
        findings("crates/serve/src/fixture.rs", src),
        vec![("unsafe-audit", 6)]
    );
    // In a contract crate the same block additionally needs a pinned proof.
    assert_eq!(
        findings("crates/columnar/src/fixture.rs", src),
        vec![("unsafe-audit", 6), ("unsafe-contract", 6)]
    );
}

#[test]
fn metric_grammar_fixture() {
    let src = include_str!("fixtures/metric_grammar.rs");
    assert_eq!(
        findings("crates/core/src/fixture.rs", src),
        vec![
            ("metric-grammar", 4),
            ("metric-grammar", 5),
            ("metric-grammar", 6),
        ]
    );
}

#[test]
fn allow_roundtrip_fixture() {
    let src = include_str!("fixtures/allow_roundtrip.rs");
    // The pragma on line 5 suppresses the Instant::now() on line 6; the
    // un-annotated `use std::time::Instant` on line 2 still fires, and the
    // allow on line 12 covers nothing, which is itself a violation.
    assert_eq!(
        findings("crates/datagen/src/fixture.rs", src),
        vec![("determinism-time", 2), ("allow-pragma", 12)]
    );
}

#[test]
fn lock_order_fixture() {
    let src = include_str!("fixtures/lock_order.rs");
    // `forward` (alpha → beta) and `backward` (beta → alpha) close a
    // cycle: the diagnostic lands on each inner acquisition. The
    // consistent alpha → gamma nesting contributes no finding.
    assert_eq!(
        findings("crates/serve/src/fixture.rs", src),
        vec![("lock-order", 13), ("lock-order", 20)]
    );
}

#[test]
fn guard_across_blocking_fixture() {
    let src = include_str!("fixtures/guard_across_blocking.rs");
    // `bad_sleep` holds the guard across a sleep, `bad_foreign_recv`
    // across a channel recv. The scoped guard, the Condvar wait on its
    // own guard, and the allowed sleep are all clean.
    assert_eq!(
        findings("crates/core/src/fixture.rs", src),
        vec![("guard-across-blocking", 12), ("guard-across-blocking", 32),]
    );
}

#[test]
fn unsafe_contract_fixture() {
    let src = include_str!("fixtures/unsafe_contract.rs");
    // Missing proof (also an audit failure), unpinned proof, stale pin;
    // the correctly pinned block on line 20 is clean.
    assert_eq!(
        findings("crates/parallel/src/fixture.rs", src),
        vec![
            ("unsafe-audit", 5),
            ("unsafe-contract", 5),
            ("unsafe-contract", 9),
            ("unsafe-contract", 14),
        ]
    );
    // Outside parallel/columnar/graph the pinned-contract rule is off —
    // only the bare audit applies.
    assert_eq!(
        findings("crates/serve/src/fixture.rs", src),
        vec![("unsafe-audit", 5)]
    );
}

#[test]
fn swallowed_result_fixture() {
    let src = include_str!("fixtures/swallowed_result.rs");
    assert_eq!(
        findings("crates/mapreduce/src/fixture.rs", src),
        vec![("swallowed-result", 4)]
    );
    // algos is outside the fault-taxonomy scope: the discard is fine
    // there, which in turn leaves the fixture's allow pragma unused —
    // and unused allows are themselves findings, in any crate.
    assert_eq!(
        findings("crates/algos/src/fixture.rs", src),
        vec![("allow-pragma", 16)]
    );
}

#[test]
fn spawn_audit_fixture() {
    let src = include_str!("fixtures/spawn_audit.rs");
    assert_eq!(
        findings("crates/datagen/src/fixture.rs", src),
        vec![("spawn-audit", 4)]
    );
    // The pool implementation files are exempt wholesale — which leaves
    // the fixture's allow pragma unused, and that is still reported.
    assert_eq!(
        findings("crates/parallel/src/lib.rs", src),
        vec![("allow-pragma", 12)]
    );
}

#[test]
fn clean_fixture_has_no_findings() {
    let src = include_str!("fixtures/clean.rs");
    for path in [
        "crates/datagen/src/fixture.rs",
        "crates/pregel/src/fixture.rs",
        "crates/core/src/fixture.rs",
    ] {
        assert_eq!(findings(path, src), vec![], "unexpected findings in {path}");
    }
}

#[test]
fn diagnostics_render_path_line_and_rule() {
    let src = include_str!("fixtures/unsafe_audit.rs");
    let all = check_source("crates/columnar/src/fixture.rs", src);
    let rendered = all[0].render();
    assert!(
        rendered.starts_with("crates/columnar/src/fixture.rs:6: [unsafe-audit]"),
        "unexpected rendering: {rendered}"
    );
}
