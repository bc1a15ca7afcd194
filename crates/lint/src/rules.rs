//! The rule catalog: stable IDs, scopes, and rationale one-liners.
//!
//! Scoping model: every rule runs only over **non-test code** — files under
//! a `tests/`, `benches/`, or `examples/` directory are skipped entirely,
//! and within a source file everything from the first `#[cfg(test)]` to the
//! end of the file is ignored (the workspace convention keeps the test
//! module last). Rules additionally restrict themselves to the crates where
//! the invariant is load-bearing (see [`Rule::crates`]).

/// Crates whose outputs must be bit-reproducible: the data generator, the
/// reference algorithms, the graph substrate they share, the parallel
/// runtime the kernels run on, the fault-injection plan (same seed
/// must fault the same sites on every run), the binary codec every
/// snapshot and wire frame is written in, the observability layer
/// (profiles and choke-point reports are folds of finished spans; no
/// clock is read there), the serving plane (job
/// timestamps flow from the shared `Tracer` epoch clock so event streams
/// and artifacts stay replayable), and the distributed runtime (the
/// master/worker protocol must replay byte-identically; its socket
/// timeouts carry explicit pragmas).
pub const DETERMINISM_CRATES: &[&str] = &[
    "datagen", "algos", "graph", "parallel", "faults", "codec", "obs", "serve", "distrib",
];

/// The five platform crates, where an `unwrap()` on a failure path turns a
/// benchmark failure cell (Figure 4's "missing values") into a crash.
pub const PLATFORM_CRATES: &[&str] = &["pregel", "dataflow", "mapreduce", "graphdb", "columnar"];

/// Crates whose `unsafe` blocks must carry *pinned* proofs
/// (`SAFETY[<token-hash>]:`): the ones doing raw-pointer scatter under
/// parallelism, where a stale justification is worse than none.
pub const UNSAFE_CONTRACT_CRATES: &[&str] = &["parallel", "columnar", "graph"];

/// Crates where a silently-discarded `Result` erases a fault-taxonomy
/// signal: the five platforms (retry/recovery paths), the serving plane
/// (client-visible failures), and the fault injector itself.
pub const SWALLOWED_RESULT_CRATES: &[&str] = &[
    "pregel",
    "dataflow",
    "mapreduce",
    "graphdb",
    "columnar",
    "serve",
    "faults",
];

/// Where a thread may only come from the parallel runtime: the determinism
/// crates, plus the five platform crates, whose worker fan-outs are
/// `graphalytics_parallel::try_map_each` calls so that a panicking worker
/// is a failed cell — a hand-rolled scope would unwind into the harness.
pub const SPAWN_AUDIT_CRATES: &[&str] = &[
    "datagen",
    "algos",
    "graph",
    "parallel",
    "faults",
    "codec",
    "obs",
    "serve",
    "distrib",
    "pregel",
    "dataflow",
    "mapreduce",
    "graphdb",
    "columnar",
];

/// The two files that *implement* sanctioned thread creation — the
/// fork-join of the parallel runtime and the serve worker pool/acceptor —
/// and are therefore exempt from `spawn-audit` wholesale.
pub const SPAWN_AUDIT_EXEMPT_FILES: &[&str] =
    &["crates/parallel/src/lib.rs", "crates/serve/src/server.rs"];

/// One lint rule's metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rule {
    /// Stable rule ID, used in diagnostics and `lint:allow(<id>)` pragmas.
    pub id: &'static str,
    /// Crate-name scope; `None` means every workspace crate.
    pub crates: Option<&'static [&'static str]>,
    /// One-line rationale shown by `lint rules`.
    pub summary: &'static str,
}

/// Every rule the checker knows, in diagnostic order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "determinism-time",
        crates: Some(DETERMINISM_CRATES),
        summary: "no Instant/SystemTime/std::time in datagen, algos, graph, parallel, \
                  faults, codec, obs, serve, or distrib: generated data, reference outputs, \
                  fault plans, encoded bytes, profile analysis, job timelines, and the \
                  distributed wire protocol must not depend on wall clocks",
    },
    Rule {
        id: "determinism-entropy",
        crates: None,
        summary: "no thread_rng/from_entropy/OsRng/getrandom/RandomState anywhere: \
                  all randomness flows from the seeded SplitMix64/Xoshiro256 constructors",
    },
    Rule {
        id: "determinism-hash",
        crates: Some(DETERMINISM_CRATES),
        summary: "no HashMap/HashSet/FxHashMap/FxHashSet/FxHasher in determinism crates: \
                  per-vertex state lives in vertex-indexed Vecs, sort-and-scan or BTreeMaps; \
                  hashing belongs to the engines that model hashing systems",
    },
    Rule {
        id: "panic-safety",
        crates: Some(PLATFORM_CRATES),
        summary: "no unwrap()/expect()/panic! in platform crates: failure paths must \
                  propagate PlatformError so a failed run becomes a report cell, not a crash",
    },
    Rule {
        id: "unsafe-audit",
        crates: None,
        summary: "every `unsafe` must carry a `// SAFETY:` (or pinned `// SAFETY[hash]:`) \
                  comment on the same line or in the comment block directly above it",
    },
    Rule {
        id: "lock-order",
        crates: None,
        summary: "the workspace lock-acquisition graph (lock B taken while a guard for \
                  lock A is live) must be acyclic: a cycle is potential deadlock",
    },
    Rule {
        id: "guard-across-blocking",
        crates: None,
        summary: "no Mutex/RwLock guard may stay live across a blocking call (sleep, \
                  join, channel recv, socket/file I/O, or a Condvar wait on a different \
                  lock): every other consumer of the lock stalls behind it",
    },
    Rule {
        id: "unsafe-contract",
        crates: Some(UNSAFE_CONTRACT_CRATES),
        summary: "every `unsafe` in parallel/columnar/graph must carry a structured \
                  `// SAFETY[<hash>]: <invariant>` proof whose token hash matches the \
                  guarded code — editing the code without re-reviewing the proof is an error",
    },
    Rule {
        id: "swallowed-result",
        crates: Some(SWALLOWED_RESULT_CRATES),
        summary: "`let _ = <fallible call>` at fault-taxonomy sites discards a Result \
                  the taxonomy needs: handle it, surface it, or allow with a reason",
    },
    Rule {
        id: "spawn-audit",
        crates: Some(SPAWN_AUDIT_CRATES),
        summary: "threads in determinism-scoped and platform crates must come from the \
                  parallel runtime's fork-join or the serve worker pool, not ad-hoc \
                  `spawn` calls",
    },
    Rule {
        id: "metric-grammar",
        crates: None,
        summary: "metric names must match graphalytics_[a-z][a-z0-9_]* and span names \
                  must be dotted lowercase segments ([a-z][a-z0-9_]* separated by '.')",
    },
    Rule {
        id: "allow-pragma",
        crates: None,
        summary: "`// lint:allow(<rule>): <reason>` pragmas must name a known rule, \
                  give a non-empty reason, and actually suppress something",
    },
];

/// Looks up a rule by ID.
pub fn rule(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// True when `name` is a valid canonical metric name:
/// `graphalytics_` + lowercase snake, per the Prometheus naming grammar.
pub fn valid_metric_name(name: &str) -> bool {
    let Some(rest) = name.strip_prefix("graphalytics_") else {
        return false;
    };
    let mut chars = rest.chars();
    match chars.next() {
        Some(c) if c.is_ascii_lowercase() => {}
        _ => return false,
    }
    rest.chars()
        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

/// True when `name` is a valid span name: one or more dot-separated
/// lowercase snake segments ("pregel.superstep", "run").
pub fn valid_span_name(name: &str) -> bool {
    !name.is_empty()
        && name.split('.').all(|seg| {
            let mut chars = seg.chars();
            matches!(chars.next(), Some(c) if c.is_ascii_lowercase())
                && seg
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_are_unique_and_resolvable() {
        for (i, r) in RULES.iter().enumerate() {
            assert_eq!(rule(r.id), Some(r));
            for other in &RULES[i + 1..] {
                assert_ne!(r.id, other.id);
            }
        }
    }

    #[test]
    fn metric_grammar() {
        assert!(valid_metric_name("graphalytics_runs_total"));
        assert!(valid_metric_name("graphalytics_load_seconds"));
        assert!(valid_metric_name("graphalytics_peak_rss_bytes"));
        assert!(!valid_metric_name("gx_runs_total")); // Missing prefix.
        assert!(!valid_metric_name("graphalytics_")); // Empty stem.
        assert!(!valid_metric_name("graphalytics_RunsTotal")); // Case.
        assert!(!valid_metric_name("graphalytics_runs-total")); // Dash.
    }

    #[test]
    fn span_grammar() {
        assert!(valid_span_name("run"));
        assert!(valid_span_name("pregel.superstep"));
        assert!(valid_span_name("virtuoso.round"));
        assert!(valid_span_name("a.b_c.d2"));
        assert!(!valid_span_name(""));
        assert!(!valid_span_name("Run.load")); // Case.
        assert!(!valid_span_name("run..load")); // Empty segment.
        assert!(!valid_span_name("run.2fast")); // Digit-initial segment.
    }
}
