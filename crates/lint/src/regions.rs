//! The per-function region model: lock-guard live ranges and blocking
//! call sites.
//!
//! This is deliberately a *syntactic* approximation of Rust's drop
//! semantics — precise enough for the two rules built on it
//! (`lock-order`, `guard-across-blocking`) to have caught every real
//! instance in this workspace, cheap enough to run on every file on
//! every commit:
//!
//! * A guard bound with `let g = x.lock();` lives from the acquisition
//!   to the end of the enclosing block, clipped at an explicit
//!   `drop(g)`.
//! * An unbound (temporary) guard lives to the end of its statement: the
//!   next `;` at the statement's depth — or, when the acquisition sits
//!   in an `if let`/`while let`/`match` head, through the construct's
//!   block (Rust extends scrutinee temporaries exactly that far).
//! * Lock identity is the normalized receiver path (`self.inner.lock()`
//!   → `inner`), crate-qualified by the caller. Same-named fields within
//!   one crate alias to the same lock node — an over-approximation that
//!   is correct for this workspace's one-mutex-per-struct style and errs
//!   toward reporting.

use crate::lexer::{Tok, TokKind};
use crate::parse::{matching_close, Func};

/// Method/function names treated as lock acquisitions producing a guard.
/// `.lock()` covers `std::sync::Mutex` and guard-returning helpers like
/// `JobStore::lock`; free `lock(&m)` covers the poison-tolerant helpers
/// `graphalytics_core::sync::lock` and the one in `crates/faults`.
const ACQUIRE_METHODS: &[&str] = &["lock"];

/// Calls that block the calling thread. A guard live across one of these
/// serializes every other consumer of that lock behind I/O, a timer, or
/// another thread's progress.
const BLOCKING_CALLS: &[&str] = &[
    "sleep",          // std::thread::sleep
    "park",           // std::thread::park
    "join",           // JoinHandle::join
    "recv",           // channel receive
    "recv_timeout",   // channel receive with deadline
    "wait",           // Condvar::wait (exempt on its own guard)
    "wait_timeout",   // Condvar::wait_timeout (same exemption)
    "wait_while",     // Condvar::wait_while (same exemption)
    "accept",         // TcpListener::accept
    "connect",        // TcpStream::connect
    "read_to_string", // blocking reads
    "read_to_end",
    "read_line",
    "read_exact",
    "write_all", // blocking writes
    "flush",
];

/// Condvar-family waits, which *consume* their own lock's guard — holding
/// that guard at the call is the API working as designed, not a bug.
const CONDVAR_WAITS: &[&str] = &["wait", "wait_timeout", "wait_while"];

/// One lock acquisition and the live range of the guard it produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Acquire {
    /// Normalized lock identity (receiver path minus `self.`).
    pub lock: String,
    /// Guard binding name, `None` for statement temporaries.
    pub name: Option<String>,
    /// Index (into the code token vector) of the acquiring call name.
    pub at: usize,
    /// 1-based line of the acquisition.
    pub line: u32,
    /// Last code-token index at which the guard is considered live.
    pub live_end: usize,
}

/// One blocking call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockingCall {
    /// The blocking method/function name.
    pub callee: String,
    /// Index of the callee name token.
    pub at: usize,
    /// 1-based line.
    pub line: u32,
    /// Identifier arguments (for the condvar-wait guard exemption).
    pub args: Vec<String>,
}

/// The region model of one function body.
#[derive(Debug, Clone, Default)]
pub struct FnRegions {
    /// Lock acquisitions, in source order.
    pub acquires: Vec<Acquire>,
    /// Blocking call sites, in source order.
    pub blocking: Vec<BlockingCall>,
}

/// Builds the region model for `func`'s body (empty model for bodyless
/// declarations).
pub fn fn_regions(code: &[&Tok], func: &Func) -> FnRegions {
    let Some((open, close)) = func.body else {
        return FnRegions::default();
    };
    let mut regions = FnRegions::default();
    for i in open + 1..close {
        if code[i].kind != TokKind::Ident {
            continue;
        }
        let name = code[i].text.as_str();
        let is_call = code.get(i + 1).is_some_and(|t| t.is_punct('('));
        if !is_call {
            continue;
        }
        // A definition (`fn lock(`) is not a call site.
        if i > 0 && code[i - 1].is_ident("fn") {
            continue;
        }
        if ACQUIRE_METHODS.contains(&name) {
            if let Some(acquire) = classify_acquire(code, i, open, close) {
                regions.acquires.push(acquire);
            }
        }
        if BLOCKING_CALLS.contains(&name) {
            let args_end = matching_close(code, i + 1);
            let args = code[i + 1..args_end]
                .iter()
                .filter(|t| t.kind == TokKind::Ident)
                .map(|t| t.text.clone())
                .collect();
            regions.blocking.push(BlockingCall {
                callee: name.to_string(),
                at: i,
                line: code[i].line,
                args,
            });
        }
    }
    regions
}

/// The `guard-across-blocking` judgments for one function: every
/// (acquisition, blocking-site) pair where the guard is live at the call,
/// minus the condvar exemption.
pub fn guards_across_blocking(
    regions: &FnRegions,
) -> impl Iterator<Item = (&Acquire, &BlockingCall)> {
    regions.acquires.iter().flat_map(move |a| {
        regions
            .blocking
            .iter()
            .filter(move |b| {
                if b.at <= a.at || b.at > a.live_end {
                    return false;
                }
                // Condvar waits consume their own guard: exempt when the
                // live guard is the one being handed over.
                if CONDVAR_WAITS.contains(&b.callee.as_str()) {
                    if let Some(name) = &a.name {
                        if b.args.contains(name) {
                            return false;
                        }
                    }
                }
                true
            })
            .map(move |b| (a, b))
    })
}

/// Classifies one `lock(`-shaped call site into an [`Acquire`].
fn classify_acquire(code: &[&Tok], at: usize, open: usize, close: usize) -> Option<Acquire> {
    let lock = if at > 0 && code[at - 1].is_punct('.') {
        receiver_path(code, at - 1)
    } else {
        // Free-function form `lock(&self.x)`: identity from the argument.
        let args_end = matching_close(code, at + 1);
        let path: Vec<&str> = code[at + 2..args_end]
            .iter()
            .filter(|t| t.kind == TokKind::Ident && !t.is_ident("mut"))
            .map(|t| t.text.as_str())
            .collect();
        normalize_path(&path)
    };
    let lock = lock?;
    // `stdout().lock()` & friends are std's I/O handle locks, not
    // ordering-sensitive mutexes — holding one across a write is the point.
    if ["stdout()", "stderr()", "stdin()"]
        .iter()
        .any(|h| lock.contains(h))
    {
        return None;
    }
    let stmt_start = statement_start(code, at, open);
    let (name, live_end) = match binding_name(code, stmt_start, at) {
        Some(name) => {
            // Named guard: live to the end of the enclosing block, or an
            // explicit `drop(name)`.
            let block_end = enclosing_block_end(code, at, close);
            let mut end = block_end;
            let mut j = at;
            while j + 3 <= block_end {
                if code[j].is_ident("drop")
                    && code[j + 1].is_punct('(')
                    && code[j + 2].is_ident(&name)
                    && code[j + 3].is_punct(')')
                {
                    end = j;
                    break;
                }
                j += 1;
            }
            (Some(name), end)
        }
        None => (None, temporary_end(code, stmt_start, at, close)),
    };
    Some(Acquire {
        lock,
        name,
        at,
        line: code[at].line,
        live_end,
    })
}

/// Walks back from the `.` before an acquiring method, collecting the
/// receiver's dotted identifier path (`self.inner.lock()` → `inner`;
/// `thread_registry().lock()` → `thread_registry()`).
fn receiver_path(code: &[&Tok], dot: usize) -> Option<String> {
    let mut parts: Vec<String> = Vec::new();
    let mut i = dot;
    loop {
        if i == 0 {
            break;
        }
        i -= 1;
        let t = code[i];
        if t.kind == TokKind::Ident {
            parts.push(t.text.clone());
            // Continue only through a `.` (a dotted path) — `::` paths,
            // indexing, and calls end the simple chain.
            if i == 0 || !code[i - 1].is_punct('.') {
                break;
            }
            i -= 1; // The `.`; loop continues to the ident before it.
        } else if t.is_punct(')') {
            // A call in the chain: skip its balanced parens and take the
            // callee ident, spelled `name()` in the identity.
            let mut depth = 0usize;
            let mut j = i;
            loop {
                if code[j].is_punct(')') {
                    depth += 1;
                } else if code[j].is_punct('(') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if j == 0 {
                    return None;
                }
                j -= 1;
            }
            if j == 0 || code[j - 1].kind != TokKind::Ident {
                return None;
            }
            parts.push(format!("{}()", code[j - 1].text));
            if j < 2 || !code[j - 2].is_punct('.') {
                break;
            }
            i = j - 1; // Fake position so the decrement lands on the `.`.
        } else {
            break;
        }
    }
    parts.reverse();
    let parts: Vec<&str> = parts.iter().map(String::as_str).collect();
    normalize_path(&parts)
}

/// Drops a leading `self` and joins what remains; a bare `self` receiver
/// (guard-returning helper methods) keeps the name `self`.
fn normalize_path(parts: &[&str]) -> Option<String> {
    if parts.is_empty() {
        return None;
    }
    let rest: Vec<&str> = if parts.len() > 1 && parts[0] == "self" {
        parts[1..].to_vec()
    } else {
        parts.to_vec()
    };
    Some(rest.join("."))
}

/// Index of the first token of the statement containing `at`: one past
/// the previous `;`, `{`, or `}`, scanning back no further than the body
/// open brace.
fn statement_start(code: &[&Tok], at: usize, open: usize) -> usize {
    let mut i = at;
    while i > open + 1 {
        let t = code[i - 1];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        i -= 1;
    }
    i
}

/// If the statement is `let [mut] NAME = ...` with the acquisition on the
/// right of the `=`, returns NAME.
fn binding_name(code: &[&Tok], stmt_start: usize, at: usize) -> Option<String> {
    let mut i = stmt_start;
    if !code.get(i)?.is_ident("let") {
        return None;
    }
    i += 1;
    if code.get(i)?.is_ident("mut") {
        i += 1;
    }
    let name = code.get(i)?;
    if name.kind != TokKind::Ident {
        return None;
    }
    let eq = code.get(i + 1)?;
    if !eq.is_punct('=') || i + 1 >= at {
        return None;
    }
    Some(name.text.clone())
}

/// End of a temporary guard's life. For `if`/`while`/`match` heads the
/// scrutinee temporary lives through the construct's first block (and any
/// `else` continuation); otherwise to the statement's `;` or, failing
/// that, the end of the enclosing block.
fn temporary_end(code: &[&Tok], stmt_start: usize, at: usize, close: usize) -> usize {
    let head = code[stmt_start].text.as_str();
    if matches!(head, "if" | "while" | "match") {
        // Find the construct's block: first `{` at paren depth 0 after
        // the acquisition, then its matching `}`, then any else-chain.
        let mut paren = 0usize;
        let mut i = at;
        while i < close {
            let t = code[i];
            if t.is_punct('(') {
                paren += 1;
            } else if t.is_punct(')') {
                paren = paren.saturating_sub(1);
            } else if paren == 0 && t.is_punct('{') {
                let mut end = matching_close(code, i);
                while code.get(end + 1).is_some_and(|t| t.is_ident("else")) {
                    let mut j = end + 2;
                    while j < close && !code[j].is_punct('{') {
                        j += 1;
                    }
                    if j >= close {
                        break;
                    }
                    end = matching_close(code, j);
                }
                return end.min(close);
            }
            i += 1;
        }
        return close;
    }
    // Plain statement: scan to the `;` at the statement's brace depth;
    // nested blocks (closure bodies, match arms in the RHS) are skipped
    // balanced.
    let mut depth = 0usize;
    let mut i = at;
    while i < close {
        let t = code[i];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            if depth == 0 {
                return i; // Left the enclosing block: expression tail.
            }
            depth -= 1;
        } else if t.is_punct(';') && depth == 0 {
            return i;
        }
        i += 1;
    }
    close
}

/// Index of the `}` closing the innermost block containing `at`.
fn enclosing_block_end(code: &[&Tok], at: usize, close: usize) -> usize {
    let mut depth = 0usize;
    let mut i = at;
    while i < close {
        let t = code[i];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            if depth == 0 {
                return i;
            }
            depth -= 1;
        }
        i += 1;
    }
    close
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, TokKind};
    use crate::parse::functions;

    fn model(src: &str) -> FnRegions {
        let toks: Vec<Tok> = lex(src)
            .into_iter()
            .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
            .collect();
        let code: Vec<&Tok> = toks.iter().collect();
        let fns = functions(&code);
        assert_eq!(fns.len(), 1, "test sources hold exactly one fn");
        fn_regions(&code, &fns[0])
    }

    #[test]
    fn named_guard_lives_to_block_end() {
        let m = model(
            "fn f(&self) {\n\
             let g = self.inner.lock();\n\
             std::thread::sleep(d);\n\
             }\n",
        );
        assert_eq!(m.acquires.len(), 1);
        assert_eq!(m.acquires[0].lock, "inner");
        assert_eq!(m.acquires[0].name.as_deref(), Some("g"));
        let pairs: Vec<_> = guards_across_blocking(&m).collect();
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].1.callee, "sleep");
    }

    #[test]
    fn drop_clips_the_live_range() {
        let m = model(
            "fn f(&self) {\n\
             let g = self.inner.lock();\n\
             drop(g);\n\
             std::thread::sleep(d);\n\
             }\n",
        );
        assert_eq!(guards_across_blocking(&m).count(), 0);
    }

    #[test]
    fn inner_block_scopes_the_guard() {
        let m = model(
            "fn f(&self) {\n\
             { let g = self.inner.lock(); g.push(1); }\n\
             std::thread::sleep(d);\n\
             }\n",
        );
        assert_eq!(guards_across_blocking(&m).count(), 0);
    }

    #[test]
    fn temporary_guard_ends_at_statement() {
        let m = model(
            "fn f(&self) {\n\
             self.inner.lock().push(1);\n\
             handle.join();\n\
             }\n",
        );
        assert_eq!(m.acquires.len(), 1);
        assert_eq!(m.acquires[0].name, None);
        assert_eq!(guards_across_blocking(&m).count(), 0);
    }

    #[test]
    fn if_let_scrutinee_temporary_spans_the_block() {
        let m = model(
            "fn f(&self) {\n\
             if let Some(v) = self.graphs.lock().get(k) {\n\
             handle.join();\n\
             }\n\
             handle.join();\n\
             }\n",
        );
        // Live through the if-block (first join) but not past it.
        let pairs: Vec<_> = guards_across_blocking(&m).collect();
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].1.line, 3);
    }

    #[test]
    fn condvar_wait_on_own_guard_is_exempt() {
        let m = model(
            "fn f(&self) {\n\
             let mut inner = self.lock();\n\
             loop { inner = self.wakeup.wait(inner); }\n\
             }\n",
        );
        assert_eq!(m.acquires.len(), 1);
        assert_eq!(m.acquires[0].lock, "self");
        assert_eq!(guards_across_blocking(&m).count(), 0);
    }

    #[test]
    fn condvar_wait_on_foreign_lock_fires() {
        let m = model(
            "fn f(&self) {\n\
             let g = self.jobs.lock();\n\
             let h = self.cv.wait(other);\n\
             }\n",
        );
        let pairs: Vec<_> = guards_across_blocking(&m).collect();
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].0.lock, "jobs");
    }

    #[test]
    fn free_fn_lock_identity_comes_from_the_argument() {
        let m = model(
            "fn f(&self) {\n\
             let g = lock(&self.recoveries);\n\
             }\n",
        );
        assert_eq!(m.acquires.len(), 1);
        assert_eq!(m.acquires[0].lock, "recoveries");
    }

    #[test]
    fn call_receivers_are_normalized() {
        let m = model(
            "fn f() {\n\
             let g = thread_registry().lock();\n\
             }\n",
        );
        assert_eq!(m.acquires[0].lock, "thread_registry()");
    }
}
