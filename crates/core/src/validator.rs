//! Output Validator: "checks the outcome of the benchmark to ensure
//! correctness" (paper §2.3, Figure 2).
//!
//! The validator compares a platform's output against the reference
//! implementation in `graphalytics-algos`, using the output-kind-appropriate
//! equivalence (exact, partition-equality, or tolerance). Reference results
//! are cached per `(graph, algorithm)` so validating four platforms costs
//! one oracle run, and a validator shared across suites (the job server's
//! one per process) runs the oracle once per cell for its whole life. The
//! cache holds at most [`CACHED_OUTPUTS`] results and evicts the least
//! recently used first, so a client naming a new BFS source per job cannot
//! grow it without limit.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::sync::lock;
use graphalytics_algos::{reference, Algorithm, Output};
use graphalytics_graph::CsrGraph;

/// Reference results one validator keeps; past this, the least recently
/// used is evicted. Every workload a suite or the server runs names far
/// fewer (graph, algorithm) cells at once, so eviction only bounds a
/// stream of distinct parameters.
pub const CACHED_OUTPUTS: usize = 64;

/// Result of validating one run.
#[derive(Debug, Clone, PartialEq)]
pub enum Validation {
    /// Output matches the reference.
    Valid,
    /// Output differs; carries a diagnostic.
    Invalid(String),
    /// Validation was skipped (e.g. the run itself failed).
    Skipped,
}

impl Validation {
    /// True for [`Validation::Valid`].
    pub fn is_valid(&self) -> bool {
        matches!(self, Validation::Valid)
    }
}

/// One cached reference result. `graph` keeps the keyed graph alive: the
/// key is its heap address, and pinning the allocation prevents a later
/// graph from reusing the address and silently matching a stale entry.
struct Cached {
    key: (usize, String),
    _graph: Arc<CsrGraph>,
    output: Arc<Output>,
}

/// Caching output validator.
#[derive(Default)]
pub struct OutputValidator {
    /// Key: (graph identity, algorithm debug string, parameters included).
    /// Least recently used first; at most [`CACHED_OUTPUTS`] long.
    cache: Mutex<Vec<Cached>>,
    /// Reference computations run, i.e. cache misses.
    oracle_runs: AtomicU64,
}

impl OutputValidator {
    /// Creates an empty validator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the (cached) reference output for `alg` on `graph`.
    pub fn expected(&self, graph: &Arc<CsrGraph>, alg: &Algorithm) -> Arc<Output> {
        let key = (Arc::as_ptr(graph) as usize, format!("{alg:?}"));
        if let Some(hit) = Self::touch(&mut lock(&self.cache), &key) {
            return hit;
        }
        // The oracle runs outside the lock; two racing misses both compute
        // and the first insert wins (the reference is deterministic).
        self.oracle_runs.fetch_add(1, Ordering::Relaxed);
        let computed = Arc::new(reference(graph, alg));
        let mut cache = lock(&self.cache);
        if let Some(hit) = Self::touch(&mut cache, &key) {
            return hit;
        }
        if cache.len() >= CACHED_OUTPUTS {
            cache.remove(0);
        }
        cache.push(Cached {
            key,
            _graph: Arc::clone(graph),
            output: Arc::clone(&computed),
        });
        computed
    }

    /// Moves `key`'s entry, if cached, to the most recently used end.
    fn touch(cache: &mut Vec<Cached>, key: &(usize, String)) -> Option<Arc<Output>> {
        let at = cache.iter().position(|c| &c.key == key)?;
        let entry = cache.remove(at);
        let output = Arc::clone(&entry.output);
        cache.push(entry);
        Some(output)
    }

    /// Validates a platform's output against the reference.
    pub fn validate(&self, graph: &Arc<CsrGraph>, alg: &Algorithm, actual: &Output) -> Validation {
        let expected = self.expected(graph, alg);
        if expected.equivalent(actual) {
            Validation::Valid
        } else {
            Validation::Invalid(format!(
                "{}: expected {} but platform produced {}",
                alg.name(),
                expected.summary(),
                actual.summary()
            ))
        }
    }

    /// Number of cached reference results (for tests/metrics).
    pub fn cache_size(&self) -> usize {
        lock(&self.cache).len()
    }

    /// Reference computations run so far: every cache miss, including a
    /// recomputation after eviction.
    pub fn oracle_runs(&self) -> u64 {
        self.oracle_runs.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphalytics_graph::EdgeListGraph;

    fn graph() -> Arc<CsrGraph> {
        Arc::new(CsrGraph::from_edge_list(
            &EdgeListGraph::undirected_from_edges(vec![(0, 1), (1, 2), (0, 2), (3, 4)]),
        ))
    }

    #[test]
    fn validates_correct_output() {
        let g = graph();
        let v = OutputValidator::new();
        let out = reference(&g, &Algorithm::Conn);
        assert!(v.validate(&g, &Algorithm::Conn, &out).is_valid());
    }

    #[test]
    fn validates_up_to_component_relabeling() {
        let g = graph();
        let v = OutputValidator::new();
        // Same partition {0,1,2},{3,4} with different labels.
        let relabeled = Output::Components(vec![9, 9, 9, 4, 4]);
        assert!(v.validate(&g, &Algorithm::Conn, &relabeled).is_valid());
    }

    #[test]
    fn rejects_wrong_output_with_diagnostic() {
        let g = graph();
        let v = OutputValidator::new();
        let wrong = Output::Components(vec![0, 0, 0, 0, 0]);
        match v.validate(&g, &Algorithm::Conn, &wrong) {
            Validation::Invalid(msg) => assert!(msg.contains("CONN"), "{msg}"),
            other => panic!("expected invalid, got {other:?}"),
        }
    }

    #[test]
    fn cache_pins_the_graph_against_address_reuse() {
        // The cache key is the graph's heap address; if the entry did not
        // hold the graph alive, a later allocation could reuse the address
        // and validate against the wrong reference output. Dropping our
        // handle must leave the validator's copy alive.
        let v = OutputValidator::new();
        let g = graph();
        let _ = v.expected(&g, &Algorithm::Conn);
        assert!(
            Arc::strong_count(&g) >= 2,
            "validator must hold the graph it keyed by address"
        );
        let weak = Arc::downgrade(&g);
        drop(g);
        assert!(
            weak.upgrade().is_some(),
            "cached graph freed; its address could be recycled"
        );
    }

    #[test]
    fn caches_reference_results() {
        let g = graph();
        let v = OutputValidator::new();
        let a = v.expected(&g, &Algorithm::Conn);
        let b = v.expected(&g, &Algorithm::Conn);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(v.cache_size(), 1);
        let _ = v.expected(&g, &Algorithm::Stats);
        assert_eq!(v.cache_size(), 2);
    }

    #[test]
    fn cache_is_bounded_least_recently_used_first() {
        // A path long enough for 4 × CACHED_OUTPUTS distinct BFS sources.
        let n = 4 * CACHED_OUTPUTS as u64;
        let g = Arc::new(CsrGraph::from_edge_list(
            &EdgeListGraph::undirected_from_edges((0..n).map(|v| (v, v + 1)).collect()),
        ));
        let bfs = |source| Algorithm::Bfs { source };
        let v = OutputValidator::new();
        for source in 0..n {
            let right = reference(&g, &bfs(source));
            assert!(v.validate(&g, &bfs(source), &right).is_valid());
            let Output::Depths(mut depths) = right else {
                panic!("BFS yields depths");
            };
            depths[0] += 1;
            // A hit compares just as a miss does.
            assert!(!v
                .validate(&g, &bfs(source), &Output::Depths(depths))
                .is_valid());
            assert!(v.cache_size() <= CACHED_OUTPUTS);
        }
        assert_eq!(v.cache_size(), CACHED_OUTPUTS);
        assert_eq!(v.oracle_runs(), n);
        // The oldest survivor, once used again, outlives the next eviction.
        let oldest = n - CACHED_OUTPUTS as u64;
        let _ = v.expected(&g, &bfs(oldest));
        assert_eq!(v.oracle_runs(), n, "a cached source is a hit");
        let _ = v.expected(&g, &bfs(0));
        let _ = v.expected(&g, &bfs(oldest));
        assert_eq!(v.oracle_runs(), n + 1, "the entry used again survived");
        let _ = v.expected(&g, &bfs(oldest + 1));
        assert_eq!(
            v.oracle_runs(),
            n + 2,
            "the least recently used went instead"
        );
    }

    #[test]
    fn distinct_graphs_do_not_share_cache_entries() {
        let g1 = graph();
        let g2 = graph();
        let v = OutputValidator::new();
        let _ = v.expected(&g1, &Algorithm::Conn);
        let _ = v.expected(&g2, &Algorithm::Conn);
        assert_eq!(v.cache_size(), 2);
    }
}
