//! Output Validator: "checks the outcome of the benchmark to ensure
//! correctness" (paper §2.3, Figure 2).
//!
//! The validator compares a platform's output against the reference
//! implementation in `graphalytics-algos`, using the output-kind-appropriate
//! equivalence (exact, partition-equality, or tolerance). Reference results
//! are cached per `(graph, algorithm)` so validating four platforms costs
//! one oracle run.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::sync::lock;
use graphalytics_algos::{reference, Algorithm, Output};
use graphalytics_graph::CsrGraph;

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

/// Caching output validator.
pub struct OutputValidator {
    /// Cache key: (graph identity, algorithm debug string). The value keeps
    /// a strong reference to the graph: the key is its heap address, and
    /// pinning the allocation prevents a later graph from reusing the
    /// address and silently matching a stale entry.
    #[allow(clippy::type_complexity)]
    cache: Mutex<BTreeMap<(usize, String), (Arc<CsrGraph>, Arc<Output>)>>,
}

impl Default for OutputValidator {
    fn default() -> Self {
        Self::new()
    }
}

impl OutputValidator {
    /// Creates an empty validator.
    pub fn new() -> Self {
        Self {
            cache: Mutex::new(BTreeMap::new()),
        }
    }

    /// Returns the (cached) reference output for `alg` on `graph`.
    pub fn expected(&self, graph: &Arc<CsrGraph>, alg: &Algorithm) -> Arc<Output> {
        let key = (Arc::as_ptr(graph) as usize, format!("{alg:?}"));
        if let Some((_, hit)) = lock(&self.cache).get(&key) {
            return Arc::clone(hit);
        }
        let computed = Arc::new(reference(graph, alg));
        Arc::clone(
            &lock(&self.cache)
                .entry(key)
                .or_insert_with(|| (Arc::clone(graph), Arc::clone(&computed)))
                .1,
        )
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
    fn distinct_graphs_do_not_share_cache_entries() {
        let g1 = graph();
        let g2 = graph();
        let v = OutputValidator::new();
        let _ = v.expected(&g1, &Algorithm::Conn);
        let _ = v.expected(&g2, &Algorithm::Conn);
        assert_eq!(v.cache_size(), 2);
    }
}
