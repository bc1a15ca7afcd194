//! The graph registry: canonical CSR graphs shared and cached across jobs.
//!
//! One-shot drivers pay ETL once per process; a server would pay it once
//! per *job* unless loaded graphs are kept. The registry maps canonical
//! dataset names to their materialized [`CsrGraph`]s, loading on first
//! request and handing out `Arc`s afterwards. Readiness (for `/readyz`)
//! flips only after the configured preload set has been materialized.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use graphalytics_core::config::parse_dataset;
use graphalytics_core::sync::lock;
use graphalytics_core::Dataset;
use graphalytics_graph::CsrGraph;

/// Thread-safe cache of loaded graphs, keyed by canonical dataset name
/// (`"Graph500 14"`), plus the server's readiness latch.
#[derive(Default)]
pub struct GraphRegistry {
    graphs: Mutex<BTreeMap<String, Arc<CsrGraph>>>,
    ready: AtomicBool,
}

impl GraphRegistry {
    /// An empty, not-yet-ready registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolves `spec` (configuration syntax, e.g. `graph500-14`) and
    /// returns the cached graph, loading and inserting it on first use.
    /// The boolean is true on a cache hit. Generation happens outside the
    /// map lock, so a slow load does not block registry reads; if two jobs
    /// race on the same uncached graph, both load it and the first insert
    /// wins (the datagen is deterministic, so the results are identical).
    pub fn get_or_load(&self, spec: &str) -> Result<(Dataset, Arc<CsrGraph>, bool), String> {
        let dataset = parse_dataset(spec)?;
        if let Some(g) = lock(&self.graphs).get(&dataset.name) {
            return Ok((dataset, Arc::clone(g), true));
        }
        let graph = dataset
            .load()
            .map_err(|e| format!("loading {spec:?}: {e}"))?;
        let graph = Arc::clone(
            lock(&self.graphs)
                .entry(dataset.name.clone())
                .or_insert(graph),
        );
        Ok((dataset, graph, false))
    }

    /// Canonical names of the currently cached graphs, sorted.
    pub fn loaded_names(&self) -> Vec<String> {
        lock(&self.graphs).keys().cloned().collect()
    }

    /// Number of cached graphs.
    pub fn len(&self) -> usize {
        lock(&self.graphs).len()
    }

    /// True when no graphs are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the preload set has been materialized (`/readyz`).
    pub fn is_ready(&self) -> bool {
        self.ready.load(Ordering::Acquire)
    }

    /// Marks the registry ready. Called once preloading finishes.
    pub fn mark_ready(&self) {
        self.ready.store(true, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loads_once_then_caches() {
        let registry = GraphRegistry::new();
        assert!(registry.is_empty());
        let (dataset, g1, cached1) = registry.get_or_load("graph500-8").unwrap();
        assert_eq!(dataset.name, "Graph500 8");
        assert!(!cached1);
        let (_, g2, cached2) = registry.get_or_load("graph500-8").unwrap();
        assert!(cached2);
        assert!(Arc::ptr_eq(&g1, &g2));
        assert_eq!(registry.loaded_names(), vec!["Graph500 8"]);
        assert_eq!(registry.len(), 1);
    }

    #[test]
    fn rejects_unknown_specs() {
        let registry = GraphRegistry::new();
        assert!(registry.get_or_load("warpdrive-9").is_err());
        assert!(registry.is_empty());
    }

    #[test]
    fn a_panicking_lock_holder_leaves_the_registry_usable() {
        let registry = GraphRegistry::new();
        let holder = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = lock(&registry.graphs);
                panic!("registry lock holder dies");
            })
            .join()
        });
        assert!(holder.is_err());
        assert!(registry.graphs.is_poisoned());
        assert!(registry.is_empty());
        assert!(!registry.get_or_load("graph500-6").unwrap().2);
        assert_eq!(registry.len(), 1);
    }

    #[test]
    fn readiness_latch() {
        let registry = GraphRegistry::new();
        assert!(!registry.is_ready());
        registry.mark_ready();
        assert!(registry.is_ready());
    }
}
