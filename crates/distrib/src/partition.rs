//! Deterministic vertex→worker assignment for the distributed runtime.
//!
//! Master and workers each compute the same plan independently from the
//! shared dataset (hash of the external vertex id, the Giraph default), so
//! no assignment ever travels the wire. The merge step reassembles
//! per-worker output vectors into global internal-id order — the exact
//! inverse of the scatter, so a distributed run's output vector is
//! byte-comparable with the in-process engine's.

use graphalytics_graph::partition::{HashPartitioner, Partitioner};
use graphalytics_graph::{CsrGraph, Vid};

/// The fleet-wide placement of every vertex.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionPlan {
    /// `owner[v]` is the worker that owns internal vertex `v`.
    pub owner: Vec<u32>,
    /// Per worker, its vertices in ascending internal-id order (the
    /// compute iteration order, identical to the in-process engine).
    pub worker_vertices: Vec<Vec<Vid>>,
}

impl PartitionPlan {
    /// Hash-partitions `graph` over `workers` workers (Giraph's default
    /// placement); pure function of the graph and the worker count.
    pub fn new(graph: &CsrGraph, workers: usize) -> Self {
        let workers = workers.max(1);
        let owner = HashPartitioner.partition(graph, workers);
        let mut worker_vertices: Vec<Vec<Vid>> = vec![Vec::new(); workers];
        for (v, &w) in owner.iter().enumerate() {
            worker_vertices[w as usize].push(v as Vid);
        }
        Self {
            owner,
            worker_vertices,
        }
    }

    /// Number of workers in the plan.
    pub fn workers(&self) -> usize {
        self.worker_vertices.len()
    }

    /// Merges per-worker output vectors (each in that worker's
    /// partition-list order) back into one global vector indexed by
    /// internal vertex id. Returns `None` when a worker's vector length
    /// does not match its partition size.
    pub fn merge<S: Clone>(&self, per_worker: &[Vec<S>]) -> Option<Vec<S>> {
        if per_worker.len() != self.worker_vertices.len() {
            return None;
        }
        let n = self.owner.len();
        let mut merged: Vec<Option<S>> = vec![None; n];
        for (w, states) in per_worker.iter().enumerate() {
            let vertices = &self.worker_vertices[w];
            if states.len() != vertices.len() {
                return None;
            }
            for (&v, s) in vertices.iter().zip(states) {
                merged[v as usize] = Some(s.clone());
            }
        }
        merged.into_iter().collect()
    }

    /// Extracts this worker's slice of a global vector, in partition-list
    /// order — the inverse of [`merge`](Self::merge), used when restoring
    /// a checkpoint into global-length buffers.
    pub fn gather<S: Clone>(&self, worker: usize, global: &[S]) -> Vec<S> {
        self.worker_vertices[worker]
            .iter()
            .map(|&v| global[v as usize].clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphalytics_graph::EdgeListGraph;

    fn graph(n: u64) -> CsrGraph {
        CsrGraph::from_edge_list(&EdgeListGraph::new(
            (0..n).collect(),
            (0..n).map(|i| (i, (i + 1) % n)).collect(),
            false,
        ))
    }

    #[test]
    fn plan_is_deterministic_and_total() {
        let g = graph(100);
        let a = PartitionPlan::new(&g, 4);
        let b = PartitionPlan::new(&g, 4);
        assert_eq!(a, b);
        assert_eq!(a.owner.len(), 100);
        let total: usize = a.worker_vertices.iter().map(Vec::len).sum();
        assert_eq!(total, 100);
        for (w, vs) in a.worker_vertices.iter().enumerate() {
            assert!(vs.windows(2).all(|p| p[0] < p[1]), "sorted partition");
            assert!(vs.iter().all(|&v| a.owner[v as usize] as usize == w));
        }
    }

    #[test]
    fn merge_inverts_gather() {
        let g = graph(37);
        let plan = PartitionPlan::new(&g, 5);
        let global: Vec<u64> = (0..37).map(|v| v * 10).collect();
        let per_worker: Vec<Vec<u64>> = (0..5).map(|w| plan.gather(w, &global)).collect();
        assert_eq!(plan.merge(&per_worker), Some(global));
    }

    #[test]
    fn merge_rejects_length_mismatch() {
        let g = graph(10);
        let plan = PartitionPlan::new(&g, 2);
        let mut per_worker: Vec<Vec<u64>> = (0..2).map(|w| plan.gather(w, &[0u64; 10])).collect();
        per_worker[1].pop();
        assert_eq!(plan.merge(&per_worker), None);
        assert_eq!(plan.merge(&per_worker[..1]), None);
    }

    #[test]
    fn single_worker_owns_everything() {
        let g = graph(8);
        let plan = PartitionPlan::new(&g, 1);
        assert!(plan.owner.iter().all(|&w| w == 0));
        assert_eq!(plan.worker_vertices[0].len(), 8);
    }
}
