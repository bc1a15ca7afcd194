//! A Spark-like partitioned dataset engine.
//!
//! GraphX "represents graphs as Spark resilient distributed datasets
//! (RDDs)" (paper §3.2). This module is the Spark substrate: partitioned
//! datasets with parallel map-side transformations and hash-shuffle
//! reduce/join/group operations, plus the piece that matters for
//! reproducing Figure 4 — a [`MemoryManager`] that accounts every live
//! dataset against an executor memory budget and fails the job with an
//! out-of-memory error when materializing more than the budget allows
//! ("GraphX is unable to process some of the workloads that Giraph can
//! process, indicated by missing values in the figure").

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use graphalytics_core::faults::{fingerprint, FaultInjector, FaultSite, RecoveryAction};
use graphalytics_core::faultwire;
use graphalytics_core::platform::PlatformError;
use graphalytics_core::sync::lock;
use graphalytics_core::trace::Tracer;
use graphalytics_graph::partition::mix64;

/// Tracks live dataset bytes against an optional budget.
#[derive(Debug, Default)]
pub struct MemoryManager {
    budget: Option<usize>,
    used: AtomicUsize,
    peak: AtomicUsize,
}

impl MemoryManager {
    /// A manager with the given budget (None = unlimited).
    pub fn new(budget: Option<usize>) -> Self {
        Self {
            budget,
            used: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    /// Reserves `bytes`; fails when the budget would be exceeded.
    pub fn allocate(&self, bytes: usize) -> Result<(), PlatformError> {
        let new_used = self.used.fetch_add(bytes, Ordering::Relaxed) + bytes;
        if let Some(budget) = self.budget {
            if new_used > budget {
                self.used.fetch_sub(bytes, Ordering::Relaxed);
                return Err(PlatformError::OutOfMemory {
                    required: new_used,
                    budget,
                });
            }
        }
        self.peak.fetch_max(new_used, Ordering::Relaxed);
        Ok(())
    }

    /// Releases `bytes` (dataset dropped).
    pub fn release(&self, bytes: usize) {
        self.used.fetch_sub(
            bytes.min(self.used.load(Ordering::Relaxed)),
            Ordering::Relaxed,
        );
    }

    /// Currently live bytes.
    pub fn used(&self) -> usize {
        self.used.load(Ordering::Relaxed)
    }

    /// Peak live bytes over the manager's lifetime.
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }
}

/// Shuffle statistics (the network choke point, dataflow edition).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ShuffleStats {
    /// Records moved between partitions by shuffles.
    pub shuffle_records: usize,
    /// Shuffle operations executed.
    pub shuffles: usize,
    /// Stages (transformations) executed.
    pub stages: usize,
}

/// Fetch attempts per shuffle partition / allocation before the fault is
/// escalated (Spark's `spark.shuffle.io.maxRetries`-style bound).
const MAX_FETCH_ATTEMPTS: u32 = 3;

/// The armed fault hook: set by the platform at run start, consulted at
/// the engine's injection points (shuffle fetches, allocations).
#[derive(Default)]
struct FaultHook {
    injector: Option<Arc<FaultInjector>>,
    tracer: Option<Arc<Tracer>>,
}

/// The per-job context: partition count, memory manager, statistics.
pub struct SparkContext {
    /// Number of partitions for new datasets and shuffles.
    pub partitions: usize,
    /// Memory accounting.
    pub memory: Arc<MemoryManager>,
    stats: Mutex<ShuffleStats>,
    faults: Mutex<FaultHook>,
    alloc_seq: AtomicU64,
}

impl SparkContext {
    /// Creates a context.
    pub fn new(partitions: usize, memory_budget: Option<usize>) -> Arc<Self> {
        Arc::new(Self {
            partitions: partitions.max(1),
            memory: Arc::new(MemoryManager::new(memory_budget)),
            stats: Mutex::new(ShuffleStats::default()),
            faults: Mutex::new(FaultHook::default()),
            alloc_seq: AtomicU64::new(0),
        })
    }

    /// Arms (or, with `None`, disarms) fault injection for subsequent
    /// operations on this context. The platform calls this at run start
    /// from the harness's `RunContext`.
    pub fn arm_faults(&self, injector: Option<Arc<FaultInjector>>, tracer: Option<Arc<Tracer>>) {
        *lock(&self.faults) = FaultHook { injector, tracer };
    }

    /// Snapshot of the shuffle statistics.
    pub fn stats(&self) -> ShuffleStats {
        *lock(&self.stats)
    }

    fn fault_armed(&self) -> bool {
        lock(&self.faults).injector.is_some()
    }

    fn probe(&self, site: FaultSite) -> Result<(), PlatformError> {
        let hook = lock(&self.faults);
        match &hook.injector {
            Some(inj) => {
                let tracer = hook.tracer.as_deref().unwrap_or_else(|| Tracer::noop());
                faultwire::inject_fault(tracer, inj, site)
            }
            None => Ok(()),
        }
    }

    fn recover(&self, action: RecoveryAction, site: FaultSite) {
        let hook = lock(&self.faults);
        let tracer = hook.tracer.as_deref().unwrap_or_else(|| Tracer::noop());
        faultwire::note_recovery(tracer, hook.injector.as_deref(), action, Some(site), 0);
    }

    /// Budget-checked allocation with a transient-failure injection point:
    /// under an armed fault plan an allocation may fail spuriously and be
    /// retried (bounded), modeling executor memory pressure distinct from
    /// a deterministic budget excess.
    fn alloc(&self, bytes: usize) -> Result<(), PlatformError> {
        if self.fault_armed() {
            let scope = fingerprint("graphx.alloc");
            let sequence = self.alloc_seq.fetch_add(1, Ordering::Relaxed);
            let mut attempt = 0u32;
            loop {
                let site = FaultSite::Alloc {
                    scope,
                    sequence,
                    attempt,
                };
                match self.probe(site.clone()) {
                    Ok(()) => break,
                    Err(e) if attempt + 1 >= MAX_FETCH_ATTEMPTS => return Err(e),
                    Err(_) => {
                        self.recover(RecoveryAction::AllocRetry, site);
                        attempt += 1;
                    }
                }
            }
        }
        self.memory.allocate(bytes)
    }

    fn note_stage(&self) {
        lock(&self.stats).stages += 1;
    }

    fn note_shuffle(&self, records: usize) {
        let mut s = lock(&self.stats);
        s.shuffles += 1;
        s.shuffle_records += records;
    }
}

/// A partitioned, memory-accounted dataset.
pub struct Dataset<T> {
    ctx: Arc<SparkContext>,
    parts: Vec<Vec<T>>,
    bytes: usize,
}

impl<T> Drop for Dataset<T> {
    fn drop(&mut self) {
        self.ctx.memory.release(self.bytes);
    }
}

/// Dataset size estimate: element count × element size. Nested heap
/// payloads (e.g. `Vec` contents inside elements) are *not* counted — the
/// same blind spot Spark's SizeEstimator has for deeply nested records —
/// so budgets meter the dominant flat datasets (arcs, messages, pairs)
/// and under-count list-shipping stages.
fn estimate_bytes<T>(len: usize) -> usize {
    len * std::mem::size_of::<T>().max(1)
}

impl<T: Send + Sync> Dataset<T> {
    /// Parallelizes a vector across the context's partitions.
    pub fn from_vec(ctx: &Arc<SparkContext>, items: Vec<T>) -> Result<Self, PlatformError> {
        let bytes = estimate_bytes::<T>(items.len());
        ctx.alloc(bytes)?;
        let p = ctx.partitions;
        let mut parts: Vec<Vec<T>> = (0..p).map(|_| Vec::new()).collect();
        let per = items.len().div_ceil(p).max(1);
        for (i, item) in items.into_iter().enumerate() {
            parts[(i / per).min(p - 1)].push(item);
        }
        ctx.note_stage();
        Ok(Self {
            ctx: Arc::clone(ctx),
            parts,
            bytes,
        })
    }

    /// Builds a dataset directly from pre-shuffled partitions.
    fn from_parts(ctx: &Arc<SparkContext>, parts: Vec<Vec<T>>) -> Result<Self, PlatformError> {
        let bytes = estimate_bytes::<T>(parts.iter().map(Vec::len).sum());
        ctx.alloc(bytes)?;
        Ok(Self {
            ctx: Arc::clone(ctx),
            parts,
            bytes,
        })
    }

    /// Total element count.
    pub fn count(&self) -> usize {
        self.parts.iter().map(Vec::len).sum()
    }

    /// Collects all elements (driver-side).
    pub fn collect(&self) -> Vec<T>
    where
        T: Clone,
    {
        let mut out = Vec::with_capacity(self.count());
        for p in &self.parts {
            out.extend(p.iter().cloned());
        }
        out
    }

    /// Narrow transformation: per-partition map, parallel across partitions.
    pub fn map<U: Send + Sync>(
        &self,
        f: impl Fn(&T) -> U + Sync,
    ) -> Result<Dataset<U>, PlatformError> {
        self.map_partitions(|part| part.iter().map(&f).collect())
    }

    /// Narrow transformation: per-partition filter.
    pub fn filter(&self, f: impl Fn(&T) -> bool + Sync) -> Result<Dataset<T>, PlatformError>
    where
        T: Clone,
    {
        self.map_partitions(|part| part.iter().filter(|x| f(x)).cloned().collect())
    }

    /// Narrow transformation: per-partition flat map.
    pub fn flat_map<U: Send + Sync>(
        &self,
        f: impl Fn(&T) -> Vec<U> + Sync,
    ) -> Result<Dataset<U>, PlatformError> {
        self.map_partitions(|part| part.iter().flat_map(&f).collect())
    }

    /// The general narrow transformation: one closure per partition,
    /// executed in parallel worker threads.
    pub fn map_partitions<U: Send + Sync>(
        &self,
        f: impl Fn(&[T]) -> Vec<U> + Sync,
    ) -> Result<Dataset<U>, PlatformError> {
        self.ctx.note_stage();
        let parts = graphalytics_parallel::try_map_each(&self.parts, |_, part| f(part))
            .map_err(|payload| PlatformError::worker_panicked("dataflow", payload))?;
        Dataset::from_parts(&self.ctx, parts)
    }

    /// Union of two datasets (narrow).
    pub fn union(&self, other: &Dataset<T>) -> Result<Dataset<T>, PlatformError>
    where
        T: Clone,
    {
        let mut parts = self.parts.clone();
        for (i, p) in other.parts.iter().enumerate() {
            if i < parts.len() {
                parts[i].extend(p.iter().cloned());
            } else {
                parts.push(p.clone());
            }
        }
        self.ctx.note_stage();
        Dataset::from_parts(&self.ctx, parts)
    }
}

/// Hash of a key to its shuffle partition.
fn key_partition<K: std::hash::Hash>(key: &K, partitions: usize) -> usize {
    let mut hasher = rustc_hash::FxHasher::default();
    std::hash::Hash::hash(key, &mut hasher);
    (mix64(std::hash::Hasher::finish(&hasher)) % partitions as u64) as usize
}

impl<K, V> Dataset<(K, V)>
where
    K: std::hash::Hash + Eq + Clone + Send + Sync,
    V: Clone + Send + Sync,
{
    /// Wide transformation: hash-shuffles by key, then reduces values with
    /// `f` within each partition.
    pub fn reduce_by_key(
        &self,
        f: impl Fn(V, V) -> V + Sync,
    ) -> Result<Dataset<(K, V)>, PlatformError> {
        let shuffled = self.shuffle_by_key()?;
        shuffled.map_partitions(|part| {
            let mut acc: rustc_hash::FxHashMap<K, V> = rustc_hash::FxHashMap::default();
            for (k, v) in part {
                match acc.entry(k.clone()) {
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        let old = e.get().clone();
                        e.insert(f(old, v.clone()));
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(v.clone());
                    }
                }
            }
            acc.into_iter().collect()
        })
    }

    /// Wide transformation: hash-shuffles by key and groups all values.
    pub fn group_by_key(&self) -> Result<Dataset<(K, Vec<V>)>, PlatformError> {
        let shuffled = self.shuffle_by_key()?;
        shuffled.map_partitions(|part| {
            let mut acc: rustc_hash::FxHashMap<K, Vec<V>> = rustc_hash::FxHashMap::default();
            for (k, v) in part {
                acc.entry(k.clone()).or_default().push(v.clone());
            }
            acc.into_iter().collect()
        })
    }

    /// Wide transformation: inner hash join.
    #[allow(clippy::type_complexity)]
    pub fn join<W>(&self, other: &Dataset<(K, W)>) -> Result<Dataset<(K, (V, W))>, PlatformError>
    where
        W: Clone + Send + Sync,
    {
        let left = self.shuffle_by_key()?;
        let right = other.shuffle_by_key()?;
        left.ctx.note_stage();
        let parts = graphalytics_parallel::try_map_each(
            left.parts.iter().zip(&right.parts),
            |_, (lpart, rpart)| {
                let mut table: rustc_hash::FxHashMap<&K, Vec<&V>> =
                    rustc_hash::FxHashMap::default();
                for (k, v) in lpart {
                    table.entry(k).or_default().push(v);
                }
                let mut out = Vec::new();
                for (k, w) in rpart {
                    if let Some(vs) = table.get(k) {
                        for v in vs {
                            out.push((k.clone(), ((*v).clone(), w.clone())));
                        }
                    }
                }
                out
            },
        )
        .map_err(|payload| PlatformError::worker_panicked("dataflow join", payload))?;
        Dataset::from_parts(&self.ctx, parts)
    }

    /// Redistributes records so all records of a key land in the same
    /// partition. Counts every moved record as shuffle traffic.
    ///
    /// Under an armed fault plan each shuffle output partition is a
    /// partition-loss injection point; a lost partition is rebuilt by
    /// lineage — recomputed from this (parent) dataset's partitions, the
    /// RDD recovery model — bounded by [`MAX_FETCH_ATTEMPTS`].
    pub fn shuffle_by_key(&self) -> Result<Dataset<(K, V)>, PlatformError> {
        let p = self.ctx.partitions;
        let shuffle_id = self.ctx.stats().shuffles as u32;
        let mut parts: Vec<Vec<(K, V)>> = (0..p).map(|_| Vec::new()).collect();
        let mut moved = 0usize;
        for (src_idx, part) in self.parts.iter().enumerate() {
            for (k, v) in part {
                let dest = key_partition(k, p);
                if dest != src_idx {
                    moved += 1;
                }
                parts[dest].push((k.clone(), v.clone()));
            }
        }
        if self.ctx.fault_armed() {
            for (dest, dest_part) in parts.iter_mut().enumerate() {
                let mut attempt = 0u32;
                loop {
                    let site = FaultSite::ShufflePartition {
                        shuffle: shuffle_id,
                        partition: dest as u32,
                        attempt,
                    };
                    match self.ctx.probe(site.clone()) {
                        Ok(()) => break,
                        Err(e) if attempt + 1 >= MAX_FETCH_ATTEMPTS => return Err(e),
                        Err(_) => {
                            // Lineage recompute: rebuild the lost partition
                            // from the parent partitions, in the same order
                            // as the original scatter — byte-identical.
                            dest_part.clear();
                            for part in &self.parts {
                                for (k, v) in part {
                                    if key_partition(k, p) == dest {
                                        dest_part.push((k.clone(), v.clone()));
                                    }
                                }
                            }
                            self.ctx.recover(RecoveryAction::LineageRecompute, site);
                            attempt += 1;
                        }
                    }
                }
            }
        }
        self.ctx.note_shuffle(moved);
        Dataset::from_parts(&self.ctx, parts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> Arc<SparkContext> {
        SparkContext::new(4, None)
    }

    #[test]
    fn a_panicking_closure_fails_the_stage_and_the_context_survives() {
        let boom = |&x: &u32| -> bool { panic!("cannot take {x}") };
        let failed = |x: u32| {
            Err(PlatformError::Internal(format!(
                "dataflow worker panicked: cannot take {x}"
            )))
        };
        // Four partitions compute on their own threads, one on the caller's;
        // the first partition in partition order is the one reported.
        for (partitions, first) in [(4, 0), (1, 7)] {
            let c = SparkContext::new(partitions, None);
            let d = Dataset::from_vec(&c, (first..first + 100).collect()).unwrap();
            assert_eq!(d.filter(boom).map(|_| ()), failed(first));
            assert_eq!(d.flat_map(|x| vec![boom(x)]).map(|_| ()), failed(first));
            assert_eq!(d.map(boom).map(|_| ()), failed(first));
            // Same context, same dataset: the next stage runs.
            assert_eq!(d.map(|x| x + 1).unwrap().count(), 100);
        }
    }

    #[test]
    fn map_filter_flatmap() {
        let c = ctx();
        let d = Dataset::from_vec(&c, (0..100u32).collect()).unwrap();
        let mapped = d.map(|x| x * 2).unwrap();
        assert_eq!(mapped.count(), 100);
        let filtered = mapped.filter(|&x| x % 4 == 0).unwrap();
        assert_eq!(filtered.count(), 50);
        let expanded = filtered.flat_map(|&x| vec![x, x]).unwrap();
        assert_eq!(expanded.count(), 100);
        let mut all = expanded.collect();
        all.sort_unstable();
        assert_eq!(all[0], 0);
        assert_eq!(all[1], 0);
    }

    #[test]
    fn reduce_by_key_sums() {
        let c = ctx();
        let pairs: Vec<(u32, u64)> = (0..100).map(|i| (i % 5, 1u64)).collect();
        let d = Dataset::from_vec(&c, pairs).unwrap();
        let reduced = d.reduce_by_key(|a, b| a + b).unwrap();
        let mut out = reduced.collect();
        out.sort_unstable();
        assert_eq!(out, vec![(0, 20), (1, 20), (2, 20), (3, 20), (4, 20)]);
    }

    #[test]
    fn group_by_key_collects_all_values() {
        let c = ctx();
        let d = Dataset::from_vec(&c, vec![(1u32, 10u32), (2, 20), (1, 11)]).unwrap();
        let grouped = d.group_by_key().unwrap();
        let mut out = grouped.collect();
        out.sort_by_key(|(k, _)| *k);
        assert_eq!(out.len(), 2);
        let mut g1 = out[0].1.clone();
        g1.sort_unstable();
        assert_eq!(g1, vec![10, 11]);
    }

    #[test]
    fn join_matches_keys() {
        let c = ctx();
        let left = Dataset::from_vec(&c, vec![(1u32, "a"), (2, "b"), (2, "b2")]).unwrap();
        let right = Dataset::from_vec(&c, vec![(2u32, 100u32), (3, 300)]).unwrap();
        let joined = left.join(&right).unwrap();
        let mut out = joined.collect();
        out.sort_by_key(|(k, (v, _))| (*k, v.to_string()));
        assert_eq!(out, vec![(2, ("b", 100)), (2, ("b2", 100))]);
    }

    #[test]
    fn memory_budget_fails_oversized_jobs() {
        let c = SparkContext::new(2, Some(128));
        let ok = Dataset::from_vec(&c, (0..10u64).collect());
        assert!(ok.is_ok());
        let too_big = Dataset::from_vec(&c, (0..1000u64).collect());
        assert!(matches!(too_big, Err(PlatformError::OutOfMemory { .. })));
    }

    #[test]
    fn dropping_datasets_releases_memory() {
        let c = SparkContext::new(2, Some(10_000));
        let before = c.memory.used();
        {
            let _d = Dataset::from_vec(&c, (0..100u64).collect()).unwrap();
            assert!(c.memory.used() > before);
        }
        assert_eq!(c.memory.used(), before);
        assert!(c.memory.peak() > 0);
    }

    #[test]
    fn shuffle_stats_are_recorded() {
        let c = ctx();
        let d = Dataset::from_vec(&c, (0..100u32).map(|i| (i, i)).collect::<Vec<_>>()).unwrap();
        let _ = d.reduce_by_key(|a, _| a).unwrap();
        let stats = c.stats();
        assert_eq!(stats.shuffles, 1);
        assert!(stats.shuffle_records > 0);
        assert!(stats.stages >= 2);
    }

    #[test]
    fn lost_shuffle_partition_recomputes_by_lineage() {
        let pairs: Vec<(u32, u64)> = (0..100).map(|i| (i % 7, 1u64)).collect();
        // Fault-free baseline.
        let baseline = {
            let c = ctx();
            let d = Dataset::from_vec(&c, pairs.clone()).unwrap();
            d.reduce_by_key(|a, b| a + b).unwrap().collect()
        };
        // Same job with partition 1 of the first shuffle lost once.
        let c = ctx();
        let injector = Arc::new(FaultInjector::new(
            graphalytics_core::faults::FaultPlan::seeded(3).force(FaultSite::ShufflePartition {
                shuffle: 0,
                partition: 1,
                attempt: 0,
            }),
        ));
        c.arm_faults(Some(Arc::clone(&injector)), None);
        let d = Dataset::from_vec(&c, pairs).unwrap();
        let out = d.reduce_by_key(|a, b| a + b).unwrap().collect();
        assert_eq!(out, baseline); // Lineage rebuild is byte-identical.
        assert_eq!(injector.injected_count(), 1);
        assert_eq!(injector.recovery_count(), 1);
    }

    #[test]
    fn repeated_partition_loss_escalates() {
        let c = ctx();
        let mut plan = graphalytics_core::faults::FaultPlan::seeded(3);
        for attempt in 0..MAX_FETCH_ATTEMPTS {
            plan = plan.force(FaultSite::ShufflePartition {
                shuffle: 0,
                partition: 0,
                attempt,
            });
        }
        c.arm_faults(Some(Arc::new(FaultInjector::new(plan))), None);
        let d = Dataset::from_vec(&c, vec![(1u32, 1u32), (2, 2)]).unwrap();
        match d.shuffle_by_key() {
            Err(e) => assert_eq!(
                e,
                PlatformError::PartitionLost {
                    shuffle: 0,
                    partition: 0
                }
            ),
            Ok(_) => panic!("expected partition loss to escalate"),
        }
    }

    #[test]
    fn transient_alloc_failures_retry_then_escalate() {
        let scope = fingerprint("graphx.alloc");
        // One transient alloc failure: retried, job succeeds.
        let c = ctx();
        let injector = Arc::new(FaultInjector::new(
            graphalytics_core::faults::FaultPlan::seeded(5).force(FaultSite::Alloc {
                scope,
                sequence: 0,
                attempt: 0,
            }),
        ));
        c.arm_faults(Some(Arc::clone(&injector)), None);
        let d = Dataset::from_vec(&c, (0..10u32).collect()).unwrap();
        assert_eq!(d.count(), 10);
        assert_eq!(injector.injected_count(), 1);
        assert_eq!(injector.recovery_count(), 1);
        // Exhausting every attempt escalates as AllocFailed.
        let c = ctx();
        let mut plan = graphalytics_core::faults::FaultPlan::seeded(5);
        for attempt in 0..MAX_FETCH_ATTEMPTS {
            plan = plan.force(FaultSite::Alloc {
                scope,
                sequence: 0,
                attempt,
            });
        }
        c.arm_faults(Some(Arc::new(FaultInjector::new(plan))), None);
        match Dataset::from_vec(&c, (0..10u32).collect()) {
            Err(e) => assert!(matches!(e, PlatformError::AllocFailed { .. })),
            Ok(_) => panic!("expected alloc failure to escalate"),
        }
    }

    #[test]
    fn union_concatenates() {
        let c = ctx();
        let a = Dataset::from_vec(&c, vec![1u32, 2]).unwrap();
        let b = Dataset::from_vec(&c, vec![3u32]).unwrap();
        let u = a.union(&b).unwrap();
        let mut out = u.collect();
        out.sort_unstable();
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn empty_dataset_operations() {
        let c = ctx();
        let d: Dataset<(u32, u32)> = Dataset::from_vec(&c, vec![]).unwrap();
        assert_eq!(d.count(), 0);
        assert_eq!(d.reduce_by_key(|a, _| a).unwrap().count(), 0);
        assert_eq!(d.group_by_key().unwrap().count(), 0);
    }
}
