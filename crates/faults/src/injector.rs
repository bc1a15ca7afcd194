//! The fault injector: a [`FaultPlan`] plus thread-safe logs of what was
//! injected and how the engines recovered.
//!
//! The logs are the evidence the fault-determinism tests compare: two runs
//! with the same seed and plan must produce identical injection and
//! recovery logs. Engines record from worker threads, so the accessors
//! return *sorted* copies — the canonical order is the site/event identity,
//! not the (nondeterministic) arrival order.

use std::sync::Mutex;

use crate::plan::{FaultPlan, FaultSite};

/// What an engine did about a fault (or, for checkpoints, ahead of one).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RecoveryAction {
    /// A pregel superstep-boundary checkpoint was saved (preparation, not
    /// recovery — excluded from the recovery counter).
    Checkpoint,
    /// Pregel restarted from the last checkpoint after a worker loss.
    CheckpointRestart,
    /// Dataflow recomputed a lost shuffle partition from its parent.
    LineageRecompute,
    /// MapReduce re-attempted a task after a transient I/O error.
    TaskRetry,
    /// An allocation was retried after a transient failure.
    AllocRetry,
    /// The runner re-ran a whole platform run after a transient error.
    RunRetry,
}

impl RecoveryAction {
    /// Stable label (metric label / span field material).
    pub fn name(&self) -> &'static str {
        match self {
            RecoveryAction::Checkpoint => "checkpoint",
            RecoveryAction::CheckpointRestart => "checkpoint_restart",
            RecoveryAction::LineageRecompute => "lineage_recompute",
            RecoveryAction::TaskRetry => "task_retry",
            RecoveryAction::AllocRetry => "alloc_retry",
            RecoveryAction::RunRetry => "run_retry",
        }
    }

    /// True for actual recoveries (everything but checkpoint saves).
    pub fn is_recovery(&self) -> bool {
        !matches!(self, RecoveryAction::Checkpoint)
    }
}

/// One recovery (or checkpoint) event.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RecoveryEvent {
    /// What happened.
    pub action: RecoveryAction,
    /// The fault site that triggered it, when one did (checkpoint saves
    /// and runner reruns of organic transient errors carry `None`).
    pub site: Option<FaultSite>,
    /// Virtual backoff milliseconds charged before the retry (0 for
    /// immediate recoveries).
    pub backoff_ms: u64,
}

/// A fault plan with injection/recovery logs. Shared across engine worker
/// threads via `Arc`; with a [`FaultPlan::disabled`] plan every probe is a
/// cheap `false`.
#[derive(Debug, Default)]
pub struct FaultInjector {
    plan: FaultPlan,
    injected: Mutex<Vec<FaultSite>>,
    recoveries: Mutex<Vec<RecoveryEvent>>,
}

impl FaultInjector {
    /// An injector executing `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            injected: Mutex::new(Vec::new()),
            recoveries: Mutex::new(Vec::new()),
        }
    }

    /// An injector that never fires (all hooks become no-ops).
    pub fn disabled() -> Self {
        Self::new(FaultPlan::disabled())
    }

    /// Pure decision: does a fault strike at `site`? Does not log.
    pub fn decide(&self, site: &FaultSite) -> bool {
        self.plan.decides(site)
    }

    /// Records an injected fault.
    pub fn record_injection(&self, site: FaultSite) {
        lock(&self.injected).push(site);
    }

    /// Records a recovery (or checkpoint) event.
    pub fn record_recovery(&self, event: RecoveryEvent) {
        lock(&self.recoveries).push(event);
    }

    /// All injected faults, in canonical (sorted) order.
    pub fn injected(&self) -> Vec<FaultSite> {
        let mut v = lock(&self.injected).clone();
        v.sort();
        v
    }

    /// All recovery/checkpoint events, in canonical (sorted) order.
    pub fn recoveries(&self) -> Vec<RecoveryEvent> {
        let mut v = lock(&self.recoveries).clone();
        v.sort();
        v
    }

    /// Number of injected faults.
    pub fn injected_count(&self) -> usize {
        lock(&self.injected).len()
    }

    /// Number of actual recoveries (checkpoint saves excluded).
    pub fn recovery_count(&self) -> usize {
        lock(&self.recoveries)
            .iter()
            .filter(|e| e.action.is_recovery())
            .count()
    }

    /// Number of checkpoint saves.
    pub fn checkpoint_count(&self) -> usize {
        lock(&self.recoveries)
            .iter()
            .filter(|e| e.action == RecoveryAction::Checkpoint)
            .count()
    }
}

/// Poison-tolerant lock: a panicked worker must not wedge the harness.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultKind;

    fn site(worker: u32) -> FaultSite {
        FaultSite::PregelWorker {
            superstep: 0,
            worker,
            incarnation: 0,
        }
    }

    #[test]
    fn disabled_injector_is_inert() {
        let inj = FaultInjector::disabled();
        assert!(!inj.decide(&site(0)));
        assert_eq!(inj.injected_count(), 0);
        assert_eq!(inj.recovery_count(), 0);
    }

    #[test]
    fn logs_come_back_sorted() {
        let inj = FaultInjector::new(FaultPlan::seeded(1).with_rate(FaultKind::WorkerCrash, 1.0));
        inj.record_injection(site(3));
        inj.record_injection(site(1));
        inj.record_injection(site(2));
        assert_eq!(inj.injected(), vec![site(1), site(2), site(3)]);
        assert_eq!(inj.injected_count(), 3);
    }

    #[test]
    fn recovery_counter_excludes_checkpoints() {
        let inj = FaultInjector::disabled();
        inj.record_recovery(RecoveryEvent {
            action: RecoveryAction::Checkpoint,
            site: None,
            backoff_ms: 0,
        });
        inj.record_recovery(RecoveryEvent {
            action: RecoveryAction::CheckpointRestart,
            site: Some(site(0)),
            backoff_ms: 0,
        });
        assert_eq!(inj.recovery_count(), 1);
        assert_eq!(inj.checkpoint_count(), 1);
        assert_eq!(inj.recoveries().len(), 2);
    }

    #[test]
    fn concurrent_recording_is_safe() {
        let inj = std::sync::Arc::new(FaultInjector::disabled());
        std::thread::scope(|s| {
            for w in 0..8u32 {
                let inj = std::sync::Arc::clone(&inj);
                s.spawn(move || {
                    for i in 0..50 {
                        inj.record_injection(site(w * 100 + i));
                    }
                });
            }
        });
        assert_eq!(inj.injected_count(), 400);
        let log = inj.injected();
        assert!(log.windows(2).all(|w| w[0] <= w[1]));
    }
}
