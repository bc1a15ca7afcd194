//! Fault plans: pure, seed-derived decisions about where faults strike.
//!
//! A [`FaultPlan`] never draws from a stateful RNG. Every decision is
//! `hash(seed, site) < rate`, a pure function of the plan and the
//! [`FaultSite`] identity, so the set of injected faults is independent of
//! thread scheduling, call order, and how many *other* sites were probed
//! first — the property the fault-determinism tests pin.

/// One SplitMix64 output step — the same finalizer as
/// `graphalytics_graph::rng::SplitMix64`, repeated here because this crate
/// sits below the graph crate.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mixes `v` into the running hash `h` (order-sensitive, avalanching).
fn mix(h: u64, v: u64) -> u64 {
    splitmix64(h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31))
}

/// Stable 64-bit fingerprint of a string (job names, allocation scopes).
pub fn fingerprint(s: &str) -> u64 {
    let mut h = 0x5851_F42D_4C95_7F2D;
    for chunk in s.as_bytes().chunks(8) {
        let mut word = 0u64;
        for (i, &b) in chunk.iter().enumerate() {
            word |= (b as u64) << (8 * i);
        }
        h = mix(h, word ^ chunk.len() as u64);
    }
    h
}

/// The categories of fault the engines know how to inject (and recover
/// from).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// A pregel worker crashes at a superstep boundary; recovery restarts
    /// from the last superstep-boundary checkpoint.
    WorkerCrash,
    /// A shuffle output partition is lost in the dataflow engine; recovery
    /// recomputes it from the parent dataset (lineage).
    PartitionLoss,
    /// A map/reduce task attempt hits a transient I/O error; recovery is a
    /// fresh task attempt (Hadoop's speculative re-execution, minus the
    /// speculation).
    TaskIo,
    /// An allocation transiently fails under the memory budget; recovery
    /// retries the allocation.
    AllocFailure,
}

impl FaultKind {
    /// All kinds, in rate-table order.
    pub const ALL: [FaultKind; 4] = [
        FaultKind::WorkerCrash,
        FaultKind::PartitionLoss,
        FaultKind::TaskIo,
        FaultKind::AllocFailure,
    ];

    /// Stable label (used on spans and metric labels).
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::WorkerCrash => "worker_crash",
            FaultKind::PartitionLoss => "partition_loss",
            FaultKind::TaskIo => "task_io",
            FaultKind::AllocFailure => "alloc_failure",
        }
    }

    fn index(&self) -> usize {
        match self {
            FaultKind::WorkerCrash => 0,
            FaultKind::PartitionLoss => 1,
            FaultKind::TaskIo => 2,
            FaultKind::AllocFailure => 3,
        }
    }
}

/// A typed injection point. The attempt/incarnation counters are part of
/// the identity on purpose: a retried attempt is a *different* site, so it
/// re-rolls instead of hitting the same deterministic fault forever.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultSite {
    /// Worker `worker` at the start of `superstep`, within checkpoint
    /// incarnation `incarnation` (bumped on every restart).
    PregelWorker {
        /// Superstep about to execute.
        superstep: u64,
        /// Worker index.
        worker: u32,
        /// Restart incarnation (0 = first execution).
        incarnation: u32,
    },
    /// Output partition `partition` of the `shuffle`-th shuffle of a job.
    ShufflePartition {
        /// Shuffle ordinal within the job's SparkContext.
        shuffle: u32,
        /// Destination partition index.
        partition: u32,
        /// Recompute attempt (0 = first materialization).
        attempt: u32,
    },
    /// Task `task` of the job fingerprinted as `job`, attempt `attempt`.
    TaskIo {
        /// [`fingerprint`] of the job name.
        job: u64,
        /// Task index within the phase.
        task: u32,
        /// Task attempt (0 = first attempt).
        attempt: u32,
    },
    /// The `sequence`-th allocation in scope `scope`, attempt `attempt`.
    Alloc {
        /// [`fingerprint`] of the allocation scope (e.g. an operator name).
        scope: u64,
        /// Allocation ordinal within the scope.
        sequence: u64,
        /// Retry attempt (0 = first try).
        attempt: u32,
    },
}

impl FaultSite {
    /// The fault category this site belongs to.
    pub fn kind(&self) -> FaultKind {
        match self {
            FaultSite::PregelWorker { .. } => FaultKind::WorkerCrash,
            FaultSite::ShufflePartition { .. } => FaultKind::PartitionLoss,
            FaultSite::TaskIo { .. } => FaultKind::TaskIo,
            FaultSite::Alloc { .. } => FaultKind::AllocFailure,
        }
    }

    /// Stable hash of the full site identity.
    pub fn key(&self) -> u64 {
        let h = mix(0x6661756C74, self.kind().index() as u64);
        match *self {
            FaultSite::PregelWorker {
                superstep,
                worker,
                incarnation,
            } => mix(mix(mix(h, superstep), worker as u64), incarnation as u64),
            FaultSite::ShufflePartition {
                shuffle,
                partition,
                attempt,
            } => mix(
                mix(mix(h, shuffle as u64), partition as u64),
                attempt as u64,
            ),
            FaultSite::TaskIo { job, task, attempt } => {
                mix(mix(mix(h, job), task as u64), attempt as u64)
            }
            FaultSite::Alloc {
                scope,
                sequence,
                attempt,
            } => mix(mix(mix(h, scope), sequence), attempt as u64),
        }
    }

    /// Human-readable site description (span field material).
    pub fn describe(&self) -> String {
        match self {
            FaultSite::PregelWorker {
                superstep,
                worker,
                incarnation,
            } => format!("pregel worker {worker} superstep {superstep} incarnation {incarnation}"),
            FaultSite::ShufflePartition {
                shuffle,
                partition,
                attempt,
            } => format!("shuffle {shuffle} partition {partition} attempt {attempt}"),
            FaultSite::TaskIo { job, task, attempt } => {
                format!("job {job:016x} task {task} attempt {attempt}")
            }
            FaultSite::Alloc {
                scope,
                sequence,
                attempt,
            } => format!("alloc scope {scope:016x} seq {sequence} attempt {attempt}"),
        }
    }
}

/// A seed-derived fault schedule: per-kind probabilities plus an explicit
/// list of forced sites (for differential tests that need "worker 0
/// crashes at superstep 2" exactly once).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    rates: [f64; 4],
    forced: Vec<FaultSite>,
}

impl FaultPlan {
    /// The all-off plan: decides `false` everywhere.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// An empty plan carrying `seed`; add rates or forced sites next.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Sets the probability (clamped to `[0, 1]`) for one fault kind.
    pub fn with_rate(mut self, kind: FaultKind, rate: f64) -> Self {
        self.rates[kind.index()] = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the same probability for every fault kind.
    pub fn with_uniform_rate(mut self, rate: f64) -> Self {
        for kind in FaultKind::ALL {
            self = self.with_rate(kind, rate);
        }
        self
    }

    /// Forces a fault at exactly `site` (matched by full identity, so a
    /// retried/restarted attempt with a bumped counter does not re-fire).
    pub fn force(mut self, site: FaultSite) -> Self {
        self.forced.push(site);
        self
    }

    /// Does a fault strike at `site`? Pure: same plan + same site ⇒ same
    /// answer, regardless of when or from which thread it is asked.
    pub fn decides(&self, site: &FaultSite) -> bool {
        if self.forced.contains(site) {
            return true;
        }
        let rate = self.rates[site.kind().index()];
        if rate <= 0.0 {
            return false;
        }
        // Top 53 bits as a unit fraction in [0, 1).
        let roll = (mix(self.seed, site.key()) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        roll < rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(superstep: u64, worker: u32) -> FaultSite {
        FaultSite::PregelWorker {
            superstep,
            worker,
            incarnation: 0,
        }
    }

    #[test]
    fn disabled_plan_never_fires() {
        let plan = FaultPlan::disabled();
        for s in 0..100 {
            assert!(!plan.decides(&site(s, 0)));
        }
    }

    #[test]
    fn decisions_are_pure_and_order_independent() {
        let plan = FaultPlan::seeded(7).with_uniform_rate(0.5);
        let forward: Vec<bool> = (0..64).map(|s| plan.decides(&site(s, 1))).collect();
        let backward: Vec<bool> = (0..64).rev().map(|s| plan.decides(&site(s, 1))).collect();
        let mut backward = backward;
        backward.reverse();
        assert_eq!(forward, backward);
        assert!(forward.iter().any(|&b| b));
        assert!(forward.iter().any(|&b| !b));
    }

    #[test]
    fn rate_one_always_fires_and_tracks_frequency() {
        let always = FaultPlan::seeded(3).with_rate(FaultKind::TaskIo, 1.0);
        let mut hits = 0;
        for t in 0..1000u32 {
            let s = FaultSite::TaskIo {
                job: 9,
                task: t,
                attempt: 0,
            };
            assert!(always.decides(&s));
            let tenth = FaultPlan::seeded(3).with_rate(FaultKind::TaskIo, 0.1);
            if tenth.decides(&s) {
                hits += 1;
            }
        }
        // 10% rate over 1000 independent sites: loose 3-sigma bounds.
        assert!((60..160).contains(&hits), "hits={hits}");
    }

    #[test]
    fn forced_sites_match_exact_identity_only() {
        let plan = FaultPlan::seeded(0).force(site(2, 0));
        assert!(plan.decides(&site(2, 0)));
        assert!(!plan.decides(&site(2, 1)));
        assert!(!plan.decides(&site(3, 0)));
        // The bumped incarnation after a restart is a different site.
        assert!(!plan.decides(&FaultSite::PregelWorker {
            superstep: 2,
            worker: 0,
            incarnation: 1,
        }));
    }

    #[test]
    fn attempt_counter_rerolls_the_dice() {
        let plan = FaultPlan::seeded(11).with_rate(FaultKind::TaskIo, 0.5);
        let outcomes: Vec<bool> = (0..64)
            .map(|a| {
                plan.decides(&FaultSite::TaskIo {
                    job: 1,
                    task: 1,
                    attempt: a,
                })
            })
            .collect();
        assert!(outcomes.iter().any(|&b| b));
        assert!(outcomes.iter().any(|&b| !b));
    }

    #[test]
    fn kinds_are_independent() {
        let plan = FaultPlan::seeded(5).with_rate(FaultKind::WorkerCrash, 1.0);
        assert!(plan.decides(&site(0, 0)));
        assert!(!plan.decides(&FaultSite::Alloc {
            scope: 1,
            sequence: 0,
            attempt: 0,
        }));
    }

    #[test]
    fn fingerprint_is_stable_and_collision_averse() {
        assert_eq!(fingerprint("bfs"), fingerprint("bfs"));
        assert_ne!(fingerprint("bfs"), fingerprint("conn"));
        assert_ne!(fingerprint("ab"), fingerprint("ba"));
        assert_ne!(fingerprint(""), fingerprint("a"));
    }

    #[test]
    fn site_keys_differ_across_fields() {
        let a = site(1, 0);
        let b = site(1, 1);
        let c = site(2, 0);
        assert_ne!(a.key(), b.key());
        assert_ne!(a.key(), c.key());
        assert_ne!(b.key(), c.key());
        assert!(a.describe().contains("superstep 1"));
    }
}
