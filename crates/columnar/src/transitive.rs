//! The transitive traversal operator (paper §3.4).
//!
//! "The state of the computation is kept in a partitioned hash table, with
//! one thread reading/writing each partition, with an exchange operator
//! between the lookup of outbound edges and the recording of the new
//! border, as the source and target of any edge most often fall in a
//! different partition."
//!
//! The operator runs breadth-first rounds; each round every partition
//! thread (a) looks up the outbound edges of its border vertices in the
//! compressed edge table, (b) routes the targets through the exchange to
//! their owning partition, and (c) each partition records unseen targets
//! in its hash table, forming the next border. The three phases are timed
//! separately so the run reproduces §3.4's CPU profile (hash table vs
//! exchange vs column access shares).

use std::time::Instant;

use graphalytics_core::faults::{fingerprint, FaultSite, RecoveryAction};
use graphalytics_core::platform::{PlatformError, RunContext};
use graphalytics_graph::partition::mix64;
use rustc_hash::FxHashSet;

use crate::table::{EdgeTable, LookupScratch};

/// Execution profile of one transitive run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TransitiveProfile {
    /// Vertices reachable from the source (including the source).
    pub reachable: usize,
    /// Random lookups (outbound-edge fetches).
    pub random_lookups: usize,
    /// Edge end points visited (targets produced before dedup).
    pub endpoints_visited: usize,
    /// Breadth-first rounds executed.
    pub rounds: usize,
    /// CPU seconds in the border hash table (summed over threads).
    pub hash_seconds: f64,
    /// CPU seconds in the exchange operator.
    pub exchange_seconds: f64,
    /// CPU seconds in column access and decompression.
    pub column_seconds: f64,
    /// Wall-clock seconds for the whole operator.
    pub wall_seconds: f64,
}

impl TransitiveProfile {
    /// Million traversed edges per second (the §3.4 headline metric).
    pub fn mteps(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            0.0
        } else {
            self.endpoints_visited as f64 / self.wall_seconds / 1e6
        }
    }

    /// `(hash, exchange, column)` shares of profiled CPU cycles, in
    /// percent (cf. the paper's 33% / 10% / 57%).
    pub fn cycle_shares(&self) -> (f64, f64, f64) {
        let total = self.hash_seconds + self.exchange_seconds + self.column_seconds;
        if total <= 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (
            100.0 * self.hash_seconds / total,
            100.0 * self.exchange_seconds / total,
            100.0 * self.column_seconds / total,
        )
    }
}

/// Per-vertex depth produced by the traversal (vertex, depth) — the BFS
/// output when the operator backs the platform adapter.
pub type DepthRecord = (u64, i64);

/// Runs the transitive closure from `source` over `table` with `threads`
/// partitions. Returns the profile and the depth records of all reached
/// vertices.
pub fn transitive_closure(
    table: &EdgeTable,
    source: u64,
    threads: usize,
    ctx: &RunContext,
) -> Result<(TransitiveProfile, Vec<DepthRecord>), PlatformError> {
    let p = threads.max(1);
    let mut op_span = ctx.tracer().span("virtuoso.transitive");
    op_span.field("source", source as i64).field("threads", p);
    let wall_start = Instant::now();
    let owner = |v: u64| (mix64(v) % p as u64) as usize;

    // Partitioned state: visited hash tables and depth records.
    let mut visited: Vec<FxHashSet<u64>> = vec![FxHashSet::default(); p];
    let mut depths: Vec<Vec<DepthRecord>> = vec![Vec::new(); p];
    let mut border: Vec<Vec<u64>> = vec![Vec::new(); p];
    let src_part = owner(source);
    visited[src_part].insert(source);
    depths[src_part].push((source, 0));
    border[src_part].push(source);

    let mut profile = TransitiveProfile::default();
    let lookups_before = table.lookup_count();
    let mut depth: i64 = 0;

    // Allocation-failure injection point: each round's exchange buffers
    // are one logical allocation; a transient failure is retried a few
    // times (the operator re-requests the arena) before escalating.
    const MAX_ALLOC_ATTEMPTS: u32 = 3;
    let alloc_scope = fingerprint("virtuoso.transitive");

    while border.iter().any(|b| !b.is_empty()) {
        ctx.check_deadline()?;
        depth += 1;
        profile.rounds += 1;
        ctx.retry_injected(
            MAX_ALLOC_ATTEMPTS,
            RecoveryAction::AllocRetry,
            |attempt| FaultSite::Alloc {
                scope: alloc_scope,
                sequence: profile.rounds as u64,
                attempt,
            },
            || {},
        )?;
        let mut round_span = ctx.tracer().span("virtuoso.round");
        round_span
            .field("round", profile.rounds)
            .field("border", border.iter().map(Vec::len).sum::<usize>());
        // Phase a+b (parallel): column lookups, producing per-destination
        // buffers (the exchange's send side).
        struct PartOut {
            outgoing: Vec<Vec<u64>>,
            column_seconds: f64,
            exchange_seconds: f64,
            endpoints: usize,
        }
        let outputs = graphalytics_parallel::try_map_each(&border, |_, my_border| {
            let mut scratch = LookupScratch::default();
            let mut targets = Vec::new();
            // Vectored execution: a sorted border turns the random
            // lookups into near-sequential block accesses, letting
            // the scratch's block cache amortize decompression.
            let mut my_border = my_border.clone();
            my_border.sort_unstable();
            let mut out = PartOut {
                outgoing: vec![Vec::new(); p],
                column_seconds: 0.0,
                exchange_seconds: 0.0,
                endpoints: 0,
            };
            // Chunked timing keeps the Instant overhead out of the
            // per-phase cycle accounting.
            for chunk in my_border.chunks(256) {
                let t0 = Instant::now();
                targets.clear();
                for &v in chunk {
                    table.outbound(v, &mut targets, &mut scratch);
                }
                out.column_seconds += t0.elapsed().as_secs_f64();
                out.endpoints += targets.len();
                let t1 = Instant::now();
                for &c in &targets {
                    // SAFETY[ee55ed1e]: `out.outgoing` was built as
                    // `vec![Vec::new(); p]`, and `mix64(c) % p` is
                    // always < p, so the index is in bounds. This is
                    // the hottest exchange-routing line; skipping the
                    // bounds check is worth the audit burden.
                    unsafe {
                        out.outgoing
                            .get_unchecked_mut((mix64(c) % p as u64) as usize)
                    }
                    .push(c);
                }
                out.exchange_seconds += t1.elapsed().as_secs_f64();
            }
            out
        })
        .map_err(|payload| PlatformError::worker_panicked("transitive lookup", payload))?;

        // Exchange receive side: regroup buffers per destination.
        let t_ex = Instant::now();
        let mut incoming: Vec<Vec<u64>> = vec![Vec::new(); p];
        for mut out in outputs {
            profile.column_seconds += out.column_seconds;
            profile.exchange_seconds += out.exchange_seconds;
            profile.endpoints_visited += out.endpoints;
            for (dest, buf) in out.outgoing.iter_mut().enumerate() {
                incoming[dest].append(buf);
            }
        }
        profile.exchange_seconds += t_ex.elapsed().as_secs_f64();

        // Phase c (parallel): record the new border in the partition hash
        // tables.
        let hash_seconds = graphalytics_parallel::try_map_each(
            visited
                .iter_mut()
                .zip(depths.iter_mut())
                .zip(border.iter_mut().zip(incoming)),
            |_, ((my_visited, my_depths), (my_border, candidates))| {
                let t0 = Instant::now();
                my_border.clear();
                for c in candidates {
                    if my_visited.insert(c) {
                        my_depths.push((c, depth));
                        my_border.push(c);
                    }
                }
                t0.elapsed().as_secs_f64()
            },
        )
        .map_err(|payload| PlatformError::worker_panicked("transitive hash", payload))?;
        profile.hash_seconds += hash_seconds.iter().sum::<f64>();
    }

    profile.random_lookups = table.lookup_count() - lookups_before;
    profile.reachable = visited.iter().map(FxHashSet::len).sum();
    profile.wall_seconds = wall_start.elapsed().as_secs_f64();
    op_span
        .field("reachable", profile.reachable)
        .field("random_lookups", profile.random_lookups)
        .field("endpoints_visited", profile.endpoints_visited)
        .field("rounds", profile.rounds)
        // The column scan streams endpoints in order; each hash probe is
        // a random lookup — the same split the profile already counts.
        .field("seq_accesses", profile.endpoints_visited)
        .field("rand_accesses", profile.random_lookups);
    let mut all_depths: Vec<DepthRecord> = depths.into_iter().flatten().collect();
    all_depths.sort_unstable();
    Ok((profile, all_depths))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_table(n: u64) -> EdgeTable {
        // Bidirectional chain 0-1-...-n.
        let mut arcs = Vec::new();
        for i in 0..n {
            arcs.push((i, i + 1));
            arcs.push((i + 1, i));
        }
        EdgeTable::from_arcs(arcs)
    }

    #[test]
    fn reaches_whole_chain_with_correct_depths() {
        let t = chain_table(50);
        let (profile, depths) = transitive_closure(&t, 0, 4, &RunContext::unbounded()).unwrap();
        assert_eq!(profile.reachable, 51);
        assert_eq!(profile.rounds, 51); // 50 productive + 1 empty-output round.
        let d: std::collections::HashMap<u64, i64> = depths.into_iter().collect();
        assert_eq!(d[&0], 0);
        assert_eq!(d[&25], 25);
        assert_eq!(d[&50], 50);
    }

    #[test]
    fn counts_lookups_and_endpoints() {
        let t = chain_table(10);
        let (profile, _) = transitive_closure(&t, 0, 2, &RunContext::unbounded()).unwrap();
        // Every reached vertex is looked up exactly once.
        assert_eq!(profile.random_lookups, 11);
        // Endpoints: each lookup yields its outbound edges (2 for interior).
        assert_eq!(profile.endpoints_visited, 2 * 10);
        assert!(profile.mteps() > 0.0);
    }

    #[test]
    fn unreachable_parts_stay_unreached() {
        let mut arcs = vec![(0, 1), (1, 0), (5, 6), (6, 5)];
        arcs.sort_unstable();
        let t = EdgeTable::from_arcs(arcs);
        let (profile, depths) = transitive_closure(&t, 0, 3, &RunContext::unbounded()).unwrap();
        assert_eq!(profile.reachable, 2);
        assert_eq!(depths.len(), 2);
    }

    #[test]
    fn thread_count_does_not_change_result() {
        let t = chain_table(30);
        let (p1, d1) = transitive_closure(&t, 3, 1, &RunContext::unbounded()).unwrap();
        let (p8, d8) = transitive_closure(&t, 3, 8, &RunContext::unbounded()).unwrap();
        assert_eq!(p1.reachable, p8.reachable);
        assert_eq!(d1, d8);
        assert_eq!(p1.endpoints_visited, p8.endpoints_visited);
    }

    #[test]
    fn cycle_shares_sum_to_hundred() {
        let t = chain_table(200);
        let (profile, _) = transitive_closure(&t, 0, 4, &RunContext::unbounded()).unwrap();
        let (h, e, c) = profile.cycle_shares();
        assert!((h + e + c - 100.0).abs() < 1e-6, "{h} {e} {c}");
        assert!(h >= 0.0 && e >= 0.0 && c >= 0.0);
    }

    #[test]
    fn operator_span_matches_profile() {
        use graphalytics_core::trace::Tracer;
        use std::sync::Arc;

        let t = chain_table(20);
        let tracer = Arc::new(Tracer::new());
        let ctx = RunContext::unbounded().with_tracer(Arc::clone(&tracer));
        let (profile, _) = transitive_closure(&t, 0, 2, &ctx).unwrap();

        let spans = tracer.finished_spans();
        let op = spans
            .iter()
            .find(|s| s.name == "virtuoso.transitive")
            .unwrap();
        assert_eq!(
            op.field("reachable").and_then(|f| f.as_i64()),
            Some(profile.reachable as i64)
        );
        assert_eq!(
            op.field("rounds").and_then(|f| f.as_i64()),
            Some(profile.rounds as i64)
        );
        let rounds: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "virtuoso.round")
            .collect();
        assert_eq!(rounds.len(), profile.rounds);
        assert!(rounds.iter().all(|s| s.parent == Some(op.id)));
    }

    #[test]
    fn injected_alloc_failure_retries_then_escalates() {
        use graphalytics_core::faults::{FaultInjector, FaultPlan};
        use std::sync::Arc;

        let t = chain_table(10);
        let baseline = transitive_closure(&t, 0, 2, &RunContext::unbounded()).unwrap();
        let scope = fingerprint("virtuoso.transitive");

        // One transient alloc failure in round 2: retried, result unchanged.
        let plan = FaultPlan::disabled().force(FaultSite::Alloc {
            scope,
            sequence: 2,
            attempt: 0,
        });
        let injector = Arc::new(FaultInjector::new(plan));
        let ctx = RunContext::unbounded().with_faults(Arc::clone(&injector));
        let (profile, depths) = transitive_closure(&t, 0, 2, &ctx).unwrap();
        assert_eq!(depths, baseline.1);
        assert_eq!(profile.reachable, baseline.0.reachable);
        assert_eq!(injector.injected_count(), 1);
        assert_eq!(injector.recovery_count(), 1);

        // Exhausting the attempt budget escalates as AllocFailed.
        let mut plan = FaultPlan::disabled();
        for attempt in 0..3 {
            plan = plan.force(FaultSite::Alloc {
                scope,
                sequence: 1,
                attempt,
            });
        }
        let injector = Arc::new(FaultInjector::new(plan));
        let ctx = RunContext::unbounded().with_faults(Arc::clone(&injector));
        match transitive_closure(&t, 0, 2, &ctx) {
            Err(PlatformError::AllocFailed { .. }) => {}
            other => panic!("expected AllocFailed, got {other:?}"),
        }
        assert_eq!(injector.injected_count(), 3);
    }

    #[test]
    fn source_not_in_table_is_alone() {
        let t = chain_table(5);
        let (profile, depths) = transitive_closure(&t, 99, 2, &RunContext::unbounded()).unwrap();
        assert_eq!(profile.reachable, 1);
        assert_eq!(depths, vec![(99, 0)]);
    }
}
