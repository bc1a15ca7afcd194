//! The Graphalytics workload as iterative MapReduce job chains.
//!
//! Every kernel is a driver loop over [`run_job`] invocations; state between
//! iterations lives in files, and every iteration re-reads the edge files —
//! the structural reason MapReduce graph processing is "two orders of
//! magnitude slower than Giraph and GraphX" (paper §3.3) while never
//! running out of memory.
//!
//! Record formats (key `\t` value):
//! * edge files: key = vertex, value = `E <neighbor>` (one record per arc);
//! * weighted edge files: value = `W <neighbor> <weight>` (fixed-point
//!   weight, one record per arc — the SSSP inputs);
//! * label/state files: value = `L <label>` (CONN), `D <depth>` (BFS),
//!   `T <distance>` (SSSP), `S <label> <score>` (CD), `R <rank>`
//!   (PageRank), `N <n1,n2,...>` (adjacency lists).

use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::str::FromStr;

use graphalytics_algos::{cd, lcc};
use graphalytics_core::platform::{PlatformError, RunContext};
use graphalytics_graph::metrics;

use crate::job::{
    read_output, run_job_traced, write_records, CountingReducer, Emitter, JobConfig, JobCounters,
    Mapper, Record, ReduceContext, Reducer,
};

/// Identity mapper: inputs are already keyed correctly.
struct IdentityMapper;

impl Mapper for IdentityMapper {
    fn map(&self, key: &str, value: &str, out: &mut Emitter) {
        out.emit(key, value);
    }
}

fn internal_err(what: &str) -> PlatformError {
    PlatformError::Internal(format!("malformed record: {what}"))
}

/// Parses per-vertex output values of the form `v -> "X payload"` into a
/// dense vector indexed by vertex id.
fn collect_per_vertex<T>(
    records: &[Record],
    n: usize,
    tag: &str,
    parse: impl Fn(&str) -> Option<T>,
    default: T,
) -> Result<Vec<T>, PlatformError>
where
    T: Clone,
{
    let mut out = vec![default; n];
    for (k, v) in records {
        let Some(rest) = v.strip_prefix(tag) else {
            continue;
        };
        let idx: usize = k.parse().map_err(|_| internal_err(k))?;
        if idx >= n {
            return Err(internal_err(k));
        }
        out[idx] = parse(rest.trim()).ok_or_else(|| internal_err(v))?;
    }
    Ok(out)
}

/// The next whitespace-separated field of a record payload, parsed.
fn field<T: FromStr>(parts: &mut std::str::SplitWhitespace<'_>) -> Option<T> {
    parts.next()?.parse().ok()
}

/// Runs job `name` into `<work_dir>/<name>`, after a deadline check (jobs
/// are the granularity at which a chain can be timed out); returns the
/// job's counters and its output directory.
fn run_named_job<M: Mapper, R: CountingReducer>(
    config: &JobConfig,
    name: &str,
    inputs: &[PathBuf],
    mapper: &M,
    reducer: &R,
    ctx: &RunContext,
) -> Result<(JobCounters, PathBuf), PlatformError> {
    ctx.check_deadline()?;
    let dir = config.work_dir.join(name);
    let counters = run_job_traced(config, name, inputs, mapper, reducer, &dir, ctx)?;
    Ok((counters, dir))
}

// --------------------------------------------------------------- chains --

/// The iterative job chain behind CONN, BFS, SSSP, CD and PageRank. The
/// state lives in `<kernel>-<state>-<round>` files; round `k` joins state
/// `k` with the arc files in job `<kernel>-prop-<k>`, folds the proposals
/// per vertex in job `<kernel>-update-<k>`, and writes that job's output
/// as state `k + 1`.
struct Chain<'a> {
    config: &'a JobConfig,
    arc_files: &'a [PathBuf],
    kernel: &'a str,
    state: &'a str,
    /// Round cap.
    max_rounds: usize,
    /// Whether a round whose update job counted no `changed` vertex ends
    /// the chain (PageRank runs its rounds out regardless).
    stop_when_unchanged: bool,
    ctx: &'a RunContext,
}

impl Chain<'_> {
    /// Runs the chain from the `init` state and returns the last state's
    /// records. The update reducer of a round is built from the counters of
    /// that round's propagate job.
    fn run<P: CountingReducer, U: CountingReducer>(
        &self,
        init: Vec<Record>,
        propagate: &P,
        update: impl Fn(&JobCounters) -> U,
    ) -> Result<Vec<Record>, PlatformError> {
        let Chain {
            config,
            kernel,
            state,
            ctx,
            ..
        } = *self;
        let state_file = |round: usize| config.work_dir.join(format!("{kernel}-{state}-{round}"));
        write_records(&state_file(0), &init)?;
        let mut records = init;
        for round in 0..self.max_rounds {
            let mut inputs = self.arc_files.to_vec();
            inputs.push(state_file(round));
            let job = format!("{kernel}-prop-{round}");
            let (proposed, dir) =
                run_named_job(config, &job, &inputs, &IdentityMapper, propagate, ctx)?;
            let job = format!("{kernel}-update-{round}");
            let (updated, dir) = run_named_job(
                config,
                &job,
                &part_files(&dir)?,
                &IdentityMapper,
                &update(&proposed),
                ctx,
            )?;
            // Concatenate the update output into the next state file.
            records = read_output(&dir)?;
            write_records(&state_file(round + 1), &records)?;
            if self.stop_when_unchanged && updated.user_counter("changed") == 0 {
                break;
            }
        }
        Ok(records)
    }
}

/// One `<tag><value>` state record per vertex.
fn init_records<T: Display>(n: usize, tag: &str, value: impl Fn(u32) -> T) -> Vec<Record> {
    (0..n as u32)
        .map(|v| (v.to_string(), format!("{tag}{}", value(v))))
        .collect()
}

// -------------------------------------------------- CONN, BFS and SSSP --

/// The kernels whose state is one value per vertex that only ever moves
/// toward a minimum: CONN labels (`L`), BFS depths (`D`) and SSSP distances
/// (`T`). They differ in the tag, in what a vertex sends along an arc, and
/// in when a candidate replaces the own value.
struct MinKernel<T> {
    kernel: &'static str,
    state: &'static str,
    /// Record tag of the state value, with its trailing space.
    tag: &'static str,
    /// The candidate a vertex holding the first argument sends along an
    /// arc of the given weight (1 for unweighted `E` arcs), if any.
    send: fn(T, u64) -> Option<T>,
    /// Whether a candidate (first) replaces the own value (second).
    improves: fn(T, T) -> bool,
}

impl<T: Copy + Ord + FromStr + Display> MinKernel<T> {
    /// Chains propagate/update rounds from `init` until no value changes.
    fn run(
        &self,
        config: &JobConfig,
        arc_files: &[PathBuf],
        n: usize,
        init: impl Fn(u32) -> T,
        missing: T,
        ctx: &RunContext,
    ) -> Result<Vec<T>, PlatformError> {
        let chain = Chain {
            config,
            arc_files,
            kernel: self.kernel,
            state: self.state,
            max_rounds: usize::MAX,
            stop_when_unchanged: true,
            ctx,
        };
        let records = chain.run(
            init_records(n, self.tag, init),
            &PropagateValue(self),
            |_| UpdateMin(self),
        )?;
        collect_per_vertex(&records, n, self.tag, |s| s.parse().ok(), missing)
    }
}

/// Propagation reducer: joins the state value with the arcs at each vertex,
/// re-emits the value and sends a `C <candidate>` along every arc
/// (`E <neighbor>`, or `W <neighbor> <weight>`) the kernel sends one on.
struct PropagateValue<'a, T>(&'a MinKernel<T>);

impl<T: Copy + FromStr + Display> Reducer for PropagateValue<'_, T> {
    fn reduce(&self, key: &str, values: &[String], out: &mut Emitter) {
        let mut own: Option<T> = None;
        let mut arcs: Vec<(&str, u64)> = Vec::new();
        for v in values {
            if let Some(x) = v.strip_prefix(self.0.tag) {
                own = x.trim().parse().ok();
            } else if let Some(n) = v.strip_prefix("E ") {
                arcs.push((n, 1));
            } else if let Some(a) = v.strip_prefix("W ") {
                let mut parts = a.split_whitespace();
                if let (Some(n), Some(w)) = (parts.next(), field(&mut parts)) {
                    arcs.push((n, w));
                }
            }
        }
        let Some(own) = own else { return };
        out.emit(key, format!("{}{own}", self.0.tag));
        for (n, w) in arcs {
            if let Some(candidate) = (self.0.send)(own, w) {
                out.emit(n, format!("C {candidate}"));
            }
        }
    }
}

/// Update reducer: takes the own value plus candidates, adopts the minimum
/// candidate when it improves on the own value, and counts changes.
struct UpdateMin<'a, T>(&'a MinKernel<T>);

impl<T: Copy + Ord + FromStr + Display> CountingReducer for UpdateMin<'_, T> {
    fn reduce(&self, key: &str, values: &[String], ctx: &mut ReduceContext<'_>) {
        let mut own: Option<T> = None;
        let mut best: Option<T> = None;
        for v in values {
            if let Some(x) = v.strip_prefix(self.0.tag) {
                own = x.trim().parse().ok();
            } else if let Some(c) = v.strip_prefix("C ") {
                if let Ok(c) = c.trim().parse::<T>() {
                    best = Some(best.map_or(c, |b| b.min(c)));
                }
            }
        }
        let Some(own) = own else { return };
        let new = match best {
            Some(best) if (self.0.improves)(best, own) => {
                *ctx.counters.entry("changed".into()).or_insert(0) += 1;
                best
            }
            _ => own,
        };
        ctx.out.emit(key, format!("{}{new}", self.0.tag));
    }
}

/// Connected components: every vertex sends its label and keeps the
/// minimum it sees, until no label changes. `edge_files` hold `E`-tagged
/// arcs; `n` is the vertex count.
pub fn connected_components(
    config: &JobConfig,
    edge_files: &[PathBuf],
    n: usize,
    ctx: &RunContext,
) -> Result<Vec<u32>, PlatformError> {
    let conn = MinKernel::<u32> {
        kernel: "conn",
        state: "labels",
        tag: "L ",
        send: |label, _| Some(label),
        improves: |candidate, own| candidate < own,
    };
    conn.run(config, edge_files, n, |v| v, 0, ctx)
}

/// BFS from `source` (internal id; `None` = unreachable everywhere):
/// reached vertices send `depth + 1`, unreached ones (`-1`) adopt the
/// minimum candidate.
pub fn bfs(
    config: &JobConfig,
    edge_files: &[PathBuf],
    n: usize,
    source: Option<u32>,
    ctx: &RunContext,
) -> Result<Vec<i64>, PlatformError> {
    let bfs = MinKernel::<i64> {
        kernel: "bfs",
        state: "depths",
        tag: "D ",
        send: |depth, _| (depth >= 0).then(|| depth + 1),
        improves: |_, own| own < 0,
    };
    let init = |v| if Some(v) == source { 0 } else { -1 };
    bfs.run(config, edge_files, n, init, -1, ctx)
}

/// SSSP from `source` (internal id; `None` = unreachable everywhere):
/// Bellman-Ford rounds over the weighted edge files (`W <neighbor>
/// <weight>` records) — vertices with a finite distance send `dist +
/// weight` — until no distance improves.
pub fn sssp(
    config: &JobConfig,
    weighted_edge_files: &[PathBuf],
    n: usize,
    source: Option<u32>,
    ctx: &RunContext,
) -> Result<Vec<u64>, PlatformError> {
    let inf = graphalytics_algos::INFINITY;
    let sssp = MinKernel::<u64> {
        kernel: "sssp",
        state: "dists",
        tag: "T ",
        send: |dist, weight| {
            (dist != graphalytics_algos::INFINITY).then(|| dist.saturating_add(weight))
        },
        improves: |candidate, own| candidate < own,
    };
    let init = |v| if Some(v) == source { 0 } else { inf };
    sssp.run(config, weighted_edge_files, n, init, inf, ctx)
}

// ------------------------------------------------------------------ CD --

/// The `<label> <score>` payload of a CD state record.
fn cd_state(payload: &str) -> Option<(u32, f64)> {
    let mut parts = payload.split_whitespace();
    Some((field(&mut parts)?, field(&mut parts)?))
}

/// CD propagate: each vertex ships `(label, score, influence)` to all
/// neighbors; influence uses the vertex's degree (the count of E records).
struct PropagateCommunities {
    degree_exponent: f64,
}

impl Reducer for PropagateCommunities {
    fn reduce(&self, key: &str, values: &[String], out: &mut Emitter) {
        let mut state: Option<(u32, f64)> = None;
        let mut neighbors = Vec::new();
        for v in values {
            if let Some(s) = v.strip_prefix("S ") {
                state = cd_state(s).or(state);
            } else if let Some(n) = v.strip_prefix("E ") {
                neighbors.push(n);
            }
        }
        let Some((label, score)) = state else { return };
        out.emit(key, format!("S {label} {score}"));
        let influence = cd::influence(score, neighbors.len(), self.degree_exponent);
        for n in &neighbors {
            out.emit(*n, format!("C {label} {score} {influence}"));
        }
    }
}

/// CD update: the canonical adopt-or-keep step from the shared spec.
struct UpdateCommunities {
    hop_attenuation: f64,
}

impl CountingReducer for UpdateCommunities {
    fn reduce(&self, key: &str, values: &[String], ctx: &mut ReduceContext<'_>) {
        let mut own: Option<(u32, f64)> = None;
        let mut weight = cd::LabelWeights::default();
        for v in values {
            if let Some(s) = v.strip_prefix("S ") {
                own = cd_state(s).or(own);
            } else if let Some(c) = v.strip_prefix("C ") {
                let mut parts = c.split_whitespace();
                if let (Some(label), Some(score), Some(influence)) =
                    (field(&mut parts), field(&mut parts), field(&mut parts))
                {
                    cd::add_vote(&mut weight, label, score, influence);
                }
            }
        }
        let Some(own) = own else { return };
        let (label, score, adopted) = cd::adopt_or_keep(own, &mut weight, self.hop_attenuation);
        if adopted {
            *ctx.counters.entry("changed".into()).or_insert(0) += 1;
        }
        ctx.out.emit(key, format!("S {label} {score}"));
    }
}

/// Community detection: `iterations` propagate/update rounds with the
/// reference's early stop.
pub fn community_detection(
    config: &JobConfig,
    edge_files: &[PathBuf],
    n: usize,
    iterations: usize,
    hop_attenuation: f64,
    degree_exponent: f64,
    ctx: &RunContext,
) -> Result<Vec<u32>, PlatformError> {
    let chain = Chain {
        config,
        arc_files: edge_files,
        kernel: "cd",
        state: "state",
        max_rounds: iterations,
        stop_when_unchanged: true,
        ctx,
    };
    let records = chain.run(
        init_records(n, "S ", |v| format!("{v} 1")),
        &PropagateCommunities { degree_exponent },
        |_| UpdateCommunities { hop_attenuation },
    )?;
    collect_per_vertex(
        &records,
        n,
        "S",
        |s| s.split_whitespace().next()?.parse().ok(),
        0u32,
    )
}

// --------------------------------------------------------------- STATS --

/// Builds sorted adjacency lists.
struct AdjacencyReducer;

impl Reducer for AdjacencyReducer {
    fn reduce(&self, key: &str, values: &[String], out: &mut Emitter) {
        let mut neighbors: Vec<u64> = values
            .iter()
            .filter_map(|v| v.strip_prefix("E "))
            .filter_map(|n| n.trim().parse().ok())
            .collect();
        neighbors.sort_unstable();
        neighbors.dedup();
        let list = neighbors
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(",");
        out.emit(key, format!("N {list}"));
    }
}

/// Ships each adjacency list to every neighbor (map side) so the reducer
/// at each vertex can intersect.
struct ShipListsMapper;

impl Mapper for ShipListsMapper {
    fn map(&self, key: &str, value: &str, out: &mut Emitter) {
        let Some(list) = value.strip_prefix("N ") else {
            return;
        };
        out.emit(key, format!("OWN {list}"));
        for n in list.split(',').filter(|s| !s.is_empty()) {
            out.emit(n, format!("NB {list}"));
        }
    }
}

/// Computes the local clustering coefficient per vertex.
struct LccReducer;

impl Reducer for LccReducer {
    fn reduce(&self, key: &str, values: &[String], out: &mut Emitter) {
        let mut own: Vec<u64> = Vec::new();
        let mut received: Vec<Vec<u64>> = Vec::new();
        for v in values {
            if let Some(list) = v.strip_prefix("OWN ") {
                own = parse_list(list);
            } else if let Some(list) = v.strip_prefix("NB ") {
                received.push(parse_list(list));
            }
        }
        let links = received
            .iter()
            .map(|list| metrics::sorted_intersection_len(&own, list))
            .sum();
        let coefficient = lcc::coefficient_from_links(links, own.len());
        out.emit(key, format!("LCC {coefficient}"));
    }
}

fn parse_list(list: &str) -> Vec<u64> {
    list.split(',')
        .filter(|s| !s.is_empty())
        .filter_map(|s| s.trim().parse().ok())
        .collect()
}

/// Runs the adjacency job followed by the list-shipping triangle job and
/// returns the raw per-vertex `LCC <coefficient>` records.
fn lcc_records(
    config: &JobConfig,
    edge_files: &[PathBuf],
    ctx: &RunContext,
) -> Result<Vec<Record>, PlatformError> {
    let (_, adjacency) = run_named_job(
        config,
        "stats-adjacency",
        edge_files,
        &IdentityMapper,
        &AdjacencyReducer,
        ctx,
    )?;
    let (_, coefficients) = run_named_job(
        config,
        "stats-lcc",
        &part_files(&adjacency)?,
        &ShipListsMapper,
        &LccReducer,
        ctx,
    )?;
    read_output(&coefficients)
}

/// STATS: adjacency job, then the list-shipping triangle job; the mean is
/// computed client-side from the per-vertex LCC records, summed as the
/// reduce partitions return them. That is not vertex order, so the mean's
/// last bits differ from `stats::from_coefficients` over the same values —
/// the one STATS mean that keeps its own expression.
pub fn mean_local_cc(
    config: &JobConfig,
    edge_files: &[PathBuf],
    n: usize,
    ctx: &RunContext,
) -> Result<f64, PlatformError> {
    if n == 0 {
        return Ok(0.0);
    }
    let records = lcc_records(config, edge_files, ctx)?;
    let mut sum = 0.0f64;
    for (_k, v) in &records {
        if let Some(x) = v.strip_prefix("LCC ") {
            sum += x.trim().parse::<f64>().unwrap_or(0.0);
        }
    }
    Ok(sum / n as f64)
}

/// LCC: the same job chain as STATS, but the per-vertex coefficients are
/// the output (vertices with no record — degree < 2 — stay at 0).
pub fn local_clustering(
    config: &JobConfig,
    edge_files: &[PathBuf],
    n: usize,
    ctx: &RunContext,
) -> Result<Vec<f64>, PlatformError> {
    if n == 0 {
        return Ok(Vec::new());
    }
    let records = lcc_records(config, edge_files, ctx)?;
    collect_per_vertex(&records, n, "LCC", |s| s.parse().ok(), 0.0f64)
}

// ------------------------------------------------------------ PageRank --

/// PR propagate: each vertex sends `rank / degree` to neighbors; dangling
/// rank goes into a user counter (micro-units) the driver carries to the
/// next round through the job configuration.
struct PropagateRank;

impl CountingReducer for PropagateRank {
    fn reduce(&self, key: &str, values: &[String], ctx: &mut ReduceContext<'_>) {
        let mut rank: Option<f64> = None;
        let mut neighbors = Vec::new();
        for v in values {
            if let Some(r) = v.strip_prefix("R ") {
                rank = r.trim().parse().ok();
            } else if let Some(n) = v.strip_prefix("E ") {
                neighbors.push(n);
            }
        }
        let Some(rank) = rank else { return };
        ctx.out.emit(key, format!("R {rank}"));
        if neighbors.is_empty() {
            // Fixed-point micro-units so the counter is an integer.
            let micros = (rank * 1e12).round() as i64;
            *ctx.counters.entry("dangling_micros".into()).or_insert(0) += micros;
        } else {
            let share = rank / neighbors.len() as f64;
            for n in neighbors {
                ctx.out.emit(n, format!("C {share}"));
            }
        }
    }
}

/// PR update with the round's dangling mass injected by the driver.
struct UpdateRank {
    damping: f64,
    n: f64,
    dangling: f64,
}

impl Reducer for UpdateRank {
    fn reduce(&self, key: &str, values: &[String], out: &mut Emitter) {
        let mut seen = false;
        let mut contributions: Vec<f64> = Vec::new();
        for v in values {
            if v.starts_with("R ") {
                seen = true;
            } else if let Some(c) = v.strip_prefix("C ") {
                if let Ok(x) = c.trim().parse::<f64>() {
                    contributions.push(x);
                }
            }
        }
        if !seen {
            return;
        }
        contributions.sort_by(|a, b| a.total_cmp(b));
        let received: f64 = contributions.iter().sum();
        let base = (1.0 - self.damping) / self.n + self.damping * self.dangling / self.n;
        let rank = base + self.damping * received;
        out.emit(key, format!("R {rank}"));
    }
}

/// PageRank: fixed iteration count.
pub fn pagerank(
    config: &JobConfig,
    edge_files: &[PathBuf],
    n: usize,
    iterations: usize,
    damping: f64,
    ctx: &RunContext,
) -> Result<Vec<f64>, PlatformError> {
    if n == 0 {
        return Ok(Vec::new());
    }
    let chain = Chain {
        config,
        arc_files: edge_files,
        kernel: "pr",
        state: "ranks",
        max_rounds: iterations,
        stop_when_unchanged: false,
        ctx,
    };
    let records = chain.run(
        init_records(n, "R ", |_| 1.0 / n as f64),
        &PropagateRank,
        |proposed| UpdateRank {
            damping,
            n: n as f64,
            dangling: proposed.user_counter("dangling_micros") as f64 / 1e12,
        },
    )?;
    collect_per_vertex(&records, n, "R", |s| s.parse().ok(), 1.0 / n as f64)
}

// ----------------------------------------------------------------- EVO --

/// EVO: one adjacency job, then the spec'd forest-fire walk runs in the
/// driver over the job output (the Hadoop pattern for small sequential
/// post-processing).
#[allow(clippy::too_many_arguments)]
pub fn forest_fire(
    config: &JobConfig,
    edge_files: &[PathBuf],
    external_ids: &[u64],
    new_vertices: usize,
    p_forward: f64,
    max_burst: usize,
    seed: u64,
    ctx: &RunContext,
) -> Result<Vec<(u64, u64)>, PlatformError> {
    let n = external_ids.len();
    if n == 0 || new_vertices == 0 {
        return Ok(Vec::new());
    }
    let (_, adj_dir) = run_named_job(
        config,
        "evo-adjacency",
        edge_files,
        &IdentityMapper,
        &AdjacencyReducer,
        ctx,
    )?;
    let mut adjacency: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (k, v) in read_output(&adj_dir)? {
        let Some(list) = v.strip_prefix("N ") else {
            continue;
        };
        let idx: usize = k.parse().map_err(|_| internal_err(&k))?;
        if idx >= n {
            return Err(internal_err(&k));
        }
        adjacency[idx] = parse_list(list).into_iter().map(|x| x as u32).collect();
    }
    ctx.check_deadline()?;
    Ok(graphalytics_algos::evo::forest_fire_over_adjacency(
        &adjacency,
        external_ids,
        new_vertices,
        p_forward,
        max_burst,
        seed,
    ))
}

/// Lists the part files of a completed job's output directory.
pub fn part_files(dir: &Path) -> Result<Vec<PathBuf>, PlatformError> {
    let mut parts: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| PlatformError::TransientIo(format!("i/o: {e}")))?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .is_some_and(|name| name.to_string_lossy().starts_with("part-"))
        })
        .collect();
    parts.sort();
    Ok(parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphalytics_core::ScratchDir;

    /// Re-emits every record: the state passes through the propagate job.
    struct Echo;
    impl Reducer for Echo {
        fn reduce(&self, key: &str, values: &[String], out: &mut Emitter) {
            values.iter().for_each(|v| out.emit(key, v.as_str()));
        }
    }

    /// Counts `X <k>` down to zero, reporting each step as a change.
    struct CountDown;
    impl CountingReducer for CountDown {
        fn reduce(&self, key: &str, values: &[String], ctx: &mut ReduceContext<'_>) {
            let x: u32 = values[0].strip_prefix("X ").unwrap().parse().unwrap();
            if x > 0 {
                *ctx.counters.entry("changed".into()).or_insert(0) += 1;
            }
            ctx.out.emit(key, format!("X {}", x.saturating_sub(1)));
        }
    }

    /// Runs the countdown from 3 and returns the final value and the state
    /// files the chain left behind.
    fn count_down(max_rounds: usize, stop_when_unchanged: bool) -> (String, Vec<String>) {
        let scratch = ScratchDir::new(None, "gx-mr-chain").unwrap();
        let config = JobConfig::new(scratch.path());
        let chain = Chain {
            config: &config,
            arc_files: &[],
            kernel: "tick",
            state: "x",
            max_rounds,
            stop_when_unchanged,
            ctx: &RunContext::unbounded(),
        };
        let records = chain
            .run(init_records(1, "X ", |_| 3), &Echo, |_| CountDown)
            .unwrap();
        let mut states: Vec<String> = std::fs::read_dir(scratch.path())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.starts_with("tick-x-"))
            .collect();
        states.sort();
        (records[0].1.clone(), states)
    }

    #[test]
    fn chain_stops_on_a_round_without_changes_and_keeps_every_state_file() {
        // 3 → 2 → 1 → 0 change; the fourth round changes nothing and ends
        // the chain, its output still written as state 4.
        let (last, states) = count_down(usize::MAX, true);
        assert_eq!(last, "X 0");
        let expected = ["tick-x-0", "tick-x-1", "tick-x-2", "tick-x-3", "tick-x-4"];
        assert_eq!(states, expected);
    }

    #[test]
    fn chain_stops_at_the_round_cap() {
        let (last, states) = count_down(2, true);
        assert_eq!(last, "X 1");
        assert_eq!(states, ["tick-x-0", "tick-x-1", "tick-x-2"]);
        // No rounds at all: the initial state is the result.
        let (last, states) = count_down(0, true);
        assert_eq!(last, "X 3");
        assert_eq!(states, ["tick-x-0"]);
    }

    #[test]
    fn chain_runs_its_rounds_out_when_changes_do_not_stop_it() {
        // PageRank's mode: rounds 5 and 6 change nothing and still run.
        let (last, states) = count_down(6, false);
        assert_eq!(last, "X 0");
        assert_eq!(states.len(), 7);
    }
}
