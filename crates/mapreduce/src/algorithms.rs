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
//!   (PageRank), `N <n1,n2,...>` (adjacency lists);
//! * LCC's job outputs: `D <neighbor> <degree>`, `OWN <degree> <N⁺>`,
//!   `NB <sender> <N⁺>`, `G <degree> <credits>`, `C <credits>` and
//!   `LCC <coefficient>` (see [`lcc_parts`]).

use std::fmt::{self, Display};
use std::path::PathBuf;
use std::str::FromStr;

use graphalytics_algos::cd;
use graphalytics_core::platform::{PlatformError, RunContext};
use graphalytics_graph::metrics;

use crate::job::{
    for_each_record, part_files, run_job_traced, CountingReducer, Emitter, JobConfig, JobCounters,
    Mapper, RecordWriter, ReduceContext, Reducer,
};

/// Identity mapper: inputs are already keyed correctly.
struct IdentityMapper;

impl Mapper for IdentityMapper {
    fn map(&self, key: &str, value: &str, out: &mut Emitter) {
        out.emit_str(key, value);
    }
}

fn internal_err(what: &str) -> PlatformError {
    PlatformError::Internal(format!("malformed record: {what}"))
}

/// Parses the per-vertex records `v -> "X payload"` of `files` into a
/// dense vector indexed by vertex id.
fn collect_per_vertex<T>(
    files: &[PathBuf],
    n: usize,
    tag: &str,
    parse: impl Fn(&str) -> Option<T>,
    default: T,
) -> Result<Vec<T>, PlatformError>
where
    T: Clone,
{
    let mut out = vec![default; n];
    for_each_record(files, |k, v| {
        let Some(rest) = v.strip_prefix(tag) else {
            return Ok(());
        };
        let idx: usize = k.parse().map_err(|_| internal_err(k))?;
        if idx >= n {
            return Err(internal_err(k));
        }
        out[idx] = parse(rest.trim()).ok_or_else(|| internal_err(v))?;
        Ok(())
    })?;
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
/// initial state is the file `<kernel>-<state>-0`; round `k` joins state
/// `k` with the arc files in job `<kernel>-prop-<k>` and folds the
/// proposals per vertex in job `<kernel>-update-<k>`, whose part files are
/// state `k + 1`, read by the next round where they lie.
struct Chain<'a> {
    config: &'a JobConfig,
    arc_files: &'a [PathBuf],
    kernel: &'a str,
    state: &'a str,
    /// Record tag of a state value, with its trailing space.
    tag: &'a str,
    /// Round cap.
    max_rounds: usize,
    /// Whether a round whose update job counted no `changed` vertex ends
    /// the chain (PageRank runs its rounds out regardless).
    stop_when_unchanged: bool,
    ctx: &'a RunContext,
}

impl Chain<'_> {
    /// Runs the chain from the state `<tag><init(v)>` of each of the `n`
    /// vertices and returns the files of the last state. The update reducer
    /// of a round is built from the counters of that round's propagate job.
    fn run<T: Display, P: CountingReducer, U: CountingReducer>(
        &self,
        n: usize,
        init: impl Fn(u32) -> T,
        propagate: &P,
        update: impl Fn(&JobCounters) -> U,
    ) -> Result<Vec<PathBuf>, PlatformError> {
        let Chain {
            config,
            kernel,
            state,
            tag,
            ctx,
            ..
        } = *self;
        let init_file = config.work_dir.join(format!("{kernel}-{state}-0"));
        let mut writer = RecordWriter::create(&init_file)?;
        for v in 0..n as u32 {
            writer.write(v, format_args!("{tag}{}", init(v)))?;
        }
        writer.finish()?;
        let mut state_files = vec![init_file];
        for round in 0..self.max_rounds {
            let inputs = [self.arc_files, &state_files].concat();
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
            state_files = part_files(&dir)?;
            if self.stop_when_unchanged && updated.user_counter("changed") == 0 {
                break;
            }
        }
        Ok(state_files)
    }
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
            tag: self.tag,
            max_rounds: usize::MAX,
            stop_when_unchanged: true,
            ctx,
        };
        let state = chain.run(n, init, &PropagateValue(self), |_| UpdateMin(self))?;
        collect_per_vertex(&state, n, self.tag, |s| s.parse().ok(), missing)
    }
}

/// Propagation reducer: joins the state value with the arcs at each vertex,
/// re-emits the value and sends a `C <candidate>` along every arc
/// (`E <neighbor>`, or `W <neighbor> <weight>`) the kernel sends one on.
struct PropagateValue<'a, T>(&'a MinKernel<T>);

impl<T: Copy + FromStr + Display> Reducer for PropagateValue<'_, T> {
    fn reduce(&self, key: &str, values: &[&str], out: &mut Emitter) {
        let own = values
            .iter()
            .rev()
            .find_map(|v| v.strip_prefix(self.0.tag))
            .and_then(|x| x.trim().parse().ok());
        let Some(own) = own else { return };
        out.emit(key, format_args!("{}{own}", self.0.tag));
        for v in values {
            let arc = if let Some(n) = v.strip_prefix("E ") {
                Some((n, 1))
            } else if let Some(a) = v.strip_prefix("W ") {
                let mut parts = a.split_whitespace();
                parts.next().zip(field(&mut parts))
            } else {
                None
            };
            let Some((n, w)) = arc else { continue };
            if let Some(candidate) = (self.0.send)(own, w) {
                out.emit(n, format_args!("C {candidate}"));
            }
        }
    }
}

/// Update reducer: takes the own value plus candidates, adopts the minimum
/// candidate when it improves on the own value, and counts changes.
struct UpdateMin<'a, T>(&'a MinKernel<T>);

impl<T: Copy + Ord + FromStr + Display> CountingReducer for UpdateMin<'_, T> {
    fn reduce(&self, key: &str, values: &[&str], ctx: &mut ReduceContext<'_>) {
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
        ctx.out.emit(key, format_args!("{}{new}", self.0.tag));
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
    fn reduce(&self, key: &str, values: &[&str], out: &mut Emitter) {
        let mut state: Option<(u32, f64)> = None;
        let mut degree = 0;
        for v in values {
            if let Some(s) = v.strip_prefix("S ") {
                state = cd_state(s).or(state);
            } else if v.starts_with("E ") {
                degree += 1;
            }
        }
        let Some((label, score)) = state else { return };
        out.emit(key, format_args!("S {label} {score}"));
        let influence = cd::influence(score, degree, self.degree_exponent);
        out.emit_each(
            values.iter().filter_map(|v| v.strip_prefix("E ")),
            format_args!("C {label} {score} {influence}"),
        );
    }
}

/// CD update: the canonical adopt-or-keep step from the shared spec.
struct UpdateCommunities {
    hop_attenuation: f64,
}

impl CountingReducer for UpdateCommunities {
    fn reduce(&self, key: &str, values: &[&str], ctx: &mut ReduceContext<'_>) {
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
        ctx.out.emit(key, format_args!("S {label} {score}"));
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
        tag: "S ",
        max_rounds: iterations,
        stop_when_unchanged: true,
        ctx,
    };
    let state = chain.run(
        n,
        |v| format!("{v} 1"),
        &PropagateCommunities { degree_exponent },
        |_| UpdateCommunities { hop_attenuation },
    )?;
    collect_per_vertex(
        &state,
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
    fn reduce(&self, key: &str, values: &[&str], out: &mut Emitter) {
        let mut neighbors: Vec<u64> = values
            .iter()
            .filter_map(|v| v.strip_prefix("E "))
            .filter_map(|n| n.trim().parse().ok())
            .collect();
        neighbors.sort_unstable();
        neighbors.dedup();
        out.emit(key, format_args!("N {}", CommaList(&neighbors)));
    }
}

/// A list written as `a,b,c`.
struct CommaList<'a>(&'a [u64]);

impl Display for CommaList<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, x) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{x}")?;
        }
        Ok(())
    }
}

/// The ids of a `CommaList`; a malformed id is skipped.
fn parse_list(list: &str) -> Vec<u64> {
    list.split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect()
}

/// A reducer that is one function.
struct ReduceFn(fn(&str, &[&str], &mut Emitter));

impl Reducer for ReduceFn {
    fn reduce(&self, key: &str, values: &[&str], out: &mut Emitter) {
        (self.0)(key, values, out)
    }
}

/// LCC job 1: `D <self> <degree>` to every neighbour.
fn send_degrees(key: &str, values: &[&str], out: &mut Emitter) {
    let neighbours = || values.iter().filter_map(|v| v.strip_prefix("E "));
    out.emit_each(
        neighbours(),
        format_args!("D {key} {}", neighbours().count()),
    );
}

/// LCC job 2: the `D` records are the neighbours and their degrees, so the
/// vertex knows its degree and its oriented list `N⁺`
/// (`metrics::outranks`). It keeps `OWN <degree> <N⁺>` and sends
/// `NB <self> <N⁺>`, formatted once, to every member of a list of two or
/// more.
fn ship_oriented_lists(key: &str, values: &[&str], out: &mut Emitter) {
    let Ok(me) = key.parse::<u64>() else { return };
    let degree = values.len();
    let mut mine: Vec<(u64, &str)> = values
        .iter()
        .filter_map(|v| {
            let (id, deg) = v.strip_prefix("D ")?.split_once(' ')?;
            let u = id.parse().ok()?;
            metrics::outranks(deg.parse().ok()?, u, degree, me).then_some((u, id))
        })
        .collect();
    mine.sort_unstable();
    let ids: Vec<u64> = mine.iter().map(|&(u, _)| u).collect();
    out.emit(key, format_args!("OWN {degree} {}", CommaList(&ids)));
    if ids.len() >= 2 {
        let members = mine.iter().map(|&(_, id)| id);
        out.emit_each(members, format_args!("NB {key} {}", CommaList(&ids)));
    }
}

/// LCC job 3: merges every received `N⁺(u)` with the own `N⁺(v)`; each
/// common `w` is a triangle `(u, v, w)`. The vertex keeps
/// `G <degree> <its credits>` and sends one summed `C <count>` to each `u`
/// and `w` it credits.
fn credit_triangles(key: &str, values: &[&str], out: &mut Emitter) {
    let own = values
        .iter()
        .find_map(|v| v.strip_prefix("OWN ")?.split_once(' '));
    let Some((degree, own)) = own else { return };
    let own = parse_list(own);
    let (mut mine, mut per_w) = (0usize, vec![0usize; own.len()]);
    for (from, list) in values
        .iter()
        .filter_map(|v| v.strip_prefix("NB ")?.split_once(' '))
    {
        let hits = metrics::credit_members(&parse_list(list), &own, &mut per_w);
        if hits > 0 {
            out.emit(from, format_args!("C {hits}"));
        }
        mine += hits;
    }
    for (w, &count) in own.iter().zip(&per_w).filter(|&(_, &c)| c > 0) {
        out.emit(&w.to_string(), format_args!("C {count}"));
    }
    out.emit(key, format_args!("G {degree} {mine}"));
}

/// LCC job 4: adds the credits and writes `LCC <coefficient>`.
fn sum_credits(key: &str, values: &[&str], out: &mut Emitter) {
    let (mut degree, mut triangles) = (None, 0usize);
    for v in values {
        let mut parts = v.split_whitespace();
        match parts.next() {
            Some("C") => triangles += field::<usize>(&mut parts).unwrap_or(0),
            Some("G") => {
                degree = field(&mut parts);
                triangles += field::<usize>(&mut parts).unwrap_or(0);
            }
            _ => {}
        }
    }
    if let Some(degree) = degree {
        let coefficient = metrics::closed_pair_fraction(triangles, degree);
        out.emit(key, format_args!("LCC {coefficient}"));
    }
}

/// Chains the four LCC jobs over the edge files; returns the part files of
/// the `LCC <coefficient>` records, one for every vertex of degree ≥ 1.
fn lcc_parts(
    config: &JobConfig,
    edge_files: &[PathBuf],
    ctx: &RunContext,
) -> Result<Vec<PathBuf>, PlatformError> {
    let jobs = [
        ("stats-degrees", ReduceFn(send_degrees)),
        ("stats-orient", ReduceFn(ship_oriented_lists)),
        ("stats-triangles", ReduceFn(credit_triangles)),
        ("stats-lcc", ReduceFn(sum_credits)),
    ];
    let mut inputs = edge_files.to_vec();
    for (name, reducer) in &jobs {
        let (_, dir) = run_named_job(config, name, &inputs, &IdentityMapper, reducer, ctx)?;
        inputs = part_files(&dir)?;
    }
    Ok(inputs)
}

/// STATS: the four LCC jobs of [`lcc_parts`]; the mean is
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
    let mut sum = 0.0f64;
    for_each_record(&lcc_parts(config, edge_files, ctx)?, |_, v| {
        if let Some(x) = v.strip_prefix("LCC ") {
            sum += x.trim().parse::<f64>().unwrap_or(0.0);
        }
        Ok(())
    })?;
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
    let parts = lcc_parts(config, edge_files, ctx)?;
    collect_per_vertex(&parts, n, "LCC", |s| s.parse().ok(), 0.0f64)
}

// ------------------------------------------------------------ PageRank --

/// PR propagate: each vertex sends `rank / degree` to neighbors; dangling
/// rank goes into a user counter (micro-units) the driver carries to the
/// next round through the job configuration.
struct PropagateRank;

impl CountingReducer for PropagateRank {
    fn reduce(&self, key: &str, values: &[&str], ctx: &mut ReduceContext<'_>) {
        let mut rank: Option<f64> = None;
        let mut degree = 0;
        for v in values {
            if let Some(r) = v.strip_prefix("R ") {
                rank = r.trim().parse().ok();
            } else if v.starts_with("E ") {
                degree += 1;
            }
        }
        let Some(rank) = rank else { return };
        ctx.out.emit(key, format_args!("R {rank}"));
        if degree == 0 {
            // Fixed-point micro-units so the counter is an integer.
            let micros = (rank * 1e12).round() as i64;
            *ctx.counters.entry("dangling_micros".into()).or_insert(0) += micros;
        } else {
            let share = rank / degree as f64;
            ctx.out.emit_each(
                values.iter().filter_map(|v| v.strip_prefix("E ")),
                format_args!("C {share}"),
            );
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
    fn reduce(&self, key: &str, values: &[&str], out: &mut Emitter) {
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
        out.emit(key, format_args!("R {rank}"));
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
        tag: "R ",
        max_rounds: iterations,
        stop_when_unchanged: false,
        ctx,
    };
    let state = chain.run(
        n,
        |_| 1.0 / n as f64,
        &PropagateRank,
        |proposed| UpdateRank {
            damping,
            n: n as f64,
            dangling: proposed.user_counter("dangling_micros") as f64 / 1e12,
        },
    )?;
    collect_per_vertex(&state, n, "R", |s| s.parse().ok(), 1.0 / n as f64)
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
    for_each_record(&part_files(&adj_dir)?, |k, v| {
        let Some(list) = v.strip_prefix("N ") else {
            return Ok(());
        };
        let idx: usize = k.parse().map_err(|_| internal_err(k))?;
        if idx >= n {
            return Err(internal_err(k));
        }
        adjacency[idx] = parse_list(list).into_iter().map(|x| x as u32).collect();
        Ok(())
    })?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use graphalytics_core::ScratchDir;

    /// Re-emits every record: the state passes through the propagate job.
    struct Echo;
    impl Reducer for Echo {
        fn reduce(&self, key: &str, values: &[&str], out: &mut Emitter) {
            values.iter().for_each(|v| out.emit(key, v));
        }
    }

    /// Counts `X <k>` down to zero, reporting each step as a change.
    struct CountDown;
    impl CountingReducer for CountDown {
        fn reduce(&self, key: &str, values: &[&str], ctx: &mut ReduceContext<'_>) {
            let x: u32 = values[0].strip_prefix("X ").unwrap().parse().unwrap();
            if x > 0 {
                *ctx.counters.entry("changed".into()).or_insert(0) += 1;
            }
            ctx.out.emit(key, format_args!("X {}", x.saturating_sub(1)));
        }
    }

    /// Runs the countdown from 3 and returns the final value and the update
    /// jobs the chain ran, by output directory.
    fn count_down(max_rounds: usize, stop_when_unchanged: bool) -> (String, Vec<String>) {
        let scratch = ScratchDir::new(None, "gx-mr-chain").unwrap();
        let config = JobConfig::new(scratch.path());
        let chain = Chain {
            config: &config,
            arc_files: &[],
            kernel: "tick",
            state: "x",
            tag: "X ",
            max_rounds,
            stop_when_unchanged,
            ctx: &RunContext::unbounded(),
        };
        let state = chain.run(1, |_| 3, &Echo, |_| CountDown).unwrap();
        let mut last = Vec::new();
        for_each_record(&state, |_, v| {
            last.push(v.to_string());
            Ok(())
        })
        .unwrap();
        let mut updates: Vec<String> = std::fs::read_dir(scratch.path())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.starts_with("tick-update-"))
            .collect();
        updates.sort();
        (last.concat(), updates)
    }

    #[test]
    fn chain_stops_on_a_round_without_changes_and_keeps_every_state_file() {
        // 3 → 2 → 1 → 0 change; the fourth round changes nothing and ends
        // the chain, its update output still kept as state 4.
        let (last, updates) = count_down(usize::MAX, true);
        assert_eq!(last, "X 0");
        let expected = [
            "tick-update-0",
            "tick-update-1",
            "tick-update-2",
            "tick-update-3",
        ];
        assert_eq!(updates, expected);
    }

    #[test]
    fn chain_stops_at_the_round_cap() {
        let (last, updates) = count_down(2, true);
        assert_eq!(last, "X 1");
        assert_eq!(updates, ["tick-update-0", "tick-update-1"]);
        // No rounds at all: the initial state is the result.
        let (last, updates) = count_down(0, true);
        assert_eq!(last, "X 3");
        assert!(updates.is_empty());
    }

    #[test]
    fn chain_runs_its_rounds_out_when_changes_do_not_stop_it() {
        // PageRank's mode: rounds 5 and 6 change nothing and still run.
        let (last, updates) = count_down(6, false);
        assert_eq!(last, "X 0");
        assert_eq!(updates.len(), 6);
    }
}
