//! The Graphalytics workload as iterative MapReduce job chains.
//!
//! Every kernel is a driver loop over [`run_job`] invocations; state between
//! rounds lives in files, and every round reads and writes the whole graph,
//! because each vertex's adjacency travels with its state — the structural
//! reason MapReduce graph processing is "two orders of magnitude slower
//! than Giraph and GraphX" (paper §3.3) while never running out of memory.
//!
//! Record formats (key `\t` value):
//! * adjacency splits (`adj-*`, written at load): value = `N <u1> <u2> …`,
//!   one record per vertex, isolated vertices included (empty list);
//! * weighted adjacency splits (`wadj-*`): value = `W <u1> <w1> <u2> <w2> …`
//!   (fixed-point weights — the SSSP inputs);
//! * chain state files: value = `<state>\t<adjacency>`, the vertex's state
//!   followed by its split value as is; the state is `L <label>` (CONN),
//!   `D <depth>` (BFS), `T <distance>` (SSSP), `S <label> <score>` (CD) or
//!   `R <received>` (PageRank: the sorted sum of the shares received);
//! * messages along arcs: `C <payload>`;
//! * LCC's job outputs: `D <neighbor> <degree>`, `OWN <degree> <N⁺>`,
//!   `NB <sender> <N⁺>`, `G <degree> <credits>`, `C <credits>` and
//!   `LCC <coefficient>` (see [`lcc_parts`]).
//!
//! [`run_job`]: crate::job::run_job

use std::collections::BTreeMap;
use std::fmt::{self, Display};
use std::path::PathBuf;
use std::str::FromStr;

use graphalytics_algos::cd;
use graphalytics_core::platform::{PlatformError, RunContext};
use graphalytics_graph::metrics;

use crate::job::{
    for_each_record, part_files, run_job_traced, CountingReducer, Emitter, JobConfig, JobCounters,
    Mapper, ReduceContext, Reducer,
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

/// Parses the per-vertex records `v -> "<tag>payload"` of `files` into a
/// dense vector indexed by vertex id; a state record's adjacency is not
/// part of its payload. A vertex with no such record gets `missing(v)`.
fn collect_per_vertex<T>(
    files: &[PathBuf],
    n: usize,
    tag: &str,
    parse: impl Fn(&str) -> Option<T>,
    missing: impl Fn(u32) -> T,
) -> Result<Vec<T>, PlatformError> {
    let mut out: Vec<T> = (0..n as u32).map(missing).collect();
    for_each_record(files, |k, v| {
        let Some(rest) = v.strip_prefix(tag) else {
            return Ok(());
        };
        let idx: usize = k.parse().map_err(|_| internal_err(k))?;
        if idx >= n {
            return Err(internal_err(k));
        }
        let payload = rest.split_once('\t').map_or(rest, |(state, _)| state);
        out[idx] = parse(payload.trim()).ok_or_else(|| internal_err(v))?;
        Ok(())
    })?;
    Ok(out)
}

/// The next whitespace-separated field of a record payload, parsed.
fn field<T: FromStr>(parts: &mut std::str::SplitWhitespace<'_>) -> Option<T> {
    parts.next()?.parse().ok()
}

/// The arcs of an adjacency value, as `(neighbor, weight)`: `N <u>…` arcs
/// weigh 1, `W <u> <w>…` arcs carry their weight.
#[derive(Clone)]
struct Arcs<'a> {
    fields: std::str::SplitWhitespace<'a>,
    weighted: bool,
}

impl<'a> Arcs<'a> {
    /// The arcs of `adjacency`; `None` for a value with neither tag.
    fn of(adjacency: &'a str) -> Option<Self> {
        let (weighted, list) = match adjacency.strip_prefix("N ") {
            Some(list) => (false, list),
            None => (true, adjacency.strip_prefix("W ")?),
        };
        Some(Self {
            fields: list.split_whitespace(),
            weighted,
        })
    }

    /// The neighbors alone.
    fn neighbors(self) -> impl Iterator<Item = &'a str> + Clone {
        self.map(|(u, _)| u)
    }
}

impl<'a> Iterator for Arcs<'a> {
    type Item = (&'a str, u64);

    /// The next arc; a weight that does not parse ends the list.
    fn next(&mut self) -> Option<Self::Item> {
        let u = self.fields.next()?;
        let weight = if self.weighted {
            field(&mut self.fields)?
        } else {
            1
        };
        Some((u, weight))
    }
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

/// What one round of a chain kernel does at a vertex: its sends, on the
/// map side, and the fold of what it received into its next state, on the
/// reduce side.
trait Step: Sync {
    /// The state, as written after the chain's tag.
    type State: FromStr + Display;

    /// Emits the `C <payload>` messages of a vertex holding `own`.
    fn send(&self, own: &Self::State, arcs: Arcs<'_>, out: &mut Emitter);

    /// The next state of a vertex holding `own`, from the payloads of its
    /// messages in byte order; bumps `changed` when the state changed.
    fn fold<'v>(
        &self,
        own: Self::State,
        arcs: Arcs<'_>,
        messages: impl Iterator<Item = &'v str>,
        counters: &mut BTreeMap<String, i64>,
    ) -> Self::State;
}

/// The iterative job chain behind CONN, BFS, SSSP, CD and PageRank: round
/// `k` is the one job `<kernel>-round-<k>`. Its mapper reads each vertex's
/// record — round 0 the load split, later the vertex's state record —
/// re-emits the state with the adjacency and sends messages along the
/// arcs; its reducer folds them into the next state, written with the
/// adjacency again, and its part files are read by the next round where
/// they lie.
struct Chain<'a> {
    config: &'a JobConfig,
    /// The load's adjacency splits, round 0's input.
    splits: &'a [PathBuf],
    kernel: &'a str,
    /// Record tag of a state, with its trailing space.
    tag: &'a str,
    /// Round cap.
    max_rounds: usize,
    /// Whether a round whose job counted no `changed` vertex ends the
    /// chain (PageRank runs its rounds out regardless).
    stop_when_unchanged: bool,
    ctx: &'a RunContext,
}

impl Chain<'_> {
    /// Runs the chain from the state `init(v)` of every vertex of the
    /// splits. Each round's step is built from the counters of the round
    /// before (`None` for round 0). Returns the files of the last state and
    /// the last round's counters; with no round at all, the splits and
    /// `None`.
    fn run<S: Step, I: Fn(u32) -> S::State + Sync>(
        &self,
        init: &I,
        step: impl Fn(Option<&JobCounters>) -> S,
    ) -> Result<(Vec<PathBuf>, Option<JobCounters>), PlatformError> {
        let mut state_files = self.splits.to_vec();
        let mut last: Option<JobCounters> = None;
        for round in 0..self.max_rounds {
            let step = step(last.as_ref());
            let mapper = RoundMapper {
                step: &step,
                tag: self.tag,
                init: (round == 0).then_some(init),
            };
            let reducer = RoundReducer {
                step: &step,
                tag: self.tag,
            };
            let job = format!("{}-round-{round}", self.kernel);
            let (counters, dir) =
                run_named_job(self.config, &job, &state_files, &mapper, &reducer, self.ctx)?;
            state_files = part_files(&dir)?;
            let unchanged = counters.user_counter("changed") == 0;
            last = Some(counters);
            if self.stop_when_unchanged && unchanged {
                break;
            }
        }
        Ok((state_files, last))
    }
}

/// A round's mapper: parses the vertex's state (round 0: `init` of its
/// id), re-emits it with the adjacency and lets the step send.
struct RoundMapper<'a, S, I> {
    step: &'a S,
    tag: &'a str,
    /// The initial state, in round 0 only.
    init: Option<&'a I>,
}

impl<S: Step, I: Fn(u32) -> S::State + Sync> Mapper for RoundMapper<'_, S, I> {
    fn map(&self, key: &str, value: &str, out: &mut Emitter) {
        let state = match self.init {
            Some(init) => key.parse().ok().map(|v| (init(v), value)),
            None => value
                .strip_prefix(self.tag)
                .and_then(|rest| rest.split_once('\t'))
                .and_then(|(own, adjacency)| Some((own.parse().ok()?, adjacency))),
        };
        let Some((own, adjacency)) = state else {
            return;
        };
        let Some(arcs) = Arcs::of(adjacency) else {
            return;
        };
        if self.init.is_some() {
            out.emit(key, format_args!("{}{own}\t{adjacency}", self.tag));
        } else {
            out.emit_str(key, value);
        }
        self.step.send(&own, arcs, out);
    }
}

/// A round's reducer: folds the messages of a vertex that has a state
/// record into its next state record.
struct RoundReducer<'a, S> {
    step: &'a S,
    tag: &'a str,
}

impl<S: Step> CountingReducer for RoundReducer<'_, S> {
    fn reduce(&self, key: &str, values: &[&str], ctx: &mut ReduceContext<'_>) {
        let state = values
            .iter()
            .find_map(|v| v.strip_prefix(self.tag)?.split_once('\t'));
        let Some((own, adjacency)) = state else {
            return;
        };
        let (Ok(own), Some(arcs)) = (own.parse(), Arcs::of(adjacency)) else {
            return;
        };
        let messages = values.iter().filter_map(|v| v.strip_prefix("C "));
        let next = self.step.fold(own, arcs, messages, ctx.counters);
        ctx.out
            .emit(key, format_args!("{}{next}\t{adjacency}", self.tag));
    }
}

// -------------------------------------------------- CONN, BFS and SSSP --

/// The kernels whose state is one value per vertex that only ever moves
/// toward a minimum: CONN labels (`L`), BFS depths (`D`) and SSSP distances
/// (`T`). They differ in the tag, in what a vertex sends along an arc, and
/// in when a candidate replaces the own value.
#[derive(Clone, Copy)]
struct MinKernel<T> {
    kernel: &'static str,
    /// Record tag of the state value, with its trailing space.
    tag: &'static str,
    /// The candidate a vertex holding the first argument sends along an
    /// arc of the given weight (1 for unweighted arcs), if any.
    candidate: fn(T, u64) -> Option<T>,
    /// Whether a candidate (first) replaces the own value (second).
    improves: fn(T, T) -> bool,
}

impl<T: Copy + Ord + FromStr + Display + Sync> MinKernel<T> {
    /// Chains rounds from `init` until no value changes.
    fn run(
        &self,
        config: &JobConfig,
        splits: &[PathBuf],
        n: usize,
        init: impl Fn(u32) -> T + Sync,
        ctx: &RunContext,
    ) -> Result<Vec<T>, PlatformError> {
        let chain = Chain {
            config,
            splits,
            kernel: self.kernel,
            tag: self.tag,
            max_rounds: usize::MAX,
            stop_when_unchanged: true,
            ctx,
        };
        let (state, _) = chain.run(&init, |_| *self)?;
        collect_per_vertex(&state, n, self.tag, |s| s.parse().ok(), init)
    }
}

/// Sends a candidate along every arc the kernel sends one on, and adopts
/// the minimum candidate when it improves on the own value.
impl<T: Copy + Ord + FromStr + Display + Sync> Step for MinKernel<T> {
    type State = T;

    fn send(&self, own: &T, arcs: Arcs<'_>, out: &mut Emitter) {
        for (u, w) in arcs {
            if let Some(candidate) = (self.candidate)(*own, w) {
                out.emit(u, format_args!("C {candidate}"));
            }
        }
    }

    fn fold<'v>(
        &self,
        own: T,
        _arcs: Arcs<'_>,
        messages: impl Iterator<Item = &'v str>,
        counters: &mut BTreeMap<String, i64>,
    ) -> T {
        let best = messages.filter_map(|c| c.trim().parse::<T>().ok()).min();
        match best {
            Some(best) if (self.improves)(best, own) => {
                *counters.entry("changed".into()).or_insert(0) += 1;
                best
            }
            _ => own,
        }
    }
}

/// Connected components: every vertex sends its label and keeps the
/// minimum it sees, until no label changes. `splits` hold the `N`-tagged
/// adjacency records; `n` is the vertex count.
pub fn connected_components(
    config: &JobConfig,
    splits: &[PathBuf],
    n: usize,
    ctx: &RunContext,
) -> Result<Vec<u32>, PlatformError> {
    let conn = MinKernel::<u32> {
        kernel: "conn",
        tag: "L ",
        candidate: |label, _| Some(label),
        improves: |candidate, own| candidate < own,
    };
    conn.run(config, splits, n, |v| v, ctx)
}

/// BFS from `source` (internal id; `None` = unreachable everywhere):
/// reached vertices send `depth + 1`, unreached ones (`-1`) adopt the
/// minimum candidate.
pub fn bfs(
    config: &JobConfig,
    splits: &[PathBuf],
    n: usize,
    source: Option<u32>,
    ctx: &RunContext,
) -> Result<Vec<i64>, PlatformError> {
    let bfs = MinKernel::<i64> {
        kernel: "bfs",
        tag: "D ",
        candidate: |depth, _| (depth >= 0).then(|| depth + 1),
        improves: |_, own| own < 0,
    };
    let init = |v| if Some(v) == source { 0 } else { -1 };
    bfs.run(config, splits, n, init, ctx)
}

/// SSSP from `source` (internal id; `None` = unreachable everywhere):
/// Bellman-Ford rounds over the weighted splits (`W <u1> <w1> …` records)
/// — vertices with a finite distance send `dist + weight` — until no
/// distance improves.
pub fn sssp(
    config: &JobConfig,
    weighted_splits: &[PathBuf],
    n: usize,
    source: Option<u32>,
    ctx: &RunContext,
) -> Result<Vec<u64>, PlatformError> {
    let inf = graphalytics_algos::INFINITY;
    let sssp = MinKernel::<u64> {
        kernel: "sssp",
        tag: "T ",
        candidate: |dist, weight| {
            (dist != graphalytics_algos::INFINITY).then(|| dist.saturating_add(weight))
        },
        improves: |candidate, own| candidate < own,
    };
    let init = |v| if Some(v) == source { 0 } else { inf };
    sssp.run(config, weighted_splits, n, init, ctx)
}

// ------------------------------------------------------------------ CD --

/// A CD state: the label and its score, written `<label> <score>`.
#[derive(Clone, Copy)]
struct Community(u32, f64);

impl FromStr for Community {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, ()> {
        let mut parts = s.split_whitespace();
        Ok(Community(
            field(&mut parts).ok_or(())?,
            field(&mut parts).ok_or(())?,
        ))
    }
}

impl Display for Community {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.0, self.1)
    }
}

/// CD round: each vertex ships `(label, score, influence)` to all
/// neighbors, the influence from its degree; each then takes the canonical
/// adopt-or-keep step of the shared spec.
#[derive(Clone, Copy)]
struct CommunityStep {
    hop_attenuation: f64,
    degree_exponent: f64,
}

impl Step for CommunityStep {
    type State = Community;

    fn send(&self, &Community(label, score): &Community, arcs: Arcs<'_>, out: &mut Emitter) {
        let influence = cd::influence(score, arcs.clone().count(), self.degree_exponent);
        out.emit_each(
            arcs.neighbors(),
            format_args!("C {label} {score} {influence}"),
        );
    }

    fn fold<'v>(
        &self,
        own: Community,
        _arcs: Arcs<'_>,
        messages: impl Iterator<Item = &'v str>,
        counters: &mut BTreeMap<String, i64>,
    ) -> Community {
        let mut weight = cd::LabelWeights::default();
        for c in messages {
            let mut parts = c.split_whitespace();
            if let (Some(label), Some(score), Some(influence)) =
                (field(&mut parts), field(&mut parts), field(&mut parts))
            {
                cd::add_vote(&mut weight, label, score, influence);
            }
        }
        let (label, score, adopted) =
            cd::adopt_or_keep((own.0, own.1), &mut weight, self.hop_attenuation);
        if adopted {
            *counters.entry("changed".into()).or_insert(0) += 1;
        }
        Community(label, score)
    }
}

/// Community detection: `iterations` rounds with the reference's early
/// stop.
pub fn community_detection(
    config: &JobConfig,
    splits: &[PathBuf],
    n: usize,
    iterations: usize,
    hop_attenuation: f64,
    degree_exponent: f64,
    ctx: &RunContext,
) -> Result<Vec<u32>, PlatformError> {
    let chain = Chain {
        config,
        splits,
        kernel: "cd",
        tag: "S ",
        max_rounds: iterations,
        stop_when_unchanged: true,
        ctx,
    };
    let step = CommunityStep {
        hop_attenuation,
        degree_exponent,
    };
    let (state, _) = chain.run(&|v| Community(v, 1.0), |_| step)?;
    collect_per_vertex(
        &state,
        n,
        "S ",
        |s| s.split_whitespace().next()?.parse().ok(),
        |v| v,
    )
}

// --------------------------------------------------------------- STATS --

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

/// LCC job 1's mapper: `D <self> <degree>` to every neighbour on the
/// vertex's adjacency record. A record whose id does not parse sends
/// nothing, as in the chains, so such a neighbour is not counted either:
/// both ends of an edge must agree on each other's degree.
struct SendDegrees;

impl Mapper for SendDegrees {
    fn map(&self, key: &str, value: &str, out: &mut Emitter) {
        if key.parse::<u64>().is_err() {
            return;
        }
        let Some(arcs) = Arcs::of(value) else { return };
        let ids = arcs.neighbors().filter(|u| u.parse::<u64>().is_ok());
        let degree = ids.clone().count();
        out.emit_each(ids, format_args!("D {key} {degree}"));
    }
}

/// LCC job 1's reducer: the `D` records are the neighbours and their
/// degrees, so the vertex knows its degree and its oriented list `N⁺`
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

/// LCC job 2: merges every received `N⁺(u)` with the own `N⁺(v)`; each
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

/// LCC job 3: adds the credits and writes `LCC <coefficient>`.
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

/// Chains the three LCC jobs over the adjacency splits; returns the part
/// files of the `LCC <coefficient>` records, one for every vertex of
/// degree ≥ 1.
fn lcc_parts(
    config: &JobConfig,
    splits: &[PathBuf],
    ctx: &RunContext,
) -> Result<Vec<PathBuf>, PlatformError> {
    let orient = ReduceFn(ship_oriented_lists);
    let (_, dir) = run_named_job(config, "stats-orient", splits, &SendDegrees, &orient, ctx)?;
    let mut inputs = part_files(&dir)?;
    for (name, reducer) in [
        ("stats-triangles", ReduceFn(credit_triangles)),
        ("stats-lcc", ReduceFn(sum_credits)),
    ] {
        let (_, dir) = run_named_job(config, name, &inputs, &IdentityMapper, &reducer, ctx)?;
        inputs = part_files(&dir)?;
    }
    Ok(inputs)
}

/// STATS: the three LCC jobs of [`lcc_parts`]; the mean is
/// computed client-side from the per-vertex LCC records, summed as the
/// reduce partitions return them. That is not vertex order, so the mean's
/// last bits differ from `stats::from_coefficients` over the same values —
/// the one STATS mean that keeps its own expression.
pub fn mean_local_cc(
    config: &JobConfig,
    splits: &[PathBuf],
    n: usize,
    ctx: &RunContext,
) -> Result<f64, PlatformError> {
    if n == 0 {
        return Ok(0.0);
    }
    let mut sum = 0.0f64;
    for_each_record(&lcc_parts(config, splits, ctx)?, |_, v| {
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
    splits: &[PathBuf],
    n: usize,
    ctx: &RunContext,
) -> Result<Vec<f64>, PlatformError> {
    if n == 0 {
        return Ok(Vec::new());
    }
    let parts = lcc_parts(config, splits, ctx)?;
    collect_per_vertex(&parts, n, "LCC", |s| s.parse().ok(), |_| 0.0f64)
}

// ------------------------------------------------------------ PageRank --

/// PageRank round: each vertex sends `rank / degree` to its neighbors and
/// keeps the sorted sum of the shares it receives. A vertex's rank is
/// evaluated from its state by the next round, or by the final collect, as
/// `base + damping · received`, where `base` comes from the dangling rank
/// of the round before: the reducer adds it up, in micro-units, in a user
/// counter.
#[derive(Clone, Copy)]
struct RankStep {
    damping: f64,
    /// The `base` a vertex's state adds to; `None` in round 0, where the
    /// state is the initial rank itself.
    base: Option<f64>,
}

impl RankStep {
    /// The step of the round after the one that reported `counters`.
    fn after(damping: f64, n: f64, counters: Option<&JobCounters>) -> Self {
        let base = counters.map(|c| {
            let dangling = c.user_counter("dangling_micros") as f64 / 1e12;
            (1.0 - damping) / n + damping * dangling / n
        });
        Self { damping, base }
    }

    /// The rank of a vertex holding `state`.
    fn rank(&self, state: f64) -> f64 {
        match self.base {
            Some(base) => base + self.damping * state,
            None => state,
        }
    }
}

impl Step for RankStep {
    type State = f64;

    fn send(&self, &own: &f64, arcs: Arcs<'_>, out: &mut Emitter) {
        let degree = arcs.clone().count();
        if degree > 0 {
            let share = self.rank(own) / degree as f64;
            out.emit_each(arcs.neighbors(), format_args!("C {share}"));
        }
    }

    fn fold<'v>(
        &self,
        own: f64,
        mut arcs: Arcs<'_>,
        messages: impl Iterator<Item = &'v str>,
        counters: &mut BTreeMap<String, i64>,
    ) -> f64 {
        if arcs.next().is_none() {
            // Fixed-point micro-units so the counter is an integer.
            *counters.entry("dangling_micros".into()).or_insert(0) +=
                (self.rank(own) * 1e12).round() as i64;
        }
        let mut contributions: Vec<f64> = messages.filter_map(|c| c.trim().parse().ok()).collect();
        contributions.sort_by(|a, b| a.total_cmp(b));
        contributions.iter().sum()
    }
}

/// PageRank: fixed iteration count.
pub fn pagerank(
    config: &JobConfig,
    splits: &[PathBuf],
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
        splits,
        kernel: "pr",
        tag: "R ",
        max_rounds: iterations,
        stop_when_unchanged: false,
        ctx,
    };
    let initial = 1.0 / n as f64;
    let (state, last) = chain.run(&|_| initial, |counters| {
        RankStep::after(damping, n as f64, counters)
    })?;
    let last = RankStep::after(damping, n as f64, last.as_ref());
    collect_per_vertex(
        &state,
        n,
        "R ",
        |s| Some(last.rank(s.parse().ok()?)),
        |_| initial,
    )
}

// ----------------------------------------------------------------- EVO --

/// EVO: the spec'd forest-fire walk runs in the driver over the adjacency
/// splits as the load wrote them (the Hadoop pattern for small sequential
/// post-processing); no job runs.
pub fn forest_fire(
    splits: &[PathBuf],
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
    let mut adjacency: Vec<Vec<u32>> = vec![Vec::new(); n];
    for_each_record(splits, |k, v| {
        let Some(arcs) = Arcs::of(v) else {
            return Ok(());
        };
        let idx: usize = k.parse().map_err(|_| internal_err(k))?;
        if idx >= n {
            return Err(internal_err(k));
        }
        adjacency[idx] = arcs.neighbors().filter_map(|u| u.parse().ok()).collect();
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
    use crate::job::RecordWriter;
    use graphalytics_core::ScratchDir;

    /// Counts its state down to zero, reporting each step as a change; sends
    /// nothing.
    struct CountDown;
    impl Step for CountDown {
        type State = u32;

        fn send(&self, _own: &u32, _arcs: Arcs<'_>, _out: &mut Emitter) {}

        fn fold<'v>(
            &self,
            own: u32,
            _arcs: Arcs<'_>,
            _messages: impl Iterator<Item = &'v str>,
            counters: &mut BTreeMap<String, i64>,
        ) -> u32 {
            if own > 0 {
                *counters.entry("changed".into()).or_insert(0) += 1;
            }
            own.saturating_sub(1)
        }
    }

    /// Runs the countdown from 3 on one isolated vertex and returns the
    /// final record and the round jobs the chain ran, by output directory.
    fn count_down(max_rounds: usize, stop_when_unchanged: bool) -> (String, Vec<String>) {
        let scratch = ScratchDir::new(None, "gx-mr-chain").unwrap();
        let split = scratch.path().join("adj-0");
        let mut writer = RecordWriter::create(&split).unwrap();
        writer.write_numbers(0, "N ", []).unwrap();
        writer.finish().unwrap();
        let config = JobConfig::new(scratch.path());
        let chain = Chain {
            config: &config,
            splits: &[split],
            kernel: "tick",
            tag: "X ",
            max_rounds,
            stop_when_unchanged,
            ctx: &RunContext::unbounded(),
        };
        let (state, _) = chain.run(&|_| 3, |_| CountDown).unwrap();
        let mut last = Vec::new();
        for_each_record(&state, |_, v| {
            last.push(v.to_string());
            Ok(())
        })
        .unwrap();
        let mut rounds: Vec<String> = std::fs::read_dir(scratch.path())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.starts_with("tick-"))
            .collect();
        rounds.sort();
        (last.concat(), rounds)
    }

    #[test]
    fn chain_stops_on_a_round_without_changes_and_keeps_every_state_file() {
        // 3 → 2 → 1 → 0 change; the fourth round changes nothing and ends
        // the chain, its output still kept as state 4.
        let (last, rounds) = count_down(usize::MAX, true);
        assert_eq!(last, "X 0\tN ");
        let expected = [
            "tick-round-0",
            "tick-round-1",
            "tick-round-2",
            "tick-round-3",
        ];
        assert_eq!(rounds, expected);
    }

    #[test]
    fn chain_stops_at_the_round_cap() {
        let (last, rounds) = count_down(2, true);
        assert_eq!(last, "X 1\tN ");
        assert_eq!(rounds, ["tick-round-0", "tick-round-1"]);
        // No rounds at all: the splits are the result.
        let (last, rounds) = count_down(0, true);
        assert_eq!(last, "N ");
        assert!(rounds.is_empty());
    }

    #[test]
    fn chain_runs_its_rounds_out_when_changes_do_not_stop_it() {
        // PageRank's mode: rounds 5 and 6 change nothing and still run.
        let (last, rounds) = count_down(6, false);
        assert_eq!(last, "X 0\tN ");
        assert_eq!(rounds.len(), 6);
    }

    #[test]
    fn arcs_read_both_adjacency_tags() {
        let arcs: Vec<_> = Arcs::of("N 3 14").unwrap().collect();
        assert_eq!(arcs, [("3", 1), ("14", 1)]);
        let arcs: Vec<_> = Arcs::of("W 3 500 14 7").unwrap().collect();
        assert_eq!(arcs, [("3", 500), ("14", 7)]);
        assert_eq!(Arcs::of("N ").unwrap().count(), 0);
        // A weight that does not parse ends the list; no tag, no arcs.
        assert_eq!(Arcs::of("W 3 x 14 7").unwrap().count(), 0);
        assert!(Arcs::of("3 14").is_none());
    }
}
