//! The Graphalytics workload as iterative MapReduce job chains.
//!
//! Every kernel is a driver loop over [`run_job`] invocations; state between
//! rounds lives in files, and every round reads and writes the whole graph,
//! because each vertex's adjacency travels with its state — the structural
//! reason MapReduce graph processing is "two orders of magnitude slower
//! than Giraph and GraphX" (paper §3.3) while never running out of memory.
//!
//! Record values. Every record is keyed by a vertex id (the framing is
//! [`crate::job`]'s). A value is a one-byte tag, then `crates/codec` fields:
//! ids are `u32`s, weights, degrees and counts `u64`s, and f64s travel as
//! their bits, so no number is ever printed or parsed.
//! * adjacency splits (`adj-*`, written at load): `N`, then the neighbours,
//!   one record per vertex, isolated vertices included (empty list);
//! * weighted adjacency splits (`wadj-*`, written for a weighted graph
//!   only): `W`, then `(neighbour, weight)` pairs with fixed-point weights —
//!   the SSSP input. An `N` arc weighs [`WEIGHT_SCALE`], one hop, so on an
//!   unweighted graph SSSP reads `adj-*`;
//! * chain state records: the state's tag and the state, then the vertex's
//!   split value as is; the state is `L` + label (CONN), `D` + `i64` depth
//!   (BFS), `T` + distance (SSSP), `S` + label + score (CD) or `R` + the
//!   sorted sum of the shares received (PageRank);
//! * messages along arcs: `C` + the kernel's message;
//! * LCC's job outputs: `D` + neighbour + degree, `O` + degree + `N⁺`,
//!   `B` + sender + `N⁺`, `G` + degree + credits, `C` + credits and
//!   `F` + the coefficient (see [`lcc_parts`]); a list runs to the end of
//!   its value.
//!
//! A value with another tag, or whose fields do not fill it, is skipped.
//!
//! [`run_job`]: crate::job::run_job

use std::collections::BTreeMap;
use std::path::PathBuf;

use graphalytics_algos::cd;
use graphalytics_codec::{layout, Codec};
use graphalytics_core::platform::{PlatformError, RunContext};
use graphalytics_graph::{metrics, Weight, WEIGHT_SCALE};

use crate::job::{
    for_each_record, part_files, run_job_traced, CountingReducer, Emitter, JobConfig, JobCounters,
    Mapper, ReduceContext, Reducer,
};

/// Tag of an adjacency value, `N` + neighbours.
const ADJACENCY: u8 = b'N';
/// Tag of a weighted adjacency value, `W` + `(neighbour, weight)` pairs.
const WEIGHTED: u8 = b'W';
/// Tag of a message along an arc.
const MESSAGE: u8 = b'C';

/// Appends the adjacency value of a vertex with `neighbors`.
pub(crate) fn push_adjacency(bytes: &mut Vec<u8>, neighbors: &[u32]) {
    bytes.push(ADJACENCY);
    u32::encode_slice(neighbors, bytes);
}

/// Appends the weighted adjacency value of a vertex with `neighbors`, arc
/// `i` weighing `weights[i]`.
pub(crate) fn push_weighted_adjacency(bytes: &mut Vec<u8>, neighbors: &[u32], weights: &[Weight]) {
    bytes.push(WEIGHTED);
    for (&u, &w) in neighbors.iter().zip(weights) {
        (u, w).encode_into(bytes);
    }
}

/// Identity mapper: inputs are already keyed correctly.
struct IdentityMapper;

impl Mapper for IdentityMapper {
    fn map(&self, key: u32, value: &[u8], out: &mut Emitter) {
        out.emit_bytes(key, value);
    }
}

fn internal_err(what: &str) -> PlatformError {
    PlatformError::Internal(format!("malformed record: {what}"))
}

/// The bytes after `value`'s tag, when its tag is `tag`.
fn tagged(value: &[u8], tag: u8) -> Option<&[u8]> {
    value.strip_prefix(&[tag])
}

/// Appends `tag`, then `fields`.
fn put(bytes: &mut Vec<u8>, tag: u8, fields: &impl Codec) {
    bytes.push(tag);
    fields.encode_into(bytes);
}

/// A `T` decoded from the start of `bytes`, and the bytes after it.
fn decode<T: Codec>(bytes: &[u8]) -> Option<(T, &[u8])> {
    let mut pos = 0;
    let value = T::decode_from(bytes, &mut pos)?;
    Some((value, &bytes[pos..]))
}

/// A `T` that fills `bytes` exactly.
fn decode_exact<T: Codec>(bytes: &[u8]) -> Option<T> {
    decode(bytes)
        .filter(|(_, rest)| rest.is_empty())
        .map(|(value, _)| value)
}

/// Replaces `ids` with the `u32`s that fill `bytes`; false when `bytes` is
/// not a whole number of them.
fn read_ids(bytes: &[u8], ids: &mut Vec<u32>) -> bool {
    ids.clear();
    ids.extend(bytes.chunks_exact(4).filter_map(decode_exact::<u32>));
    bytes.len().is_multiple_of(4)
}

/// Decodes the values tagged `tag` in `files` into a dense vector indexed
/// by vertex id: `value` of the `S` that starts each one (a state record's
/// adjacency follows its state). A vertex with no such record gets
/// `missing(v)`; a record keyed past `n`, or too short for an `S`, is an
/// error.
fn collect_per_vertex<S: Codec, T>(
    files: &[PathBuf],
    n: usize,
    tag: u8,
    value: impl Fn(S) -> T,
    missing: impl Fn(u32) -> T,
) -> Result<Vec<T>, PlatformError> {
    let mut out: Vec<T> = (0..n as u32).map(missing).collect();
    for_each_record(files, |k, v| {
        let Some(payload) = tagged(v, tag) else {
            return Ok(());
        };
        let slot = out
            .get_mut(k as usize)
            .ok_or_else(|| internal_err(&format!("vertex {k} of {n}")))?;
        let (state, _) = decode(payload)
            .ok_or_else(|| internal_err(&format!("vertex {k}'s value of {} bytes", v.len())))?;
        *slot = value(state);
        Ok(())
    })?;
    Ok(out)
}

/// The arcs of an adjacency value, as `(neighbor, weight)`: `N` arcs weigh
/// [`WEIGHT_SCALE`], `W` arcs carry their weight.
#[derive(Clone)]
struct Arcs<'a> {
    list: &'a [u8],
    /// Bytes per arc: 4 for an id, 12 for an id and a weight.
    width: usize,
}

impl<'a> Arcs<'a> {
    /// The arcs of vertex `v`'s value `adjacency` in a graph of `n`
    /// vertices. `None`, so that the record is skipped, for a value with
    /// neither tag, a list that is not a whole number of arcs, or a `v` or
    /// neighbour that the graph does not have.
    fn of(v: u32, adjacency: &'a [u8], n: usize) -> Option<Self> {
        let (&tag, list) = adjacency.split_first()?;
        let width = match tag {
            ADJACENCY => 4,
            WEIGHTED => 12,
            _ => return None,
        };
        let arcs = Self { list, width };
        let within = |u: u32| (u as usize) < n;
        (list.len().is_multiple_of(width) && within(v) && arcs.clone().all(|(u, _)| within(u)))
            .then_some(arcs)
    }

    /// The number of arcs.
    fn degree(&self) -> usize {
        self.list.len() / self.width
    }

    /// The neighbors alone.
    fn neighbors(self) -> impl Iterator<Item = u32> + Clone + 'a {
        self.map(|(u, _)| u)
    }
}

impl Iterator for Arcs<'_> {
    type Item = (u32, u64);

    fn next(&mut self) -> Option<Self::Item> {
        let (arc, rest) = if self.width == 12 {
            decode(self.list)?
        } else {
            let (u, rest) = decode(self.list)?;
            ((u, WEIGHT_SCALE), rest)
        };
        self.list = rest;
        Some(arc)
    }
}

/// Emits `message` to every vertex of `to` as a `C` record, written once.
fn send_each(out: &mut Emitter, to: impl IntoIterator<Item = u32>, message: &impl Codec) {
    out.emit_each(to, |bytes| put(bytes, MESSAGE, message));
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
    type State: Codec;
    /// What a vertex sends along an arc.
    type Message: Codec;

    /// Emits the messages of a vertex holding `own`.
    fn send(&self, own: &Self::State, arcs: Arcs<'_>, out: &mut Emitter);

    /// The next state of a vertex holding `own`, from its messages; bumps
    /// `changed` when the state changed.
    fn fold(
        &self,
        own: Self::State,
        arcs: Arcs<'_>,
        messages: impl Iterator<Item = Self::Message>,
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
    /// The graph's vertex count.
    n: usize,
    kernel: &'a str,
    /// Value tag of a state record.
    tag: u8,
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
                n: self.n,
                init: (round == 0).then_some(init),
            };
            let reducer = RoundReducer {
                step: &step,
                tag: self.tag,
                n: self.n,
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

/// A round's mapper: decodes the vertex's state (round 0: `init` of its
/// id), re-emits it with the adjacency and lets the step send.
struct RoundMapper<'a, S, I> {
    step: &'a S,
    tag: u8,
    n: usize,
    /// The initial state, in round 0 only.
    init: Option<&'a I>,
}

impl<S: Step, I: Fn(u32) -> S::State + Sync> Mapper for RoundMapper<'_, S, I> {
    fn map(&self, key: u32, value: &[u8], out: &mut Emitter) {
        let state = match self.init {
            Some(init) => Some((init(key), value)),
            None => tagged(value, self.tag).and_then(decode),
        };
        let Some((own, adjacency)) = state else {
            return;
        };
        let Some(arcs) = Arcs::of(key, adjacency, self.n) else {
            return;
        };
        if self.init.is_some() {
            out.emit(key, |bytes| {
                put(bytes, self.tag, &own);
                bytes.extend_from_slice(adjacency);
            });
        } else {
            out.emit_bytes(key, value);
        }
        self.step.send(&own, arcs, out);
    }
}

/// A round's reducer: folds the messages of a vertex that has a state
/// record into its next state record.
struct RoundReducer<'a, S> {
    step: &'a S,
    tag: u8,
    n: usize,
}

impl<S: Step> CountingReducer for RoundReducer<'_, S> {
    fn reduce(&self, key: u32, values: &[&[u8]], ctx: &mut ReduceContext<'_>) {
        let state = values
            .iter()
            .find_map(|v| decode::<S::State>(tagged(v, self.tag)?));
        let Some((own, adjacency)) = state else {
            return;
        };
        let Some(arcs) = Arcs::of(key, adjacency, self.n) else {
            return;
        };
        let messages = values
            .iter()
            .filter_map(|v| decode_exact(tagged(v, MESSAGE)?));
        let next = self.step.fold(own, arcs, messages, ctx.counters);
        ctx.out.emit(key, |bytes| {
            put(bytes, self.tag, &next);
            bytes.extend_from_slice(adjacency);
        });
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
    /// Value tag of the state.
    tag: u8,
    /// The candidate a vertex holding the first argument sends along an
    /// arc of the given weight, if any.
    candidate: fn(T, u64) -> Option<T>,
    /// Whether a candidate (first) replaces the own value (second).
    improves: fn(T, T) -> bool,
}

impl<T: Copy + Ord + Codec + Sync> MinKernel<T> {
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
            n,
            kernel: self.kernel,
            tag: self.tag,
            max_rounds: usize::MAX,
            stop_when_unchanged: true,
            ctx,
        };
        let (state, _) = chain.run(&init, |_| *self)?;
        collect_per_vertex(&state, n, self.tag, |s| s, init)
    }
}

/// Sends a candidate along every arc the kernel sends one on, and adopts
/// the minimum candidate when it improves on the own value.
impl<T: Copy + Ord + Codec + Sync> Step for MinKernel<T> {
    type State = T;
    type Message = T;

    fn send(&self, own: &T, arcs: Arcs<'_>, out: &mut Emitter) {
        for (u, w) in arcs {
            if let Some(candidate) = (self.candidate)(*own, w) {
                out.emit(u, |bytes| put(bytes, MESSAGE, &candidate));
            }
        }
    }

    fn fold(
        &self,
        own: T,
        _arcs: Arcs<'_>,
        messages: impl Iterator<Item = T>,
        counters: &mut BTreeMap<String, i64>,
    ) -> T {
        match messages.min() {
            Some(best) if (self.improves)(best, own) => {
                *counters.entry("changed".into()).or_insert(0) += 1;
                best
            }
            _ => own,
        }
    }
}

/// Connected components: every vertex sends its label and keeps the
/// minimum it sees, until no label changes. `splits` hold the adjacency
/// records; `n` is the vertex count.
pub fn connected_components(
    config: &JobConfig,
    splits: &[PathBuf],
    n: usize,
    ctx: &RunContext,
) -> Result<Vec<u32>, PlatformError> {
    let conn = MinKernel::<u32> {
        kernel: "conn",
        tag: b'L',
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
        tag: b'D',
        candidate: |depth, _| (depth >= 0).then(|| depth + 1),
        improves: |_, own| own < 0,
    };
    let init = |v| if Some(v) == source { 0 } else { -1 };
    bfs.run(config, splits, n, init, ctx)
}

/// SSSP from `source` (internal id; `None` = unreachable everywhere):
/// Bellman-Ford rounds over the weighted splits, or the adjacency splits of
/// an unweighted graph — vertices with a finite distance send
/// `dist + weight` — until no distance improves.
pub fn sssp(
    config: &JobConfig,
    splits: &[PathBuf],
    n: usize,
    source: Option<u32>,
    ctx: &RunContext,
) -> Result<Vec<u64>, PlatformError> {
    let inf = graphalytics_algos::INFINITY;
    let sssp = MinKernel::<u64> {
        kernel: "sssp",
        tag: b'T',
        candidate: |dist, weight| {
            (dist != graphalytics_algos::INFINITY).then(|| dist.saturating_add(weight))
        },
        improves: |candidate, own| candidate < own,
    };
    let init = |v| if Some(v) == source { 0 } else { inf };
    sssp.run(config, splits, n, init, ctx)
}

// ------------------------------------------------------------------ CD --

/// A CD state: the label and its score.
#[derive(Clone, Copy)]
struct Community {
    label: u32,
    score: f64,
}

layout!(struct Community { label, score });

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
    type Message = (u32, f64, f64);

    fn send(&self, own: &Community, arcs: Arcs<'_>, out: &mut Emitter) {
        let influence = cd::influence(own.score, arcs.degree(), self.degree_exponent);
        send_each(out, arcs.neighbors(), &(own.label, own.score, influence));
    }

    fn fold(
        &self,
        own: Community,
        _arcs: Arcs<'_>,
        messages: impl Iterator<Item = (u32, f64, f64)>,
        counters: &mut BTreeMap<String, i64>,
    ) -> Community {
        let mut weight = cd::LabelWeights::default();
        for (label, score, influence) in messages {
            cd::add_vote(&mut weight, label, score, influence);
        }
        let (label, score, adopted) =
            cd::adopt_or_keep((own.label, own.score), &mut weight, self.hop_attenuation);
        if adopted {
            *counters.entry("changed".into()).or_insert(0) += 1;
        }
        Community { label, score }
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
        n,
        kernel: "cd",
        tag: b'S',
        max_rounds: iterations,
        stop_when_unchanged: true,
        ctx,
    };
    let step = CommunityStep {
        hop_attenuation,
        degree_exponent,
    };
    let init = |label| Community { label, score: 1.0 };
    let (state, _) = chain.run(&init, |_| step)?;
    collect_per_vertex(&state, n, b'S', |c: Community| c.label, |v| v)
}

// ----------------------------------------------------------------- LCC --

/// LCC's value tags.
const DEGREE: u8 = b'D';
const OWN: u8 = b'O';
const LIST: u8 = b'B';
const TALLY: u8 = b'G';
const CREDIT: u8 = b'C';
const COEFFICIENT: u8 = b'F';

/// A reducer that is one function.
struct ReduceFn(fn(u32, &[&[u8]], &mut Emitter));

impl Reducer for ReduceFn {
    fn reduce(&self, key: u32, values: &[&[u8]], out: &mut Emitter) {
        (self.0)(key, values, out)
    }
}

/// LCC job 1's mapper: `D <self> <degree>` to every neighbour on the
/// vertex's adjacency record, in a graph of `n` vertices.
struct SendDegrees {
    n: usize,
}

impl Mapper for SendDegrees {
    fn map(&self, key: u32, value: &[u8], out: &mut Emitter) {
        let Some(arcs) = Arcs::of(key, value, self.n) else {
            return;
        };
        let degree = arcs.degree();
        out.emit_each(arcs.neighbors(), |bytes| put(bytes, DEGREE, &(key, degree)));
    }
}

/// LCC job 1's reducer: the `D` records are the neighbours and their
/// degrees, so the vertex knows its degree and its oriented list `N⁺`
/// (`metrics::outranks`). It keeps `O <degree> <N⁺>` and sends
/// `B <self> <N⁺>`, written once, to every member of a list of two or
/// more.
fn ship_oriented_lists(key: u32, values: &[&[u8]], out: &mut Emitter) {
    let degree = values.len();
    let mut mine: Vec<u32> = values
        .iter()
        .filter_map(|v| decode_exact::<(u32, usize)>(tagged(v, DEGREE)?))
        .filter(|&(u, deg)| metrics::outranks(deg, u, degree, key))
        .map(|(u, _)| u)
        .collect();
    mine.sort_unstable();
    out.emit(key, |bytes| {
        put(bytes, OWN, &degree);
        u32::encode_slice(&mine, bytes);
    });
    if mine.len() >= 2 {
        out.emit_each(mine.iter().copied(), |bytes| {
            put(bytes, LIST, &key);
            u32::encode_slice(&mine, bytes);
        });
    }
}

/// LCC job 2: merges every received `N⁺(u)` with the own `N⁺(v)`; each
/// common `w` is a triangle `(u, v, w)`. The vertex keeps
/// `G <degree> <its credits>` and sends one summed `C <count>` to each `u`
/// and `w` it credits.
fn credit_triangles(key: u32, values: &[&[u8]], out: &mut Emitter) {
    let own = values.iter().find_map(|v| decode::<usize>(tagged(v, OWN)?));
    let Some((degree, own)) = own else { return };
    let (mut ids, mut theirs) = (Vec::new(), Vec::new());
    if !read_ids(own, &mut ids) {
        return;
    }
    let (mut mine, mut per_w) = (0usize, vec![0usize; ids.len()]);
    for (from, list) in values
        .iter()
        .filter_map(|v| decode::<u32>(tagged(v, LIST)?))
    {
        if !read_ids(list, &mut theirs) {
            continue;
        }
        let hits = metrics::credit_members(&theirs, &ids, &mut per_w);
        if hits > 0 {
            out.emit(from, |bytes| put(bytes, CREDIT, &hits));
        }
        mine += hits;
    }
    for (&w, &count) in ids.iter().zip(&per_w).filter(|&(_, &c)| c > 0) {
        out.emit(w, |bytes| put(bytes, CREDIT, &count));
    }
    out.emit(key, |bytes| put(bytes, TALLY, &(degree, mine)));
}

/// LCC job 3: adds the credits and writes `F <coefficient>`.
fn sum_credits(key: u32, values: &[&[u8]], out: &mut Emitter) {
    let (mut degree, mut triangles) = (None, 0usize);
    for v in values {
        if let Some(credits) = tagged(v, CREDIT).and_then(decode_exact::<usize>) {
            triangles = triangles.saturating_add(credits);
        } else if let Some((d, credits)) = tagged(v, TALLY).and_then(decode_exact::<(usize, usize)>)
        {
            degree = Some(d);
            triangles = triangles.saturating_add(credits);
        }
    }
    if let Some(degree) = degree {
        let coefficient = metrics::closed_pair_fraction(triangles, degree);
        out.emit(key, |bytes| put(bytes, COEFFICIENT, &coefficient));
    }
}

/// Chains the three LCC jobs over the adjacency splits; returns the part
/// files of the `F <coefficient>` records, one for every vertex of
/// degree ≥ 1.
fn lcc_parts(
    config: &JobConfig,
    splits: &[PathBuf],
    n: usize,
    ctx: &RunContext,
) -> Result<Vec<PathBuf>, PlatformError> {
    let (send, orient) = (SendDegrees { n }, ReduceFn(ship_oriented_lists));
    let (_, dir) = run_named_job(config, "stats-orient", splits, &send, &orient, ctx)?;
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

/// LCC, and STATS' coefficients: the three jobs of [`lcc_parts`], their
/// per-vertex records collected in vertex order (vertices with no record —
/// degree < 2 — stay at 0).
pub fn local_clustering(
    config: &JobConfig,
    splits: &[PathBuf],
    n: usize,
    ctx: &RunContext,
) -> Result<Vec<f64>, PlatformError> {
    if n == 0 {
        return Ok(Vec::new());
    }
    let parts = lcc_parts(config, splits, n, ctx)?;
    collect_per_vertex(&parts, n, COEFFICIENT, |c: f64| c, |_| 0.0)
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
    type Message = f64;

    fn send(&self, &own: &f64, arcs: Arcs<'_>, out: &mut Emitter) {
        let degree = arcs.degree();
        if degree > 0 {
            let share = self.rank(own) / degree as f64;
            send_each(out, arcs.neighbors(), &share);
        }
    }

    fn fold(
        &self,
        own: f64,
        arcs: Arcs<'_>,
        messages: impl Iterator<Item = f64>,
        counters: &mut BTreeMap<String, i64>,
    ) -> f64 {
        if arcs.degree() == 0 {
            // Fixed-point micro-units so the counter is an integer.
            *counters.entry("dangling_micros".into()).or_insert(0) +=
                (self.rank(own) * 1e12).round() as i64;
        }
        let mut contributions: Vec<f64> = messages.collect();
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
        n,
        kernel: "pr",
        tag: b'R',
        max_rounds: iterations,
        stop_when_unchanged: false,
        ctx,
    };
    let initial = 1.0 / n as f64;
    let (state, last) = chain.run(&|_| initial, |counters| {
        RankStep::after(damping, n as f64, counters)
    })?;
    let last = RankStep::after(damping, n as f64, last.as_ref());
    collect_per_vertex(&state, n, b'R', |s| last.rank(s), |_| initial)
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
        if let Some(arcs) = Arcs::of(k, v, n) {
            adjacency[k as usize] = arcs.neighbors().collect();
        }
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

    /// Counts its state down to zero, reporting each step as a change; sends
    /// nothing.
    struct CountDown;
    impl Step for CountDown {
        type State = u32;
        type Message = ();

        fn send(&self, _own: &u32, _arcs: Arcs<'_>, _out: &mut Emitter) {}

        fn fold(
            &self,
            own: u32,
            _arcs: Arcs<'_>,
            _messages: impl Iterator<Item = ()>,
            counters: &mut BTreeMap<String, i64>,
        ) -> u32 {
            if own > 0 {
                *counters.entry("changed".into()).or_insert(0) += 1;
            }
            own.saturating_sub(1)
        }
    }

    /// Runs the countdown from 3 on one isolated vertex and returns the
    /// final record's value and the round jobs the chain ran, by output
    /// directory.
    fn count_down(max_rounds: usize, stop_when_unchanged: bool) -> (Vec<u8>, Vec<String>) {
        let scratch = ScratchDir::new(None, "gx-mr-chain").unwrap();
        let split = scratch.path().join("adj-0");
        let mut records = Emitter::default();
        records.emit(0, |bytes| push_adjacency(bytes, &[]));
        records.write_to_file(&split).unwrap();
        let config = JobConfig::new(scratch.path());
        let chain = Chain {
            config: &config,
            splits: &[split],
            n: 1,
            kernel: "tick",
            tag: b'X',
            max_rounds,
            stop_when_unchanged,
            ctx: &RunContext::unbounded(),
        };
        let (state, _) = chain.run(&|_| 3, |_| CountDown).unwrap();
        let mut last = Vec::new();
        for_each_record(&state, |_, v| {
            last.extend_from_slice(v);
            Ok(())
        })
        .unwrap();
        let mut rounds: Vec<String> = std::fs::read_dir(scratch.path())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.starts_with("tick-"))
            .collect();
        rounds.sort();
        (last, rounds)
    }

    /// A countdown state record: `X`, the count, the empty adjacency.
    fn state(count: u32) -> Vec<u8> {
        let mut bytes = Vec::new();
        put(&mut bytes, b'X', &count);
        push_adjacency(&mut bytes, &[]);
        bytes
    }

    #[test]
    fn chain_stops_on_a_round_without_changes_and_keeps_every_state_file() {
        // 3 → 2 → 1 → 0 change; the fourth round changes nothing and ends
        // the chain, its output still kept as state 4.
        let (last, rounds) = count_down(usize::MAX, true);
        assert_eq!(last, state(0));
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
        assert_eq!(last, state(1));
        assert_eq!(rounds, ["tick-round-0", "tick-round-1"]);
        // No rounds at all: the splits are the result.
        let (last, rounds) = count_down(0, true);
        assert_eq!(last, b"N");
        assert!(rounds.is_empty());
    }

    #[test]
    fn chain_runs_its_rounds_out_when_changes_do_not_stop_it() {
        // PageRank's mode: rounds 5 and 6 change nothing and still run.
        let (last, rounds) = count_down(6, false);
        assert_eq!(last, state(0));
        assert_eq!(rounds.len(), 6);
    }

    #[test]
    fn arcs_read_both_adjacency_tags() {
        let mut plain = Vec::new();
        push_adjacency(&mut plain, &[3, 14]);
        assert_eq!(plain, [b'N', 3, 0, 0, 0, 14, 0, 0, 0]);
        let of = |v, adjacency| Arcs::of(v, adjacency, 15);
        let arcs: Vec<_> = of(0, &plain).unwrap().collect();
        assert_eq!(arcs, [(3, WEIGHT_SCALE), (14, WEIGHT_SCALE)]);
        let mut weighted = Vec::new();
        push_weighted_adjacency(&mut weighted, &[3, 14], &[500, 7]);
        let arcs: Vec<_> = of(14, &weighted).unwrap().collect();
        assert_eq!(arcs, [(3, 500), (14, 7)]);
        assert_eq!(of(0, &weighted).unwrap().degree(), 2);
        assert_eq!(of(0, b"N").unwrap().count(), 0);
        // A list that is not whole arcs, no known tag, or a vertex past the
        // graph's 14: no arcs at all.
        assert!(of(0, &plain[..8]).is_none());
        assert!(of(0, &weighted[..20]).is_none());
        assert!(of(0, &plain[1..]).is_none());
        assert!(of(0, b"").is_none());
        assert!(of(15, b"N").is_none());
        assert!(Arcs::of(0, &plain, 14).is_none());
    }
}
