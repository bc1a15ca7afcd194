//! The master process side: spawns the worker fleet, drives the superstep
//! barrier, coordinates checkpoints, and restarts the fleet from the last
//! complete checkpoint when a worker process dies.

use std::io::{self, BufRead, BufReader};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::thread::JoinHandle;
// lint:allow(determinism-time): socket timeouts bound the wait for lost workers
use std::time::Duration;

use graphalytics_algos::Algorithm;
use graphalytics_codec::Codec;
use graphalytics_core::faults::{FaultPlan, FaultSite, RecoveryAction};
use graphalytics_core::platform::{PlatformError, RunContext};

use crate::net::{self, io_timeout};
use crate::partition::PartitionPlan;
use crate::protocol::{
    decode_blob, expect_frame, read_frame_counted, write_frame, Frame, PlanFrame, StepReport,
};
use crate::telemetry::TelemetryMerger;

/// Master-side configuration for one distributed run.
#[derive(Debug, Clone)]
pub struct MasterConfig {
    /// Worker process count.
    pub workers: u32,
    /// Checkpoint every N supersteps (`None` never checkpoints — and a
    /// worker loss then fails the run, as in the in-process engine).
    pub checkpoint_interval: Option<u64>,
    /// Hard superstep cap.
    pub max_supersteps: u64,
    /// Fleet restarts allowed before a worker loss escalates.
    pub max_restarts: u32,
    /// Path of the `gx-distrib-worker` binary.
    pub worker_bin: PathBuf,
    /// Dataset prefix workers read (`prefix.v` / `prefix.e`).
    pub graph_prefix: PathBuf,
    /// Whether the dataset is directed.
    pub directed: bool,
    /// Whether the edge file carries weights.
    pub weighted: bool,
    /// Directory for checkpoint files.
    pub checkpoint_dir: PathBuf,
    /// Run identifier stamped into the trace context every worker receives
    /// (the driver's per-platform run sequence number).
    pub run_id: u64,
}

/// Fleet-level execution statistics of one coordinated run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MasterStats {
    /// Supersteps executed (re-executed supersteps count again).
    pub supersteps: u64,
    /// Total messages generated.
    pub messages_total: u64,
    /// Messages that crossed worker processes.
    pub messages_remote: u64,
    /// Real wire bytes: shuffle frames between workers plus control frames
    /// on the master connections.
    pub network_bytes: u64,
    /// Fleet restarts performed (checkpoint recoveries).
    pub restarts: u32,
    /// Telemetry frames received from workers. Zero whenever the master's
    /// tracer is disabled — the differential gate pins this.
    pub telemetry_frames: u64,
}

/// The label every distributed-runtime metric carries.
pub const PLATFORM_LABEL: (&str, &str) = ("platform", "distributed-pregel");

/// A worker fleet: the processes, their control connections and their
/// stderr relays. It owns its processes: dropping it kills and reaps every
/// child, then joins the relays — on success, on an early `?` return and
/// while unwinding, like `core::ScratchDir`.
struct Fleet {
    children: Vec<Child>,
    conns: Vec<TcpStream>,
    /// Stderr relay threads, one per worker; joined on drop.
    relays: Vec<JoinHandle<()>>,
    /// Fleet-wide runnable-vertex count reported at `Ready`.
    runnable: u64,
    /// Control-plane wire bytes (frames sent and received on the master
    /// connections) since the last [`Fleet::take_control_bytes`].
    control_bytes: u64,
    /// Telemetry frames absorbed off the control connections, awaiting
    /// merge. Deliberately excluded from `control_bytes` so the reported
    /// wire accounting is identical with tracing on or off.
    pending_telemetry: Vec<(u32, u32, Vec<u8>)>,
}

impl Fleet {
    /// Forks `workers` processes, completes the handshake (`Hello` →
    /// `Plan` → `Ready` → `Peers` → `MeshReady`), and returns the
    /// connected fleet.
    fn launch(
        cfg: &MasterConfig,
        algorithm: &Algorithm,
        fault_plan: &FaultPlan,
        incarnation: u32,
        resume: Option<(u64, f64)>,
        ctx: &RunContext,
    ) -> Result<Fleet, PlatformError> {
        let workers = cfg.workers.max(1) as usize;
        // A malformed knob fails the run before a process is forked.
        let timeout = io_timeout().map_err(|e| PlatformError::Internal(e.to_string()))?;
        let listener = TcpListener::bind("127.0.0.1:0")
            .map_err(|e| PlatformError::TransientIo(format!("bind control: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| PlatformError::TransientIo(format!("control addr: {e}")))?;
        // From the first fork to the last MeshReady: process start, the
        // handshake and every worker's graph load.
        let mut launch = ctx.tracer().span("distrib.launch");
        launch
            .field("workers", workers as u64)
            .field("incarnation", incarnation as u64);
        // Built before the first fork, so a spawn failing part-way reaps
        // the workers already started.
        let mut fleet = Fleet {
            children: Vec::with_capacity(workers),
            conns: Vec::new(),
            relays: Vec::with_capacity(workers),
            runnable: 0,
            control_bytes: 0,
            pending_telemetry: Vec::new(),
        };
        for w in 0..workers {
            let mut command = Command::new(&cfg.worker_bin);
            command
                .arg(format!("--master={addr}"))
                .arg(format!("--worker={w}"))
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::piped());
            // lint:allow(spawn-audit): forking the worker fleet is the point of this runtime
            let mut child = command.spawn().map_err(|e| {
                PlatformError::Unsupported(format!(
                    "cannot spawn worker binary {}: {e}",
                    cfg.worker_bin.display()
                ))
            })?;
            // Relay the worker's stderr line by line under a `[w<id>:i<inc>]`
            // prefix so interleaved fleet logs stay attributable.
            let stderr = child.stderr.take();
            fleet.children.push(child);
            // lint:allow(spawn-audit): stderr relay thread per worker; exits when the pipe closes
            fleet.relays.push(std::thread::spawn(move || {
                if let Some(stderr) = stderr {
                    for line in BufReader::new(stderr).lines() {
                        let Ok(line) = line else { break };
                        eprintln!("[w{w}:i{incarnation}] {line}");
                    }
                }
            }));
        }
        // Accept one control connection per worker; identify by Hello.
        let mut conns: Vec<Option<TcpStream>> = (0..workers).map(|_| None).collect();
        listener
            .set_nonblocking(true)
            .map_err(|e| PlatformError::TransientIo(e.to_string()))?;
        // Freshly forked workers connect within a millisecond, so the poll
        // starts short and doubles up to 5 ms; the wait is bounded by the
        // time slept, which needs no clock.
        let mut poll = Duration::from_micros(100);
        let mut waited = Duration::ZERO;
        let mut accepted = 0usize;
        while accepted < workers {
            match net::accept(&listener, timeout) {
                Ok(mut stream) => {
                    let received = recv_control(
                        &mut stream,
                        &mut fleet.control_bytes,
                        &mut fleet.pending_telemetry,
                    );
                    let w = expect_frame!(
                        received,
                        Frame::Hello { worker } => worker as usize,
                        "Hello"
                    )
                    .map_err(|e| PlatformError::TransientIo(format!("worker hello: {e}")))?
                    .map_err(PlatformError::Internal)?;
                    if w >= workers || conns[w].is_some() {
                        return Err(PlatformError::Internal(format!(
                            "unexpected hello from worker {w}"
                        )));
                    }
                    conns[w] = Some(stream);
                    accepted += 1;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    // A worker only exits before its Hello when it failed.
                    if let Some((w, status)) = fleet.first_dead() {
                        return Err(PlatformError::TransientIo(format!(
                            "worker {w} exited before connecting ({status})"
                        )));
                    }
                    if waited >= timeout {
                        return Err(PlatformError::TransientIo(
                            "timed out waiting for worker fleet to connect".to_string(),
                        ));
                    }
                    std::thread::sleep(poll);
                    waited += poll;
                    poll = (poll * 2).min(Duration::from_millis(5));
                }
                Err(e) => return Err(PlatformError::TransientIo(format!("accept: {e}"))),
            }
        }
        fleet.conns = conns.into_iter().flatten().collect();
        // Hand every worker its plan.
        for w in 0..workers {
            let plan = Frame::Plan(PlanFrame {
                worker: w as u32,
                workers: workers as u32,
                algorithm: algorithm.clone(),
                graph_prefix: cfg.graph_prefix.display().to_string(),
                directed: cfg.directed,
                weighted: cfg.weighted,
                checkpoint_dir: cfg.checkpoint_dir.display().to_string(),
                checkpoint_interval: cfg.checkpoint_interval.unwrap_or(0),
                incarnation,
                resume: resume.is_some(),
                resume_superstep: resume.map_or(0, |r| r.0),
                fault_plan: fault_plan.clone(),
                trace: ctx.tracer().enabled(),
                run_id: cfg.run_id,
                clock_origin: ctx.tracer().now_seconds(),
            });
            fleet
                .send_to(w, &plan)
                .map_err(|e| PlatformError::TransientIo(format!("send plan to {w}: {e}")))?;
        }
        // Collect Ready (peer ports + runnable counts), broadcast the
        // port map, and wait for every worker's mesh.
        let mut ports = vec![0u32; workers];
        for (w, port) in ports.iter_mut().enumerate() {
            let (peer_port, runnable) = expect_frame!(
                fleet.recv_from(w),
                Frame::Ready { peer_port, runnable } => (peer_port, runnable),
                "Ready from {w}"
            )
            .map_err(|e| PlatformError::TransientIo(format!("ready from {w}: {e}")))?
            .map_err(PlatformError::Internal)?;
            *port = peer_port;
            fleet.runnable += runnable;
        }
        let peers = Frame::Peers { ports };
        for w in 0..workers {
            fleet
                .send_to(w, &peers)
                .map_err(|e| PlatformError::TransientIo(format!("send peers to {w}: {e}")))?;
        }
        for w in 0..workers {
            expect_frame!(fleet.recv_from(w), Frame::MeshReady => (), "MeshReady from {w}")
                .map_err(|e| PlatformError::TransientIo(format!("mesh from {w}: {e}")))?
                .map_err(PlatformError::Internal)?;
        }
        drop(launch);
        Ok(fleet)
    }

    fn send_to(&mut self, w: usize, frame: &Frame) -> io::Result<()> {
        let n = write_frame(&mut self.conns[w], frame)?;
        self.control_bytes += n as u64;
        Ok(())
    }

    fn recv_from(&mut self, w: usize) -> io::Result<Frame> {
        recv_control(
            &mut self.conns[w],
            &mut self.control_bytes,
            &mut self.pending_telemetry,
        )
    }

    fn take_control_bytes(&mut self) -> u64 {
        std::mem::take(&mut self.control_bytes)
    }

    /// First child that has exited, if any, with its exit status.
    fn first_dead(&mut self) -> Option<(u32, ExitStatus)> {
        for (w, child) in self.children.iter_mut().enumerate() {
            if let Ok(Some(status)) = child.try_wait() {
                return Some((w as u32, status));
            }
        }
        None
    }
}

impl Drop for Fleet {
    /// Kills and reaps every worker process, then joins the stderr relays
    /// (their pipes close when the children die).
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
        }
        for child in &mut self.children {
            let _ = child.wait();
        }
        for relay in self.relays.drain(..) {
            let _ = relay.join();
        }
    }
}

/// Reads the next frame off a control connection and counts its wire bytes
/// into `control_bytes`. `Telemetry` frames in between are set aside in
/// `telemetry` without being counted: the wire accounting a traced and an
/// untraced run report must be identical.
fn recv_control(
    stream: &mut TcpStream,
    control_bytes: &mut u64,
    telemetry: &mut Vec<(u32, u32, Vec<u8>)>,
) -> io::Result<Frame> {
    loop {
        match read_frame_counted(stream)? {
            (
                Frame::Telemetry {
                    worker,
                    incarnation,
                    spans,
                },
                _,
            ) => telemetry.push((worker, incarnation, spans)),
            (frame, bytes) => {
                *control_bytes += bytes as u64;
                return Ok(frame);
            }
        }
    }
}

/// What interrupted a fleet's run: the lost worker, or a hard error.
enum Loss {
    Worker(u32),
    Fatal(PlatformError),
}

impl Loss {
    /// Maps an [`expect_frame!`] receive from worker `w`: a failed read
    /// lost the worker, any other frame is fatal.
    fn expected<T>(w: usize, received: io::Result<Result<T, String>>) -> Result<T, Loss> {
        match received {
            Ok(Ok(value)) => Ok(value),
            Ok(Err(unexpected)) => Err(Loss::Fatal(PlatformError::Internal(unexpected))),
            Err(_) => Err(Loss::Worker(w as u32)),
        }
    }
}

/// How far the run has come: the superstep under way, and the last one
/// whose checkpoints all landed, with its incoming aggregate — where a
/// restarted fleet resumes.
#[derive(Default)]
struct Progress {
    superstep: u64,
    last_checkpoint: Option<(u64, f64)>,
}

/// Runs `algorithm` on a fleet of worker processes to completion and
/// returns the merged global state vector (internal-id order — the same
/// vector the in-process engine returns) plus fleet statistics.
///
/// Recovery is a *fleet restart*: when a worker process dies, the fleet is
/// dropped (which kills it), the incarnation counter bumps, and a fresh
/// fleet resumes from the last superstep whose checkpoints all landed.
/// Without a complete checkpoint (or past the restart budget) the loss
/// escalates as [`PlatformError::WorkerLost`].
pub fn coordinate<S: Codec + Clone>(
    cfg: &MasterConfig,
    algorithm: &Algorithm,
    fault_plan: &FaultPlan,
    part: &PartitionPlan,
    ctx: &RunContext,
) -> Result<(Vec<S>, MasterStats), PlatformError> {
    let mut stats = MasterStats::default();
    let mut incarnation = 0u32;
    let mut progress = Progress::default();
    // One merger across all incarnations: its `(worker, incarnation, seq)`
    // dedup is what keeps a restarted worker's re-shipped spans from
    // double-counting in the merged trace.
    let mut merger = TelemetryMerger::new();
    loop {
        ctx.check_deadline()?;
        let resume = progress.last_checkpoint;
        let mut fleet = Fleet::launch(cfg, algorithm, fault_plan, incarnation, resume, ctx)?;
        let outcome = run_fleet::<S>(cfg, &mut fleet, &mut progress, &mut merger, &mut stats, ctx);
        // Workers flush their remaining spans right before Output, and a
        // loss keeps whatever the fleet shipped before it — the merger's
        // seq dedup makes a later re-shipment harmless. Merge them under
        // the caller's current span.
        drain_telemetry(
            &mut fleet,
            &mut merger,
            ctx,
            ctx.tracer().current_span_id(),
            &mut stats,
        );
        match outcome {
            Ok(per_worker) => {
                stats.network_bytes += fleet.take_control_bytes();
                let merged = part
                    .merge(&per_worker)
                    .ok_or_else(|| PlatformError::Internal("output size mismatch".to_string()))?;
                return Ok((merged, stats));
            }
            Err(Loss::Fatal(e)) => return Err(e),
            Err(Loss::Worker(w)) => {
                recover(cfg, fault_plan, &mut fleet, w, &progress, incarnation, ctx)?;
                incarnation += 1;
                stats.restarts += 1;
            }
        }
    }
}

/// Drives one fleet from its resume point through the last superstep, then
/// collects every worker's final states.
fn run_fleet<S: Codec>(
    cfg: &MasterConfig,
    fleet: &mut Fleet,
    progress: &mut Progress,
    merger: &mut TelemetryMerger,
    stats: &mut MasterStats,
    ctx: &RunContext,
) -> Result<Vec<Vec<S>>, Loss> {
    let workers = cfg.workers.max(1) as usize;
    progress.superstep = progress.last_checkpoint.map_or(0, |r| r.0);
    let mut prev_aggregate = progress.last_checkpoint.map_or(0.0, |r| r.1);
    let mut runnable = fleet.runnable > 0;
    while runnable && progress.superstep < cfg.max_supersteps {
        ctx.check_deadline().map_err(Loss::Fatal)?;
        let superstep = progress.superstep;
        let checkpoint = cfg
            .checkpoint_interval
            .is_some_and(|i| i > 0 && superstep.is_multiple_of(i));
        let start = Frame::StartSuperstep {
            superstep,
            prev_aggregate,
            checkpoint,
        };
        for w in 0..workers {
            fleet
                .send_to(w, &start)
                .map_err(|_| Loss::Worker(w as u32))?;
        }
        if checkpoint {
            let mut total = 0u64;
            for w in 0..workers {
                total += Loss::expected(
                    w,
                    expect_frame!(
                        fleet.recv_from(w),
                        Frame::CheckpointDone { superstep: s, bytes } if s == superstep => bytes,
                        "CheckpointDone from {w}"
                    ),
                )?;
            }
            // All N checkpoint files are durable: this superstep is now
            // the fleet's restore point.
            ctx.note_checkpoint(superstep, total as usize);
            progress.last_checkpoint = Some((superstep, prev_aggregate));
        }
        let mut reports: Vec<StepReport> = Vec::with_capacity(workers);
        for w in 0..workers {
            reports.push(Loss::expected(
                w,
                expect_frame!(
                    fleet.recv_from(w),
                    Frame::StepDone(r) if r.superstep == superstep => r,
                    "StepDone from {w}"
                ),
            )?);
        }
        // Barrier bookkeeping: aggregates fold in worker-id order so
        // the f64 sum is bitwise-identical to the in-process engine's.
        let computed: u64 = reports.iter().map(|r| r.computed).sum();
        let active_after: u64 = reports.iter().map(|r| r.active_after).sum();
        let sent: u64 = reports.iter().map(|r| r.sent).sum();
        let remote: u64 = reports.iter().map(|r| r.sent_remote).sum();
        let shuffle_bytes: u64 = reports.iter().map(|r| r.bytes_sent).sum();
        let step_aggregate: f64 = reports.iter().map(|r| r.aggregate).sum();
        let step_bytes = shuffle_bytes + fleet.take_control_bytes();
        let mut span = ctx.tracer().span("distrib.superstep");
        span.field("superstep", superstep)
            .field("active_vertices", computed)
            .field("messages_sent", sent)
            .field("messages_remote", remote)
            .field("network_bytes", step_bytes)
            .field("aggregate", step_aggregate)
            .field("seq_accesses", computed)
            .field("rand_accesses", sent);
        let span_id = span.id();
        for (w, r) in reports.iter().enumerate() {
            ctx.tracer().event(
                "distrib.task",
                span_id,
                vec![
                    ("worker".to_string(), (w as u64).into()),
                    ("work".to_string(), r.computed.into()),
                    ("messages".to_string(), r.sent.into()),
                ],
            );
        }
        // Merge the worker spans shipped alongside this barrier under
        // the superstep span, so the fleet timeline nests per superstep.
        drain_telemetry(fleet, merger, ctx, span_id, stats);
        let metrics = ctx.tracer().metrics();
        metrics.inc_counter(
            "graphalytics_network_bytes_total",
            &[PLATFORM_LABEL],
            step_bytes,
        );
        metrics.inc_counter(
            "graphalytics_network_messages_total",
            &[PLATFORM_LABEL],
            remote,
        );
        stats.supersteps += 1;
        stats.messages_total += sent;
        stats.messages_remote += remote;
        stats.network_bytes += step_bytes;
        prev_aggregate = step_aggregate;
        runnable = sent > 0 || active_after > 0;
        progress.superstep += 1;
    }
    // Drain final states from every worker.
    let mut per_worker: Vec<Vec<S>> = Vec::with_capacity(workers);
    for w in 0..workers {
        fleet
            .send_to(w, &Frame::Finish)
            .map_err(|_| Loss::Worker(w as u32))?;
        let states = Loss::expected(
            w,
            expect_frame!(
                fleet.recv_from(w),
                Frame::Output { worker, states } if worker as usize == w => states,
                "Output from {w}"
            ),
        )?;
        per_worker.push(decode_blob(&states).ok_or_else(|| {
            Loss::Fatal(PlatformError::Internal(format!(
                "corrupt output blob from worker {w}"
            )))
        })?);
    }
    Ok(per_worker)
}

/// Merges every absorbed Telemetry frame into the run tracer under
/// `parent` and counts the frames into `stats`.
fn drain_telemetry(
    fleet: &mut Fleet,
    merger: &mut TelemetryMerger,
    ctx: &RunContext,
    parent: Option<u64>,
    stats: &mut MasterStats,
) {
    for (worker, incarnation, blob) in std::mem::take(&mut fleet.pending_telemetry) {
        stats.telemetry_frames += 1;
        merger.merge(worker, incarnation, &blob, ctx.tracer(), parent);
    }
}

/// Attributes a worker loss, records the injection and recovery against the
/// run context, and either green-lights a fleet restart from
/// `progress.last_checkpoint` or escalates.
fn recover(
    cfg: &MasterConfig,
    fault_plan: &FaultPlan,
    fleet: &mut Fleet,
    eof_worker: u32,
    progress: &Progress,
    incarnation: u32,
    ctx: &RunContext,
) -> Result<(), PlatformError> {
    let superstep = progress.superstep;
    // Attribute the loss. The fault plan is pure, so the master re-derives
    // which worker the plan killed this superstep — scanning worker ids in
    // ascending order, exactly like the in-process engine's probe — and
    // only falls back to observed child exits for unplanned deaths.
    let planned = (0..cfg.workers.max(1)).find(|&w| {
        fault_plan.enabled()
            && fault_plan.decides(&FaultSite::PregelWorker {
                superstep,
                worker: w,
                incarnation,
            })
    });
    let dead = planned
        .or_else(|| fleet.first_dead().map(|(w, _)| w))
        .unwrap_or(eof_worker);
    let site = FaultSite::PregelWorker {
        superstep,
        worker: dead,
        incarnation,
    };
    // Record the injection (the injector's log is the seed-stability
    // evidence); for a planned site this returns the transient error the
    // plan dictates, which recovery absorbs.
    let injected_err = ctx.inject(site.clone()).err();
    if progress.last_checkpoint.is_some() && incarnation < cfg.max_restarts {
        ctx.note_recovery(RecoveryAction::CheckpointRestart, Some(site), 0);
        return Ok(());
    }
    Err(injected_err.unwrap_or(PlatformError::WorkerLost {
        worker: dead,
        superstep: superstep as usize,
    }))
}
