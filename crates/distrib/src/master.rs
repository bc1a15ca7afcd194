//! The master process side: the fleet transport of the Pregel superstep
//! loop ([`graphalytics_pregel::drive`]). It spawns the worker fleet, runs
//! each superstep on it, collects checkpoints and reports, and relaunches
//! the fleet from a checkpoint when the loop restarts it.

use std::io::{self, BufRead, BufReader};
use std::marker::PhantomData;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::thread::JoinHandle;
// lint:allow(determinism-time): socket timeouts bound the wait for lost workers
use std::time::Duration;

use graphalytics_codec::Codec;
use graphalytics_core::platform::{PlatformError, RunContext};
use graphalytics_pregel::{PregelStats, Report, Step, Transport};

use crate::net::{self, io_timeout};
use crate::protocol::{
    decode_blob, expect_frame, read_frame_counted, write_frame, Frame, PlanFrame,
};
use crate::telemetry;

/// Execution statistics of one distributed run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MasterStats {
    /// The superstep loop's statistics, folded as for in-process Giraph.
    pub pregel: PregelStats,
    /// Real wire bytes: shuffle frames between workers plus control frames
    /// on the master connections.
    pub network_bytes: u64,
    /// Telemetry frames received from workers. Zero whenever the master's
    /// tracer is disabled — the differential gate pins this.
    pub telemetry_frames: u64,
}

/// What every fleet of one run is launched with.
pub(crate) struct Launch {
    /// Path of the `gx-distrib-worker` binary.
    pub worker_bin: PathBuf,
    /// The plan every worker gets; each worker's copy names the worker,
    /// the incarnation, the resume superstep and the trace flag.
    pub plan: PlanFrame,
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
    /// Control-plane wire bytes (frames sent and received on the master
    /// connections) since the last [`Fleet::take_control_bytes`].
    control_bytes: u64,
    /// Telemetry frames absorbed off the control connections, awaiting
    /// merge. Deliberately excluded from `control_bytes` so the reported
    /// wire accounting is identical with tracing on or off.
    pending_telemetry: Vec<(u32, u32, Vec<u8>)>,
    /// Per worker, the run tracer's clock when its Plan was sent: where
    /// that worker's span clock starts on the master's timeline.
    origins: Vec<f64>,
}

impl Fleet {
    /// Forks `workers` processes, completes the handshake (`Hello` →
    /// `Plan` → `Ready` → `Peers` → `MeshReady`), and returns the
    /// connected fleet.
    fn launch(
        cfg: &Launch,
        incarnation: u32,
        resume: Option<u64>,
        ctx: &RunContext,
    ) -> Result<Fleet, PlatformError> {
        let workers = cfg.plan.workers as usize;
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
            control_bytes: 0,
            pending_telemetry: Vec::new(),
            origins: Vec::with_capacity(workers),
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
                incarnation,
                resume,
                trace: ctx.tracer().enabled(),
                ..cfg.plan.clone()
            });
            // Read before the send, so a worker span is never translated
            // late: the worker's clock starts after the plan arrives.
            fleet.origins.push(ctx.tracer().now_seconds());
            fleet
                .send_to(w, &plan)
                .map_err(|e| PlatformError::TransientIo(format!("send plan to {w}: {e}")))?;
        }
        // Collect Ready (peer ports), broadcast the port map, and wait for
        // every worker's mesh.
        let mut ports = vec![0u32; workers];
        for (w, port) in ports.iter_mut().enumerate() {
            *port = expect_frame!(
                fleet.recv_from(w),
                Frame::Ready { peer_port } => u32::from(peer_port),
                "Ready from {w}"
            )
            .map_err(|e| PlatformError::TransientIo(format!("ready from {w}: {e}")))?
            .map_err(PlatformError::Internal)?;
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

    /// Kills and reaps every worker process, then joins the stderr relays
    /// (their pipes close when the children die).
    fn kill(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
        }
        for mut child in self.children.drain(..) {
            let _ = child.wait();
        }
        for relay in self.relays.drain(..) {
            let _ = relay.join();
        }
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
    fn drop(&mut self) {
        self.kill();
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

/// The fleet transport: one fleet of worker processes at a time, and the
/// wire accounting the in-process transport has no use for. A restore
/// kills the fleet and launches the next incarnation from the checkpoint;
/// dropping the transport kills the last one.
pub(crate) struct FleetTransport<'a, S> {
    launch: Launch,
    fleet: Fleet,
    ctx: &'a RunContext,
    /// The superstep running, or between supersteps the next one: where a
    /// lost worker is reported.
    superstep: u64,
    /// Wire bytes and telemetry frames so far; `pregel` stays default.
    pub stats: MasterStats,
    states: PhantomData<S>,
}

impl<'a, S: Codec> FleetTransport<'a, S> {
    /// Launches the run's first fleet.
    pub fn launch(launch: Launch, ctx: &'a RunContext) -> Result<Self, PlatformError> {
        let fleet = Fleet::launch(&launch, 0, None, ctx)?;
        Ok(Self {
            launch,
            fleet,
            ctx,
            superstep: 0,
            stats: MasterStats::default(),
            states: PhantomData,
        })
    }

    /// Merges every absorbed Telemetry frame into the run tracer under the
    /// innermost open span and counts the frames.
    pub fn drain_telemetry(&mut self) {
        let parent = self.ctx.tracer().current_span_id();
        for (worker, incarnation, blob) in std::mem::take(&mut self.fleet.pending_telemetry) {
            self.stats.telemetry_frames += 1;
            // A frame naming a worker this fleet never planned merges nothing.
            if let Some(&origin) = self.fleet.origins.get(worker as usize) {
                telemetry::merge(
                    self.ctx.tracer(),
                    origin,
                    worker,
                    incarnation,
                    &blob,
                    parent,
                );
            }
        }
    }

    fn workers(&self) -> usize {
        self.launch.plan.workers as usize
    }

    /// Worker `w`'s connection failed: the lost worker is the first child
    /// seen exited, or else `w`.
    fn lost(&mut self, w: usize) -> PlatformError {
        PlatformError::WorkerLost {
            worker: self.fleet.first_dead().map_or(w as u32, |(dead, _)| dead),
            superstep: self.superstep as usize,
        }
    }

    /// Maps an [`expect_frame!`] receive from worker `w`: a failed read
    /// lost the worker, any other frame fails the run.
    fn expected<T>(
        &mut self,
        w: usize,
        received: io::Result<Result<T, String>>,
    ) -> Result<T, PlatformError> {
        match received {
            Ok(Ok(value)) => Ok(value),
            Ok(Err(unexpected)) => Err(PlatformError::Internal(unexpected)),
            Err(_) => Err(self.lost(w)),
        }
    }

    /// Receives the due checkpoint's `CheckpointDone`s into `checkpointed`,
    /// then every worker's `StepDone`; returns the reports and the bytes
    /// the workers shuffled.
    fn receive(
        &mut self,
        step: Step,
        checkpointed: &mut Option<usize>,
    ) -> Result<(Vec<Report>, u64), PlatformError> {
        let superstep = step.superstep;
        if step.checkpoint {
            let mut total = 0u64;
            for w in 0..self.workers() {
                let received = expect_frame!(
                    self.fleet.recv_from(w),
                    Frame::CheckpointDone { superstep: s, bytes } if s == superstep => bytes,
                    "CheckpointDone from {w}"
                );
                total += self.expected(w, received)?;
            }
            // All N checkpoint files are durable: this superstep is now
            // the fleet's restore point.
            *checkpointed = Some(total as usize);
        }
        let mut reports = Vec::with_capacity(self.workers());
        let mut shuffle_bytes = 0;
        for w in 0..self.workers() {
            let received = expect_frame!(
                self.fleet.recv_from(w),
                Frame::StepDone(r) if r.superstep == superstep => r,
                "StepDone from {w}"
            );
            let r = self.expected(w, received)?;
            shuffle_bytes += r.bytes_sent;
            reports.push(Report {
                computed: r.computed as usize,
                awake: r.active_after as usize,
                sent: r.sent as usize,
                sent_remote: r.sent_remote as usize,
                aggregate: r.aggregate,
                timing: None,
            });
        }
        Ok((reports, shuffle_bytes))
    }

    /// Asks every worker for its final states.
    fn collect(&mut self) -> Result<Vec<Vec<S>>, PlatformError> {
        let mut per_worker = Vec::with_capacity(self.workers());
        for w in 0..self.workers() {
            if self.fleet.send_to(w, &Frame::Finish).is_err() {
                return Err(self.lost(w));
            }
            let received = expect_frame!(
                self.fleet.recv_from(w),
                Frame::Output { worker, states } if worker as usize == w => states,
                "Output from {w}"
            );
            let states = self.expected(w, received)?;
            per_worker.push(decode_blob(&states).ok_or_else(|| {
                PlatformError::Internal(format!("corrupt output blob from worker {w}"))
            })?);
        }
        Ok(per_worker)
    }
}

impl<S: Codec> Transport for FleetTransport<'_, S> {
    type State = S;
    const SUPERSTEP_SPAN: &'static str = "distrib.superstep";
    const TASK_EVENT: &'static str = "distrib.task";

    fn superstep(
        &mut self,
        step: Step,
        checkpointed: &mut Option<usize>,
    ) -> Result<(Vec<Report>, Option<u64>), PlatformError> {
        self.superstep = step.superstep;
        for w in 0..self.workers() {
            // Only the worker the probe chose is told to crash, after its
            // due checkpoint and before compute.
            let start = Frame::StartSuperstep {
                superstep: step.superstep,
                prev_aggregate: step.prev_aggregate,
                checkpoint: step.checkpoint,
                crash: step.crash == Some(w as u32),
            };
            if self.fleet.send_to(w, &start).is_err() {
                return Err(self.lost(w));
            }
        }
        // The master's wait for the fleet. It closes before the worker
        // spans are merged, so they nest under the superstep, and a loss
        // discards it with the superstep's span.
        let mut collect = self.ctx.tracer().span("distrib.master.collect");
        collect.field("superstep", step.superstep);
        let received = self.receive(step, checkpointed);
        match received {
            Ok(_) => drop(collect),
            Err(_) => collect.discard(),
        }
        let (reports, shuffle_bytes) = received?;
        // Merge the worker spans shipped alongside this barrier under the
        // superstep span, so the fleet timeline nests per superstep.
        self.drain_telemetry();
        let step_bytes = shuffle_bytes + self.fleet.take_control_bytes();
        let remote: usize = reports.iter().map(|r| r.sent_remote).sum();
        let metrics = self.ctx.tracer().metrics();
        metrics.inc_counter(
            "graphalytics_network_bytes_total",
            &[PLATFORM_LABEL],
            step_bytes,
        );
        metrics.inc_counter(
            "graphalytics_network_messages_total",
            &[PLATFORM_LABEL],
            remote as u64,
        );
        self.stats.network_bytes += step_bytes;
        self.superstep += 1;
        Ok((reports, Some(step_bytes)))
    }

    fn restore(&mut self, superstep: u64, incarnation: u32) -> Result<(), PlatformError> {
        // A loss keeps whatever the lost fleet shipped before it.
        self.drain_telemetry();
        // The lost fleet dies before the next one forks.
        self.fleet.kill();
        self.fleet = Fleet::launch(&self.launch, incarnation, Some(superstep), self.ctx)?;
        Ok(())
    }

    fn finish(&mut self) -> Result<Vec<Vec<S>>, PlatformError> {
        let per_worker = self.collect();
        // Workers flush their remaining spans right before Output.
        self.drain_telemetry();
        if per_worker.is_ok() {
            self.stats.network_bytes += self.fleet.take_control_bytes();
        }
        per_worker
    }
}
