//! The worker process: owns one partition, exchanges shuffle batches with
//! its peers, and reports superstep results to the master.
//!
//! A worker's compute phase is [`compute_partition`] — the *same function*
//! the in-process engine runs in its worker threads — over global-length
//! state buffers restricted to the worker's partition list. Incoming
//! shuffle batches are applied in sender-worker-id order, which reproduces
//! the in-process barrier's message-routing order exactly; together these
//! make a distributed run's output byte-identical to a single-process run
//! with the same worker count.

use std::fs;
use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
// lint:allow(determinism-time): socket read timeouts bound the wait for lost peers
use std::time::Duration;

use graphalytics_algos::Output;
use graphalytics_core::faults::{FaultSite, Snapshot};
use graphalytics_graph::{io as graph_io, CsrGraph, Vid};
use graphalytics_pregel::programs::{dispatch, ProgramVisitor};
use graphalytics_pregel::{compute_partition, VertexProgram};

use crate::net;
use crate::partition::PartitionPlan;
use crate::protocol::{
    decode_blob, encode_blob, expect_frame, read_frame, write_frame, write_frames, Frame,
    PlanFrame, StepReport,
};
use crate::telemetry::{SpanKind, TelemetryBuffer};

/// Exit code of a worker killed by an injected fault (distinguishes a
/// planned crash from the collateral exits of peers that lost it).
pub const EXIT_INJECTED_FAULT: i32 = 3;

/// Parsed command line of `gx-distrib-worker`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerArgs {
    /// Master control address, e.g. `127.0.0.1:41234`.
    pub master: String,
    /// This worker's id.
    pub worker: u32,
}

/// Parses `--master=ADDR --worker=N`.
pub fn parse_args(args: &[String]) -> Result<WorkerArgs, String> {
    let mut master = None;
    let mut worker = None;
    for arg in args {
        if let Some(v) = arg.strip_prefix("--master=") {
            master = Some(v.to_string());
        } else if let Some(v) = arg.strip_prefix("--worker=") {
            worker = Some(v.parse::<u32>().map_err(|e| format!("bad --worker: {e}"))?);
        } else {
            return Err(format!("unknown argument {arg}"));
        }
    }
    Ok(WorkerArgs {
        master: master.ok_or("missing --master=ADDR")?,
        worker: worker.ok_or("missing --worker=N")?,
    })
}

/// Worker entry point: connect to the master, receive the plan, load the
/// dataset, and run supersteps until told to finish. Every socket read
/// waits at most `timeout` (see [`net::io_timeout`]).
pub fn worker_main(args: &[String], timeout: Duration) -> Result<(), String> {
    let args = parse_args(args)?;
    let mut master =
        net::dial(&args.master, timeout).map_err(|e| format!("connect {}: {e}", args.master))?;
    write_frame(
        &mut master,
        &Frame::Hello {
            worker: args.worker,
        },
    )
    .map_err(|e| format!("hello: {e}"))?;
    let plan = expect_frame!(read_frame(&mut master), Frame::Plan(p) => p, "Plan")
        .map_err(|e| format!("plan: {e}"))??;
    if plan.worker != args.worker {
        return Err(format!(
            "plan addressed to worker {}, I am {}",
            plan.worker, args.worker
        ));
    }
    let prefix = PathBuf::from(&plan.graph_prefix);
    let edge_list = if plan.weighted {
        graph_io::read_weighted_graph(&prefix, plan.directed)
    } else {
        graph_io::read_graph(&prefix, plan.directed)
    }
    .map_err(|e| format!("read graph {}: {e:?}", prefix.display()))?;
    let graph = CsrGraph::from_edge_list(&edge_list);
    let superstep_loop = SuperstepLoop {
        graph: &graph,
        plan: &plan,
        master,
        timeout,
    };
    dispatch(&plan.algorithm, &graph, superstep_loop)
        .unwrap_or_else(|| Err("EVO is coordinator-driven; workers never run it".to_string()))
}

/// Enters [`run_program`] with the dispatched program; the master turns the
/// shipped states into the output, so the constructor goes unused here.
struct SuperstepLoop<'a> {
    graph: &'a CsrGraph,
    plan: &'a PlanFrame,
    master: TcpStream,
    timeout: Duration,
}

impl ProgramVisitor for SuperstepLoop<'_> {
    type Out = Result<(), String>;

    fn visit<P: VertexProgram>(
        self,
        program: &P,
        _output: fn(&CsrGraph, Vec<P::State>) -> Output,
    ) -> Self::Out {
        run_program(program, self.graph, self.plan, self.master, self.timeout)
    }
}

fn checkpoint_path(dir: &Path, worker: u32, superstep: u64) -> PathBuf {
    dir.join(format!("worker-{worker}.s{superstep}.ckpt"))
}

/// Per-sender shuffle slots for one superstep: `None` until that sender's
/// batch arrives (own batch is placed immediately).
type ShuffleSlots<M> = Vec<Option<Vec<(Vid, M)>>>;

/// The generic worker loop for one vertex program.
fn run_program<P: VertexProgram>(
    program: &P,
    graph: &CsrGraph,
    plan: &PlanFrame,
    mut master: TcpStream,
    timeout: Duration,
) -> Result<(), String> {
    let me = plan.worker as usize;
    let workers = plan.workers as usize;
    // Span buffer on the fleet logical clock (the master's tracer epoch,
    // anchored by the Plan frame's clock origin). Disabled when the master
    // runs untraced — then no Telemetry frame ever leaves this process.
    let mut telemetry = TelemetryBuffer::new(plan.trace, plan.clock_origin);
    let n = graph.num_vertices();
    let part = PartitionPlan::new(graph, workers);
    let mine: &[Vid] = &part.worker_vertices[me];

    // Global-length buffers; only this worker's entries are authoritative.
    let mut states: Vec<P::State> = (0..n as Vid).map(|v| program.init(v, graph)).collect();
    let mut active: Vec<bool> = vec![true; n];
    let mut inbox: Vec<Vec<P::Message>> = vec![Vec::new(); n];

    if plan.resume {
        let path = checkpoint_path(
            Path::new(&plan.checkpoint_dir),
            plan.worker,
            plan.resume_superstep,
        );
        let bytes =
            fs::read(&path).map_err(|e| format!("read checkpoint {}: {e}", path.display()))?;
        let snap: Snapshot<P::State, P::Message> = Snapshot::decode(&bytes)
            .ok_or_else(|| format!("corrupt checkpoint {}", path.display()))?;
        if snap.superstep != plan.resume_superstep
            || snap.states.len() != mine.len()
            || snap.active.len() != mine.len()
            || snap.inbox.len() != mine.len()
        {
            return Err(format!("checkpoint {} does not match plan", path.display()));
        }
        for (i, &v) in mine.iter().enumerate() {
            states[v as usize] = snap.states[i].clone();
            active[v as usize] = snap.active[i];
            inbox[v as usize] = snap.inbox[i].clone();
        }
    }

    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind peer: {e}"))?;
    let peer_port = listener.local_addr().map_err(|e| e.to_string())?.port() as u32;
    let runnable = mine
        .iter()
        .filter(|&&v| active[v as usize] || !inbox[v as usize].is_empty())
        .count() as u64;
    write_frame(
        &mut master,
        &Frame::Ready {
            peer_port,
            runnable,
        },
    )
    .map_err(|e| format!("ready: {e}"))?;

    let ports = expect_frame!(read_frame(&mut master), Frame::Peers { ports } => ports, "Peers")
        .map_err(|e| format!("peers: {e}"))??;
    if ports.len() != workers {
        return Err(format!(
            "got {} peer ports for {workers} workers",
            ports.len()
        ));
    }

    // Full peer mesh: dial lower-numbered workers, accept higher-numbered
    // ones. Both sides run this concurrently, so no ordering deadlock.
    let mut peers: Vec<Option<TcpStream>> = (0..workers).map(|_| None).collect();
    for (j, &port) in ports.iter().enumerate().take(me) {
        let mut stream = net::dial(("127.0.0.1", port as u16), timeout)
            .map_err(|e| format!("dial peer {j}: {e}"))?;
        write_frame(&mut stream, &Frame::PeerHello { from: plan.worker })
            .map_err(|e| format!("peer hello to {j}: {e}"))?;
        peers[j] = Some(stream);
    }
    for _ in me + 1..workers {
        let mut stream =
            net::accept(&listener, timeout).map_err(|e| format!("accept peer: {e}"))?;
        let from = expect_frame!(
            read_frame(&mut stream),
            Frame::PeerHello { from } => from as usize,
            "PeerHello"
        )
        .map_err(|e| format!("peer hello: {e}"))??;
        if from <= me || from >= workers || peers[from].is_some() {
            return Err(format!("unexpected peer hello from {from}"));
        }
        peers[from] = Some(stream);
    }
    write_frame(&mut master, &Frame::MeshReady).map_err(|e| format!("mesh ready: {e}"))?;

    let combiner = program.combiner();
    loop {
        let frame = read_frame(&mut master).map_err(|e| format!("await superstep: {e}"))?;
        // The master answered: the barrier wait that began after the last
        // StepDone (if any) ends now.
        telemetry.finish_barrier();
        match frame {
            Frame::StartSuperstep {
                superstep,
                prev_aggregate,
                checkpoint,
            } => {
                if checkpoint {
                    let ckpt_start = telemetry.now();
                    let snap = Snapshot {
                        superstep,
                        states: part.gather(me, &states),
                        inbox: part.gather(me, &inbox),
                        active: part.gather(me, &active),
                        aggregate: prev_aggregate,
                    };
                    let bytes = snap.encode();
                    let dir = Path::new(&plan.checkpoint_dir);
                    fs::create_dir_all(dir).map_err(|e| format!("checkpoint dir: {e}"))?;
                    let path = checkpoint_path(dir, plan.worker, superstep);
                    let tmp = path.with_extension("ckpt.tmp");
                    let mut file =
                        fs::File::create(&tmp).map_err(|e| format!("checkpoint tmp: {e}"))?;
                    file.write_all(&bytes)
                        .and_then(|()| file.sync_all())
                        .map_err(|e| format!("checkpoint write: {e}"))?;
                    drop(file);
                    fs::rename(&tmp, &path).map_err(|e| format!("checkpoint rename: {e}"))?;
                    telemetry.record(
                        SpanKind::Checkpoint,
                        superstep,
                        ckpt_start,
                        telemetry.now(),
                        bytes.len() as u64,
                    );
                    write_frame(
                        &mut master,
                        &Frame::CheckpointDone {
                            superstep,
                            bytes: bytes.len() as u64,
                        },
                    )
                    .map_err(|e| format!("checkpoint done: {e}"))?;
                }
                // Fault-plan probe: a planned crash at this (superstep,
                // worker, incarnation) site kills the *process* — the real
                // failure mode, not a simulated one. Probed after the
                // checkpoint so a crash with a due checkpoint restores to
                // this superstep, exactly like the in-process engine.
                if plan.fault_plan.enabled()
                    && plan.fault_plan.decides(&FaultSite::PregelWorker {
                        superstep,
                        worker: plan.worker,
                        incarnation: plan.incarnation,
                    })
                {
                    std::process::exit(EXIT_INJECTED_FAULT);
                }
                let compute_start = telemetry.now();
                let out = compute_partition(
                    graph,
                    program,
                    superstep as usize,
                    prev_aggregate,
                    mine,
                    &states,
                    &active,
                    &inbox,
                );
                telemetry.record(
                    SpanKind::Compute,
                    superstep,
                    compute_start,
                    telemetry.now(),
                    out.active_count as u64,
                );

                // Split outgoing messages by destination owner, preserving
                // generation order within each batch.
                let mut batches: Vec<Vec<(Vid, P::Message)>> =
                    (0..workers).map(|_| Vec::new()).collect();
                for (to, msg) in out.outgoing {
                    batches[part.owner[to as usize] as usize].push((to, msg));
                }
                let sent = out.messages as u64;
                let sent_remote = batches
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != me)
                    .map(|(_, b)| b.len() as u64)
                    .sum::<u64>();

                // Shuffle: one frame to every peer (even when empty, so
                // receives can't starve), written from per-peer threads so
                // a send can never deadlock against a peer that is also
                // mid-send; receives run on this thread.
                let shuffle_start = telemetry.now();
                let mut bytes_sent = 0u64;
                let mut incoming: ShuffleSlots<P::Message> = (0..workers).map(|_| None).collect();
                incoming[me] = Some(std::mem::take(&mut batches[me]));
                let send_result: Result<u64, String> = std::thread::scope(|scope| {
                    let mut handles = Vec::new();
                    for (j, batch) in batches.iter().enumerate() {
                        if j == me {
                            continue;
                        }
                        let mut writer = peers[j]
                            .as_ref()
                            .ok_or_else(|| format!("no peer stream {j}"))?
                            .try_clone()
                            .map_err(|e| format!("clone peer {j}: {e}"))?;
                        let frame = Frame::Shuffle {
                            from: plan.worker,
                            superstep,
                            batch: encode_blob(batch),
                        };
                        // lint:allow(spawn-audit): scoped per-peer writer threads prevent shuffle write-write deadlock
                        handles.push(scope.spawn(move || {
                            write_frame(&mut writer, &frame)
                                .map(|b| b as u64)
                                .map_err(|e| format!("shuffle to {j}: {e}"))
                        }));
                    }
                    // Receive one batch from every peer while the writers run.
                    for (j, peer) in peers.iter_mut().enumerate() {
                        if j == me {
                            continue;
                        }
                        let stream = peer.as_mut().ok_or_else(|| format!("no peer stream {j}"))?;
                        let (from, step, batch) = expect_frame!(
                            read_frame(stream),
                            Frame::Shuffle {
                                from,
                                superstep: step,
                                batch,
                            } => (from, step, batch),
                            "Shuffle from {j}"
                        )
                        .map_err(|e| format!("shuffle from {j}: {e}"))??;
                        if from as usize != j || step != superstep {
                            return Err(format!(
                                "misrouted shuffle: from={from} step={step} on stream {j}"
                            ));
                        }
                        incoming[j] = Some(
                            decode_blob::<Vec<(Vid, P::Message)>>(&batch)
                                .ok_or_else(|| format!("corrupt shuffle from {j}"))?,
                        );
                    }
                    let mut total = 0u64;
                    for h in handles {
                        total += h
                            .join()
                            .map_err(|_| "shuffle writer panicked".to_string())??;
                    }
                    Ok(total)
                });
                bytes_sent += send_result?;
                telemetry.record(
                    SpanKind::Shuffle,
                    superstep,
                    shuffle_start,
                    telemetry.now(),
                    bytes_sent,
                );

                // Barrier: clear inboxes, apply this worker's updates, then
                // deliver batches in sender-worker-id order — the exact
                // routing order of the in-process barrier, so combiner
                // folds and message-list order match bit for bit.
                for b in inbox.iter_mut() {
                    b.clear();
                }
                for (v, state, stay_active) in out.updates {
                    states[v as usize] = state;
                    active[v as usize] = stay_active;
                }
                for (w, slot) in incoming.iter_mut().enumerate() {
                    let batch = slot
                        .take()
                        .ok_or_else(|| format!("missing shuffle batch from {w}"))?;
                    for (to, msg) in batch {
                        let slot = &mut inbox[to as usize];
                        match (combiner, slot.last_mut()) {
                            (Some(combine), Some(acc)) => combine(acc, msg),
                            _ => slot.push(msg),
                        }
                    }
                }
                let active_after = mine
                    .iter()
                    .filter(|&&v| active[v as usize] || !inbox[v as usize].is_empty())
                    .count() as u64;
                // Ship this superstep's spans piggybacked on the barrier:
                // the Telemetry frame (if any) goes out in the same write
                // as the StepDone the master is blocked on.
                let mut frames: Vec<Frame> = telemetry
                    .take_frame(plan.worker, plan.incarnation)
                    .into_iter()
                    .collect();
                frames.push(Frame::StepDone(StepReport {
                    superstep,
                    computed: out.active_count as u64,
                    active_after,
                    sent,
                    sent_remote,
                    bytes_sent,
                    aggregate: out.aggregate,
                }));
                write_frames(&mut master, &frames).map_err(|e| format!("step done: {e}"))?;
                telemetry.start_barrier(superstep);
            }
            Frame::Finish => {
                // EOF flush: the final barrier wait (closed above) has not
                // shipped yet — it goes out in one write with the Output.
                let mut frames: Vec<Frame> = telemetry
                    .take_frame(plan.worker, plan.incarnation)
                    .into_iter()
                    .collect();
                frames.push(Frame::Output {
                    worker: plan.worker,
                    states: encode_blob(&part.gather(me, &states)),
                });
                write_frames(&mut master, &frames).map_err(|e| format!("output: {e}"))?;
                return Ok(());
            }
            other => return Err(format!("unexpected frame tag {} from master", other.tag())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_and_reject() {
        let ok =
            parse_args(&["--master=127.0.0.1:9".to_string(), "--worker=2".to_string()]).unwrap();
        assert_eq!(
            ok,
            WorkerArgs {
                master: "127.0.0.1:9".to_string(),
                worker: 2
            }
        );
        assert!(parse_args(&["--worker=1".to_string()]).is_err());
        assert!(parse_args(&["--master=x".to_string()]).is_err());
        assert!(parse_args(&["--bogus".to_string()]).is_err());
    }

    #[test]
    fn checkpoint_paths_are_per_worker_per_superstep() {
        let dir = Path::new("/tmp/ck");
        assert_eq!(
            checkpoint_path(dir, 3, 12),
            PathBuf::from("/tmp/ck/worker-3.s12.ckpt")
        );
        assert_ne!(checkpoint_path(dir, 3, 12), checkpoint_path(dir, 3, 8));
        assert_ne!(checkpoint_path(dir, 3, 12), checkpoint_path(dir, 2, 12));
    }
}
