//! The harness adapter: [`DistributedPlatform`] implements [`Platform`] by
//! forking a master-coordinated fleet of `gx-distrib-worker` processes.
//!
//! `load_graph` performs the ETL step: the CSR graph is written back to the
//! Graphalytics `.v`/`.e` file format in a scratch directory, and every
//! worker process loads and partitions it independently (the assignment is
//! a pure function of the dataset, so nothing but messages travels the
//! wire). `run` drives the Pregel superstep loop over the fleet transport
//! and reassembles per-worker outputs into the same global vectors the
//! in-process engine produces.

use std::path::PathBuf;
use std::sync::Arc;

use graphalytics_algos::{Algorithm, Output};
use graphalytics_core::platform::{GraphHandle, GraphTable, Platform, PlatformError, RunContext};
use graphalytics_core::ScratchDir;
use graphalytics_graph::CsrGraph;
use graphalytics_pregel::programs::{dispatch, ProgramVisitor};
use graphalytics_pregel::{drive, Placement, VertexProgram};

use crate::master::{FleetTransport, Launch, MasterStats};
use crate::protocol::PlanFrame;

/// Configuration of the distributed runtime.
#[derive(Debug, Clone)]
pub struct DistribConfig {
    /// Worker process count.
    pub workers: u32,
    /// Checkpoint every N supersteps. `None` (the default, as in
    /// `PregelConfig` and Giraph's `giraph.checkpointFrequency = 0`) never
    /// checkpoints, so a worker loss fails the run.
    pub checkpoint_interval: Option<usize>,
    /// Explicit path of the `gx-distrib-worker` binary; when `None` the
    /// `GX_DISTRIB_WORKER_BIN` environment variable is consulted, then the
    /// directory of the current executable and its parent (where Cargo
    /// places sibling binaries for test executables).
    pub worker_bin: Option<PathBuf>,
    /// Scratch directory root; defaults to the system temp directory.
    /// Every loaded graph gets its own [`ScratchDir`] under it, and every
    /// run a checkpoint directory under that; the root is left in place.
    pub work_dir: Option<PathBuf>,
}

impl Default for DistribConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            checkpoint_interval: None,
            worker_bin: None,
            work_dir: None,
        }
    }
}

struct LoadedGraph {
    graph: Arc<CsrGraph>,
    /// Holds the dataset files and the per-run checkpoint directories.
    dir: ScratchDir,
    prefix: PathBuf,
    weighted: bool,
}

/// A graph-processing platform that actually distributes: one master
/// process (this one) and N `gx-distrib-worker` processes exchanging
/// superstep messages over localhost TCP.
pub struct DistributedPlatform {
    config: DistribConfig,
    graphs: GraphTable<LoadedGraph>,
}

impl DistributedPlatform {
    /// Creates the platform with the given configuration.
    pub fn new(config: DistribConfig) -> Self {
        Self {
            config,
            graphs: GraphTable::default(),
        }
    }

    /// [`Platform::run`], also returning the run's statistics (default
    /// ones for EVO, which runs on the master, and for an empty graph).
    pub fn run_with_stats(
        &mut self,
        handle: GraphHandle,
        algorithm: &Algorithm,
        ctx: &RunContext,
    ) -> Result<(Output, MasterStats), PlatformError> {
        let loaded = self.graphs.get(handle)?;
        PlatformError::refuse_directed_triangles(algorithm, loaded.graph.is_directed())?;
        let fleet = FleetRun {
            platform: self,
            loaded,
            algorithm,
            ctx,
        };
        match dispatch(algorithm, &loaded.graph, fleet) {
            Some(result) => result,
            None => {
                // EVO is coordinator-driven (the fires walk the adjacency
                // from the master), exactly as in the in-process Giraph
                // stand-in.
                ctx.check_deadline()?;
                let output = graphalytics_algos::reference(&loaded.graph, algorithm);
                Ok((output, MasterStats::default()))
            }
        }
    }

    fn resolve_worker_bin(&self) -> Result<PathBuf, PlatformError> {
        if let Some(bin) = &self.config.worker_bin {
            return Ok(bin.clone());
        }
        if let Ok(bin) = std::env::var("GX_DISTRIB_WORKER_BIN") {
            return Ok(PathBuf::from(bin));
        }
        let name = format!("gx-distrib-worker{}", std::env::consts::EXE_SUFFIX);
        if let Ok(exe) = std::env::current_exe() {
            if let Some(dir) = exe.parent() {
                // Test binaries live one level below the bin directory
                // (`target/<profile>/deps/`), so probe the parent too.
                for candidate in [dir.join(&name), dir.join("..").join(&name)] {
                    if candidate.is_file() {
                        return Ok(candidate);
                    }
                }
            }
        }
        Err(PlatformError::Unsupported(
            "gx-distrib-worker binary not found; build graphalytics-distrib or set \
             GX_DISTRIB_WORKER_BIN"
                .to_string(),
        ))
    }
}

impl Platform for DistributedPlatform {
    fn name(&self) -> &'static str {
        "Distributed"
    }

    fn load_graph(&mut self, graph: &CsrGraph) -> Result<GraphHandle, PlatformError> {
        let dir = ScratchDir::new(self.config.work_dir.as_deref(), "gx-distrib")
            .map_err(|e| PlatformError::TransientIo(format!("scratch dir: {e}")))?;
        let prefix = dir.path().join("graph");
        let edge_list = graph.to_edge_list();
        let weighted = edge_list.is_weighted();
        graphalytics_graph::io::write_graph(&edge_list, &prefix)
            .map_err(|e| PlatformError::TransientIo(format!("write dataset: {e:?}")))?;
        Ok(self.graphs.insert(LoadedGraph {
            graph: Arc::new(graph.clone()),
            dir,
            prefix,
            weighted,
        }))
    }

    fn run(
        &mut self,
        handle: GraphHandle,
        algorithm: &Algorithm,
        ctx: &RunContext,
    ) -> Result<Output, PlatformError> {
        self.run_with_stats(handle, algorithm, ctx)
            .map(|(output, _)| output)
    }

    fn unload(&mut self, handle: GraphHandle) {
        // Dropping the loaded graph removes its scratch directory.
        self.graphs.remove(handle);
    }
}

/// One fleet run of the dispatched program: the master only needs the
/// program's state type, the worker processes build the program themselves.
struct FleetRun<'a> {
    platform: &'a DistributedPlatform,
    loaded: &'a LoadedGraph,
    algorithm: &'a Algorithm,
    ctx: &'a RunContext,
}

impl ProgramVisitor for FleetRun<'_> {
    type Out = Result<(Output, MasterStats), PlatformError>;

    fn visit<P: VertexProgram>(
        self,
        _program: &P,
        output: fn(&CsrGraph, Vec<P::State>) -> Output,
    ) -> Self::Out {
        let (config, loaded, ctx) = (&self.platform.config, self.loaded, self.ctx);
        let graph = &loaded.graph;
        // An empty dataset needs no worker processes, and the in-process
        // engine likewise returns the empty state vector without a single
        // superstep.
        if graph.num_vertices() == 0 {
            ctx.check_deadline()?;
            return Ok((output(graph, Vec::new()), MasterStats::default()));
        }
        // Dropped on every way out of this run, failures included. Runs on
        // one graph take turns, so the path is the same for each.
        let checkpoints = ScratchDir::named(loaded.dir.path(), "checkpoints")
            .map_err(|e| PlatformError::TransientIo(format!("checkpoint dir: {e}")))?;
        let workers = config.workers.max(1);
        let launch = Launch {
            worker_bin: self.platform.resolve_worker_bin()?,
            plan: PlanFrame {
                worker: 0,
                workers,
                algorithm: self.algorithm.clone(),
                graph_prefix: loaded.prefix.display().to_string(),
                directed: graph.is_directed(),
                weighted: loaded.weighted,
                checkpoint_dir: checkpoints.path().display().to_string(),
                incarnation: 0,
                resume: None,
                trace: false,
            },
        };
        let placement = Placement::new(graph, workers as usize);
        let mut fleet = FleetTransport::<P::State>::launch(launch, ctx)?;
        let driven = drive(&mut fleet, &placement, config.checkpoint_interval, ctx);
        // A run that escalates keeps what its fleet shipped before the loss.
        fleet.drain_telemetry();
        let result = driven?;
        let stats = MasterStats {
            pregel: result.stats,
            ..fleet.stats
        };
        Ok((output(graph, result.states), stats))
    }
}
