//! The load path, with no kernel run: generate, write, read back, build the
//! CSR, and load the graph into each of the seven platforms.

use std::path::PathBuf;
use std::time::Instant;

use graphalytics_core::platform::Platform;
use graphalytics_graph::{io, CsrGraph, EdgeListGraph};

use crate::engines::{Engine, EngineEnv, ALL, WORKERS};
use crate::inputs::{self, StageTimes};
use crate::spans::Recorder;
use crate::workload::{Pass, PassKind, Sizes, Workload};

pub struct Ingest {
    scale: u32,
    persons: usize,
    seed: u64,
    prefix: PathBuf,
    platforms: Vec<(Engine, Box<dyn Platform>)>,
    /// Vertex count, edge count and edge-set hash each generated graph must
    /// have, and so must what is read back.
    expected_rmat: (usize, usize, u64),
    expected_snb: (usize, usize, u64),
    /// Vertices plus arcs of the two graphs.
    size_rmat: f64,
    size_snb: f64,
    invalid: bool,
}

fn size_of(g: &EdgeListGraph) -> f64 {
    (g.num_vertices() + 2 * g.num_edges()) as f64
}

impl Ingest {
    pub fn setup(
        sizes: &Sizes,
        seed: u64,
        env: &EngineEnv,
        rec: &mut Recorder,
        stages: &mut StageTimes,
    ) -> Result<Self, String> {
        // The oracle of this workload: what the seeded generators must
        // produce, against which every pass checks its own graphs.
        let (rmat, s) = rec.time("datagen.rmat", "datagen", || {
            inputs::rmat_edges(sizes.ingest_scale, seed)
        });
        stages.push(("datagen.rmat_s", s));
        let (snb, s) = rec.time("datagen.snb", "datagen", || {
            inputs::snb_edges(sizes.ingest_persons, seed)
        });
        stages.push(("datagen.snb_s", s));
        let dir = env.scratch.join("ingest");
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Self {
            scale: sizes.ingest_scale,
            persons: sizes.ingest_persons,
            seed,
            prefix: dir.join("graph"),
            platforms: ALL.iter().map(|&e| (e, env.build(e))).collect(),
            expected_rmat: inputs::fingerprint(&rmat),
            expected_snb: inputs::fingerprint(&snb),
            size_rmat: size_of(&rmat),
            size_snb: size_of(&snb),
            invalid: false,
        })
    }
}

impl Workload for Ingest {
    fn pass(&mut self, kind: PassKind, rec: &mut Recorder) -> Pass {
        let mut pass = Pass::default();
        let mut valid = true;
        let started = Instant::now();
        let cell = |pass: &mut Pass, metric: &str, size: f64, seconds: f64| {
            pass.cells.push((size, seconds));
            pass.ops.push(seconds);
            if kind == PassKind::Timed {
                pass.layer.push((metric.to_string(), seconds));
            }
        };

        let (rmat, s) = rec.time("datagen.rmat", "datagen", || {
            inputs::rmat_edges(self.scale, self.seed)
        });
        cell(&mut pass, "datagen.rmat_s", self.size_rmat, s);
        let (snb, s) = rec.time("datagen.snb", "datagen", || {
            inputs::snb_edges(self.persons, self.seed)
        });
        cell(&mut pass, "datagen.snb_s", self.size_snb, s);

        let (written, s) = rec.time("graph.io.write", "graph", || {
            io::write_graph(&rmat, &self.prefix)
        });
        cell(&mut pass, "graph.io.write_s", self.size_rmat, s);
        let (read, read_s) = rec.time("graph.io.read", "graph", || {
            io::read_graph(&self.prefix, false)
        });
        cell(&mut pass, "graph.io.read_s", self.size_rmat, read_s);
        if kind == PassKind::Timed {
            let bytes: u64 = ["v", "e"]
                .iter()
                .filter_map(|ext| std::fs::metadata(self.prefix.with_extension(ext)).ok())
                .map(|m| m.len())
                .sum();
            pass.layer.push((
                "graph.io.read_mbps".to_string(),
                bytes as f64 / 1e6 / read_s,
            ));
        }

        let (csr, s) = rec.time("graph.csr.build", "graph", || {
            CsrGraph::from_edge_list(&rmat)
        });
        cell(&mut pass, "graph.csr.build_s", self.size_rmat, s);
        let (csr_threads, s) = rec.time("graph.csr.build_2t", "graph", || {
            CsrGraph::from_edge_list_with_threads(&rmat, WORKERS)
        });
        cell(&mut pass, "graph.csr.build_2t_s", self.size_rmat, s);

        for (engine, platform) in &mut self.platforms {
            let metric = engine.load_metric();
            let (loaded, s) = rec.time(metric.trim_end_matches("_s"), engine.load_layer(), || {
                platform
                    .load_graph(&csr)
                    .map(|handle| platform.unload(handle))
            });
            cell(&mut pass, &metric, self.size_rmat, s);
            if let Err(e) = loaded {
                eprintln!(
                    "perfbench: {} failed to load the graph: {e}",
                    engine.label()
                );
                valid = false;
            }
        }
        pass.makespan_s = started.elapsed().as_secs_f64();

        if let Err(e) = &written {
            eprintln!("perfbench: writing the graph failed: {e:?}");
            valid = false;
        }
        if kind == PassKind::Warmup {
            let read_back = read.as_ref().map(inputs::fingerprint).ok();
            let checks = [
                (
                    "generated R-MAT graph",
                    inputs::fingerprint(&rmat) == self.expected_rmat,
                ),
                (
                    "generated SNB graph",
                    inputs::fingerprint(&snb) == self.expected_snb,
                ),
                ("SNB edge list", snb.validate().is_ok()),
                (
                    "graph read back from disk",
                    read_back == Some(self.expected_rmat),
                ),
                ("CSR", csr.validate().is_ok()),
                (
                    "CSR built on threads",
                    csr_threads.validate().is_ok() && csr_threads == csr,
                ),
            ];
            for (what, ok) in checks {
                if !ok {
                    eprintln!("perfbench: {what} is not what the seed should give");
                    self.invalid = true;
                }
            }
        } else if read.is_err() {
            valid = false;
        }
        pass.attempted = pass.cells.len();
        pass.failed = if valid && !self.invalid {
            0
        } else {
            pass.attempted
        };
        pass
    }

    fn stamp(&self) -> Vec<(&'static str, String)> {
        vec![
            ("graph", format!("Graph500 {}", self.scale)),
            ("snb_persons", self.persons.to_string()),
            ("cells", (6 + self.platforms.len()).to_string()),
        ]
    }
}
