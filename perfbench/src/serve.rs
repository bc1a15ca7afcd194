//! The request path: a closed loop of two clients against the in-process
//! job server. Each client submits its next job only after the previous
//! one is terminal, because callers of a benchmark service wait for their
//! result.

use std::time::{Duration, Instant};

use graphalytics_core::json::{self, Json};
use graphalytics_serve::http::http_call;
use graphalytics_serve::server::{self, ServerConfig, ServerHandle};

use crate::engines::EngineEnv;
use crate::inputs::{self, StageTimes};
use crate::metrics::Values;
use crate::probes;
use crate::spans::Recorder;
use crate::stats::percentile;
use crate::workload::{Pass, PassKind, Sizes, Workload};

const CLIENTS: usize = 2;
const POLL_INTERVAL: Duration = Duration::from_millis(2);
const PLATFORMS: [&str; 2] = ["reference", "giraph"];
const KERNELS: usize = 3;
/// Job `j` cycles platforms, kernels and the two graphs, so that twelve
/// consecutive jobs are the twelve cells of the mix.
const MIX: usize = PLATFORMS.len() * KERNELS * 2;

/// One preloaded graph as jobs name it.
struct ServedGraph {
    spec: String,
    size: f64,
    bfs_source: u64,
}

/// What one job measured, on the client's clock unless said otherwise.
struct JobSample {
    cell: usize,
    latency_s: f64,
    submit_s: f64,
    polls: usize,
    rejected: usize,
    /// From the job's status document.
    queue_wait_s: f64,
    runtime_s: f64,
    ok: bool,
}

pub struct ServeClosed {
    server: ServerHandle,
    addr: String,
    graphs: Vec<ServedGraph>,
    jobs_per_pass: usize,
    healthz_calls: usize,
    next_job: usize,
    /// Samples and wall seconds of every pass after the warm-up, pooled so
    /// that the percentiles have enough samples beyond them.
    measured: Vec<JobSample>,
    measured_s: f64,
}

impl ServeClosed {
    pub fn setup(
        sizes: &Sizes,
        seed: u64,
        env: &EngineEnv,
        rec: &mut Recorder,
        stages: &mut StageTimes,
    ) -> Result<Self, String> {
        let dir = env.scratch.join("serve");
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let mut graphs = Vec::new();
        for scale in sizes.serve_scales {
            let (input, edges) = inputs::graph500(scale, seed, rec, stages);
            let prefix = dir.join(format!("g{scale}"));
            let (written, s) = rec.time("graph.io.write", "graph", || {
                graphalytics_graph::io::write_graph(&edges, &prefix)
            });
            written.map_err(|e| format!("write {}: {e:?}", prefix.display()))?;
            stages.push(("graph.io.write_s", s));
            let spec = format!("file:{}", prefix.display());
            if spec != spec.to_lowercase() {
                return Err(format!(
                    "the job API lower-cases graph names, so the scratch path must be lower-case: {spec}"
                ));
            }
            graphs.push(ServedGraph {
                spec,
                size: input.size(),
                bfs_source: inputs::pick_sources(&input.graph, seed, 1)[0],
            });
        }
        let open = rec.enter("serve.start", "serve");
        let server = server::start(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            queue_capacity: 32,
            workers: 1,
            preload: graphs.iter().map(|g| g.spec.clone()).collect(),
            ..Default::default()
        })?;
        let addr = server.local_addr().to_string();
        let deadline = Instant::now() + Duration::from_secs(60);
        while http_call(&addr, "GET", "/readyz", None)?.0 != 200 {
            if Instant::now() > deadline {
                return Err("the server did not become ready within 60 s".to_string());
            }
            std::thread::sleep(POLL_INTERVAL);
        }
        rec.exit(open);
        Ok(Self {
            server,
            addr,
            graphs,
            jobs_per_pass: sizes.serve_jobs_per_pass,
            healthz_calls: sizes.healthz_calls,
            next_job: 0,
            measured: Vec::new(),
            measured_s: 0.0,
        })
    }

    /// The graph of job `j`, and of cell `j % MIX`.
    fn graph_of(&self, j: usize) -> &ServedGraph {
        &self.graphs[(j / (PLATFORMS.len() * KERNELS)) % 2]
    }

    fn job_body(&self, j: usize) -> String {
        let graph = self.graph_of(j);
        let algorithm = match j % KERNELS {
            0 => format!("bfs:{}", graph.bfs_source),
            1 => "conn".to_string(),
            _ => "pagerank".to_string(),
        };
        format!(
            r#"{{"platform":"{}","algorithm":"{algorithm}","graph":"{}"}}"#,
            PLATFORMS[j % PLATFORMS.len()],
            graph.spec
        )
    }

    /// Submits job `j` and polls it until it is terminal.
    fn drive_job(&self, j: usize, rec: &mut Recorder) -> Result<JobSample, String> {
        let open = rec.enter("serve.job", "serve");
        let sample = self.submit_and_poll(j, rec);
        rec.exit(open);
        sample
    }

    fn submit_and_poll(&self, j: usize, rec: &mut Recorder) -> Result<JobSample, String> {
        let body = self.job_body(j);
        let started = Instant::now();
        let mut rejected = 0;
        let (id, submit_s) = loop {
            let (result, s) = rec.time("serve.http.submit", "serve", || {
                http_call(&self.addr, "POST", "/jobs", Some(&body))
            });
            let (status, response) = result.map_err(|e| format!("job {j}: {e}"))?;
            match status {
                202 => {
                    let id = json::parse(&response)
                        .and_then(|d| d.get("id").and_then(Json::as_str).map(str::to_string))
                        .ok_or_else(|| format!("job {j}: submit response has no id"))?;
                    break (id, s);
                }
                429 => {
                    rejected += 1;
                    std::thread::sleep(POLL_INTERVAL);
                }
                other => return Err(format!("job {j}: submit returned {other}: {response}")),
            }
        };
        let path = format!("/jobs/{id}");
        let mut polls = 0;
        let doc = loop {
            std::thread::sleep(POLL_INTERVAL);
            let (result, _) = rec.time("serve.http.poll", "serve", || {
                http_call(&self.addr, "GET", &path, None)
            });
            let (status, response) = result.map_err(|e| format!("job {id}: {e}"))?;
            polls += 1;
            if status != 200 {
                return Err(format!("job {id}: status poll returned {status}"));
            }
            let doc = json::parse(&response).ok_or("status response is not JSON")?;
            let state = doc.get("state").and_then(Json::as_str).unwrap_or("");
            if matches!(state, "done" | "failed" | "timeout") {
                break doc;
            }
            if started.elapsed() > Duration::from_secs(120) {
                return Err(format!("job {id} never reached a terminal state"));
            }
        };
        let latency_s = started.elapsed().as_secs_f64();
        let text = |key: &str| doc.get(key).and_then(Json::as_str).unwrap_or("");
        let number = |key: &str| doc.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        let ok = text("state") == "done" && text("validation") == "valid";
        if !ok {
            eprintln!(
                "perfbench: job {id} ended {} with validation {:?}: {}",
                text("state"),
                text("validation"),
                text("error")
            );
        }
        Ok(JobSample {
            cell: j % MIX,
            latency_s,
            submit_s,
            polls,
            rejected,
            queue_wait_s: number("queue_wait_seconds"),
            runtime_s: number("runtime_seconds"),
            ok,
        })
    }

    /// Reads one un-labelled counter from the server's `/metrics` text.
    fn server_counter(&self, name: &str) -> Result<f64, String> {
        let (_, text) = http_call(&self.addr, "GET", "/metrics", None)?;
        Ok(text
            .lines()
            .filter(|l| l.starts_with(name) && !l.starts_with('#'))
            .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
            .sum())
    }
}

impl Workload for ServeClosed {
    fn pass(&mut self, kind: PassKind, rec: &mut Recorder) -> Pass {
        let first = self.next_job;
        self.next_job += self.jobs_per_pass;
        let started = Instant::now();
        let this = &*self;
        let clients: Vec<(Vec<Result<JobSample, String>>, Recorder)> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..CLIENTS)
                    .map(|c| {
                        let mut fork = rec.fork();
                        scope.spawn(move || {
                            let jobs = (first + c..first + this.jobs_per_pass).step_by(CLIENTS);
                            let samples = jobs.map(|j| this.drive_job(j, &mut fork)).collect();
                            (samples, fork)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("a client thread panicked"))
                    .collect()
            });
        let mut pass = Pass {
            makespan_s: started.elapsed().as_secs_f64(),
            cells: vec![(0.0, 0.0); MIX],
            attempted: self.jobs_per_pass,
            ..Default::default()
        };
        for (samples, fork) in clients {
            rec.absorb(fork);
            for sample in samples {
                match sample {
                    Ok(job) => {
                        pass.cells[job.cell].0 += self.graph_of(job.cell).size;
                        pass.cells[job.cell].1 += job.runtime_s;
                        pass.ops.push(job.latency_s);
                        pass.failed += usize::from(!job.ok || job.rejected > 0);
                        if kind != PassKind::Warmup {
                            self.measured.push(job);
                        }
                    }
                    Err(e) => {
                        eprintln!("perfbench: {e}");
                        pass.failed += 1;
                    }
                }
            }
        }
        pass.cells.retain(|&(_, seconds)| seconds > 0.0);
        if kind != PassKind::Warmup {
            self.measured_s += pass.makespan_s;
        }
        pass
    }

    fn finish(&mut self, rec: &mut Recorder, layer: &mut Values) {
        let of = |f: fn(&JobSample) -> f64| -> Vec<f64> { self.measured.iter().map(f).collect() };
        let latency = of(|j| j.latency_s);
        let queue_wait = of(|j| j.queue_wait_s);
        layer.put_samples("serve.submit_s", &of(|j| j.submit_s));
        layer.put_samples("serve.run_p50_s", &of(|j| j.runtime_s));
        layer.put_samples("serve.queue_wait_p50_s", &queue_wait);
        let mut put = |name: &str, value: f64| layer.put_samples(name, &[value]);
        put("serve.queue_wait_p95_s", percentile(&queue_wait, 0.95).0);
        put("serve.job_p99_s", percentile(&latency, 0.99).0);
        let jobs = self.measured.len() as f64;
        put("serve.jobs_per_s", jobs / self.measured_s);
        put(
            "serve.poll_requests",
            of(|j| j.polls as f64).iter().sum::<f64>() / jobs,
        );
        put("serve.rejected", of(|j| j.rejected as f64).iter().sum());
        let hits = self.server_counter("graphalytics_serve_graph_cache_hits_total");
        let done = self.server_counter("graphalytics_serve_jobs_total");
        if let (Ok(hits), Ok(done)) = (hits, done) {
            put("serve.registry.hit_share", hits / done.max(1.0));
        }

        let healthz: Vec<f64> = (0..self.healthz_calls)
            .map(|_| {
                rec.time("serve.http.healthz", "serve", || {
                    http_call(&self.addr, "GET", "/healthz", None)
                })
                .1
            })
            .collect();
        layer.put_samples("serve.http.healthz_s", &healthz);
        // The job list is the largest document the server produces.
        if let Ok((200, jobs)) = http_call(&self.addr, "GET", "/jobs", None) {
            probes::json_parse(&jobs, rec, layer);
        }
    }

    fn stamp(&self) -> Vec<(&'static str, String)> {
        vec![
            ("clients", CLIENTS.to_string()),
            ("jobs_per_pass", self.jobs_per_pass.to_string()),
            ("poll_interval_ms", POLL_INTERVAL.as_millis().to_string()),
            ("server_workers", "1".to_string()),
            ("queue_capacity", "32".to_string()),
            ("server_addr", self.server.local_addr().to_string()),
        ]
    }
}
