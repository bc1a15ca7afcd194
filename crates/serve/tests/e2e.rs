//! End-to-end service tests over real HTTP connections:
//!
//! * readiness — `/readyz` answers 503 (and `POST /jobs` refuses) until
//!   the preload set is materialized, then flips;
//! * the full job lifecycle — submit over HTTP, poll to a terminal
//!   state, read the event stream (with the `?since=` cursor) and all
//!   three artifacts;
//! * `/metrics` — the exposition parses under a Prometheus text-format
//!   grammar check (HELP before TYPE, histogram `_bucket`/`_sum`/`_count`
//!   consistency, label escaping) and carries the expected job counters;
//! * one oracle cache per server — a resubmitted job validates against
//!   the cached reference output, and job latency is labelled by kernel;
//! * admission control — a full queue turns submissions into 429s;
//! * hostile bodies — a job body nested past the JSON depth limit is a
//!   400, and the server keeps answering.

use graphalytics_core::json::{parse as parse_json, Json};
use graphalytics_serve::http::http_call;
use graphalytics_serve::server::{start, ServerConfig, ServerHandle};

/// Starts a server on an ephemeral port and blocks until `/readyz`.
fn ready_server(config: ServerConfig) -> (ServerHandle, String) {
    let handle = start(config).expect("server starts");
    let addr = handle.local_addr().to_string();
    wait_ready(&addr);
    (handle, addr)
}

fn wait_ready(addr: &str) {
    for _ in 0..600 {
        if let Ok((200, _)) = http_call(addr, "GET", "/readyz", None) {
            return;
        }
        std::thread::sleep(core::time::Duration::from_millis(25));
    }
    panic!("server at {addr} never became ready");
}

fn get(addr: &str, path: &str) -> (u16, String) {
    http_call(addr, "GET", path, None).expect("GET succeeds")
}

fn post(addr: &str, path: &str, body: &str) -> (u16, String) {
    http_call(addr, "POST", path, Some(body)).expect("POST succeeds")
}

/// Polls `GET /jobs/{id}` until the job reaches a terminal state and
/// returns the final status document.
fn await_terminal(addr: &str, id: &str) -> Json {
    for _ in 0..2400 {
        let (status, body) = get(addr, &format!("/jobs/{id}"));
        assert_eq!(status, 200, "{body}");
        let doc = parse_json(&body).expect("job document parses");
        let state = doc.get("state").unwrap().as_str().unwrap().to_string();
        if matches!(state.as_str(), "done" | "failed" | "timeout") {
            return doc;
        }
        std::thread::sleep(core::time::Duration::from_millis(25));
    }
    panic!("job {id} never reached a terminal state");
}

#[test]
fn readyz_flips_only_after_preload() {
    // Debug-mode generation of these two graphs takes hundreds of
    // milliseconds; the first round trip (microseconds after bind) lands
    // well inside the initialization window.
    let handle = start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        preload: vec!["graph500-13".into(), "graph500-12".into()],
        ..Default::default()
    })
    .expect("server starts");
    let addr = handle.local_addr().to_string();

    let (status, _) = get(&addr, "/readyz");
    assert_eq!(status, 503, "readyz must refuse before preload finishes");
    // Liveness is independent of readiness, and submissions are refused
    // while initializing.
    assert_eq!(get(&addr, "/healthz").0, 200);
    let (status, body) = post(
        &addr,
        "/jobs",
        r#"{"platform":"reference","algorithm":"bfs:0","graph":"graph500-8"}"#,
    );
    assert_eq!(status, 503, "{body}");

    wait_ready(&addr);
    let (status, body) = get(&addr, "/");
    assert_eq!(status, 200);
    let doc = parse_json(&body).unwrap();
    assert_eq!(doc.get("ready"), Some(&Json::Bool(true)));
    let Some(Json::Arr(loaded)) = doc.get("graphs_loaded") else {
        panic!("graphs_loaded missing: {body}");
    };
    let names: Vec<&str> = loaded.iter().filter_map(|g| g.as_str()).collect();
    assert_eq!(names, vec!["Graph500 12", "Graph500 13"]);
    handle.shutdown();
}

#[test]
fn job_lifecycle_events_and_artifacts_over_http() {
    let (handle, addr) = ready_server(ServerConfig {
        addr: "127.0.0.1:0".into(),
        preload: vec!["graph500-10".into()],
        ..Default::default()
    });

    // Malformed submissions are 400s with a diagnostic.
    let (status, body) = post(&addr, "/jobs", "not json");
    assert_eq!(status, 400, "{body}");
    let (status, body) = post(
        &addr,
        "/jobs",
        r#"{"platform":"spark","algorithm":"bfs:0","graph":"graph500-10"}"#,
    );
    assert_eq!(status, 400);
    assert!(body.contains("unknown platform"), "{body}");

    let (status, body) = post(
        &addr,
        "/jobs",
        r#"{"platform":"reference","algorithm":"bfs:0","graph":"graph500-10"}"#,
    );
    assert_eq!(status, 202, "{body}");
    let accepted = parse_json(&body).unwrap();
    let id = accepted.get("id").unwrap().as_str().unwrap().to_string();
    assert_eq!(id, "j-1");

    let doc = await_terminal(&addr, &id);
    assert_eq!(doc.get("state").unwrap().as_str(), Some("done"));
    assert_eq!(doc.get("validation").unwrap().as_str(), Some("valid"));
    assert!(doc.get("runtime_seconds").unwrap().as_f64().is_some());
    assert!(doc.get("e2e_seconds").unwrap().as_f64().unwrap() >= 0.0);

    // Event stream: starts with submitted/queued, ends terminal, carries
    // graph_ready and at least one runner phase bridged from the job's
    // tracer; sequence numbers are dense.
    let (status, body) = get(&addr, &format!("/jobs/{id}/events"));
    assert_eq!(status, 200);
    let events: Vec<Json> = body.lines().map(|l| parse_json(l).unwrap()).collect();
    let names: Vec<&str> = events
        .iter()
        .map(|e| e.get("event").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(&names[..2], &["submitted", "queued"]);
    assert_eq!(*names.last().unwrap(), "done");
    assert!(names.contains(&"graph_ready"), "{names:?}");
    assert!(names.contains(&"phase"), "{names:?}");
    for (i, event) in events.iter().enumerate() {
        assert_eq!(event.get("type").unwrap().as_str(), Some("job_event"));
        assert_eq!(event.get("job").unwrap().as_str(), Some(id.as_str()));
        assert_eq!(event.get("seq").unwrap().as_f64(), Some(i as f64));
        assert!(event.get("at_seconds").unwrap().as_f64().unwrap() >= 0.0);
    }
    // The graph was preloaded, so the job observed a cache hit.
    let graph_ready = events
        .iter()
        .find(|e| e.get("event").unwrap().as_str() == Some("graph_ready"))
        .unwrap();
    assert_eq!(graph_ready.get("cached"), Some(&Json::Bool(true)));

    // The ?since= cursor resumes mid-stream.
    let (_, tail) = get(&addr, &format!("/jobs/{id}/events?since=1"));
    assert_eq!(tail.lines().count(), events.len() - 2);

    // Artifacts: all three names resolve, each plausibly well-formed.
    let (status, svg) = get(&addr, &format!("/jobs/{id}/artifacts/flamegraph.svg"));
    assert_eq!(status, 200);
    assert!(
        svg.contains("<svg"),
        "not an SVG: {}",
        &svg[..svg.len().min(120)]
    );
    let (status, trace) = get(&addr, &format!("/jobs/{id}/artifacts/trace.json"));
    assert_eq!(status, 200);
    assert!(parse_json(&trace).is_some(), "trace.json does not parse");
    let (status, results) = get(&addr, &format!("/jobs/{id}/artifacts/results.jsonl"));
    assert_eq!(status, 200);
    assert_eq!(results.lines().count(), 1);
    let record = parse_json(results.trim()).unwrap();
    assert_eq!(record.get("platform").unwrap().as_str(), Some("Reference"));
    assert_eq!(get(&addr, &format!("/jobs/{id}/artifacts/nope.txt")).0, 404);

    // Unknown routes and jobs are 404s.
    assert_eq!(get(&addr, "/jobs/j-999").0, 404);
    assert_eq!(get(&addr, "/nope").0, 404);

    // The metrics surface reflects the completed job; the whole
    // exposition passes the grammar check.
    let (status, metrics) = get(&addr, "/metrics");
    assert_eq!(status, 200);
    check_prometheus_grammar(&metrics);
    assert!(
        metrics.contains(r#"graphalytics_serve_jobs_total{state="done"} 1"#),
        "missing done counter"
    );
    assert!(
        metrics.contains("graphalytics_build_info{"),
        "missing build info"
    );
    assert!(
        metrics.contains(r#"graphalytics_serve_request_seconds_bucket{endpoint="/jobs/{id}""#),
        "missing request histogram"
    );
    assert!(metrics.contains("graphalytics_serve_graph_cache_hits_total 1"));
    assert!(metrics.contains("graphalytics_serve_ready 1"));
    handle.shutdown();
}

#[test]
fn full_queue_refuses_with_429() {
    let (handle, addr) = ready_server(ServerConfig {
        addr: "127.0.0.1:0".into(),
        queue_capacity: 1,
        ..Default::default()
    });
    // The graph is not preloaded, so the first job pins the single worker
    // in its load phase, far longer than the submission window below. A
    // release build generates and runs a scale-14 job inside that window,
    // so the pinning job is at scale 16 (~0.35 s in release, ~3 s in debug
    // mode).
    let pin = r#"{"platform":"reference","algorithm":"pagerank","graph":"graph500-16"}"#;
    let job = r#"{"platform":"reference","algorithm":"pagerank","graph":"graph500-14"}"#;
    let (status, _) = post(&addr, "/jobs", pin);
    assert_eq!(status, 202);
    // Give the worker a moment to pick the first job up.
    std::thread::sleep(core::time::Duration::from_millis(100));
    let (status, _) = post(&addr, "/jobs", job);
    assert_eq!(
        status, 202,
        "second job should occupy the single queue slot"
    );
    let (status, body) = post(&addr, "/jobs", job);
    assert_eq!(status, 429, "{body}");
    assert!(body.contains("queue full"), "{body}");
    // Both admitted jobs still drain to completion.
    await_terminal(&addr, "j-1");
    await_terminal(&addr, "j-2");
    handle.shutdown();
}

/// Submits `body` and polls the job to its terminal status document.
fn run_to_terminal(addr: &str, body: &str) -> Json {
    let (status, accepted) = post(addr, "/jobs", body);
    assert_eq!(status, 202, "{accepted}");
    let id = parse_json(&accepted)
        .unwrap()
        .get("id")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    await_terminal(addr, &id)
}

fn assert_done_and_valid(doc: &Json) {
    assert_eq!(doc.get("state").unwrap().as_str(), Some("done"), "{doc:?}");
    assert_eq!(
        doc.get("validation").unwrap().as_str(),
        Some("valid"),
        "{doc:?}"
    );
}

/// The server validates through one oracle cache: a resubmitted job is
/// compared with the cached reference output, not a recomputed one.
#[test]
fn a_resubmitted_job_validates_against_the_cached_oracle() {
    let (handle, addr) = ready_server(ServerConfig {
        addr: "127.0.0.1:0".into(),
        preload: vec!["graph500-8".into()],
        ..Default::default()
    });
    let job = r#"{"platform":"giraph","algorithm":"bfs:0","graph":"graph500-8"}"#;
    for _ in 0..2 {
        assert_done_and_valid(&run_to_terminal(&addr, job));
    }
    let metrics = get(&addr, "/metrics").1;
    assert!(
        metrics.contains("\ngraphalytics_serve_oracle_runs_total 1\n"),
        "{metrics}"
    );
    handle.shutdown();
}

/// Job latency is labelled by kernel, so a new BFS source per job adds no
/// histogram series.
#[test]
fn job_latency_series_are_one_per_kernel() {
    let (handle, addr) = ready_server(ServerConfig {
        addr: "127.0.0.1:0".into(),
        preload: vec!["graph500-8".into()],
        ..Default::default()
    });
    for source in 0..2 {
        let job = format!(
            r#"{{"platform":"reference","algorithm":"bfs:{source}","graph":"graph500-8"}}"#
        );
        assert_done_and_valid(&run_to_terminal(&addr, &job));
    }
    let series: Vec<(graphalytics_core::trace::Labels, u64)> = handle
        .tracer()
        .metrics()
        .histograms_named("graphalytics_serve_job_seconds")
        .into_iter()
        .map(|(labels, h)| (labels, h.count))
        .collect();
    let labels = vec![
        ("algorithm".to_string(), "BFS".to_string()),
        ("platform".to_string(), "reference".to_string()),
    ];
    assert_eq!(series, vec![(labels, 2)]);
    let metrics = get(&addr, "/metrics").1;
    assert!(
        metrics.contains("\ngraphalytics_serve_oracle_runs_total 2\n"),
        "{metrics}"
    );
    handle.shutdown();
}

/// The JSON parser recurses once per `[` on the connection thread's stack;
/// past its nesting limit the body is a client error, not an overflow that
/// aborts the server process.
#[test]
fn deeply_nested_job_body_is_a_400_and_the_server_lives_on() {
    let (handle, addr) = ready_server(ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..Default::default()
    });
    let (status, body) = post(&addr, "/jobs", &"[".repeat(100_000));
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("not valid JSON"), "{body}");
    assert_eq!(get(&addr, "/healthz"), (200, "ok\n".to_string()));
    handle.shutdown();
}

// ---------------------------------------------------------------------
// Prometheus text-format grammar checker
// ---------------------------------------------------------------------

/// Validates `text` against the Prometheus text exposition format
/// (version 0.0.4): comment structure, metric/label naming, label-value
/// escaping, float syntax, HELP-before-TYPE ordering, and histogram
/// `_bucket`/`_sum`/`_count` consistency (including the `+Inf` bucket
/// equalling `_count`).
fn check_prometheus_grammar(text: &str) {
    use std::collections::{BTreeMap, BTreeSet};

    let name_ok = |n: &str| {
        !n.is_empty()
            && n.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    };
    let label_ok = |n: &str| {
        !n.is_empty()
            && n.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_')
            && n.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
    };
    // Strips a histogram sample down to its family name.
    let family_of = |name: &str| -> String {
        for suffix in ["_bucket", "_sum", "_count"] {
            if let Some(stem) = name.strip_suffix(suffix) {
                return stem.to_string();
            }
        }
        name.to_string()
    };

    let mut helped: BTreeSet<String> = BTreeSet::new();
    let mut typed: BTreeMap<String, String> = BTreeMap::new();
    // family → (observed +Inf bucket value, observed _count value, saw _sum)
    let mut histograms: BTreeMap<String, (Option<f64>, Option<f64>, bool)> = BTreeMap::new();

    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        assert!(!line.is_empty(), "line {n}: empty line inside exposition");
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest.split_once(' ').unwrap_or((rest, ""));
            assert!(name_ok(name), "line {n}: bad HELP metric name {name:?}");
            assert!(!help.is_empty(), "line {n}: empty HELP text for {name}");
            assert!(
                !typed.contains_key(name),
                "line {n}: HELP for {name} after its TYPE"
            );
            assert!(helped.insert(name.to_string()), "line {n}: duplicate HELP");
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').unwrap_or((rest, ""));
            assert!(name_ok(name), "line {n}: bad TYPE metric name {name:?}");
            assert!(
                matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ),
                "line {n}: bad TYPE kind {kind:?}"
            );
            assert!(
                helped.contains(name),
                "line {n}: TYPE for {name} without preceding HELP"
            );
            assert!(
                typed.insert(name.to_string(), kind.to_string()).is_none(),
                "line {n}: duplicate TYPE for {name}"
            );
            continue;
        }
        assert!(!line.starts_with('#'), "line {n}: unknown comment {line:?}");

        // Sample line: name[{labels}] value
        let (name, labels, value) = parse_sample_line(line).unwrap_or_else(|e| {
            panic!("line {n}: {e}: {line:?}");
        });
        assert!(name_ok(&name), "line {n}: bad metric name {name:?}");
        let family = family_of(&name);
        assert!(
            typed.contains_key(&family),
            "line {n}: sample for {family} without TYPE"
        );
        let mut seen_labels = BTreeSet::new();
        for (lname, _) in &labels {
            assert!(label_ok(lname), "line {n}: bad label name {lname:?}");
            assert!(
                seen_labels.insert(lname.clone()),
                "line {n}: duplicate label {lname}"
            );
        }
        let numeric =
            value.parse::<f64>().is_ok() || matches!(value.as_str(), "+Inf" | "-Inf" | "NaN");
        assert!(numeric, "line {n}: bad sample value {value:?}");

        if typed.get(&family).map(String::as_str) == Some("histogram") {
            let entry = histograms.entry(family.clone()).or_default();
            if name.ends_with("_bucket") {
                let le = labels
                    .iter()
                    .find(|(l, _)| l == "le")
                    .unwrap_or_else(|| panic!("line {n}: _bucket without le label"));
                if le.1 == "+Inf" {
                    entry.0 = Some(value.parse().unwrap());
                }
            } else if name.ends_with("_sum") {
                entry.2 = true;
            } else if name.ends_with("_count") {
                entry.1 = Some(value.parse().unwrap());
            }
        }
    }

    assert!(!typed.is_empty(), "exposition carried no metric families");
    for (family, kind) in &typed {
        if kind != "histogram" {
            continue;
        }
        let (inf, count, has_sum) = histograms
            .get(family)
            .unwrap_or_else(|| panic!("histogram {family} with no samples"));
        assert!(has_sum, "histogram {family} missing _sum");
        let count = count.unwrap_or_else(|| panic!("histogram {family} missing _count"));
        let inf = inf.unwrap_or_else(|| panic!("histogram {family} missing +Inf bucket"));
        assert_eq!(inf, count, "histogram {family}: +Inf bucket != _count");
    }
}

/// One exposition sample: (metric name, labels, value text).
type Sample = (String, Vec<(String, String)>, String);

/// Splits one sample line into its [`Sample`] parts, honouring the
/// `\\`, `\"`, `\n` escapes inside label values.
fn parse_sample_line(line: &str) -> Result<Sample, String> {
    let Some(brace) = line.find('{') else {
        let (name, value) = line
            .split_once(' ')
            .ok_or_else(|| "no space between name and value".to_string())?;
        return Ok((name.to_string(), Vec::new(), value.to_string()));
    };
    let name = line[..brace].to_string();
    let rest = &line[brace + 1..];
    let mut labels = Vec::new();
    let mut chars = rest.chars().peekable();
    loop {
        if chars.peek() == Some(&'}') {
            chars.next();
            break;
        }
        let mut lname = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            lname.push(c);
        }
        if chars.next() != Some('"') {
            return Err(format!("label {lname:?} value not quoted"));
        }
        let mut lvalue = String::new();
        loop {
            match chars.next() {
                Some('\\') => match chars.next() {
                    Some('\\') => lvalue.push('\\'),
                    Some('"') => lvalue.push('"'),
                    Some('n') => lvalue.push('\n'),
                    other => return Err(format!("bad escape {other:?} in label value")),
                },
                Some('"') => break,
                Some(c) => lvalue.push(c),
                None => return Err("unterminated label value".to_string()),
            }
        }
        labels.push((lname, lvalue));
        if chars.peek() == Some(&',') {
            chars.next();
        }
    }
    let value: String = chars.collect();
    let value = value.trim();
    if value.is_empty() {
        return Err("missing sample value".to_string());
    }
    Ok((name, labels, value.to_string()))
}

/// The PR 9 network counters and the per-worker fleet families must expose
/// their *curated* HELP text (not a generic fallback) and keep the
/// HELP-before-TYPE ordering the exposition format requires.
#[test]
fn network_and_worker_metric_families_have_curated_help_before_type() {
    let tracer = graphalytics_core::Tracer::new();
    let m = tracer.metrics();
    let platform = [("platform", "distributed-pregel")];
    let per_worker = [("platform", "distributed-pregel"), ("worker", "1")];
    m.inc_counter("graphalytics_network_bytes_total", &platform, 4096);
    m.inc_counter("graphalytics_network_messages_total", &platform, 17);
    m.inc_counter("graphalytics_worker_shuffle_bytes_total", &per_worker, 512);
    m.observe("graphalytics_worker_compute_seconds", &per_worker, 0.5);
    m.observe(
        "graphalytics_worker_barrier_wait_seconds",
        &per_worker,
        0.25,
    );
    m.observe("graphalytics_worker_checkpoint_seconds", &per_worker, 0.1);
    let text = m.render_prometheus();
    check_prometheus_grammar(&text);
    for family in [
        "graphalytics_network_bytes_total",
        "graphalytics_network_messages_total",
        "graphalytics_worker_compute_seconds",
        "graphalytics_worker_barrier_wait_seconds",
        "graphalytics_worker_shuffle_bytes_total",
        "graphalytics_worker_checkpoint_seconds",
    ] {
        let help = text
            .find(&format!("# HELP {family} "))
            .unwrap_or_else(|| panic!("no HELP for {family}"));
        let typ = text
            .find(&format!("# TYPE {family} "))
            .unwrap_or_else(|| panic!("no TYPE for {family}"));
        assert!(help < typ, "{family}: HELP must precede TYPE");
    }
    // Curated texts from the well-known help map, not generated stubs.
    assert!(text.contains(
        "# HELP graphalytics_network_bytes_total Real wire bytes moved by the \
         distributed runtime (shuffle and control frames)."
    ));
    assert!(text.contains(
        "# HELP graphalytics_network_messages_total Messages that crossed \
         worker processes in the distributed runtime."
    ));
    assert!(text.contains(
        "# HELP graphalytics_worker_compute_seconds Vertex-compute time per distributed"
    ));
    assert!(text.contains(
        "# HELP graphalytics_worker_barrier_wait_seconds Time each distributed worker spent"
    ));
}
