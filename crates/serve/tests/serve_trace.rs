//! End-to-end request telemetry: the `X-ND-Trace-Id` contract over the
//! wire, trace-context propagation into evaluation worker threads, and
//! the per-id span trees `nd-trace` rebuilds from the span sink.
//!
//! One `#[test]` in its own binary: the trace sink (like the metrics
//! registry) is process-global, so nothing else may run concurrently.

use nd_opt::{run_opt, OptOptions};
use nd_serve::{http, App, Planner};
use nd_sweep::value::{parse_json, Value};
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const FANOUT: usize = 32;
const HERD: usize = 8;

/// Wait until `n` followers have found a pending slot (`serve.coalesced`
/// counts them before they block); false after 60 s without them.
fn followers_wait(n: usize) -> bool {
    let deadline = Instant::now() + Duration::from_secs(60);
    while nd_obs::metrics::counter("serve.coalesced").get() < n as u64 {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("nd-serve-trace-{tag}-{}", std::process::id()))
}

/// The memo key is the spec's *content* hash (the name is excluded), so
/// distinct fan-out requests vary `eta_min` — a hashed search knob —
/// to each get their own computation.
fn spec(name: &str, eta_min: f64) -> String {
    format!(
        r#"{{"name": "{name}", "backend": "exact", "metric": "two-way",
            "opt": {{"protocols": ["optimal"], "seeds_per_axis": 3, "rounds": 1,
                     "eta_min": {eta_min}}}}}"#
    )
}

fn envelope(spec: &str) -> String {
    format!(r#"{{"api": "nd-serve-api/v1", "spec": {spec}}}"#)
}

/// One request over its own connection; returns status, the echoed
/// `X-ND-Trace-Id` header, and the body.
fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    trace_id: Option<&str>,
) -> (u16, Option<String>, String) {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let id_header = trace_id.map_or(String::new(), |id| format!("X-ND-Trace-Id: {id}\r\n"));
    write!(
        writer,
        "{method} {path} HTTP/1.1\r\nHost: test\r\n{id_header}Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    writer.flush().unwrap();
    let mut status_line = String::new();
    reader.read_line(&mut status_line).unwrap();
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    let mut content_length = 0usize;
    let mut echoed = None;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).unwrap();
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().unwrap();
            } else if name.eq_ignore_ascii_case("x-nd-trace-id") {
                echoed = Some(value.trim().to_string());
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).unwrap();
    (status, echoed, String::from_utf8(body).unwrap())
}

fn served_flag(body: &str, flag: &str) -> bool {
    let v = parse_json(body).unwrap();
    let served = v.as_table().unwrap().get("served").unwrap();
    matches!(
        served.as_table().unwrap().get(flag),
        Some(Value::Bool(true))
    )
}

#[test]
fn trace_ids_flow_end_to_end_under_concurrency() {
    let trace_path = temp_path("sink");
    let _ = std::fs::remove_file(&trace_path);
    nd_obs::trace::init_file(&trace_path).unwrap();
    nd_obs::metrics::set_enabled(true);

    let opts = OptOptions {
        threads: Some(2),
        strict_cache: true,
        ..OptOptions::uncached()
    };
    // the herd's leader waits until every follower has found its slot
    // pending, so coalescing does not depend on scheduler timing; a herd
    // that never gathers fails the test instead of hanging it
    let gathered = Arc::new(AtomicBool::new(false));
    let planner = Arc::new({
        let gathered = Arc::clone(&gathered);
        Planner::with_compute(1024, move |spec| {
            if spec.base.name == "herd" {
                gathered.store(followers_wait(HERD - 1), Ordering::SeqCst);
            }
            run_opt(spec, &opts)
        })
    });
    let server = http::Server::bind("127.0.0.1:0").unwrap();
    let addr = server.addr();
    let shutdown = Arc::new(AtomicBool::new(false));
    let app = App::new(planner, Arc::clone(&shutdown), addr);
    let handle = std::thread::spawn(move || {
        server.run(
            48,
            shutdown,
            Arc::new(move |r: &http::Request| app.route(r)),
        )
    });

    // --- fan-out: 32 concurrent requests, distinct specs, distinct ids
    let fan_ids: Vec<String> = (0..FANOUT).map(|i| format!("fan{i:012x}")).collect();
    let barrier = Arc::new(Barrier::new(FANOUT));
    let threads: Vec<_> = fan_ids
        .iter()
        .enumerate()
        .map(|(i, id)| {
            let id = id.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let body = envelope(&spec(&id, 0.01 + 0.002 * i as f64));
                barrier.wait();
                request(addr, "POST", "/v1/front", &body, Some(&id))
            })
        })
        .collect();
    for (id, t) in fan_ids.iter().zip(threads) {
        let (status, echoed, _body) = t.join().unwrap();
        assert_eq!(status, 200);
        assert_eq!(echoed.as_deref(), Some(id.as_str()), "server echoes the id");
    }

    // --- herd: identical spec, one leader computes, followers coalesce
    let herd_ids: Vec<String> = (0..HERD).map(|i| format!("herd{i:012x}")).collect();
    let barrier = Arc::new(Barrier::new(HERD));
    let herd_body = envelope(&spec("herd", 0.011));
    let threads: Vec<_> = herd_ids
        .iter()
        .map(|id| {
            let id = id.clone();
            let body = herd_body.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                request(addr, "POST", "/v1/front", &body, Some(&id))
            })
        })
        .collect();
    let mut leader_ids = Vec::new();
    let mut coalesced = 0;
    for (id, t) in herd_ids.iter().zip(threads) {
        let (status, echoed, body) = t.join().unwrap();
        assert_eq!(status, 200);
        assert_eq!(echoed.as_deref(), Some(id.as_str()));
        let is_memo = served_flag(&body, "memo");
        let is_coalesced = served_flag(&body, "coalesced");
        if is_coalesced {
            coalesced += 1;
        }
        if !is_memo && !is_coalesced {
            leader_ids.push(id.clone());
        }
    }
    assert!(
        gathered.load(Ordering::SeqCst),
        "the herd did not gather within 60 s"
    );
    assert_eq!(leader_ids.len(), 1, "exactly one herd leader computed");
    assert_eq!(coalesced, HERD - 1, "every follower coalesced");

    // --- no client id: the server generates one
    let (status, echoed, _body) = request(addr, "GET", "/healthz", "", None);
    assert_eq!(status, 200);
    let generated = echoed.expect("generated id echoed");
    assert_eq!(generated.len(), 16);
    assert!(generated.chars().all(|c| c.is_ascii_hexdigit()));

    // --- enriched /healthz + prometheus exposition over the wire
    let (_, _, health) = request(addr, "GET", "/healthz", "", None);
    let health = parse_json(&health).unwrap();
    let health = health.as_table().unwrap();
    for key in [
        "version",
        "engine",
        "uptime_s",
        "stage_cycles",
        "spool_depth",
    ] {
        assert!(health.contains_key(key), "healthz missing `{key}`");
    }
    let (status, _, prom) = request(addr, "GET", "/v1/metrics?format=prometheus", "", None);
    assert_eq!(status, 200);
    assert!(prom.contains("# TYPE serve_requests counter"), "{prom}");
    assert!(prom.contains("# TYPE serve_request_us summary"), "{prom}");
    assert!(
        prom.contains("serve_request_us{quantile=\"0.99\"}"),
        "{prom}"
    );

    let (status, _, _) = request(addr, "POST", "/v1/shutdown", "", None);
    assert_eq!(status, 200);
    handle.join().unwrap();
    nd_obs::trace::shutdown();

    // --- the trace: every request's spans carry its id
    let text = std::fs::read_to_string(&trace_path).unwrap();
    let spans = nd_trace::parse_trace(&text).unwrap();
    let request_ctx: BTreeSet<&str> = spans
        .iter()
        .filter(|s| s.name == "serve.request")
        .map(|s| s.ctx.as_deref().expect("every request span has a ctx"))
        .collect();
    for id in fan_ids.iter().chain(&herd_ids) {
        assert!(
            request_ctx.contains(id.as_str()),
            "missing request for {id}"
        );
    }
    assert!(request_ctx.contains(generated.as_str()));

    // Each fan-out id owns a complete tree: exactly one serve.request
    // root, with the search and its pool-worker evaluations stamped.
    for id in &fan_ids {
        let subset = nd_trace::filter_ctx(spans.clone(), id);
        let names: BTreeSet<&str> = subset.iter().map(|s| s.name.as_str()).collect();
        for name in ["serve.request", "opt.run", "opt.eval"] {
            assert!(names.contains(name), "ctx {id} lost `{name}` spans");
        }
        let n_spans = subset.len();
        let forest = nd_trace::build_forest(subset);
        assert_eq!(forest.nodes.len(), n_spans);
        let request_roots = forest
            .roots
            .iter()
            .filter(|&&r| forest.nodes[r].span.name == "serve.request")
            .count();
        assert_eq!(request_roots, 1, "ctx {id}: one top-level request span");
    }

    // Herd: only the leader's id reaches the search spans; followers
    // still log their own serve.request under their own id (asserted
    // above via request_ctx).
    let herd_set: BTreeSet<&str> = herd_ids.iter().map(String::as_str).collect();
    let computing: BTreeSet<&str> = spans
        .iter()
        .filter(|s| s.name == "opt.run" || s.name == "opt.eval")
        .filter_map(|s| s.ctx.as_deref())
        .filter(|c| herd_set.contains(c))
        .collect();
    assert_eq!(
        computing,
        BTreeSet::from([leader_ids[0].as_str()]),
        "only the leader evaluates"
    );

    // Cross-thread propagation: the leader's evaluation spans run on
    // pool worker threads, not the request handler's thread.
    let leader_spans = nd_trace::filter_ctx(spans.clone(), &leader_ids[0]);
    let request_tid = leader_spans
        .iter()
        .find(|s| s.name == "serve.request")
        .unwrap()
        .tid;
    assert!(
        leader_spans
            .iter()
            .any(|s| s.name == "opt.eval" && s.tid != request_tid),
        "no evaluation span crossed onto a worker thread"
    );

    let _ = std::fs::remove_file(&trace_path);
}
