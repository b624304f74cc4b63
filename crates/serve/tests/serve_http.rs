//! End-to-end HTTP tests: a real `nd-serve` server on a loopback socket,
//! driven by a real TCP client. Covers the cold → warm read path, the
//! full error taxonomy over the wire, and the warm-cache latency
//! acceptance bound.
//!
//! Metric-asserting tests live in `serve_coalesce.rs` — the metrics
//! registry is process-global, so they need their own test binary.

use nd_opt::{run_opt, OptOptions, OptSpec};
use nd_serve::{http, App, Planner};
use nd_sweep::value::{parse_json, Value};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, RwLock, RwLockReadGuard};
use std::time::Instant;

/// The warm-latency measurement holds this exclusively and every other
/// test in the file holds it shared, so the p99 is never measured while
/// sibling tests' servers compete for the same cores.
static QUIET: RwLock<()> = RwLock::new(());

/// A sibling test's shared hold on [`QUIET`], for its whole body.
fn shared() -> RwLockReadGuard<'static, ()> {
    QUIET.read().unwrap_or_else(|e| e.into_inner())
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nd-serve-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A small, fast search — the spec payload used throughout.
fn quick_spec() -> &'static str {
    r#"{"name": "q", "backend": "exact", "metric": "two-way",
        "opt": {"protocols": ["optimal"], "seeds_per_axis": 3, "rounds": 1}}"#
}

fn envelope(spec: &str, extra: &str) -> String {
    format!(r#"{{"api": "nd-serve-api/v1", "spec": {spec}{extra}}}"#)
}

struct TestServer {
    addr: SocketAddr,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl TestServer {
    fn start(opts: OptOptions) -> TestServer {
        let planner = Arc::new(Planner::new(opts, 1024));
        let server = http::Server::bind("127.0.0.1:0").unwrap();
        let addr = server.addr();
        let shutdown = Arc::new(AtomicBool::new(false));
        let app = App::new(planner, Arc::clone(&shutdown), addr);
        let handle = std::thread::spawn(move || {
            server.run(8, shutdown, Arc::new(move |r: &http::Request| app.route(r)))
        });
        TestServer {
            addr,
            handle: Some(handle),
        }
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        let (status, _) = Client::connect(self.addr).send("POST", "/v1/shutdown", "");
        assert_eq!(status, 200);
        self.handle.take().unwrap().join().unwrap();
    }
}

/// A bare-hands HTTP/1.1 client over one keep-alive connection.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        let writer = stream.try_clone().unwrap();
        Client {
            writer,
            reader: BufReader::new(stream),
        }
    }

    fn send(&mut self, method: &str, path: &str, body: &str) -> (u16, String) {
        write!(
            self.writer,
            "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        self.writer.flush().unwrap();
        let mut status_line = String::new();
        self.reader.read_line(&mut status_line).unwrap();
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        let mut content_length = 0usize;
        loop {
            let mut header = String::new();
            self.reader.read_line(&mut header).unwrap();
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().unwrap();
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body).unwrap();
        (status, String::from_utf8(body).unwrap())
    }
}

fn get(body: &str, path: &[&str]) -> Value {
    let mut v = parse_json(body).unwrap();
    for key in path {
        v = v.as_table().unwrap().get(*key).cloned().unwrap();
    }
    v
}

fn error_code(body: &str) -> String {
    get(body, &["error", "code"]).as_str().unwrap().to_string()
}

/// The read/write path: a cold query computes (cache misses evaluate on
/// the pool), an identical warm query is answered from the memo with
/// zero fresh evaluations, and warm answers stay fast enough for the
/// loopback p99 bound even under concurrent load.
#[test]
fn cold_query_computes_then_warm_queries_serve_with_zero_evaluations() {
    let dir = temp_dir("warm");
    let server = TestServer::start(OptOptions {
        cache_dir: Some(dir.join("cache")),
        ..OptOptions::default()
    });
    let mut client = Client::connect(server.addr);

    let (status, body) = client.send("POST", "/v1/front", &envelope(quick_spec(), ""));
    assert_eq!(status, 200, "{body}");
    assert_eq!(get(&body, &["api"]).as_str(), Some("nd-serve-api/v1"));
    assert_eq!(
        get(&body, &["result", "schema"]).as_str(),
        Some("nd-export/v1")
    );
    assert_eq!(get(&body, &["served", "memo"]).as_bool(), Some(false));
    assert!(get(&body, &["served", "executed"]).as_i64().unwrap() > 0);
    let cold_front = get(&body, &["result", "fronts"]);

    // identical warm query: memo hit, no fresh evaluations, same answer
    let (status, body) = client.send("POST", "/v1/front", &envelope(quick_spec(), ""));
    assert_eq!(status, 200, "{body}");
    assert_eq!(get(&body, &["served", "memo"]).as_bool(), Some(true));
    assert_eq!(get(&body, &["served", "executed"]).as_i64(), Some(0));
    assert_eq!(get(&body, &["result", "fronts"]), cold_front);

    // warm latency under concurrent load: 4 keep-alive connections × 50
    // requests; p99 must stay under the loopback bound (the acceptance
    // number is 1 ms, measured on optimized builds — debug gets headroom),
    // measured with no sibling test running
    let _quiet = QUIET.write().unwrap_or_else(|e| e.into_inner());
    let threads: Vec<_> = (0..4)
        .map(|_| {
            let addr = server.addr;
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                (0..50)
                    .map(|_| {
                        let start = Instant::now();
                        let (status, _) =
                            client.send("POST", "/v1/front", &envelope(quick_spec(), ""));
                        assert_eq!(status, 200);
                        start.elapsed()
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let mut latencies: Vec<_> = threads
        .into_iter()
        .flat_map(|t| t.join().unwrap())
        .collect();
    latencies.sort();
    let p99 = latencies[latencies.len() * 99 / 100 - 1];
    let bound_us = if cfg!(debug_assertions) {
        10_000
    } else {
        1_000
    };
    assert!(
        p99.as_micros() < bound_us,
        "warm p99 {p99:.2?} over {} requests (bound {bound_us} µs)",
        latencies.len()
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// `/v1/front` answers exactly nd-opt's document for the same spec.
fn front_matches_nd_opt(client: &mut Client) -> Vec<Value> {
    let (status, body) = client.send("POST", "/v1/front", &envelope(quick_spec(), ""));
    assert_eq!(status, 200, "{body}");
    let spec = OptSpec::from_json_str(quick_spec()).unwrap();
    let expected = nd_opt::to_json(&run_opt(&spec, &OptOptions::uncached()).unwrap());
    let result = get(&body, &["result"]);
    assert_eq!(result, parse_json(&expected).unwrap());
    let fronts = get(&body, &["result", "fronts"]);
    let front = &fronts.as_array().unwrap()[0];
    front.as_table().unwrap()["front"]
        .as_array()
        .unwrap()
        .to_vec()
}

fn duty_cycle(point: &Value) -> f64 {
    point.as_table().unwrap()["duty_cycle"].as_f64().unwrap()
}

/// `/v1/best` picks the most capable affordable point per protocol; an
/// unaffordable budget is a 422 `infeasible`.
#[test]
fn best_respects_the_budget_and_reports_infeasible() {
    let _quiet = shared();
    let server = TestServer::start(OptOptions::uncached());
    let mut client = Client::connect(server.addr);
    let front = front_matches_nd_opt(&mut client);
    assert!(front.len() >= 2, "{front:?}");
    let best = |client: &mut Client, budget: f64| {
        let budget = Value::Float(budget).to_json();
        client.send(
            "POST",
            "/v1/best",
            &envelope(quick_spec(), &format!(r#", "budget": {budget}"#)),
        )
    };

    // between two front points, and exactly at one: the point with the
    // largest affordable duty cycle, as a scan of the front finds it
    let between = (duty_cycle(&front[0]) + duty_cycle(&front[1])) / 2.0;
    let exact = duty_cycle(&front[front.len() / 2]);
    for budget in [between, exact] {
        let expected = front
            .iter()
            .filter(|p| duty_cycle(p) <= budget)
            .max_by(|a, b| duty_cycle(a).total_cmp(&duty_cycle(b)))
            .unwrap();
        let (status, body) = best(&mut client, budget);
        assert_eq!(status, 200, "{body}");
        assert_eq!(get(&body, &["result", "budget"]).as_f64(), Some(budget));
        let choices = get(&body, &["result", "choices"]);
        let choice = choices.as_array().unwrap()[0].as_table().unwrap();
        assert_eq!(choice["protocol"].as_str(), Some("optimal-slotless"));
        assert_eq!(&choice["point"], expected, "budget {budget}");
    }

    // below every point: well-formed, unsatisfiable
    let (status, body) = best(&mut client, duty_cycle(&front[0]) / 2.0);
    assert_eq!(status, 422, "{body}");
    assert_eq!(error_code(&body), "infeasible");
}

/// `/v1/gap` summarizes distance-to-bound per protocol: min, mean and
/// max over the finite gaps, in front order.
#[test]
fn gap_summarizes_distance_to_bound() {
    let _quiet = shared();
    let server = TestServer::start(OptOptions::uncached());
    let mut client = Client::connect(server.addr);
    let front = front_matches_nd_opt(&mut client);
    let gaps: Vec<f64> = front
        .iter()
        .filter_map(|p| p.as_table().unwrap()["gap_frac"].as_f64())
        .filter(|g| g.is_finite())
        .collect();
    assert!(!gaps.is_empty());

    let (status, body) = client.send("POST", "/v1/gap", &envelope(quick_spec(), ""));
    assert_eq!(status, 200, "{body}");
    let fronts = get(&body, &["result", "fronts"]);
    let t = fronts.as_array().unwrap()[0].as_table().unwrap();
    assert_eq!(t["protocol"].as_str(), Some("optimal-slotless"));
    assert_eq!(t["points"].as_i64(), Some(front.len() as i64));
    let stat = |key: &str| t[key].as_f64().unwrap();
    assert_eq!(
        stat("gap_min"),
        gaps.iter().copied().fold(f64::INFINITY, f64::min)
    );
    assert_eq!(
        stat("gap_mean"),
        gaps.iter().sum::<f64>() / gaps.len() as f64
    );
    assert_eq!(
        stat("gap_max"),
        gaps.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    );
    // the optimal construction tracks the bound closely
    assert!(stat("gap_max") < 0.05);
}

/// The wire error taxonomy: every failure class maps to its documented
/// status + stable code.
#[test]
fn error_taxonomy_over_the_wire() {
    let _quiet = shared();
    let server = TestServer::start(OptOptions::uncached());
    let mut client = Client::connect(server.addr);

    let (status, body) = client.send("POST", "/v1/nope", "{}");
    assert_eq!((status, error_code(&body)), (404, "not-found".into()));

    let (status, body) = client.send("GET", "/v1/front", "");
    assert_eq!(
        (status, error_code(&body)),
        (405, "method-not-allowed".into())
    );

    let (status, body) = client.send("POST", "/v1/front", "{ not json");
    assert_eq!((status, error_code(&body)), (400, "bad-request".into()));

    // nesting past the parser's depth limit is a bad request, not a
    // stack overflow that takes the whole server down
    let (status, body) = client.send("POST", "/v1/front", &"[".repeat(10_000));
    assert_eq!((status, error_code(&body)), (400, "bad-request".into()));
    assert!(body.contains("nested deeper"), "{body}");
    let (status, _) = client.send("GET", "/healthz", "");
    assert_eq!(status, 200);

    // valid JSON, missing the api version tag
    let (status, body) = client.send("POST", "/v1/front", r#"{"spec": {}}"#);
    assert_eq!((status, error_code(&body)), (400, "bad-request".into()));
    assert!(body.contains("nd-serve-api/v1"), "{body}");

    // well-formed envelope, spec fails the nd-opt grammar
    let (status, body) = client.send(
        "POST",
        "/v1/front",
        &envelope(r#"{"backend": "exact", "opt": {}}"#, ""),
    );
    assert_eq!((status, error_code(&body)), (400, "bad-spec".into()));

    // a search where every candidate is censored: 422 with the
    // per-reason counts (the CLI's empty-front diagnostic, typed)
    let censored_spec = r#"{"name": "c", "backend": "exact", "metric": "one-way",
        "opt": {"protocols": ["code-based"], "objective": "worst",
                "seeds_per_axis": 2, "rounds": 1, "eta_min": 0.05}}"#;
    let (status, body) = client.send("POST", "/v1/front", &envelope(censored_spec, ""));
    assert_eq!(status, 422, "{body}");
    assert_eq!(error_code(&body), "empty-front");
    assert!(
        get(&body, &["error", "censored"]).as_table().unwrap()["undiscovered-offsets"]
            .as_i64()
            .unwrap()
            > 0,
        "{body}"
    );
}

/// Request heads are bounded: an over-long request line, an over-long
/// header and one header too many each get a 400 `bad-request` and a
/// closed connection, while 100 headers still pass and a normal request
/// on a fresh connection still succeeds.
#[test]
fn oversized_request_heads_are_rejected() {
    let _quiet = shared();
    let server = TestServer::start(OptOptions::uncached());
    let long = "a".repeat(9 << 10);
    let headers =
        |n: usize| -> String { (0..n).map(|i| format!("X-Filler-{i}: {i}\r\n")).collect() };
    for head in [
        format!("GET /{long} HTTP/1.1\r\n\r\n"),
        format!("GET /healthz HTTP/1.1\r\nX-Long: {long}\r\n\r\n"),
        format!("GET /healthz HTTP/1.1\r\n{}\r\n", headers(101)),
    ] {
        let mut stream = TcpStream::connect(server.addr).unwrap();
        stream.write_all(head.as_bytes()).unwrap();
        // the server answers, then closes: read to the end
        let mut answer = String::new();
        stream.read_to_string(&mut answer).unwrap();
        assert!(answer.starts_with("HTTP/1.1 400 "), "{answer}");
        assert!(answer.contains("bad-request"), "{answer}");
    }
    let mut stream = TcpStream::connect(server.addr).unwrap();
    let head = format!(
        "GET /healthz HTTP/1.1\r\n{}Connection: close\r\n\r\n",
        headers(99)
    );
    stream.write_all(head.as_bytes()).unwrap();
    let mut answer = String::new();
    stream.read_to_string(&mut answer).unwrap();
    assert!(answer.starts_with("HTTP/1.1 200 "), "{answer}");

    let (status, body) = Client::connect(server.addr).send("GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");
}

/// A corrupt cache entry is a 500 `corrupt-cache`: the server reports
/// damaged state instead of silently recomputing over it.
#[test]
fn corrupt_cache_is_a_500_not_a_recompute() {
    let _quiet = shared();
    let dir = temp_dir("corrupt");
    let cache_dir = dir.join("cache");
    let opts = OptOptions {
        cache_dir: Some(cache_dir.clone()),
        ..OptOptions::default()
    };

    // populate the cache, then stop (the memo dies with the server)
    {
        let server = TestServer::start(opts.clone());
        let (status, _) =
            Client::connect(server.addr).send("POST", "/v1/front", &envelope(quick_spec(), ""));
        assert_eq!(status, 200);
    }

    // vandalize every entry: garbage of the entry's own length keeps
    // each result line complete, so it reads as corrupt, not torn
    let mut corrupted = 0;
    for pack in std::fs::read_dir(&cache_dir).unwrap() {
        let path = pack.unwrap().path();
        let mut text = std::fs::read(&path).unwrap();
        for line in text.split_mut(|&b| b == b'\n') {
            // `<hash> <unix_ns> <len> <entry>`; touch lines have no entry
            let spaces: Vec<usize> = (0..line.len()).filter(|&i| line[i] == b' ').collect();
            if let Some(&third) = spaces.get(2) {
                line[third + 1..].fill(b'{');
                corrupted += 1;
            }
        }
        std::fs::write(&path, text).unwrap();
    }
    assert!(
        corrupted > 0,
        "the cold query should have populated the cache"
    );

    let server = TestServer::start(opts);
    let (status, body) =
        Client::connect(server.addr).send("POST", "/v1/front", &envelope(quick_spec(), ""));
    assert_eq!(status, 500, "{body}");
    assert_eq!(error_code(&body), "corrupt-cache");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Liveness and metrics control endpoints.
#[test]
fn healthz_and_metrics_respond() {
    let _quiet = shared();
    let server = TestServer::start(OptOptions::uncached());
    let mut client = Client::connect(server.addr);
    let (status, body) = client.send("GET", "/healthz", "");
    assert_eq!(status, 200);
    assert_eq!(get(&body, &["status"]).as_str(), Some("ok"));
    // registry may be off (default): the endpoint still answers
    let (status, body) = client.send("GET", "/v1/metrics", "");
    assert_eq!(status, 200);
    parse_json(&body).unwrap();
}
