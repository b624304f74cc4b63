//! The loopback client and server child both serving workloads use, and
//! `serve-hot`: the release `nd-serve` binary driven open-loop, plus the
//! traced in-process replay of the same requests against a `Planner`
//! built with the server's options.

use crate::gen::{self, Ep, HotRequest, OptSpecDoc, Zipf};
use crate::layers::{timed, Layers, SpanSink};
use crate::stats::{self, OpenLoop, Timed};
use crate::{Ctx, Outcome};
use nd_opt::OptOptions;
use nd_serve::{parse_request, Endpoint, Planner};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The serve-hot latency limit on p99 for `throughput_per_s` (`max_rps`).
pub const LIMIT_MS: u64 = 50;
/// The serve-hot base rate, req/s.
pub const BASE_RATE: f64 = 1000.0;
/// Memo entries of the serve-hot server: below the pool size, so memo
/// eviction and warm-disk recomputation stay in the timed phase.
pub const MEMO_CAPACITY: usize = 256;
/// Rate probes of the `max_rps` bisection, and its bracket in req/s: 7
/// log-bisections of a ×16 bracket resolve the rate to 2.2 %.
const PROBES: usize = 7;
const RATE_HI: f64 = 16_000.0;
/// Share of the run spent at the base rate (the rest probes `max_rps`).
const BASE_SHARE: f64 = 0.45;
/// Windows the base phase and each probe are cut into: latency is the
/// lowest over windows (min-of-k), so stalls of the host spoil windows,
/// not the run.
const BASE_WINDOWS: usize = 5;
const PROBE_WINDOWS: usize = 3;
/// A probe stops once a request is this many times over the limit.
const RUNAWAY: f64 = 5.0;

// ---------------------------------------------------------------------------
// loopback HTTP/1.1 client
// ---------------------------------------------------------------------------

pub fn wire(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        Ok(Conn {
            reader: BufReader::with_capacity(1 << 16, stream.try_clone()?),
            writer: stream,
            line: String::new(),
        })
    }

    pub fn send(&mut self, wire: &[u8]) -> io::Result<()> {
        self.writer.write_all(wire)
    }

    /// Read one response; returns its status, the body in `body`.
    pub fn recv(&mut self, body: &mut Vec<u8>) -> io::Result<u16> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        let status = self
            .line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut len = 0usize;
        loop {
            self.line.clear();
            if self.reader.read_line(&mut self.line)? == 0 {
                return Err(bad("truncated headers"));
            }
            let header = self.line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((k, v)) = header.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    len = v.trim().parse().map_err(|_| bad("bad Content-Length"))?;
                }
            }
        }
        body.resize(len, 0);
        self.reader.read_exact(body)?;
        Ok(status)
    }

    pub fn call(&mut self, wire: &[u8], body: &mut Vec<u8>) -> io::Result<u16> {
        self.send(wire)?;
        self.recv(body)
    }
}

// ---------------------------------------------------------------------------
// the server child
// ---------------------------------------------------------------------------

/// A running `nd-serve serve` child; killed and reaped on drop.
pub struct Server {
    child: Option<Child>,
    pub addr: SocketAddr,
}

impl Server {
    pub fn start(ctx: &Ctx, cache_dir: &Path, memo_capacity: usize) -> Result<Server, String> {
        let port = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("no free loopback port: {e}"))?
            .port();
        let addr = SocketAddr::from(([127, 0, 0, 1], port));
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(ctx.out.join("nd-serve.log"))
            .map_err(|e| format!("nd-serve.log: {e}"))?;
        let child = Command::new(ctx.bin("nd-serve"))
            .arg("serve")
            .args(["--addr", &addr.to_string(), "--threads", "2"])
            .args(["--memo-capacity", &memo_capacity.to_string()])
            .arg("--cache-dir")
            .arg(cache_dir)
            .arg("--quiet")
            .stdin(Stdio::null())
            .stdout(log.try_clone().map_err(|e| e.to_string())?)
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start nd-serve: {e}"))?;
        let mut server = Server {
            child: Some(child),
            addr,
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        let probe = wire("GET", "/healthz", "");
        let mut body = Vec::new();
        loop {
            if let Ok(200) = Conn::open(addr).and_then(|mut c| c.call(&probe, &mut body)) {
                return Ok(server);
            }
            if let Some(status) = server.child_mut().try_wait().map_err(|e| e.to_string())? {
                return Err(format!("nd-serve exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("nd-serve did not answer /healthz within 30 s".into());
            }
            std::thread::sleep(Duration::from_micros(250));
        }
    }

    fn child_mut(&mut self) -> &mut Child {
        self.child
            .as_mut()
            .expect("server child present until stop")
    }

    pub fn peak_rss_mb(&mut self) -> f64 {
        vm_hwm_mb(self.child_mut().id())
    }

    /// Graceful stop through `/v1/shutdown`; kills the child if it does
    /// not exit within 15 s.
    pub fn stop(mut self) -> Result<(), String> {
        let mut body = Vec::new();
        let _ = Conn::open(self.addr)
            .and_then(|mut c| c.call(&wire("POST", "/v1/shutdown", ""), &mut body));
        let mut child = self.child.take().expect("server child present until stop");
        let deadline = Instant::now() + Duration::from_secs(15);
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("nd-serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("nd-serve did not stop within 15 s; killed".into());
                }
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Peak resident set (`VmHWM`) of process `pid`, MiB.
pub fn vm_hwm_mb(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .unwrap_or_default()
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

// ---------------------------------------------------------------------------
// response checks
// ---------------------------------------------------------------------------

fn find_last(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).rposition(|w| w == needle)
}

/// Hash of a response body without what records how the answer was
/// produced — the `served` block and each front's `executed` and
/// `cache_hits` counters (a cold answer executes, a disk-cache answer
/// hits) — so cold, memo and disk-cache answers of one spec compare
/// equal. Everything else, front points included, must match byte for
/// byte. The body is pretty-printed, one key per line.
pub fn result_hash(body: &[u8]) -> u64 {
    let doc = &body[..find_last(body, b"\"served\"").unwrap_or(body.len())];
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for line in doc.split(|&b| b == b'\n') {
        let key = line.trim_ascii_start();
        if key.starts_with(b"\"executed\"") || key.starts_with(b"\"cache_hits\"") {
            continue;
        }
        for chunk in line.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            h = (h ^ u64::from_le_bytes(word))
                .wrapping_mul(0x100_0000_01b3)
                .rotate_left(29);
        }
        h = (h ^ line.len() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
    h
}

/// The response's `served.memo` flag.
pub fn memo_flag(body: &[u8]) -> bool {
    find_last(body, b"\"served\"").is_some_and(|at| {
        let tail = &body[at..];
        tail.windows(12).any(|w| w == b"\"memo\": true")
            || tail.windows(11).any(|w| w == b"\"memo\":true")
    })
}

/// A spec's pre-warmed front: what every later answer must agree with.
#[derive(Clone, Debug)]
pub struct Expect {
    pub status: u16,
    pub hash: u64,
    pub duty_cycles: Vec<f64>,
}

impl Expect {
    fn status_for(&self, ep: Ep, budget: Option<f64>) -> u16 {
        match (ep, budget) {
            (Ep::Best, Some(b)) if self.status == 200 => {
                if self.duty_cycles.iter().any(|&d| d <= b) {
                    200
                } else {
                    422
                }
            }
            _ => self.status,
        }
    }
}

/// Check a cold front answer: duty cycles for `best` expectations, and
/// for `optimal` worst-case fronts every point within 0.1 % of the
/// paper's bound per `gap_frac` (Theorem 5.5, or 5.7 for `pair`).
/// Returns the expectation and the failed-check messages.
pub fn check_front(spec: &OptSpecDoc, status: u16, body: &[u8]) -> (Expect, Vec<String>) {
    let mut problems = Vec::new();
    let mut duty_cycles = Vec::new();
    if status != 200 {
        problems.push(format!("{}: cold front answered {status}", spec.name));
    } else {
        match nd_sweep::value::parse_json(&String::from_utf8_lossy(body)) {
            Err(e) => problems.push(format!("{}: front is not JSON: {e}", spec.name)),
            Ok(doc) => {
                let fronts = doc
                    .as_table()
                    .and_then(|t| t.get("result"))
                    .and_then(|r| r.as_table())
                    .and_then(|r| r.get("fronts"))
                    .and_then(|f| f.as_array())
                    .unwrap_or(&[]);
                if fronts.len() != spec.protocols.len() {
                    problems.push(format!(
                        "{}: {} fronts for {} protocols",
                        spec.name,
                        fronts.len(),
                        spec.protocols.len()
                    ));
                }
                for front in fronts {
                    let points = front
                        .as_table()
                        .and_then(|t| t.get("front"))
                        .and_then(|p| p.as_array())
                        .unwrap_or(&[]);
                    if points.is_empty() {
                        problems.push(format!("{}: empty front", spec.name));
                    }
                    for p in points {
                        let field =
                            |k: &str| p.as_table().and_then(|t| t.get(k)).and_then(|v| v.as_f64());
                        if let Some(d) = field("duty_cycle") {
                            duty_cycles.push(d);
                        }
                        if spec.is_bound_checked() {
                            match field("gap_frac") {
                                Some(g) if g.abs() <= 0.001 => {}
                                g => problems.push(format!(
                                    "{}: optimal front point {:?} is {g:?} from the paper's bound (limit 0.1 %)",
                                    spec.name,
                                    field("duty_cycle")
                                )),
                            }
                        }
                    }
                }
            }
        }
    }
    let expect = Expect {
        status,
        hash: result_hash(body),
        duty_cycles,
    };
    (expect, problems)
}

// ---------------------------------------------------------------------------
// serve-hot
// ---------------------------------------------------------------------------

struct Prepared {
    req: HotRequest,
    wire: Vec<u8>,
}

#[derive(Clone, Copy, Default)]
struct Resp {
    status: u16,
    bytes: usize,
    memo: bool,
    hash: u64,
    error: bool,
    sent: bool,
    due_ns: u64,
    send_ns: u64,
    done_ns: u64,
    busy: bool,
}

struct Hot {
    pool: Vec<OptSpecDoc>,
    pool_json: Vec<String>,
    zipf: Zipf,
    seed: u64,
}

impl Hot {
    fn new(seed: u64) -> Hot {
        let pool = gen::hot_pool(seed);
        let pool_json = pool.iter().map(OptSpecDoc::json).collect();
        let zipf = Zipf::new(seed, pool.len(), gen::HOT_OPTIMAL, gen::HOT_ZIPF);
        Hot {
            pool,
            pool_json,
            zipf,
            seed,
        }
    }

    fn request(&self, id: u64) -> HotRequest {
        gen::hot_request(self.seed, &self.pool, &self.zipf, id)
    }

    fn body(&self, req: &HotRequest) -> String {
        gen::request_body(req, &self.pool_json[req.spec])
    }

    fn prepare(&self, ids: std::ops::Range<u64>) -> Vec<Prepared> {
        ids.map(|id| {
            let req = self.request(id);
            let wire = wire("POST", req.ep.path(), &self.body(&req));
            Prepared { req, wire }
        })
        .collect()
    }
}

fn wait_until(target: Instant) {
    loop {
        let now = Instant::now();
        if now >= target {
            return;
        }
        let left = target - now;
        if left > Duration::from_micros(250) {
            std::thread::sleep(left - Duration::from_micros(150));
        } else {
            std::thread::yield_now();
        }
    }
}

/// Send `reqs` open-loop at `rate` over two connections (request j on
/// connection j % 2, the second driven by one extra thread). With
/// `limit_us` set, sending stops at a failed request or at one
/// [`RUNAWAY`] times over the limit: the backlog is running away, and the
/// phase cannot meet the limit.
fn open_loop(addr: SocketAddr, reqs: &[Prepared], rate: f64, limit_us: Option<f64>) -> Vec<Resp> {
    let abort = AtomicBool::new(false);
    let t0 = Instant::now() + Duration::from_millis(20);
    let run = |k: usize| -> Vec<(usize, Resp)> {
        let mut conn = Conn::open(addr).ok();
        let mut body = Vec::with_capacity(1 << 16);
        let mut out = Vec::with_capacity(reqs.len() / 2 + 1);
        let mut last_done = 0u64;
        for (j, p) in reqs.iter().enumerate().skip(k).step_by(2) {
            if abort.load(Ordering::Relaxed) {
                break;
            }
            let due_ns = (j as f64 * 1e9 / rate) as u64;
            wait_until(t0 + Duration::from_nanos(due_ns));
            let send_ns = t0.elapsed().as_nanos() as u64;
            if conn.is_none() {
                conn = Conn::open(addr).ok();
            }
            let result = match conn.as_mut() {
                Some(c) => c.call(&p.wire, &mut body),
                None => Err(io::Error::new(
                    io::ErrorKind::NotConnected,
                    "reconnect failed",
                )),
            };
            let done_ns = t0.elapsed().as_nanos() as u64;
            let mut r = Resp {
                sent: true,
                due_ns,
                send_ns,
                done_ns,
                busy: last_done > due_ns,
                ..Resp::default()
            };
            last_done = done_ns;
            match result {
                Ok(status) => {
                    r.status = status;
                    r.bytes = body.len();
                    r.memo = memo_flag(&body);
                    r.hash = result_hash(&body);
                }
                Err(_) => {
                    r.error = true;
                    conn = None;
                }
            }
            if let Some(limit) = limit_us {
                if r.error || (done_ns - due_ns) as f64 / 1e3 > RUNAWAY * limit {
                    abort.store(true, Ordering::Relaxed);
                }
            }
            out.push((j, r));
        }
        out
    };
    let (a, b) = std::thread::scope(|s| {
        let second = s.spawn(|| run(1));
        let first = run(0);
        (first, second.join().expect("connection thread panicked"))
    });
    let mut out = vec![Resp::default(); reqs.len()];
    for (j, r) in a.into_iter().chain(b) {
        out[j] = r;
    }
    out
}

/// Verify a phase's responses against the pre-warmed fronts; returns the
/// open-loop samples of the requests sent and the failure messages.
fn verify(
    hot: &Hot,
    expect: &[Expect],
    gap_hash: &mut [Option<u64>],
    reqs: &[Prepared],
    resps: &[Resp],
) -> (Vec<Timed>, u64, Vec<String>) {
    let mut timed = Vec::with_capacity(resps.len());
    let mut problems = Vec::new();
    for (p, r) in reqs.iter().zip(resps).filter(|(_, r)| r.sent) {
        let e = &expect[p.req.spec];
        let want = e.status_for(p.req.ep, p.req.budget);
        let mut ok = !r.error && r.status == want;
        if ok && r.status == 200 {
            match p.req.ep {
                Ep::Front => ok = r.hash == e.hash,
                Ep::Gap => ok = *gap_hash[p.req.spec].get_or_insert(r.hash) == r.hash,
                Ep::Best => {}
            }
        }
        if !ok && problems.len() < 20 {
            problems.push(format!(
                "request {} ({} {}): status {} (expected {want}){}",
                p.req.id,
                p.req.ep.name(),
                hot.pool[p.req.spec].name,
                r.status,
                if r.error {
                    ", transport error"
                } else {
                    ", or document differs from its cold answer"
                }
            ));
        }
        timed.push(Timed {
            due_ns: r.due_ns,
            send_ns: r.send_ns,
            done_ns: r.done_ns,
            conn_busy: r.busy,
            ok,
        });
    }
    let failed = timed.iter().filter(|t| !t.ok).count();
    if failed > problems.len() {
        problems.push(format!("… {failed} failed requests in all"));
    }
    (timed, failed as u64, problems)
}

/// Start the server and pre-warm every pool spec with one cold `front`
/// query; returns the server and the expectations.
fn hot_setup(
    ctx: &Ctx,
    hot: &Hot,
    cache: &Path,
    out: &mut Outcome,
) -> Result<(Server, Vec<Expect>), String> {
    let server = Server::start(ctx, cache, MEMO_CAPACITY)?;
    let mut conn = Conn::open(server.addr).map_err(|e| e.to_string())?;
    let mut body = Vec::new();
    let mut expect = Vec::with_capacity(hot.pool.len());
    for (i, spec) in hot.pool.iter().enumerate() {
        let req = HotRequest {
            id: u64::MAX,
            ep: Ep::Front,
            spec: i,
            budget: None,
        };
        let status = conn
            .call(&wire("POST", "/v1/front", &hot.body(&req)), &mut body)
            .map_err(|e| format!("pre-warm {}: {e}", spec.name))?;
        let (e, problems) = check_front(spec, status, &body);
        out.attempt(1, problems);
        expect.push(e);
    }
    drop(conn);
    Ok((server, expect))
}

fn write_hot_inputs(ctx: &Ctx, hot: &Hot, ids: u64) -> io::Result<()> {
    let dir = ctx.out.join("specs");
    std::fs::create_dir_all(&dir)?;
    for s in &hot.pool {
        std::fs::write(dir.join(format!("{}.json", s.name)), s.json() + "\n")?;
    }
    let mut lines = String::new();
    for id in 0..ids {
        lines.push_str(&gen::request_line(&hot.request(id), &hot.pool));
        lines.push('\n');
    }
    std::fs::write(ctx.out.join("requests.jsonl"), lines)
}

pub fn serve_hot(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let limit_us = (LIMIT_MS * 1000) as f64;
    let base_secs = ctx.seconds * BASE_SHARE;
    let probe_secs = (ctx.seconds - base_secs) / PROBES as f64;
    let n_base = (BASE_RATE * base_secs).round() as u64;

    // set-up: generation (median of three), server start plus pre-warm
    let gen_s = median_secs(3, || {
        let hot = Hot::new(ctx.seed);
        std::hint::black_box(hot.prepare(0..n_base).len());
    });
    let hot = Hot::new(ctx.seed);
    let base = hot.prepare(0..n_base);
    let cache = ctx.out.join("cache");
    let t = Instant::now();
    let (mut server, expect) = hot_setup(ctx, &hot, &cache, &mut out)?;
    out.setup_s = gen_s + t.elapsed().as_secs_f64();
    let mut gap_hash = vec![None; hot.pool.len()];

    // the base rate
    let resps = open_loop(server.addr, &base, BASE_RATE, None);
    let (timed_base, failed, problems) = verify(&hot, &expect, &mut gap_hash, &base, &resps);
    out.record(timed_base.len() as u64, failed, problems);
    let ol = OpenLoop::from(&timed_base, limit_us);
    let wins = stats::windows(&timed_base, BASE_WINDOWS, limit_us);
    let (p50_us, p99_us) = stats::windowed_p50_p99(&wins);
    // after the fixed base phase: the probes' load depends on the host
    out.peak_rss_mb = server.peak_rss_mb();
    let memo = resps.iter().filter(|r| r.memo).count() as f64 / resps.len().max(1) as f64;
    let lines: String = base
        .iter()
        .zip(&resps)
        .map(|(p, r)| {
            format!(
                "{{\"id\": {}, \"endpoint\": \"{}\", \"spec\": \"{}\", \"status\": {}, \"memo\": {}, \"latency_us\": {:.1}, \"queue_us\": {:.1}}}\n",
                p.req.id,
                p.req.ep.name(),
                hot.pool[p.req.spec].name,
                r.status,
                r.memo,
                r.done_ns.saturating_sub(r.due_ns) as f64 / 1e3,
                r.send_ns.saturating_sub(r.due_ns) as f64 / 1e3
            )
        })
        .collect();
    std::fs::write(ctx.out.join("latencies.jsonl"), lines).map_err(|e| e.to_string())?;

    // max_rps: log-bisection, a fixed number of probes
    let (mut lo, mut hi) = if stats::probe_meets(&timed_base, BASE_WINDOWS, limit_us) {
        (BASE_RATE, RATE_HI)
    } else {
        (BASE_RATE / 8.0, BASE_RATE)
    };
    let mut next_id = n_base;
    let mut probe_lines = Vec::new();
    for _ in 0..PROBES {
        let rate = (lo * hi).sqrt();
        let n = (rate * probe_secs).ceil() as u64;
        let reqs = hot.prepare(next_id..next_id + n);
        next_id += n;
        let resps = open_loop(server.addr, &reqs, rate, Some(limit_us));
        let (timed, failed, problems) = verify(&hot, &expect, &mut gap_hash, &reqs, &resps);
        out.record(timed.len() as u64, failed, problems);
        let p = OpenLoop::from(&timed, limit_us);
        let (_, window_p99) =
            stats::windowed_p50_p99(&stats::windows(&timed, PROBE_WINDOWS, limit_us));
        let pass = timed.len() == reqs.len() && stats::probe_meets(&timed, PROBE_WINDOWS, limit_us);
        probe_lines.push(format!(
            "    probe {rate:8.0} req/s: {} of {} sent, p99 {:.0} µs (best window {:.0} µs), backlog {:.0} µs → {}",
            timed.len(),
            reqs.len(),
            p.p99_us,
            window_p99,
            p.backlog_end_us,
            if pass { "meets" } else { "misses" }
        ));
        if pass {
            lo = rate;
        } else {
            hi = rate;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    server.stop()?;
    write_hot_inputs(ctx, &hot, next_id).map_err(|e| e.to_string())?;

    out.p50_ms = p50_us / 1e3;
    out.p99_ms = p99_us / 1e3;
    out.throughput_per_s = lo;
    out.note(format!(
        "serve-hot: open loop at {BASE_RATE} req/s over 2 connections, {} requests in {BASE_WINDOWS} windows \
         of {} (each window's p99 has {} beyond it)",
        ol.requests,
        wins.first().map_or(0, |w| w.requests),
        wins.first().map_or(0, |w| w.requests / 100)
    ));
    out.note(format!(
        "  p50_us = {p50_us:.1} µs   p99_us = {p99_us:.1} µs (lowest over windows; whole phase {:.1} / {:.1} µs)",
        ol.p50_us, ol.p99_us
    ));
    out.note(format!(
        "  max_rps = {lo:.0} req/s (highest rate whose best-window p99 <= {LIMIT_MS} ms, no failures, \
         no end backlog; {PROBES} probes of {probe_secs:.2} s in {PROBE_WINDOWS} windows)"
    ));
    out.note(format!(
        "  queue p50/p99 = {:.1}/{:.1} µs, generator lateness p99 = {:.1} µs, end backlog = {:.1} µs, \
         {} requests over {LIMIT_MS} ms, memo hits = {:.1} %",
        ol.queue_p50_us,
        ol.queue_p99_us,
        ol.gen_late_p99_us,
        ol.backlog_end_us,
        ol.over_limit,
        memo * 100.0
    ));
    out.notes.extend(probe_lines);
    Ok(out)
}

pub fn median_secs(n: usize, mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..n)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&v)
}

/// Parse and handle each request in process, as the server would.
/// Returns per-request (parse ns, handle ns, body, memo flag).
fn replay(
    planner: &Planner,
    hot: &Hot,
    reqs: &[Prepared],
    layers: Option<&mut Layers>,
) -> Vec<(f64, f64, Result<String, u16>)> {
    let mut out = Vec::with_capacity(reqs.len());
    let mut layers = layers;
    for p in reqs {
        let _ctx = nd_obs::trace::push_context(format!("req-{}", p.req.id));
        let _span = nd_obs::span!("bench.serve.request");
        let endpoint = match p.req.ep {
            Ep::Front => Endpoint::Front,
            Ep::Best => Endpoint::Best,
            Ep::Gap => Endpoint::Gap,
        };
        let body = hot.body(&p.req);
        let (parsed, parse_ns) = timed("bench.serve.parse_request", || {
            parse_request(endpoint, &body)
        });
        let (answer, handle_ns) = match parsed {
            Ok(req) => timed("bench.serve.planner_handle", || {
                planner.handle(&req).map_err(|e| e.status())
            }),
            Err(e) => (Err(e.status()), 0.0),
        };
        if let Some(l) = layers.as_deref_mut() {
            l.push("parse", parse_ns);
            match &answer {
                Ok(b) if memo_flag(b.as_bytes()) => l.push("hit", handle_ns),
                Ok(_) => l.push("miss", handle_ns),
                Err(_) => {}
            }
            if let Ok(b) = &answer {
                l.push("bytes", b.len() as f64);
            }
        }
        out.push((parse_ns, handle_ns, answer));
    }
    out
}

pub fn planner_for(cache: &Path, threads: usize, capacity: usize) -> Planner {
    Planner::new(
        OptOptions {
            threads: Some(threads),
            use_cache: true,
            cache_dir: Some(cache.to_path_buf()),
            strict_cache: true,
        },
        capacity,
    )
}

fn prewarm_planner(planner: &Planner, hot: &Hot) {
    for i in 0..hot.pool.len() {
        let body = hot.body(&HotRequest {
            id: u64::MAX,
            ep: Ep::Front,
            spec: i,
            budget: None,
        });
        if let Ok(req) = parse_request(Endpoint::Front, &body) {
            let _ = planner.handle(&req);
        }
    }
}

/// Cache entry hashes under a result-cache directory (`xx/<hash>.json`).
fn cache_hashes(dir: &Path, limit: usize) -> Vec<String> {
    let mut out = Vec::new();
    let Ok(shards) = std::fs::read_dir(dir) else {
        return out;
    };
    let mut shards: Vec<PathBuf> = shards
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    shards.sort();
    for shard in shards {
        let Ok(entries) = std::fs::read_dir(&shard) else {
            continue;
        };
        let mut names: Vec<String> = entries
            .flatten()
            .filter_map(|e| {
                e.file_name()
                    .to_str()?
                    .strip_suffix(".json")
                    .map(str::to_string)
            })
            .collect();
        names.sort();
        out.extend(names);
        if out.len() >= limit {
            out.truncate(limit);
            break;
        }
    }
    out
}

/// Time `ResultCache::load` over entries of `cache`, and `store` of the
/// same results into a scratch cache.
pub fn cache_probe(ctx: &Ctx, cache: &Path, layers: &mut Layers) {
    let _span = nd_obs::span!("bench.sweep.cache");
    let from = nd_sweep::ResultCache::at(cache);
    let to = nd_sweep::ResultCache::at(ctx.out.join("store-probe"));
    for hash in cache_hashes(cache, 400) {
        let (loaded, ns) = timed("bench.sweep.cache_load", || from.load(&hash));
        layers.push("cache_load", ns);
        if let Ok(Some(result)) = loaded {
            let (_, ns) = timed("bench.sweep.cache_store", || to.store(&hash, &result));
            layers.push("cache_store", ns);
        }
    }
    layers.set_quantile("sweep.cache_load_us.p50", "cache_load", 0.5, 1e3);
    layers.set_quantile("sweep.cache_store_us.p50", "cache_store", 0.5, 1e3);
}

pub fn serve_hot_traced(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let limit_us = (LIMIT_MS * 1000) as f64;
    let n_base = (BASE_RATE * ctx.seconds * BASE_SHARE).round() as u64;
    let hot = Hot::new(ctx.seed);
    let base = hot.prepare(0..n_base);
    let cache = ctx.out.join("cache");
    let (server, expect) = hot_setup(ctx, &hot, &cache, &mut out)?;
    let resps = open_loop(server.addr, &base, BASE_RATE, None);
    let mut gap_hash = vec![None; hot.pool.len()];
    let (timed_base, failed, problems) = verify(&hot, &expect, &mut gap_hash, &base, &resps);
    out.record(timed_base.len() as u64, failed, problems);
    server.stop()?;

    // the same requests in process against a fresh pre-warmed planner:
    // untraced, traced, untraced, traced (the overhead compares the faster
    // of each pair; the first traced replay feeds the layer metrics)
    let mut layers = Layers::default();
    let run = |layers: Option<&mut Layers>| {
        let planner = planner_for(&cache, 2, MEMO_CAPACITY);
        {
            let _span = nd_obs::span!("bench.phase.serve_prewarm");
            prewarm_planner(&planner, &hot);
        }
        let _span = nd_obs::span!("bench.phase.serve_replay");
        let t = Instant::now();
        let r = replay(&planner, &hot, &base, layers);
        (t.elapsed().as_secs_f64(), r)
    };
    let (untraced_1, _) = run(None);
    let sink = SpanSink::start();
    let (traced_1, replayed) = run(Some(&mut layers));
    sink.pause();
    let (untraced_2, _) = run(None);
    sink.resume();
    let (traced_2, _) = run(None);
    let untraced = untraced_1.min(untraced_2);
    layers.set(
        "obs.trace_overhead_frac",
        (traced_1.min(traced_2) - untraced) / untraced,
    );
    // in-process answers must match the served documents
    let mut mismatched = Vec::new();
    for ((p, r), (_, _, answer)) in base.iter().zip(&resps).zip(&replayed) {
        let same = match answer {
            Ok(b) => r.status == 200 && result_hash(b.as_bytes()) == r.hash,
            Err(s) => r.status == *s,
        };
        if !same && mismatched.len() < 10 {
            mismatched.push(format!(
                "request {}: in-process answer differs from the served one",
                p.req.id
            ));
        }
    }
    out.attempt(replayed.len() as u64, mismatched);

    // per-request transport: round trip minus parse and handle
    let transport: Vec<f64> = resps
        .iter()
        .zip(&replayed)
        .filter(|(r, _)| r.sent && !r.error)
        .map(|(r, (parse, handle, _))| (r.done_ns - r.send_ns) as f64 - parse - handle)
        .collect();
    for x in transport {
        layers.push("transport", x);
    }
    let ol = OpenLoop::from(&timed_base, limit_us);
    layers.set("serve.queue_us.p50", ol.queue_p50_us);
    layers.set("serve.queue_us.p99", ol.queue_p99_us);
    layers.set_quantile("serve.parse_us.p50", "parse", 0.5, 1e3);
    layers.set_quantile("serve.hit_us.p50", "hit", 0.5, 1e3);
    layers.set_quantile("serve.hit_us.p99", "hit", 0.99, 1e3);
    layers.set_quantile("serve.miss_ms.p50", "miss", 0.5, 1e6);
    layers.set(
        "serve.memo_hit_ratio",
        resps.iter().filter(|r| r.memo).count() as f64 / resps.len().max(1) as f64,
    );
    layers.set_quantile("serve.transport_us.p50", "transport", 0.5, 1e3);
    for r in &resps {
        layers.push("wire_bytes", r.bytes as f64);
    }
    layers.set_quantile("serve.response_kb.p50", "wire_bytes", 0.5, 1024.0);

    // a memo miss: run_opt over the warm disk cache, then export
    {
        let _span = nd_obs::span!("bench.phase.opt_export");
        let opts = OptOptions {
            threads: Some(2),
            use_cache: true,
            cache_dir: Some(cache.clone()),
            strict_cache: true,
        };
        let (mut hits, mut evaluated) = (0usize, 0usize);
        for s in hot.pool.iter().take(64) {
            let Ok(spec) = nd_opt::OptSpec::from_json_str(&s.json()) else {
                continue;
            };
            let _ctx = nd_obs::trace::push_context(s.name.clone());
            if let Ok(outcome) = nd_opt::run_opt(&spec, &opts) {
                hits += outcome.cache_hits;
                evaluated += outcome.cache_hits + outcome.executed;
                let (json, ns) = timed("bench.opt.to_json", || nd_opt::to_json(&outcome));
                std::hint::black_box(json.len());
                layers.push("export", ns);
            }
        }
        layers.set_quantile("opt.export_us.p50", "export", 0.5, 1e3);
        layers.set(
            "sweep.cache_hit_ratio",
            hits as f64 / evaluated.max(1) as f64,
        );
    }
    {
        let _span = nd_obs::span!("bench.phase.cache");
        cache_probe(ctx, &cache, &mut layers);
    }
    let spans = sink
        .finish(&ctx.out.join("trace.jsonl"))
        .map_err(|e| e.to_string())?;
    out.note(format!("serve-hot traced: {spans} spans in trace.jsonl"));
    out.layers = layers;
    Ok(out)
}
