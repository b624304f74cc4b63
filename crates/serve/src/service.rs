//! The planning service: an in-memory response memo over the
//! content-addressed result cache, request coalescing, and the HTTP
//! router.
//!
//! Three layers answer a query, fastest first:
//!
//! 1. **Memo** — completed searches ([`OptOutcome`]s), keyed by the
//!    request spec's content hash; every endpoint renders its answer
//!    from the outcome, with no re-parsing. Warm queries never touch
//!    disk; this is what makes sub-millisecond loopback p99 possible.
//! 2. **Result cache** — `nd-sweep`'s on-disk [`nd_sweep::ResultCache`],
//!    shared with every CLI sweep and search. A memo miss re-runs the
//!    search, but each candidate evaluation is served from here when
//!    present ("re-evaluate on miss"); corrupt entries abort with a 500
//!    ([`nd_opt::OptOptions::strict_cache`]) rather than being silently
//!    recomputed.
//! 3. **Worker pool** — actual cache-miss evaluations run on the same
//!    `pool::run_parallel` machinery the CLIs use.
//!
//! Identical concurrent requests *coalesce*: the first becomes the
//! leader and computes, the rest block on the leader's slot and reuse its
//! result — a thundering herd of N identical cache-miss requests costs
//! exactly one evaluation (`serve.computed` stays 1, `serve.coalesced`
//! counts the N−1 followers).

use crate::api::{parse_request, ApiError, Endpoint, Request, API_VERSION};
use crate::http;
use nd_opt::{point_value, run_opt, OptError, OptOptions, OptOutcome, OptSpec};
use nd_sweep::value::Value;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// How a particular request got its answer (the response `served` block).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Served {
    /// Answered from the in-memory memo — no search, no disk.
    pub memo: bool,
    /// Coalesced onto another request's in-flight computation.
    pub coalesced: bool,
}

/// What a planner runs on a memo miss.
type Compute = dyn Fn(&OptSpec) -> Result<OptOutcome, OptError> + Send + Sync;

enum SlotState {
    Pending,
    Ready(Result<Arc<OptOutcome>, ApiError>),
}

/// One memo entry: leader computes, followers wait on the condvar.
struct Slot {
    state: Mutex<SlotState>,
    ready: Condvar,
}

struct Memo {
    entries: HashMap<String, Arc<Slot>>,
    /// Insertion order, for capacity eviction (oldest first).
    order: VecDeque<String>,
}

/// The query engine behind all three endpoints.
pub struct Planner {
    compute: Box<Compute>,
    memo: Mutex<Memo>,
    capacity: usize,
}

impl Planner {
    /// A planner over [`run_opt`] with `opts`, forcing
    /// [`strict_cache`](OptOptions::strict_cache): a server must surface
    /// corrupt state, not rewrite it. `capacity` bounds the memo entry
    /// count; oldest entries fall out first — their per-evaluation
    /// results stay in the on-disk cache, so recomputation after eviction
    /// is cheap.
    pub fn new(mut opts: OptOptions, capacity: usize) -> Planner {
        opts.strict_cache = true;
        Planner::with_compute(capacity, move |spec| run_opt(spec, &opts))
    }

    /// A planner that answers memo misses with `compute` in place of
    /// [`run_opt`] (tests use it to hold a leader while a herd arrives).
    pub fn with_compute(
        capacity: usize,
        compute: impl Fn(&OptSpec) -> Result<OptOutcome, OptError> + Send + Sync + 'static,
    ) -> Planner {
        Planner {
            compute: Box::new(compute),
            memo: Mutex::new(Memo {
                entries: HashMap::new(),
                order: VecDeque::new(),
            }),
            capacity: capacity.max(1),
        }
    }

    /// Answer a parsed request, returning the response body.
    pub fn handle(&self, req: &Request) -> Result<String, ApiError> {
        let (outcome, served) = self.search(&req.spec);
        let outcome = outcome?;
        if let Some(err) = empty_front(&outcome) {
            return Err(err);
        }
        let result = match req.endpoint {
            Endpoint::Front => nd_opt::to_value(&outcome),
            Endpoint::Best => {
                let budget = req.budget.expect("parse enforces");
                if outcome
                    .fronts
                    .iter()
                    .all(|f| f.best_within(budget).is_none())
                {
                    return Err(ApiError::Infeasible(format!(
                        "no configuration fits duty-cycle budget {budget}"
                    )));
                }
                let choices = outcome.fronts.iter().map(|f| {
                    table([
                        ("protocol", Value::Str(f.protocol.clone())),
                        (
                            "point",
                            f.best_within(budget).map_or(Value::Null, point_value),
                        ),
                    ])
                });
                table([
                    ("budget", Value::Float(budget)),
                    ("choices", Value::Array(choices.collect())),
                ])
            }
            Endpoint::Gap => {
                let fronts = outcome.fronts.iter().map(|f| {
                    let gap = f.gap_summary();
                    table([
                        ("protocol", Value::Str(f.protocol.clone())),
                        ("points", Value::Int(f.front.len() as i64)),
                        ("gap_min", Value::Float(gap.min)),
                        ("gap_mean", Value::Float(gap.mean)),
                        ("gap_max", Value::Float(gap.max)),
                    ])
                });
                table([("fronts", Value::Array(fronts.collect()))])
            }
        };
        Ok(crate::api::success_body(
            result,
            served_block(&outcome, served),
        ))
    }

    /// The memoized, coalesced search for one spec.
    pub fn search(&self, spec: &OptSpec) -> (Result<Arc<OptOutcome>, ApiError>, Served) {
        let hash = spec.content_hash();
        let (slot, leader) = {
            let mut memo = self.memo.lock().unwrap();
            match memo.entries.get(&hash) {
                Some(slot) => (Arc::clone(slot), false),
                None => {
                    let slot = Arc::new(Slot {
                        state: Mutex::new(SlotState::Pending),
                        ready: Condvar::new(),
                    });
                    memo.order.push_back(hash.clone());
                    memo.entries.insert(hash.clone(), Arc::clone(&slot));
                    while memo.entries.len() > self.capacity {
                        if let Some(old) = memo.order.pop_front() {
                            memo.entries.remove(&old);
                        }
                    }
                    (slot, true)
                }
            }
        };

        if leader {
            nd_obs::metrics::inc("serve.computed");
            let result = (self.compute)(spec)
                .map(Arc::new)
                .map_err(|e| ApiError::from_opt_error(&e.0));
            *slot.state.lock().unwrap() = SlotState::Ready(result.clone());
            slot.ready.notify_all();
            if result.is_err() {
                // failures are answered to everyone already waiting but
                // not memoized: a later retry may find the cache healed
                let mut memo = self.memo.lock().unwrap();
                memo.entries.remove(&hash);
                memo.order.retain(|h| h != &hash);
            }
            (
                result,
                Served {
                    memo: false,
                    coalesced: false,
                },
            )
        } else {
            let mut state = slot.state.lock().unwrap();
            // counted before waiting, so a herd can be observed while its
            // leader still computes
            let coalesced = matches!(*state, SlotState::Pending);
            nd_obs::metrics::inc(if coalesced {
                "serve.coalesced"
            } else {
                "serve.memo_hits"
            });
            while matches!(*state, SlotState::Pending) {
                state = slot.ready.wait(state).unwrap();
            }
            let SlotState::Ready(result) = &*state else {
                unreachable!("the wait loop only exits on Ready")
            };
            (
                result.clone(),
                Served {
                    memo: !coalesced,
                    coalesced,
                },
            )
        }
    }
}

/// A JSON object from its entries.
fn table<const N: usize>(entries: [(&str, Value); N]) -> Value {
    Value::Table(entries.map(|(k, v)| (k.to_string(), v)).into())
}

/// Build the response `served` block. Cost fields describe work done on
/// behalf of *this* request: memo hits and coalesced followers report
/// zero executions (the leader's response carries the real cost).
fn served_block(outcome: &OptOutcome, served: Served) -> Value {
    let fresh = !served.memo && !served.coalesced;
    let cost = |n: usize| Value::Int(if fresh { n as i64 } else { 0 });
    table([
        ("memo", Value::Bool(served.memo)),
        ("coalesced", Value::Bool(served.coalesced)),
        ("executed", cost(outcome.executed)),
        ("cache_hits", cost(outcome.cache_hits)),
        ("wall_us", cost(outcome.wall.as_micros() as usize)),
    ])
}

/// The `empty-front` error, mirroring the `nd-opt` CLI diagnostic: when
/// any protocol's front is empty, aggregate its per-reason censoring
/// counts into the error payload so the client learns why.
fn empty_front(outcome: &OptOutcome) -> Option<ApiError> {
    let empty: Vec<_> = outcome
        .fronts
        .iter()
        .filter(|f| f.front.is_empty())
        .collect();
    if empty.is_empty() {
        return None;
    }
    let mut censored: BTreeMap<String, i64> = BTreeMap::new();
    for (reason, count) in empty.iter().flat_map(|f| &f.censored) {
        *censored.entry(reason.to_string()).or_insert(0) += *count as i64;
    }
    let names: Vec<&str> = empty.iter().map(|f| f.protocol.as_str()).collect();
    Some(ApiError::EmptyFront {
        message: format!(
            "empty front for {} (every candidate censored — see `censored` for reasons)",
            names.join(", ")
        ),
        censored,
    })
}

/// Liveness state behind `/healthz`: build identity, uptime, and
/// background-pass gauges. Shared between the router (which reports it)
/// and the background loop ([`crate::stages::spawn`], which marks
/// completed passes).
pub struct Health {
    start: Instant,
    /// Completed background passes.
    cycles: AtomicU64,
    /// Milliseconds from `start` to the last completed pass.
    last_cycle_ms: AtomicU64,
    spool: Option<PathBuf>,
}

impl Health {
    /// Fresh health state; `spool` is the ingest directory to report the
    /// depth of (None when no spool is configured).
    pub fn new(spool: Option<PathBuf>) -> Arc<Health> {
        Arc::new(Health {
            start: Instant::now(),
            cycles: AtomicU64::new(0),
            last_cycle_ms: AtomicU64::new(0),
            spool,
        })
    }

    /// Record a completed background pass.
    pub fn mark_cycle(&self) {
        self.last_cycle_ms
            .store(self.start.elapsed().as_millis() as u64, Ordering::Relaxed);
        self.cycles.fetch_add(1, Ordering::Relaxed);
    }

    /// Pending (non-rejected) files in the spool; `None` when no spool
    /// is configured.
    fn spool_depth(&self) -> Option<i64> {
        Some(crate::stages::spool_files(self.spool.as_ref()?)?.len() as i64)
    }

    /// The `/healthz` response body.
    fn body(&self) -> String {
        let cycles = self.cycles.load(Ordering::Relaxed);
        let last_cycle_age_s = if cycles == 0 {
            Value::Null
        } else {
            let last_ms = self.last_cycle_ms.load(Ordering::Relaxed);
            let now_ms = self.start.elapsed().as_millis() as u64;
            Value::Float(now_ms.saturating_sub(last_ms) as f64 / 1e3)
        };
        table([
            ("api", Value::Str(API_VERSION.to_string())),
            ("status", Value::Str("ok".to_string())),
            ("version", Value::Str(env!("CARGO_PKG_VERSION").to_string())),
            ("engine", Value::Str(nd_sweep::ENGINE_VERSION.to_string())),
            ("uptime_s", Value::Float(self.start.elapsed().as_secs_f64())),
            (
                "stage_cycles",
                Value::Int(cycles.min(i64::MAX as u64) as i64),
            ),
            (
                "spool_depth",
                self.spool_depth().map_or(Value::Null, Value::Int),
            ),
            ("last_cycle_age_s", last_cycle_age_s),
        ])
        .to_json_pretty()
    }
}

/// A fresh request id when the client did not send `X-ND-Trace-Id`:
/// 16 hex digits from a SplitMix64 over (monotonic time, pid, sequence).
fn generate_trace_id() -> String {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let mut z = nd_obs::trace::now_ns()
        ^ ((std::process::id() as u64) << 32)
        ^ SEQ
            .fetch_add(1, Ordering::Relaxed)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    format!("{:016x}", z ^ (z >> 31))
}

/// The HTTP router: maps methods/paths to the planner and the control
/// endpoints, and owns per-request observability: the request's trace
/// id (honored from `X-ND-Trace-Id` or generated), the `serve.request`
/// span and everything under it stamped with that id, request counters,
/// per-endpoint latency histograms, and the access log.
pub struct App {
    planner: Arc<Planner>,
    shutdown: Arc<AtomicBool>,
    addr: SocketAddr,
    health: Arc<Health>,
    access_log: bool,
}

impl App {
    /// Wire a router to a planner. `addr` is the server's own bound
    /// address (the shutdown handler pokes it to unblock the accept
    /// loop); `shutdown` is shared with [`http::Server::run`]. The
    /// default health state has no spool and the access log is off —
    /// see [`App::with_health`] / [`App::with_access_log`].
    pub fn new(planner: Arc<Planner>, shutdown: Arc<AtomicBool>, addr: SocketAddr) -> App {
        App {
            planner,
            shutdown,
            addr,
            health: Health::new(None),
            access_log: false,
        }
    }

    /// Report `health` from `/healthz` (share it with the background
    /// loop, [`crate::stages::spawn`]).
    pub fn with_health(mut self, health: Arc<Health>) -> App {
        self.health = health;
        self
    }

    /// Emit one structured access-log line per request to stderr.
    pub fn with_access_log(mut self, on: bool) -> App {
        self.access_log = on;
        self
    }

    /// Handle one HTTP request.
    pub fn route(&self, req: &http::Request) -> http::Response {
        let start = Instant::now();
        let trace_id: Arc<str> = match &req.trace_id {
            Some(id) => id.as_str().into(),
            None => generate_trace_id().into(),
        };
        // Install the id as this thread's trace context before opening
        // the request span: every span from here down — including pool
        // evaluation spans on worker threads — carries it.
        let _ctx = nd_obs::trace::set_context(Some(Arc::clone(&trace_id)));
        let _span = nd_obs::span!(
            "serve.request",
            method = req.method.as_str(),
            path = req.path.as_str()
        );
        nd_obs::metrics::inc("serve.requests");
        let resp = match self.dispatch(req) {
            Ok(resp) => resp,
            Err(err) => {
                nd_obs::metrics::inc(&format!("serve.errors.{}", err.code()));
                http::Response::json(err.status(), err.to_body())
            }
        };
        let us = start.elapsed().as_micros() as u64;
        nd_obs::metrics::observe("serve.request_us", us);
        if let Some(endpoint) = Endpoint::from_path(&req.path) {
            nd_obs::metrics::observe(&format!("serve.{}_us", endpoint.name()), us);
        }
        if self.access_log {
            eprintln!(
                "{}",
                table([
                    ("t", Value::Str("access".to_string())),
                    ("method", Value::Str(req.method.clone())),
                    ("path", Value::Str(req.path.clone())),
                    ("status", Value::Int(resp.status as i64)),
                    ("us", Value::Int(us as i64)),
                    ("trace_id", Value::Str(trace_id.as_ref().to_string())),
                ])
                .to_json()
            );
        }
        resp.with_trace_id(trace_id.as_ref())
    }

    fn dispatch(&self, req: &http::Request) -> Result<http::Response, ApiError> {
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => Ok(http::Response::json(200, self.health.body())),
            ("GET", "/v1/metrics") => match req.query.as_deref() {
                None => Ok(http::Response::json(
                    200,
                    nd_obs::metrics::snapshot().to_json(),
                )),
                Some("format=prometheus") => Ok(http::Response::text(
                    200,
                    nd_obs::metrics::snapshot().to_prometheus(),
                )),
                Some(other) => Err(ApiError::BadRequest(format!(
                    "unknown metrics query `{other}` (supported: format=prometheus)"
                ))),
            },
            ("POST", "/v1/shutdown") => {
                self.shutdown.store(true, Ordering::SeqCst);
                http::wake(self.addr);
                Ok(http::Response::json(200, status_body("shutting-down")))
            }
            ("POST", path) if Endpoint::from_path(path).is_some() => {
                let endpoint = Endpoint::from_path(path).expect("guarded");
                let parsed = parse_request(endpoint, &req.body)?;
                let body = self.planner.handle(&parsed)?;
                Ok(http::Response::json(200, body))
            }
            (_, path)
                if Endpoint::from_path(path).is_some()
                    || matches!(path, "/healthz" | "/v1/metrics" | "/v1/shutdown") =>
            {
                Err(ApiError::MethodNotAllowed(format!(
                    "{} does not accept {}",
                    path, req.method
                )))
            }
            (_, path) => Err(ApiError::NotFound(format!("no such endpoint `{path}`"))),
        }
    }
}

fn status_body(status: &str) -> String {
    table([
        ("api", Value::Str(API_VERSION.to_string())),
        ("status", Value::Str(status.to_string())),
    ])
    .to_json_pretty()
}
