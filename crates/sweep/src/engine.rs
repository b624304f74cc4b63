//! The sweep engine: expand a spec into jobs, serve what the cache
//! already knows, execute the rest across all cores, aggregate rows.
//!
//! Execution is deterministic end to end: per-job RNG seeds derive from
//! the job's content hash ([`Job::seed`]), the worker pool writes results
//! into index-ordered slots, and every backend is itself deterministic
//! given its seed — so the same spec produces byte-identical exports
//! whether it ran on 1 thread or 64, fresh or from cache.

use crate::cache::{CachedResult, ResultCache};
use crate::grid::{expand, Job};
use crate::pool::{default_threads, run_parallel};
use crate::spec::{Backend, Deadline, Horizon, Metric, ScenarioSpec};
use crate::value::Value;
use nd_analysis::{
    two_way_from, two_way_worst_case, AnalysisConfig, FirstHitError, FirstHits,
    LatencyDistribution, LatencySummary,
};
use nd_core::bounds::asymmetric::{asymmetry_penalty, product_vs_joint_budget};
use nd_core::error::NdError;
use nd_core::schedule::Schedule;
use nd_core::time::Tick;
use nd_netsim::{ChurnPlan, NetSimulator, NodeSpec, PairMetric};
use nd_sim::{Behavior, Drifting, ScheduleBehavior, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::fmt;
use std::time::{Duration, Instant};

/// Options orthogonal to the spec: where to cache, how parallel to run.
#[derive(Clone, Debug)]
pub struct SweepOptions {
    /// Worker threads; `None` = all cores.
    pub threads: Option<usize>,
    /// Consult/populate the result cache.
    pub use_cache: bool,
    /// Cache location; `None` = [`ResultCache::default_dir`].
    pub cache_dir: Option<std::path::PathBuf>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            threads: None,
            use_cache: true,
            cache_dir: None,
        }
    }
}

impl SweepOptions {
    /// Options for hermetic in-process use (experiments, tests): no disk
    /// cache.
    pub fn uncached() -> Self {
        SweepOptions {
            use_cache: false,
            ..Self::default()
        }
    }
}

/// One result row: the job's resolved parameters plus its metrics (or
/// error).
#[derive(Clone, Debug)]
pub struct Row {
    /// Parameter columns in presentation order.
    pub params: Vec<(&'static str, Value)>,
    /// Metric name → value (empty if the job failed).
    pub metrics: BTreeMap<String, f64>,
    /// The job's failure, if any.
    pub error: Option<String>,
    /// Whether this row was served from the cache.
    pub from_cache: bool,
}

impl Row {
    /// Look a metric up by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Look a parameter up by name.
    pub fn param(&self, name: &str) -> Option<&Value> {
        self.params.iter().find(|(k, _)| *k == name).map(|(_, v)| v)
    }
}

/// A completed sweep.
#[derive(Debug)]
pub struct SweepOutcome {
    /// The spec's human-readable name.
    pub name: String,
    /// The spec's content hash.
    pub spec_hash: String,
    /// One row per job, in grid-expansion order.
    pub rows: Vec<Row>,
    /// Jobs actually executed this run.
    pub executed: usize,
    /// Jobs served from the cache.
    pub cache_hits: usize,
    /// Wall-clock duration of the sweep.
    pub wall: Duration,
}

/// Engine-level error (spec or I/O; individual job failures live in rows).
#[derive(Debug)]
pub struct SweepError(pub String);

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sweep failed: {}", self.0)
    }
}

impl std::error::Error for SweepError {}

/// Run a sweep: expand, consult the cache, execute misses in parallel,
/// store, aggregate.
pub fn run_sweep(spec: &ScenarioSpec, opts: &SweepOptions) -> Result<SweepOutcome, SweepError> {
    spec.validate().map_err(|e| SweepError(e.to_string()))?;
    let _run_span = nd_obs::span!("sweep.run", name = spec.name.as_str());
    let start = Instant::now();
    let jobs = {
        let _span = nd_obs::span!("sweep.expand");
        expand(spec)
    };
    nd_obs::metrics::add("sweep.jobs", jobs.len() as u64);
    let cache = opts.use_cache.then(|| {
        ResultCache::at(
            opts.cache_dir
                .clone()
                .unwrap_or_else(ResultCache::default_dir),
        )
    });

    // cache pass: split into hits and misses
    let mut results: Vec<Option<CachedResult>> = Vec::with_capacity(jobs.len());
    let mut hit_flags: Vec<bool> = Vec::with_capacity(jobs.len());
    let mut misses: Vec<&Job> = Vec::new();
    {
        let _span = nd_obs::span!("sweep.cache_probe", jobs = jobs.len());
        for job in &jobs {
            // corrupt entries (`Err`) degrade to misses here: a sweep can
            // always recompute, and the overwriting store heals the entry
            let hit = cache
                .as_ref()
                .and_then(|c| c.load(&job.content_hash(spec)).unwrap_or(None));
            hit_flags.push(hit.is_some());
            if hit.is_none() {
                misses.push(job);
            }
            results.push(hit);
        }
    }
    let cache_hits = jobs.len() - misses.len();
    nd_obs::metrics::add("sweep.cache_hits", cache_hits as u64);

    // execute the misses across all cores
    let threads = opts.threads.unwrap_or_else(default_threads);
    let executed = run_parallel(&misses, threads, |_, job| {
        let _span = nd_obs::span!("sweep.job", job = job.index);
        let outcome = execute_job(job, spec);
        let result = match outcome {
            Ok(metrics) => CachedResult {
                metrics,
                error: None,
            },
            Err(e) => CachedResult {
                metrics: BTreeMap::new(),
                error: Some(e),
            },
        };
        if let Some(c) = &cache {
            c.store(&job.content_hash(spec), &result);
        }
        (job.index, result)
    });
    let executed_count = executed.len();
    nd_obs::metrics::add("sweep.executed", executed_count as u64);
    for (index, result) in executed {
        results[index] = Some(result);
    }

    let rows: Vec<Row> = jobs
        .iter()
        .zip(results)
        .zip(&hit_flags)
        .map(|((job, result), &from_cache)| {
            let result = result.expect("every job resolved");
            Row {
                params: job.params(),
                metrics: result.metrics,
                error: result.error,
                from_cache,
            }
        })
        .collect();
    nd_obs::metrics::add(
        "sweep.errors",
        rows.iter().filter(|r| r.error.is_some()).count() as u64,
    );

    Ok(SweepOutcome {
        name: spec.name.clone(),
        spec_hash: spec.content_hash(),
        rows,
        executed: executed_count,
        cache_hits,
        wall: start.elapsed(),
    })
}

/// Execute one job on the spec's backend.
pub fn execute_job(job: &Job, spec: &ScenarioSpec) -> Result<BTreeMap<String, f64>, String> {
    match spec.backend {
        Backend::Bounds => {
            let _span = nd_obs::span!("backend.bounds", job = job.index);
            exec_bounds(job, spec)
        }
        Backend::Exact => {
            let mut span = nd_obs::span!("backend.exact", job = job.index);
            exec_exact(job, spec, &mut span)
        }
        Backend::MonteCarlo => {
            let _span = nd_obs::span!("backend.montecarlo", job = job.index);
            exec_montecarlo(job, spec)
        }
        Backend::Netsim => {
            let _span = nd_obs::span!("backend.netsim", job = job.index);
            exec_netsim(job, spec)
        }
    }
}

// ---------------------------------------------------------------------------
// protocol construction
// ---------------------------------------------------------------------------

/// Build role A's per-device schedule for a job's protocol selector.
///
/// Selectors are registry names (`ProtocolKind::from_name`) built for the
/// job's η/slot, or the parametrized form `diff-code:<v>:<m1>,<m2>,…`
/// building an explicit difference-set schedule (η is then implied by the
/// set and the slot length). Parsing lives in
/// [`nd_protocols::schedule_for_selector`] so the cohort simulator and any
/// future frontends share one grammar.
pub fn build_schedule(job: &Job, spec: &ScenarioSpec) -> Result<Schedule, String> {
    job.role_a()
        .schedule(spec.radio.omega)
        .map_err(|e: NdError| e.to_string())
}

/// Build both role schedules of a job's pair (role B reuses role A's
/// schedule when the pair is symmetric).
pub fn build_role_schedules(
    job: &Job,
    spec: &ScenarioSpec,
) -> Result<(Schedule, Schedule), String> {
    job.role_pair()
        .schedules(spec.radio.omega)
        .map_err(|e: NdError| e.to_string())
}

fn analysis_config(spec: &ScenarioSpec) -> AnalysisConfig {
    let mut cfg = AnalysisConfig::with_omega(spec.radio.omega);
    cfg.model = spec.overlap;
    cfg
}

/// The schedule pair's nominal guarantee: the exact worst-case two-way
/// latency (used for `horizon_predicted_x` and `deadline = "predicted"`).
fn predicted_worst(a: &Schedule, b: &Schedule, spec: &ScenarioSpec) -> Result<Tick, String> {
    two_way_worst_case(a, b, &analysis_config(spec))
        .map_err(|e| format!("cannot derive predicted latency (needed for horizon/deadline): {e}"))
}

// ---------------------------------------------------------------------------
// backends
// ---------------------------------------------------------------------------

fn exec_bounds(job: &Job, spec: &ScenarioSpec) -> Result<BTreeMap<String, f64>, String> {
    let omega = spec.radio.omega.as_secs_f64();
    let alpha = spec.radio.alpha;
    // explicit (η_E, η_F) pair: Theorem 5.7 evaluated directly on the
    // per-device duty cycles (`eta` = η_E, `eta_b` = η_F)
    if let Some(eta_f) = job.eta_b {
        let eta_e = job.eta;
        if !(eta_e > 0.0 && eta_e <= 1.0) {
            return Err(format!("η_E = {eta_e} out of (0, 1]"));
        }
        let bound = nd_core::bounds::asymmetric_bound(alpha, omega, eta_e, eta_f);
        let sum = eta_e + eta_f;
        let ratio = eta_e.max(eta_f) / eta_e.min(eta_f);
        let mut m = BTreeMap::new();
        m.insert("bound_s".to_string(), bound);
        m.insert("product".to_string(), bound * sum);
        m.insert("penalty".to_string(), asymmetry_penalty(ratio));
        m.insert("eta_sum".to_string(), sum);
        return Ok(m);
    }
    // legacy joint-budget parametrization: `eta` = η_E + η_F, split by
    // the `ratio` axis
    if job.ratio < 1.0 {
        return Err(format!("ratio {} must be ≥ 1 (η_E/η_F)", job.ratio));
    }
    let sum = job.eta;
    if !(sum > 0.0 && sum <= 2.0) {
        return Err(format!("joint budget η_E+η_F = {sum} out of (0, 2]"));
    }
    let product = product_vs_joint_budget(alpha, omega, sum, job.ratio);
    let mut m = BTreeMap::new();
    m.insert("product".to_string(), product);
    m.insert("bound_s".to_string(), product / sum);
    m.insert("penalty".to_string(), asymmetry_penalty(job.ratio));
    Ok(m)
}

/// The exact backend: one first-hit computation per discovery direction
/// (one in total for a symmetric pair) answers every row metric. `span`
/// (`backend.exact`) gains the computation's `phases`, `images`,
/// `beacons_needed` and `exit` (covered / saturated / budget).
fn exec_exact(
    job: &Job,
    spec: &ScenarioSpec,
    span: &mut nd_obs::trace::Span,
) -> Result<BTreeMap<String, f64>, String> {
    let (sched_a, sched_b) = build_role_schedules(job, spec)?;
    // the one-way metric is "device 1 (role B) discovers device 0
    // (role A)": role A's beacons against role B's listening windows
    let beacons = sched_a
        .beacons
        .as_ref()
        .ok_or("role A never transmits; exact one-way analysis needs beacons")?;
    let windows = sched_b
        .windows
        .as_ref()
        .ok_or("role B never listens; exact one-way analysis needs windows")?;
    let cfg = analysis_config(spec);

    let hits = FirstHits::compute(beacons, windows, &cfg).map_err(|e| {
        if let FirstHitError::Budget { .. } = e {
            span.record("exit", "budget");
        }
        NdError::from(e).to_string()
    })?;
    let cov = hits.coverage();
    let mut m = BTreeMap::new();
    m.insert("worst_s".to_string(), cov.worst_covered.as_secs_f64());
    m.insert("mean_s".to_string(), cov.mean_covered);
    m.insert(
        "packet_to_packet_s".to_string(),
        cov.packet_to_packet.as_secs_f64(),
    );
    m.insert(
        "undiscovered_prob".to_string(),
        cov.undiscovered_probability,
    );
    m.insert("beacons_needed".to_string(), cov.beacons_needed as f64);

    if spec.percentiles {
        let dist = LatencyDistribution::from_first_hits(&hits);
        for (name, q) in [("p50_s", 0.50), ("p95_s", 0.95), ("p99_s", 0.99)] {
            m.insert(name.to_string(), dist.quantile(q));
        }
    }

    let two_way =
        (spec.metric == Metric::TwoWay).then(|| two_way_from(&sched_a, &sched_b, &hits, &cfg));
    // a two-way row of an asymmetric pair computes the reverse direction too
    let images = match &two_way {
        Some(Ok((_, Some(reverse)))) => hits.images() + reverse.images(),
        _ => hits.images(),
    };
    nd_obs::metrics::add("exact.images", images as u64);
    if span.is_recording() {
        span.record("phases", hits.phases());
        span.record("images", images);
        span.record("beacons_needed", cov.beacons_needed);
        span.record("exit", hits.exit());
    }
    if let Some(two) = two_way {
        let (two, _) = two.map_err(|e| e.to_string())?;
        m.insert("two_way_worst_s".to_string(), two.as_secs_f64());
    }
    if job.has_role_b() {
        // heterogeneous pairs annotate their achieved per-role duty
        // cycles and the Theorem 5.7 reference (new metric columns only
        // on role-typed jobs: symmetric rows — and their cached entries —
        // stay byte-identical)
        let (dc_a, dc_b) = (sched_a.eta(spec.radio.alpha), sched_b.eta(spec.radio.alpha));
        m.insert("duty_cycle_a".to_string(), dc_a);
        m.insert("duty_cycle_b".to_string(), dc_b);
        if dc_a > 0.0 && dc_b > 0.0 {
            m.insert(
                "asym_bound_s".to_string(),
                nd_core::bounds::asymmetric_bound(
                    spec.radio.alpha,
                    spec.radio.omega.as_secs_f64(),
                    dc_a,
                    dc_b,
                ),
            );
        }
    }
    Ok(m)
}

/// Resolve the trial horizon and optional deadline for a simulation
/// backend; the `predicted` guarantee is computed only when either needs
/// it. `pairs` lists the schedule pair classes the run actually
/// simulates (one (A, B) entry for the pairwise backends; the present
/// classes of (A-A, A-B, B-B) for a mixed cohort): the prediction is
/// the worst over the classes with a defined exact worst case, so no
/// simulated pair class is silently censored by a horizon anchored to a
/// faster class. Classes *without* a worst-case guarantee (e.g. the
/// same-role pairs of a coupled Theorem 5.7 construction, which only
/// guarantees cross discovery) do not extend the horizon; only if no
/// class resolves is that an error. Returns
/// `(predicted, horizon, deadline)`.
fn resolve_horizon(
    pairs: &[(&Schedule, &Schedule)],
    spec: &ScenarioSpec,
) -> Result<(Option<Tick>, Tick, Option<Tick>), String> {
    let predicted = match (spec.sim.horizon, spec.sim.deadline) {
        (Horizon::PredictedTimes(_), _) | (_, Some(Deadline::Predicted)) => {
            let mut worst: Option<Tick> = None;
            let mut last_err = String::new();
            for (a, b) in pairs {
                match predicted_worst(a, b, spec) {
                    Ok(t) => worst = Some(worst.map_or(t, |w| w.max(t))),
                    Err(e) => last_err = e,
                }
            }
            Some(worst.ok_or(last_err)?)
        }
        _ => None,
    };
    let horizon = match spec.sim.horizon {
        Horizon::Fixed(t) => t,
        Horizon::PredictedTimes(x) => {
            Tick::from_secs_f64(predicted.expect("resolved above").as_secs_f64() * x)
        }
    };
    if horizon.is_zero() {
        return Err("horizon resolves to zero".into());
    }
    let deadline = match spec.sim.deadline {
        None => None,
        Some(Deadline::Predicted) => predicted,
        Some(Deadline::Fixed(t)) => Some(t),
    };
    Ok((predicted, horizon, deadline))
}

fn exec_montecarlo(job: &Job, spec: &ScenarioSpec) -> Result<BTreeMap<String, f64>, String> {
    let (sched_a, sched_b) = build_role_schedules(job, spec)?;
    let job_seed = job.seed(spec);
    let (predicted, horizon, deadline) = resolve_horizon(&[(&sched_a, &sched_b)], spec)?;

    let base_cfg = job.base_sim_config(spec);
    let radio = base_cfg.radio;

    let period_a = schedule_period(&sched_a);
    let period_b = schedule_period(&sched_b);
    let mut rng = StdRng::seed_from_u64(job_seed);
    let mut latencies: Vec<Option<Tick>> = Vec::with_capacity(spec.sim.trials);
    let mut eta_acc = 0.0;
    let mut eta_b_acc = 0.0;
    let mut energy_acc = 0.0;
    let mut energy_b_acc = 0.0;
    let mut collision_acc = 0.0;

    for trial in 0..spec.sim.trials {
        let mut cfg = base_cfg.clone();
        cfg.t_end = horizon;
        cfg.seed = nd_core::seed::stream_seed(job_seed, trial as u64);
        let (phase_a, phase_b) = match job.phase {
            Some(p) => (Tick::ZERO, p),
            None => (
                random_phase(period_a, &mut rng),
                random_phase(period_b, &mut rng),
            ),
        };
        let mut sim = NetSimulator::new(cfg, Topology::full(2));
        for (sched, phase, ppm) in [(&sched_a, phase_a, 0), (&sched_b, phase_b, job.drift_ppm)] {
            let behavior = ScheduleBehavior::with_phase(sched.clone(), phase);
            sim.add_node(NodeSpec::always_on(Box::new(Drifting::ppm(behavior, ppm))));
        }
        sim.stop_when_all_discovered(spec.metric == Metric::TwoWay);
        let report = sim.run();
        latencies.push(match spec.metric {
            Metric::OneWay => report.discovery.one_way(1, 0),
            Metric::EitherWay => report.discovery.either_way(0, 1),
            Metric::TwoWay => report.discovery.two_way(0, 1),
        });
        let elapsed = report.elapsed.max(Tick(1));
        eta_acc += report.stats[0].eta_with_overheads(elapsed, &radio);
        energy_acc += report.stats[0].energy_joules(&radio, spec.radio.prx_mw * 1e-3);
        if job.has_role_b() {
            // only role-typed jobs report per-role columns
            eta_b_acc += report.stats[1].eta_with_overheads(elapsed, &radio);
            energy_b_acc += report.stats[1].energy_joules(&radio, spec.radio.prx_mw * 1e-3);
        }
        collision_acc += report.packets.collision_rate();
    }

    let summary = LatencySummary::from_latencies(&latencies);
    let trials = spec.sim.trials.max(1) as f64;
    let mut m = BTreeMap::new();
    m.insert("trials".to_string(), spec.sim.trials as f64);
    m.insert("failure_rate".to_string(), summary.failure_rate());
    m.insert("mean_s".to_string(), summary.mean);
    m.insert("p50_s".to_string(), summary.p50);
    m.insert("p95_s".to_string(), summary.p95);
    m.insert("p99_s".to_string(), summary.p99);
    m.insert("max_s".to_string(), summary.max);
    m.insert("measured_eta".to_string(), eta_acc / trials);
    m.insert("energy_mj".to_string(), energy_acc * 1e3 / trials);
    m.insert("collision_rate".to_string(), collision_acc / trials);
    if job.has_role_b() {
        // per-role energy accounting (role-typed jobs only, so symmetric
        // metric rows — and their cached entries — stay byte-identical)
        m.insert("measured_eta_b".to_string(), eta_b_acc / trials);
        m.insert("energy_b_mj".to_string(), energy_b_acc * 1e3 / trials);
    }
    if let Some(d) = deadline {
        let over = latencies.iter().filter(|l| l.is_none_or(|t| t > d)).count();
        m.insert(
            "over_deadline_frac".to_string(),
            over as f64 / latencies.len().max(1) as f64,
        );
        m.insert("deadline_s".to_string(), d.as_secs_f64());
    }
    if let Some(p) = predicted {
        m.insert("predicted_s".to_string(), p.as_secs_f64());
    }
    Ok(m)
}

/// The netsim backend: N nodes running the job's role configurations
/// concurrently on one collision channel, with staggered join/leave churn
/// and per-node drift. A `mix` of m puts `round(m·N)` role-B nodes (the
/// highest node ids) among the role-A majority. All randomness (phases,
/// drift draws, churn plans, fault rolls) derives from the job's
/// content-hash seed, so results are reproducible across hosts and
/// thread counts.
fn exec_netsim(job: &Job, spec: &ScenarioSpec) -> Result<BTreeMap<String, f64>, String> {
    let pair = job.role_pair();
    let (sched_a, sched_b) = build_role_schedules(job, spec)?;
    let n = job.nodes as usize;
    if n < 2 {
        return Err(format!("nodes {n} below 2 (discovery needs a pair)"));
    }
    let count_b = (job.mix * n as f64).round() as usize;
    let is_role_b = |i: usize| i >= n - count_b;
    let job_seed = job.seed(spec);
    // the horizon must accommodate every pair class the cohort actually
    // contains, not just the cross-role one
    let mut classes: Vec<(&Schedule, &Schedule)> = Vec::new();
    if count_b < n {
        classes.push((&sched_a, &sched_a));
    }
    if count_b > 0 {
        classes.push((&sched_b, &sched_b));
        if count_b < n {
            classes.push((&sched_a, &sched_b));
        }
    }
    let (predicted, horizon, deadline) = resolve_horizon(&classes, spec)?;
    let base_cfg = job.base_sim_config(spec);
    let radio = base_cfg.radio;
    let period_a = schedule_period(&sched_a);
    let period_b = schedule_period(&sched_b);
    let metric = match spec.metric {
        Metric::OneWay => PairMetric::OneWay,
        Metric::TwoWay => PairMetric::TwoWay,
        Metric::EitherWay => PairMetric::EitherWay,
    };

    let mut rng = StdRng::seed_from_u64(job_seed ^ 0xd6e8_feb8_6659_fd93);
    let mut pair_latencies: Vec<Option<Tick>> = Vec::new();
    let mut cross_latencies: Vec<Option<Tick>> = Vec::new();
    let mut first_contacts: Vec<Option<Tick>> = Vec::new();
    let mut complete_trials = 0usize;
    let mut cohort_acc = 0.0;
    let mut discovered_acc = 0.0;
    let mut eta_acc = 0.0;
    let mut collision_acc = 0.0;

    for trial in 0..spec.sim.trials {
        let mut cfg = base_cfg.clone();
        cfg.t_end = horizon;
        cfg.seed = nd_core::seed::stream_seed(job_seed, trial as u64);
        let plan = if job.churn > 0.0 {
            ChurnPlan::staggered(n, job.churn, horizon, &mut rng)
        } else {
            ChurnPlan::stable(n)
        };
        let mut sim = NetSimulator::new(cfg, Topology::full(n));
        for i in 0..n {
            let (sched, period, role) = if is_role_b(i) {
                (&sched_b, period_b, &pair.b)
            } else {
                (&sched_a, period_a, &pair.a)
            };
            let phase = random_phase(period, &mut rng);
            let behavior = ScheduleBehavior::with_phase(sched.clone(), phase).labeled(role.label());
            let behavior: Box<dyn Behavior> = if job.drift_ppm == 0 {
                Box::new(behavior)
            } else {
                // every node drifts independently within ±drift_ppm
                let span = job.drift_ppm.unsigned_abs() as i64 * 1000;
                let ppb = rng.gen_range(-span..=span);
                Box::new(Drifting::new(Box::new(behavior) as Box<dyn Behavior>, ppb))
            };
            sim.add_node(NodeSpec::windowed(behavior, plan.joins[i], plan.leaves[i]));
        }
        sim.stop_when_all_discovered(true);
        let report = sim.run();
        let entries = report.pair_latency_entries(metric);
        let lats: Vec<Option<Tick>> = entries.iter().map(|&(_, _, l)| l).collect();
        if lats.is_empty() {
            discovered_acc += 1.0; // nothing was possible, nothing was missed
        } else {
            let done = lats.iter().filter(|l| l.is_some()).count();
            discovered_acc += done as f64 / lats.len() as f64;
            if done == lats.len() {
                complete_trials += 1;
                cohort_acc += lats
                    .iter()
                    .flatten()
                    .max()
                    .expect("non-empty")
                    .as_secs_f64();
            }
        }
        cross_latencies.extend(
            entries
                .iter()
                .filter(|&&(a, b, _)| is_role_b(a) != is_role_b(b))
                .map(|&(_, _, l)| l),
        );
        pair_latencies.extend(lats);
        first_contacts.extend(report.first_contacts());
        eta_acc += report.mean_eta(&radio);
        collision_acc += report.packets.collision_rate();
    }

    let pair = LatencySummary::from_latencies(&pair_latencies);
    let first = LatencySummary::from_latencies(&first_contacts);
    let trials = spec.sim.trials.max(1) as f64;
    let mut m = BTreeMap::new();
    m.insert("trials".to_string(), spec.sim.trials as f64);
    m.insert("pair_mean_s".to_string(), pair.mean);
    m.insert("pair_p50_s".to_string(), pair.p50);
    m.insert("pair_p95_s".to_string(), pair.p95);
    m.insert("pair_max_s".to_string(), pair.max);
    m.insert("pair_discovered_frac".to_string(), discovered_acc / trials);
    m.insert("first_mean_s".to_string(), first.mean);
    m.insert("first_p50_s".to_string(), first.p50);
    m.insert(
        "cohort_complete_frac".to_string(),
        complete_trials as f64 / trials,
    );
    m.insert(
        "cohort_worst_s".to_string(),
        if complete_trials > 0 {
            cohort_acc / complete_trials as f64
        } else {
            f64::NAN
        },
    );
    m.insert("measured_eta".to_string(), eta_acc / trials);
    m.insert("collision_rate".to_string(), collision_acc / trials);
    if job.has_role_b() {
        // the cross-role slice of the pair distribution — the latencies a
        // mixed deployment (tags vs. anchors, advertisers vs. scanners)
        // actually cares about. Role-typed jobs only, so symmetric metric
        // rows — and their cached entries — stay byte-identical.
        let cross = LatencySummary::from_latencies(&cross_latencies);
        m.insert("cross_pairs".to_string(), cross_latencies.len() as f64);
        m.insert("cross_mean_s".to_string(), cross.mean);
        m.insert("cross_p50_s".to_string(), cross.p50);
        m.insert("cross_p95_s".to_string(), cross.p95);
        m.insert("cross_max_s".to_string(), cross.max);
        m.insert(
            "cross_discovered_frac".to_string(),
            if cross_latencies.is_empty() {
                1.0
            } else {
                cross_latencies.iter().filter(|l| l.is_some()).count() as f64
                    / cross_latencies.len() as f64
            },
        );
    }
    if let Some(d) = deadline {
        let over = pair_latencies
            .iter()
            .filter(|l| l.is_none_or(|t| t > d))
            .count();
        m.insert(
            "over_deadline_frac".to_string(),
            over as f64 / pair_latencies.len().max(1) as f64,
        );
        m.insert("deadline_s".to_string(), d.as_secs_f64());
    }
    if let Some(p) = predicted {
        m.insert("predicted_s".to_string(), p.as_secs_f64());
    }
    Ok(m)
}

fn schedule_period(sched: &Schedule) -> Tick {
    sched
        .beacons
        .as_ref()
        .map(|b| b.period())
        .into_iter()
        .chain(sched.windows.as_ref().map(|w| w.period()))
        .max()
        .unwrap_or(Tick(1))
}

fn random_phase(period: Tick, rng: &mut StdRng) -> Tick {
    Tick(rng.gen_range(0..period.as_nanos().max(1)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(toml: &str) -> ScenarioSpec {
        ScenarioSpec::from_toml_str(toml).unwrap()
    }

    #[test]
    fn bounds_backend_matches_closed_forms() {
        let s = spec("backend = \"bounds\"\n[grid]\neta = [0.05, 0.10]\nratio = [1.0, 2.0]\n");
        let out = run_sweep(&s, &SweepOptions::uncached()).unwrap();
        assert_eq!(out.rows.len(), 4);
        for row in &out.rows {
            assert!(row.error.is_none());
            let ratio = row.param("ratio").unwrap().as_f64().unwrap();
            let penalty = row.metric("penalty").unwrap();
            assert!((penalty - asymmetry_penalty(ratio)).abs() < 1e-12);
        }
        // the headline scaling: the product varies as 1/(η_E+η_F)
        let p = |eta: f64, ratio: f64| {
            out.rows
                .iter()
                .find(|r| {
                    r.param("eta").unwrap().as_f64() == Some(eta)
                        && r.param("ratio").unwrap().as_f64() == Some(ratio)
                })
                .unwrap()
                .metric("product")
                .unwrap()
        };
        assert!((p(0.05, 1.0) / p(0.10, 1.0) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn exact_backend_recovers_optimal_bound() {
        let s = spec(
            "backend = \"exact\"\nmetric = \"two-way\"\n[grid]\nprotocol = [\"optimal-slotless\"]\neta = [0.05]\n",
        );
        let out = run_sweep(&s, &SweepOptions::uncached()).unwrap();
        assert_eq!(out.rows.len(), 1);
        let row = &out.rows[0];
        assert!(row.error.is_none(), "{:?}", row.error);
        let bound = nd_core::bounds::symmetric_bound(1.0, 36e-6, 0.05);
        let two = row.metric("two_way_worst_s").unwrap();
        assert!(
            (two - bound).abs() / bound < 0.02,
            "two-way {two} vs bound {bound}"
        );
        assert_eq!(row.metric("undiscovered_prob"), Some(0.0));
        assert!(row.metric("p50_s").unwrap() <= row.metric("p95_s").unwrap());
    }

    #[test]
    fn bounds_backend_takes_explicit_eta_pairs() {
        let s = spec("backend = \"bounds\"\n[grid]\neta = [0.08]\neta_b = [0.02]\n");
        let out = run_sweep(&s, &SweepOptions::uncached()).unwrap();
        let row = &out.rows[0];
        assert!(row.error.is_none(), "{:?}", row.error);
        let bound = nd_core::bounds::asymmetric_bound(1.0, 36e-6, 0.08, 0.02);
        assert!((row.metric("bound_s").unwrap() - bound).abs() < 1e-12);
        assert!((row.metric("eta_sum").unwrap() - 0.10).abs() < 1e-12);
        // ratio r = 4 → penalty (1+4)²/16
        assert!((row.metric("penalty").unwrap() - 25.0 / 16.0).abs() < 1e-9);
    }

    #[test]
    fn exact_asymmetric_pair_achieves_theorem_5_7() {
        let s = spec(
            "backend = \"exact\"\nmetric = \"two-way\"\npercentiles = false\n\
             [grid]\nprotocol = [\"optimal-slotless\"]\neta = [0.08]\neta_b = [0.02]\n",
        );
        let out = run_sweep(&s, &SweepOptions::uncached()).unwrap();
        let row = &out.rows[0];
        assert!(row.error.is_none(), "{:?}", row.error);
        // the coupled construction's exact two-way worst case tracks the
        // Theorem 5.7 bound at the achieved per-role duty cycles
        let two = row.metric("two_way_worst_s").unwrap();
        let asym_bound = row.metric("asym_bound_s").unwrap();
        assert!(
            (two - asym_bound) / asym_bound < 0.01 && two >= asym_bound * (1.0 - 1e-9),
            "two-way {two} vs Theorem 5.7 bound {asym_bound}"
        );
        // the per-role duty cycles land near their budgets
        assert!((row.metric("duty_cycle_a").unwrap() - 0.08).abs() < 0.005);
        assert!((row.metric("duty_cycle_b").unwrap() - 0.02).abs() < 0.005);
    }

    #[test]
    fn montecarlo_heterogeneous_pair_respects_roles() {
        let s = spec(
            "backend = \"montecarlo\"\nmetric = \"two-way\"\n\
             [grid]\nprotocol = [\"optimal-slotless\"]\neta = [0.10]\neta_b = [0.02]\n\
             [sim]\ntrials = 6\nseed = 9\nhorizon_predicted_x = 3.0\ncollisions = false\nhalf_duplex = false\n",
        );
        let out = run_sweep(&s, &SweepOptions::uncached()).unwrap();
        let row = &out.rows[0];
        assert!(row.error.is_none(), "{:?}", row.error);
        // the deterministic coupled pair completes within its guarantee
        assert_eq!(row.metric("failure_rate"), Some(0.0));
        assert!(row.metric("max_s").unwrap() <= row.metric("predicted_s").unwrap() * 1.001);
        // per-role energy accounting: role A (η 0.10) spends ~5x role B
        let eta_a = row.metric("measured_eta").unwrap();
        let eta_b = row.metric("measured_eta_b").unwrap();
        assert!(eta_a > 3.0 * eta_b, "advertiser {eta_a} vs scanner {eta_b}");
    }

    #[test]
    fn netsim_mixed_cohort_reports_cross_role_pairs() {
        let s = spec(
            "backend = \"netsim\"\nmetric = \"one-way\"\n\
             [grid]\nprotocol = [\"optimal-slotless\"]\neta = [0.10]\neta_b = [0.05]\n\
             nodes = [4]\nmix = [0.0, 0.5]\ncollision = [false]\n\
             [sim]\ntrials = 3\nseed = 21\nhorizon_predicted_x = 4.0\n",
        );
        let out = run_sweep(&s, &SweepOptions::uncached()).unwrap();
        assert_eq!(out.rows.len(), 2);
        let pure = &out.rows[0];
        let mixed = &out.rows[1];
        assert!(pure.error.is_none(), "{:?}", pure.error);
        assert!(mixed.error.is_none(), "{:?}", mixed.error);
        // mix 0.0: all nodes role A → no cross-role pairs at all
        assert_eq!(pure.metric("cross_pairs"), Some(0.0));
        // mix 0.5 on 4 nodes: 2 role-B nodes → 2·2·2 ordered cross pairs
        // (one-way counts both directions) per trial, 3 trials
        assert_eq!(mixed.metric("cross_pairs"), Some(24.0));
        let frac = mixed.metric("cross_discovered_frac").unwrap();
        assert!((0.0..=1.0).contains(&frac));
        // both rows are deterministic (Debug-compare: NaN-valued metrics
        // like an incomplete cohort's worst must also match)
        let again = run_sweep(&s, &SweepOptions::uncached()).unwrap();
        assert_eq!(
            format!("{:?}", mixed.metrics),
            format!("{:?}", again.rows[1].metrics)
        );
    }

    #[test]
    fn unknown_protocol_is_a_row_error_not_a_crash() {
        let s = spec("[grid]\nprotocol = [\"warp-drive\"]\n");
        let out = run_sweep(&s, &SweepOptions::uncached()).unwrap();
        assert_eq!(out.rows.len(), 1);
        assert!(out.rows[0].error.as_ref().unwrap().contains("warp-drive"));
    }

    #[test]
    fn montecarlo_backend_is_deterministic() {
        let s = spec(
            "backend = \"montecarlo\"\nmetric = \"two-way\"\n\
             [grid]\nprotocol = [\"optimal-slotless\"]\neta = [0.10]\n\
             [sim]\ntrials = 8\nseed = 5\nhorizon_predicted_x = 3.0\ncollisions = false\nhalf_duplex = false\n",
        );
        let a = run_sweep(&s, &SweepOptions::uncached()).unwrap();
        let b = run_sweep(&s, &SweepOptions::uncached()).unwrap();
        assert_eq!(a.rows.len(), 1);
        assert_eq!(
            a.rows[0].metrics, b.rows[0].metrics,
            "same spec → same results"
        );
        // the deterministic optimal protocol under pair-ideal conditions
        // never fails within 3x its predicted latency
        assert_eq!(a.rows[0].metric("failure_rate"), Some(0.0));
        assert!(
            a.rows[0].metric("max_s").unwrap() <= a.rows[0].metric("predicted_s").unwrap() * 1.001
        );
    }

    #[test]
    fn netsim_backend_is_deterministic_and_scales_down_to_a_pair() {
        let s = spec(
            "backend = \"netsim\"\n\
             [grid]\nprotocol = [\"optimal-slotless\"]\neta = [0.10]\nnodes = [2, 4]\ncollision = [false, true]\n\
             [sim]\ntrials = 4\nseed = 11\nhorizon_predicted_x = 3.0\n",
        );
        let a = run_sweep(&s, &SweepOptions::uncached()).unwrap();
        let b = run_sweep(&s, &SweepOptions::uncached()).unwrap();
        assert_eq!(a.rows.len(), 4);
        for (ra, rb) in a.rows.iter().zip(&b.rows) {
            assert!(ra.error.is_none(), "{:?}", ra.error);
            assert_eq!(ra.metrics, rb.metrics, "same spec → same results");
        }
        // a collision-free pair of optimal schedules always completes,
        // within the protocol's nominal guarantee (deterministically —
        // with the collision channel on, an unlucky zero-drift phase can
        // make two identical periodic schedules collide forever)
        let pair = &a.rows[0];
        assert_eq!(pair.param("nodes").unwrap().as_i64(), Some(2));
        assert_eq!(pair.param("collision").unwrap().as_bool(), Some(false));
        assert_eq!(pair.metric("pair_discovered_frac"), Some(1.0));
        assert_eq!(pair.metric("cohort_complete_frac"), Some(1.0));
        assert!(pair.metric("pair_max_s").unwrap() <= pair.metric("predicted_s").unwrap() * 1.001);
        // larger cohorts contend: the collision channel starts to bite
        let pair_c = &a.rows[1];
        let quad_c = &a.rows[3];
        assert_eq!(quad_c.param("nodes").unwrap().as_i64(), Some(4));
        assert_eq!(quad_c.param("collision").unwrap().as_bool(), Some(true));
        assert!(
            quad_c.metric("collision_rate").unwrap() >= pair_c.metric("collision_rate").unwrap()
        );
    }

    #[test]
    fn netsim_churn_limits_discovery_to_copresence() {
        let s = spec(
            "backend = \"netsim\"\n\
             [grid]\nprotocol = [\"optimal-slotless\"]\neta = [0.10]\nnodes = [4]\nchurn = [0.5]\n\
             [sim]\ntrials = 4\nseed = 3\nhorizon_predicted_x = 4.0\n",
        );
        let out = run_sweep(&s, &SweepOptions::uncached()).unwrap();
        let row = &out.rows[0];
        assert!(row.error.is_none(), "{:?}", row.error);
        // churners co-reside during the middle third; pairs remain
        // discoverable (mostly) but a late joiner can't have heard anyone
        // before its join — the metric stays finite and sane
        let frac = row.metric("pair_discovered_frac").unwrap();
        assert!((0.0..=1.0).contains(&frac));
        assert!(row.metric("pair_mean_s").unwrap() >= 0.0);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let s = spec(
            "backend = \"exact\"\npercentiles = false\n\
             [grid]\nprotocol = [\"optimal-slotless\", \"disco\", \"searchlight\"]\neta = [0.05, 0.10]\n",
        );
        let serial = run_sweep(
            &s,
            &SweepOptions {
                threads: Some(1),
                ..SweepOptions::uncached()
            },
        )
        .unwrap();
        let parallel = run_sweep(
            &s,
            &SweepOptions {
                threads: Some(8),
                ..SweepOptions::uncached()
            },
        )
        .unwrap();
        assert_eq!(serial.rows.len(), parallel.rows.len());
        for (a, b) in serial.rows.iter().zip(&parallel.rows) {
            assert_eq!(a.metrics, b.metrics);
            assert_eq!(a.params, b.params);
        }
    }
}
