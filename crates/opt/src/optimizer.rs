//! The search: coarse grid seeding plus adaptive refinement around the
//! current front.
//!
//! Per protocol, the optimizer
//!
//! 1. seeds the protocol's declarative [`nd_protocols::ParamSpace`] with
//!    a coarse grid (`seeds_per_axis` values per parameter, log- or
//!    linearly spaced as the space declares),
//! 2. evaluates all feasible candidates in parallel on `nd-sweep`'s
//!    worker pool, serving repeats from the content-addressed result
//!    cache — with optional **adaptive trial allocation**
//!    (`[opt.adaptive]`): every new candidate is first *screened* with a
//!    reduced trial budget, and only candidates whose domination is not
//!    statistically settled are *promoted* to the full budget,
//! 3. extracts the Pareto front over (duty cycle, latency) and spends the
//!    remaining budget on *refinement*: end extensions plus the
//!    scale-appropriate midpoint between each pair of adjacent front
//!    points, ranked by the front area the gap could close (exact 2-D
//!    [`hypervolume`] rectangles), for `rounds` rounds,
//! 4. reports each front point's gap to the paper's closed-form
//!    optimality bound at its achieved duty cycle.
//!
//! The whole search is deterministic: seeding grids, refinement midpoints
//! and every backend evaluation are pure functions of the spec, so
//! re-running a spec replays the identical candidate sequence — and is
//! served entirely from cache. The adaptive stage keeps that contract:
//! screening verdicts are pure functions of content-hashed evaluation
//! results (never wall clock, never thread interleaving — `run_parallel`
//! returns results in input order), so cached and fresh runs, at any
//! thread count, produce identical fronts.

use crate::evaluator::{evaluator_for, screening_evaluator, Candidate, Evaluation, Evaluator};
use crate::pareto::{front_indices, hypervolume};
use crate::spec::OptSpec;
use nd_core::bounds::optimal_discovery_bound;
use nd_protocols::{ParamSpace, ProtocolKind};
use nd_sweep::cache::{CachedResult, ResultCache};
use nd_sweep::pool::{default_threads, run_parallel};
use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::fmt;
use std::time::{Duration, Instant};

/// Error-message prefix marking a search aborted by a corrupt cache
/// entry under [`OptOptions::strict_cache`]. Serving callers match on
/// this to map the failure to their corrupt-cache error code.
pub const CORRUPT_CACHE: &str = "corrupt-cache";

/// Options orthogonal to the spec: parallelism and cache placement
/// (mirrors `nd_sweep::SweepOptions`).
#[derive(Clone, Debug)]
pub struct OptOptions {
    /// Worker threads; `None` = all cores.
    pub threads: Option<usize>,
    /// Consult/populate the result cache.
    pub use_cache: bool,
    /// Cache location; `None` = [`ResultCache::default_dir`] (shared with
    /// `nd-sweep`).
    pub cache_dir: Option<std::path::PathBuf>,
    /// How to treat a corrupt cache entry ([`nd_sweep::CacheError`]).
    /// `false` (batch default): recompute — corruption is a miss, and the
    /// overwriting store heals the entry. `true` (serving callers): abort
    /// the search with [`OptError`] carrying the [`CORRUPT_CACHE`] prefix
    /// — a server must report damaged state, not quietly rewrite it.
    pub strict_cache: bool,
}

impl Default for OptOptions {
    fn default() -> Self {
        OptOptions {
            threads: None,
            use_cache: true,
            cache_dir: None,
            strict_cache: false,
        }
    }
}

impl OptOptions {
    /// Options for hermetic in-process use (tests): no disk cache.
    pub fn uncached() -> Self {
        OptOptions {
            use_cache: false,
            ..Self::default()
        }
    }
}

/// One point of a computed front.
#[derive(Clone, Debug)]
pub struct FrontPoint {
    /// The requested duty-cycle target η (role A's / η_E in a pair
    /// search).
    pub eta: f64,
    /// Role A's slot length in µs (slotted protocols).
    pub slot_us: Option<f64>,
    /// Role B's requested duty-cycle target η_F (pair searches only).
    pub eta_b: Option<f64>,
    /// Role B's slot length in µs (pair searches of slotted protocols).
    pub slot_us_b: Option<f64>,
    /// The achieved budget: the constructed schedule's nominal duty
    /// cycle (symmetric search) or the pair's total η_E + η_F (pair
    /// search) — the x-axis of the front.
    pub duty_cycle: f64,
    /// Role B's achieved duty cycle η_F (pair searches only).
    pub duty_cycle_b: Option<f64>,
    /// The latency objective value, seconds.
    pub latency_s: f64,
    /// The closed-form optimal latency at this point (Theorem 5.5/C.1 at
    /// the achieved duty cycle, or Theorem 5.7 at the achieved (η_E, η_F)
    /// for pair searches; NaN if the bound is undefined here).
    pub bound_s: f64,
    /// Relative distance to the bound: `(latency − bound) / bound`.
    pub gap_frac: f64,
    /// Every metric the backend produced for this point.
    pub metrics: BTreeMap<String, f64>,
}

/// A per-protocol search result.
#[derive(Clone, Debug)]
pub struct FrontResult {
    /// Registry protocol name.
    pub protocol: String,
    /// The front, sorted by duty cycle ascending (latency strictly
    /// descending).
    pub front: Vec<FrontPoint>,
    /// Candidates evaluated (successes + failures, fresh + cached).
    pub evaluated: usize,
    /// Fresh backend executions (not served from cache).
    pub executed: usize,
    /// Evaluations served from the cache.
    pub cache_hits: usize,
    /// Candidates whose evaluation errored (infeasible constructions,
    /// censored simulation results).
    pub errors: usize,
    /// The errors broken down by reason (see [`censor_reason`]) — the
    /// diagnostic an empty front prints so users see *why* nothing
    /// survived.
    pub censored: BTreeMap<&'static str, usize>,
    /// The censored counts broken down per search round (index = round,
    /// 0 = seeding). Adaptive screening censors aggressively at low trial
    /// counts, so the *when* matters for debugging, not just the total.
    pub censored_rounds: Vec<BTreeMap<&'static str, usize>>,
    /// Candidates evaluated at the reduced screening budget (adaptive
    /// runs only; 0 when screening is off or structurally a no-op).
    pub screened: usize,
    /// Screened candidates promoted to the full trial budget.
    pub promoted: usize,
    /// Screened candidates dropped because their domination was
    /// statistically settled at the screening budget.
    pub early_stops: usize,
}

/// Min, mean and max of a front's finite gaps to the bound
/// ([`FrontResult::gap_summary`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GapSummary {
    /// Smallest finite `gap_frac`.
    pub min: f64,
    /// Mean of the finite `gap_frac`s, summed in front order.
    pub mean: f64,
    /// Largest finite `gap_frac`.
    pub max: f64,
}

impl FrontResult {
    /// The most capable point within a duty-cycle budget: the front is
    /// sorted by duty cycle with latency decreasing, so that is the last
    /// affordable one.
    pub fn best_within(&self, budget: f64) -> Option<&FrontPoint> {
        self.front.iter().rev().find(|p| p.duty_cycle <= budget)
    }

    /// The gap-to-bound summary over the points whose `gap_frac` is
    /// finite; every field is NaN when no point has one.
    pub fn gap_summary(&self) -> GapSummary {
        let gaps: Vec<f64> = self
            .front
            .iter()
            .map(|p| p.gap_frac)
            .filter(|g| g.is_finite())
            .collect();
        if gaps.is_empty() {
            return GapSummary {
                min: f64::NAN,
                mean: f64::NAN,
                max: f64::NAN,
            };
        }
        GapSummary {
            min: gaps.iter().copied().fold(f64::INFINITY, f64::min),
            mean: gaps.iter().sum::<f64>() / gaps.len() as f64,
            max: gaps.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

/// Classify a candidate-evaluation error into a censoring reason for
/// [`FrontResult::censored`].
pub fn censor_reason(error: &str) -> &'static str {
    if error.contains("never discovered") {
        "undiscovered-offsets"
    } else if error.contains("failed to discover") {
        "failed-trials"
    } else if error.contains("node pairs discovered") {
        "undiscovered-pairs"
    } else {
        "construction-error"
    }
}

/// A completed optimization: one front per protocol.
#[derive(Debug)]
pub struct OptOutcome {
    /// The spec's human-readable name.
    pub name: String,
    /// The spec's content hash.
    pub spec_hash: String,
    /// The evaluator backend name.
    pub backend: String,
    /// The latency objective name.
    pub objective: String,
    /// The metric key the objective read.
    pub latency_metric: String,
    /// One result per protocol, in spec order.
    pub fronts: Vec<FrontResult>,
    /// Total fresh executions across all fronts.
    pub executed: usize,
    /// Total cache hits across all fronts.
    pub cache_hits: usize,
    /// Wall-clock duration.
    pub wall: Duration,
}

/// Optimizer-level error (spec problems; per-candidate failures are
/// counted, not fatal).
#[derive(Debug)]
pub struct OptError(pub String);

impl fmt::Display for OptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "optimization failed: {}", self.0)
    }
}

impl std::error::Error for OptError {}

/// Run the full search a spec describes: one Pareto front per protocol.
pub fn run_opt(spec: &OptSpec, opts: &OptOptions) -> Result<OptOutcome, OptError> {
    let _span = nd_obs::span!("opt.run", name = spec.base.name.as_str());
    let start = Instant::now();
    let evaluator = evaluator_for(spec).map_err(|e| OptError(e.to_string()))?;
    let screen = screening_evaluator(spec).map_err(|e| OptError(e.to_string()))?;
    let margin = spec
        .adaptive
        .margin(spec.adaptive.resolved_screen_trials(spec.base.sim.trials));
    let cache = opts.use_cache.then(|| {
        ResultCache::at(
            opts.cache_dir
                .clone()
                .unwrap_or_else(ResultCache::default_dir),
        )
    });
    let threads = opts.threads.unwrap_or_else(default_threads);

    let mut fronts = Vec::with_capacity(spec.protocols.len());
    for protocol in &spec.protocols {
        fronts.push(front_for_protocol(
            protocol,
            spec,
            &evaluator,
            screen.as_ref(),
            margin,
            cache.as_ref(),
            threads,
            opts.strict_cache,
        )?);
    }

    Ok(OptOutcome {
        name: spec.base.name.clone(),
        spec_hash: spec.content_hash(),
        backend: evaluator.backend_name().to_string(),
        objective: spec.objective.name().to_string(),
        latency_metric: evaluator.latency_metric().to_string(),
        executed: fronts.iter().map(|f| f.executed).sum(),
        cache_hits: fronts.iter().map(|f| f.cache_hits).sum(),
        fronts,
        wall: start.elapsed(),
    })
}

/// Translate a parameter-space point into a concrete candidate. The
/// optimizer understands the axes the sweep grammar names: `eta`
/// (mandatory for a duty-cycle front) and `slot_us` (slotted protocols).
///
/// A space without an `eta` axis is a typed, infeasible-search error —
/// not a panic: callers (in particular `nd-serve`) surface it as an
/// infeasible spec, never as an internal failure.
fn candidate_at(protocol: &str, space: &ParamSpace, point: &[f64]) -> Result<Candidate, OptError> {
    let eta = space.value_of("eta", point).ok_or_else(|| {
        OptError(format!(
            "{protocol}: parameter space declares no `eta` axis, so a duty-cycle \
             front cannot be searched over it (infeasible search space)"
        ))
    })?;
    Ok(Candidate {
        protocol: protocol.to_string(),
        eta,
        slot_us: space.value_of("slot_us", point),
        eta_b: space.value_of("eta_b", point),
        slot_us_b: space.value_of("slot_us_b", point),
    })
}

/// The search for one protocol; see the module docs for the algorithm.
/// `screen` is the reduced-budget evaluator of an adaptive run (`None`
/// when screening is off or structurally a no-op), `margin` the relative
/// domination margin of the sequential test.
#[allow(clippy::too_many_arguments)]
fn front_for_protocol(
    protocol: &str,
    spec: &OptSpec,
    evaluator: &Evaluator,
    screen: Option<&Evaluator>,
    margin: f64,
    cache: Option<&ResultCache>,
    threads: usize,
    strict_cache: bool,
) -> Result<FrontResult, OptError> {
    let _span = nd_obs::span!("opt.front", protocol = protocol);
    let kind = ProtocolKind::from_name(protocol)
        .ok_or_else(|| OptError(format!("`{protocol}` is not a registry protocol")))?;
    // pair searches double the space: (eta, slot_us?) per role
    let mut space = kind.param_space();
    if spec.pair {
        space = space.paired();
    }
    if let Some((lo, hi)) = spec.eta_range {
        // the restriction applies to both roles' duty-cycle axes
        let axes: &[&str] = if spec.pair {
            &["eta", "eta_b"]
        } else {
            &["eta"]
        };
        for axis in axes {
            space = space.restrict(axis, lo, hi).ok_or_else(|| {
                OptError(format!(
                    "{protocol}: eta range [{lo}, {hi}] does not intersect the protocol's \
                     declared duty-cycle range"
                ))
            })?;
        }
    }
    let omega = spec.base.radio.omega;

    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut points: Vec<Vec<f64>> = Vec::new(); // the evaluated space points
    let mut evals: Vec<Evaluation> = Vec::new(); // successes, parallel to `points` filtering
    let mut evaluated = 0usize;
    let mut executed = 0usize;
    let mut cache_hits = 0usize;
    let mut errors = 0usize;
    let mut censored: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut censored_rounds: Vec<BTreeMap<&'static str, usize>> = Vec::new();
    let mut screened = 0usize;
    let mut promoted = 0usize;
    let mut early_stops = 0usize;
    // hypervolume accounting: the reference corner is fixed once the
    // first successful evaluations exist (full duty cycle, twice the
    // worst latency seen then), so per-round gains are comparable
    let mut hv_ref: Option<(f64, f64)> = None;
    let mut hv_prev = 0.0;

    // round 0: the coarse seeding grid; rounds 1..=rounds: refinement
    let mut batch: Vec<Vec<f64>> = space
        .seed_grid(spec.seeds_per_axis)
        .into_iter()
        .filter(|p| space.feasible(p, omega))
        .collect();

    for round in 0..=spec.rounds {
        // dedupe against everything already evaluated, respect the budget
        // (strictly: a candidate counts the moment it is admitted, so no
        // batch — seeding included — can straddle `max_evals`)
        let mut fresh: Vec<(Vec<f64>, Candidate)> = Vec::new();
        for point in batch.drain(..) {
            if evaluated + fresh.len() >= spec.max_evals {
                break;
            }
            let cand = candidate_at(protocol, &space, &point)?;
            if seen.insert(evaluator.cache_key(&cand)) {
                fresh.push((point, cand));
            }
        }
        if fresh.is_empty() {
            break;
        }
        evaluated += fresh.len();
        nd_obs::metrics::add("opt.evals", fresh.len() as u64);
        nd_obs::metrics::observe("opt.round_evals", fresh.len() as u64);
        let mut round_censored: BTreeMap<&'static str, usize> = BTreeMap::new();
        let censor = |e: &str,
                      round_censored: &mut BTreeMap<&'static str, usize>,
                      errors: &mut usize,
                      censored: &mut BTreeMap<&'static str, usize>| {
            *errors += 1;
            nd_obs::metrics::inc("opt.errors");
            let reason = censor_reason(e);
            nd_obs::metrics::inc(&format!("opt.censored.{reason}"));
            nd_obs::metrics::inc(&format!("opt.round{round}.censored.{reason}"));
            *censored.entry(reason).or_insert(0) += 1;
            *round_censored.entry(reason).or_insert(0) += 1;
        };

        // stage 1 (adaptive runs only): screen every candidate at the
        // reduced trial budget; drop candidates whose domination the
        // sequential test settles, promote the rest
        let stage: Vec<(Vec<f64>, Candidate)> = if let Some(screen_ev) = screen {
            let results = {
                let _span = nd_obs::span!("opt.screen", round = round, candidates = fresh.len());
                run_parallel(&fresh, threads, |_, (_, cand)| {
                    evaluate_one(cand, screen_ev, cache, strict_cache)
                })
            };
            screened += fresh.len();
            nd_obs::metrics::add("opt.screened", fresh.len() as u64);
            // candidates that survive to the domination test, with their
            // screening objectives (None = censored at the screen budget)
            let mut cands: Vec<(Vec<f64>, Candidate)> = Vec::with_capacity(fresh.len());
            let mut screen_objs: Vec<Option<(f64, f64)>> = Vec::with_capacity(fresh.len());
            for ((point, cand), (result, from_cache)) in fresh.into_iter().zip(results) {
                if from_cache {
                    cache_hits += 1;
                    nd_obs::metrics::inc("opt.cache_hits");
                } else {
                    executed += 1;
                    nd_obs::metrics::inc("opt.executed");
                }
                match result {
                    Ok(eval) => {
                        screen_objs.push(Some((eval.duty_cycle, eval.latency_s)));
                        cands.push((point, cand));
                    }
                    Err(e) if e.starts_with(CORRUPT_CACHE) => return Err(OptError(e)),
                    Err(e) => {
                        let reason = censor_reason(&e);
                        nd_obs::metrics::inc(&format!("opt.screen.censored.{reason}"));
                        if reason == "construction-error" {
                            // building the schedule does not depend on the
                            // trial count: censor finally without spending
                            // the full budget
                            censor(&e, &mut round_censored, &mut errors, &mut censored);
                        } else {
                            // statistical censoring at a few trials proves
                            // nothing — promote for the full-budget verdict
                            screen_objs.push(None);
                            cands.push((point, cand));
                        }
                    }
                }
            }
            // the sequential test: candidate i is settled-dominated iff
            // some trusted full-budget evaluation or co-screened candidate
            // j is no worse on duty cycle and beats i's latency by the
            // relative margin on both sides. Pure function of
            // content-hashed results: deterministic at any thread count
            // and any cache state.
            let all: Vec<(f64, f64)> = evals
                .iter()
                .map(|e| (e.duty_cycle, e.latency_s))
                .chain(screen_objs.iter().flatten().copied())
                .collect();
            let mut survivors: Vec<(Vec<f64>, Candidate)> = Vec::with_capacity(cands.len());
            for (entry, obj) in cands.into_iter().zip(screen_objs) {
                let settled = obj.is_some_and(|(dc_i, lat_i)| {
                    all.iter().any(|&(dc_j, lat_j)| {
                        dc_j <= dc_i && lat_j * (1.0 + margin) < lat_i * (1.0 - margin)
                    })
                });
                if settled {
                    early_stops += 1;
                    nd_obs::metrics::inc("opt.early_stops");
                } else {
                    survivors.push(entry);
                }
            }
            promoted += survivors.len();
            nd_obs::metrics::add("opt.promoted", survivors.len() as u64);
            survivors
        } else {
            fresh
        };

        // stage 2: the full trial budget (the only stage when screening
        // is off)
        if !stage.is_empty() {
            let results = {
                let _span = nd_obs::span!("opt.round", round = round, candidates = stage.len());
                run_parallel(&stage, threads, |_, (_, cand)| {
                    evaluate_one(cand, evaluator, cache, strict_cache)
                })
            };
            for ((point, _), (result, from_cache)) in stage.into_iter().zip(results) {
                if from_cache {
                    cache_hits += 1;
                    nd_obs::metrics::inc("opt.cache_hits");
                } else {
                    executed += 1;
                    nd_obs::metrics::inc("opt.executed");
                }
                match result {
                    Ok(eval) => {
                        points.push(point);
                        evals.push(eval);
                    }
                    // strict-mode cache corruption is search-fatal, not a
                    // censored candidate: the caller asked to be told
                    Err(e) if e.starts_with(CORRUPT_CACHE) => return Err(OptError(e)),
                    Err(e) => censor(&e, &mut round_censored, &mut errors, &mut censored),
                }
            }
        }
        censored_rounds.push(round_censored);

        // hypervolume bookkeeping: how much front area this round bought
        let objs: Vec<(f64, f64)> = evals.iter().map(|e| (e.duty_cycle, e.latency_s)).collect();
        if hv_ref.is_none() {
            let worst_lat = objs.iter().map(|o| o.1).fold(0.0, f64::max);
            if worst_lat > 0.0 {
                hv_ref = Some((1.0, 2.0 * worst_lat));
            }
        }
        if let Some(reference) = hv_ref {
            let hv = hypervolume(&objs, reference);
            let gain_ppm = ((hv - hv_prev) / (reference.0 * reference.1) * 1e6).max(0.0);
            nd_obs::metrics::add("opt.hv_gain", gain_ppm as u64);
            hv_prev = hv;
        }

        if round == spec.rounds || evaluated >= spec.max_evals {
            break;
        }

        // refinement, hypervolume-guided: extensions beyond each end of
        // the front first (they open new territory the staircase cannot
        // price), then the midpoint of every adjacent front pair, ranked
        // by the exact rectangle of front area the gap could close — so
        // when the budget truncates the batch, it truncates the flattest
        // gaps
        let front = front_indices(&objs);
        if let (Some(&first), Some(&last)) = (front.first(), front.last()) {
            for (idx, end_of_range) in [(first, false), (last, true)] {
                let mut limit = points[idx].clone();
                for (i, p) in space.params.iter().enumerate() {
                    let (lo, hi) = p.range.limits();
                    limit[i] = if end_of_range { hi } else { lo };
                }
                batch.push(space.midpoint(&points[idx], &limit));
            }
        }
        let mut gaps: Vec<(f64, Vec<f64>)> = front
            .windows(2)
            .map(|w| {
                let (a, b) = (objs[w[0]], objs[w[1]]);
                let closable = (b.0 - a.0) * (a.1 - b.1);
                (closable, space.midpoint(&points[w[0]], &points[w[1]]))
            })
            .collect();
        gaps.sort_by(|x, y| y.0.total_cmp(&x.0));
        batch.extend(gaps.into_iter().map(|(_, p)| p));
        batch.retain(|p| space.feasible(p, omega));
    }

    // final front, with gap-to-bound annotations: Theorem 5.5/C.1 at the
    // achieved duty cycle for symmetric searches, Theorem 5.7 at the
    // achieved (η_E, η_F) for pair searches
    let objs: Vec<(f64, f64)> = evals.iter().map(|e| (e.duty_cycle, e.latency_s)).collect();
    let alpha = spec.base.radio.alpha;
    let omega_secs = omega.as_secs_f64();
    let front = front_indices(&objs)
        .into_iter()
        .map(|i| {
            let e = &evals[i];
            let bound_s = match e.duty_cycle_b {
                Some(dc_b) => {
                    let dc_a = e.duty_cycle - dc_b;
                    if dc_a > 0.0 && dc_b > 0.0 {
                        nd_core::bounds::asymmetric_bound(alpha, omega_secs, dc_a, dc_b)
                    } else {
                        f64::NAN
                    }
                }
                None => optimal_discovery_bound(spec.base.metric, alpha, omega_secs, e.duty_cycle)
                    .map_or(f64::NAN, |b| b),
            };
            FrontPoint {
                eta: e.candidate.eta,
                slot_us: e.candidate.slot_us,
                eta_b: e.candidate.eta_b,
                slot_us_b: e.candidate.slot_us_b,
                duty_cycle: e.duty_cycle,
                duty_cycle_b: e.duty_cycle_b,
                latency_s: e.latency_s,
                bound_s,
                gap_frac: (e.latency_s - bound_s) / bound_s,
                metrics: e.metrics.clone(),
            }
        })
        .collect();

    Ok(FrontResult {
        protocol: protocol.to_string(),
        front,
        evaluated,
        executed,
        cache_hits,
        errors,
        censored,
        censored_rounds,
        screened,
        promoted,
        early_stops,
    })
}

/// Evaluate one candidate, cache-first. Returns the interpretation result
/// and whether the raw metric row came from the cache.
///
/// Only `run` failures (infeasible constructions, backend errors) are
/// cached as errors; interpretation failures (censored results) are
/// re-derived from the cached metric row, so the cache stays
/// byte-compatible with ordinary `nd-sweep` entries for the same job.
fn evaluate_one(
    cand: &Candidate,
    evaluator: &Evaluator,
    cache: Option<&ResultCache>,
    strict_cache: bool,
) -> (Result<Evaluation, String>, bool) {
    let _span = nd_obs::span!(
        "opt.eval",
        protocol = cand.protocol.as_str(),
        eta = cand.eta
    );
    let key = evaluator.cache_key(cand);
    if let Some(c) = cache {
        match c.load(&key) {
            Ok(Some(hit)) => {
                let result = match hit.error {
                    Some(e) => Err(e),
                    None => evaluator.interpret(cand, hit.metrics),
                };
                return (result, true);
            }
            Ok(None) => {}
            // strict callers get the corruption surfaced (the prefixed
            // error is promoted to a search-fatal OptError by
            // front_for_protocol, never stored, never censor-counted);
            // batch callers fall through and recompute
            Err(e) if strict_cache => return (Err(format!("{CORRUPT_CACHE}: {e}")), true),
            Err(_) => {}
        }
    }
    let raw = evaluator.run(cand);
    if let Some(c) = cache {
        let entry = match &raw {
            Ok(metrics) => CachedResult {
                metrics: metrics.clone(),
                error: None,
            },
            Err(e) => CachedResult {
                metrics: BTreeMap::new(),
                error: Some(e.clone()),
            },
        };
        c.store(&key, &entry);
    }
    (
        raw.and_then(|metrics| evaluator.interpret(cand, metrics)),
        false,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pareto::is_valid_front;

    fn spec(toml: &str) -> OptSpec {
        OptSpec::from_toml_str(toml).unwrap()
    }

    #[test]
    fn best_within_and_gap_summary_read_the_sorted_front() {
        let s = spec(
            "backend = \"exact\"\nmetric = \"two-way\"\n\
             [opt]\nprotocols = [\"optimal\"]\nseeds_per_axis = 3\nrounds = 1\n",
        );
        let mut f = run_opt(&s, &OptOptions::uncached())
            .unwrap()
            .fronts
            .remove(0);
        let dc: Vec<f64> = f.front.iter().map(|p| p.duty_cycle).collect();
        assert!(dc.len() >= 3, "{dc:?}");
        // the most capable affordable point: the last at or under budget
        let best = |budget: f64| f.best_within(budget).map(|p| p.duty_cycle);
        assert_eq!(best(dc[1]), Some(dc[1]));
        assert_eq!(best((dc[1] + dc[2]) / 2.0), Some(dc[1]));
        assert_eq!(best(dc[0] / 2.0), None);

        // non-finite gaps stay out of the summary; with none left, every
        // field is NaN
        f.front[0].gap_frac = f64::NAN;
        f.front[1].gap_frac = f64::INFINITY;
        let finite: Vec<f64> = f.front[2..].iter().map(|p| p.gap_frac).collect();
        let gap = f.gap_summary();
        assert_eq!(
            gap.min,
            finite.iter().copied().fold(f64::INFINITY, f64::min)
        );
        assert_eq!(gap.mean, finite.iter().sum::<f64>() / finite.len() as f64);
        assert_eq!(
            gap.max,
            finite.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        );
        for p in &mut f.front {
            p.gap_frac = f64::NAN;
        }
        let gap = f.gap_summary();
        assert!(gap.min.is_nan() && gap.mean.is_nan() && gap.max.is_nan());
    }

    #[test]
    fn optimal_front_tracks_the_bound() {
        let s = spec(
            "backend = \"exact\"\nmetric = \"two-way\"\n\
             [opt]\nprotocols = [\"optimal\"]\nseeds_per_axis = 5\nrounds = 1\n",
        );
        let out = run_opt(&s, &OptOptions::uncached()).unwrap();
        assert_eq!(out.fronts.len(), 1);
        let f = &out.fronts[0];
        assert!(
            f.front.len() >= 5,
            "seeding + refinement: {}",
            f.front.len()
        );
        let objs: Vec<(f64, f64)> = f
            .front
            .iter()
            .map(|p| (p.duty_cycle, p.latency_s))
            .collect();
        assert!(is_valid_front(&objs));
        for p in &f.front {
            assert!(
                p.gap_frac.abs() < 0.05,
                "η {}: latency {} vs bound {} (gap {})",
                p.eta,
                p.latency_s,
                p.bound_s,
                p.gap_frac
            );
        }
        assert_eq!(f.evaluated, f.executed, "uncached run executes all");
        assert_eq!(f.cache_hits, 0);
    }

    #[test]
    fn refinement_adds_points_between_front_neighbors() {
        let base = "backend = \"exact\"\nmetric = \"two-way\"\n\
                    [opt]\nprotocols = [\"optimal\"]\nseeds_per_axis = 3\n";
        let no_refine = run_opt(
            &spec(&format!("{base}rounds = 1\nmax_evals = 3\n")),
            &OptOptions::uncached(),
        )
        .unwrap();
        let refined = run_opt(
            &spec(&format!("{base}rounds = 2\n")),
            &OptOptions::uncached(),
        )
        .unwrap();
        assert!(refined.fronts[0].evaluated > no_refine.fronts[0].evaluated);
        assert!(refined.fronts[0].front.len() > no_refine.fronts[0].front.len());
    }

    #[test]
    fn budget_is_a_hard_cap() {
        let s = spec(
            "backend = \"exact\"\nmetric = \"two-way\"\n\
             [opt]\nprotocols = [\"optimal\"]\nseeds_per_axis = 6\nrounds = 3\nmax_evals = 4\n",
        );
        let out = run_opt(&s, &OptOptions::uncached()).unwrap();
        assert_eq!(out.fronts[0].evaluated, 4);
    }

    #[test]
    fn slotted_protocols_search_both_axes() {
        // a slotted protocol's exact worst case is censored (ω/slot of
        // the offsets are never covered), so the meaningful objective is
        // a percentile — and only slots with a small enough uncovered
        // fraction are admitted
        let s = spec(
            "backend = \"exact\"\nmetric = \"one-way\"\n\
             [radio]\nomega_us = 100\n\
             [opt]\nprotocols = [\"code-based\"]\nobjective = \"p95\"\n\
             seeds_per_axis = 3\nrounds = 1\neta_min = 0.02\n",
        );
        let out = run_opt(&s, &OptOptions::uncached()).unwrap();
        let f = &out.fronts[0];
        assert!(!f.front.is_empty());
        // the mid slot (~1.4 ms) is feasible but leaves ω/slot ≈ 7% of
        // the offsets uncovered — censored beyond the 5% a p95 tolerates
        assert!(f.errors > 0, "short slots are censored beyond 5%");
        for p in &f.front {
            let slot = p.slot_us.expect("slotted candidates carry a slot");
            assert!(slot >= 1999.0, "slot {slot} would censor p95 (ω = 100 µs)");
            assert!(p.metrics.get("undiscovered_prob").copied().unwrap_or(1.0) <= 0.05 + 1e-12);
        }
    }

    #[test]
    fn worst_objective_censors_slotted_protocols_entirely() {
        let s = spec(
            "backend = \"exact\"\nmetric = \"one-way\"\npercentiles = false\n\
             [opt]\nprotocols = [\"code-based\"]\nseeds_per_axis = 2\nrounds = 1\neta_min = 0.05\n",
        );
        let out = run_opt(&s, &OptOptions::uncached()).unwrap();
        let f = &out.fronts[0];
        assert!(f.front.is_empty(), "no slotted config covers all offsets");
        assert_eq!(f.errors, f.evaluated);
    }

    #[test]
    fn missing_eta_axis_is_a_typed_infeasible_error() {
        // a space with no duty-cycle axis cannot be searched for a
        // duty-cycle front — a typed OptError, never a panic, so serving
        // callers can classify it as an infeasible spec
        let space = ParamSpace {
            params: vec![nd_protocols::ParamDef {
                name: "slot_us",
                range: nd_protocols::ParamRange::LinRange { lo: 1.0, hi: 2.0 },
            }],
            constraints: vec![],
        };
        let err = candidate_at("custom", &space, &[1.5]).unwrap_err();
        assert!(err.0.contains("no `eta` axis"), "typed, descriptive: {err}");
        assert!(err.0.contains("infeasible"), "classifiable: {err}");
    }

    #[test]
    fn budget_equal_to_seed_grid_admits_exactly_the_seeds() {
        // the cap is strictly hard at the boundary: a budget exactly the
        // seeding-grid size admits every seed and nothing else, however
        // many refinement rounds the spec asks for
        let s = spec(
            "backend = \"exact\"\nmetric = \"two-way\"\n\
             [opt]\nprotocols = [\"optimal\"]\nseeds_per_axis = 5\nrounds = 3\nmax_evals = 5\n",
        );
        let out = run_opt(&s, &OptOptions::uncached()).unwrap();
        assert_eq!(out.fronts[0].evaluated, 5);
    }

    #[test]
    fn budget_one_past_the_seed_grid_admits_one_refinement() {
        let s = spec(
            "backend = \"exact\"\nmetric = \"two-way\"\n\
             [opt]\nprotocols = [\"optimal\"]\nseeds_per_axis = 5\nrounds = 3\nmax_evals = 6\n",
        );
        let out = run_opt(&s, &OptOptions::uncached()).unwrap();
        assert_eq!(out.fronts[0].evaluated, 6);
    }

    #[test]
    fn censor_counts_are_attributed_to_rounds() {
        // the slotted worst-case search censors every candidate; the
        // per-round breakdown must tile the total
        let s = spec(
            "backend = \"exact\"\nmetric = \"one-way\"\npercentiles = false\n\
             [opt]\nprotocols = [\"code-based\"]\nseeds_per_axis = 2\nrounds = 1\neta_min = 0.05\n",
        );
        let out = run_opt(&s, &OptOptions::uncached()).unwrap();
        let f = &out.fronts[0];
        assert!(f.errors > 0);
        assert!(!f.censored_rounds.is_empty());
        let mut total: BTreeMap<&'static str, usize> = BTreeMap::new();
        for round in &f.censored_rounds {
            for (reason, count) in round {
                *total.entry(reason).or_insert(0) += count;
            }
        }
        assert_eq!(total, f.censored, "rounds tile the total censor counts");
    }

    #[test]
    fn eta_range_restricts_the_search() {
        let s = spec(
            "backend = \"exact\"\nmetric = \"two-way\"\n\
             [opt]\nprotocols = [\"optimal\"]\nseeds_per_axis = 4\nrounds = 1\n\
             eta_min = 0.04\neta_max = 0.10\n",
        );
        let out = run_opt(&s, &OptOptions::uncached()).unwrap();
        for p in &out.fronts[0].front {
            assert!((0.04..=0.10).contains(&p.eta), "eta {}", p.eta);
        }
        // a range outside the declared space is an error, not an empty front
        let bad = spec(
            "backend = \"exact\"\nmetric = \"two-way\"\n\
             [opt]\nprotocols = [\"optimal\"]\neta_min = 0.6\neta_max = 0.9\n",
        );
        assert!(run_opt(&bad, &OptOptions::uncached())
            .unwrap_err()
            .to_string()
            .contains("does not intersect"));
    }
}
