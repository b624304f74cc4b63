//! Candidate evaluation on `nd-sweep`'s machinery.
//!
//! Every candidate evaluation *is* an `nd-sweep` job: the candidate's
//! parameters become a fully resolved [`Job`], executed by the same
//! backend code paths (`exact` coverage analysis, `montecarlo` pairwise
//! simulation, `netsim` cohorts) and addressed by the same content hash —
//! so optimizer evaluations share the on-disk result cache with ordinary
//! sweeps of the same points, and a re-run of the same search is served
//! entirely from cache.
//!
//! Exact analysis, Monte-Carlo and netsim evaluation differ only in
//! which backend the embedded spec selects and which metric key realizes
//! the latency objective; one [`Evaluator`] carries exactly that.

use crate::spec::{Objective, OptSpec};
use nd_core::time::Tick;
use nd_sweep::grid::Job;
use nd_sweep::spec::Backend;
use nd_sweep::{Metric, ScenarioSpec, SpecError};
use std::collections::BTreeMap;

/// One fully resolved candidate configuration of a protocol.
#[derive(Clone, Debug, PartialEq)]
pub struct Candidate {
    /// Registry protocol name.
    pub protocol: String,
    /// Role A's duty-cycle target η (η_E in a pair search).
    pub eta: f64,
    /// Role A's slot length in µs (slotted protocols only).
    pub slot_us: Option<f64>,
    /// Role B's duty-cycle target η_F (pair searches only; `None` =
    /// symmetric).
    pub eta_b: Option<f64>,
    /// Role B's slot length in µs (pair searches of slotted protocols).
    pub slot_us_b: Option<f64>,
}

impl Candidate {
    /// A symmetric (single-role) candidate.
    pub fn symmetric(protocol: impl Into<String>, eta: f64, slot_us: Option<f64>) -> Self {
        Candidate {
            protocol: protocol.into(),
            eta,
            slot_us,
            eta_b: None,
            slot_us_b: None,
        }
    }
}

/// A candidate's evaluation: the two objectives plus the backend's full
/// metric row.
#[derive(Clone, Debug)]
pub struct Evaluation {
    /// The evaluated candidate.
    pub candidate: Candidate,
    /// The budget objective — the x-axis of the front, and what
    /// `best --budget` filters on. Symmetric search: the nominal duty
    /// cycle η = γ + αβ of the *constructed* schedule (which may differ
    /// from the requested η by integer rounding). Pair search: the total
    /// budget η_E + η_F across both constructed schedules.
    pub duty_cycle: f64,
    /// Role B's constructed duty cycle η_F (pair searches only; role A's
    /// is then `duty_cycle − duty_cycle_b`).
    pub duty_cycle_b: Option<f64>,
    /// The latency objective value, seconds.
    pub latency_s: f64,
    /// Every metric the backend produced.
    pub metrics: BTreeMap<String, f64>,
}

/// A latency evaluator for candidates of one search: a configured
/// scenario spec plus the objective's metric key.
///
/// The backend the embedded spec selects (exact coverage analysis,
/// pairwise Monte-Carlo, or N-node netsim cohorts) does the work; the
/// split between [`Evaluator::run`] (produce the raw metric row,
/// expensive) and [`Evaluator::interpret`] (extract objectives, cheap)
/// lets the optimizer serve `run` from the content-addressed cache.
pub struct Evaluator {
    spec: ScenarioSpec,
    latency_key: &'static str,
    nodes: u32,
    /// Role-B cohort share for pair searches on the netsim evaluator
    /// (an even split); 0.0 for symmetric searches.
    mix: f64,
    /// The failure mass the objective tolerates: a `q`-percentile is
    /// defined as long as at most `1 − q` of the probability mass never
    /// discovers; the worst case tolerates none.
    allowed_failure: f64,
}

fn allowed_failure(objective: Objective) -> f64 {
    match objective {
        Objective::Worst => 0.0,
        Objective::P95 => 0.05,
        Objective::P99 => 0.01,
    }
}

impl Evaluator {
    /// The backend name (`exact` | `montecarlo` | `netsim`).
    pub fn backend_name(&self) -> &'static str {
        self.spec.backend.name()
    }

    /// The metric key realizing the latency objective.
    pub fn latency_metric(&self) -> &'static str {
        self.latency_key
    }

    /// The candidate as a fully resolved sweep job. Axes the optimizer
    /// does not search take the sweep grammar's defaults (no drift, no
    /// faults, ideal turnaround, random phases, no churn).
    fn job(&self, cand: &Candidate) -> Job {
        Job {
            index: 0,
            protocol: cand.protocol.clone(),
            eta: cand.eta,
            slot: cand
                .slot_us
                .map(|us| Tick::from_secs_f64(us * 1e-6))
                .unwrap_or_else(|| Tick::from_millis(1)),
            // pair candidates put role B on device 1 (pairwise backends)
            // or on the `mix` share of the cohort (netsim)
            protocol_b: None,
            eta_b: cand.eta_b,
            slot_b: cand.slot_us_b.map(|us| Tick::from_secs_f64(us * 1e-6)),
            mix: if cand.eta_b.is_some() || cand.slot_us_b.is_some() {
                self.mix
            } else {
                0.0
            },
            drift_ppm: 0,
            drop_probability: 0.0,
            turnaround: Tick::ZERO,
            phase: None,
            ratio: 1.0,
            nodes: self.nodes,
            churn: 0.0,
            // the netsim backend reads the per-job collision flag; wire it
            // to the spec-wide [sim] switch so one knob governs all three
            // evaluators
            collision: self.spec.sim.collisions,
        }
    }

    /// Compute the candidate's raw metric row (no cache involved).
    pub fn run(&self, cand: &Candidate) -> Result<BTreeMap<String, f64>, String> {
        nd_sweep::engine::execute_job(&self.job(cand), &self.spec)
    }

    /// Turn a metric row (fresh or cached) into an [`Evaluation`]:
    /// extract the objectives and screen out candidates whose result does
    /// not support a worst-case claim (e.g. trials that failed to
    /// discover within the horizon).
    pub fn interpret(
        &self,
        cand: &Candidate,
        metrics: BTreeMap<String, f64>,
    ) -> Result<Evaluation, String> {
        // probability mass that never discovers censors the latency
        // statistic: the worst case is then unknown (≥ horizon), and a
        // q-percentile conditioned on discovery only stands for the
        // unconditional one while the failure mass stays within 1 − q
        let allowed = self.allowed_failure;
        if let Some(&f) = metrics.get("undiscovered_prob") {
            if f > allowed + 1e-12 {
                return Err(format!(
                    "{f:.4} of offsets are never discovered (objective tolerates {allowed})"
                ));
            }
        }
        if let Some(&f) = metrics.get("failure_rate") {
            if f > allowed + 1e-12 {
                return Err(format!(
                    "{f:.4} of trials failed to discover within the horizon \
                     (objective tolerates {allowed})"
                ));
            }
        }
        // a mixed pair-mode cohort is judged on its cross-role pairs: the
        // coupled Theorem 5.7 construction only guarantees cross
        // discovery, so same-role pairs must neither censor nor pass it
        let discovered_key = if self.mix > 0.0 {
            "cross_discovered_frac"
        } else {
            "pair_discovered_frac"
        };
        if let Some(&f) = metrics.get(discovered_key) {
            if f < 1.0 - allowed - 1e-12 {
                return Err(format!(
                    "only {f:.4} of node pairs discovered within the horizon \
                     (objective tolerates {allowed} missing)"
                ));
            }
        }
        let latency_s = *metrics
            .get(self.latency_key)
            .ok_or_else(|| format!("backend produced no `{}` metric", self.latency_key))?;
        if !(latency_s.is_finite() && latency_s >= 0.0) {
            return Err(format!(
                "latency metric `{}` = {latency_s}",
                self.latency_key
            ));
        }
        let job = self.job(cand);
        let alpha = self.spec.radio.alpha;
        let (dc, dc_b) = if job.has_role_b() {
            // pair search: the front runs over the total budget η_E + η_F
            let (a, b) = nd_sweep::engine::build_role_schedules(&job, &self.spec)?;
            let (dc_a, dc_b) = (a.eta(alpha), b.eta(alpha));
            (dc_a + dc_b, Some(dc_b))
        } else {
            let sched = nd_sweep::engine::build_schedule(&job, &self.spec)?;
            (sched.eta(alpha), None)
        };
        Ok(Evaluation {
            candidate: cand.clone(),
            duty_cycle: dc,
            duty_cycle_b: dc_b,
            latency_s,
            metrics,
        })
    }

    /// The candidate's content-addressed cache key (shared with
    /// `nd-sweep` jobs of the same resolved parameters).
    pub fn cache_key(&self, cand: &Candidate) -> String {
        self.job(cand).content_hash(&self.spec)
    }
}

/// Build the evaluator an opt spec asks for. The embedded scenario spec
/// is the opt spec's base; for the exact backend, percentile computation
/// is enabled exactly when the objective needs it.
pub fn evaluator_for(spec: &OptSpec) -> Result<Evaluator, SpecError> {
    spec.validate()?;
    let mut base = spec.base.clone();
    let objective = spec.objective;
    // pair searches on the cohort backend split the cohort evenly
    // between the two roles; the pairwise backends put role B on
    // device 1 and keep `mix` out of their job hashes
    let mix = if spec.pair && base.backend == Backend::Netsim {
        0.5
    } else {
        0.0
    };
    let latency_key = match base.backend {
        Backend::Exact => {
            base.percentiles = objective != Objective::Worst;
            match (objective, base.metric) {
                (Objective::Worst, Metric::TwoWay) => "two_way_worst_s",
                (Objective::Worst, _) => "worst_s",
                (Objective::P95, _) => "p95_s",
                (Objective::P99, _) => "p99_s",
            }
        }
        Backend::MonteCarlo => match objective {
            Objective::Worst => "max_s",
            Objective::P95 => "p95_s",
            Objective::P99 => "p99_s",
        },
        // pair mode optimizes the cross-role slice of the mixed cohort —
        // the latencies the (η_E, η_F) front is about — against the
        // Theorem 5.7 bound; same-role pairs have no cross-role guarantee
        // and would bias the objective
        Backend::Netsim => match (objective, spec.pair) {
            (Objective::Worst, false) => "pair_max_s",
            (Objective::P95, false) => "pair_p95_s",
            (Objective::Worst, true) => "cross_max_s",
            (Objective::P95, true) => "cross_p95_s",
            (Objective::P99, _) => unreachable!("rejected by OptSpec::validate"),
        },
        Backend::Bounds => unreachable!("rejected by OptSpec::validate"),
    };
    Ok(Evaluator {
        spec: base,
        latency_key,
        nodes: spec.nodes,
        mix,
        allowed_failure: allowed_failure(objective),
    })
}

/// The reduced-budget evaluator for adaptive screening, or `None` when
/// screening cannot help: adaptive is off, the backend is exact (its
/// results do not depend on a trial count, so a screening pass would just
/// pay for every candidate twice), or the resolved screening budget is
/// not actually smaller than the full one.
///
/// The screening evaluator is built from a clone of the spec with
/// `sim.trials` reduced ([`ScenarioSpec::with_trials`]), so its jobs live
/// in their own content-hash universe: distinct cache keys, distinct
/// derived RNG streams, zero interference with full-budget results.
pub fn screening_evaluator(spec: &OptSpec) -> Result<Option<Evaluator>, SpecError> {
    if !spec.adaptive.enabled || spec.base.backend == Backend::Exact {
        return Ok(None);
    }
    let full = spec.base.sim.trials;
    let screen = spec.adaptive.resolved_screen_trials(full);
    if screen >= full {
        return Ok(None);
    }
    let mut reduced = spec.clone();
    reduced.base = spec.base.with_trials(screen);
    Ok(Some(evaluator_for(&reduced)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::OptSpec;

    fn opt_spec(toml: &str) -> OptSpec {
        OptSpec::from_toml_str(toml).unwrap()
    }

    fn cand(eta: f64) -> Candidate {
        Candidate::symmetric("optimal-slotless", eta, None)
    }

    #[test]
    fn exact_evaluator_recovers_the_bound_objective() {
        let spec = opt_spec(
            "backend = \"exact\"\nmetric = \"two-way\"\n[opt]\nprotocols = [\"optimal\"]\n",
        );
        let ev = evaluator_for(&spec).unwrap();
        assert_eq!(ev.backend_name(), "exact");
        assert_eq!(ev.latency_metric(), "two_way_worst_s");
        let c = cand(0.05);
        let metrics = ev.run(&c).unwrap();
        let e = ev.interpret(&c, metrics).unwrap();
        let bound = nd_core::bounds::symmetric_bound(1.0, 36e-6, 0.05);
        assert!(
            (e.latency_s - bound).abs() / bound < 0.02,
            "{}",
            e.latency_s
        );
        assert!((e.duty_cycle - 0.05).abs() < 0.003, "{}", e.duty_cycle);
    }

    #[test]
    fn cache_keys_match_equivalent_sweep_jobs() {
        // the optimizer's evaluations and a plain sweep of the same point
        // must share cache entries: identical content hash
        let spec = opt_spec(
            "backend = \"exact\"\nmetric = \"two-way\"\n[opt]\nprotocols = [\"optimal\"]\n",
        );
        let ev = evaluator_for(&spec).unwrap();
        let sweep = nd_sweep::ScenarioSpec::from_toml_str(
            "backend = \"exact\"\nmetric = \"two-way\"\npercentiles = false\n\
             [grid]\nprotocol = [\"optimal-slotless\"]\neta = [0.05]\nslot_us = [1000]\n",
        )
        .unwrap();
        let job = &nd_sweep::expand(&sweep)[0];
        assert_eq!(ev.cache_key(&cand(0.05)), job.content_hash(&sweep));
    }

    #[test]
    fn failure_screening_rejects_censored_candidates() {
        let spec = opt_spec(
            "backend = \"exact\"\nmetric = \"two-way\"\n[opt]\nprotocols = [\"optimal\"]\n",
        );
        let ev = evaluator_for(&spec).unwrap();
        let c = cand(0.05);
        let mut metrics = BTreeMap::new();
        metrics.insert("failure_rate".to_string(), 0.25);
        metrics.insert("two_way_worst_s".to_string(), 1.0);
        assert!(ev.interpret(&c, metrics).unwrap_err().contains("failed"));
        let mut metrics = BTreeMap::new();
        metrics.insert("pair_discovered_frac".to_string(), 0.9);
        assert!(ev.interpret(&c, metrics).unwrap_err().contains("pairs"));
    }

    #[test]
    fn pair_candidates_evaluate_against_theorem_5_7() {
        let spec = opt_spec(
            "backend = \"exact\"\nmetric = \"two-way\"\n\
             [opt]\nprotocols = [\"optimal\"]\npair = true\n",
        );
        let ev = evaluator_for(&spec).unwrap();
        let c = Candidate {
            protocol: "optimal-slotless".into(),
            eta: 0.08,
            slot_us: None,
            eta_b: Some(0.02),
            slot_us_b: None,
        };
        let metrics = ev.run(&c).unwrap();
        let e = ev.interpret(&c, metrics).unwrap();
        // the x-axis is the total budget, with role B's share attached
        assert!((e.duty_cycle - 0.10).abs() < 0.005, "{}", e.duty_cycle);
        let dc_b = e.duty_cycle_b.unwrap();
        assert!((dc_b - 0.02).abs() < 0.003);
        let bound = nd_core::bounds::asymmetric_bound(1.0, 36e-6, e.duty_cycle - dc_b, dc_b);
        assert!(
            (e.latency_s - bound).abs() / bound < 0.01,
            "latency {} vs Theorem 5.7 bound {bound}",
            e.latency_s
        );
    }

    #[test]
    fn netsim_pair_candidates_run_mixed_cohorts() {
        // pair mode on the cohort evaluator: the job carries mix = 0.5,
        // so the cohort splits evenly between the two roles — and the
        // mix enters the cache key (a different nodes/mix must not
        // collide with the pairwise evaluation of the same candidate)
        let net = opt_spec(
            "backend = \"netsim\"\nmetric = \"two-way\"\n\
             [opt]\nprotocols = [\"optimal\"]\npair = true\nnodes = 4\n",
        );
        let ev = evaluator_for(&net).unwrap();
        let c = Candidate {
            protocol: "optimal-slotless".into(),
            eta: 0.08,
            slot_us: None,
            eta_b: Some(0.02),
            slot_us_b: None,
        };
        let exact = opt_spec(
            "backend = \"exact\"\nmetric = \"two-way\"\n\
             [opt]\nprotocols = [\"optimal\"]\npair = true\n",
        );
        let exact_ev = evaluator_for(&exact).unwrap();
        assert_ne!(ev.cache_key(&c), exact_ev.cache_key(&c));
        // the pair objective reads the cross-role slice, not the cohort-
        // wide distribution the same-role pairs dominate
        assert_eq!(ev.latency_metric(), "cross_max_s");
        let metrics = ev.run(&c).unwrap();
        assert!(metrics.contains_key("cross_pairs"));
        assert!(metrics["cross_pairs"] > 0.0, "mixed cohort has cross pairs");
        assert!(metrics.contains_key("cross_max_s"));
        assert!(metrics.contains_key("cross_p95_s"));
        // censoring keys off cross_discovered_frac for pair cohorts:
        // an undiscovered same-role pair must not censor the candidate
        let mut doctored = metrics.clone();
        doctored.insert("pair_discovered_frac".to_string(), 0.5);
        doctored.insert("cross_discovered_frac".to_string(), 1.0);
        doctored.insert("cross_max_s".to_string(), 1.0);
        assert!(ev.interpret(&c, doctored).is_ok());
    }

    #[test]
    fn screening_evaluator_gates_and_rehashes() {
        // off by default
        let plain = opt_spec("backend = \"montecarlo\"\n[opt]\nprotocols = [\"optimal\"]\n");
        assert!(screening_evaluator(&plain).unwrap().is_none());
        // structurally a no-op on the exact backend
        let exact =
            opt_spec("backend = \"exact\"\n[opt]\nprotocols = [\"optimal\"]\n[opt.adaptive]\n");
        assert!(screening_evaluator(&exact).unwrap().is_none());
        // no-op when the screen budget cannot undercut the full one
        let tiny = opt_spec(
            "backend = \"montecarlo\"\n[sim]\ntrials = 2\n\
             [opt]\nprotocols = [\"optimal\"]\n[opt.adaptive]\nscreen_trials = 50\n",
        );
        assert!(screening_evaluator(&tiny).unwrap().is_none());
        // enabled: a real evaluator whose jobs hash in their own universe
        let on = opt_spec(
            "backend = \"montecarlo\"\n[sim]\ntrials = 40\n\
             [opt]\nprotocols = [\"optimal\"]\n[opt.adaptive]\nscreen_trials = 4\n",
        );
        let screen = screening_evaluator(&on).unwrap().expect("screening on");
        let full = evaluator_for(&on).unwrap();
        assert_eq!(screen.backend_name(), "montecarlo");
        let c = cand(0.05);
        assert_ne!(screen.cache_key(&c), full.cache_key(&c));
    }

    #[test]
    fn montecarlo_and_netsim_latency_keys() {
        let mc = opt_spec(
            "backend = \"montecarlo\"\n[opt]\nprotocols = [\"optimal\"]\nobjective = \"p95\"\n",
        );
        assert_eq!(evaluator_for(&mc).unwrap().latency_metric(), "p95_s");
        let net = opt_spec("backend = \"netsim\"\n[opt]\nprotocols = [\"optimal\"]\n");
        let ev = evaluator_for(&net).unwrap();
        assert_eq!(ev.backend_name(), "netsim");
        assert_eq!(ev.latency_metric(), "pair_max_s");
    }
}
