//! Monte-Carlo harness: independent randomized-phase simulations on
//! `nd-netsim`, for the statistics the closed-form analysis cannot give
//! (collisions among S > 2 devices, fault injection, reactive protocols).
//!
//! Every campaign in the workspace runs through [`Trials`]: the sweep's
//! `montecarlo` and `netsim` backends, [`pair_trials`],
//! [`group_success_rate`] and the experiments' own trials. So every trial
//! is set up, seeded and read out one way.

use nd_core::metric::Metric;
use nd_core::schedule::Schedule;
use nd_core::seed::stream_seed;
use nd_core::time::Tick;
use nd_netsim::{CohortReport, NetSimulator, NodeSpec};
use nd_sim::{Behavior, ScheduleBehavior, SimConfig, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A campaign of independent discovery trials rooted at one seed,
/// `cfg.seed`.
///
/// Trial `t` is one [`NetSimulator`] run of `cfg` on channel seed
/// [`stream_seed`]`(cfg.seed, t)`, over [`Topology::full`] of the nodes its
/// caller builds, added in the order given (a node's place is its stream
/// id). The caller draws each trial's phases, and any other set-up
/// randomness, from [`Trials::rng`].
pub struct Trials {
    /// Every trial's configuration but its seed; `seed` is the root.
    cfg: SimConfig,
    /// Stop each run once every pair has discovered in both directions.
    stop_early: bool,
    /// The set-up stream, `StdRng::seed_from_u64(cfg.seed)` from
    /// [`Trials::new`].
    pub rng: StdRng,
}

impl Trials {
    /// Trials rooted at `cfg.seed`.
    pub fn new(cfg: SimConfig, stop_early: bool) -> Self {
        let rng = StdRng::seed_from_u64(cfg.seed);
        Trials {
            cfg,
            stop_early,
            rng,
        }
    }

    /// Run `trials` trials, `nodes` building each one's nodes from the
    /// set-up stream; yields the reports in trial order.
    pub fn run(
        mut self,
        trials: usize,
        mut nodes: impl FnMut(&mut StdRng) -> Vec<NodeSpec>,
    ) -> impl Iterator<Item = CohortReport> {
        (0..trials as u64).map(move |t| {
            let specs = nodes(&mut self.rng);
            let cfg = SimConfig {
                seed: stream_seed(self.cfg.seed, t),
                ..self.cfg.clone()
            };
            let mut sim = NetSimulator::new(cfg, Topology::full(specs.len()));
            for spec in specs {
                sim.add_node(spec);
            }
            sim.stop_when_all_discovered(self.stop_early);
            sim.run()
        })
    }
}

/// A uniform initial phase in `[0, period)` (`period` is at least 1 ns,
/// as every [`Schedule::period`] is).
pub fn random_phase(period: Tick, rng: &mut StdRng) -> Tick {
    Tick(rng.gen_range(0..period.as_nanos()))
}

/// A two-node run's latency under `metric`: node 1 discovering node 0
/// (one-way), either direction, or both.
pub fn pair_latency(report: &CohortReport, metric: Metric) -> Option<Tick> {
    match metric {
        Metric::OneWay => report.discovery.one_way(1, 0),
        Metric::EitherWay => report.discovery.either_way(0, 1),
        Metric::TwoWay => report.discovery.two_way(0, 1),
    }
}

/// Summary statistics over a set of per-trial latencies.
#[derive(Clone, Debug)]
pub struct LatencySummary {
    /// Number of trials.
    pub trials: usize,
    /// Trials that never discovered within the horizon.
    pub failures: usize,
    /// Mean over successful trials (seconds).
    pub mean: f64,
    /// Percentiles over successful trials (seconds): (p50, p95, p99).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum observed latency.
    pub max: f64,
}

impl LatencySummary {
    /// Aggregate a list of optional latencies (None = not discovered).
    pub fn from_latencies(latencies: &[Option<Tick>]) -> Self {
        let mut ok: Vec<f64> = latencies
            .iter()
            .filter_map(|l| l.map(|t| t.as_secs_f64()))
            .collect();
        ok.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let failures = latencies.len() - ok.len();
        let pct = |p: f64| -> f64 {
            if ok.is_empty() {
                f64::NAN
            } else {
                ok[((ok.len() as f64 - 1.0) * p).round() as usize]
            }
        };
        LatencySummary {
            trials: latencies.len(),
            failures,
            mean: if ok.is_empty() {
                f64::NAN
            } else {
                ok.iter().sum::<f64>() / ok.len() as f64
            },
            p50: pct(0.50),
            p95: pct(0.95),
            p99: pct(0.99),
            max: ok.last().copied().unwrap_or(f64::NAN),
        }
    }

    /// Fraction of trials that failed to discover.
    pub fn failure_rate(&self) -> f64 {
        self.failures as f64 / self.trials as f64
    }
}

/// Run `trials` pair simulations rooted at `cfg.seed`, with independently
/// random phases for both schedules; returns per-trial latency (None if
/// not discovered within the configured horizon).
pub fn pair_trials(
    sched_a: &Schedule,
    sched_b: &Schedule,
    metric: Metric,
    cfg: &SimConfig,
    trials: usize,
) -> Vec<Option<Tick>> {
    Trials::new(cfg.clone(), metric == Metric::TwoWay)
        .run(trials, |rng| {
            [sched_a, sched_b]
                .map(|sched| {
                    let phase = random_phase(sched.period(), rng);
                    NodeSpec::always_on(Box::new(ScheduleBehavior::with_phase(
                        sched.clone(),
                        phase,
                    )))
                })
                .into()
        })
        .map(|report| pair_latency(&report, metric))
        .collect()
}

/// Fraction of ordered pairs discovering within `deadline` among `s`
/// devices, over `trials` runs to the horizon rooted at `cfg.seed` — the
/// Appendix B failure-rate experiment. `device` builds each device's
/// behaviour, drawing its phase from the set-up stream.
pub fn group_success_rate(
    s: usize,
    deadline: Tick,
    cfg: &SimConfig,
    trials: usize,
    mut device: impl FnMut(&mut StdRng) -> Box<dyn Behavior>,
) -> f64 {
    let latencies: Vec<Option<Tick>> = Trials::new(cfg.clone(), false)
        .run(trials, |rng| {
            (0..s).map(|_| NodeSpec::always_on(device(rng))).collect()
        })
        .flat_map(|report| report.pair_latencies(Metric::OneWay))
        .collect();
    let successes = latencies
        .iter()
        .filter(|l| l.is_some_and(|t| t <= deadline))
        .count();
    successes as f64 / latencies.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use nd_protocols::optimal::{self, OptimalParams};

    fn sim_cfg(ms: u64) -> SimConfig {
        // pair analysis under the paper's assumptions: no collisions
        // between the pair (A.5 assumption), ideal radio
        let mut cfg = SimConfig::paper_baseline(Tick::from_millis(ms), 11);
        cfg.collisions = false;
        cfg.half_duplex = false;
        cfg
    }

    #[test]
    fn summary_statistics() {
        let lat: Vec<Option<Tick>> = (1..=100)
            .map(|i| Some(Tick::from_millis(i)))
            .chain([None])
            .collect();
        let s = LatencySummary::from_latencies(&lat);
        assert_eq!(s.trials, 101);
        assert_eq!(s.failures, 1);
        assert!((s.p50 - 0.050).abs() < 2e-3);
        assert!((s.p95 - 0.095).abs() < 2e-3);
        assert!((s.max - 0.1).abs() < 1e-12);
        assert!((s.failure_rate() - 1.0 / 101.0).abs() < 1e-12);
    }

    #[test]
    fn pair_trials_stay_under_worst_case() {
        let opt = optimal::symmetric(OptimalParams::paper_default(), 0.1).unwrap();
        let horizon = Tick(opt.predicted_latency.as_nanos() * 3);
        let mut cfg = sim_cfg(1);
        cfg.t_end = horizon;
        let lat = pair_trials(&opt.schedule, &opt.schedule, Metric::TwoWay, &cfg, 25);
        let summary = LatencySummary::from_latencies(&lat);
        assert_eq!(summary.failures, 0, "deterministic protocol never fails");
        assert!(
            summary.max <= opt.predicted_latency.as_secs_f64() * 1.001,
            "max {} vs predicted {}",
            summary.max,
            opt.predicted_latency
        );
    }

    #[test]
    fn one_way_faster_than_two_way() {
        let opt = optimal::symmetric(OptimalParams::paper_default(), 0.1).unwrap();
        let mut cfg = sim_cfg(1);
        cfg.t_end = Tick(opt.predicted_latency.as_nanos() * 3);
        let one = LatencySummary::from_latencies(&pair_trials(
            &opt.schedule,
            &opt.schedule,
            Metric::EitherWay,
            &cfg,
            20,
        ));
        let two = LatencySummary::from_latencies(&pair_trials(
            &opt.schedule,
            &opt.schedule,
            Metric::TwoWay,
            &cfg,
            20,
        ));
        assert!(one.mean <= two.mean + 1e-12);
    }

    #[test]
    fn group_success_rate_bounds() {
        let opt = optimal::symmetric(OptimalParams::paper_default(), 0.1).unwrap();
        let mut cfg = sim_cfg(1);
        cfg.collisions = true;
        cfg.half_duplex = true;
        cfg.t_end = Tick(opt.predicted_latency.as_nanos() * 2);
        let rate = group_success_rate(3, opt.predicted_latency, &cfg, 4, |rng| {
            let phase = random_phase(opt.schedule.period(), rng);
            Box::new(ScheduleBehavior::with_phase(opt.schedule.clone(), phase))
        });
        assert!((0.0..=1.0).contains(&rate));
        assert!(rate > 0.5, "most discoveries succeed, got {rate}");
    }
}
