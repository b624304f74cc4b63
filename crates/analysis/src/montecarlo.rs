//! Monte-Carlo harness: repeated randomized-phase simulations on
//! `nd-netsim`, for the statistics the closed-form analysis cannot give
//! (collisions among S > 2 devices, fault injection, reactive protocols).

use nd_core::schedule::Schedule;
use nd_core::time::Tick;
use nd_netsim::{CohortReport, NetSimulator, NodeSpec};
use nd_sim::{Behavior, ScheduleBehavior, SimConfig, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which discovery completion a pair trial waits for: `OneWay` is device 1
/// discovering device 0 (Theorem 5.4), `EitherWay` either direction
/// (Appendix C), `TwoWay` both directions (Theorems 5.5/5.7).
pub use nd_netsim::PairMetric;

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

/// Run `trials` pair simulations with independently random phases for both
/// schedules; returns per-trial latency (None if not discovered within the
/// configured horizon).
pub fn pair_trials(
    sched_a: &Schedule,
    sched_b: &Schedule,
    metric: PairMetric,
    cfg: &SimConfig,
    trials: usize,
) -> Vec<Option<Tick>> {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut out = Vec::with_capacity(trials);
    for trial in 0..trials {
        let phase_a = random_phase(sched_a, &mut rng);
        let phase_b = random_phase(sched_b, &mut rng);
        let mut cfg_t = cfg.clone();
        cfg_t.seed = cfg
            .seed
            .wrapping_add(trial as u64)
            .wrapping_mul(0x5851_f42d_4c95_7f2d);
        let mut sim = NetSimulator::new(cfg_t, Topology::full(2));
        for (sched, phase) in [(sched_a, phase_a), (sched_b, phase_b)] {
            let behavior = ScheduleBehavior::with_phase(sched.clone(), phase);
            sim.add_node(NodeSpec::always_on(Box::new(behavior)));
        }
        sim.stop_when_all_discovered(matches!(metric, PairMetric::TwoWay));
        let report = sim.run();
        let latency = match metric {
            PairMetric::OneWay => report.discovery.one_way(1, 0),
            PairMetric::EitherWay => report.discovery.either_way(0, 1),
            PairMetric::TwoWay => report.discovery.two_way(0, 1),
        };
        out.push(latency);
    }
    out
}

/// Fraction of pair discoveries (over random phases) completing within
/// `deadline`, among `s` devices all running clones of `schedule` with
/// random phases — the Appendix B failure-rate experiment.
pub fn group_success_rate(
    schedule: &Schedule,
    s: usize,
    deadline: Tick,
    cfg: &SimConfig,
    trials: usize,
    jitter: Option<Tick>,
) -> f64 {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xdead_beef);
    let mut attempts = 0u64;
    let mut successes = 0u64;
    for trial in 0..trials {
        let mut cfg_t = cfg.clone();
        cfg_t.seed = cfg.seed.wrapping_add(0x1000 + trial as u64);
        let mut sim = NetSimulator::new(cfg_t, Topology::full(s));
        for _ in 0..s {
            let phase = random_phase(schedule, &mut rng);
            let base = ScheduleBehavior::with_phase(schedule.clone(), phase);
            let behavior: Box<dyn Behavior> = match jitter {
                Some(j) => Box::new(nd_protocols::Jittered::new(base, j)),
                None => Box::new(base),
            };
            sim.add_node(NodeSpec::always_on(behavior));
        }
        count_discovered(&sim.run(), deadline, &mut attempts, &mut successes);
    }
    successes as f64 / attempts as f64
}

/// Like [`group_success_rate`], but with an arbitrary behaviour factory:
/// `make(trial, device)` builds each device's behaviour (drawing its own
/// randomness from construction parameters if needed).
pub fn group_success_rate_factory(
    make: &mut dyn FnMut(usize, usize) -> Box<dyn Behavior>,
    s: usize,
    deadline: Tick,
    cfg: &SimConfig,
    trials: usize,
) -> f64 {
    let mut attempts = 0u64;
    let mut successes = 0u64;
    for trial in 0..trials {
        let mut cfg_t = cfg.clone();
        cfg_t.seed = cfg.seed.wrapping_add(0x2000 + trial as u64);
        let mut sim = NetSimulator::new(cfg_t, Topology::full(s));
        for dev in 0..s {
            sim.add_node(NodeSpec::always_on(make(trial, dev)));
        }
        count_discovered(&sim.run(), deadline, &mut attempts, &mut successes);
    }
    successes as f64 / attempts as f64
}

/// Add a run's ordered pairs to `attempts`, and those discovered by
/// `deadline` to `successes`.
fn count_discovered(
    report: &CohortReport,
    deadline: Tick,
    attempts: &mut u64,
    successes: &mut u64,
) {
    let n = report.len();
    for a in 0..n {
        for b in (0..n).filter(|&b| b != a) {
            *attempts += 1;
            if report
                .discovery
                .one_way(a, b)
                .is_some_and(|t| t <= deadline)
            {
                *successes += 1;
            }
        }
    }
}

fn random_phase(schedule: &Schedule, rng: &mut StdRng) -> Tick {
    let period = schedule
        .beacons
        .as_ref()
        .map(|b| b.period())
        .into_iter()
        .chain(schedule.windows.as_ref().map(|c| c.period()))
        .max()
        .unwrap_or(Tick(1));
    Tick(rng.gen_range(0..period.as_nanos().max(1)))
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
        let lat = pair_trials(&opt.schedule, &opt.schedule, PairMetric::TwoWay, &cfg, 25);
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
            PairMetric::EitherWay,
            &cfg,
            20,
        ));
        let two = LatencySummary::from_latencies(&pair_trials(
            &opt.schedule,
            &opt.schedule,
            PairMetric::TwoWay,
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
        let rate = group_success_rate(&opt.schedule, 3, opt.predicted_latency, &cfg, 4, None);
        assert!((0.0..=1.0).contains(&rate));
        assert!(rate > 0.5, "most discoveries succeed, got {rate}");
    }
}
