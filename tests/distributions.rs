//! Integration: exact latency distributions vs. Monte-Carlo simulation,
//! and energy accounting across the stack.

use optimal_nd::analysis::montecarlo::{pair_trials, LatencySummary, PairMetric};
use optimal_nd::analysis::{AnalysisConfig, LatencyDistribution};
use optimal_nd::core::Tick;
use optimal_nd::netsim::{NetSimulator, NodeSpec};
use optimal_nd::protocols::optimal::{symmetric, OptimalParams};
use optimal_nd::sim::{ScheduleBehavior, SimConfig, Topology};

#[test]
fn exact_cdf_matches_simulation_quantiles() {
    let opt = symmetric(OptimalParams::paper_default(), 0.08).unwrap();
    let dist = LatencyDistribution::build(
        opt.schedule.beacons.as_ref().unwrap(),
        opt.schedule.windows.as_ref().unwrap(),
        &AnalysisConfig::paper_default(),
        false,
    )
    .unwrap();
    let worst = dist.worst().unwrap();
    let mut cfg = SimConfig::paper_baseline(Tick(worst.as_nanos() * 2), 77);
    cfg.collisions = false;
    cfg.half_duplex = false;
    let lat = pair_trials(&opt.schedule, &opt.schedule, PairMetric::OneWay, &cfg, 200);
    let s = LatencySummary::from_latencies(&lat);
    assert_eq!(s.failures, 0);
    // simulated quantiles land near the exact ones (200 samples → ~7 %
    // Monte-Carlo error at the median)
    assert!(
        (s.p50 - dist.quantile(0.5)).abs() / dist.quantile(0.5) < 0.15,
        "p50 sim {} vs exact {}",
        s.p50,
        dist.quantile(0.5)
    );
    assert!(s.max <= worst.as_secs_f64() * (1.0 + 1e-9));
    // mean within a few percent
    assert!(
        (s.mean - dist.mean()).abs() / dist.mean() < 0.10,
        "mean sim {} vs exact {}",
        s.mean,
        dist.mean()
    );
}

#[test]
fn distribution_mean_is_half_worst_for_tilings() {
    for eta in [0.02, 0.05, 0.1] {
        let opt = symmetric(OptimalParams::paper_default(), eta).unwrap();
        let dist = LatencyDistribution::build(
            opt.schedule.beacons.as_ref().unwrap(),
            opt.schedule.windows.as_ref().unwrap(),
            &AnalysisConfig::paper_default(),
            false,
        )
        .unwrap();
        let ratio = dist.mean() / dist.worst().unwrap().as_secs_f64();
        assert!((ratio - 0.5).abs() < 0.03, "η {eta}: mean/worst {ratio}");
    }
}

#[test]
fn measured_energy_tracks_duty_cycle() {
    // a device at η = 5 % with P_rx = 10 mW must burn ≈ 0.5 mW average
    let opt = symmetric(OptimalParams::paper_default(), 0.05).unwrap();
    let horizon = Tick::from_secs(2);
    let cfg = SimConfig::paper_baseline(horizon, 3);
    let mut sim = NetSimulator::new(cfg, Topology::full(2));
    sim.add_node(NodeSpec::always_on(Box::new(ScheduleBehavior::new(
        opt.schedule.clone(),
    ))));
    sim.add_node(NodeSpec::always_on(Box::new(ScheduleBehavior::with_phase(
        opt.schedule.clone(),
        Tick::from_micros(321),
    ))));
    let report = sim.run();
    let radio = optimal_nd::core::RadioParams::paper_default();
    let energy = report.stats[0].energy_joules(&radio, 0.010);
    let avg_power = energy / report.elapsed.as_secs_f64();
    let expected = 0.010 * 0.05; // P_rx · η
    assert!(
        (avg_power - expected).abs() / expected < 0.05,
        "avg power {avg_power} vs {expected}"
    );
}

#[test]
fn energy_latency_tradeoff_is_monotone() {
    // doubling the budget quadruples speed but only doubles power: the
    // energy *per discovery* drops — the paper's core economics
    let radio = optimal_nd::core::RadioParams::paper_default();
    let mut last_energy_to_discover = f64::INFINITY;
    for eta in [0.02, 0.04, 0.08] {
        let opt = symmetric(OptimalParams::paper_default(), eta).unwrap();
        let l = opt.predicted_latency.as_secs_f64();
        // energy spent by one device until the worst-case discovery
        let energy = 0.010 * eta * l * radio.alpha;
        assert!(
            energy < last_energy_to_discover,
            "η {eta}: {energy} not below {last_energy_to_discover}"
        );
        last_energy_to_discover = energy;
    }
}
