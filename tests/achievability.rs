//! Integration: the paper's bounds are achieved by the constructed
//! schedules — Theorems 5.4, 5.5, 5.6, 5.7 and C.1 are *tight*.
//!
//! These tests span all four crates: constructions from `nd-protocols`,
//! exact verification from `nd-analysis`, bounds from `nd-core`, and a
//! simulation spot-check through `nd-sim`.

use optimal_nd::analysis::montecarlo::{pair_trials, LatencySummary};
use optimal_nd::analysis::{one_way_worst_case, two_way_worst_case, AnalysisConfig};
use optimal_nd::core::bounds;
use optimal_nd::core::{Metric, Tick};
use optimal_nd::protocols::correlated::{correlated_oneway, verify_oneway_determinism};
use optimal_nd::protocols::optimal::{self, OptimalParams};
use optimal_nd::sim::SimConfig;

const OMEGA_S: f64 = 36e-6;

fn params() -> OptimalParams {
    OptimalParams::paper_default()
}

fn cfg() -> AnalysisConfig {
    AnalysisConfig::paper_default()
}

#[test]
fn theorem_5_4_unidirectional_tight() {
    for (beta, gamma) in [(0.01, 0.02), (0.005, 0.05), (0.02, 0.1)] {
        let (tx, rx) = optimal::unidirectional(params(), beta, gamma).unwrap();
        let wc = one_way_worst_case(
            tx.schedule.beacons.as_ref().unwrap(),
            rx.schedule.windows.as_ref().unwrap(),
            &cfg(),
        )
        .unwrap();
        let bound = bounds::unidirectional_bound(OMEGA_S, tx.achieved.beta, rx.achieved.gamma);
        let ratio = wc.latency.as_secs_f64() / bound;
        assert!(
            (ratio - 1.0).abs() < 1e-6,
            "β {beta} γ {gamma}: ratio {ratio}"
        );
    }
}

#[test]
fn theorem_5_5_symmetric_tight_across_duty_cycles() {
    for eta in [0.005, 0.01, 0.02, 0.05, 0.1] {
        let opt = optimal::symmetric(params(), eta).unwrap();
        let exact = two_way_worst_case(&opt.schedule, &opt.schedule, &cfg()).unwrap();
        let bound = bounds::symmetric_bound(1.0, OMEGA_S, eta);
        let ratio = exact.as_secs_f64() / bound;
        assert!(
            (ratio - 1.0).abs() < 0.02,
            "η {eta}: ratio {ratio} (integer rounding only)"
        );
    }
}

#[test]
fn theorem_5_6_constrained_tight() {
    for (eta, beta_m) in [(0.05, 0.01), (0.1, 0.02), (0.04, 0.005)] {
        let opt = optimal::constrained(params(), eta, beta_m).unwrap();
        let exact = two_way_worst_case(&opt.schedule, &opt.schedule, &cfg()).unwrap();
        // exact vs. the bound at the *achieved* duty cycles: equality up
        // to nanosecond rounding (γ = 1/k quantization shifts both the
        // same way)
        let exact_bound =
            bounds::unidirectional_bound(OMEGA_S, opt.achieved.beta, opt.achieved.gamma);
        let ratio = exact.as_secs_f64() / exact_bound;
        assert!((ratio - 1.0).abs() < 1e-6, "η {eta} β_m {beta_m}: {ratio}");
        // vs. the bound at the *requested* parameters: within the γ = 1/k
        // quantization error
        let req_bound = bounds::constrained_bound(1.0, OMEGA_S, eta, beta_m);
        let req_ratio = exact.as_secs_f64() / req_bound;
        assert!(
            (req_ratio - 1.0).abs() < 0.05,
            "η {eta} β_m {beta_m}: {req_ratio}"
        );
        // and the cap is respected
        assert!(opt.achieved.beta <= beta_m * 1.01);
    }
}

#[test]
fn theorem_5_7_asymmetric_tight() {
    for (ee, ff) in [(0.08, 0.02), (0.1, 0.01), (0.04, 0.04)] {
        let (e, f) = optimal::asymmetric(params(), ee, ff).unwrap();
        let exact = two_way_worst_case(&e.schedule, &f.schedule, &cfg()).unwrap();
        let bound = bounds::asymmetric_bound(1.0, OMEGA_S, ee, ff);
        let ratio = exact.as_secs_f64() / bound;
        assert!((ratio - 1.0).abs() < 0.02, "η ({ee},{ff}): ratio {ratio}");
    }
}

#[test]
fn theorem_c1_oneway_tight_and_half_of_symmetric() {
    for eta in [0.02, 0.05] {
        let proto = correlated_oneway(Tick::from_micros(36), 1.0, eta).unwrap();
        let bound = bounds::oneway_bound(1.0, OMEGA_S, eta);
        let ratio = proto.predicted_latency.as_secs_f64() / bound;
        assert!((ratio - 1.0).abs() < 0.02, "η {eta}: ratio {ratio}");
        // machine-check one-way determinism over a fine phase grid
        let d1 = proto.schedule.windows.as_ref().unwrap().sum_d();
        let worst = verify_oneway_determinism(&proto.schedule, d1 / 5).expect("deterministic");
        assert!(worst <= proto.predicted_latency + d1 * 2);
    }
}

#[test]
fn no_construction_beats_its_bound() {
    // sanity direction: the exact worst case can never be *below* the
    // fundamental bound (that would disprove the paper)
    for eta in [0.01, 0.05] {
        let opt = optimal::symmetric(params(), eta).unwrap();
        let exact = two_way_worst_case(&opt.schedule, &opt.schedule, &cfg()).unwrap();
        // compare against the bound at the *achieved* duty cycle
        let achieved_eta = opt.achieved.eta(1.0);
        let bound = bounds::symmetric_bound(1.0, OMEGA_S, achieved_eta);
        assert!(
            exact.as_secs_f64() >= bound * 0.999,
            "η {eta}: exact {} below bound {bound}",
            exact.as_secs_f64()
        );
    }
}

#[test]
fn simulated_trials_never_exceed_worst_case() {
    let opt = optimal::symmetric(params(), 0.08).unwrap();
    let exact = two_way_worst_case(&opt.schedule, &opt.schedule, &cfg()).unwrap();
    let mut sim = SimConfig::paper_baseline(Tick(exact.as_nanos() * 2), 3);
    sim.collisions = false; // paper's pair-analysis assumptions (A.5)
    sim.half_duplex = false;
    let lat = pair_trials(&opt.schedule, &opt.schedule, Metric::TwoWay, &sim, 40);
    let s = LatencySummary::from_latencies(&lat);
    assert_eq!(s.failures, 0);
    assert!(
        s.max <= exact.as_secs_f64() * (1.0 + 1e-9),
        "sim max {} vs exact {}",
        s.max,
        exact
    );
}
