//! Appendix A.1: non-repetitive reception sequences.
//!
//! The bound `L = ω/(βγ)` (Eq. 23) holds for *any* reception pattern,
//! repetitive or not. This experiment puts three scanners with the same
//! γ against the same beacon train:
//!
//! * the repetitive optimal tiling — achieves the bound deterministically;
//! * a deterministic sliding (non-repetitive) scanner — also bounded,
//!   though not optimal for arbitrary strides;
//! * a uniformly random scanner — its *mean* is close to optimal but its
//!   tail is geometric: no worst case exists, which is why the paper's
//!   deterministic framing matters.

use crate::table::{pct, secs, Table};
use nd_analysis::montecarlo::LatencySummary;
use nd_core::bounds::unidirectional_bound;
use nd_core::schedule::Schedule;
use nd_core::time::Tick;
use nd_netsim::{NetSimulator, NodeSpec};
use nd_protocols::aperiodic::{RandomScanner, SlidingScanner};
use nd_protocols::optimal::{self, OptimalParams};
use nd_sim::{Behavior, ScheduleBehavior, SimConfig, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const BETA: f64 = 0.01;
const GAMMA: f64 = 0.05;

fn trial(make_scanner: &mut dyn FnMut() -> Box<dyn Behavior>, trials: usize) -> LatencySummary {
    let (tx, _rx) = optimal::unidirectional(OptimalParams::paper_default(), BETA, GAMMA)
        .expect("constructible");
    let beacons = tx.schedule.beacons.as_ref().unwrap().clone();
    let bound = unidirectional_bound(36e-6, BETA, GAMMA);
    let horizon = Tick::from_secs_f64(bound * 12.0);
    let mut rng = StdRng::seed_from_u64(0xa9e);
    let mut lat = Vec::with_capacity(trials);
    for t in 0..trials {
        let mut cfg = SimConfig::paper_baseline(horizon, 700 + t as u64);
        cfg.collisions = false;
        cfg.half_duplex = false;
        let mut sim = NetSimulator::new(cfg, Topology::full(2));
        let phase = Tick(rng.gen_range(0..beacons.period().as_nanos()));
        sim.add_node(NodeSpec::always_on(Box::new(ScheduleBehavior::with_phase(
            Schedule::tx_only(beacons.clone()),
            phase,
        ))));
        sim.add_node(NodeSpec::always_on(make_scanner()));
        sim.stop_when_all_discovered(false);
        let report = sim.run();
        lat.push(report.discovery.one_way(1, 0));
    }
    LatencySummary::from_latencies(&lat)
}

/// Generate the report.
pub fn run() -> String {
    let mut out = String::new();
    out.push_str("Appendix A.1 — non-repetitive reception sequences (β = 1 %, γ = 5 %)\n\n");
    let bound = unidirectional_bound(36e-6, BETA, GAMMA);
    out.push_str(&format!(
        "Eq. 23 bound for every pattern: L = ω/(βγ) = {}\n\n",
        secs(bound)
    ));

    let (_tx, rx) = optimal::unidirectional(OptimalParams::paper_default(), BETA, GAMMA)
        .expect("constructible");
    let opt_windows = rx.schedule.windows.as_ref().unwrap().clone();
    let frame = opt_windows.period();
    let window = opt_windows.sum_d();

    let trials = 80;
    let mut t = Table::new(&[
        "scanner (same γ)",
        "mean",
        "p95",
        "max observed",
        "failures",
        "vs bound (mean)",
    ]);
    let cases: Vec<(&str, LatencySummary)> = vec![
        (
            "repetitive optimal tiling",
            trial(
                &mut || {
                    Box::new(ScheduleBehavior::new(Schedule::rx_only(
                        opt_windows.clone(),
                    )))
                },
                trials,
            ),
        ),
        (
            "sliding (deterministic, non-repetitive)",
            trial(
                &mut || Box::new(SlidingScanner::new(frame, window, window / 3).expect("valid")),
                trials,
            ),
        ),
        (
            "uniform random window per frame",
            trial(
                &mut || Box::new(RandomScanner::new(frame, window).expect("valid")),
                trials,
            ),
        ),
    ];
    for (name, s) in cases {
        t.row(vec![
            name.into(),
            secs(s.mean),
            secs(s.p95),
            secs(s.max),
            format!("{}", s.failures),
            pct(s.mean / bound),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nReading: the bound applies to all three (none beats ω/(βγ) in the\n\
         worst case). The repetitive tiling *attains* it: max = bound, mean =\n\
         bound/2. The random scanner's mean is competitive but its tail runs\n\
         past the bound (geometric), and unlucky runs fail the 12x-bound\n\
         horizon entirely — determinism is what the paper's guarantees buy.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_contrasts_tails() {
        let r = run();
        assert!(r.contains("Appendix A.1"));
        assert!(r.contains("repetitive optimal tiling"));
    }
}
