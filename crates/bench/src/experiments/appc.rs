//! Appendix C / Theorem C.1: mutual-exclusive one-way discovery achieves
//! `2αω/η²` — half the direct symmetric bound, and the tightest bound for
//! all pairwise deterministic ND.

use crate::table::{factor, pct, secs, Table};
use nd_analysis::montecarlo::{pair_trials, LatencySummary};
use nd_core::bounds::{oneway_bound, symmetric_bound};
use nd_core::metric::Metric;
use nd_core::time::Tick;
use nd_protocols::correlated::{correlated_oneway, verify_oneway_determinism};
use nd_sim::SimConfig;

const OMEGA: Tick = Tick(36_000);
const ALPHA: f64 = 1.0;

/// Generate the report.
pub fn run() -> String {
    let mut out = String::new();
    out.push_str("Appendix C — one-way discovery at 2αω/η² (ω = 36 µs, α = 1)\n\n");
    let mut t = Table::new(&[
        "η",
        "Thm C.1 bound",
        "constructed L",
        "phase-sweep worst",
        "constr/bound",
        "direct sym (Thm 5.5)",
        "speedup",
    ]);
    for eta_pct in [1.0f64, 2.0, 5.0, 10.0] {
        let eta = eta_pct / 100.0;
        let bound = oneway_bound(ALPHA, OMEGA.as_secs_f64(), eta);
        let direct = symmetric_bound(ALPHA, OMEGA.as_secs_f64(), eta);
        let proto = correlated_oneway(OMEGA, ALPHA, eta).expect("constructible");
        let d1 = proto.schedule.windows.as_ref().unwrap().sum_d();
        let sweep = verify_oneway_determinism(&proto.schedule, (d1 / 9).max(Tick(1)))
            .expect("one-way deterministic");
        t.row(vec![
            pct(eta),
            secs(bound),
            secs(proto.predicted_latency.as_secs_f64()),
            secs(sweep.as_secs_f64()),
            factor(proto.predicted_latency.as_secs_f64() / bound),
            secs(direct),
            factor(direct / proto.predicted_latency.as_secs_f64()),
        ]);
    }
    out.push_str(&t.render());

    // simulation: either-way pair latency over random phases
    out.push_str("\nSimulation (either-way metric, random phases, collision-free pair):\n\n");
    let eta = 0.05;
    let proto = correlated_oneway(OMEGA, ALPHA, eta).expect("constructible");
    let mut cfg = SimConfig::paper_baseline(Tick(proto.predicted_latency.as_nanos() * 3), 5);
    cfg.collisions = false;
    cfg.half_duplex = false;
    let lat = pair_trials(
        &proto.schedule,
        &proto.schedule,
        Metric::EitherWay,
        &cfg,
        60,
    );
    let s = LatencySummary::from_latencies(&lat);
    let mut m = Table::new(&["trials", "failures", "p50", "p95", "max", "bound"]);
    m.row(vec![
        format!("{}", s.trials),
        format!("{}", s.failures),
        secs(s.p50),
        secs(s.p95),
        secs(s.max),
        secs(oneway_bound(ALPHA, OMEGA.as_secs_f64(), eta)),
    ]);
    out.push_str(&m.render());
    out.push_str(
        "\nReading: the ζ-correlated quadruple guarantees one of the two\n\
         directions within half the latency of direct symmetric discovery —\n\
         Theorem C.1 is achievable, so it is tight.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_within_two_percent_of_bound() {
        let proto = correlated_oneway(OMEGA, ALPHA, 0.05).unwrap();
        let bound = oneway_bound(ALPHA, OMEGA.as_secs_f64(), 0.05);
        let ratio = proto.predicted_latency.as_secs_f64() / bound;
        assert!((ratio - 1.0).abs() < 0.02, "ratio {ratio}");
    }

    #[test]
    fn report_renders() {
        let r = run();
        assert!(r.contains("Appendix C"));
        assert!(r.contains("speedup"));
    }
}
