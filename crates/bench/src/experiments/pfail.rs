//! Appendix A.5 (Eq. 31): discovery failures caused by a device's own
//! transmissions blanking its reception windows, formula vs. simulation.
//!
//! When both devices of a pair run the *same* optimal sequences, exactly
//! one beacon per worst-case period lands inside the device's own
//! reception window; a radio cannot receive while transmitting (plus
//! turnaround times), so the offsets served by that window slice are at
//! risk: `P_fail = (d_oTxRx + d_oRxTx + d_a)/(M·Σd)`.
//!
//! The simulation column is a declarative `nd-sweep` scenario: a
//! Monte-Carlo sweep over the turnaround axis with the deadline set to the
//! schedule's predicted (exact two-way worst-case) latency.

use crate::table::{pct, Table};
use nd_core::bounds::overheads::self_blocking_failure_probability;
use nd_core::time::Tick;
use nd_protocols::optimal::{self, OptimalParams};
use nd_sweep::{run_sweep, ScenarioSpec, SweepOptions};

const ETA: f64 = 0.05;

/// The simulated column: one Monte-Carlo job per turnaround value, with
/// random phases, half-duplex radios and the horizon/deadline derived from
/// the schedule's nominal guarantee.
const SPEC: &str = r#"
name = "pfail-self-blocking"
backend = "montecarlo"
metric = "one-way"

[radio]
omega_us = 36
alpha = 1.0

[grid]
protocol = ["optimal-slotless"]
eta = [0.05]
turnaround_us = [0, 300]

[sim]
trials = 300
seed = 31
horizon_predicted_x = 2.0
deadline = "predicted"
half_duplex = true
collisions = true
"#;

/// Generate the report.
pub fn run() -> String {
    let mut out = String::new();
    out.push_str("Appendix A.5 — self-blocking failure probability (Eq. 31)\n");
    out.push_str("(same optimal sequences on both devices, η = 5 %, ω = 36 µs)\n\n");

    let opt = optimal::symmetric(OptimalParams::paper_default(), ETA).expect("constructible");
    let c = opt.schedule.windows.as_ref().unwrap();
    let b = opt.schedule.beacons.as_ref().unwrap();
    let m = c.period().div_ceil(c.sum_d());
    let sum_d = c.sum_d();
    let omega = b.omega();

    let spec = ScenarioSpec::from_toml_str(SPEC).expect("valid spec");
    let sweep = run_sweep(&spec, &SweepOptions::uncached()).expect("sweep runs");

    let mut t = Table::new(&[
        "turnarounds (TxRx+RxTx)",
        "Eq.31 P_fail",
        "sim failures > L (one-way)",
        "trials",
    ]);
    for (label, turnaround_us) in [("ideal (0)", 0u64), ("BLE-class (300 µs)", 300)] {
        let guard = Tick::from_micros(turnaround_us);
        let p_formula = self_blocking_failure_probability(guard, Tick::ZERO, omega, m, sum_d);
        let row = sweep
            .rows
            .iter()
            .find(|r| {
                r.param("turnaround_us").and_then(|v| v.as_f64()) == Some(turnaround_us as f64)
            })
            .expect("turnaround point swept");
        let over = row
            .metric("over_deadline_frac")
            .expect("deadline configured");
        let trials = row.metric("trials").expect("trial count recorded");
        t.row(vec![
            label.into(),
            pct(p_formula),
            pct(over),
            format!("{trials}"),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nReading: with an ideal radio only the packet airtime is blanked and\n\
         failures are rare, as Eq. 31 predicts. With 300 µs of turnaround the\n\
         simulated rate stays well below Eq. 31. That gap is a known simulator\n\
         fault, not a property of the schedule: the simulator decides a\n\
         reception at the packet's end, before the receiver's later own beacons\n\
         are recorded, so an own beacon whose RX→TX turnaround reaches back\n\
         into the packet never blanks it (ROADMAP.md, \"Half-duplex, right and\n\
         exact\"). The Appendix C correlated schedules avoid the problem entirely\n\
         (their beacons never meet their own windows).\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formula_increases_with_turnaround() {
        let p0 = self_blocking_failure_probability(
            Tick::ZERO,
            Tick::ZERO,
            Tick::from_micros(36),
            20,
            Tick::from_millis(1),
        );
        let p1 = self_blocking_failure_probability(
            Tick::from_micros(300),
            Tick::ZERO,
            Tick::from_micros(36),
            20,
            Tick::from_millis(1),
        );
        assert!(p1 > p0);
    }

    #[test]
    fn report_renders() {
        let r = run();
        assert!(r.contains("Appendix A.5"));
        assert!(r.contains("Eq.31"));
    }
}
