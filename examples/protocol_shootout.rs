//! Protocol shootout: every implemented protocol at the same duty budget.
//!
//! ```text
//! cargo run --release --example protocol_shootout [eta_pct]
//! ```
//!
//! Instantiates the paper-optimal slotless construction, diff-codes,
//! Searchlight, Disco, U-Connect and the code-based variant at the same
//! (slot-domain) duty cycle, measures their exact worst/mean one-way
//! latency, and relates each to the fundamental bounds — a miniature of
//! the paper's Section 6 classification plus a randomized simulation
//! sanity check of the winner.

use optimal_nd::analysis::montecarlo::{pair_trials, LatencySummary};
use optimal_nd::analysis::{one_way_coverage, AnalysisConfig};
use optimal_nd::core::bounds::symmetric_bound;
use optimal_nd::core::{Metric, Tick};
use optimal_nd::protocols::ProtocolKind;
use optimal_nd::sim::SimConfig;

fn main() {
    let eta: f64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .map(|p: f64| p / 100.0)
        .unwrap_or(0.10);
    let slot = Tick::from_millis(1);
    let omega = Tick::from_micros(36);
    let cfg = AnalysisConfig::with_omega(omega);

    println!(
        "shootout at η ≈ {:.0} % (slot 1 ms, ω = 36 µs, α = 1)\n",
        eta * 100.0
    );
    println!(
        "{:<18} {:>9} {:>9} {:>14} {:>14} {:>11} {:>10}",
        "protocol", "η meas", "β meas", "worst latency", "mean latency", "vs optimal", "uncovered"
    );

    let mut best_schedule = None;
    for kind in ProtocolKind::all() {
        let sched = match kind.schedule_for_eta(eta, slot, omega) {
            Ok(s) => s,
            Err(e) => {
                println!("{:<18} unbuildable at this η: {e}", kind.name());
                continue;
            }
        };
        let dc = sched.duty_cycle();
        let eta_meas = dc.eta(1.0);
        let cc = one_way_coverage(
            sched.beacons.as_ref().unwrap(),
            sched.windows.as_ref().unwrap(),
            &cfg,
        )
        .expect("analyzable");
        let bound = symmetric_bound(1.0, omega.as_secs_f64(), eta_meas);
        println!(
            "{:<18} {:>8.3}% {:>8.3}% {:>14} {:>13.1}ms {:>10.1}x {:>9.2}%",
            kind.name(),
            eta_meas * 100.0,
            dc.beta * 100.0,
            cc.worst_covered.to_string(),
            cc.mean_covered * 1e3,
            cc.worst_covered.as_secs_f64() / bound,
            cc.undiscovered_probability * 100.0,
        );
        if matches!(kind, ProtocolKind::OptimalSlotless) {
            best_schedule = Some((sched, cc.worst_covered));
        }
    }

    // --- randomized trials on the optimal schedule --------------------
    if let Some((sched, worst)) = best_schedule {
        let mut sim = SimConfig::paper_baseline(Tick(worst.as_nanos() * 3), 5);
        sim.collisions = false;
        sim.half_duplex = false;
        let lat = pair_trials(&sched, &sched, Metric::OneWay, &sim, 100);
        let s = LatencySummary::from_latencies(&lat);
        println!(
            "\noptimal-slotless over 100 random phases: p50 {:.1} ms, p95 {:.1} ms, \
             max {:.1} ms (worst case {}), failures {}",
            s.p50 * 1e3,
            s.p95 * 1e3,
            s.max * 1e3,
            worst,
            s.failures
        );
    }
    println!("\nReading: only the slotless tiling tracks the 4αω/η² bound (1x);");
    println!("slotted designs pay orders of magnitude in this metric because their");
    println!("channel utilization is far below the optimal β = η/2α (paper §6.2).");
}
