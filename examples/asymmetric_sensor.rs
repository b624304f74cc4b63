//! Asymmetric discovery: a coin-cell sensor meets a mains-powered gateway.
//!
//! ```text
//! cargo run --release --example asymmetric_sensor
//! ```
//!
//! The sensor can only afford η = 1 %; the gateway is generous (η = 20 %).
//! Theorem 5.7 says the pair is guaranteed mutual discovery within
//! `4αω/(η_E·η_F)` — and that (within a small factor) splitting a joint
//! budget asymmetrically costs almost nothing. We build the optimal
//! asymmetric schedules, verify both directions analytically, and compare
//! against giving both devices the same (average) budget.

use optimal_nd::analysis::{two_way_worst_case, AnalysisConfig};
use optimal_nd::core::bounds::{asymmetric_bound, symmetric_bound};
use optimal_nd::core::Tick;
use optimal_nd::netsim::{NetSimulator, NodeSpec};
use optimal_nd::protocols::optimal::{asymmetric, symmetric, OptimalParams};
use optimal_nd::sim::{ScheduleBehavior, SimConfig, Topology};

fn main() {
    let omega = Tick::from_micros(36);
    let params = OptimalParams {
        omega,
        alpha: 1.0,
        a: 1,
    };
    let (eta_sensor, eta_gateway) = (0.01, 0.20);

    println!("sensor budget   η_E = {:.0} %", eta_sensor * 100.0);
    println!("gateway budget  η_F = {:.0} %\n", eta_gateway * 100.0);

    // --- the bound and the construction -------------------------------
    let bound = asymmetric_bound(1.0, omega.as_secs_f64(), eta_sensor, eta_gateway);
    let (sensor, gateway) = asymmetric(params, eta_sensor, eta_gateway).expect("constructible");
    let cfg = AnalysisConfig::with_omega(omega);
    let exact =
        two_way_worst_case(&sensor.schedule, &gateway.schedule, &cfg).expect("deterministic");
    println!("Theorem 5.7 bound:      {:.2} ms", bound * 1e3);
    println!(
        "constructed worst case: {} ({:.4}x)",
        exact,
        exact.as_secs_f64() / bound
    );

    // --- compare with a symmetric split of the same joint budget ------
    let eta_avg = (eta_sensor + eta_gateway) / 2.0;
    let sym = symmetric(params, eta_avg).expect("constructible");
    let sym_exact = two_way_worst_case(&sym.schedule, &sym.schedule, &cfg).unwrap();
    let sym_bound = symmetric_bound(1.0, omega.as_secs_f64(), eta_avg);
    println!(
        "\nsame joint budget split evenly (η = {:.1} % each): {} (bound {:.2} ms)",
        eta_avg * 100.0,
        sym_exact,
        sym_bound * 1e3
    );
    let penalty = exact.as_secs_f64() / sym_exact.as_secs_f64();
    println!(
        "asymmetry penalty: {penalty:.2}x — the (1+r)²/4r factor at r = {:.0} (paper Figure 6: \
         moderate asymmetry is nearly free, extreme asymmetry is not)",
        eta_gateway / eta_sensor
    );

    // --- simulate the pair meeting ------------------------------------
    let mut sim_cfg = SimConfig::paper_baseline(Tick(exact.as_nanos() * 2), 7);
    sim_cfg.collisions = false;
    sim_cfg.half_duplex = false;
    let mut sim = NetSimulator::new(sim_cfg, Topology::full(2));
    sim.add_node(NodeSpec::always_on(Box::new(ScheduleBehavior::new(
        sensor.schedule.clone(),
    ))));
    sim.add_node(NodeSpec::always_on(Box::new(ScheduleBehavior::with_phase(
        gateway.schedule.clone(),
        Tick::from_micros(7777),
    ))));
    sim.stop_when_all_discovered(true);
    let report = sim.run();
    println!(
        "\nsimulated encounter: gateway→sensor heard at {}, sensor→gateway at {}",
        report
            .discovery
            .one_way(0, 1)
            .map_or("never".into(), |t| t.to_string()),
        report
            .discovery
            .one_way(1, 0)
            .map_or("never".into(), |t| t.to_string()),
    );
    println!(
        "measured duty cycles: sensor η = {:.3} %, gateway η = {:.3} %",
        report.stats[0].eta(report.elapsed, 1.0) * 100.0,
        report.stats[1].eta(report.elapsed, 1.0) * 100.0
    );
}
