//! Mesh bootstrap: N devices discover each other all at once.
//!
//! ```text
//! cargo run --release --example mesh_bootstrap [n_devices] [eta_pct]
//! ```
//!
//! The scenario behind the paper's collision analysis (§5.2.2, Figure 7):
//! a room full of devices powers on and every pair must find every other
//! pair. With the pairwise-optimal schedule, collisions now matter — we
//! report the full-mesh completion time, the pairwise latency spread, and
//! the collision counters, for plain and round-jittered schedules.

use optimal_nd::core::bounds::collision_probability;
use optimal_nd::core::Tick;
use optimal_nd::netsim::{NetSimulator, NodeSpec};
use optimal_nd::protocols::optimal::{symmetric, OptimalParams};
use optimal_nd::protocols::RoundJittered;
use optimal_nd::sim::{ScheduleBehavior, SimConfig, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n: usize = args.first().and_then(|a| a.parse().ok()).unwrap_or(6);
    let eta: f64 = args
        .get(1)
        .and_then(|a| a.parse().ok())
        .map(|p: f64| p / 100.0)
        .unwrap_or(0.05);

    let opt = symmetric(OptimalParams::paper_default(), eta).expect("constructible");
    let pair_worst = opt.predicted_latency;
    println!(
        "mesh of {n} devices at η = {:.1} % each; pairwise worst case {} (Thm 5.5)",
        eta * 100.0,
        pair_worst
    );
    let beta = opt.achieved.beta;
    println!(
        "per-device channel utilization β = {:.2} % → Eq. 12 collision probability {:.2} %\n",
        beta * 100.0,
        collision_probability(n as u32, beta) * 100.0
    );

    for (label, jitter) in [("plain repetitive", false), ("round-jittered", true)] {
        let mut rng = StdRng::seed_from_u64(99);
        let cfg = SimConfig::paper_baseline(Tick(pair_worst.as_nanos() * 12), 1);
        let mut sim = NetSimulator::new(cfg, Topology::full(n));
        let period = opt
            .schedule
            .windows
            .as_ref()
            .map(|c| c.period())
            .unwrap_or(Tick(1));
        for _ in 0..n {
            if jitter {
                sim.add_node(NodeSpec::always_on(Box::new(RoundJittered::new(
                    opt.schedule.clone(),
                ))));
            } else {
                let phase = Tick(rng.gen_range(0..period.as_nanos()));
                sim.add_node(NodeSpec::always_on(Box::new(ScheduleBehavior::with_phase(
                    opt.schedule.clone(),
                    phase,
                ))));
            }
        }
        sim.stop_when_all_discovered(true);
        let report = sim.run();

        let mut latencies: Vec<Tick> = Vec::new();
        let mut missing = 0usize;
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    match report.discovery.one_way(a, b) {
                        Some(t) => latencies.push(t),
                        None => missing += 1,
                    }
                }
            }
        }
        latencies.sort();
        println!("--- {label} ---");
        match report.discovery.completion_time() {
            Some(t) => println!(
                "full mesh complete at {t} ({:.1} pairwise worst cases)",
                t.as_secs_f64() / pair_worst.as_secs_f64()
            ),
            None => println!("mesh NOT complete within horizon ({missing} ordered pairs missing)"),
        }
        if !latencies.is_empty() {
            println!(
                "pairwise latencies: median {}, p90 {}, max {}",
                latencies[latencies.len() / 2],
                latencies[latencies.len() * 9 / 10],
                latencies.last().unwrap()
            );
        }
        println!(
            "packets {} | received {} | collisions {} | self-blocked {}\n",
            report.packets.sent,
            report.packets.received,
            report.packets.lost_collision,
            report.packets.lost_self_blocking
        );
    }
    println!("Try larger meshes (e.g. 15 devices at 10 %) to watch collision");
    println!("correlation stall the plain schedules while jittered ones complete.");
}
