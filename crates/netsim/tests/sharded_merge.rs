//! Sharded-vs-whole-cohort equivalence under churn.
//!
//! Randomized clustered cohorts at N ∈ {2, 8, 33} — random schedules,
//! phases and staggered churn plans — must produce field-identical
//! [`CohortReport`]s whether the cohort runs as one simulation or shard
//! by shard on 1 or 4 threads and merged. The shards are smaller than the
//! whole cohort, so the two sides often run on different event queues (a
//! 4-node shard of an 8-node cohort runs on the heap, the cohort on the
//! wheel); any divergence in event order would surface as a report
//! difference. The in-crate property pins wheel against heap directly.

use nd_core::schedule::{BeaconSeq, ReceptionWindows, Schedule};
use nd_core::time::Tick;
use nd_netsim::{run_sharded_collect, ChurnPlan, CohortReport, NetSimulator, NodeSpec};
use nd_sim::{ScheduleBehavior, SimConfig, Topology};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const COHORTS: [usize; 3] = [2, 8, 33];

fn cfg(horizon: Tick, seed: u64) -> SimConfig {
    let mut radio = nd_core::RadioParams::paper_default();
    radio.omega = Tick::from_micros(4);
    SimConfig::paper_baseline(horizon, seed).with_radio(radio)
}

/// A randomized symmetric schedule: one beacon per period plus one
/// listening window, dimensions drawn from the case's parameters.
fn sched(period_us: u64, duty_pm: u64) -> Schedule {
    let period = Tick::from_micros(period_us);
    let omega = Tick::from_micros(4);
    let window = Tick(
        (period.as_nanos() * duty_pm / 1000).clamp(omega.as_nanos() * 2, period.as_nanos() / 2),
    );
    Schedule::full(
        BeaconSeq::uniform(1, period, omega, Tick::ZERO).unwrap(),
        ReceptionWindows::single(Tick(period.as_nanos() / 2), window, period).unwrap(),
    )
}

fn spec(i: usize, period_us: u64, duty_pm: u64, plan: &ChurnPlan) -> NodeSpec {
    let phase = Tick(((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)) % (period_us * 1000));
    NodeSpec::windowed(
        Box::new(ScheduleBehavior::with_phase(
            sched(period_us, duty_pm),
            phase,
        )),
        plan.joins[i],
        plan.leaves[i],
    )
}

fn run_cohort(
    n: usize,
    topo: &Topology,
    seed: u64,
    period_us: u64,
    duty_pm: u64,
    plan: &ChurnPlan,
    horizon: Tick,
) -> CohortReport {
    let mut sim = NetSimulator::new(cfg(horizon, seed), topo.clone());
    sim.stop_when_all_discovered(true);
    for i in 0..n {
        sim.add_node(spec(i, period_us, duty_pm, plan));
    }
    sim.run()
}

fn assert_reports_equal(a: &CohortReport, b: &CohortReport, what: &str) {
    assert_eq!(a.elapsed, b.elapsed, "{what}: elapsed");
    assert_eq!(a.events, b.events, "{what}: events");
    assert_eq!(a.discovery, b.discovery, "{what}: discovery");
    assert_eq!(a.packets, b.packets, "{what}: packets");
    assert_eq!(a.stats, b.stats, "{what}: stats");
    assert_eq!(a.joins, b.joins, "{what}: joins");
    assert_eq!(a.leaves, b.leaves, "{what}: leaves");
    assert_eq!(a.cluster, b.cluster, "{what}: cluster");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Clustered cohorts under churn: the sharded run's merged report
    /// equals the whole-cohort run.
    #[test]
    fn sharded_merge_agrees_with_whole_cohort_under_churn(
        seed in 0u64..1_000_000,
        churn_seed in 0u64..1_000_000,
        fraction in 0.0f64..0.8,
        period_us in 300u64..3000,
        duty_pm in 100u64..600,
    ) {
        let horizon = Tick::from_millis(30);
        for n in COHORTS {
            let clusters = (n / 4).clamp(1, 4) as u32;
            let plan = ChurnPlan::staggered(
                n, fraction, horizon, &mut StdRng::seed_from_u64(churn_seed));
            let topo = Topology::clusters((0..n as u32).map(|i| i % clusters).collect());
            let whole = run_cohort(n, &topo, seed, period_us, duty_pm, &plan, horizon);
            prop_assert!(whole.events > 0, "n={n}: the run must do something");
            let config = cfg(horizon, seed);
            for threads in [1, 4] {
                let sharded = run_sharded_collect(&config, &topo, true, threads, |g| {
                    spec(g, period_us, duty_pm, &plan)
                });
                assert_reports_equal(
                    &sharded.merge(&topo), &whole,
                    &format!("n={n} threads={threads} sharded vs unsharded"));
            }
        }
    }
}
