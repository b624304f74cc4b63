//! Criterion bench: N-node cohort simulation throughput (complete cohort
//! runs per second) as the cohort grows, plus a netsim-backend sweep
//! throughput case.
//!
//! Besides the criterion console report, the bench writes a JSON summary
//! (`BENCH_netsim.json`, path overridable via `ND_BENCH_JSON`) under the
//! stable `nd-bench-summary/v1` schema ([`nd_bench::summary`]) so CI can
//! upload machine-readable throughput numbers and fail on schema drift.

use criterion::{BenchmarkId, Criterion, Throughput};
use nd_bench::{measure, Summary};
use nd_core::time::Tick;
use nd_netsim::{run_sharded, NetSimulator, NodeSpec};
use nd_sim::{ScheduleBehavior, SimConfig, Topology};
use nd_sweep::{run_sweep, ScenarioSpec, SweepOptions};
use std::hint::black_box;

const COHORTS: [usize; 3] = [2, 8, 32];

/// Sharded cohorts: `n` nodes cut into 8-node channel neighborhoods,
/// run through [`run_sharded`] — the scaling path the million-node run
/// uses. One timed run each (a 100k-node cohort is seconds, not the
/// `measure` window).
const LARGE_COHORTS: [usize; 3] = [1_000, 10_000, 100_000];
const NEIGHBORHOOD: u32 = 8;

fn cohort_run(n: usize, seed: u64) -> u64 {
    let sched = nd_protocols::schedule_for_selector(
        "optimal-slotless",
        0.10,
        Tick::from_millis(1),
        Tick::from_micros(36),
    )
    .unwrap();
    let mut radio = nd_core::RadioParams::paper_default();
    radio.omega = Tick::from_micros(36);
    let cfg = SimConfig::paper_baseline(Tick::from_millis(50), seed).with_radio(radio);
    let mut sim = NetSimulator::new(cfg, Topology::full(n));
    for i in 0..n {
        let phase = Tick(((seed ^ (i as u64)).wrapping_mul(0x9e37_79b9_7f4a_7c15)) % 14_400_000);
        sim.add_node(NodeSpec::always_on(Box::new(ScheduleBehavior::with_phase(
            sched.clone(),
            phase,
        ))));
    }
    sim.stop_when_all_discovered(true);
    let report = sim.run();
    report.packets.sent + report.packets.received
}

/// One sharded large-cohort run; returns `(events, wall seconds)`.
fn large_cohort_run(n: usize, seed: u64) -> (u64, f64) {
    let sched = nd_protocols::schedule_for_selector(
        "optimal-slotless",
        0.10,
        Tick::from_millis(1),
        Tick::from_micros(36),
    )
    .unwrap();
    let mut radio = nd_core::RadioParams::paper_default();
    radio.omega = Tick::from_micros(36);
    let cfg = SimConfig::paper_baseline(Tick::from_millis(50), seed).with_radio(radio);
    let topo = Topology::clusters((0..n as u32).map(|i| i / NEIGHBORHOOD).collect());
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut events: u64 = 0;
    let t0 = std::time::Instant::now();
    run_sharded(
        &cfg,
        &topo,
        true,
        threads,
        |g| {
            let phase =
                Tick(((seed ^ (g as u64)).wrapping_mul(0x9e37_79b9_7f4a_7c15)) % 14_400_000);
            NodeSpec::always_on(Box::new(ScheduleBehavior::with_phase(sched.clone(), phase)))
        },
        |_, _, report| events += report.events,
    );
    (events, t0.elapsed().as_secs_f64())
}

const NETSIM_SWEEP: &str = r#"
name = "bench-netsim-sweep"
backend = "netsim"

[grid]
protocol = ["optimal-slotless"]
eta = [0.10]
nodes = [4, 8]
collision = [true, false]

[sim]
trials = 3
horizon_ms = 50
"#;

fn bench_cohort_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("netsim_cohort");
    for n in COHORTS {
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::new("nodes", n), &n, |b, &n| {
            b.iter(|| black_box(cohort_run(n, 42)))
        });
    }
    group.finish();
}

fn bench_netsim_sweep(c: &mut Criterion) {
    let spec = ScenarioSpec::from_toml_str(NETSIM_SWEEP).unwrap();
    c.bench_function("netsim_sweep_4_jobs", |b| {
        b.iter(|| {
            black_box(
                run_sweep(&spec, &SweepOptions::uncached())
                    .unwrap()
                    .rows
                    .len(),
            )
        })
    });
}

/// Hand-measured throughput summary for the CI artifact: cohort runs per
/// second per cohort size, and netsim-backend sweep jobs per second, all
/// recorded through the `nd-obs` registry under `nd-bench-summary/v1`.
fn write_summary() {
    let summary = Summary::new("netsim");
    for n in COHORTS {
        let (iters, per_sec) = measure(|| cohort_run(n, 42));
        summary.record_rate(&format!("netsim_cohort.nodes_{n}"), "runs", iters, per_sec);
    }
    for n in LARGE_COHORTS {
        let (events, secs) = large_cohort_run(n, 42);
        summary.record_rate(&format!("netsim_cohort.nodes_{n}"), "runs", 1, 1.0 / secs);
        summary.record_gauge(
            &format!("netsim_cohort.nodes_{n}"),
            "events_per_sec",
            events as f64 / secs,
        );
    }
    let spec = ScenarioSpec::from_toml_str(NETSIM_SWEEP).unwrap();
    let jobs = nd_sweep::expand(&spec).len();
    let (iters, sweeps_per_sec) = measure(|| {
        run_sweep(&spec, &SweepOptions::uncached())
            .unwrap()
            .rows
            .len() as u64
    });
    summary.record_gauge("netsim_sweep", "jobs", jobs as f64);
    summary.record_rate("netsim_sweep", "jobs", iters, sweeps_per_sec * jobs as f64);
    summary.write("BENCH_netsim.json");
}

fn main() {
    let mut c = Criterion::default();
    bench_cohort_scaling(&mut c);
    bench_netsim_sweep(&mut c);
    write_summary();
}
