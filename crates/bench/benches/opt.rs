//! Criterion bench: Pareto-front optimizer throughput — full searches
//! per second on the exact evaluator (uncached, 1 thread vs. all cores),
//! raw candidate-evaluation throughput, and the adaptive trial-allocation
//! speedup on a netsim-backed 33-node cohort search (fixed budget vs.
//! screen-and-promote at an identical front).
//!
//! Besides the criterion console report, the bench writes a JSON summary
//! (`BENCH_opt.json`, path overridable via `ND_BENCH_JSON`) under the
//! stable `nd-bench-summary/v1` schema ([`nd_bench::summary`]) so CI can
//! upload machine-readable throughput numbers and fail on schema drift.

use criterion::Criterion;
use nd_bench::{measure, Summary};
use nd_opt::{evaluator_for, run_opt, Candidate, OptOptions, OptSpec};
use std::hint::black_box;

const FRONT_SPEC: &str = r#"
name = "bench-opt-front"
backend = "exact"
metric = "two-way"

[opt]
protocols = ["optimal"]
seeds_per_axis = 6
rounds = 2
"#;

fn spec() -> OptSpec {
    OptSpec::from_toml_str(FRONT_SPEC).unwrap()
}

/// A 33-node netsim cohort search, the dense-grid sibling of the spec in
/// `crates/opt/tests/adaptive.rs` (which pins the adaptive-vs-fixed front
/// equality contract). Searchlight's duty cycle depends only on η, so
/// each η class keeps exactly one competitive slot column and screening
/// settles the rest; the 16-point slot axis keeps the front candidates —
/// which must run the full budget either way — a small share of the
/// total trial cost, which is what the adaptive speedup is made of.
const ADAPTIVE_SPEC: &str = r#"
name = "bench-opt-adaptive"
backend = "netsim"
metric = "two-way"

[radio]
omega_us = 2

[sim]
trials = 16
seed = 7
half_duplex = false
collisions = false
horizon_ms = 1200

[opt]
protocols = ["searchlight"]
objective = "p95"
nodes = 33
seeds_per_axis = 16
rounds = 1
max_evals = 256
eta_min = 0.15
eta_max = 0.3
"#;

const ADAPTIVE_KNOBS: &str = "
[opt.adaptive]
screen_trials = 1
confidence = 0.07
";

/// One uncached cohort search; returns the front as exact bit patterns
/// so the fixed and adaptive runs can be compared for identity.
fn adaptive_run(adaptive: bool) -> Vec<(u64, u64)> {
    let toml = if adaptive {
        format!("{ADAPTIVE_SPEC}{ADAPTIVE_KNOBS}")
    } else {
        ADAPTIVE_SPEC.to_string()
    };
    let s = OptSpec::from_toml_str(&toml).unwrap();
    let out = run_opt(&s, &OptOptions::uncached()).unwrap();
    out.fronts[0]
        .front
        .iter()
        .map(|p| (p.duty_cycle.to_bits(), p.latency_s.to_bits()))
        .collect()
}

fn front_run(threads: Option<usize>) -> usize {
    let opts = OptOptions {
        threads,
        ..OptOptions::uncached()
    };
    run_opt(&spec(), &opts).unwrap().fronts[0].front.len()
}

fn bench_front(c: &mut Criterion) {
    c.bench_function("opt_front_serial", |b| {
        b.iter(|| black_box(front_run(Some(1))))
    });
    c.bench_function("opt_front_parallel", |b| {
        b.iter(|| black_box(front_run(None)))
    });
}

fn bench_evaluations(c: &mut Criterion) {
    let s = spec();
    let ev = evaluator_for(&s).unwrap();
    let cand = Candidate::symmetric("optimal-slotless", 0.05, None);
    c.bench_function("opt_eval_exact", |b| {
        b.iter(|| black_box(ev.run(&cand).unwrap().len()))
    });
}

/// Hand-measured throughput summary for the CI artifact: whole searches
/// per second (serial and parallel) and single exact evaluations per
/// second, recorded through the `nd-obs` registry under
/// `nd-bench-summary/v1`.
fn write_summary() {
    let summary = Summary::new("opt");
    for (name, threads) in [("opt_front_serial", Some(1)), ("opt_front_parallel", None)] {
        let (iters, per_sec) = measure(|| front_run(threads) as u64);
        summary.record_rate(name, "fronts", iters, per_sec);
    }
    let s = spec();
    let ev = evaluator_for(&s).unwrap();
    let cand = Candidate::symmetric("optimal-slotless", 0.05, None);
    let (iters, per_sec) = measure(|| ev.run(&cand).unwrap().len() as u64);
    summary.record_rate("opt_eval_exact", "evals", iters, per_sec);
    // netsim 33-node cohort: fixed budget vs. adaptive screen-and-promote.
    // One timed run each (these are multi-second searches; the adaptive
    // trial cost is deterministic, so a single run is representative),
    // and the two fronts are asserted identical — the bench doubles as
    // the front-equality check on the dense grid.
    let t0 = std::time::Instant::now();
    let fixed_front = adaptive_run(false);
    let fixed_per_sec = 1.0 / t0.elapsed().as_secs_f64();
    summary.record_rate("adaptive_front_fixed", "fronts", 1, fixed_per_sec);
    let t0 = std::time::Instant::now();
    let adaptive_front = adaptive_run(true);
    let adaptive_per_sec = 1.0 / t0.elapsed().as_secs_f64();
    assert_eq!(
        fixed_front, adaptive_front,
        "adaptive screening must reproduce the fixed-budget front bit for bit"
    );
    summary.record_rate("adaptive_front", "fronts", 1, adaptive_per_sec);
    summary.record_gauge(
        "adaptive_front",
        "speedup_x",
        adaptive_per_sec / fixed_per_sec,
    );
    summary.write("BENCH_opt.json");
}

fn main() {
    let mut c = Criterion::default();
    bench_front(&mut c);
    bench_evaluations(&mut c);
    write_summary();
}
