//! `plan-cold`: distinct mixed-protocol fronts through the release
//! `nd-serve` binary, cold, one closed-loop client; and its traced replay,
//! whose kernel-level probes time nd-analysis (exact evaluation, coverage,
//! distribution, two-way worst case, residue fold), nd-core interval
//! unions and nd-protocols schedule construction on the round-0
//! candidates of the replayed specs.

use crate::gen::{self, OptSpecDoc};
use crate::layers::{timed, Layers, SpanSink};
use crate::serve::{
    cache_probe, check_front, median_secs, memo_flag, planner_for, result_hash, wire, Conn, Server,
};
use crate::stats;
use crate::{Ctx, Outcome};
use nd_analysis::{
    one_way_coverage, two_way_worst_case, ultimate_covered_measure, AnalysisConfig,
    LatencyDistribution,
};
use nd_core::Tick;
use nd_opt::{Candidate, OptOptions, OptSpec};
use nd_protocols::{ParamSpace, ProtocolKind};
use nd_serve::{parse_request, Endpoint};
use nd_sweep::Job;
use std::time::Instant;

/// plan-cold blocks replayed by the traced run.
const TRACE_BLOCKS: u64 = 2;
/// Run time one plan-cold block stands for (a block takes about this long
/// on a 2-core host).
const PLAN_BLOCK_SECONDS: f64 = 5.0;

fn space_for(spec: &OptSpec, protocol: &str) -> Option<ParamSpace> {
    let mut space = ProtocolKind::from_name(protocol)?.param_space();
    if spec.pair {
        space = space.paired();
    }
    if let Some((lo, hi)) = spec.eta_range {
        let axes: &[&str] = if spec.pair {
            &["eta", "eta_b"]
        } else {
            &["eta"]
        };
        for axis in axes {
            space = space.restrict(axis, lo, hi)?;
        }
    }
    Some(space)
}

/// The seeding-round candidates `run_opt` evaluates first for one
/// protocol of a spec (`ParamSpace::seed_grid`, feasible points only).
pub fn round0(spec: &OptSpec, protocol: &str) -> Vec<Candidate> {
    let Some(space) = space_for(spec, protocol) else {
        return Vec::new();
    };
    let omega = spec.base.radio.omega;
    space
        .seed_grid(spec.seeds_per_axis)
        .into_iter()
        .filter(|p| space.feasible(p, omega))
        .filter_map(|p| {
            Some(Candidate {
                protocol: protocol.to_string(),
                eta: space.value_of("eta", &p)?,
                slot_us: space.value_of("slot_us", &p),
                eta_b: space.value_of("eta_b", &p),
                slot_us_b: space.value_of("slot_us_b", &p),
            })
        })
        .collect()
}

/// The sweep job an exact evaluation of `cand` runs (as the optimizer
/// builds it).
fn job_for(spec: &OptSpec, cand: &Candidate) -> Job {
    let slot = |us: Option<f64>| us.map(|us| Tick::from_secs_f64(us * 1e-6));
    Job {
        index: 0,
        protocol: cand.protocol.clone(),
        eta: cand.eta,
        slot: slot(cand.slot_us).unwrap_or_else(|| Tick::from_millis(1)),
        protocol_b: None,
        eta_b: cand.eta_b,
        slot_b: slot(cand.slot_us_b),
        mix: 0.0,
        drift_ppm: 0,
        drop_probability: 0.0,
        turnaround: Tick::ZERO,
        phase: None,
        ratio: 1.0,
        nodes: 2,
        churn: 0.0,
        collision: spec.base.sim.collisions,
    }
}

/// Time `Evaluator::run` over every round-0 candidate of every protocol
/// of the specs. Each evaluation is one exact sweep job.
pub fn eval_probe(specs: &[(OptSpecDoc, OptSpec)], layers: &mut Layers) {
    for (doc, spec) in specs {
        let Ok(evaluator) = nd_opt::evaluator_for(spec) else {
            continue;
        };
        let _ctx = nd_obs::trace::push_context(doc.name.clone());
        for protocol in &spec.protocols {
            for cand in round0(spec, protocol) {
                let (row, ns) = timed("bench.analysis.evaluator_run", || evaluator.run(&cand));
                std::hint::black_box(row.is_ok());
                layers.push("eval", ns);
            }
        }
    }
    layers.set_quantile("exact.eval_ms.p50", "eval", 0.5, 1e6);
    layers.set_quantile("exact.eval_ms.p99", "eval", 0.99, 1e6);
    layers.set_quantile("exact.eval_ms.max", "eval", 1.0, 1e6);
    layers.set_quantile("sweep.job_ms.exact.p50", "eval", 0.5, 1e6);
    layers.set_quantile("sweep.job_ms.exact.max", "eval", 1.0, 1e6);
}

/// Time schedule construction and the kernel's stages on two round-0
/// candidates per (spec, protocol): the lowest-η grid point (the costly
/// corner) and the middle one.
pub fn analysis_probe(specs: &[(OptSpecDoc, OptSpec)], layers: &mut Layers) {
    for (doc, spec) in specs {
        let omega = spec.base.radio.omega;
        let cfg = AnalysisConfig::with_omega(omega);
        let _ctx = nd_obs::trace::push_context(doc.name.clone());
        for protocol in &spec.protocols {
            let cands = round0(spec, protocol);
            let mut picks = vec![0, cands.len() / 2];
            picks.dedup();
            for cand in picks.into_iter().filter_map(|i| cands.get(i)) {
                let pair = job_for(spec, cand).role_pair();
                let (scheds, ns) = timed("bench.protocols.role_pair_schedules", || {
                    pair.schedules(omega)
                });
                layers.push("build", ns);
                let Ok((e, f)) = scheds else { continue };
                let (Some(beacons), Some(windows)) = (e.beacons.as_ref(), f.windows.as_ref())
                else {
                    continue;
                };
                let (cov, cov_ns) = timed("bench.analysis.one_way_coverage", || {
                    one_way_coverage(beacons, windows, &cfg)
                });
                layers.push("coverage", cov_ns);
                if let Ok(c) = &cov {
                    layers.push("beacons_needed", c.beacons_needed as f64);
                }
                let (dist, ns) = timed("bench.analysis.latency_distribution", || {
                    LatencyDistribution::build(beacons, windows, &cfg, true)
                });
                std::hint::black_box(dist.is_ok());
                layers.push("dist", ns);
                let (two, ns) = timed("bench.analysis.two_way_worst_case", || {
                    two_way_worst_case(&e, &f, &cfg)
                });
                std::hint::black_box(two.is_ok());
                layers.push("two_way", ns);

                let base = cfg.model.reception_offsets(windows, cfg.omega);
                if cand.protocol == "optimal-slotless" {
                    let (m, ns) = timed("bench.analysis.ultimate_covered_measure", || {
                        ultimate_covered_measure(&base, beacons, windows.period())
                    });
                    std::hint::black_box(m);
                    layers.push("fold", ns);
                    layers.push("coverage_slotless", cov_ns);
                }
                if let Some(&t) = beacons.times().get(1).or(beacons.times().first()) {
                    let image = base.shift_mod(-(t.as_nanos() as i128), windows.period());
                    const REPS: usize = 64;
                    let (_, ns) = timed("bench.core.interval_union", || {
                        for _ in 0..REPS {
                            std::hint::black_box(
                                std::hint::black_box(&base).union(std::hint::black_box(&image)),
                            );
                        }
                    });
                    layers.push("union", ns / REPS as f64);
                }
            }
        }
    }
    layers.set_sum("exact.coverage_ms.sum", "coverage", 1e6);
    layers.set_sum("exact.dist_ms.sum", "dist", 1e6);
    layers.set_sum("exact.two_way_ms.sum", "two_way", 1e6);
    layers.set_quantile("exact.beacons_needed.max", "beacons_needed", 1.0, 1.0);
    let fold: f64 = layers.samples("fold").iter().sum();
    let cov: f64 = layers.samples("coverage_slotless").iter().sum();
    if cov > 0.0 {
        layers.set("exact.fold_frac", fold / cov);
    }
    layers.set_quantile("core.union_ns.p50", "union", 0.5, 1.0);
    layers.set_quantile("protocols.build_us.p50", "build", 0.5, 1e3);
}

fn plan_specs(seed: u64, blocks: u64) -> Vec<OptSpecDoc> {
    (0..blocks).flat_map(|b| gen::plan_block(seed, b)).collect()
}

fn front_wire(spec: &OptSpecDoc) -> Vec<u8> {
    wire(
        "POST",
        "/v1/front",
        &format!(
            "{{\"api\": \"nd-serve-api/v1\", \"spec\": {}}}",
            spec.json()
        ),
    )
}

pub fn plan_cold(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // set-up: generation and server start, each the median of five
    let blocks = (ctx.seconds / PLAN_BLOCK_SECONDS).round().max(1.0) as u64;
    let gen_s = median_secs(5, || {
        std::hint::black_box(plan_specs(ctx.seed, blocks).len());
    });
    let cache = ctx.out.join("cache");
    let mut starts = Vec::new();
    let mut server = None;
    for i in 0..5 {
        let t = Instant::now();
        let s = Server::start(ctx, &cache, 1024)?;
        starts.push(t.elapsed().as_secs_f64());
        if i < 4 {
            s.stop()?;
        } else {
            server = Some(s);
        }
    }
    let mut server = server.expect("last start kept");
    out.setup_s = gen_s + stats::median(&starts);

    // closed loop, one client, a fixed number of whole blocks: one per
    // PLAN_BLOCK_SECONDS of run time, so a run covers the stratified η
    // quarters evenly
    let mut conn = Conn::open(server.addr).map_err(|e| e.to_string())?;
    let mut body = Vec::new();
    let mut answered: Vec<(OptSpecDoc, f64, u16, Vec<u8>)> = Vec::new();
    let start = Instant::now();
    for block in 0..blocks {
        for spec in gen::plan_block(ctx.seed, block) {
            let w = front_wire(&spec);
            let t = Instant::now();
            let status = conn.call(&w, &mut body);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            match status {
                Ok(status) => answered.push((spec, ms, status, body.clone())),
                Err(e) => {
                    out.attempt(1, vec![format!("{}: {e}", spec.name)]);
                    conn = Conn::open(server.addr).map_err(|e| e.to_string())?;
                }
            }
        }
    }
    let wall = start.elapsed().as_secs_f64();

    // checks: status, bound, and the memo answer equals the cold one
    for (spec, _, status, cold) in &answered {
        let (expect, mut problems) = check_front(spec, *status, cold);
        let status = conn.call(&front_wire(spec), &mut body).unwrap_or(0);
        if status != expect.status || result_hash(&body) != expect.hash || !memo_flag(&body) {
            problems.push(format!(
                "{}: memo answer differs from the cold answer",
                spec.name
            ));
        }
        out.attempt(2, problems);
    }
    drop(conn);
    out.peak_rss_mb = server.peak_rss_mb();
    server.stop()?;

    let dir = ctx.out.join("specs");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let mut lines = String::new();
    for (spec, ms, status, _) in &answered {
        std::fs::write(dir.join(format!("{}.json", spec.name)), spec.json() + "\n")
            .map_err(|e| e.to_string())?;
        lines.push_str(&format!(
            "{{\"spec\": \"{}\", \"status\": {status}, \"latency_ms\": {ms:.3}}}\n",
            spec.name
        ));
    }
    std::fs::write(ctx.out.join("requests.jsonl"), lines).map_err(|e| e.to_string())?;

    let lat: Vec<f64> = answered.iter().map(|a| a.1).collect();
    out.p50_ms = stats::median(&lat);
    out.p99_ms = stats::quantile(&lat, 0.99);
    out.throughput_per_s = answered.len() as f64 / wall;
    let slowest = answered
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map(|a| format!("{} ({:.0} ms)", a.0.name, a.1))
        .unwrap_or_default();
    out.note(format!(
        "plan-cold: closed loop, 1 client, {} cold fronts in {blocks} blocks over {wall:.2} s",
        answered.len()
    ));
    out.note(format!(
        "  p50_ms = {:.2} ms   fronts_per_min = {:.1} 1/min   slowest = {slowest}",
        out.p50_ms,
        out.throughput_per_s * 60.0
    ));
    Ok(out)
}

pub fn plan_cold_traced(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let specs: Vec<(OptSpecDoc, OptSpec)> = plan_specs(ctx.seed, TRACE_BLOCKS)
        .into_iter()
        .map(|d| {
            let s = OptSpec::from_json_str(&d.json()).map_err(|e| format!("{}: {e}", d.name))?;
            Ok((d, s))
        })
        .collect::<Result<_, String>>()?;
    let opts = |dir: &str| OptOptions {
        threads: Some(1),
        use_cache: true,
        cache_dir: Some(ctx.out.join(dir)),
        strict_cache: false,
    };
    let t = Instant::now();
    for (_, spec) in &specs {
        let _ = nd_opt::run_opt(spec, &opts("cache-untraced"));
    }
    let untraced = t.elapsed().as_secs_f64();

    let sink = SpanSink::start();
    let mut layers = Layers::default();
    let (mut evaluated, mut errors, mut hits, mut executed, mut fronts) =
        (0usize, 0usize, 0usize, 0usize, 0usize);
    let replay_from = sink.len();
    {
        let _span = nd_obs::span!("bench.phase.opt_replay");
        let t = Instant::now();
        let o = opts("cache");
        for (doc, spec) in &specs {
            let _ctx = nd_obs::trace::push_context(doc.name.clone());
            let (outcome, ns) = timed("bench.opt.run_opt", || nd_opt::run_opt(spec, &o));
            layers.push("run_opt", ns);
            match outcome {
                Ok(outcome) => {
                    let (json, ns) = timed("bench.opt.to_json", || nd_opt::to_json(&outcome));
                    std::hint::black_box(json.len());
                    layers.push("export", ns);
                    hits += outcome.cache_hits;
                    executed += outcome.executed;
                    for f in &outcome.fronts {
                        fronts += 1;
                        evaluated += f.evaluated;
                        errors += f.errors;
                    }
                    out.attempt(1, Vec::new());
                }
                Err(e) => out.attempt(1, vec![format!("{}: {e}", doc.name)]),
            }
        }
        let traced = t.elapsed().as_secs_f64();
        layers.set("obs.trace_overhead_frac", (traced - untraced) / untraced);
    }
    // Σ Evaluator::run inside run_opt: the `backend.exact` spans nd-sweep
    // opens around each exact evaluation during the replay
    let evaluating = sink.sum_dur_ns(replay_from, "backend.exact");
    let run_total = stats::sum(layers.samples("run_opt"));
    if run_total > 0.0 {
        layers.set(
            "opt.orchestration_frac",
            (run_total - evaluating) / run_total,
        );
    }
    layers.set_quantile("opt.run_ms.p50", "run_opt", 0.5, 1e6);
    layers.set_quantile("opt.run_ms.max", "run_opt", 1.0, 1e6);
    layers.set_quantile("opt.export_us.p50", "export", 0.5, 1e3);
    layers.set(
        "opt.evals_per_front",
        evaluated as f64 / fronts.max(1) as f64,
    );
    layers.set("opt.censored_frac", errors as f64 / evaluated.max(1) as f64);
    layers.set(
        "sweep.cache_hit_ratio",
        hits as f64 / (hits + executed).max(1) as f64,
    );

    // the serving layer on the same requests: misses over the warm cache,
    // then memo hits
    {
        let _span = nd_obs::span!("bench.phase.serve_planner");
        let planner = planner_for(&ctx.out.join("cache"), 2, 1024);
        let mut memo = 0usize;
        for pass in 0..2 {
            for (doc, _) in &specs {
                let _ctx = nd_obs::trace::push_context(doc.name.clone());
                let body = format!("{{\"api\": \"nd-serve-api/v1\", \"spec\": {}}}", doc.json());
                let (req, ns) = timed("bench.serve.parse_request", || {
                    parse_request(Endpoint::Front, &body)
                });
                layers.push("parse", ns);
                let Ok(req) = req else { continue };
                let (answer, ns) = timed("bench.serve.planner_handle", || planner.handle(&req));
                if let Ok(b) = answer {
                    let hit = memo_flag(b.as_bytes());
                    layers.push(if hit { "hit" } else { "miss" }, ns);
                    layers.push("bytes", b.len() as f64);
                    if pass == 0 && hit {
                        memo += 1;
                    }
                }
            }
        }
        layers.set_quantile("serve.parse_us.p50", "parse", 0.5, 1e3);
        layers.set_quantile("serve.hit_us.p50", "hit", 0.5, 1e3);
        layers.set_quantile("serve.hit_us.p99", "hit", 0.99, 1e3);
        layers.set_quantile("serve.miss_ms.p50", "miss", 0.5, 1e6);
        layers.set_quantile("serve.response_kb.p50", "bytes", 0.5, 1024.0);
        layers.set("serve.memo_hit_ratio", memo as f64 / specs.len() as f64);
    }
    {
        let _span = nd_obs::span!("bench.phase.exact_evals");
        eval_probe(&specs, &mut layers);
    }
    {
        let _span = nd_obs::span!("bench.phase.analysis");
        analysis_probe(&specs, &mut layers);
    }
    {
        let _span = nd_obs::span!("bench.phase.cache");
        cache_probe(ctx, &ctx.out.join("cache"), &mut layers);
    }
    let path = ctx.out.join("trace.jsonl");
    let spans = sink.finish(&path).map_err(|e| e.to_string())?;
    out.note(format!(
        "plan-cold traced: {spans} spans in trace.jsonl, {} specs",
        specs.len()
    ));
    crate::critical_path_gate(ctx, &path, &mut out);
    out.layers = layers;
    Ok(out)
}
