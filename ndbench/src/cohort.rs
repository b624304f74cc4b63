//! `cohort-1m`: the README's million-node cohort through
//! `nd_netsim::run_sharded` on two workers, with its digest checked.

use crate::gen::{self, COHORT_NEIGHBOURHOOD, COHORT_NODES};
use crate::layers::{timed, Layers, SpanSink};
use crate::serve::vm_hwm_mb;
use crate::stats;
use crate::{Ctx, Outcome};
use nd_core::Tick;
use nd_netsim::{run_sharded, CohortReport, NetSimulator, NodeSpec};
use nd_sim::{ScheduleBehavior, SimConfig, Topology};
use std::collections::BTreeMap;
use std::time::Instant;

/// The digest of the README's cohort at the default seed.
pub const DEFAULT_SEED_DIGEST: &str = "42c1cd0a6b43fb5a";
const WORKERS: usize = 2;
/// Neighbourhoods re-simulated on their own per run.
const SAMPLE: usize = 256;

struct Cohort {
    sched: nd_core::Schedule,
    cfg: SimConfig,
    topo: Topology,
    seed: u64,
}

impl Cohort {
    fn build(seed: u64) -> Cohort {
        let sched = nd_protocols::schedule_for_selector(
            "optimal-slotless",
            0.10,
            Tick::from_millis(1),
            Tick::from_micros(36),
        )
        .expect("optimal-slotless at η = 0.10 builds");
        let mut radio = nd_core::RadioParams::paper_default();
        radio.omega = Tick::from_micros(36);
        let cfg = SimConfig::paper_baseline(Tick::from_millis(50), seed).with_radio(radio);
        let topo = Topology::clusters(
            (0..COHORT_NODES as u32)
                .map(|i| i / COHORT_NEIGHBOURHOOD as u32)
                .collect(),
        );
        Cohort {
            sched,
            cfg,
            topo,
            seed,
        }
    }

    fn node(&self, g: usize) -> NodeSpec {
        let phase = Tick(gen::cohort_phase_ns(self.seed, g));
        NodeSpec::always_on(Box::new(ScheduleBehavior::with_phase(
            self.sched.clone(),
            phase,
        )))
    }
}

fn fnv(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h = (*h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
}

/// The fields of a shard report the digest folds, in its order.
fn fingerprint(r: &CohortReport) -> [u64; 6] {
    [
        r.events,
        r.elapsed.0,
        r.packets.sent,
        r.packets.received,
        r.packets.lost_collision,
        r.packets.lost_self_blocking,
    ]
}

struct Run {
    wall_s: f64,
    events: u64,
    digest: String,
    sampled: BTreeMap<usize, [u64; 6]>,
}

/// One sharded run: every shard report folded into the digest in shard
/// order, exactly as the `cohort_scale` example does.
fn run(c: &Cohort, sample: &[usize]) -> Run {
    let mut events = 0u64;
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut sampled = BTreeMap::new();
    let t = Instant::now();
    run_sharded(
        &c.cfg,
        &c.topo,
        true,
        WORKERS,
        |g| c.node(g),
        |s, _, report| {
            events += report.events;
            let f = fingerprint(&report);
            for v in f {
                fnv(&mut digest, v);
            }
            if sample.binary_search(&s).is_ok() {
                sampled.insert(s, f);
            }
        },
    );
    Run {
        wall_s: t.elapsed().as_secs_f64(),
        events,
        digest: format!("{digest:016x}"),
        sampled,
    }
}

/// Re-simulate one neighbourhood on its own; returns its fingerprint and
/// the set-up and run times in ns.
fn resimulate(c: &Cohort, members: &[usize]) -> ([u64; 6], f64, f64) {
    let (sim, setup_ns) = timed("bench.netsim.shard_setup", || {
        let mut sim = NetSimulator::new(c.cfg.clone(), c.topo.subtopology(members));
        sim.stop_when_all_discovered(true);
        for &g in members {
            sim.add_node(c.node(g).with_stream(g as u64));
        }
        sim
    });
    let (report, run_ns) = timed("bench.netsim.shard_run", || sim.run());
    (fingerprint(&report), setup_ns, run_ns)
}

/// Check the digest at the default seed, and that sampled neighbourhoods
/// re-simulated on their own reproduce their sharded reports bit for bit.
fn check(c: &Cohort, r: &Run, out: &mut Outcome, layers: Option<&mut Layers>) {
    let mut problems = Vec::new();
    if c.seed == crate::DEFAULT_SEED && r.digest != DEFAULT_SEED_DIGEST {
        problems.push(format!(
            "cohort digest {} at the default seed, expected {DEFAULT_SEED_DIGEST}",
            r.digest
        ));
    }
    let shards = c.topo.shards();
    let mut layers = layers;
    let mut differ = 0;
    for (&s, expect) in &r.sampled {
        let (got, setup_ns, run_ns) = resimulate(c, &shards[s]);
        if got != *expect {
            differ += 1;
        }
        if let Some(l) = layers.as_deref_mut() {
            l.push("shard_setup", setup_ns);
            l.push("shard_run", run_ns);
        }
    }
    if differ > 0 {
        problems.push(format!(
            "{differ} re-simulated neighbourhoods differ from their sharded reports"
        ));
    }
    let failed = problems.len() as u64;
    out.record(
        shards.len() as u64 + r.sampled.len() as u64,
        failed,
        problems,
    );
}

pub fn cohort(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut builds = Vec::new();
    let mut cohort = None;
    for _ in 0..7 {
        let t = Instant::now();
        let c = Cohort::build(ctx.seed);
        builds.push(t.elapsed().as_secs_f64());
        cohort = Some(c);
    }
    out.setup_s = stats::median(&builds);
    let c = cohort.expect("built");
    let sample = gen::cohort_sample(ctx.seed, c.topo.shards().len(), SAMPLE);
    let r = run(&c, &sample);
    check(&c, &r, &mut out, None);
    out.peak_rss_mb = vm_hwm_mb(std::process::id());
    out.throughput_per_s = r.events as f64 / r.wall_s;
    out.p50_ms = r.wall_s * 1e3;
    out.p99_ms = r.wall_s * 1e3;
    std::fs::write(
        ctx.out.join("cohort.json"),
        format!(
            "{{\"nodes\": {COHORT_NODES}, \"neighbourhood\": {COHORT_NEIGHBOURHOOD}, \"protocol\": \"optimal-slotless\", \
             \"eta\": 0.1, \"omega_us\": 36, \"horizon_ms\": 50, \"seed\": {}, \"workers\": {WORKERS}, \"events\": {}, \
             \"digest\": \"{}\", \"sampled_shards\": {:?}}}\n",
            ctx.seed, r.events, r.digest, sample
        ),
    )
    .map_err(|e| e.to_string())?;
    out.note(format!(
        "cohort-1m: {COHORT_NODES} nodes in {} neighbourhoods of {COHORT_NEIGHBOURHOOD}, {WORKERS} workers, {:.2} s",
        c.topo.shards().len(),
        r.wall_s
    ));
    out.note(format!(
        "  events_per_s = {:.0} 1/s   events = {}   digest = {}",
        out.throughput_per_s, r.events, r.digest
    ));
    Ok(out)
}

pub fn cohort_traced(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let c = Cohort::build(ctx.seed);
    let sample = gen::cohort_sample(ctx.seed, c.topo.shards().len(), SAMPLE);
    let untraced = run(&c, &sample);

    let sink = SpanSink::start();
    let mut layers = Layers::default();
    let traced = {
        let _span = nd_obs::span!("bench.phase.cohort_run");
        timed("bench.netsim.run_sharded", || run(&c, &sample)).0
    };
    layers.set(
        "obs.trace_overhead_frac",
        (traced.wall_s - untraced.wall_s) / untraced.wall_s,
    );
    layers.set(
        "netsim.queue_depth_max",
        nd_obs::metrics::gauge("netsim.wheel_depth_max").get(),
    );
    let repeated = traced.digest == untraced.digest;
    out.attempt(
        1,
        (!repeated)
            .then(|| {
                format!(
                    "cohort digest differs between repetitions: {} vs {}",
                    untraced.digest, traced.digest
                )
            })
            .into_iter()
            .collect(),
    );
    {
        let _span = nd_obs::span!("bench.phase.shards");
        check(&c, &untraced, &mut out, Some(&mut layers));
    }
    layers.set_quantile("netsim.shard_setup_us.p50", "shard_setup", 0.5, 1e3);
    layers.set_quantile("netsim.shard_run_us.p50", "shard_run", 0.5, 1e3);
    let per_shard = (stats::sum(layers.samples("shard_setup"))
        + stats::sum(layers.samples("shard_run")))
        / layers.samples("shard_run").len().max(1) as f64;
    let shards = c.topo.shards().len() as f64;
    layers.set(
        "netsim.shard_pool_eff",
        per_shard * shards / 1e9 / (WORKERS as f64 * untraced.wall_s),
    );
    let spans = sink
        .finish(&ctx.out.join("trace.jsonl"))
        .map_err(|e| e.to_string())?;
    out.note(format!(
        "cohort-1m traced: untraced {:.2} s, traced {:.2} s, digest {}, {spans} spans",
        untraced.wall_s, traced.wall_s, traced.digest
    ));
    out.layers = layers;
    Ok(out)
}
