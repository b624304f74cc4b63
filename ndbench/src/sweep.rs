//! `sim-sweep`: the release `nd-sweep run` over the generated montecarlo
//! and netsim specs, uncached, repeated; and the traced replay of the same
//! jobs through `nd_sweep::engine::execute_job`.

use crate::gen;
use crate::layers::{timed, Layers, SpanSink};
use crate::serve::vm_hwm_mb;
use crate::stats;
use crate::{Ctx, Outcome};
use nd_netsim::{ChurnPlan, NetSimulator, NodeSpec};
use nd_sim::{ScheduleBehavior, Topology};
use nd_sweep::{Backend, Job, ScenarioSpec, SweepOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Run a child to completion, polling its peak RSS (`VmHWM`, MiB).
fn run_polled(cmd: &mut Command, log: &Path) -> Result<(ExitStatus, f64), String> {
    let log = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(log)
        .map_err(|e| e.to_string())?;
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(log.try_clone().map_err(|e| e.to_string())?)
        .stderr(log)
        .spawn()
        .map_err(|e| format!("cannot start nd-sweep: {e}"))?;
    let pid = child.id();
    let mut hwm: f64 = 0.0;
    loop {
        hwm = hwm.max(vm_hwm_mb(pid));
        if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
            return Ok((status, hwm));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Data rows of an `nd-sweep` CSV export (header and comments dropped).
fn csv_rows(text: &str) -> Vec<&str> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .skip(1)
        .collect()
}

/// A generated sweep spec and the number of jobs it expands to.
struct SpecFile {
    name: String,
    toml: String,
    jobs: usize,
}

fn spec_files(seed: u64) -> Result<Vec<SpecFile>, String> {
    gen::sweep_specs(seed)
        .into_iter()
        .map(|(name, toml)| {
            let spec = ScenarioSpec::from_toml_str(&toml).map_err(|e| e.to_string())?;
            let jobs = nd_sweep::expand(&spec).len();
            Ok(SpecFile { name, toml, jobs })
        })
        .collect()
}

pub fn sim_sweep(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // set-up: generate the spec files and expand them for the expected job
    // counts (median of fifteen; writing the files out is not timed)
    let mut setups = Vec::new();
    for _ in 0..15 {
        let t = Instant::now();
        std::hint::black_box(spec_files(ctx.seed)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    out.setup_s = stats::median(&setups);
    let files = spec_files(ctx.seed)?;
    for f in &files {
        std::fs::write(ctx.out.join(format!("{}.toml", f.name)), &f.toml)
            .map_err(|e| e.to_string())?;
    }

    // whole passes, as many as fit the run time (rounded), at least two
    let mut passes: Vec<f64> = Vec::new();
    let mut first: Vec<String> = Vec::new();
    let mut peak: f64 = 0.0;
    let start = Instant::now();
    while passes.len() < 2
        || start.elapsed().as_secs_f64() + 0.5 * stats::median(&passes) < ctx.seconds
    {
        let pass = passes.len();
        let dir = ctx.out.join(format!("pass{pass}"));
        let t = Instant::now();
        for (k, SpecFile { name, jobs, .. }) in files.iter().enumerate() {
            let (status, hwm) = run_polled(
                Command::new(ctx.bin("nd-sweep"))
                    .arg("run")
                    .arg(ctx.out.join(format!("{name}.toml")))
                    .args([
                        "--no-cache",
                        "--threads",
                        "2",
                        "--format",
                        "csv",
                        "--quiet",
                        "--out-dir",
                    ])
                    .arg(&dir),
                &ctx.out.join("nd-sweep.log"),
            )?;
            peak = peak.max(hwm);
            let csv = std::fs::read_to_string(dir.join(format!("{name}.csv"))).unwrap_or_default();
            let rows = csv_rows(&csv);
            let mut problems = Vec::new();
            if !status.success() {
                problems.push(format!(
                    "pass {pass}: nd-sweep run {name} exited with {status}"
                ));
            }
            if rows.len() != *jobs {
                problems.push(format!(
                    "pass {pass}: {name} wrote {} rows for {jobs} jobs",
                    rows.len()
                ));
            }
            let failed_jobs = rows.iter().filter(|r| !r.ends_with(',')).count();
            if failed_jobs > 0 {
                problems.push(format!("pass {pass}: {name}: {failed_jobs} jobs failed"));
            }
            if pass == 0 {
                first.push(csv);
            } else if csv != first[k] {
                let differ = rows
                    .iter()
                    .zip(csv_rows(&first[k]))
                    .filter(|pair| *pair.0 != pair.1)
                    .count();
                problems.push(format!(
                    "pass {pass}: {name}: {differ} rows differ from pass 0 at the same seed"
                ));
            }
            let failed = problems.len().max(failed_jobs);
            out.record(*jobs as u64, failed as u64, problems);
        }
        passes.push(t.elapsed().as_secs_f64());
    }
    let wall: f64 = passes.iter().sum();
    let total_jobs: usize = files.iter().map(|f| f.jobs).sum::<usize>() * passes.len();
    out.p50_ms = stats::median(&passes) * 1e3;
    out.p99_ms = stats::quantile(&passes, 0.99) * 1e3;
    out.throughput_per_s = total_jobs as f64 / wall;
    out.peak_rss_mb = peak;
    out.note(format!(
        "sim-sweep: {} passes of `nd-sweep run --no-cache --threads 2` over {} montecarlo + {} netsim jobs",
        passes.len(),
        files[0].jobs,
        files[1].jobs
    ));
    out.note(format!(
        "  jobs_per_s = {:.2} 1/s   pass wall p50 = {:.0} ms",
        out.throughput_per_s, out.p50_ms
    ));
    Ok(out)
}

type JobResult = Result<BTreeMap<String, f64>, String>;
/// A spec's jobs, with each job's result and `execute_job` time (ns).
type Executed = (Vec<Job>, Vec<(JobResult, f64)>);

/// Execute every job of `spec` on two workers, timing each call.
fn execute_all(name: &str, spec: &ScenarioSpec, jobs: &[Job]) -> Vec<(JobResult, f64)> {
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<(JobResult, f64)>>> = Mutex::new(vec![None; jobs.len()]);
    let work = || {
        let _span = nd_obs::span!("bench.sweep.worker");
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(job) = jobs.get(i) else { break };
            let _ctx = nd_obs::trace::push_context(format!("{name}#{i}"));
            let r = timed("bench.sweep.execute_job", || {
                nd_sweep::engine::execute_job(job, spec)
            });
            results.lock().expect("results lock")[i] = Some(r);
        }
    };
    std::thread::scope(|s| {
        let second = s.spawn(work);
        work();
        second.join().expect("sweep worker panicked");
    });
    results
        .into_inner()
        .expect("results lock")
        .into_iter()
        .map(|r| r.expect("every job executed"))
        .collect()
}

fn same_metrics(a: &BTreeMap<String, f64>, b: &BTreeMap<String, f64>) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|((ka, va), (kb, vb))| ka == kb && va.to_bits() == vb.to_bits())
}

pub fn sim_sweep_traced(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let specs: Vec<(String, ScenarioSpec)> = gen::sweep_specs(ctx.seed)
        .into_iter()
        .map(|(name, toml)| {
            ScenarioSpec::from_toml_str(&toml)
                .map(|s| (name, s))
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let opts = SweepOptions {
        threads: Some(2),
        use_cache: false,
        cache_dir: None,
    };
    let t = Instant::now();
    let mut untraced_rows = Vec::new();
    let mut cache_hits = 0usize;
    for (_, spec) in &specs {
        let outcome = nd_sweep::run_sweep(spec, &opts).map_err(|e| e.to_string())?;
        cache_hits += outcome.cache_hits;
        untraced_rows.push(outcome.rows);
    }
    let untraced = t.elapsed().as_secs_f64();

    let sink = SpanSink::start();
    let mut layers = Layers::default();
    let mut executed: Vec<Executed> = Vec::new();
    {
        let _span = nd_obs::span!("bench.phase.sweep_jobs");
        let t = Instant::now();
        for (name, spec) in &specs {
            let jobs = nd_sweep::expand(spec);
            let results = execute_all(name, spec, &jobs);
            executed.push((jobs, results));
        }
        let traced = t.elapsed().as_secs_f64();
        layers.set("obs.trace_overhead_frac", (traced - untraced) / untraced);
    }
    let mut busy_ns = 0.0;
    let mut jobs_total = 0usize;
    for (((name, spec), (jobs, results)), rows) in specs.iter().zip(&executed).zip(&untraced_rows) {
        let mut mismatched = 0u64;
        for ((result, ns), row) in results.iter().zip(rows) {
            busy_ns += ns;
            jobs_total += 1;
            let key = match spec.backend {
                Backend::MonteCarlo => {
                    layers.push("trial", ns / spec.sim.trials.max(1) as f64);
                    "job_montecarlo"
                }
                Backend::Netsim => "job_netsim",
                _ => "job_other",
            };
            layers.push(key, *ns);
            let same = match result {
                Ok(m) => row.error.is_none() && same_metrics(m, &row.metrics),
                Err(e) => row.error.as_deref() == Some(e.as_str()),
            };
            if !same || result.is_err() {
                mismatched += 1;
            }
        }
        let msg = (mismatched > 0).then(|| {
            format!("{name}: {mismatched} jobs failed or differ from run_sweep at the same seed")
        });
        out.record(jobs.len() as u64, mismatched, msg.into_iter().collect());
    }
    layers.set_quantile("sweep.job_ms.montecarlo.p50", "job_montecarlo", 0.5, 1e6);
    layers.set_quantile("sweep.job_ms.montecarlo.max", "job_montecarlo", 1.0, 1e6);
    layers.set_quantile("sweep.job_ms.netsim.p50", "job_netsim", 0.5, 1e6);
    layers.set_quantile("sweep.job_ms.netsim.max", "job_netsim", 1.0, 1e6);
    layers.set_quantile("sim.trial_us.p50", "trial", 0.5, 1e3);
    layers.set("sweep.pool_busy_frac", busy_ns / (2.0 * untraced * 1e9));
    layers.set(
        "sweep.cache_hit_ratio",
        cache_hits as f64 / jobs_total.max(1) as f64,
    );

    // what a cached sweep adds per job: store the result, load it back
    {
        let _span = nd_obs::span!("bench.phase.cache");
        let cache = nd_sweep::ResultCache::at(ctx.out.join("store-probe"));
        for ((_, spec), (jobs, results)) in specs.iter().zip(&executed) {
            for (job, (result, _)) in jobs.iter().zip(results) {
                let hash = job.content_hash(spec);
                let entry = nd_sweep::CachedResult {
                    metrics: result.clone().unwrap_or_default(),
                    error: result.as_ref().err().cloned(),
                };
                let (_, ns) = timed("bench.sweep.cache_store", || cache.store(&hash, &entry));
                layers.push("cache_store", ns);
                let (loaded, ns) = timed("bench.sweep.cache_load", || cache.load(&hash));
                std::hint::black_box(loaded.is_ok());
                layers.push("cache_load", ns);
            }
        }
        layers.set_quantile("sweep.cache_load_us.p50", "cache_load", 0.5, 1e3);
        layers.set_quantile("sweep.cache_store_us.p50", "cache_store", 0.5, 1e3);
    }

    // the netsim engine on the same full meshes: events per second of
    // NetSimulator::run, and the event-queue depth it reached
    {
        let _span = nd_obs::span!("bench.phase.netsim_mesh");
        let (mut events, mut run_ns) = (0u64, 0.0);
        for ((_, spec), (jobs, _)) in specs.iter().zip(&executed) {
            if spec.backend != Backend::Netsim {
                continue;
            }
            for job in jobs {
                for trial in 0..3u64 {
                    if let Some((e, ns)) = mesh_run(job, spec, trial) {
                        events += e;
                        run_ns += ns;
                    }
                }
            }
        }
        if run_ns > 0.0 {
            layers.set("netsim.job_events_per_s", events as f64 / (run_ns / 1e9));
        }
        layers.set(
            "netsim.queue_depth_max",
            nd_obs::metrics::gauge("netsim.wheel_depth_max").get(),
        );
    }
    let path = ctx.out.join("trace.jsonl");
    let spans = sink.finish(&path).map_err(|e| e.to_string())?;
    out.note(format!(
        "sim-sweep traced: {spans} spans in trace.jsonl, {jobs_total} jobs"
    ));
    crate::critical_path_gate(ctx, &path, &mut out);
    out.layers = layers;
    Ok(out)
}

/// One full-mesh trial of a netsim job, built the way the netsim backend
/// builds it: random phases, staggered churn. Returns (events, run ns).
fn mesh_run(job: &Job, spec: &ScenarioSpec, trial: u64) -> Option<(u64, f64)> {
    let (sched, _) = nd_sweep::engine::build_role_schedules(job, spec).ok()?;
    let n = job.nodes as usize;
    let mut cfg = job.base_sim_config(spec);
    cfg.seed = nd_core::seed::stream_seed(job.seed(spec), trial);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let plan = if job.churn > 0.0 {
        ChurnPlan::staggered(n, job.churn, cfg.t_end, &mut rng)
    } else {
        ChurnPlan::stable(n)
    };
    let period = sched
        .beacons
        .as_ref()
        .map(|b| b.period())
        .into_iter()
        .chain(sched.windows.as_ref().map(|w| w.period()))
        .max()?;
    let mut sim = NetSimulator::new(cfg, Topology::full(n));
    for i in 0..n {
        let phase = nd_core::Tick(rng.gen_range(0..period.0.max(1)));
        let behavior = ScheduleBehavior::with_phase(sched.clone(), phase);
        sim.add_node(NodeSpec::windowed(
            Box::new(behavior),
            plan.joins[i],
            plan.leaves[i],
        ));
    }
    sim.stop_when_all_discovered(true);
    let (report, ns) = timed("bench.netsim.mesh_run", || sim.run());
    Some((report.events, ns))
}
