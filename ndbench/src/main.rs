//! `ndbench` — the repository's seeded benchmark.
//!
//! ```text
//! bash ndbench/run.sh --workload <serve-hot|plan-cold|sim-sweep|cohort-1m> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run from the repository root. `run.sh` builds the release `nd-serve`,
//! `nd-sweep` and `nd-trace` binaries and this package, then runs one
//! workload: it generates the workload's inputs from the seed, measures for
//! about `--seconds`, checks every answer, and prints the metrics by name
//! with their units. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`, holding the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics of the traced run
//! (`--trace 1`). A failed check makes the command exit non-zero.
//!
//! Generated inputs, the host record and (traced) the span trace land in
//! `.bench_out/<workload>-seed<N>[-trace]/`.

mod cohort;
mod gen;
mod host;
mod layers;
mod plan;
mod serve;
mod stats;
mod sweep;

use layers::{Layers, END_TO_END};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["serve-hot", "plan-cold", "sim-sweep", "cohort-1m"];
/// The default seed: the README cohort's, whose digest is pinned.
pub const DEFAULT_SEED: u64 = 42;

/// Where a run reads and writes.
pub struct Ctx {
    pub out: PathBuf,
    bin: PathBuf,
    pub seed: u64,
    pub seconds: f64,
}

impl Ctx {
    /// A release binary built next to this one (`nd-serve`, `nd-sweep`,
    /// `nd-trace`).
    pub fn bin(&self, name: &str) -> PathBuf {
        self.bin.join(name)
    }
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub notes: Vec<String>,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub throughput_per_s: f64,
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub layers: Layers,
}

impl Outcome {
    /// Count `attempted` operations of which `failed` failed a check.
    pub fn record(&mut self, attempted: u64, failed: u64, problems: Vec<String>) {
        self.attempted += attempted;
        self.failed += failed;
        self.problems.extend(problems);
    }

    /// Count `attempted` operations, one failure per problem.
    pub fn attempt(&mut self, attempted: u64, problems: Vec<String>) {
        let failed = problems.len() as u64;
        self.record(attempted, failed, problems);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    fn end_to_end(&self) -> Vec<(&'static str, &'static str, f64)> {
        END_TO_END
            .iter()
            .map(|&(name, unit, _)| {
                let v = match name {
                    "p50_ms" => self.p50_ms,
                    "p99_ms" => self.p99_ms,
                    "throughput_per_s" => self.throughput_per_s,
                    "setup_s" => self.setup_s,
                    "peak_rss_mb" => self.peak_rss_mb,
                    other => unreachable!("unhandled end-to-end metric {other}"),
                };
                (name, unit, v)
            })
            .collect()
    }
}

/// `nd-trace critical-path --min-attributed 0.95` on a traced run's spans;
/// a failed gate is a failed check.
pub fn critical_path_gate(ctx: &Ctx, trace: &Path, out: &mut Outcome) {
    let result = std::process::Command::new(ctx.bin("nd-trace"))
        .arg("critical-path")
        .arg(trace)
        .args(["--min-attributed", "0.95"])
        .output();
    let problems = match result {
        Ok(o) if o.status.success() => {
            let text = String::from_utf8_lossy(&o.stdout);
            if let Some(line) = text.lines().find(|l| l.contains("attributed")) {
                out.note(format!("  nd-trace critical-path: {}", line.trim()));
            }
            Vec::new()
        }
        Ok(o) => vec![format!(
            "nd-trace critical-path --min-attributed 0.95 failed: {}",
            String::from_utf8_lossy(&o.stderr).trim()
        )],
        Err(e) => vec![format!("cannot run nd-trace: {e}")],
    };
    out.attempt(1, problems);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                args.seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or("--seconds needs a positive number")?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload needs one of {}", WORKLOADS.join(", ")));
    }
    Ok(args)
}

fn json_metrics(metrics: &[(&str, &str, f64)]) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!("{{{}}}", items.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ndbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = std::env::current_dir().expect("current directory");
    if !root.join("crates").is_dir() {
        eprintln!("ndbench: run from the repository root (no crates/ here)");
        return ExitCode::from(2);
    }
    let bin = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(Path::to_path_buf))
        .expect("executable directory");
    let suffix = if args.trace { "-trace" } else { "" };
    let out = root
        .join(".bench_out")
        .join(format!("{}-seed{}{suffix}", args.workload, args.seed));
    let _ = std::fs::remove_dir_all(&out);
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("ndbench: cannot create {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        out,
        bin,
        seed: args.seed,
        seconds: args.seconds,
    };

    let cpu_before = host::CpuTimes::now();
    let result = match (args.workload.as_str(), args.trace) {
        ("serve-hot", false) => serve::serve_hot(&ctx),
        ("serve-hot", true) => serve::serve_hot_traced(&ctx),
        ("plan-cold", false) => plan::plan_cold(&ctx),
        ("plan-cold", true) => plan::plan_cold_traced(&ctx),
        ("sim-sweep", false) => sweep::sim_sweep(&ctx),
        ("sim-sweep", true) => sweep::sim_sweep_traced(&ctx),
        ("cohort-1m", false) => cohort::cohort(&ctx),
        ("cohort-1m", true) => cohort::cohort_traced(&ctx),
        _ => unreachable!("workload validated"),
    };
    let steal = cpu_before.steal_frac(&host::CpuTimes::now());
    // the result caches a run filled are not needed to replay it (the
    // generated inputs are) and would pile up over many seeds
    for dir in ["cache", "cache-untraced", "store-probe"] {
        let _ = std::fs::remove_dir_all(ctx.out.join(dir));
    }
    let record = host::record(&root, &args.workload, args.seed, args.trace, steal);
    let _ = std::fs::write(ctx.out.join("host.json"), format!("{record}\n"));

    let out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("ndbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "ndbench {} seed={} trace={}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    println!("host: {record}");
    for line in &out.notes {
        println!("{line}");
    }
    for p in &out.problems {
        println!("CHECK FAILED: {p}");
    }
    let metrics = if args.trace {
        out.layers.metrics()
    } else {
        out.end_to_end()
    };
    for (name, unit, v) in &metrics {
        println!("  {name} = {v} {unit}");
    }
    let error_frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "  error_frac = {error_frac} ({} of {} operations failed a check)",
        out.failed, out.attempted
    );
    let correct = out.failed == 0 && out.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted.max(1),
        out.failed,
        json_metrics(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
