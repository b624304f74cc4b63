//! The `nd-sweep` CLI: run declarative scenario sweeps from the shell.
//!
//! ```text
//! nd-sweep run <spec.toml> [--out-dir DIR] [--format csv|json|both]
//!              [--threads N] [--no-cache] [--cache-dir DIR] [--quiet]
//!              [--stats] [--trace-out FILE]
//! nd-sweep expand <spec.toml>      # list the jobs a spec would run
//! nd-sweep hash <spec.toml>        # print the spec's content hash
//! nd-sweep protocols               # list registry protocol names
//! ```

use nd_sweep::cache::parse_bytes;
use nd_sweep::{expand, run_sweep, ResultCache, ScenarioSpec, SweepOptions, ENGINE_VERSION};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    if let Err(e) = nd_obs::trace::init_from_env() {
        eprintln!("nd-sweep: cannot open $ND_TRACE: {e}");
        return ExitCode::FAILURE;
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("expand") => cmd_expand(&args[1..]),
        Some("hash") => cmd_hash(&args[1..]),
        Some("protocols") => cmd_protocols(),
        Some("cache") => cmd_cache(&args[1..]),
        Some("--version" | "-V" | "version") => {
            // one stable provenance line so scripted runs can record which
            // binary (and which cache ABI) produced their data
            println!(
                "nd-sweep {} (engine {ENGINE_VERSION})",
                env!("CARGO_PKG_VERSION")
            );
            ExitCode::SUCCESS
        }
        Some("--help" | "-h" | "help") | None => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown command `{other}`\n{USAGE}");
            ExitCode::FAILURE
        }
    };
    nd_obs::trace::shutdown(); // flush any --trace-out / ND_TRACE sink
    code
}

const USAGE: &str = "\
nd-sweep — parallel scenario sweeps over neighbor-discovery protocols

A sweep is described by a declarative TOML/JSON scenario spec: a protocol
axis (registry names or `diff-code:<v>:<m1>,<m2>,…`), parameter grids
(`eta`, `slot_us`, `drift_ppm`, `drop_probability`, `turnaround_us`,
`phase_us`, `ratio`, `nodes`, `churn`, `collision`) and an evaluation
backend. Heterogeneous device pairs add role-B axes (`protocol_b`,
`eta_b`, `slot_us_b`; device 1 runs role B) and netsim cohorts a `mix`
axis (fraction of nodes running role B). Results are cached
content-addressed: re-runs and overlapping grids are near-free.

Backends:
    exact        coverage-map analysis — exact worst case, mean,
                 percentiles, undiscovered probability
    montecarlo   pairwise simulation — collisions, drift, faults, energy
    netsim       N-node cohorts — contention, join/leave churn, per-node
                 drift (grid axes `nodes`, `churn`, `collision`)
    bounds       closed-form fundamental bounds (no schedules built)

USAGE:
    nd-sweep run <spec.toml|spec.json> [OPTIONS]
    nd-sweep expand <spec>      list the jobs the spec expands to
    nd-sweep hash <spec>        print the spec's content hash
    nd-sweep protocols          list protocol registry names
    nd-sweep cache stats [--json]
                                entry count + total size of the result cache
                                (--json: machine-readable, via the metrics
                                registry)
    nd-sweep cache gc --max-bytes N [--dry-run]
                                LRU-evict down to N bytes (suffixes K/M/G;
                                recency = last cache hit; --dry-run only
                                prints the reclaimable bytes)
    nd-sweep --version          print version + engine/cache ABI, then exit
    nd-sweep --help             print this help, then exit

OPTIONS (run):
    --stats            run with metrics collection on and print a
                       deterministic JSON snapshot of the registry (cache
                       hit/miss, per-backend work, pool latency) to
                       stdout; the run summary moves to stderr, and
                       exports are written only with an explicit --format
                       (the flag is spelled the same across nd-sweep,
                       nd-opt and nd-serve)
    --out-dir DIR      write <name>.csv/.json here (default: .)
    --format FMT       csv | json | both (default: both; --stats: none)
    --threads N        worker threads (default: all cores)
    --no-cache         skip the content-addressed result cache
    --cache-dir DIR    cache location (default: $ND_SWEEP_CACHE or
                       target/nd-sweep-cache)
    --quiet            suppress the progress summary
    --trace-out FILE   write a JSONL span trace of the run (overrides
                       $ND_TRACE; see the README's Observability section
                       for the line schema)

EXIT STATUS:
    0 on success; non-zero if the spec is invalid or *any* job errored
    (cached error rows included), so pipelines cannot silently ship a
    sweep with error rows in it. The one-line summary (jobs, cached,
    executed, failed, elapsed) is printed on failure paths too.
";

fn fail(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("nd-sweep: {msg}");
    ExitCode::FAILURE
}

fn load_spec(path: Option<&String>) -> Result<ScenarioSpec, String> {
    let path = path.ok_or("missing <spec> argument")?;
    ScenarioSpec::from_file(std::path::Path::new(path)).map_err(|e| e.to_string())
}

/// The positional (spec-path) argument of a flagless subcommand.
fn positional(args: &[String]) -> Option<&String> {
    args.iter().find(|a| !a.starts_with("--"))
}

/// `run` and `run --stats` share everything but metrics collection and
/// where the summary goes: `--stats` (spelled the same across nd-sweep,
/// nd-opt and nd-serve) turns the registry on, keeps stdout clean for the
/// JSON snapshot (summary → stderr), and exports nothing unless a
/// `--format` is given explicitly.
fn cmd_run(args: &[String]) -> ExitCode {
    // single pass: flags consume their values, the remaining positional is
    // the spec path (so `run --threads 4 spec.toml` parses correctly)
    let mut report = false;
    let mut opts = SweepOptions::default();
    let mut out_dir = PathBuf::from(".");
    let mut format: Option<String> = None;
    let mut quiet = false;
    let mut spec_path: Option<&String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--no-cache" => opts.use_cache = false,
            "--stats" => report = true,
            "--quiet" => quiet = true,
            "--threads" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => opts.threads = Some(n),
                _ => return fail("--threads needs a positive integer"),
            },
            "--out-dir" => match it.next() {
                Some(d) => out_dir = PathBuf::from(d),
                None => return fail("--out-dir needs a value"),
            },
            "--cache-dir" => match it.next() {
                Some(d) => opts.cache_dir = Some(PathBuf::from(d)),
                None => return fail("--cache-dir needs a value"),
            },
            "--format" => match it.next().map(String::as_str) {
                Some(f @ ("csv" | "json" | "both" | "none")) => format = Some(f.to_string()),
                _ => return fail("--format needs csv|json|both|none"),
            },
            "--trace-out" => match it.next() {
                Some(p) => {
                    if let Err(e) = nd_obs::trace::init_file(std::path::Path::new(p)) {
                        return fail(format!("--trace-out: {e}"));
                    }
                }
                None => return fail("--trace-out needs a value"),
            },
            other if other.starts_with("--") => return fail(format!("unknown flag `{other}`")),
            _ if spec_path.is_none() => spec_path = Some(arg),
            other => return fail(format!("unexpected argument `{other}`")),
        }
    }
    let format = format.unwrap_or_else(|| if report { "none" } else { "both" }.to_string());
    let spec = match load_spec(spec_path) {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    if report {
        nd_obs::metrics::set_enabled(true);
        nd_obs::metrics::reset();
    }

    let start = std::time::Instant::now();
    let outcome = match run_sweep(&spec, &opts) {
        Ok(o) => o,
        Err(e) => {
            // the summary line appears on every post-spec path, so
            // pipelines always see what (if anything) ran and for how long
            summary_line(report, quiet, &spec.name, 0, 0, 0, 0, start.elapsed(), None);
            return fail(e);
        }
    };
    let failures = outcome.rows.iter().filter(|r| r.error.is_some()).count();
    // print the summary *before* attempting exports: an export failure
    // must not eat the run accounting
    summary_line(
        report,
        quiet,
        &outcome.name,
        outcome.rows.len(),
        outcome.cache_hits,
        outcome.executed,
        failures,
        outcome.wall,
        Some(&outcome.spec_hash),
    );

    let mut export_failure: Option<String> = None;
    if format != "none" {
        if std::fs::create_dir_all(&out_dir).is_err() {
            export_failure = Some(format!("cannot create {}", out_dir.display()));
        } else {
            let stem = out_dir.join(&outcome.name);
            type Render = fn(&nd_sweep::SweepOutcome) -> String;
            let writes: &[(&str, Render)] = &[
                ("csv", |o| nd_sweep::to_csv(o)),
                ("json", |o| nd_sweep::to_json(o)),
            ];
            for (ext, render) in writes {
                if format == *ext || format == "both" {
                    let path = stem.with_extension(ext);
                    match std::fs::write(&path, render(&outcome)) {
                        Ok(()) => {
                            if !quiet {
                                println!("wrote {}", path.display());
                            }
                        }
                        Err(e) => {
                            export_failure = Some(format!("writing {}: {e}", path.display()));
                            break;
                        }
                    }
                }
            }
        }
    }
    if report {
        // the machine-readable payload: stdout carries only this JSON
        print!("{}", nd_obs::metrics::snapshot().to_json());
    }
    if let Some(e) = export_failure {
        return fail(e);
    }
    if failures > 0 {
        // any failed job — executed now or replayed from the cache — makes
        // the run non-zero, so CI pipelines can't silently ship a sweep
        // with error rows in it
        return fail(format!(
            "{failures} of {} job(s) failed (see the error column)",
            outcome.rows.len()
        ));
    }
    ExitCode::SUCCESS
}

/// The final one-line run summary. In `report` mode it goes to stderr
/// (stdout is reserved for the metrics snapshot); `--quiet` suppresses
/// it entirely.
#[allow(clippy::too_many_arguments)]
fn summary_line(
    report: bool,
    quiet: bool,
    name: &str,
    jobs: usize,
    cached: usize,
    executed: usize,
    failed: usize,
    wall: std::time::Duration,
    spec_hash: Option<&str>,
) {
    if quiet {
        return;
    }
    // On fast runs the pool's last progress repaint can race this write;
    // erase any residue so the summary starts at column zero.
    nd_obs::progress::clear_line();
    let provenance = match spec_hash {
        Some(h) => format!("[spec {}]", &h[..12]),
        None => "[sweep failed]".to_string(),
    };
    let line = format!(
        "{name}: {jobs} jobs ({cached} cached, {executed} executed, {failed} failed) in {wall:.2?}  {provenance}",
    );
    if report {
        eprintln!("{line}");
    } else {
        println!("{line}");
    }
}

fn cmd_expand(args: &[String]) -> ExitCode {
    let spec = match load_spec(positional(args)) {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    let jobs = expand(&spec);
    println!(
        "{}: backend={} metric={} → {} job(s)",
        spec.name,
        spec.backend.name(),
        spec.metric.name(),
        jobs.len()
    );
    for job in &jobs {
        let params: Vec<String> = job
            .params()
            .iter()
            .map(|(k, v)| format!("{k}={}", v.to_json()))
            .collect();
        println!(
            "  [{:>4}] {}  {}",
            job.index,
            &job.content_hash(&spec)[..12],
            params.join(" ")
        );
    }
    ExitCode::SUCCESS
}

fn cmd_hash(args: &[String]) -> ExitCode {
    match load_spec(positional(args)) {
        Ok(s) => {
            println!("{}", s.content_hash());
            ExitCode::SUCCESS
        }
        Err(e) => fail(e),
    }
}

/// `cache stats` / `cache gc`: size accounting and LRU eviction for the
/// content-addressed result cache.
fn cmd_cache(args: &[String]) -> ExitCode {
    let mut max_bytes: Option<u64> = None;
    let mut dry_run = false;
    let mut json = false;
    let mut cache_dir: Option<PathBuf> = None;
    let mut sub: Option<&str> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "stats" | "gc" if sub.is_none() => sub = Some(arg),
            "--dry-run" => dry_run = true,
            "--json" => json = true,
            "--max-bytes" => match it.next().and_then(|v| parse_bytes(v)) {
                Some(n) => max_bytes = Some(n),
                None => return fail("--max-bytes needs a byte count (suffixes K/M/G allowed)"),
            },
            "--cache-dir" => match it.next() {
                Some(d) => cache_dir = Some(PathBuf::from(d)),
                None => return fail("--cache-dir needs a value"),
            },
            other => return fail(format!("unknown cache argument `{other}`")),
        }
    }
    let cache = ResultCache::at(cache_dir.unwrap_or_else(ResultCache::default_dir));
    match sub {
        Some("stats") => {
            if max_bytes.is_some() || dry_run {
                return fail("--max-bytes/--dry-run only apply to `cache gc`");
            }
            let stats = cache.stats();
            if json {
                // route through the metrics registry so the snapshot shape
                // matches `nd-sweep run --stats` / `nd-opt --stats` output
                nd_obs::metrics::set_enabled(true);
                nd_obs::metrics::reset();
                nd_obs::metrics::gauge_set("cache.entries", stats.entries as f64);
                nd_obs::metrics::gauge_set("cache.bytes", stats.bytes as f64);
                let mut snap = nd_obs::metrics::snapshot();
                snap.retain(|name| name.starts_with("cache."));
                print!("{}", snap.to_json());
            } else {
                println!(
                    "{}: {} entries, {} bytes",
                    cache.dir().display(),
                    stats.entries,
                    stats.bytes
                );
            }
            ExitCode::SUCCESS
        }
        Some("gc") => {
            if json {
                return fail("--json only applies to `cache stats`");
            }
            let Some(max) = max_bytes else {
                return fail("cache gc needs --max-bytes N");
            };
            let report = cache.gc(max, dry_run);
            if dry_run {
                println!(
                    "{}: {} entries, {} bytes; {} entries / {} bytes reclaimable (dry run, nothing deleted)",
                    cache.dir().display(),
                    report.entries,
                    report.bytes,
                    report.evicted_entries,
                    report.evicted_bytes,
                );
            } else {
                println!(
                    "{}: evicted {} of {} entries ({} of {} bytes), {} bytes kept",
                    cache.dir().display(),
                    report.evicted_entries,
                    report.entries,
                    report.evicted_bytes,
                    report.bytes,
                    report.bytes - report.evicted_bytes,
                );
            }
            ExitCode::SUCCESS
        }
        _ => fail("cache needs a subcommand: stats | gc"),
    }
}

fn cmd_protocols() -> ExitCode {
    println!("protocol registry (grid.protocol values):");
    for kind in nd_protocols::ProtocolKind::all() {
        println!("  {}", kind.name());
    }
    println!("  diff-code:<v>:<m1>,<m2>,…   (explicit difference set)");
    ExitCode::SUCCESS
}
