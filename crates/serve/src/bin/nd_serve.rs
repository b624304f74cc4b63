//! The `nd-serve` CLI: run the always-on discovery-planning daemon.
//!
//! ```text
//! nd-serve serve [--addr 127.0.0.1:7077] [OPTIONS]
//! ```

use nd_opt::OptOptions;
use nd_serve::{http, App, Planner};
use nd_sweep::cache::parse_bytes;
use nd_sweep::{ResultCache, ENGINE_VERSION};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

fn main() -> ExitCode {
    if let Err(e) = nd_obs::trace::init_from_env() {
        eprintln!("nd-serve: cannot open $ND_TRACE: {e}");
        return ExitCode::FAILURE;
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("--version" | "-V" | "version") => {
            println!(
                "nd-serve {} (engine {ENGINE_VERSION}, api {})",
                env!("CARGO_PKG_VERSION"),
                nd_serve::API_VERSION
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
nd-serve — always-on discovery-planning daemon

Serves the nd-opt planning queries (front / best / gap) over HTTP/JSON
behind the versioned nd-serve-api/v1 envelope. Answers come from an
in-memory response memo, then the content-addressed result cache shared
with nd-sweep/nd-opt, then fresh parallel evaluation; identical
concurrent requests coalesce onto one computation.

USAGE:
    nd-serve serve [OPTIONS]   run the daemon (Ctrl-C or POST /v1/shutdown)
    nd-serve --version         print version + engine/API versions, then exit
    nd-serve --help            print this help, then exit

ENDPOINTS:
    POST /v1/front     Pareto front per protocol
    POST /v1/best      best configuration within a duty-cycle budget
    POST /v1/gap       per-protocol gap-to-bound summary
    GET  /healthz      liveness probe: version, engine, uptime, spool
                       depth, background-pass cycle gauges
    GET  /v1/metrics   metrics snapshot (requires --stats); add
                       ?format=prometheus for text exposition with
                       p50/p95/p99 summaries
    POST /v1/shutdown  graceful stop

Every request is answered with an `X-ND-Trace-Id` header: the client's
own id when it sent that header, a generated one otherwise. With tracing
on (--trace-out / $ND_TRACE) every span emitted while handling the
request — including planner-pool evaluation spans on worker threads —
carries that id in its `ctx` field; filter with
`nd-trace critical-path t.jsonl --ctx <id>`.

OPTIONS:
    --addr HOST:PORT   listen address (default: 127.0.0.1:7077; port 0
                       picks a free port, printed on startup)
    --workers N        connection worker threads (default: 4×cores,
                       min 32 — sized for coalescing herds)
    --threads N        evaluation worker threads (default: all cores)
    --no-cache         skip the on-disk result cache (memo still works)
    --cache-dir DIR    cache location (default: $ND_SWEEP_CACHE or
                       target/nd-sweep-cache)
    --memo-capacity N  in-memory response memo entries (default: 1024)
    --quiet            suppress the startup line and the per-request
                       access log (one JSON line per request on stderr)

BACKGROUND PASS (ingest → execute → prune):
    --spool DIR        pick up nd-opt spec files dropped here, pre-warm
                       cache and memo, delete them (bad files and files
                       over 1 MiB are renamed *.rejected)
    --cache-max-bytes N  prune: LRU-evict the result cache to this
                       budget per pass (suffixes K/M/G)
    --stage-interval S seconds between passes (default: 60)

OBSERVABILITY:
    --stats            enable the metrics registry: GET /v1/metrics
                       serves live snapshots, and a final snapshot is
                       printed on shutdown
    --trace-out PATH   write a JSONL span trace (serve.request spans
                       with method/path; overrides $ND_TRACE)
";

fn fail(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("nd-serve: {msg}");
    ExitCode::FAILURE
}

struct Cli {
    addr: String,
    workers: usize,
    opts: OptOptions,
    memo_capacity: usize,
    spool: Option<PathBuf>,
    cache_max_bytes: Option<u64>,
    stage_interval: Duration,
    stats: bool,
    quiet: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        addr: "127.0.0.1:7077".to_string(),
        workers: default_workers(),
        opts: OptOptions {
            strict_cache: true, // a server reports corrupt state, never rewrites it
            ..OptOptions::default()
        },
        memo_capacity: 1024,
        spool: None,
        cache_max_bytes: None,
        stage_interval: Duration::from_secs(60),
        stats: false,
        quiet: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{what} needs a value"))
        };
        match arg.as_str() {
            "--addr" => cli.addr = value("--addr")?.to_string(),
            "--workers" => cli.workers = parse_pos(value("--workers")?, "--workers")?,
            "--threads" => cli.opts.threads = Some(parse_pos(value("--threads")?, "--threads")?),
            "--no-cache" => cli.opts.use_cache = false,
            "--cache-dir" => cli.opts.cache_dir = Some(PathBuf::from(value("--cache-dir")?)),
            "--memo-capacity" => {
                cli.memo_capacity = parse_pos(value("--memo-capacity")?, "--memo-capacity")?
            }
            "--spool" => cli.spool = Some(PathBuf::from(value("--spool")?)),
            "--cache-max-bytes" => {
                let v = value("--cache-max-bytes")?;
                let n = parse_bytes(v).ok_or_else(|| {
                    format!("--cache-max-bytes: bad byte count `{v}` (use N, NK, NM or NG)")
                })?;
                cli.cache_max_bytes = Some(n);
            }
            "--stage-interval" => {
                cli.stage_interval = Duration::from_secs(parse_pos(
                    value("--stage-interval")?,
                    "--stage-interval",
                )? as u64)
            }
            "--stats" => cli.stats = true,
            "--quiet" => cli.quiet = true,
            "--trace-out" => nd_obs::trace::init_file(std::path::Path::new(value("--trace-out")?))
                .map_err(|e| format!("--trace-out: {e}"))?,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cli)
}

fn default_workers() -> usize {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    (cores * 4).max(32)
}

fn parse_pos(s: &str, what: &str) -> Result<usize, String> {
    s.parse::<usize>()
        .ok()
        .filter(|n| *n > 0)
        .ok_or_else(|| format!("{what} needs a positive integer"))
}

fn cmd_serve(args: &[String]) -> ExitCode {
    let cli = match parse_cli(args) {
        Ok(c) => c,
        Err(e) => return fail(e),
    };
    if cli.stats {
        nd_obs::metrics::set_enabled(true);
    }

    let planner = Arc::new(Planner::new(cli.opts.clone(), cli.memo_capacity));
    let server = match http::Server::bind(&cli.addr) {
        Ok(s) => s,
        Err(e) => return fail(format!("cannot bind {}: {e}", cli.addr)),
    };
    let addr = server.addr();
    let shutdown = Arc::new(AtomicBool::new(false));

    let cache_dir = cli.opts.cache_dir.clone();
    let cache = ResultCache::at(cache_dir.unwrap_or_else(ResultCache::default_dir));
    let prune = cli
        .cache_max_bytes
        .filter(|_| cli.opts.use_cache)
        .map(|n| (cache, n));
    let health = nd_serve::Health::new(cli.spool.clone());
    let background = (cli.spool.is_some() || prune.is_some()).then(|| {
        nd_serve::stages::spawn(
            Arc::clone(&planner),
            cli.spool.clone(),
            prune,
            Arc::clone(&health),
            cli.stage_interval,
            Arc::clone(&shutdown),
        )
    });

    if !cli.quiet {
        println!(
            "nd-serve: listening on http://{addr} ({})",
            nd_serve::API_VERSION
        );
    }

    let app = App::new(Arc::clone(&planner), Arc::clone(&shutdown), addr)
        .with_health(health)
        .with_access_log(!cli.quiet);
    server.run(
        cli.workers,
        Arc::clone(&shutdown),
        Arc::new(move |req: &http::Request| app.route(req)),
    );

    if let Some(handle) = background {
        let _ = handle.join();
    }
    if cli.stats {
        print!("{}", nd_obs::metrics::snapshot().to_json());
    }
    if !cli.quiet {
        println!("nd-serve: stopped");
    }
    ExitCode::SUCCESS
}
