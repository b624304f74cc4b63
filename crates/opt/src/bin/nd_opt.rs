//! The `nd-opt` CLI: compute Pareto fronts of discovery schedules from
//! the shell.
//!
//! ```text
//! nd-opt front (--spec <opt.toml> | --protocol NAME [...]) [OPTIONS]
//! nd-opt best --budget <dc> (--spec … | --protocol …) [OPTIONS]
//! nd-opt gap (--spec … | --protocol …) [OPTIONS]
//! ```

use nd_opt::{run_opt, Objective, OptOptions, OptOutcome, OptSpec};
use nd_sweep::spec::{parse_metric, Backend, Metric};
use nd_sweep::{ScenarioSpec, ENGINE_VERSION};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    if let Err(e) = nd_obs::trace::init_from_env() {
        eprintln!("nd-opt: cannot open $ND_TRACE: {e}");
        return ExitCode::FAILURE;
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("front") => cmd_front(&args[1..]),
        Some("best") => cmd_best(&args[1..]),
        Some("gap") => cmd_gap(&args[1..]),
        Some("--version" | "-V" | "version") => {
            println!(
                "nd-opt {} (engine {ENGINE_VERSION})",
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
nd-opt — Pareto-front optimizer for neighbor-discovery schedules

Per protocol, searches the declarative parameter space (duty cycle, slot
length) for the non-dominated trade-offs between duty cycle and
discovery latency, and reports each front point's gap to the paper's
closed-form optimality bound. Evaluations run in parallel and are cached
content-addressed (shared with nd-sweep).

USAGE:
    nd-opt front (--spec <opt.toml|json> | --protocol NAME) [OPTIONS]
                 compute fronts, write <name>.csv/.json, print a summary
    nd-opt best --budget <dc> (--spec … | --protocol …) [OPTIONS]
                 the best configuration within a duty-cycle budget
    nd-opt gap  (--spec … | --protocol …) [OPTIONS]
                 per-protocol distance-to-optimality summary
    nd-opt --version   print version + engine/cache ABI, then exit
    nd-opt --help      print this help, then exit

SEARCH (ad-hoc with --protocol, or overriding a --spec file):
    --protocol NAME    registry name or `optimal` (repeatable)
    --backend B        exact | montecarlo | netsim (default: exact)
    --metric M         one-way | two-way | either-way (default: two-way)
    --objective O      worst | p95 | p99 (default: worst)
    --pair             asymmetric search: both roles' (eta, slot) searched
                       independently, front over the total budget
                       η_E + η_F, gap vs. the Theorem 5.7 bound
                       (two-way metric only)
    --seeds N          seeding-grid values per axis (default: 6)
    --rounds N         refinement rounds (default: 2)
    --max-evals N      per-protocol evaluation budget (default: 256)
    --nodes N          cohort size (netsim backend only)
    --eta-min F        restrict the duty-cycle search range from below
                       (both roles, with --pair)
    --eta-max F        restrict the duty-cycle search range from above
    --adaptive         adaptive trial allocation (montecarlo/netsim
                       backends; a no-op on exact): screen every new
                       candidate at a reduced trial budget and promote
                       only those whose domination the screening results
                       cannot settle — same front, fewer trials
    --screen-trials N  trials per screening evaluation (implies
                       --adaptive; default: max(2, trials/8))

OPTIONS:
    --out-dir DIR      write <name>.csv/.json here (default: ., front only)
    --format FMT       csv | json | both (default: both)
    --threads N        worker threads (default: all cores)
    --no-cache         skip the content-addressed result cache
    --cache-dir DIR    cache location (default: $ND_SWEEP_CACHE or
                       target/nd-sweep-cache)
    --quiet            suppress per-point detail

OBSERVABILITY:
    --stats            append a deterministic JSON metrics snapshot
                       (opt.evals, opt.cache_hits, censor reasons — total,
                       per round and at the screening budget, adaptive
                       screened/promoted/early-stop counts, pool latency,
                       …) to stdout, preceded by a per-round censoring
                       breakdown per protocol
    --trace-out PATH   write a JSONL span trace of the whole search
                       (overrides $ND_TRACE; see the README's
                       Observability section for the line schema)

EXIT STATUS:
    0 on success; non-zero on an invalid spec, an empty front (with a
    censoring-count diagnostic explaining why nothing survived), or
    (best) no front point within the budget.
";

fn fail(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("nd-opt: {msg}");
    ExitCode::FAILURE
}

/// Everything both spec sources and all three subcommands share.
struct Cli {
    spec: OptSpec,
    opts: OptOptions,
    out_dir: PathBuf,
    format: String,
    quiet: bool,
    budget: Option<f64>,
    stats: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut spec_path: Option<PathBuf> = None;
    let mut protocols: Vec<String> = Vec::new();
    let mut backend: Option<Backend> = None;
    let mut metric: Option<Metric> = None;
    let mut objective: Option<Objective> = None;
    let mut seeds: Option<usize> = None;
    let mut rounds: Option<usize> = None;
    let mut max_evals: Option<usize> = None;
    let mut nodes: Option<u32> = None;
    let mut pair = false;
    let mut adaptive = false;
    let mut screen_trials: Option<usize> = None;
    let mut eta_min: Option<f64> = None;
    let mut eta_max: Option<f64> = None;
    let mut opts = OptOptions::default();
    let mut out_dir = PathBuf::from(".");
    let mut format = "both".to_string();
    let mut quiet = false;
    let mut budget = None;
    let mut stats = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{what} needs a value"))
        };
        match arg.as_str() {
            "--spec" => spec_path = Some(PathBuf::from(value("--spec")?)),
            "--protocol" => protocols.push(value("--protocol")?.to_string()),
            "--backend" => backend = Some(Backend::parse(value("--backend")?).map_err(|e| e.0)?),
            "--metric" => metric = Some(parse_metric(value("--metric")?).map_err(|e| e.0)?),
            "--objective" => {
                objective =
                    Some(Objective::parse(value("--objective")?).map_err(|e| e.to_string())?)
            }
            "--seeds" => seeds = Some(parse_pos(value("--seeds")?, "--seeds")?),
            "--rounds" => rounds = Some(parse_pos(value("--rounds")?, "--rounds")?),
            "--max-evals" => max_evals = Some(parse_pos(value("--max-evals")?, "--max-evals")?),
            "--nodes" => nodes = Some(parse_pos(value("--nodes")?, "--nodes")? as u32),
            "--pair" => pair = true,
            "--adaptive" => adaptive = true,
            "--screen-trials" => {
                screen_trials = Some(parse_pos(value("--screen-trials")?, "--screen-trials")?)
            }
            "--eta-min" => eta_min = Some(parse_unit(value("--eta-min")?, "--eta-min")?),
            "--eta-max" => eta_max = Some(parse_unit(value("--eta-max")?, "--eta-max")?),
            "--budget" => {
                budget = Some(
                    value("--budget")?
                        .parse::<f64>()
                        .ok()
                        .filter(|b| *b > 0.0 && *b <= 1.0)
                        .ok_or("--budget needs a duty cycle in (0, 1]")?,
                )
            }
            "--out-dir" => out_dir = PathBuf::from(value("--out-dir")?),
            "--format" => match value("--format")? {
                f @ ("csv" | "json" | "both") => format = f.to_string(),
                _ => return Err("--format needs csv|json|both".into()),
            },
            "--threads" => opts.threads = Some(parse_pos(value("--threads")?, "--threads")?),
            "--no-cache" => opts.use_cache = false,
            "--cache-dir" => opts.cache_dir = Some(PathBuf::from(value("--cache-dir")?)),
            "--quiet" => quiet = true,
            "--stats" => stats = true,
            "--trace-out" => nd_obs::trace::init_file(std::path::Path::new(value("--trace-out")?))
                .map_err(|e| format!("--trace-out: {e}"))?,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }

    let mut spec = match (spec_path, protocols.is_empty()) {
        (Some(path), true) => OptSpec::from_file(&path).map_err(|e| e.to_string())?,
        (None, false) => {
            let base = ScenarioSpec {
                backend: backend.unwrap_or(Backend::Exact),
                metric: metric.unwrap_or(Metric::TwoWay),
                ..ScenarioSpec::from_toml_str("name = \"adhoc\"").expect("minimal spec parses")
            };
            OptSpec::new(base, &protocols, objective.unwrap_or(Objective::Worst))
                .map_err(|e| e.to_string())?
        }
        (Some(_), false) => return Err("--spec and --protocol are mutually exclusive".into()),
        (None, true) => return Err("need --spec <file> or --protocol NAME".into()),
    };
    // every flag overrides its spec-file counterpart, so a spec invocation
    // and an ad-hoc one behave identically
    if let Some(b) = backend {
        spec.base.backend = b;
    }
    if let Some(m) = metric {
        spec.base.metric = m;
    }
    if let Some(o) = objective {
        spec.objective = o;
    }
    if let Some(s) = seeds {
        spec.seeds_per_axis = s;
    }
    if let Some(r) = rounds {
        spec.rounds = r;
    }
    if let Some(m) = max_evals {
        spec.max_evals = m;
    }
    if let Some(n) = nodes {
        spec.nodes = n;
    }
    if pair {
        spec.pair = true;
    }
    if adaptive || screen_trials.is_some() {
        spec.adaptive.enabled = true;
    }
    if screen_trials.is_some() {
        spec.adaptive.screen_trials = screen_trials;
    }
    if eta_min.is_some() || eta_max.is_some() {
        // one-sided restrictions leave the other bound open (the protocol
        // space's own limits clamp it)
        spec.eta_range = Some((eta_min.unwrap_or(f64::MIN_POSITIVE), eta_max.unwrap_or(1.0)));
    }
    spec.validate().map_err(|e| e.to_string())?;

    if stats {
        // the registry must be collecting before the search runs
        nd_obs::metrics::set_enabled(true);
    }

    Ok(Cli {
        spec,
        opts,
        out_dir,
        format,
        quiet,
        budget,
        stats,
    })
}

fn parse_pos(s: &str, what: &str) -> Result<usize, String> {
    s.parse::<usize>()
        .ok()
        .filter(|n| *n > 0)
        .ok_or_else(|| format!("{what} needs a positive integer"))
}

fn parse_unit(s: &str, what: &str) -> Result<f64, String> {
    s.parse::<f64>()
        .ok()
        .filter(|x| *x > 0.0 && *x <= 1.0)
        .ok_or_else(|| format!("{what} needs a duty cycle in (0, 1]"))
}

fn run(cli: &Cli) -> Result<OptOutcome, String> {
    run_opt(&cli.spec, &cli.opts).map_err(|e| e.to_string())
}

/// Print the per-protocol summary lines, and with `--stats` the
/// censoring breakdown and the metrics snapshot.
fn summary(outcome: &OptOutcome, stats: bool) {
    for f in &outcome.fronts {
        println!(
            "  {}: {} front points ({} evaluated, {} executed, {} cached, {} errors), max gap {}",
            f.protocol,
            f.front.len(),
            f.evaluated,
            f.executed,
            f.cache_hits,
            f.errors,
            percent(f.gap_summary().max),
        );
        if f.screened > 0 {
            println!(
                "      adaptive: {} screened, {} promoted, {} early-stopped",
                f.screened, f.promoted, f.early_stops,
            );
        }
    }
    println!(
        "{}: {} protocols, {} executed, {} cached in {:.2?}  [spec {}, backend {}, objective {} → {}]",
        outcome.name,
        outcome.fronts.len(),
        outcome.executed,
        outcome.cache_hits,
        outcome.wall,
        &outcome.spec_hash[..12],
        outcome.backend,
        outcome.objective,
        outcome.latency_metric,
    );
    if stats {
        stats_detail(outcome);
        print!("{}", nd_obs::metrics::snapshot().to_json());
    }
}

/// The `--stats` per-round censoring breakdown: *when* a candidate was
/// censored matters for debugging adaptive runs (screening censors
/// construction errors in round 0 aggressively), not just the totals.
fn stats_detail(outcome: &OptOutcome) {
    for f in &outcome.fronts {
        for (round, reasons) in f.censored_rounds.iter().enumerate() {
            if reasons.is_empty() {
                continue;
            }
            let detail = reasons
                .iter()
                .map(|(reason, count)| format!("{count} {reason}"))
                .collect::<Vec<_>>()
                .join(", ");
            println!("  {}: round {round}: censored {detail}", f.protocol);
        }
    }
}

fn percent(x: f64) -> String {
    if x.is_nan() {
        "n/a".to_string()
    } else {
        format!("{:.2}%", x * 100.0)
    }
}

/// When any protocol's front came back empty, explain *why* — the
/// censoring counts per reason — on stderr and return the failure exit
/// code; an empty table with no diagnosis is useless.
fn check_empty_fronts(outcome: &OptOutcome) -> Option<ExitCode> {
    let empty: Vec<_> = outcome
        .fronts
        .iter()
        .filter(|f| f.front.is_empty())
        .collect();
    if empty.is_empty() {
        return None;
    }
    for f in &empty {
        let reasons = if f.censored.is_empty() {
            "no candidates evaluated (empty feasible seed grid?)".to_string()
        } else {
            f.censored
                .iter()
                .map(|(reason, count)| format!("{count} {reason}"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        eprintln!(
            "nd-opt: {}: empty front — {} candidate(s) evaluated, {} censored ({reasons})",
            f.protocol, f.evaluated, f.errors,
        );
        if f.censored.contains_key("undiscovered-offsets") {
            eprintln!(
                "nd-opt: {}: slotted worst-case fronts are censored by design \
                 (ω/slot of the offsets are never covered) — use a percentile \
                 objective (p95/p99), or eta_min to skip the degenerate corner",
                f.protocol,
            );
        }
    }
    Some(fail(format!(
        "{} of {} protocol(s) produced an empty front",
        empty.len(),
        outcome.fronts.len(),
    )))
}

fn cmd_front(args: &[String]) -> ExitCode {
    let cli = match parse_cli(args) {
        Ok(c) => c,
        Err(e) => return fail(e),
    };
    if cli.budget.is_some() {
        return fail("--budget only applies to `best`");
    }
    let outcome = match run(&cli) {
        Ok(o) => o,
        Err(e) => return fail(e),
    };

    if std::fs::create_dir_all(&cli.out_dir).is_err() {
        return fail(format!("cannot create {}", cli.out_dir.display()));
    }
    let stem = cli.out_dir.join(&outcome.name);
    if cli.format == "csv" || cli.format == "both" {
        let path = stem.with_extension("csv");
        if let Err(e) = std::fs::write(&path, nd_opt::to_csv(&outcome)) {
            return fail(format!("writing {}: {e}", path.display()));
        }
        if !cli.quiet {
            println!("wrote {}", path.display());
        }
    }
    if cli.format == "json" || cli.format == "both" {
        let path = stem.with_extension("json");
        if let Err(e) = std::fs::write(&path, nd_opt::to_json(&outcome)) {
            return fail(format!("writing {}: {e}", path.display()));
        }
        if !cli.quiet {
            println!("wrote {}", path.display());
        }
    }
    summary(&outcome, cli.stats);
    if let Some(code) = check_empty_fronts(&outcome) {
        return code;
    }
    ExitCode::SUCCESS
}

fn cmd_best(args: &[String]) -> ExitCode {
    let cli = match parse_cli(args) {
        Ok(c) => c,
        Err(e) => return fail(e),
    };
    let Some(budget) = cli.budget else {
        return fail("best needs --budget <duty cycle>");
    };
    let outcome = match run(&cli) {
        Ok(o) => o,
        Err(e) => return fail(e),
    };
    let mut found = false;
    for f in &outcome.fronts {
        match f.best_within(budget) {
            Some(p) => {
                found = true;
                let slot = p
                    .slot_us
                    .map(|s| format!(" slot_us={s}"))
                    .unwrap_or_default();
                let role_b = match (p.eta_b, p.slot_us_b) {
                    (None, None) => String::new(),
                    (eta_b, slot_b) => format!(
                        " eta_b={}{}",
                        eta_b.unwrap_or(f64::NAN),
                        slot_b
                            .map(|s| format!(" slot_us_b={s}"))
                            .unwrap_or_default()
                    ),
                };
                println!(
                    "  {}: eta={}{}{} → duty_cycle={:.6} latency_s={} (bound_s={}, gap {})",
                    f.protocol,
                    p.eta,
                    slot,
                    role_b,
                    p.duty_cycle,
                    p.latency_s,
                    p.bound_s,
                    percent(p.gap_frac),
                );
            }
            None => println!("  {}: no front point within budget {budget}", f.protocol),
        }
    }
    summary(&outcome, cli.stats);
    if !found {
        return fail(format!("no configuration fits duty-cycle budget {budget}"));
    }
    ExitCode::SUCCESS
}

fn cmd_gap(args: &[String]) -> ExitCode {
    let cli = match parse_cli(args) {
        Ok(c) => c,
        Err(e) => return fail(e),
    };
    if cli.budget.is_some() {
        return fail("--budget only applies to `best`");
    }
    let outcome = match run(&cli) {
        Ok(o) => o,
        Err(e) => return fail(e),
    };
    for f in &outcome.fronts {
        if f.front.is_empty() {
            continue; // check_empty_fronts prints the diagnostic
        }
        let gap = f.gap_summary();
        println!(
            "  {}: {} points, gap to optimal bound min {} / mean {} / max {}",
            f.protocol,
            f.front.len(),
            percent(gap.min),
            percent(gap.mean),
            percent(gap.max),
        );
        if !cli.quiet {
            for p in &f.front {
                println!(
                    "      dc={:.6} latency_s={} bound_s={} gap={}",
                    p.duty_cycle,
                    p.latency_s,
                    p.bound_s,
                    percent(p.gap_frac)
                );
            }
        }
    }
    summary(&outcome, cli.stats);
    if let Some(code) = check_empty_fronts(&outcome) {
        return code;
    }
    ExitCode::SUCCESS
}
