//! The `nd-trace` CLI: analyse nd-obs span JSONL traces.
//!
//! ```text
//! nd-trace check <t.jsonl> [--expect-cover FRAC]
//! nd-trace critical-path <t.jsonl> [--min-attributed FRAC] [--ctx ID]
//! nd-trace flame <t.jsonl> [--ctx ID] [--out FILE]
//! nd-trace chrome <t.jsonl> [--ctx ID] [--out FILE]
//! nd-trace diff <a.jsonl> <b.jsonl> [--fail-on-regress PCT] [--min-share FRAC]
//! ```

use nd_trace::{
    aggregate_by_name, build_forest, check, chrome_trace, critical_path, diff, filter_ctx, fmt_ns,
    folded_stacks, job_cover, parse_trace, SpanRec, TraceError,
};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "\
nd-trace — analytics over nd-obs span traces (JSONL)

Produce a trace with `ND_TRACE=t.jsonl <cmd>` or the CLIs' `--trace-out`,
then ask where the time went.

USAGE:
    nd-trace check <t.jsonl> [--expect-cover FRAC]
        Validate a trace: every line is a span record, and every span's
        depth is the level it nests at on its thread.
        --expect-cover FRAC     exit non-zero unless Σ dur(sweep.job) is
                                within [FRAC, 2−FRAC] of Σ dur(sweep.run)

    nd-trace critical-path <t.jsonl> [OPTIONS]
        Attribute the trace's wall-clock: dominant span chain plus a
        per-name self-time ranking.
        --min-attributed FRAC   exit non-zero when top-level spans cover
                                less than FRAC (0..1) of the wall-clock
        --ctx ID                only spans stamped with trace context ID

    nd-trace flame <t.jsonl> [--ctx ID] [--out FILE]
        Folded stacks (`a;b;c self_ns`), one line per distinct stack —
        pipe into flamegraph.pl / inferno-flamegraph.

    nd-trace chrome <t.jsonl> [--ctx ID] [--out FILE]
        Chrome trace-event JSON for chrome://tracing or Perfetto.

    nd-trace diff <a.jsonl> <b.jsonl> [OPTIONS]
        Per-span-name count/total/self deltas between two runs.
        --fail-on-regress PCT   exit non-zero when a significant name's
                                total (or the wall-clock) grew > PCT %
        --min-share FRAC        significance floor: gate only names whose
                                total is ≥ FRAC of either wall-clock
                                (default 0.01)

EXIT STATUS:
    0  analysis done, gates (if any) passed
    1  a gate tripped (--expect-cover / --min-attributed / --fail-on-regress)
    2  usage or I/O error, or a malformed trace (any `check` failure)
";

/// `say!` that ignores I/O errors: piping analytics into `head`
/// closes stdout early, which must truncate output, not panic.
macro_rules! say {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        let _ = writeln!(std::io::stdout(), $($arg)*);
    }};
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => cmd_check(&args[1..]),
        Some("critical-path") => cmd_critical_path(&args[1..]),
        Some("flame") => cmd_flame(&args[1..]),
        Some("chrome") => cmd_chrome(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("--version" | "-V" | "version") => {
            say!("nd-trace {}", env!("CARGO_PKG_VERSION"));
            ExitCode::SUCCESS
        }
        Some("--help" | "-h" | "help") | None => {
            use std::io::Write as _;
            let _ = write!(std::io::stdout(), "{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown command `{other}`\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn fail(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("nd-trace: {msg}");
    ExitCode::from(2)
}

/// Read and parse a trace file, applying the `--ctx` filter if set.
fn load(path: &str, ctx: Option<&str>) -> Result<Vec<SpanRec>, TraceError> {
    let text =
        std::fs::read_to_string(Path::new(path)).map_err(|e| TraceError(format!("{path}: {e}")))?;
    let spans = parse_trace(&text).map_err(|e| TraceError(format!("{path}: {e}")))?;
    Ok(match ctx {
        Some(id) => filter_ctx(spans, id),
        None => spans,
    })
}

/// Write `text` to `--out FILE`, or stdout when unset.
fn emit(out: Option<&str>, text: &str) -> Result<(), TraceError> {
    match out {
        Some(path) => std::fs::write(path, text).map_err(|e| TraceError(format!("{path}: {e}"))),
        None => {
            use std::io::Write as _;
            let _ = std::io::stdout().write_all(text.as_bytes());
            Ok(())
        }
    }
}

/// Pull `--flag value` out of `args`, leaving positionals in place.
fn take_opt(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, TraceError> {
    match args.iter().position(|a| a == flag) {
        Some(i) => {
            if i + 1 >= args.len() {
                return Err(TraceError(format!("{flag} needs a value")));
            }
            args.remove(i);
            Ok(Some(args.remove(i)))
        }
        None => Ok(None),
    }
}

/// Pull `--flag value` out of `args` as a gate threshold: a finite
/// number in `[0, max]`. Every comparison with NaN is false, so an
/// unchecked `nan` would turn its gate off.
fn take_threshold(args: &mut Vec<String>, flag: &str, max: f64) -> Result<Option<f64>, TraceError> {
    let parse = |s: String| match s.parse::<f64>() {
        Ok(x) if x.is_finite() && (0.0..=max).contains(&x) => Ok(x),
        _ => Err(TraceError(format!(
            "{flag}: expected a finite number in [0, {max}], got `{s}`"
        ))),
    };
    take_opt(args, flag)?.map(parse).transpose()
}

fn cmd_check(args: &[String]) -> ExitCode {
    let mut args = args.to_vec();
    let expect_cover = match take_threshold(&mut args, "--expect-cover", 1.0) {
        Ok(v) => v,
        Err(e) => return fail(e),
    };
    let [path] = args.as_slice() else {
        return fail("check needs exactly one trace file (see --help)");
    };
    let forest = match load(path, None).and_then(check) {
        Ok(f) => f,
        Err(e) => return fail(e),
    };
    let by_name = aggregate_by_name(&forest);
    let cover = job_cover(&by_name);
    let cover_text = cover.map_or("no sweep.run time".into(), |c| {
        format!("job cover {:.1}%", c * 100.0)
    });
    say!(
        "{path}: {} spans, {} names; {cover_text}",
        forest.nodes.len(),
        by_name.len()
    );
    if let Some(frac) = expect_cover {
        // a symmetric window: 0.9 accepts a cover within 10% of the run
        let window = format!("[{frac}, {:.4}]", 2.0 - frac);
        if !cover.is_some_and(|c| (frac..=2.0 - frac).contains(&c)) {
            eprintln!("nd-trace: job cover gate FAILED: {cover_text}, outside {window}");
            return ExitCode::FAILURE;
        }
        say!("job cover gate passed: within {window}");
    }
    ExitCode::SUCCESS
}

fn cmd_critical_path(args: &[String]) -> ExitCode {
    let mut args = args.to_vec();
    let (min_attr, ctx) = match (|| {
        let m = take_threshold(&mut args, "--min-attributed", 1.0)?;
        let c = take_opt(&mut args, "--ctx")?;
        Ok::<_, TraceError>((m, c))
    })() {
        Ok(v) => v,
        Err(e) => return fail(e),
    };
    let [path] = args.as_slice() else {
        return fail("critical-path needs exactly one trace file (see --help)");
    };
    let spans = match load(path, ctx.as_deref()) {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    if spans.is_empty() {
        return fail(format!(
            "{path}: no spans (is this an ND_TRACE JSONL file?)"
        ));
    }
    let n_spans = spans.len();
    let n_tids = {
        let mut tids: Vec<u64> = spans.iter().map(|s| s.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        tids.len()
    };
    let forest = build_forest(spans);
    let cp = critical_path(&forest);

    say!("trace: {n_spans} spans on {n_tids} thread(s)");
    say!(
        "wall-clock {}  attributed {} ({:.1}%)",
        fmt_ns(cp.wall_ns),
        fmt_ns(cp.attributed_ns),
        cp.attributed_frac * 100.0
    );
    say!("\ncritical path:");
    for step in &cp.steps {
        say!(
            "  {:indent$}{:<24} {:>12}  self {}",
            "",
            step.name,
            fmt_ns(step.dur_ns),
            fmt_ns(step.self_ns),
            indent = step.level * 2
        );
    }
    say!("\ntop self-time by name:");
    for (name, stats) in cp.self_by_name.iter().take(15) {
        say!(
            "  {:<28} {:>12}  {:>5.1}%  ({} span{})",
            name,
            fmt_ns(stats.self_ns),
            stats.self_ns as f64 / cp.wall_ns.max(1) as f64 * 100.0,
            stats.count,
            if stats.count == 1 { "" } else { "s" }
        );
    }
    if let Some(min) = min_attr {
        if cp.attributed_frac < min {
            eprintln!(
                "nd-trace: attribution gate FAILED: {:.1}% < {:.1}%",
                cp.attributed_frac * 100.0,
                min * 100.0
            );
            return ExitCode::FAILURE;
        }
        say!(
            "\nattribution gate passed: {:.1}% ≥ {:.1}%",
            cp.attributed_frac * 100.0,
            min * 100.0
        );
    }
    ExitCode::SUCCESS
}

fn cmd_flame(args: &[String]) -> ExitCode {
    let mut args = args.to_vec();
    let (ctx, out) = match (|| {
        Ok::<_, TraceError>((take_opt(&mut args, "--ctx")?, take_opt(&mut args, "--out")?))
    })() {
        Ok(v) => v,
        Err(e) => return fail(e),
    };
    let [path] = args.as_slice() else {
        return fail("flame needs exactly one trace file (see --help)");
    };
    match load(path, ctx.as_deref())
        .map(build_forest)
        .map(|f| folded_stacks(&f))
        .and_then(|text| emit(out.as_deref(), &text))
    {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(e),
    }
}

fn cmd_chrome(args: &[String]) -> ExitCode {
    let mut args = args.to_vec();
    let (ctx, out) = match (|| {
        Ok::<_, TraceError>((take_opt(&mut args, "--ctx")?, take_opt(&mut args, "--out")?))
    })() {
        Ok(v) => v,
        Err(e) => return fail(e),
    };
    let [path] = args.as_slice() else {
        return fail("chrome needs exactly one trace file (see --help)");
    };
    match load(path, ctx.as_deref())
        .map(|spans| chrome_trace(&spans))
        .and_then(|mut text| {
            text.push('\n');
            emit(out.as_deref(), &text)
        }) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(e),
    }
}

fn cmd_diff(args: &[String]) -> ExitCode {
    let mut args = args.to_vec();
    let (fail_pct, min_share) = match (|| {
        let f = take_threshold(&mut args, "--fail-on-regress", f64::INFINITY)?;
        let m = take_threshold(&mut args, "--min-share", 1.0)?;
        Ok::<_, TraceError>((f, m))
    })() {
        Ok(v) => v,
        Err(e) => return fail(e),
    };
    let [path_a, path_b] = args.as_slice() else {
        return fail("diff needs exactly two trace files (see --help)");
    };
    let (spans_a, spans_b) = match (load(path_a, None), load(path_b, None)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => return fail(e),
    };
    let (fa, fb) = (build_forest(spans_a), build_forest(spans_b));
    // With no explicit gate, still compute rows against a huge threshold
    // so the report marks nothing regressed.
    let gate_pct = fail_pct.unwrap_or(f64::INFINITY);
    let report = diff(&fa, &fb, gate_pct, min_share.unwrap_or(0.01));

    let wall_pct = if report.wall_a_ns == 0 {
        0.0
    } else {
        (report.wall_b_ns as f64 - report.wall_a_ns as f64) / report.wall_a_ns as f64 * 100.0
    };
    say!(
        "wall-clock: {} → {} ({:+.1}%){}",
        fmt_ns(report.wall_a_ns),
        fmt_ns(report.wall_b_ns),
        wall_pct,
        if report.wall_regressed {
            "  REGRESSED"
        } else {
            ""
        }
    );
    say!(
        "\n{:<28} {:>7} {:>12} {:>12} {:>9}",
        "name",
        "count",
        "total A",
        "total B",
        "Δtotal"
    );
    for row in &report.rows {
        say!(
            "{:<28} {:>3}→{:<3} {:>12} {:>12} {:>+8.1}%{}",
            row.name,
            row.a.count,
            row.b.count,
            fmt_ns(row.a.total_ns),
            fmt_ns(row.b.total_ns),
            if row.total_pct.is_finite() {
                row.total_pct
            } else {
                999.9
            },
            if row.regressed { "  REGRESSED" } else { "" }
        );
    }
    if let Some(pct) = fail_pct {
        if report.regressed() {
            let n = report.rows.iter().filter(|r| r.regressed).count();
            eprintln!(
                "nd-trace: regression gate FAILED (> +{pct}% growth): {n} name(s){}",
                if report.wall_regressed {
                    " + wall-clock"
                } else {
                    ""
                }
            );
            return ExitCode::FAILURE;
        }
        say!("\nregression gate passed (≤ +{pct}% growth)");
    }
    ExitCode::SUCCESS
}
