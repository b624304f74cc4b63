//! End-to-end: trace a real single-thread sweep in-process, then drive
//! the `nd-trace` binary over the produced JSONL — the same contract
//! the CI trace-analyze-smoke job exercises.

use nd_sweep::{run_sweep, ScenarioSpec, SweepOptions};
use nd_trace::{build_forest, critical_path, parse_trace};
use std::path::PathBuf;
use std::process::Command;

const SPEC: &str = r#"
name = "trace-it"
backend = "montecarlo"
metric = "two-way"

[grid]
protocol = ["optimal-slotless"]
eta = [0.05, 0.10]
drop_probability = [0.0, 0.2]

[sim]
trials = 8
seed = 7
horizon_predicted_x = 4.0
collisions = false
half_duplex = false
"#;

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nd-trace-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run the binary: `(exit code, stdout, stderr)`.
fn nd_trace(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_nd-trace"))
        .args(args)
        .output()
        .expect("spawn nd-trace");
    (
        out.status.code().expect("nd-trace exited"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Rewrite a trace with every timestamp and duration scaled ×2 — a
/// uniform slowdown that keeps the span nesting valid.
fn slow_down(trace: &str, out: &std::path::Path) {
    let spans = parse_trace(trace).unwrap();
    let mut text = String::new();
    for s in spans {
        text.push_str(&format!(
            "{{\"t\": \"span\", \"name\": \"{}\", \"tid\": {}, \"start_ns\": {}, \"dur_ns\": {}, \"depth\": {}}}\n",
            s.name,
            s.tid,
            s.start_ns * 2,
            s.dur_ns * 2,
            s.depth
        ));
    }
    std::fs::write(out, text).unwrap();
}

#[test]
fn traced_sweep_end_to_end() {
    let dir = temp_dir();
    let trace_path = dir.join("sweep.jsonl");

    // One single-thread, uncached sweep with the global sink attached.
    nd_obs::trace::init_file(&trace_path).unwrap();
    let spec = ScenarioSpec::from_toml_str(SPEC).unwrap();
    let opts = SweepOptions {
        threads: Some(1),
        use_cache: false,
        cache_dir: None,
    };
    run_sweep(&spec, &opts).unwrap();
    nd_obs::trace::shutdown();

    let text = std::fs::read_to_string(&trace_path).unwrap();
    let spans = parse_trace(&text).unwrap();
    assert!(
        spans.iter().any(|s| s.name == "sweep.run"),
        "trace must contain the sweep root"
    );

    // Library-level acceptance: ≥95% of the wall-clock is attributed to
    // top-level spans on a single-thread run.
    let cp = critical_path(&build_forest(spans));
    assert!(
        cp.attributed_frac >= 0.95,
        "attributed only {:.1}%",
        cp.attributed_frac * 100.0
    );

    // CLI: the trace is well-formed, and the single-thread run's jobs
    // cover its wall-clock; a window that only an exact cover meets fails.
    let trace = trace_path.to_str().unwrap();
    let (code, stdout, stderr) = nd_trace(&["check", trace]);
    assert_eq!(code, 0, "{stderr}");
    assert!(
        stdout.contains(" spans, ") && stdout.contains("job cover"),
        "got: {stdout}"
    );
    let (code, stdout, stderr) = nd_trace(&["check", trace, "--expect-cover", "0.8"]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains("job cover gate passed"), "got: {stdout}");
    let (code, _, stderr) = nd_trace(&["check", trace, "--expect-cover", "1"]);
    assert_eq!(code, 1);
    assert!(stderr.contains("job cover gate FAILED"), "got: {stderr}");

    // CLI: critical-path with the same gate.
    let (code, stdout, stderr) = nd_trace(&["critical-path", trace, "--min-attributed", "0.95"]);
    assert_eq!(code, 0, "gate should pass: {stderr}");
    assert!(stdout.contains("critical path:"), "got: {stdout}");
    assert!(stdout.contains("sweep.run"));
    assert!(stdout.contains("attribution gate passed"));

    // CLI: flame output is well-formed folded stacks.
    let (code, folded, _) = nd_trace(&["flame", trace]);
    assert_eq!(code, 0);
    assert!(folded.lines().any(|l| l.starts_with("sweep.run")));
    for line in folded.lines() {
        let (path, count) = line.rsplit_once(' ').expect("`stack count` shape");
        assert!(!path.is_empty());
        count.parse::<u64>().expect("count is an integer");
    }

    // CLI: chrome export parses as JSON with one event per span.
    let chrome_path = dir.join("chrome.json");
    let (code, _, stderr) = nd_trace(&["chrome", trace, "--out", chrome_path.to_str().unwrap()]);
    assert_eq!(code, 0, "{stderr}");
    let chrome = std::fs::read_to_string(&chrome_path).unwrap();
    let v = nd_sweep::value::parse_json(&chrome).unwrap();
    let events = v.as_table().unwrap()["traceEvents"].as_array().unwrap();
    assert_eq!(events.len(), parse_trace(&text).unwrap().len());

    // CLI: identical traces pass the regression gate …
    let (code, stdout, stderr) = nd_trace(&["diff", trace, trace, "--fail-on-regress", "50"]);
    assert_eq!(code, 0, "identical runs must pass: {stderr}");
    assert!(stdout.contains("regression gate passed"), "got: {stdout}");

    // … and a uniform 2× slowdown fails it.
    let slow_path = dir.join("slow.jsonl");
    slow_down(&text, &slow_path);
    let (code, _, stderr) = nd_trace(&[
        "diff",
        trace,
        slow_path.to_str().unwrap(),
        "--fail-on-regress",
        "50",
    ]);
    assert_eq!(code, 1, "2× slowdown must trip the gate");
    assert!(stderr.contains("regression gate FAILED"), "got: {stderr}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_rejects_bad_usage() {
    let (code, _, stderr) = nd_trace(&["critical-path"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("nd-trace:"));

    let (code, _, stderr) = nd_trace(&["check"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("check needs"), "got: {stderr}");

    let (code, _, stderr) = nd_trace(&["critical-path", "/nonexistent/trace.jsonl"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("nonexistent"));

    // A threshold that cannot gate is a usage error, not a silent pass:
    // every comparison with NaN is false.
    for args in [
        &["critical-path", "t.jsonl", "--min-attributed", "nan"][..],
        &["critical-path", "t.jsonl", "--min-attributed", "1.5"],
        &["critical-path", "t.jsonl", "--min-attributed", "-0.1"],
        &["diff", "a.jsonl", "b.jsonl", "--fail-on-regress", "nan"],
        &["diff", "a.jsonl", "b.jsonl", "--fail-on-regress", "inf"],
        &["diff", "a.jsonl", "b.jsonl", "--fail-on-regress", "-5"],
        &["diff", "a.jsonl", "b.jsonl", "--min-share", "NaN"],
        &["diff", "a.jsonl", "b.jsonl", "--min-share", "2"],
        &["check", "t.jsonl", "--expect-cover", "nan"],
        &["check", "t.jsonl", "--expect-cover", "1.5"],
    ] {
        let (code, _, stderr) = nd_trace(args);
        assert_eq!(code, 2, "{args:?}");
        assert!(stderr.contains(args[args.len() - 2]), "{args:?}: {stderr}");
    }

    let (code, _, stderr) = nd_trace(&["frobnicate"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("unknown command"));

    let (code, stdout, _) = nd_trace(&["--help"]);
    assert_eq!(code, 0);
    assert!(stdout.contains("critical-path") && stdout.contains("--fail-on-regress"));
    assert!(stdout.contains("check") && stdout.contains("--expect-cover"));
}
