//! Golden results for the exact backend: the rows `execute_job` returns
//! for a set of canonical exact jobs, pinned as f64 bit patterns in
//! `tests/golden/exact_rows.txt` together with the `ENGINE_VERSION` they
//! were captured at.
//!
//! The result cache is keyed by job content and `ENGINE_VERSION`, so a
//! change to the exact kernel that alters any row must also bump the
//! version — otherwise every cached row silently goes stale. This test
//! enforces that: a row that differs from the fixture fails unless the
//! fixture records a different engine version (re-pin it then: the
//! failure message prints the fresh fixture).

use nd_sweep::engine::execute_job;
use nd_sweep::{expand, ScenarioSpec, ENGINE_VERSION};
use std::path::PathBuf;

/// A one-way exact job with percentiles for one registry protocol.
macro_rules! one_way {
    ($protocol:literal, $eta:literal) => {
        concat!(
            "name = \"g\"\nbackend = \"exact\"\nmetric = \"one-way\"\npercentiles = true\n",
            "[grid]\nprotocol = [\"",
            $protocol,
            "\"]\neta = [",
            stringify!($eta),
            "]"
        )
    };
}

/// `(case name, spec)`: every registry protocol at two duty cycles with
/// percentiles on, then the two-way, Theorem 5.7 pair, overlap-model and
/// heterogeneous-pair jobs.
const CASES: &[(&str, &str)] = &[
    ("optimal-0.02", one_way!("optimal-slotless", 0.02)),
    ("optimal-0.10", one_way!("optimal-slotless", 0.10)),
    ("diff-codes-0.05", one_way!("diff-codes", 0.05)),
    ("diff-codes-0.20", one_way!("diff-codes", 0.20)),
    ("searchlight-0.05", one_way!("searchlight", 0.05)),
    ("searchlight-0.10", one_way!("searchlight", 0.10)),
    ("disco-0.05", one_way!("disco", 0.05)),
    ("disco-0.10", one_way!("disco", 0.10)),
    ("u-connect-0.04", one_way!("u-connect", 0.04)),
    ("u-connect-0.10", one_way!("u-connect", 0.10)),
    ("code-based-0.05", one_way!("code-based", 0.05)),
    ("code-based-0.15", one_way!("code-based", 0.15)),
    (
        "optimal-two-way",
        r#"name = "g"
backend = "exact"
metric = "two-way"
percentiles = true
[grid]
protocol = ["optimal-slotless"]
eta = [0.05]"#,
    ),
    (
        "optimal-pair-thm5.7",
        r#"name = "g"
backend = "exact"
metric = "two-way"
percentiles = true
[grid]
protocol = ["optimal-slotless"]
eta = [0.01]
eta_b = [0.10]"#,
    ),
    (
        "disco-any-overlap",
        r#"name = "g"
backend = "exact"
metric = "one-way"
percentiles = true
overlap = "any-overlap"
[grid]
protocol = ["disco"]
eta = [0.10]"#,
    ),
    (
        "searchlight-full-packet",
        r#"name = "g"
backend = "exact"
metric = "one-way"
percentiles = true
overlap = "full-packet"
[grid]
protocol = ["searchlight"]
eta = [0.10]"#,
    ),
    (
        "disco-vs-searchlight",
        r#"name = "g"
backend = "exact"
metric = "one-way"
percentiles = true
[grid]
protocol = ["disco"]
eta = [0.10]
protocol_b = ["searchlight"]
eta_b = [0.08]"#,
    ),
    (
        "disco-prime-pairs",
        r#"name = "g"
backend = "exact"
metric = "one-way"
percentiles = true
[grid]
protocol = ["disco"]
eta = [0.10]
eta_b = [0.06]"#,
    ),
    (
        "diff-codes-two-way-vs-u-connect",
        r#"name = "g"
backend = "exact"
metric = "two-way"
percentiles = true
overlap = "any-overlap"
[grid]
protocol = ["diff-codes"]
eta = [0.10]
protocol_b = ["u-connect"]
eta_b = [0.10]"#,
    ),
    (
        "disco-two-way-undetermined",
        r#"name = "g"
backend = "exact"
metric = "two-way"
percentiles = false
[grid]
protocol = ["disco"]
eta = [0.10]"#,
    ),
];

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/exact_rows.txt")
}

/// The fixture text the current engine produces: an engine line, then
/// one line per case with each metric as `name=<f64 bits in hex>` (or
/// the row's error).
fn render() -> String {
    let mut out = format!("engine {ENGINE_VERSION}\n");
    for (name, toml) in CASES {
        let spec = ScenarioSpec::from_toml_str(toml).unwrap_or_else(|e| panic!("{name}: {e}"));
        let jobs = expand(&spec);
        assert_eq!(jobs.len(), 1, "{name}: one job per case");
        out.push_str(name);
        match execute_job(&jobs[0], &spec) {
            Ok(metrics) => {
                for (k, v) in metrics {
                    out.push_str(&format!(" {k}={:016x}", v.to_bits()));
                }
            }
            Err(e) => out.push_str(&format!(" error={e:?}")),
        }
        out.push('\n');
    }
    out
}

#[test]
fn exact_rows_match_the_pinned_engine() {
    let fresh = render();
    let pinned = std::fs::read_to_string(fixture_path()).expect("golden fixture");
    if fresh == pinned {
        return;
    }
    let pinned_engine = pinned.lines().next().unwrap_or_default();
    let engine_line = format!("engine {ENGINE_VERSION}");
    assert_ne!(
        pinned_engine,
        engine_line,
        "exact rows changed without an ENGINE_VERSION bump — cached rows would go stale.\n\
         Changed lines:\n{}\nFresh fixture:\n{fresh}",
        fresh
            .lines()
            .zip(pinned.lines())
            .filter(|(a, b)| a != b)
            .map(|(a, b)| format!("  now    {a}\n  pinned {b}\n"))
            .collect::<String>()
    );
    eprintln!(
        "golden exact rows were pinned at `{pinned_engine}`, the engine is now `{engine_line}`: \
         re-pin {} with:\n{fresh}",
        fixture_path().display()
    );
}
