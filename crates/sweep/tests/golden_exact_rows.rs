//! Golden results for the exact, montecarlo, netsim and bounds backends:
//! the rows `execute_job` returns for a set of canonical jobs, pinned as
//! f64 bit patterns in `tests/golden/exact_rows.txt` together with the
//! `ENGINE_VERSION` they were captured at.
//!
//! The result cache is keyed by job content and `ENGINE_VERSION`, so a
//! change to the exact kernel or to the simulator that alters any row must
//! also bump the version — otherwise every cached row silently goes stale.
//! This test enforces that: a row that differs from the fixture fails
//! unless the fixture records a different engine version (re-pin it then:
//! the failure message prints the fresh fixture).

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

/// A montecarlo job: `metric`, then `[grid]` lines, then `[sim]` lines
/// after a fixed seed and a small trial count.
macro_rules! montecarlo {
    ($metric:literal, $grid:literal, $sim:literal) => {
        concat!(
            "name = \"g\"\nbackend = \"montecarlo\"\nmetric = \"",
            $metric,
            "\"\n[grid]\n",
            $grid,
            "\n[sim]\nseed = 3\n",
            $sim
        )
    };
}

/// A closed-form bounds job with the given `[grid]` lines.
macro_rules! bounds {
    ($grid:literal) => {
        concat!("name = \"g\"\nbackend = \"bounds\"\n[grid]\n", $grid)
    };
}

/// A netsim job, shaped like [`montecarlo!`].
macro_rules! netsim {
    ($metric:literal, $grid:literal, $sim:literal) => {
        concat!(
            "name = \"g\"\nbackend = \"netsim\"\nmetric = \"",
            $metric,
            "\"\n[grid]\n",
            $grid,
            "\n[sim]\nseed = 5\n",
            $sim
        )
    };
}

/// `(case name, spec)`: every registry protocol at two duty cycles with
/// percentiles on, then the two-way, Theorem 5.7 pair, overlap-model and
/// heterogeneous-pair jobs; then montecarlo jobs (fault drops on and off,
/// one-, either- and two-way, drift 0 and 20 ppm), netsim cohorts of
/// 2, 8 and 17 nodes (churn, collisions on and off), montecarlo and
/// 8-node netsim jobs that blank with a 40 µs turnaround under the
/// any-overlap and full-packet models (slotted protocols: the slotless
/// optimum admits no full-packet reception), and bounds rows: two
/// Fig. 6 joint-budget points, Theorem 5.7 on an explicit (η_E, η_F)
/// pair, and a ratio below 1 pinned as its error.
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
    (
        "mc-disco-one-way",
        montecarlo!(
            "one-way",
            "protocol = [\"disco\"]\neta = [0.05]",
            "trials = 12\nhorizon_ms = 3000"
        ),
    ),
    (
        "mc-optimal-two-way",
        montecarlo!(
            "two-way",
            "protocol = [\"optimal-slotless\"]\neta = [0.10]",
            "trials = 16"
        ),
    ),
    (
        "mc-optimal-one-way-drop",
        montecarlo!(
            "one-way",
            "protocol = [\"optimal-slotless\"]\neta = [0.10]\ndrop_probability = [0.3]",
            "trials = 16"
        ),
    ),
    (
        "mc-disco-two-way-drop",
        montecarlo!(
            "two-way",
            "protocol = [\"disco\"]\neta = [0.10]\ndrop_probability = [0.2]",
            "trials = 12\nhorizon_ms = 1500\ndeadline_ms = 400"
        ),
    ),
    (
        "mc-searchlight-drift",
        montecarlo!(
            "one-way",
            "protocol = [\"searchlight\"]\neta = [0.10]\ndrift_ppm = [20]",
            "trials = 12\nhorizon_ms = 600"
        ),
    ),
    (
        "mc-optimal-two-way-drift-drop",
        montecarlo!(
            "two-way",
            "protocol = [\"optimal-slotless\"]\neta = [0.05]\ndrift_ppm = [20]\ndrop_probability = [0.1]",
            "trials = 12"
        ),
    ),
    (
        "mc-u-connect-either-way-turnaround",
        montecarlo!(
            "either-way",
            "protocol = [\"u-connect\"]\neta = [0.10]\nturnaround_us = [40]",
            "trials = 12\nhorizon_ms = 600"
        ),
    ),
    (
        "mc-pair-thm5.7",
        montecarlo!(
            "two-way",
            "protocol = [\"optimal-slotless\"]\neta = [0.01]\neta_b = [0.10]",
            "trials = 8"
        ),
    ),
    (
        "mc-strip-fixed-phase",
        montecarlo!(
            "one-way",
            "protocol = [\"diff-code:7:1,2,4\"]\nslot_us = [1000]\ndrift_ppm = [20]\nphase_us = [18]",
            "trials = 1\nhorizon_ms = 2000"
        ),
    ),
    (
        "mc-disco-any-overlap-turnaround",
        r#"name = "g"
backend = "montecarlo"
metric = "one-way"
overlap = "any-overlap"
[grid]
protocol = ["disco"]
eta = [0.10]
turnaround_us = [40]
[sim]
seed = 3
trials = 8
horizon_ms = 1500"#,
    ),
    (
        "mc-searchlight-full-packet-turnaround",
        r#"name = "g"
backend = "montecarlo"
metric = "two-way"
overlap = "full-packet"
[grid]
protocol = ["searchlight"]
eta = [0.10]
turnaround_us = [40]
[sim]
seed = 3
trials = 8
horizon_ms = 1500"#,
    ),
    (
        "ns-optimal-n2",
        netsim!(
            "two-way",
            "protocol = [\"optimal-slotless\"]\neta = [0.10]\nnodes = [2]",
            "trials = 6"
        ),
    ),
    (
        "ns-disco-n2-drop",
        netsim!(
            "one-way",
            "protocol = [\"disco\"]\neta = [0.10]\nnodes = [2]\ndrop_probability = [0.2]",
            "trials = 4\nhorizon_ms = 1500"
        ),
    ),
    (
        "ns-optimal-n8-churn",
        netsim!(
            "either-way",
            "protocol = [\"optimal-slotless\"]\neta = [0.10]\nnodes = [8]\nchurn = [0.25]",
            "trials = 3\nhorizon_ms = 300"
        ),
    ),
    (
        "ns-disco-n8-no-collisions",
        netsim!(
            "one-way",
            "protocol = [\"disco\"]\neta = [0.10]\nnodes = [8]\ncollision = [false]",
            "trials = 2\nhorizon_ms = 1500"
        ),
    ),
    (
        "ns-optimal-n17",
        netsim!(
            "two-way",
            "protocol = [\"optimal-slotless\"]\neta = [0.10]\nnodes = [17]",
            "trials = 2"
        ),
    ),
    (
        "ns-optimal-n17-churn-drift-no-collisions",
        netsim!(
            "one-way",
            "protocol = [\"optimal-slotless\"]\neta = [0.10]\nnodes = [17]\nchurn = [0.5]\ndrift_ppm = [20]\ncollision = [false]",
            "trials = 2\nhorizon_ms = 200"
        ),
    ),
    (
        "ns-mixed-n8",
        netsim!(
            "two-way",
            "protocol = [\"optimal-slotless\"]\neta = [0.10]\neta_b = [0.05]\nmix = [0.25]\nnodes = [8]",
            "trials = 2"
        ),
    ),
    (
        "ns-disco-n8-churn-full-packet-turnaround",
        r#"name = "g"
backend = "netsim"
metric = "either-way"
overlap = "full-packet"
[grid]
protocol = ["disco"]
eta = [0.10]
nodes = [8]
churn = [0.25]
turnaround_us = [40]
[sim]
seed = 5
trials = 2
horizon_ms = 1500"#,
    ),
    (
        "ns-disco-n8-any-overlap-turnaround",
        r#"name = "g"
backend = "netsim"
metric = "one-way"
overlap = "any-overlap"
[grid]
protocol = ["disco"]
eta = [0.10]
nodes = [8]
turnaround_us = [40]
[sim]
seed = 5
trials = 2
horizon_ms = 1500"#,
    ),
    ("bounds-joint-0.05-r1", bounds!("eta = [0.05]\nratio = [1.0]")),
    ("bounds-joint-0.05-r5", bounds!("eta = [0.05]\nratio = [5.0]")),
    (
        "bounds-pair-thm5.7",
        bounds!("eta = [0.10]\neta_b = [0.05]"),
    ),
    (
        "bounds-ratio-0.5-error",
        bounds!("eta = [0.05]\nratio = [0.5]"),
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
