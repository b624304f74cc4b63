//! The adaptive trial-allocation contract, end to end:
//!
//! - on the exact backend, screening is structurally a no-op — adaptive
//!   and plain runs produce bit-identical fronts (property-tested over
//!   the spec knobs);
//! - on the sampling backends, adaptive runs are deterministic across
//!   thread counts and cache states (screening verdicts are pure
//!   functions of content-hashed results);
//! - the acceptance criterion: a netsim-backed 33-node cohort search
//!   produces the identical front at less than a third of the fixed
//!   budget's trial cost.

use nd_opt::{run_opt, FrontResult, OptOptions, OptSpec};
use proptest::prelude::*;
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nd-opt-adapt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The front as exact bit patterns — "identical" below means identical
/// IEEE-754 bits, not approximately equal.
fn front_bits(f: &FrontResult) -> Vec<(u64, u64, u64)> {
    f.front
        .iter()
        .map(|p| {
            (
                p.eta.to_bits(),
                p.duty_cycle.to_bits(),
                p.latency_s.to_bits(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Screening needs a trial budget to reduce; the exact backend has
    /// none, so enabling `[opt.adaptive]` must change nothing — same
    /// candidate sequence, same front, zero screening activity —
    /// whatever the surrounding spec knobs say.
    #[test]
    fn adaptive_is_a_structural_noop_on_the_exact_backend(
        seeds in 3usize..6,
        rounds in 1usize..3,
        confidence in 0.05f64..2.0,
    ) {
        let shared = format!(
            "backend = \"exact\"\nmetric = \"two-way\"\n\
             [opt]\nprotocols = [\"optimal\"]\n\
             seeds_per_axis = {seeds}\nrounds = {rounds}\n"
        );
        let plain = OptSpec::from_toml_str(&shared).unwrap();
        let adaptive = OptSpec::from_toml_str(&format!(
            "{shared}[opt.adaptive]\nconfidence = {confidence}\n"
        ))
        .unwrap();
        let a = run_opt(&plain, &OptOptions::uncached()).unwrap();
        let b = run_opt(&adaptive, &OptOptions::uncached()).unwrap();
        let (fa, fb) = (&a.fronts[0], &b.fronts[0]);
        prop_assert_eq!(fb.screened, 0, "no screening stage on exact");
        prop_assert_eq!(fb.promoted, 0);
        prop_assert_eq!(fb.early_stops, 0);
        prop_assert_eq!(fa.evaluated, fb.evaluated);
        prop_assert_eq!(front_bits(fa), front_bits(fb));
    }
}

const MONTECARLO_ADAPTIVE: &str = "\
name = \"mc-adaptive\"
backend = \"montecarlo\"
metric = \"two-way\"

[sim]
trials = 24
seed = 11
horizon_predicted_x = 6.0

[opt]
protocols = [\"optimal\"]
objective = \"p95\"
seeds_per_axis = 4
rounds = 1

[opt.adaptive]
screen_trials = 3
confidence = 0.6
";

/// The determinism contract on a sampling backend: screening verdicts
/// derive only from content-hashed trial results, so the front — and
/// every adaptive counter — is identical at any thread count and any
/// cache state.
#[test]
fn montecarlo_adaptive_runs_are_deterministic_across_threads_and_caches() {
    let spec = OptSpec::from_toml_str(MONTECARLO_ADAPTIVE).unwrap();

    let single = run_opt(
        &spec,
        &OptOptions {
            threads: Some(1),
            ..OptOptions::uncached()
        },
    )
    .unwrap();
    let multi = run_opt(
        &spec,
        &OptOptions {
            threads: Some(4),
            ..OptOptions::uncached()
        },
    )
    .unwrap();
    let (s, m) = (&single.fronts[0], &multi.fronts[0]);
    assert!(s.screened > 0, "adaptive run screens");
    assert_eq!(front_bits(s), front_bits(m), "thread count is invisible");
    assert_eq!(s.screened, m.screened);
    assert_eq!(s.promoted, m.promoted);
    assert_eq!(s.early_stops, m.early_stops);
    assert_eq!(s.censored, m.censored);

    // cache states: a cold cached run executes everything and matches
    // the uncached front; the warm re-run executes nothing and still
    // matches
    let dir = temp_dir("mc-det");
    let cached = OptOptions {
        cache_dir: Some(dir.join("cache")),
        ..OptOptions::default()
    };
    let cold = run_opt(&spec, &cached).unwrap();
    assert_eq!(cold.cache_hits, 0);
    assert_eq!(front_bits(&cold.fronts[0]), front_bits(s));
    let warm = run_opt(&spec, &cached).unwrap();
    assert_eq!(warm.executed, 0, "fully served from cache");
    assert_eq!(front_bits(&warm.fronts[0]), front_bits(s));
    assert_eq!(warm.fronts[0].early_stops, s.early_stops);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A 33-node cohort search of a slotted protocol: searchlight's duty
/// cycle depends only on eta, so the (eta, slot) grid is domination-rich
/// — at every duty cycle exactly one slot length is competitive and the
/// rest trail by ~2.4× steps — which is the shape adaptive screening
/// exploits. The small ω keeps every slot column fully discoverable
/// (ω/slot boundary losses below the p95 tolerance), and the horizon is
/// fixed — slotted schedules have no exact worst case to derive a
/// predicted horizon from.
const NETSIM_33: &str = "\
name = \"netsim-33\"
backend = \"netsim\"
metric = \"two-way\"

[radio]
omega_us = 5

[sim]
trials = 12
seed = 7
half_duplex = false
collisions = false
horizon_ms = 2000

[opt]
protocols = [\"searchlight\"]
objective = \"p95\"
nodes = 33
seeds_per_axis = 5
rounds = 1
max_evals = 25
eta_min = 0.15
eta_max = 0.3
";

const NETSIM_33_ADAPTIVE_KNOBS: &str = "\
[opt.adaptive]
screen_trials = 1
confidence = 0.35
";

/// The acceptance criterion: on a 33-node cohort search, the adaptive
/// run reproduces the fixed-budget front bit for bit while spending
/// under a third of the trials. The gain is pinned as that count:
/// trial cost is deterministic, while wall clock follows it with host
/// noise and is not measured.
#[test]
fn netsim_33_node_adaptive_front_is_identical_at_a_third_of_the_trials() {
    let fixed_spec = OptSpec::from_toml_str(NETSIM_33).unwrap();
    let adaptive_spec =
        OptSpec::from_toml_str(&format!("{NETSIM_33}{NETSIM_33_ADAPTIVE_KNOBS}")).unwrap();
    let trials = fixed_spec.base.sim.trials;
    let screen = adaptive_spec.adaptive.resolved_screen_trials(trials);

    let fixed = run_opt(&fixed_spec, &OptOptions::uncached()).unwrap();
    let adaptive = run_opt(&adaptive_spec, &OptOptions::uncached()).unwrap();
    let (f, a) = (&fixed.fronts[0], &adaptive.fronts[0]);

    assert!(!f.front.is_empty());
    assert_eq!(front_bits(f), front_bits(a), "identical front, bit for bit");

    // the deterministic trial cost: every candidate of the fixed run
    // pays the full budget; adaptive candidates pay the screen, and only
    // the promoted ones pay the full budget on top
    assert_eq!(f.evaluated, a.evaluated, "same candidate sequence");
    assert!(a.screened > 0);
    assert!(a.early_stops > 0, "screening must settle some candidates");
    let fixed_cost = f.evaluated * trials;
    let adaptive_cost = a.screened * screen + a.promoted * trials;
    assert!(
        fixed_cost >= 3 * adaptive_cost,
        "trial cost {fixed_cost} vs {adaptive_cost} (screened {}, promoted {}, stopped {})",
        a.screened,
        a.promoted,
        a.early_stops,
    );
}
