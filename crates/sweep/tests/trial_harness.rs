//! The one trial harness: `nd_analysis::montecarlo::pair_trials`, rooted
//! at a montecarlo job's seed and run on that job's configuration,
//! reproduces the job's latency columns bit for bit under every metric.
//! Both run through `nd_analysis::Trials`, so they set up, seed and read
//! out each trial the same way.

use nd_analysis::montecarlo::{pair_trials, LatencySummary};
use nd_sweep::engine::{build_role_schedules, execute_job};
use nd_sweep::{expand, ScenarioSpec};

#[test]
fn pair_trials_reproduce_montecarlo_rows() {
    for metric in ["one-way", "either-way", "two-way"] {
        // collisions on and a horizon short of Searchlight's worst case,
        // so that some trials fail and some discover
        let spec = ScenarioSpec::from_toml_str(&format!(
            "name = \"harness\"\nbackend = \"montecarlo\"\nmetric = \"{metric}\"\n\
             [grid]\nprotocol = [\"searchlight\"]\neta = [0.05]\n\
             [sim]\nseed = 11\ntrials = 40\ncollisions = true\nhorizon_ms = 250\n"
        ))
        .unwrap();
        let job = &expand(&spec)[0];
        let row = execute_job(job, &spec).unwrap();

        let (sched_a, sched_b) = build_role_schedules(job, &spec).unwrap();
        let mut cfg = job.base_sim_config(&spec);
        cfg.seed = job.seed(&spec);
        let s = LatencySummary::from_latencies(&pair_trials(
            &sched_a,
            &sched_b,
            spec.metric,
            &cfg,
            spec.sim.trials,
        ));
        assert!(
            0 < s.failures && s.failures < s.trials,
            "{metric}: {} of {} trials failed",
            s.failures,
            s.trials
        );
        for (key, value) in [
            ("mean_s", s.mean),
            ("p50_s", s.p50),
            ("p95_s", s.p95),
            ("p99_s", s.p99),
            ("max_s", s.max),
            ("failure_rate", s.failure_rate()),
        ] {
            assert_eq!(
                row[key].to_bits(),
                value.to_bits(),
                "{metric} {key}: row {} vs pair_trials {value}",
                row[key]
            );
        }
    }
}
