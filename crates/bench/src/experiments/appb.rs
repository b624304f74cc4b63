//! Appendix B: optimal redundancy against collisions.
//!
//! Reproduces the worked example (ω = 36 µs, α = 1, η = 5 %, P_f = 0.05 %,
//! S = 3 → Q* = 3, β ≈ 2.07 %, P_c ≈ 7.9 %), sweeps the redundancy degree
//! Q, and validates the failure-rate model by simulation — with plain
//! repetitive sequences (correlated collisions, the open problem the paper
//! names) and with jittered beacons (the decorrelation idealization
//! behind Eq. 32).

use crate::table::{pct, secs, Table};
use nd_analysis::montecarlo::{group_success_rate, random_phase};
use nd_core::bounds::redundancy::{plan_for_q, CollisionExponent};
use nd_core::time::Tick;
use nd_protocols::optimal::OptimalParams;
use nd_protocols::redundant::redundant_symmetric;
use nd_protocols::{Jittered, RoundJittered};
use nd_sim::{ScheduleBehavior, SimConfig};
use rand::rngs::StdRng;

const ETA: f64 = 0.05;
const PF: f64 = 0.0005;
const S: u32 = 3;
const OMEGA_S: f64 = 36e-6;

/// Generate the report.
pub fn run() -> String {
    let mut out = String::new();
    out.push_str("Appendix B — optimal redundancy (ω=36 µs, α=1, η=5 %, P_f=0.05 %, S=3)\n\n");

    for (label, exp) in [
        (
            "Eq. 12 exponent 2(S-1)β  [matches the paper's example]",
            CollisionExponent::SMinusOne,
        ),
        (
            "Appendix-B prose exponent 2(S-2)β",
            CollisionExponent::SMinusTwo,
        ),
    ] {
        out.push_str(label);
        out.push('\n');
        let mut t = Table::new(&["Q", "β", "P_c", "γ", "L' (Eq.33)", "pair L"]);
        let mut best: Option<(u32, f64)> = None;
        for q in 1..=6 {
            match plan_for_q(q, ETA, 1.0, OMEGA_S, PF, S, exp) {
                Some(p) => {
                    if best.is_none_or(|(_, l)| p.l_prime < l) {
                        best = Some((q, p.l_prime));
                    }
                    t.row(vec![
                        format!("{q}"),
                        pct(p.beta),
                        pct(p.pc),
                        pct(p.gamma),
                        secs(p.l_prime),
                        secs(p.pair_worst_case),
                    ]);
                }
                None => {
                    t.row(vec![
                        format!("{q}"),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        "infeasible".into(),
                        "-".into(),
                    ]);
                }
            }
        }
        out.push_str(&t.render());
        if let Some((q, l)) = best {
            out.push_str(&format!("optimal: Q* = {q}, L' = {}\n\n", secs(l)));
        }
    }
    out.push_str(
        "Paper's example values: Q* = 3, β = 2.07 %, P_c = 7.9 %, L' = 0.1583 s,\n\
         pair L = 0.05 s. Our exact evaluation reproduces Q*, β and P_c under the\n\
         Eq. 12 exponent; L' computes to ≈0.178 s (see EXPERIMENTS.md for the\n\
         reconciliation notes — the paper's own L'/pair-L appear to use rounded\n\
         intermediates).\n\n",
    );

    // --- Monte-Carlo validation --------------------------------------
    let params = OptimalParams::paper_default();
    let proto =
        redundant_symmetric(params, ETA, PF, S, CollisionExponent::SMinusOne).expect("feasible");
    let deadline = proto.predicted_l_prime;
    let horizon = Tick(deadline.as_nanos() * 2);
    // 1000 runs × 6 ordered pairs: 6000 attempts per row, what a binomial
    // claim at the 0.05 % target needs (0 failures bound it near 3/6000)
    let trials = 1000;
    out.push_str(&format!(
        "Simulation: success rate within L' among S = 3 devices \
         ({trials} runs of {}, {} ordered pairs)\n\n",
        secs(horizon.as_secs_f64()),
        trials * (S * (S - 1)) as usize
    ));
    let mut cfg = SimConfig::paper_baseline(horizon, 99);
    cfg.collisions = true;
    // isolate the collision effect: Appendix B (like all of Section 5)
    // assumes the A.5 self-blocking away — with it on, blanking dominates
    // the failure budget (≈ω/(M·Σd) ≈ 2 % here, vs the 0.05 % target)
    cfg.half_duplex = false;
    let lambda = proto
        .schedule
        .beacons
        .as_ref()
        .map(|b| b.mean_gap())
        .unwrap_or(Tick(1));
    let sched = &proto.schedule;
    let phased = |rng: &mut StdRng| {
        ScheduleBehavior::with_phase(sched.clone(), random_phase(sched.period(), rng))
    };
    let plain = group_success_rate(S as usize, deadline, &cfg, trials, |rng| {
        Box::new(phased(rng))
    });
    let jittered = group_success_rate(S as usize, deadline, &cfg, trials, |rng| {
        Box::new(Jittered::new(phased(rng), lambda / 2))
    });
    // round-coherent jitter: the decorrelation that *preserves* coverage
    let round = group_success_rate(
        S as usize,
        // one extra λ of slack: round shifts can delay a covering beacon
        // by up to λ − ω
        Tick(deadline.as_nanos() + lambda.as_nanos()),
        &cfg,
        trials,
        |_| Box::new(RoundJittered::new(sched.clone())),
    );
    let mut m = Table::new(&["schedule", "failure rate within L'", "Eq.32 target"]);
    m.row(vec![
        "repetitive (correlated collisions)".into(),
        pct(1.0 - plain),
        pct(PF),
    ]);
    m.row(vec![
        "per-beacon jitter λ/2 (breaks the tiling)".into(),
        pct(1.0 - jittered),
        pct(PF),
    ]);
    m.row(vec![
        "round-coherent jitter (decorrelated, coverage kept)".into(),
        pct(1.0 - round),
        pct(PF),
    ]);
    out.push_str(&m.render());
    out.push_str(
        "\nReading: Eq. 32 assumes independent collisions. Plain repetitive\n\
         sequences violate it — two devices whose uniform-gap trains collide\n\
         once collide in every round, so the failure rate is set by the phase\n\
         measure of the one other sender's train, 2·(S−2)·β ≈ 4.1 % (the\n\
         receiver's own train blanks nothing with half-duplex off), nearly two\n\
         orders above the target. Naive per-beacon jitter decorrelates but\n\
         destroys the Q-fold coverage guarantee, and fails even more often.\n\
         Shifting each *round* coherently keeps every round a perfect tiling\n\
         while making rounds collide independently — no ordered pair of 6000\n\
         fails, consistent with the 0.05 % target (3/6000 is the 95 % bound),\n\
         realizing the Appendix B idealization (the decorrelation mechanism\n\
         the paper's conclusion asks for).\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_in_report() {
        let r = run();
        assert!(r.contains("Q* = 3"), "optimal Q is 3 as in the paper");
        assert!(r.contains("Appendix B"));
    }
}
