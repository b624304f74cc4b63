//! The fundamental bounds of the paper (Sections 5–6, Appendices A–C).
//!
//! Every bound is an exact implementation of a numbered theorem or equation,
//! documented with its source. All latencies are in **seconds** (`f64`):
//! the bounds are continuous mathematics; converting to the integer tick
//! grid is the job of the schedule constructors in `nd-protocols`.
//!
//! Overview (one module per group of results):
//!
//! | Module | Results |
//! |---|---|
//! | [`beaconing`] | Theorems 4.3, 5.1, 5.3, 5.4 — unidirectional beaconing |
//! | [`symmetric`] | Theorem 5.5 — symmetric bidirectional ND |
//! | [`constrained`] | Theorem 5.6 — channel-utilization-constrained ND |
//! | [`asymmetric`] | Theorem 5.7 — asymmetric bidirectional ND |
//! | [`oneway`] | Theorem C.1 — mutual-exclusive one-way ND |
//! | [`slotted`] | Section 6 — slotted-protocol bounds, Table 1 |
//! | [`collisions`] | Eq. 12 — ALOHA collision probability, Figure 7 |
//! | [`redundancy`] | Appendix B — redundant coverage, Eqs. 32–33 |
//! | [`overheads`] | Appendix A — non-ideal radios, short windows, self-blocking |

pub mod asymmetric;
pub mod beaconing;
pub mod collisions;
pub mod constrained;
pub mod oneway;
pub mod overheads;
pub mod redundancy;
pub mod slotted;
pub mod symmetric;

use crate::error::NdError;
use crate::metric::Metric;

pub use asymmetric::{asymmetric_bound, optimal_asymmetric_splits};
pub use beaconing::{coverage_bound, optimal_reception_period, unidirectional_bound};
pub use collisions::{collision_probability, kink_duty_cycle, max_utilization_for};
pub use constrained::constrained_bound;
pub use oneway::oneway_bound;
pub use redundancy::{optimal_redundancy, CollisionExponent, RedundancyPlan};
pub use symmetric::{optimal_beta, symmetric_bound};

/// The paper's closed-form optimal worst-case latency (seconds) for
/// *symmetric* protocols in which each device spends a total duty cycle η,
/// at the given metric — the reference curve Pareto fronts are measured
/// against (`nd-opt`).
///
/// * two-way: Theorem 5.5, `L = 4αω/η²`;
/// * one-way: the same value — with a joint per-device budget η the
///   optimal split β = η/2α, γ = η/2 maximizes β·γ, and Eq. 10 gives
///   `L = ω/(βγ) = 4αω/η²` (a symmetric device pair cannot do better in
///   one direction than in both: the limiting resource is the β·γ
///   product);
/// * either-way: Theorem C.1, `L = 2αω/η²` (correlated quadruples halve
///   the covering work).
///
/// Errors on non-positive or non-finite parameters instead of panicking,
/// so sweep/optimizer rows degrade gracefully.
pub fn optimal_discovery_bound(
    metric: Metric,
    alpha: f64,
    omega_secs: f64,
    eta: f64,
) -> Result<f64, NdError> {
    for (name, v) in [("alpha", alpha), ("omega", omega_secs), ("eta", eta)] {
        if !(v.is_finite() && v > 0.0) {
            return Err(NdError::InvalidSchedule(format!(
                "optimal_discovery_bound: {name} = {v} must be positive and finite"
            )));
        }
    }
    Ok(match metric {
        Metric::OneWay | Metric::TwoWay => symmetric_bound(alpha, omega_secs, eta),
        Metric::EitherWay => oneway_bound(alpha, omega_secs, eta),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_helper_matches_the_underlying_theorems() {
        let b = |m| optimal_discovery_bound(m, 1.0, 36e-6, 0.05).unwrap();
        assert_eq!(b(Metric::TwoWay), symmetric_bound(1.0, 36e-6, 0.05));
        assert_eq!(b(Metric::OneWay), symmetric_bound(1.0, 36e-6, 0.05));
        assert_eq!(b(Metric::EitherWay), oneway_bound(1.0, 36e-6, 0.05));
        assert!((b(Metric::TwoWay) - 0.0576).abs() < 1e-9);
    }

    #[test]
    fn bound_helper_rejects_bad_parameters() {
        for (alpha, omega, eta) in [
            (0.0, 36e-6, 0.05),
            (1.0, -1.0, 0.05),
            (1.0, 36e-6, 0.0),
            (1.0, f64::NAN, 0.05),
        ] {
            assert!(optimal_discovery_bound(Metric::TwoWay, alpha, omega, eta).is_err());
        }
    }
}
