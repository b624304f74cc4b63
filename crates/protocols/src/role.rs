//! Role-typed device configurations — the unit of heterogeneity.
//!
//! The paper's Theorem 5.7 covers *pairs of unequal devices*: a BLE
//! advertiser against a scanner, a beacon-dense anchor against a
//! battery-starved tag. A [`RoleConfig`] is one device's complete
//! protocol configuration (selector, duty-cycle target, slot length);
//! every pipeline layer above `nd-core` — sweep grids, evaluators,
//! cohort simulations, the optimizer — describes an experiment as a
//! *pair* of roles (A, B), with role B defaulting to role A so the
//! symmetric case stays the degenerate one-role form it always was.

use crate::schedule_for_selector;
use nd_core::error::NdError;
use nd_core::schedule::Schedule;
use nd_core::time::Tick;

/// One device role: a protocol selector plus the parameters its schedule
/// is built for.
#[derive(Clone, Debug, PartialEq)]
pub struct RoleConfig {
    /// Protocol selector (registry name or `diff-code:<v>:<m1>,…`).
    pub protocol: String,
    /// Total duty-cycle target η for this role.
    pub eta: f64,
    /// Slot length for slotted protocols.
    pub slot: Tick,
}

impl RoleConfig {
    /// Build this role's per-device schedule for the given packet
    /// airtime.
    pub fn schedule(&self, omega: Tick) -> Result<Schedule, NdError> {
        schedule_for_selector(&self.protocol, self.eta, self.slot, omega)
    }
}

/// A pair of roles: role A on device/cohort-part 0, role B on the other.
/// `RolePair::symmetric` is the degenerate case every pre-existing
/// experiment uses.
#[derive(Clone, Debug, PartialEq)]
pub struct RolePair {
    /// Device 0's role (the "advertiser"/E side in asymmetric setups).
    pub a: RoleConfig,
    /// Device 1's role (the "scanner"/F side).
    pub b: RoleConfig,
}

impl RolePair {
    /// Both devices run the same configuration.
    pub fn symmetric(role: RoleConfig) -> Self {
        RolePair {
            b: role.clone(),
            a: role,
        }
    }

    /// Whether the two roles actually differ (the symmetric fast path —
    /// schedule reuse, unchanged cache hashes — keys off this).
    pub fn is_asymmetric(&self) -> bool {
        self.a != self.b
    }

    /// Build both schedules, reusing role A's when the pair is
    /// symmetric.
    ///
    /// An asymmetric pair of `optimal-slotless` roles builds the paper's
    /// *coupled* Theorem 5.7 construction ([`crate::optimal::asymmetric`]):
    /// each side's beacon gap is chosen to tile the *other* side's window
    /// period, which is what achieves the `4αω/(η_E·η_F)` bound — two
    /// independently built symmetric tilings at different η do not align
    /// and can be a factor ~2 worse. Every other combination builds the
    /// two selectors independently (those protocols define no coordinated
    /// pair construction).
    pub fn schedules(&self, omega: Tick) -> Result<(Schedule, Schedule), NdError> {
        if !self.is_asymmetric() {
            let a = self.a.schedule(omega)?;
            let b = a.clone();
            return Ok((a, b));
        }
        if self.a.protocol == "optimal-slotless" && self.b.protocol == "optimal-slotless" {
            let params = crate::optimal::OptimalParams {
                omega,
                alpha: 1.0,
                a: 1,
            };
            let (e, f) = crate::optimal::asymmetric(params, self.a.eta, self.b.eta)?;
            return Ok((e.schedule, f.schedule));
        }
        Ok((self.a.schedule(omega)?, self.b.schedule(omega)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn role(protocol: &str, eta: f64) -> RoleConfig {
        RoleConfig {
            protocol: protocol.into(),
            eta,
            slot: Tick::from_millis(1),
        }
    }

    #[test]
    fn symmetric_pair_builds_one_schedule_twice() {
        let pair = RolePair::symmetric(role("optimal-slotless", 0.05));
        assert!(!pair.is_asymmetric());
        let (a, b) = pair.schedules(Tick::from_micros(36)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn asymmetric_pair_builds_distinct_schedules() {
        let pair = RolePair {
            a: role("optimal-slotless", 0.10),
            b: role("optimal-slotless", 0.02),
        };
        assert!(pair.is_asymmetric());
        let (a, b) = pair.schedules(Tick::from_micros(36)).unwrap();
        assert!(a.eta(1.0) > b.eta(1.0), "role A spends more energy");
    }

    #[test]
    fn asymmetric_optimal_pair_is_the_coupled_theorem_5_7_construction() {
        let omega = Tick::from_micros(36);
        let pair = RolePair {
            a: role("optimal-slotless", 0.08),
            b: role("optimal-slotless", 0.02),
        };
        let (a, b) = pair.schedules(omega).unwrap();
        // E's beacon gap tiles F's window period and vice versa: both
        // cross products β_E·γ_F and β_F·γ_E realize the bound
        let bound = nd_core::bounds::asymmetric_bound(1.0, 36e-6, 0.08, 0.02);
        let dc_a = a.duty_cycle();
        let dc_b = b.duty_cycle();
        let l_ef = 36e-6 / (dc_a.beta * dc_b.gamma);
        let l_fe = 36e-6 / (dc_b.beta * dc_a.gamma);
        assert!((l_ef - bound).abs() / bound < 0.02, "{l_ef} vs {bound}");
        assert!((l_fe - bound).abs() / bound < 0.02, "{l_fe} vs {bound}");
    }

    #[test]
    fn heterogeneous_protocols_build_too() {
        let pair = RolePair {
            a: role("disco", 0.10),
            b: role("u-connect", 0.10),
        };
        let (a, b) = pair.schedules(Tick::from_micros(36)).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn bad_selector_is_an_error() {
        assert!(role("warp-drive", 0.05)
            .schedule(Tick::from_micros(36))
            .is_err());
    }
}
