//! Periodic-interval (PI) protocols — the BLE-like slotless family
//! (references \[18, 14, 12, 13\] of the paper).
//!
//! A PI device beacons every `T_a` (advertising interval) and opens a
//! reception window of `d_s` every `T_s` (scan interval / scan window).
//! The three parameters are free, which is exactly why the paper's
//! question — *which parametrizations are optimal?* — was open: the
//! recursive worst-case analysis of \[18\] computes the latency of any one
//! triple but cannot search the infinite space.
//!
//! This module provides arbitrary `(T_a, T_s, d_s)` triples plus
//! * the **optimal parametrization** `T_a = a·T_s + d_s`, `γ = d_s/T_s =
//!   1/k` — which is precisely the tiling construction of
//!   `crate::optimal` (the paper's conclusion that slotless PI protocols
//!   scale across the whole Pareto front), and
//! * **BLE presets** with the spec's random `advDelay ∈ [0, 10 ms]`
//!   jitter, modelled by [`BleAdvertiser`].

use nd_core::error::NdError;
use nd_core::params::DutyCycle;
use nd_core::schedule::{BeaconSeq, ReceptionWindows, Schedule};
use nd_core::time::Tick;
use nd_sim::{Behavior, Op};
use rand::Rng;
use rand::RngCore;

/// A periodic-interval protocol configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PiProtocol {
    /// Advertising interval `T_a` (beacon every `T_a`).
    pub ta: Tick,
    /// Scan interval `T_s`.
    pub ts: Tick,
    /// Scan window `d_s ≤ T_s`.
    pub ds: Tick,
    /// Packet airtime ω.
    pub omega: Tick,
}

impl PiProtocol {
    /// Validate and build.
    pub fn new(ta: Tick, ts: Tick, ds: Tick, omega: Tick) -> Result<Self, NdError> {
        if ds > ts {
            return Err(NdError::InvalidSchedule(format!(
                "scan window {ds} exceeds scan interval {ts}"
            )));
        }
        if ta < omega {
            return Err(NdError::InvalidSchedule(format!(
                "advertising interval {ta} below airtime {omega}"
            )));
        }
        if ds.is_zero() || ts.is_zero() {
            return Err(NdError::InvalidSchedule("zero scan parameters".into()));
        }
        Ok(PiProtocol { ta, ts, ds, omega })
    }

    /// Duty cycles: β = ω/T_a, γ = d_s/T_s.
    pub fn duty_cycle(&self) -> DutyCycle {
        DutyCycle {
            beta: self.omega.as_nanos() as f64 / self.ta.as_nanos() as f64,
            gamma: self.ds.as_nanos() as f64 / self.ts.as_nanos() as f64,
        }
    }

    /// Build a triple from duty-cycle targets and a chosen scan window.
    pub fn from_duty_cycles(beta: f64, gamma: f64, ds: Tick, omega: Tick) -> Result<Self, NdError> {
        if beta <= 0.0 || gamma <= 0.0 || gamma > 1.0 {
            return Err(NdError::InvalidSchedule(format!(
                "invalid duty cycles beta {beta}, gamma {gamma}"
            )));
        }
        let ta = Tick((omega.as_nanos() as f64 / beta).round() as u64);
        let ts = Tick((ds.as_nanos() as f64 / gamma).round() as u64);
        Self::new(ta, ts, ds, omega)
    }

    /// The paper-optimal parametrization for a duty-cycle budget η:
    /// `γ = η/2 = 1/k`, `T_a = a·T_s + d_s` — a thin wrapper over the
    /// Theorem 5.5 tiling construction.
    pub fn optimal(eta: f64, alpha: f64, omega: Tick, a: u64) -> Result<Self, NdError> {
        let opt =
            crate::optimal::symmetric(crate::optimal::OptimalParams { omega, alpha, a }, eta)?;
        let b = opt.schedule.beacons.expect("symmetric schedule transmits");
        let c = opt.schedule.windows.expect("symmetric schedule listens");
        Self::new(b.mean_gap(), c.period(), c.sum_d(), omega)
    }

    /// Lower to an exact schedule (the fixed-interval, jitter-free form).
    pub fn schedule(&self) -> Result<Schedule, NdError> {
        let beacons = BeaconSeq::new(vec![Tick::ZERO], self.ta, self.omega)?;
        let windows = ReceptionWindows::single(Tick::ZERO, self.ds, self.ts)?;
        Ok(Schedule::full(beacons, windows))
    }

    /// A scanner-only schedule (BLE central).
    pub fn scanner(&self) -> Result<Schedule, NdError> {
        Ok(Schedule::rx_only(ReceptionWindows::single(
            Tick::ZERO,
            self.ds,
            self.ts,
        )?))
    }

    /// An advertiser-only schedule (BLE peripheral, jitter-free).
    pub fn advertiser(&self) -> Result<Schedule, NdError> {
        Ok(Schedule::tx_only(BeaconSeq::new(
            vec![Tick::ZERO],
            self.ta,
            self.omega,
        )?))
    }

    /// The BLE v5 "general discovery" preset: 100 ms advertising interval
    /// (plus 0–10 ms advDelay, see [`BleAdvertiser`]), 1.28 s scan interval
    /// with an 11.25 ms scan window, 36 µs packets.
    pub fn ble_general_discovery() -> Self {
        PiProtocol {
            ta: Tick::from_millis(100),
            ts: Tick::from_micros(1_280_000),
            ds: Tick::from_micros(11_250),
            omega: Tick::from_micros(36),
        }
    }
}

/// A BLE peripheral: beacons every `T_a + advDelay` with
/// `advDelay ~ U[0, 10 ms]` drawn fresh per advertising event (Bluetooth
/// spec 5.0, vol. 6 B.4.4.2.2 — reference \[23\] of the paper).
///
/// The jitter is the "decorrelation mechanism" the paper's conclusion
/// highlights: it makes successive collisions between two advertisers
/// independent at the cost of a slightly longer mean interval.
pub struct BleAdvertiser {
    /// Base advertising interval `T_a`.
    pub ta: Tick,
    /// Maximum random delay added per event (spec: 10 ms).
    pub adv_delay_max: Tick,
    next: Tick,
}

impl BleAdvertiser {
    /// Standard advertiser with the spec's 10 ms advDelay.
    pub fn new(ta: Tick) -> Self {
        BleAdvertiser {
            ta,
            adv_delay_max: Tick::from_millis(10),
            next: Tick::ZERO,
        }
    }
}

impl Behavior for BleAdvertiser {
    fn next_ops_into(&mut self, after: Tick, rng: &mut dyn RngCore, out: &mut Vec<Op>) {
        if self.next < after {
            self.next = after;
        }
        // emit a handful of advertising events per pull
        for _ in 0..8 {
            out.push(Op::Tx {
                at: self.next,
                payload: 0,
            });
            let delay = Tick(rng.gen_range(0..=self.adv_delay_max.as_nanos()));
            self.next = self.next + self.ta + delay;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const OMEGA: Tick = Tick(36_000);

    #[test]
    fn validation() {
        assert!(PiProtocol::new(
            Tick::from_millis(100),
            Tick::from_millis(1000),
            Tick::from_millis(10),
            OMEGA
        )
        .is_ok());
        // window > interval
        assert!(PiProtocol::new(
            Tick::from_millis(100),
            Tick::from_millis(10),
            Tick::from_millis(20),
            OMEGA
        )
        .is_err());
        // advertising faster than the airtime
        assert!(PiProtocol::new(Tick(1000), Tick::from_millis(10), Tick(5000), OMEGA).is_err());
    }

    #[test]
    fn duty_cycles() {
        let pi = PiProtocol::new(
            Tick::from_micros(3600),
            Tick::from_millis(100),
            Tick::from_millis(10),
            OMEGA,
        )
        .unwrap();
        let dc = pi.duty_cycle();
        assert!((dc.beta - 0.01).abs() < 1e-9);
        assert!((dc.gamma - 0.1).abs() < 1e-12);
    }

    #[test]
    fn from_duty_cycles_roundtrips() {
        let pi = PiProtocol::from_duty_cycles(0.01, 0.05, Tick::from_millis(2), OMEGA).unwrap();
        let dc = pi.duty_cycle();
        assert!((dc.beta - 0.01).abs() / 0.01 < 0.01);
        assert!((dc.gamma - 0.05).abs() / 0.05 < 0.01);
    }

    #[test]
    fn optimal_parametrization_has_tiling_relation() {
        let pi = PiProtocol::optimal(0.05, 1.0, OMEGA, 1).unwrap();
        // T_a = a·T_s + d_s
        assert_eq!(pi.ta, pi.ts + pi.ds);
        let eta = pi.duty_cycle().eta(1.0);
        assert!((eta - 0.05).abs() / 0.05 < 0.02, "eta {eta}");
    }

    #[test]
    fn ble_preset_values() {
        let ble = PiProtocol::ble_general_discovery();
        assert_eq!(ble.ta, Tick::from_millis(100));
        assert_eq!(ble.ds, Tick::from_micros(11_250));
        assert!(ble.schedule().is_ok());
        assert!(ble.scanner().is_ok());
        assert!(ble.advertiser().is_ok());
    }

    #[test]
    fn ble_advertiser_jitters() {
        let mut adv = BleAdvertiser::new(Tick::from_millis(100));
        let mut rng = StdRng::seed_from_u64(3);
        let ops = adv.next_ops(Tick::ZERO, &mut rng);
        assert_eq!(ops.len(), 8);
        let mut gaps = Vec::new();
        for w in ops.windows(2) {
            let g = w[1].at() - w[0].at();
            assert!(g >= Tick::from_millis(100));
            assert!(g <= Tick::from_millis(110));
            gaps.push(g);
        }
        // jitter actually varies
        assert!(gaps.iter().any(|&g| g != gaps[0]));
    }

    #[test]
    fn ble_advertiser_respects_after() {
        let mut adv = BleAdvertiser::new(Tick::from_millis(100));
        let mut rng = StdRng::seed_from_u64(3);
        let _ = adv.next_ops(Tick::ZERO, &mut rng);
        let later = adv.next_ops(Tick::from_secs(10), &mut rng);
        assert!(later[0].at() >= Tick::from_secs(10));
    }
}
