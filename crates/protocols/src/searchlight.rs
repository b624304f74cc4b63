//! Searchlight (Bakht, Trower & Kravets, MobiCom 2012 — reference \[5\] of
//! the paper).
//!
//! Time is divided into periods of `t` slots. Each period contains an
//! *anchor* slot at position 0 and a *probe* slot whose position sweeps
//! `1, 2, …, ⌈t/2⌉` across consecutive periods (it only needs to search
//! half the period because anchor–anchor offsets are symmetric). Discovery
//! is guaranteed within `t·⌈t/2⌉` slots; the slot-domain duty cycle is
//! `2/t`. The "striped" variant permutes the probe order with a stride —
//! the worst case is unchanged, which our exact analysis confirms.

use crate::slotted::{BeaconPlacement, SlottedSchedule};
use nd_core::error::NdError;
use nd_core::schedule::{gcd, Schedule};
use nd_core::time::Tick;

/// A Searchlight node configuration.
#[derive(Clone, Debug)]
pub struct Searchlight {
    /// Period length in slots (`t ≥ 2`).
    pub t: u64,
    /// Probe stride: 1 = sequential probing, >1 = striped. Must be coprime
    /// with ⌈t/2⌉ so the probe still visits every position.
    pub stride: u64,
    /// Slot length `I`.
    pub slot: Tick,
    /// Packet airtime ω.
    pub omega: Tick,
}

impl Searchlight {
    /// Validate and build (sequential probing).
    pub fn new(t: u64, slot: Tick, omega: Tick) -> Result<Self, NdError> {
        Self::striped(t, 1, slot, omega)
    }

    /// Validate and build with a probe stride (Searchlight-Striped).
    pub fn striped(t: u64, stride: u64, slot: Tick, omega: Tick) -> Result<Self, NdError> {
        if t < 2 {
            return Err(NdError::InvalidSchedule(format!(
                "Searchlight needs t ≥ 2, got {t}"
            )));
        }
        let n_probe = t.div_ceil(2);
        if stride == 0 || gcd(stride, n_probe) != 1 {
            return Err(NdError::InvalidSchedule(format!(
                "stride {stride} must be coprime with ⌈t/2⌉ = {n_probe}"
            )));
        }
        Ok(Searchlight {
            t,
            stride,
            slot,
            omega,
        })
    }

    /// The period for a target slot-domain duty cycle (`2/t ≈ dc`).
    pub fn for_duty_cycle(dc: f64, slot: Tick, omega: Tick) -> Result<Self, NdError> {
        if !(0.0 < dc && dc < 1.0) {
            return Err(NdError::InvalidSchedule(format!(
                "duty cycle out of range: {dc}"
            )));
        }
        let t = (2.0 / dc).round().max(2.0) as u64;
        Self::new(t, slot, omega)
    }

    /// Number of distinct probe positions (`⌈t/2⌉`).
    pub fn n_probe_positions(&self) -> u64 {
        self.t.div_ceil(2)
    }

    /// Slot-domain worst case: `t·⌈t/2⌉` slots.
    pub fn worst_case_slots(&self) -> u64 {
        self.t * self.n_probe_positions()
    }

    /// Slot-domain duty cycle `2/t`.
    pub fn slot_duty_cycle(&self) -> f64 {
        2.0 / self.t as f64
    }

    /// The underlying slotted schedule over the full hyperperiod of
    /// `t·⌈t/2⌉` slots.
    pub fn slotted(&self) -> Result<SlottedSchedule, NdError> {
        let n_probe = self.n_probe_positions();
        let period = self.t * n_probe;
        let mut active = Vec::with_capacity(2 * n_probe as usize);
        for j in 0..n_probe {
            let base = j * self.t;
            let probe = 1 + (j * self.stride) % n_probe;
            active.push(base);
            active.push(base + probe);
        }
        active.sort();
        active.dedup();
        SlottedSchedule::new(
            self.slot,
            period,
            active,
            BeaconPlacement::StartEnd,
            self.omega,
        )
    }

    /// Lower to an exact schedule.
    pub fn schedule(&self) -> Result<Schedule, NdError> {
        self.slotted()?.to_schedule()
    }

    /// Lower with *overflowed* probe slots — the actual Searchlight-Striped
    /// refinement: each probe's listening window is extended by one packet
    /// airtime past the slot end, so beacons sitting exactly on a slot
    /// boundary (the Figure 5 strips that the plain lowering misses) are
    /// still caught. Costs `ω` of extra listening per probe slot.
    pub fn schedule_overflowed(&self) -> Result<Schedule, NdError> {
        use nd_core::interval::{Interval, IntervalSet};
        use nd_core::schedule::{BeaconSeq, ReceptionWindows, Window};
        let sl = self.slotted()?;
        let period = sl.period();
        let mut beacon_times = Vec::new();
        let mut windows: Vec<Interval> = Vec::new();
        for (idx, &i) in sl.active.iter().enumerate() {
            let start = self.slot * i;
            let end = self.slot * (i + 1);
            beacon_times.push(start);
            beacon_times.push(end - self.omega);
            // anchors (even positions in the active list) keep the plain
            // window; probes overflow by ω on both sides
            let is_probe = idx % 2 == 1;
            if is_probe {
                let lo = start.saturating_sub(self.omega);
                let hi = (end + self.omega).min(period);
                windows.push(Interval::new(lo, start));
                windows.push(Interval::new(start + self.omega, end - self.omega));
                windows.push(Interval::new(end, hi));
            } else {
                windows.push(Interval::new(start + self.omega, end - self.omega));
            }
        }
        beacon_times.sort();
        beacon_times.dedup();
        let beacons = BeaconSeq::new(beacon_times, period, self.omega)?;
        // carve the device's own beacon airtimes back out of the overflow
        // extensions (half-duplex realizability)
        let blank: IntervalSet = IntervalSet::from_intervals(
            beacons
                .times()
                .iter()
                .map(|&t| Interval::new(t, t + self.omega)),
        );
        let merged = IntervalSet::from_intervals(windows).subtract(&blank);
        let windows = ReceptionWindows::new(
            merged
                .intervals()
                .iter()
                .map(|iv| Window::new(iv.start, iv.measure()))
                .collect(),
            period,
        )?;
        Ok(Schedule::full(beacons, windows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OMEGA: Tick = Tick(36_000);
    const SLOT: Tick = Tick::from_millis(1);

    #[test]
    fn validation() {
        assert!(Searchlight::new(10, SLOT, OMEGA).is_ok());
        assert!(Searchlight::new(1, SLOT, OMEGA).is_err());
        // stride must be coprime with ⌈t/2⌉ = 5
        assert!(Searchlight::striped(10, 5, SLOT, OMEGA).is_err());
        assert!(Searchlight::striped(10, 3, SLOT, OMEGA).is_ok());
    }

    #[test]
    fn worst_case_and_duty_cycle() {
        let s = Searchlight::new(20, SLOT, OMEGA).unwrap();
        assert_eq!(s.worst_case_slots(), 200);
        assert_eq!(s.slot_duty_cycle(), 0.1);
        let odd = Searchlight::new(21, SLOT, OMEGA).unwrap();
        assert_eq!(odd.n_probe_positions(), 11);
        assert_eq!(odd.worst_case_slots(), 231);
    }

    #[test]
    fn probe_sweeps_every_position() {
        let s = Searchlight::new(8, SLOT, OMEGA).unwrap();
        let sl = s.slotted().unwrap();
        // anchors at multiples of 8; probes hit 1..=4 exactly once each
        let mut probes: Vec<u64> = sl
            .active
            .iter()
            .filter(|&&a| a % 8 != 0)
            .map(|&a| a % 8)
            .collect();
        probes.sort();
        assert_eq!(probes, vec![1, 2, 3, 4]);
        assert_eq!(sl.active.len(), 8);
    }

    #[test]
    fn striped_probe_is_a_permutation() {
        let s = Searchlight::striped(10, 3, SLOT, OMEGA).unwrap();
        let sl = s.slotted().unwrap();
        let mut probes: Vec<u64> = sl
            .active
            .iter()
            .filter(|&&a| a % 10 != 0)
            .map(|&a| a % 10)
            .collect();
        probes.sort();
        assert_eq!(probes, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn for_duty_cycle_inverts() {
        let s = Searchlight::for_duty_cycle(0.05, SLOT, OMEGA).unwrap();
        assert_eq!(s.t, 40);
    }

    #[test]
    fn schedule_lowering() {
        let s = Searchlight::new(6, SLOT, OMEGA).unwrap();
        let sched = s.schedule().unwrap();
        // 3 periods × 2 active slots × 2 beacons
        assert_eq!(sched.beacons.as_ref().unwrap().n_beacons(), 12);
        assert_eq!(sched.windows.as_ref().unwrap().n_windows(), 6);
    }

    #[test]
    fn overflowed_probes_listen_longer() {
        let s = Searchlight::new(6, SLOT, OMEGA).unwrap();
        let plain = s.schedule().unwrap();
        let over = s.schedule_overflowed().unwrap();
        let g_plain = plain.windows.as_ref().unwrap().gamma();
        let g_over = over.windows.as_ref().unwrap().gamma();
        assert!(g_over > g_plain, "overflow adds listening time");
        // the addition is bounded by 2ω per probe slot
        let probes = s.n_probe_positions() as f64;
        let max_extra = probes * 2.0 * OMEGA.as_nanos() as f64
            / (s.worst_case_slots() as f64 * SLOT.as_nanos() as f64);
        assert!(g_over - g_plain <= max_extra * 1.01);
    }

    #[test]
    fn overflow_shrinks_the_boundary_strips() {
        use nd_core::coverage::OverlapModel;
        // measure one-way uncovered fraction via the coverage machinery:
        // the overflowed probes catch slot-boundary beacons the plain
        // schedule misses
        let uncovered = |sched: &Schedule| {
            let b = sched.beacons.as_ref().unwrap();
            let c = sched.windows.as_ref().unwrap();
            let base = OverlapModel::Start.reception_offsets(c, OMEGA);
            let mut covered = nd_core::IntervalSet::empty();
            // T_B = T_C: all distinct images within one period of beacons
            for &t in b.times() {
                covered = covered.union(&base.shift_mod(-(t.as_nanos() as i128), c.period()));
            }
            1.0 - covered.measure().as_nanos() as f64 / c.period().as_nanos() as f64
        };
        let s = Searchlight::new(6, SLOT, OMEGA).unwrap();
        let plain = uncovered(&s.schedule().unwrap());
        let over = uncovered(&s.schedule_overflowed().unwrap());
        assert!(plain > 0.0, "plain lowering has strips ({plain})");
        assert!(
            over < plain * 0.6,
            "overflow must shrink the strips: {over} vs {plain}"
        );
    }
}
