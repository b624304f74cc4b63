//! Beacon sequences and reception-window sequences (Definitions 3.1–3.3 of
//! the paper).
//!
//! A *reception window sequence* `C` is a finite list of windows
//! `(t_i, d_i)` inside one period `T_C`; the infinite sequence `C∞` is its
//! periodic repetition. A *beacon sequence* `B` is a finite list of
//! transmission instants `τ_i` inside one period `T_B`, repeated
//! periodically (Lemma 5.2 proves that all latency/duty-cycle-optimal beacon
//! sequences are repetitive, so a periodic representation loses no
//! generality for the protocols in this repository; non-repetitive reception
//! sequences are handled by the bounds in Appendix A.1 and, operationally,
//! by the simulator's reactive behaviours).

use crate::error::NdError;
use crate::interval::{Interval, IntervalSet};
use crate::params::DutyCycle;
use crate::time::Tick;

/// One reception window: starts at `t` (relative to the period origin) and
/// lasts `d` ticks (Definition 3.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Window {
    /// Start offset within the period.
    pub t: Tick,
    /// Duration.
    pub d: Tick,
}

impl Window {
    /// Construct a window.
    pub fn new(t: Tick, d: Tick) -> Self {
        Window { t, d }
    }

    /// End offset (`t + d`).
    pub fn end(&self) -> Tick {
        self.t + self.d
    }

    /// The window as a half-open interval.
    pub fn interval(&self) -> Interval {
        Interval::new(self.t, self.end())
    }
}

/// A finite reception-window sequence `C` with period `T_C`
/// (Definition 3.1). The infinite sequence `C∞` is its periodic repetition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReceptionWindows {
    windows: Vec<Window>,
    period: Tick,
}

impl ReceptionWindows {
    /// Build and validate a reception-window sequence.
    ///
    /// Requirements:
    /// * the period is positive,
    /// * at least one window with positive duration,
    /// * windows are sorted by start, pairwise disjoint, and contained in
    ///   `[0, T_C)` (a window may not straddle the period boundary — rotate
    ///   the origin instead, cf. [`ReceptionWindows::rotated`]).
    pub fn new(windows: Vec<Window>, period: Tick) -> Result<Self, NdError> {
        if period.is_zero() {
            return Err(NdError::InvalidSchedule("period must be positive".into()));
        }
        if windows.is_empty() {
            return Err(NdError::InvalidSchedule(
                "at least one reception window required".into(),
            ));
        }
        let mut prev_end = Tick::ZERO;
        for (i, w) in windows.iter().enumerate() {
            if w.d.is_zero() {
                return Err(NdError::InvalidSchedule(format!(
                    "window {i} has zero duration"
                )));
            }
            if i > 0 && w.t < prev_end {
                return Err(NdError::InvalidSchedule(format!(
                    "window {i} overlaps or is unsorted (starts at {}, previous ends at {prev_end})",
                    w.t
                )));
            }
            if w.end() > period {
                return Err(NdError::InvalidSchedule(format!(
                    "window {i} ends at {} beyond the period {period}",
                    w.end()
                )));
            }
            prev_end = w.end();
        }
        Ok(ReceptionWindows { windows, period })
    }

    /// A sequence with a single window of length `d` starting at `t` in a
    /// period of `T_C` — the `n_C = 1` shape that Appendix A.2/A.3 prove is
    /// the most efficient one.
    pub fn single(t: Tick, d: Tick, period: Tick) -> Result<Self, NdError> {
        Self::new(vec![Window::new(t, d)], period)
    }

    /// The windows within one period, sorted by start.
    pub fn windows(&self) -> &[Window] {
        &self.windows
    }

    /// The period `T_C`.
    pub fn period(&self) -> Tick {
        self.period
    }

    /// Number of windows per period (`n_C`).
    pub fn n_windows(&self) -> usize {
        self.windows.len()
    }

    /// Total listening time per period (`Σ d_i`).
    pub fn sum_d(&self) -> Tick {
        self.windows.iter().map(|w| w.d).sum()
    }

    /// Reception duty cycle γ = Σd / T_C (Lemma 3.1).
    pub fn gamma(&self) -> f64 {
        self.sum_d().as_nanos() as f64 / self.period.as_nanos() as f64
    }

    /// The windows as a canonical [`IntervalSet`] on `[0, T_C)`.
    pub fn interval_set(&self) -> IntervalSet {
        IntervalSet::from_intervals(self.windows.iter().map(|w| w.interval()))
    }

    /// The same sequence with the period origin rotated right by `delta`
    /// (i.e. every window start becomes `(t + delta) mod T_C`). Windows that
    /// would straddle the boundary are split into two.
    pub fn rotated(&self, delta: Tick) -> ReceptionWindows {
        let set = self
            .interval_set()
            .shift_mod(delta.as_nanos() as i128, self.period);
        let windows = set
            .intervals()
            .iter()
            .map(|iv| Window::new(iv.start, iv.measure()))
            .collect();
        // set is canonical and inside [0, period), so this cannot fail
        ReceptionWindows::new(windows, self.period).expect("rotation preserves validity")
    }

    /// Whether the instant `t` (absolute time, window sequence starting at
    /// absolute 0) falls inside some reception window.
    pub fn contains_instant(&self, t: Tick) -> bool {
        let phase = t.rem_euclid(self.period);
        self.windows.iter().any(|w| w.interval().contains(phase))
    }

    /// Iterate over absolute window intervals that intersect
    /// `[from, until)`, assuming the sequence starts at absolute time 0.
    pub fn instances_in(&self, from: Tick, until: Tick) -> Vec<Interval> {
        let mut out = Vec::new();
        self.for_each_instance_in(from, until, |iv| out.push(iv));
        out
    }

    /// Visit every window interval intersecting `[from, until)` in
    /// nondecreasing start order (clipped to the range), without
    /// allocating — the simulator refill path calls this on every batch.
    pub fn for_each_instance_in(&self, from: Tick, until: Tick, mut f: impl FnMut(Interval)) {
        if from >= until {
            return;
        }
        let first_cycle = from.as_nanos() / self.period.as_nanos();
        let mut cycle = first_cycle.saturating_sub(1);
        loop {
            let base = Tick(cycle * self.period.as_nanos());
            if base >= until {
                break;
            }
            for w in &self.windows {
                let iv = Interval::new(base + w.t, base + w.end());
                if iv.end > from && iv.start < until {
                    f(Interval::new(iv.start.max(from), iv.end.min(until)));
                }
            }
            cycle += 1;
        }
    }
}

/// A finite beacon sequence `B` with period `T_B` (Definition 3.2,
/// restricted to repetitive sequences per Lemma 5.2). Beacons are sent at
/// the instants `times[i] + k·T_B` for all `k ≥ 0`, each with airtime ω.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BeaconSeq {
    times: Vec<Tick>,
    period: Tick,
    omega: Tick,
}

impl BeaconSeq {
    /// Build and validate a beacon sequence.
    ///
    /// Requirements: positive period and airtime, at least one beacon,
    /// strictly increasing transmission instants inside `[0, T_B)`, and
    /// consecutive transmissions (including across the period wrap) must not
    /// overlap — a half-duplex radio sends one packet at a time.
    pub fn new(times: Vec<Tick>, period: Tick, omega: Tick) -> Result<Self, NdError> {
        if period.is_zero() {
            return Err(NdError::InvalidSchedule("period must be positive".into()));
        }
        if omega.is_zero() {
            return Err(NdError::InvalidSchedule("airtime must be positive".into()));
        }
        if times.is_empty() {
            return Err(NdError::InvalidSchedule(
                "at least one beacon required".into(),
            ));
        }
        for (i, &t) in times.iter().enumerate() {
            if t >= period {
                return Err(NdError::InvalidSchedule(format!(
                    "beacon {i} at {t} is outside the period {period}"
                )));
            }
            if i > 0 && t < times[i - 1] + omega {
                return Err(NdError::InvalidSchedule(format!(
                    "beacons {} and {i} overlap in time",
                    i - 1
                )));
            }
        }
        // wrap-around: last beacon of one instance vs first of the next
        if !times.is_empty() {
            let last = *times.last().unwrap();
            let first_next = times[0] + period;
            if last + omega > first_next {
                return Err(NdError::InvalidSchedule(
                    "last beacon overlaps the first beacon of the next period".into(),
                ));
            }
        }
        Ok(BeaconSeq {
            times,
            period,
            omega,
        })
    }

    /// A sequence with beacons at a uniform gap λ = `period / count`
    /// starting at `phase`. The period must be divisible by `count`.
    pub fn uniform(count: u64, period: Tick, omega: Tick, phase: Tick) -> Result<Self, NdError> {
        if count == 0 {
            return Err(NdError::InvalidSchedule(
                "at least one beacon required".into(),
            ));
        }
        if !period.as_nanos().is_multiple_of(count) {
            return Err(NdError::InvalidSchedule(format!(
                "period {period} not divisible by beacon count {count}"
            )));
        }
        let gap = period / count;
        let times = (0..count)
            .map(|i| (phase + gap * i).rem_euclid(period))
            .collect::<Vec<_>>();
        let mut times = times;
        times.sort();
        Self::new(times, period, omega)
    }

    /// Transmission instants within one period (sorted, relative to the
    /// period origin).
    pub fn times(&self) -> &[Tick] {
        &self.times
    }

    /// The period `T_B`.
    pub fn period(&self) -> Tick {
        self.period
    }

    /// Packet airtime ω.
    pub fn omega(&self) -> Tick {
        self.omega
    }

    /// Number of beacons per period (`m_B`).
    pub fn n_beacons(&self) -> usize {
        self.times.len()
    }

    /// Transmission duty cycle β = m_B·ω / T_B (Lemma 3.1). This equals the
    /// channel utilization.
    pub fn beta(&self) -> f64 {
        (self.times.len() as u64 * self.omega.as_nanos()) as f64 / self.period.as_nanos() as f64
    }

    /// Mean beacon gap λ̄ = T_B / m_B.
    pub fn mean_gap(&self) -> Tick {
        self.period / self.times.len() as u64
    }

    /// The gaps λ_i = τ_{i+1} − τ_i between consecutive beacons, including
    /// the wrap-around gap from the last beacon back to the first of the
    /// next period. Their sum is exactly `T_B`.
    pub fn gaps(&self) -> Vec<Tick> {
        let n = self.times.len();
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            if i + 1 < n {
                out.push(self.times[i + 1] - self.times[i]);
            } else {
                out.push(self.times[0] + self.period - self.times[i]);
            }
        }
        out
    }

    /// The largest gap between consecutive beacons (used for worst-case
    /// "came into range just after a beacon" reasoning).
    pub fn max_gap(&self) -> Tick {
        self.gaps().into_iter().max().unwrap()
    }

    /// All transmission instants in absolute time within `[from, until)`,
    /// assuming the sequence starts at absolute time 0.
    pub fn instants_in(&self, from: Tick, until: Tick) -> Vec<Tick> {
        let mut out = Vec::new();
        self.for_each_instant_in(from, until, |t| out.push(t));
        out
    }

    /// Visit every transmission instant in `[from, until)` in increasing
    /// order without allocating — the simulator refill path calls this on
    /// every batch.
    pub fn for_each_instant_in(&self, from: Tick, until: Tick, mut f: impl FnMut(Tick)) {
        if from >= until {
            return;
        }
        let mut cycle = (from.as_nanos() / self.period.as_nanos()).saturating_sub(1);
        loop {
            let base = Tick(cycle * self.period.as_nanos());
            if base >= until {
                break;
            }
            for &t in &self.times {
                let inst = base + t;
                if inst >= from && inst < until {
                    f(inst);
                }
            }
            cycle += 1;
        }
    }

    /// The first `n` transmission instants at/after absolute time 0, as
    /// offsets from the first instant (i.e. `τ_i − τ_1` for `i = 1..=n`).
    /// This is the sequence `B'` of Section 4 in canonical form.
    pub fn relative_instants(&self, n: usize) -> Vec<Tick> {
        let mut out = Vec::with_capacity(n);
        let first = self.times[0];
        let mut cycle = 0u64;
        'outer: loop {
            for &t in &self.times {
                let inst = Tick(cycle * self.period.as_nanos()) + t;
                out.push(inst - first);
                if out.len() == n {
                    break 'outer;
                }
            }
            cycle += 1;
        }
        out
    }

    /// The same sequence with all instants shifted right by `delta` modulo
    /// the period (re-sorted).
    pub fn rotated(&self, delta: Tick) -> BeaconSeq {
        let mut times: Vec<Tick> = self
            .times
            .iter()
            .map(|&t| (t + delta).rem_euclid(self.period))
            .collect();
        times.sort();
        BeaconSeq::new(times, self.period, self.omega).expect("rotation preserves validity")
    }
}

/// A full ND protocol on one device: a beacon sequence plus a
/// reception-window sequence (Definition 3.3). The two may have different
/// periods.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schedule {
    /// The transmission side (`B∞`). `None` for pure scanners.
    pub beacons: Option<BeaconSeq>,
    /// The reception side (`C∞`). `None` for pure beacons/advertisers.
    pub windows: Option<ReceptionWindows>,
}

impl Schedule {
    /// A device that both transmits and listens.
    pub fn full(beacons: BeaconSeq, windows: ReceptionWindows) -> Self {
        Schedule {
            beacons: Some(beacons),
            windows: Some(windows),
        }
    }

    /// A transmit-only device (e.g. the beaconing side of Theorem 5.4).
    pub fn tx_only(beacons: BeaconSeq) -> Self {
        Schedule {
            beacons: Some(beacons),
            windows: None,
        }
    }

    /// A receive-only device (e.g. the scanning side of Theorem 5.4).
    pub fn rx_only(windows: ReceptionWindows) -> Self {
        Schedule {
            beacons: None,
            windows: Some(windows),
        }
    }

    /// The duty-cycle pair (β, γ) of this schedule (Lemma 3.1).
    pub fn duty_cycle(&self) -> DutyCycle {
        DutyCycle {
            beta: self.beacons.as_ref().map_or(0.0, |b| b.beta()),
            gamma: self.windows.as_ref().map_or(0.0, |c| c.gamma()),
        }
    }

    /// Total duty cycle η = γ + αβ.
    pub fn eta(&self, alpha: f64) -> f64 {
        self.duty_cycle().eta(alpha)
    }

    /// The longer of the two periods, `max(T_B, T_C)` (1 ns for a
    /// schedule with neither side): the span a random initial phase is
    /// drawn from, and the chunk a simulated device emits at a time. It
    /// equals [`Schedule::hyperperiod`] only when one period divides the
    /// other.
    pub fn period(&self) -> Tick {
        let tb = self.beacons.as_ref().map_or(Tick::ZERO, |b| b.period());
        let tc = self.windows.as_ref().map_or(Tick::ZERO, |c| c.period());
        tb.max(tc).max(Tick(1))
    }

    /// The span after which the whole schedule repeats, `lcm(T_B, T_C)`
    /// (one side's period for a one-sided schedule, 1 ns for neither);
    /// `None` if the lcm overflows a [`Tick`].
    pub fn hyperperiod(&self) -> Option<Tick> {
        let tb = self.beacons.as_ref().map_or(1, |b| b.period().as_nanos());
        let tc = self.windows.as_ref().map_or(1, |c| c.period().as_nanos());
        checked_lcm(tb, tc).map(Tick)
    }

    /// Fraction of reception time lost to the device's own transmissions
    /// overlapping its own reception windows, over one hyper-period
    /// (Appendix A.5). Returns 0 for tx-only or rx-only schedules.
    ///
    /// `guard` is the per-overlap blanked time in excess of the packet
    /// itself (`d_oTxRx + d_oRxTx` for a non-ideal radio).
    pub fn self_blocking_fraction(&self, guard: Tick) -> f64 {
        let (Some(b), Some(c)) = (&self.beacons, &self.windows) else {
            return 0.0;
        };
        let hyper = lcm(b.period().as_nanos(), c.period().as_nanos());
        let horizon = Tick(hyper);
        let windows = c.instances_in(Tick::ZERO, horizon);
        let mut blocked = Tick::ZERO;
        for tx in b.instants_in(Tick::ZERO, horizon) {
            let tx_iv = Interval::new(tx.saturating_sub(guard), tx + b.omega() + guard);
            for w in &windows {
                blocked += w.intersect(&tx_iv).measure();
            }
        }
        let total: Tick = windows.iter().map(|w| w.measure()).sum();
        if total.is_zero() {
            0.0
        } else {
            blocked.as_nanos() as f64 / total.as_nanos() as f64
        }
    }
}

/// Least common multiple of two nanosecond counts.
pub(crate) fn lcm(a: u64, b: u64) -> u64 {
    a / gcd(a, b) * b
}

/// Least common multiple of two positive counts, `None` on overflow.
pub fn checked_lcm(a: u64, b: u64) -> Option<u64> {
    (a / gcd(a, b)).checked_mul(b)
}

/// Greatest common divisor.
pub fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_windows() -> ReceptionWindows {
        // Figure 1a-style: three windows per period of 100 µs
        ReceptionWindows::new(
            vec![
                Window::new(Tick::from_micros(0), Tick::from_micros(5)),
                Window::new(Tick::from_micros(30), Tick::from_micros(10)),
                Window::new(Tick::from_micros(70), Tick::from_micros(5)),
            ],
            Tick::from_micros(100),
        )
        .unwrap()
    }

    #[test]
    fn window_validation_rejects_bad_inputs() {
        let p = Tick::from_micros(100);
        assert!(ReceptionWindows::new(vec![], p).is_err());
        assert!(ReceptionWindows::new(vec![Window::new(Tick::ZERO, Tick::ZERO)], p).is_err());
        // overlap
        assert!(ReceptionWindows::new(
            vec![
                Window::new(Tick::from_micros(0), Tick::from_micros(20)),
                Window::new(Tick::from_micros(10), Tick::from_micros(5)),
            ],
            p
        )
        .is_err());
        // beyond the period
        assert!(ReceptionWindows::new(
            vec![Window::new(Tick::from_micros(95), Tick::from_micros(10))],
            p
        )
        .is_err());
        // zero period
        assert!(ReceptionWindows::single(Tick::ZERO, Tick(1), Tick::ZERO).is_err());
    }

    #[test]
    fn gamma_is_sum_d_over_period() {
        let c = simple_windows();
        assert_eq!(c.sum_d(), Tick::from_micros(20));
        assert!((c.gamma() - 0.2).abs() < 1e-12);
        assert_eq!(c.n_windows(), 3);
    }

    #[test]
    fn rotation_preserves_gamma_and_wraps() {
        let c = simple_windows();
        let r = c.rotated(Tick::from_micros(28));
        assert!((r.gamma() - c.gamma()).abs() < 1e-12);
        // the window at 70 (length 5) moves to 98 and is split: [98,100) + [0,3)
        assert!(r.windows().iter().any(|w| w.t == Tick::from_micros(98)));
        assert!(r.windows().iter().any(|w| w.t == Tick::ZERO));
    }

    #[test]
    fn contains_instant_across_periods() {
        let c = simple_windows();
        assert!(c.contains_instant(Tick::from_micros(32)));
        assert!(c.contains_instant(Tick::from_micros(132))); // next period
        assert!(!c.contains_instant(Tick::from_micros(50)));
        assert!(!c.contains_instant(Tick::from_micros(75))); // window ends at 75
        assert!(c.contains_instant(Tick::from_micros(74)));
    }

    #[test]
    fn instances_in_clips_to_range() {
        let c = simple_windows();
        let ivs = c.instances_in(Tick::from_micros(32), Tick::from_micros(72));
        // [32,40) (clipped), [70,72) (clipped)
        assert_eq!(ivs.len(), 2);
        assert_eq!(
            ivs[0],
            Interval::new(Tick::from_micros(32), Tick::from_micros(40))
        );
        assert_eq!(
            ivs[1],
            Interval::new(Tick::from_micros(70), Tick::from_micros(72))
        );
    }

    #[test]
    fn beacon_validation() {
        let p = Tick::from_micros(100);
        let w = Tick::from_micros(4);
        assert!(BeaconSeq::new(vec![], p, w).is_err());
        // overlapping beacons
        assert!(BeaconSeq::new(vec![Tick::from_micros(0), Tick::from_micros(2)], p, w).is_err());
        // outside period
        assert!(BeaconSeq::new(vec![Tick::from_micros(100)], p, w).is_err());
        // wrap-around overlap: beacon at 98 (ends 102) vs next period's beacon at 100+0
        assert!(BeaconSeq::new(vec![Tick::from_micros(0), Tick::from_micros(98)], p, w).is_err());
        // valid
        assert!(BeaconSeq::new(vec![Tick::from_micros(0), Tick::from_micros(50)], p, w).is_ok());
    }

    #[test]
    fn uniform_beacons() {
        let b = BeaconSeq::uniform(4, Tick::from_micros(100), Tick::from_micros(4), Tick::ZERO)
            .unwrap();
        assert_eq!(b.n_beacons(), 4);
        assert_eq!(b.mean_gap(), Tick::from_micros(25));
        assert_eq!(b.gaps(), vec![Tick::from_micros(25); 4]);
        assert_eq!(b.max_gap(), Tick::from_micros(25));
        assert!((b.beta() - 0.16).abs() < 1e-12);
        // phase rotation keeps count and beta
        let b2 = BeaconSeq::uniform(
            4,
            Tick::from_micros(100),
            Tick::from_micros(4),
            Tick::from_micros(7),
        )
        .unwrap();
        assert_eq!(b2.times()[0], Tick::from_micros(7));
        assert!((b2.beta() - b.beta()).abs() < 1e-12);
    }

    #[test]
    fn uniform_rejects_non_dividing_count() {
        assert!(BeaconSeq::uniform(3, Tick(100), Tick(1), Tick::ZERO).is_err());
    }

    #[test]
    fn gaps_sum_to_period() {
        let b = BeaconSeq::new(vec![Tick(5), Tick(20), Tick(90)], Tick(120), Tick(2)).unwrap();
        let gaps = b.gaps();
        assert_eq!(gaps, vec![Tick(15), Tick(70), Tick(35)]);
        assert_eq!(gaps.into_iter().sum::<Tick>(), b.period());
        assert_eq!(b.max_gap(), Tick(70));
    }

    #[test]
    fn instants_and_relative_instants() {
        let b = BeaconSeq::new(vec![Tick(10), Tick(60)], Tick(100), Tick(2)).unwrap();
        assert_eq!(
            b.instants_in(Tick(0), Tick(250)),
            vec![Tick(10), Tick(60), Tick(110), Tick(160), Tick(210)]
        );
        assert_eq!(
            b.relative_instants(4),
            vec![Tick(0), Tick(50), Tick(100), Tick(150)]
        );
        // from mid-stream
        assert_eq!(
            b.instants_in(Tick(60), Tick(161)),
            vec![Tick(60), Tick(110), Tick(160)]
        );
    }

    #[test]
    fn schedule_duty_cycle() {
        let b = BeaconSeq::uniform(2, Tick::from_micros(100), Tick::from_micros(4), Tick::ZERO)
            .unwrap();
        let c = simple_windows();
        let s = Schedule::full(b, c);
        let dc = s.duty_cycle();
        assert!((dc.beta - 0.08).abs() < 1e-12);
        assert!((dc.gamma - 0.2).abs() < 1e-12);
        assert!((s.eta(1.0) - 0.28).abs() < 1e-12);
        // tx-only / rx-only
        let s = Schedule::tx_only(
            BeaconSeq::uniform(1, Tick::from_micros(100), Tick::from_micros(4), Tick::ZERO)
                .unwrap(),
        );
        assert_eq!(s.duty_cycle().gamma, 0.0);
    }

    #[test]
    fn period_is_the_longer_side() {
        let b = BeaconSeq::uniform(1, Tick::from_micros(300), Tick::from_micros(4), Tick::ZERO)
            .unwrap();
        let c = simple_windows();
        assert_eq!(
            Schedule::full(b.clone(), c.clone()).period(),
            Tick::from_micros(300)
        );
        assert_eq!(Schedule::tx_only(b).period(), Tick::from_micros(300));
        assert_eq!(Schedule::rx_only(c).period(), Tick::from_micros(100));
        let neither = Schedule {
            beacons: None,
            windows: None,
        };
        assert_eq!(neither.period(), Tick(1));
    }

    #[test]
    fn self_blocking_counts_overlaps() {
        // beacon at 32 µs (ω = 4 µs) lands inside the window [30,40) µs
        let b = BeaconSeq::new(
            vec![Tick::from_micros(32)],
            Tick::from_micros(100),
            Tick::from_micros(4),
        )
        .unwrap();
        let s = Schedule::full(b, simple_windows());
        // ideal radio: exactly the 4 µs of airtime are blanked out of 20 µs
        let f = s.self_blocking_fraction(Tick::ZERO);
        assert!((f - 4.0 / 20.0).abs() < 1e-12);
        // with a guard the blanked time grows
        let f2 = s.self_blocking_fraction(Tick::from_micros(2));
        assert!(f2 > f);
    }

    #[test]
    fn gcd_lcm() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(lcm(4, 6), 12);
        assert_eq!(gcd(7, 13), 1);
        assert_eq!(lcm(7, 13), 91);
        assert_eq!(checked_lcm(4, 6), Some(12));
        assert_eq!(checked_lcm(u64::MAX - 1, u64::MAX), None);
    }
}
