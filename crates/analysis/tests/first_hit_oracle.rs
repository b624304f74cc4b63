//! Property suite: the first-hit kernel against a per-phase oracle.
//!
//! The oracle is the straightforward reading of Section 4: for every
//! starting beacon it expands a fresh coverage map beacon by beacon (until
//! the period is covered, the union saturates at the residue-fold bound,
//! or the distinct images run out), sweeps it with
//! `CoverageMap::first_hit_profile`, and folds the per-phase profiles into
//! the one-way results and the latency distribution. The kernel must agree
//! with it bit for bit — every `CoverageCase`/`WorstCase` field, the
//! distribution's mean and quantiles (from q = 1e-9 to 0.999999, against
//! the oracle's 80-step bisection on the plain-scan CDF) — and fail with
//! the same errors.
//!
//! Cases: random slotted and slotless pairs, Disco prime pairs with
//! different periods, `optimal::unidirectional` tilings, the slotted
//! registry protocols as the exact backend builds them, all three overlap
//! models, and small beacon budgets. `PROPTEST_CASES` raises the case
//! count.

use nd_analysis::{
    one_way_coverage, one_way_worst_case, two_way_worst_case, ultimate_covered_measure,
    AnalysisConfig, CoverageCase, FirstHits, LatencyDistribution, WorstCase,
};
use nd_core::coverage::{CoverageMap, OverlapModel};
use nd_core::error::NdError;
use nd_core::interval::IntervalSet;
use nd_core::schedule::{BeaconSeq, ReceptionWindows, Schedule, Window};
use nd_core::time::Tick;
use nd_protocols::optimal::{self, OptimalParams};
use nd_protocols::{schedule_for_selector, BeaconPlacement, Disco, SlottedSchedule};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// the oracle: one expansion and one coverage-map sweep per phase
// ---------------------------------------------------------------------------

mod oracle {
    use super::*;

    pub struct PhaseProfile {
        pub worst: Option<Tick>,
        pub mean_covered: f64,
        pub uncovered_fraction: f64,
        pub n_beacons: usize,
        pub distribution: Vec<(Tick, f64)>,
    }

    fn lcm(a: u64, b: u64) -> Option<u64> {
        let (mut x, mut y) = (a, b);
        while y != 0 {
            (x, y) = (y, x % y);
        }
        (a / x).checked_mul(b)
    }

    /// Expand from beacon `k` and sweep the coverage map; `Err(true)` is
    /// budget exhaustion.
    fn phase_profile(
        beacons: &BeaconSeq,
        windows: &ReceptionWindows,
        k: usize,
        ultimate: Tick,
        cfg: &AnalysisConfig,
    ) -> Result<PhaseProfile, ()> {
        let period_c = windows.period();
        let base = cfg.model.reception_offsets(windows, cfg.omega);
        let m_b = beacons.n_beacons();
        let times = beacons.times();
        let t_k = times[k];
        let distinct_budget = lcm(beacons.period().as_nanos(), period_c.as_nanos())
            .map(|l| (l / beacons.period().as_nanos()).saturating_mul(m_b as u64))
            .unwrap_or(u64::MAX);
        let mut rel = Vec::new();
        let mut covered = IntervalSet::empty();
        let mut n = 0usize;
        while !covered.covers(period_c) {
            if n >= cfg.max_beacons {
                return Err(());
            }
            if n as u64 >= distinct_budget {
                break;
            }
            let cycle = (k + n) / m_b;
            let idx = (k + n) % m_b;
            let abs = times[idx] + beacons.period() * cycle as u64;
            let r = abs - t_k;
            covered = covered.union(&base.shift_mod(-(r.as_nanos() as i128), period_c));
            rel.push(r);
            n += 1;
            if covered.measure() >= ultimate {
                break;
            }
        }
        let profile = CoverageMap::build(&rel, windows, cfg.omega, cfg.model).first_hit_profile();
        let uncovered = profile.uncovered_measure().as_nanos() as f64 / period_c.as_nanos() as f64;
        let distribution = profile.distribution();
        let mean_covered = if uncovered == 0.0 {
            profile.mean().unwrap_or(f64::NAN)
        } else {
            let mut acc = 0.0;
            let mut mass = 0.0;
            for &(d, p) in &distribution {
                acc += d.as_secs_f64() * p;
                mass += p;
            }
            if mass > 0.0 {
                acc / mass
            } else {
                f64::NAN
            }
        };
        Ok(PhaseProfile {
            worst: profile
                .worst()
                .or_else(|| distribution.last().map(|&(d, _)| d)),
            mean_covered,
            uncovered_fraction: uncovered,
            n_beacons: n,
            distribution,
        })
    }

    /// Every analyzed phase with the gap before it, or which error the
    /// expansion hit (`true`: budget, `false`: no reception).
    fn phases(
        beacons: &BeaconSeq,
        windows: &ReceptionWindows,
        cfg: &AnalysisConfig,
    ) -> Result<(bool, Vec<(Tick, PhaseProfile)>), bool> {
        let base = cfg.model.reception_offsets(windows, cfg.omega);
        if base.is_empty() {
            return Err(false);
        }
        let ultimate = ultimate_covered_measure(&base, beacons, windows.period());
        let gaps = beacons.gaps();
        let uniform = gaps.iter().all(|&g| g == gaps[0]);
        let m_b = beacons.n_beacons();
        let starts: Vec<usize> = if uniform { vec![0] } else { (0..m_b).collect() };
        let mut out = Vec::new();
        for k in starts {
            let gap = gaps[(k + m_b - 1) % m_b];
            out.push((
                gap,
                phase_profile(beacons, windows, k, ultimate, cfg).map_err(|_| true)?,
            ));
        }
        Ok((uniform, out))
    }

    pub fn coverage(
        beacons: &BeaconSeq,
        windows: &ReceptionWindows,
        cfg: &AnalysisConfig,
    ) -> Result<CoverageCase, NdError> {
        let (uniform, phases) = phases(beacons, windows, cfg).map_err(|budget| {
            NdError::AnalysisFailed(if budget {
                format!(
                    "coverage still growing after {} beacons — raise max_beacons",
                    cfg.max_beacons
                )
            } else {
                "reception windows admit no successful packet under this model".into()
            })
        })?;
        let m_b = beacons.n_beacons();
        let mut worst = Tick::ZERO;
        let mut worst_l_star = Tick::ZERO;
        let mut beacons_needed = 0usize;
        let mut mean_acc = 0.0;
        let mut uncovered_acc = 0.0;
        for (prev_gap, profile) in phases {
            if let Some(l_star) = profile.worst {
                worst_l_star = worst_l_star.max(l_star);
                worst = worst.max(prev_gap + l_star);
            }
            beacons_needed = beacons_needed.max(profile.n_beacons);
            let lam = prev_gap.as_secs_f64();
            let weight = if uniform { m_b as f64 } else { 1.0 };
            mean_acc += weight * (lam * lam / 2.0 + lam * profile.mean_covered);
            uncovered_acc += weight * lam * profile.uncovered_fraction;
        }
        let t_b = beacons.period().as_secs_f64();
        Ok(CoverageCase {
            worst_covered: worst,
            packet_to_packet: worst_l_star,
            undiscovered_probability: uncovered_acc / t_b,
            mean_covered: mean_acc / t_b,
            beacons_needed,
        })
    }

    pub fn worst_case(
        beacons: &BeaconSeq,
        windows: &ReceptionWindows,
        cfg: &AnalysisConfig,
    ) -> Result<WorstCase, NdError> {
        let c = coverage(beacons, windows, cfg)?;
        if !c.is_deterministic() {
            return Err(NdError::AnalysisFailed(format!(
                "not deterministic: {:.4} % of offsets are never covered",
                c.undiscovered_probability * 100.0
            )));
        }
        Ok(WorstCase {
            latency: c.worst_covered,
            packet_to_packet: c.packet_to_packet,
            mean: c.mean_covered,
            beacons_needed: c.beacons_needed,
        })
    }

    pub fn two_way(e: &Schedule, f: &Schedule, cfg: &AnalysisConfig) -> Result<Tick, NdError> {
        let missing = |what: &str| NdError::AnalysisFailed(format!("device {what}"));
        let be = e
            .beacons
            .as_ref()
            .ok_or_else(|| missing("E never transmits"))?;
        let cf = f
            .windows
            .as_ref()
            .ok_or_else(|| missing("F never listens"))?;
        let bf = f
            .beacons
            .as_ref()
            .ok_or_else(|| missing("F never transmits"))?;
        let ce = e
            .windows
            .as_ref()
            .ok_or_else(|| missing("E never listens"))?;
        let one = worst_case(be, cf, cfg)?;
        let other = worst_case(bf, ce, cfg)?;
        Ok(one.latency.max(other.latency))
    }

    /// One arrival gap: its weight, its length, the first-hit profile
    /// `(l*, probability)` and the undiscovered probability.
    type Component = (f64, f64, Vec<(f64, f64)>, f64);

    /// The mixture of uniform waits and first-hit profiles, with the
    /// closed-form CDF and the bisection quantile of `LatencyDistribution`.
    pub struct Distribution {
        components: Vec<Component>,
        worst: Option<Tick>,
    }

    impl Distribution {
        pub fn build(
            beacons: &BeaconSeq,
            windows: &ReceptionWindows,
            cfg: &AnalysisConfig,
            allow_partial: bool,
        ) -> Result<Self, NdError> {
            let (uniform, phases) = phases(beacons, windows, cfg).map_err(|budget| {
                NdError::AnalysisFailed(if budget {
                    "beacon budget exhausted".into()
                } else {
                    "windows admit no reception under this model".into()
                })
            })?;
            let t_b = beacons.period().as_secs_f64();
            let mut components = Vec::new();
            let mut worst = Tick::ZERO;
            let mut any_uncovered = false;
            for (gap, profile) in phases {
                if profile.uncovered_fraction > 0.0 {
                    any_uncovered = true;
                }
                if let Some(&(w, _)) = profile.distribution.last() {
                    worst = worst.max(gap + w);
                }
                let weight = if uniform {
                    1.0
                } else {
                    gap.as_secs_f64() / t_b
                };
                components.push((
                    weight,
                    gap.as_secs_f64(),
                    profile
                        .distribution
                        .iter()
                        .map(|&(d, p)| (d.as_secs_f64(), p))
                        .collect(),
                    profile.uncovered_fraction,
                ));
            }
            if any_uncovered && !allow_partial {
                return Err(NdError::AnalysisFailed(
                    "schedule leaves offsets permanently uncovered".into(),
                ));
            }
            Ok(Distribution {
                components,
                worst: if any_uncovered { None } else { Some(worst) },
            })
        }

        fn cdf(&self, t: f64) -> f64 {
            if t <= 0.0 {
                return 0.0;
            }
            let mut acc = 0.0;
            for (weight, gap, profile, _) in &self.components {
                let mut comp = 0.0;
                for &(l, p) in profile {
                    comp += p * ((t - l) / gap).clamp(0.0, 1.0);
                }
                acc += weight * comp;
            }
            acc
        }

        pub fn undiscovered_probability(&self) -> f64 {
            self.components.iter().map(|c| c.0 * c.3).sum()
        }

        pub fn mean(&self) -> f64 {
            let mut acc = 0.0;
            let mut mass = 0.0;
            for (weight, gap, profile, _) in &self.components {
                for &(l, p) in profile {
                    acc += weight * p * (l + gap / 2.0);
                    mass += weight * p;
                }
            }
            acc / mass
        }

        pub fn quantile(&self, q: f64) -> f64 {
            let target = q * (1.0 - self.undiscovered_probability());
            let mut lo = 0.0;
            let mut hi = self
                .worst
                .map(|w| w.as_secs_f64())
                .unwrap_or_else(|| self.mean() * 64.0);
            while self.cdf(hi) < target {
                hi *= 2.0;
            }
            for _ in 0..80 {
                let mid = 0.5 * (lo + hi);
                if self.cdf(mid) < target {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            0.5 * (lo + hi)
        }

        pub fn worst(&self) -> Option<Tick> {
            self.worst
        }
    }
}

// ---------------------------------------------------------------------------
// comparison
// ---------------------------------------------------------------------------

fn coverage_bits(c: &CoverageCase) -> (Tick, Tick, u64, u64, usize) {
    (
        c.worst_covered,
        c.packet_to_packet,
        c.undiscovered_probability.to_bits(),
        c.mean_covered.to_bits(),
        c.beacons_needed,
    )
}

fn worst_bits(w: &WorstCase) -> (Tick, Tick, u64, usize) {
    (
        w.latency,
        w.packet_to_packet,
        w.mean.to_bits(),
        w.beacons_needed,
    )
}

fn same<T: PartialEq + std::fmt::Debug, U>(
    ours: Result<U, NdError>,
    theirs: Result<U, NdError>,
    key: impl Fn(&U) -> T,
    what: &str,
) {
    match (ours, theirs) {
        (Ok(a), Ok(b)) => assert_eq!(key(&a), key(&b), "{what}"),
        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{what}"),
        (Ok(a), Err(e)) => panic!("{what}: kernel {:?}, oracle failed: {e}", key(&a)),
        (Err(e), Ok(b)) => panic!("{what}: kernel failed: {e}, oracle {:?}", key(&b)),
    }
}

/// The quantiles compared: both tails as well as the backend's three.
const QS: [f64; 6] = [1e-9, 0.001, 0.5, 0.95, 0.99, 0.999999];

/// Mean, the quantiles at `QS`, undiscovered mass and worst case, as bits.
fn dist_key(
    mean: f64,
    quantile: impl Fn(f64) -> f64,
    undiscovered: f64,
    worst: Option<Tick>,
) -> Vec<u64> {
    let quantiles = QS.iter().map(|&q| quantile(q).to_bits());
    std::iter::once(mean.to_bits())
        .chain(quantiles)
        .chain([
            undiscovered.to_bits(),
            worst.map_or(u64::MAX, |w| w.as_nanos()),
        ])
        .collect()
}

fn dist_bits(d: &LatencyDistribution) -> Vec<u64> {
    dist_key(
        d.mean(),
        |q| d.quantile(q),
        d.undiscovered_probability(),
        d.worst(),
    )
}

fn oracle_dist_bits(d: &oracle::Distribution) -> Vec<u64> {
    dist_key(
        d.mean(),
        |q| d.quantile(q),
        d.undiscovered_probability(),
        d.worst(),
    )
}

/// Assert the kernel and the oracle agree on every one-way view.
fn agree(beacons: &BeaconSeq, windows: &ReceptionWindows, cfg: &AnalysisConfig) {
    let ctx = format!(
        "beacons {:?} / {} vs windows {:?} / {}, {:?}, max_beacons {}",
        beacons.times(),
        beacons.period(),
        windows.windows(),
        windows.period(),
        cfg.model,
        cfg.max_beacons
    );
    same(
        one_way_coverage(beacons, windows, cfg),
        oracle::coverage(beacons, windows, cfg),
        coverage_bits,
        &format!("coverage: {ctx}"),
    );
    same(
        one_way_worst_case(beacons, windows, cfg),
        oracle::worst_case(beacons, windows, cfg),
        worst_bits,
        &format!("worst case: {ctx}"),
    );
    for partial in [true, false] {
        let ours =
            LatencyDistribution::build(beacons, windows, cfg, partial).map(|d| dist_bits(&d));
        let theirs = oracle::Distribution::build(beacons, windows, cfg, partial)
            .map(|d| oracle_dist_bits(&d));
        same(
            ours,
            theirs,
            |b| b.clone(),
            &format!("distribution (partial {partial}): {ctx}"),
        );
    }
}

// ---------------------------------------------------------------------------
// generators
// ---------------------------------------------------------------------------

fn model(i: u64) -> OverlapModel {
    [
        OverlapModel::Start,
        OverlapModel::AnyOverlap,
        OverlapModel::FullPacket,
    ][i as usize % 3]
}

/// The analysis options of a case: the overlap model `model_index`, and
/// a beacon budget chosen by `budget` — one case in four small enough to
/// run out, one in four on the boundary of what the oracle needs for
/// `beacons` against `windows` (one less, exactly, one more), the rest
/// generous.
fn config(
    beacons: &BeaconSeq,
    windows: &ReceptionWindows,
    omega: Tick,
    model_index: u64,
    budget: u64,
) -> AnalysisConfig {
    let mut cfg = AnalysisConfig {
        omega,
        model: model(model_index),
        max_beacons: 20_000,
    };
    if budget < 16 {
        cfg.max_beacons = budget as usize + 1;
    } else if budget < 32 {
        if let Ok(c) = oracle::coverage(beacons, windows, &cfg) {
            cfg.max_beacons = (c.beacons_needed + (budget % 3) as usize).saturating_sub(1);
        }
    }
    cfg
}

/// A slotted schedule: `period_slots` slots of `slot` ticks, the given
/// active slots, one of the three beacon placements.
fn slotted(
    slot: u64,
    period_slots: u64,
    active: Vec<u64>,
    placement: u64,
    omega: Tick,
) -> Schedule {
    let placement = [
        BeaconPlacement::StartEnd,
        BeaconPlacement::StartOnly,
        BeaconPlacement::PreAndEnd,
    ][placement as usize % 3];
    SlottedSchedule::new(Tick(slot), period_slots, active, placement, omega)
        .and_then(|s| s.to_schedule())
        .expect("generator builds valid slotted schedules")
}

/// Active slots: distinct, sorted, non-empty, below `period_slots`.
fn active_slots(raw: std::collections::BTreeSet<u64>, period_slots: u64) -> Vec<u64> {
    let mut active: Vec<u64> = raw.into_iter().map(|s| s % period_slots).collect();
    active.sort_unstable();
    active.dedup();
    active
}

/// Slotless beacons: strictly increasing instants at least ω apart
/// inside `[0, period)`, with the wrap gap at least ω.
fn beacon_seq(period: u64, omega: u64, raw: std::collections::BTreeSet<u64>) -> BeaconSeq {
    let mut times: Vec<Tick> = Vec::new();
    for t in raw.into_iter().map(|t| t % period) {
        if times.last().is_none_or(|&l| t >= l.as_nanos() + omega)
            && t + omega <= period + times.first().map_or(period, |f| f.as_nanos())
        {
            times.push(Tick(t));
        }
    }
    if times.is_empty() {
        times.push(Tick::ZERO);
    }
    BeaconSeq::new(times, Tick(period), Tick(omega)).expect("generator builds valid beacons")
}

/// Slotless windows: disjoint, sorted, inside `[0, period)`.
fn window_seq(period: u64, raw: std::collections::BTreeSet<u64>, len: u64) -> ReceptionWindows {
    let starts: Vec<u64> = raw.into_iter().map(|s| s % period).collect();
    let mut windows = Vec::new();
    let mut prev_end = 0;
    for (i, &s) in starts.iter().enumerate() {
        if s < prev_end {
            continue;
        }
        let next = starts.get(i + 1).copied().unwrap_or(period).max(s + 1);
        let d = len.min(next - s).min(period - s).max(1);
        windows.push(Window::new(Tick(s), Tick(d)));
        prev_end = s + d;
    }
    ReceptionWindows::new(windows, Tick(period)).expect("generator builds valid windows")
}

const PRIMES: [u64; 5] = [2, 3, 5, 7, 11];

/// The slotted registry protocols with the lowest η each is drawn at:
/// low enough to reach several codes or prime pairs, high enough that the
/// oracle's per-phase expansion stays fast (`m_B` ≤ 82).
const REGISTRY: [(&str, f64); 5] = [
    ("disco", 0.10),
    ("searchlight", 0.06),
    ("diff-codes", 0.04),
    ("code-based", 0.04),
    ("u-connect", 0.04),
];

proptest! {
    #[test]
    fn slotted_pairs_match_the_oracle(
        (slot, omega) in (40u64..120, 2u64..9),
        (slots_a, slots_b) in (3u64..14, 3u64..14),
        (raw_a, raw_b) in (
            prop::collection::btree_set(0u64..64, 1..5),
            prop::collection::btree_set(0u64..64, 1..5),
        ),
        (place_a, place_b, m, budget) in (0u64..3, 0u64..3, 0u64..3, 0u64..64),
    ) {
        let omega = Tick(omega);
        let a = slotted(slot, slots_a, active_slots(raw_a, slots_a), place_a, omega);
        let b = slotted(slot, slots_b, active_slots(raw_b, slots_b), place_b, omega);
        let (beacons, windows) = (a.beacons.as_ref().unwrap(), b.windows.as_ref().unwrap());
        let cfg = config(beacons, windows, omega, m, budget);
        agree(beacons, windows, &cfg);
        same(
            two_way_worst_case(&a, &b, &cfg),
            oracle::two_way(&a, &b, &cfg),
            |t| *t,
            "two-way",
        );
    }

    #[test]
    fn slotless_pairs_match_the_oracle(
        (period_b, period_c, omega) in (200u64..3_000, 200u64..3_000, 1u64..12),
        (raw_b, raw_c) in (
            prop::collection::btree_set(0u64..3_000, 1..7),
            prop::collection::btree_set(0u64..3_000, 1..5),
        ),
        (len, m, budget, same_period) in (1u64..400, 0u64..3, 0u64..64, 0u64..3),
    ) {
        // one case in three shares the period (T_B = T_C), the rest differ
        let period_c = if same_period == 0 { period_b } else { period_c };
        let beacons = beacon_seq(period_b, omega, raw_b);
        let windows = window_seq(period_c, raw_c, len);
        agree(&beacons, &windows, &config(&beacons, &windows, Tick(omega), m, budget));
    }

    #[test]
    fn disco_prime_pairs_match_the_oracle(
        (i, j, k, l) in (0usize..5, 0usize..5, 0usize..5, 0usize..5),
        (slot, omega, m, budget) in (30u64..90, 2u64..9, 0u64..3, 0u64..64),
    ) {
        prop_assume!(i != j && k != l);
        let omega = Tick(omega);
        let disco = |p1: u64, p2: u64| {
            Disco::new(p1, p2, Tick(slot), omega).and_then(|d| d.schedule()).unwrap()
        };
        let tx = disco(PRIMES[i], PRIMES[j]);
        let rx = disco(PRIMES[k], PRIMES[l]);
        let (beacons, windows) = (tx.beacons.as_ref().unwrap(), rx.windows.as_ref().unwrap());
        let cfg = config(beacons, windows, omega, m, budget);
        agree(beacons, windows, &cfg);
        same(two_way_worst_case(&tx, &rx, &cfg), oracle::two_way(&tx, &rx, &cfg), |t| *t, "two-way");
    }

    #[test]
    fn registry_protocols_match_the_oracle(
        (protocol, eta, m, budget) in (0usize..5, 0.0f64..1.0, 0u64..3, 0u64..64),
    ) {
        // the schedules of the exact backend's percentile fronts: 1 ms
        // slot, ω = 36 µs, η between the protocol's floor and 0.45
        let (name, eta_min) = REGISTRY[protocol];
        let eta = eta_min + (0.45 - eta_min) * eta;
        let omega = Tick::from_micros(36);
        let sched = schedule_for_selector(name, eta, Tick::from_millis(1), omega).unwrap();
        let (beacons, windows) = (sched.beacons.as_ref().unwrap(), sched.windows.as_ref().unwrap());
        agree(beacons, windows, &config(beacons, windows, omega, m, budget));
    }

    #[test]
    fn optimal_tilings_match_the_oracle(
        (beta, gamma) in (0.005f64..0.2, 0.01f64..0.3),
        (m, budget) in (0u64..3, 0u64..64),
    ) {
        let Ok((tx, rx)) = optimal::unidirectional(OptimalParams::paper_default(), beta, gamma) else {
            return;
        };
        let (beacons, windows) = (tx.schedule.beacons.as_ref().unwrap(), rx.schedule.windows.as_ref().unwrap());
        agree(beacons, windows, &config(beacons, windows, Tick::from_micros(36), m, budget));
    }

    #[test]
    fn uniform_trains_match_the_oracle(
        (count, gap, omega) in (1u64..9, 20u64..400, 1u64..10),
        (cycle, raw_c, len) in (1u64..5, prop::collection::btree_set(0u64..4_000, 1..4), 1u64..200),
        (phase, m, budget) in (0u64..4_000, 0u64..3, 0u64..64),
    ) {
        // equal gaps: phase 0 answers for all. A receiver period of
        // `cycle` gaps repeats the images every `cycle` beacons, so
        // coverage often saturates within the first beacon period.
        let period_b = count * gap;
        let period_c = if cycle < 4 { cycle * gap } else { 97 + gap * 3 / 2 };
        let beacons = BeaconSeq::uniform(count, Tick(period_b), Tick(omega), Tick(phase % period_b)).unwrap();
        let windows = window_seq(period_c, raw_c, len);
        agree(&beacons, &windows, &config(&beacons, &windows, Tick(omega), m, budget));
    }
}

#[test]
fn kernel_statistics_describe_the_computation() {
    // Disco(3, 5) against itself: unequal gaps, so every phase is
    // answered by one painting pass after phase 0's forward pass
    let sched = Disco::new(3, 5, Tick::from_millis(1), Tick::from_micros(36))
        .and_then(|d| d.schedule())
        .unwrap();
    let (b, c) = (
        sched.beacons.as_ref().unwrap(),
        sched.windows.as_ref().unwrap(),
    );
    let cfg = AnalysisConfig::paper_default();
    let hits = FirstHits::compute(b, c, &cfg).unwrap();
    assert_eq!(hits.phases(), b.n_beacons());
    assert_eq!(
        hits.beacons_needed(),
        one_way_coverage(b, c, &cfg).unwrap().beacons_needed
    );
    assert_eq!(hits.exit(), "saturated");
    assert!(hits.images() > b.n_beacons(), "forward pass plus painting");
    // a uniform tiling covers in one forward pass
    let (tx, rx) = optimal::unidirectional(OptimalParams::paper_default(), 0.01, 0.02).unwrap();
    let (b, c) = (
        tx.schedule.beacons.as_ref().unwrap(),
        rx.schedule.windows.as_ref().unwrap(),
    );
    let hits = FirstHits::compute(b, c, &cfg).unwrap();
    assert_eq!((hits.phases(), hits.exit()), (1, "covered"));
    assert_eq!(hits.images(), hits.beacons_needed());
}
