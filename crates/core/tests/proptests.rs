//! Property-based tests for the nd-core invariants.
//!
//! These check the *theorems* of the paper on randomly generated schedules:
//! interval-set algebra laws, Theorem 4.2 (coverage per beacon), Lemma 4.1
//! (periodicity of coverage), and structural invariants of the first-hit
//! profile.

use nd_core::coverage::{min_beacons, CoverageMap, OverlapModel};
use nd_core::interval::{Interval, IntervalSet};
use nd_core::schedule::{BeaconSeq, ReceptionWindows, Window};
use nd_core::time::Tick;
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// generators
// ---------------------------------------------------------------------------

/// An arbitrary interval set inside [0, period).
fn interval_set(period: u64) -> impl Strategy<Value = IntervalSet> {
    prop::collection::vec((0..period, 1..period / 4 + 1), 0..8).prop_map(move |raw| {
        IntervalSet::from_intervals(raw.into_iter().map(|(s, len)| {
            let end = (s + len).min(period);
            Interval::new(Tick(s), Tick(end))
        }))
    })
}

/// An interval set inside [0, period) that, one time in four, reaches both
/// ends of the period: the seam a rotation has to merge.
fn seam_set(period: u64) -> impl Strategy<Value = IntervalSet> {
    let len = 1..period / 4 + 1;
    (interval_set(period), 0u64..4, len.clone(), len).prop_map(move |(set, ends, a, b)| {
        let mut ivs = set.intervals().to_vec();
        if ends & 1 != 0 {
            ivs.push(Interval::new(Tick::ZERO, Tick(a)));
        }
        if ends & 2 != 0 {
            ivs.push(Interval::new(Tick(period - b), Tick(period)));
        }
        IntervalSet::from_intervals(ivs)
    })
}

/// Up to 100 short intervals inside [0, period): long runs between the
/// intervals of a coarse set.
fn fine_set(period: u64) -> impl Strategy<Value = IntervalSet> {
    prop::collection::vec((0..period, 1u64..8), 0..100).prop_map(move |raw| {
        IntervalSet::from_intervals(
            raw.into_iter()
                .map(|(s, len)| Interval::new(Tick(s), Tick((s + len).min(period)))),
        )
    })
}

/// A shift in −3p..3p that, one time in four, is a multiple of the period
/// (0 included).
fn shift(period: u64) -> impl Strategy<Value = i128> {
    let p = i128::from(period);
    (0u64..4, -3 * p..3 * p, -3i128..4)
        .prop_map(move |(kind, any, k)| if kind == 0 { k * p } else { any })
}

/// `a` shifted right by `delta` modulo `period` as the parts each interval
/// splits into, normalized by `from_intervals`: the construction the
/// one-pass rotation of `shift_mod` replaced.
fn shift_mod_by_parts(a: &IntervalSet, delta: i128, period: u64) -> IntervalSet {
    let d = delta.rem_euclid(i128::from(period)) as u64;
    let iv = |s: u64, e: u64| Interval::new(Tick(s), Tick(e));
    IntervalSet::from_intervals(a.intervals().iter().flat_map(|part| {
        let (s, e) = (part.start.0 + d, part.end.0 + d);
        if e <= period {
            vec![iv(s, e)]
        } else if s >= period {
            vec![iv(s - period, e - period)]
        } else {
            vec![iv(s, period), iv(0, e - period)]
        }
    }))
}

/// A valid reception-window sequence with the given period.
fn reception_windows(period: u64) -> impl Strategy<Value = ReceptionWindows> {
    prop::collection::btree_set(0..period - 1, 1..6).prop_map(move |starts| {
        // carve non-overlapping windows out of sorted distinct starts
        let starts: Vec<u64> = starts.into_iter().collect();
        let mut windows = Vec::new();
        for (i, &s) in starts.iter().enumerate() {
            let next = if i + 1 < starts.len() {
                starts[i + 1]
            } else {
                period
            };
            let max_len = next - s;
            if max_len == 0 {
                continue;
            }
            let len = (max_len / 2).max(1).min(max_len);
            windows.push(Window::new(Tick(s), Tick(len)));
        }
        ReceptionWindows::new(windows, Tick(period)).expect("generator produces valid windows")
    })
}

/// Strictly increasing beacon delays starting at zero.
fn beacon_delays(max_count: usize, max_gap: u64) -> impl Strategy<Value = Vec<Tick>> {
    prop::collection::vec(1..max_gap, 0..max_count).prop_map(|gaps| {
        let mut out = vec![Tick::ZERO];
        let mut acc = 0u64;
        for g in gaps {
            acc += g;
            out.push(Tick(acc));
        }
        out
    })
}

// ---------------------------------------------------------------------------
// interval-set algebra laws
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn union_measure_inclusion_exclusion(a in interval_set(1000), b in interval_set(1000)) {
        let union = a.union(&b);
        let inter = a.intersect(&b);
        prop_assert_eq!(
            union.measure() + inter.measure(),
            a.measure() + b.measure(),
            "|A∪B| + |A∩B| = |A| + |B|"
        );
    }

    #[test]
    fn subtract_then_union_recovers(a in interval_set(1000), b in interval_set(1000)) {
        // (A \ B) ∪ (A ∩ B) = A
        let recovered = a.subtract(&b).union(&a.intersect(&b));
        prop_assert_eq!(recovered, a);
    }

    #[test]
    fn complement_is_involutive(a in interval_set(1000)) {
        let c = a.complement(Tick(1000));
        prop_assert_eq!(c.complement(Tick(1000)), a.intersect(&IntervalSet::single(Tick::ZERO, Tick(1000))));
        prop_assert_eq!(c.measure() + a.measure(), Tick(1000));
    }

    #[test]
    fn shift_mod_preserves_measure(a in interval_set(1000), delta in -3000i128..3000) {
        let shifted = a.shift_mod(delta, Tick(1000));
        prop_assert_eq!(shifted.measure(), a.measure());
    }

    #[test]
    fn shift_mod_composes(a in interval_set(1000), d1 in 0i128..1000, d2 in 0i128..1000) {
        let once = a.shift_mod(d1 + d2, Tick(1000));
        let twice = a.shift_mod(d1, Tick(1000)).shift_mod(d2, Tick(1000));
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn shift_mod_roundtrips(a in interval_set(1000), delta in -3000i128..3000) {
        let back = a.shift_mod(delta, Tick(1000)).shift_mod(-delta, Tick(1000));
        prop_assert_eq!(back, a);
    }

    #[test]
    fn shift_mod_is_the_normalized_split(a in seam_set(1000), delta in shift(1000)) {
        prop_assert_eq!(a.shift_mod(delta, Tick(1000)), shift_mod_by_parts(&a, delta, 1000));
    }

    #[test]
    fn cut_is_intersect_and_subtract(
        a in seam_set(1000),
        b in seam_set(1000),
        fine in fine_set(1000),
    ) {
        let (mut inside, mut outside) = (IntervalSet::empty(), IntervalSet::empty());
        for (x, y) in [(&a, &b), (&b, &a), (&a, &fine), (&fine, &a), (&fine, &fine)] {
            // the buffers hold the previous cut: it is overwritten
            x.cut_into(y, &mut inside, &mut outside);
            prop_assert_eq!(&inside, &x.intersect(y));
            prop_assert_eq!(&outside, &x.subtract(y));
        }
    }

    #[test]
    fn membership_matches_interval_scan(a in interval_set(1000), t in 0u64..1000) {
        let by_method = a.contains(Tick(t));
        let by_scan = a.intervals().iter().any(|iv| iv.contains(Tick(t)));
        prop_assert_eq!(by_method, by_scan);
    }

    #[test]
    fn canonical_form_invariants(a in interval_set(1000)) {
        let ivs = a.intervals();
        for w in ivs.windows(2) {
            prop_assert!(w[0].end < w[1].start, "sorted, disjoint, non-adjacent");
        }
        for iv in ivs {
            prop_assert!(!iv.is_empty());
        }
    }
}

// ---------------------------------------------------------------------------
// coverage-map theorems
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Theorem 4.2: every beacon covers exactly Σd offsets, no matter where
    /// it sits in the sequence.
    #[test]
    fn theorem_4_2_per_beacon_coverage(
        c in reception_windows(500),
        delays in beacon_delays(12, 2000),
    ) {
        let map = CoverageMap::build(&delays, &c, Tick(4), OverlapModel::Start);
        for entry in map.entries() {
            prop_assert_eq!(entry.offsets.measure(), c.sum_d(), "beacon {}", entry.beacon);
        }
        prop_assert_eq!(map.coverage(), c.sum_d() * delays.len() as u64);
    }

    /// Theorem 4.3 necessity: a deterministic map never has fewer beacons
    /// than M = ⌈T_C/Σd⌉.
    #[test]
    fn theorem_4_3_necessity(
        c in reception_windows(500),
        delays in beacon_delays(12, 700),
    ) {
        let map = CoverageMap::build(&delays, &c, Tick(4), OverlapModel::Start);
        if map.is_deterministic() {
            prop_assert!(delays.len() as u64 >= min_beacons(c.period(), c.sum_d()));
        }
    }

    /// The first-hit profile tiles the period exactly and agrees with the
    /// pointwise first-hit query.
    #[test]
    fn profile_is_consistent(
        c in reception_windows(300),
        delays in beacon_delays(8, 900),
        sample in 0u64..300,
    ) {
        let map = CoverageMap::build(&delays, &c, Tick(4), OverlapModel::Start);
        let profile = map.first_hit_profile();
        let total: Tick = profile.segments().iter().map(|(iv, _)| iv.measure()).sum();
        prop_assert_eq!(total, c.period());
        // segments are contiguous and ordered
        let mut cursor = Tick::ZERO;
        for (iv, _) in profile.segments() {
            prop_assert_eq!(iv.start, cursor);
            cursor = iv.end;
        }
        prop_assert_eq!(cursor, c.period());
        // pointwise agreement
        let offset = Tick(sample.min(c.period().as_nanos() - 1));
        let seg = profile
            .segments()
            .iter()
            .find(|(iv, _)| iv.contains(offset))
            .map(|(_, v)| *v)
            .unwrap();
        prop_assert_eq!(seg, map.first_hit(offset));
    }

    /// Worst first hit is the max of the distribution's support, and the
    /// distribution is a probability distribution when deterministic.
    #[test]
    fn profile_distribution_consistency(
        c in reception_windows(300),
        delays in beacon_delays(10, 900),
    ) {
        let map = CoverageMap::build(&delays, &c, Tick(4), OverlapModel::Start);
        let profile = map.first_hit_profile();
        let dist = profile.distribution();
        let mass: f64 = dist.iter().map(|(_, p)| p).sum();
        let uncovered = profile.uncovered_measure().as_nanos() as f64
            / c.period().as_nanos() as f64;
        prop_assert!((mass + uncovered - 1.0).abs() < 1e-9);
        if let Some(w) = profile.worst() {
            prop_assert_eq!(w, dist.last().unwrap().0);
            prop_assert!(map.is_deterministic());
        } else {
            prop_assert!(!map.is_deterministic());
        }
    }

    /// Lemma 4.1 / Theorem 4.2 corollary: shifting the whole beacon train
    /// by a multiple of T_C leaves the coverage map unchanged.
    #[test]
    fn coverage_periodic_in_tc(
        c in reception_windows(200),
        delays in beacon_delays(6, 500),
        k in 1u64..4,
    ) {
        let period = c.period();
        let shifted: Vec<Tick> = delays.iter().map(|&d| d + period * k).collect();
        let mut with_anchor = vec![Tick::ZERO];
        with_anchor.extend(&shifted);
        // compare the common beacons: entry i+1 of the anchored map equals
        // entry i of the original, because the extra T_C·k shift is a no-op
        // mod T_C.
        let base = CoverageMap::build(&delays, &c, Tick(4), OverlapModel::Start);
        let anchored = CoverageMap::build(&with_anchor, &c, Tick(4), OverlapModel::Start);
        for (i, e) in base.entries().iter().enumerate() {
            prop_assert_eq!(&anchored.entries()[i + 1].offsets, &e.offsets);
        }
    }
}

// ---------------------------------------------------------------------------
// schedule invariants
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn beacon_gaps_sum_to_period(
        times in prop::collection::btree_set(0u64..1000, 1..10),
    ) {
        let times: Vec<Tick> = times.into_iter().map(Tick).collect();
        // space beacons at least ω apart by scaling positions
        let spaced: Vec<Tick> = times.iter().enumerate().map(|(i, &t)| t * 10 + Tick(i as u64)).collect();
        if let Ok(b) = BeaconSeq::new(spaced, Tick(20_000), Tick(2)) {
            let gaps = b.gaps();
            prop_assert_eq!(gaps.len(), b.n_beacons());
            prop_assert_eq!(gaps.into_iter().sum::<Tick>(), b.period());
        }
    }

    #[test]
    fn rotation_preserves_duty_cycles(
        c in reception_windows(400),
        delta in 0u64..400,
    ) {
        let r = c.rotated(Tick(delta));
        prop_assert!((r.gamma() - c.gamma()).abs() < 1e-12);
        prop_assert_eq!(r.sum_d(), c.sum_d());
        prop_assert_eq!(r.period(), c.period());
    }

    #[test]
    fn instances_in_matches_contains_instant(
        c in reception_windows(100),
        t in 0u64..1000,
    ) {
        let t = Tick(t);
        let inside = c.contains_instant(t);
        let ivs = c.instances_in(t, t + Tick(1));
        prop_assert_eq!(inside, !ivs.is_empty());
    }
}

// ---------------------------------------------------------------------------
// Theorem 5.7 (asymmetric bound) invariants
// ---------------------------------------------------------------------------

proptest! {
    /// Equal per-device budgets collapse Theorem 5.7 onto the symmetric
    /// Theorem 5.5 bound for every (α, ω, η).
    #[test]
    fn asymmetric_bound_coincides_with_symmetric_at_equal_budgets(
        alpha in 0.1f64..8.0,
        omega_us in 1.0f64..500.0,
        eta in 0.001f64..0.5,
    ) {
        let omega = omega_us * 1e-6;
        let asym = nd_core::bounds::asymmetric_bound(alpha, omega, eta, eta);
        let sym = nd_core::bounds::symmetric::symmetric_bound(alpha, omega, eta);
        prop_assert!((asym - sym).abs() <= 1e-9 * sym.abs(),
            "asym {asym} vs sym {sym}");
    }

    /// The proof's per-device optimal splits spend exactly the budget on
    /// each device (η_X = α·β_X + γ_X) and balance the two directions
    /// (β_E·γ_F = β_F·γ_E), for random (η_E, η_F) pairs and α.
    #[test]
    fn optimal_asymmetric_splits_spend_the_budgets_and_balance(
        alpha in 0.1f64..8.0,
        eta_e in 0.001f64..0.5,
        eta_f in 0.001f64..0.5,
    ) {
        let (dc_e, dc_f) = nd_core::bounds::optimal_asymmetric_splits(eta_e, eta_f, alpha);
        prop_assert!((dc_e.eta(alpha) - eta_e).abs() <= 1e-12 + 1e-9 * eta_e);
        prop_assert!((dc_f.eta(alpha) - eta_f).abs() <= 1e-12 + 1e-9 * eta_f);
        // the balanced-latency condition L_E = L_F of the Theorem 5.7 proof
        let p_ef = dc_e.beta * dc_f.gamma;
        let p_fe = dc_f.beta * dc_e.gamma;
        prop_assert!((p_ef - p_fe).abs() <= 1e-9 * p_ef.abs().max(p_fe.abs()),
            "β_E·γ_F {p_ef} vs β_F·γ_E {p_fe}");
    }
}
