//! Residue-class gap folding for exact coverage expansion.
//!
//! The exact kernel expands beacon images `base − r mod T_C` until the
//! union covers the receiver period. The relative beacon times walk an
//! arithmetic progression: `r = (t_i − t_k) + c·T_B`, so modulo `T_C` the
//! cycle term visits exactly the subgroup `{j·d mod T_C}` generated by
//! `d = gcd(T_B, T_C)`. Every shift of a set `S` by the full subgroup
//! tiles the period with the *fold* of `S` modulo `d` (see
//! [`IntervalSet::fold_mod`]): the union of all images a beacon train can
//! ever produce is determined by one fold per beacon, not by enumerating
//! every residue class of the (possibly huge) hyperperiod
//! `lcm(T_B, T_C)`.
//!
//! This module computes that **ultimate covered measure**. The forward
//! pass of [`crate::firsthit`] stops as soon as its covered measure
//! reaches it, instead of exhausting the distinct-image budget of a
//! large co-prime hyperperiod. The truncation is exact: once the union
//! stops growing, later beacons can never change any offset's *first*
//! hit, so worst/mean/uncovered are bit-identical to the fully-enumerated
//! profile.

use nd_core::interval::IntervalSet;
use nd_core::schedule::{gcd, BeaconSeq};
use nd_core::time::Tick;

/// The measure of the largest set of offsets the beacon train can ever
/// cover when expanded against a receiver of period `period_c` whose
/// reception offsets are `base` — i.e. the supremum of the running union
/// in the exact engine's expansion loop, reached within one hyperperiod.
///
/// Independent of which beacon the expansion starts from (a global shift
/// of all images changes nothing about the union's measure), so callers
/// compute it once per schedule pair and share it across all starting
/// phases.
pub fn ultimate_covered_measure(base: &IntervalSet, beacons: &BeaconSeq, period_c: Tick) -> Tick {
    let d = Tick(gcd(beacons.period().as_nanos(), period_c.as_nanos()));
    let classes = period_c.as_nanos() / d.as_nanos();
    let mut folded = IntervalSet::empty();
    for &t in beacons.times() {
        let image = base.shift_mod(-(t.as_nanos() as i128), period_c);
        folded = folded.union(&image.fold_mod(d));
        if folded.covers(d) {
            return period_c;
        }
    }
    Tick(folded.measure().as_nanos() * classes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{one_way_coverage, AnalysisConfig};
    use nd_core::schedule::ReceptionWindows;
    use nd_protocols::optimal::{self, OptimalParams};
    use nd_protocols::Disco;

    fn offsets(windows: &ReceptionWindows, cfg: &AnalysisConfig) -> IntervalSet {
        cfg.model.reception_offsets(windows, cfg.omega)
    }

    #[test]
    fn deterministic_tiling_folds_to_the_full_period() {
        let (tx, rx) = optimal::unidirectional(OptimalParams::paper_default(), 0.01, 0.02).unwrap();
        let b = tx.schedule.beacons.as_ref().unwrap();
        let c = rx.schedule.windows.as_ref().unwrap();
        let cfg = AnalysisConfig::paper_default();
        let ult = ultimate_covered_measure(&offsets(c, &cfg), b, c.period());
        assert_eq!(ult, c.period());
    }

    #[test]
    fn fold_predicts_the_figure5_boundary_gap() {
        // symmetric Disco: the uncovered fraction the engine measures is
        // exactly 1 − ultimate/T_C
        let cfg = AnalysisConfig::paper_default();
        let sched = Disco::new(5, 7, Tick::from_millis(1), Tick::from_micros(36))
            .unwrap()
            .schedule()
            .unwrap();
        let b = sched.beacons.as_ref().unwrap();
        let c = sched.windows.as_ref().unwrap();
        let ult = ultimate_covered_measure(&offsets(c, &cfg), b, c.period());
        let predicted_gap = 1.0 - ult.as_nanos() as f64 / c.period().as_nanos() as f64;
        let cc = one_way_coverage(b, c, &cfg).unwrap();
        assert!(
            (predicted_gap - cc.undiscovered_probability).abs() < 1e-9,
            "fold predicts {predicted_gap:.6}, engine measured {:.6}",
            cc.undiscovered_probability
        );
    }

    #[test]
    fn heterogeneous_prime_pairs_fold_across_coprime_periods() {
        // Disco(5,7) beaconing at Disco(11,13): T_B = 35 slots, T_C = 143
        // slots, gcd one slot — the fold collapses 143 residue classes.
        let cfg = AnalysisConfig::paper_default();
        let slot = Tick::from_millis(1);
        let omega = Tick::from_micros(36);
        let tx = Disco::new(5, 7, slot, omega).unwrap().schedule().unwrap();
        let rx = Disco::new(11, 13, slot, omega).unwrap().schedule().unwrap();
        let b = tx.beacons.as_ref().unwrap();
        let c = rx.windows.as_ref().unwrap();
        assert_eq!(
            gcd(b.period().as_nanos(), c.period().as_nanos()),
            slot.as_nanos()
        );
        let ult = ultimate_covered_measure(&offsets(c, &cfg), b, c.period());
        // beacons land densely enough to cover almost everything, but the
        // §3.2 boundary gap survives the fold
        assert!(ult < c.period());
        assert!(ult.as_nanos() as f64 / c.period().as_nanos() as f64 > 0.9);
        // and the engine agrees exactly
        let cc = one_way_coverage(b, c, &cfg).unwrap();
        let predicted_gap = 1.0 - ult.as_nanos() as f64 / c.period().as_nanos() as f64;
        assert!((predicted_gap - cc.undiscovered_probability).abs() < 1e-9);
    }
}
