//! Half-open time intervals and canonical interval sets.
//!
//! The coverage-map machinery of Section 4 of the paper manipulates sets of
//! offsets `Φ₁ ∈ [0, T_C)`: each beacon contributes the set of initial
//! offsets for which it lands in a reception window (the sets `Ω_i` of
//! Eq. 3), and those sets are unions of intervals translated modulo the
//! reception period. [`IntervalSet`] is the exact, canonical representation
//! used for all of that: a sorted list of disjoint, non-adjacent, non-empty
//! half-open intervals.

use crate::time::Tick;
use std::fmt;

/// A half-open interval `[start, end)` on the tick grid.
///
/// Empty intervals (`start >= end`) are never stored inside an
/// [`IntervalSet`]; free-standing `Interval` values may be empty (and report
/// so via [`Interval::is_empty`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interval {
    /// Inclusive lower endpoint.
    pub start: Tick,
    /// Exclusive upper endpoint.
    pub end: Tick,
}

impl Interval {
    /// Construct `[start, end)`. `start > end` is allowed and yields an
    /// empty interval (this keeps saturating-arithmetic call sites simple).
    #[inline]
    pub fn new(start: Tick, end: Tick) -> Self {
        Interval { start, end }
    }

    /// The interval `[0, 0)`.
    pub const EMPTY: Interval = Interval {
        start: Tick::ZERO,
        end: Tick::ZERO,
    };

    /// Length of the interval (zero if empty).
    #[inline]
    pub fn measure(&self) -> Tick {
        self.end.saturating_sub(self.start)
    }

    /// `true` iff the interval contains no point.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }

    /// `true` iff `t ∈ [start, end)`.
    #[inline]
    pub fn contains(&self, t: Tick) -> bool {
        self.start <= t && t < self.end
    }

    /// Intersection with another interval (possibly empty).
    #[inline]
    pub fn intersect(&self, other: &Interval) -> Interval {
        Interval {
            start: self.start.max(other.start),
            end: self.end.min(other.end),
        }
    }

    /// `true` iff the two intervals share at least one point.
    #[inline]
    pub fn overlaps(&self, other: &Interval) -> bool {
        !self.intersect(other).is_empty()
    }

    /// Translate right by `delta` (panics on overflow).
    #[inline]
    pub fn shifted(&self, delta: Tick) -> Interval {
        Interval {
            start: self.start + delta,
            end: self.end + delta,
        }
    }
}

impl fmt::Debug for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

/// A canonical set of ticks: sorted, disjoint, non-adjacent, non-empty
/// half-open intervals.
///
/// All operations preserve canonical form. Measures, unions, intersections
/// and complements are exact integer computations.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct IntervalSet {
    ivs: Vec<Interval>,
}

impl IntervalSet {
    /// The empty set.
    pub fn empty() -> Self {
        IntervalSet { ivs: Vec::new() }
    }

    /// Build from an arbitrary collection of intervals (normalizes: drops
    /// empties, sorts, merges overlapping/adjacent).
    pub fn from_intervals<I: IntoIterator<Item = Interval>>(intervals: I) -> Self {
        let mut ivs: Vec<Interval> = intervals.into_iter().filter(|iv| !iv.is_empty()).collect();
        ivs.sort_by_key(|iv| (iv.start, iv.end));
        let mut out: Vec<Interval> = Vec::with_capacity(ivs.len());
        for iv in ivs {
            match out.last_mut() {
                // touching or overlapping: coalesce
                Some(last) if iv.start <= last.end => last.end = last.end.max(iv.end),
                _ => out.push(iv),
            }
        }
        IntervalSet { ivs: out }
    }

    /// A set holding a single interval (empty set if the interval is empty).
    pub fn single(start: Tick, end: Tick) -> Self {
        Self::from_intervals([Interval::new(start, end)])
    }

    /// The canonical intervals, sorted and disjoint.
    #[inline]
    pub fn intervals(&self) -> &[Interval] {
        &self.ivs
    }

    /// `true` iff the set contains no point.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ivs.is_empty()
    }

    /// Number of maximal intervals.
    #[inline]
    pub fn len(&self) -> usize {
        self.ivs.len()
    }

    /// Total measure (sum of interval lengths).
    pub fn measure(&self) -> Tick {
        self.ivs.iter().map(|iv| iv.measure()).sum()
    }

    /// `true` iff `t` is a member.
    pub fn contains(&self, t: Tick) -> bool {
        // binary search on start
        match self.ivs.binary_search_by(|iv| iv.start.cmp(&t)) {
            Ok(_) => true, // t is the start of some interval
            Err(0) => false,
            Err(i) => self.ivs[i - 1].contains(t),
        }
    }

    /// Set union.
    pub fn union(&self, other: &IntervalSet) -> IntervalSet {
        // merge two sorted lists then normalize in one pass
        let mut merged: Vec<Interval> = Vec::with_capacity(self.ivs.len() + other.ivs.len());
        let (mut i, mut j) = (0, 0);
        while i < self.ivs.len() && j < other.ivs.len() {
            if self.ivs[i].start <= other.ivs[j].start {
                merged.push(self.ivs[i]);
                i += 1;
            } else {
                merged.push(other.ivs[j]);
                j += 1;
            }
        }
        merged.extend_from_slice(&self.ivs[i..]);
        merged.extend_from_slice(&other.ivs[j..]);
        let mut out: Vec<Interval> = Vec::with_capacity(merged.len());
        for iv in merged {
            match out.last_mut() {
                Some(last) if iv.start <= last.end => last.end = last.end.max(iv.end),
                _ => out.push(iv),
            }
        }
        IntervalSet { ivs: out }
    }

    /// Set intersection.
    pub fn intersect(&self, other: &IntervalSet) -> IntervalSet {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.ivs.len() && j < other.ivs.len() {
            let a = &self.ivs[i];
            let b = &other.ivs[j];
            let cut = a.intersect(b);
            if !cut.is_empty() {
                out.push(cut);
            }
            if a.end <= b.end {
                i += 1;
            } else {
                j += 1;
            }
        }
        IntervalSet { ivs: out }
    }

    /// Cut `self` by `other` in one merge of the two lists: `inside`
    /// becomes `self ∩ other` and `outside` becomes `self \ other`, the
    /// same sets [`IntervalSet::intersect`] and [`IntervalSet::subtract`]
    /// return. Both buffers are overwritten and keep their allocations.
    ///
    /// The merge gallops: a run of intervals of one list that falls between
    /// two of the other is found by exponential search, and a run of `self`
    /// that `other` does not touch is copied to `outside` whole.
    pub fn cut_into(
        &self,
        other: &IntervalSet,
        inside: &mut IntervalSet,
        outside: &mut IntervalSet,
    ) {
        inside.ivs.clear();
        outside.ivs.clear();
        let (a, b) = (&self.ivs[..], &other.ivs[..]);
        let (mut i, mut j) = (0, 0);
        while i < a.len() {
            // the intervals of `other` entirely before a[i] cut nothing
            j += gallop(&b[j..], |y| y.end <= a[i].start);
            let Some(first) = b.get(j) else { break };
            // the intervals of `self` entirely before that one are not cut
            let run = gallop(&a[i..], |x| x.end <= first.start);
            outside.ivs.extend_from_slice(&a[i..i + run]);
            i += run;
            if i == a.len() || first.end <= a[i].start {
                continue;
            }
            // a[i] meets b[j]: `from` is where its part not yet placed begins
            let x = a[i];
            let mut from = x.start;
            for y in b[j..].iter().take_while(|y| y.start < x.end) {
                if y.start > from {
                    outside.ivs.push(Interval::new(from, y.start));
                }
                inside
                    .ivs
                    .push(Interval::new(y.start.max(from), y.end.min(x.end)));
                from = y.end;
                if from >= x.end {
                    break;
                }
            }
            if from < x.end {
                outside.ivs.push(Interval::new(from, x.end));
            }
            i += 1;
        }
        outside.ivs.extend_from_slice(&a[i..]);
    }

    /// Set difference `self \ other`.
    pub fn subtract(&self, other: &IntervalSet) -> IntervalSet {
        let mut out = Vec::new();
        let mut j = 0;
        for a in &self.ivs {
            let mut cur = *a;
            // skip intervals of `other` entirely before `cur`
            while j < other.ivs.len() && other.ivs[j].end <= cur.start {
                j += 1;
            }
            let mut k = j;
            while k < other.ivs.len() && other.ivs[k].start < cur.end {
                let b = other.ivs[k];
                if b.start > cur.start {
                    out.push(Interval::new(cur.start, b.start.min(cur.end)));
                }
                if b.end >= cur.end {
                    cur = Interval::EMPTY;
                    break;
                }
                cur = Interval::new(b.end.max(cur.start), cur.end);
                k += 1;
            }
            if !cur.is_empty() {
                out.push(cur);
            }
        }
        IntervalSet { ivs: out }
    }

    /// Complement within the universe `[0, period)`.
    pub fn complement(&self, period: Tick) -> IntervalSet {
        IntervalSet::single(Tick::ZERO, period).subtract(self)
    }

    /// `true` iff the set covers all of `[0, period)`.
    pub fn covers(&self, period: Tick) -> bool {
        self.ivs.len() == 1 && self.ivs[0].start == Tick::ZERO && self.ivs[0].end >= period
    }

    /// Translate the whole set right by `delta` ticks (no wrap-around).
    pub fn shifted(&self, delta: Tick) -> IntervalSet {
        IntervalSet {
            ivs: self.ivs.iter().map(|iv| iv.shifted(delta)).collect(),
        }
    }

    /// Translate by a *signed* number of ticks **modulo `period`**, assuming
    /// the set lies inside `[0, period)`, and re-normalize.
    ///
    /// This implements the translation step of Eq. 3: shifting the covered
    /// offsets left by Σλ wraps around the period boundary (what shifts out
    /// of `[0, T_C)` on one side re-enters on the other; cf. the proof of
    /// Theorem 4.2).
    ///
    /// The result is a rotation of the sorted list, built in one pass: the
    /// intervals past `period − d` (`d`: the right-shift in `[0, period)`)
    /// wrap to the front, the one holding `period − d` inside is split in
    /// two, and the old seam (offset 0, now at `d`) is the one place where
    /// two intervals can touch and merge.
    pub fn shift_mod(&self, delta: i128, period: Tick) -> IntervalSet {
        assert!(!period.is_zero(), "zero period");
        let p = period.0;
        let d = delta.rem_euclid(i128::from(p)) as u64; // effective right-shift in [0, p)
        if d == 0 {
            return self.clone();
        }
        debug_assert!(
            self.ivs.last().is_none_or(|iv| iv.end <= period),
            "interval outside [0, period)"
        );
        let cut = p - d;
        let (head, tail) = self
            .ivs
            .split_at(self.ivs.partition_point(|iv| iv.end.0 <= cut));
        let straddle = tail.first().filter(|iv| iv.start.0 < cut);
        let tail = &tail[usize::from(straddle.is_some())..];
        let mut ivs = Vec::with_capacity(self.ivs.len() + 1);
        ivs.extend(straddle.map(|iv| Interval::new(Tick::ZERO, Tick(iv.end.0 - cut))));
        ivs.extend(
            tail.iter()
                .map(|iv| Interval::new(Tick(iv.start.0 - cut), Tick(iv.end.0 - cut))),
        );
        let mut rest = head
            .iter()
            .map(|iv| iv.shifted(Tick(d)))
            .chain(straddle.map(|iv| Interval::new(Tick(iv.start.0 + d), period)));
        if let Some(first) = rest.next() {
            match ivs.last_mut() {
                // the seam: an interval ending at `period` meets one from 0
                Some(last) if first.start <= last.end => last.end = last.end.max(first.end),
                _ => ivs.push(first),
            }
        }
        ivs.extend(rest);
        IntervalSet { ivs }
    }

    /// The maximal uncovered gaps within `[0, period)`.
    pub fn gaps(&self, period: Tick) -> IntervalSet {
        self.complement(period)
    }

    /// Fold the set modulo `d`: the image of every point under
    /// `t ↦ t mod d`, as a canonical set inside `[0, d)`.
    ///
    /// This is the residue-class view of a coverage set: when beacon
    /// shifts walk an arithmetic progression with common difference `d`
    /// (the gcd of the two schedule periods), the union of all shifted
    /// images of a set `S` tiles the period with `fold_mod(S, d)` — so
    /// the *ultimate* coverage of an infinite expansion is computable
    /// from one fold instead of enumerating every residue class.
    pub fn fold_mod(&self, d: Tick) -> IntervalSet {
        assert!(!d.is_zero(), "zero modulus");
        let mut parts = Vec::with_capacity(self.ivs.len() + 1);
        for iv in &self.ivs {
            if iv.measure() >= d {
                // a span of at least one full residue period covers all classes
                return IntervalSet::single(Tick::ZERO, d);
            }
            let s = Tick(iv.start.0 % d.0);
            let e = s + iv.measure();
            if e.0 <= d.0 {
                parts.push(Interval::new(s, e));
            } else {
                // straddles the fold point: split
                parts.push(Interval::new(s, d));
                parts.push(Interval::new(Tick::ZERO, Tick(e.0 - d.0)));
            }
        }
        IntervalSet::from_intervals(parts)
    }

    /// All endpoint ticks (starts and ends) of the canonical intervals.
    ///
    /// These are the breakpoints at which coverage membership can change —
    /// the exact-analysis engine evaluates latency only at these points.
    pub fn breakpoints(&self) -> impl Iterator<Item = Tick> + '_ {
        self.ivs.iter().flat_map(|iv| [iv.start, iv.end])
    }
}

/// The number of leading intervals of `s` that satisfy `pred`, which holds
/// on a prefix of `s`: probes 1, 2, 4, … intervals ahead, then bisects the
/// last step, so a short prefix costs a few comparisons.
fn gallop(s: &[Interval], pred: impl Fn(&Interval) -> bool) -> usize {
    let (mut lo, mut step) = (0, 1);
    while lo + step <= s.len() && pred(&s[lo + step - 1]) {
        lo += step;
        step *= 2;
    }
    let end = (lo + step - 1).min(s.len());
    lo + s[lo..end].partition_point(pred)
}

impl fmt::Debug for IntervalSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.ivs.iter()).finish()
    }
}

impl FromIterator<Interval> for IntervalSet {
    fn from_iter<I: IntoIterator<Item = Interval>>(iter: I) -> Self {
        IntervalSet::from_intervals(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(a: u64, b: u64) -> Interval {
        Interval::new(Tick(a), Tick(b))
    }

    fn set(ivs: &[(u64, u64)]) -> IntervalSet {
        IntervalSet::from_intervals(ivs.iter().map(|&(a, b)| iv(a, b)))
    }

    #[test]
    fn interval_basics() {
        let a = iv(2, 5);
        assert_eq!(a.measure(), Tick(3));
        assert!(a.contains(Tick(2)));
        assert!(a.contains(Tick(4)));
        assert!(!a.contains(Tick(5)));
        assert!(!a.contains(Tick(1)));
        assert!(iv(3, 3).is_empty());
        assert!(iv(5, 2).is_empty());
        assert_eq!(iv(5, 2).measure(), Tick::ZERO);
    }

    #[test]
    fn interval_intersect_overlap() {
        assert_eq!(iv(0, 5).intersect(&iv(3, 8)), iv(3, 5));
        assert!(iv(0, 5).overlaps(&iv(4, 6)));
        assert!(!iv(0, 5).overlaps(&iv(5, 6))); // half-open: touching ≠ overlapping
        assert!(iv(0, 5).intersect(&iv(6, 8)).is_empty());
    }

    #[test]
    fn normalization_merges_overlapping_and_adjacent() {
        let s = set(&[(5, 8), (0, 3), (3, 5), (10, 12), (11, 15)]);
        assert_eq!(s.intervals(), &[iv(0, 8), iv(10, 15)]);
        assert_eq!(s.measure(), Tick(13));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn normalization_drops_empties() {
        let s = set(&[(3, 3), (7, 2)]);
        assert!(s.is_empty());
        assert_eq!(s.measure(), Tick::ZERO);
    }

    #[test]
    fn union_is_commutative_and_canonical() {
        let a = set(&[(0, 4), (10, 14)]);
        let b = set(&[(4, 10), (20, 22)]);
        let u1 = a.union(&b);
        let u2 = b.union(&a);
        assert_eq!(u1, u2);
        assert_eq!(u1.intervals(), &[iv(0, 14), iv(20, 22)]);
    }

    #[test]
    fn intersect_sets() {
        let a = set(&[(0, 10), (20, 30)]);
        let b = set(&[(5, 25)]);
        assert_eq!(a.intersect(&b).intervals(), &[iv(5, 10), iv(20, 25)]);
        assert!(a.intersect(&set(&[(10, 20)])).is_empty());
    }

    #[test]
    fn subtract_sets() {
        let a = set(&[(0, 10)]);
        assert_eq!(
            a.subtract(&set(&[(3, 5)])).intervals(),
            &[iv(0, 3), iv(5, 10)]
        );
        assert_eq!(a.subtract(&set(&[(0, 10)])).intervals(), &[] as &[Interval]);
        assert_eq!(
            a.subtract(&set(&[(2, 4), (6, 8)])).intervals(),
            &[iv(0, 2), iv(4, 6), iv(8, 10)]
        );
        // subtrahend outside
        assert_eq!(a.subtract(&set(&[(20, 30)])), a);
        // subtrahend clipping both ends
        assert_eq!(
            set(&[(5, 15)])
                .subtract(&set(&[(0, 7), (12, 20)]))
                .intervals(),
            &[iv(7, 12)]
        );
    }

    #[test]
    fn complement_and_covers() {
        let a = set(&[(0, 3), (5, 10)]);
        assert_eq!(a.complement(Tick(12)).intervals(), &[iv(3, 5), iv(10, 12)]);
        assert!(!a.covers(Tick(12)));
        assert!(set(&[(0, 12)]).covers(Tick(12)));
        assert!(set(&[(0, 15)]).covers(Tick(12)));
        assert!(!set(&[(1, 12)]).covers(Tick(12)));
        assert!(IntervalSet::empty().complement(Tick(5)).covers(Tick(5)));
    }

    #[test]
    fn shift_mod_wraps_and_preserves_measure() {
        // [8,10) shifted right by 3 in period 10 wraps to [0,1) ∪ [1..? ...]
        let s = set(&[(8, 10)]);
        let shifted = s.shift_mod(3, Tick(10));
        assert_eq!(shifted.intervals(), &[iv(1, 3)]);

        // straddling case
        let s = set(&[(7, 9)]);
        let shifted = s.shift_mod(2, Tick(10));
        assert_eq!(shifted.intervals(), &[iv(0, 1), iv(9, 10)]);
        assert_eq!(shifted.measure(), s.measure());

        // the old seam: [8, 10) and [0, 2) meet at 3 and merge
        let s = set(&[(0, 2), (5, 6), (8, 10)]);
        assert_eq!(s.shift_mod(3, Tick(10)).intervals(), &[iv(1, 5), iv(8, 9)]);
        // and around a split: the whole period stays whole
        assert_eq!(set(&[(0, 10)]).shift_mod(4, Tick(10)), set(&[(0, 10)]));
    }

    #[test]
    fn cut_into_is_intersect_and_subtract() {
        let a = set(&[(0, 10), (20, 30)]);
        let b = set(&[(5, 25), (28, 40)]);
        let (mut inside, mut outside) = (set(&[(1, 2)]), set(&[(3, 4)]));
        a.cut_into(&b, &mut inside, &mut outside);
        assert_eq!(inside.intervals(), &[iv(5, 10), iv(20, 25), iv(28, 30)]);
        assert_eq!(outside.intervals(), &[iv(0, 5), iv(25, 28)]);
    }

    #[test]
    fn shift_mod_negative_delta() {
        let s = set(&[(0, 2)]);
        let shifted = s.shift_mod(-3, Tick(10));
        assert_eq!(shifted.intervals(), &[iv(7, 9)]);
        // shifting by a full period is the identity
        assert_eq!(s.shift_mod(10, Tick(10)), s);
        assert_eq!(s.shift_mod(-20, Tick(10)), s);
    }

    #[test]
    fn shift_mod_identity_on_zero() {
        let s = set(&[(2, 4), (6, 9)]);
        assert_eq!(s.shift_mod(0, Tick(10)), s);
    }

    #[test]
    fn contains_membership() {
        let s = set(&[(2, 4), (6, 9)]);
        assert!(!s.contains(Tick(0)));
        assert!(s.contains(Tick(2)));
        assert!(s.contains(Tick(3)));
        assert!(!s.contains(Tick(4)));
        assert!(!s.contains(Tick(5)));
        assert!(s.contains(Tick(6)));
        assert!(s.contains(Tick(8)));
        assert!(!s.contains(Tick(9)));
    }

    #[test]
    fn breakpoints_enumerate_endpoints() {
        let s = set(&[(2, 4), (6, 9)]);
        let bp: Vec<Tick> = s.breakpoints().collect();
        assert_eq!(bp, vec![Tick(2), Tick(4), Tick(6), Tick(9)]);
    }

    #[test]
    fn fold_mod_wraps_into_residue_classes() {
        // [8, 12) mod 5 → [3, 5) ∪ [0, 2)
        let s = set(&[(8, 12)]);
        assert_eq!(s.fold_mod(Tick(5)).intervals(), &[iv(0, 2), iv(3, 5)]);
        // an interval spanning a full modulus covers every class
        assert!(set(&[(7, 13)]).fold_mod(Tick(5)).covers(Tick(5)));
        assert!(set(&[(7, 12)]).fold_mod(Tick(5)).covers(Tick(5)));
        // overlapping images merge canonically
        let s = set(&[(0, 2), (10, 12), (23, 24)]);
        assert_eq!(s.fold_mod(Tick(10)).intervals(), &[iv(0, 2), iv(3, 4)]);
        // folding by a period the set already lives in is the identity
        let s = set(&[(1, 3), (6, 9)]);
        assert_eq!(s.fold_mod(Tick(10)), s);
        assert!(IntervalSet::empty().fold_mod(Tick(10)).is_empty());
    }

    #[test]
    fn gaps_are_complement() {
        let s = set(&[(0, 3), (7, 10)]);
        assert_eq!(s.gaps(Tick(10)).intervals(), &[iv(3, 7)]);
    }
}
