//! Exact discovery-latency distributions.
//!
//! The worst case (Definition 3.4) is one point of a richer object: the
//! full distribution of the discovery latency over a uniformly random
//! encounter (arrival instant × schedule offset). For periodic schedules
//! this distribution is computable *exactly*: conditioned on the arrival
//! falling in the gap before beacon `k`, the latency is
//! `W + l*_k(Φ)` with `W ~ U(0, λ_{k−1}]` and `Φ` uniform — a convolution
//! of a uniform with the (exactly known) discrete first-hit profile.
//! [`LatencyDistribution`] evaluates that mixture's CDF in closed form.
//!
//! The CDF is read from running sums, and it is bit-identical to the plain
//! scan that adds `p · clamp((t − l)/gap, 0, 1)` over each component's
//! profile in delay order. The fraction falls as `l` grows, so the terms
//! with a fraction of exactly 1 form a prefix. Each of them adds `p`, so
//! the scan's partial sum after them is the running sum kept in that order.
//! The partial band after it is added term by term, and the terms from
//! `l ≥ t` on add +0, which leaves a sum unchanged.
//!
//! The CDF as evaluated never decreases as `t` grows. Rounding is monotone,
//! so each term `p · clamp((t − l)/gap, 0, 1)` never decreases in `t`:
//! `t − l`, the division by `gap > 0`, the clamp and the product with
//! `p ≥ 0` each keep the order of their inputs. A rounded sum of
//! non-negative terms never decreases when one term grows, and neither
//! does the weighted sum over components; for `t ≤ 0` the CDF is 0. So for
//! a target `0 < target ≤ cdf(+∞)` there is one least float `t*` with
//! `cdf(t*) ≥ target`, and `cdf(x) < target` holds exactly when `x < t*`.
//!
//! The quantile's bisection asks only that question. It is replayed: a
//! search finds `t*`, and the unchanged `0.5·(lo + hi)` loop then compares
//! each midpoint with `t*`. The search keeps a bracket of real `cdf` values,
//! `cdf(lo) < target ≤ cdf(hi)`, and ends when `lo` is the float just below
//! `hi`. Newton steps along the slope of the piecewise-linear CDF choose
//! where it probes, so it takes about 9 evaluations where the bisection
//! took about 60. The slope never decides a comparison. The loop still
//! stops once its midpoint rounds onto an end, from where every further
//! step would repeat, so the result is the one all 80 steps give. Rounding
//! can leave `cdf(+∞)` below `q · P(discovered)` for `q` near 1; the target
//! is clamped to `cdf(+∞)`, and the answer is then the end of the support.

use crate::exact::AnalysisConfig;
use crate::firsthit::{FirstHitError, FirstHits};
use nd_core::error::NdError;
use nd_core::schedule::{BeaconSeq, ReceptionWindows};
use nd_core::time::Tick;
use std::sync::atomic::{AtomicU64, Ordering};

/// One mixture component: arrival in the gap before a specific beacon.
struct Component {
    /// Probability weight of this component (gap length / T_B).
    weight: f64,
    /// The gap length (the uniform wait's support).
    gap: f64,
    /// The first-hit profile's latencies, ascending.
    delay: Vec<f64>,
    /// Their exact probabilities.
    prob: Vec<f64>,
    /// `run[i]`: the sum of `prob[..i]`, added left to right from 0.
    run: Vec<f64>,
    /// Probability that this component never discovers.
    undiscovered: f64,
}

impl Component {
    /// `P(W + l* ≤ t)` for `t > 0`, with `W ~ U(0, gap]`: the sum over the
    /// profile of `p · clamp((t − l)/gap, 0, 1)`, added in profile order;
    /// with the slope of that piecewise-linear sum at `t`, the mass of the
    /// partial band over `gap`.
    fn cdf(&self, t: f64) -> (f64, f64) {
        let frac = |l: f64| ((t - l) / self.gap).clamp(0.0, 1.0);
        // the terms whose fraction is exactly 1 add `p` and form a prefix
        // (the fraction falls as `l` grows): its sum is a running sum.
        // `l ≤ t − gap` finds it to within rounding, the exact predicate
        // settles it.
        let whole = |i: usize| frac(self.delay[i]) == 1.0;
        let mut n = self.delay.partition_point(|&l| l <= t - self.gap);
        while n > 0 && !whole(n - 1) {
            n -= 1;
        }
        while n < self.delay.len() && whole(n) {
            n += 1;
        }
        let mut acc = self.run[n];
        let mut band = n;
        for (&l, &p) in self.delay[n..].iter().zip(&self.prob[n..]) {
            if l >= t {
                break; // this term and every later one adds +0
            }
            acc += p * frac(l);
            band += 1;
        }
        (acc, (self.run[band] - self.run[n]) / self.gap)
    }
}

/// The exact distribution of the one-way discovery latency over a uniform
/// random encounter.
pub struct LatencyDistribution {
    components: Vec<Component>,
    worst: Option<Tick>,
    /// CDF evaluations so far (see [`LatencyDistribution::cdf_evals`]).
    evals: AtomicU64,
}

impl LatencyDistribution {
    /// Build the exact distribution for `windows` discovering `beacons`.
    ///
    /// Fails when the schedule pair leaves offsets permanently uncovered
    /// *and* `allow_partial` is false; with `allow_partial` the
    /// distribution carries an atom at infinity (see
    /// [`LatencyDistribution::undiscovered_probability`]).
    pub fn build(
        beacons: &BeaconSeq,
        windows: &ReceptionWindows,
        cfg: &AnalysisConfig,
        allow_partial: bool,
    ) -> Result<Self, NdError> {
        let hits = FirstHits::compute(beacons, windows, cfg).map_err(|e| {
            NdError::AnalysisFailed(match e {
                FirstHitError::NoReception => "windows admit no reception under this model".into(),
                FirstHitError::Budget { .. } => "beacon budget exhausted".into(),
            })
        })?;
        let dist = Self::from_first_hits(&hits);
        if dist.worst.is_none() && !allow_partial {
            return Err(NdError::AnalysisFailed(
                "schedule leaves offsets permanently uncovered".into(),
            ));
        }
        Ok(dist)
    }

    /// The distribution of a computed first-hit structure (with an atom
    /// at infinity if some offsets are never covered).
    pub fn from_first_hits(hits: &FirstHits) -> Self {
        let t_b = hits.beacon_period.as_secs_f64();
        let total = hits.period.as_nanos() as f64;
        let mut components = Vec::with_capacity(hits.phases.len());
        let mut worst = Tick::ZERO;
        let mut any_uncovered = false;
        for ph in &hits.phases {
            let undiscovered = ph.uncovered as f64 / total;
            if undiscovered > 0.0 {
                any_uncovered = true;
            }
            if let Some(&(w, _)) = ph.hist.last() {
                worst = worst.max(ph.gap + w);
            }
            let weight = if hits.uniform {
                1.0
            } else {
                ph.gap.as_secs_f64() / t_b
            };
            let delay: Vec<f64> = ph.hist.iter().map(|&(d, _)| d.as_secs_f64()).collect();
            let prob: Vec<f64> = ph.hist.iter().map(|&(_, m)| m as f64 / total).collect();
            let run = std::iter::once(0.0)
                .chain(prob.iter().scan(0.0, |acc: &mut f64, &p| {
                    *acc += p;
                    Some(*acc)
                }))
                .collect();
            components.push(Component {
                weight,
                gap: ph.gap.as_secs_f64(),
                delay,
                prob,
                run,
                undiscovered,
            });
        }
        LatencyDistribution {
            components,
            worst: if any_uncovered { None } else { Some(worst) },
            evals: AtomicU64::new(0),
        }
    }

    /// `P(latency ≤ t)` — exact.
    pub fn cdf(&self, t: f64) -> f64 {
        self.cdf_slope(t).0
    }

    /// `P(latency ≤ t)` and the slope of the piecewise-linear CDF at `t`.
    fn cdf_slope(&self, t: f64) -> (f64, f64) {
        self.evals.fetch_add(1, Ordering::Relaxed);
        if t <= 0.0 {
            return (0.0, 0.0);
        }
        let (mut acc, mut slope) = (0.0, 0.0);
        for c in &self.components {
            let (cdf, dens) = c.cdf(t);
            acc += c.weight * cdf;
            slope += c.weight * dens;
        }
        (acc, slope)
    }

    /// How many times the CDF was evaluated, by [`LatencyDistribution::cdf`]
    /// and by the quantile searches.
    pub fn cdf_evals(&self) -> u64 {
        self.evals.load(Ordering::Relaxed)
    }

    /// Probability that discovery never happens (atom at infinity).
    pub fn undiscovered_probability(&self) -> f64 {
        self.components
            .iter()
            .map(|c| c.weight * c.undiscovered)
            .sum()
    }

    /// The exact mean latency, conditioning on discovery.
    pub fn mean(&self) -> f64 {
        let mut acc = 0.0;
        let mut mass = 0.0;
        for c in &self.components {
            for (&l, &p) in c.delay.iter().zip(&c.prob) {
                acc += c.weight * p * (l + c.gap / 2.0);
                mass += c.weight * p;
            }
        }
        acc / mass
    }

    /// The exact `q`-quantile (0 < q < 1) of the latency, conditioning on
    /// discovery; computed by bisection on the closed-form CDF, whose
    /// comparisons are replayed against one threshold (module docs).
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..1.0).contains(&q) && q > 0.0);
        let discovered = 1.0 - self.undiscovered_probability();
        // rounding can leave the CDF's top, cdf(+∞), below q · discovered
        // for q near 1: the answer is then the end of the support
        let top = self.cdf(f64::INFINITY);
        let target = (q * discovered).min(top);
        let mut lo = 0.0;
        let mut hi = self
            .worst
            .map(|w| w.as_secs_f64())
            .unwrap_or_else(|| self.mean() * 64.0);
        // expand hi if needed (partial distributions); with target > 0 this
        // stops at a finite hi, by twice the support's end
        while self.cdf(hi) < target {
            hi *= 2.0;
        }
        // `cdf(x) < target` is `x < t`: no x is below a target of 0
        let t = if target > 0.0 {
            self.threshold(target, top, hi)
        } else {
            0.0
        };
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            // with target > 0, cdf(lo) < target ≤ cdf(hi) holds throughout
            // (cdf(0) = 0): once `mid` rounds onto `lo` or `hi`, every
            // further step leaves both where they are
            if target > 0.0 && (mid == lo || mid == hi) {
                break;
            }
            if mid < t {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    /// The least float `t` with `cdf(t) ≥ target`, for `0 < target ≤ top
    /// = cdf(+∞)` and a finite `hi` with `cdf(hi) ≥ target`. Real CDF
    /// values keep the bracket `cdf(lo) < target ≤ cdf(hi)`, and the search
    /// ends when `lo` is the float just below `hi`; Newton steps along the
    /// piecewise-linear CDF only choose where to probe. The bits of
    /// non-negative floats are ordered as the floats are, so the bracket is
    /// kept in bits.
    fn threshold(&self, target: f64, top: f64, hi: f64) -> f64 {
        let (mut lo, mut hi) = (0u64, hi.to_bits());
        // the first probe: the secant from the origin to the support's end
        let end = self.support_end().min(f64::from_bits(hi));
        let mut at = (end * (target / top)).to_bits();
        // a Newton step that leaves the bracket, or stays within the run of
        // floats over which the rounded CDF is flat, is replaced by a probe
        // `reach` floats in from the end it points at; `reach` starts at
        // that run's length and doubles while this repeats
        let mut reach = 1;
        for probes in 0.. {
            if hi - lo <= 1 {
                break;
            }
            if at <= lo || at >= hi || probes >= 64 {
                (at, reach) = (Self::midpoint(lo, hi), 1);
            }
            let x = f64::from_bits(at);
            let (f, slope) = self.cdf_slope(x);
            let up = f < target;
            if up {
                lo = at;
            } else {
                hi = at;
            }
            let newton = x + (target - f) / slope;
            if !(newton >= 0.0 && newton.is_finite()) {
                // a flat stretch: nothing to follow
                (at, reach) = (Self::midpoint(lo, hi), 1);
                continue;
            }
            // the rounded CDF moves by one float over about ulp(f)/slope
            let flat = (x + (f.next_up() - f) / slope).to_bits().saturating_sub(at);
            let run = reach.max(flat).max(1);
            let next = newton.to_bits();
            let stays = next.abs_diff(at) < run;
            (at, reach) = if next >= hi || (stays && !up) {
                (hi.saturating_sub(run), run.saturating_mul(2))
            } else if next <= lo || (stays && up) {
                (lo.saturating_add(run), run.saturating_mul(2))
            } else {
                (next, 1)
            };
        }
        f64::from_bits(hi)
    }

    /// The end of the support: the latest `l + gap` of any component.
    fn support_end(&self) -> f64 {
        self.components
            .iter()
            .filter_map(|c| c.delay.last().map(|&l| l + c.gap))
            .fold(0.0, f64::max)
    }

    /// A probe strictly between the floats with bits `lo` and `hi` (`hi −
    /// lo ≥ 2`): the arithmetic midpoint while they lie in different
    /// binades, else the middle float.
    fn midpoint(lo: u64, hi: u64) -> u64 {
        let (a, b) = (f64::from_bits(lo), f64::from_bits(hi));
        if b > 2.0 * a {
            (0.5 * (a + b)).to_bits()
        } else {
            lo + (hi - lo) / 2
        }
    }

    /// The exact worst case (`None` if some offsets are never covered).
    pub fn worst(&self) -> Option<Tick> {
        self.worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nd_protocols::optimal::{self, OptimalParams};

    fn dist_for(eta: f64) -> LatencyDistribution {
        let opt = optimal::symmetric(OptimalParams::paper_default(), eta).unwrap();
        LatencyDistribution::build(
            opt.schedule.beacons.as_ref().unwrap(),
            opt.schedule.windows.as_ref().unwrap(),
            &AnalysisConfig::paper_default(),
            false,
        )
        .unwrap()
    }

    #[test]
    fn cdf_is_a_distribution() {
        let d = dist_for(0.05);
        assert_eq!(d.cdf(0.0), 0.0);
        let worst = d.worst().unwrap().as_secs_f64();
        assert!((d.cdf(worst) - 1.0).abs() < 1e-9);
        assert!((d.cdf(worst * 2.0) - 1.0).abs() < 1e-12);
        // monotone
        let mut prev = 0.0;
        for i in 0..50 {
            let t = worst * i as f64 / 49.0;
            let c = d.cdf(t);
            assert!(c >= prev - 1e-12);
            prev = c;
        }
        assert_eq!(d.undiscovered_probability(), 0.0);
    }

    #[test]
    fn uniform_tiling_is_almost_uniform_latency() {
        // for a disjoint tiling with uniform gaps, the latency is (almost)
        // uniform on (0, worst]: mean ≈ worst/2, quantiles linear
        let d = dist_for(0.05);
        let worst = d.worst().unwrap().as_secs_f64();
        assert!((d.mean() / worst - 0.5).abs() < 0.02, "mean {}", d.mean());
        assert!((d.quantile(0.5) / worst - 0.5).abs() < 0.03);
        assert!((d.quantile(0.9) / worst - 0.9).abs() < 0.03);
        assert!((d.quantile(0.99) / worst - 0.99).abs() < 0.03);
    }

    #[test]
    fn quantiles_bracket_the_worst_case() {
        let d = dist_for(0.02);
        let worst = d.worst().unwrap().as_secs_f64();
        assert!(d.quantile(0.999) <= worst * (1.0 + 1e-6));
        assert!(d.quantile(0.5) < d.quantile(0.95));
    }

    #[test]
    fn mean_matches_exact_engine() {
        let opt = optimal::symmetric(OptimalParams::paper_default(), 0.05).unwrap();
        let wc = crate::exact::one_way_worst_case(
            opt.schedule.beacons.as_ref().unwrap(),
            opt.schedule.windows.as_ref().unwrap(),
            &AnalysisConfig::paper_default(),
        )
        .unwrap();
        let d = dist_for(0.05);
        assert!((wc.mean - d.mean()).abs() / wc.mean < 1e-9);
    }

    /// The CDF as a plain scan: every term of every component, in profile
    /// order — the reference the running sums must reproduce bit for bit.
    fn scan_cdf(d: &LatencyDistribution, t: f64) -> f64 {
        if t <= 0.0 {
            return 0.0;
        }
        let mut acc = 0.0;
        for c in &d.components {
            let mut comp = 0.0;
            for (&l, &p) in c.delay.iter().zip(&c.prob) {
                comp += p * ((t - l) / c.gap).clamp(0.0, 1.0);
            }
            acc += c.weight * comp;
        }
        acc
    }

    /// The distribution of the registry protocol `name` at `eta` (1 ms
    /// slots, ω = 36 µs), with its uncovered strips as an atom.
    fn registry_dist(name: &str, eta: f64) -> LatencyDistribution {
        let (slot, omega) = (Tick::from_millis(1), Tick::from_micros(36));
        let sched = nd_protocols::schedule_for_selector(name, eta, slot, omega).unwrap();
        LatencyDistribution::build(
            sched.beacons.as_ref().unwrap(),
            sched.windows.as_ref().unwrap(),
            &AnalysisConfig::paper_default(),
            true,
        )
        .unwrap()
    }

    /// Both edges of every term — a term's fraction (t − l)/gap reaches 1
    /// near t = l + gap and 0 at t = l — and their neighbouring floats.
    fn band_edge_probes(d: &LatencyDistribution) -> impl Iterator<Item = (f64, &Component, f64)> {
        d.components.iter().flat_map(|c| {
            c.delay.iter().flat_map(move |&l| {
                [l, l + c.gap]
                    .into_iter()
                    .flat_map(|edge| [edge.next_down(), edge, edge.next_up()])
                    .map(move |t| (t, c, l))
            })
        })
    }

    /// The band-edge distributions: Disco and Searchlight, whose slot-
    /// boundary strips stay uncovered.
    fn band_edge_dists() -> [(&'static str, LatencyDistribution); 2] {
        ["disco", "searchlight"].map(|name| {
            let d = registry_dist(name, if name == "disco" { 0.14 } else { 0.1 });
            assert!(
                d.worst().is_none(),
                "{name}: the slot-boundary strips stay uncovered"
            );
            (name, d)
        })
    }

    #[test]
    fn cdf_equals_the_plain_scan_at_every_band_edge() {
        // the running-sum prefix could be off by one at a band edge
        for (name, d) in band_edge_dists() {
            // points where `l ≤ t − gap` and the exact fraction disagree
            let mut disagree = 0;
            for (t, c, l) in band_edge_probes(&d) {
                let whole = ((t - l) / c.gap).clamp(0.0, 1.0) == 1.0;
                disagree += usize::from(whole != (l <= t - c.gap));
                assert_eq!(
                    d.cdf(t).to_bits(),
                    scan_cdf(&d, t).to_bits(),
                    "{name} at t = {t:e}"
                );
            }
            assert!(
                disagree > 0,
                "{name}: no probe separates the two predicates"
            );
        }
    }

    #[test]
    fn cdf_never_decreases_across_band_edges() {
        // the quantile's replay rests on it: `cdf(x) < target` is `x < t`
        for (name, d) in band_edge_dists() {
            let mut ts: Vec<f64> = band_edge_probes(&d).map(|(t, _, _)| t).collect();
            ts.sort_by(f64::total_cmp);
            ts.dedup();
            let cdf: Vec<f64> = ts.iter().map(|&t| d.cdf(t)).collect();
            for (i, w) in cdf.windows(2).enumerate() {
                assert!(
                    w[0] <= w[1],
                    "{name}: cdf({:e}) = {:e} > cdf({:e}) = {:e}",
                    ts[i],
                    w[0],
                    ts[i + 1],
                    w[1]
                );
            }
            // the CDF's top, at +∞, is reached once every band is whole
            assert_eq!(cdf.last(), Some(&d.cdf(f64::INFINITY)), "{name}");
        }
    }

    /// The quantile with a CDF call at every bisection step: what the
    /// replay against one threshold must reproduce bit for bit.
    fn bisected_quantile(d: &LatencyDistribution, q: f64) -> f64 {
        let target = q * (1.0 - d.undiscovered_probability());
        assert!(
            target <= d.cdf(f64::INFINITY),
            "the bisection would not return"
        );
        let (mut lo, mut hi) = (0.0, d.worst().map_or(d.mean() * 64.0, |w| w.as_secs_f64()));
        while d.cdf(hi) < target {
            hi *= 2.0;
        }
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            if d.cdf(mid) < target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    #[test]
    fn replayed_quantiles_equal_the_bisection() {
        // the registry's protocols: kinks, flat stretches and atoms
        let cases = [
            ("optimal-slotless", 0.125),
            ("diff-codes", 0.06),
            ("searchlight", 0.05),
            ("disco", 0.04),
            ("u-connect", 0.07),
            ("code-based", 0.08),
        ];
        for (name, eta) in cases {
            let d = registry_dist(name, eta);
            for q in [
                1e-9, 1e-3, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 0.999999,
            ] {
                assert_eq!(
                    d.quantile(q).to_bits(),
                    bisected_quantile(&d, q).to_bits(),
                    "{name} at η = {eta}, q = {q}"
                );
            }
        }
    }

    #[test]
    fn quantile_returns_where_rounding_leaves_the_cdf_below_its_target() {
        // Disco at η = 0.02: cdf(+∞) rounds below q · discovered for the
        // largest q < 1, which the bisection's upper bound chased forever
        let d = registry_dist("disco", 0.02);
        let q = 1.0 - f64::EPSILON / 2.0;
        let top = d.cdf(f64::INFINITY);
        assert!(top < q * (1.0 - d.undiscovered_probability()));
        let end = d.support_end();
        let x = d.quantile(q);
        // the end of the support: the bisection brackets the least float
        // at which the CDF reaches its top
        assert!(x <= end, "{x:e} past the support's end {end:e}");
        assert!(
            d.cdf(x.next_up()) == top && d.cdf(x.next_down()) < top,
            "{x:e}"
        );
        assert!(d.quantile(0.999) <= x);
    }

    #[test]
    fn quantiles_take_a_few_cdf_evaluations() {
        let d = registry_dist("searchlight", 0.05);
        for q in [1e-9, 0.5, 0.95, 0.99, 0.999999] {
            let before = d.cdf_evals();
            d.quantile(q);
            let evals = d.cdf_evals() - before;
            assert!((3..=40).contains(&evals), "q = {q}: {evals} evaluations");
        }
    }

    #[test]
    fn partial_distribution_carries_atom() {
        use nd_core::time::Tick;
        use nd_protocols::Disco;
        let sched = Disco::new(3, 5, Tick::from_millis(1), Tick::from_micros(36))
            .unwrap()
            .schedule()
            .unwrap();
        let d = LatencyDistribution::build(
            sched.beacons.as_ref().unwrap(),
            sched.windows.as_ref().unwrap(),
            &AnalysisConfig::paper_default(),
            true,
        )
        .unwrap();
        assert!(d.undiscovered_probability() > 0.0);
        assert!(d.worst().is_none());
        // strict mode rejects it
        assert!(LatencyDistribution::build(
            sched.beacons.as_ref().unwrap(),
            sched.windows.as_ref().unwrap(),
            &AnalysisConfig::paper_default(),
            false,
        )
        .is_err());
    }
}
