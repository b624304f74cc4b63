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
//! `l ≥ t` on add +0, which leaves a sum unchanged. The quantile's bisection
//! stops once its midpoint rounds onto an end. From there on the loop
//! would repeat the same step, so the result is the one all 80 steps give.

use crate::exact::AnalysisConfig;
use crate::firsthit::{FirstHitError, FirstHits};
use nd_core::error::NdError;
use nd_core::schedule::{BeaconSeq, ReceptionWindows};
use nd_core::time::Tick;

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
    /// profile of `p · clamp((t − l)/gap, 0, 1)`, added in profile order.
    fn cdf(&self, t: f64) -> f64 {
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
        for (&l, &p) in self.delay[n..].iter().zip(&self.prob[n..]) {
            if l >= t {
                break; // this term and every later one adds +0
            }
            acc += p * frac(l);
        }
        acc
    }
}

/// The exact distribution of the one-way discovery latency over a uniform
/// random encounter.
pub struct LatencyDistribution {
    components: Vec<Component>,
    worst: Option<Tick>,
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
        }
    }

    /// `P(latency ≤ t)` — exact.
    pub fn cdf(&self, t: f64) -> f64 {
        if t <= 0.0 {
            return 0.0;
        }
        let mut acc = 0.0;
        for c in &self.components {
            acc += c.weight * c.cdf(t);
        }
        acc
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
    /// discovery; computed by bisection on the closed-form CDF.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..1.0).contains(&q) && q > 0.0);
        let discovered = 1.0 - self.undiscovered_probability();
        let target = q * discovered;
        let mut lo = 0.0;
        let mut hi = self
            .worst
            .map(|w| w.as_secs_f64())
            .unwrap_or_else(|| self.mean() * 64.0);
        // expand hi if needed (partial distributions)
        while self.cdf(hi) < target {
            hi *= 2.0;
        }
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            // with target > 0, cdf(lo) < target ≤ cdf(hi) holds throughout
            // (cdf(0) = 0): once `mid` rounds onto `lo` or `hi`, every
            // further step leaves both where they are
            if target > 0.0 && (mid == lo || mid == hi) {
                break;
            }
            if self.cdf(mid) < target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
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

    #[test]
    fn cdf_equals_the_plain_scan_at_every_band_edge() {
        // a term's fraction (t − l)/gap reaches 1 near t = l + gap and 0
        // at t = l: probe both edges of every term and their neighbouring
        // floats, where the running-sum prefix could be off by one
        let (slot, omega) = (Tick::from_millis(1), Tick::from_micros(36));
        for (name, eta) in [("disco", 0.14), ("searchlight", 0.1)] {
            let sched = nd_protocols::schedule_for_selector(name, eta, slot, omega).unwrap();
            let d = LatencyDistribution::build(
                sched.beacons.as_ref().unwrap(),
                sched.windows.as_ref().unwrap(),
                &AnalysisConfig::paper_default(),
                true,
            )
            .unwrap();
            assert!(
                d.worst().is_none(),
                "{name}: the slot-boundary strips stay uncovered"
            );
            // points where `l ≤ t − gap` and the exact fraction disagree
            let mut disagree = 0;
            for c in &d.components {
                for &l in &c.delay {
                    for edge in [l, l + c.gap] {
                        for t in [edge.next_down(), edge, edge.next_up()] {
                            let whole = ((t - l) / c.gap).clamp(0.0, 1.0) == 1.0;
                            disagree += usize::from(whole != (l <= t - c.gap));
                            assert_eq!(
                                d.cdf(t).to_bits(),
                                scan_cdf(&d, t).to_bits(),
                                "{name} at t = {t:e}"
                            );
                        }
                    }
                }
            }
            assert!(
                disagree > 0,
                "{name}: no probe separates the two predicates"
            );
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
