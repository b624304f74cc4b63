//! Beacon-jitter decorrelation (the paper's concluding direction:
//! "protocols that contain decorrelation mechanisms to make the collision
//! of each beacon independent from the occurrence of previous collisions
//! have not been studied thoroughly").
//!
//! [`Jittered`] wraps any behaviour and adds an independent uniform random
//! delay to every transmitted beacon. With repetitive sequences, one
//! collision implies a correlated pattern of future collisions (Lemma 5.2
//! discussion in §5.2.2); jitter breaks that correlation, which is the
//! assumption behind Appendix B's optimal-redundancy analysis — and what
//! BLE's advDelay implements in practice.

use nd_core::time::Tick;
use nd_sim::{Behavior, Op, Payload};
use rand::Rng;
use rand::RngCore;

/// Adds `U[0, max_jitter]` to every beacon of the wrapped behaviour.
/// Reception windows are not moved.
pub struct Jittered<B> {
    inner: B,
    max_jitter: Tick,
}

impl<B: Behavior> Jittered<B> {
    /// Wrap a behaviour.
    pub fn new(inner: B, max_jitter: Tick) -> Self {
        Jittered { inner, max_jitter }
    }

    /// Access the wrapped behaviour.
    pub fn inner(&self) -> &B {
        &self.inner
    }
}

impl<B: Behavior> Behavior for Jittered<B> {
    fn next_ops_into(&mut self, after: Tick, rng: &mut dyn RngCore, out: &mut Vec<Op>) {
        let start = out.len();
        self.inner.next_ops_into(after, rng, out);
        let ops = &mut out[start..];
        for op in ops.iter_mut() {
            if let Op::Tx { at, .. } = op {
                *at += Tick(rng.gen_range(0..=self.max_jitter.as_nanos()));
            }
        }
        ops.sort_by_key(|op| op.at());
    }

    fn on_reception(
        &mut self,
        at: Tick,
        from: usize,
        payload: Payload,
        rng: &mut dyn RngCore,
    ) -> Vec<Op> {
        self.inner.on_reception(at, from, payload, rng)
    }
}

/// Round-coherent jitter: the decorrelation mechanism that *preserves
/// deterministic coverage*.
///
/// Per-beacon jitter (as in [`Jittered`]) breaks a tiling sequence: each
/// beacon covers a specific band of offsets, and moving beacons
/// independently leaves random gaps, so the Q-fold coverage guarantee of
/// Appendix B is lost. Shifting each complete *round* of `k` beacons by a
/// common random offset keeps every round a perfect tiling (a uniformly
/// shifted tiling still covers every offset exactly once) while making the
/// collision fate of consecutive rounds independent — which is precisely
/// the independence assumption behind Eq. 32. The `appb` experiment shows
/// this variant hitting the analytical failure rate where both the plain
/// repetitive schedule (correlated collisions) and per-beacon jitter
/// (broken coverage) miss it.
pub struct RoundJittered {
    beacons: nd_core::BeaconSeq,
    windows: Option<nd_core::ReceptionWindows>,
    round: u64,
    emitted_rx_until: Tick,
}

impl RoundJittered {
    /// Wrap a schedule whose beacon side is one uniform-gap round per
    /// period (the shape produced by the optimal constructions).
    pub fn new(schedule: nd_core::Schedule) -> Self {
        let beacons = schedule
            .beacons
            .expect("round jitter needs a beacon sequence");
        RoundJittered {
            beacons,
            windows: schedule.windows,
            round: 0,
            emitted_rx_until: Tick::ZERO,
        }
    }
}

impl Behavior for RoundJittered {
    fn next_ops_into(&mut self, after: Tick, rng: &mut dyn RngCore, out: &mut Vec<Op>) {
        let tb = self.beacons.period();
        let lambda = self.beacons.mean_gap();
        let omega = self.beacons.omega();
        let start = out.len();
        // emit whole rounds until one reaches `after`
        while Tick(self.round * tb.as_nanos()) + tb <= after {
            self.round += 1;
        }
        for _ in 0..2 {
            let base = Tick(self.round * tb.as_nanos());
            // common shift for the whole round, capped so rounds never
            // overlap (draw in [0, λ − ω))
            let cap = lambda.saturating_sub(omega).as_nanos().max(1);
            let shift = Tick(rng.gen_range(0..cap));
            for &t in self.beacons.times() {
                let at = base + t + shift;
                if at >= after {
                    out.push(Op::Tx { at, payload: 0 });
                }
            }
            self.round += 1;
        }
        // reception side: unshifted periodic windows
        if let Some(c) = &self.windows {
            let until = Tick(self.round * tb.as_nanos()) + c.period();
            for iv in c.instances_in(self.emitted_rx_until, until) {
                if iv.start >= after {
                    out.push(Op::Rx {
                        at: iv.start,
                        duration: iv.measure(),
                    });
                }
            }
            self.emitted_rx_until = until;
        }
        out[start..].sort_by_key(|op| op.at());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nd_core::schedule::{BeaconSeq, Schedule};
    use nd_sim::ScheduleBehavior;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn advertiser() -> ScheduleBehavior {
        ScheduleBehavior::new(Schedule::tx_only(
            BeaconSeq::uniform(1, Tick::from_millis(1), Tick::from_micros(36), Tick::ZERO).unwrap(),
        ))
    }

    /// Pull batches until at least `n` ops have been produced.
    fn pull_ops(b: &mut impl Behavior, n: usize, rng: &mut StdRng) -> Vec<Op> {
        let mut out: Vec<Op> = Vec::new();
        let mut after = Tick::ZERO;
        while out.len() < n {
            let batch = b.next_ops(after, rng);
            assert!(!batch.is_empty(), "behavior ran dry");
            after = batch.last().unwrap().at() + Tick(1);
            out.extend(batch);
        }
        out
    }

    #[test]
    fn jitter_stays_within_bounds() {
        let mut j = Jittered::new(advertiser(), Tick::from_micros(100));
        let mut rng = StdRng::seed_from_u64(5);
        let ops = pull_ops(&mut j, 10, &mut rng);
        for (i, op) in ops.iter().enumerate() {
            let base = Tick::from_millis(i as u64);
            assert!(op.at() >= base, "op {i}");
            assert!(op.at() <= base + Tick::from_micros(100), "op {i}");
        }
    }

    #[test]
    fn jitter_varies_across_beacons() {
        let mut j = Jittered::new(advertiser(), Tick::from_micros(500));
        let mut rng = StdRng::seed_from_u64(5);
        let ops = pull_ops(&mut j, 10, &mut rng);
        let offsets: Vec<u64> = ops
            .iter()
            .enumerate()
            .map(|(i, op)| (op.at() - Tick::from_millis(i as u64)).as_nanos())
            .collect();
        assert!(offsets.iter().any(|&o| o != offsets[0]));
    }

    #[test]
    fn zero_jitter_is_identity() {
        let mut plain = advertiser();
        let mut j = Jittered::new(advertiser(), Tick::ZERO);
        let mut r1 = StdRng::seed_from_u64(5);
        let mut r2 = StdRng::seed_from_u64(5);
        assert_eq!(
            plain.next_ops(Tick::ZERO, &mut r1),
            j.next_ops(Tick::ZERO, &mut r2)
        );
    }

    #[test]
    fn jitter_leaves_earlier_ops_alone() {
        // a batch appended after a late op is jittered and sorted on its
        // own: the op already in the buffer stays first and unmoved
        let late = Op::Rx {
            at: Tick::from_secs(1),
            duration: Tick(1),
        };
        let mut j = Jittered::new(advertiser(), Tick::from_micros(500));
        let mut twin = Jittered::new(advertiser(), Tick::from_micros(500));
        let mut out = vec![late];
        j.next_ops_into(Tick::ZERO, &mut StdRng::seed_from_u64(5), &mut out);
        let batch = twin.next_ops(Tick::ZERO, &mut StdRng::seed_from_u64(5));
        assert_eq!(out[0], late);
        assert_eq!(out[1..], batch[..]);
    }

    #[test]
    fn round_jitter_shifts_rounds_coherently() {
        use crate::optimal::{symmetric, OptimalParams};
        let opt = symmetric(OptimalParams::paper_default(), 0.05).unwrap();
        let lambda = opt.schedule.beacons.as_ref().unwrap().mean_gap();
        let k = opt.schedule.beacons.as_ref().unwrap().n_beacons();
        let mut rj = RoundJittered::new(opt.schedule.clone());
        let mut rng = StdRng::seed_from_u64(11);
        let ops = rj.next_ops(Tick::ZERO, &mut rng);
        let tx: Vec<Tick> = ops
            .iter()
            .filter_map(|op| match op {
                Op::Tx { at, .. } => Some(*at),
                _ => None,
            })
            .collect();
        assert!(tx.len() >= 2 * k, "two full rounds emitted");
        // within the first round, gaps stay exactly λ (coherent shift)
        for w in tx[..k].windows(2) {
            assert_eq!(w[1] - w[0], lambda);
        }
        // the second round has an independent shift: the gap at the round
        // boundary differs from λ (with overwhelming probability)
        let boundary = tx[k] - tx[k - 1];
        assert!(boundary >= opt.schedule.beacons.as_ref().unwrap().omega());
        // rounds never drift outside their nominal period
        let tb = opt.schedule.beacons.as_ref().unwrap().period();
        assert!(tx[k] >= tb && tx[k] < tb * 2);
    }

    #[test]
    fn round_jitter_preserves_coverage_determinism() {
        use crate::optimal::{symmetric, OptimalParams};
        use nd_core::coverage::{CoverageMap, OverlapModel};
        // one shifted round still tiles the reception period exactly once
        let opt = symmetric(OptimalParams::paper_default(), 0.05).unwrap();
        let b = opt.schedule.beacons.as_ref().unwrap();
        let c = opt.schedule.windows.as_ref().unwrap();
        let k = b.n_beacons();
        // a coherently shifted round = the same relative instants
        let rel = b.relative_instants(k);
        let map = CoverageMap::build(&rel, c, b.omega(), OverlapModel::Start);
        assert!(map.is_deterministic());
        assert!(map.is_disjoint());
    }

    #[test]
    fn round_jitter_emits_reception_windows() {
        use crate::optimal::{symmetric, OptimalParams};
        let opt = symmetric(OptimalParams::paper_default(), 0.05).unwrap();
        let mut rj = RoundJittered::new(opt.schedule);
        let mut rng = StdRng::seed_from_u64(2);
        let ops = rj.next_ops(Tick::ZERO, &mut rng);
        assert!(ops.iter().any(|op| matches!(op, Op::Rx { .. })));
    }
}
