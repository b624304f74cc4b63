//! Clock drift: a behaviour wrapper that runs its inner protocol on a
//! skewed local clock.
//!
//! The paper (like most of the ND literature) assumes nominal clocks; real
//! crystals are off by tens of ppm. Drift matters for two reasons:
//!
//! * it breaks the *resonances* that make badly parametrized protocols
//!   non-deterministic (e.g. `T_a = T_s` couplings, or the slot-boundary
//!   alignment slivers of Figure 5) — two drifting devices slide past any
//!   unlucky alignment at a rate of Δppm·10⁻⁶ seconds per second;
//! * it slowly invalidates announced rendezvous times (mutual-assistance
//!   protocols must widen their windows accordingly).
//!
//! The `drift` experiment quantifies the first effect.

use crate::behavior::{Behavior, Op, Payload};
use nd_core::time::Tick;
use rand::RngCore;

/// Runs the wrapped behaviour on a clock that is `ppb` parts-per-billion
/// fast (positive) or slow (negative) relative to simulation time.
///
/// Local instants `t_local` map to simulation instants
/// `t_sim = t_local · (1 + ppb·10⁻⁹)`, applied with integer arithmetic so
/// the mapping is exact and monotone. Batches are mapped in place, so
/// refills through [`Behavior::next_ops_into`] allocate nothing.
pub struct Drifting<B> {
    inner: B,
    ppb: i64,
}

impl<B: Behavior> Drifting<B> {
    /// Wrap a behaviour with a clock skew in parts per billion
    /// (1 ppm = 1000 ppb). |ppb| must be below 10⁶ (0.1 %), far beyond any
    /// real crystal.
    pub fn new(inner: B, ppb: i64) -> Self {
        assert!(
            ppb.unsigned_abs() < 1_000_000,
            "unphysical drift: {ppb} ppb"
        );
        Drifting { inner, ppb }
    }

    /// Convenience: parts per million.
    pub fn ppm(inner: B, ppm: i64) -> Self {
        Self::new(inner, ppm * 1000)
    }

    /// local → simulation time: `t + trunc(t · ppb / 10⁹)`, computed in
    /// i64 by splitting `t` at whole seconds, `t = q·10⁹ + r`. The skew is
    /// `q·ppb + r·ppb/10⁹`; the first term is an integer and both share
    /// the sign of `ppb`, so truncating the second alone truncates the
    /// sum exactly as the single wide division would. Neither product can
    /// overflow: `q < 1.9·10¹⁰` and `|ppb| < 10⁶`.
    fn to_sim(&self, t: Tick) -> Tick {
        const NS_PER_S: u64 = 1_000_000_000;
        let (q, r) = (t.as_nanos() / NS_PER_S, t.as_nanos() % NS_PER_S);
        let skew = q as i64 * self.ppb + r as i64 * self.ppb / NS_PER_S as i64;
        Tick(t.as_nanos().wrapping_add_signed(skew))
    }

    /// One inner op moved to simulation time, no earlier than `at_least`.
    fn op_to_sim(&self, op: Op, at_least: Tick) -> Op {
        match op {
            Op::Tx { at, payload } => Op::Tx {
                at: self.to_sim(at).max(at_least),
                payload,
            },
            Op::Rx { at, duration } => Op::Rx {
                at: self.to_sim(at).max(at_least),
                // durations stretch with the clock too
                duration: self.to_sim(duration).max(Tick(1)),
            },
        }
    }

    /// simulation → local time (inverse mapping, rounded up so that
    /// `to_sim(sim_to_local(t)) >= t` never emits ops in the past).
    fn sim_to_local(&self, t: Tick) -> Tick {
        let ns = t.as_nanos() as i128;
        let denom = 1_000_000_000 + self.ppb as i128;
        let local = (ns * 1_000_000_000 + denom - 1) / denom;
        Tick(local as u64)
    }
}

impl<B: Behavior> Behavior for Drifting<B> {
    fn next_ops_into(&mut self, after: Tick, rng: &mut dyn RngCore, out: &mut Vec<Op>) {
        let start = out.len();
        self.inner.next_ops_into(self.sim_to_local(after), rng, out);
        for op in &mut out[start..] {
            *op = self.op_to_sim(*op, after);
        }
    }

    fn on_reception(
        &mut self,
        at: Tick,
        from: usize,
        payload: Payload,
        rng: &mut dyn RngCore,
    ) -> Vec<Op> {
        let local_at = self.sim_to_local(at);
        let mut ops = self.inner.on_reception(local_at, from, payload, rng);
        for op in &mut ops {
            *op = self.op_to_sim(*op, at);
        }
        ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::ScheduleBehavior;
    use nd_core::schedule::{BeaconSeq, Schedule};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn advertiser() -> ScheduleBehavior {
        ScheduleBehavior::new(Schedule::tx_only(
            BeaconSeq::uniform(1, Tick::from_millis(1), Tick::from_micros(36), Tick::ZERO).unwrap(),
        ))
    }

    #[test]
    fn zero_drift_is_identity() {
        let mut plain = advertiser();
        let mut drifted = Drifting::new(advertiser(), 0);
        let mut r1 = StdRng::seed_from_u64(1);
        let mut r2 = StdRng::seed_from_u64(1);
        assert_eq!(
            plain.next_ops(Tick::ZERO, &mut r1),
            drifted.next_ops(Tick::ZERO, &mut r2)
        );
    }

    #[test]
    fn positive_drift_stretches_sim_intervals() {
        // +100 ppm: the local second lasts 1.0001 sim-seconds, so the
        // "every 1 ms" beacons land at sim instants k·(1 ms + 100 ns);
        // each batch is appended to the same buffer and only it is mapped
        let mut drifted = Drifting::ppm(advertiser(), 100);
        let mut rng = StdRng::seed_from_u64(1);
        let mut ops = Vec::new();
        let mut after = Tick::ZERO;
        while ops.len() < 4 {
            drifted.next_ops_into(after, &mut rng, &mut ops);
            after = ops.last().unwrap().at() + Tick(1);
        }
        // beacon k at k·(1 ms + 100 ns)
        assert_eq!(ops[1].at(), Tick(1_000_000 + 100));
        assert_eq!(ops[3].at(), Tick(3 * 1_000_000 + 300));
    }

    #[test]
    fn negative_drift_shrinks() {
        let mut drifted = Drifting::ppm(advertiser(), -100);
        let mut rng = StdRng::seed_from_u64(1);
        let mut ops = Vec::new();
        let mut after = Tick::ZERO;
        while ops.len() < 3 {
            let batch = drifted.next_ops(after, &mut rng);
            after = batch.last().unwrap().at() + Tick(1);
            ops.extend(batch);
        }
        assert_eq!(ops[1].at(), Tick(1_000_000 - 100));
    }

    #[test]
    fn mapping_roundtrip_never_goes_backwards() {
        let d = Drifting::new(advertiser(), 137);
        for t in [0u64, 1, 999, 1_000_000, 123_456_789, 10_000_000_000] {
            let t = Tick(t);
            assert!(d.to_sim(d.sim_to_local(t)) >= t, "{t}");
        }
        let d = Drifting::new(advertiser(), -137);
        for t in [0u64, 1, 999, 1_000_000, 123_456_789] {
            let t = Tick(t);
            assert!(d.to_sim(d.sim_to_local(t)) >= t, "{t}");
        }
    }

    /// The split i64 mapping agrees with the wide formula it replaced,
    /// `t + t·ppb/10⁹` in i128 truncated toward zero, on random instants
    /// below 2⁶² and over the whole tick range.
    #[test]
    fn to_sim_matches_the_i128_formula() {
        let wide = |t: u64, ppb: i64| {
            let ns = t as i128;
            (ns + ns * ppb as i128 / 1_000_000_000) as u64
        };
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for case in 0..200_000u32 {
            let ppb = rng.gen_range(-999_999i64..=999_999);
            let t = match case % 3 {
                0 => rng.gen_range(0..1u64 << 62),
                1 => rng.gen_range(0..4_000_000_000u64),
                _ => rng.gen_range(0..u64::MAX),
            };
            let d = Drifting::new(advertiser(), ppb);
            assert_eq!(d.to_sim(Tick(t)), Tick(wide(t, ppb)), "t={t} ppb={ppb}");
        }
        for ppb in [-999_999, -1, 0, 1, 999_999] {
            let d = Drifting::new(advertiser(), ppb);
            for t in [0, 1, 999_999_999, 1_000_000_000, (1 << 62) - 1, u64::MAX] {
                assert_eq!(d.to_sim(Tick(t)), Tick(wide(t, ppb)), "t={t} ppb={ppb}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "unphysical")]
    fn rejects_extreme_drift() {
        let _ = Drifting::new(advertiser(), 2_000_000);
    }
}
