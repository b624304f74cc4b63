//! The probabilistic "birthday" protocol (McGlynn & Borbash; the classic
//! randomized baseline the deterministic literature measures against).
//!
//! In every slot a device independently transmits with probability `p_tx`,
//! listens with probability `p_rx`, and sleeps otherwise. Discovery is
//! only probabilistic — there is no worst-case guarantee — which is
//! exactly why the paper restricts itself to deterministic protocols. We
//! include it as the contrast baseline for mean-latency comparisons and
//! for collision experiments (its per-slot independence is the "perfectly
//! decorrelated" extreme of Appendix B).

use nd_core::error::NdError;
use nd_core::time::Tick;
use nd_sim::{Behavior, Op};
use rand::Rng;
use rand::RngCore;

/// A birthday-protocol node.
pub struct Birthday {
    /// Slot length (one packet airtime is the natural choice for the
    /// transmit slots; listening uses the same grid).
    pub slot: Tick,
    /// Per-slot transmit probability.
    pub p_tx: f64,
    /// Per-slot listen probability.
    pub p_rx: f64,
    cursor: Tick,
}

impl Birthday {
    /// Validate and build.
    pub fn new(slot: Tick, p_tx: f64, p_rx: f64) -> Result<Self, NdError> {
        if !(0.0..=1.0).contains(&p_tx) || !(0.0..=1.0).contains(&p_rx) || p_tx + p_rx > 1.0 {
            return Err(NdError::InfeasibleParameters(format!(
                "slot probabilities out of range: p_tx {p_tx}, p_rx {p_rx}"
            )));
        }
        if slot.is_zero() {
            return Err(NdError::InvalidSchedule("zero slot".into()));
        }
        Ok(Birthday {
            slot,
            p_tx,
            p_rx,
            cursor: Tick::ZERO,
        })
    }

    /// Split a duty-cycle budget η evenly between transmitting and
    /// listening (the symmetric configuration; with α = 1 the energy
    /// optimum mirrors Theorem 5.5's β = γ split).
    pub fn balanced(slot: Tick, eta: f64, alpha: f64) -> Result<Self, NdError> {
        let p_tx = eta / (2.0 * alpha);
        let p_rx = eta / 2.0;
        Self::new(slot, p_tx, p_rx)
    }

    /// Expected duty cycles `(β, γ) = (p_tx, p_rx)` (slots are fully used).
    pub fn expected_duty_cycle(&self) -> (f64, f64) {
        (self.p_tx, self.p_rx)
    }
}

impl Behavior for Birthday {
    fn next_ops_into(&mut self, after: Tick, rng: &mut dyn RngCore, out: &mut Vec<Op>) {
        if self.cursor < after {
            // jump to the slot grid at/after `after`
            let k = after.as_nanos().div_ceil(self.slot.as_nanos());
            self.cursor = Tick(k * self.slot.as_nanos());
        }
        let start = out.len();
        // emit slots until at least one op is produced (bounded batch)
        for _ in 0..4096 {
            let at = self.cursor;
            self.cursor += self.slot;
            let roll: f64 = rng.gen();
            if roll < self.p_tx {
                out.push(Op::Tx { at, payload: 0 });
            } else if roll < self.p_tx + self.p_rx {
                out.push(Op::Rx {
                    at,
                    duration: self.slot,
                });
            }
            if out.len() - start >= 16 {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn validation() {
        assert!(Birthday::new(Tick(1000), 0.1, 0.1).is_ok());
        assert!(Birthday::new(Tick(1000), 0.6, 0.6).is_err());
        assert!(Birthday::new(Tick(1000), -0.1, 0.5).is_err());
        assert!(Birthday::new(Tick::ZERO, 0.1, 0.1).is_err());
    }

    #[test]
    fn balanced_split() {
        let b = Birthday::balanced(Tick(1000), 0.05, 1.0).unwrap();
        assert!((b.p_tx - 0.025).abs() < 1e-12);
        assert!((b.p_rx - 0.025).abs() < 1e-12);
    }

    #[test]
    fn ops_land_on_slot_grid() {
        let mut b = Birthday::new(Tick(1000), 0.3, 0.3).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let ops = b.next_ops(Tick(2500), &mut rng);
        assert!(!ops.is_empty());
        for op in &ops {
            assert_eq!(op.at().as_nanos() % 1000, 0, "on grid");
            assert!(op.at() >= Tick(2500));
        }
    }

    #[test]
    fn long_run_frequencies_match_probabilities() {
        let mut b = Birthday::new(Tick(1000), 0.2, 0.3).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let (mut tx, mut rx) = (0u64, 0u64);
        let mut cursor = Tick::ZERO;
        for _ in 0..500 {
            for op in b.next_ops(cursor, &mut rng) {
                match op {
                    Op::Tx { at, .. } => {
                        tx += 1;
                        cursor = at + Tick(1);
                    }
                    Op::Rx { at, .. } => {
                        rx += 1;
                        cursor = at + Tick(1);
                    }
                }
            }
        }
        let total_slots = cursor.as_nanos() / 1000;
        let f_tx = tx as f64 / total_slots as f64;
        let f_rx = rx as f64 / total_slots as f64;
        assert!((f_tx - 0.2).abs() < 0.03, "tx frequency {f_tx}");
        assert!((f_rx - 0.3).abs() < 0.03, "rx frequency {f_rx}");
    }
}
