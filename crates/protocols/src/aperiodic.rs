//! Non-repetitive reception sequences (Appendix A.1 of the paper).
//!
//! All bounds in the paper remain valid when `C∞` is *not* a periodic
//! repetition of a finite `C`: Appendix A.1 re-derives
//! `M = ⌈1/γ⌉` and `L = ω/(βγ)` for arbitrary patterns. Two useful
//! non-repetitive scanners:
//!
//! * [`RandomScanner`] — one window of length `d` placed uniformly at
//!   random in each frame of length `T` (γ = d/T). It has no worst-case
//!   guarantee (a geometric tail instead), making it the canonical foil
//!   for the deterministic bound: its *mean* can approach the optimum
//!   while its tail is unbounded — exactly why the paper studies
//!   deterministic protocols.
//! * [`SlidingScanner`] — a window that advances by a fixed stride each
//!   frame (mod T). Deterministic and non-repetitive in any single frame
//!   period; with the stride coprime to the frame it behaves like a
//!   difference-set walk.

use nd_core::error::NdError;
use nd_core::time::Tick;
use nd_sim::{Behavior, Op};
use rand::Rng;
use rand::RngCore;

/// A scanner with one uniformly random window per frame (Appendix A.1's
/// "continuously altering" reception pattern).
pub struct RandomScanner {
    /// Frame length `T`.
    pub frame: Tick,
    /// Window length `d` (γ = d/T).
    pub window: Tick,
    next_frame: u64,
}

impl RandomScanner {
    /// Validate and build.
    pub fn new(frame: Tick, window: Tick) -> Result<Self, NdError> {
        if window.is_zero() || window > frame {
            return Err(NdError::InvalidSchedule(format!(
                "window {window} must be in (0, frame {frame}]"
            )));
        }
        Ok(RandomScanner {
            frame,
            window,
            next_frame: 0,
        })
    }

    /// The reception duty cycle γ = d/T.
    pub fn gamma(&self) -> f64 {
        self.window.as_nanos() as f64 / self.frame.as_nanos() as f64
    }
}

impl Behavior for RandomScanner {
    fn next_ops_into(&mut self, after: Tick, rng: &mut dyn RngCore, out: &mut Vec<Op>) {
        // jump to the frame containing/after `after`
        let f = after.as_nanos() / self.frame.as_nanos();
        if f > self.next_frame {
            self.next_frame = f;
        }
        for _ in 0..4 {
            let base = Tick(self.next_frame * self.frame.as_nanos());
            let span = (self.frame - self.window).as_nanos();
            let offset = if span == 0 {
                0
            } else {
                rng.gen_range(0..=span)
            };
            let at = base + Tick(offset);
            if at >= after {
                out.push(Op::Rx {
                    at,
                    duration: self.window,
                });
            }
            self.next_frame += 1;
        }
    }
}

/// A deterministic non-repetitive scanner: the window slides by `stride`
/// each frame (mod the frame length).
pub struct SlidingScanner {
    /// Frame length `T`.
    pub frame: Tick,
    /// Window length `d`.
    pub window: Tick,
    /// Per-frame slide (mod `T − d` wrap).
    pub stride: Tick,
    next_frame: u64,
}

impl SlidingScanner {
    /// Validate and build.
    pub fn new(frame: Tick, window: Tick, stride: Tick) -> Result<Self, NdError> {
        if window.is_zero() || window > frame {
            return Err(NdError::InvalidSchedule(format!(
                "window {window} must be in (0, frame {frame}]"
            )));
        }
        Ok(SlidingScanner {
            frame,
            window,
            stride,
            next_frame: 0,
        })
    }

    /// Window offset within frame `k`.
    pub fn offset_in_frame(&self, k: u64) -> Tick {
        let span = (self.frame - self.window).as_nanos().max(1);
        Tick((self.stride.as_nanos() * k) % span)
    }
}

impl Behavior for SlidingScanner {
    fn next_ops_into(&mut self, after: Tick, _rng: &mut dyn RngCore, out: &mut Vec<Op>) {
        let f = after.as_nanos() / self.frame.as_nanos();
        if f > self.next_frame {
            self.next_frame = f;
        }
        for _ in 0..4 {
            let k = self.next_frame;
            let base = Tick(k * self.frame.as_nanos());
            let at = base + self.offset_in_frame(k);
            if at >= after {
                out.push(Op::Rx {
                    at,
                    duration: self.window,
                });
            }
            self.next_frame += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_scanner_windows_inside_frames() {
        let mut s = RandomScanner::new(Tick::from_millis(10), Tick::from_millis(1)).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let ops = s.next_ops(Tick::ZERO, &mut rng);
        assert_eq!(ops.len(), 4);
        for (i, op) in ops.iter().enumerate() {
            let Op::Rx { at, duration } = *op else {
                panic!("scanner only listens");
            };
            let base = Tick::from_millis(10 * i as u64);
            assert!(at >= base);
            assert!(at + duration <= base + Tick::from_millis(10));
        }
    }

    #[test]
    fn random_scanner_gamma() {
        let s = RandomScanner::new(Tick::from_millis(10), Tick::from_millis(1)).unwrap();
        assert!((s.gamma() - 0.1).abs() < 1e-12);
        assert!(RandomScanner::new(Tick::from_millis(1), Tick::from_millis(2)).is_err());
    }

    #[test]
    fn random_scanner_varies_offsets() {
        let mut s = RandomScanner::new(Tick::from_millis(10), Tick::from_millis(1)).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let ops = s.next_ops(Tick::ZERO, &mut rng);
        let offsets: Vec<u64> = ops
            .iter()
            .enumerate()
            .map(|(i, op)| (op.at() - Tick::from_millis(10 * i as u64)).as_nanos())
            .collect();
        assert!(offsets.iter().any(|&o| o != offsets[0]));
    }

    #[test]
    fn sliding_scanner_deterministic_progression() {
        let mut s = SlidingScanner::new(
            Tick::from_millis(10),
            Tick::from_millis(1),
            Tick::from_micros(700),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let a = s.next_ops(Tick::ZERO, &mut rng);
        // rebuilding gives identical ops (no randomness)
        let mut s2 = SlidingScanner::new(
            Tick::from_millis(10),
            Tick::from_millis(1),
            Tick::from_micros(700),
        )
        .unwrap();
        let b = s2.next_ops(Tick::ZERO, &mut rng);
        assert_eq!(a, b);
        // offsets advance by the stride
        assert_eq!(
            s.offset_in_frame(1) - s.offset_in_frame(0),
            Tick::from_micros(700)
        );
    }

    #[test]
    fn scanners_respect_after() {
        let mut s = RandomScanner::new(Tick::from_millis(10), Tick::from_millis(1)).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let ops = s.next_ops(Tick::from_millis(35), &mut rng);
        assert!(ops.iter().all(|op| op.at() >= Tick::from_millis(35)));
    }
}
