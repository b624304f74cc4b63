//! Mutual assistance (Griassdi-style, Kindt et al. IPSN 2017 — reference
//! \[13\] of the paper; see also Appendix C's closing discussion).
//!
//! Each beacon carries the sender's *next reception-window start time*.
//! A device that receives such a beacon schedules one extra "reply" beacon
//! right inside the announced window, converting a one-way discovery into
//! a two-way one almost immediately — a form of synchronized operation
//! bootstrapped by the first asynchronous contact.

use nd_core::schedule::Schedule;
use nd_core::time::Tick;
use nd_sim::{Behavior, Op, Payload, ScheduleBehavior};
use rand::RngCore;

/// Wraps a static schedule with mutual assistance: outgoing beacons
/// announce the next own window; received announcements trigger one reply
/// beacon into the peer's window.
pub struct MutualAssist {
    inner: ScheduleBehavior,
    windows_period: Option<(Tick, Tick, Tick)>, // (first window start, duration, period)
    phase: Tick,
    /// Guard offset into the announced window for the reply beacon (half a
    /// window is robust against clock error; we use a fixed small offset).
    reply_offset: Tick,
    replies_sent: u64,
    max_replies: u64,
}

impl MutualAssist {
    /// Wrap a schedule (with phase 0).
    pub fn new(schedule: Schedule) -> Self {
        Self::with_phase(schedule, Tick::ZERO)
    }

    /// Wrap a phase-shifted schedule.
    pub fn with_phase(schedule: Schedule, phase: Tick) -> Self {
        let windows_period = schedule
            .windows
            .as_ref()
            .map(|c| (c.windows()[0].t, c.windows()[0].d, c.period()));
        MutualAssist {
            inner: ScheduleBehavior::with_phase(schedule, phase),
            windows_period,
            phase,
            reply_offset: Tick::from_micros(5),
            replies_sent: 0,
            max_replies: u64::MAX,
        }
    }

    /// Limit the number of assist replies (useful to bound the energy
    /// overhead in long simulations).
    pub fn with_max_replies(mut self, n: u64) -> Self {
        self.max_replies = n;
        self
    }

    /// The sim-time start of this device's next reception window strictly
    /// after `now`.
    fn next_window_after(&self, now: Tick) -> Option<Tick> {
        let (t0, _d, period) = self.windows_period?;
        // window k starts at t0 + k·period − phase (sim time)
        let now_sched = now + self.phase;
        let k = (now_sched.saturating_sub(t0)).as_nanos() / period.as_nanos() + 1;
        let start = t0 + period * k;
        start.checked_sub(self.phase)
    }

    /// Number of assist replies sent so far.
    pub fn replies_sent(&self) -> u64 {
        self.replies_sent
    }
}

impl Behavior for MutualAssist {
    fn next_ops_into(&mut self, after: Tick, rng: &mut dyn RngCore, out: &mut Vec<Op>) {
        // annotate every outgoing beacon with the next own window start
        let start = out.len();
        self.inner.next_ops_into(after, rng, out);
        for op in &mut out[start..] {
            if let Op::Tx { at, payload } = op {
                *payload = self.next_window_after(*at).map_or(0, |w| w.as_nanos());
            }
        }
    }

    fn on_reception(
        &mut self,
        at: Tick,
        _from: usize,
        payload: Payload,
        _rng: &mut dyn RngCore,
    ) -> Vec<Op> {
        if payload == 0 || self.replies_sent >= self.max_replies {
            return Vec::new();
        }
        let window_start = Tick(payload);
        if window_start <= at {
            return Vec::new(); // stale announcement
        }
        self.replies_sent += 1;
        vec![Op::Tx {
            at: window_start + self.reply_offset,
            payload: 0,
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nd_core::schedule::{BeaconSeq, ReceptionWindows};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn schedule() -> Schedule {
        Schedule::full(
            BeaconSeq::uniform(
                1,
                Tick::from_millis(10),
                Tick::from_micros(36),
                Tick::from_millis(2),
            )
            .unwrap(),
            ReceptionWindows::single(Tick::ZERO, Tick::from_millis(1), Tick::from_millis(10))
                .unwrap(),
        )
    }

    #[test]
    fn beacons_announce_next_window() {
        let mut ma = MutualAssist::new(schedule());
        let mut rng = StdRng::seed_from_u64(1);
        let ops = ma.next_ops(Tick::ZERO, &mut rng);
        let tx: Vec<_> = ops
            .iter()
            .filter_map(|op| match op {
                Op::Tx { at, payload } => Some((*at, *payload)),
                _ => None,
            })
            .collect();
        assert!(!tx.is_empty());
        for (at, payload) in tx {
            assert!(payload > at.as_nanos(), "announcement is in the future");
            // announced instant is on the window grid (multiples of 10 ms)
            assert_eq!(payload % Tick::from_millis(10).as_nanos(), 0);
        }
    }

    #[test]
    fn reception_triggers_reply_into_window() {
        let mut ma = MutualAssist::new(schedule());
        let mut rng = StdRng::seed_from_u64(1);
        let announced = Tick::from_millis(50);
        let ops = ma.on_reception(Tick::from_millis(42), 3, announced.as_nanos(), &mut rng);
        assert_eq!(ops.len(), 1);
        match ops[0] {
            Op::Tx { at, .. } => {
                assert!(at >= announced);
                assert!(at < announced + Tick::from_millis(1));
            }
            _ => panic!("expected a reply beacon"),
        }
        assert_eq!(ma.replies_sent(), 1);
    }

    #[test]
    fn stale_and_empty_announcements_ignored() {
        let mut ma = MutualAssist::new(schedule());
        let mut rng = StdRng::seed_from_u64(1);
        assert!(ma
            .on_reception(Tick::from_millis(42), 3, 0, &mut rng)
            .is_empty());
        assert!(ma
            .on_reception(
                Tick::from_millis(42),
                3,
                Tick::from_millis(41).as_nanos(),
                &mut rng
            )
            .is_empty());
    }

    #[test]
    fn reply_budget_enforced() {
        let mut ma = MutualAssist::new(schedule()).with_max_replies(1);
        let mut rng = StdRng::seed_from_u64(1);
        let a1 = ma.on_reception(Tick(1), 0, Tick::from_millis(10).as_nanos(), &mut rng);
        assert_eq!(a1.len(), 1);
        let a2 = ma.on_reception(Tick(2), 0, Tick::from_millis(20).as_nanos(), &mut rng);
        assert!(a2.is_empty());
    }

    #[test]
    fn phase_shifts_announcements() {
        let phase = Tick::from_millis(3);
        let ma = MutualAssist::with_phase(schedule(), phase);
        // next window after sim-time 0: schedule windows at 10k ms − 3 ms
        let w = ma.next_window_after(Tick::ZERO).unwrap();
        assert_eq!(w, Tick::from_millis(7));
    }
}
