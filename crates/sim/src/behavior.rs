//! Device behaviours: how a protocol drives its radio over time.
//!
//! The simulator pulls [`Op`]s (transmissions and reception windows) from
//! each device's [`Behavior`]. Static protocols (everything in Section 5 of
//! the paper) are driven by a periodic [`nd_core::Schedule`] via
//! [`ScheduleBehavior`]; reactive protocols (mutual assistance \[13\],
//! BLE-style random advertising delays) implement [`Behavior`] directly and
//! may react to received packets.

use nd_core::schedule::Schedule;
use nd_core::time::Tick;
use rand::RngCore;

/// Opaque per-packet payload. Protocols define the meaning; e.g. the
/// mutual-assistance protocol encodes the sender's next listen instant in
/// nanoseconds.
pub type Payload = u64;

/// A single radio operation requested by a behaviour.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Transmit one beacon starting at `at` (airtime is the radio's ω).
    Tx {
        /// Start instant.
        at: Tick,
        /// Payload carried in the beacon.
        payload: Payload,
    },
    /// Listen during `[at, at + duration)`.
    Rx {
        /// Start instant.
        at: Tick,
        /// Window length.
        duration: Tick,
    },
}

impl Op {
    /// The instant the operation begins.
    pub fn at(&self) -> Tick {
        match *self {
            Op::Tx { at, .. } | Op::Rx { at, .. } => at,
        }
    }
}

/// A protocol instance running on one simulated device.
///
/// The engine calls [`Behavior::next_ops_into`] whenever it has exhausted
/// the device's buffered operations; an empty batch means the device
/// schedules nothing further on its own (it may still react to receptions).
pub trait Behavior {
    /// Append the next batch of operations starting at or after `after`
    /// to `out`, leaving what `out` already holds untouched.
    ///
    /// The appended ops must be sorted by start time, all `≥ after`; an
    /// empty batch permanently idles the proactive side. The engine passes
    /// a reused scratch buffer, so steady-state refills allocate nothing.
    fn next_ops_into(&mut self, after: Tick, rng: &mut dyn RngCore, out: &mut Vec<Op>);

    /// The next batch as a fresh vector (see [`Behavior::next_ops_into`]).
    fn next_ops(&mut self, after: Tick, rng: &mut dyn RngCore) -> Vec<Op> {
        let mut out = Vec::new();
        self.next_ops_into(after, rng, &mut out);
        out
    }

    /// Called when this device successfully receives a beacon; may return
    /// additional operations (e.g. the mutual-assistance reply beacon).
    /// `at` is the packet's start instant, `from` the sender's device index.
    fn on_reception(
        &mut self,
        at: Tick,
        from: usize,
        payload: Payload,
        rng: &mut dyn RngCore,
    ) -> Vec<Op> {
        let _ = (at, from, payload, rng);
        Vec::new()
    }

    /// The behaviour's period P on its local timeline, if it has one; the
    /// engine jumps a run whose every node has one forward by whole
    /// hyperperiods (see `nd_netsim::engine`).
    ///
    /// `Some(P)` is a promise, kept for the rest of the run:
    /// * its ops repeat every P, batch boundaries included: the batch
    ///   asked for at local `t + P` is the batch asked for at `t` shifted
    ///   by P, and it ends at most P after `t`;
    /// * neither method draws from the RNG it is handed;
    /// * [`Behavior::on_reception`] returns no ops and changes nothing.
    ///
    /// `None` (the default) claims nothing.
    fn period(&self) -> Option<Tick> {
        None
    }

    /// Move the emission cursors `by` forward (a multiple of
    /// [`Behavior::period`]), as if every batch in between had been
    /// emitted and handled. Only called on behaviours with a period.
    fn skip(&mut self, by: Tick) {
        let _ = by;
    }
}

/// Drives a static periodic [`Schedule`] (beacon sequence + reception
/// windows), optionally phase-shifted — the bridge from the analytical
/// world of `nd-core` to the simulator.
///
/// The phase models the random initial offset between devices: a device
/// with phase φ behaves as if its schedule had started at absolute time
/// −φ.
pub struct ScheduleBehavior {
    schedule: Schedule,
    phase_b: Tick,
    phase_c: Tick,
    /// Ops are generated one schedule period at a time; these cursors
    /// remember how far each side has been emitted.
    emitted_until_b: Tick,
    emitted_until_c: Tick,
    /// Reused per-side emission buffers: each side emits in start order,
    /// and a batch is their two-pointer merge — no sort, no allocation
    /// once the buffers have grown to a chunk's op count.
    scratch_tx: Vec<Op>,
    scratch_rx: Vec<Op>,
}

impl ScheduleBehavior {
    /// Wrap a schedule with zero phase.
    pub fn new(schedule: Schedule) -> Self {
        Self::with_phase(schedule, Tick::ZERO)
    }

    /// Wrap a schedule whose origin is shifted `phase` ticks into the past
    /// (both the beacon and the reception sequence are shifted together,
    /// preserving any intra-device correlation — important for the
    /// Appendix C protocols).
    pub fn with_phase(schedule: Schedule, phase: Tick) -> Self {
        ScheduleBehavior {
            schedule,
            phase_b: phase,
            phase_c: phase,
            emitted_until_b: Tick::ZERO,
            emitted_until_c: Tick::ZERO,
            scratch_tx: Vec::new(),
            scratch_rx: Vec::new(),
        }
    }

    /// Access the underlying schedule.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// Emit beacon ops in `[cursor, until)` landing at/after `after`.
    fn emit_tx(&mut self, after: Tick, until: Tick, out: &mut Vec<Op>) {
        let Some(b) = &self.schedule.beacons else {
            return;
        };
        // absolute sim time t corresponds to schedule time t + phase
        let phase = self.phase_b;
        let from = self.emitted_until_b + phase;
        let to = until + phase;
        b.for_each_instant_in(from, to, |inst| {
            // map back to sim time; instants before the phase are skipped
            if let Some(at) = inst.checked_sub(phase) {
                if at >= after {
                    out.push(Op::Tx { at, payload: 0 });
                }
            }
        });
        self.emitted_until_b = until;
    }

    /// Emit listen-window ops in `[cursor, until)` landing at/after `after`.
    fn emit_rx(&mut self, after: Tick, until: Tick, out: &mut Vec<Op>) {
        let Some(c) = &self.schedule.windows else {
            return;
        };
        let phase = self.phase_c;
        let from = self.emitted_until_c + phase;
        let to = until + phase;
        c.for_each_instance_in(from, to, |iv| {
            if let Some(at) = iv.start.checked_sub(phase) {
                if at >= after {
                    out.push(Op::Rx {
                        at,
                        duration: iv.measure(),
                    });
                }
            }
        });
        self.emitted_until_c = until;
    }
}

impl Behavior for ScheduleBehavior {
    fn next_ops_into(&mut self, after: Tick, _rng: &mut dyn RngCore, out: &mut Vec<Op>) {
        // the emission chunk: one schedule period, max(T_B, T_C), at a time
        let chunk = self.schedule.period();
        let mut txs = std::mem::take(&mut self.scratch_tx);
        let mut rxs = std::mem::take(&mut self.scratch_rx);
        txs.clear();
        rxs.clear();
        // keep emitting chunks until at least one op lands at/after `after`
        // (bounded: each chunk contains at least one op of each active side)
        let mut until = self.emitted_until_b.max(self.emitted_until_c).max(after) + chunk;
        for _ in 0..3 {
            self.emit_tx(after, until, &mut txs);
            self.emit_rx(after, until, &mut rxs);
            if !txs.is_empty() || !rxs.is_empty() {
                break;
            }
            until += chunk;
        }
        // each side is already in start order; merge with ties keeping Tx
        // first (what the stable sort over [tx..., rx...] used to produce)
        let (mut t, mut r) = (0, 0);
        out.reserve(txs.len() + rxs.len());
        while t < txs.len() && r < rxs.len() {
            if txs[t].at() <= rxs[r].at() {
                out.push(txs[t]);
                t += 1;
            } else {
                out.push(rxs[r]);
                r += 1;
            }
        }
        out.extend_from_slice(&txs[t..]);
        out.extend_from_slice(&rxs[r..]);
        self.scratch_tx = txs;
        self.scratch_rx = rxs;
    }

    /// `lcm(T_B, T_C)`: the emission chunk `max(T_B, T_C)` divides it, so
    /// batches repeat with the ops.
    fn period(&self) -> Option<Tick> {
        self.schedule.hyperperiod()
    }

    fn skip(&mut self, by: Tick) {
        self.emitted_until_b += by;
        self.emitted_until_c += by;
    }
}

impl<B: Behavior + ?Sized> Behavior for Box<B> {
    fn next_ops_into(&mut self, after: Tick, rng: &mut dyn RngCore, out: &mut Vec<Op>) {
        (**self).next_ops_into(after, rng, out)
    }

    fn on_reception(
        &mut self,
        at: Tick,
        from: usize,
        payload: Payload,
        rng: &mut dyn RngCore,
    ) -> Vec<Op> {
        (**self).on_reception(at, from, payload, rng)
    }

    fn period(&self) -> Option<Tick> {
        (**self).period()
    }

    fn skip(&mut self, by: Tick) {
        (**self).skip(by)
    }
}

/// A behaviour that does nothing proactively (pure sink; useful for tests
/// and for modelling passive sniffers that are configured reactively).
pub struct IdleBehavior;

impl Behavior for IdleBehavior {
    fn next_ops_into(&mut self, _after: Tick, _rng: &mut dyn RngCore, _out: &mut Vec<Op>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use nd_core::schedule::{BeaconSeq, ReceptionWindows};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    fn test_schedule() -> Schedule {
        let b = BeaconSeq::uniform(
            2,
            Tick::from_micros(100),
            Tick::from_micros(4),
            Tick::from_micros(10),
        )
        .unwrap();
        let c = ReceptionWindows::single(
            Tick::from_micros(40),
            Tick::from_micros(20),
            Tick::from_micros(100),
        )
        .unwrap();
        Schedule::full(b, c)
    }

    #[test]
    fn schedule_behavior_emits_in_order() {
        let mut b = ScheduleBehavior::new(test_schedule());
        let ops = b.next_ops(Tick::ZERO, &mut rng());
        assert!(!ops.is_empty());
        for w in ops.windows(2) {
            assert!(w[0].at() <= w[1].at());
        }
        // first period: Tx at 10 µs, Rx at 40 µs, Tx at 60 µs
        assert_eq!(
            ops[0],
            Op::Tx {
                at: Tick::from_micros(10),
                payload: 0
            }
        );
        assert!(ops.contains(&Op::Rx {
            at: Tick::from_micros(40),
            duration: Tick::from_micros(20)
        }));
    }

    #[test]
    fn schedule_behavior_continues_across_calls() {
        let mut b = ScheduleBehavior::new(test_schedule());
        let first = b.next_ops(Tick::ZERO, &mut rng());
        let last_at = first.last().unwrap().at();
        let second = b.next_ops(last_at + Tick(1), &mut rng());
        assert!(!second.is_empty());
        assert!(second[0].at() > last_at);
        // no duplicates across batches
        for op in &second {
            assert!(!first.contains(op));
        }
    }

    #[test]
    fn phase_shifts_ops_left() {
        let mut zero = ScheduleBehavior::new(test_schedule());
        let mut shifted = ScheduleBehavior::with_phase(test_schedule(), Tick::from_micros(15));
        let a = zero.next_ops(Tick::ZERO, &mut rng());
        let b = shifted.next_ops(Tick::ZERO, &mut rng());
        // schedule beacons at 10/60 µs per 100 µs; with phase 15 the sim
        // sees them at 45, 95, 145, … µs
        assert!(b.contains(&Op::Tx {
            at: Tick::from_micros(45),
            payload: 0
        }));
        assert!(b.contains(&Op::Tx {
            at: Tick::from_micros(95),
            payload: 0
        }));
        // the pre-phase 10 µs beacon is dropped, not wrapped to negative time
        assert!(!b.iter().any(|op| op.at() < Tick::from_micros(25)));
        // every shifted op is an unshifted op minus the phase
        let phase = Tick::from_micros(15);
        let mut more = zero.next_ops(a.last().unwrap().at() + Tick(1), &mut rng());
        let mut all_a = a;
        all_a.append(&mut more);
        for op in &b {
            assert!(
                all_a.iter().any(|oa| oa.at() == op.at() + phase),
                "op {op:?} has no phase-shifted counterpart"
            );
        }
    }

    #[test]
    fn period_is_the_lcm_and_skip_continues_the_stream() {
        use rand::Rng;
        // T_B = 300 µs, T_C = 700 µs: H = 2.1 ms, three times max(T_B, T_C)
        let s = Schedule::full(
            BeaconSeq::uniform(1, Tick::from_micros(300), Tick::from_micros(4), Tick::ZERO)
                .unwrap(),
            ReceptionWindows::single(
                Tick::from_micros(300),
                Tick::from_micros(350),
                Tick::from_micros(700),
            )
            .unwrap(),
        );
        let h = Tick::from_micros(2100);
        let phase = Tick(rng().gen_range(0..h.0));
        let fresh = || ScheduleBehavior::with_phase(s.clone(), phase);
        assert_eq!(fresh().period(), Some(h));
        assert_ne!(s.period(), h, "max(T_B, T_C) is not the period");
        // refill like the engine: at the previous batch's last op
        let refill = |b: &mut ScheduleBehavior, after: &mut Tick| {
            let ops = b.next_ops(*after, &mut rng());
            *after = ops.last().unwrap().at();
            ops
        };
        let (mut a, mut at_a) = (fresh(), Tick::ZERO);
        let mut ops = Vec::new();
        while at_a < h * 3 {
            ops.extend(refill(&mut a, &mut at_a));
        }
        let span = |from: Tick| -> Vec<Op> {
            ops.iter()
                .filter(|op| (from..from + h).contains(&op.at()))
                .copied()
                .collect()
        };
        let shifted: Vec<Op> = span(h)
            .into_iter()
            .map(|op| match op {
                Op::Tx { at, payload } => Op::Tx {
                    at: at + h,
                    payload,
                },
                Op::Rx { at, duration } => Op::Rx {
                    at: at + h,
                    duration,
                },
            })
            .collect();
        assert!(!shifted.is_empty());
        assert_eq!(span(h * 2), shifted, "[2H, 3H) repeats [H, 2H)");
        // skipping k·H lands where emitting k·H more would have
        let (mut b, mut at_b) = (fresh(), Tick::ZERO);
        while at_b < at_a {
            refill(&mut b, &mut at_b);
        }
        assert_eq!(at_b, at_a);
        let k = 5;
        while at_a < at_b + h * k {
            refill(&mut a, &mut at_a);
        }
        b.skip(h * k);
        at_b += h * k;
        assert_eq!(at_b, at_a);
        for _ in 0..10 {
            assert_eq!(refill(&mut b, &mut at_b), refill(&mut a, &mut at_a));
        }
    }

    #[test]
    fn tx_only_schedule() {
        let b =
            BeaconSeq::uniform(1, Tick::from_micros(50), Tick::from_micros(4), Tick::ZERO).unwrap();
        let mut beh = ScheduleBehavior::new(Schedule::tx_only(b));
        let ops = beh.next_ops(Tick::ZERO, &mut rng());
        assert!(ops.iter().all(|op| matches!(op, Op::Tx { .. })));
    }

    #[test]
    fn idle_behavior_is_idle() {
        let mut b = IdleBehavior;
        assert!(b.next_ops(Tick::ZERO, &mut rng()).is_empty());
        assert!(b.on_reception(Tick::ZERO, 0, 0, &mut rng()).is_empty());
    }
}
