//! The event core: the event queue and the logical clock.
//!
//! Every state change of the network simulation is an [`Event`] popped off
//! the [`EventQueue`] in `(time, sequence)` order. The sequence number
//! breaks ties deterministically — two events scheduled for the same
//! instant fire in the order they were pushed — which is what makes whole
//! runs reproducible byte for byte regardless of the host or of how many
//! sweeps run in sibling threads.
//!
//! Two backings pop byte-identical event sequences, and the engine picks
//! one from the cohort size ([`EventQueue::for_nodes`]): a binary heap for
//! small cohorts, whose few pending events make the heap's O(log n) cheap
//! and the wheel's set-up cost dominant, and the hierarchical
//! [`crate::wheel::TimingWheel`] (O(1) amortized at netsim's dense,
//! short-horizon event mix) from [`WHEEL_MIN_NODES`] nodes up.
//!
//! Popping no longer advances the clock implicitly: the engine calls
//! [`EventQueue::advance`] for events it *handles*, so events it discards
//! (a completed cluster's tail) leave the clock — and therefore the
//! reported elapsed time — exactly where the per-shard runs put it.

use crate::wheel::TimingWheel;
use nd_core::time::Tick;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// What an event does when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum EventKind {
    /// Node `.0` joins the network (becomes audible and starts its
    /// protocol).
    Join(usize),
    /// Node `.0` leaves the network (stops transmitting and listening).
    Leave(usize),
    /// Refill node `.0`'s proactive schedule (a once-per-batch tick).
    Wake(usize),
    /// Node `node` starts transmitting one beacon at the event instant
    /// (airtime is the radio's ω). Like [`EventKind::RxStart`], buffered
    /// nowhere: the behaviour's ops become events directly, and the wake
    /// that used to shepherd each op through the node's buffer survives
    /// only as a once-per-batch refill tick.
    TxStart {
        /// The transmitting node.
        node: u32,
        /// Beacon payload.
        payload: u64,
    },
    /// Node `node`'s scheduled listening window `[event instant, end)`
    /// opens. Listening needs no per-node bookkeeping at its start — only
    /// membership in the cluster timeline by the time a packet asks — so
    /// windows ride the queue directly instead of passing through the
    /// node's op buffer and a wake dispatch.
    RxStart {
        /// The listening node.
        node: u32,
        /// Window close instant.
        end: Tick,
    },
}

/// A scheduled event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Event {
    /// Fire instant.
    pub at: Tick,
    /// Push order; the deterministic tie-break at equal instants.
    pub seq: u64,
    /// The action.
    pub kind: EventKind,
}

/// The smallest cohort that runs on the timing wheel; smaller cohorts run
/// on the binary heap.
///
/// Measured with the `netsim_profile` example (optimal-slotless at
/// η = 0.10, ω = 36 µs, 50 ms horizon, full mesh, stop at completion),
/// medians of six interleaved runs per queue on a 2-vCPU Xeon host, one
/// run in µs (heap vs wheel): N = 2 11.9 vs 20.5, N = 4 26.1 vs 36.0,
/// N = 8 167 vs 177 (a tie inside the run-to-run spread, 122–192 vs
/// 127–227), N = 17 470 vs 423, N = 33 1318 vs 1177. The wheel's fixed
/// set-up cost decides small cohorts; the dense meshes favour the wheel;
/// and 8 is the million-node cohort's neighbourhood size, whose shards
/// stay on the wheel.
pub(crate) const WHEEL_MIN_NODES: usize = 8;

enum QueueImpl {
    Wheel(TimingWheel<EventKind>),
    /// The heap and its high-water mark.
    Heap(BinaryHeap<Reverse<Event>>, usize),
}

/// Min-ordered event queue plus the simulation's logical clock.
///
/// The clock advances via [`EventQueue::advance`] as the engine handles
/// events; pushing an event in the past is a logic error
/// (debug-asserted), so time is monotone by construction.
pub(crate) struct EventQueue {
    q: QueueImpl,
    seq: u64,
    now: Tick,
}

impl EventQueue {
    /// The queue for a cohort of `nodes`: the binary heap below
    /// [`WHEEL_MIN_NODES`], the timing wheel from there up.
    pub fn for_nodes(nodes: usize) -> Self {
        if nodes < WHEEL_MIN_NODES {
            Self::heap()
        } else {
            Self::wheel()
        }
    }

    /// A hierarchical timing wheel.
    pub fn wheel() -> Self {
        Self::with(QueueImpl::Wheel(TimingWheel::new()))
    }

    /// A binary heap.
    pub fn heap() -> Self {
        Self::with(QueueImpl::Heap(BinaryHeap::new(), 0))
    }

    fn with(q: QueueImpl) -> Self {
        EventQueue {
            q,
            seq: 0,
            now: Tick::ZERO,
        }
    }

    /// Schedule `kind` at `at` (≥ the current logical time).
    pub fn push(&mut self, at: Tick, kind: EventKind) {
        debug_assert!(at >= self.now, "event scheduled in the past");
        match &mut self.q {
            QueueImpl::Wheel(w) => w.push(at.0, self.seq, kind),
            QueueImpl::Heap(h, depth_max) => {
                h.push(Reverse(Event {
                    at,
                    seq: self.seq,
                    kind,
                }));
                *depth_max = (*depth_max).max(h.len());
            }
        }
        self.seq += 1;
    }

    /// Consume the next sequence number without scheduling anything.
    ///
    /// The engine keeps constant-airtime transmission ends in a FIFO
    /// beside the queue instead of scheduling each one; reserving a
    /// sequence number here keeps their tie-break order — and every
    /// later push's — exactly what scheduling them would have produced.
    pub fn alloc_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    /// The `(at, seq)` key of the next event, without consuming it.
    pub fn peek_key(&mut self) -> Option<(Tick, u64)> {
        match &mut self.q {
            QueueImpl::Wheel(w) => w.peek_key().map(|(at, seq)| (Tick(at), seq)),
            QueueImpl::Heap(h, _) => h.peek().map(|Reverse(ev)| (ev.at, ev.seq)),
        }
    }

    /// Pop the next event. Does **not** move the logical clock — the
    /// engine advances it only for events it actually handles.
    pub fn pop(&mut self) -> Option<Event> {
        match &mut self.q {
            QueueImpl::Wheel(w) => w.pop().map(|e| Event {
                at: Tick(e.at),
                seq: e.seq,
                kind: e.payload,
            }),
            QueueImpl::Heap(h, _) => h.pop().map(|Reverse(ev)| ev),
        }
    }

    /// Advance the logical clock to `at` (monotone).
    pub fn advance(&mut self, at: Tick) {
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
    }

    /// The logical clock: the instant of the last handled event.
    pub fn now(&self) -> Tick {
        self.now
    }

    /// Profiling counters: the most events ever pending, and on the
    /// wheel its `(cascades, overflow_max)`.
    pub fn stats(&self) -> (usize, Option<(u64, usize)>) {
        match &self.q {
            QueueImpl::Wheel(w) => (w.depth_max(), Some((w.cascades(), w.overflow_max()))),
            QueueImpl::Heap(_, depth_max) => (*depth_max, None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::wheel();
        q.push(Tick(30), EventKind::Wake(0));
        q.push(Tick(10), EventKind::Wake(1));
        q.push(Tick(20), EventKind::Wake(2));
        let order: Vec<Tick> = std::iter::from_fn(|| q.pop()).map(|e| e.at).collect();
        assert_eq!(order, vec![Tick(10), Tick(20), Tick(30)]);
    }

    #[test]
    fn equal_instants_fire_in_push_order() {
        let mut q = EventQueue::wheel();
        q.push(Tick(5), EventKind::Wake(9));
        q.push(Tick(5), EventKind::Join(1));
        q.push(Tick(5), EventKind::Leave(2));
        let kinds: Vec<EventKind> = std::iter::from_fn(|| q.pop()).map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![EventKind::Wake(9), EventKind::Join(1), EventKind::Leave(2)]
        );
    }

    #[test]
    fn clock_is_monotone() {
        let mut q = EventQueue::wheel();
        q.push(Tick(10), EventKind::Wake(0));
        q.push(Tick(10), EventKind::Wake(1));
        q.push(Tick(40), EventKind::Wake(2));
        assert_eq!(q.now(), Tick::ZERO);
        let ev = q.pop().unwrap();
        q.advance(ev.at);
        assert_eq!(q.now(), Tick(10));
        // pushing at the current instant is allowed (same-time cascades)
        q.push(Tick(10), EventKind::Wake(3));
        q.pop();
        q.pop();
        let ev = q.pop().unwrap();
        q.advance(ev.at);
        assert_eq!(q.now(), Tick(40));
        assert!(q.pop().is_none());
    }

    /// Identical push sequences → byte-identical pop sequences on both
    /// queue implementations, across every slot scale.
    #[test]
    fn wheel_and_heap_pop_identically() {
        let mut wheel = EventQueue::wheel();
        let mut heap = EventQueue::heap();
        let mut state = 42u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut now = 0u64;
        let mut pending = 0usize;
        for round in 0..4_000 {
            let at = Tick(now + next() % (1 << (10 + (round % 4) * 8)));
            let kind = match next() % 4 {
                0 => EventKind::Join(round),
                1 => EventKind::Leave(round),
                2 => EventKind::Wake(round),
                _ => EventKind::RxStart {
                    node: round as u32,
                    end: Tick(round as u64),
                },
            };
            wheel.push(at, kind);
            heap.push(at, kind);
            pending += 1;
            if next() % 3 == 0 && pending > 1 {
                let a = wheel.pop().unwrap();
                let b = heap.pop().unwrap();
                assert_eq!(a, b);
                wheel.advance(a.at);
                heap.advance(b.at);
                now = a.at.0;
                pending -= 1;
            }
        }
        loop {
            match (wheel.pop(), heap.pop()) {
                (None, None) => break,
                (a, b) => assert_eq!(a, b),
            }
        }
        assert!(wheel.stats().1.is_some());
        assert!(heap.stats().1.is_none());
        assert_eq!(wheel.stats().0, heap.stats().0, "same high-water mark");
    }
}
