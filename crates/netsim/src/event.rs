//! The event core: the event queue and the logical clock.
//!
//! Every state change of the network simulation is an [`Event`] popped off
//! the [`EventQueue`] in `(time, sequence)` order. The sequence number
//! breaks ties deterministically — two events scheduled for the same
//! instant fire in the order they were pushed — which is what makes whole
//! runs reproducible byte for byte regardless of the host or of how many
//! sweeps run in sibling threads.
//!
//! The queue leans on what the engine already guarantees: a node's
//! behaviour batch (its `TxStart`/`RxStart` ops plus the closing `Wake`)
//! arrives in nondecreasing time. Each node therefore owns a *stream*, a
//! `Vec` appended at the tail by [`EventQueue::push_stream`] and consumed
//! from a cursor, so most events cost a `Vec` push and an index bump. A
//! small *general* heap takes the rest ([`EventQueue::push`]): joins,
//! leaves, reactive ops, and any op that would land before its stream's
//! tail. The next event is the lesser of the general heap's top and the
//! top of a binary heap over the (at most one per node) stream heads.
//! Sequence numbers are allocated in push order whichever side takes an
//! event, so the pop order is exactly that of one heap over all of them.
//!
//! Popping no longer advances the clock implicitly: the engine calls
//! [`EventQueue::advance`] for events it *handles*, so events it discards
//! (a completed cluster's tail) leave the clock — and therefore the
//! reported elapsed time — exactly where the per-shard runs put it.
//!
//! [`EventQueue::shift`] moves every pending event and the clock later by
//! one amount, the engine's jump over whole hyperperiods. Sequence numbers
//! stay as they are: only their order breaks ties, and a uniform shift
//! keeps it.

use nd_core::time::Tick;
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

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

impl EventKind {
    /// The node the event belongs to.
    pub fn node(&self) -> usize {
        match *self {
            EventKind::Join(i) | EventKind::Leave(i) | EventKind::Wake(i) => i,
            EventKind::TxStart { node, .. } | EventKind::RxStart { node, .. } => node as usize,
        }
    }
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

impl Event {
    /// The same event `by` later (a listening window keeps its length).
    pub fn shifted(mut self, by: Tick) -> Event {
        self.at += by;
        if let EventKind::RxStart { end, .. } = &mut self.kind {
            *end += by;
        }
        self
    }
}

/// One node's pending events in `(at, seq)` order: `events[cursor..]`.
/// Reset to empty the moment it drains, so `events.last()` is always the
/// pending tail and the buffer's capacity is reused by the next batch.
#[derive(Default)]
struct Stream {
    events: Vec<Event>,
    cursor: usize,
}

/// Min-ordered event queue plus the simulation's logical clock.
///
/// The clock advances via [`EventQueue::advance`] as the engine handles
/// events; pushing an event in the past is a logic error
/// (debug-asserted), so time is monotone by construction.
pub(crate) struct EventQueue {
    /// One stream per node, indexed by [`EventKind::node`].
    streams: Vec<Stream>,
    /// `(at, seq, node)` of every non-empty stream's head event.
    heads: BinaryHeap<Reverse<(Tick, u64, u32)>>,
    /// Everything that does not ride a stream.
    general: BinaryHeap<Reverse<Event>>,
    /// Pending events, and their high-water mark.
    len: usize,
    depth_max: usize,
    seq: u64,
    now: Tick,
    /// Instant of the last event popped off the general heap.
    general_at: Tick,
}

impl EventQueue {
    /// An empty queue with one stream per node. With `nodes == 0` every
    /// push goes to the general heap, which pops the same events in the
    /// same order (the engine's equivalence tests run on it).
    pub fn new(nodes: usize) -> Self {
        EventQueue {
            streams: (0..nodes).map(|_| Stream::default()).collect(),
            heads: BinaryHeap::new(),
            general: BinaryHeap::new(),
            len: 0,
            depth_max: 0,
            seq: 0,
            now: Tick::ZERO,
            general_at: Tick::ZERO,
        }
    }

    /// Schedule `kind` at `at` (≥ the current logical time) on the
    /// general heap.
    pub fn push(&mut self, at: Tick, kind: EventKind) {
        let ev = self.event(at, kind);
        self.general.push(Reverse(ev));
    }

    /// Schedule `kind` at `at` at the tail of its node's stream. An event
    /// that would land before the stream's pending tail goes to the
    /// general heap instead, so each stream stays in `(at, seq)` order.
    pub fn push_stream(&mut self, at: Tick, kind: EventKind) {
        let node = kind.node();
        let Some(stream) = self.streams.get(node) else {
            return self.push(at, kind);
        };
        if stream.events.last().is_some_and(|tail| at < tail.at) {
            return self.push(at, kind);
        }
        let ev = self.event(at, kind);
        let stream = &mut self.streams[node];
        if stream.events.is_empty() {
            self.heads.push(Reverse((at, ev.seq, node as u32)));
        }
        stream.events.push(ev);
    }

    /// Stamp the next sequence number on a new pending event.
    fn event(&mut self, at: Tick, kind: EventKind) -> Event {
        debug_assert!(at >= self.now, "event scheduled in the past");
        let seq = self.alloc_seq();
        self.len += 1;
        self.depth_max = self.depth_max.max(self.len);
        Event { at, seq, kind }
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
    pub fn peek_key(&self) -> Option<(Tick, u64)> {
        let head = self.heads.peek().map(|&Reverse((at, seq, _))| (at, seq));
        let general = self.general.peek().map(|Reverse(ev)| (ev.at, ev.seq));
        match (head, general) {
            (Some(h), Some(g)) => Some(h.min(g)),
            (h, g) => h.or(g),
        }
    }

    /// Pop the next event. Does **not** move the logical clock — the
    /// engine advances it only for events it actually handles.
    pub fn pop(&mut self) -> Option<Event> {
        let from_stream = match (self.heads.peek(), self.general.peek()) {
            (Some(Reverse((at, seq, _))), Some(Reverse(ev))) => (*at, *seq) < (ev.at, ev.seq),
            (head, _) => head.is_some(),
        };
        let ev = if from_stream {
            let mut top = self.heads.peek_mut().expect("a stream head was peeked");
            let Reverse((_, _, node)) = *top;
            let stream = &mut self.streams[node as usize];
            let ev = stream.events[stream.cursor];
            stream.cursor += 1;
            match stream.events.get(stream.cursor) {
                // the next head is no earlier: the heap sifts it down on drop
                Some(next) => *top = Reverse((next.at, next.seq, node)),
                None => {
                    stream.events.clear();
                    stream.cursor = 0;
                    PeekMut::pop(top);
                }
            }
            ev
        } else {
            let ev = self.general.pop()?.0;
            self.general_at = ev.at;
            ev
        };
        self.len -= 1;
        Some(ev)
    }

    /// The instant of the last event popped off the general heap (a
    /// join, a leave, a reactive op or an out-of-order op), and whether
    /// the general heap is empty now.
    pub fn general(&self) -> (Tick, bool) {
        (self.general_at, self.general.is_empty())
    }

    /// Move every pending event, and the clock, `by` later. The general
    /// heap must be empty.
    pub fn shift(&mut self, by: Tick) {
        debug_assert!(self.general.is_empty(), "shift with general events pending");
        for stream in &mut self.streams {
            for ev in &mut stream.events[stream.cursor..] {
                *ev = ev.shifted(by);
            }
        }
        // a uniform shift keeps the heap order; `from` re-heapifies anyway
        let heads = std::mem::take(&mut self.heads).into_vec();
        self.heads = heads
            .into_iter()
            .map(|Reverse((at, seq, node))| Reverse((at + by, seq, node)))
            .collect();
        self.now += by;
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

    /// The most events ever pending at once, streams and heap together.
    pub fn depth_max(&self) -> usize {
        self.depth_max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new(3);
        q.push_stream(Tick(30), EventKind::Wake(0));
        q.push(Tick(10), EventKind::Join(1));
        q.push_stream(Tick(20), EventKind::Wake(2));
        let order: Vec<Tick> = std::iter::from_fn(|| q.pop()).map(|e| e.at).collect();
        assert_eq!(order, vec![Tick(10), Tick(20), Tick(30)]);
    }

    #[test]
    fn equal_instants_fire_in_push_order() {
        let mut q = EventQueue::new(10);
        q.push_stream(Tick(5), EventKind::Wake(9));
        q.push(Tick(5), EventKind::Join(1));
        q.push_stream(Tick(5), EventKind::Wake(1));
        q.push(Tick(5), EventKind::Leave(2));
        let kinds: Vec<EventKind> = std::iter::from_fn(|| q.pop()).map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::Wake(9),
                EventKind::Join(1),
                EventKind::Wake(1),
                EventKind::Leave(2)
            ]
        );
    }

    #[test]
    fn clock_is_monotone() {
        let mut q = EventQueue::new(4);
        q.push_stream(Tick(10), EventKind::Wake(0));
        q.push_stream(Tick(10), EventKind::Wake(1));
        q.push(Tick(40), EventKind::Leave(2));
        assert_eq!(q.now(), Tick::ZERO);
        let ev = q.pop().unwrap();
        q.advance(ev.at);
        assert_eq!(q.now(), Tick(10));
        // pushing at the current instant is allowed (same-time cascades)
        q.push_stream(Tick(10), EventKind::Wake(3));
        q.pop();
        q.pop();
        let ev = q.pop().unwrap();
        q.advance(ev.at);
        assert_eq!(q.now(), Tick(40));
        assert!(q.pop().is_none());
    }

    #[test]
    fn shift_moves_every_pending_event_and_the_clock() {
        let fill = |q: &mut EventQueue| {
            q.push_stream(Tick(10), EventKind::Wake(0));
            q.push_stream(
                Tick(20),
                EventKind::RxStart {
                    node: 1,
                    end: Tick(25),
                },
            );
            q.push_stream(Tick(20), EventKind::Wake(1));
            q.push_stream(Tick(30), EventKind::Wake(0));
        };
        let (mut q, mut moved) = (EventQueue::new(2), EventQueue::new(2));
        fill(&mut q);
        fill(&mut moved);
        for q in [&mut q, &mut moved] {
            let ev = q.pop().unwrap();
            q.advance(ev.at);
        }
        moved.shift(Tick(1000));
        assert_eq!(moved.now(), Tick(1010));
        while let Some(ev) = q.pop() {
            assert_eq!(moved.pop(), Some(ev.shifted(Tick(1000))));
        }
        assert_eq!(moved.pop(), None);
    }

    /// One heap over every pending event: what the queue must match.
    #[derive(Default)]
    struct Reference {
        heap: BinaryHeap<Reverse<Event>>,
        seq: u64,
        depth_max: usize,
    }

    impl Reference {
        fn push(&mut self, at: Tick, kind: EventKind) {
            self.heap.push(Reverse(Event {
                at,
                seq: self.seq,
                kind,
            }));
            self.seq += 1;
            self.depth_max = self.depth_max.max(self.heap.len());
        }
    }

    /// Replays one random interleaving of sorted per-node batches (some
    /// with an op out of order), general pushes, reserved sequence numbers
    /// and pops on a queue with `streams` streams, asserting every pop and
    /// peek against a reference heap fed the same events.
    fn replay_against_reference(seed: u64, steps: usize, nodes: usize, streams: usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut q = EventQueue::new(streams);
        let mut reference = Reference::default();
        for _ in 0..steps {
            let now = q.now();
            match rng.gen_range(0u32..10) {
                0..=2 => {
                    let node = rng.gen_range(0..nodes);
                    let mut at = now + Tick(rng.gen_range(0u64..2_000));
                    let mut last = at;
                    let len = rng.gen_range(1usize..10);
                    let misplaced = rng.gen_bool(0.3).then(|| rng.gen_range(0..len));
                    for k in 0..len {
                        at += Tick(rng.gen_range(0u64..500));
                        let op_at = if misplaced == Some(k) {
                            now + Tick(rng.gen_range(0u64..=(at - now).0))
                        } else {
                            at
                        };
                        last = last.max(op_at);
                        let kind = if k % 2 == 0 {
                            EventKind::TxStart {
                                node: node as u32,
                                payload: k as u64,
                            }
                        } else {
                            EventKind::RxStart {
                                node: node as u32,
                                end: op_at + Tick(40),
                            }
                        };
                        q.push_stream(op_at, kind);
                        reference.push(op_at, kind);
                    }
                    q.push_stream(last, EventKind::Wake(node));
                    reference.push(last, EventKind::Wake(node));
                }
                3 => {
                    let at = now + Tick(rng.gen_range(0u64..5_000));
                    let kind = if rng.gen_bool(0.5) {
                        EventKind::Join(rng.gen_range(0..nodes))
                    } else {
                        EventKind::Leave(rng.gen_range(0..nodes))
                    };
                    q.push(at, kind);
                    reference.push(at, kind);
                }
                4 => {
                    assert_eq!(q.alloc_seq(), reference.seq);
                    reference.seq += 1;
                }
                _ => {
                    let expect = reference.heap.peek().map(|Reverse(ev)| (ev.at, ev.seq));
                    assert_eq!(q.peek_key(), expect, "peek, seed {seed}");
                    let ev = q.pop();
                    let expect = reference.heap.pop().map(|Reverse(ev)| ev);
                    assert_eq!(ev, expect, "pop, seed {seed}");
                    if let Some(ev) = ev {
                        q.advance(ev.at);
                    }
                }
            }
        }
        while let Some(Reverse(expect)) = reference.heap.pop() {
            assert_eq!(q.pop(), Some(expect), "drain, seed {seed}");
        }
        assert_eq!(q.pop(), None);
        assert_eq!(
            q.depth_max(),
            reference.depth_max,
            "high-water mark, seed {seed}"
        );
    }

    proptest! {
        /// The stream queue, and the same queue with every push on the
        /// general heap, pop exactly what one reference heap pops.
        #[test]
        fn streams_pop_like_one_reference_heap(
            seed in 0u64..u64::MAX,
            steps in 1usize..600,
            nodes in 1usize..9,
        ) {
            replay_against_reference(seed, steps, nodes, nodes);
            replay_against_reference(seed, steps, nodes, 0);
        }
    }
}
