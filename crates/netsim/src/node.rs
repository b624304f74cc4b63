//! Node state: behaviour, presence window, radio bookkeeping, and the
//! node's private RNG stream.
//!
//! A node's protocol runs on a *local* timeline that starts at 0 the
//! instant the node joins; the engine shifts local operations by the join
//! instant, so the same behaviour object describes a node that has been on
//! since the start and one that churns in an hour late. Clock drift
//! composes underneath via [`nd_sim::Drifting`], which skews the local
//! timeline itself.
//!
//! Live state lives in a `NodeArena` — structure-of-arrays vectors
//! indexed by node id — rather than one boxed struct per node. The hot
//! loop (presence checks, buffer fronts, stats bumps) then walks flat,
//! homogeneous vectors: cache-friendly and allocation-free per event at
//! large N. What a node transmitted and when it listens is not kept here:
//! the engine's shared, time-ordered transmission records and per-cluster
//! listen timelines hold both, and collisions, half-duplex blanking and
//! reception geometry query them by time.

use nd_core::interval::Interval;
use nd_core::time::Tick;
use nd_sim::{Behavior, DeviceStats};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A node to be added to the simulation: its protocol plus its presence
/// window.
pub struct NodeSpec {
    /// The protocol driving the node's radio (local timeline: 0 = join).
    pub behavior: Box<dyn Behavior>,
    /// When the node joins the network.
    pub join: Tick,
    /// When the node leaves again; `None` = stays to the end.
    pub leave: Option<Tick>,
    /// RNG stream id; `None` derives it from the node's engine-local id.
    /// Sharded runs pin this to the node's *global* id so a node draws the
    /// same private stream whether its shard is simulated alone or as
    /// part of the full cohort.
    pub stream: Option<u64>,
}

impl NodeSpec {
    /// A node present for the whole simulation.
    pub fn always_on(behavior: Box<dyn Behavior>) -> Self {
        NodeSpec {
            behavior,
            join: Tick::ZERO,
            leave: None,
            stream: None,
        }
    }

    /// A node present during `[join, leave)`.
    pub fn windowed(behavior: Box<dyn Behavior>, join: Tick, leave: Option<Tick>) -> Self {
        if let Some(l) = leave {
            assert!(l > join, "leave must come after join");
        }
        NodeSpec {
            behavior,
            join,
            leave,
            stream: None,
        }
    }

    /// Pin the node's RNG stream id (see [`NodeSpec::stream`]).
    pub fn with_stream(mut self, stream: u64) -> Self {
        self.stream = Some(stream);
        self
    }
}

/// `leave` sentinel for "stays to the end" inside the arena (a real leave
/// instant can never be `u64::MAX`: events beyond the horizon never fire).
const STAYS: Tick = Tick(u64::MAX);

/// Live per-node engine state, packed as structure-of-arrays.
///
/// Every vector has one slot per node, indexed by the engine-local node
/// id. The scalar per-node fields the event loop touches on every event
/// (`present`, `join`, `leave`, buffer fronts) sit in their own dense
/// vectors instead of being spread across boxed per-node structs.
pub(crate) struct NodeArena {
    pub behavior: Vec<Box<dyn Behavior>>,
    pub join: Vec<Tick>,
    /// Leave instant, `STAYS` (= `u64::MAX`) for nodes that never leave.
    leave: Vec<Tick>,
    /// Currently in the network.
    pub present: Vec<bool>,
    /// The behaviour returned an empty batch → nothing more proactive.
    pub proactive_done: Vec<bool>,
    pub stats: Vec<DeviceStats>,
    /// Per-node private RNG streams, derived from the run seed and the
    /// node's stream id — behaviours and fault rolls for one node never
    /// perturb any other node's stream.
    pub rng: Vec<StdRng>,
}

impl NodeArena {
    pub fn with_capacity(n: usize) -> Self {
        NodeArena {
            behavior: Vec::with_capacity(n),
            join: Vec::with_capacity(n),
            leave: Vec::with_capacity(n),
            present: Vec::with_capacity(n),
            proactive_done: Vec::with_capacity(n),
            stats: Vec::with_capacity(n),
            rng: Vec::with_capacity(n),
        }
    }

    pub fn len(&self) -> usize {
        self.join.len()
    }

    /// Append a node; its id is its insertion index. `run_seed` roots the
    /// private stream (stream id = `spec.stream`, defaulting to the id).
    pub fn push(&mut self, spec: NodeSpec, run_seed: u64) -> usize {
        let id = self.len();
        let stream = spec.stream.unwrap_or(id as u64);
        self.behavior.push(spec.behavior);
        self.join.push(spec.join);
        self.leave.push(spec.leave.unwrap_or(STAYS));
        self.present.push(false);
        self.proactive_done.push(false);
        self.stats.push(DeviceStats::default());
        self.rng
            .push(StdRng::seed_from_u64(nd_core::seed::stream_seed(
                run_seed, stream,
            )));
        id
    }

    /// Node `i`'s leave instant (`None` = stays to the end).
    pub fn leave_of(&self, i: usize) -> Option<Tick> {
        (self.leave[i] != STAYS).then(|| self.leave[i])
    }

    /// Whether node `i` is in the network for the whole of `iv` (it must
    /// have joined by the start and not leave before the end).
    pub fn present_during(&self, i: usize, iv: Interval) -> bool {
        self.join[i] <= iv.start && iv.end <= self.leave[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nd_sim::IdleBehavior;

    fn arena_with(spec: NodeSpec, run_seed: u64) -> NodeArena {
        let mut arena = NodeArena::with_capacity(1);
        arena.push(spec, run_seed);
        arena
    }

    #[test]
    fn presence_window() {
        let spec = NodeSpec::windowed(Box::new(IdleBehavior), Tick(100), Some(Tick(500)));
        let arena = arena_with(spec, 7);
        assert!(arena.present_during(0, Interval::new(Tick(100), Tick(500))));
        assert!(!arena.present_during(0, Interval::new(Tick(99), Tick(200))));
        assert!(!arena.present_during(0, Interval::new(Tick(400), Tick(501))));
        assert_eq!(arena.leave_of(0), Some(Tick(500)));

        let forever = arena_with(NodeSpec::always_on(Box::new(IdleBehavior)), 7);
        assert!(forever.present_during(0, Interval::new(Tick::ZERO, Tick(u64::MAX))));
        assert_eq!(forever.leave_of(0), None);
    }

    #[test]
    #[should_panic(expected = "leave must come after join")]
    fn rejects_inverted_window() {
        let _ = NodeSpec::windowed(Box::new(IdleBehavior), Tick(10), Some(Tick(10)));
    }

    #[test]
    fn node_streams_are_distinct_and_deterministic() {
        use rand::Rng;
        let mut arena = NodeArena::with_capacity(2);
        arena.push(NodeSpec::always_on(Box::new(IdleBehavior)), 42);
        arena.push(NodeSpec::always_on(Box::new(IdleBehavior)), 42);
        let mut again = NodeArena::with_capacity(1);
        again.push(NodeSpec::always_on(Box::new(IdleBehavior)), 42);
        let x: u64 = arena.rng[0].gen();
        assert_eq!(
            x,
            again.rng[0].gen::<u64>(),
            "same (seed, id) → same stream"
        );
        assert_ne!(
            x,
            arena.rng[1].gen::<u64>(),
            "different id → different stream"
        );
    }

    #[test]
    fn pinned_stream_overrides_local_id() {
        use rand::Rng;
        // node 0 of a shard pinned to global stream 5 draws what node 5
        // of the full cohort draws
        let mut shard = NodeArena::with_capacity(1);
        shard.push(
            NodeSpec::always_on(Box::new(IdleBehavior)).with_stream(5),
            42,
        );
        let mut full = NodeArena::with_capacity(6);
        for _ in 0..6 {
            full.push(NodeSpec::always_on(Box::new(IdleBehavior)), 42);
        }
        assert_eq!(shard.rng[0].gen::<u64>(), full.rng[5].gen::<u64>());
    }
}
