//! The discrete-event engine.
//!
//! [`NetSimulator`] runs a cohort of nodes: every node has a presence
//! window (join/leave churn), its own RNG stream, and an arbitrary
//! [`nd_sim::Behavior`]; the shared channel applies the paper's reception
//! model (overlap geometry, half-duplex blanking, ALOHA collisions, fault
//! injection). A pair of always-on nodes ([`NodeSpec::always_on`]) is the
//! pairwise simulation every Monte-Carlo harness runs; the
//! cross-validation suite pins it against a direct enumeration of beacons
//! and windows. Everything is deterministic given the seed. Reception is
//! decided at packet *end*, when everything it depends on is known, but
//! discovery latencies are recorded at packet *start*, the paper's
//! convention of neglecting the final packet's airtime (§3.2, A.4). A
//! run that reaches the horizon reports the horizon as its elapsed time.
//!
//! Protocols run on node-local timelines (0 = the node's join instant), so
//! the same behaviour describes an early bird and a late joiner; clock
//! drift composes underneath via [`nd_sim::Drifting`].
//!
//! The event core is built for scale: each node's behaviour batches
//! stream through the event queue in the order they were emitted (a
//! `Vec` per node, merged by a heap over the stream heads; see
//! `event.rs`), per-node state lives in the flat
//! structure-of-arrays [`crate::node`] arena, every transmission is one
//! record in a shared time-ordered deque that collisions and half-duplex
//! blanking both read with one monotone scan, and cohort completion is a
//! per-cluster countdown (O(1) per reception) instead of an O(N²)
//! matrix scan per event. Topologies that split into disconnected
//! clusters — e.g. per-channel neighborhoods from
//! [`nd_sim::Topology::clusters`] — complete independently: once a
//! cluster has discovered all its ordered pairs (under
//! [`NetSimulator::stop_when_all_discovered`]), its remaining events are
//! discarded without advancing the clock, which keeps a whole-cohort run
//! bit-identical to per-shard runs merged by [`crate::shard`].
//!
//! # Hyperperiod jumps
//!
//! Strictly periodic schedules without drift repeat themselves: two nodes
//! whose beacons collide or self-block once do so in every round, and a
//! run of them would simulate the same hyperperiod over and over up to the
//! horizon. When every node's behaviour has a period
//! ([`nd_sim::Behavior::period`]), the engine takes H, the lcm of them
//! all, and at each multiple `b` of H looks back at the template
//! hyperperiod `[b − H, b)`. The run's future is the template repeated
//! when all of these hold:
//!
//! * the general heap is empty: no join, leave or reactive op is pending;
//! * the template starts at least H after the last join, leave, reactive
//!   op, stale event of a departed node, or behaviour going idle (so
//!   `b = 2H` at the earliest in an always-on run);
//! * H exceeds the reception look-back, two airtimes plus both
//!   turnarounds plus the longest listening window;
//! * the template saw no first contact and no fault roll on an ordered
//!   pair not yet discovered.
//!
//! The engine then takes `m = ⌊(t_end − b) / H⌋` and jumps: it shifts
//! every pending item by `m·H` (stream events, packet ends, transmission
//! records, listen timelines, the clock and the behaviours' cursors via
//! [`nd_sim::Behavior::skip`]), adds `m` times the template's
//! deterministic counts (events, packets sent, collision and self-blocking
//! losses, roll-free receptions, every [`nd_sim::DeviceStats`] field),
//! replays the template's fault rolls `m` times in order on the same node
//! RNG streams, and simulates the rest normally. Every report field is
//! what simulating each hyperperiod would have produced, bit for bit.
//! Drift ([`nd_sim::Drifting`]), jitter, random and reactive behaviours
//! report no period, so those runs, runs whose churn is still pending,
//! and runs with less than a hyperperiod left after the earliest
//! template (`t_end < 3H` when always on) take the ordinary path.
//!
//! A behaviour that reports a period promises that its ops repeat with it
//! (batch boundaries included), that it draws nothing from the RNG it is
//! handed, and that it answers receptions with no ops.

use crate::event::{EventKind, EventQueue};
use crate::metrics::CohortReport;
use crate::node::{NodeArena, NodeSpec};
use nd_core::interval::{Interval, IntervalSet};
use nd_core::time::Tick;
use nd_obs::Progress;
use nd_sim::{Behavior, DeviceStats, DiscoveryMatrix, Op, PacketCounters, SimConfig, Topology};
use rand::Rng;
use std::collections::VecDeque;

/// One transmission on the shared channel.
struct TxRecord {
    node: usize,
    iv: Interval,
    payload: u64,
    /// The sender left mid-packet: the truncated airtime still interferes,
    /// but the packet is corrupt and never delivered.
    aborted: bool,
}

/// One cluster's scheduled listening windows, tagged with the listener,
/// in nondecreasing start order.
///
/// The order is free: every buffered `Rx` op is processed by its wake at
/// exactly its start instant, so pushes arrive already sorted by start.
/// That makes "who could hear a packet" a binary search + short scan
/// instead of a walk over every cluster member's window list — the
/// receiver-side cost of a `TxEnd` drops from O(cluster size) to
/// O(listeners actually overlapping the packet).
struct Timeline {
    /// `(window, listener id)` in nondecreasing `window.start` order.
    entries: Vec<(Interval, u32)>,
    /// Lazy prune cursor: everything before it is past the influence
    /// horizon of any future packet.
    prune: usize,
    /// Monotone search cursor: queries arrive with nondecreasing packet
    /// starts (`TxEnd`s fire in packet order), so the lower bound only
    /// ever moves forward — amortized O(1) instead of a binary search.
    /// Rewound to `prune` when `max_dur` grows.
    search: usize,
    /// Longest window duration ever pushed — the lower-bound slack: a
    /// window overlapping `t` must start after `t - max_dur`.
    max_dur: Tick,
}

impl Timeline {
    fn new() -> Self {
        Timeline {
            entries: Vec::new(),
            prune: 0,
            search: 0,
            max_dur: Tick::ZERO,
        }
    }

    /// Record a window; starts arrive nondecreasing (each `Rx` op is
    /// processed by its wake at exactly its start instant).
    fn push(&mut self, iv: Interval, node: u32) {
        debug_assert!(
            self.entries.last().is_none_or(|e| e.0.start <= iv.start),
            "listen windows must arrive in start order"
        );
        if iv.measure() > self.max_dur {
            // a longer window reaches further back: rewind the cursor
            self.max_dur = iv.measure();
            self.search = self.prune;
        }
        self.entries.push((iv, node));
    }

    /// First index that could overlap a packet starting at `packet_start`,
    /// advancing (and occasionally compacting) the prune cursor first.
    fn candidates_from(&mut self, packet_start: Tick, horizon: Tick) -> usize {
        while self.prune < self.entries.len()
            && self.entries[self.prune].0.start + self.max_dur < horizon
        {
            self.prune += 1;
        }
        if self.prune > 64 && self.prune * 2 >= self.entries.len() {
            self.entries.drain(..self.prune);
            self.search = self.search.saturating_sub(self.prune);
            self.prune = 0;
        }
        self.search = self.search.max(self.prune);
        while self.search < self.entries.len()
            && self.entries[self.search].0.start + self.max_dur <= packet_start
        {
            self.search += 1;
        }
        self.search
    }
}

/// The multi-node discrete-event simulator.
///
/// ```
/// use nd_netsim::{NetSimulator, NodeSpec};
/// use nd_sim::{ScheduleBehavior, SimConfig, Topology};
/// use nd_core::{BeaconSeq, RadioParams, ReceptionWindows, Schedule, Tick};
///
/// // three nodes that both beacon and listen discover each other quickly
/// let sched = Schedule::full(
///     BeaconSeq::uniform(1, Tick::from_micros(300), Tick::from_micros(4), Tick::ZERO).unwrap(),
///     ReceptionWindows::single(Tick::from_micros(50), Tick::from_micros(200), Tick::from_micros(300)).unwrap(),
/// );
/// let mut radio = RadioParams::paper_default();
/// radio.omega = Tick::from_micros(4);
/// let cfg = SimConfig::paper_baseline(Tick::from_millis(20), 7).with_radio(radio);
/// let mut sim = NetSimulator::new(cfg, Topology::full(3));
/// for phase_us in [0u64, 70, 170] {
///     let behavior = ScheduleBehavior::with_phase(sched.clone(), Tick::from_micros(phase_us));
///     sim.add_node(NodeSpec::always_on(Box::new(behavior)));
/// }
/// let report = sim.run();
/// assert!(report.discovery.complete());
/// ```
pub struct NetSimulator {
    cfg: SimConfig,
    topo: Topology,
    nodes: NodeArena,
    /// Retained transmission records — the one log of who transmitted
    /// when, read by collisions and half-duplex blanking alike; absolute
    /// record `idx` lives at `transmissions[idx - tx_base]`. Records whose
    /// influence horizon has passed are popped off the front (their
    /// `TxEnd` is proven fired).
    transmissions: VecDeque<TxRecord>,
    tx_base: usize,
    /// Pending packet ends `(end, seq, absolute record idx)`. Airtime is
    /// one constant ω per run, so ends become due in exactly the order
    /// packets started — a FIFO beside the queue. Each entry carries a
    /// sequence number reserved at start time, so firing an end the
    /// moment its `(end, seq)` precedes the queue's head reproduces the
    /// schedule-it-as-an-event order bit for bit, at FIFO cost instead
    /// of a third of all queue traffic.
    pending_ends: VecDeque<(Tick, u64, usize)>,
    queue: EventQueue,
    discovery: DiscoveryMatrix,
    packets: PacketCounters,
    stop_when_complete: bool,
    /// Normalized cluster label per node (smallest member id), as reported.
    cluster_label: Vec<u32>,
    /// Dense cluster index per node (labels renumbered 0..k in
    /// first-appearance order).
    cluster_of: Vec<u32>,
    /// Ordered pairs not yet discovered, per dense cluster index. A
    /// cluster is complete exactly when this hits zero — the counter
    /// equivalent of `DiscoveryMatrix::complete()` on the cluster.
    remaining: Vec<u64>,
    /// Clusters with `remaining > 0`.
    clusters_active: usize,
    /// Scheduled listening windows per dense cluster index (reception
    /// geometry is queried by time across a neighborhood, not per node).
    timelines: Vec<Timeline>,
    /// Scratch: candidate `(listener, window ∩ packet)` pairs per `TxEnd`.
    cand: Vec<(u32, Interval)>,
    /// Scratch: one refill batch of behaviour ops (reused so steady-state
    /// refills through [`nd_sim::Behavior::next_ops_into`] allocate
    /// nothing).
    op_scratch: Vec<Op>,
    /// Scratch: collider record indices per `TxEnd`.
    colliders: Vec<usize>,
    /// Scratch: `(sender, record widened by the turnaround times)` for
    /// every retained record whose widening overlaps the current packet —
    /// the half-duplex blanking each sender suffers (Appendix A.5).
    blankers: Vec<(u32, Interval)>,
    /// Monotone lower bound (absolute record index) for the collider /
    /// blanker scan: packet starts are nondecreasing across `TxEnd`s, so
    /// records wholly before one packet are wholly before every later one.
    collider_search: usize,
    /// The hyperperiod jump's bookkeeping.
    lock: PhaseLock,
}

/// What the hyperperiod jump needs to know (see the module doc): H, the
/// next multiple of it to check, how recently the run changed, and the
/// current template hyperperiod's starting counters and fault rolls.
struct PhaseLock {
    /// H, the lcm of every node's period (unused when `next` is MAX).
    h: Tick,
    /// The next multiple of H to check; `Tick::MAX` when none can pass.
    next: Tick,
    /// The earliest start a template may have: one H after the last
    /// stale event or proactive stop, past the last first contact or
    /// fault roll on an undiscovered pair.
    settle: Tick,
    /// Start of the template being recorded, if it may still qualify.
    start: Option<Tick>,
    /// Handled events, packet counters and node stats at `start`.
    events: u64,
    packets: PacketCounters,
    stats: Vec<DeviceStats>,
    /// The template's fault rolls in order: `(receiver, p_drop, lost)`.
    rolls: Vec<(u32, f64, bool)>,
    /// Events accounted by jumps without being handled.
    skipped: u64,
}

impl NetSimulator {
    /// Create a simulator; add nodes with [`NetSimulator::add_node`], then
    /// call [`NetSimulator::run`]. The config's `seed` roots every node's
    /// private RNG stream.
    pub fn new(cfg: SimConfig, topo: Topology) -> Self {
        let n = topo.len();
        let cluster_label = topo.cluster_assignments();
        // labels are smallest member ids, so a cluster first appears at
        // the node its label names: number clusters in that order
        let mut cluster_of = vec![0u32; n];
        let mut sizes: Vec<u64> = Vec::new();
        for (i, &label) in cluster_label.iter().enumerate() {
            let label = label as usize;
            debug_assert!(label <= i, "cluster label {label} above member {i}");
            cluster_of[i] = if label == i {
                sizes.push(0);
                (sizes.len() - 1) as u32
            } else {
                cluster_of[label]
            };
            sizes[cluster_of[i] as usize] += 1;
        }
        let remaining: Vec<u64> = sizes.iter().map(|&k| k * (k - 1)).collect();
        let clusters_active = remaining.iter().filter(|&&r| r > 0).count();
        NetSimulator {
            cfg,
            topo,
            nodes: NodeArena::with_capacity(n),
            transmissions: VecDeque::new(),
            tx_base: 0,
            pending_ends: VecDeque::new(),
            queue: EventQueue::new(n),
            discovery: DiscoveryMatrix::new(n),
            packets: PacketCounters::default(),
            stop_when_complete: false,
            cluster_label,
            cluster_of,
            timelines: sizes.iter().map(|_| Timeline::new()).collect(),
            remaining,
            clusters_active,
            cand: Vec::new(),
            op_scratch: Vec::new(),
            colliders: Vec::new(),
            blankers: Vec::new(),
            collider_search: 0,
            lock: PhaseLock {
                h: Tick::MAX,
                next: Tick::MAX,
                settle: Tick::ZERO,
                start: None,
                events: 0,
                packets: PacketCounters::default(),
                stats: Vec::new(),
                rolls: Vec::new(),
                skipped: 0,
            },
        }
    }

    /// Register the next node (ids are assigned in call order and must
    /// match the topology size by the time `run` is called).
    pub fn add_node(&mut self, spec: NodeSpec) -> usize {
        self.nodes.push(spec, self.cfg.seed)
    }

    /// Stop as soon as every ordered pair has discovered each other.
    /// Disconnected topologies complete cluster by cluster: a finished
    /// cluster's remaining events are dropped, and the run ends when the
    /// last cluster finishes (clusters with undiscoverable pairs run to
    /// the horizon, as before).
    pub fn stop_when_all_discovered(&mut self, yes: bool) {
        self.stop_when_complete = yes;
    }

    /// Run to completion and return the cohort report.
    ///
    /// The event loop is a profiling hook: handled events are flushed to
    /// the `netsim.events` counter once 2^16 have gathered **plus a final
    /// flush on drain** (so short shards are counted exactly), events a
    /// hyperperiod jump accounted for without handling them to
    /// `netsim.events_skipped`, the most events ever pending to the
    /// `netsim.queue_depth_max` gauge, the end-of-run rate to
    /// `netsim.events_per_sec`, and (for standalone runs — the sweep
    /// pool's display takes priority inside a sweep) simulated time drives
    /// a stderr progress line toward `t_end`. None of it runs unless
    /// observability is enabled, and none of it feeds back into the
    /// simulation.
    pub fn run(mut self) -> CohortReport {
        assert_eq!(
            self.nodes.len(),
            self.topo.len(),
            "node count must match topology size"
        );
        for i in 0..self.nodes.len() {
            self.queue.push(self.nodes.join[i], EventKind::Join(i));
            if let Some(leave) = self.nodes.leave_of(i) {
                self.queue.push(leave, EventKind::Leave(i));
            }
        }
        // H: every node must have a period, and the lcm must fit
        let h = self.nodes.behavior.iter().try_fold(1u64, |h, b| {
            let p = b.period().filter(|p| !p.is_zero())?;
            nd_core::schedule::checked_lcm(h, p.as_nanos())
        });
        if let Some(h) = h {
            self.lock.h = Tick(h);
            self.lock.next = Tick(h);
        }
        // Flush-batched so the hot loop touches no shared atomics; 2^16
        // events ≈ a few ms of work, plenty fine-grained for profiling.
        const FLUSH_EVERY: u64 = 1 << 16;
        let progress = Progress::new("netsim", self.cfg.t_end.0);
        let observing = nd_obs::metrics::enabled() || progress.is_active();
        let wall_start = observing.then(std::time::Instant::now);
        let mut total_events: u64 = 0;
        let mut flushed: u64 = 0;
        // the per-event completed-cluster discard can only ever fire with 2+
        // clusters: a single cluster's completion exits the loop before the
        // next pop, so skip the owner lookup entirely on the common path
        let stopping = self.stop_when_complete && self.remaining.len() > 1;
        let stop_all = self.stop_when_complete;
        while !(stop_all && self.clusters_active == 0) {
            // fire any packet end due before the next queued event; its
            // reserved seq makes the (time, seq) order identical to
            // having scheduled it
            if let Some(&(end, seq, idx)) = self.pending_ends.front() {
                if self
                    .queue
                    .peek_key()
                    .is_none_or(|(at, qseq)| (end, seq) < (at, qseq))
                {
                    if end >= self.lock.next {
                        // everything before the boundary is handled
                        self.boundary(end, &mut total_events);
                        continue;
                    }
                    self.pending_ends.pop_front();
                    if end > self.cfg.t_end {
                        self.queue.advance(end);
                        break;
                    }
                    if stopping
                        && self.remaining
                            [self.cluster_of[self.transmissions[idx - self.tx_base].node] as usize]
                            == 0
                    {
                        continue;
                    }
                    self.queue.advance(end);
                    self.handle_tx_end(idx);
                    total_events += 1;
                    if observing && total_events - flushed >= FLUSH_EVERY {
                        nd_obs::metrics::add("netsim.events", total_events - flushed);
                        flushed = total_events;
                        progress.update(end.0);
                    }
                    continue;
                }
            }
            let Some(mut ev) = self.queue.pop() else {
                break;
            };
            if ev.at >= self.lock.next {
                // the popped event is pending at the boundary too
                ev = ev.shifted(self.boundary(ev.at, &mut total_events));
            }
            if ev.at > self.cfg.t_end {
                self.queue.advance(ev.at);
                break;
            }
            if stopping {
                // a completed cluster's tail events are discarded without
                // advancing the clock — exactly what a per-shard run does
                // by stopping, so sharded and whole-cohort runs agree
                if self.remaining[self.cluster_of[ev.kind.node()] as usize] == 0 {
                    continue;
                }
            }
            self.queue.advance(ev.at);
            match ev.kind {
                EventKind::Join(i) => self.handle_join(i),
                EventKind::Leave(i) => self.handle_leave(i),
                EventKind::Wake(i) => self.handle_wake(i),
                EventKind::TxStart { node, payload } => self.handle_tx_start(node, payload, ev.at),
                EventKind::RxStart { node, end } => {
                    let i = node as usize;
                    // a stale window of a node that has since left
                    // (the old design cleared it from the buffer)
                    if self.nodes.present[i] {
                        self.timelines[self.cluster_of[i] as usize]
                            .push(Interval::new(ev.at, end), node);
                        self.nodes.stats[i].n_rx_windows += 1;
                        self.nodes.stats[i].rx_time += end - ev.at;
                    } else {
                        self.disturbed();
                    }
                }
            }
            total_events += 1;
            if observing && total_events - flushed >= FLUSH_EVERY {
                nd_obs::metrics::add("netsim.events", total_events - flushed);
                flushed = total_events;
                progress.update(ev.at.0);
            }
        }
        if observing {
            // flush-on-drain: the remainder batch must land even for runs
            // shorter than one flush interval (a 10⁶-node cohort is many
            // such shards — undercounting them skews the cohort gauges)
            nd_obs::metrics::add("netsim.events", total_events - flushed);
            nd_obs::metrics::add("netsim.events_skipped", self.lock.skipped);
            nd_obs::metrics::gauge_max("netsim.queue_depth_max", self.queue.depth_max() as f64);
            if let Some(start) = wall_start {
                let secs = start.elapsed().as_secs_f64();
                if secs > 0.0 {
                    nd_obs::metrics::gauge_max("netsim.events_per_sec", total_events as f64 / secs);
                }
            }
        }
        progress.finish();
        let elapsed = self.queue.now().min(self.cfg.t_end);
        let n = self.nodes.len();
        CohortReport {
            elapsed,
            events: total_events,
            discovery: self.discovery,
            packets: self.packets,
            stats: std::mem::take(&mut self.nodes.stats),
            joins: std::mem::take(&mut self.nodes.join),
            leaves: (0..n).map(|i| self.nodes.leave_of(i)).collect(),
            cluster: self.cluster_label,
        }
    }

    /// At a hyperperiod boundary (the next item is due at `at ≥
    /// lock.next`, everything before the last multiple `b` of H handled):
    /// jump if the template `[b − H, b)` repeats, else start recording
    /// `[b, b + H)` as the next template. Returns the jump.
    fn boundary(&mut self, at: Tick, events: &mut u64) -> Tick {
        let h = self.lock.h;
        let b = self.lock.next + h * ((at - self.lock.next) / h);
        let (general_at, general_empty) = self.queue.general();
        let quiet = self.lock.settle.max(general_at.saturating_add(h));
        let radio = &self.cfg.radio;
        let longest = self.timelines.iter().map(|tl| tl.max_dur).max();
        let lookback =
            radio.omega * 2 + radio.do_rx_tx + radio.do_tx_rx + longest.unwrap_or_default();
        let m = self.cfg.t_end.saturating_sub(b) / h;
        if m > 0
            && general_empty
            && lookback < h
            && self.lock.start == Some(b - h)
            && quiet <= b - h
        {
            self.jump(m, events);
            self.lock.next = Tick::MAX;
            self.lock.start = None;
            return h * m;
        }
        if m < 2 {
            // no template from here on has a hyperperiod to repeat into
            self.lock.next = Tick::MAX;
            self.lock.start = None;
            return Tick::ZERO;
        }
        self.lock.next = b + h;
        self.lock.start = (general_empty && quiet <= b).then_some(b);
        if self.lock.start.is_some() {
            self.lock.events = *events;
            self.lock.packets = self.packets.clone();
            self.lock.stats.clone_from(&self.nodes.stats);
            self.lock.rolls.clear();
        }
        Tick::ZERO
    }

    /// Jump `m` copies of the template hyperperiod ahead: shift what is
    /// pending, add the template's deterministic counts `m` times, and
    /// replay its fault rolls `m` times on the same node streams.
    fn jump(&mut self, m: u64, events: &mut u64) {
        let by = self.lock.h * m;
        self.queue.shift(by);
        for end in &mut self.pending_ends {
            end.0 += by;
        }
        for tx in &mut self.transmissions {
            tx.iv = shift_iv(tx.iv, by);
        }
        for tl in &mut self.timelines {
            for e in &mut tl.entries {
                e.0 = shift_iv(e.0, by);
            }
        }
        for behavior in &mut self.nodes.behavior {
            behavior.skip(by);
        }

        let lock = &mut self.lock;
        let skipped = (*events - lock.events) * m;
        *events += skipped;
        lock.skipped += skipped;
        // fold the template's rolled outcomes into its starting counts, so
        // what is left of each delta is the deterministic part
        for &(rx, _, lost) in &lock.rolls {
            if lost {
                lock.packets.lost_fault += 1;
            } else {
                lock.packets.received += 1;
                lock.stats[rx as usize].n_received += 1;
            }
        }
        let repeat = |now: &mut u64, then: u64| *now += (*now - then) * m;
        let PacketCounters {
            sent,
            received,
            lost_collision,
            lost_self_blocking,
            lost_fault,
        } = &mut self.packets;
        repeat(sent, lock.packets.sent);
        repeat(received, lock.packets.received);
        repeat(lost_collision, lock.packets.lost_collision);
        repeat(lost_self_blocking, lock.packets.lost_self_blocking);
        repeat(lost_fault, lock.packets.lost_fault);
        for (now, then) in self.nodes.stats.iter_mut().zip(&lock.stats) {
            let DeviceStats {
                tx_time,
                rx_time,
                n_tx,
                n_rx_windows,
                n_received,
            } = now;
            repeat(&mut tx_time.0, then.tx_time.0);
            repeat(&mut rx_time.0, then.rx_time.0);
            repeat(n_tx, then.n_tx);
            repeat(n_rx_windows, then.n_rx_windows);
            repeat(n_received, then.n_received);
        }
        for _ in 0..m {
            for &(rx, p_drop, _) in &lock.rolls {
                let rx = rx as usize;
                if self.nodes.rng[rx].gen::<f64>() < p_drop {
                    self.packets.lost_fault += 1;
                } else {
                    self.packets.received += 1;
                    self.nodes.stats[rx].n_received += 1;
                }
            }
        }
    }

    /// The run changed in a way a template must be one H clear of (a
    /// stale event, a behaviour going idle).
    fn disturbed(&mut self) {
        self.lock.settle = self
            .lock
            .settle
            .max(self.queue.now().saturating_add(self.lock.h));
    }

    /// Discovery moved on (a first contact, or a fault roll that could
    /// have been one): no template may contain it.
    fn progressed(&mut self) {
        self.lock.settle = self.lock.settle.max(self.queue.now() + Tick(1));
    }

    fn handle_join(&mut self, i: usize) {
        self.nodes.present[i] = true;
        self.arm(i);
    }

    /// Refill node `i`'s event stream from its behaviour (translating
    /// local ops to simulation time) and schedule a wake for the batch's
    /// end.
    fn arm(&mut self, i: usize) {
        let now = self.queue.now();
        if !self.nodes.present[i] {
            self.disturbed();
            return;
        }
        while !self.nodes.proactive_done[i] {
            // the behaviour lives on the node's local timeline: 0 = join
            let join = self.nodes.join[i];
            let local_after = now.saturating_sub(join);
            let mut ops = std::mem::take(&mut self.op_scratch);
            ops.clear();
            self.nodes.behavior[i].next_ops_into(local_after, &mut self.nodes.rng[i], &mut ops);
            if ops.is_empty() {
                self.nodes.proactive_done[i] = true;
                self.op_scratch = ops;
                self.disturbed();
                break;
            }
            let mut last = Tick::ZERO;
            for &op in ops.iter() {
                debug_assert!(op.at() >= local_after, "behavior emitted an op in the past");
                let (at, kind) = op_event(i, shift_op(op, join, now));
                last = last.max(at);
                self.queue.push_stream(at, kind);
            }
            self.op_scratch = ops;
            // refill again when the batch runs out. The tick lands on the
            // batch's last op and is pushed after it, so it fires once
            // everything here has been handled; refills are cursor-driven
            // (a behaviour emits from where it left off, to a fixed chunk
            // boundary), so the refill instant does not change the op
            // stream. A batch wholly due right now — possible at a join
            // onto a busy instant — refills again immediately: the old
            // same-instant wake-then-refill cascade, minus the events.
            if last > now {
                self.queue.push_stream(last, EventKind::Wake(i));
                break;
            }
        }
    }

    /// A refill tick: the node's last emitted batch has just run out.
    fn handle_wake(&mut self, i: usize) {
        self.arm(i);
    }

    /// A scheduled beacon starts: record it on the shared channel and
    /// book its `TxEnd`.
    fn handle_tx_start(&mut self, node: u32, payload: u64, at: Tick) {
        let i = node as usize;
        if !self.nodes.present[i] {
            self.disturbed();
            return; // a stale beacon of a node that has since left
        }
        let iv = Interval::new(at, at + self.cfg.radio.omega);
        self.nodes.stats[i].n_tx += 1;
        self.nodes.stats[i].tx_time += self.cfg.radio.omega;
        self.packets.sent += 1;
        let idx = self.tx_base + self.transmissions.len();
        self.transmissions.push_back(TxRecord {
            node: i,
            iv,
            payload,
            aborted: false,
        });
        let seq = self.queue.alloc_seq();
        self.pending_ends.push_back((iv.end, seq, idx));
    }

    fn handle_leave(&mut self, i: usize) {
        let now = self.queue.now();
        self.nodes.present[i] = false;
        // truncate listening windows that extend past departure (and give
        // the unused tail back to the duty-cycle accounting); the new end
        // is clamped to ≥ start so the timeline stays sorted by start —
        // a wholly-future window becomes empty in place
        let tl = &mut self.timelines[self.cluster_of[i] as usize];
        for e in tl.entries.iter_mut().skip(tl.prune) {
            if e.1 as usize == i && e.0.end > now {
                let cut_start = e.0.start.max(now);
                self.nodes.stats[i].rx_time = self.nodes.stats[i]
                    .rx_time
                    .saturating_sub(e.0.end - cut_start);
                e.0 = Interval::new(e.0.start, cut_start);
            }
        }
        // an in-flight packet is cut short: the truncated airtime still
        // interferes, but the packet is corrupt
        for tx in self.transmissions.iter_mut() {
            if tx.node == i && tx.iv.end > now {
                let cut_start = tx.iv.start.min(now);
                self.nodes.stats[i].tx_time =
                    self.nodes.stats[i].tx_time.saturating_sub(tx.iv.end - now);
                tx.iv = Interval::new(cut_start, now);
                tx.aborted = true;
            }
        }
    }

    fn handle_tx_end(&mut self, idx: usize) {
        let (sender, iv, payload, aborted) = {
            let tx = &self.transmissions[idx - self.tx_base];
            (tx.node, tx.iv, tx.payload, tx.aborted)
        };
        self.prune_tx(iv.start);
        if aborted || iv.is_empty() {
            return; // sender left mid-packet; nothing deliverable
        }
        let horizon = self.prune_horizon(iv.start);

        // one pass over the retained records: collision candidates plus
        // half-duplex blankers
        let start_model = matches!(self.cfg.overlap, nd_core::coverage::OverlapModel::Start);
        if self.cfg.collisions || self.cfg.half_duplex {
            self.scan_tx(idx, iv);
        }
        let colliders = std::mem::take(&mut self.colliders);
        let blankers = std::mem::take(&mut self.blankers);

        // candidate receivers: owners of scheduled windows overlapping the
        // packet, found by binary search in the cluster's listen timeline
        // (audibility never crosses a cluster boundary, so only the
        // sender's own neighborhood is consulted)
        let cluster = self.cluster_of[sender] as usize;
        let mut cand = std::mem::take(&mut self.cand);
        {
            let tl = &mut self.timelines[cluster];
            let lo = tl.candidates_from(iv.start, horizon);
            for &(w, node) in &tl.entries[lo..] {
                if w.start >= iv.end {
                    break;
                }
                let cut = w.intersect(&iv);
                if !cut.is_empty() {
                    cand.push((node, cut));
                }
            }
        }
        // group windows by receiver, ascending id — the stable sort keeps
        // each node's windows in schedule order, so the per-node cover is
        // exactly what its own window list would have produced
        cand.sort_by_key(|&(node, _)| node);

        let mut reactive: Vec<(usize, Vec<Op>)> = Vec::new();
        let mut at = 0;
        while at < cand.len() {
            let rx = cand[at].0 as usize;
            let group_start = at;
            while at < cand.len() && cand[at].0 as usize == rx {
                at += 1;
            }
            let windows = &cand[group_start..at];
            if !self.topo.in_range(sender, rx) {
                continue;
            }
            // the receiver must be in the network for the whole packet
            if !self.nodes.present_during(rx, iv) || !self.nodes.present[rx] {
                continue;
            }
            // geometry against the scheduled windows, then half-duplex
            // blanking by the receiver's own widened records (Appendix
            // A.5); under the paper's start-of-packet overlap model both
            // reduce to point queries — no interval algebra on the hot path
            let mut blanks = blankers
                .iter()
                .filter(|&&(b, _)| b as usize == rx)
                .map(|&(_, w)| w);
            if start_model {
                if !windows.iter().any(|&(_, w)| w.contains(iv.start)) {
                    continue; // not receivable at all — not counted as a loss
                }
                if self.cfg.half_duplex && blanks.any(|w| w.contains(iv.start)) {
                    self.packets.lost_self_blocking += 1;
                    continue;
                }
            } else {
                let scheduled = IntervalSet::from_intervals(windows.iter().map(|&(_, w)| w));
                if !self.geometry_ok(&scheduled, iv) {
                    continue; // not receivable at all — not counted as a loss
                }
                if self.cfg.half_duplex {
                    let blanked = IntervalSet::from_intervals(blanks);
                    if !self.geometry_ok(&scheduled.subtract(&blanked), iv) {
                        self.packets.lost_self_blocking += 1;
                        continue;
                    }
                }
            }
            // collisions: any other in-range transmission overlapping the
            // packet destroys it at this receiver (ALOHA, Eq. 12)
            if self.cfg.collisions {
                let collided = colliders.iter().any(|&q| {
                    let tx = &self.transmissions[q - self.tx_base];
                    tx.node != rx && self.topo.in_range(tx.node, rx)
                });
                if collided {
                    self.packets.lost_collision += 1;
                    continue;
                }
            }
            // fault injection, rolled on the receiver's private stream; a
            // template replays the rolls on pairs already discovered
            let p_drop = self.cfg.drop_probability + self.topo.link_loss(sender, rx);
            let first = self.discovery.one_way(rx, sender).is_none();
            if p_drop > 0.0 {
                let lost = self.nodes.rng[rx].gen::<f64>() < p_drop;
                if first {
                    self.progressed();
                } else if self.lock.start.is_some() {
                    self.lock.rolls.push((rx as u32, p_drop, lost));
                }
                if lost {
                    self.packets.lost_fault += 1;
                    continue;
                }
            }
            // success
            self.packets.received += 1;
            self.nodes.stats[rx].n_received += 1;
            if first {
                // a first contact for this ordered pair: count the
                // cluster down toward completion
                self.progressed();
                self.remaining[cluster] -= 1;
                if self.remaining[cluster] == 0 {
                    self.clusters_active -= 1;
                }
            }
            self.discovery.record(rx, sender, iv.start);
            let local_at = iv.start.saturating_sub(self.nodes.join[rx]);
            let ops = self.nodes.behavior[rx].on_reception(
                local_at,
                sender,
                payload,
                &mut self.nodes.rng[rx],
            );
            if !ops.is_empty() {
                reactive.push((rx, ops));
            }
        }
        let now = self.queue.now();
        for (rx, ops) in reactive {
            let join = self.nodes.join[rx];
            for op in ops {
                let (at, kind) = op_event(rx, shift_op(op, join, now));
                self.queue.push(at, kind);
            }
        }
        let mut colliders = colliders;
        colliders.clear();
        self.colliders = colliders;
        let mut blankers = blankers;
        blankers.clear();
        self.blankers = blankers;
        cand.clear();
        self.cand = cand;
    }

    /// How far back a record can still matter at packet-start `t`: past
    /// this horizon nothing overlaps the packet or its blanking expansion.
    fn prune_horizon(&self, t: Tick) -> Tick {
        let guard =
            self.cfg.radio.omega + self.cfg.radio.do_rx_tx + self.cfg.radio.do_tx_rx + Tick(1);
        t.saturating_sub(guard * 4)
    }

    /// Apply the configured overlap model to a listening cover.
    fn geometry_ok(&self, cover: &IntervalSet, packet: Interval) -> bool {
        match self.cfg.overlap {
            nd_core::coverage::OverlapModel::Start => cover.contains(packet.start),
            nd_core::coverage::OverlapModel::AnyOverlap => !cover.is_empty(),
            nd_core::coverage::OverlapModel::FullPacket => {
                cover.intervals().len() == 1 && {
                    let iv = cover.intervals()[0];
                    iv.start <= packet.start && iv.end >= packet.end
                }
            }
        }
    }

    /// One sequential pass over the retained transmission records around
    /// `iv`, filling the scratch lists: `colliders` gets the absolute
    /// indices of *other* records overlapping the packet (ALOHA, Eq. 12),
    /// `blankers` every record whose widening `[start − do_rx_tx, end +
    /// do_tx_rx)` overlaps the packet, as `(sender, widened record)` — the
    /// receiver-side half-duplex test reads its own entries.
    ///
    /// The shared records are the only log of who transmitted when, and
    /// they suffice: a record is pruned only once it ends before
    /// `packet start − 4·guard`, far behind any widening that can reach
    /// this packet, and only departed nodes (never receivers) have
    /// truncated records.
    ///
    /// Records are kept in nondecreasing start order, are at most ω long
    /// (leave-truncation only shortens them), and queries arrive with
    /// nondecreasing packet starts, so the lower bound is a monotone
    /// cursor — amortized O(1) per call, one cache-friendly walk instead
    /// of per-node log lookups.
    fn scan_tx(&mut self, idx: usize, iv: Interval) {
        let radio = &self.cfg.radio;
        // a record can still matter if it overlaps the packet (collision)
        // or its widening does (blanking): both imply
        // `start + ω + do_tx_rx > iv.start`
        let reach_back = radio.omega + radio.do_tx_rx;
        let mut lo = self.collider_search.max(self.tx_base);
        while lo - self.tx_base < self.transmissions.len()
            && self.transmissions[lo - self.tx_base].iv.start + reach_back < iv.start
        {
            lo += 1;
        }
        self.collider_search = lo;
        // blanking looks ahead of the packet too: a record starting within
        // `do_rx_tx` after the packet end still blanks its sender
        let scan_end = iv.end + radio.do_rx_tx;
        for local in (lo - self.tx_base)..self.transmissions.len() {
            let tx = &self.transmissions[local];
            if tx.iv.start >= scan_end {
                break;
            }
            let q = self.tx_base + local;
            if q != idx && tx.iv.overlaps(&iv) {
                self.colliders.push(q);
            }
            let widened = Interval::new(
                tx.iv.start.saturating_sub(radio.do_rx_tx),
                tx.iv.end + radio.do_tx_rx,
            );
            if widened.overlaps(&iv) {
                self.blankers.push((tx.node as u32, widened));
            }
        }
    }

    /// Drop transmission records that can no longer affect any packet
    /// decision. A record is only dropped once its own `TxEnd` has
    /// provably fired (its end — even a leave-truncated one — is within
    /// one packet length of the original end, far inside the horizon
    /// guard), so absolute indices held by pending events stay valid.
    fn prune_tx(&mut self, t: Tick) {
        let horizon = self.prune_horizon(t);
        while let Some(front) = self.transmissions.front() {
            if front.iv.end >= horizon {
                break;
            }
            self.transmissions.pop_front();
            self.tx_base += 1;
        }
    }
}

/// `iv` moved `by` later.
fn shift_iv(iv: Interval, by: Tick) -> Interval {
    Interval::new(iv.start + by, iv.end + by)
}

/// Node `i`'s simulation-time op as the event that starts it. Departures
/// and the horizon silence pending ops: the op events check presence when
/// they fire.
fn op_event(i: usize, op: Op) -> (Tick, EventKind) {
    match op {
        Op::Rx { at, duration } => (
            at,
            EventKind::RxStart {
                node: i as u32,
                end: at + duration,
            },
        ),
        Op::Tx { at, payload } => (
            at,
            EventKind::TxStart {
                node: i as u32,
                payload,
            },
        ),
    }
}

/// Translate a node-local op to simulation time (`+join`), clamped so a
/// cascade never schedules into the past.
fn shift_op(op: Op, join: Tick, at_least: Tick) -> Op {
    match op {
        Op::Tx { at, payload } => Op::Tx {
            at: (at + join).max(at_least),
            payload,
        },
        Op::Rx { at, duration } => Op::Rx {
            at: (at + join).max(at_least),
            duration,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::ChurnPlan;
    use nd_core::params::RadioParams;
    use nd_core::schedule::{BeaconSeq, ReceptionWindows, Schedule};
    use nd_sim::ScheduleBehavior;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn radio(omega_us: u64) -> RadioParams {
        RadioParams::ideal(Tick::from_micros(omega_us), 1.0)
    }

    fn adv(period_us: u64, phase_us: u64) -> Schedule {
        Schedule::tx_only(
            BeaconSeq::uniform(
                1,
                Tick::from_micros(period_us),
                Tick::from_micros(4),
                Tick::from_micros(phase_us),
            )
            .unwrap(),
        )
    }

    fn scan(window_us: u64, period_us: u64) -> Schedule {
        Schedule::rx_only(
            ReceptionWindows::single(
                Tick::ZERO,
                Tick::from_micros(window_us),
                Tick::from_micros(period_us),
            )
            .unwrap(),
        )
    }

    fn base_cfg(ms: u64) -> SimConfig {
        SimConfig::paper_baseline(Tick::from_millis(ms), 42).with_radio(radio(4))
    }

    fn on(sched: Schedule) -> NodeSpec {
        NodeSpec::always_on(Box::new(ScheduleBehavior::new(sched)))
    }

    #[test]
    fn always_on_pair_hears_beacons_inside_windows() {
        // beacons every 100 µs from 10 µs, windows [0, 50) of every 200 µs:
        // the first beacon lands in the first window, and every second
        // beacon after it (10, 210, …) does too
        let mut net = NetSimulator::new(base_cfg(10), Topology::full(2));
        net.add_node(on(adv(100, 10)));
        net.add_node(on(scan(50, 200)));
        let report = net.run();
        assert_eq!(report.discovery.one_way(1, 0), Some(Tick::from_micros(10)));
        assert_eq!(
            report.discovery.one_way(0, 1),
            None,
            "the scanner is silent"
        );
        assert_eq!(report.packets.sent, 100);
        assert_eq!(report.packets.received, 50);
    }

    #[test]
    fn late_joiner_hears_nothing_before_joining() {
        // scanner joins at 5 ms; the advertiser's beacons before that are
        // lost, and its schedule (window at local 0) starts at join
        let mut net = NetSimulator::new(base_cfg(10), Topology::full(2));
        net.add_node(on(adv(100, 10)));
        net.add_node(NodeSpec::windowed(
            Box::new(ScheduleBehavior::new(scan(50, 200))),
            Tick::from_millis(5),
            None,
        ));
        let report = net.run();
        let first = report.discovery.one_way(1, 0).unwrap();
        assert!(
            first >= Tick::from_millis(5),
            "heard before joining: {first:?}"
        );
        // beacons every 100 µs land in the first local window quickly
        assert!(first < Tick::from_millis(6));
    }

    #[test]
    fn leaver_hears_nothing_after_leaving() {
        // the scanner leaves at 2 ms, the advertiser only joins at 3 ms:
        // never co-present, so nothing may be discovered
        let mut net = NetSimulator::new(base_cfg(10), Topology::full(2));
        net.add_node(NodeSpec::windowed(
            Box::new(ScheduleBehavior::new(adv(100, 10))),
            Tick::from_millis(3),
            None,
        ));
        net.add_node(NodeSpec::windowed(
            Box::new(ScheduleBehavior::new(scan(200, 200))),
            Tick::ZERO,
            Some(Tick::from_millis(2)),
        ));
        let report = net.run();
        assert_eq!(report.discovery.one_way(1, 0), None);
        assert_eq!(report.copresence(0, 1), None);
        // and the scanner's listening accounting stops at departure
        assert!(report.stats[1].rx_time <= Tick::from_millis(2));
    }

    #[test]
    fn collisions_destroy_overlapping_beacons() {
        let mut net = NetSimulator::new(base_cfg(1), Topology::full(3));
        net.add_node(on(adv(100, 10)));
        net.add_node(on(adv(100, 10)));
        net.add_node(on(scan(100, 100)));
        let report = net.run();
        assert_eq!(report.discovery.one_way(2, 0), None);
        assert_eq!(report.discovery.one_way(2, 1), None);
        assert!(report.packets.lost_collision > 0);

        let mut cfg = base_cfg(1);
        cfg.collisions = false;
        let mut net = NetSimulator::new(cfg, Topology::full(3));
        net.add_node(on(adv(100, 10)));
        net.add_node(on(adv(100, 10)));
        net.add_node(on(scan(100, 100)));
        let report = net.run();
        assert!(report.discovery.one_way(2, 0).is_some());
        assert!(report.discovery.one_way(2, 1).is_some());
    }

    #[test]
    fn departed_node_no_longer_collides() {
        // two advertisers collide while both present; after node 1 leaves
        // at 0.5 ms, node 0's beacons get through
        let mut net = NetSimulator::new(base_cfg(2), Topology::full(3));
        net.add_node(on(adv(100, 10)));
        net.add_node(NodeSpec::windowed(
            Box::new(ScheduleBehavior::new(adv(100, 10))),
            Tick::ZERO,
            Some(Tick::from_micros(500)),
        ));
        net.add_node(on(scan(100, 100)));
        let report = net.run();
        let first = report.discovery.one_way(2, 0).unwrap();
        assert!(first >= Tick::from_micros(500), "{first:?}");
        assert_eq!(report.discovery.one_way(2, 1), None);
        assert!(report.packets.lost_collision > 0);
    }

    #[test]
    fn early_stop_on_cohort_completion() {
        let sched = |phase_us: u64| {
            Schedule::full(
                BeaconSeq::uniform(
                    1,
                    Tick::from_micros(300),
                    Tick::from_micros(4),
                    Tick::from_micros(phase_us),
                )
                .unwrap(),
                ReceptionWindows::single(
                    Tick::from_micros(50),
                    Tick::from_micros(200),
                    Tick::from_micros(300),
                )
                .unwrap(),
            )
        };
        let mut net = NetSimulator::new(base_cfg(1000), Topology::full(3));
        // beacon offsets inside everyone's [50, 250) µs window, spaced so
        // they neither collide nor hit the senders' own blanking
        for phase in [60u64, 120, 180] {
            net.add_node(on(sched(phase)));
        }
        net.stop_when_all_discovered(true);
        let report = net.run();
        assert!(report.discovery.complete());
        assert!(report.elapsed < Tick::from_millis(5), "stopped early");
    }

    #[test]
    fn runs_are_deterministic() {
        let build = || {
            let mut cfg = base_cfg(20);
            cfg.drop_probability = 0.3;
            cfg.seed = 99;
            let mut net = NetSimulator::new(cfg, Topology::full(5));
            for phase in [3u64, 31, 57, 83] {
                net.add_node(on(adv(97, phase)));
            }
            net.add_node(on(scan(53, 211)));
            net.run()
        };
        let a = build();
        let b = build();
        for s in 0..4 {
            assert_eq!(a.discovery.one_way(4, s), b.discovery.one_way(4, s));
        }
        assert_eq!(a.packets.received, b.packets.received);
        assert_eq!(a.packets.lost_fault, b.packets.lost_fault);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn stream_and_heap_engines_agree() {
        let run = |one_heap: bool| {
            let mut cfg = base_cfg(20);
            cfg.drop_probability = 0.2;
            cfg.seed = 7;
            let mut net = NetSimulator::new(cfg, Topology::full(4));
            if one_heap {
                // every event on the general heap: the reference order
                net.queue = EventQueue::new(0);
            }
            for phase in [3u64, 31, 57] {
                net.add_node(on(adv(97, phase)));
            }
            net.add_node(on(scan(53, 211)));
            net.run()
        };
        assert_reports_equal(&run(false), &run(true), "n=4");
    }

    fn assert_reports_equal(a: &CohortReport, b: &CohortReport, what: &str) {
        assert_eq!(a.elapsed, b.elapsed, "{what}: elapsed");
        assert_eq!(a.events, b.events, "{what}: events");
        assert_eq!(a.discovery, b.discovery, "{what}: discovery");
        assert_eq!(a.packets, b.packets, "{what}: packets");
        assert_eq!(a.stats, b.stats, "{what}: stats");
        assert_eq!(a.joins, b.joins, "{what}: joins");
        assert_eq!(a.leaves, b.leaves, "{what}: leaves");
        assert_eq!(a.cluster, b.cluster, "{what}: cluster");
    }

    /// One randomized symmetric cohort of the stream-vs-heap property: one
    /// beacon and one listening window per period, random phases,
    /// staggered churn, stop at completion.
    fn churn_cohort(
        topo: &Topology,
        seed: u64,
        period_us: u64,
        duty_pm: u64,
        plan: &ChurnPlan,
        one_heap: bool,
    ) -> CohortReport {
        let period = Tick::from_micros(period_us);
        let omega = Tick::from_micros(4);
        let window = Tick(
            (period.as_nanos() * duty_pm / 1000).clamp(omega.as_nanos() * 2, period.as_nanos() / 2),
        );
        let sched = Schedule::full(
            BeaconSeq::uniform(1, period, omega, Tick::ZERO).unwrap(),
            ReceptionWindows::single(Tick(period.as_nanos() / 2), window, period).unwrap(),
        );
        let mut cfg = base_cfg(30);
        cfg.seed = seed;
        let mut sim = NetSimulator::new(cfg, topo.clone());
        if one_heap {
            sim.queue = EventQueue::new(0);
        }
        sim.stop_when_all_discovered(true);
        for i in 0..topo.len() {
            let phase = Tick(((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)) % period.as_nanos());
            let behavior = ScheduleBehavior::with_phase(sched.clone(), phase);
            sim.add_node(NodeSpec::windowed(
                Box::new(behavior),
                plan.joins[i],
                plan.leaves[i],
            ));
        }
        sim.run()
    }

    /// `n` cases, or `PROPTEST_CASES` when it is set.
    fn cases(n: u32) -> ProptestConfig {
        ProptestConfig::with_cases(
            std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(n),
        )
    }

    proptest! {
        #![proptest_config(cases(12))]

        /// Cohorts at N ∈ {2, 8, 33} under randomized churn, as one full
        /// mesh and as up to four clusters (each completing on its own):
        /// the per-node streams and one binary heap must agree field for
        /// field — any divergence in event order (collision outcomes,
        /// half-duplex blanking, RNG draw order, early-stop instants)
        /// shows up in the report.
        #[test]
        fn stream_and_heap_reports_agree_under_churn(
            seed in 0u64..1_000_000,
            churn_seed in 0u64..1_000_000,
            fraction in 0.0f64..0.8,
            period_us in 300u64..3000,
            duty_pm in 100u64..600,
        ) {
            for n in [2, 8, 33] {
                let plan = ChurnPlan::staggered(
                    n, fraction, Tick::from_millis(30), &mut StdRng::seed_from_u64(churn_seed));
                let clusters = (n / 4).clamp(1, 4) as u32;
                for topo in [
                    Topology::full(n),
                    Topology::clusters((0..n as u32).map(|i| i % clusters).collect()),
                ] {
                    let run =
                        |one_heap| churn_cohort(&topo, seed, period_us, duty_pm, &plan, one_heap);
                    let (streams, heap) = (run(false), run(true));
                    assert_reports_equal(&streams, &heap, &format!("n={n} {topo:?}"));
                    prop_assert!(streams.events > 0, "n={n}: the run must do something");
                }
            }
        }
    }

    /// Forwards every call but [`Behavior::period`]: a cohort of these
    /// never jumps, so it is the reference a jumping run must match.
    struct Aperiodic(Box<dyn Behavior>);

    impl Behavior for Aperiodic {
        fn next_ops_into(&mut self, after: Tick, rng: &mut dyn rand::RngCore, out: &mut Vec<Op>) {
            self.0.next_ops_into(after, rng, out)
        }

        fn on_reception(
            &mut self,
            at: Tick,
            from: usize,
            payload: u64,
            rng: &mut dyn rand::RngCore,
        ) -> Vec<Op> {
            self.0.on_reception(at, from, payload, rng)
        }
    }

    /// Forwards every call and counts the ops emitted.
    struct Counted(ScheduleBehavior, std::rc::Rc<std::cell::Cell<usize>>);

    impl Behavior for Counted {
        fn next_ops_into(&mut self, after: Tick, rng: &mut dyn rand::RngCore, out: &mut Vec<Op>) {
            let before = out.len();
            self.0.next_ops_into(after, rng, out);
            self.1.set(self.1.get() + out.len() - before);
        }

        fn period(&self) -> Option<Tick> {
            self.0.period()
        }

        fn skip(&mut self, by: Tick) {
            self.0.skip(by)
        }
    }

    #[test]
    fn locked_pair_jumps_to_the_horizon() {
        // identical schedules at one phase: each node's beacon lands while
        // the other transmits too, so neither ever hears the other; T_B =
        // 200 µs and T_C = 300 µs make H = 600 µs, not max = 300 µs
        let sched = Schedule::full(
            BeaconSeq::uniform(1, Tick::from_micros(200), Tick::from_micros(4), Tick::ZERO)
                .unwrap(),
            ReceptionWindows::single(Tick::ZERO, Tick::from_micros(100), Tick::from_micros(300))
                .unwrap(),
        );
        let h = Tick::from_micros(600);
        let run = |wrap: &dyn Fn(ScheduleBehavior) -> Box<dyn Behavior>| {
            let mut cfg = base_cfg(0);
            cfg.t_end = h * 100;
            let mut net = NetSimulator::new(cfg, Topology::full(2));
            for _ in 0..2 {
                net.add_node(NodeSpec::always_on(wrap(ScheduleBehavior::new(
                    sched.clone(),
                ))));
            }
            net.run()
        };
        let emitted = std::rc::Rc::new(std::cell::Cell::new(0));
        let jumped = run(&|b| Box::new(Counted(b, emitted.clone())));
        let reference = run(&|b| Box::new(Aperiodic(Box::new(b))));
        assert_reports_equal(&jumped, &reference, "locked pair");
        assert!(!jumped.discovery.complete(), "the pair must stay locked");
        // per node and hyperperiod: 3 beacons and 2 windows
        let per_h = 2 * (3 + 2);
        assert!(
            emitted.get() <= 4 * per_h,
            "{} ops emitted, more than 4 hyperperiods' {}",
            emitted.get(),
            4 * per_h
        );
        assert!(reference.events > 90 * per_h as u64, "{}", reference.events);
    }

    /// One randomized periodic cohort of the jump property.
    #[derive(Clone, Debug)]
    struct Periodic {
        seed: u64,
        n: usize,
        clusters: bool,
        collisions: bool,
        half_duplex: bool,
        turnaround: bool,
        drop: bool,
        link_loss: bool,
        overlap: nd_core::coverage::OverlapModel,
        stop_early: bool,
        churn: bool,
        unit_us: u64,
        hyperperiods: u64,
    }

    /// Build and run `c`, every behaviour wrapped in [`Aperiodic`] when
    /// `reference` is set. Nodes draw one of two schedules whose periods
    /// are small multiples of one unit (so `T_B ≠ T_C` is common).
    fn periodic_cohort(c: &Periodic, reference: bool) -> CohortReport {
        let mut rng = StdRng::seed_from_u64(c.seed);
        let unit = Tick::from_micros(c.unit_us);
        let omega = Tick::from_micros(4);
        let kinds: Vec<Schedule> = (0..2)
            .map(|_| {
                let tb = unit * rng.gen_range(1u64..=4);
                let tc = unit * rng.gen_range(1u64..=4);
                let window = Tick(rng.gen_range(omega.0 * 2..=tc.0 * 9 / 10));
                let start = Tick(rng.gen_range(0..=(tc - window).0));
                Schedule::full(
                    BeaconSeq::uniform(1, tb, omega, Tick::ZERO).unwrap(),
                    ReceptionWindows::single(start, window, tc).unwrap(),
                )
            })
            .collect();
        let h = kinds.iter().fold(Tick(1), |h, k| {
            Tick(nd_core::schedule::checked_lcm(h.0, k.hyperperiod().unwrap().0).unwrap())
        });
        // a part hyperperiod past the last whole one is simulated after
        // the jump, on the shifted state
        let t_end = h * c.hyperperiods + Tick(rng.gen_range(0..h.0));
        let mut cfg = SimConfig::paper_baseline(t_end, c.seed).with_radio(radio(4));
        cfg.collisions = c.collisions;
        cfg.half_duplex = c.half_duplex;
        if c.turnaround {
            cfg.radio.do_rx_tx = Tick::from_micros(10);
            cfg.radio.do_tx_rx = Tick::from_micros(10);
        }
        cfg.drop_probability = if c.drop { 0.3 } else { 0.0 };
        cfg.overlap = c.overlap;
        let n = c.n;
        let mut topo = if c.clusters {
            let k = (n as u32 / 4).clamp(2, 4);
            Topology::clusters((0..n as u32).map(|i| i % k).collect())
        } else {
            Topology::full(n)
        };
        if c.link_loss {
            for _ in 0..n {
                let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
                topo.set_link_loss(a, b, 0.25);
            }
        }
        // churn, when on, is over by half the horizon: half the nodes
        // join late, and half of those leave again
        let mut plan = ChurnPlan::stable(n);
        if c.churn {
            for i in 0..n {
                if rng.gen_bool(0.5) {
                    let join = Tick(rng.gen_range(0..t_end.0 / 4));
                    plan.joins[i] = join;
                    plan.leaves[i] = rng
                        .gen_bool(0.5)
                        .then(|| Tick(rng.gen_range(join.0 + 1..t_end.0 / 2)));
                }
            }
        }
        let mut sim = NetSimulator::new(cfg, topo);
        sim.stop_when_all_discovered(c.stop_early);
        // a coarse grid makes beacons meet, the µs offsets put packets in
        // flight across hyperperiod boundaries
        let grid = unit / 4;
        for i in 0..n {
            let kind = kinds[rng.gen_range(0..2usize)].clone();
            let phase =
                grid * rng.gen_range(0..(h / grid)) + Tick::from_micros(rng.gen_range(0..4));
            let mut behavior: Box<dyn Behavior> =
                Box::new(ScheduleBehavior::with_phase(kind, phase));
            if reference {
                behavior = Box::new(Aperiodic(behavior));
            }
            sim.add_node(NodeSpec::windowed(behavior, plan.joins[i], plan.leaves[i]));
        }
        sim.run()
    }

    impl Periodic {
        /// Every knob drawn from `seed`.
        fn draw(seed: u64) -> Self {
            use nd_core::coverage::OverlapModel;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut flag = || rng.gen_bool(0.5);
            let flags = [(); 8].map(|_| flag());
            let [clusters, collisions, half_duplex, turnaround, drop, link_loss, stop_early, churn] =
                flags;
            Periodic {
                seed,
                n: [2, 8, 33][rng.gen_range(0..3usize)],
                clusters,
                collisions,
                half_duplex,
                turnaround,
                drop,
                link_loss,
                overlap: [
                    OverlapModel::Start,
                    OverlapModel::AnyOverlap,
                    OverlapModel::FullPacket,
                ][rng.gen_range(0..3usize)],
                stop_early,
                churn,
                unit_us: rng.gen_range(100..400),
                hyperperiods: rng.gen_range(3..=60),
            }
        }
    }

    proptest! {
        #![proptest_config(cases(24))]

        /// Random periodic cohorts — N ∈ {2, 8, 33}, one cluster or
        /// several, collisions, half-duplex and turnarounds each on or
        /// off, drops 0 or 0.3 plus link loss, every overlap model,
        /// early stop on or off, churn that ends mid-run, horizons of
        /// 3–60 hyperperiods — report field for field what the same
        /// cohort reports with every behaviour hiding its period, so
        /// never jumping.
        #[test]
        fn hyperperiod_jump_matches_reference(seed in 0u64..u64::MAX) {
            let c = Periodic::draw(seed);
            let (jumped, reference) = (periodic_cohort(&c, false), periodic_cohort(&c, true));
            assert_reports_equal(&jumped, &reference, &format!("{c:?}"));
        }
    }

    #[test]
    fn clustered_topology_isolates_neighborhoods() {
        // nodes {0, 2} on channel 0, {1, 3} on channel 1: discovery never
        // crosses the cluster boundary, and each cluster completes on its
        // own under stop_when_all_discovered
        let sched = |phase_us: u64| {
            Schedule::full(
                BeaconSeq::uniform(
                    1,
                    Tick::from_micros(300),
                    Tick::from_micros(4),
                    Tick::from_micros(phase_us),
                )
                .unwrap(),
                ReceptionWindows::single(
                    Tick::from_micros(50),
                    Tick::from_micros(200),
                    Tick::from_micros(300),
                )
                .unwrap(),
            )
        };
        let topo = Topology::clusters(vec![0, 1, 0, 1]);
        let mut net = NetSimulator::new(base_cfg(1000), topo);
        for phase in [60u64, 120, 130, 190] {
            net.add_node(on(sched(phase)));
        }
        net.stop_when_all_discovered(true);
        let report = net.run();
        assert!(report.elapsed < Tick::from_millis(5), "stopped early");
        assert_eq!(report.cluster, vec![0, 1, 0, 1]);
        for (rx, tx) in [(0, 2), (2, 0), (1, 3), (3, 1)] {
            assert!(report.discovery.one_way(rx, tx).is_some(), "{rx} ← {tx}");
        }
        for (rx, tx) in [(0, 1), (1, 0), (2, 3), (3, 2)] {
            assert_eq!(report.discovery.one_way(rx, tx), None, "{rx} ← {tx}");
        }
    }

    #[test]
    #[should_panic(expected = "node count must match topology")]
    fn topology_size_is_enforced() {
        let net = NetSimulator::new(base_cfg(1), Topology::full(2));
        let _ = net.run();
    }
}
