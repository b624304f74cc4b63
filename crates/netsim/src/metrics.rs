//! Cohort discovery metrics.
//!
//! Pairwise analysis reports one latency; an N-node cohort has a whole
//! distribution. The conventions here:
//!
//! * a **pair is eligible** if the two nodes' presence windows overlap
//!   *and* they share a channel neighborhood (topology cluster) — only
//!   eligible pairs can possibly discover each other;
//! * a pair's **latency is measured from co-presence start**
//!   (`max(join_a, join_b)`), so a node that churns in late is not charged
//!   for time it was absent;
//! * **first contact** of a node is the time from its own join until it
//!   first receives a beacon from *any* neighbor;
//! * the **cohort is complete** when every eligible pair has discovered
//!   (under the chosen direction metric), and the cohort latency is the
//!   worst eligible pair's latency.

use nd_core::interval::Interval;
use nd_core::metric::Metric;
use nd_core::params::RadioParams;
use nd_core::time::Tick;
use nd_sim::{DeviceStats, DiscoveryMatrix, PacketCounters};

/// The full result of one cohort run.
#[derive(Clone, Debug)]
pub struct CohortReport {
    /// Instant the run stopped (≤ the configured horizon).
    pub elapsed: Tick,
    /// Handled events (join/leave/wake/tx-end), for throughput gauges.
    pub events: u64,
    /// First-reception instants for every ordered pair.
    pub discovery: DiscoveryMatrix,
    /// Channel-level packet counters.
    pub packets: PacketCounters,
    /// Per-node radio accounting.
    pub stats: Vec<DeviceStats>,
    /// Join instant per node.
    pub joins: Vec<Tick>,
    /// Leave instant per node (`None` = stayed to the end).
    pub leaves: Vec<Option<Tick>>,
    /// Channel-neighborhood label per node (`Topology::cluster_assignments`
    /// normal form: the smallest member id). Nodes in different clusters
    /// are never audible to each other, so their pairs are ineligible.
    pub cluster: Vec<u32>,
}

impl CohortReport {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.joins.len()
    }

    /// `true` for a nodeless run.
    pub fn is_empty(&self) -> bool {
        self.joins.is_empty()
    }

    /// The co-presence window of nodes `a` and `b` (clipped to the run),
    /// or `None` if they were never in the network together.
    pub fn copresence(&self, a: usize, b: usize) -> Option<Interval> {
        let start = self.joins[a].max(self.joins[b]);
        let end = [self.leaves[a], self.leaves[b]]
            .into_iter()
            .flatten()
            .min()
            .unwrap_or(self.elapsed)
            .min(self.elapsed);
        (start < end).then(|| Interval::new(start, end))
    }

    fn ordered_latency(&self, receiver: usize, sender: usize, start: Tick) -> Option<Tick> {
        self.discovery
            .one_way(receiver, sender)
            .map(|t| t.saturating_sub(start))
    }

    /// Latency per eligible pair under `metric`, measured from each pair's
    /// co-presence start; `None` for eligible pairs that never completed.
    /// `OneWay` yields up to `n·(n−1)` entries (ordered), the others up to
    /// `n·(n−1)/2` (unordered).
    pub fn pair_latencies(&self, metric: Metric) -> Vec<Option<Tick>> {
        self.pair_latency_entries(metric)
            .into_iter()
            .map(|(_, _, lat)| lat)
            .collect()
    }

    /// [`CohortReport::pair_latencies`] with the pair identity attached:
    /// `(a, b, latency)` per eligible pair. Mixed-role cohorts use this
    /// to split the distribution by pair class (cross-role vs.
    /// same-role).
    pub fn pair_latency_entries(&self, metric: Metric) -> Vec<(usize, usize, Option<Tick>)> {
        let n = self.len();
        let mut out = Vec::new();
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                if metric != Metric::OneWay && a > b {
                    continue; // unordered metrics visit each pair once
                }
                if self.cluster[a] != self.cluster[b] {
                    continue; // different channels: never audible
                }
                let Some(window) = self.copresence(a, b) else {
                    continue;
                };
                let lat = match metric {
                    Metric::OneWay => self.ordered_latency(a, b, window.start),
                    Metric::TwoWay => {
                        match (
                            self.ordered_latency(a, b, window.start),
                            self.ordered_latency(b, a, window.start),
                        ) {
                            (Some(x), Some(y)) => Some(x.max(y)),
                            _ => None,
                        }
                    }
                    Metric::EitherWay => {
                        match (
                            self.ordered_latency(a, b, window.start),
                            self.ordered_latency(b, a, window.start),
                        ) {
                            (Some(x), Some(y)) => Some(x.min(y)),
                            (Some(x), None) | (None, Some(x)) => Some(x),
                            (None, None) => None,
                        }
                    }
                };
                out.push((a, b, lat));
            }
        }
        out
    }

    /// Per node: the time from its join until it first received a beacon
    /// from any neighbor. Entries are `None` for nodes that never heard
    /// anyone; nodes with no eligible neighbor at all are skipped.
    pub fn first_contacts(&self) -> Vec<Option<Tick>> {
        let n = self.len();
        let mut out = Vec::new();
        for r in 0..n {
            let mut any_neighbor = false;
            let mut best: Option<Tick> = None;
            for s in 0..n {
                if r == s || self.cluster[r] != self.cluster[s] || self.copresence(r, s).is_none() {
                    continue;
                }
                any_neighbor = true;
                if let Some(t) = self.discovery.one_way(r, s) {
                    let lat = t.saturating_sub(self.joins[r]);
                    best = Some(best.map_or(lat, |b| b.min(lat)));
                }
            }
            if any_neighbor {
                out.push(best);
            }
        }
        out
    }

    /// Sum of per-node measured duty cycles (each node over its own
    /// presence duration). Sharded runs add the shard sums in shard order
    /// and divide once by the cohort size, which reproduces
    /// [`CohortReport::mean_eta`] of the whole-cohort run bit for bit.
    pub fn eta_sum(&self, radio: &RadioParams) -> f64 {
        let mut acc = 0.0;
        for (i, stats) in self.stats.iter().enumerate() {
            let until = self.leaves[i].unwrap_or(self.elapsed).min(self.elapsed);
            let active = until.saturating_sub(self.joins[i]).max(Tick(1));
            acc += stats.eta_with_overheads(active, radio);
        }
        acc
    }

    /// Mean measured duty cycle over all nodes, each over its own presence
    /// duration (a churner is not charged for time outside the network).
    pub fn mean_eta(&self, radio: &RadioParams) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.eta_sum(radio) / self.stats.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built 3-node report: node 2 churns in at 100 and out at 900;
    /// run elapsed 1000.
    fn report() -> CohortReport {
        let mut discovery = DiscoveryMatrix::new(3);
        // pair (0,1): both directions, at 50 and 200
        discovery.record(0, 1, Tick(50));
        discovery.record(1, 0, Tick(200));
        // pair (0,2): only 2 hears 0, at 300
        discovery.record(2, 0, Tick(300));
        // pair (1,2): nothing
        CohortReport {
            elapsed: Tick(1000),
            events: 0,
            discovery,
            packets: PacketCounters::default(),
            stats: vec![DeviceStats::default(); 3],
            joins: vec![Tick::ZERO, Tick::ZERO, Tick(100)],
            leaves: vec![None, None, Some(Tick(900))],
            cluster: vec![0; 3],
        }
    }

    #[test]
    fn copresence_clips_to_windows_and_run() {
        let r = report();
        assert_eq!(r.copresence(0, 1), Some(Interval::new(Tick(0), Tick(1000))));
        assert_eq!(
            r.copresence(0, 2),
            Some(Interval::new(Tick(100), Tick(900)))
        );
        assert_eq!(r.copresence(2, 1), r.copresence(1, 2), "symmetric");
    }

    #[test]
    fn never_copresent_pair_is_ineligible() {
        let mut r = report();
        r.joins[2] = Tick(1500); // joins after the run ended
        r.leaves[2] = None;
        assert_eq!(r.copresence(0, 2), None);
        // only the ordered pairs among {0, 1} remain
        assert_eq!(r.pair_latencies(Metric::OneWay).len(), 2);
    }

    #[test]
    fn one_way_latencies_are_relative_to_copresence() {
        let r = report();
        let lats = r.pair_latencies(Metric::OneWay);
        // ordered eligible pairs: (0,1) (0,2) (1,0) (1,2) (2,0) (2,1)
        assert_eq!(lats.len(), 6);
        assert!(lats.contains(&Some(Tick(50)))); // 0 heard 1 at 50
        assert!(lats.contains(&Some(Tick(200)))); // 2 heard 0 at 300, copresent from 100
        assert_eq!(lats.iter().filter(|l| l.is_none()).count(), 3);
    }

    #[test]
    fn two_way_and_either_way() {
        let r = report();
        let two = r.pair_latencies(Metric::TwoWay);
        assert_eq!(two.len(), 3);
        assert!(two.contains(&Some(Tick(200)))); // pair {0,1}: max(50, 200)
        assert_eq!(two.iter().filter(|l| l.is_none()).count(), 2);
        let either = r.pair_latencies(Metric::EitherWay);
        assert!(either.contains(&Some(Tick(50)))); // pair {0,1}: min
        assert!(either.contains(&Some(Tick(200)))); // pair {0,2}: 300 − 100
        assert_eq!(either.iter().filter(|l| l.is_none()).count(), 1);
    }

    #[test]
    fn first_contacts_from_own_join() {
        let r = report();
        let firsts = r.first_contacts();
        // node 0 heard 1 at 50; node 1 heard 0 at 200; node 2: 300 − join 100
        assert_eq!(
            firsts,
            vec![Some(Tick(50)), Some(Tick(200)), Some(Tick(200))]
        );
        // a node that never hears anyone reports None
        let mut deaf = r.clone();
        deaf.discovery = DiscoveryMatrix::new(3);
        deaf.discovery.record(0, 1, Tick(50));
        assert_eq!(deaf.first_contacts()[1], None);
    }

    #[test]
    fn pair_entries_carry_identities() {
        let r = report();
        let entries = r.pair_latency_entries(Metric::TwoWay);
        assert_eq!(entries.len(), 3);
        assert!(entries.contains(&(0, 1, Some(Tick(200)))));
        // latencies-only view is the same data
        assert_eq!(
            entries.iter().map(|&(_, _, l)| l).collect::<Vec<_>>(),
            r.pair_latencies(Metric::TwoWay)
        );
    }
}
