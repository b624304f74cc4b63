//! Simulation configuration: radio model, channel model, fault injection.

use nd_core::coverage::OverlapModel;
use nd_core::params::RadioParams;
use nd_core::stable::StableEncode;
use nd_core::time::Tick;

/// Global simulation parameters.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Radio parameters shared by all devices (airtime, power ratio,
    /// switching overheads).
    pub radio: RadioParams,
    /// When does a beacon/window overlap count as a reception
    /// (paper §3.2 default: the beacon's start instant must fall inside the
    /// window).
    pub overlap: OverlapModel,
    /// Hard stop time.
    pub t_end: Tick,
    /// RNG seed (the simulator is fully deterministic given the seed).
    pub seed: u64,
    /// Half-duplex radios: a device's own transmission (expanded by the
    /// radio's turnaround times) blanks its reception windows
    /// (Appendix A.5). Disable to model the hypothetical full-duplex radio
    /// of Section 6.1.1.
    pub half_duplex: bool,
    /// ALOHA collisions: two in-range transmissions overlapping in time
    /// destroy each other at every receiver (Eq. 12). Disable for
    /// pair-analysis experiments that assume a collision-free channel.
    pub collisions: bool,
    /// Fault injection: i.i.d. probability that an otherwise successful
    /// reception is dropped (smoltcp-style `--drop-chance`), rolled on the
    /// receiver's private random stream.
    pub drop_probability: f64,
}

impl SimConfig {
    /// The paper's baseline model: ideal radio, `Start` overlap semantics,
    /// half-duplex, collisions on, no random faults.
    pub fn paper_baseline(t_end: Tick, seed: u64) -> Self {
        SimConfig {
            radio: RadioParams::paper_default(),
            overlap: OverlapModel::Start,
            t_end,
            seed,
            half_duplex: true,
            collisions: true,
            drop_probability: 0.0,
        }
    }

    /// Builder-style radio override.
    pub fn with_radio(mut self, radio: RadioParams) -> Self {
        self.radio = radio;
        self
    }

    /// Builder-style overlap-model override.
    pub fn with_overlap(mut self, overlap: OverlapModel) -> Self {
        self.overlap = overlap;
        self
    }

    /// Builder-style fault injection.
    pub fn with_drop_probability(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p));
        self.drop_probability = p;
        self
    }
}

impl StableEncode for SimConfig {
    /// Encode every field, so content-addressed caches (nd-sweep) can key
    /// on a `SimConfig`.
    fn encode(&self, out: &mut Vec<u8>) {
        self.radio.encode(out);
        self.overlap.encode(out);
        self.t_end.encode(out);
        self.seed.encode(out);
        self.half_duplex.encode(out);
        self.collisions.encode(out);
        self.drop_probability.encode(out);
    }
}

/// Directed connectivity and per-link loss between devices.
///
/// `in_range(tx, rx)` answers whether a transmission by `tx` is audible at
/// `rx` at all; `link_loss(tx, rx)` is an extra per-link drop probability
/// (fault injection for asymmetric/marginal links).
///
/// Three representations share this interface. [`Topology::full`] is
/// symbolic — O(1) memory at any `n`, which is what makes million-node
/// cohorts constructible at all. [`Topology::clusters`] partitions the
/// cohort into channel neighborhoods (audible iff same cluster), also
/// without a matrix. Editing an individual link ([`Topology::set_link`],
/// [`Topology::set_link_loss`]) promotes to the dense per-pair matrices,
/// exactly as before.
#[derive(Clone, Debug, PartialEq)]
pub struct Topology {
    n: usize,
    repr: TopologyRepr,
}

#[derive(Clone, Debug, PartialEq)]
enum TopologyRepr {
    /// Every ordered pair audible, loss-free.
    Full,
    /// Audible iff the two devices share a cluster id; loss-free.
    Clusters(Vec<u32>),
    /// Explicit per-pair matrices (row-major `tx * n + rx`).
    Dense { audible: Vec<bool>, loss: Vec<f64> },
}

impl Topology {
    /// A fully connected, loss-free topology of `n` devices (O(1) memory).
    pub fn full(n: usize) -> Self {
        Topology {
            n,
            repr: TopologyRepr::Full,
        }
    }

    /// A clustered topology: device `i` sits in cluster `assignment[i]`,
    /// and a transmission is audible exactly when sender and receiver
    /// share a cluster. Cluster ids are arbitrary labels; only equality
    /// matters. This is the netsim channel-neighborhood model: each
    /// cluster is an independent collision domain.
    pub fn clusters(assignment: Vec<u32>) -> Self {
        Topology {
            n: assignment.len(),
            repr: TopologyRepr::Clusters(assignment),
        }
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` if the topology is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    fn idx(&self, tx: usize, rx: usize) -> usize {
        assert!(tx < self.n && rx < self.n, "device index out of range");
        tx * self.n + rx
    }

    /// Materialize the dense matrices (link editing needs per-pair state).
    fn make_dense(&mut self) -> (&mut Vec<bool>, &mut Vec<f64>) {
        if !matches!(self.repr, TopologyRepr::Dense { .. }) {
            let n = self.n;
            let mut audible = vec![false; n * n];
            for tx in 0..n {
                for rx in 0..n {
                    audible[tx * n + rx] = match &self.repr {
                        TopologyRepr::Full => true,
                        TopologyRepr::Clusters(c) => c[tx] == c[rx],
                        TopologyRepr::Dense { .. } => unreachable!(),
                    };
                }
            }
            self.repr = TopologyRepr::Dense {
                audible,
                loss: vec![0.0; n * n],
            };
        }
        match &mut self.repr {
            TopologyRepr::Dense { audible, loss } => (audible, loss),
            _ => unreachable!(),
        }
    }

    /// Set whether `rx` can hear `tx` (directed). Promotes a symbolic
    /// topology to the dense representation.
    pub fn set_link(&mut self, tx: usize, rx: usize, connected: bool) {
        let i = self.idx(tx, rx);
        self.make_dense().0[i] = connected;
    }

    /// Set both directions of a link.
    pub fn set_bidi(&mut self, a: usize, b: usize, connected: bool) {
        self.set_link(a, b, connected);
        self.set_link(b, a, connected);
    }

    /// Whether a transmission by `tx` is audible at `rx`.
    pub fn in_range(&self, tx: usize, rx: usize) -> bool {
        let i = self.idx(tx, rx);
        tx != rx
            && match &self.repr {
                TopologyRepr::Full => true,
                TopologyRepr::Clusters(c) => c[tx] == c[rx],
                TopologyRepr::Dense { audible, .. } => audible[i],
            }
    }

    /// Set the per-link loss probability for packets `tx → rx`. Promotes
    /// a symbolic topology to the dense representation.
    pub fn set_link_loss(&mut self, tx: usize, rx: usize, p: f64) {
        assert!((0.0..=1.0).contains(&p));
        let i = self.idx(tx, rx);
        self.make_dense().1[i] = p;
    }

    /// The per-link loss probability for packets `tx → rx`.
    pub fn link_loss(&self, tx: usize, rx: usize) -> f64 {
        let i = self.idx(tx, rx);
        match &self.repr {
            TopologyRepr::Dense { loss, .. } => loss[i],
            _ => 0.0,
        }
    }

    /// Connected-component label per device: devices that can influence
    /// each other (in either direction, transitively) share a label;
    /// labels are the smallest member id of the component. A full
    /// topology is one component; a clustered one has one per cluster;
    /// dense topologies are scanned (weakly connected components over
    /// the audible matrix).
    pub fn cluster_assignments(&self) -> Vec<u32> {
        match &self.repr {
            TopologyRepr::Full => vec![0; self.n],
            TopologyRepr::Clusters(c) => {
                // normalize labels to the smallest member id per cluster
                let mut first: std::collections::HashMap<u32, u32> =
                    std::collections::HashMap::new();
                let mut out = Vec::with_capacity(self.n);
                for (i, &c_i) in c.iter().enumerate() {
                    let label = *first.entry(c_i).or_insert(i as u32);
                    out.push(label);
                }
                out
            }
            TopologyRepr::Dense { audible, .. } => {
                // union-find over the (undirected closure of the) matrix
                let n = self.n;
                let mut parent: Vec<u32> = (0..n as u32).collect();
                fn find(parent: &mut [u32], mut x: u32) -> u32 {
                    while parent[x as usize] != x {
                        parent[x as usize] = parent[parent[x as usize] as usize];
                        x = parent[x as usize];
                    }
                    x
                }
                for tx in 0..n {
                    for rx in 0..n {
                        if tx != rx && audible[tx * n + rx] {
                            let (a, b) =
                                (find(&mut parent, tx as u32), find(&mut parent, rx as u32));
                            if a != b {
                                let (lo, hi) = (a.min(b), a.max(b));
                                parent[hi as usize] = lo;
                            }
                        }
                    }
                }
                (0..n as u32).map(|i| find(&mut parent, i)).collect()
            }
        }
    }

    /// The device ids of each connected component, grouped in order of
    /// each component's smallest member id (so shard 0 always contains
    /// device 0). These are the independently-simulable shards: no event
    /// in one component can ever influence another.
    pub fn shards(&self) -> Vec<Vec<usize>> {
        if let TopologyRepr::Full = self.repr {
            return if self.n == 0 {
                Vec::new()
            } else {
                vec![(0..self.n).collect()]
            };
        }
        let labels = self.cluster_assignments();
        let mut order: Vec<u32> = Vec::new();
        let mut groups: std::collections::HashMap<u32, Vec<usize>> =
            std::collections::HashMap::new();
        for (i, &l) in labels.iter().enumerate() {
            let g = groups.entry(l).or_default();
            if g.is_empty() {
                order.push(l);
            }
            g.push(i);
        }
        // labels are smallest-member ids and nodes are scanned in id
        // order, so first-appearance order == ascending smallest member
        order
            .into_iter()
            .map(|l| groups.remove(&l).expect("grouped above"))
            .collect()
    }

    /// The induced sub-topology over `members` (ids in member order).
    /// Members of one cluster/component induce a full sub-topology in the
    /// symbolic representations; dense matrices are sliced.
    pub fn subtopology(&self, members: &[usize]) -> Topology {
        let k = members.len();
        match &self.repr {
            TopologyRepr::Full => Topology::full(k),
            TopologyRepr::Clusters(c) => {
                Topology::clusters(members.iter().map(|&i| c[i]).collect())
            }
            TopologyRepr::Dense { audible, loss } => {
                let mut sub_audible = vec![false; k * k];
                let mut sub_loss = vec![0.0; k * k];
                for (a, &i) in members.iter().enumerate() {
                    for (b, &j) in members.iter().enumerate() {
                        sub_audible[a * k + b] = audible[self.idx(i, j)];
                        sub_loss[a * k + b] = loss[self.idx(i, j)];
                    }
                }
                Topology {
                    n: k,
                    repr: TopologyRepr::Dense {
                        audible: sub_audible,
                        loss: sub_loss,
                    },
                }
            }
        }
    }

    /// Number of ordered pairs `(tx, rx)` with `in_range(tx, rx)` — the
    /// denominator of cohort completion. O(1) for full, O(n) for
    /// clustered, O(n²) for dense topologies.
    pub fn ordered_in_range_pairs(&self) -> u64 {
        match &self.repr {
            TopologyRepr::Full => {
                let n = self.n as u64;
                n.saturating_mul(n.saturating_sub(1))
            }
            TopologyRepr::Clusters(c) => {
                let mut sizes: std::collections::HashMap<u32, u64> =
                    std::collections::HashMap::new();
                for &ci in c {
                    *sizes.entry(ci).or_insert(0) += 1;
                }
                sizes.values().map(|&k| k * (k - 1)).sum()
            }
            TopologyRepr::Dense { audible, .. } => {
                let n = self.n;
                let mut count = 0u64;
                for tx in 0..n {
                    for rx in 0..n {
                        if tx != rx && audible[tx * n + rx] {
                            count += 1;
                        }
                    }
                }
                count
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_defaults() {
        let cfg = SimConfig::paper_baseline(Tick::from_secs(1), 42);
        assert!(cfg.half_duplex && cfg.collisions);
        assert_eq!(cfg.drop_probability, 0.0);
        assert_eq!(cfg.overlap, OverlapModel::Start);
        assert!(cfg.radio.is_ideal());
    }

    #[test]
    fn builders() {
        let cfg = SimConfig::paper_baseline(Tick::from_secs(1), 1)
            .with_drop_probability(0.15)
            .with_overlap(OverlapModel::FullPacket)
            .with_radio(RadioParams::ble_like());
        assert_eq!(cfg.drop_probability, 0.15);
        assert_eq!(cfg.overlap, OverlapModel::FullPacket);
        assert!(!cfg.radio.is_ideal());
    }

    #[test]
    fn topology_links() {
        let mut t = Topology::full(3);
        assert!(t.in_range(0, 1));
        assert!(!t.in_range(1, 1), "never in range of self");
        t.set_link(0, 1, false);
        assert!(!t.in_range(0, 1));
        assert!(t.in_range(1, 0), "directed");
        t.set_bidi(1, 2, false);
        assert!(!t.in_range(1, 2) && !t.in_range(2, 1));
        t.set_link_loss(2, 0, 0.5);
        assert_eq!(t.link_loss(2, 0), 0.5);
        assert_eq!(t.link_loss(0, 2), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn topology_bounds_checked() {
        let t = Topology::full(2);
        let _ = t.in_range(0, 5);
    }

    #[test]
    fn clustered_topology_partitions_audibility() {
        let t = Topology::clusters(vec![0, 1, 0, 1]);
        assert!(t.in_range(0, 2) && t.in_range(1, 3));
        assert!(!t.in_range(0, 1) && !t.in_range(2, 3));
        assert!(!t.in_range(1, 1), "never in range of self");
        assert_eq!(t.link_loss(0, 2), 0.0);
        assert_eq!(t.ordered_in_range_pairs(), 4);
    }

    #[test]
    fn shards_group_components_by_smallest_member() {
        let t = Topology::clusters(vec![7, 3, 7, 3, 9]);
        assert_eq!(t.shards(), vec![vec![0, 2], vec![1, 3], vec![4]]);
        assert_eq!(t.cluster_assignments(), vec![0, 1, 0, 1, 4]);

        let full = Topology::full(3);
        assert_eq!(full.shards(), vec![vec![0, 1, 2]]);
        assert_eq!(full.cluster_assignments(), vec![0, 0, 0]);
        assert_eq!(full.ordered_in_range_pairs(), 6);
        assert!(Topology::full(0).shards().is_empty());
    }

    #[test]
    fn subtopology_inherits_links() {
        let t = Topology::clusters(vec![0, 1, 0]);
        let sub = t.subtopology(&[0, 2]);
        assert_eq!(sub.len(), 2);
        assert!(sub.in_range(0, 1) && sub.in_range(1, 0));

        let mut dense = Topology::full(3);
        dense.set_link(0, 2, false);
        dense.set_link_loss(2, 0, 0.25);
        let sub = dense.subtopology(&[0, 2]);
        assert!(!sub.in_range(0, 1), "0→2 cut survives the slice");
        assert_eq!(sub.link_loss(1, 0), 0.25);
    }

    #[test]
    fn dense_promotion_preserves_symbolic_links() {
        // editing one link of a clustered topology must keep the rest
        let mut t = Topology::clusters(vec![0, 0, 1]);
        t.set_link(0, 2, true);
        assert!(t.in_range(0, 1), "intra-cluster link survives promotion");
        assert!(t.in_range(0, 2), "edited link applies");
        assert!(!t.in_range(2, 0), "directed edit");
        // components now merge across the bridge
        assert_eq!(t.cluster_assignments(), vec![0, 0, 0]);
        assert_eq!(t.shards().len(), 1);
        assert_eq!(t.ordered_in_range_pairs(), 3);
    }
}
