//! Simulation statistics: per-device energy accounting, the discovery
//! matrix, and packet-loss counters.

use nd_core::params::RadioParams;
use nd_core::time::Tick;

/// Energy/airtime accounting for one device.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DeviceStats {
    /// Protocol label (from the behaviour).
    pub label: String,
    /// Total transmission airtime.
    pub tx_time: Tick,
    /// Total scheduled listening time.
    pub rx_time: Tick,
    /// Number of beacons sent.
    pub n_tx: u64,
    /// Number of reception windows opened.
    pub n_rx_windows: u64,
    /// Number of beacons successfully received.
    pub n_received: u64,
}

impl DeviceStats {
    /// Measured transmission duty cycle β over `elapsed` (ideal radio).
    pub fn beta(&self, elapsed: Tick) -> f64 {
        self.tx_time.as_nanos() as f64 / elapsed.as_nanos() as f64
    }

    /// Measured reception duty cycle γ over `elapsed` (ideal radio).
    pub fn gamma(&self, elapsed: Tick) -> f64 {
        self.rx_time.as_nanos() as f64 / elapsed.as_nanos() as f64
    }

    /// Measured total duty cycle η = γ + α·β (ideal radio).
    pub fn eta(&self, elapsed: Tick, alpha: f64) -> f64 {
        self.gamma(elapsed) + alpha * self.beta(elapsed)
    }

    /// Measured total duty cycle including the radio's switching overheads
    /// (Appendix A.2: each beacon costs an extra `d_oTx` of active time,
    /// each window an extra `d_oRx`).
    pub fn eta_with_overheads(&self, elapsed: Tick, radio: &RadioParams) -> f64 {
        let tx = self.tx_time + radio.do_tx * self.n_tx;
        let rx = self.rx_time + radio.do_rx * self.n_rx_windows;
        (rx.as_nanos() as f64 + radio.alpha * tx.as_nanos() as f64) / elapsed.as_nanos() as f64
    }

    /// Energy consumed in joules, given the radio's reception power draw
    /// `prx_watts` (transmission draws `α·P_rx` per Definition 3.5;
    /// switching overheads are charged at reception power, matching the
    /// Appendix A.2 "effective additional active time" convention).
    pub fn energy_joules(&self, radio: &RadioParams, prx_watts: f64) -> f64 {
        assert!(prx_watts >= 0.0);
        let tx = (self.tx_time + radio.do_tx * self.n_tx).as_secs_f64();
        let rx = (self.rx_time + radio.do_rx * self.n_rx_windows).as_secs_f64();
        prx_watts * (radio.alpha * tx + rx)
    }
}

/// First-discovery instants for every ordered pair: entry `(receiver,
/// sender)` is the start instant of the first beacon from `sender` that
/// `receiver` successfully received (the paper's Definition 3.4 latency,
/// neglecting the final packet's airtime per §3.2/A.4).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiscoveryMatrix {
    n: usize,
    first: Vec<Option<Tick>>,
}

impl DiscoveryMatrix {
    /// An empty matrix for `n` devices.
    pub fn new(n: usize) -> Self {
        DiscoveryMatrix {
            n,
            first: vec![None; n * n],
        }
    }

    fn idx(&self, receiver: usize, sender: usize) -> usize {
        assert!(receiver < self.n && sender < self.n);
        receiver * self.n + sender
    }

    /// Record a reception (keeps the earliest).
    pub fn record(&mut self, receiver: usize, sender: usize, at: Tick) {
        let i = self.idx(receiver, sender);
        match self.first[i] {
            Some(prev) if prev <= at => {}
            _ => self.first[i] = Some(at),
        }
    }

    /// When `receiver` first discovered `sender`.
    pub fn one_way(&self, receiver: usize, sender: usize) -> Option<Tick> {
        self.first[self.idx(receiver, sender)]
    }

    /// When the pair `(a, b)` first achieved discovery in *either*
    /// direction (the Appendix C metric).
    pub fn either_way(&self, a: usize, b: usize) -> Option<Tick> {
        match (self.one_way(a, b), self.one_way(b, a)) {
            (Some(x), Some(y)) => Some(x.min(y)),
            (Some(x), None) | (None, Some(x)) => Some(x),
            (None, None) => None,
        }
    }

    /// When the pair `(a, b)` completed *mutual* discovery (both
    /// directions; the Theorem 5.5/5.7 metric).
    pub fn two_way(&self, a: usize, b: usize) -> Option<Tick> {
        match (self.one_way(a, b), self.one_way(b, a)) {
            (Some(x), Some(y)) => Some(x.max(y)),
            _ => None,
        }
    }

    /// `true` once every ordered pair has discovered each other.
    pub fn complete(&self) -> bool {
        (0..self.n).all(|r| (0..self.n).all(|s| r == s || self.one_way(r, s).is_some()))
    }

    /// The time the last ordered pair completed, if all did.
    pub fn completion_time(&self) -> Option<Tick> {
        let mut worst = Tick::ZERO;
        for r in 0..self.n {
            for s in 0..self.n {
                if r != s {
                    worst = worst.max(self.one_way(r, s)?);
                }
            }
        }
        Some(worst)
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` if the matrix tracks no devices.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

/// Aggregate packet counters for one run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PacketCounters {
    /// Beacons transmitted (per transmission, not per receiver).
    pub sent: u64,
    /// Successful receptions (per receiver).
    pub received: u64,
    /// Receivable packets destroyed by collisions.
    pub lost_collision: u64,
    /// Receivable packets lost to the receiver's own transmissions.
    pub lost_self_blocking: u64,
    /// Receivable packets dropped by fault injection.
    pub lost_fault: u64,
}

impl PacketCounters {
    /// Fraction of receivable packets lost to collisions.
    pub fn collision_rate(&self) -> f64 {
        let receivable =
            self.received + self.lost_collision + self.lost_self_blocking + self.lost_fault;
        if receivable == 0 {
            0.0
        } else {
            self.lost_collision as f64 / receivable as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_stats_duty_cycles() {
        let s = DeviceStats {
            label: "x".into(),
            tx_time: Tick::from_millis(10),
            rx_time: Tick::from_millis(30),
            n_tx: 100,
            n_rx_windows: 10,
            n_received: 0,
        };
        let elapsed = Tick::from_secs(1);
        assert!((s.beta(elapsed) - 0.01).abs() < 1e-12);
        assert!((s.gamma(elapsed) - 0.03).abs() < 1e-12);
        assert!((s.eta(elapsed, 2.0) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn overhead_eta_exceeds_ideal() {
        let s = DeviceStats {
            label: "x".into(),
            tx_time: Tick::from_millis(10),
            rx_time: Tick::from_millis(30),
            n_tx: 100,
            n_rx_windows: 10,
            n_received: 0,
        };
        let elapsed = Tick::from_secs(1);
        let ideal = s.eta(elapsed, 1.0);
        assert!(
            (s.eta_with_overheads(elapsed, &nd_core::RadioParams::paper_default()) - ideal).abs()
                < 1e-12
        );
        assert!(s.eta_with_overheads(elapsed, &nd_core::RadioParams::ble_like()) > ideal);
    }

    #[test]
    fn energy_accounting() {
        let s = DeviceStats {
            label: "x".into(),
            tx_time: Tick::from_millis(10),
            rx_time: Tick::from_millis(30),
            n_tx: 100,
            n_rx_windows: 10,
            n_received: 0,
        };
        // ideal radio, P_rx = 10 mW, α = 1: E = 0.01·(0.01 + 0.03) J
        let e = s.energy_joules(&nd_core::RadioParams::paper_default(), 0.01);
        assert!((e - 0.01 * 0.04).abs() < 1e-12);
        // α = 2 doubles the TX share
        let mut radio = nd_core::RadioParams::paper_default();
        radio.alpha = 2.0;
        let e2 = s.energy_joules(&radio, 0.01);
        assert!((e2 - 0.01 * 0.05).abs() < 1e-12);
        // switching overheads add energy
        let e3 = s.energy_joules(&nd_core::RadioParams::ble_like(), 0.01);
        assert!(e3 > e);
    }

    #[test]
    fn discovery_matrix_records_earliest() {
        let mut m = DiscoveryMatrix::new(2);
        assert!(!m.complete());
        m.record(0, 1, Tick(100));
        m.record(0, 1, Tick(50));
        m.record(0, 1, Tick(200));
        assert_eq!(m.one_way(0, 1), Some(Tick(50)));
        assert_eq!(m.two_way(0, 1), None);
        assert_eq!(m.either_way(0, 1), Some(Tick(50)));
        m.record(1, 0, Tick(80));
        assert_eq!(m.two_way(0, 1), Some(Tick(80)));
        assert_eq!(m.either_way(0, 1), Some(Tick(50)));
        assert!(m.complete());
        assert_eq!(m.completion_time(), Some(Tick(80)));
    }

    #[test]
    fn completion_needs_all_pairs() {
        let mut m = DiscoveryMatrix::new(3);
        for r in 0..3 {
            for s in 0..3 {
                if r != s && !(r == 2 && s == 0) {
                    m.record(r, s, Tick(10));
                }
            }
        }
        assert!(!m.complete());
        assert_eq!(m.completion_time(), None);
        m.record(2, 0, Tick(99));
        assert!(m.complete());
        assert_eq!(m.completion_time(), Some(Tick(99)));
    }

    #[test]
    fn counters_collision_rate() {
        let mut c = PacketCounters::default();
        assert_eq!(c.collision_rate(), 0.0);
        c.received = 90;
        c.lost_collision = 10;
        assert!((c.collision_rate() - 0.1).abs() < 1e-12);
    }
}
