//! Cross-validation of the engine against first principles.
//!
//! 1. **A pair against enumeration**: on randomized advertiser/scanner
//!    configurations (proptest), an always-on two-node run must report
//!    the first discovery that a direct enumeration of beacons and windows
//!    finds ([`reference_first_hit`]), and receive exactly the beacons
//!    whose start falls inside a window ([`reference_receptions`]).
//! 2. **Duty cycles**: measured β and γ track the configured schedules.
//! 3. **Zero drift is transparent**: a 0 ppb [`Drifting`] wrapper changes
//!    nothing.
//! 4. **Eq. 12 collision bound**: with S beaconers contending at channel
//!    utilization β, the measured collision rate matches the paper's
//!    slotless-ALOHA model `P_c = 1 − e^{−2(S−1)β}` within Monte-Carlo
//!    tolerance.
//! 5. **Hand-computed channel cases**: half-duplex blanking under each
//!    overlap model, fault drops, directional link loss, full-packet
//!    containment, out-of-range topologies, beacons outside windows,
//!    window boundaries, collisions only on overlap, duty-cycle accounting
//!    and the reported elapsed time.
//!
//! `PROPTEST_CASES` raises the case count of the properties.

use nd_core::coverage::OverlapModel;
use nd_core::params::RadioParams;
use nd_core::schedule::{BeaconSeq, ReceptionWindows, Schedule};
use nd_core::time::Tick;
use nd_netsim::{CohortReport, NetSimulator, NodeSpec};
use nd_sim::{Drifting, ScheduleBehavior, SimConfig, Topology};
use proptest::prelude::*;

const OMEGA: Tick = Tick(36_000);

fn cfg(horizon: Tick, seed: u64) -> SimConfig {
    let mut radio = RadioParams::paper_default();
    radio.omega = OMEGA;
    SimConfig::paper_baseline(horizon, seed).with_radio(radio)
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

/// Advertiser (beacon period `ta`) and scanner (window `ds` per `ts`),
/// the canonical asymmetric pair.
fn schedules(ta: Tick, ts: Tick, ds: Tick) -> (Schedule, Schedule) {
    let adv = Schedule::tx_only(BeaconSeq::new(vec![Tick::ZERO], ta, OMEGA).unwrap());
    let scan = Schedule::rx_only(ReceptionWindows::single(Tick::ZERO, ds, ts).unwrap());
    (adv, scan)
}

/// Start instants of the advertiser's beacons (period `ta`, phase `pa`)
/// whose packet ends by `horizon`. Phase `pa` means the schedule started
/// at −pa: beacons at k·ta − pa for k·ta ≥ pa.
fn beacon_walk(ta: Tick, pa: Tick, horizon: Tick) -> impl Iterator<Item = Tick> {
    (0u64..)
        .filter_map(move |k| (ta * k).checked_sub(pa))
        .take_while(move |&at| at + OMEGA <= horizon)
}

/// Whether `at` falls inside a window of the scanner (window `ds` at the
/// start of each `ts`, phase `ps`: windows at [m·ts − ps, m·ts − ps + ds)).
fn in_window(at: Tick, ts: Tick, ds: Tick, ps: Tick) -> bool {
    (at + ps).rem_euclid(ts) < ds
}

/// The first beacon start that lands inside a scanner window.
fn reference_first_hit(
    ta: Tick,
    pa: Tick,
    ts: Tick,
    ds: Tick,
    ps: Tick,
    horizon: Tick,
) -> Option<Tick> {
    beacon_walk(ta, pa, horizon).find(|&at| in_window(at, ts, ds, ps))
}

/// The number of beacons whose start lands inside a scanner window.
fn reference_receptions(ta: Tick, pa: Tick, ts: Tick, ds: Tick, ps: Tick, horizon: Tick) -> u64 {
    beacon_walk(ta, pa, horizon)
        .filter(|&at| in_window(at, ts, ds, ps))
        .count() as u64
}

/// A two-node run: node 0 is `a`, node 1 is `b`.
fn run_pair(cfg: SimConfig, a: NodeSpec, b: NodeSpec) -> CohortReport {
    let mut sim = NetSimulator::new(cfg, Topology::full(2));
    sim.add_node(a);
    sim.add_node(b);
    sim.run()
}

fn on_phase(sched: Schedule, phase: Tick) -> NodeSpec {
    NodeSpec::always_on(Box::new(ScheduleBehavior::with_phase(sched, phase)))
}

proptest! {
    #![proptest_config(cases(48))]

    /// An always-on pair reports the enumerated first discovery and the
    /// enumerated reception count, for arbitrary PI configurations and
    /// phases (only one node transmits, so the channel model with
    /// collisions and half-duplex on interferes with nothing).
    #[test]
    fn pair_matches_enumeration(
        ta_us in 100u64..5000,
        pa_pm in 0u64..1000,
        ts_us in 200u64..8000,
        ds_pm in 5u64..900,
        ps_pm in 0u64..1000,
    ) {
        let ta = Tick::from_micros(ta_us);
        let ts = Tick::from_micros(ts_us);
        let ds = Tick((ts.as_nanos() * ds_pm / 1000).max(1));
        let pa = Tick(ta.as_nanos() * pa_pm / 1000);
        let ps = Tick(ts.as_nanos() * ps_pm / 1000);
        let horizon = Tick::from_millis(300);
        let (adv, scan) = schedules(ta, ts, ds);
        let report = run_pair(cfg(horizon, 5), on_phase(adv, pa), on_phase(scan, ps));
        prop_assert_eq!(
            report.discovery.one_way(1, 0),
            reference_first_hit(ta, pa, ts, ds, ps, horizon)
        );
        prop_assert_eq!(
            report.packets.received,
            reference_receptions(ta, pa, ts, ds, ps, horizon)
        );
    }

    /// Measured duty cycles track the configured schedules.
    #[test]
    fn measured_duty_cycles(
        ta_us in 500u64..3000,
        gamma_pm in 20u64..300,
    ) {
        let ta = Tick::from_micros(ta_us);
        let ts = Tick::from_millis(10);
        let ds = Tick(ts.as_nanos() * gamma_pm / 1000);
        let (adv, scan) = schedules(ta, ts, ds);
        let report = run_pair(
            cfg(Tick::from_secs(1), 5),
            on_phase(adv, Tick::ZERO),
            on_phase(scan, Tick::ZERO),
        );
        let beta = report.stats[0].beta(report.elapsed);
        let beta_cfg = OMEGA.as_nanos() as f64 / ta.as_nanos() as f64;
        prop_assert!((beta - beta_cfg).abs() / beta_cfg < 0.02, "beta {beta} vs {beta_cfg}");
        let gamma = report.stats[1].gamma(report.elapsed);
        let gamma_cfg = gamma_pm as f64 / 1000.0;
        prop_assert!((gamma - gamma_cfg).abs() / gamma_cfg < 0.03, "gamma {gamma} vs {gamma_cfg}");
    }

    /// A zero-drift [`Drifting`] wrapper is transparent: the same first
    /// discovery as the bare schedules.
    #[test]
    fn zero_drift_transparent(
        ta_us in 100u64..2000,
        ps_us in 0u64..3000,
    ) {
        let ta = Tick::from_micros(ta_us);
        let ts = Tick::from_micros(3100);
        let ds = Tick::from_micros(150);
        let ps = Tick::from_micros(ps_us % 3100);
        let horizon = Tick::from_millis(100);
        let (adv, scan) = schedules(ta, ts, ds);
        let plain = run_pair(
            cfg(horizon, 5),
            on_phase(adv.clone(), Tick::ZERO),
            on_phase(scan.clone(), ps),
        );
        let drifted = run_pair(
            cfg(horizon, 5),
            NodeSpec::always_on(Box::new(Drifting::new(ScheduleBehavior::new(adv), 0))),
            NodeSpec::always_on(Box::new(Drifting::new(
                ScheduleBehavior::with_phase(scan, ps),
                0,
            ))),
        );
        let first = plain.discovery.one_way(1, 0);
        prop_assert_eq!(first, drifted.discovery.one_way(1, 0));
        prop_assert_eq!(first, reference_first_hit(ta, Tick::ZERO, ts, ds, ps, horizon));
    }
}

/// Eq. 12 of the paper: S contending beaconers, each with channel
/// utilization β, lose a fraction `1 − e^{−2(S−1)β}` of their beacons to
/// collisions. Simulate S senders with near-coprime periods (so beacon
/// alignments decorrelate) plus one always-listening scanner, and compare
/// the measured collision rate at the scanner against the bound.
#[test]
fn collision_rate_matches_eq12() {
    // distinct prime-ish periods around 400ω: β ≈ 0.0025 each
    let periods_us = [3989u64, 4001, 4093, 4211, 4297, 4409];
    let s = periods_us.len() as u32;
    let omega = Tick::from_micros(4);
    let horizon = Tick::from_millis(400);

    let mut received = 0u64;
    let mut lost_collision = 0u64;
    for seed in 0..24u64 {
        let mut radio = RadioParams::paper_default();
        radio.omega = omega;
        let mut cfg = SimConfig::paper_baseline(horizon, seed).with_radio(radio);
        cfg.half_duplex = false; // the scanner never transmits anyway
        let n = periods_us.len() + 1;
        let mut sim = NetSimulator::new(cfg, Topology::full(n));
        for (i, &period_us) in periods_us.iter().enumerate() {
            let period = Tick::from_micros(period_us);
            let adv = Schedule::tx_only(BeaconSeq::new(vec![Tick::ZERO], period, omega).unwrap());
            // deterministic per-sender phase, different every run
            let phase = Tick(
                (seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (i as u64) << 48)
                    % period.as_nanos().max(1),
            );
            sim.add_node(on_phase(adv, phase));
        }
        // the scanner: wall-to-wall listening
        let scan = Schedule::rx_only(
            ReceptionWindows::single(Tick::ZERO, Tick::from_millis(1), Tick::from_millis(1))
                .unwrap(),
        );
        sim.add_node(on_phase(scan, Tick::ZERO));
        let report = sim.run();
        received += report.packets.received;
        lost_collision += report.packets.lost_collision;
    }

    let receivable = received + lost_collision;
    assert!(receivable > 10_000, "need statistics, got {receivable}");
    let measured = lost_collision as f64 / receivable as f64;
    let beta = 4.0 / 4166.0; // ω / mean period
    let predicted = nd_core::bounds::collisions::collision_probability(s, beta);
    assert!(
        (measured - predicted).abs() < 0.01,
        "measured collision rate {measured:.4} vs Eq. 12 prediction {predicted:.4}"
    );
}

// ---------------------------------------------------------------------------
// Hand-computed channel cases: ω = 4 µs, ideal radio.

/// An advertiser beaconing every `period_us` from `phase_us` on.
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

/// A scanner listening `[0, window_us)` of every `period_us`.
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
    SimConfig::paper_baseline(Tick::from_millis(ms), 42)
        .with_radio(RadioParams::ideal(Tick::from_micros(4), 1.0))
}

/// Run `scheds` (always on, in node order) over `topo`.
fn run(cfg: SimConfig, topo: Topology, scheds: Vec<Schedule>) -> CohortReport {
    let mut sim = NetSimulator::new(cfg, topo);
    for sched in scheds {
        sim.add_node(on_phase(sched, Tick::ZERO));
    }
    sim.run()
}

#[test]
fn out_of_range_nodes_never_discover() {
    let mut topo = Topology::full(2);
    topo.set_bidi(0, 1, false);
    let report = run(base_cfg(10), topo, vec![adv(100, 10), scan(50, 200)]);
    assert_eq!(report.discovery.one_way(1, 0), None);
    assert_eq!(report.packets.received, 0);
}

#[test]
fn beacon_outside_window_not_received() {
    // a beacon at 60 µs of every 100 against the window [0, 50) of every
    // 100: the offset never moves, so nothing is ever discovered
    let report = run(
        base_cfg(1),
        Topology::full(2),
        vec![adv(100, 60), scan(50, 100)],
    );
    assert_eq!(report.discovery.one_way(1, 0), None);
    assert_eq!(report.packets.sent, 10);
    assert_eq!(report.packets.received, 0);
}

#[test]
fn non_overlapping_beacons_do_not_collide() {
    // beacons at 10 and 16 µs with ω = 4 µs end before the next starts:
    // the wall-to-wall scanner hears both, ten times each
    let report = run(
        base_cfg(1),
        Topology::full(3),
        vec![adv(100, 10), adv(100, 16), scan(100, 100)],
    );
    assert_eq!(report.discovery.one_way(2, 0), Some(Tick::from_micros(10)));
    assert_eq!(report.discovery.one_way(2, 1), Some(Tick::from_micros(16)));
    assert_eq!(report.packets.lost_collision, 0);
    assert_eq!(report.packets.received, 20);
}

/// A node that beacons every 100 µs from `beacon_us` on and listens
/// `[0, 50)` of every 100 µs.
fn beacon_and_listen(beacon_us: u64) -> Schedule {
    Schedule::full(
        BeaconSeq::uniform(
            1,
            Tick::from_micros(100),
            Tick::from_micros(4),
            Tick::from_micros(beacon_us),
        )
        .unwrap(),
        ReceptionWindows::single(Tick::ZERO, Tick::from_micros(50), Tick::from_micros(100))
            .unwrap(),
    )
}

/// Node 0 beacons at 10 µs of every 100 into node 1's `[0, 50)` window
/// while node 1 beacons at `own_us` of every 100: `(beacons node 1
/// received, beacons it lost to its own transmissions)` over 1 ms.
fn self_blocking(overlap: OverlapModel, own_us: u64) -> (u64, u64) {
    let cfg = base_cfg(1).with_overlap(overlap);
    let report = run(
        cfg,
        Topology::full(2),
        vec![adv(100, 10), beacon_and_listen(own_us)],
    );
    assert_eq!(
        report.packets.lost_collision, 0,
        "blanking is not a collision"
    );
    (
        report.stats[1].n_received,
        report.packets.lost_self_blocking,
    )
}

#[test]
fn half_duplex_blanks_own_window() {
    const MODELS: [OverlapModel; 3] = [
        OverlapModel::Start,
        OverlapModel::AnyOverlap,
        OverlapModel::FullPacket,
    ];
    for overlap in MODELS {
        // node 1 beacons at exactly the instants node 0's beacons arrive,
        // so its own transmission blanks the whole packet every time
        // (ideal radio: blanked for exactly ω) under every overlap model
        assert_eq!(self_blocking(overlap, 10), (0, 10), "{overlap:?}");

        // a full-duplex radio on a collision-free channel hears them all
        let mut cfg = base_cfg(1).with_overlap(overlap);
        cfg.half_duplex = false;
        cfg.collisions = false;
        let report = run(
            cfg,
            Topology::full(2),
            vec![adv(100, 10), beacon_and_listen(10)],
        );
        assert_eq!(
            report.discovery.one_way(1, 0),
            Some(Tick::from_micros(10)),
            "{overlap:?}"
        );
    }
    // the packet [10, 14) µs lies inside node 1's window, and node 1's
    // own beacon [12, 16) covers only its tail: the start is still heard
    // and so is the head, but the packet no longer fits
    assert_eq!(self_blocking(OverlapModel::Start, 12), (10, 0));
    assert_eq!(self_blocking(OverlapModel::AnyOverlap, 12), (10, 0));
    assert_eq!(self_blocking(OverlapModel::FullPacket, 12), (0, 10));
    // an own beacon [8, 12) over the head blanks the start, but the tail
    // [12, 14) still overlaps the window
    assert_eq!(self_blocking(OverlapModel::Start, 8), (0, 10));
    assert_eq!(self_blocking(OverlapModel::AnyOverlap, 8), (10, 0));
    assert_eq!(self_blocking(OverlapModel::FullPacket, 8), (0, 10));
}

#[test]
fn drop_probability_one_drops_every_reception() {
    // all 100 beacons (10, 110, …, 9910 µs) land in a [0, 50) window of
    // every 100 µs, and every one of them is dropped
    let cfg = base_cfg(10).with_drop_probability(1.0);
    let report = run(cfg, Topology::full(2), vec![adv(100, 10), scan(50, 100)]);
    assert_eq!(report.discovery.one_way(1, 0), None);
    assert_eq!(report.packets.sent, 100);
    assert_eq!(report.packets.lost_fault, 100);
    assert_eq!(report.packets.received, 0);
}

#[test]
fn per_link_loss_is_directional() {
    // losing every packet 0 → 1 silences the advertiser …
    let mut topo = Topology::full(2);
    topo.set_link_loss(0, 1, 1.0);
    let report = run(base_cfg(10), topo, vec![adv(100, 10), scan(50, 100)]);
    assert_eq!(report.discovery.one_way(1, 0), None);
    // … losing every packet 1 → 0 does not
    let mut topo = Topology::full(2);
    topo.set_link_loss(1, 0, 1.0);
    let report = run(base_cfg(10), topo, vec![adv(100, 10), scan(50, 100)]);
    assert_eq!(report.discovery.one_way(1, 0), Some(Tick::from_micros(10)));
}

#[test]
fn full_packet_model_requires_containment() {
    // window [0, 6) µs, a 4 µs packet from 3 µs: it overlaps the window
    // and starts inside it, but does not fit
    let cfg = base_cfg(1).with_overlap(OverlapModel::FullPacket);
    let report = run(cfg, Topology::full(2), vec![adv(100, 3), scan(6, 100)]);
    assert_eq!(report.discovery.one_way(1, 0), None);
    // under the start model the same pair meets at once
    let report = run(
        base_cfg(1),
        Topology::full(2),
        vec![adv(100, 3), scan(6, 100)],
    );
    assert_eq!(report.discovery.one_way(1, 0), Some(Tick::from_micros(3)));
}

#[test]
fn stats_measure_duty_cycles() {
    // beacons of 4 µs and windows of 100 µs at 0, 1, …, 100 ms (an op due
    // at the horizon instant still starts): β = 101 · 4 µs / 100 ms,
    // γ = 101 · 100 µs / 100 ms
    let report = run(
        base_cfg(100),
        Topology::full(2),
        vec![adv(1000, 0), scan(100, 1000)],
    );
    assert_eq!(report.elapsed, Tick::from_millis(100));
    assert_eq!(report.stats[0].n_tx, 101);
    assert_eq!(report.stats[1].n_rx_windows, 101);
    let beta = report.stats[0].beta(report.elapsed);
    assert!((beta - 0.00404).abs() < 1e-12, "beta {beta}");
    let gamma = report.stats[1].gamma(report.elapsed);
    assert!((gamma - 0.101).abs() < 1e-12, "gamma {gamma}");
}

#[test]
fn one_way_run_to_the_horizon_reports_the_horizon() {
    // nothing stops the run early, so it ends at t_end = 9.95 ms, not at
    // the instant of its last handled event (the packet end at 9.914 ms)
    let cfg = SimConfig::paper_baseline(Tick::from_micros(9_950), 42)
        .with_radio(RadioParams::ideal(Tick::from_micros(4), 1.0));
    let report = run(cfg, Topology::full(2), vec![adv(100, 10), scan(50, 200)]);
    assert!(report.discovery.one_way(1, 0).is_some());
    assert_eq!(report.elapsed, Tick::from_micros(9_950));
}

#[test]
fn start_model_window_boundaries() {
    // windows [0, 50) µs of every 100: a beacon starting on the window's
    // first or last nanosecond is heard, one starting at its end is not
    let at = |start: Tick| {
        let beacon = BeaconSeq::uniform(1, Tick::from_micros(100), Tick::from_micros(4), start);
        let report = run(
            base_cfg(1),
            Topology::full(2),
            vec![Schedule::tx_only(beacon.unwrap()), scan(50, 100)],
        );
        report.discovery.one_way(1, 0)
    };
    assert_eq!(at(Tick::ZERO), Some(Tick::ZERO));
    let last = Tick::from_micros(50) - Tick(1);
    assert_eq!(at(last), Some(last));
    assert_eq!(at(Tick::from_micros(50)), None);
}
