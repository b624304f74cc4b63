//! # nd-sim — the vocabulary of the simulated channel
//!
//! Every simulation in the reproduction of *On Optimal Neighbor Discovery*
//! (SIGCOMM 2019) is written in the types of this crate and run by one
//! engine, `nd-netsim`'s `NetSimulator` (a pair of always-on nodes is the
//! pairwise case):
//!
//! * radios sleep, transmit beacons of airtime ω, or listen in reception
//!   windows ([`behavior::Op`]), driven by [`behavior::Behavior`]s, which
//!   append each sorted batch of ops to the engine's buffer —
//!   static periodic schedules use [`behavior::ScheduleBehavior`] (which
//!   reports its period, so the engine can jump a locked run ahead),
//!   reactive protocols (mutual assistance, BLE advDelay) implement the
//!   trait directly, and [`drift::Drifting`] skews any of them;
//! * [`config::SimConfig`] fixes the channel model the paper analyzes: a
//!   beacon is received when it meets the overlap model (paper §3.2
//!   default: beacon start inside a window; Appendix A.3 full containment
//!   available), overlapping transmissions collide (ALOHA, Eq. 12),
//!   half-duplex radios blank their own windows (Appendix A.5), and
//!   smoltcp-style fault injection can drop packets; [`config::Topology`]
//!   says who hears whom;
//! * [`stats`] holds what a run measures: per-device counters (airtime,
//!   beacons, windows, receptions; duty cycles and energy follow from
//!   them), the first-discovery matrix and the packet counters.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod behavior;
pub mod config;
pub mod drift;
pub mod stats;

pub use behavior::{Behavior, IdleBehavior, Op, Payload, ScheduleBehavior};
pub use config::{SimConfig, Topology};
pub use drift::Drifting;
pub use stats::{DeviceStats, DiscoveryMatrix, PacketCounters};
