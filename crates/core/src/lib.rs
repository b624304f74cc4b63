//! # nd-core — the theory of *On Optimal Neighbor Discovery*
//!
//! This crate is a faithful, executable implementation of the theory in
//! Philipp H. Kindt and Samarjit Chakraborty, *On Optimal Neighbor
//! Discovery* (SIGCOMM 2019): the formal model of neighbor-discovery (ND)
//! protocols, the coverage-map machinery used to reason about deterministic
//! discovery, and every fundamental bound the paper derives.
//!
//! ## Map from paper to code
//!
//! | Paper | Module |
//! |---|---|
//! | Defs. 3.1–3.3 (sequences, protocols) | [`schedule`] |
//! | Def. 3.5 (duty cycles, α-weighting) | [`params`] |
//! | Section 4 (coverage maps, determinism, Theorems 4.2/4.3) | [`coverage`] |
//! | Section 5 (fundamental bounds) | [`bounds`] |
//! | Section 6 (slotted protocols, Table 1) | [`bounds::slotted`] |
//! | Appendix A (relaxed assumptions) | [`bounds::overheads`] |
//! | Appendix B (collision-robust redundancy) | [`bounds::redundancy`] |
//! | Appendix C (one-way discovery) | [`bounds::oneway`] |
//!
//! ## Example: bound → achievable schedule shape
//!
//! ```
//! use nd_core::bounds::{symmetric_bound, optimal_beta};
//! use nd_core::coverage::min_beacons;
//! use nd_core::time::Tick;
//!
//! // A pair of devices with a 5 % duty-cycle budget each, 36 µs beacons,
//! // equal TX/RX power (α = 1):
//! let (alpha, omega, eta) = (1.0, 36e-6, 0.05);
//! let bound = symmetric_bound(alpha, omega, eta); // = 57.6 ms
//! assert!((bound - 0.0576).abs() < 1e-9);
//!
//! // The optimal split transmits with β = η/2α and listens with γ = η/2
//! // (Theorem 5.5); with one reception window of 1 ms per T_C = 20 ms the
//! // Beaconing Theorem says 20 beacons per period are necessary:
//! assert_eq!(min_beacons(Tick::from_millis(20), Tick::from_millis(1)), 20);
//! assert!((optimal_beta(eta, alpha) - 0.025).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bounds;
pub mod coverage;
pub mod error;
pub mod interval;
pub mod metric;
pub mod params;
pub mod schedule;
pub mod seed;
pub mod stable;
pub mod time;

pub use coverage::{min_beacons, CoverageMap, FirstHitProfile, OverlapModel};
pub use error::NdError;
pub use interval::{Interval, IntervalSet};
pub use metric::Metric;
pub use params::{DutyCycle, RadioParams};
pub use schedule::{BeaconSeq, ReceptionWindows, Schedule, Window};
pub use stable::StableEncode;
pub use time::Tick;
