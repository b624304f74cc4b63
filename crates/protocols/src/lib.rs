//! # nd-protocols — every neighbor-discovery protocol the paper discusses
//!
//! Schedule constructions for the reproduction of *On Optimal Neighbor
//! Discovery* (SIGCOMM 2019):
//!
//! | Module | Protocol | Paper reference |
//! |---|---|---|
//! | [`optimal`] | the paper-optimal slotless tilings (uni/bi-directional, symmetric, asymmetric, channel-constrained) | Theorems 5.4–5.7 |
//! | [`correlated`] | mutual-exclusive one-way quadruples | Appendix C |
//! | [`redundant`] | collision-robust Q-fold coverage | Appendix B |
//! | [`pi`] | periodic-interval (BLE-like) protocols, BLE advDelay | \[18, 14, 12, 13, 23\] |
//! | [`slotted`] | generic slotted-schedule builder | Section 2/6 |
//! | [`disco`] | Disco prime pairs | \[3\] |
//! | [`uconnect`] | U-Connect | \[4\] |
//! | [`searchlight`] | Searchlight(-Striped) | \[5\] |
//! | [`diffcodes`] | perfect-difference-set schedules | \[17, 16\] |
//! | [`codebased`] | code-based two-packet placement | \[6, 7\] |
//! | [`birthday`] | probabilistic birthday baseline | §2 context |
//! | [`assist`] | Griassdi-style mutual assistance | \[13\] |
//! | [`jitter`] | beacon-jitter decorrelation | §8 future work |
//!
//! All constructions lower to exact `nd-core` [`nd_core::Schedule`]s, so
//! the same objects feed the coverage-map analysis, the exact worst-case
//! engine (`nd-analysis`) and the discrete-event simulator (`nd-netsim`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod aperiodic;
pub mod assist;
pub mod birthday;
pub mod codebased;
pub mod correlated;
pub mod diffcodes;
pub mod disco;
pub mod jitter;
pub mod optimal;
pub mod pi;
pub mod redundant;
pub mod registry;
pub mod role;
pub mod searchlight;
pub mod slotted;
pub mod space;
pub mod uconnect;

pub use aperiodic::{RandomScanner, SlidingScanner};
pub use assist::MutualAssist;
pub use birthday::Birthday;
pub use codebased::CodeBased;
pub use correlated::correlated_oneway;
pub use diffcodes::DiffCode;
pub use disco::Disco;
pub use jitter::{Jittered, RoundJittered};
pub use optimal::{OptimalParams, OptimalProtocol};
pub use pi::{BleAdvertiser, PiProtocol};
pub use redundant::{redundant_symmetric, RedundantProtocol};
pub use registry::{schedule_for_selector, ProtocolKind};
pub use role::{RoleConfig, RolePair};
pub use searchlight::Searchlight;
pub use slotted::{BeaconPlacement, SlottedSchedule};
pub use space::{Constraint, ParamDef, ParamRange, ParamSpace};
pub use uconnect::UConnect;
