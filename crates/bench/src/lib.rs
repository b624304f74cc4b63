//! # nd-bench — the experiment harness
//!
//! One module per experiment; each regenerates a table or figure of *On
//! Optimal Neighbor Discovery* (SIGCOMM 2019) as a plain-text series that
//! can be compared against the paper (EXPERIMENTS.md records the
//! comparison). Run them with:
//!
//! ```text
//! cargo run -p nd-bench --release --bin experiments -- <id>|all|list
//! ```
//!
//! `examples/netsim_profile.rs` times the netsim hot loop on one
//! full-mesh cohort.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod table;

pub use experiments::{all_experiments, run_experiment};
