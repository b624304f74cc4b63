//! # optimal-nd
//!
//! Umbrella crate for the reproduction of *On Optimal Neighbor Discovery*
//! (Kindt & Chakraborty, SIGCOMM 2019). It re-exports the member crates so
//! examples and downstream users can depend on a single package:
//!
//! * [`core`] (`nd-core`) — time base, schedules, coverage maps and every
//!   fundamental bound derived in the paper.
//! * [`sim`] (`nd-sim`) — the channel model's types: radio behaviours,
//!   the simulation config (overlap model, collision channel, half-duplex
//!   blanking, fault injection), topologies, drift, run statistics.
//! * [`netsim`] (`nd-netsim`) — the discrete-event simulator that runs
//!   that model, from a Monte-Carlo pair to million-node cohorts:
//!   join/leave churn, per-node drift and RNG streams,
//!   first/median/full-cohort discovery metrics.
//! * [`protocols`] (`nd-protocols`) — the paper-optimal schedule
//!   constructions plus every protocol the paper classifies (Disco,
//!   U-Connect, Searchlight, difference codes, BLE-like PI, …).
//! * [`analysis`] (`nd-analysis`) — exact worst-case latency engine and
//!   Monte-Carlo harnesses.
//! * [`sweep`] (`nd-sweep`) — declarative, parallel, cached scenario
//!   sweeps over all of the above (and the `nd-sweep` CLI).
//! * [`opt`] (`nd-opt`) — per-protocol Pareto fronts over (duty cycle,
//!   latency) with gap-to-bound reporting (and the `nd-opt` CLI).
//! * [`serve`] (`nd-serve`) — the always-on planning daemon: front/best/
//!   gap queries over HTTP/JSON behind the versioned `nd-serve-api/v1`
//!   envelope, with response memoization, request coalescing and a
//!   background ingest→execute→prune pipeline.
//! * [`obs`] (`nd-obs`) — zero-dependency observability spine: structured
//!   tracing spans with a JSONL sink, the atomic metrics registry, and
//!   stderr progress lines. Off by default; `ND_TRACE`/`--trace-out`
//!   and the report/stats subcommands turn it on.
//!
//! See `examples/quickstart.rs` for a five-minute tour.

pub use nd_analysis as analysis;
pub use nd_core as core;
pub use nd_netsim as netsim;
pub use nd_obs as obs;
pub use nd_opt as opt;
pub use nd_protocols as protocols;
pub use nd_serve as serve;
pub use nd_sim as sim;
pub use nd_sweep as sweep;
