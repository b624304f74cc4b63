//! # nd-netsim — the discrete-event simulator
//!
//! Every simulation in the workspace runs here: the Monte-Carlo pair
//! trials of `nd-analysis` and the sweep's `montecarlo` backend as an
//! always-on pair ([`NodeSpec::always_on`]), the `netsim` backend and the
//! million-node cohort as N contending nodes. A discrete-event core (one
//! event queue — each node's sorted op stream, merged by a heap over the
//! stream heads, beside a small heap for everything else — plus a
//! logical clock) advances nodes ([`node`]) whose radios share the
//! paper's channel model from `nd-sim`: overlap geometry, half-duplex
//! blanking, ALOHA collisions (Eq. 12), fault injection. The cross-validation suite pins a
//! pair against a direct enumeration of beacons and windows.
//!
//! What cohorts add on top of a pair:
//!
//! * **churn** ([`churn`]) — nodes join and leave mid-run on declarative
//!   [`ChurnPlan`]s;
//! * **per-node clock drift** — compose [`nd_sim::Drifting`] under any
//!   behaviour, per node;
//! * **per-node RNG streams** — every node draws from its own
//!   SplitMix64-derived stream rooted in the run seed, so sweeps can
//!   derive the whole cohort's randomness from a job content hash;
//! * **cohort metrics** ([`metrics`]) — first-contact, median-pair and
//!   full-cohort discovery latencies measured from each pair's
//!   co-presence start;
//! * **sharding** ([`shard`]) — disconnected neighbourhoods simulated
//!   independently across worker threads, bit-identical to one run.
//!
//! The `nd-sweep` crate exposes all of this as the `netsim` sweep backend
//! (`backend = "netsim"` with `nodes`, `churn` and `collision` grid axes).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod churn;
pub mod engine;
pub(crate) mod event;
pub mod metrics;
pub mod node;
pub mod shard;

pub use churn::ChurnPlan;
pub use engine::NetSimulator;
pub use metrics::CohortReport;
pub use node::NodeSpec;
pub use shard::{run_sharded, run_sharded_collect, ShardedReport};
