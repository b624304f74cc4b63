//! # nd-sweep — the parallel scenario-sweep orchestrator
//!
//! The experiment modules of `nd-bench` each hand-roll a parameter loop
//! over the exact analysis or the simulator. This crate turns that pattern
//! into one declarative, parallel, cached operation:
//!
//! 1. **Scenario specs** ([`spec`]) — TOML/JSON descriptions of a sweep: a
//!    protocol axis (registry names or parametrized difference codes),
//!    grids over duty cycle, slot length, drift, turnaround overheads and
//!    fault injection, and the evaluation backend (exact coverage-map
//!    analysis, Monte-Carlo simulation, or closed-form bounds).
//! 2. **The engine** ([`engine`]) — expands the grid into jobs
//!    ([`grid`]), executes them across all cores ([`pool`]) with
//!    deterministic per-job seeds derived from job *content*, and
//!    aggregates latency/energy metrics from `nd-analysis` and `nd-netsim`.
//! 3. **A content-addressed result cache** ([`cache`]) — every job result
//!    is stored under a SHA-256 of its resolved parameters and the engine
//!    version, so re-runs and overlapping grids are near-free.
//! 4. **Exporters** ([`export`]) and the `nd-sweep` CLI binary — CSV and
//!    JSON, deterministic byte-for-byte.
//!
//! ```
//! use nd_sweep::{run_sweep, ScenarioSpec, SweepOptions};
//!
//! let spec = ScenarioSpec::from_toml_str(r#"
//!     name = "quick"
//!     backend = "exact"
//!     [grid]
//!     protocol = ["optimal-slotless", "disco"]
//!     eta = [0.05]
//! "#).unwrap();
//! let outcome = run_sweep(&spec, &SweepOptions::uncached()).unwrap();
//! assert_eq!(outcome.rows.len(), 2);
//! let csv = nd_sweep::to_csv(&outcome);
//! // schema comment + header + one line per job
//! assert!(csv.lines().count() == 4);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod engine;
pub mod export;
pub mod grid;
pub mod hash;
pub mod pool;
pub mod spec;
pub mod value;

pub use cache::{CacheError, CacheStats, CachedResult, GcReport, ResultCache};
pub use engine::{run_sweep, Row, SweepError, SweepOptions, SweepOutcome};
pub use export::{to_csv, to_json, EXPORT_SCHEMA};
pub use grid::{expand, Job};
pub use spec::{Backend, Metric, ScenarioSpec, SpecError, ENGINE_VERSION};
pub use value::Value;

/// Serializes the unit tests that switch the global metrics registry on
/// or off, reset it, or read its counters.
#[cfg(test)]
pub(crate) static METRICS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
