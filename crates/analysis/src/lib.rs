//! # nd-analysis — exact and statistical analysis of ND schedules
//!
//! Three complementary ways to evaluate a neighbor-discovery schedule from
//! the reproduction of *On Optimal Neighbor Discovery* (SIGCOMM 2019):
//!
//! * [`firsthit`] — the first-hit kernel: for every starting phase of a
//!   schedule pair, which beacon first hits each offset and after what
//!   delay, from one forward pass and one reverse painting;
//! * [`exact`] — exact (nanosecond-precise) worst-case and mean discovery
//!   latency for any pair of periodic schedules, replacing the recursive
//!   scheme of the paper's reference \[18\];
//! * [`dist`] — exact latency *distributions* (CDF, quantiles, mean), not
//!   just the worst case;
//! * [`montecarlo`] — randomized-phase simulation campaigns on
//!   `nd-netsim`, for collisions, fault injection and reactive protocols.
//!   One runner, [`Trials`], sets up and seeds every campaign's trials:
//!   trial `t` of a campaign rooted at seed `r` runs on channel seed
//!   `stream_seed(r, t)` and draws its phases from one `StdRng` seeded
//!   with `r`;
//! * [`residue`] — residue-class gap folding: the ultimate coverage of an
//!   expansion, computed from one fold per beacon so co-prime schedule
//!   pairs with huge hyperperiods stop expanding the moment coverage
//!   saturates;
//! * [`verify`] — cross-validation of the exact engine, a naive oracle
//!   and the simulator against each other.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dist;
pub mod exact;
pub mod firsthit;
pub mod montecarlo;
pub mod residue;
pub mod verify;

pub use dist::LatencyDistribution;
pub use exact::{
    naive_first_discovery, one_way_coverage, one_way_worst_case, two_way_from, two_way_worst_case,
    AnalysisConfig, CoverageCase, WorstCase,
};
pub use firsthit::{FirstHitError, FirstHits};
pub use montecarlo::{group_success_rate, pair_trials, LatencySummary, Trials};
pub use residue::ultimate_covered_measure;
pub use verify::{cross_validate, Verification};
