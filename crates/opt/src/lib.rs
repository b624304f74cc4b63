//! # nd-opt — Pareto-front optimization of discovery schedules
//!
//! The paper's headline result is a *frontier*: for every duty-cycle
//! budget there is a provably minimal worst-case discovery latency
//! (`nd_core::bounds`), and well-parameterized schedules reach it. This
//! crate searches for that frontier empirically, per protocol:
//!
//! 1. **Parameter spaces** — each registry protocol declares what may be
//!    tuned ([`nd_protocols::ParamSpace`]: typed ranges + feasibility
//!    constraints);
//! 2. **Evaluators** ([`evaluator`]) — exact coverage analysis,
//!    Monte-Carlo and N-node netsim behind one [`Evaluator`], each
//!    evaluation an ordinary `nd-sweep` job (same thread pool, same
//!    content-addressed result cache);
//! 3. **The optimizer** ([`optimizer`]) — coarse grid seeding plus
//!    adaptive refinement around the current front over (duty cycle,
//!    latency), both minimized ([`pareto`]);
//! 4. **Gap reporting** — every front point annotated with its distance
//!    to the closed-form optimality bound at its duty cycle, which is how
//!    the paper's comparison figures are built;
//! 5. **Specs, exports and a CLI** ([`spec`], [`export`], `nd-opt
//!    front`/`best`/`gap`) — TOML specs in the sweep grammar with an
//!    `[opt]` table, deterministic CSV/JSON.
//!
//! ```
//! use nd_opt::{run_opt, OptOptions, OptSpec};
//!
//! let spec = OptSpec::from_toml_str(r#"
//!     name = "quick"
//!     backend = "exact"
//!     metric = "two-way"
//!     [opt]
//!     protocols = ["optimal"]
//!     seeds_per_axis = 3
//!     rounds = 1
//! "#).unwrap();
//! let out = run_opt(&spec, &OptOptions::uncached()).unwrap();
//! let front = &out.fronts[0].front;
//! assert!(!front.is_empty());
//! // the optimal construction tracks the theoretical bound closely
//! assert!(front.iter().all(|p| p.gap_frac.abs() < 0.05));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod evaluator;
pub mod export;
pub mod optimizer;
pub mod pareto;
pub mod spec;

pub use evaluator::{evaluator_for, screening_evaluator, Candidate, Evaluation, Evaluator};
pub use export::{point_value, to_csv, to_json, to_value};
pub use optimizer::{
    censor_reason, run_opt, FrontPoint, FrontResult, GapSummary, OptError, OptOptions, OptOutcome,
    CORRUPT_CACHE,
};
pub use pareto::{dominates, front_indices, hypervolume, is_valid_front};
pub use spec::{normalize_protocol, AdaptiveSpec, Objective, OptSpec};
