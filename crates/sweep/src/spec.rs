//! Declarative scenario specifications.
//!
//! A *scenario spec* describes a whole family of experiments as data: which
//! protocols to evaluate, the parameter grids to cross (duty cycle, slot
//! length, drift, fault injection, …), which evaluation backend to use
//! (exact coverage-map analysis, Monte-Carlo simulation, or closed-form
//! bounds) and the simulation knobs. Specs are written in TOML or JSON
//! (parsed by [`crate::value`]) and validated strictly: unknown keys and
//! backend/axis mismatches are hard errors.
//!
//! ```toml
//! name = "strip-rescue"
//! backend = "montecarlo"
//! metric = "one-way"
//!
//! [radio]
//! omega_us = 36
//!
//! [grid]
//! protocol = ["diff-code:7:1,2,4"]
//! slot_us = [1000]
//! drift_ppm = [0, 10, 50, 100]
//! phase_us = [18]
//!
//! [sim]
//! trials = 1
//! horizon_ms = 20000
//! seed = 77
//! ```

use crate::value::{parse_json, parse_toml, Value};
use nd_core::coverage::OverlapModel;
use nd_core::stable::StableEncode;
use nd_core::time::Tick;
use std::collections::BTreeMap;
use std::fmt;

/// Version salt for every content hash: bump the final `abiN` component
/// whenever the engine's result semantics change (new backend behavior,
/// changed seed derivation, changed metric definitions), so stale cache
/// entries can never be served for new semantics. History: abi1 = initial
/// engine, abi2 = netsim backend + cohort axes, abi3 = per-trial seeds
/// derived via the audited `nd_core::seed::stream_seed` (SplitMix64),
/// abi4 = the montecarlo backend runs on `nd_netsim::NetSimulator` (fault
/// rolls from each receiver's private stream; measured η and energy over
/// the horizon for runs that reach it) and `SimConfig` lost its `trace`
/// field.
pub const ENGINE_VERSION: &str = concat!("nd-sweep/", env!("CARGO_PKG_VERSION"), "/abi4");

/// Spec loading/validation error.
#[derive(Debug)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid scenario spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

fn invalid<T>(msg: impl Into<String>) -> Result<T, SpecError> {
    Err(SpecError(msg.into()))
}

/// Which engine evaluates each grid point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Exact coverage-map analysis (`nd-analysis::exact`/`dist`): worst
    /// case, mean, percentiles and undiscovered probability, all to the
    /// nanosecond, no sampling error.
    Exact,
    /// Monte-Carlo pair campaigns on the discrete-event simulator
    /// (`nd-netsim`, an always-on pair): collisions, drift, fault
    /// injection, measured energy.
    MonteCarlo,
    /// Closed-form fundamental bounds (`nd-core::bounds`): no schedules
    /// are built at all.
    Bounds,
    /// N-node cohort simulation (`nd-netsim`): contending nodes, packet
    /// collisions, join/leave churn, per-node drift, cohort discovery
    /// metrics.
    Netsim,
}

impl Backend {
    /// Parse a `backend` spelling, naming the valid ones on error.
    pub fn parse(s: &str) -> Result<Self, SpecError> {
        match s {
            "exact" => Ok(Backend::Exact),
            "montecarlo" => Ok(Backend::MonteCarlo),
            "bounds" => Ok(Backend::Bounds),
            "netsim" => Ok(Backend::Netsim),
            other => invalid(format!(
                "unknown backend `{other}` (expected exact|montecarlo|bounds|netsim)"
            )),
        }
    }

    /// The spec spelling.
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Exact => "exact",
            Backend::MonteCarlo => "montecarlo",
            Backend::Bounds => "bounds",
            Backend::Netsim => "netsim",
        }
    }

    /// Whether this backend runs a stochastic simulator (and so honors the
    /// drift/fault axes and the `[sim]` table).
    pub fn is_simulation(&self) -> bool {
        matches!(self, Backend::MonteCarlo | Backend::Netsim)
    }
}

/// Which discovery completion a job evaluates (the spec's `metric` key).
pub use nd_core::Metric;

/// Parse a `metric` spelling, naming the valid ones on error.
pub fn parse_metric(s: &str) -> Result<Metric, SpecError> {
    Metric::from_name(s).ok_or_else(|| {
        SpecError(format!(
            "unknown metric `{s}` (expected one-way|two-way|either-way)"
        ))
    })
}

/// Radio model shared by every job of the sweep.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RadioSpec {
    /// Packet airtime ω.
    pub omega: Tick,
    /// TX/RX power ratio α.
    pub alpha: f64,
    /// Reception power draw in milliwatts (energy metrics only).
    pub prx_mw: f64,
}

impl Default for RadioSpec {
    fn default() -> Self {
        RadioSpec {
            omega: Tick::from_micros(36),
            alpha: 1.0,
            prx_mw: 10.0,
        }
    }
}

/// The parameter grid: every listed axis is crossed with every other
/// (cartesian product). An explicitly empty axis (`eta = []`) produces an
/// empty sweep — zero jobs — by design.
#[derive(Clone, Debug, PartialEq)]
pub struct Grid {
    /// Protocol axis: registry names (`nd-protocols::registry`, e.g.
    /// `"disco"`, `"optimal-slotless"`) or the parametrized form
    /// `"diff-code:<v>:<m1>,<m2>,…"` for an explicit difference set.
    /// This is *role A*'s protocol; device 1 (and the role-B share of a
    /// netsim cohort) runs role B, which defaults to role A.
    pub protocol: Vec<String>,
    /// Total duty-cycle targets η (ignored by parametrized protocols and
    /// interpreted as the *joint* budget η_E+η_F by the bounds backend —
    /// unless `eta_b` makes the pair explicitly asymmetric, in which case
    /// `eta` is η_E).
    pub eta: Vec<f64>,
    /// Slot lengths for slotted protocols.
    pub slot: Vec<Tick>,
    /// Role-B protocol axis; `None` = role B runs role A's protocol
    /// (the symmetric default every pre-existing spec uses).
    pub protocol_b: Option<Vec<String>>,
    /// Role-B duty-cycle targets η_F; `None` = role A's η. On the bounds
    /// backend this switches `eta`/`eta_b` to the explicit (η_E, η_F)
    /// parametrization of Theorem 5.7 (mutually exclusive with `ratio`).
    pub eta_b: Option<Vec<f64>>,
    /// Role-B slot lengths; `None` = role A's slot.
    pub slot_b: Option<Vec<Tick>>,
    /// Fraction of the cohort running role B (netsim only): `0.0` = all
    /// nodes are role A, `0.5` = an even split, `1.0` = all role B. The
    /// role-B node count is `round(mix · nodes)`, assigned to the
    /// highest node ids.
    pub mix: Vec<f64>,
    /// Relative clock drift of device B in ppm (montecarlo only).
    pub drift_ppm: Vec<i64>,
    /// I.i.d. reception-drop probability (montecarlo only).
    pub drop_probability: Vec<f64>,
    /// Total turnaround overhead d_oTxRx + d_oRxTx, split evenly
    /// (montecarlo only).
    pub turnaround: Vec<Tick>,
    /// Fixed initial phase of device B; `None` = independently random
    /// phases per trial (montecarlo only).
    pub phase: Option<Vec<Tick>>,
    /// Duty-cycle asymmetry ratio η_E/η_F (bounds backend only).
    pub ratio: Vec<f64>,
    /// Cohort sizes (netsim only).
    pub nodes: Vec<u32>,
    /// Churn fractions: the share of the cohort that joins late and leaves
    /// early, staggered over the horizon (netsim only).
    pub churn: Vec<f64>,
    /// Collision-channel toggle per grid point (netsim only; the pairwise
    /// montecarlo backend uses the single `sim.collisions` switch).
    pub collision: Vec<bool>,
}

impl Default for Grid {
    fn default() -> Self {
        Grid {
            protocol: vec!["optimal-slotless".to_string()],
            eta: vec![0.05],
            slot: vec![Tick::from_millis(1)],
            protocol_b: None,
            eta_b: None,
            slot_b: None,
            mix: vec![0.0],
            drift_ppm: vec![0],
            drop_probability: vec![0.0],
            turnaround: vec![Tick::ZERO],
            phase: None,
            ratio: vec![1.0],
            nodes: vec![2],
            churn: vec![0.0],
            collision: vec![true],
        }
    }
}

impl Grid {
    /// Whether any role-B axis departs from the symmetric default. Only
    /// then do the role axes enter content hashes — symmetric specs keep
    /// their pre-role hashes byte for byte.
    pub fn has_role_axes(&self) -> bool {
        self.protocol_b.is_some()
            || self.eta_b.is_some()
            || self.slot_b.is_some()
            || self.mix != vec![0.0]
    }
}

/// How long each Monte-Carlo trial may run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Horizon {
    /// A fixed wall-clock horizon.
    Fixed(Tick),
    /// A multiple of the schedule pair's exact worst-case two-way latency
    /// (the protocol's nominal guarantee), computed per job.
    PredictedTimes(f64),
}

/// Deadline for the `over_deadline_frac` metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Deadline {
    /// The exact worst-case two-way latency (nominal guarantee).
    Predicted,
    /// A fixed deadline.
    Fixed(Tick),
}

/// Monte-Carlo settings (ignored by the exact/bounds backends).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimSpec {
    /// Trials per grid point.
    pub trials: usize,
    /// Base seed; per-job seeds are derived from it and the job's content
    /// hash, so every job is deterministic and independent.
    pub seed: u64,
    /// Half-duplex radios (Appendix A.5 self-blocking).
    pub half_duplex: bool,
    /// ALOHA collisions (Eq. 12).
    pub collisions: bool,
    /// Trial horizon.
    pub horizon: Horizon,
    /// Optional deadline metric.
    pub deadline: Option<Deadline>,
}

impl Default for SimSpec {
    fn default() -> Self {
        SimSpec {
            trials: 100,
            seed: 0,
            half_duplex: true,
            collisions: true,
            horizon: Horizon::PredictedTimes(3.0),
            deadline: None,
        }
    }
}

/// A complete, validated scenario specification.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Human-readable name (not part of the content hash).
    pub name: String,
    /// Evaluation backend.
    pub backend: Backend,
    /// Discovery metric.
    pub metric: Metric,
    /// Reception overlap model.
    pub overlap: OverlapModel,
    /// Radio model.
    pub radio: RadioSpec,
    /// Parameter grid.
    pub grid: Grid,
    /// Monte-Carlo settings.
    pub sim: SimSpec,
    /// Exact backend: also compute the latency distribution percentiles
    /// (p50/p95/p99). Exact, but expensive for slotted schedules with many
    /// distinct beacon gaps — large grids over such protocols usually want
    /// `percentiles = false`.
    pub percentiles: bool,
}

impl ScenarioSpec {
    /// Parse a TOML scenario spec.
    pub fn from_toml_str(input: &str) -> Result<Self, SpecError> {
        let v = parse_toml(input).map_err(|e| SpecError(e.to_string()))?;
        Self::from_value(&v)
    }

    /// Parse a JSON scenario spec.
    pub fn from_json_str(input: &str) -> Result<Self, SpecError> {
        let v = parse_json(input).map_err(|e| SpecError(e.to_string()))?;
        Self::from_value(&v)
    }

    /// Load from a file, dispatching on the `.json` extension (anything
    /// else parses as TOML).
    pub fn from_file(path: &std::path::Path) -> Result<Self, SpecError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| SpecError(format!("cannot read {}: {e}", path.display())))?;
        if path.extension().is_some_and(|e| e == "json") {
            Self::from_json_str(&text)
        } else {
            Self::from_toml_str(&text)
        }
    }

    /// Build from a parsed [`Value`] tree, validating strictly.
    pub fn from_value(v: &Value) -> Result<Self, SpecError> {
        let top = v
            .as_table()
            .ok_or_else(|| SpecError("spec root must be a table".into()))?;
        check_keys(
            top,
            &[
                "name",
                "backend",
                "metric",
                "overlap",
                "percentiles",
                "radio",
                "grid",
                "sim",
            ],
            "top level",
        )?;

        let name = match top.get("name") {
            Some(v) => req_str(v, "name")?.to_string(),
            None => "unnamed".to_string(),
        };
        let backend = match top.get("backend") {
            Some(v) => Backend::parse(req_str(v, "backend")?)?,
            None => Backend::Exact,
        };
        let metric = match top.get("metric") {
            Some(v) => parse_metric(req_str(v, "metric")?)?,
            None => Metric::OneWay,
        };
        let overlap = match top.get("overlap") {
            Some(v) => match req_str(v, "overlap")? {
                "start" => OverlapModel::Start,
                "any-overlap" => OverlapModel::AnyOverlap,
                "full-packet" => OverlapModel::FullPacket,
                other => {
                    return invalid(format!(
                        "unknown overlap model `{other}` (expected start|any-overlap|full-packet)"
                    ))
                }
            },
            None => OverlapModel::Start,
        };

        let radio = match top.get("radio") {
            Some(v) => parse_radio(v)?,
            None => RadioSpec::default(),
        };
        let grid = match top.get("grid") {
            Some(v) => parse_grid(v)?,
            None => Grid::default(),
        };
        let sim = match top.get("sim") {
            Some(v) => parse_sim(v)?,
            None => SimSpec::default(),
        };

        let percentiles = match top.get("percentiles") {
            Some(v) => v
                .as_bool()
                .ok_or_else(|| SpecError("`percentiles` must be a boolean".into()))?,
            None => true,
        };

        let spec = ScenarioSpec {
            name,
            backend,
            metric,
            overlap,
            radio,
            grid,
            sim,
            percentiles,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// A copy of this spec with the Monte-Carlo trial budget replaced.
    ///
    /// `sim.trials` is part of every job's canonical bytes, so the
    /// partial-budget clone's jobs hash — and therefore cache and seed —
    /// independently of the full-budget spec's: a low-trial screening
    /// pass can never collide with (or poison) full-budget results, and
    /// its RNG streams are derived from its own content hash.
    pub fn with_trials(&self, trials: usize) -> ScenarioSpec {
        let mut spec = self.clone();
        spec.sim.trials = trials;
        spec
    }

    /// Cross-field validation: axes that only one backend honors are
    /// rejected elsewhere instead of being silently ignored.
    pub fn validate(&self) -> Result<(), SpecError> {
        let g = &self.grid;
        if !self.backend.is_simulation() {
            if g.drift_ppm != vec![0] {
                return invalid("drift_ppm axis requires backend = \"montecarlo\" or \"netsim\"");
            }
            if g.drop_probability != vec![0.0] {
                return invalid(
                    "drop_probability axis requires backend = \"montecarlo\" or \"netsim\"",
                );
            }
            if g.turnaround != vec![Tick::ZERO] {
                return invalid(
                    "turnaround_us axis requires backend = \"montecarlo\" or \"netsim\"",
                );
            }
        }
        if self.backend != Backend::MonteCarlo && g.phase.is_some() {
            return invalid("phase_us axis requires backend = \"montecarlo\"");
        }
        if self.backend != Backend::Netsim {
            if g.nodes != vec![2] {
                return invalid("nodes axis requires backend = \"netsim\"");
            }
            if g.churn != vec![0.0] {
                return invalid("churn axis requires backend = \"netsim\"");
            }
            if g.collision != vec![true] {
                return invalid("collision axis requires backend = \"netsim\"");
            }
        }
        if self.backend != Backend::Bounds && g.ratio != vec![1.0] {
            return invalid("ratio axis requires backend = \"bounds\"");
        }
        if self.backend == Backend::Bounds {
            if g.protocol_b.is_some() || g.slot_b.is_some() {
                return invalid(
                    "protocol_b/slot_us_b axes are meaningless on the bounds backend \
                     (no schedules are built; use eta_b for the Theorem 5.7 pair)",
                );
            }
            if g.eta_b.is_some() && g.ratio != vec![1.0] {
                return invalid(
                    "eta_b and ratio are mutually exclusive on the bounds backend \
                     (eta_b switches to the explicit (η_E, η_F) parametrization)",
                );
            }
        }
        if self.backend != Backend::Netsim && g.mix != vec![0.0] {
            return invalid("mix axis requires backend = \"netsim\"");
        }
        // the registry/selector constructions (and the coupled Theorem
        // 5.7 pair) are built for α = 1; a schedule-building backend with
        // role axes at a different α would be measured against a bound it
        // was not constructed for — reject instead of silently missing it
        if self.backend != Backend::Bounds && g.has_role_axes() && self.radio.alpha != 1.0 {
            return invalid(format!(
                "role-B axes with radio.alpha = {} are not supported: the pair \
                 constructions assume α = 1 (the bounds backend takes any α)",
                self.radio.alpha
            ));
        }
        let has_b_axis = g.protocol_b.is_some() || g.eta_b.is_some() || g.slot_b.is_some();
        if g.mix != vec![0.0] && !has_b_axis {
            return invalid(
                "mix axis without a role-B axis (protocol_b/eta_b/slot_us_b) has no effect",
            );
        }
        if self.backend == Backend::Netsim && has_b_axis && g.mix == vec![0.0] {
            return invalid(
                "role-B axes on the netsim backend need a mix axis (mix = [0.0] \
                 keeps the whole cohort on role A, so role B would be ignored)",
            );
        }
        for &m in &g.mix {
            if !(0.0..=1.0).contains(&m) {
                return invalid(format!("mix {m} out of [0, 1]"));
            }
        }
        if let Some(etas) = &g.eta_b {
            for &eta in etas {
                if !(eta > 0.0 && eta <= 1.0) {
                    return invalid(format!("eta_b {eta} out of (0, 1]"));
                }
            }
        }
        for &n in &g.nodes {
            if n < 2 {
                return invalid(format!("nodes {n} below 2 (discovery needs a pair)"));
            }
        }
        for &c in &g.churn {
            if !(0.0..=1.0).contains(&c) {
                return invalid(format!("churn {c} out of [0, 1]"));
            }
        }
        if self.backend == Backend::Exact && self.metric == Metric::EitherWay {
            return invalid("metric \"either-way\" is not supported by the exact backend");
        }
        for &p in &[self.radio.alpha, self.radio.prx_mw] {
            if !p.is_finite() || p <= 0.0 {
                return invalid("radio alpha/prx_mw must be positive and finite");
            }
        }
        for &eta in &g.eta {
            if !(eta > 0.0 && eta <= 1.0) && self.backend != Backend::Bounds {
                return invalid(format!("eta {eta} out of (0, 1]"));
            }
        }
        for &p in &g.drop_probability {
            if !(0.0..=1.0).contains(&p) {
                return invalid(format!("drop_probability {p} out of [0, 1]"));
            }
        }
        for &r in &g.ratio {
            if !(r.is_finite() && r > 0.0) {
                return invalid(format!("ratio {r} must be positive"));
            }
        }
        Ok(())
    }

    /// The spec's content hash: every semantic field (not the name), salted
    /// with [`ENGINE_VERSION`]. Two specs with the same hash produce
    /// byte-identical results.
    pub fn content_hash(&self) -> String {
        let mut bytes = Vec::new();
        ENGINE_VERSION.encode(&mut bytes);
        self.encode(&mut bytes);
        crate::hash::sha256_hex(&bytes)
    }
}

impl StableEncode for ScenarioSpec {
    fn encode(&self, out: &mut Vec<u8>) {
        // the name is cosmetic and deliberately excluded
        self.backend.name().encode(out);
        self.metric.name().encode(out);
        self.overlap.encode(out);
        self.percentiles.encode(out);
        self.radio.omega.encode(out);
        self.radio.alpha.encode(out);
        self.radio.prx_mw.encode(out);
        self.grid.protocol.encode(out);
        self.grid.eta.encode(out);
        self.grid.slot.encode(out);
        let drift: Vec<i64> = self.grid.drift_ppm.clone();
        drift.encode(out);
        self.grid.drop_probability.encode(out);
        self.grid.turnaround.encode(out);
        self.grid.phase.as_ref().map(|p| p.to_vec()).encode(out);
        self.grid.ratio.encode(out);
        let nodes: Vec<u64> = self.grid.nodes.iter().map(|&n| n as u64).collect();
        nodes.encode(out);
        self.grid.churn.encode(out);
        self.grid.collision.encode(out);
        self.sim.trials.encode(out);
        self.sim.seed.encode(out);
        self.sim.half_duplex.encode(out);
        self.sim.collisions.encode(out);
        match self.sim.horizon {
            Horizon::Fixed(t) => {
                "fixed".encode(out);
                t.encode(out);
            }
            Horizon::PredictedTimes(x) => {
                "predicted".encode(out);
                x.encode(out);
            }
        }
        match self.sim.deadline {
            None => "none".encode(out),
            Some(Deadline::Predicted) => "predicted".encode(out),
            Some(Deadline::Fixed(t)) => {
                "fixed".encode(out);
                t.encode(out);
            }
        }
        // the role-B axes entered the grammar after abi3; they are
        // appended only when asymmetric so every pre-existing symmetric
        // spec keeps its content hash byte for byte (no cache
        // invalidation, no ENGINE_VERSION bump)
        if self.grid.has_role_axes() {
            "role-b".encode(out);
            self.grid.protocol_b.encode(out);
            self.grid.eta_b.encode(out);
            self.grid.slot_b.encode(out);
            self.grid.mix.encode(out);
        }
    }
}

fn check_keys(
    table: &BTreeMap<String, Value>,
    allowed: &[&str],
    ctx: &str,
) -> Result<(), SpecError> {
    for key in table.keys() {
        if !allowed.contains(&key.as_str()) {
            return invalid(format!(
                "unknown key `{key}` in {ctx} (allowed: {})",
                allowed.join(", ")
            ));
        }
    }
    Ok(())
}

fn req_str<'a>(v: &'a Value, what: &str) -> Result<&'a str, SpecError> {
    v.as_str()
        .ok_or_else(|| SpecError(format!("`{what}` must be a string")))
}

fn req_f64(v: &Value, what: &str) -> Result<f64, SpecError> {
    v.as_f64()
        .ok_or_else(|| SpecError(format!("`{what}` must be a number")))
}

fn f64_list(v: &Value, what: &str) -> Result<Vec<f64>, SpecError> {
    let arr = v
        .as_array()
        .ok_or_else(|| SpecError(format!("`{what}` must be an array")))?;
    arr.iter().map(|x| req_f64(x, what)).collect()
}

fn ticks_from_us(v: &Value, what: &str) -> Result<Vec<Tick>, SpecError> {
    f64_list(v, what)?
        .into_iter()
        .map(|us| {
            if !(us.is_finite() && us >= 0.0) {
                invalid(format!("`{what}` entries must be non-negative, got {us}"))
            } else {
                Ok(Tick::from_secs_f64(us * 1e-6))
            }
        })
        .collect()
}

fn parse_radio(v: &Value) -> Result<RadioSpec, SpecError> {
    let t = v
        .as_table()
        .ok_or_else(|| SpecError("`radio` must be a table".into()))?;
    check_keys(t, &["omega_us", "alpha", "prx_mw"], "[radio]")?;
    let mut radio = RadioSpec::default();
    if let Some(v) = t.get("omega_us") {
        radio.omega = Tick::from_secs_f64(req_f64(v, "radio.omega_us")? * 1e-6);
    }
    if let Some(v) = t.get("alpha") {
        radio.alpha = req_f64(v, "radio.alpha")?;
    }
    if let Some(v) = t.get("prx_mw") {
        radio.prx_mw = req_f64(v, "radio.prx_mw")?;
    }
    Ok(radio)
}

fn parse_grid(v: &Value) -> Result<Grid, SpecError> {
    let t = v
        .as_table()
        .ok_or_else(|| SpecError("`grid` must be a table".into()))?;
    check_keys(
        t,
        &[
            "protocol",
            "eta",
            "slot_us",
            "protocol_b",
            "eta_b",
            "slot_us_b",
            "mix",
            "drift_ppm",
            "drop_probability",
            "turnaround_us",
            "phase_us",
            "ratio",
            "nodes",
            "churn",
            "collision",
        ],
        "[grid]",
    )?;
    let string_list = |v: &Value, what: &str| -> Result<Vec<String>, SpecError> {
        let arr = v
            .as_array()
            .ok_or_else(|| SpecError(format!("`{what}` must be an array")))?;
        arr.iter()
            .map(|x| req_str(x, what).map(str::to_string))
            .collect()
    };
    let mut grid = Grid::default();
    if let Some(v) = t.get("protocol") {
        grid.protocol = string_list(v, "grid.protocol")?;
    }
    if let Some(v) = t.get("eta") {
        grid.eta = f64_list(v, "grid.eta")?;
    }
    if let Some(v) = t.get("slot_us") {
        grid.slot = ticks_from_us(v, "grid.slot_us")?;
    }
    if let Some(v) = t.get("protocol_b") {
        grid.protocol_b = Some(string_list(v, "grid.protocol_b")?);
    }
    if let Some(v) = t.get("eta_b") {
        grid.eta_b = Some(f64_list(v, "grid.eta_b")?);
    }
    if let Some(v) = t.get("slot_us_b") {
        grid.slot_b = Some(ticks_from_us(v, "grid.slot_us_b")?);
    }
    if let Some(v) = t.get("mix") {
        grid.mix = f64_list(v, "grid.mix")?;
    }
    if let Some(v) = t.get("drift_ppm") {
        let arr = v
            .as_array()
            .ok_or_else(|| SpecError("`grid.drift_ppm` must be an array".into()))?;
        grid.drift_ppm = arr
            .iter()
            .map(|x| {
                x.as_i64()
                    .ok_or_else(|| SpecError("`grid.drift_ppm` entries must be integers".into()))
            })
            .collect::<Result<_, _>>()?;
    }
    if let Some(v) = t.get("drop_probability") {
        grid.drop_probability = f64_list(v, "grid.drop_probability")?;
    }
    if let Some(v) = t.get("turnaround_us") {
        grid.turnaround = ticks_from_us(v, "grid.turnaround_us")?;
    }
    if let Some(v) = t.get("phase_us") {
        grid.phase = Some(ticks_from_us(v, "grid.phase_us")?);
    }
    if let Some(v) = t.get("ratio") {
        grid.ratio = f64_list(v, "grid.ratio")?;
    }
    if let Some(v) = t.get("nodes") {
        let arr = v
            .as_array()
            .ok_or_else(|| SpecError("`grid.nodes` must be an array".into()))?;
        grid.nodes = arr
            .iter()
            .map(|x| match x.as_i64() {
                Some(n) if (0..=u32::MAX as i64).contains(&n) => Ok(n as u32),
                _ => invalid("`grid.nodes` entries must be non-negative integers"),
            })
            .collect::<Result<_, _>>()?;
    }
    if let Some(v) = t.get("churn") {
        grid.churn = f64_list(v, "grid.churn")?;
    }
    if let Some(v) = t.get("collision") {
        let arr = v
            .as_array()
            .ok_or_else(|| SpecError("`grid.collision` must be an array".into()))?;
        grid.collision = arr
            .iter()
            .map(|x| {
                x.as_bool()
                    .ok_or_else(|| SpecError("`grid.collision` entries must be booleans".into()))
            })
            .collect::<Result<_, _>>()?;
    }
    Ok(grid)
}

fn parse_sim(v: &Value) -> Result<SimSpec, SpecError> {
    let t = v
        .as_table()
        .ok_or_else(|| SpecError("`sim` must be a table".into()))?;
    check_keys(
        t,
        &[
            "trials",
            "seed",
            "half_duplex",
            "collisions",
            "horizon_ms",
            "horizon_predicted_x",
            "deadline_ms",
            "deadline",
        ],
        "[sim]",
    )?;
    let mut sim = SimSpec::default();
    if let Some(v) = t.get("trials") {
        let n = v
            .as_i64()
            .ok_or_else(|| SpecError("`sim.trials` must be an integer".into()))?;
        if n < 0 {
            return invalid("`sim.trials` must be non-negative");
        }
        sim.trials = n as usize;
    }
    if let Some(v) = t.get("seed") {
        let s = v
            .as_i64()
            .ok_or_else(|| SpecError("`sim.seed` must be an integer".into()))?;
        sim.seed = s as u64;
    }
    if let Some(v) = t.get("half_duplex") {
        sim.half_duplex = v
            .as_bool()
            .ok_or_else(|| SpecError("`sim.half_duplex` must be a boolean".into()))?;
    }
    if let Some(v) = t.get("collisions") {
        sim.collisions = v
            .as_bool()
            .ok_or_else(|| SpecError("`sim.collisions` must be a boolean".into()))?;
    }
    match (t.get("horizon_ms"), t.get("horizon_predicted_x")) {
        (Some(_), Some(_)) => {
            return invalid("`sim.horizon_ms` and `sim.horizon_predicted_x` are mutually exclusive")
        }
        (Some(v), None) => {
            sim.horizon = Horizon::Fixed(Tick::from_secs_f64(req_f64(v, "sim.horizon_ms")? * 1e-3));
        }
        (None, Some(v)) => {
            sim.horizon = Horizon::PredictedTimes(req_f64(v, "sim.horizon_predicted_x")?);
        }
        (None, None) => {}
    }
    match (t.get("deadline"), t.get("deadline_ms")) {
        (Some(_), Some(_)) => {
            return invalid("`sim.deadline` and `sim.deadline_ms` are mutually exclusive")
        }
        (Some(v), None) => {
            let s = req_str(v, "sim.deadline")?;
            if s != "predicted" {
                return invalid("`sim.deadline` only accepts \"predicted\" (or use deadline_ms)");
            }
            sim.deadline = Some(Deadline::Predicted);
        }
        (None, Some(v)) => {
            sim.deadline = Some(Deadline::Fixed(Tick::from_secs_f64(
                req_f64(v, "sim.deadline_ms")? * 1e-3,
            )));
        }
        (None, None) => {}
    }
    Ok(sim)
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEMO: &str = r#"
name = "demo"
backend = "montecarlo"
metric = "two-way"

[radio]
omega_us = 36
alpha = 1.0

[grid]
protocol = ["optimal-slotless", "disco"]
eta = [0.01, 0.05]
slot_us = [1000]
drift_ppm = [0, 50]

[sim]
trials = 10
seed = 7
horizon_predicted_x = 2.5
deadline = "predicted"
"#;

    #[test]
    fn parses_full_spec() {
        let s = ScenarioSpec::from_toml_str(DEMO).unwrap();
        assert_eq!(s.name, "demo");
        assert_eq!(s.backend, Backend::MonteCarlo);
        assert_eq!(s.metric, Metric::TwoWay);
        assert_eq!(s.grid.protocol.len(), 2);
        assert_eq!(s.grid.drift_ppm, vec![0, 50]);
        assert_eq!(s.sim.trials, 10);
        assert_eq!(s.sim.horizon, Horizon::PredictedTimes(2.5));
        assert_eq!(s.sim.deadline, Some(Deadline::Predicted));
    }

    #[test]
    fn rejects_unknown_keys_and_mismatched_axes() {
        assert!(ScenarioSpec::from_toml_str("nome = \"typo\"")
            .unwrap_err()
            .to_string()
            .contains("unknown key"));
        // drift on the exact backend is an error, not silently ignored
        let bad = "backend = \"exact\"\n[grid]\ndrift_ppm = [10]\n";
        assert!(ScenarioSpec::from_toml_str(bad)
            .unwrap_err()
            .to_string()
            .contains("drift_ppm"));
        let bad = "backend = \"exact\"\nmetric = \"either-way\"\n";
        assert!(ScenarioSpec::from_toml_str(bad).is_err());
    }

    #[test]
    fn content_hash_ignores_name_but_not_semantics() {
        let a = ScenarioSpec::from_toml_str(DEMO).unwrap();
        let mut renamed = a.clone();
        renamed.name = "other".into();
        assert_eq!(a.content_hash(), renamed.content_hash());

        let mut tweaked = a.clone();
        tweaked.sim.seed = 8;
        assert_ne!(a.content_hash(), tweaked.content_hash());

        let mut axis = a.clone();
        axis.grid.eta.push(0.10);
        assert_ne!(a.content_hash(), axis.content_hash());
    }

    #[test]
    fn partial_budget_jobs_hash_and_seed_independently() {
        // the adaptive screening contract: a reduced-trials clone of a
        // spec produces jobs with distinct cache keys AND distinct RNG
        // seeds, so screening results can never collide with — or leak
        // into — the full-budget universe
        let full = ScenarioSpec::from_toml_str(DEMO).unwrap();
        let screen = full.with_trials(3);
        assert_eq!(screen.sim.trials, 3);
        assert_eq!(full.sim.trials, 10, "with_trials must not mutate self");
        let full_jobs = crate::grid::expand(&full);
        let screen_jobs = crate::grid::expand(&screen);
        assert_eq!(full_jobs.len(), screen_jobs.len());
        for (f, s) in full_jobs.iter().zip(&screen_jobs) {
            assert_ne!(f.content_hash(&full), s.content_hash(&screen));
            assert_ne!(f.seed(&full), s.seed(&screen));
        }
        // and the same budget round-trips to the same hashes
        let same = full.with_trials(full.sim.trials);
        for (f, s) in full_jobs.iter().zip(crate::grid::expand(&same).iter()) {
            assert_eq!(f.content_hash(&full), s.content_hash(&same));
        }
    }

    #[test]
    fn netsim_axes_parse_and_are_fenced_to_the_backend() {
        let s = ScenarioSpec::from_toml_str(
            "backend = \"netsim\"\n[grid]\nnodes = [2, 8]\nchurn = [0.0, 0.3]\ncollision = [true, false]\ndrift_ppm = [0, 50]\n",
        )
        .unwrap();
        assert_eq!(s.backend, Backend::Netsim);
        assert_eq!(s.grid.nodes, vec![2, 8]);
        assert_eq!(s.grid.churn, vec![0.0, 0.3]);
        assert_eq!(s.grid.collision, vec![true, false]);

        // cohort axes on a pairwise backend are errors, not ignored
        for bad in [
            "backend = \"exact\"\n[grid]\nnodes = [4]\n",
            "backend = \"montecarlo\"\n[grid]\nchurn = [0.5]\n",
            "backend = \"montecarlo\"\n[grid]\ncollision = [false]\n",
            // and netsim rejects what it cannot honor
            "backend = \"netsim\"\n[grid]\nphase_us = [10]\n",
            "backend = \"netsim\"\n[grid]\nnodes = [1]\n",
            "backend = \"netsim\"\n[grid]\nchurn = [1.5]\n",
        ] {
            assert!(ScenarioSpec::from_toml_str(bad).is_err(), "{bad}");
        }
        // drift and faults are shared by both simulation backends
        assert!(ScenarioSpec::from_toml_str(
            "backend = \"netsim\"\n[grid]\ndrop_probability = [0.1]\n"
        )
        .is_ok());
    }

    #[test]
    fn netsim_axes_feed_the_content_hash() {
        let base =
            ScenarioSpec::from_toml_str("backend = \"netsim\"\n[grid]\nnodes = [4]\n").unwrap();
        let mut nodes = base.clone();
        nodes.grid.nodes = vec![8];
        assert_ne!(base.content_hash(), nodes.content_hash());
        let mut churn = base.clone();
        churn.grid.churn = vec![0.5];
        assert_ne!(base.content_hash(), churn.content_hash());
        let mut coll = base.clone();
        coll.grid.collision = vec![false];
        assert_ne!(base.content_hash(), coll.content_hash());
    }

    #[test]
    fn role_axes_parse_validate_and_gate_the_hash() {
        let s = ScenarioSpec::from_toml_str(
            "backend = \"montecarlo\"\n[grid]\nprotocol = [\"optimal-slotless\"]\n\
             eta = [0.02]\nprotocol_b = [\"disco\"]\neta_b = [0.10, 0.20]\nslot_us_b = [2000]\n",
        )
        .unwrap();
        assert_eq!(s.grid.protocol_b, Some(vec!["disco".to_string()]));
        assert_eq!(s.grid.eta_b, Some(vec![0.10, 0.20]));
        assert!(s.grid.has_role_axes());

        // a netsim mix axis needs a role-B axis to mix in
        let mixed = ScenarioSpec::from_toml_str(
            "backend = \"netsim\"\n[grid]\neta = [0.05]\neta_b = [0.2]\nmix = [0.0, 0.5]\n",
        )
        .unwrap();
        assert_eq!(mixed.grid.mix, vec![0.0, 0.5]);

        for (bad, needle) in [
            // mix is a cohort axis
            (
                "backend = \"montecarlo\"\n[grid]\neta_b = [0.1]\nmix = [0.5]\n",
                "netsim",
            ),
            // mix without a role-B axis has nothing to mix
            ("backend = \"netsim\"\n[grid]\nmix = [0.5]\n", "no effect"),
            // …and netsim role-B axes without a mix axis would be ignored
            (
                "backend = \"netsim\"\n[grid]\neta_b = [0.2]\n",
                "need a mix axis",
            ),
            (
                "backend = \"netsim\"\n[grid]\neta_b = [0.1]\nmix = [1.5]\n",
                "out of [0, 1]",
            ),
            ("[grid]\neta_b = [0.0]\n", "out of (0, 1]"),
            // bounds takes eta_b (Theorem 5.7 pairs) but not schedules
            (
                "backend = \"bounds\"\n[grid]\nprotocol_b = [\"disco\"]\n",
                "meaningless",
            ),
            (
                "backend = \"bounds\"\n[grid]\neta_b = [0.1]\nratio = [2.0]\n",
                "mutually exclusive",
            ),
            // role pairs are α = 1 constructions on schedule-building
            // backends (the closed-form bounds backend takes any α)
            (
                "backend = \"exact\"\n[radio]\nalpha = 2.0\n[grid]\neta_b = [0.1]\n",
                "alpha",
            ),
        ] {
            let err = ScenarioSpec::from_toml_str(bad).unwrap_err().to_string();
            assert!(err.contains(needle), "`{bad}` → `{err}`");
        }

        // hash gating: the symmetric spec's hash has no role-B bytes
        let sym = ScenarioSpec::from_toml_str("[grid]\neta = [0.05]\n").unwrap();
        let mut with_b = sym.clone();
        with_b.grid.eta_b = Some(vec![0.02]);
        assert_ne!(sym.content_hash(), with_b.content_hash());
        let mut with_mix = sym.clone();
        with_mix.backend = Backend::Netsim;
        let sym_netsim = {
            let mut s = sym.clone();
            s.backend = Backend::Netsim;
            s
        };
        with_mix.grid.eta_b = Some(vec![0.02]);
        with_mix.grid.mix = vec![0.5];
        assert_ne!(sym_netsim.content_hash(), with_mix.content_hash());
    }

    #[test]
    fn json_specs_parse_too() {
        let json = r#"{"name": "j", "backend": "bounds",
                       "grid": {"protocol": ["bound"], "eta": [0.05], "ratio": [1, 2]}}"#;
        let s = ScenarioSpec::from_json_str(json).unwrap();
        assert_eq!(s.backend, Backend::Bounds);
        assert_eq!(s.grid.ratio, vec![1.0, 2.0]);
    }

    #[test]
    fn defaults_are_sane() {
        let s = ScenarioSpec::from_toml_str("name = \"d\"").unwrap();
        assert_eq!(s.backend, Backend::Exact);
        assert_eq!(s.metric, Metric::OneWay);
        assert_eq!(s.radio.omega, Tick::from_micros(36));
        assert_eq!(s.grid.protocol, vec!["optimal-slotless".to_string()]);
    }
}
