//! The first-hit kernel behind every exact result.
//!
//! For a beacon train `B` against periodic reception windows `C`, the
//! coverage map of Section 4 asks, for every offset `Φ₁ ∈ [0, T_C)` of
//! the first in-range beacon, which beacon is the first to land in a
//! window. Only those *first hits* matter: their delays are the
//! packet-to-packet latencies `l*(Φ₁)`, and their distribution over a
//! uniform offset is all that worst case, mean, undiscovered mass and
//! the latency distribution read. [`FirstHits::compute`] finds them once
//! per schedule pair, for every starting beacon (phase) at once.
//!
//! Beacon `j` of the train (counted across periods, `A_j = t_{j mod m_B}
//! + ⌊j/m_B⌋·T_B`) covers the image `I_j = Ω₁ − (A_j − A_0) mod T_C` of
//! the reception offsets `Ω₁`; the phase starting at beacon `k` sees the
//! same images translated by `A_k − A_0`.
//!
//! * **Forward pass** (phase 0): walk the images in delay order against a
//!   shrinking uncovered set. What image `n` cuts out of the uncovered set
//!   is exactly the set of offsets it hits first, so the cut pieces are
//!   the first-hit map and their measures its distribution. One merge of
//!   the uncovered set against the image yields both the cut pieces (∩)
//!   and the next uncovered set (\), into two buffers reused across
//!   images ([`IntervalSet::cut_into`]). The walk
//!   stops when the period is covered, or when the covered measure
//!   reaches the largest measure any expansion can cover (later images
//!   can hit nothing first). That bound is settled only if the first
//!   beacon period leaves offsets uncovered: by the images of one whole
//!   hyperperiod when that is no longer, else by the residue fold of
//!   [`crate::residue`]. Gaps that are all equal make every phase
//!   equivalent, so this pass is the whole answer.
//! * **Reverse painting** (unequal gaps): paint the images `j = m_B + n₀
//!   − 1, …, 0` into one owner map over `[0, T_C)`, each overwriting what
//!   it covers. Right after image `k` is painted, every offset is owned by
//!   the smallest `j ≥ k` whose image holds it — phase `k`'s first hit.
//!   The range suffices: `A_{j+m_B} = A_j + T_B` makes the images of phase
//!   `m_B` those of phase 0 translated, so the images `k … m_B + n₀ − 1`
//!   already contain a full phase-`m_B` expansion and every phase `k <
//!   m_B` needs at most `n₀ + m_B − k` beacons. The owner map is a flat
//!   array over cells: the sorted distinct edges of the painted images and
//!   the phase origins cut `[0, T_C)` once per pair, and painting an image
//!   interval fills its range of cells.
//!
//! The results are bit-identical to expanding each phase separately and
//! sweeping its coverage map: each phase keeps the same beacon count, the
//! same per-delay masses (exact integers), and sums its mean over
//! maximal constant segments in offset order, as
//! [`nd_core::coverage::FirstHitProfile::mean`] does. The cells change
//! only how the owner map is stored, not what it holds: no image edge
//! falls inside a cell, so every cell lies wholly inside or outside each
//! painted interval and has one owner per offset, the same as before. Masses
//! are integer sums of cell lengths, and since each phase origin is a cell
//! edge, the mean's walk from that origin meets the same maximal runs in
//! the same order.

use crate::exact::{AnalysisConfig, CoverageCase, WorstCase};
use crate::residue::ultimate_covered_measure;
use nd_core::error::NdError;
use nd_core::interval::{Interval, IntervalSet};
use nd_core::schedule::{gcd, BeaconSeq, ReceptionWindows};
use nd_core::time::Tick;
use std::fmt;

/// Why a first-hit computation failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FirstHitError {
    /// The windows admit no successful reception under the overlap model.
    NoReception,
    /// Some phase was still gaining coverage after `max_beacons` beacons.
    Budget {
        /// The exhausted [`AnalysisConfig::max_beacons`].
        max_beacons: usize,
    },
}

impl fmt::Display for FirstHitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FirstHitError::NoReception => {
                f.write_str("reception windows admit no successful packet under this model")
            }
            FirstHitError::Budget { max_beacons } => write!(
                f,
                "coverage still growing after {max_beacons} beacons — raise max_beacons"
            ),
        }
    }
}

impl From<FirstHitError> for NdError {
    fn from(e: FirstHitError) -> Self {
        NdError::AnalysisFailed(e.to_string())
    }
}

/// The first hits of one starting phase.
#[derive(Clone, Debug)]
pub(crate) struct Phase {
    /// The beacon gap preceding the phase's first beacon.
    pub(crate) gap: Tick,
    /// `(l*, measure in ns)` for every first-hit delay, ascending.
    pub(crate) hist: Vec<(Tick, u64)>,
    /// Measure (ns) of the offsets no beacon ever hits.
    pub(crate) uncovered: u64,
    /// Mean `l*` over the covered offsets.
    pub(crate) mean_covered: f64,
    /// Beacons the phase expands before its coverage stops growing.
    pub(crate) beacons: usize,
}

/// The first-hit structure of one discovery direction: for each analyzed
/// starting phase, the exact distribution of `l*` over a uniform offset.
#[derive(Clone, Debug)]
pub struct FirstHits {
    /// The reception period `T_C`.
    pub(crate) period: Tick,
    /// The beacon period `T_B`.
    pub(crate) beacon_period: Tick,
    n_beacons: usize,
    /// All beacon gaps are equal: phase 0 stands for every phase.
    pub(crate) uniform: bool,
    /// The analyzed phases, by starting beacon.
    pub(crate) phases: Vec<Phase>,
    images: usize,
}

impl FirstHits {
    /// Compute the first hits of `beacons` against `windows` for every
    /// starting phase (only phase 0 when all beacon gaps are equal).
    pub fn compute(
        beacons: &BeaconSeq,
        windows: &ReceptionWindows,
        cfg: &AnalysisConfig,
    ) -> Result<FirstHits, FirstHitError> {
        let base = cfg.model.reception_offsets(windows, cfg.omega);
        if base.is_empty() {
            return Err(FirstHitError::NoReception);
        }
        let period = windows.period();
        let p = period.as_nanos();
        let train = Train::new(beacons, p);
        // all distinct images appear within one lcm(T_B, T_C) of beacons
        let t_b = beacons.period().as_nanos();
        let distinct = (t_b / gcd(t_b, p))
            .checked_mul(p)
            .map(|l| (l / t_b).saturating_mul(train.m as u64))
            .unwrap_or(u64::MAX);
        let mut limits = Limits {
            ultimate: p,
            distinct,
            max_beacons: cfg.max_beacons,
        };
        let gaps = beacons.gaps();
        let uniform = gaps.iter().all(|&g| g == gaps[0]);
        let gap_before = |k: usize| gaps[(k + train.m - 1) % train.m];

        let fwd = forward(&base, &train, &mut limits, || {
            ultimate_covered_measure(&base, beacons, period).as_nanos()
        })?;
        let n0 = fwd.n;
        let (phases, images) = if uniform {
            (vec![fwd.into_phase(gap_before(0), &train)], n0)
        } else {
            let phases = paint(&base, &train, &limits, n0, gap_before)?;
            (phases, n0 + train.m + n0)
        };
        Ok(FirstHits {
            period,
            beacon_period: beacons.period(),
            n_beacons: train.m,
            uniform,
            phases,
            images,
        })
    }

    /// The starting phases analyzed: 1 when all beacon gaps are equal,
    /// `m_B` otherwise.
    pub fn phases(&self) -> usize {
        self.phases.len()
    }

    /// Beacon images the computation expanded or painted.
    pub fn images(&self) -> usize {
        self.images
    }

    /// The most beacons any phase expands before its coverage stops
    /// growing (the observed `M`).
    pub fn beacons_needed(&self) -> usize {
        self.phases.iter().map(|ph| ph.beacons).max().unwrap_or(0)
    }

    /// How the computation ended: `"covered"` when every phase covers
    /// the whole period, `"saturated"` when some offsets are never
    /// covered.
    pub fn exit(&self) -> &'static str {
        if self.phases.iter().all(|ph| ph.uncovered == 0) {
            "covered"
        } else {
            "saturated"
        }
    }

    /// The coverage-aware one-way result (see [`crate::one_way_coverage`]).
    pub fn coverage(&self) -> CoverageCase {
        let mut worst = Tick::ZERO;
        let mut worst_l_star = Tick::ZERO;
        // Σ over phases of (λ²/2 + λ·mean_k) for the mean, and of
        // λ·uncovered_k for the failure probability; normalized by T_B
        let mut mean_acc = 0.0;
        let mut uncovered_acc = 0.0;
        let p = self.period.as_nanos() as f64;
        // phase 0 stands for all m_B phases when the gaps are equal
        let weight = if self.uniform {
            self.n_beacons as f64
        } else {
            1.0
        };
        for ph in &self.phases {
            if let Some(&(l_star, _)) = ph.hist.last() {
                worst_l_star = worst_l_star.max(l_star);
                worst = worst.max(ph.gap + l_star);
            }
            let lam = ph.gap.as_secs_f64();
            mean_acc += weight * (lam * lam / 2.0 + lam * ph.mean_covered);
            uncovered_acc += weight * lam * (ph.uncovered as f64 / p);
        }
        let t_b = self.beacon_period.as_secs_f64();
        CoverageCase {
            worst_covered: worst,
            packet_to_packet: worst_l_star,
            undiscovered_probability: uncovered_acc / t_b,
            mean_covered: mean_acc / t_b,
            beacons_needed: self.beacons_needed(),
        }
    }

    /// The strict one-way result (see [`crate::one_way_worst_case`]):
    /// fails if any offset is never covered.
    pub fn worst_case(&self) -> Result<WorstCase, NdError> {
        let c = self.coverage();
        if !c.is_deterministic() {
            return Err(NdError::AnalysisFailed(format!(
                "not deterministic: {:.4} % of offsets are never covered",
                c.undiscovered_probability * 100.0
            )));
        }
        Ok(WorstCase {
            latency: c.worst_covered,
            packet_to_packet: c.packet_to_packet,
            mean: c.mean_covered,
            beacons_needed: c.beacons_needed,
        })
    }
}

/// The beacon train's absolute instants `A_j`, in ns.
struct Train<'a> {
    times: &'a [Tick],
    t_b: u64,
    m: usize,
    /// The reception period `T_C`.
    p: u64,
}

impl<'a> Train<'a> {
    fn new(beacons: &'a BeaconSeq, p: u64) -> Self {
        Train {
            times: beacons.times(),
            t_b: beacons.period().as_nanos(),
            m: beacons.n_beacons(),
            p,
        }
    }

    fn at(&self, j: usize) -> u64 {
        self.times[j % self.m].as_nanos() + self.t_b * (j / self.m) as u64
    }

    /// `A_j − A_k`: the delay of beacon `j` in the phase starting at `k`.
    fn delay(&self, k: usize, j: usize) -> Tick {
        Tick(self.at(j) - self.at(k))
    }

    /// Where phase `k`'s offset 0 sits in phase 0's frame:
    /// `−(A_k − A_0) mod T_C`.
    fn shift(&self, k: usize) -> u64 {
        (self.p - self.delay(0, k).as_nanos() % self.p) % self.p
    }

    /// Image `j` of the reception offsets `base` in phase 0's frame.
    fn image(&self, base: &IntervalSet, j: usize) -> IntervalSet {
        base.shift_mod(i128::from(self.shift(j)), Tick(self.p))
    }
}

/// When an expansion stops.
struct Limits {
    /// The largest measure (ns) any expansion can cover, as settled by
    /// the forward pass.
    ultimate: u64,
    /// Distinct images in one hyperperiod.
    distinct: u64,
    max_beacons: usize,
}

impl Limits {
    /// The beacon count of a phase whose last first hit is its image
    /// `top` (counted from the phase's first beacon) and whose hits cover
    /// `covered`, exactly where a phase-by-phase expansion stops: at
    /// saturation, else when the distinct images run out — or over budget.
    fn beacons(&self, covered: u64, top: usize) -> Result<usize, FirstHitError> {
        let (n, over) = if covered >= self.ultimate {
            (top + 1, top + 1 > self.max_beacons)
        } else {
            let d = self.distinct.min(usize::MAX as u64) as usize;
            (d, d >= self.max_beacons)
        };
        if over {
            return Err(FirstHitError::Budget {
                max_beacons: self.max_beacons,
            });
        }
        Ok(n)
    }
}

/// Phase 0's forward pass.
struct Forward {
    /// Beacons expanded.
    n: usize,
    /// Measure (ns) each image hit first, by image.
    mass: Vec<u64>,
    /// The first-hit pieces with their image, in cut order.
    pieces: Vec<(Interval, usize)>,
    /// Total measure covered (ns).
    covered: u64,
}

/// Expand phase 0 until the period is covered or coverage saturates at
/// `limits.ultimate`, which this pass settles: the period itself while
/// coverage keeps growing, and — only once the first beacon period (or
/// the budget) has not covered it — the exact bound, from one
/// hyperperiod's images when they are all in, else from `fold`. A
/// saturation found late is dated exactly: coverage stopped growing with
/// the last image that hit anything.
fn forward(
    base: &IntervalSet,
    train: &Train<'_>,
    limits: &mut Limits,
    fold: impl FnOnce() -> u64,
) -> Result<Forward, FirstHitError> {
    let p = train.p;
    let mut uncovered = IntervalSet::single(Tick::ZERO, Tick(p));
    // what each image cuts, and the uncovered set it leaves
    let (mut hits, mut rest) = (IntervalSet::empty(), IntervalSet::empty());
    let mut fwd = Forward {
        n: 0,
        mass: Vec::new(),
        pieces: Vec::new(),
        covered: 0,
    };
    let mut fold = Some(fold);
    let mut last_hit = 0;
    while fwd.covered < p {
        let all_in = fwd.n as u64 >= limits.distinct;
        if fold.is_some() && (all_in || fwd.n >= train.m || fwd.n >= limits.max_beacons) {
            let settle = fold.take().expect("checked above");
            limits.ultimate = if all_in { fwd.covered } else { settle() };
            if fwd.covered >= limits.ultimate {
                fwd.n = last_hit + 1;
                fwd.mass.truncate(fwd.n);
                break;
            }
        }
        if fwd.n >= limits.max_beacons {
            return Err(FirstHitError::Budget {
                max_beacons: limits.max_beacons,
            });
        }
        if all_in {
            break; // coverage can no longer grow
        }
        let j = fwd.n;
        uncovered.cut_into(&train.image(base, j), &mut hits, &mut rest);
        std::mem::swap(&mut uncovered, &mut rest);
        let mut hit = 0;
        for &piece in hits.intervals() {
            hit += piece.measure().as_nanos();
            fwd.pieces.push((piece, j));
        }
        if hit > 0 {
            last_hit = j;
        }
        fwd.mass.push(hit);
        fwd.covered += hit;
        fwd.n += 1;
        if fwd.covered >= limits.ultimate {
            break; // saturated: the remaining gaps are permanent
        }
    }
    Ok(fwd)
}

impl Forward {
    /// The pass's first hits as phase 0's answer.
    fn into_phase(self, gap: Tick, train: &Train<'_>) -> Phase {
        let p = train.p;
        let hist = histogram(&self.mass, 0, |j| train.delay(0, j));
        let mut pieces = self.pieces;
        let mean = mean_covered(&hist, p - self.covered, p, || {
            pieces.sort_unstable_by_key(|(iv, _)| iv.start);
            let segments = pieces.iter().map(|&(iv, j)| (j, iv.measure().as_nanos()));
            run_sum(segments, |j| train.delay(0, j))
        });
        Phase {
            gap,
            hist,
            uncovered: p - self.covered,
            mean_covered: mean,
            beacons: self.n,
        }
    }
}

/// Every phase's first hits, by one reverse painting of the images
/// `m_B + n0 − 1, …, 0` (`n0`: phase 0's beacon count).
fn paint(
    base: &IntervalSet,
    train: &Train<'_>,
    limits: &Limits,
    n0: usize,
    gap_before: impl Fn(usize) -> Tick,
) -> Result<Vec<Phase>, FirstHitError> {
    // images of equal shift coincide: with T_B = T_C, image j + m_B is
    // image j
    let shifts: Vec<u64> = (0..train.m + n0).map(|j| train.shift(j)).collect();
    let mut distinct = shifts.clone();
    distinct.sort_unstable();
    distinct.dedup();
    let images: Vec<IntervalSet> = distinct
        .iter()
        .map(|&s| base.shift_mod(i128::from(s), Tick(train.p)))
        .collect();
    let mut owners = OwnerMap::new(train.p, &shifts[..train.m], &images, shifts.len());
    let mut phases = Vec::with_capacity(train.m);
    for (j, s) in shifts.iter().enumerate().rev() {
        let i = distinct.binary_search(s).expect("every shift is listed");
        owners.paint(&images[i], j);
        if j < train.m {
            phases.push(owners.phase(j, gap_before(j), train, limits)?);
        }
    }
    phases.reverse();
    Ok(phases)
}

/// `(l*, measure)` for every image `j ≥ k` with positive `mass[j]`.
fn histogram(mass: &[u64], k: usize, delay: impl Fn(usize) -> Tick) -> Vec<(Tick, u64)> {
    (k..mass.len())
        .filter(|&j| mass[j] > 0)
        .map(|j| (delay(j), mass[j]))
        .collect()
}

/// Mean `l*` over the covered offsets: over the whole period in offset
/// order (`by_offset`, the Σ of `length·l*` over maximal constant
/// segments) when nothing is uncovered, else by delay from `hist`.
fn mean_covered(
    hist: &[(Tick, u64)],
    uncovered: u64,
    p: u64,
    by_offset: impl FnOnce() -> f64,
) -> f64 {
    let total = p as f64;
    if uncovered == 0 {
        return by_offset() / total;
    }
    let mut acc = 0.0;
    let mut mass = 0.0;
    for &(d, m) in hist {
        let pr = m as f64 / total;
        acc += d.as_secs_f64() * pr;
        mass += pr;
    }
    if mass > 0.0 {
        acc / mass
    } else {
        f64::NAN
    }
}

/// Σ `length · l*` over the maximal runs of one owner in `segments`
/// (`(owner, length)` in offset order), as the coverage map's profile
/// sums its constant segments.
fn run_sum(segments: impl IntoIterator<Item = (usize, u64)>, delay: impl Fn(usize) -> Tick) -> f64 {
    let mut acc = 0.0;
    let mut run: Option<(usize, u64)> = None;
    for (owner, len) in segments {
        match &mut run {
            Some((o, l)) if *o == owner => *l += len,
            _ => {
                if let Some((o, l)) = run {
                    acc += l as f64 * delay(o).as_secs_f64();
                }
                run = Some((owner, len));
            }
        }
    }
    if let Some((o, l)) = run {
        acc += l as f64 * delay(o).as_secs_f64();
    }
    acc
}

/// No image owns the cell.
const NONE: u32 = u32::MAX;

/// The reverse painting: the owner of every offset of `[0, T_C)` (phase
/// 0's frame), with the measure each image owns. The offsets are
/// compressed into cells: the distinct edges of every painted image and
/// every phase origin cut the period into intervals that no edge falls
/// inside, so each cell has one owner at every step, and painting an image
/// interval is a fill over a range of cells.
struct OwnerMap {
    /// Cell edges, ascending from 0 to `T_C`: cell `c` is
    /// `[edges[c], edges[c + 1])`.
    edges: Vec<u64>,
    /// Owning image of each cell.
    owner: Vec<u32>,
    /// Measure (ns) each image owns.
    mass: Vec<u64>,
}

impl OwnerMap {
    /// The cells of `images` over `[0, p)`, cut also at each phase origin
    /// in `origins`, for `n` images painted.
    fn new(p: u64, origins: &[u64], images: &[IntervalSet], n: usize) -> Self {
        assert!(n < NONE as usize, "image index fits a cell owner");
        let mut edges: Vec<u64> = [0, p]
            .into_iter()
            .chain(origins.iter().copied())
            .chain(images.iter().flat_map(|image| {
                image
                    .intervals()
                    .iter()
                    .flat_map(|iv| [iv.start.as_nanos(), iv.end.as_nanos()])
            }))
            .collect();
        edges.sort_unstable();
        edges.dedup();
        OwnerMap {
            owner: vec![NONE; edges.len() - 1],
            edges,
            mass: vec![0; n],
        }
    }

    /// The cell starting at `x`, an image edge or a phase origin.
    fn cell(&self, x: u64) -> usize {
        self.edges
            .binary_search(&x)
            .expect("image edges and phase origins are cell edges")
    }

    /// Give image `j`'s intervals to `j`.
    fn paint(&mut self, image: &IntervalSet, j: usize) {
        let id = u32::try_from(j).expect("checked in `new`");
        for iv in image.intervals() {
            let (a, b) = (iv.start.as_nanos(), iv.end.as_nanos());
            let mut c = self.cell(a);
            while self.edges[c] < b {
                let o = self.owner[c];
                if o != NONE {
                    self.mass[o as usize] -= self.edges[c + 1] - self.edges[c];
                }
                self.owner[c] = id;
                c += 1;
            }
            self.mass[j] += b - a;
        }
    }

    /// Phase `k`'s first hits, read right after image `k` was painted.
    fn phase(
        &self,
        k: usize,
        gap: Tick,
        train: &Train<'_>,
        limits: &Limits,
    ) -> Result<Phase, FirstHitError> {
        let hist = histogram(&self.mass, k, |j| train.delay(k, j));
        let covered: u64 = hist.iter().map(|&(_, m)| m).sum();
        let top = self.mass[k..].iter().rposition(|&m| m > 0).unwrap_or(0);
        let beacons = limits.beacons(covered, top)?;
        let uncovered = train.p - covered;
        let mean = mean_covered(&hist, uncovered, train.p, || {
            // phase k's frame runs from its offset 0, at −(A_k − A_0) mod
            // T_C in this frame, to T_C and on from 0
            let start = self.cell(train.shift(k));
            let cells = (start..self.owner.len()).chain(0..start);
            let segments =
                cells.map(|c| (self.owner[c] as usize, self.edges[c + 1] - self.edges[c]));
            run_sum(segments, |j| train.delay(k, j))
        });
        Ok(Phase {
            gap,
            hist,
            uncovered,
            mean_covered: mean,
            beacons,
        })
    }
}
