//! The metrics registry: named atomic counters, gauges and log-scaled
//! histograms, snapshot-able as deterministic-ordered JSON.
//!
//! All instrumentation is compiled in unconditionally but **off by
//! default**: every string-keyed helper ([`inc`], [`add`], [`gauge_set`],
//! [`observe`], …) starts with a single relaxed load of the global enable
//! flag and returns immediately when metrics are disabled, so hot paths
//! pay one predictable branch. Enable collection with
//! [`set_enabled`]`(true)` (the CLIs do this for `nd-sweep run --stats`,
//! `nd-opt front --stats` and `cache stats --json`).
//!
//! Metric naming convention (see the README's Observability section for
//! the full catalog): dot-separated lowercase (`cache.hit`,
//! `pool.task_us`, `netsim.events`). Names ending in `_us`/`_ns` are
//! wall-clock timings and therefore not deterministic across runs; the
//! determinism tests filter them out with [`Snapshot::retain`].
//!
//! ```
//! nd_obs::metrics::set_enabled(true);
//! nd_obs::metrics::inc("cache.hit");
//! nd_obs::metrics::observe("pool.task_us", 1500);
//! let snap = nd_obs::metrics::snapshot();
//! assert_eq!(snap.counters["cache.hit"], 1);
//! nd_obs::metrics::reset();
//! nd_obs::metrics::set_enabled(false);
//! ```

use crate::jsonfmt;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{OnceLock, RwLock};

/// Number of histogram buckets: bucket 0 holds zeros, bucket `i ≥ 1`
/// holds values in `[2^(i-1), 2^i)` — a log₂ scale covering all of `u64`.
pub const BUCKETS: usize = 65;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether metric collection is on (one relaxed atomic load — the fast
/// path every helper takes first).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn metric collection on or off globally.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// A monotone event counter.
#[derive(Debug, Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    /// Add `n` (relaxed; counters are merged at snapshot time).
    #[inline]
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// A last-writer-wins numeric level (stored as `f64` bits so byte counts
/// and rates share one type).
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

impl Gauge {
    /// Set the level.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Raise the level to `v` if `v` is larger (high-water mark).
    #[inline]
    pub fn max(&self, v: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            if f64::from_bits(cur) >= v {
                return;
            }
            match self.bits.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current level.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A concurrent log₂-scaled histogram of `u64` samples.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>, // BUCKETS entries
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// The bucket a value falls into: 0 for 0, else `floor(log2(v)) + 1`.
#[inline]
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// A plain-data copy of the current state.
    pub fn data(&self) -> HistogramData {
        let mut d = HistogramData::new();
        for (i, b) in self.buckets.iter().enumerate() {
            d.buckets[i] = b.load(Ordering::Relaxed);
        }
        d.count = self.count.load(Ordering::Relaxed);
        d.sum = self.sum.load(Ordering::Relaxed);
        d.min = self.min.load(Ordering::Relaxed);
        d.max = self.max.load(Ordering::Relaxed);
        d
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// A plain (non-atomic) histogram state: what snapshots carry and what
/// [`HistogramData::merge`] combines. Merging is associative and
/// commutative (the property tests pin this), so per-shard histograms
/// can be folded in any order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramData {
    /// Per-bucket sample counts (see [`BUCKETS`] for the scale).
    pub buckets: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples (wrapping at `u64::MAX` like the atomics).
    pub sum: u64,
    /// Smallest sample (`u64::MAX` when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
}

impl Default for HistogramData {
    fn default() -> Self {
        Self::new()
    }
}

impl HistogramData {
    /// An empty histogram.
    pub fn new() -> Self {
        HistogramData {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample (non-atomic twin of [`Histogram::record`]).
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Combine two histograms. Associative and commutative; the empty
    /// histogram is the identity.
    pub fn merge(&self, other: &HistogramData) -> HistogramData {
        let mut out = self.clone();
        for (a, b) in out.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        out.count += other.count;
        out.sum = out.sum.wrapping_add(other.sum);
        out.min = out.min.min(other.min);
        out.max = out.max.max(other.max);
        out
    }

    /// Mean sample value (NaN when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimate the `q`-quantile (`q` clamped to `[0, 1]`) from the log₂
    /// buckets. NaN when empty.
    ///
    /// The rank-holding bucket is found by a cumulative walk, then the
    /// estimate interpolates linearly inside that bucket's value range
    /// and is clamped to the observed `[min, max]`. Because bucket `i`
    /// only brackets its samples to `[2^(i-1), 2^i)`, the estimate can
    /// be off by up to the bucket width (a factor of 2 at worst) — but
    /// it always lies within the closed bounds of the bucket holding the
    /// true quantile, and is monotone in `q`. Both properties, plus
    /// stability under [`merge`](Self::merge), are pinned by proptests.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let q = q.clamp(0.0, 1.0);
        // 1-based rank of the sample that holds the quantile.
        let rank = (q * self.count as f64).ceil().max(1.0);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let before = seen as f64;
            seen += c;
            if seen as f64 >= rank {
                let (lo, hi) = bucket_bounds(i);
                let frac = (rank - before) / c as f64;
                let est = lo + frac * (hi - lo);
                return est.clamp(self.min as f64, self.max as f64);
            }
        }
        self.max as f64
    }
}

/// The closed value range covered by bucket `i`: `(0, 0)` for bucket 0,
/// else `(2^(i-1), 2^i)`. Computed in `f64` (bucket 64's upper bound
/// does not fit in `u64`).
pub fn bucket_bounds(i: usize) -> (f64, f64) {
    if i == 0 {
        (0.0, 0.0)
    } else {
        (f64::exp2(i as f64 - 1.0), f64::exp2(i as f64))
    }
}

// ---------------------------------------------------------------------------
// registry
// ---------------------------------------------------------------------------

struct Registry {
    counters: RwLock<BTreeMap<String, &'static Counter>>,
    gauges: RwLock<BTreeMap<String, &'static Gauge>>,
    histograms: RwLock<BTreeMap<String, &'static Histogram>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: RwLock::new(BTreeMap::new()),
        gauges: RwLock::new(BTreeMap::new()),
        histograms: RwLock::new(BTreeMap::new()),
    })
}

/// Look a handle up (read lock), registering it on first use (write
/// lock). Handles are leaked intentionally: the name set is small and
/// static for the life of the process.
fn lookup<T: Default>(map: &RwLock<BTreeMap<String, &'static T>>, name: &str) -> &'static T {
    if let Some(h) = map.read().unwrap().get(name) {
        return h;
    }
    let mut w = map.write().unwrap();
    w.entry(name.to_string())
        .or_insert_with(|| Box::leak(Box::default()))
}

/// The counter registered under `name` (register-on-first-use). The
/// returned handle is *not* gated on [`enabled`]; cache it only for
/// paths that do their own gating.
pub fn counter(name: &str) -> &'static Counter {
    lookup(&registry().counters, name)
}

/// The gauge registered under `name` (register-on-first-use, ungated —
/// see [`counter`]).
pub fn gauge(name: &str) -> &'static Gauge {
    lookup(&registry().gauges, name)
}

/// The histogram registered under `name` (register-on-first-use, ungated
/// — see [`counter`]).
pub fn histogram(name: &str) -> &'static Histogram {
    lookup(&registry().histograms, name)
}

/// Increment the counter `name` by 1 (no-op when disabled).
#[inline]
pub fn inc(name: &str) {
    if enabled() {
        counter(name).add(1);
    }
}

/// Add `n` to the counter `name` (no-op when disabled).
#[inline]
pub fn add(name: &str, n: u64) {
    if enabled() {
        counter(name).add(n);
    }
}

/// Set the gauge `name` (no-op when disabled).
#[inline]
pub fn gauge_set(name: &str, v: f64) {
    if enabled() {
        gauge(name).set(v);
    }
}

/// Raise the gauge `name` to `v` if larger (no-op when disabled).
#[inline]
pub fn gauge_max(name: &str, v: f64) {
    if enabled() {
        gauge(name).max(v);
    }
}

/// Record a sample into the histogram `name` (no-op when disabled).
#[inline]
pub fn observe(name: &str, v: u64) {
    if enabled() {
        histogram(name).record(v);
    }
}

/// Time a block: records elapsed microseconds into the histogram `name`
/// when the guard drops (no-op when metrics are disabled at drop time).
pub fn time(name: &'static str) -> Timer {
    Timer {
        name,
        start: (enabled()).then(std::time::Instant::now),
    }
}

/// Guard returned by [`time`].
pub struct Timer {
    name: &'static str,
    start: Option<std::time::Instant>,
}

impl Drop for Timer {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            observe(self.name, start.elapsed().as_micros() as u64);
        }
    }
}

/// Zero every registered metric (names stay registered). Tests and
/// `nd-sweep run --stats` call this to start from a clean slate.
pub fn reset() {
    let r = registry();
    for c in r.counters.read().unwrap().values() {
        c.v.store(0, Ordering::Relaxed);
    }
    for g in r.gauges.read().unwrap().values() {
        g.bits.store(0f64.to_bits(), Ordering::Relaxed);
    }
    for h in r.histograms.read().unwrap().values() {
        h.reset();
    }
}

// ---------------------------------------------------------------------------
// snapshots
// ---------------------------------------------------------------------------

/// A point-in-time copy of the whole registry, deterministically ordered
/// (BTreeMaps throughout) so [`Snapshot::to_json`] is byte-stable.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Counter name → value.
    pub counters: BTreeMap<String, u64>,
    /// Gauge name → level.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram name → plain data.
    pub histograms: BTreeMap<String, HistogramData>,
}

/// Snapshot every registered metric.
pub fn snapshot() -> Snapshot {
    let r = registry();
    Snapshot {
        counters: r
            .counters
            .read()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect(),
        gauges: r
            .gauges
            .read()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect(),
        histograms: r
            .histograms
            .read()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.data()))
            .collect(),
    }
}

impl Snapshot {
    /// Keep only metrics whose name satisfies `pred` (used to strip
    /// wall-clock timings before determinism comparisons).
    pub fn retain(&mut self, pred: impl Fn(&str) -> bool) {
        self.counters.retain(|k, _| pred(k));
        self.gauges.retain(|k, _| pred(k));
        self.histograms.retain(|k, _| pred(k));
    }

    /// True when nothing is registered (or everything was filtered out).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Deterministic pretty JSON: keys sorted, floats in shortest
    /// round-trip form, non-finite values as `null`. Histograms carry
    /// `count`/`sum`/`min`/`max`/`mean`, estimated `p50`/`p95`/`p99`
    /// quantiles (see [`HistogramData::quantile`] for the log₂-bucket
    /// error bound), plus the non-empty buckets keyed by bucket index
    /// (bucket `i ≥ 1` holds values in `[2^(i-1), 2^i)`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        push_map(&mut out, &self.counters, |o, v| o.push_str(&v.to_string()));
        out.push_str("},\n  \"gauges\": {");
        push_map(&mut out, &self.gauges, |o, v| jsonfmt::push_f64(o, *v));
        out.push_str("},\n  \"histograms\": {");
        push_map(&mut out, &self.histograms, |o, h| {
            o.push_str(&format!(
                "{{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"mean\": ",
                h.count,
                h.sum,
                if h.count == 0 { 0 } else { h.min },
                h.max
            ));
            jsonfmt::push_f64(o, h.mean());
            for (key, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
                o.push_str(&format!(", \"{key}\": "));
                jsonfmt::push_f64(o, h.quantile(q));
            }
            o.push_str(", \"buckets\": {");
            let mut first = true;
            for (i, &c) in h.buckets.iter().enumerate() {
                if c > 0 {
                    if !first {
                        o.push_str(", ");
                    }
                    first = false;
                    o.push_str(&format!("\"{i}\": {c}"));
                }
            }
            o.push_str("}}");
        });
        out.push_str("}\n}\n");
        out
    }

    /// Prometheus text exposition (format version 0.0.4) of the whole
    /// snapshot. Counters map to `counter`, gauges to `gauge`, and
    /// histograms to `summary` series with `quantile` labels estimated
    /// from the log₂ buckets (see [`HistogramData::quantile`]).
    ///
    /// Metric names are sanitised to the prometheus charset: every
    /// character outside `[a-zA-Z0-9_:]` becomes `_` (so `cache.hit`
    /// is exposed as `cache_hit`), with a leading `_` added if the name
    /// starts with a digit. Output order follows the snapshot's sorted
    /// maps, so the exposition is deterministic.
    pub fn to_prometheus(&self) -> String {
        fn sanitize(name: &str) -> String {
            let mut out = String::with_capacity(name.len() + 1);
            for (i, c) in name.chars().enumerate() {
                if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                    if i == 0 && c.is_ascii_digit() {
                        out.push('_');
                    }
                    out.push(c);
                } else {
                    out.push('_');
                }
            }
            out
        }
        // Prometheus floats: plain decimal, `NaN` for empty-histogram
        // quantiles (the exposition format allows it).
        fn num(v: f64) -> String {
            if v.is_nan() {
                "NaN".to_string()
            } else {
                format!("{v}")
            }
        }
        let mut out = String::new();
        for (name, v) in &self.counters {
            let n = sanitize(name);
            out.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
        }
        for (name, v) in &self.gauges {
            let n = sanitize(name);
            out.push_str(&format!("# TYPE {n} gauge\n{n} {}\n", num(*v)));
        }
        for (name, h) in &self.histograms {
            let n = sanitize(name);
            out.push_str(&format!("# TYPE {n} summary\n"));
            for q in [0.5, 0.95, 0.99] {
                out.push_str(&format!("{n}{{quantile=\"{q}\"}} {}\n", num(h.quantile(q))));
            }
            out.push_str(&format!("{n}_sum {}\n{n}_count {}\n", h.sum, h.count));
        }
        out
    }
}

fn push_map<V>(out: &mut String, map: &BTreeMap<String, V>, fmt: impl Fn(&mut String, &V)) {
    let mut first = true;
    for (k, v) in map {
        out.push_str(if first { "\n    " } else { ",\n    " });
        first = false;
        jsonfmt::push_str(out, k);
        out.push_str(": ");
        fmt(out, v);
    }
    if !first {
        out.push_str("\n  ");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Global-state tests share the registry; serialize them.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_helpers_are_inert() {
        let _g = serial();
        set_enabled(false);
        reset();
        inc("test.inert");
        observe("test.inert_us", 10);
        gauge_set("test.inert_g", 1.0);
        let snap = snapshot();
        assert_eq!(snap.counters.get("test.inert").copied().unwrap_or(0), 0);
    }

    #[test]
    fn counters_gauges_histograms_roundtrip() {
        let _g = serial();
        set_enabled(true);
        reset();
        inc("test.c");
        add("test.c", 4);
        gauge_set("test.g", 2.5);
        gauge_max("test.g", 1.0); // lower: ignored
        gauge_max("test.g", 9.0);
        for v in [0u64, 1, 2, 3, 1000] {
            observe("test.h", v);
        }
        let snap = snapshot();
        assert_eq!(snap.counters["test.c"], 5);
        assert_eq!(snap.gauges["test.g"], 9.0);
        let h = &snap.histograms["test.h"];
        assert_eq!((h.count, h.sum, h.min, h.max), (5, 1006, 0, 1000));
        assert_eq!(h.buckets[0], 1); // the zero
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[2], 2); // 2, 3
        assert_eq!(h.buckets[10], 1); // 1000 ∈ [512, 1024)
        let json = snap.to_json();
        assert!(json.contains("\"test.c\": 5"));
        assert!(json.contains("\"test.g\": 9.0"));
        set_enabled(false);
        reset();
    }

    #[test]
    fn snapshot_json_is_deterministic_and_filterable() {
        let _g = serial();
        set_enabled(true);
        reset();
        add("b.second", 2);
        add("a.first", 1);
        observe("a.lat_us", 7);
        let mut s1 = snapshot();
        let mut s2 = snapshot();
        s1.retain(|n| !n.ends_with("_us"));
        s2.retain(|n| !n.ends_with("_us"));
        assert_eq!(s1.to_json(), s2.to_json());
        assert!(!s1.to_json().contains("lat_us"));
        // keys come out sorted
        let json = s1.to_json();
        assert!(json.find("a.first").unwrap() < json.find("b.second").unwrap());
        set_enabled(false);
        reset();
    }

    #[test]
    fn quantiles_respect_bucket_bounds_and_range() {
        let mut h = HistogramData::new();
        assert!(h.quantile(0.5).is_nan());
        for v in [0u64, 1, 2, 3, 5, 100, 1000, 1000, 1000, 70_000] {
            h.record(v);
        }
        // p50 must land in (or clamp inside) the bucket holding the
        // 5th-ranked sample (5 → bucket 3: [4, 8)).
        let p50 = h.quantile(0.5);
        let (lo, hi) = bucket_bounds(bucket_of(5));
        assert!((lo..=hi).contains(&p50), "p50 {p50} outside [{lo}, {hi}]");
        // Extremes clamp to the observed range.
        assert_eq!(h.quantile(0.0), 0.0);
        assert_eq!(h.quantile(1.0), 70_000.0);
        // Monotone in q.
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            let v = h.quantile(q);
            assert!(v >= prev, "quantile({q}) = {v} < {prev}");
            prev = v;
        }
        // A single-sample histogram pins every quantile to that sample.
        let mut one = HistogramData::new();
        one.record(37);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(one.quantile(q), 37.0);
        }
    }

    #[test]
    fn snapshot_prometheus_exposition() {
        let _g = serial();
        set_enabled(true);
        reset();
        add("test.prom_hits", 3);
        gauge_set("test.prom_level", 2.5);
        for v in [10u64, 20, 30, 40] {
            observe("test.prom_us", v);
        }
        let mut snap = snapshot();
        snap.retain(|n| n.starts_with("test.prom"));
        let text = snap.to_prometheus();
        assert!(text.contains("# TYPE test_prom_hits counter\ntest_prom_hits 3\n"));
        assert!(text.contains("# TYPE test_prom_level gauge\ntest_prom_level 2.5\n"));
        assert!(text.contains("# TYPE test_prom_us summary\n"));
        assert!(text.contains("test_prom_us{quantile=\"0.5\"}"));
        assert!(text.contains("test_prom_us_sum 100\n"));
        assert!(text.contains("test_prom_us_count 4\n"));
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (series, value) = line.rsplit_once(' ').unwrap();
            assert!(!series.is_empty());
            assert!(
                value == "NaN" || value.parse::<f64>().is_ok(),
                "bad: {line}"
            );
        }
        set_enabled(false);
        reset();
    }

    #[test]
    fn timer_records_microseconds() {
        let _g = serial();
        set_enabled(true);
        reset();
        {
            let _t = time("test.t_us");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let h = snapshot().histograms["test.t_us"].clone();
        assert_eq!(h.count, 1);
        assert!(h.min >= 1000, "slept ≥ 2 ms, recorded {} µs", h.min);
        set_enabled(false);
        reset();
    }
}
