//! Metric tables and the per-layer recorder of the traced run.
//!
//! The traced run opens an nd-obs span around every public call it makes
//! into a layer (spans stay in an in-memory sink and are written out as
//! nd-obs JSONL at exit) and records the call's duration under the layer
//! metric it feeds. Layer metrics that a workload does not exercise are
//! reported as 0.

use crate::stats;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// End-to-end metrics: (name, unit, better). Every workload reports all.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("p50_ms", "ms", "lower"),
    ("p99_ms", "ms", "lower"),
    ("throughput_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// Per-layer metrics of the traced run: (name, unit, better).
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("serve.queue_us.p50", "us", "lower"),
    ("serve.queue_us.p99", "us", "lower"),
    ("serve.parse_us.p50", "us", "lower"),
    ("serve.hit_us.p50", "us", "lower"),
    ("serve.hit_us.p99", "us", "lower"),
    ("serve.miss_ms.p50", "ms", "lower"),
    ("serve.memo_hit_ratio", "ratio", "higher"),
    ("serve.transport_us.p50", "us", "lower"),
    ("serve.response_kb.p50", "KiB", "lower"),
    ("opt.run_ms.p50", "ms", "lower"),
    ("opt.run_ms.max", "ms", "lower"),
    ("opt.orchestration_frac", "ratio", "lower"),
    ("opt.evals_per_front", "count", "lower"),
    ("opt.censored_frac", "ratio", "lower"),
    ("opt.export_us.p50", "us", "lower"),
    ("sweep.cache_hit_ratio", "ratio", "higher"),
    ("sweep.cache_load_us.p50", "us", "lower"),
    ("sweep.cache_store_us.p50", "us", "lower"),
    ("sweep.job_ms.exact.p50", "ms", "lower"),
    ("sweep.job_ms.exact.max", "ms", "lower"),
    ("sweep.job_ms.montecarlo.p50", "ms", "lower"),
    ("sweep.job_ms.montecarlo.max", "ms", "lower"),
    ("sweep.job_ms.netsim.p50", "ms", "lower"),
    ("sweep.job_ms.netsim.max", "ms", "lower"),
    ("sweep.pool_busy_frac", "ratio", "higher"),
    ("exact.eval_ms.p50", "ms", "lower"),
    ("exact.eval_ms.p99", "ms", "lower"),
    ("exact.eval_ms.max", "ms", "lower"),
    ("exact.coverage_ms.sum", "ms", "lower"),
    ("exact.dist_ms.sum", "ms", "lower"),
    ("exact.two_way_ms.sum", "ms", "lower"),
    ("exact.beacons_needed.max", "count", "lower"),
    ("exact.fold_frac", "ratio", "lower"),
    ("core.union_ns.p50", "ns", "lower"),
    ("protocols.build_us.p50", "us", "lower"),
    ("sim.trial_us.p50", "us", "lower"),
    ("netsim.job_events_per_s", "1/s", "higher"),
    ("netsim.shard_setup_us.p50", "us", "lower"),
    ("netsim.shard_run_us.p50", "us", "lower"),
    ("netsim.shard_pool_eff", "ratio", "higher"),
    ("netsim.queue_depth_max", "count", "lower"),
    ("obs.trace_overhead_frac", "ratio", "lower"),
];

/// Raw per-call samples (nanoseconds, or plain counts) keyed by what was
/// measured, plus the layer metrics computed from them.
#[derive(Default)]
pub struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    pub fn push(&mut self, key: &'static str, v: f64) {
        self.samples.entry(key).or_default().push(v);
    }

    pub fn samples(&self, key: &str) -> &[f64] {
        self.samples.get(key).map_or(&[], Vec::as_slice)
    }

    pub fn set(&mut self, name: &'static str, v: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.0 == name),
            "unknown layer metric {name}"
        );
        self.values
            .insert(name, if v.is_finite() { v } else { 0.0 });
    }

    /// Set `name` to the `q`-quantile of `key`'s samples divided by
    /// `scale` (e.g. 1e3 for ns → µs), when there are samples.
    pub fn set_quantile(&mut self, name: &'static str, key: &str, q: f64, scale: f64) {
        let s = self.samples(key);
        if !s.is_empty() {
            let v = if q >= 1.0 {
                stats::max(s)
            } else {
                stats::quantile(s, q)
            };
            self.set(name, v / scale);
        }
    }

    pub fn set_sum(&mut self, name: &'static str, key: &str, scale: f64) {
        let s = self.samples(key);
        if !s.is_empty() {
            self.set(name, stats::sum(s) / scale);
        }
    }

    /// Every per-layer metric, in table order (0 where not exercised).
    pub fn metrics(&self) -> Vec<(&'static str, &'static str, f64)> {
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| (name, unit, self.values.get(name).copied().unwrap_or(0.0)))
            .collect()
    }
}

/// Run `f` inside the nd-obs span `name`; returns its result and its
/// duration in ns.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let _span = nd_obs::span!(name);
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_nanos() as f64)
}

/// The in-memory span sink of the traced run.
#[derive(Clone, Default)]
pub struct SpanSink(Arc<Mutex<Vec<u8>>>);

impl Write for SpanSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("span sink poisoned")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl SpanSink {
    /// Turn tracing (and the nd-obs metrics registry) on, into memory.
    pub fn start() -> SpanSink {
        let sink = SpanSink::default();
        nd_obs::metrics::reset();
        nd_obs::metrics::set_enabled(true);
        nd_obs::trace::init_writer(Box::new(sink.clone()));
        sink
    }

    /// Stop recording for an untraced stretch; [`SpanSink::resume`]
    /// continues into the same buffer.
    pub fn pause(&self) {
        nd_obs::trace::shutdown();
        nd_obs::metrics::set_enabled(false);
    }

    pub fn resume(&self) {
        nd_obs::metrics::set_enabled(true);
        nd_obs::trace::init_writer(Box::new(self.clone()));
    }

    /// Bytes recorded so far (a position for [`SpanSink::sum_dur_ns`]).
    pub fn len(&self) -> usize {
        self.0.lock().expect("span sink poisoned").len()
    }

    /// Summed `dur_ns` of the spans named `name` recorded after byte
    /// position `from`.
    pub fn sum_dur_ns(&self, from: usize, name: &str) -> f64 {
        let bytes = self.0.lock().expect("span sink poisoned");
        let needle = format!("\"name\": \"{name}\"");
        String::from_utf8_lossy(&bytes[from.min(bytes.len())..])
            .lines()
            .filter(|l| l.contains(&needle))
            .filter_map(|l| nd_sweep::value::parse_json(l).ok())
            .filter_map(|v| v.as_table()?.get("dur_ns")?.as_f64())
            .sum()
    }

    /// Turn tracing off and write the spans to `path`.
    pub fn finish(&self, path: &std::path::Path) -> std::io::Result<usize> {
        nd_obs::trace::shutdown();
        nd_obs::metrics::set_enabled(false);
        let bytes = self.0.lock().expect("span sink poisoned");
        std::fs::write(path, &*bytes)?;
        Ok(bytes.iter().filter(|&&b| b == b'\n').count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        let doc = nd_sweep::value::parse_json(&text).expect("BENCHMARK.json is JSON");
        let table = doc.as_table().expect("object");
        let listed = |key: &str| -> Vec<(String, String, String)> {
            table[key]
                .as_array()
                .expect("array")
                .iter()
                .map(|m| {
                    let m = m.as_table().expect("metric object");
                    let s = |k: &str| m[k].as_str().expect("string").to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let own = |t: &[(&str, &str, &str)]| -> Vec<(String, String, String)> {
            t.iter()
                .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(END_TO_END));
        assert_eq!(listed("per_layer"), own(PER_LAYER));
        let workloads: Vec<String> = table["workloads"]
            .as_array()
            .expect("array")
            .iter()
            .map(|w| {
                w.as_table().expect("object")["name"]
                    .as_str()
                    .expect("name")
                    .to_string()
            })
            .collect();
        // serve-hot runs but is not gated (see README.md)
        let gated: Vec<&str> = crate::WORKLOADS
            .into_iter()
            .filter(|w| *w != "serve-hot")
            .collect();
        assert_eq!(workloads, gated);
    }

    #[test]
    fn unexercised_layers_report_zero() {
        let mut l = Layers::default();
        l.push("x", 2_000.0);
        l.push("x", 4_000.0);
        l.set_quantile("serve.parse_us.p50", "x", 0.5, 1e3);
        let m = l.metrics();
        assert_eq!(m.len(), PER_LAYER.len());
        assert_eq!(m[2], ("serve.parse_us.p50", "us", 3.0));
        assert!(m
            .iter()
            .filter(|x| x.0 != "serve.parse_us.p50")
            .all(|x| x.2 == 0.0));
    }
}
