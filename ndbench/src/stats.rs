//! Percentiles and open-loop accounting.

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between order
/// statistics (the usual "type 7" definition); 0 for an empty sample.
/// Infinite values (failed requests) sort last.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, q)
}

fn quantile_sorted(v: &[f64], q: f64) -> f64 {
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi || v[hi] == v[lo] {
        return v[lo];
    }
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

pub fn sum(values: &[f64]) -> f64 {
    values.iter().sum()
}

/// One open-loop request: when it was due, when the generator sent it,
/// when its response completed, whether the previous request on its
/// connection was still in flight at the due time, and whether it
/// succeeded (right status, right document).
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    pub due_ns: u64,
    pub send_ns: u64,
    pub done_ns: u64,
    pub conn_busy: bool,
    pub ok: bool,
}

/// Open-loop accounting over one phase at one offered rate.
#[derive(Clone, Debug, Default)]
pub struct OpenLoop {
    pub requests: usize,
    pub failed: usize,
    /// Latency from the due time; failed requests count as infinitely
    /// slow, so they always miss a latency limit.
    pub p50_us: f64,
    pub p99_us: f64,
    /// Requests whose latency exceeded the phase's limit (failures
    /// included).
    pub over_limit: usize,
    /// Send time minus due time while waiting on a busy connection.
    pub queue_p50_us: f64,
    pub queue_p99_us: f64,
    /// Send time minus due time on an idle connection: how late the
    /// generator itself ran.
    pub gen_late_p99_us: f64,
    /// Completion of the last response minus the last due time: the
    /// backlog left at the end of the phase.
    pub backlog_end_us: f64,
}

impl OpenLoop {
    pub fn from(samples: &[Timed], limit_us: f64) -> OpenLoop {
        let lat: Vec<f64> = samples
            .iter()
            .map(|s| {
                if s.ok {
                    s.done_ns.saturating_sub(s.due_ns) as f64 / 1e3
                } else {
                    f64::INFINITY
                }
            })
            .collect();
        let wait = |busy: bool| -> Vec<f64> {
            samples
                .iter()
                .filter(|s| s.conn_busy == busy)
                .map(|s| s.send_ns.saturating_sub(s.due_ns) as f64 / 1e3)
                .collect()
        };
        let queue = wait(true);
        let late = wait(false);
        let last_due = samples.iter().map(|s| s.due_ns).max().unwrap_or(0);
        let last_done = samples.iter().map(|s| s.done_ns).max().unwrap_or(0);
        OpenLoop {
            requests: samples.len(),
            failed: samples.iter().filter(|s| !s.ok).count(),
            p50_us: quantile(&lat, 0.5),
            p99_us: quantile(&lat, 0.99),
            over_limit: lat.iter().filter(|&&l| l > limit_us).count(),
            queue_p50_us: quantile(&queue, 0.5),
            queue_p99_us: quantile(&queue, 0.99),
            gen_late_p99_us: quantile(&late, 0.99),
            backlog_end_us: last_done.saturating_sub(last_due) as f64 / 1e3,
        }
    }
}

/// A phase cut into `count` consecutive windows of requests (samples in
/// due-time order), each accounted on its own. A stall of the host, such
/// as a burst of CPU steal, then spoils some windows rather than the
/// phase.
pub fn windows(samples: &[Timed], count: usize, limit_us: f64) -> Vec<OpenLoop> {
    let size = samples.len().div_ceil(count.max(1)).max(1);
    samples
        .chunks(size)
        .map(|w| OpenLoop::from(w, limit_us))
        .collect()
}

/// The lowest p50 and p99 over windows, µs: min-of-k noise control, the
/// window the host disturbed least. A slower program raises every window.
pub fn windowed_p50_p99(wins: &[OpenLoop]) -> (f64, f64) {
    let low = |f: fn(&OpenLoop) -> f64| wins.iter().map(f).fold(f64::INFINITY, f64::min);
    (low(|w| w.p50_us), low(|w| w.p99_us))
}

/// Whether a rate probe met the limit: no failures, the best window's p99
/// within the limit, and no backlog beyond it at the end (a rate above
/// capacity leaves a backlog that grows to the end, whatever the window).
pub fn probe_meets(samples: &[Timed], count: usize, limit_us: f64) -> bool {
    let whole = OpenLoop::from(samples, limit_us);
    let (_, p99) = windowed_p50_p99(&windows(samples, count, limit_us));
    whole.requests > 0 && whole.failed == 0 && p99 <= limit_us && whole.backlog_end_us <= limit_us
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(due: u64, send: u64, done: u64, ok: bool) -> Timed {
        Timed {
            due_ns: due * 1000,
            send_ns: send * 1000,
            done_ns: done * 1000,
            conn_busy: send > due + 5,
            ok,
        }
    }

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 51.0);
        assert_eq!(quantile(&v, 0.99), 100.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[3.0, f64::INFINITY, 1.0], 0.5), 3.0);
    }

    #[test]
    fn latency_counts_from_the_due_time_not_the_send_time() {
        // a stall: request 0 takes 10 ms, so request 1 (due at 1 ms) waits
        // on the busy connection and is sent at 10 ms
        let s = [t(0, 0, 10_000, true), t(1_000, 10_000, 10_100, true)];
        let ol = OpenLoop::from(&s, 20_000.0);
        // request 1's latency is 9.1 ms from its due time, not 0.1 ms
        assert_eq!(ol.p99_us, quantile(&[10_000.0, 9_100.0], 0.99));
        assert!(ol.p50_us > 9_000.0);
        assert_eq!(ol.queue_p50_us, 9_000.0);
        assert_eq!(ol.backlog_end_us, 9_100.0);
    }

    #[test]
    fn failed_requests_always_miss_the_limit() {
        let mut s: Vec<Timed> = (0..200)
            .map(|i| t(i * 1_000, i * 1_000, i * 1_000 + 100, true))
            .collect();
        assert!(probe_meets(&s, 1, 1_000.0));
        s[17].ok = false;
        let ol = OpenLoop::from(&s, 1_000.0);
        assert_eq!(ol.failed, 1);
        assert_eq!(ol.over_limit, 1);
        assert!(!probe_meets(&s, 1, 1_000.0), "a failure fails the phase");
        s[17].ok = true;
        s[18].ok = false;
        s[19].ok = false;
        s[20].ok = false;
        let ol = OpenLoop::from(&s, 1_000.0);
        assert!(ol.p99_us.is_infinite(), "three failures in 200 reach p99");
    }

    #[test]
    fn generator_lateness_is_separate_from_queueing() {
        // idle connection, generator woke 3 µs late: lateness, not queue
        let s = [t(0, 3, 100, true), t(1_000, 1_003, 1_100, true)];
        let ol = OpenLoop::from(&s, 1_000.0);
        assert_eq!(ol.gen_late_p99_us, 3.0);
        assert_eq!(ol.queue_p99_us, 0.0);
    }

    #[test]
    fn growing_backlog_fails_even_with_a_good_p99() {
        let mut s: Vec<Timed> = (0..1_000)
            .map(|i| t(i * 10, i * 10, i * 10 + 50, true))
            .collect();
        // the final response completes 5 ms after the last due time
        s[999].done_ns = (9_990 + 5_000) * 1000;
        let ol = OpenLoop::from(&s, 2_000.0);
        assert!(ol.p99_us <= 2_000.0);
        assert!(!probe_meets(&s, 1, 2_000.0));
    }

    #[test]
    fn a_stall_fails_a_probe_only_when_it_spoils_every_window() {
        // 3,000 requests at 1 ms spacing, 100 µs each, limit 5 ms
        let mut s: Vec<Timed> = (0..3_000)
            .map(|i| t(i * 1_000, i * 1_000, i * 1_000 + 100, true))
            .collect();
        assert!(probe_meets(&s, 3, 5_000.0));
        // a 60 ms stall at the start of a window delays 60 requests past
        // the limit; put one in the first two windows: 4 % of the phase,
        // so the phase p99 misses, but the third window does not
        let stall = |s: &mut Vec<Timed>, from: usize| {
            for (k, x) in s.iter_mut().skip(from).take(60).enumerate() {
                x.done_ns = ((from as u64 + 60) * 1_000 + k as u64 * 10) * 1000;
            }
        };
        stall(&mut s, 0);
        stall(&mut s, 1_000);
        assert!(OpenLoop::from(&s, 5_000.0).p99_us > 5_000.0);
        assert!(probe_meets(&s, 3, 5_000.0));
        // in all three windows it fails the probe
        stall(&mut s, 2_000);
        assert!(!probe_meets(&s, 3, 5_000.0));
        // and a failed request always fails it
        let mut s: Vec<Timed> = (0..300)
            .map(|i| t(i * 1_000, i * 1_000, i * 1_000 + 100, true))
            .collect();
        s[7].ok = false;
        assert!(!probe_meets(&s, 3, 5_000.0));
    }

    #[test]
    fn windowed_quantiles_are_the_lowest_over_windows() {
        let s: Vec<Timed> = (0..900)
            .map(|i| {
                let lat = match i {
                    0..300 => 900,
                    300..600 => 100,
                    _ => 400,
                };
                t(i * 1_000, i * 1_000, i * 1_000 + lat, true)
            })
            .collect();
        let wins = windows(&s, 3, 1e9);
        assert_eq!(wins.len(), 3);
        assert_eq!(windowed_p50_p99(&wins), (100.0, 100.0));
    }
}
