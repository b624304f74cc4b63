//! A small scoped worker pool (the `rayon` role, hand-rolled on
//! `std::thread::scope` since the build environment has no crates.io
//! access).
//!
//! Work is distributed by an atomic next-index counter, so threads
//! self-balance across jobs of wildly different cost (a Monte-Carlo job
//! with 1000 trials next to a closed-form bound evaluation). Results land
//! in their job's slot, so the output order is deterministic regardless of
//! scheduling.
//!
//! The pool is an instrumentation point for the observability spine:
//! per-task latency goes to the `pool.task_us` histogram, the not-yet-
//! started backlog to the `pool.queue_depth` gauge, and completion counts
//! drive the stderr progress line (all no-ops unless enabled; results and
//! their order are never affected).

use nd_obs::Progress;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Run `f(index, &items[index])` for every item, on up to `threads` OS
/// threads, returning results in item order.
///
/// Panics in `f` are contained per thread and re-raised after the scope
/// joins (standard `std::thread::scope` behavior).
pub fn run_parallel<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, n);
    let progress = Progress::new("jobs", n as u64);

    if threads == 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| {
                nd_obs::metrics::gauge_set("pool.queue_depth", (n - i) as f64);
                let r = {
                    let _t = nd_obs::metrics::time("pool.task_us");
                    f(i, t)
                };
                progress.update(i as u64 + 1);
                r
            })
            .collect();
    }

    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    // Workers inherit the caller's trace context (request id), so spans
    // from pooled evaluations attribute to the request that caused them.
    let ctx = nd_obs::trace::current_context();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let _ctx = nd_obs::trace::set_context(ctx.clone());
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    nd_obs::metrics::gauge_set("pool.queue_depth", n.saturating_sub(i + 1) as f64);
                    let r = {
                        let _t = nd_obs::metrics::time("pool.task_us");
                        f(i, &items[i])
                    };
                    *slots[i].lock().unwrap() = Some(r);
                    progress.update(done.fetch_add(1, Ordering::Relaxed) as u64 + 1);
                }
            });
        }
    });
    progress.finish();
    slots
        .into_iter()
        .map(|s| s.into_inner().unwrap().expect("worker filled every slot"))
        .collect()
}

/// The number of worker threads to default to: all available cores.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn preserves_order_and_runs_everything() {
        let items: Vec<u64> = (0..257).collect();
        let out = run_parallel(&items, 8, |i, &x| {
            assert_eq!(i as u64, x);
            x * 2
        });
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_and_empty() {
        let out: Vec<u64> = run_parallel(&[] as &[u64], 4, |_, &x| x);
        assert!(out.is_empty());
        let out = run_parallel(&[7u64], 4, |_, &x| x + 1);
        assert_eq!(out, vec![8]);
    }

    #[test]
    fn work_is_actually_distributed() {
        // with uneven job costs, the counter hands short jobs to whoever is
        // free; just verify every item ran exactly once
        let calls = AtomicUsize::new(0);
        let items: Vec<usize> = (0..100).collect();
        run_parallel(&items, 4, |_, i| {
            if i % 10 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            calls.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(calls.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn instrumentation_records_task_latency() {
        let _metrics = crate::METRICS_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        nd_obs::metrics::set_enabled(true);
        nd_obs::metrics::reset();
        let items: Vec<u64> = (0..20).collect();
        let out = run_parallel(&items, 4, |_, &x| x);
        assert_eq!(out.len(), 20);
        let snap = nd_obs::metrics::snapshot();
        // ≥, not ==: sibling tests sharing the global registry may also
        // record while metrics are enabled here.
        assert!(snap.histograms["pool.task_us"].count >= 20);
        nd_obs::metrics::set_enabled(false);
        nd_obs::metrics::reset();
    }
}
