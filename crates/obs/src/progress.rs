//! Periodic progress lines on stderr (jobs done/total, percent, ETA).
//!
//! A [`Progress`] is a claim on the single per-process render slot: the
//! first component to construct one (the sweep pool, or a standalone
//! netsim run) renders; any nested constructor gets an inert handle, so
//! per-job simulations inside a sweep never interleave lines with the
//! pool's own display.
//!
//! Rendering is on by default only when stderr is a terminal; the
//! `ND_PROGRESS` environment variable forces it (`1`) or suppresses it
//! (`0`) regardless. Both are read once, at the first use in the
//! process. Output goes to stderr only — stdout stays clean for
//! machine-readable exports — and is throttled to roughly one repaint
//! per 150 ms, so calling [`Progress::update`] from a hot loop is cheap
//! (one atomic load of the repaint deadline on most calls).

use std::io::{IsTerminal, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Only one progress line may render at a time.
static SLOT: AtomicBool = AtomicBool::new(false);

/// Minimum interval between repaints.
const THROTTLE_NS: u64 = 150_000_000;

/// Should progress render at all, per the environment? Read once per
/// process: every simulation run constructs a [`Progress`], and the
/// variable lookup plus the terminal probe would otherwise be paid each
/// time.
fn env_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| match std::env::var("ND_PROGRESS").ok().as_deref() {
        Some("1") => true,
        Some("0") => false,
        _ => std::io::stderr().is_terminal(),
    })
}

/// Defensively erase any progress residue from stderr and flush it.
///
/// Call this immediately before printing a final summary: on fast runs
/// the last repaint can race the summary write (stderr is unbuffered,
/// stdout often block-buffered when piped), leaving the carriage-return
/// line interleaved with the summary. A no-op when the environment
/// disables progress rendering, so piped runs with `ND_PROGRESS=0` see
/// no stray control bytes.
pub fn clear_line() {
    if !env_enabled() {
        return;
    }
    let mut err = std::io::stderr().lock();
    // Wide enough for any line a `Progress` may have painted.
    let _ = write!(err, "\r{:100}\r", "");
    let _ = err.flush();
}

/// A progress line over `total` units of work. Construct with
/// [`Progress::new`], feed it the running completion count with
/// [`update`](Progress::update), and let it drop (or call
/// [`finish`](Progress::finish)) to clear the line and free the render
/// slot. Shareable across threads by reference: worker threads can all
/// call `update` on the same handle.
pub struct Progress {
    inner: Option<Inner>,
}

struct Inner {
    label: String,
    total: u64,
    start: Instant,
    /// Nanoseconds (since `start`) before which repaints are skipped.
    next_render_ns: AtomicU64,
}

impl Progress {
    /// Claim the render slot for `total` units of work labelled `label`.
    /// Returns an inert handle (all methods no-ops) when rendering is
    /// disabled by the environment or another `Progress` is live.
    pub fn new(label: &str, total: u64) -> Progress {
        Self::with_enabled(label, total, env_enabled())
    }

    fn with_enabled(label: &str, total: u64, on: bool) -> Progress {
        if !on
            || SLOT
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
        {
            return Progress { inner: None };
        }
        Progress {
            inner: Some(Inner {
                label: label.to_string(),
                total,
                start: Instant::now(),
                next_render_ns: AtomicU64::new(0),
            }),
        }
    }

    /// Whether this handle owns the render slot and will paint.
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    /// Report that `done` of the total units are complete. Repaints at
    /// most ~every 150 ms; extra calls are one atomic load.
    pub fn update(&self, done: u64) {
        let Some(inner) = &self.inner else { return };
        let now_ns = inner.start.elapsed().as_nanos() as u64;
        let due = inner.next_render_ns.load(Ordering::Relaxed);
        if now_ns < due {
            return;
        }
        if inner
            .next_render_ns
            .compare_exchange(
                due,
                now_ns + THROTTLE_NS,
                Ordering::Relaxed,
                Ordering::Relaxed,
            )
            .is_err()
        {
            return; // another thread is painting this tick
        }
        inner.paint(done, now_ns);
    }

    /// Clear the line and release the render slot (also done on drop).
    pub fn finish(mut self) {
        self.clear();
    }

    fn clear(&mut self) {
        if let Some(inner) = self.inner.take() {
            let mut err = std::io::stderr().lock();
            let _ = write!(err, "\r{:width$}\r", "", width = inner.line_width());
            let _ = err.flush();
            SLOT.store(false, Ordering::Release);
        }
    }
}

impl Inner {
    /// A generous clear width for the longest line we may have painted.
    fn line_width(&self) -> usize {
        self.label.len() + 48
    }

    fn paint(&self, done: u64, now_ns: u64) {
        let done = done.min(self.total);
        let pct = (done * 100).checked_div(self.total).unwrap_or(100);
        let eta = if done == 0 || done >= self.total {
            String::new()
        } else {
            let remaining_ns = now_ns / done * (self.total - done);
            format!("  ETA {:.0}s", remaining_ns as f64 / 1e9)
        };
        let mut err = std::io::stderr().lock();
        let _ = write!(
            err,
            "\r{:width$}\r{}: {}/{} ({}%){}",
            "",
            self.label,
            done,
            self.total,
            pct,
            eta,
            width = self.line_width()
        );
        let _ = err.flush();
    }
}

impl Drop for Progress {
    fn drop(&mut self) {
        self.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_handles_are_inert() {
        let _g = serial();
        let p = Progress::with_enabled("test", 10, false);
        assert!(!p.is_active());
        p.update(5); // no-op, no panic
        p.finish();
    }

    #[test]
    fn slot_is_exclusive_and_released() {
        let _g = serial();
        let first = Progress::with_enabled("a", 10, true);
        assert!(first.is_active());
        let second = Progress::with_enabled("b", 10, true);
        assert!(!second.is_active(), "slot already held");
        drop(first);
        let third = Progress::with_enabled("c", 10, true);
        assert!(third.is_active(), "slot released on drop");
        third.finish();
    }

    #[test]
    fn update_is_safe_from_many_threads() {
        let _g = serial();
        let p = Progress::with_enabled("t", 1000, true);
        std::thread::scope(|s| {
            for t in 0..4 {
                let p = &p;
                s.spawn(move || {
                    for i in 0..250u64 {
                        p.update(t * 250 + i);
                    }
                });
            }
        });
        p.finish();
    }
}
