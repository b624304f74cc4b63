//! Structured tracing: lightweight spans with monotonic timing, a
//! thread-local span stack, and a JSONL sink.
//!
//! A span is opened with the [`span!`](crate::span!) macro (or
//! [`Span::enter`]) and closed when the guard drops; at close time one
//! JSON line is written to the configured sink. When tracing is
//! disabled (the default) opening a span is a single relaxed atomic
//! load — no allocation, no clock read, and the macro does not even
//! evaluate its field expressions.
//!
//! The sink is configured once per process, either explicitly
//! ([`init_file`] / [`init_writer`], which the CLIs wire to
//! `--trace-out`) or from the `ND_TRACE` environment variable
//! ([`init_from_env`]).
//!
//! # Line schema
//!
//! Each line is one JSON object:
//!
//! ```json
//! {"t": "span", "name": "sweep.job", "tid": 3, "start_ns": 81234,
//!  "dur_ns": 52100, "depth": 1, "fields": {"job": 4}}
//! ```
//!
//! * `t` — record type, always `"span"` today.
//! * `name` — the span name passed to `span!`.
//! * `tid` — a small per-process thread ordinal (first thread to open a
//!   span gets 0, and so on). Not the OS thread id.
//! * `start_ns` / `dur_ns` — integer nanoseconds; `start_ns` is measured
//!   from a process-wide monotonic epoch taken at first use, so spans
//!   from all threads share one timeline.
//! * `depth` — how many spans were already open on this thread when this
//!   one started (0 = top level). A parent always has a smaller `depth`
//!   and an enclosing `[start_ns, start_ns+dur_ns]` interval.
//! * `ctx` — the thread's trace context at open time (see
//!   [`push_context`]); omitted when none is installed. `nd-serve` puts
//!   each request's `X-ND-Trace-Id` here, so one id reconstructs the
//!   whole cross-thread story of a request.
//! * `fields` — the `key = value` pairs from the macro call; omitted
//!   when empty.
//!
//! Tracing records *timings about* the pipeline; it never feeds back
//! into it. Content hashes, seeds and exported rows are byte-identical
//! with tracing on or off (a regression test in nd-sweep pins this).

use crate::jsonfmt;
use std::cell::{Cell, RefCell};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether tracing is on (one relaxed atomic load — the check every
/// span site performs first).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The shared monotonic epoch. Set once on first use and never reset,
/// so timestamps stay monotone even if the sink is re-initialised.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process trace epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

static SINK: Mutex<Option<Box<dyn Write + Send>>> = Mutex::new(None);

/// Next per-process thread ordinal (`tid` in the line schema).
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TID: Cell<u64> = const { Cell::new(u64::MAX) };
    /// Open-span count on this thread (the next span's `depth`).
    static DEPTH: Cell<u64> = const { Cell::new(0) };
    /// The thread's trace context (e.g. a request id); stamped as `ctx`
    /// on every span opened while it is installed.
    static CONTEXT: RefCell<Option<Arc<str>>> = const { RefCell::new(None) };
}

fn tid() -> u64 {
    TID.with(|t| {
        if t.get() == u64::MAX {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// The calling thread's current trace context, if one is installed.
///
/// Capture this before handing work to another thread and re-install it
/// there with [`set_context`] so spans emitted by the worker carry the
/// originating request's id (nd-sweep's worker pool does exactly this).
pub fn current_context() -> Option<Arc<str>> {
    CONTEXT.with(|c| c.borrow().clone())
}

/// Install `ctx` as this thread's trace context until the returned
/// guard drops; the previous context (if any) is restored on drop.
///
/// While installed, every span opened on this thread records
/// `"ctx": "<value>"` in its JSONL line. Installing a context is cheap
/// and independent of whether tracing is enabled, so request-scoped
/// code can set it unconditionally.
pub fn set_context(ctx: Option<Arc<str>>) -> ContextGuard {
    let prev = CONTEXT.with(|c| c.replace(ctx));
    ContextGuard {
        prev,
        _not_send: std::marker::PhantomData,
    }
}

/// Convenience wrapper over [`set_context`] for the common "stamp this
/// request id" case.
pub fn push_context(ctx: impl Into<Arc<str>>) -> ContextGuard {
    set_context(Some(ctx.into()))
}

/// Restores the previously installed trace context when dropped.
/// Returned by [`set_context`] / [`push_context`]; `!Send` because the
/// context is thread-local state.
#[must_use = "dropping the guard immediately uninstalls the context"]
pub struct ContextGuard {
    prev: Option<Arc<str>>,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CONTEXT.with(|c| *c.borrow_mut() = self.prev.take());
    }
}

/// Route trace output to `writer` and enable tracing. Replaces (and
/// flushes) any previous sink.
pub fn init_writer(writer: Box<dyn Write + Send>) {
    let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(old) = sink.as_mut() {
        let _ = old.flush();
    }
    epoch(); // pin the timeline origin before the first span
    *sink = Some(writer);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Create (truncate) `path` and route trace output to it.
pub fn init_file(path: &Path) -> std::io::Result<()> {
    let f = File::create(path)?;
    init_writer(Box::new(BufWriter::new(f)));
    Ok(())
}

/// Enable tracing if the `ND_TRACE` environment variable names a
/// writable path. Returns whether tracing was enabled. The CLIs call
/// this at startup; an explicit `--trace-out` flag takes precedence by
/// calling [`init_file`] afterwards.
pub fn init_from_env() -> std::io::Result<bool> {
    match std::env::var_os("ND_TRACE") {
        Some(p) if !p.is_empty() => {
            init_file(Path::new(&p))?;
            Ok(true)
        }
        _ => Ok(false),
    }
}

/// Flush and drop the sink and disable tracing. Safe to call when
/// tracing was never enabled.
pub fn shutdown() {
    ENABLED.store(false, Ordering::Relaxed);
    let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(w) = sink.as_mut() {
        let _ = w.flush();
    }
    *sink = None;
}

/// A value attached to a span via `span!("name", key = value)`.
#[derive(Clone, Debug)]
pub enum FieldValue {
    /// A string (content-hash prefixes, censor reasons, …).
    Str(String),
    /// An unsigned integer (job indices, counts).
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float (rendered `null` if non-finite).
    F64(f64),
    /// A boolean.
    Bool(bool),
}

macro_rules! impl_from {
    ($($t:ty => $variant:ident as $conv:ty),* $(,)?) => {$(
        impl From<$t> for FieldValue {
            fn from(v: $t) -> Self {
                FieldValue::$variant(v as $conv)
            }
        }
    )*};
}

impl_from! {
    u64 => U64 as u64, u32 => U64 as u64, usize => U64 as u64,
    i64 => I64 as i64, i32 => I64 as i64,
    f64 => F64 as f64,
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// An open span; dropping it closes the span and writes its JSONL line.
///
/// Prefer the [`span!`](crate::span!) macro, which skips all argument
/// evaluation when tracing is off. `Span` is `!Send` by construction
/// (it caches the thread ordinal), matching the thread-local stack.
#[must_use = "a span measures the scope it is bound to; dropping it immediately records nothing useful"]
pub struct Span {
    inner: Option<SpanInner>,
}

struct SpanInner {
    name: &'static str,
    fields: Vec<(&'static str, FieldValue)>,
    start_ns: u64,
    depth: u64,
    tid: u64,
    ctx: Option<Arc<str>>,
    // Keep the guard thread-bound so depth bookkeeping stays coherent.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Span {
    /// Open a span. Returns an inert guard when tracing is disabled.
    pub fn enter(name: &'static str, fields: Vec<(&'static str, FieldValue)>) -> Span {
        if !enabled() {
            return Span { inner: None };
        }
        let depth = DEPTH.with(|d| {
            let v = d.get();
            d.set(v + 1);
            v
        });
        Span {
            inner: Some(SpanInner {
                name,
                fields,
                start_ns: now_ns(),
                depth,
                tid: tid(),
                ctx: current_context(),
                _not_send: std::marker::PhantomData,
            }),
        }
    }

    /// Whether this guard is actually recording (false when tracing was
    /// off at open time).
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }

    /// Attach a field known only after the span opened (an outcome, a
    /// count). A no-op on an inert guard: the value is not even
    /// converted.
    pub fn record(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if let Some(inner) = &mut self.inner {
            inner.fields.push((key, value.into()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let end_ns = now_ns();
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));

        let mut line = String::with_capacity(128);
        line.push_str("{\"t\": \"span\", \"name\": ");
        jsonfmt::push_str(&mut line, inner.name);
        line.push_str(&format!(
            ", \"tid\": {}, \"start_ns\": {}, \"dur_ns\": {}, \"depth\": {}",
            inner.tid,
            inner.start_ns,
            end_ns.saturating_sub(inner.start_ns),
            inner.depth
        ));
        if let Some(ctx) = &inner.ctx {
            line.push_str(", \"ctx\": ");
            jsonfmt::push_str(&mut line, ctx);
        }
        if !inner.fields.is_empty() {
            line.push_str(", \"fields\": {");
            for (i, (k, v)) in inner.fields.iter().enumerate() {
                if i > 0 {
                    line.push_str(", ");
                }
                jsonfmt::push_str(&mut line, k);
                line.push_str(": ");
                match v {
                    FieldValue::Str(s) => jsonfmt::push_str(&mut line, s),
                    FieldValue::U64(n) => line.push_str(&n.to_string()),
                    FieldValue::I64(n) => line.push_str(&n.to_string()),
                    FieldValue::F64(f) => jsonfmt::push_f64(&mut line, *f),
                    FieldValue::Bool(b) => line.push_str(if *b { "true" } else { "false" }),
                }
            }
            line.push('}');
        }
        line.push_str("}\n");

        // One locked write per line keeps lines atomic across threads.
        let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(w) = sink.as_mut() {
            let _ = w.write_all(line.as_bytes());
        }
    }
}

/// Open a span that closes (and emits its JSONL line) when the bound
/// guard drops.
///
/// ```
/// # use nd_obs::span;
/// let _span = span!("backend.exact");
/// let job_index = 4usize;
/// let _span = span!("sweep.job", job = job_index, cached = false);
/// ```
///
/// Field values may be integers, floats, bools, `&str` or `String`
/// (anything `Into<`[`FieldValue`](crate::trace::FieldValue)`>`). When
/// tracing is disabled the field expressions are **not evaluated** —
/// the whole macro is one relaxed atomic load.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::trace::Span::enter($name, ::std::vec::Vec::new())
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        if $crate::trace::enabled() {
            $crate::trace::Span::enter(
                $name,
                ::std::vec![$((stringify!($key), $crate::trace::FieldValue::from($value))),+],
            )
        } else {
            $crate::trace::Span::enter($name, ::std::vec::Vec::new())
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex as StdMutex};

    /// A Vec<u8> sink we can inspect after shutdown.
    #[derive(Clone, Default)]
    struct Shared(Arc<StdMutex<Vec<u8>>>);

    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: StdMutex<()> = StdMutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_spans_are_inert() {
        let _g = serial();
        shutdown();
        // Field expressions must not run when tracing is off.
        let evaluate_panics = || -> u64 { panic!("field evaluated while disabled") };
        let s = span!("test.noop", never = evaluate_panics());
        assert!(!s.is_recording());
    }

    #[test]
    fn spans_emit_nested_jsonl() {
        let _g = serial();
        let buf = Shared::default();
        init_writer(Box::new(buf.clone()));
        {
            let _outer = span!("test.outer", label = "run");
            let _inner = span!("test.inner", job = 7u64, ok = true);
        }
        shutdown();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "got: {text}");
        // Inner closes first.
        assert!(lines[0].contains("\"name\": \"test.inner\""));
        assert!(lines[0].contains("\"depth\": 1"));
        assert!(lines[0].contains("\"job\": 7"));
        assert!(lines[0].contains("\"ok\": true"));
        assert!(lines[1].contains("\"name\": \"test.outer\""));
        assert!(lines[1].contains("\"depth\": 0"));
        assert!(lines[1].contains("\"label\": \"run\""));
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
        }
    }

    #[test]
    fn recorded_fields_follow_the_opening_ones() {
        let _g = serial();
        shutdown();
        let mut inert = span!("test.inert");
        inert.record("late", 1u64);
        assert!(!inert.is_recording());
        drop(inert);
        let buf = Shared::default();
        init_writer(Box::new(buf.clone()));
        {
            let mut s = span!("test.record", job = 3u64);
            s.record("exit", "covered");
            s.record("images", 12usize);
        }
        shutdown();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert!(
            text.contains("\"fields\": {\"job\": 3, \"exit\": \"covered\", \"images\": 12}"),
            "got: {text}"
        );
    }

    #[test]
    fn context_is_stamped_nested_and_restored() {
        let _g = serial();
        let buf = Shared::default();
        init_writer(Box::new(buf.clone()));
        {
            let _before = span!("test.ctx_before");
        }
        {
            let _ctx = push_context("req-42");
            let _outer = span!("test.ctx_outer");
            let _inner = span!("test.ctx_inner");
            // An inner scope can override, and the override unwinds.
            {
                let _ctx2 = push_context("req-43");
                let _deep = span!("test.ctx_deep");
            }
            let _tail = span!("test.ctx_tail");
        }
        {
            let _after = span!("test.ctx_after");
        }
        shutdown();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let line = |name: &str| -> String {
            text.lines()
                .find(|l| l.contains(&format!("\"name\": \"{name}\"")))
                .unwrap_or_else(|| panic!("missing span {name} in: {text}"))
                .to_string()
        };
        assert!(!line("test.ctx_before").contains("\"ctx\""));
        assert!(line("test.ctx_outer").contains("\"ctx\": \"req-42\""));
        assert!(line("test.ctx_inner").contains("\"ctx\": \"req-42\""));
        assert!(line("test.ctx_deep").contains("\"ctx\": \"req-43\""));
        assert!(line("test.ctx_tail").contains("\"ctx\": \"req-42\""));
        assert!(!line("test.ctx_after").contains("\"ctx\""));
        assert!(current_context().is_none());
    }

    #[test]
    fn context_transfers_across_threads_by_capture() {
        let _g = serial();
        let buf = Shared::default();
        init_writer(Box::new(buf.clone()));
        {
            let _ctx = push_context("req-x");
            let captured = current_context();
            std::thread::scope(|s| {
                s.spawn(move || {
                    let _g = set_context(captured);
                    let _span = span!("test.ctx_worker");
                });
            });
        }
        shutdown();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let worker = text
            .lines()
            .find(|l| l.contains("test.ctx_worker"))
            .unwrap();
        assert!(worker.contains("\"ctx\": \"req-x\""), "got: {worker}");
    }

    #[test]
    fn timestamps_are_monotone_and_nest() {
        let _g = serial();
        let buf = Shared::default();
        init_writer(Box::new(buf.clone()));
        {
            let _outer = span!("test.mono_outer");
            std::thread::sleep(std::time::Duration::from_millis(1));
            let _inner = span!("test.mono_inner");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        shutdown();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let grab = |line: &str, key: &str| -> u64 {
            let at = line.find(key).unwrap() + key.len() + 2;
            line[at..]
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect::<String>()
                .parse()
                .unwrap()
        };
        let lines: Vec<&str> = text.lines().collect();
        let (inner, outer) = (lines[0], lines[1]);
        let (is, id) = (grab(inner, "\"start_ns\""), grab(inner, "\"dur_ns\""));
        let (os, od) = (grab(outer, "\"start_ns\""), grab(outer, "\"dur_ns\""));
        assert!(os <= is, "outer starts first");
        assert!(is + id <= os + od, "inner interval inside outer");
        assert!(id >= 1_000_000, "inner slept ≥ 1 ms");
    }
}
