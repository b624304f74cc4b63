//! `nd-trace` — the read side of nd-obs tracing: span-JSONL analytics.
//!
//! nd-obs writes one JSON line per closed span (`ND_TRACE=path` or the
//! CLIs' `--trace-out`). This crate parses those lines back into
//! per-thread span trees ([`build_forest`]) and answers the questions
//! the write side cannot: where did the wall-clock go
//! ([`critical_path`]), what does the whole run look like as a
//! flamegraph ([`folded_stacks`]) or in a trace viewer
//! ([`chrome_trace`]), did anything regress between two runs
//! ([`diff`] — the `nd-trace diff --fail-on-regress` CI gate), and is
//! the trace well-formed at all ([`check`] — the `nd-trace check` CI
//! gate).
//!
//! There is one span grammar, the one nd-obs writes: every non-blank
//! line is a JSON object with `t` = `"span"`, a string `name`, and
//! non-negative integer `tid`, `start_ns`, `dur_ns` and `depth`; `ctx`,
//! `fields` and any other key are optional. [`parse_trace`] is its only
//! parser and rejects every other line. Tree building uses interval
//! containment (not the recorded `depth`), so a trace filtered to one
//! request id still forms valid trees even though the surviving spans'
//! depths are sparse; [`check`] holds the recorded depths of a whole
//! trace to those trees.
//!
//! Self-time — the quantity flamegraphs and the critical path report —
//! is a span's duration minus the duration of its direct children
//! (clamped at zero when children overlap the parent edge by a few
//! nanoseconds).

#![warn(missing_docs)]

use nd_sweep::value::{parse_json, Value};
use std::collections::BTreeMap;
use std::fmt;

/// An error from trace parsing or analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError(pub String);

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for TraceError {}

/// One span line from an nd-obs trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Span name (`sweep.job`, `serve.request`, …).
    pub name: String,
    /// Per-process thread ordinal the span ran on.
    pub tid: u64,
    /// Start, nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Open-span count on its thread at entry (trees are rebuilt from
    /// intervals; [`check`] compares the two).
    pub depth: u64,
    /// The trace context (request id) stamped on the span, if any.
    pub ctx: Option<String>,
    /// The span's `fields` object, if any (kept for chrome export).
    pub fields: Option<Value>,
}

impl SpanRec {
    /// Exclusive end timestamp.
    pub fn end_ns(&self) -> u64 {
        self.start_ns.saturating_add(self.dur_ns)
    }
}

fn get_u64(t: &BTreeMap<String, Value>, key: &str) -> Option<u64> {
    t.get(key)?.as_i64().and_then(|v| u64::try_from(v).ok())
}

/// Parse span JSONL text into records. Blank lines are ignored; every
/// other line must be a span record in the crate-level grammar, or the
/// error names its line number.
pub fn parse_trace(text: &str) -> Result<Vec<SpanRec>, TraceError> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let err = |msg: String| TraceError(format!("line {}: {msg}", lineno + 1));
        let v = parse_json(line).map_err(|e| err(format!("not valid JSON: {e}")))?;
        let t = v
            .as_table()
            .ok_or_else(|| err("not a JSON object".to_string()))?;
        if t.get("t").and_then(Value::as_str) != Some("span") {
            return Err(err("not a span record (`t` must be \"span\")".to_string()));
        }
        let int = |key: &str| {
            get_u64(t, key).ok_or_else(|| err(format!("span needs {key:?} as an integer ≥ 0")))
        };
        out.push(SpanRec {
            name: t
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| err("span missing string \"name\"".to_string()))?
                .to_string(),
            tid: int("tid")?,
            start_ns: int("start_ns")?,
            dur_ns: int("dur_ns")?,
            depth: int("depth")?,
            ctx: t.get("ctx").and_then(Value::as_str).map(str::to_string),
            fields: t.get("fields").cloned(),
        });
    }
    Ok(out)
}

/// A span in its reconstructed tree.
#[derive(Debug, Clone)]
pub struct Node {
    /// The parsed span.
    pub span: SpanRec,
    /// Indices (into [`Forest::nodes`]) of direct children, in start
    /// order.
    pub children: Vec<usize>,
    /// Duration not covered by direct children.
    pub self_ns: u64,
}

/// All spans of a trace as per-thread trees on one shared timeline.
#[derive(Debug, Clone, Default)]
pub struct Forest {
    /// Every span, tree edges in [`Node::children`]; a parent comes
    /// before its children.
    pub nodes: Vec<Node>,
    /// Indices of top-level spans (no enclosing span on their thread).
    pub roots: Vec<usize>,
    /// Trace wall-clock: latest end minus earliest start over all
    /// spans. 0 for an empty trace.
    pub wall_ns: u64,
}

/// Rebuild span trees from flat records.
///
/// Spans are grouped by `tid` and nested by interval containment: a
/// span is a child of the innermost earlier span on its thread whose
/// `[start, end]` interval contains it. The recorded `depth` only
/// breaks start-time ties, so subsets (e.g. one request id) still
/// build correctly. Spans that tie on both are siblings, and all but
/// the last of them closed the instant they opened, so the shorter
/// goes first.
pub fn build_forest(spans: Vec<SpanRec>) -> Forest {
    let mut forest = Forest::default();
    if spans.is_empty() {
        return forest;
    }
    let min_start = spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
    let max_end = spans.iter().map(SpanRec::end_ns).max().unwrap_or(0);
    forest.wall_ns = max_end.saturating_sub(min_start);

    let mut by_tid: BTreeMap<u64, Vec<SpanRec>> = BTreeMap::new();
    for s in spans {
        by_tid.entry(s.tid).or_default().push(s);
    }
    for (_tid, mut group) in by_tid {
        group.sort_by_key(|s| (s.start_ns, s.depth, s.dur_ns));
        let mut stack: Vec<usize> = Vec::new();
        for span in group {
            // Unwind to the innermost open span that contains this one.
            while let Some(&top) = stack.last() {
                let t = &forest.nodes[top].span;
                if span.start_ns >= t.end_ns() || span.end_ns() > t.end_ns() {
                    stack.pop();
                } else {
                    break;
                }
            }
            let idx = forest.nodes.len();
            forest.nodes.push(Node {
                span,
                children: Vec::new(),
                self_ns: 0,
            });
            match stack.last() {
                Some(&parent) => forest.nodes[parent].children.push(idx),
                None => forest.roots.push(idx),
            }
            stack.push(idx);
        }
    }
    // Self-time = duration minus direct children.
    for i in 0..forest.nodes.len() {
        let child_ns: u64 = forest.nodes[i]
            .children
            .iter()
            .map(|&c| forest.nodes[c].span.dur_ns)
            .sum();
        forest.nodes[i].self_ns = forest.nodes[i].span.dur_ns.saturating_sub(child_ns);
    }
    forest
}

/// Keep only spans stamped with trace context `ctx`.
pub fn filter_ctx(spans: Vec<SpanRec>, ctx: &str) -> Vec<SpanRec> {
    spans
        .into_iter()
        .filter(|s| s.ctx.as_deref() == Some(ctx))
        .collect()
}

// ---------------------------------------------------------------------------
// check
// ---------------------------------------------------------------------------

/// Rebuild a trace's span trees and validate them. A trace passes when
/// it has at least one span, no two spans on one thread overlap without
/// one containing the other, and every span's recorded `depth` equals
/// its level in its thread's tree. The error names the offending span.
pub fn check(spans: Vec<SpanRec>) -> Result<Forest, TraceError> {
    if spans.is_empty() {
        return Err(TraceError("trace contains no span records".into()));
    }
    let forest = build_forest(spans);
    let nodes = &forest.nodes;
    // build_forest re-parents a span that ends after the span it starts
    // in, which leaves the two as overlapping siblings
    let child_lists = nodes.iter().map(|n| &n.children);
    for siblings in std::iter::once(&forest.roots).chain(child_lists) {
        for pair in siblings.windows(2) {
            let (a, b) = (&nodes[pair[0]].span, &nodes[pair[1]].span);
            if a.tid == b.tid && a.end_ns() > b.start_ns {
                return Err(TraceError(format!(
                    "tid {}: span `{}` at {} ns overlaps `{}` without nesting in it",
                    b.tid, b.name, b.start_ns, a.name
                )));
            }
        }
    }
    let mut level = vec![0; nodes.len()];
    for (i, Node { span, children, .. }) in nodes.iter().enumerate() {
        if span.depth != level[i] {
            return Err(TraceError(format!(
                "tid {}: span `{}` at {} ns has depth {} but nests at level {}",
                span.tid, span.name, span.start_ns, span.depth, level[i]
            )));
        }
        for &c in children {
            level[c] = level[i] + 1;
        }
    }
    Ok(forest)
}

/// Job cover: Σ dur(`sweep.job`) / Σ dur(`sweep.run`), the share of a
/// sweep's wall-clock its per-job spans account for. `None` when no
/// `sweep.run` time was recorded.
pub fn job_cover(by_name: &BTreeMap<String, NameStats>) -> Option<f64> {
    let total = |name: &str| by_name.get(name).map_or(0, |s| s.total_ns);
    let run = total("sweep.run");
    (run > 0).then(|| total("sweep.job") as f64 / run as f64)
}

// ---------------------------------------------------------------------------
// critical path
// ---------------------------------------------------------------------------

/// One step down the critical path.
#[derive(Debug, Clone)]
pub struct PathStep {
    /// Span name.
    pub name: String,
    /// Span duration.
    pub dur_ns: u64,
    /// Span self-time (duration minus direct children).
    pub self_ns: u64,
    /// Nesting level along the path (0 = the root step).
    pub level: usize,
}

/// Aggregated per-name totals (used by the critical-path table and
/// [`diff`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameStats {
    /// Number of spans with this name.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed self-time.
    pub self_ns: u64,
}

/// The critical-path report over one trace.
#[derive(Debug, Clone)]
pub struct CriticalPath {
    /// Trace wall-clock (latest end minus earliest start).
    pub wall_ns: u64,
    /// Wall-clock covered by top-level spans of the dominant thread —
    /// the thread whose roots cover the most time.
    pub attributed_ns: u64,
    /// `attributed_ns / wall_ns` (0 when the trace is empty).
    pub attributed_frac: f64,
    /// The dominating chain: from the longest root, repeatedly into the
    /// longest child.
    pub steps: Vec<PathStep>,
    /// Per-name self-time totals, descending.
    pub self_by_name: Vec<(String, NameStats)>,
}

/// Sum span durations and self-times per span name.
pub fn aggregate_by_name(forest: &Forest) -> BTreeMap<String, NameStats> {
    let mut map: BTreeMap<String, NameStats> = BTreeMap::new();
    for n in &forest.nodes {
        let e = map.entry(n.span.name.clone()).or_default();
        e.count += 1;
        e.total_ns += n.span.dur_ns;
        e.self_ns += n.self_ns;
    }
    map
}

/// Attribute the trace's wall-clock: find the dominant thread, walk the
/// dominating span chain, and rank span names by self-time.
pub fn critical_path(forest: &Forest) -> CriticalPath {
    // Dominant thread = the tid whose root spans cover the most time.
    let mut root_cover: BTreeMap<u64, u64> = BTreeMap::new();
    for &r in &forest.roots {
        let s = &forest.nodes[r].span;
        *root_cover.entry(s.tid).or_default() += s.dur_ns;
    }
    let attributed_ns = root_cover.values().copied().max().unwrap_or(0);
    let dominant_tid = root_cover
        .iter()
        .max_by_key(|(_, &v)| v)
        .map(|(&k, _)| k)
        .unwrap_or(0);

    // Chain: longest root on the dominant thread, then longest child.
    let mut steps = Vec::new();
    let mut cur = forest
        .roots
        .iter()
        .copied()
        .filter(|&r| forest.nodes[r].span.tid == dominant_tid)
        .max_by_key(|&r| forest.nodes[r].span.dur_ns);
    let mut level = 0;
    while let Some(i) = cur {
        let n = &forest.nodes[i];
        steps.push(PathStep {
            name: n.span.name.clone(),
            dur_ns: n.span.dur_ns,
            self_ns: n.self_ns,
            level,
        });
        level += 1;
        cur = n
            .children
            .iter()
            .copied()
            .max_by_key(|&c| forest.nodes[c].span.dur_ns);
    }

    let mut self_by_name: Vec<(String, NameStats)> =
        aggregate_by_name(forest).into_iter().collect();
    self_by_name.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(&b.0)));

    CriticalPath {
        wall_ns: forest.wall_ns,
        attributed_ns,
        attributed_frac: if forest.wall_ns == 0 {
            0.0
        } else {
            attributed_ns as f64 / forest.wall_ns as f64
        },
        steps,
        self_by_name,
    }
}

// ---------------------------------------------------------------------------
// flame / chrome export
// ---------------------------------------------------------------------------

/// Folded-stack lines (`root;child;leaf self_ns`) for flamegraph tools.
///
/// One line per distinct stack, the count being the stack's summed
/// self-time in nanoseconds; lines come out sorted so the output is
/// deterministic. Feed directly to `flamegraph.pl` or `inferno`.
pub fn folded_stacks(forest: &Forest) -> String {
    let mut acc: BTreeMap<String, u64> = BTreeMap::new();
    let mut stack: Vec<&str> = Vec::new();
    fn walk<'a>(
        forest: &'a Forest,
        idx: usize,
        stack: &mut Vec<&'a str>,
        acc: &mut BTreeMap<String, u64>,
    ) {
        let n = &forest.nodes[idx];
        stack.push(&n.span.name);
        if n.self_ns > 0 {
            *acc.entry(stack.join(";")).or_default() += n.self_ns;
        }
        for &c in &n.children {
            walk(forest, c, stack, acc);
        }
        stack.pop();
    }
    for &r in &forest.roots {
        walk(forest, r, &mut stack, &mut acc);
    }
    let mut out = String::new();
    for (path, ns) in acc {
        out.push_str(&path);
        out.push(' ');
        out.push_str(&ns.to_string());
        out.push('\n');
    }
    out
}

/// Chrome trace-event JSON (`{"traceEvents": [...]}`) loadable in
/// `chrome://tracing` and Perfetto. Spans become complete (`"ph": "X"`)
/// events with microsecond timestamps; the trace context id and span
/// fields ride in `args`.
pub fn chrome_trace(spans: &[SpanRec]) -> String {
    let events: Vec<Value> = spans
        .iter()
        .map(|s| {
            let mut ev = BTreeMap::new();
            ev.insert("name".to_string(), Value::Str(s.name.clone()));
            ev.insert("cat".to_string(), Value::Str("nd".to_string()));
            ev.insert("ph".to_string(), Value::Str("X".to_string()));
            ev.insert("ts".to_string(), Value::Float(s.start_ns as f64 / 1e3));
            ev.insert("dur".to_string(), Value::Float(s.dur_ns as f64 / 1e3));
            ev.insert("pid".to_string(), Value::Int(0));
            ev.insert("tid".to_string(), Value::Int(s.tid as i64));
            let mut args = match &s.fields {
                Some(Value::Table(t)) => t.clone(),
                _ => BTreeMap::new(),
            };
            if let Some(ctx) = &s.ctx {
                args.insert("ctx".to_string(), Value::Str(ctx.clone()));
            }
            if !args.is_empty() {
                ev.insert("args".to_string(), Value::Table(args));
            }
            Value::Table(ev)
        })
        .collect();
    let mut top = BTreeMap::new();
    top.insert("traceEvents".to_string(), Value::Array(events));
    Value::Table(top).to_json()
}

// ---------------------------------------------------------------------------
// diff
// ---------------------------------------------------------------------------

/// Per-name before/after comparison produced by [`diff`].
#[derive(Debug, Clone)]
pub struct DiffRow {
    /// Span name.
    pub name: String,
    /// Stats in trace A (zeroed when the name is new in B).
    pub a: NameStats,
    /// Stats in trace B (zeroed when the name disappeared).
    pub b: NameStats,
    /// `(b.total - a.total) / a.total * 100`; +inf for new names.
    pub total_pct: f64,
    /// Whether this row trips the regression gate.
    pub regressed: bool,
}

/// The report of [`diff`].
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Wall-clock of A and B.
    pub wall_a_ns: u64,
    /// Wall-clock of trace B.
    pub wall_b_ns: u64,
    /// Whether the overall wall-clock regressed past the threshold.
    pub wall_regressed: bool,
    /// One row per span name (union of both traces), sorted by B total
    /// descending.
    pub rows: Vec<DiffRow>,
}

impl DiffReport {
    /// Whether any gate (wall-clock or per-name) tripped.
    pub fn regressed(&self) -> bool {
        self.wall_regressed || self.rows.iter().any(|r| r.regressed)
    }
}

/// Compare two traces per span name and against an overall wall-clock
/// gate.
///
/// A name regresses when its total time grows by more than
/// `fail_pct` percent **and** it is significant — its total in either
/// trace is at least `min_share` of that trace's wall-clock. The floor
/// keeps microsecond-scale spans (whose timings are pure noise between
/// otherwise identical runs) from tripping the gate; lower it
/// explicitly to gate on small spans.
pub fn diff(a: &Forest, b: &Forest, fail_pct: f64, min_share: f64) -> DiffReport {
    let (agg_a, agg_b) = (aggregate_by_name(a), aggregate_by_name(b));
    let factor = 1.0 + fail_pct / 100.0;
    let mut names: Vec<&String> = agg_a.keys().chain(agg_b.keys()).collect();
    names.sort();
    names.dedup();
    let mut rows: Vec<DiffRow> = names
        .into_iter()
        .map(|name| {
            let sa = agg_a.get(name).copied().unwrap_or_default();
            let sb = agg_b.get(name).copied().unwrap_or_default();
            let total_pct = if sa.total_ns == 0 {
                if sb.total_ns == 0 {
                    0.0
                } else {
                    f64::INFINITY
                }
            } else {
                (sb.total_ns as f64 - sa.total_ns as f64) / sa.total_ns as f64 * 100.0
            };
            let significant = sa.total_ns as f64 >= min_share * a.wall_ns as f64
                || sb.total_ns as f64 >= min_share * b.wall_ns as f64;
            let grew = sb.total_ns as f64 > sa.total_ns as f64 * factor;
            DiffRow {
                name: name.clone(),
                a: sa,
                b: sb,
                total_pct,
                regressed: significant && grew,
            }
        })
        .collect();
    rows.sort_by(|x, y| y.b.total_ns.cmp(&x.b.total_ns).then(x.name.cmp(&y.name)));
    DiffReport {
        wall_a_ns: a.wall_ns,
        wall_b_ns: b.wall_ns,
        wall_regressed: b.wall_ns as f64 > a.wall_ns as f64 * factor,
        rows,
    }
}

/// Format nanoseconds human-readably (µs/ms/s picked by magnitude).
pub fn fmt_ns(ns: u64) -> String {
    let ns_f = ns as f64;
    if ns < 10_000 {
        format!("{ns} ns")
    } else if ns < 10_000_000 {
        format!("{:.1} µs", ns_f / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.2} ms", ns_f / 1e6)
    } else {
        format!("{:.3} s", ns_f / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(name: &str, tid: u64, start: u64, dur: u64, depth: u64, ctx: Option<&str>) -> String {
        let ctx = ctx
            .map(|c| format!(", \"ctx\": \"{c}\""))
            .unwrap_or_default();
        format!(
            "{{\"t\": \"span\", \"name\": \"{name}\", \"tid\": {tid}, \"start_ns\": {start}, \"dur_ns\": {dur}, \"depth\": {depth}{ctx}}}"
        )
    }

    fn sample_trace() -> String {
        // tid 0: root [0, 1000) with children a [100, 400) and b [500, 900);
        // a has grandchild g [150, 250). tid 1: worker root [200, 800).
        [
            line("g", 0, 150, 100, 2, None),
            line("a", 0, 100, 300, 1, Some("req-1")),
            line("b", 0, 500, 400, 1, None),
            line("root", 0, 0, 1000, 0, None),
            line("worker", 1, 200, 600, 0, Some("req-1")),
        ]
        .join("\n")
    }

    #[test]
    fn parse_rejects_every_line_but_a_span_record() {
        let a = line("a", 0, 0, 10, 0, None);
        let b = line("b", 0, 20, 10, 0, None);
        assert_eq!(parse_trace(&format!("{a}\n\n{b}\n")).unwrap().len(), 2);
        let future = format!("{a}\n{{\"t\": \"future\", \"x\": 1}}\n\n{b}");
        let err = parse_trace(&future).unwrap_err().0;
        assert!(err.contains("line 2: not a span record"), "{err}");
        assert!(parse_trace("not json").is_err());
        assert!(parse_trace("{\"t\": \"span\"}")
            .unwrap_err()
            .0
            .contains("name"));
        let no_depth = b.replace(", \"depth\": 0", "");
        assert!(parse_trace(&no_depth).unwrap_err().0.contains("depth"));
        let float_start = b.replace("\"start_ns\": 20", "\"start_ns\": 20.5");
        assert!(parse_trace(&float_start)
            .unwrap_err()
            .0
            .contains("start_ns"));
    }

    fn check_text(text: &str) -> Result<Forest, TraceError> {
        parse_trace(text).and_then(check)
    }

    #[test]
    fn check_accepts_a_well_nested_trace() {
        let trace = [
            line("sweep.expand", 0, 10, 5, 1, None),
            line("sweep.job", 0, 20, 30, 1, None),
            line("sweep.job", 0, 55, 40, 1, None),
            line("sweep.run", 0, 0, 100, 0, None),
        ]
        .join("\n");
        let forest = check_text(&trace).unwrap();
        assert_eq!(forest.nodes.len(), 4);
        assert_eq!(forest.roots.len(), 1);
        let by_name = aggregate_by_name(&forest);
        assert_eq!(by_name["sweep.job"].count, 2);
        assert_eq!(job_cover(&by_name), Some(0.7));
        // a zero-length span that closed the instant its sibling opened
        let trace = [
            line("p", 0, 0, 100, 0, None),
            line("z", 0, 0, 0, 1, None),
            line("c", 0, 0, 50, 1, None),
        ]
        .join("\n");
        assert_eq!(check_text(&trace).unwrap().nodes.len(), 3);
    }

    #[test]
    fn check_rejects_wrong_depth() {
        let trace = [line("a", 0, 0, 100, 0, None), line("b", 0, 10, 20, 2, None)].join("\n");
        let err = check_text(&trace).unwrap_err().0;
        assert!(err.contains("depth 2"), "{err}");
    }

    #[test]
    fn check_rejects_child_escaping_parent() {
        let trace = [line("a", 0, 0, 100, 0, None), line("b", 0, 90, 50, 1, None)].join("\n");
        let err = check_text(&trace).unwrap_err().0;
        assert!(err.contains("overlaps"), "{err}");
        // the same escape recorded at the parent's depth
        let trace = [line("a", 0, 0, 100, 0, None), line("b", 0, 90, 50, 0, None)].join("\n");
        let err = check_text(&trace).unwrap_err().0;
        assert!(err.contains("overlaps"), "{err}");
    }

    #[test]
    fn check_rejects_garbage_and_missing_fields() {
        assert!(check_text("not json\n").is_err());
        assert!(check_text("{\"t\": \"span\"}\n").is_err());
        assert!(check_text("").is_err());
    }

    #[test]
    fn check_nests_threads_independently() {
        // identical intervals on different threads are unrelated
        let trace = [
            line("a", 0, 0, 100, 0, None),
            line("a", 1, 0, 100, 0, None),
            line("b", 1, 10, 20, 1, None),
        ]
        .join("\n");
        let forest = check_text(&trace).unwrap();
        assert_eq!(forest.roots.len(), 2, "one root per thread");
        assert_eq!(job_cover(&aggregate_by_name(&forest)), None, "no sweep.run");
    }

    #[test]
    fn forest_nests_by_containment_and_computes_self() {
        let f = build_forest(parse_trace(&sample_trace()).unwrap());
        assert_eq!(f.wall_ns, 1000);
        assert_eq!(f.roots.len(), 2); // root (tid 0) + worker (tid 1)
        let root = f
            .nodes
            .iter()
            .find(|n| n.span.name == "root")
            .expect("root node");
        assert_eq!(root.children.len(), 2);
        // self = 1000 - (300 + 400)
        assert_eq!(root.self_ns, 300);
        let a = f.nodes.iter().find(|n| n.span.name == "a").unwrap();
        assert_eq!(a.children.len(), 1);
        assert_eq!(a.self_ns, 200); // 300 - 100
    }

    #[test]
    fn critical_path_attributes_and_walks_longest_chain() {
        let f = build_forest(parse_trace(&sample_trace()).unwrap());
        let cp = critical_path(&f);
        assert_eq!(cp.wall_ns, 1000);
        // tid 0's root covers 1000 > tid 1's 600.
        assert_eq!(cp.attributed_ns, 1000);
        assert!((cp.attributed_frac - 1.0).abs() < 1e-9);
        let names: Vec<&str> = cp.steps.iter().map(|s| s.name.as_str()).collect();
        // Longest child of root is b (400 > 300).
        assert_eq!(names, ["root", "b"]);
        // Self-time ranking: b=400, root=300, worker=600 → worker first.
        assert_eq!(cp.self_by_name[0].0, "worker");
    }

    #[test]
    fn folded_stacks_sum_self_times() {
        let f = build_forest(parse_trace(&sample_trace()).unwrap());
        let folded = folded_stacks(&f);
        let lines: Vec<&str> = folded.lines().collect();
        assert!(lines.contains(&"root 300"));
        assert!(lines.contains(&"root;a 200"));
        assert!(lines.contains(&"root;a;g 100"));
        assert!(lines.contains(&"root;b 400"));
        assert!(lines.contains(&"worker 600"));
        // Folded totals add up to the total self time (= total span time
        // of roots here).
        let sum: u64 = lines
            .iter()
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(sum, 1600);
    }

    #[test]
    fn chrome_trace_parses_back_as_json() {
        let spans = parse_trace(&sample_trace()).unwrap();
        let json = chrome_trace(&spans);
        let v = parse_json(&json).unwrap();
        let events = v.as_table().unwrap()["traceEvents"].as_array().unwrap();
        assert_eq!(events.len(), 5);
        let first = events[0].as_table().unwrap();
        assert_eq!(first["ph"].as_str(), Some("X"));
        assert!(first.contains_key("ts") && first.contains_key("dur"));
    }

    #[test]
    fn ctx_filter_keeps_request_spans() {
        let spans = filter_ctx(parse_trace(&sample_trace()).unwrap(), "req-1");
        assert_eq!(spans.len(), 2);
        let f = build_forest(spans);
        assert_eq!(f.roots.len(), 2); // a (tid 0) and worker (tid 1)
    }

    #[test]
    fn diff_gates_on_significant_growth_only() {
        let base = build_forest(parse_trace(&sample_trace()).unwrap());
        // 2× slowdown: scale every timestamp and duration.
        let doubled: Vec<SpanRec> = parse_trace(&sample_trace())
            .unwrap()
            .into_iter()
            .map(|mut s| {
                s.start_ns *= 2;
                s.dur_ns *= 2;
                s
            })
            .collect();
        let slow = build_forest(doubled);

        // Identical runs: nothing regresses.
        let same = diff(&base, &base, 50.0, 0.01);
        assert!(!same.regressed(), "identical traces must pass the gate");

        // Doubled run: wall and the big names regress.
        let worse = diff(&base, &slow, 50.0, 0.01);
        assert!(worse.wall_regressed);
        assert!(worse.rows.iter().any(|r| r.name == "root" && r.regressed));

        // Insignificant spans never regress: tiny span triples but is
        // far below 1% of wall.
        let mut a_spans = parse_trace(&sample_trace()).unwrap();
        a_spans.push(SpanRec {
            name: "tiny".into(),
            tid: 0,
            start_ns: 10,
            dur_ns: 1_000_000, // 1 ms of a 10 s wall
            depth: 5,
            ctx: None,
            fields: None,
        });
        let mut b_spans = a_spans.clone();
        b_spans.last_mut().unwrap().dur_ns = 3_000_000;
        // Stretch wall so `tiny` is insignificant in both.
        for spans in [&mut a_spans, &mut b_spans] {
            spans.push(SpanRec {
                name: "big".into(),
                tid: 7,
                start_ns: 0,
                dur_ns: 10_000_000_000,
                depth: 0,
                ctx: None,
                fields: None,
            });
        }
        let rep = diff(&build_forest(a_spans), &build_forest(b_spans), 50.0, 0.01);
        let tiny = rep.rows.iter().find(|r| r.name == "tiny").unwrap();
        assert!(tiny.total_pct > 100.0);
        assert!(!tiny.regressed, "sub-threshold span must not gate");
        assert!(!rep.regressed());
    }

    #[test]
    fn fmt_ns_picks_sane_units() {
        assert_eq!(fmt_ns(999), "999 ns");
        assert_eq!(fmt_ns(15_000), "15.0 µs");
        assert_eq!(fmt_ns(12_340_000), "12.34 ms");
        assert_eq!(fmt_ns(12_000_000_000), "12.000 s");
    }
}
