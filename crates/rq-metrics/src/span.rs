//! Request-scoped span tracing: a [`TraceContext`] carrying a tree of
//! timed spans, installable per-thread so instrumented code anywhere in
//! the stack can open spans without threading a handle through every
//! call.
//!
//! Design constraints, mirroring the metrics layer:
//!
//! * **Near-free when off.** [`start`] with no installed context is one
//!   thread-local borrow and returns an inert guard; annotating an inert
//!   span never formats its value. Code can therefore instrument
//!   unconditionally, exactly like metric recording.
//! * **Monotonic durations.** Span start/end offsets come from a single
//!   [`Instant`] epoch captured when the trace begins; wall-clock
//!   [`SystemTime`] appears only once, as the trace's start timestamp.
//!   Recorded durations can never go negative under clock adjustment.
//! * **Bounded memory.** A trace stores at most [`MAX_SPANS_PER_TRACE`]
//!   spans; further completions are counted in `dropped_spans`, not
//!   stored. A span stores at most [`MAX_FIELDS_PER_SPAN`] fields.
//! * **Cross-thread propagation.** A context is `Arc`-shared: a worker
//!   pool closure calls [`install`] with the parent span's id and its
//!   spans land in the same trace, correctly parented, even though they
//!   ran on another thread.

use crate::json::Json;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Upper bound on recorded spans per trace; completions past the cap are
/// counted, not stored, so a pathological query cannot balloon a trace.
pub const MAX_SPANS_PER_TRACE: usize = 256;

/// Upper bound on annotation fields per span.
pub const MAX_FIELDS_PER_SPAN: usize = 16;

/// One completed span: a named, timed segment of a trace with optional
/// `key=value` annotations (verdicts, fuel spent, counters).
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Span id, unique within the trace (1-based; 0 is "no span").
    pub id: u64,
    /// Parent span id, when the span was opened under another span.
    pub parent: Option<u64>,
    /// Static span name, e.g. `"engine.run"` (table in ALGORITHMS.md).
    pub name: &'static str,
    /// Start offset from the trace epoch, microseconds (monotonic).
    pub start_us: u64,
    /// Span duration, microseconds (monotonic).
    pub duration_us: u64,
    /// Annotations recorded while the span was open.
    pub fields: Vec<(&'static str, String)>,
}

/// A request-scoped trace: an id, a wall-clock start timestamp, a
/// monotonic epoch, and a bounded tree of completed spans.
#[derive(Debug)]
pub struct TraceContext {
    id: u64,
    started_at_unix_us: u64,
    epoch: Instant,
    next_span: AtomicU64,
    dropped: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

/// Process-wide trace-id source: a counter finalized through SplitMix64
/// so successive ids are well-spread hex strings, seeded once from the
/// wall clock so ids differ across process restarts.
fn next_trace_id() -> u64 {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    static SEED: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    let seed = *SEED.get_or_init(|| {
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9E37_79B9_7F4A_7C15)
    });
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let mut z = seed.wrapping_add(n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    let id = z ^ (z >> 31);
    // 0 means "no trace" everywhere (exemplar slots, parent ids).
    if id == 0 {
        1
    } else {
        id
    }
}

impl TraceContext {
    /// Begin a new trace with a fresh process-unique id.
    pub fn start() -> Arc<TraceContext> {
        TraceContext::with_id(next_trace_id())
    }

    /// Begin a trace adopting a caller-provided id (e.g. one echoed from
    /// an `X-RQ-Trace-Id` request header). A zero id is replaced with a
    /// fresh one, since 0 is the "no trace" sentinel.
    pub fn with_id(id: u64) -> Arc<TraceContext> {
        let id = if id == 0 { next_trace_id() } else { id };
        Arc::new(TraceContext {
            id,
            started_at_unix_us: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_micros() as u64)
                .unwrap_or(0),
            epoch: Instant::now(),
            next_span: AtomicU64::new(1),
            dropped: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// The trace id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The trace id as the canonical 16-hex-digit string used on the
    /// wire (`trace_id` response field, `X-RQ-Trace-Id` header,
    /// exposition exemplars).
    pub fn id_hex(&self) -> String {
        format_trace_id(self.id)
    }

    /// Elapsed time since the trace epoch, microseconds (monotonic).
    pub fn elapsed_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn push(&self, record: SpanRecord) {
        let mut spans = self.spans.lock().unwrap_or_else(|e| e.into_inner());
        if spans.len() >= MAX_SPANS_PER_TRACE {
            drop(spans);
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        spans.push(record);
    }

    /// Seal the trace into an immutable [`FinishedTrace`] carrying the
    /// given outcome (`"ok"`, `"error[internal]"`, …) and a short
    /// human-oriented detail string (typically the query text). The
    /// recorded spans are *drained* into the snapshot (cloning ~a
    /// hundred records per request is measurable at serving rates): the
    /// context remains usable, but a second `finish` — or spans
    /// completing afterwards — yields an empty tree.
    pub fn finish(&self, outcome: &str, detail: &str) -> FinishedTrace {
        const DETAIL_CAP: usize = 200;
        let truncated = detail.chars().count() > DETAIL_CAP;
        let mut detail: String = detail.chars().take(DETAIL_CAP).collect();
        if truncated {
            detail.push('…');
        }
        let mut spans = std::mem::take(&mut *self.spans.lock().unwrap_or_else(|e| e.into_inner()));
        spans.sort_by_key(|s| (s.start_us, s.id));
        FinishedTrace {
            trace_id: self.id,
            started_at_unix_us: self.started_at_unix_us,
            duration_us: self.elapsed_us(),
            outcome: outcome.to_string(),
            detail,
            dropped_spans: self.dropped.load(Ordering::Relaxed),
            spans,
        }
    }
}

/// Render a trace id in its canonical wire form (16 lowercase hex
/// digits, zero-padded).
pub fn format_trace_id(id: u64) -> String {
    format!("{id:016x}")
}

/// Parse a trace id in the canonical wire form. Rejects anything that is
/// not 1–16 hex digits or parses to the reserved value 0.
pub fn parse_trace_id(s: &str) -> Option<u64> {
    if s.is_empty() || s.len() > 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    match u64::from_str_radix(s, 16) {
        Ok(0) | Err(_) => None,
        Ok(id) => Some(id),
    }
}

/// An immutable, completed trace: what the flight recorder stores and
/// what `/tracez`, `/slowz` and `rqtool explain` render.
#[derive(Debug, Clone)]
pub struct FinishedTrace {
    /// The trace id (wire form via [`format_trace_id`]).
    pub trace_id: u64,
    /// Wall-clock start, microseconds since the Unix epoch. The only
    /// wall-clock value in a trace; every duration is monotonic.
    pub started_at_unix_us: u64,
    /// Total trace duration, microseconds (monotonic).
    pub duration_us: u64,
    /// Final outcome: `"ok"` or a structured `error[...]` code.
    pub outcome: String,
    /// Short detail string (truncated query text).
    pub detail: String,
    /// Spans completed past [`MAX_SPANS_PER_TRACE`], dropped not stored.
    pub dropped_spans: u64,
    /// Completed spans ordered by start offset.
    pub spans: Vec<SpanRecord>,
}

thread_local! {
    /// The installed context and the current parent span id for spans
    /// opened on this thread.
    static CURRENT: RefCell<Option<(Arc<TraceContext>, u64)>> = const { RefCell::new(None) };
}

/// Install `ctx` as this thread's current trace until the returned guard
/// drops (restoring whatever was installed before). `parent` is the span
/// id new top-level spans on this thread parent under — pass the id of
/// the span that logically encloses this thread's work, or 0 for roots.
pub fn install(ctx: &Arc<TraceContext>, parent: u64) -> InstallGuard {
    let prev = CURRENT.with(|c| c.borrow_mut().replace((Arc::clone(ctx), parent)));
    InstallGuard { prev }
}

/// Uninstalls the context installed by [`install`] on drop.
#[must_use = "dropping the guard immediately uninstalls the trace context"]
pub struct InstallGuard {
    prev: Option<(Arc<TraceContext>, u64)>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT.with(|c| *c.borrow_mut() = prev);
    }
}

/// The id of this thread's current trace, if one is installed. Used for
/// histogram exemplars and response stamping.
pub fn current_trace_id() -> Option<u64> {
    CURRENT.with(|c| c.borrow().as_ref().map(|(ctx, _)| ctx.id()))
}

/// This thread's current trace context, if one is installed (cloned
/// handle; used to hand the context to worker threads).
pub fn current_context() -> Option<(Arc<TraceContext>, u64)> {
    CURRENT.with(|c| {
        c.borrow()
            .as_ref()
            .map(|(ctx, parent)| (Arc::clone(ctx), *parent))
    })
}

/// Open a span. With no installed context this is a thread-local borrow
/// and returns an inert guard; otherwise the span becomes the parent of
/// spans opened on this thread until it drops, at which point it is
/// recorded into the trace.
pub fn start(name: &'static str) -> ActiveSpan {
    let inner = CURRENT.with(|c| {
        let mut cur = c.borrow_mut();
        let (ctx, parent) = cur.as_mut()?;
        let id = ctx.next_span.fetch_add(1, Ordering::Relaxed);
        let prev_parent = *parent;
        *parent = id;
        // One clock read serves both the span offset and its duration.
        let start = Instant::now();
        Some(ActiveInner {
            id,
            parent: prev_parent,
            name,
            start,
            start_us: start.saturating_duration_since(ctx.epoch).as_micros() as u64,
            ctx: Arc::clone(ctx),
            fields: Vec::new(),
        })
    });
    ActiveSpan { inner }
}

struct ActiveInner {
    ctx: Arc<TraceContext>,
    id: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
    start_us: u64,
    fields: Vec<(&'static str, String)>,
}

/// An open span; records itself into the trace when dropped. Obtained
/// from [`start`].
pub struct ActiveSpan {
    inner: Option<ActiveInner>,
}

impl ActiveSpan {
    /// Whether this span is live (a context is installed). Check before
    /// computing expensive annotation values.
    pub fn active(&self) -> bool {
        self.inner.is_some()
    }

    /// Annotate the span with `key=value`. On an inert span the value is
    /// never formatted. At most [`MAX_FIELDS_PER_SPAN`] fields stick.
    pub fn record(&mut self, key: &'static str, value: impl std::fmt::Display) {
        if let Some(inner) = self.inner.as_mut() {
            if inner.fields.len() < MAX_FIELDS_PER_SPAN {
                if inner.fields.is_empty() {
                    // One allocation for the typical few-field span
                    // instead of a realloc per push.
                    inner.fields.reserve(4);
                }
                inner.fields.push((key, value.to_string()));
            }
        }
    }

    /// The span's id within its trace (0 when inert). Pass to
    /// [`install`] on a worker thread to parent that thread's spans
    /// under this one.
    pub fn id(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.id)
    }
}

impl Drop for ActiveSpan {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let duration_us = inner.start.elapsed().as_micros() as u64;
        // Restore the parent slot if this span is still the thread's
        // current parent (it may not be, when the guard crossed threads
        // or outlived an install scope — then restoring would clobber).
        CURRENT.with(|c| {
            if let Some((ctx, parent)) = c.borrow_mut().as_mut() {
                if ctx.id() == inner.ctx.id() && *parent == inner.id {
                    *parent = inner.parent;
                }
            }
        });
        inner.ctx.push(SpanRecord {
            id: inner.id,
            parent: if inner.parent == 0 {
                None
            } else {
                Some(inner.parent)
            },
            name: inner.name,
            start_us: inner.start_us,
            duration_us,
            fields: inner.fields,
        });
    }
}

impl FinishedTrace {
    /// Render the trace as one JSON object (see [`Self::to_json_value`]).
    pub fn to_json(&self) -> String {
        self.to_json_value().emit()
    }

    /// The trace as a JSON value. Shape:
    /// `{"trace_id":"…","started_at_unix_us":…,"duration_us":…,
    ///   "outcome":"…","detail":"…","dropped_spans":…,"spans":[…]}`.
    pub fn to_json_value(&self) -> Json {
        let num = |n: u64| Json::Num(n as f64);
        let key = |k: &str| k.to_string();
        let spans = self.spans.iter().map(|s| {
            let mut span = vec![(key("id"), num(s.id))];
            if let Some(p) = s.parent {
                span.push((key("parent"), num(p)));
            }
            span.push((key("name"), Json::Str(s.name.to_string())));
            span.push((key("start_us"), num(s.start_us)));
            span.push((key("duration_us"), num(s.duration_us)));
            if !s.fields.is_empty() {
                let fields = s.fields.iter().map(|(k, v)| (key(k), Json::Str(v.clone())));
                span.push((key("fields"), Json::Obj(fields.collect())));
            }
            Json::Obj(span)
        });
        Json::Obj(vec![
            (key("trace_id"), Json::Str(format_trace_id(self.trace_id))),
            (key("started_at_unix_us"), num(self.started_at_unix_us)),
            (key("duration_us"), num(self.duration_us)),
            (key("outcome"), Json::Str(self.outcome.clone())),
            (key("detail"), Json::Str(self.detail.clone())),
            (key("dropped_spans"), num(self.dropped_spans)),
            (key("spans"), Json::Arr(spans.collect())),
        ])
    }

    /// Render the span tree as a human-readable per-stage profile: one
    /// indented line per span with duration and annotations, followed by
    /// a fuel-by-stage footer aggregating every span's `fuel` field.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "trace {} ({} µs, {})",
            format_trace_id(self.trace_id),
            self.duration_us,
            self.outcome
        ));
        if !self.detail.is_empty() {
            out.push_str(&format!(" — {}", self.detail));
        }
        out.push('\n');
        // Children grouped by parent, preserving start order.
        let roots: Vec<&SpanRecord> = self.spans.iter().filter(|s| s.parent.is_none()).collect();
        for root in &roots {
            self.render_span(root, 0, &mut out);
        }
        if self.dropped_spans > 0 {
            out.push_str(&format!(
                "  … {} span(s) dropped past the per-trace cap\n",
                self.dropped_spans
            ));
        }
        // Fuel footer: Σ fuel per span name, descending.
        let mut fuel: Vec<(&'static str, u64)> = Vec::new();
        for s in &self.spans {
            let spent: u64 = s
                .fields
                .iter()
                .filter(|(k, _)| *k == "fuel")
                .filter_map(|(_, v)| v.parse::<u64>().ok())
                .sum();
            if spent > 0 {
                match fuel.iter_mut().find(|(n, _)| *n == s.name) {
                    Some((_, total)) => *total += spent,
                    None => fuel.push((s.name, spent)),
                }
            }
        }
        if !fuel.is_empty() {
            fuel.sort_by_key(|entry| std::cmp::Reverse(entry.1));
            out.push_str("fuel by stage:\n");
            let width = fuel.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
            for (name, spent) in fuel {
                out.push_str(&format!("  {name:<width$}  {spent}\n"));
            }
        }
        out
    }

    fn render_span(&self, span: &SpanRecord, depth: usize, out: &mut String) {
        out.push_str(&"  ".repeat(depth + 1));
        out.push_str(&format!("{} ({} µs)", span.name, span.duration_us));
        for (k, v) in &span.fields {
            out.push_str(&format!(" {k}={v}"));
        }
        out.push('\n');
        for child in self.spans.iter().filter(|s| s.parent == Some(span.id)) {
            self.render_span(child, depth + 1, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_without_a_context_are_inert() {
        assert!(current_trace_id().is_none());
        let mut s = start("noop");
        assert!(!s.active());
        assert_eq!(s.id(), 0);
        s.record("ignored", "value");
        drop(s);
    }

    #[test]
    fn span_tree_nests_and_records() {
        let ctx = TraceContext::start();
        {
            let _g = install(&ctx, 0);
            let mut outer = start("outer");
            outer.record("k", 7);
            {
                let mut inner = start("inner");
                inner.record("verdict", "subsumed");
            }
            let _sibling = start("sibling");
        }
        let t = ctx.finish("ok", "q");
        assert_eq!(t.spans.len(), 3);
        let outer = t.spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = t.spans.iter().find(|s| s.name == "inner").unwrap();
        let sibling = t.spans.iter().find(|s| s.name == "sibling").unwrap();
        assert_eq!(outer.parent, None);
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(sibling.parent, Some(outer.id));
        assert_eq!(outer.fields, vec![("k", "7".to_string())]);
        // Inner completed before outer, so its duration fits inside.
        assert!(inner.duration_us <= outer.duration_us);
    }

    #[test]
    fn install_restores_previous_context() {
        let a = TraceContext::start();
        let b = TraceContext::start();
        let _ga = install(&a, 0);
        assert_eq!(current_trace_id(), Some(a.id()));
        {
            let _gb = install(&b, 0);
            assert_eq!(current_trace_id(), Some(b.id()));
            let _s = start("in-b");
        }
        assert_eq!(current_trace_id(), Some(a.id()));
        assert_eq!(b.finish("ok", "").spans.len(), 1);
        assert_eq!(a.finish("ok", "").spans.len(), 0);
    }

    #[test]
    fn cross_thread_spans_parent_correctly() {
        let ctx = TraceContext::start();
        let parent_id;
        {
            let _g = install(&ctx, 0);
            let parent = start("eval");
            parent_id = parent.id();
            let ctx2 = Arc::clone(&ctx);
            std::thread::spawn(move || {
                let _g = install(&ctx2, parent_id);
                let mut s = start("worker");
                s.record("stripe", 3);
            })
            .join()
            .unwrap();
        }
        let t = ctx.finish("ok", "");
        let worker = t.spans.iter().find(|s| s.name == "worker").unwrap();
        assert_eq!(worker.parent, Some(parent_id));
    }

    #[test]
    fn span_cap_counts_drops() {
        let ctx = TraceContext::start();
        let _g = install(&ctx, 0);
        for _ in 0..(MAX_SPANS_PER_TRACE + 5) {
            let _s = start("tick");
        }
        let t = ctx.finish("ok", "");
        assert_eq!(t.spans.len(), MAX_SPANS_PER_TRACE);
        assert_eq!(t.dropped_spans, 5);
    }

    #[test]
    fn trace_id_wire_format_round_trips() {
        let ctx = TraceContext::start();
        let hex = ctx.id_hex();
        assert_eq!(hex.len(), 16);
        assert_eq!(parse_trace_id(&hex), Some(ctx.id()));
        assert_eq!(parse_trace_id(""), None);
        assert_eq!(parse_trace_id("0"), None);
        assert_eq!(parse_trace_id("xyz"), None);
        assert_eq!(parse_trace_id("00000000000000000"), None, "17 digits");
        assert_eq!(parse_trace_id("ff"), Some(255));
    }

    #[test]
    fn ids_are_distinct() {
        let a = TraceContext::start();
        let b = TraceContext::start();
        assert_ne!(a.id(), b.id());
        assert_ne!(a.id(), 0);
    }

    #[test]
    fn render_shows_tree_fields_and_fuel() {
        let ctx = TraceContext::with_id(0xABCD);
        {
            let _g = install(&ctx, 0);
            let mut run = start("engine.run");
            run.record("disposition", "subsumed");
            {
                let mut probe = start("cache.probe");
                probe.record("verdict", "subsumed");
                probe.record("fuel", 120);
            }
            {
                let mut bfs = start("frontier.bfs");
                bfs.record("fuel", 480);
            }
        }
        let t = ctx.finish("ok", "a+ then b");
        let text = t.render();
        assert!(text.contains("trace 000000000000abcd"), "{text}");
        assert!(text.contains("engine.run"), "{text}");
        assert!(text.contains("disposition=subsumed"), "{text}");
        assert!(text.contains("verdict=subsumed"), "{text}");
        assert!(text.contains("fuel by stage:"), "{text}");
        assert!(text.contains("frontier.bfs"), "{text}");
        assert!(text.contains("480"), "{text}");
        // Nested spans are indented deeper than their parent.
        let run_indent = text
            .lines()
            .find(|l| l.contains("engine.run"))
            .map(|l| l.len() - l.trim_start().len())
            .unwrap();
        let probe_indent = text
            .lines()
            .find(|l| l.contains("cache.probe"))
            .map(|l| l.len() - l.trim_start().len())
            .unwrap();
        assert!(probe_indent > run_indent, "{text}");
    }

    #[test]
    fn json_rendering_is_parseable_shape() {
        let ctx = TraceContext::with_id(7);
        {
            let _g = install(&ctx, 0);
            let mut s = start("serve.handle");
            s.record("text", "quote \" and\nnewline");
        }
        let j = ctx.finish("error[internal]", "det\"ail").to_json();
        assert!(j.starts_with('{') && j.ends_with('}'), "{j}");
        assert!(j.contains("\"trace_id\":\"0000000000000007\""), "{j}");
        assert!(j.contains("\"outcome\":\"error[internal]\""), "{j}");
        assert!(j.contains("\"detail\":\"det\\\"ail\""), "{j}");
        assert!(j.contains("\"name\":\"serve.handle\""), "{j}");
        assert!(j.contains("quote \\\" and\\nnewline"), "{j}");
        assert!(!j.contains('\n'), "one line: {j}");
    }
}
