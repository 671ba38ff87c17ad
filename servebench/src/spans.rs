//! Collecting the program's own spans around in-process calls.
//!
//! [`collect`] installs one `rq_metrics::span` trace context on the
//! calling thread (the engine hands it on to its stripe threads) and runs
//! the closure. A trace stores at most 256 spans, so a drainer thread
//! empties the context through the public `TraceContext::finish` every
//! [`DRAIN_EVERY`]; span ids keep counting across drains, so parent links
//! survive. Spans that still overflow between drains are counted in
//! [`Spans::dropped`].

use rq_metrics::span::{self, SpanRecord, TraceContext};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Interval between drains of the trace context.
pub const DRAIN_EVERY: Duration = Duration::from_micros(200);

/// Completed spans of one collection.
#[derive(Debug, Default)]
pub struct Spans {
    pub records: Vec<SpanRecord>,
    /// Spans the context could not store (over the per-trace cap).
    pub dropped: u64,
}

/// Run `f` with a trace context installed and return its result with
/// every span the program completed meanwhile.
pub fn collect<R>(f: impl FnOnce() -> R) -> (R, Spans) {
    let ctx = TraceContext::start();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let drainer = s.spawn(|| {
            let mut records = Vec::new();
            while !stop.load(Ordering::SeqCst) {
                std::thread::sleep(DRAIN_EVERY);
                records.extend(ctx.finish("drain", "").spans);
            }
            records
        });
        let out = {
            let _guard = span::install(&ctx, 0);
            f()
        };
        stop.store(true, Ordering::SeqCst);
        let mut records = drainer.join().expect("span drainer");
        let last = ctx.finish("ok", "");
        records.extend(last.spans);
        (
            out,
            Spans {
                records,
                dropped: last.dropped_spans,
            },
        )
    })
}

impl Spans {
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanRecord> + 'a {
        self.records.iter().filter(move |r| r.name == name)
    }

    /// Children of each span id.
    pub fn children(&self) -> HashMap<u64, Vec<&SpanRecord>> {
        let mut map: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
        for r in &self.records {
            if let Some(p) = r.parent {
                map.entry(p).or_default().push(r);
            }
        }
        map
    }
}

/// The value of field `key` on a span.
pub fn field<'a>(r: &'a SpanRecord, key: &str) -> Option<&'a str> {
    r.fields
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v.as_str())
}

/// A numeric field, or 0.
pub fn field_num(r: &SpanRecord, key: &str) -> f64 {
    field(r, key).and_then(|v| v.parse().ok()).unwrap_or(0.0)
}
