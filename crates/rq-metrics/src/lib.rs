//! # rq-metrics
//!
//! A lightweight, dependency-free observability layer for the workspace:
//! counters, gauges and fixed-bucket histograms built on plain
//! [`AtomicU64`]s, collected in a [`Registry`] with a snapshot API and a
//! Prometheus-style text exposition.
//!
//! Design constraints (see `DESIGN.md` for the rationale):
//!
//! * **Lock-free hot path.** Recording a sample is one or two relaxed
//!   atomic RMWs — no mutex, no `parking_lot`, no allocation. The only
//!   lock in the crate guards metric *registration* (cold, once per
//!   process per metric) and snapshotting (cold, once per scrape).
//! * **Tear-free snapshots.** Every sample is a single `AtomicU64`, so a
//!   reader never observes a torn value; a histogram's `count` is defined
//!   as the sum of its bucket counters read during the snapshot, so
//!   `count == Σ buckets` holds in every snapshot by construction.
//! * **Globally reachable.** Instrumented crates sit at different layers
//!   (`rq-automata` at the bottom, `rq-engine` at the top) and cannot
//!   thread a registry handle through every call; they record into
//!   [`global()`] and memoize their handles in `OnceLock` statics.
//! * **Cheap to disable.** [`set_enabled`]`(false)` turns every recording
//!   call into a single relaxed load — this is how the E12 bench measures
//!   the metrics overhead (< 3% is the acceptance bar).
//!
//! Request-scoped attribution lives in two always-compiled companions:
//! [`span`] (a [`span::TraceContext`] carrying a tree of timed spans,
//! installable per-thread so any layer can open spans without plumbing)
//! and [`recorder`] (a bounded flight recorder of recently completed
//! traces plus a slow/errored retention ring). Histograms carry an
//! OpenMetrics-style exemplar per bucket linking aggregate latency back
//! to a recent trace id.

pub mod json;
pub mod recorder;
pub mod registry;
pub mod span;

pub use registry::{global, HistogramSnapshot, MetricSnapshot, Registry, Snapshot, Value};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Global recording switch. When off, every `inc`/`add`/`set`/`observe`
/// returns after one relaxed load. Registration and snapshotting are not
/// affected.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Turn recording on or off process-wide (used by the overhead bench and
/// ablation runs; metrics default to enabled).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether recording is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A fresh counter at zero.
    pub const fn new() -> Counter {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down (queue depths, entry counts).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// A fresh gauge at zero.
    pub const fn new() -> Gauge {
        Gauge {
            value: AtomicU64::new(0),
        }
    }

    /// Set the gauge outright.
    #[inline]
    pub fn set(&self, v: u64) {
        if enabled() {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// Increase by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Decrease by `n` (saturating at zero).
    #[inline]
    pub fn sub(&self, n: u64) {
        if enabled() {
            // fetch_update loops only under contention on the same gauge.
            let _ = self
                .value
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                    Some(v.saturating_sub(n))
                });
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram over `u64` samples.
///
/// Bucket `i` counts samples `v <= bounds[i]` that no earlier bucket
/// caught; one extra overflow bucket catches everything above the last
/// bound (`+Inf` in the exposition). All storage is a flat `AtomicU64`
/// array — `observe` is a binary search plus two relaxed RMWs.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
    // Per-bucket exemplar: the trace id (0 = none) and sample value of
    // the most recent traced observation to land in the bucket. The two
    // words are written with independent relaxed stores — a rare torn
    // pair links to a slightly stale value, which is acceptable for a
    // diagnostic pointer and keeps the hot path lock-free.
    exemplar_ids: Box<[AtomicU64]>,
    exemplar_vals: Box<[AtomicU64]>,
}

impl Histogram {
    /// A histogram with the given strictly increasing upper bounds.
    pub fn new(bounds: Vec<u64>) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let zeros = |n: usize| {
            (0..n)
                .map(|_| AtomicU64::new(0))
                .collect::<Vec<_>>()
                .into_boxed_slice()
        };
        Histogram {
            buckets: zeros(bounds.len() + 1),
            exemplar_ids: zeros(bounds.len() + 1),
            exemplar_vals: zeros(bounds.len() + 1),
            bounds,
            sum: AtomicU64::new(0),
        }
    }

    /// The configured upper bounds (exclusive of the `+Inf` overflow
    /// bucket).
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Record one sample.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.observe_with_exemplar(v, 0);
    }

    /// Record one sample attributed to the current thread's trace (if
    /// one is installed), so the bucket's exposition line carries an
    /// exemplar pointing at a concrete recent request.
    #[inline]
    pub fn observe_traced(&self, v: u64) {
        self.observe_with_exemplar(v, span::current_trace_id().unwrap_or(0));
    }

    /// Record one sample with an explicit exemplar trace id (0 = none).
    #[inline]
    pub fn observe_with_exemplar(&self, v: u64, trace_id: u64) {
        if !enabled() {
            return;
        }
        let i = self.bounds.partition_point(|&b| b < v);
        self.buckets[i].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        if trace_id != 0 {
            self.exemplar_vals[i].store(v, Ordering::Relaxed);
            self.exemplar_ids[i].store(trace_id, Ordering::Relaxed);
        }
    }

    /// Total samples recorded (sum over buckets, so it can never disagree
    /// with the per-bucket counts).
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Consistent point-in-time copy of the bucket counts and sum.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = buckets.iter().sum();
        let exemplars = self
            .exemplar_ids
            .iter()
            .zip(self.exemplar_vals.iter())
            .map(|(id, v)| {
                let id = id.load(Ordering::Relaxed);
                (id != 0).then(|| (id, v.load(Ordering::Relaxed)))
            })
            .collect();
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            buckets,
            sum: self.sum(),
            count,
            exemplars,
        }
    }

    /// Start a span-style timer that records its elapsed wall-clock time
    /// in **microseconds** into this histogram when dropped (or when
    /// [`ScopedTimer::stop`] is called).
    pub fn start_timer(&self) -> ScopedTimer<'_> {
        ScopedTimer {
            histogram: self,
            start: Instant::now(),
            armed: true,
        }
    }
}

/// Records elapsed microseconds into a [`Histogram`] on drop. Obtained
/// from [`Histogram::start_timer`].
#[derive(Debug)]
pub struct ScopedTimer<'a> {
    histogram: &'a Histogram,
    start: Instant,
    armed: bool,
}

impl ScopedTimer<'_> {
    /// Stop now and return the elapsed microseconds that were recorded.
    pub fn stop(mut self) -> u64 {
        self.armed = false;
        let us = self.start.elapsed().as_micros() as u64;
        self.histogram.observe_traced(us);
        us
    }

    /// Disarm: drop without recording anything.
    pub fn discard(mut self) {
        self.armed = false;
    }
}

impl Drop for ScopedTimer<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.histogram
                .observe_traced(self.start.elapsed().as_micros() as u64);
        }
    }
}

/// `count` exponentially growing bounds: `start, start·factor, …`
/// (saturating; duplicate saturated bounds are dropped).
pub fn exponential_buckets(start: u64, factor: u64, count: usize) -> Vec<u64> {
    assert!(start > 0 && factor > 1 && count > 0);
    let mut bounds = Vec::with_capacity(count);
    let mut b = start;
    for _ in 0..count {
        if bounds.last() != Some(&b) {
            bounds.push(b);
        }
        b = b.saturating_mul(factor);
    }
    bounds
}

/// Default latency bucket layout, in microseconds: 8 µs … ~8.6 s
/// (exponential, factor 2). Used by the engine's query/batch latency
/// histograms.
pub fn latency_buckets_us() -> Vec<u64> {
    exponential_buckets(8, 2, 21)
}

/// Default fuel bucket layout: 16 … 16·4¹⁵ ≈ 1.7·10¹⁰ abstract steps
/// (exponential, factor 4). The top bound exceeds every fuel budget the
/// workspace configures by default (cache key/probe budgets are 10⁴-ish),
/// so governed fuel consumption lands in a real bucket, not the overflow.
pub fn fuel_buckets() -> Vec<u64> {
    exponential_buckets(16, 4, 16)
}

/// Tests that record samples serialize against the one test that flips
/// the global enabled switch, so parallel test threads never observe a
/// recording window with metrics off.
#[cfg(test)]
pub(crate) fn recording_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let _g = recording_lock();
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.add(7);
        g.sub(3);
        assert_eq!(g.get(), 4);
        g.sub(100);
        assert_eq!(g.get(), 0, "gauge saturates at zero");
        g.set(9);
        assert_eq!(g.get(), 9);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let _g = recording_lock();
        let h = Histogram::new(vec![10, 100, 1000]);
        for v in [1, 10, 11, 100, 5000] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.buckets, vec![2, 2, 0, 1]);
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1 + 10 + 11 + 100 + 5000);
        // The overflow bucket absorbs even u64::MAX without panicking.
        h.observe(u64::MAX);
        assert_eq!(h.snapshot().buckets[3], 2);
    }

    #[test]
    fn scoped_timer_records_on_drop() {
        let _g = recording_lock();
        let h = Histogram::new(latency_buckets_us());
        {
            let _t = h.start_timer();
        }
        assert_eq!(h.count(), 1);
        let t = h.start_timer();
        t.discard();
        assert_eq!(h.count(), 1, "discarded timers record nothing");
        let t = h.start_timer();
        t.stop();
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn exponential_bucket_shapes() {
        assert_eq!(exponential_buckets(1, 2, 4), vec![1, 2, 4, 8]);
        let fuel = fuel_buckets();
        assert!(fuel.windows(2).all(|w| w[0] < w[1]));
        assert!(*fuel.last().unwrap() > 10_000_000_000);
    }

    /// Hammer one counter/gauge/histogram from several threads and check
    /// the totals. Sized down under Miri, which runs this (and the rest of
    /// the crate's tests) in CI to validate the relaxed-atomics hot path.
    #[test]
    fn concurrent_recording_loses_no_samples() {
        let _g = recording_lock();
        let iters = if cfg!(miri) { 25 } else { 1000 };
        let threads = 4u64;
        let c = Counter::new();
        let g = Gauge::new();
        let h = Histogram::new(vec![10, 100]);
        std::thread::scope(|s| {
            for t in 0..threads {
                s.spawn(|| {
                    for i in 0..iters {
                        c.inc();
                        g.add(2);
                        g.sub(1);
                        h.observe(i % 150);
                    }
                });
                let _ = t;
            }
        });
        assert_eq!(c.get(), threads * iters);
        assert_eq!(g.get(), threads * iters);
        let s = h.snapshot();
        assert_eq!(s.count, threads * iters);
        assert_eq!(s.count, s.buckets.iter().sum::<u64>());
        assert_eq!(s.sum, threads * (0..iters).map(|i| i % 150).sum::<u64>());
    }

    #[test]
    fn disabled_recording_is_a_no_op() {
        let _g = recording_lock();
        let c = Counter::new();
        let h = Histogram::new(vec![1]);
        set_enabled(false);
        c.inc();
        h.observe(1);
        set_enabled(true);
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);
        c.inc();
        assert_eq!(c.get(), 1);
    }
}
