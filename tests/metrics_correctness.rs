//! Correctness of the rq-metrics primitives under concurrency: counters
//! must sum exactly across contending threads, histogram snapshots must
//! never tear (count ≡ Σ buckets, totals exact once writers join), the
//! default bucket layouts must cover the fuel budgets the workspace
//! actually configures, and the Prometheus-style exposition must be
//! well-formed.
//!
//! Everything here uses *fresh* `Registry` instances rather than
//! `global()`, so the assertions are exact regardless of what other tests
//! in the process record — and the process-wide enabled switch is never
//! touched.

use regular_queries::engine::CacheConfig;
use regular_queries::metrics::{fuel_buckets, latency_buckets_us, Histogram, Registry, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

const THREADS: usize = 8;
const PER_THREAD: u64 = 20_000;

#[test]
fn contended_counters_sum_exactly() {
    let registry = Arc::new(Registry::new());
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let registry = Arc::clone(&registry);
            thread::spawn(move || {
                // Every thread registers the same families itself, so this
                // also exercises concurrent registration idempotence.
                let shared = registry.counter("test_shared_total", "all threads");
                let labeled = registry.counter_with(
                    "test_labeled_total",
                    &[("parity", if t % 2 == 0 { "even" } else { "odd" })],
                    "split by thread parity",
                );
                for _ in 0..PER_THREAD {
                    shared.inc();
                    labeled.add(2);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let snap = registry.snapshot();
    assert_eq!(
        snap.get("test_shared_total", &[]),
        Some(&Value::Counter(THREADS as u64 * PER_THREAD)),
        "relaxed increments must not lose updates"
    );
    for parity in ["even", "odd"] {
        assert_eq!(
            snap.get("test_labeled_total", &[("parity", parity)]),
            Some(&Value::Counter(THREADS as u64 / 2 * PER_THREAD * 2)),
            "parity={parity}"
        );
    }
}

#[test]
fn histogram_totals_are_exact_across_threads() {
    let h = Arc::new(Histogram::new(vec![10, 100, 1000]));
    let workers: Vec<_> = (0..THREADS)
        .map(|_| {
            let h = Arc::clone(&h);
            thread::spawn(move || {
                for i in 0..PER_THREAD {
                    // Deterministic spread over all four buckets.
                    h.observe([1u64, 50, 500, 5000][(i % 4) as usize]);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    let s = h.snapshot();
    let n = THREADS as u64 * PER_THREAD;
    assert_eq!(s.count, n);
    assert_eq!(s.buckets, vec![n / 4, n / 4, n / 4, n / 4]);
    assert_eq!(s.sum, n / 4 * (1 + 50 + 500 + 5000));
}

#[test]
fn snapshots_taken_while_writing_never_tear() {
    let registry = Arc::new(Registry::new());
    let c = registry.counter("test_torn_total", "written during snapshots");
    let h = registry.histogram("test_torn_hist", "written during snapshots", &[8, 64, 512]);
    let stop = Arc::new(AtomicBool::new(false));
    // The reader and the writers start together, so the reader is already
    // running when the first write lands rather than still being spawned
    // after the writers have finished.
    let start = Arc::new(Barrier::new(THREADS + 1));
    let writers: Vec<_> = (0..THREADS)
        .map(|_| {
            let c = Arc::clone(&c);
            let h = Arc::clone(&h);
            let start = Arc::clone(&start);
            thread::spawn(move || {
                start.wait();
                for i in 0..PER_THREAD {
                    c.inc();
                    h.observe(i % 1000);
                }
            })
        })
        .collect();
    let reader = {
        let registry = Arc::clone(&registry);
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            start.wait();
            let mut last_count = 0u64;
            let mut snaps = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let snap = registry.snapshot();
                if let Some(Value::Histogram(hs)) = snap.get("test_torn_hist", &[]) {
                    // The tear-free invariant: count is *defined* as the
                    // sum of the bucket loads in the same snapshot.
                    assert_eq!(hs.count, hs.buckets.iter().sum::<u64>());
                    assert!(hs.count >= last_count, "sample count went backwards");
                    last_count = hs.count;
                }
                snaps += 1;
            }
            snaps
        })
    };
    for w in writers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let snaps = reader.join().unwrap();
    assert!(snaps > 0, "the reader never snapshotted");
    // Writers joined: the final snapshot must hold the exact totals.
    let n = THREADS as u64 * PER_THREAD;
    let snap = registry.snapshot();
    assert_eq!(snap.get("test_torn_total", &[]), Some(&Value::Counter(n)));
    match snap.get("test_torn_hist", &[]) {
        Some(Value::Histogram(hs)) => assert_eq!(hs.count, n),
        other => panic!("expected a histogram, got {other:?}"),
    }
}

#[test]
fn fuel_buckets_cover_configured_budgets() {
    let bounds = fuel_buckets();
    let top = *bounds.last().unwrap();
    // The default cache budgets — the fuel amounts actually observed into
    // the fuel histograms — must land in real buckets, not the overflow.
    let cache = CacheConfig::default();
    for (what, limits) in [("key", &cache.key_limits), ("probe", &cache.probe_limits)] {
        let fuel = limits.fuel.expect("default cache budgets are finite");
        assert!(
            fuel <= top,
            "{what} budget {fuel} exceeds the top fuel bucket {top}"
        );
    }
    // Samples beyond every bound still land somewhere: the overflow bucket.
    let h = Histogram::new(bounds);
    h.observe(u64::MAX);
    let s = h.snapshot();
    assert_eq!(*s.buckets.last().unwrap(), 1);
    assert_eq!(s.count, 1);
    // Latency bounds are strictly increasing and span µs to seconds.
    let lat = latency_buckets_us();
    assert!(lat.windows(2).all(|w| w[0] < w[1]));
    assert!(*lat.first().unwrap() <= 10 && *lat.last().unwrap() >= 1_000_000);
}

#[test]
fn exposition_is_well_formed() {
    let registry = Registry::new();
    registry.counter("test_one_total", "a counter").add(3);
    registry
        .counter_with("test_many_total", &[("kind", "x")], "labeled")
        .inc();
    registry
        .counter_with("test_many_total", &[("kind", "y")], "labeled")
        .inc();
    registry.gauge("test_depth", "a gauge").set(7);
    let h = registry.histogram("test_lat", "a histogram", &[10, 100]);
    for v in [5, 50, 500] {
        h.observe(v);
    }
    let text = registry.render();
    // One HELP and one TYPE line per family, even with several label sets.
    for family in [
        "test_one_total",
        "test_many_total",
        "test_depth",
        "test_lat",
    ] {
        assert_eq!(
            text.lines()
                .filter(|l| l.starts_with(&format!("# HELP {family} ")))
                .count(),
            1,
            "family {family} in:\n{text}"
        );
        assert_eq!(
            text.lines()
                .filter(|l| l.starts_with(&format!("# TYPE {family} ")))
                .count(),
            1
        );
    }
    assert!(text.contains("# TYPE test_one_total counter"), "{text}");
    assert!(text.contains("# TYPE test_depth gauge"), "{text}");
    assert!(text.contains("# TYPE test_lat histogram"), "{text}");
    assert!(text.contains("test_one_total 3"), "{text}");
    assert!(text.contains("test_many_total{kind=\"x\"} 1"), "{text}");
    assert!(text.contains("test_depth 7"), "{text}");
    // Histogram buckets are cumulative and +Inf equals _count.
    assert!(text.contains("test_lat_bucket{le=\"10\"} 1"), "{text}");
    assert!(text.contains("test_lat_bucket{le=\"100\"} 2"), "{text}");
    assert!(text.contains("test_lat_bucket{le=\"+Inf\"} 3"), "{text}");
    assert!(text.contains("test_lat_sum 555"), "{text}");
    assert!(text.contains("test_lat_count 3"), "{text}");
    // Every non-comment line is `name{labels} value` with a numeric value.
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let value = line.rsplit(' ').next().unwrap();
        assert!(
            value == "+Inf" || value.parse::<u64>().is_ok(),
            "non-numeric value in exposition line: {line}"
        );
    }
}
