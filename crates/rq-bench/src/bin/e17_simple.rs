//! E17 — simple-fragment fast path: exact-stage probe and fuel reduction.
//!
//! Serves two workloads through the engine and reads the containment
//! ladder's stage counters before/after each, so the numbers are deltas
//! attributable to that workload alone (the metrics registry is global
//! and cumulative):
//!
//! 1. the simple-heavy batch (`e17_simple_batch`): every query is in the
//!    SCRPQ fragment, so every cache probe is a simple-vs-simple pair
//!    the polynomial rung decides — the exact 2NFA stage must see zero
//!    calls (the binary exits non-zero otherwise) and the probe-fuel
//!    histogram should not move (the simple rung is unmetered);
//! 2. the E13 fold workload (Lemma-2 detours `r r⁻ r` and their
//!    answer-equivalent unions): every query contains inverses, so the
//!    simple rung passes and the exact stage does all the deciding —
//!    its probe count must match E13's (no regression on the
//!    non-simple path).
//!
//! Usage: `cargo run --release -p rq-bench --bin e17_simple`

use rq_bench::{e10_graph, e13_empty_queries, e13_fold_pairs, e17_simple_batch};
use rq_core::rpq::TwoRpq;
use rq_engine::{Engine, EngineConfig};
use rq_metrics::registry::Snapshot;
use rq_metrics::{global, Value};
use std::time::Instant;

const STAGES: [&str; 6] = [
    "empty_left",
    "syntactic_eq",
    "canonical_key",
    "simple",
    "full_check",
    "exhausted",
];

fn counter(snap: &Snapshot, name: &str, labels: &[(&str, &str)]) -> u64 {
    match snap.get(name, labels) {
        Some(Value::Counter(c)) => *c,
        _ => 0,
    }
}

/// `(sum, count)` of a histogram, or zeros if it never registered.
fn histogram(snap: &Snapshot, name: &str) -> (u64, u64) {
    match snap.get(name, &[]) {
        Some(Value::Histogram(h)) => (h.sum, h.count),
        _ => (0, 0),
    }
}

struct Delta {
    stages: [u64; 6],
    probes: u64,
    fuel_sum: u64,
}

fn delta(before: &Snapshot, after: &Snapshot) -> Delta {
    let mut stages = [0u64; 6];
    for (i, s) in STAGES.iter().enumerate() {
        stages[i] = counter(after, "rq_containment_ladder_total", &[("stage", s)])
            - counter(before, "rq_containment_ladder_total", &[("stage", s)]);
    }
    let probes = ["contained", "not_contained", "exhausted"]
        .iter()
        .map(|r| {
            counter(after, "rq_cache_probes_total", &[("result", r)])
                - counter(before, "rq_cache_probes_total", &[("result", r)])
        })
        .sum();
    let fuel_sum = histogram(after, "rq_cache_probe_fuel_spent").0
        - histogram(before, "rq_cache_probe_fuel_spent").0;
    Delta {
        stages,
        probes,
        fuel_sum,
    }
}

fn serve(engine: &Engine, batch: &[TwoRpq]) -> (Delta, f64, rq_engine::CacheStats) {
    engine.clear_cache();
    let before = global().snapshot();
    let t = Instant::now();
    let report = engine.run_batch(batch);
    let elapsed = t.elapsed().as_secs_f64() * 1e3;
    let after = global().snapshot();
    (delta(&before, &after), elapsed, report.stats)
}

fn print_row(name: &str, d: &Delta, stats: &rq_engine::CacheStats, ms: f64) {
    println!(
        "| {name} | {} | {} | {} | {} | {} | {} | {:.0}% | {ms:.1} |",
        d.probes,
        d.stages[3],
        d.stages[4],
        d.stages[0] + d.stages[1] + d.stages[2],
        d.stages[5],
        d.fuel_sum,
        stats.hit_rate() * 100.0,
    );
}

fn main() {
    let db = e10_graph(100, 3);
    let engine = Engine::new(
        db,
        EngineConfig {
            threads: 2,
            ..EngineConfig::default()
        },
    );

    // Workload 1: simple-heavy (24 queries cycling the 12-entry pool).
    let simple: Vec<TwoRpq> = e17_simple_batch(24)
        .iter()
        .map(|t| engine.parse(t).unwrap())
        .collect();

    // Workload 2: the E13 fold workload — detour + union pairs plus the
    // two ∅ queries, exactly the batch behind E13's probe count.
    let mut fold: Vec<TwoRpq> = Vec::new();
    for (_, detour, union) in e13_fold_pairs() {
        fold.push(detour);
        fold.push(union);
    }
    fold.extend(e13_empty_queries());

    // Warm parse/alloc paths once, then measure each batch from a cold
    // cache with a metrics snapshot on either side.
    engine.run_batch(&simple);
    engine.run_batch(&fold);

    // "probes" counts cache-lookup containment probes; the stage columns
    // count *every* ladder invocation the workload triggered — cache
    // probes plus pre-flight subsumed-branch checks — so stage totals can
    // exceed the probe count.
    println!("## E17 — simple-fragment ladder rung: probe and fuel deltas per workload\n");
    println!("| workload | cache probes | ladder: simple | full_check | syntactic | exhausted | probe fuel | hit-rate | ms |");
    println!("|---|---|---|---|---|---|---|---|---|");
    let (d_simple, ms_simple, stats_simple) = serve(&engine, &simple);
    print_row("simple-heavy (24q)", &d_simple, &stats_simple, ms_simple);
    let (d_fold, ms_fold, stats_fold) = serve(&engine, &fold);
    print_row("fold/E13 (18q)", &d_fold, &stats_fold, ms_fold);
    println!();
    println!(
        "simple-heavy: {} of {} ladder calls ({} cache probes) decided at the polynomial rung; \
         {} reached the exact stage; {} probe fuel charged",
        d_simple.stages[3],
        d_simple.stages.iter().sum::<u64>(),
        d_simple.probes,
        d_simple.stages[4],
        d_simple.fuel_sum
    );
    println!(
        "fold baseline: {} cache probes, {} ladder calls decided at the exact stage ({} fuel) — \
         the simple rung passed on every inverse-containing pair",
        d_fold.probes, d_fold.stages[4], d_fold.fuel_sum
    );
    if d_simple.stages[4] != 0 {
        eprintln!(
            "error: the simple-heavy batch made {} full_check ladder calls; simple pairs must \
             never reach the exact stage",
            d_simple.stages[4]
        );
        std::process::exit(1);
    }
}
