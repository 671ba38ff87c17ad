//! Per-layer figures: accumulated from the program's own spans, from
//! bench-side timings of public layer functions, and from the metrics
//! registry's counters.

use crate::spans::{field, field_num, Spans};
use crate::stats::{median, ratio};
use rq_metrics::registry::Snapshot;
use rq_metrics::Value;

/// Ladder stages, as labelled in `rq_containment_ladder_total`.
pub const LADDER_STAGES: [&str; 6] = [
    "empty_left",
    "syntactic_eq",
    "canonical_key",
    "simple",
    "full_check",
    "exhausted",
];

/// `engine.run` dispositions.
pub const RUN_DISPOSITIONS: [&str; 5] = ["exact", "equivalent", "subsumed", "miss", "empty"];

/// Answer dispositions (batch items add `deduped`).
pub const DISPOSITIONS: [&str; 6] = [
    "exact",
    "equivalent",
    "subsumed",
    "miss",
    "deduped",
    "empty",
];

/// Non-200 statuses counted separately.
pub const STATUSES: [u16; 6] = [400, 408, 422, 429, 500, 503];

/// Span-derived samples, accumulated one collection at a time so that a
/// long traced pass never holds all its spans at once.
#[derive(Debug, Default)]
pub struct LayerAcc {
    pub preflight_rewrites: u64,
    pub run_us: Vec<(String, f64)>,
    pub lookup_us: Vec<f64>,
    pub eval_us: Vec<f64>,
    pub stripe_skew: Vec<f64>,
    pub merge_us: Vec<f64>,
    pub apply_deltas_us: Vec<f64>,
    pub batch_plan_us: Vec<f64>,
    pub ladder_simple_us: Vec<f64>,
    pub ladder_full_us: Vec<f64>,
    pub bfs_us: Vec<f64>,
    pub bfs_expanded: f64,
    pub bfs_fuel: f64,
    /// Pairs of answers computed from the graph (miss and subsumed runs).
    pub evaluated_pairs: f64,
    pub append_us: Vec<f64>,
    pub append_bytes: f64,
    pub append_records: f64,
    pub dropped_spans: u64,
    /// Sequential BFS time of the queries the engine answered by a miss,
    /// and the engine's time for those misses (parallel efficiency).
    pub seq_bfs_us: f64,
    pub miss_run_us: f64,
}

impl LayerAcc {
    pub fn absorb(&mut self, spans: &Spans) {
        let children = spans.children();
        for r in &spans.records {
            let us = r.duration_us as f64;
            match r.name {
                "analyze.preflight" if field(r, "action").is_some_and(|a| a != "unchanged") => {
                    self.preflight_rewrites += 1;
                }
                "engine.run" => {
                    let d = field(r, "disposition").unwrap_or("error");
                    if matches!(d, "miss" | "subsumed") {
                        self.evaluated_pairs += field_num(r, "pairs");
                    }
                    self.run_us.push((d.to_string(), us));
                }
                "cache.lookup" => self.lookup_us.push(us),
                "engine.eval" => {
                    self.eval_us.push(us);
                    let stripes: Vec<f64> = children
                        .get(&r.id)
                        .into_iter()
                        .flatten()
                        .filter(|c| c.name == "engine.stripe")
                        .map(|c| c.duration_us as f64)
                        .collect();
                    let longest = stripes.iter().copied().fold(0.0, f64::max);
                    let shortest = stripes.iter().copied().fold(f64::INFINITY, f64::min);
                    if stripes.len() >= 2 && shortest > 0.0 {
                        self.stripe_skew.push(longest / shortest);
                    }
                    if !stripes.is_empty() {
                        self.merge_us.push((us - longest).max(0.0));
                    }
                }
                "engine.apply_deltas" => self.apply_deltas_us.push(us),
                "engine.batch" => {
                    let runs: f64 = children
                        .get(&r.id)
                        .into_iter()
                        .flatten()
                        .filter(|c| c.name == "engine.run")
                        .map(|c| c.duration_us as f64)
                        .sum();
                    self.batch_plan_us.push((us - runs).max(0.0));
                }
                "ladder.simple" => self.ladder_simple_us.push(us),
                "ladder.full_check" => self.ladder_full_us.push(us),
                "frontier.bfs" => {
                    self.bfs_us.push(us);
                    self.bfs_expanded += field_num(r, "expanded");
                    self.bfs_fuel += field_num(r, "fuel");
                }
                "storage.append" => {
                    self.append_us.push(us);
                    self.append_bytes += field_num(r, "bytes");
                    self.append_records += field_num(r, "records");
                }
                _ => {}
            }
        }
        self.dropped_spans += spans.dropped;
    }

    pub fn run_us_p50(&self, disposition: &str) -> f64 {
        let xs: Vec<f64> = self
            .run_us
            .iter()
            .filter(|(d, _)| d == disposition)
            .map(|&(_, us)| us)
            .collect();
        median(&xs)
    }

    /// Engine runs that evaluated the graph (each has one `engine.eval`).
    pub fn evaluations(&self) -> f64 {
        self.eval_us.len() as f64
    }

    pub fn bfs_us_per_query(&self) -> f64 {
        ratio(self.bfs_us.iter().sum(), self.evaluations())
    }

    pub fn fuel_per_query(&self) -> f64 {
        ratio(self.bfs_fuel, self.evaluations())
    }

    pub fn expansions_per_pair(&self) -> f64 {
        ratio(self.bfs_expanded, self.evaluated_pairs)
    }
}

/// A counter's value in a registry snapshot (0 when never registered).
pub fn counter(snap: &Snapshot, name: &str, labels: &[(&str, &str)]) -> u64 {
    match snap.get(name, labels) {
        Some(Value::Counter(c)) => *c,
        _ => 0,
    }
}

/// A histogram's sum in a registry snapshot.
pub fn histogram_sum(snap: &Snapshot, name: &str) -> u64 {
    match snap.get(name, &[]) {
        Some(Value::Histogram(h)) => h.sum,
        _ => 0,
    }
}

/// Registry counters a pass moved.
#[derive(Debug, Default, Clone)]
pub struct CounterDeltas {
    pub ladder: [u64; 6],
    pub probe_fuel: u64,
    pub retries: u64,
    pub appends: u64,
    pub compactions: u64,
}

impl CounterDeltas {
    pub fn between(before: &Snapshot, after: &Snapshot) -> CounterDeltas {
        let d = |name: &str, labels: &[(&str, &str)]| {
            counter(after, name, labels).saturating_sub(counter(before, name, labels))
        };
        let mut ladder = [0; 6];
        for (i, s) in LADDER_STAGES.iter().enumerate() {
            ladder[i] = d("rq_containment_ladder_total", &[("stage", s)]);
        }
        CounterDeltas {
            ladder,
            probe_fuel: histogram_sum(after, "rq_cache_probe_fuel_spent")
                .saturating_sub(histogram_sum(before, "rq_cache_probe_fuel_spent")),
            retries: d("rq_serve_retries_total", &[]),
            appends: d("rq_storage_appends_total", &[]),
            compactions: d("rq_storage_compactions_total", &[]),
        }
    }
}
