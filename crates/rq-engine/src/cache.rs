//! The containment-based semantic result cache.
//!
//! Submitted queries are compiled once ([`CompiledQuery`]): their NFA is
//! determinized into the canonical key and the minimal DFA. A key hit
//! returns the materialized answer outright, and entries keep their
//! compiled query, key included, so probes against them rebuild nothing. On a key miss
//! the cache *probes* its most recently used entries with the cheap-first
//! containment facade
//! ([`rq_core::containment::facade::check_quick_governed`]):
//!
//! * `Q ⊑ Q'` and `Q' ⊑ Q` — the cached answer **is** the answer
//!   ([`Lookup::Equivalent`], zero graph work);
//! * `Q ⊑ Q'` only — since `Q(D) ⊆ Q'(D)` on every database, `Q(D)` is
//!   recovered by *filtering* `Q'`'s materialized pairs through a governed
//!   membership re-check instead of re-traversing the graph
//!   ([`Lookup::Subsumed`]; the engine does the filtering, which also
//!   restricts the product BFS to sources that appear in `Q'(D)`).
//!
//! A query whose key exhausts `key_limits` keys by its regex as written.
//! Probes run under their own small [`Limits`] budget; when a probe
//! exhausts, the lookup cannot use that entry and the cache degrades to a
//! plain exact-match cache rather than stalling the request path.
//! Exhausted probes are *not* conflated with proven non-containment:
//! they are tallied separately ([`CacheStats::probe_exhausted`] and the
//! `rq_cache_probes_total{result="exhausted"}` metric), so hit-rate
//! dashboards distinguish "the cache had nothing" from "the budget was too
//! small to find out".

use rq_automata::governor::{Governor, Limits};
use rq_automata::{Alphabet, LabelId};
use rq_core::canonical::CompiledQuery;
use rq_core::containment::facade::check_quick_governed;
use rq_core::containment::Outcome;
use rq_core::TwoRpq;
use rq_graph::NodeId;
use rq_metrics::span;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// A materialized all-pairs answer, shared between the cache and callers.
pub type Answer = Arc<BTreeSet<(NodeId, NodeId)>>;

/// Tuning knobs for [`SemanticCache`].
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Maximum number of materialized answers kept (LRU eviction).
    pub capacity: usize,
    /// Budget for determinizing one query into its canonical key; on
    /// exhaustion the key is `re:` plus the query's regex instead.
    pub key_limits: Limits,
    /// Budget for one containment probe (each direction).
    pub probe_limits: Limits,
    /// How many most-recently-used entries to probe on a key miss.
    pub probe_candidates: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity: 64,
            key_limits: Limits::unlimited().with_fuel(10_000),
            probe_limits: Limits::unlimited().with_fuel(20_000),
            probe_candidates: 8,
        }
    }
}

/// Hit/miss counters, surfaced per batch by `rqtool serve-batch`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Canonical-key hits.
    pub exact: u64,
    /// Probe-proven equivalence hits (distinct keys, same answers).
    pub equivalent: u64,
    /// Probe-proven subsumption hits (answered by filtering).
    pub subsumed: u64,
    /// Full evaluations.
    pub misses: u64,
    /// Containment probes attempted.
    pub probes: u64,
    /// Probes that exhausted their budget before reaching a verdict
    /// (`Outcome::Unknown`). Counted separately from proven
    /// non-containment so the disposition counters stay truthful.
    pub probe_exhausted: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
    /// Entries evicted because a graph delta touched their alphabet (see
    /// [`SemanticCache::invalidate`]).
    pub invalidated: u64,
}

impl CacheStats {
    /// Hits of any kind.
    pub fn hits(&self) -> u64 {
        self.exact + self.equivalent + self.subsumed
    }

    /// Hit rate over all lookups, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits() + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits() as f64 / total as f64
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "exact={} equivalent={} subsumed={} misses={} probes={} probe-exhausted={} \
             evictions={} invalidated={} hit-rate={:.0}%",
            self.exact,
            self.equivalent,
            self.subsumed,
            self.misses,
            self.probes,
            self.probe_exhausted,
            self.evictions,
            self.invalidated,
            self.hit_rate() * 100.0
        )
    }
}

/// The result of a cache lookup.
#[derive(Debug, Clone)]
pub enum Lookup {
    /// Same canonical key: the materialized answer is returned as-is.
    Exact(Answer),
    /// Different key, but probes proved `Q ≡ Q'`: zero-cost hit.
    Equivalent(Answer),
    /// Probes proved `Q ⊑ Q'`: answer by filtering `superset`.
    Subsumed {
        /// The subsuming cached query's materialized answer `Q'(D) ⊇ Q(D)`.
        superset: Answer,
    },
    /// No usable entry: evaluate against the graph.
    Miss,
}

impl Lookup {
    /// Short tag for per-query reporting (`exact`/`equivalent`/...).
    pub fn kind(&self) -> &'static str {
        match self {
            Lookup::Exact(_) => "exact",
            Lookup::Equivalent(_) => "equivalent",
            Lookup::Subsumed { .. } => "subsumed",
            Lookup::Miss => "miss",
        }
    }
}

struct Entry {
    query: CompiledQuery,
    answer: Answer,
    last_used: u64,
}

/// An LRU cache of materialized all-pairs answers with containment-aware
/// lookup. Not thread-safe by itself; the engine serializes access (the
/// expensive work — evaluation and filtering — happens outside the cache,
/// on the worker pool).
pub struct SemanticCache {
    config: CacheConfig,
    entries: Vec<Entry>,
    clock: u64,
    stats: CacheStats,
}

impl SemanticCache {
    /// An empty cache with the given configuration.
    pub fn new(config: CacheConfig) -> SemanticCache {
        SemanticCache {
            config,
            entries: Vec::new(),
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Compile `q`, with its canonical key metered by `key_limits`.
    pub fn compile(&self, q: &TwoRpq, alphabet: &Alphabet) -> CompiledQuery {
        CompiledQuery::new(q, alphabet, &Governor::new(self.config.key_limits.clone()))
    }

    /// The cache key of `q`: canonical when affordable within
    /// `key_limits`, `re:` plus its regex otherwise.
    pub fn key_of(&self, q: &TwoRpq, alphabet: &Alphabet) -> String {
        self.compile(q, alphabet).cache_key().to_string()
    }

    /// Number of materialized entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Counters accumulated since construction.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Drop every entry (counters are kept).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    fn touch(&mut self, i: usize) {
        self.clock += 1;
        self.entries[i].last_used = self.clock;
    }

    /// One budgeted containment probe `a ⊑ b`, with the fuel it spent and
    /// its verdict recorded in the probe metrics. An exhausted probe is
    /// counted as such — not as a non-containment verdict.
    fn probe(
        limits: &Limits,
        stats: &mut CacheStats,
        a: &CompiledQuery,
        b: &CompiledQuery,
        alphabet: &Alphabet,
    ) -> Outcome {
        let mut span = span::start("cache.probe");
        stats.probes += 1;
        let gov = Governor::new(limits.clone());
        let out = check_quick_governed(a, b, alphabet, &gov);
        if out.is_unknown() {
            stats.probe_exhausted += 1;
        }
        if span.active() {
            span.record(
                "verdict",
                if out.is_contained() {
                    "contained"
                } else if out.is_unknown() {
                    "exhausted"
                } else {
                    "not_contained"
                },
            );
            span.record("fuel", gov.fuel_spent());
        }
        metrics::probe(&out, gov.fuel_spent());
        out
    }

    /// Look up `q` by its [`CompiledQuery::cache_key`], then by probes,
    /// updating counters and recency.
    pub fn lookup(&mut self, q: &CompiledQuery, alphabet: &Alphabet) -> Lookup {
        let mut span = span::start("cache.lookup");
        let key = q.cache_key();
        if let Some(i) = self.entries.iter().position(|e| e.query.cache_key() == key) {
            self.touch(i);
            self.stats.exact += 1;
            span.record("disposition", "exact");
            metrics::disposition("exact");
            return Lookup::Exact(Arc::clone(&self.entries[i].answer));
        }
        // Probe the most recently used entries for a subsuming query.
        let mut order: Vec<usize> = (0..self.entries.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(self.entries[i].last_used));
        order.truncate(self.config.probe_candidates);
        let limits = &self.config.probe_limits;
        for i in order {
            let cached = &self.entries[i];
            if !Self::probe(limits, &mut self.stats, q, &cached.query, alphabet).is_contained() {
                continue;
            }
            // `q ⊑ cached` is proven; the reverse probe only decides
            // equivalent-vs-subsumed, so an exhausted reverse probe soundly
            // degrades to the subsumption path.
            let equivalent =
                Self::probe(limits, &mut self.stats, &cached.query, q, alphabet).is_contained();
            let answer = Arc::clone(&cached.answer);
            self.touch(i);
            return if equivalent {
                self.stats.equivalent += 1;
                span.record("disposition", "equivalent");
                metrics::disposition("equivalent");
                Lookup::Equivalent(answer)
            } else {
                self.stats.subsumed += 1;
                span.record("disposition", "subsumed");
                span.record("superset_pairs", answer.len());
                metrics::disposition("subsumed");
                Lookup::Subsumed { superset: answer }
            };
        }
        self.stats.misses += 1;
        span.record("disposition", "miss");
        metrics::disposition("miss");
        Lookup::Miss
    }

    /// Materialize `answer` for `q` under its cache key, evicting the
    /// least recently used entry when at capacity.
    pub fn insert(&mut self, q: CompiledQuery, answer: Answer) {
        if self.config.capacity == 0 {
            return;
        }
        let key = q.cache_key();
        if let Some(i) = self.entries.iter().position(|e| e.query.cache_key() == key) {
            self.entries[i].answer = answer;
            self.touch(i);
            return;
        }
        while self.entries.len() >= self.config.capacity {
            let oldest = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
                .expect("nonempty at capacity");
            self.entries.swap_remove(oldest);
            self.stats.evictions += 1;
            metrics::eviction();
        }
        self.clock += 1;
        self.entries.push(Entry {
            query: q,
            answer,
            last_used: self.clock,
        });
        metrics::entries(self.entries.len());
    }

    /// Whether an entry with exactly this key is materialized (no recency
    /// update, no probes).
    pub fn contains_key(&self, key: &str) -> bool {
        self.entries.iter().any(|e| e.query.cache_key() == key)
    }

    /// Delta-driven invalidation: evict exactly the entries whose answers
    /// a graph mutation could have changed, and keep the rest live.
    ///
    /// An entry must go if
    ///
    /// * its query's automaton alphabet intersects `touched` — any
    ///   semipath witnessing a cached pair may traverse a touched label
    ///   (in either direction: `r` and `r⁻` edges change together); or
    /// * `added_nodes` and ε ∈ L(Q) — a nullable query answers `(v, v)`
    ///   for *every* node, including a freshly interned isolated one, so
    ///   its materialized answer is stale even though no touched label
    ///   appears in it.
    ///
    /// Entries over disjoint labels are provably unaffected: every edge
    /// their semipaths can traverse is untouched, so `Q(D') = Q(D)`.
    /// Returns the number of entries evicted.
    pub fn invalidate(&mut self, touched: &BTreeSet<LabelId>, added_nodes: bool) -> u64 {
        let before = self.entries.len();
        self.entries.retain(|e| {
            let hit = e
                .query
                .query()
                .regex()
                .letters()
                .iter()
                .any(|l| touched.contains(&l.label))
                || (added_nodes && e.query.query().nullable());
            !hit
        });
        let evicted = (before - self.entries.len()) as u64;
        self.stats.invalidated += evicted;
        if evicted > 0 {
            metrics::invalidated(evicted);
            metrics::entries(self.entries.len());
        }
        evicted
    }
}

/// Cache-level metrics: lookup dispositions, probe verdicts and the fuel
/// each probe spent, evictions, and the live entry count.
mod metrics {
    use rq_core::containment::Outcome;
    use rq_metrics::{fuel_buckets, global, Counter, Gauge, Histogram};
    use std::sync::{Arc, OnceLock};

    pub(super) fn disposition(kind: &'static str) {
        static CELLS: OnceLock<[(&'static str, Arc<Counter>); 4]> = OnceLock::new();
        let cells = CELLS.get_or_init(|| {
            ["exact", "equivalent", "subsumed", "miss"].map(|k| {
                (
                    k,
                    global().counter_with(
                        "rq_cache_dispositions_total",
                        &[("disposition", k)],
                        "Semantic-cache lookup outcomes",
                    ),
                )
            })
        });
        if let Some((_, c)) = cells.iter().find(|(k, _)| *k == kind) {
            c.inc();
        }
    }

    type ProbeCells = ([(&'static str, Arc<Counter>); 3], Arc<Histogram>);

    pub(super) fn probe(out: &Outcome, fuel_spent: u64) {
        static CELLS: OnceLock<ProbeCells> = OnceLock::new();
        let (verdicts, fuel) = CELLS.get_or_init(|| {
            (
                ["contained", "not_contained", "exhausted"].map(|r| {
                    (
                        r,
                        global().counter_with(
                            "rq_cache_probes_total",
                            &[("result", r)],
                            "Budgeted containment probes, by verdict",
                        ),
                    )
                }),
                global().histogram(
                    "rq_cache_probe_fuel_spent",
                    "Fuel consumed per containment probe",
                    &fuel_buckets(),
                ),
            )
        });
        let kind = match out.decided() {
            Some(true) => "contained",
            Some(false) => "not_contained",
            None => "exhausted",
        };
        if let Some((_, c)) = verdicts.iter().find(|(k, _)| *k == kind) {
            c.inc();
        }
        fuel.observe(fuel_spent);
    }

    pub(super) fn eviction() {
        static CELL: OnceLock<Arc<Counter>> = OnceLock::new();
        CELL.get_or_init(|| {
            global().counter(
                "rq_cache_evictions_total",
                "Entries evicted by the LRU policy",
            )
        })
        .inc();
    }

    pub(super) fn entries(len: usize) {
        static CELL: OnceLock<Arc<Gauge>> = OnceLock::new();
        CELL.get_or_init(|| global().gauge("rq_cache_entries", "Materialized cache entries"))
            .set(len as u64);
    }

    pub(super) fn invalidated(n: u64) {
        static CELL: OnceLock<Arc<Counter>> = OnceLock::new();
        CELL.get_or_init(|| {
            global().counter(
                "rq_cache_invalidations_total",
                "Entries evicted because a graph delta touched their alphabet",
            )
        })
        .add(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_graph::GraphDb;

    fn pairs(db: &GraphDb, q: &TwoRpq) -> Answer {
        Arc::new(q.evaluate(db))
    }

    fn setup() -> (GraphDb, Alphabet) {
        let db = rq_graph::generate::random_gnm(10, 20, &["a", "b"], 42);
        let al = db.alphabet().clone();
        (db, al)
    }

    #[test]
    fn exact_hit_via_canonical_key() {
        let (db, mut al) = setup();
        let mut cache = SemanticCache::new(CacheConfig::default());
        let q1 = TwoRpq::parse("a b | a c", &mut al).unwrap();
        let q2 = TwoRpq::parse("a(b|c)", &mut al).unwrap();
        cache.insert(cache.compile(&q1, &al), pairs(&db, &q1));
        assert!(matches!(
            cache.lookup(&cache.compile(&q2, &al), &al),
            Lookup::Exact(_)
        ));
        assert_eq!(cache.stats().exact, 1);
    }

    #[test]
    fn syntactic_keys_fall_back_to_probe_equivalence() {
        let (db, mut al) = setup();
        // A key budget that exhausts at once forces syntactic keys,
        // pushing equivalence detection onto the probes.
        let mut cache = SemanticCache::new(CacheConfig {
            key_limits: Limits::unlimited().with_fuel(0),
            ..CacheConfig::default()
        });
        let q1 = TwoRpq::parse("a b | a c", &mut al).unwrap();
        let q2 = TwoRpq::parse("a(b|c)", &mut al).unwrap();
        let k1 = cache.key_of(&q1, &al);
        let k2 = cache.key_of(&q2, &al);
        assert_ne!(k1, k2, "syntactic keys must differ");
        cache.insert(cache.compile(&q1, &al), pairs(&db, &q1));
        assert!(matches!(
            cache.lookup(&cache.compile(&q2, &al), &al),
            Lookup::Equivalent(_)
        ));
    }

    #[test]
    fn subsumption_surfaces_the_superset() {
        let (db, mut al) = setup();
        let mut cache = SemanticCache::new(CacheConfig::default());
        let big = TwoRpq::parse("(a|b)+", &mut al).unwrap();
        let small = TwoRpq::parse("a+", &mut al).unwrap();
        cache.insert(cache.compile(&big, &al), pairs(&db, &big));
        match cache.lookup(&cache.compile(&small, &al), &al) {
            Lookup::Subsumed { superset, .. } => {
                assert!(pairs(&db, &small).is_subset(&superset));
            }
            other => panic!("expected subsumption, got {}", other.kind()),
        }
        assert_eq!(cache.stats().subsumed, 1);
    }

    #[test]
    fn miss_then_lru_eviction() {
        let (db, mut al) = setup();
        let mut cache = SemanticCache::new(CacheConfig {
            capacity: 2,
            ..CacheConfig::default()
        });
        let queries: Vec<TwoRpq> = ["a a", "b b", "a b"]
            .iter()
            .map(|s| TwoRpq::parse(s, &mut al).unwrap())
            .collect();
        for q in &queries {
            assert!(matches!(
                cache.lookup(&cache.compile(q, &al), &al),
                Lookup::Miss
            ));
            cache.insert(cache.compile(q, &al), pairs(&db, q));
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        // The oldest entry ("a a") is gone; "a b" survives.
        assert!(matches!(
            cache.lookup(&cache.compile(&queries[2], &al), &al),
            Lookup::Exact(_)
        ));
    }

    #[test]
    fn zero_probe_budget_degrades_to_exact_match() {
        let (db, mut al) = setup();
        let mut cache = SemanticCache::new(CacheConfig {
            probe_limits: Limits::unlimited().with_fuel(1),
            ..CacheConfig::default()
        });
        // The inverse letter in `Q2` keeps the pair off the Lemma 1 rung,
        // so only the metered exact stage can decide it.
        let big = TwoRpq::parse("(a|a-)+", &mut al).unwrap();
        let small = TwoRpq::parse("a+", &mut al).unwrap();
        cache.insert(cache.compile(&big, &al), pairs(&db, &big));
        assert!(matches!(
            cache.lookup(&cache.compile(&small, &al), &al),
            Lookup::Miss
        ));
        // The starved probe is recorded as exhausted, not as a proven
        // non-containment: the miss is a budget artifact and says so.
        let stats = cache.stats();
        assert!(stats.probe_exhausted > 0, "{stats}");
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn invalidate_evicts_only_entries_over_touched_labels() {
        let (db, mut al) = setup();
        let mut cache = SemanticCache::new(CacheConfig::default());
        let qa = TwoRpq::parse("a+", &mut al).unwrap();
        let qb = TwoRpq::parse("b b-", &mut al).unwrap();
        let qab = TwoRpq::parse("a b", &mut al).unwrap();
        for q in [&qa, &qb, &qab] {
            cache.insert(cache.compile(q, &al), pairs(&db, q));
        }
        let touched: BTreeSet<LabelId> = [al.get("a").unwrap()].into_iter().collect();
        let evicted = cache.invalidate(&touched, false);
        assert_eq!(evicted, 2, "a+ and `a b` touch label a; `b b-` does not");
        assert_eq!(cache.len(), 1);
        let kb = cache.key_of(&qb, &al);
        assert!(cache.contains_key(&kb), "disjoint-alphabet entry survives");
        assert_eq!(cache.stats().invalidated, 2);
    }

    #[test]
    fn invalidate_evicts_nullable_queries_when_nodes_were_added() {
        let (db, mut al) = setup();
        let mut cache = SemanticCache::new(CacheConfig::default());
        // `b*` is nullable: its answer contains (v, v) for every node, so
        // interning a new node stales it even if no b-edge changed.
        let nullable = TwoRpq::parse("b*", &mut al).unwrap();
        let plain = TwoRpq::parse("b+", &mut al).unwrap();
        for q in [&nullable, &plain] {
            cache.insert(cache.compile(q, &al), pairs(&db, q));
        }
        let touched: BTreeSet<LabelId> = [al.get("a").unwrap()].into_iter().collect();
        assert_eq!(cache.invalidate(&touched, true), 1);
        let kp = cache.key_of(&plain, &al);
        assert!(cache.contains_key(&kp), "non-nullable b+ survives");
        // Without node additions the nullable entry would have survived.
        cache.insert(cache.compile(&nullable, &al), pairs(&db, &nullable));
        let k = cache.key_of(&nullable, &al);
        assert_eq!(cache.invalidate(&touched, false), 0);
        assert!(cache.contains_key(&k));
    }

    #[test]
    fn contains_key_reports_without_touching() {
        let (db, mut al) = setup();
        let mut cache = SemanticCache::new(CacheConfig::default());
        let q = TwoRpq::parse("a b", &mut al).unwrap();
        let k = cache.key_of(&q, &al);
        assert!(!cache.contains_key(&k));
        cache.insert(cache.compile(&q, &al), pairs(&db, &q));
        assert!(cache.contains_key(&k));
        assert_eq!(cache.stats(), CacheStats::default(), "no lookup counted");
    }
}
