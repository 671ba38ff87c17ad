//! The serving engine: a [`GraphDb`] behind a worker pool and a
//! [`SemanticCache`].
//!
//! Evaluation is the standard product-automaton BFS (§3.1), parallelized
//! across sources: for an all-pairs query, the `|V|` per-source searches
//! are striped over the pool; every worker meters its own [`Governor`]
//! spawned from the engine's [`Limits`], all sharing one cancellation
//! flag — the first exhausted worker cancels its peers, so a tripped
//! budget costs one search, not `threads` of them.

use crate::cache::{Answer, CacheConfig, CacheStats, Lookup, SemanticCache};
use crate::pool::WorkerPool;
use rq_automata::governor::{EngineError, Governor, Limits, Resource};
use rq_automata::{Alphabet, LabelId, Nfa};
use rq_core::canonical::{CompiledQuery, EMPTY_KEY};
use rq_core::TwoRpq;
use rq_graph::{frontier, Delta, GraphDb, NodeId};
use rq_metrics::span;
use std::collections::BTreeSet;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

/// Engine construction knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads for parallel evaluation (`1 ..=`
    /// [`DEFAULT_MAX_THREADS`]).
    pub threads: usize,
    /// Per-worker budget for one query evaluation. Fuel is metered per
    /// worker; the wall-clock deadline spans the whole query.
    pub limits: Limits,
    /// Semantic-cache tuning: capacity, the key and probe budgets, and
    /// how many entries a key miss probes.
    pub cache: CacheConfig,
    /// Run the `rq-analyze` pre-flight before keying: provably-empty
    /// queries short-circuit to ∅ without touching the pool, and union
    /// branches subsumed by siblings are dropped so answer-equivalent
    /// requests collide on the same canonical cache key.
    pub preflight: bool,
}

/// Upper bound on [`EngineConfig::threads`], whether configured
/// explicitly or detected from the machine. Guards against a huge
/// `available_parallelism` turning one engine into hundreds of OS threads.
pub const DEFAULT_MAX_THREADS: usize = 64;

/// Worker-thread count for [`EngineConfig::default`]:
/// [`std::thread::available_parallelism`] clamped to `1 ..= max_threads`.
fn detect_threads(max_threads: usize) -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .clamp(1, max_threads.max(1))
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            threads: detect_threads(DEFAULT_MAX_THREADS),
            limits: Limits::unlimited(),
            cache: CacheConfig::default(),
            preflight: true,
        }
    }
}

impl EngineConfig {
    /// Validate the configuration, returning a structured error instead
    /// of panicking (or silently misbehaving) later. Checks only that
    /// `threads` is in `1 ..=` [`DEFAULT_MAX_THREADS`]; every cache
    /// setting is valid (a zero capacity disables caching).
    pub fn validate(&self) -> Result<(), EngineError> {
        if self.threads == 0 {
            return Err(EngineError::InvalidInput {
                message: "config: threads must be at least 1 (set \
                          EngineConfig::threads to size the pool)"
                    .into(),
            });
        }
        if self.threads > DEFAULT_MAX_THREADS {
            return Err(EngineError::InvalidInput {
                message: format!(
                    "config: threads ({}) exceeds the cap of {DEFAULT_MAX_THREADS}",
                    self.threads
                ),
            });
        }
        Ok(())
    }
}

/// How a query was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Canonical-key cache hit.
    Exact,
    /// Containment probes proved equivalence to a cached query.
    Equivalent,
    /// Answered by filtering a subsuming cached result.
    Subsumed,
    /// Evaluated against the graph.
    Miss,
    /// Duplicate of an earlier query in the same batch (same key).
    Deduped,
    /// Pre-flight proved `L(Q) = ∅`: answered ∅ with no evaluation and no
    /// cache traffic.
    Empty,
}

impl fmt::Display for Disposition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Disposition::Exact => "exact",
            Disposition::Equivalent => "equivalent",
            Disposition::Subsumed => "subsumed",
            Disposition::Miss => "miss",
            Disposition::Deduped => "deduped",
            Disposition::Empty => "empty",
        })
    }
}

/// A served answer and how it was obtained.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The pairs `Q(D)`.
    pub answer: Answer,
    /// Cache disposition.
    pub disposition: Disposition,
}

/// Per-query outcome of [`Engine::run_batch`], in input order.
#[derive(Debug)]
pub struct BatchItem {
    /// Index into the submitted batch.
    pub index: usize,
    /// The query's cache key.
    pub key: String,
    /// How the query was answered (duplicates report
    /// [`Disposition::Deduped`]).
    pub disposition: Disposition,
    /// The answer, or the budget that tripped while computing it.
    pub outcome: Result<Answer, EngineError>,
}

/// The outcome of a batch run.
#[derive(Debug)]
pub struct BatchReport {
    /// One item per submitted query, in input order.
    pub items: Vec<BatchItem>,
    /// Cache counters accumulated during this batch alone.
    pub stats: CacheStats,
}

struct Shared {
    alphabet: Alphabet,
    cache: SemanticCache,
}

/// A pre-flighted query, ready to serve.
enum Prepared {
    /// Pre-flight proved `L(Q) = ∅`.
    Empty,
    /// Compiled once, for the key, the lookup, the insert and the
    /// evaluation automaton.
    Compiled(CompiledQuery),
    /// Degraded (post-recovery) serving: evaluated over its own NFA, with
    /// no compile and no cache traffic.
    Uncached(TwoRpq),
}

/// The outcome of one [`Engine::apply_deltas`] batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaReport {
    /// Deltas that changed the graph.
    pub applied: usize,
    /// Idempotent no-ops (duplicate adds, removals of absent edges).
    pub ignored: usize,
    /// The graph epoch after the batch.
    pub epoch: u64,
    /// Cache entries evicted by alphabet-intersection invalidation.
    pub evicted: u64,
    /// Whether the batch interned new nodes (which additionally evicts
    /// nullable cached queries — ε ∈ L(Q) answers `(v, v)` for every
    /// node, including a fresh isolated one).
    pub added_nodes: bool,
}

/// A query-serving engine owning a versioned [`GraphDb`].
///
/// Queries must be parsed through [`Engine::parse`] (or against the
/// database's own alphabet) so that label identities line up across the
/// cache's containment probes.
///
/// The graph is mutable through [`Engine::apply_deltas`]: the database
/// lives behind an `RwLock<Arc<_>>`, in-flight evaluations pin the `Arc`
/// they started with, and each applied batch bumps a monotonically
/// increasing *graph epoch* used to fence cache writes against concurrent
/// ingest.
pub struct Engine {
    db: RwLock<Arc<GraphDb>>,
    /// Bumped once per [`Engine::apply_deltas`] batch that changed the
    /// graph. A query result computed against epoch `e` is only
    /// materialized into the cache if the epoch is still `e` at insert
    /// time.
    epoch: AtomicU64,
    pool: WorkerPool,
    shared: Mutex<Shared>,
    config: EngineConfig,
    /// Set when a poisoned shared lock was recovered: the cache was
    /// cleared and the engine now serves cache-off (every query evaluates
    /// the graph). Process death is strictly worse than a cold cache.
    degraded: AtomicBool,
}

impl Engine {
    /// Build an engine over `db`.
    pub fn new(db: GraphDb, config: EngineConfig) -> Engine {
        let alphabet = db.alphabet().clone();
        Engine {
            db: RwLock::new(Arc::new(db)),
            epoch: AtomicU64::new(0),
            pool: WorkerPool::new(config.threads.clamp(1, DEFAULT_MAX_THREADS)),
            shared: Mutex::new(Shared {
                alphabet,
                cache: SemanticCache::new(config.cache.clone()),
            }),
            config,
            degraded: AtomicBool::new(false),
        }
    }

    /// Lock the shared (alphabet + cache) state, *recovering* from poison
    /// instead of propagating it. A panic inside the critical section can
    /// leave the cache mid-mutation, so recovery drops every materialized
    /// answer (restoring the cache's invariants) and flips the engine
    /// into cache-off serving: requests keep being answered from the
    /// graph rather than the whole process aborting on the next lookup.
    fn shared(&self) -> std::sync::MutexGuard<'_, Shared> {
        match self.shared.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                let mut guard = poisoned.into_inner();
                guard.cache.clear();
                self.shared.clear_poison();
                if !self.degraded.swap(true, Ordering::SeqCst) {
                    metrics::degraded(true);
                }
                metrics::lock_recovered();
                guard
            }
        }
    }

    /// Whether the engine has degraded to cache-off serving after
    /// recovering a poisoned lock.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::SeqCst)
    }

    /// Leave degraded (cache-off) mode and start caching again. The cache
    /// was cleared during recovery, so this is always sound — it merely
    /// re-enables materialization.
    pub fn reset_degraded(&self) {
        if self.degraded.swap(false, Ordering::SeqCst) {
            metrics::degraded(false);
        }
    }

    /// A snapshot of the served database. The returned `Arc` pins the
    /// graph version current at the moment of the call: a concurrent
    /// [`Engine::apply_deltas`] copy-on-writes a fresh version rather
    /// than mutating a pinned snapshot, so the reference stays coherent
    /// for as long as the caller holds it.
    pub fn db(&self) -> Arc<GraphDb> {
        Arc::clone(&self.db.read().unwrap_or_else(|p| p.into_inner()))
    }

    /// The graph epoch: bumped once per [`Engine::apply_deltas`] batch
    /// that changed the graph.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Seed the epoch counter — serving layers restoring from a
    /// persistent store call this once at startup (with the store's
    /// epoch) before queries flow, so epochs stay monotone across
    /// restarts.
    pub fn set_epoch(&self, epoch: u64) {
        self.epoch.store(epoch, Ordering::SeqCst);
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Snapshot of the engine's alphabet (the database's labels plus any
    /// labels interned by parsed queries).
    pub fn alphabet(&self) -> Alphabet {
        self.shared().alphabet.clone()
    }

    /// Parse a query against the engine's shared alphabet.
    pub fn parse(&self, text: &str) -> Result<TwoRpq, EngineError> {
        let mut shared = self.shared();
        TwoRpq::parse(text, &mut shared.alphabet).map_err(|e| EngineError::InvalidInput {
            message: e.to_string(),
        })
    }

    /// Cache counters since construction.
    pub fn cache_stats(&self) -> CacheStats {
        self.shared().cache.stats()
    }

    /// Drop all materialized answers (counters are kept).
    pub fn clear_cache(&self) {
        self.shared().cache.clear();
    }

    /// Serve the all-pairs answer `Q(D)`, consulting and feeding the
    /// semantic cache.
    pub fn run(&self, q: &TwoRpq) -> Result<QueryResult, EngineError> {
        self.run_with(q, &self.config.limits, None)
    }

    /// Serve `Q(D)` under request-specific `limits` and an optional
    /// external cancellation flag. The flag is shared with every worker
    /// stripe, so setting it from another thread (a request timeout, a
    /// server drain) stops the evaluation cooperatively at the next
    /// governor poll; the result surfaces as
    /// [`EngineError::Exhausted`] with [`Resource::Cancelled`].
    pub fn run_with(
        &self,
        q: &TwoRpq,
        limits: &Limits,
        cancel: Option<Arc<AtomicBool>>,
    ) -> Result<QueryResult, EngineError> {
        self.traced(|| {
            let mut shared = self.shared();
            let Shared { alphabet, cache } = &mut *shared;
            let prepared = match self.preflight(q, alphabet) {
                None => Prepared::Empty,
                Some(q) if self.is_degraded() => Prepared::Uncached(q),
                Some(q) => Prepared::Compiled(cache.compile(&q, alphabet)),
            };
            self.serve(prepared, shared, limits, cancel)
        })
    }

    /// Run one served query under its `engine.run` span and record it in
    /// the per-query metrics.
    fn traced(
        &self,
        run: impl FnOnce() -> Result<QueryResult, EngineError>,
    ) -> Result<QueryResult, EngineError> {
        let mut span = span::start("engine.run");
        let start = std::time::Instant::now();
        let result = run();
        if span.active() {
            match &result {
                Ok(r) => {
                    span.record("disposition", r.disposition);
                    span.record("pairs", r.answer.len());
                }
                Err(e) => span.record("error", e),
            }
        }
        metrics::query(&result, start.elapsed());
        result
    }

    /// The query to serve in place of `q`: `None` when the pre-flight
    /// (rq-analyze) proves `L(Q) = ∅`; otherwise `q` with the union
    /// branches a sibling subsumes normalized away, so the canonical key
    /// collides for answer-equivalent requests.
    fn preflight(&self, q: &TwoRpq, alphabet: &Alphabet) -> Option<TwoRpq> {
        if !self.config.preflight {
            return Some(q.clone());
        }
        let p = rq_analyze::preflight(q, alphabet, &self.config.cache.probe_limits);
        (p.action != rq_analyze::PreflightAction::Empty).then_some(p.query)
    }

    /// Serve a prepared query, starting under the held `shared` lock.
    fn serve(
        &self,
        prepared: Prepared,
        mut shared: MutexGuard<'_, Shared>,
        limits: &Limits,
        cancel: Option<Arc<AtomicBool>>,
    ) -> Result<QueryResult, EngineError> {
        // The database snapshot and the epoch are captured inside the same
        // critical section as the cache lookup: `apply_deltas` mutates
        // graph, epoch, and cache under this very lock, so the triple is
        // mutually consistent — a Subsumed superset is always filtered
        // against the graph version it was cached for. Degraded serving
        // skips all cache traffic: the answer still comes from the graph.
        let (compiled, automaton, kind, lookup) = match prepared {
            Prepared::Empty => {
                return Ok(QueryResult {
                    answer: Arc::new(BTreeSet::new()),
                    disposition: Disposition::Empty,
                })
            }
            Prepared::Compiled(c) => {
                let lookup = if self.is_degraded() {
                    Lookup::Miss
                } else {
                    let Shared { alphabet, cache } = &mut *shared;
                    cache.lookup(&c, alphabet)
                };
                let (automaton, kind) = (Arc::clone(c.automaton()), c.automaton_kind());
                (Some(c), automaton, kind, lookup)
            }
            // Degraded serving compiled nothing: it runs the query's NFA.
            Prepared::Uncached(q) => (None, Arc::new(q.nfa().clone()), "nfa", Lookup::Miss),
        };
        let (db, epoch_at_lookup) = (self.db(), self.epoch());
        drop(shared);
        // Graph work happens outside the lock: concurrent callers only
        // contend on compiles and probes.
        let (sources, disposition) = match lookup {
            Lookup::Exact(answer) => {
                return Ok(QueryResult {
                    answer,
                    disposition: Disposition::Exact,
                })
            }
            Lookup::Equivalent(answer) => {
                return Ok(QueryResult {
                    answer,
                    disposition: Disposition::Equivalent,
                })
            }
            Lookup::Subsumed { superset, .. } => {
                // Q(D) ⊆ Q'(D), so only sources occurring in Q'(D) can
                // answer Q: re-run the product BFS restricted to those
                // sources — the batched form of a per-pair membership
                // re-check.
                let mut sources: Vec<NodeId> = superset.iter().map(|&(x, _)| x).collect();
                sources.dedup();
                (sources, Disposition::Subsumed)
            }
            Lookup::Miss => (db.nodes().collect(), Disposition::Miss),
        };
        let answer = Arc::new(self.eval_sources(automaton, kind, &db, sources, limits, cancel)?);
        if let Some(compiled) = compiled {
            let mut shared = self.shared();
            // The recovery may have happened mid-request (the poison was
            // observed by this very lock call): don't materialize into a
            // cache the engine has just stopped trusting. Likewise, if a
            // delta batch landed while we were evaluating, the answer is
            // for a superseded graph version — correct to *return* (the
            // query linearizes at lookup time) but wrong to *cache*.
            if !self.is_degraded() && self.epoch() == epoch_at_lookup {
                shared.cache.insert(compiled, Arc::clone(&answer));
            }
        }
        Ok(QueryResult {
            answer,
            disposition,
        })
    }

    /// Apply a batch of edge deltas to the served graph, bump the graph
    /// epoch, and invalidate exactly the cache entries the batch could
    /// have staled.
    ///
    /// Ordering inside the critical section:
    ///
    /// 1. every delta label is interned through the *shared* alphabet
    ///    first, then the database alphabet is aligned to it — so a label
    ///    first seen in a parsed query and later ingested as data gets
    ///    the same [`LabelId`] on both paths;
    /// 2. the graph is patched via [`Arc::make_mut`]: in place when no
    ///    in-flight evaluation pins the current version, copy-on-write
    ///    when one does (pinned snapshots never mutate under a reader);
    /// 3. if anything changed, the epoch is bumped once for the whole
    ///    batch and [`SemanticCache::invalidate`] evicts entries whose
    ///    automaton alphabet intersects the touched labels (plus nullable
    ///    entries when nodes were added). Entries over disjoint labels
    ///    stay live and keep hitting.
    ///
    /// Durability is the caller's concern: persistent serving layers
    /// append to their store (and fsync) *before* calling this, so a
    /// delta is never observable by queries unless it would survive a
    /// crash.
    pub fn apply_deltas(&self, deltas: &[Delta]) -> DeltaReport {
        let mut span = span::start("engine.apply_deltas");
        let mut shared = self.shared();
        let labels: Vec<LabelId> = deltas
            .iter()
            .map(|d| shared.alphabet.intern(d.label_name()))
            .collect();
        let mut touched: BTreeSet<LabelId> = BTreeSet::new();
        let mut applied = 0usize;
        let added_nodes;
        {
            let mut db_guard = self.db.write().unwrap_or_else(|p| p.into_inner());
            let db = Arc::make_mut(&mut db_guard);
            db.align_alphabet(&shared.alphabet);
            let nodes_before = db.num_nodes();
            for (d, &l) in deltas.iter().zip(&labels) {
                if db.apply_delta(d) {
                    applied += 1;
                    touched.insert(l);
                }
            }
            added_nodes = db.num_nodes() > nodes_before;
        }
        let (epoch, evicted) = if applied > 0 || added_nodes {
            let epoch = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
            let evicted = shared.cache.invalidate(&touched, added_nodes);
            (epoch, evicted)
        } else {
            (self.epoch(), 0)
        };
        drop(shared);
        let report = DeltaReport {
            applied,
            ignored: deltas.len() - applied,
            epoch,
            evicted,
            added_nodes,
        };
        metrics::deltas(&report);
        if span.active() {
            span.record("applied", applied);
            span.record("ignored", report.ignored);
            span.record("touched_labels", touched.len());
            span.record("evicted", evicted);
            span.record("epoch", epoch);
        }
        report
    }

    /// Parse and serve in one step.
    pub fn run_query(&self, text: &str) -> Result<QueryResult, EngineError> {
        let q = self.parse(text)?;
        self.run(&q)
    }

    /// Governed single-source evaluation (no cache: single-source answers
    /// are not materialized).
    pub fn run_from(&self, q: &TwoRpq, source: NodeId) -> Result<BTreeSet<NodeId>, EngineError> {
        let db = self.db();
        if source.index() >= db.num_nodes() {
            return Err(EngineError::InvalidInput {
                message: format!("source node #{} out of range", source.index()),
            });
        }
        let gov = self.config.limits.governor();
        Ok(q.evaluate_from_governed(&db, source, &gov)?)
    }

    /// Serve a batch: each query is pre-flighted and compiled once, the
    /// batch is deduplicated on the resulting cache keys, the first query
    /// of each key is served in input order (each one's answer seeds the
    /// cache for the rest), and each evaluation fans out across the pool.
    pub fn run_batch(&self, queries: &[TwoRpq]) -> BatchReport {
        let mut span = span::start("engine.batch");
        let batch_start = std::time::Instant::now();
        let stats_before = self.cache_stats();
        let prepared: Vec<(String, Prepared)> = {
            let mut shared = self.shared();
            let Shared { alphabet, cache } = &mut *shared;
            queries
                .iter()
                .map(|q| match self.preflight(q, alphabet) {
                    None => (EMPTY_KEY.to_string(), Prepared::Empty),
                    Some(q) => {
                        let compiled = cache.compile(&q, alphabet);
                        (
                            compiled.cache_key().to_string(),
                            Prepared::Compiled(compiled),
                        )
                    }
                })
                .collect()
        };
        let mut items: Vec<BatchItem> = Vec::with_capacity(queries.len());
        for (index, (key, prepared)) in prepared.into_iter().enumerate() {
            let (disposition, outcome) = match items.iter().find(|item| item.key == key) {
                Some(first) => (Disposition::Deduped, first.outcome.clone()),
                None => {
                    let limits = &self.config.limits;
                    match self.traced(|| self.serve(prepared, self.shared(), limits, None)) {
                        Ok(r) => (r.disposition, Ok(r.answer)),
                        Err(e) => (Disposition::Miss, Err(e)),
                    }
                }
            };
            items.push(BatchItem {
                index,
                key,
                disposition,
                outcome,
            });
        }
        let after = self.cache_stats();
        let report = BatchReport {
            items,
            stats: CacheStats {
                exact: after.exact - stats_before.exact,
                equivalent: after.equivalent - stats_before.equivalent,
                subsumed: after.subsumed - stats_before.subsumed,
                misses: after.misses - stats_before.misses,
                probes: after.probes - stats_before.probes,
                probe_exhausted: after.probe_exhausted - stats_before.probe_exhausted,
                evictions: after.evictions - stats_before.evictions,
                invalidated: after.invalidated - stats_before.invalidated,
            },
        };
        if span.active() {
            span.record("queries", report.items.len());
            span.record("stats", report.stats);
        }
        metrics::batch(&report, batch_start.elapsed());
        report
    }

    /// Evaluate a query, given by its ε-free `automaton`, from every
    /// source in `sources` (ascending, distinct) across the pool, one
    /// governed product BFS per source. `kind` names the automaton for
    /// the `engine.eval` span: `"dfa"` or `"nfa"`, as chosen at compile
    /// time ([`rq_core::canonical::CompiledQuery::automaton`]); fuel is
    /// one unit per product edge of whichever automaton runs.
    ///
    /// Stripe `s` of `k` owns the contiguous slice
    /// `sources[s·n/k .. (s+1)·n/k]` and harvests it into one source-major
    /// `(x, y)` run, which is sorted because the slice is ascending. The
    /// runs, concatenated in stripe order, are therefore the sorted
    /// answer, and the set is bulk-built from them once: there is no
    /// merge. Ownership is fixed by `(sources, threads)`, so each stripe's
    /// fuel — and so whether a budget trips — does not depend on
    /// scheduling.
    ///
    /// When `cancel` is given, every stripe *watches* it read-only —
    /// setting it from another thread (a server drain) stops the
    /// evaluation, but the internal first-failure peer-cancel path runs
    /// on its own flag, so an exhausted evaluation never flips the
    /// caller's flag, and the error names the budget that really tripped.
    ///
    /// A panicking stripe is re-raised here once every stripe has
    /// reported (see [`run_stripes`]), so a partial answer is never
    /// returned or cached.
    fn eval_sources(
        &self,
        nfa: Arc<Nfa>,
        kind: &'static str,
        db: &Arc<GraphDb>,
        sources: Vec<NodeId>,
        limits: &Limits,
        cancel: Option<Arc<AtomicBool>>,
    ) -> Result<BTreeSet<(NodeId, NodeId)>, EngineError> {
        if sources.is_empty() {
            return Ok(BTreeSet::new());
        }
        let mut eval_span = span::start("engine.eval");
        let stripes = self.pool.threads().min(sources.len());
        if eval_span.active() {
            eval_span.record("sources", sources.len());
            eval_span.record("stripes", stripes);
            eval_span.record("automaton", kind);
            eval_span.record("automaton_states", nfa.num_states());
        }
        // Hand the request's trace to every stripe, parented under the
        // eval span, so worker-side spans (stripe, per-source BFS) land
        // in the same tree even though they run on pool threads.
        let trace_parent = span::current_context().map(|(ctx, _)| (ctx, eval_span.id()));
        let db = Arc::clone(db);
        let sources: Arc<[NodeId]> = sources.into();
        let limits = limits.clone();
        let results = run_stripes(&self.pool, stripes, move |s, peer_cancel| {
            let _trace_guard = trace_parent
                .as_ref()
                .map(|(ctx, parent)| span::install(ctx, *parent));
            let mut stripe_span = span::start("engine.stripe");
            let mut gov = Governor::with_cancel(limits.clone(), peer_cancel);
            if let Some(flag) = &cancel {
                gov = gov.watching(Arc::clone(flag));
            }
            let n = sources.len();
            let mine = &sources[s * n / stripes..(s + 1) * n / stripes];
            let mut pairs = Vec::new();
            let result = frontier::harvest_pairs(&db, &nfa, mine.iter().copied(), &gov, &mut pairs)
                .map(|()| pairs);
            if result.is_err() {
                gov.cancel(); // stop the peers
            }
            if stripe_span.active() {
                stripe_span.record("stripe", s);
                stripe_span.record("fuel", gov.fuel_spent());
                if result.is_err() {
                    stripe_span.record("exhausted", "true");
                }
            }
            drop(stripe_span);
            metrics::worker_fuel(gov.fuel_spent(), result.is_ok());
            result
        });
        // Peers cancelled by the first failure also report `Cancelled`;
        // report the budget that actually tripped.
        let failures = results.iter().filter_map(|r| r.as_ref().err());
        if let Some(e) = failures.min_by_key(|e| e.resource == Resource::Cancelled) {
            return Err(EngineError::Exhausted(e.clone()));
        }
        // Every result is `Ok` now, so flattening yields the runs.
        let runs: Vec<Vec<(NodeId, NodeId)>> = results.into_iter().flatten().collect();
        debug_assert!(
            runs.iter().flatten().is_sorted_by(|a, b| a < b),
            "stripe runs concatenate sorted"
        );
        // `collect` recognises the sorted run and bulk-builds the set; each
        // run's buffer is freed as soon as it has been moved out.
        Ok(runs.into_iter().flatten().collect())
    }
}

/// Run `stripe(s, cancel)` for every `s` in `0..stripes` on `pool` and
/// return the results in stripe order. All stripes share one `cancel`
/// flag for stopping their peers.
///
/// Each job runs its stripe under `catch_unwind` and reports the outcome,
/// result or panic payload, over a channel; a panicking stripe sets
/// `cancel`, as an exhausted stripe does. The caller waits for every
/// stripe to report, then re-raises the first panic with `resume_unwind`:
/// it reaches the caller only once no stripe is still running, and never
/// as a short answer.
pub(crate) fn run_stripes<T: Send + 'static>(
    pool: &WorkerPool,
    stripes: usize,
    stripe: impl Fn(usize, Arc<AtomicBool>) -> T + Send + Sync + 'static,
) -> Vec<T> {
    let stripe = Arc::new(stripe);
    let cancel = Arc::new(AtomicBool::new(false));
    let (tx, rx) = channel();
    for s in 0..stripes {
        let (stripe, cancel, tx) = (Arc::clone(&stripe), Arc::clone(&cancel), tx.clone());
        pool.execute(move || {
            let outcome = catch_unwind(AssertUnwindSafe(|| stripe(s, Arc::clone(&cancel))));
            if outcome.is_err() {
                cancel.store(true, Ordering::SeqCst);
            }
            let _ = tx.send((s, outcome));
        });
    }
    drop(tx);
    let mut outcomes: Vec<(usize, std::thread::Result<T>)> = rx.iter().collect();
    assert_eq!(outcomes.len(), stripes, "every stripe reports");
    outcomes.sort_unstable_by_key(|&(s, _)| s);
    outcomes
        .into_iter()
        .map(|(_, outcome)| outcome.unwrap_or_else(|payload| resume_unwind(payload)))
        .collect()
}

/// Engine-level metrics: per-query and per-batch latency histograms,
/// disposition/error counters, and per-worker governor fuel consumption
/// split by outcome. Per-request detail lives in the `engine.run` /
/// `engine.batch` spans opened by the serving path. The latency
/// histograms observe *traced* so their exposition buckets carry
/// trace-id exemplars.
mod metrics {
    use super::{BatchReport, DeltaReport, Disposition, EngineError, QueryResult};
    use rq_metrics::{fuel_buckets, global, latency_buckets_us, Counter, Gauge, Histogram};
    use std::sync::{Arc, OnceLock};
    use std::time::Duration;

    fn queries_total(d: Disposition) -> &'static Counter {
        static CELLS: OnceLock<[Arc<Counter>; 6]> = OnceLock::new();
        let cells = CELLS.get_or_init(|| {
            [
                "exact",
                "equivalent",
                "subsumed",
                "miss",
                "deduped",
                "empty",
            ]
            .map(|d| {
                global().counter_with(
                    "rq_engine_queries_total",
                    &[("disposition", d)],
                    "Queries served, by cache disposition",
                )
            })
        });
        let i = match d {
            Disposition::Exact => 0,
            Disposition::Equivalent => 1,
            Disposition::Subsumed => 2,
            Disposition::Miss => 3,
            Disposition::Deduped => 4,
            Disposition::Empty => 5,
        };
        &cells[i]
    }

    pub(super) fn query(result: &Result<QueryResult, EngineError>, elapsed: Duration) {
        static CELLS: OnceLock<(Arc<Histogram>, Arc<Counter>)> = OnceLock::new();
        let (latency, errors) = CELLS.get_or_init(|| {
            (
                global().histogram(
                    "rq_engine_query_latency_us",
                    "End-to-end latency of one served query, microseconds",
                    &latency_buckets_us(),
                ),
                global().counter(
                    "rq_engine_query_errors_total",
                    "Queries that failed (budget exhausted or invalid input)",
                ),
            )
        });
        let us = elapsed.as_micros() as u64;
        latency.observe_traced(us);
        match result {
            Ok(r) => queries_total(r.disposition).inc(),
            Err(_) => errors.inc(),
        }
    }

    pub(super) fn batch(report: &BatchReport, elapsed: Duration) {
        static CELLS: OnceLock<(Arc<Counter>, Arc<Histogram>)> = OnceLock::new();
        let (batches, latency) = CELLS.get_or_init(|| {
            (
                global().counter("rq_engine_batches_total", "Batches served"),
                global().histogram(
                    "rq_engine_batch_latency_us",
                    "End-to-end latency of one served batch, microseconds",
                    &latency_buckets_us(),
                ),
            )
        });
        batches.inc();
        let us = elapsed.as_micros() as u64;
        latency.observe_traced(us);
        let deduped = report
            .items
            .iter()
            .filter(|i| i.disposition == Disposition::Deduped)
            .count();
        for _ in 0..deduped {
            queries_total(Disposition::Deduped).inc();
        }
    }

    /// One poisoned shared lock recovered (cache cleared, poison flag
    /// reset).
    pub(super) fn lock_recovered() {
        static CELL: OnceLock<Arc<Counter>> = OnceLock::new();
        CELL.get_or_init(|| {
            global().counter(
                "rq_engine_lock_recoveries_total",
                "Poisoned engine locks recovered by clearing the cache",
            )
        })
        .inc();
    }

    /// Flip the degraded-serving gauge (1 while the engine serves
    /// cache-off after a poison recovery).
    pub(super) fn degraded(on: bool) {
        static CELL: OnceLock<Arc<rq_metrics::Gauge>> = OnceLock::new();
        CELL.get_or_init(|| {
            global().gauge(
                "rq_engine_degraded",
                "1 while the engine is serving cache-off after recovering a poisoned lock",
            )
        })
        .set(u64::from(on));
    }

    /// Fuel one worker's governor metered over its stripe of sources,
    /// split by whether the stripe completed or tripped a budget.
    pub(super) fn worker_fuel(fuel_spent: u64, ok: bool) {
        static CELLS: OnceLock<[Arc<Histogram>; 2]> = OnceLock::new();
        let cells = CELLS.get_or_init(|| {
            ["ok", "exhausted"].map(|o| {
                global().histogram_with(
                    "rq_governor_fuel_spent",
                    &[("outcome", o)],
                    "Fuel consumed per worker evaluation stripe, by outcome",
                    &fuel_buckets(),
                )
            })
        });
        cells[if ok { 0 } else { 1 }].observe(fuel_spent);
    }

    /// One applied delta batch: applied/ignored record counters, the
    /// cache entries it invalidated, and the resulting graph epoch.
    pub(super) fn deltas(report: &DeltaReport) {
        type DeltaCells = (Arc<Counter>, Arc<Counter>, Arc<Counter>, Arc<Gauge>);
        static CELLS: OnceLock<DeltaCells> = OnceLock::new();
        let (applied, ignored, invalidated, epoch) = CELLS.get_or_init(|| {
            (
                global().counter(
                    "rq_engine_deltas_applied_total",
                    "Edge deltas that changed the served graph",
                ),
                global().counter(
                    "rq_engine_deltas_ignored_total",
                    "Edge deltas that were idempotent no-ops",
                ),
                global().counter(
                    "rq_engine_cache_invalidated_total",
                    "Cache entries evicted by delta-driven invalidation",
                ),
                global().gauge(
                    "rq_engine_graph_epoch",
                    "Monotone graph version, bumped once per applied delta batch",
                ),
            )
        });
        applied.add(report.applied as u64);
        ignored.add(report.ignored as u64);
        invalidated.add(report.evicted);
        epoch.set(report.epoch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_graph::generate;
    use std::sync::atomic::AtomicUsize;

    fn engine(threads: usize) -> Engine {
        let db = generate::random_gnm(30, 90, &["a", "b"], 7);
        Engine::new(
            db,
            EngineConfig {
                threads,
                ..EngineConfig::default()
            },
        )
    }

    #[test]
    fn parallel_matches_sequential() {
        let eng = engine(3);
        for text in ["a+", "(a|b)*", "a b- a", "b (a|b-)+"] {
            let q = eng.parse(text).unwrap();
            let expect = q.evaluate(&eng.db());
            let got = eng.run(&q).unwrap();
            assert_eq!(*got.answer, expect, "{text}");
        }
    }

    #[test]
    fn second_run_is_an_exact_hit() {
        let eng = engine(2);
        let q = eng.parse("a (a|b)*").unwrap();
        assert_eq!(eng.run(&q).unwrap().disposition, Disposition::Miss);
        assert_eq!(eng.run(&q).unwrap().disposition, Disposition::Exact);
        assert_eq!(eng.cache_stats().exact, 1);
    }

    #[test]
    fn subsumption_answers_by_filtering() {
        let eng = engine(2);
        let big = eng.parse("(a|b)+").unwrap();
        let small = eng.parse("a+").unwrap();
        assert_eq!(eng.run(&big).unwrap().disposition, Disposition::Miss);
        let got = eng.run(&small).unwrap();
        assert_eq!(got.disposition, Disposition::Subsumed);
        assert_eq!(*got.answer, small.evaluate(&eng.db()));
    }

    #[test]
    fn batch_dedups_in_input_order() {
        let eng = engine(2);
        let texts = ["a+", "(a|b)+", "a+", "b+"];
        let queries: Vec<TwoRpq> = texts.iter().map(|t| eng.parse(t).unwrap()).collect();
        let report = eng.run_batch(&queries);
        assert_eq!(report.items.len(), 4);
        assert_eq!(report.items[2].disposition, Disposition::Deduped);
        // Input order: a+ and (a|b)+ both evaluate (a+ cannot answer its
        // superset), and b+ is then a subsumption hit on (a|b)+.
        assert_eq!(report.items[0].disposition, Disposition::Miss);
        assert_eq!(report.items[1].disposition, Disposition::Miss);
        assert_eq!(report.items[3].disposition, Disposition::Subsumed);
        for (i, item) in report.items.iter().enumerate() {
            let expect = queries[i].evaluate(&eng.db());
            assert_eq!(**item.outcome.as_ref().unwrap(), expect, "{}", texts[i]);
        }
        assert_eq!(report.stats.misses, 2);
        assert_eq!(report.stats.subsumed, 1);
    }

    #[test]
    fn deadline_zero_exhausts() {
        let db = generate::random_gnm(60, 180, &["a", "b"], 9);
        let eng = Engine::new(
            db,
            EngineConfig {
                threads: 2,
                limits: Limits::unlimited().with_fuel(5),
                ..EngineConfig::default()
            },
        );
        let q = eng.parse("(a|b)*").unwrap();
        match eng.run(&q) {
            Err(EngineError::Exhausted(e)) => {
                assert_ne!(e.resource, Resource::Cancelled, "report the real budget");
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn preflight_short_circuits_empty_queries() {
        let eng = engine(2);
        let q = eng.parse("a ∅ b").unwrap();
        let got = eng.run(&q).unwrap();
        assert_eq!(got.disposition, Disposition::Empty);
        assert!(got.answer.is_empty());
        // No cache traffic either: a re-run is Empty again, not Exact.
        assert_eq!(eng.run(&q).unwrap().disposition, Disposition::Empty);
        assert_eq!(eng.cache_stats().misses, 0);
    }

    #[test]
    fn preflight_normalization_creates_cache_collisions() {
        let eng = engine(2);
        // Lemma 2: p ⊑ p p⁻ p, so `a | a a- a` normalizes to `a a- a` and
        // must land on the cached entry for the plain detour query.
        let detour = eng.parse("a a- a").unwrap();
        let unioned = eng.parse("a | a a- a").unwrap();
        assert_eq!(eng.run(&detour).unwrap().disposition, Disposition::Miss);
        let got = eng.run(&unioned).unwrap();
        assert_eq!(got.disposition, Disposition::Exact);
        // And the answers are the full union's answers (the dropped branch
        // was subsumed, so nothing is lost).
        assert_eq!(*got.answer, unioned.evaluate(&eng.db()));
    }

    #[test]
    fn preflight_off_preserves_old_behavior() {
        let db = generate::random_gnm(30, 90, &["a", "b"], 7);
        let eng = Engine::new(
            db,
            EngineConfig {
                threads: 2,
                preflight: false,
                ..EngineConfig::default()
            },
        );
        let q = eng.parse("a ∅ b").unwrap();
        let got = eng.run(&q).unwrap();
        // Without pre-flight the empty query evaluates like any other.
        assert_eq!(got.disposition, Disposition::Miss);
        assert!(got.answer.is_empty());
    }

    /// Poison the shared lock: a thread panics while holding it.
    fn poison(eng: &Engine) {
        std::thread::scope(|s| {
            let h = s.spawn(|| {
                let _guard = eng.shared.lock().unwrap();
                panic!("poison the engine lock");
            });
            assert!(h.join().is_err());
        });
    }

    #[test]
    fn degraded_serving_evaluates_the_nfa_with_the_same_answers() {
        use rq_automata::random::{random_regex, RegexConfig, SplitMix64};
        use rq_metrics::span::TraceContext;
        // Without pre-flight the engine evaluates `q` itself.
        let db = generate::random_gnm(30, 90, &["a", "b"], 7);
        let config = EngineConfig {
            threads: 2,
            preflight: false,
            ..EngineConfig::default()
        };
        let eng = Engine::new(db.clone(), config);
        poison(&eng);
        let mut rng = SplitMix64::new(23);
        let cfg = RegexConfig {
            num_labels: 2,
            inverse_prob: 0.3,
            leaves: 5,
            repeat_prob: 0.3,
        };
        for _ in 0..16 {
            let q = TwoRpq::new(random_regex(&mut rng, &cfg));
            let ctx = TraceContext::start();
            let got = {
                let _g = span::install(&ctx, 0);
                eng.run(&q).unwrap()
            };
            assert!(eng.is_degraded());
            assert_eq!(got.disposition, Disposition::Miss);
            assert_eq!(*got.answer, q.evaluate(&db));
            let trace = ctx.finish("ok", "");
            let eval = trace.spans.iter().find(|s| s.name == "engine.eval");
            let fields = &eval.expect("the run evaluated").fields;
            assert!(fields.contains(&("automaton", "nfa".to_string())));
            let states = q.nfa().num_states().to_string();
            assert!(fields.contains(&("automaton_states", states)));
        }
    }

    #[test]
    fn poisoned_lock_recovers_to_cache_off_serving() {
        let eng = engine(2);
        let q = eng.parse("a+").unwrap();
        assert_eq!(eng.run(&q).unwrap().disposition, Disposition::Miss);
        assert_eq!(eng.run(&q).unwrap().disposition, Disposition::Exact);
        poison(&eng);
        // Recovery: the next request is served from the graph (cache-off),
        // not a process abort, and the answer is still correct.
        let got = eng.run(&q).unwrap();
        assert!(eng.is_degraded());
        assert_eq!(got.disposition, Disposition::Miss);
        assert_eq!(*got.answer, q.evaluate(&eng.db()));
        // Degraded mode is sticky until reset; then the (cleared) cache
        // warms back up normally.
        assert_eq!(eng.run(&q).unwrap().disposition, Disposition::Miss);
        eng.reset_degraded();
        assert!(!eng.is_degraded());
        assert_eq!(eng.run(&q).unwrap().disposition, Disposition::Miss);
        assert_eq!(eng.run(&q).unwrap().disposition, Disposition::Exact);
    }

    #[test]
    fn external_cancel_flag_stops_run_with() {
        let db = generate::random_gnm(60, 180, &["a", "b"], 9);
        let eng = Engine::new(
            db,
            EngineConfig {
                threads: 2,
                ..EngineConfig::default()
            },
        );
        let q = eng.parse("(a|b)*").unwrap();
        let cancel = Arc::new(AtomicBool::new(true)); // cancelled before start
        match eng.run_with(&q, &Limits::unlimited(), Some(cancel)) {
            Err(EngineError::Exhausted(e)) => assert_eq!(e.resource, Resource::Cancelled),
            other => panic!("expected cancellation, got {other:?}"),
        }
    }

    #[test]
    fn internal_exhaustion_never_flips_the_callers_cancel_flag() {
        let db = generate::random_gnm(200, 800, &["a", "b"], 9);
        let eng = Engine::new(
            db,
            EngineConfig {
                threads: 2,
                ..EngineConfig::default()
            },
        );
        let q = eng.parse("(a|b)*").unwrap();
        let cancel = Arc::new(AtomicBool::new(false));
        // A fuel-starved run exhausts inside a stripe, which cancels its
        // peers — over an *internal* flag. The caller's flag must come
        // back untouched, and the error must name the budget that really
        // tripped rather than the peer-cancel.
        let starved = Limits::unlimited().with_fuel(50);
        match eng.run_with(&q, &starved, Some(Arc::clone(&cancel))) {
            Err(EngineError::Exhausted(e)) => assert_eq!(e.resource, Resource::Fuel),
            other => panic!("expected fuel exhaustion, got {other:?}"),
        }
        assert!(!cancel.load(Ordering::SeqCst), "caller's flag was flipped");
        // The untouched flag does not stop a later run with a real budget.
        assert!(eng.run_with(&q, &Limits::unlimited(), Some(cancel)).is_ok());
    }

    #[test]
    fn config_validation_rejects_bad_thread_counts() {
        let ok = EngineConfig::default();
        assert!(ok.validate().is_ok());
        let zero = EngineConfig {
            threads: 0,
            ..EngineConfig::default()
        };
        assert!(matches!(
            zero.validate(),
            Err(EngineError::InvalidInput { .. })
        ));
        let over = EngineConfig {
            threads: DEFAULT_MAX_THREADS + 1,
            ..EngineConfig::default()
        };
        assert!(matches!(
            over.validate(),
            Err(EngineError::InvalidInput { .. })
        ));
        let at_cap = EngineConfig {
            threads: DEFAULT_MAX_THREADS,
            ..EngineConfig::default()
        };
        assert!(at_cap.validate().is_ok());
    }

    #[test]
    fn detected_threads_respect_the_cap() {
        assert_eq!(detect_threads(1), 1);
        let n = detect_threads(2);
        assert!((1..=2).contains(&n));
        assert!(detect_threads(usize::MAX) >= 1);
        // The default config is always internally consistent.
        let d = EngineConfig::default();
        assert!(d.threads >= 1 && d.threads <= DEFAULT_MAX_THREADS);
    }

    #[test]
    fn stripes_report_in_stripe_order() {
        let eng = engine(2);
        let done = Arc::new(AtomicUsize::new(0));
        let got = run_stripes(&eng.pool, 4, move |s, _| {
            // Stripe 0 holds one worker until the other worker has run
            // every later stripe, so it reports last.
            while s == 0 && done.load(Ordering::SeqCst) < 3 {
                std::thread::yield_now();
            }
            done.fetch_add(1, Ordering::SeqCst);
            s * 10
        });
        assert_eq!(got, vec![0, 10, 20, 30]);
    }

    #[test]
    fn a_stripe_panic_is_re_raised_after_every_stripe_reported() {
        let eng = engine(2);
        let cancelled = Arc::new(AtomicUsize::new(0));
        let peers = Arc::clone(&cancelled);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_stripes(&eng.pool, 4, move |s, cancel| {
                assert_ne!(s, 0, "injected stripe panic");
                // A peer polls for the panic's cancel, as a governor does,
                // and then still takes a while to report.
                let start = std::time::Instant::now();
                while !cancel.load(Ordering::SeqCst) && start.elapsed().as_secs() < 10 {
                    std::thread::yield_now();
                }
                std::thread::sleep(std::time::Duration::from_millis(10));
                if cancel.load(Ordering::SeqCst) {
                    peers.fetch_add(1, Ordering::SeqCst);
                }
            })
        }));
        let payload = outcome.expect_err("the stripe panic reaches the caller");
        let message = payload.downcast_ref::<String>().expect("formatted message");
        assert!(message.contains("injected stripe panic"), "{message}");
        assert_eq!(
            cancelled.load(Ordering::SeqCst),
            3,
            "peers cancelled, all reported"
        );
        // The workers survived: the same engine still answers correctly.
        let q = eng.parse("a (a|b)*").unwrap();
        let got = eng.run(&q).unwrap();
        assert_eq!(got.disposition, Disposition::Miss);
        assert_eq!(*got.answer, q.evaluate(&eng.db()));
    }

    #[test]
    fn run_from_rejects_out_of_range() {
        let eng = engine(1);
        let q = eng.parse("a").unwrap();
        assert!(matches!(
            eng.run_from(&q, rq_graph::NodeId(1000)),
            Err(EngineError::InvalidInput { .. })
        ));
    }
}
