//! # rq-engine
//!
//! A concurrent serving layer for regular queries: parallel
//! product-automaton evaluation over a [`rq_graph::GraphDb`] plus a
//! **containment-based semantic cache**.
//!
//! The paper's thesis is that containment (`Q ⊑ Q'` on every database,
//! Lemmas 1–2 / Theorems 5–6) is *the* static-analysis primitive for
//! regular queries; this crate uses it online, on the serving path:
//!
//! * queries are normalized to canonical minimal-DFA keys
//!   ([`rq_core::canonical`]), so equivalent syntax shares one cache entry;
//! * on a key miss, the cache probes cached queries with a cheap-first
//!   containment ladder ([`rq_core::containment::facade`]) — a subsuming
//!   `Q' ⊒ Q` answers `Q` by *filtering* its materialized pairs instead of
//!   re-traversing the graph, and a proven equivalence is a zero-cost hit;
//! * every search and every probe is metered by the
//!   [`rq_automata::governor`] protocol, so budgets degrade the cache to
//!   exact-match and cut off runaway queries instead of stalling the
//!   server.
//!
//! Modules: [`cache`] (the semantic cache) and [`engine`] (the [`Engine`]
//! front end with single-query and batch entry points, over a private
//! fixed worker pool).
//!
//! ## Example
//!
//! ```
//! use rq_engine::{Engine, EngineConfig, Disposition};
//!
//! let db = rq_graph::generate::random_gnm(20, 60, &["a", "b"], 1);
//! let engine = Engine::new(db, EngineConfig { threads: 2, ..Default::default() });
//! let broad = engine.parse("(a|b)+").unwrap();
//! let narrow = engine.parse("a+").unwrap();
//! engine.run(&broad).unwrap();
//! // a+ ⊑ (a|b)+ — answered from the cached superset, not the graph.
//! let hit = engine.run(&narrow).unwrap();
//! assert_eq!(hit.disposition, Disposition::Subsumed);
//! ```

pub mod cache;
pub mod engine;
mod pool;

pub use cache::{Answer, CacheConfig, CacheStats, Lookup, SemanticCache};
pub use engine::{
    BatchItem, BatchReport, DeltaReport, Disposition, Engine, EngineConfig, QueryResult,
};
