//! # regular-queries
//!
//! A production-quality Rust implementation of the query classes and
//! containment algorithms surveyed in Moshe Y. Vardi's *A Theory of Regular
//! Queries* (PODS 2016): RPQs, 2RPQs, C2RPQs, UC2RPQs, Regular Queries (RQ)
//! and Generalized Regular Queries (GRQ), together with the word-automata
//! and Datalog substrates they are built on.
//!
//! This crate is a facade that re-exports the workspace members:
//!
//! * [`automata`] — regexes, NFA/DFA/2NFA machinery, fold, complementation;
//! * [`graph`] — edge-labeled graph databases and generators;
//! * [`datalog`] — a Datalog engine with GRQ recognition and translation;
//! * [`core`] — the query classes, their evaluation, and the containment
//!   checker suite;
//! * [`analyze`] — static-analysis & lint passes over all query classes,
//!   plus the engine's pre-flight normalizer (`rqtool lint`);
//! * [`engine`] — concurrent query serving with a containment-based
//!   semantic cache;
//! * [`metrics`] — a lock-free metrics registry (counters, gauges,
//!   fixed-bucket histograms) with Prometheus-style text exposition,
//!   request-scoped spans and the workspace's JSON codec, threaded
//!   through the other layers;
//! * [`serve`] — a fault-tolerant multi-tenant HTTP front-end over the
//!   engine: admission control, load-shedding, deadlines,
//!   graceful drain, and deterministic fault injection (`rqtool serve`).
//!
//! ## Quickstart
//!
//! ```
//! use regular_queries::prelude::*;
//!
//! // A small graph database over the alphabet {knows}.
//! let mut db = GraphDb::new();
//! let (alice, bob, carol) = (db.node("alice"), db.node("bob"), db.node("carol"));
//! let knows = db.label("knows");
//! db.add_edge(alice, knows, bob);
//! db.add_edge(bob, knows, carol);
//!
//! // Evaluate the RPQ knows+ (a friend-of-a-friend chain of any length).
//! let mut alphabet = db.alphabet().clone();
//! let q = Rpq::parse("knows+", &mut alphabet).unwrap();
//! let answers = q.evaluate(&db);
//! assert!(answers.contains(&(alice, carol)));
//!
//! // Containment: knows ⊑ knows+ holds, knows+ ⊑ knows does not.
//! let q1 = Rpq::parse("knows", &mut alphabet).unwrap();
//! assert!(rpq_containment(&q1, &q, &alphabet).is_contained());
//! assert!(rpq_containment(&q, &q1, &alphabet).is_not_contained());
//! ```

pub use rq_analyze as analyze;
pub use rq_automata as automata;
pub use rq_core as core;
pub use rq_datalog as datalog;
pub use rq_engine as engine;
pub use rq_graph as graph;
pub use rq_metrics as metrics;
pub use rq_serve as serve;
pub use rq_storage as storage;

/// Convenient glob-import surface for examples and applications.
pub mod prelude {
    pub use rq_analyze::{
        lint_program, lint_two_rpq, lint_two_rpq_with_source, lint_uc2rpq, preflight, Report,
        Severity,
    };
    pub use rq_automata::{
        Alphabet, Counters, EngineError, Exhaustion, Governor, LabelId, Letter, Limits, Nfa, Regex,
        Resource,
    };
    pub use rq_core::containment::rpq::check as rpq_containment;
    pub use rq_core::containment::two_rpq::check as two_rpq_containment;
    pub use rq_core::containment::{
        Certificate, Config as ContainmentConfig, ExhaustionReport, Outcome, Witness,
    };
    pub use rq_core::query_text::parse_uc2rpq;
    pub use rq_core::{C2Rpq, Rpq, RqExpr, RqQuery, TwoRpq, Uc2Rpq};
    pub use rq_datalog::{FactDb, Program, Query as DatalogQuery};
    pub use rq_engine::{CacheConfig, CacheStats, Disposition, Engine, EngineConfig};
    pub use rq_graph::{Delta, GraphDb, NodeId, Semipath};
    pub use rq_serve::{FaultPlan, ServeConfig, Server, TenantQuota};
    pub use rq_storage::{OpenReport, StorageConfig, StorageError, StorageHandle};
}
