//! # rq-graph
//!
//! Graph-database substrate for the `regular-queries` workspace.
//!
//! Following §3.1 of Vardi's *A Theory of Regular Queries* (PODS 2016), a
//! graph database is "a finite directed graph whose edges are labeled by
//! elements from a finite alphabet Σ"; it "can be seen as a (finite)
//! relational structure over the set Σ of binary relational symbols".
//!
//! * [`db`] — the [`GraphDb`] store with per-label forward *and* backward
//!   adjacency rows (2RPQs navigate edges in both directions);
//! * [`frontier`] — governed product-automaton BFS steps, the shared
//!   substrate of the sequential evaluator (`rq-core`) and the parallel
//!   serving engine (`rq-engine`);
//! * [`semipath`] — semipaths and conformance checking, the semantic
//!   object 2RPQ answers are defined through;
//! * [`generate`] — seeded workload generators (chains, cycles, grids,
//!   G(n,m), preferential attachment, layered DAGs) used by the examples
//!   and the E8–E10 benches;
//! * [`text`] — a line-oriented `src label dst` interchange format;
//! * [`dot`] — Graphviz export (counterexample databases as pictures).
//!
//! ## Example
//!
//! ```
//! use rq_graph::GraphDb;
//! use rq_automata::Letter;
//!
//! let mut db = GraphDb::new();
//! let x = db.node("x");
//! let y = db.node("y");
//! let r = db.label("r");
//! db.add_edge(x, r, y);
//! // Forward and backward navigation:
//! assert_eq!(db.step(x, Letter::forward(r)).count(), 1);
//! assert_eq!(db.step(y, Letter::backward(r)).next(), Some(x));
//! ```

pub mod db;
pub mod delta;
pub mod dot;
pub mod frontier;
pub mod generate;
pub mod semipath;
pub mod text;

pub use db::{GraphDb, NodeId};
pub use delta::Delta;
pub use semipath::Semipath;
