//! `rq-serve`: a fault-tolerant multi-tenant front-end for the query
//! engine.
//!
//! The crate turns an [`rq_engine::Engine`] into a network service with
//! explicit failure semantics at every layer:
//!
//! * **Admission** — per-tenant token buckets denominated in governor
//!   fuel ([`bucket`]), then a bounded submission queue ([`queue`]).
//!   Overload is answered immediately (`429` + `Retry-After` derived from
//!   queue depth), never buffered without bound.
//! * **Execution** — serve workers run each job once under
//!   `catch_unwind`, a per-request fuel + deadline budget, and
//!   cooperative cancellation; a panicking query is answered
//!   `error[internal]` while its neighbours complete untouched
//!   ([`server`]).
//! * **Exhaustion** — a spent fuel, state or tuple budget is a verdict
//!   the same budget reproduces, not a transient fault: the `422`
//!   carries the evaluation's structured exhaustion report instead of a
//!   bare failure, and is never retried.
//! * **Drain** — `SIGTERM` ([`signal`]) or `POST /drainz` stops
//!   admission, finishes the backlog within the drain deadline, cancels
//!   the rest, and flushes metrics one final time.
//! * **Chaos** — a deterministic, seeded [`faults::FaultPlan`] injects
//!   panics, delays, and fuel starvation at the pool and I/O boundaries
//!   (behind the `faults` feature) so all of the above is exercised by
//!   tests rather than trusted.
//!
//! The wire protocol is hand-rolled HTTP/1.1 with JSON bodies ([`http`]);
//! the crate (like the rest of the workspace) has no external
//! dependencies.

pub mod bench;
pub mod bucket;
pub mod config;
pub mod faults;
pub mod http;
pub mod queue;
pub mod server;
pub mod signal;

pub use bench::{run as run_bench, BenchConfig, BenchReport};
pub use bucket::{Admission, TenantBuckets};
pub use config::{ConfigError, ServeConfig, TenantQuota};
pub use faults::{Fault, FaultPlan, FaultSite};
pub use http::Client;
pub use queue::{BoundedQueue, PushError};
pub use server::{DrainReport, Server};
