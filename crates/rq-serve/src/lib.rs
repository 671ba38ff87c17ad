//! `rq-serve`: a fault-tolerant multi-tenant front-end for the query
//! engine.
//!
//! The crate turns an [`rq_engine::Engine`] into a network service with
//! explicit failure semantics at every layer:
//!
//! * **Admission** — per-tenant token buckets denominated in governor
//!   fuel ([`bucket`]), then a bounded FIFO gate ([`gate`]) that caps
//!   concurrent executions and the line waiting for them. Overload is
//!   answered immediately (`429` + `Retry-After` derived from the waiting
//!   depth), never buffered without bound.
//! * **Execution** — the thread that admitted a job runs it when the gate
//!   grants it a slot: one evaluation under `catch_unwind`, a per-request
//!   fuel + deadline budget, and cooperative cancellation; a panicking
//!   query is answered `error[internal]` while its neighbours complete
//!   untouched ([`server`]).
//! * **Exhaustion** — a spent fuel, state or tuple budget is a verdict
//!   the same budget reproduces, not a transient fault: the `422`
//!   carries the evaluation's structured exhaustion report instead of a
//!   bare failure, and is never retried.
//! * **Drain** — `SIGTERM` ([`signal`]) or `POST /drainz` stops
//!   admission, lets admitted jobs finish within the drain deadline,
//!   answers every job still waiting `error[draining]`, cancels the rest,
//!   and flushes metrics one final time.
//! * **Chaos** — a deterministic, seeded [`faults::FaultPlan`] injects
//!   panics, delays, and fuel starvation into job execution and I/O
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
pub mod gate;
pub mod http;
pub mod server;
pub mod signal;

pub use bench::{run as run_bench, BenchConfig, BenchReport};
pub use bucket::{Admission, TenantBuckets};
pub use config::{ConfigError, ServeConfig, TenantQuota};
pub use faults::{Fault, FaultPlan, FaultSite};
pub use http::Client;
pub use server::{DrainReport, Server};
