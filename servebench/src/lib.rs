//! # servebench
//!
//! The serving benchmark for the regular-queries stack (rq-serve →
//! rq-engine → rq-graph / rq-storage). Four seeded workloads run as
//! closed loops from one process, every answer is checked against
//! sequential `TwoRpq::evaluate`, and a run prints its end-to-end metrics
//! (untraced) or its per-layer metrics (traced). See `README.md` in this
//! directory for the metric table and how to run it.

pub mod bench;
pub mod inputs;
pub mod layers;
pub mod oracle;
pub mod passes;
pub mod plan;
pub mod spans;
pub mod stats;
pub mod system;
