//! # rq-bench
//!
//! Seeded workload generators and the timing primitive ([`median`],
//! [`paired`]) behind `report`, the one binary that runs experiments
//! E1–E17 and prints the EXPERIMENTS.md tables
//! (`cargo run --release -p rq-bench --bin report -- --only=E1,E17`).
//!
//! The source paper (Vardi, *A Theory of Regular Queries*, PODS 2016) is an
//! overview paper with no empirical tables; the experiment suite instead
//! measures the paper's *quantitative claims* — construction sizes
//! (Lemmas 3–4) and the scaling shape of each containment procedure
//! (Lemma 1, Theorems 5–8) plus substrate ablations (naive vs semi-naive
//! Datalog, monadic reachability). See `DESIGN.md` for the index.

pub mod timing;
pub mod workloads;

pub use timing::{interleaved, median, paired};
pub use workloads::*;
