//! Workload plans: the graph, query texts and per-client operation
//! streams of one run, derived from the seed alone.

use crate::inputs::{self, Rng};
use std::ops::Range;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// HTTP closed loop over 16 resident texts; every timed request is an
    /// exact cache hit.
    HotHits,
    /// HTTP closed loop over 512 pairwise-incomparable chains, each a
    /// genuine miss.
    ColdEval,
    /// In-process `clear_cache` + `Engine::run_batch` on a 42-query batch.
    BatchContainment,
    /// HTTP reads beside fsync'd `POST /ingest` toggles on the hot label.
    IngestMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::HotHits,
        Workload::ColdEval,
        Workload::BatchContainment,
        Workload::IngestMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotHits => "hot-hits",
            Workload::ColdEval => "cold-eval",
            Workload::BatchContainment => "batch-containment",
            Workload::IngestMixed => "ingest-mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload is served over HTTP (as opposed to in-process).
    pub fn is_http(self) -> bool {
        self != Workload::BatchContainment
    }
}

/// Closed-loop clients of an HTTP workload (the in-process batch loop runs
/// on one thread).
pub const CLIENTS: usize = 2;

/// Reads between two ingests of one `ingest-mixed` client.
pub const READS_PER_INGEST: usize = 12;

/// Input sizes: the full benchmark, or a tiny smoke-test instance.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub nodes: usize,
    pub edges_per_label: usize,
    /// Timed operations across all clients (reads only, for
    /// `ingest-mixed`); `cold-eval` rounds up to whole passes over its
    /// 512 chains.
    pub ops: usize,
    /// Operations of one client's stream per timing block (see
    /// [`blocks`]).
    pub block: usize,
}

impl Shape {
    /// The benchmark's sizes for a run of `seconds`. Operation counts are
    /// fixed per run (not per elapsed time). At `seconds` = 10, one run of
    /// the seed commit takes 15 to 25 s on two cores: the sub-millisecond
    /// workloads run longer than `seconds`, so that each run averages over
    /// more of the host's slow stretches.
    pub fn full(workload: Workload, seconds: u64) -> Shape {
        let s = seconds.max(1) as usize;
        match workload {
            Workload::HotHits => Shape {
                nodes: 300,
                edges_per_label: 900,
                ops: 12_000 * s,
                block: 250,
            },
            Workload::ColdEval => Shape {
                nodes: 300,
                edges_per_label: 900,
                ops: 512 * s.div_ceil(10),
                block: 128,
            },
            Workload::BatchContainment => Shape {
                nodes: 100,
                edges_per_label: 300,
                // Above 100, so one failed operation cannot leave the p90
                // with fewer than 10 samples beyond it.
                ops: (11 * s).max(110),
                block: usize::MAX,
            },
            Workload::IngestMixed => Shape {
                nodes: 120,
                edges_per_label: 360,
                ops: 1_750 * s,
                // Ten read-and-ingest cycles: 120 reads and 10 ingests.
                block: 10 * (READS_PER_INGEST + 1),
            },
        }
    }

    /// A tiny instance of the same workload, for the harness self-tests.
    pub fn tiny(workload: Workload) -> Shape {
        match workload {
            Workload::HotHits => Shape {
                nodes: 30,
                edges_per_label: 60,
                ops: 200,
                block: usize::MAX,
            },
            Workload::ColdEval => Shape {
                nodes: 12,
                edges_per_label: 20,
                ops: 512,
                block: usize::MAX,
            },
            Workload::BatchContainment => Shape {
                nodes: 16,
                edges_per_label: 40,
                ops: 3,
                block: usize::MAX,
            },
            Workload::IngestMixed => Shape {
                nodes: 20,
                edges_per_label: 50,
                ops: 96,
                block: usize::MAX,
            },
        }
    }
}

/// The timing blocks of one client's stream of `len` operations:
/// `len / block` contiguous ranges (at least one) of near-equal length.
/// The end-to-end figures are medians over blocks, so a stretch of the run
/// in which the host lends the benchmark less CPU moves them only once it
/// covers half the blocks.
pub fn blocks(len: usize, block: usize) -> impl Iterator<Item = Range<usize>> {
    let n = (len / block.max(1)).max(1);
    (0..n).map(move |k| k * len / n..(k + 1) * len / n)
}

/// One client operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `POST /query` with `Plan::queries[i]`.
    Read(usize),
    /// `POST /ingest` adding (or removing) the client's dedicated edge.
    Ingest { add: bool },
}

/// Everything one run sends, as a pure function of (workload, seed, shape).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    /// The graph in the program's text format.
    pub graph_text: String,
    /// Distinct query texts the read operations index (empty for
    /// `batch-containment`, whose batch is built by
    /// [`inputs::containment_batch`]).
    pub queries: Vec<String>,
    /// Per-client operation streams (one stream of `Read(0)` placeholders
    /// per batch operation for `batch-containment`).
    pub streams: Vec<Vec<Op>>,
    /// Per-client dedicated `(source, target)` node names whose `a` edge
    /// `ingest-mixed` toggles.
    pub ingest_edges: Vec<(String, String)>,
    /// Operations per timing block of one client's stream.
    pub block: usize,
}

impl Plan {
    pub fn new(workload: Workload, seed: u64, shape: Shape) -> Plan {
        let clients = if workload.is_http() { CLIENTS } else { 1 };
        let ingest_edges: Vec<(String, String)> = if workload == Workload::IngestMixed {
            (0..clients)
                .map(|c| (format!("iu{c}"), format!("iv{c}")))
                .collect()
        } else {
            Vec::new()
        };
        let extra: Vec<String> = ingest_edges
            .iter()
            .flat_map(|(u, v)| [u.clone(), v.clone()])
            .collect();
        let graph_text = inputs::gnm_text(
            shape.nodes,
            shape.edges_per_label,
            &["a", "b"],
            &extra,
            &mut Rng::new(seed, "graph"),
        );
        let per_client = shape.ops.div_ceil(clients);
        let (queries, streams) = match workload {
            Workload::HotHits => {
                let queries = inputs::hot_texts();
                let streams = (0..clients)
                    .map(|c| {
                        let mut order: Vec<usize> = (0..queries.len()).collect();
                        Rng::new(seed, &format!("hot-order-{c}")).shuffle(&mut order);
                        order
                            .iter()
                            .cycle()
                            .take(per_client)
                            .map(|&i| Op::Read(i))
                            .collect()
                    })
                    .collect();
                (queries, streams)
            }
            Workload::ColdEval => {
                let queries = inputs::cold_texts();
                let passes = shape.ops.div_ceil(queries.len()).max(1);
                let mut streams = vec![Vec::new(); clients];
                for p in 0..passes {
                    let mut order: Vec<usize> = (0..queries.len()).collect();
                    Rng::new(seed, &format!("cold-order-{p}")).shuffle(&mut order);
                    for (k, i) in order.into_iter().enumerate() {
                        streams[k % clients].push(Op::Read(i));
                    }
                }
                (queries, streams)
            }
            Workload::BatchContainment => (Vec::new(), vec![vec![Op::Read(0); shape.ops]]),
            Workload::IngestMixed => {
                let queries: Vec<String> =
                    inputs::E16_READS.iter().map(|s| s.to_string()).collect();
                // Whole toggle pairs per client, so the graph ends every
                // pass in the state it started in.
                let cycle = 2 * READS_PER_INGEST;
                let reads = per_client.div_ceil(cycle).max(1) * cycle;
                let streams = (0..clients)
                    .map(|c| {
                        let start =
                            Rng::new(seed, &format!("ingest-offset-{c}")).below(queries.len());
                        let mut ops = Vec::with_capacity(reads + reads / READS_PER_INGEST);
                        for r in 0..reads {
                            ops.push(Op::Read((start + r) % queries.len()));
                            if (r + 1) % READS_PER_INGEST == 0 {
                                let add = ((r + 1) / READS_PER_INGEST) % 2 == 1;
                                ops.push(Op::Ingest { add });
                            }
                        }
                        ops
                    })
                    .collect();
                (queries, streams)
            }
        };
        Plan {
            workload,
            seed,
            graph_text,
            queries,
            streams,
            ingest_edges,
            block: shape.block,
        }
    }

    /// Total operations across clients.
    pub fn ops(&self) -> usize {
        self.streams.iter().map(Vec::len).sum()
    }

    /// The streams merged round-robin into one sequential order (used by
    /// the single-threaded layer replay).
    pub fn interleaved(&self) -> Vec<(usize, Op)> {
        let longest = self.streams.iter().map(Vec::len).max().unwrap_or(0);
        let mut out = Vec::with_capacity(self.ops());
        for k in 0..longest {
            for (c, s) in self.streams.iter().enumerate() {
                if let Some(&op) = s.get(k) {
                    out.push((c, op));
                }
            }
        }
        out
    }

    /// The `/ingest` body for client `c`.
    pub fn ingest_body(&self, c: usize, add: bool) -> String {
        let (u, v) = &self.ingest_edges[c];
        format!("{} {u} a {v}\n", if add { "add" } else { "remove" })
    }
}
