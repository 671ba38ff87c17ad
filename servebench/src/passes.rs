//! Timed passes: closed-loop HTTP clients and the in-process batch loop.
//!
//! Every client sends its fixed operation stream, waits for each answer
//! before sending the next, and checks each answer against the reference.

use crate::oracle::{self, Digest, Expected};
use crate::plan::{self, Op, Plan};
use crate::spans::{self, Spans};
use rq_core::TwoRpq;
use rq_engine::Engine;
use rq_serve::Client;
use std::collections::BTreeMap;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// What one pass observed.
#[derive(Debug, Default)]
pub struct PassStats {
    /// Wall time of the pass: first send to last answer (for the batch
    /// loop, the summed operation times, which exclude answer checking).
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Answers that differed from the reference.
    pub mismatches: u64,
    /// Latency of each successful read (or batch operation), ms.
    pub read_ms: Vec<f64>,
    /// Latency of each acknowledged ingest, ms.
    pub ingest_ms: Vec<f64>,
    /// The response's `elapsed_us` (time inside the serve worker).
    pub exec_us: Vec<f64>,
    /// Round trip minus `elapsed_us`.
    pub outside_us: Vec<f64>,
    /// Non-200 responses by status.
    pub statuses: BTreeMap<u16, u64>,
    pub transport_errors: u64,
    /// Answer dispositions (`exact`, `miss`, …).
    pub dispositions: BTreeMap<String, u64>,
    /// Time to take the engine's shared lock (`Engine::cache_stats`)
    /// between operations, µs (traced passes only).
    pub lock_wait_us: Vec<f64>,
    /// Admission-to-execution wait of the sampled `explain` reads, µs:
    /// the earliest span offset in each inlined trace (traced passes
    /// only).
    pub queue_wait_us: Vec<f64>,
    /// Per timing block of a client's stream: its read p50 and p90 (where
    /// the block supports them), ms, and its successful operations per
    /// second.
    pub block_p50_ms: Vec<f64>,
    pub block_p90_ms: Vec<f64>,
    pub block_ops_per_s: Vec<f64>,
}

impl PassStats {
    fn merge(&mut self, other: PassStats) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
        self.read_ms.extend(other.read_ms);
        self.ingest_ms.extend(other.ingest_ms);
        self.exec_us.extend(other.exec_us);
        self.outside_us.extend(other.outside_us);
        for (k, v) in other.statuses {
            *self.statuses.entry(k).or_default() += v;
        }
        self.transport_errors += other.transport_errors;
        for (k, v) in other.dispositions {
            *self.dispositions.entry(k).or_default() += v;
        }
        self.lock_wait_us.extend(other.lock_wait_us);
        self.queue_wait_us.extend(other.queue_wait_us);
        self.block_p50_ms.extend(other.block_p50_ms);
        self.block_p90_ms.extend(other.block_p90_ms);
        self.block_ops_per_s.extend(other.block_ops_per_s);
    }

    /// Where a block starts: reads and successful operations so far.
    fn mark(&self) -> (usize, u64) {
        (self.read_ms.len(), self.attempted - self.failed)
    }

    /// Close the block that started at `mark` and took `secs`.
    fn close_block(&mut self, (reads, ok): (usize, u64), secs: f64) {
        let mut block = self.read_ms[reads..].to_vec();
        crate::stats::sort(&mut block);
        self.block_p50_ms
            .extend(crate::stats::percentile(&block, 50.0));
        self.block_p90_ms
            .extend(crate::stats::percentile(&block, 90.0));
        let ok = self.attempted - self.failed - ok;
        self.block_ops_per_s
            .push(crate::stats::ratio(ok as f64, secs));
    }
}

fn escape_json(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The `/query` body for `text`: the raw text, or the JSON envelope that
/// asks for the inline span profile.
pub fn query_body(text: &str, explain: bool) -> Vec<u8> {
    if explain {
        format!(
            "{{\"query\": \"{}\", \"explain\": true}}",
            escape_json(text)
        )
        .into_bytes()
    } else {
        text.as_bytes().to_vec()
    }
}

fn elapsed_ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Time one `Engine::cache_stats` call: the engine's shared mutex and
/// nothing else.
fn lock_wait_us(engine: &Engine) -> f64 {
    let t = Instant::now();
    std::hint::black_box(engine.cache_stats());
    t.elapsed().as_secs_f64() * 1e6
}

/// In a traced pass each client alternates blocks of this many
/// operations: plain, then probed. The first read of a probed block asks
/// for the inline span profile (`{"explain": true}`), and the client
/// times the engine's lock after each probed operation.
pub const TRACE_BLOCK: usize = 32;

/// The earliest span start in a response's inlined trace: the time from
/// admission (when the request's trace begins) to the first span the
/// serve worker opened, µs.
pub fn first_span_start_us(body: &str) -> Option<f64> {
    let mut rest = &body[body.find("\"spans\":[")?..];
    let mut first: Option<f64> = None;
    while let Some(i) = rest.find("\"start_us\":") {
        rest = &rest[i + "\"start_us\":".len()..];
        let end = rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len());
        if let Ok(v) = rest[..end].parse::<f64>() {
            first = Some(first.map_or(v, |f: f64| f.min(v)));
        }
    }
    first
}

/// Run every client's stream against the server at `addr`, timing each of
/// its [`plan::blocks`]; with `traced`, in alternating plain and probed
/// [`TRACE_BLOCK`]s.
pub fn http_pass(
    addr: &str,
    plan: &Plan,
    accepted: &[Vec<Expected>],
    engine: &Engine,
    traced: bool,
    timeout: Duration,
) -> PassStats {
    let bodies: Vec<Vec<u8>> = plan.queries.iter().map(|t| query_body(t, false)).collect();
    let explain: Vec<Vec<u8>> = plan.queries.iter().map(|t| query_body(t, true)).collect();
    let barrier = Barrier::new(plan.streams.len() + 1);
    let (parts, wall_s) = std::thread::scope(|s| {
        let handles: Vec<_> = plan
            .streams
            .iter()
            .enumerate()
            .map(|(c, ops)| {
                let (bodies, explain, barrier) = (&bodies, &explain, &barrier);
                s.spawn(move || {
                    let mut client = Client::connect(addr, timeout).expect("connect to server");
                    let mut st = PassStats::default();
                    let mut explained = Vec::new();
                    barrier.wait();
                    let mut explain_next = false;
                    for range in plan::blocks(ops.len(), plan.block) {
                        let (mark, t_block) = (st.mark(), Instant::now());
                        for k in range {
                            let probed = traced && (k / TRACE_BLOCK) % 2 == 1;
                            if k % TRACE_BLOCK == 0 {
                                explain_next = probed;
                            }
                            st.attempted += 1;
                            match ops[k] {
                                Op::Read(i) => {
                                    let sampled = std::mem::take(&mut explain_next);
                                    let body = if sampled { &explain[i] } else { &bodies[i] };
                                    let t0 = Instant::now();
                                    let resp = client.request("POST", "/query", &[], body);
                                    let ms = elapsed_ms(t0);
                                    if let (true, Ok(r)) = (sampled, &resp) {
                                        explained
                                            .push(String::from_utf8_lossy(&r.body).into_owned());
                                    }
                                    read_outcome(&mut st, &mut client, resp, ms, &accepted[i]);
                                }
                                Op::Ingest { add } => {
                                    let body = plan.ingest_body(c, add);
                                    let t0 = Instant::now();
                                    let resp =
                                        client.request("POST", "/ingest", &[], body.as_bytes());
                                    let ms = elapsed_ms(t0);
                                    ingest_outcome(&mut st, &mut client, resp, ms);
                                }
                            }
                            if probed {
                                st.lock_wait_us.push(lock_wait_us(engine));
                            }
                        }
                        st.close_block(mark, t_block.elapsed().as_secs_f64());
                    }
                    st.queue_wait_us = explained
                        .iter()
                        .filter_map(|b| first_span_start_us(b))
                        .collect();
                    st
                })
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        let parts: Vec<PassStats> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        (parts, t0.elapsed().as_secs_f64())
    });
    let mut total = PassStats {
        wall_s,
        ..PassStats::default()
    };
    for p in parts {
        total.merge(p);
    }
    total
}

fn transport_error(st: &mut PassStats, client: &mut Client) {
    st.failed += 1;
    st.transport_errors += 1;
    let _ = client.reconnect();
}

fn read_outcome(
    st: &mut PassStats,
    client: &mut Client,
    resp: std::io::Result<rq_serve::http::ClientResponse>,
    ms: f64,
    accepted: &[Expected],
) {
    let resp = match resp {
        Ok(r) => r,
        Err(_) => return transport_error(st, client),
    };
    if resp.status != 200 {
        st.failed += 1;
        *st.statuses.entry(resp.status).or_default() += 1;
        return;
    }
    let body = String::from_utf8_lossy(&resp.body);
    let reply = oracle::reply(&body).filter(|_| oracle::body_matches(&body, accepted));
    let Some(reply) = reply else {
        st.failed += 1;
        st.mismatches += 1;
        return;
    };
    st.read_ms.push(ms);
    st.exec_us.push(reply.elapsed_us as f64);
    st.outside_us
        .push((ms * 1e3 - reply.elapsed_us as f64).max(0.0));
    *st.dispositions
        .entry(reply.disposition.to_string())
        .or_default() += 1;
}

fn ingest_outcome(
    st: &mut PassStats,
    client: &mut Client,
    resp: std::io::Result<rq_serve::http::ClientResponse>,
    ms: f64,
) {
    let resp = match resp {
        Ok(r) => r,
        Err(_) => return transport_error(st, client),
    };
    if resp.status != 200 {
        st.failed += 1;
        *st.statuses.entry(resp.status).or_default() += 1;
        return;
    }
    // Each ingest toggles the client's own edge, so it must change the
    // graph, and it must have been fsync'd before the answer.
    let body = String::from_utf8_lossy(&resp.body);
    if !(body.contains("\"applied\":1") && body.contains("\"persisted\":true")) {
        st.failed += 1;
        st.mismatches += 1;
        return;
    }
    st.ingest_ms.push(ms);
}

/// One batch operation's spans and miss positions, for the layer metrics.
pub struct BatchTrace {
    pub spans: Spans,
    /// Batch positions answered by a graph evaluation.
    pub misses: Vec<usize>,
}

/// `ops` times: `clear_cache` then `Engine::run_batch`, each answer
/// checked in full (by its digest) after the operation is timed. With
/// `traced`, every other operation runs under a span collector and is
/// followed by a timed engine-lock probe.
pub fn batch_pass(
    engine: &Engine,
    batch: &[TwoRpq],
    reference: &[Digest],
    ops: usize,
    traced: bool,
    mut on_trace: impl FnMut(BatchTrace),
) -> PassStats {
    let mut st = PassStats::default();
    for k in 0..ops {
        st.attempted += 1;
        let traced_op = traced && k % 2 == 1;
        let op = || {
            let t0 = Instant::now();
            engine.clear_cache();
            let report = engine.run_batch(batch);
            (report, elapsed_ms(t0))
        };
        let ((report, ms), spans) = if traced_op {
            spans::collect(op)
        } else {
            (op(), Spans::default())
        };
        st.wall_s += ms / 1e3;
        let mut wrong = 0;
        for item in &report.items {
            *st.dispositions
                .entry(item.disposition.to_string())
                .or_default() += 1;
            match &item.outcome {
                Ok(answer) if Digest::of(answer) == reference[item.index] => {}
                _ => wrong += 1,
            }
        }
        if wrong > 0 {
            st.failed += 1;
            st.mismatches += wrong;
        } else {
            st.read_ms.push(ms);
        }
        if traced_op {
            let misses = report
                .items
                .iter()
                .filter(|i| i.disposition == rq_engine::Disposition::Miss)
                .map(|i| i.index)
                .collect();
            st.lock_wait_us.push(lock_wait_us(engine));
            on_trace(BatchTrace { spans, misses });
        }
    }
    // One block: the pass is a single stream of long operations.
    let wall_s = st.wall_s;
    st.close_block((0, 0), wall_s);
    st
}
