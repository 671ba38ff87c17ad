//! The correctness oracle: reference answers from sequential
//! `TwoRpq::evaluate`, and a cheap check of `/query` response bodies
//! against them.
//!
//! A response carries the answer's pair count and its first
//! [`SAMPLE_PAIRS`] pairs in sorted order; both must equal the reference.
//! An in-process answer is checked in full through its [`Digest`].

use rq_core::TwoRpq;
use rq_graph::{GraphDb, NodeId};
use std::collections::BTreeSet;

/// Pairs rq-serve inlines into a response's `sample`.
pub const SAMPLE_PAIRS: usize = 100;

/// What a correct response reports for one query on one graph state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    pub pairs: u64,
    pub sample: Vec<(u64, u64)>,
}

impl Expected {
    pub fn of(answer: &BTreeSet<(NodeId, NodeId)>) -> Expected {
        Expected {
            pairs: answer.len() as u64,
            sample: answer
                .iter()
                .take(SAMPLE_PAIRS)
                .map(|&(x, y)| (x.index() as u64, y.index() as u64))
                .collect(),
        }
    }
}

/// A full answer's pair count and a 64-bit hash of its pairs in order. The
/// reference keeps only this per answer, so the oracle's memory does not
/// count towards the peak resident memory of the program it checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub pairs: u64,
    pub hash: u64,
}

/// The SplitMix64 finaliser.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Digest {
    pub fn of(answer: &BTreeSet<(NodeId, NodeId)>) -> Digest {
        let hash = answer.iter().fold(0, |h, &(x, y)| {
            mix(h ^ mix(((x.index() as u64) << 32) | y.index() as u64))
        });
        Digest {
            pairs: answer.len() as u64,
            hash,
        }
    }
}

/// Reference expectations for `texts` on `db`: sequential, ungoverned
/// all-pairs `TwoRpq::evaluate`, spread over `threads` threads (each
/// query is still evaluated on one thread).
pub fn expectations(db: &GraphDb, texts: &[String], threads: usize) -> Vec<Expected> {
    let mut alphabet = db.alphabet().clone();
    let queries: Vec<TwoRpq> = texts
        .iter()
        .map(|t| TwoRpq::parse(t, &mut alphabet).expect("benchmark queries parse"))
        .collect();
    let threads = threads.max(1);
    let mut out: Vec<Option<Expected>> = vec![None; queries.len()];
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let queries = &queries;
                s.spawn(move || {
                    (t..queries.len())
                        .step_by(threads)
                        .map(|i| (i, Expected::of(&queries[i].evaluate(db))))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (i, e) in h.join().expect("reference thread") {
                out[i] = Some(e);
            }
        }
    });
    out.into_iter()
        .map(|e| e.expect("every query evaluated"))
        .collect()
}

/// The fields of a `/query` success body the benchmark reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply<'a> {
    pub pairs: u64,
    pub elapsed_us: u64,
    pub disposition: &'a str,
}

/// The text after the first `"key":` in `body`. Top-level fields precede
/// any inlined trace, so the first occurrence is the top-level one.
fn after_key<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    body.find(&pat).map(|i| body[i + pat.len()..].trim_start())
}

/// Parse a leading JSON number; returns it and the rest.
fn number(s: &str) -> Option<(u64, &str)> {
    let s = s.trim_start();
    let end = s
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '+' | '-')))
        .unwrap_or(s.len());
    let v: f64 = s[..end].parse().ok()?;
    (v >= 0.0 && v.fract() == 0.0).then_some((v as u64, &s[end..]))
}

fn expect_char(s: &str, c: char) -> Option<&str> {
    s.trim_start().strip_prefix(c)
}

/// Read `pairs`, `elapsed_us` and `disposition` from a success body.
pub fn reply(body: &str) -> Option<Reply<'_>> {
    let pairs = number(after_key(body, "pairs")?)?.0;
    let elapsed_us = number(after_key(body, "elapsed_us")?)?.0;
    let d = expect_char(after_key(body, "disposition")?, '"')?;
    let disposition = &d[..d.find('"')?];
    Some(Reply {
        pairs,
        elapsed_us,
        disposition,
    })
}

/// Whether the body's `sample` array equals `expected`.
fn sample_matches(body: &str, expected: &[(u64, u64)]) -> bool {
    let Some(mut s) = after_key(body, "sample").and_then(|s| expect_char(s, '[')) else {
        return false;
    };
    let mut want = expected.iter();
    loop {
        if expect_char(s, ']').is_some() {
            return want.next().is_none();
        }
        let pair = (|| {
            let t = expect_char(s, '[')?;
            let (x, t) = number(t)?;
            let t = expect_char(t, ',')?;
            let (y, t) = number(t)?;
            let t = expect_char(t, ']')?;
            Some(((x, y), t))
        })();
        let Some((got, rest)) = pair else {
            return false;
        };
        if want.next() != Some(&got) {
            return false;
        }
        s = expect_char(rest, ',').unwrap_or(rest);
    }
}

/// Whether a `/query` success body matches any of `accepted` (one entry
/// per graph state the workload can be in).
pub fn body_matches(body: &str, accepted: &[Expected]) -> bool {
    let Some(r) = reply(body) else {
        return false;
    };
    accepted
        .iter()
        .any(|e| e.pairs == r.pairs && sample_matches(body, &e.sample))
}
