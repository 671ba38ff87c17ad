//! Seeded inputs: graphs in the program's text format, query texts, and
//! per-client operation streams.
//!
//! Everything here is a pure function of the workload seed, so two runs
//! with the same seed send the same requests in the same order over the
//! same graph. The query pools are copied from the E12/E13/E14/E16/E17
//! experiment generators and frozen here, so a change to those
//! generators cannot silently change the benchmark's inputs.

use rq_automata::{Alphabet, LabelId, Letter, Regex};
use rq_core::TwoRpq;
use std::fmt::Write as _;

/// SplitMix64: a small, fixed pseudo-random generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for the stream named `tag` under `seed`, so that
    /// independent streams of one run do not share draws.
    pub fn new(seed: u64, tag: &str) -> Rng {
        // FNV-1a over the tag, folded into the seed.
        let h = tag.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        Rng(seed ^ h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// A uniform random multigraph G(n, m) per label in the graph text
/// format: `nodes` named nodes `v0..`, then `extra_nodes` isolated named
/// nodes, then `edges_per_label` random edges for each label (self-loops
/// allowed, duplicates coalesced by the parser). Nodes are declared
/// first, so node ids follow declaration order.
pub fn gnm_text(
    nodes: usize,
    edges_per_label: usize,
    labels: &[&str],
    extra_nodes: &[String],
    rng: &mut Rng,
) -> String {
    let mut text = String::new();
    for i in 0..nodes {
        let _ = writeln!(text, "node v{i}");
    }
    for name in extra_nodes {
        let _ = writeln!(text, "node {name}");
    }
    for label in labels {
        for _ in 0..edges_per_label {
            let (s, d) = (rng.below(nodes), rng.below(nodes));
            let _ = writeln!(text, "v{s} {label} v{d}");
        }
    }
    text
}

/// E14's hot set: eight length-2 chains, none broad enough to answer a
/// cold chain by subsumption.
pub const E14_HOT: [&str; 8] = ["a b", "b a", "a a", "b b", "a- b", "b a-", "a b-", "b- a"];

/// E12's serving pool: a broad Σ±* superset, narrower queries it
/// subsumes, and chains.
pub const E12_POOL: [&str; 8] = [
    "(a|b|a-|b-)*",
    "a(b|a)*",
    "(a|b)+",
    "a+",
    "a b",
    "b- a*",
    "(a b)+",
    "b+ a",
];

/// E17's simple-fragment pool: every entry is in the SCRPQ fragment.
pub const E17_SIMPLE: [&str; 12] = [
    "(a|b)*",
    "a*",
    "b*",
    "a (a|b)*",
    "a+ b*",
    "a b",
    "a a",
    "(a|b)+ a",
    "b (a|b)*",
    "a* b*",
    "b+",
    "a (a|b)+ b",
];

/// E16's reads.
pub const E16_READS: [&str; 4] = ["a+", "(a|b)+", "a b- a", "b+"];

/// The 16 texts `hot-hits` cycles: E14's hot set then E12's pool.
pub fn hot_texts() -> Vec<String> {
    E14_HOT
        .iter()
        .chain(E12_POOL.iter())
        .map(|s| s.to_string())
        .collect()
}

/// E14's cold stream: 512 distinct chain 2RPQs of length 5–8, pairwise
/// incomparable, so none answers another by subsumption.
pub fn cold_texts() -> Vec<String> {
    let ends = ["a", "b", "a-", "b-"];
    let mids = ["(a|b)", "(b|a-)"];
    let mut out = Vec::with_capacity(512);
    for k in 3..=6usize {
        for m in 0..(1usize << k).min(8) {
            for prefix in ends {
                for suffix in ends {
                    let mut q = String::from(prefix);
                    for pos in 0..k {
                        q.push(' ');
                        q.push_str(mids[(m >> pos) & 1]);
                    }
                    q.push(' ');
                    q.push_str(suffix);
                    out.push(q);
                }
            }
        }
    }
    out
}

/// The 42-query `batch-containment` batch: E17's simple batch (24
/// queries cycling the 12-entry pool), then E13's fold batch — for each
/// E12 pool query `r`, the Lemma-2 detour `r r⁻ r` and the union
/// `r | r r⁻ r` — then E13's two provably-empty queries. The fold and
/// empty queries have no surface syntax, so they are built as regexes
/// over `alphabet`, which must be the graph's alphabet.
pub fn containment_batch(alphabet: &mut Alphabet) -> Vec<TwoRpq> {
    let parse = |t: &str, al: &mut Alphabet| TwoRpq::parse(t, al).expect("pool queries parse");
    let mut batch: Vec<TwoRpq> = (0..24)
        .map(|i| parse(E17_SIMPLE[i % E17_SIMPLE.len()], alphabet))
        .collect();
    for t in E12_POOL {
        let r = parse(t, alphabet).regex().clone();
        let detour = Regex::concat([r.clone(), r.inverse(), r.clone()]);
        batch.push(TwoRpq::new(detour.clone()));
        batch.push(TwoRpq::new(Regex::Union(vec![r, detour])));
    }
    for label in ["a", "b"] {
        let l = Letter::forward(alphabet.get(label).unwrap_or(LabelId(0)));
        batch.push(TwoRpq::new(Regex::Concat(vec![
            Regex::Letter(l),
            Regex::Empty,
        ])));
    }
    batch
}

/// The texts the batch is built from (for parse timing): the simple pool
/// and the E12 pool the fold queries start from.
pub fn batch_texts() -> Vec<String> {
    E17_SIMPLE
        .iter()
        .chain(E12_POOL.iter())
        .map(|s| s.to_string())
        .collect()
}
