//! Deterministic workload generators for the `report` experiments E1–E17.

use rq_automata::random::{random_regex, RegexConfig, SplitMix64};
use rq_automata::{Alphabet, LabelId, Letter, Regex};
use rq_core::crpq::{C2Rpq, Uc2Rpq};
use rq_core::rpq::{Rpq, TwoRpq};
use rq_core::rq::{RqExpr, RqQuery};
use rq_datalog::ast::Query as DatalogQuery;
use rq_datalog::parser::parse_program;
use rq_datalog::FactDb;
use rq_graph::GraphDb;

/// The two-label alphabet used by most experiments.
pub fn ab_alphabet() -> Alphabet {
    Alphabet::from_names(["a", "b"])
}

fn letter(i: u32) -> Regex {
    Regex::Letter(Letter::forward(LabelId(i)))
}

// ---------------------------------------------------------------------
// E1: RPQ containment — contained and refuted families, by size
// ---------------------------------------------------------------------

/// A *contained* RPQ pair of size `n`: `(ab)^n ⊑ (a|b)*`.
pub fn e1_contained_pair(n: usize) -> (Rpq, Rpq) {
    let ab = letter(0).then(letter(1));
    let q1 = Regex::concat(std::iter::repeat_n(ab, n));
    let q2 = letter(0).or(letter(1)).star();
    (
        Rpq::new(q1).expect("forward"),
        Rpq::new(q2).expect("forward"),
    )
}

/// A *refuted* RPQ pair whose shortest counterexample has length `n`:
/// `a* ⊑ (ε|a)^{n-1}` — every word shorter than `n` is covered.
pub fn e1_refuted_pair(n: usize) -> (Rpq, Rpq) {
    let q1 = letter(0).star();
    let q2 = Regex::concat(std::iter::repeat_n(
        letter(0).optional(),
        n.saturating_sub(1),
    ));
    (
        Rpq::new(q1).expect("forward"),
        Rpq::new(q2).expect("forward"),
    )
}

/// The adversarial family for the explicit construction: `Q2` is the
/// classic "n-th letter from the end is `a`" language, whose complement
/// DFA needs `2^n` states. `Q1 = (a|b)*` is not contained.
pub fn e1_exponential_pair(n: usize) -> (Rpq, Rpq) {
    let sigma = letter(0).or(letter(1));
    let q1 = sigma.clone().star();
    let q2 = sigma
        .clone()
        .star()
        .then(letter(0))
        .then(Regex::concat(std::iter::repeat_n(sigma, n - 1)));
    (
        Rpq::new(q1).expect("forward"),
        Rpq::new(q2).expect("forward"),
    )
}

/// A random RPQ pair with roughly `leaves` letters each.
pub fn e1_random_pair(leaves: usize, seed: u64) -> (Rpq, Rpq) {
    let mut rng = SplitMix64::new(seed);
    let cfg = RegexConfig {
        num_labels: 2,
        inverse_prob: 0.0,
        leaves,
        repeat_prob: 0.3,
    };
    (
        Rpq::new(random_regex(&mut rng, &cfg)).expect("forward"),
        Rpq::new(random_regex(&mut rng, &cfg)).expect("forward"),
    )
}

// ---------------------------------------------------------------------
// E2/E3: fold construction and complement blow-up inputs
// ---------------------------------------------------------------------

/// A random ε-free trim NFA over Σ± with `states` states.
pub fn e2_nfa(states: usize, labels: usize, seed: u64) -> rq_automata::Nfa {
    let mut rng = SplitMix64::new(seed);
    rq_automata::random::random_nfa(&mut rng, states, labels, 0.3, 1.5)
        .eliminate_epsilon()
        .trim()
}

/// The Σ± letter list for `labels` base labels.
pub fn sigma_pm(labels: usize) -> Vec<Letter> {
    (0..labels as u32)
        .flat_map(|i| [Letter::forward(LabelId(i)), Letter::backward(LabelId(i))])
        .collect()
}

// ---------------------------------------------------------------------
// E4: 2RPQ containment — the paper's example family
// ---------------------------------------------------------------------

/// The paper's folding family: `p ⊑ (p p⁻)^k p` (contained for every k).
pub fn e4_paper_family(k: usize) -> (TwoRpq, TwoRpq, Alphabet) {
    let al = Alphabet::from_names(["p"]);
    let p = letter(0);
    let zig = p.clone().then(Regex::Letter(Letter::backward(LabelId(0))));
    let q2 = Regex::concat(std::iter::repeat_n(zig, k)).then(p.clone());
    (TwoRpq::new(p), TwoRpq::new(q2), al)
}

/// A refuted 2RPQ pair with counterexample length `n`:
/// `a^n ⊑ (a a⁻)* a` fails for `n ≥ 2`.
pub fn e4_refuted_family(n: usize) -> (TwoRpq, TwoRpq, Alphabet) {
    let al = Alphabet::from_names(["a"]);
    let q1 = Regex::concat(std::iter::repeat_n(letter(0), n));
    let zig = letter(0).then(Regex::Letter(Letter::backward(LabelId(0))));
    let q2 = zig.star().then(letter(0));
    (TwoRpq::new(q1), TwoRpq::new(q2), al)
}

/// A random 2RPQ pair.
pub fn e4_random_pair(leaves: usize, seed: u64) -> (TwoRpq, TwoRpq, Alphabet) {
    let mut rng = SplitMix64::new(seed);
    let cfg = RegexConfig {
        num_labels: 2,
        inverse_prob: 0.3,
        leaves,
        repeat_prob: 0.3,
    };
    (
        TwoRpq::new(random_regex(&mut rng, &cfg)),
        TwoRpq::new(random_regex(&mut rng, &cfg)),
        ab_alphabet(),
    )
}

// ---------------------------------------------------------------------
// E5: UC2RPQ containment families
// ---------------------------------------------------------------------

/// A contained pair with `k` chained atoms on the left:
/// `a(x,z1) ∧ … ∧ a(z_{k-1},y) ⊑ a+(x,y)`.
pub fn e5_chain_pair(k: usize) -> (Uc2Rpq, Uc2Rpq, Alphabet) {
    let mut al = Alphabet::from_names(["a"]);
    let mut atoms = Vec::new();
    for i in 0..k {
        let from = if i == 0 {
            "x".to_owned()
        } else {
            format!("z{i}")
        };
        let to = if i + 1 == k {
            "y".to_owned()
        } else {
            format!("z{}", i + 1)
        };
        atoms.push(("a", from, to));
    }
    let atom_refs: Vec<(&str, &str, &str)> = atoms
        .iter()
        .map(|(r, f, t)| (*r, f.as_str(), t.as_str()))
        .collect();
    let q1 = C2Rpq::parse(&["x", "y"], &atom_refs, &mut al).expect("valid");
    let q2 = C2Rpq::parse(&["x", "y"], &[("a+", "x", "y")], &mut al).expect("valid");
    (Uc2Rpq::single(q1), Uc2Rpq::single(q2), al)
}

/// A *branching* (non-chain) contained pair with `k` sibling atoms:
/// left requires `k` children of x; right requires one.
pub fn e5_branching_pair(k: usize) -> (Uc2Rpq, Uc2Rpq, Alphabet) {
    let mut al = Alphabet::from_names(["a"]);
    let atoms: Vec<(String, String)> = (0..k).map(|i| ("a".to_owned(), format!("c{i}"))).collect();
    let atom_refs: Vec<(&str, &str, &str)> = atoms
        .iter()
        .map(|(r, c)| (r.as_str(), "x", c.as_str()))
        .collect();
    let q1 = C2Rpq::parse(&["x"], &atom_refs, &mut al).expect("valid");
    let q2 = C2Rpq::parse(&["x"], &[("a", "x", "c")], &mut al).expect("valid");
    (Uc2Rpq::single(q1), Uc2Rpq::single(q2), al)
}

/// A refuted pair whose counterexample needs word length `n`:
/// `a*(x,y) ⊑ (ε|a|…|a^{n-1})(x,y)`.
pub fn e5_refuted_pair(n: usize) -> (Uc2Rpq, Uc2Rpq, Alphabet) {
    let mut al = Alphabet::from_names(["a"]);
    let q1 = C2Rpq::parse(&["x", "y"], &[("a*", "x", "y")], &mut al).expect("valid");
    let bounded = Regex::union((0..n).map(|i| Regex::concat(std::iter::repeat_n(letter(0), i))));
    let q2 = C2Rpq {
        head: vec!["x".into(), "y".into()],
        atoms: vec![rq_core::crpq::C2RpqAtom::new(
            TwoRpq::new(bounded),
            "x",
            "y",
        )],
    };
    (Uc2Rpq::single(q1), Uc2Rpq::single(q2), al)
}

// ---------------------------------------------------------------------
// E6: RQ containment families
// ---------------------------------------------------------------------

/// `TC((ab)-chain of length k) ⊑ (ab)+` — collapsible closures, exact path.
pub fn e6_collapsible_pair(k: usize) -> (RqQuery, RqQuery, Alphabet) {
    let al = ab_alphabet();
    let a = LabelId(0);
    let b = LabelId(1);
    // body: x -a-> m1 -b-> m2 -a-> … alternating, k edges.
    let mut expr: Option<RqExpr> = None;
    for i in 0..k {
        let from = if i == 0 {
            "x".to_owned()
        } else {
            format!("m{i}")
        };
        let to = if i + 1 == k {
            "y".to_owned()
        } else {
            format!("m{}", i + 1)
        };
        let lbl = if i % 2 == 0 { a } else { b };
        let e = RqExpr::edge(lbl, from, to);
        expr = Some(match expr {
            None => e,
            Some(prev) => prev.and(e),
        });
    }
    let mut expr = expr.expect("k >= 1");
    for i in 1..k {
        expr = expr.project(format!("m{i}"));
    }
    let q1 = RqQuery::new(vec!["x".into(), "y".into()], expr.closure("x", "y")).expect("valid");
    // Right side: ((ab)^… )+ as a single 2RPQ.
    let chain = Regex::concat((0..k).map(|i| if i % 2 == 0 { letter(0) } else { letter(1) }));
    let q2 = RqQuery::new(
        vec!["x".into(), "y".into()],
        RqExpr::rel2(TwoRpq::new(chain.plus()), "x", "y"),
    )
    .expect("valid");
    (q1, q2, al)
}

/// The paper's triangle closure vs plain reachability (inductive proof).
pub fn e6_triangle_pair() -> (RqQuery, RqQuery, Alphabet) {
    let al = Alphabet::from_names(["r"]);
    let r = LabelId(0);
    let body = RqExpr::edge(r, "x", "y")
        .and(RqExpr::edge(r, "y", "z"))
        .and(RqExpr::edge(r, "z", "x"))
        .project("z");
    let q1 = RqQuery::new(vec!["x".into(), "y".into()], body.closure("x", "y")).expect("valid");
    let q2 = RqQuery::new(
        vec!["x".into(), "y".into()],
        RqExpr::rel2(TwoRpq::new(letter(0).plus()), "x", "y"),
    )
    .expect("valid");
    (q1, q2, al)
}

/// Refuted RQ pair: `TC(triangle) ⊑ triangle` (needs unrolling depth 2).
pub fn e6_refuted_pair() -> (RqQuery, RqQuery, Alphabet) {
    let al = Alphabet::from_names(["r"]);
    let r = LabelId(0);
    let body = || {
        RqExpr::edge(r, "x", "y")
            .and(RqExpr::edge(r, "y", "z"))
            .and(RqExpr::edge(r, "z", "x"))
            .project("z")
    };
    let q1 = RqQuery::new(vec!["x".into(), "y".into()], body().closure("x", "y")).expect("valid");
    let q2 = RqQuery::new(vec!["x".into(), "y".into()], body()).expect("valid");
    (q1, q2, al)
}

// ---------------------------------------------------------------------
// E7: GRQ programs
// ---------------------------------------------------------------------

/// A GRQ reachability query over a `k`-ary flight relation (k-2 extra
/// attribute columns), exercising the Theorem 8 arity encoding.
pub fn e7_kary_reachability(k: usize) -> DatalogQuery {
    assert!(k >= 2);
    let extra: Vec<String> = (0..k - 2).map(|i| format!("C{i}")).collect();
    let cols = if extra.is_empty() {
        String::new()
    } else {
        format!(", {}", extra.join(", "))
    };
    let text = format!(
        "Hop(X, Y) :- flight(X{cols}, Y).\n\
         T(X, Y) :- Hop(X, Y).\n\
         T(X, Z) :- T(X, Y), Hop(Y, Z).",
    );
    DatalogQuery::new(parse_program(&text).expect("valid program"), "T")
}

/// The single-hop version of [`e7_kary_reachability`].
pub fn e7_kary_hop(k: usize) -> DatalogQuery {
    assert!(k >= 2);
    let extra: Vec<String> = (0..k - 2).map(|i| format!("C{i}")).collect();
    let cols = if extra.is_empty() {
        String::new()
    } else {
        format!(", {}", extra.join(", "))
    };
    let text = format!("Hop(X, Y) :- flight(X{cols}, Y).");
    DatalogQuery::new(parse_program(&text).expect("valid program"), "Hop")
}

// ---------------------------------------------------------------------
// E8/E9: Datalog workloads
// ---------------------------------------------------------------------

/// The transitive-closure query of §2.3.
pub fn tc_query() -> DatalogQuery {
    DatalogQuery::new(
        parse_program("T(X, Y) :- e(X, Y).\nT(X, Z) :- T(X, Y), e(Y, Z).").expect("valid"),
        "T",
    )
}

/// The monadic reachability query of §2.3 (targets marked by `p`).
pub fn monadic_reachability_query() -> DatalogQuery {
    DatalogQuery::new(
        parse_program("Q(X) :- e(X, Y), p(Y).\nQ(X) :- e(X, Y), Q(Y).").expect("valid"),
        "Q",
    )
}

/// A chain EDB `e(v0,v1), …` of `n` nodes; the last node is in `p`.
pub fn chain_factdb(n: usize) -> FactDb {
    let mut db = FactDb::new();
    for i in 0..n.saturating_sub(1) {
        db.add_fact("e", &[&format!("v{i}"), &format!("v{}", i + 1)]);
    }
    db.add_fact("p", &[&format!("v{}", n - 1)]);
    db
}

/// A random G(n, m) EDB over `e`, with `marked` random nodes in `p`.
pub fn random_factdb(nodes: usize, edges: usize, marked: usize, seed: u64) -> FactDb {
    let mut rng = SplitMix64::new(seed);
    let mut db = FactDb::new();
    for _ in 0..edges {
        let s = format!("v{}", rng.below(nodes));
        let d = format!("v{}", rng.below(nodes));
        db.add_fact("e", &[&s, &d]);
    }
    for _ in 0..marked {
        db.add_fact("p", &[&format!("v{}", rng.below(nodes))]);
    }
    db
}

// ---------------------------------------------------------------------
// E10: evaluation workloads
// ---------------------------------------------------------------------

/// A random graph database for evaluation scaling.
pub fn e10_graph(nodes: usize, seed: u64) -> GraphDb {
    rq_graph::generate::random_gnm(nodes, nodes * 3, &["a", "b"], seed)
}

/// A social-style preferential-attachment graph.
pub fn e10_social(nodes: usize, seed: u64) -> GraphDb {
    rq_graph::generate::preferential_attachment(nodes, 3, &["knows", "follows"], seed)
}

// ---------------------------------------------------------------------
// E12: serving workloads
// ---------------------------------------------------------------------

/// A serving batch: `count` 2RPQ strings over `{a, b}` cycling through a
/// fixed pool that mixes a broad Σ±* superset, narrower queries it
/// subsumes, and (once `count` exceeds the pool) exact duplicates — so a
/// semantic cache sees every disposition.
pub fn e12_batch(count: usize) -> Vec<String> {
    const POOL: [&str; 8] = [
        "(a|b|a-|b-)*",
        "a(b|a)*",
        "(a|b)+",
        "a+",
        "a b",
        "b- a*",
        "(a b)+",
        "b+ a",
    ];
    (0..count)
        .map(|i| POOL[i % POOL.len()].to_string())
        .collect()
}

// ---------------------------------------------------------------------
// E13: pre-flight analysis workloads
// ---------------------------------------------------------------------

/// Fold-variant pairs for the pre-flight normalization experiment: for
/// each base query `r` from the E12 pool, the Lemma-2 detour `r r⁻ r` and
/// the answer-equivalent union `r | r r⁻ r`. The union is built
/// programmatically (not parsed) because `(r)⁻` of a grouped expression
/// has no surface syntax; with pre-flight on it normalizes onto the
/// detour's canonical cache key.
pub fn e13_fold_pairs() -> Vec<(String, TwoRpq, TwoRpq)> {
    let mut al = ab_alphabet();
    e12_batch(8)
        .into_iter()
        .map(|t| {
            let r = TwoRpq::parse(&t, &mut al).unwrap().regex().clone();
            let detour = Regex::concat([r.clone(), r.inverse(), r.clone()]);
            let union = TwoRpq::new(Regex::Union(vec![r, detour.clone()]));
            (t, TwoRpq::new(detour), union)
        })
        .collect()
}

/// Provably-empty queries (raw-constructed: the parser's smart
/// constructors would erase a textual `∅` factor) that the engine
/// pre-flight short-circuits without evaluation.
pub fn e13_empty_queries() -> Vec<TwoRpq> {
    [0u32, 1]
        .into_iter()
        .map(|i| TwoRpq::new(Regex::Concat(vec![letter(i), Regex::Empty])))
        .collect()
}

// ---------------------------------------------------------------------
// E17: Lemma 1 rung ladder workloads
// ---------------------------------------------------------------------

/// A simple-heavy serving batch: `count` 2RPQ strings over `{a, b}`, every
/// one of them one-way (no inverse letter). The pool leads with the broad
/// `(a|b)*` superset so later entries are answered by subsumption, and
/// the resulting cache probes are pairs with a one-way right-hand side,
/// which the ladder's Lemma 1 rung decides without ever reaching the
/// exact 2NFA stage. `report`'s E17 gate rests on that: it refuses a pool
/// entry that reads an inverse letter.
pub fn e17_simple_batch(count: usize) -> Vec<String> {
    const POOL: [&str; 12] = [
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
    (0..count)
        .map(|i| POOL[i % POOL.len()].to_string())
        .collect()
}

// ---------------------------------------------------------------------
// E14: front-end overload workloads
// ---------------------------------------------------------------------

/// The graph the E14 closed-loop run serves: sized so a cache miss
/// pays real evaluator work (around a millisecond) rather than parse
/// overhead, while a full answer set still fits a cache entry.
pub fn e14_graph() -> GraphDb {
    rq_graph::generate::random_gnm(300, 900, &["a", "b"], 14)
}

/// The hot set: eight length-2 chain queries that recur constantly and
/// stay resident in the engine's LRU cache, so every repetition is a
/// cache hit. Deliberately free of broad `…*` superset queries (and of
/// any length-≥3 chain) so nothing here can answer the cold stream
/// below by subsumption.
fn e14_hot() -> Vec<String> {
    ["a b", "b a", "a a", "b b", "a- b", "b a-", "a b-", "b- a"]
        .into_iter()
        .map(str::to_string)
        .collect()
}

/// The cold stream: 512 distinct chain 2RPQs of length 5–8 — far more
/// canonical keys than the engine's 64-entry cache holds, so by the
/// time a text recurs (even across convoying clients) it has been
/// evicted and nearly every arrival is a genuine miss that pays a full
/// evaluation. Chains of different lengths are pairwise incomparable,
/// and the two middle alternations `(a|b)`/`(b|a-)` are incomparable
/// pointwise, so no cold entry answers another by subsumption. The
/// length band is deliberately narrow (~19–47 ms each on the E14
/// graph): tail latency under load is then queueing policy, not
/// service-time spread.
fn e14_cold() -> Vec<String> {
    let ends = ["a", "b", "a-", "b-"];
    let mids = ["(a|b)", "(b|a-)"];
    let mut queries = Vec::new();
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
                    queries.push(q);
                }
            }
        }
    }
    queries
}

/// The mixed stream each closed-loop client cycles through: hot and
/// cold interleaved 3:1, so admitted-latency percentiles reflect both
/// the cheap cache-hit population and the expensive miss population.
pub fn e14_stream() -> Vec<String> {
    let hot = e14_hot();
    let mut stream = Vec::with_capacity(e14_cold().len() * 4);
    let mut h = 0;
    for cold in e14_cold() {
        for _ in 0..3 {
            stream.push(hot[h % hot.len()].clone());
            h += 1;
        }
        stream.push(cold);
    }
    stream
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_core::containment::{rpq, two_rpq, uc2rpq, Config};

    #[test]
    fn e1_families_have_expected_verdicts() {
        let al = ab_alphabet();
        for n in [1, 3, 6] {
            let (q1, q2) = e1_contained_pair(n);
            assert!(rpq::check(&q1, &q2, &al).is_contained(), "n={n}");
            let (q1, q2) = e1_refuted_pair(n);
            let out = rpq::check(&q1, &q2, &al);
            let w = out.witness().expect("refuted family");
            assert_eq!(w.db.num_edges(), n.max(1) - 1 + 1, "shortest ce length");
        }
        let (q1, q2) = e1_exponential_pair(4);
        assert!(rpq::check(&q1, &q2, &al).is_not_contained());
    }

    #[test]
    fn e4_families_have_expected_verdicts() {
        for k in [1, 2, 3] {
            let (q1, q2, al) = e4_paper_family(k);
            assert!(two_rpq::check(&q1, &q2, &al).is_contained(), "k={k}");
        }
        let (q1, q2, al) = e4_refuted_family(3);
        assert!(two_rpq::check(&q1, &q2, &al).is_not_contained());
        let (q1, q2, al) = e4_refuted_family(1);
        assert!(two_rpq::check(&q1, &q2, &al).is_contained());
    }

    #[test]
    fn e5_families_have_expected_verdicts() {
        let cfg = Config::default();
        for k in [1, 2, 4] {
            let (q1, q2, al) = e5_chain_pair(k);
            assert!(uc2rpq::check(&q1, &q2, &al, &cfg).is_contained(), "k={k}");
            let (q1, q2, al) = e5_branching_pair(k);
            assert!(uc2rpq::check(&q1, &q2, &al, &cfg).is_contained(), "k={k}");
        }
        let (q1, q2, al) = e5_refuted_pair(3);
        assert!(uc2rpq::check(&q1, &q2, &al, &cfg).is_not_contained());
    }

    #[test]
    fn e6_families_have_expected_verdicts() {
        let cfg = Config::default();
        for k in [1, 2] {
            let (q1, q2, al) = e6_collapsible_pair(k);
            assert!(
                rq_core::containment::rq::check(&q1, &q2, &al, &cfg).is_contained(),
                "k={k}"
            );
        }
        let (q1, q2, al) = e6_triangle_pair();
        assert!(rq_core::containment::rq::check(&q1, &q2, &al, &cfg).is_contained());
        let (q1, q2, al) = e6_refuted_pair();
        assert!(rq_core::containment::rq::check(&q1, &q2, &al, &cfg).is_not_contained());
    }

    #[test]
    fn e7_programs_are_grq() {
        for k in [2, 3, 4] {
            let q = e7_kary_reachability(k);
            assert!(rq_datalog::grq::is_grq(&q.program), "k={k}");
        }
    }

    #[test]
    fn e14_streams_are_distinct_parseable_and_mixed() {
        let cold = e14_cold();
        let distinct: std::collections::BTreeSet<&String> = cold.iter().collect();
        assert_eq!(distinct.len(), cold.len(), "cold keys must not collide");
        assert_eq!(cold.len(), 512);
        let hot = e14_hot();
        // Hot and cold must stay disjoint (hot chains are shorter), or
        // "cold" requests would be served from the resident hot entries.
        assert!(hot.iter().all(|h| !distinct.contains(h)));
        let mut al = ab_alphabet();
        for q in hot.iter().chain(cold.iter()) {
            TwoRpq::parse(q, &mut al).expect("stream entry parses");
        }
        let stream = e14_stream();
        assert_eq!(stream.len(), cold.len() * 4, "3:1 hot:cold interleave");
        assert!(stream.iter().filter(|q| distinct.contains(q)).count() == cold.len());
    }
}
