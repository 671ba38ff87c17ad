//! Differential suite pinning the `check_quick` ladder's Lemma 1 rung
//! against the exact 2NFA checker.
//!
//! Whenever `Q2` is one-way, the ladder decides `Q1 ⊑ Q2` as plain word
//! containment `L(Q1) ⊆ L(Q2)` over `Q2`'s minimal DFA (the `ladder.simple`
//! span), never reaching the fold/2NFA stage. That rests on one argument —
//! a forward walk cannot get past the backward edge of an inverse letter,
//! so `fold(L(Q2)) = L(Q2)` — not on machinery shared with
//! [`two_rpq::check`], so the two are compared on three input families:
//!
//! * simple-fragment (SCRPQ) pairs, in both directions: concatenations of
//!   letters and letter disjunctions, optionally starred or plus'd;
//! * random one-way pairs outside that fragment, in both directions:
//!   repeated words such as `(a b)+`, unions and optionals;
//! * a random two-way `Q1` against a random one-way `Q2`.
//!
//! Every definite verdict must agree with the exact checker, every
//! refutation's witness must re-verify by evaluation, and no pair may
//! open a `ladder.full_check` span. The suite scales with
//! `PROPTEST_CASES`; at the default 32 cases it compares 32 × 32 = 1024
//! pairs. Failures reproduce from the printed trial number.

use regular_queries::automata::random::{random_regex, RegexConfig, SplitMix64};
use regular_queries::automata::{Alphabet, LabelId, Letter, Limits, Regex};
use regular_queries::core::containment::facade::check_quick;
use regular_queries::core::containment::{rpq, two_rpq, Outcome};
use regular_queries::core::{Rpq, TwoRpq};
use regular_queries::metrics::span::{self, TraceContext};

/// Per-property sample count: `PROPTEST_CASES` or 32.
fn cases() -> u64 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32)
}

fn forward(label: usize) -> Regex {
    Regex::letter(Letter::forward(LabelId(label as u32)))
}

/// A random regex built from simple-fragment atoms only: each atom is a
/// letter or a 2-letter disjunction, optionally starred or plus'd.
/// Zero atoms yields ε. Kept tiny (≤4 atoms, ≤3 labels) so the exact
/// 2NFA reference stays fast in debug builds while still exercising the
/// interesting overlaps (`a a* ⊑ a* a`, nullable suffixes, shared
/// letters between D and St atoms).
fn random_simple_regex(rng: &mut SplitMix64) -> Regex {
    let n_atoms = rng.below(5);
    let mut parts = Vec::new();
    for _ in 0..n_atoms {
        let first = rng.below(3);
        let base = if rng.chance(0.4) {
            let second = (first + 1 + rng.below(2)) % 3;
            forward(first).or(forward(second))
        } else {
            forward(first)
        };
        parts.push(match rng.below(3) {
            0 => base,
            1 => base.star(),
            _ => base.plus(),
        });
    }
    Regex::concat(parts)
}

/// A random one-way regex outside the simple fragment's shape: a repeated
/// two-letter word (`(a b)+`, `(a b)*`), a union of two random
/// expressions, or a random expression made optional. One in sixteen is
/// the empty language, which has no minimal DFA.
fn random_one_way_regex(rng: &mut SplitMix64) -> Regex {
    let random = |rng: &mut SplitMix64| {
        let cfg = RegexConfig {
            num_labels: 3,
            inverse_prob: 0.0,
            leaves: 1 + rng.below(4),
            repeat_prob: 0.35,
        };
        random_regex(rng, &cfg)
    };
    match rng.below(16) {
        0 => Regex::union([]),
        1..=5 => {
            let word = forward(rng.below(3)).then(forward(rng.below(3)));
            if rng.chance(0.5) {
                word.plus()
            } else {
                word.star()
            }
        }
        6..=10 => random(rng).or(random(rng)),
        11..=12 => random(rng).optional(),
        _ => random(rng),
    }
}

/// A random two-way regex: inverse letters are likely but not certain.
fn random_two_way_regex(rng: &mut SplitMix64) -> Regex {
    let cfg = RegexConfig {
        num_labels: 3,
        inverse_prob: 0.4,
        leaves: 1 + rng.below(5),
        repeat_prob: 0.35,
    };
    random_regex(rng, &cfg)
}

/// Tallies of one run, so the suite can require that it exercised both
/// verdicts and actually reached the Lemma 1 rung.
#[derive(Default)]
struct Tally {
    pairs: usize,
    contained: usize,
    not_contained: usize,
    at_lemma1: usize,
}

impl Tally {
    /// Decide `q1 ⊑ q2` through the ladder under a trace, and check the
    /// verdict, its witness and the deciding rung against the exact
    /// checker.
    fn compare(&mut self, q1: &TwoRpq, q2: &TwoRpq, al: &Alphabet, at: &str) -> Outcome {
        assert!(q2.is_forward_only(), "{at}: Q2 must be one-way");
        let ctx = TraceContext::start();
        let quick = {
            let _g = span::install(&ctx, 0);
            check_quick(q1, q2, al, &Limits::unlimited())
        };
        let trace = ctx.finish("ok", "");
        let exact = two_rpq::check(q1, q2, al);
        let show = |q: &TwoRpq| format!("{}", q.regex().display(al));
        let pair = format!("{at}: {} ⊑ {}", show(q1), show(q2));
        assert_eq!(
            quick.decided(),
            exact.decided(),
            "{pair}: ladder says {quick}, exact says {exact}"
        );
        match quick.decided() {
            Some(true) => self.contained += 1,
            Some(false) => self.not_contained += 1,
            None => panic!("{pair}: unbudgeted ladder returned {quick}"),
        }
        // Every refutation carries a witness the *queries* (not just the
        // word languages) re-verify by evaluation.
        if let Some(w) = quick.witness() {
            let (x, y) = (w.tuple[0], w.tuple[1]);
            assert!(q1.contains_pair(&w.db, x, y), "{pair}: witness not in Q1");
            assert!(!q2.contains_pair(&w.db, x, y), "{pair}: witness in Q2");
        }
        assert!(
            !trace.spans.iter().any(|s| s.name == "ladder.full_check"),
            "{pair}: a one-way Q2 never reaches the exact stage"
        );
        // The pair is decided at the Lemma 1 rung unless a cheaper rung
        // (empty left side, syntactic or canonical-key equality) proved it.
        if let Some(s) = trace.spans.iter().find(|s| s.name == "ladder.simple") {
            let verdict = s.fields.iter().find(|(k, _)| *k == "verdict");
            let expect = if quick.is_contained() {
                "contained"
            } else {
                "not_contained"
            };
            assert_eq!(verdict.map(|(_, v)| v.as_str()), Some(expect), "{pair}");
            self.at_lemma1 += 1;
        } else {
            assert!(
                quick.is_contained(),
                "{pair}: refuted before the Lemma 1 rung"
            );
        }
        // `containment::rpq` shares the rung's search, over the NFA.
        if let (Ok(r1), Ok(r2)) = (Rpq::new(q1.regex().clone()), Rpq::new(q2.regex().clone())) {
            let lemma1 = rpq::check(&r1, &r2, al);
            assert_eq!(lemma1.decided(), exact.decided(), "{pair}: rpq::check");
        }
        quick
    }
}

/// `l ⊑ r` over `{a, b, c}`, decided and checked by [`Tally::compare`].
fn decide(l: &str, r: &str) -> Outcome {
    let mut al = Alphabet::from_names(["a", "b", "c"]);
    let q1 = TwoRpq::parse(l, &mut al).unwrap();
    let q2 = TwoRpq::parse(r, &mut al).unwrap();
    Tally::default().compare(&q1, &q2, &al, &format!("{l} ⊑ {r}"))
}

#[test]
fn textbook_inclusions_hold() {
    for (l, r) in [
        ("a", "a*"),
        ("a a", "a*"),
        ("a a*", "a* a"), // the classic NFA-overlap case
        ("a* a", "a a*"),
        ("(a|b)", "(a|b)*"),
        ("a (a|b)* b", "(a|b)*"),
        ("a+ b", "a a* b"),
        ("ε", "a*"),
        ("(a b)+", "a (b a)* b"),
    ] {
        assert!(decide(l, r).is_contained(), "{l} ⊑ {r}");
    }
}

#[test]
fn textbook_non_inclusions_fail_with_witnesses() {
    // `Tally::compare` re-verifies each witness by evaluation.
    for (l, r) in [
        ("a*", "a"),
        ("a", "b"),
        ("(a|b)*", "a*"),
        ("a b", "a a"),
        ("a*", "a* b"),
        ("ε", "a"),
        ("a b- a", "(a|b)*"),
        ("(a b)+", "a b | a b a b"),
    ] {
        assert!(decide(l, r).is_not_contained(), "{l} ⊑ {r}");
    }
}

#[test]
fn empty_word_counterexample_uses_a_single_node() {
    let out = decide("a*", "a a*");
    let w = out.witness().expect("ε separates a* from a⁺");
    assert_eq!(w.tuple[0], w.tuple[1]);
    assert_eq!(w.db.num_nodes(), 1);
}

#[test]
fn agrees_with_the_exact_checker_on_handpicked_pairs() {
    for (l, r) in [
        ("a (a|b)*", "(a|b)*"),
        ("(a|b)* a", "(a|b)+"),
        ("a* b a*", "(a|b)*"),
        ("(a|b)+", "(a|b)* b"),
        ("a b* c", "a (b|c)*"),
        ("a+ b+", "a* b*"),
        ("(a b | c)*", "(a|b|c)*"),
        ("a- a", "a? | b"),
        ("∅", "a"),
        ("a", "∅"),
    ] {
        decide(l, r);
    }
    // Every probe the ingest-while-serving reads (E16) can make into a
    // one-way query.
    let reads = ["a+", "(a|b)+", "a b- a", "b+"];
    for l in reads {
        for r in reads.into_iter().filter(|r| !r.contains('-')) {
            decide(l, r);
        }
    }
}

#[test]
fn lemma1_rung_agrees_with_the_exact_checker_on_generated_pairs() {
    let al = Alphabet::from_names(["a", "b", "c"]);
    let mut rng = SplitMix64::new(0x1E33_A100);
    let mut tally = Tally::default();
    for trial in 0..cases() {
        for pair in 0..32 {
            let at = format!("trial {trial} pair {pair}");
            tally.pairs += 1;
            match pair % 3 {
                // Both directions of a one-way pair.
                0 | 1 => {
                    let generate = if pair % 3 == 0 {
                        random_simple_regex
                    } else {
                        random_one_way_regex
                    };
                    let q1 = TwoRpq::new(generate(&mut rng));
                    let q2 = TwoRpq::new(generate(&mut rng));
                    tally.compare(&q1, &q2, &al, &format!("{at} ⊑"));
                    tally.compare(&q2, &q1, &al, &format!("{at} ⊒"));
                }
                _ => {
                    let q1 = TwoRpq::new(random_two_way_regex(&mut rng));
                    let q2 = TwoRpq::new(random_one_way_regex(&mut rng));
                    tally.compare(&q1, &q2, &al, &at);
                }
            }
        }
    }
    assert!(
        tally.pairs >= 1000,
        "acceptance floor: ≥1000 generated pairs, got {}",
        tally.pairs
    );
    // Agreement is vacuous unless both verdicts occur and most pairs
    // actually reach the rung under test.
    let checks = tally.contained + tally.not_contained;
    println!(
        "{} pairs, {checks} checks: {} contained, {} not contained, {} at the Lemma 1 rung",
        tally.pairs, tally.contained, tally.not_contained, tally.at_lemma1
    );
    assert!(
        tally.contained > checks / 10,
        "only {} contained",
        tally.contained
    );
    assert!(
        tally.not_contained > checks / 10,
        "only {} not contained",
        tally.not_contained
    );
    assert!(
        tally.at_lemma1 > checks / 2,
        "only {} of {checks} checks reached the Lemma 1 rung",
        tally.at_lemma1
    );
}

#[test]
fn inverse_letters_in_q2_still_reach_the_exact_stage() {
    // The converse of the routing claim: a `Q2` that reads an inverse
    // letter passes the Lemma 1 rung, and the exact stage decides it.
    let mut al = Alphabet::new();
    let p = TwoRpq::parse("p", &mut al).unwrap();
    let zigzag = TwoRpq::parse("p p- p", &mut al).unwrap();
    let ctx = TraceContext::start();
    let out = {
        let _g = span::install(&ctx, 0);
        check_quick(&p, &zigzag, &al, &Limits::unlimited())
    };
    assert!(out.is_contained(), "{out}");
    let trace = ctx.finish("ok", "");
    let verdict = |name: &str| {
        trace
            .spans
            .iter()
            .find(|s| s.name == name)
            .and_then(|s| s.fields.iter().find(|(k, _)| *k == "verdict"))
            .map(|(_, v)| v.clone())
    };
    assert_eq!(verdict("ladder.simple").as_deref(), Some("pass"));
    assert_eq!(verdict("ladder.full_check").as_deref(), Some("contained"));
}
