//! Differential suite pinning the `check_quick` ladder's sample rung
//! against the exact 2NFA checker.
//!
//! Whenever `Q2` reads an inverse letter, the ladder tests `Q1`'s stored
//! shortlex words against `fold(L(Q2))` (the `ladder.sample` span) before
//! the exact fold/2NFA stage. A word outside the fold refutes `Q1 ⊑ Q2`
//! by Lemma 2; the rung never proves containment. Its verdicts rest on
//! `fold_membership`'s product reachability, not on the Shepherdson
//! tables [`two_rpq::check`] builds, so the two are compared on four
//! families of pairs whose `Q2` reads an inverse letter:
//!
//! * a random two-way `Q1` against a random two-way `Q2`;
//! * Lemma 2 detours: `r` against `r r⁻ r` and `r | r r⁻ r`, and a random
//!   `Q1` against the detour of a random `r` (contained and not);
//! * cold-eval-shaped chains against each other (incomparable);
//! * a random `Q1` against `Q1 | x⁻` and against `(a|b|c|a⁻|b⁻|c⁻)*`
//!   (always contained, so the rung must pass).
//!
//! Every definite verdict must agree with the exact checker. Every
//! refutation's witness — the sample rung's in particular — must
//! re-verify by evaluation, and a pair the rung refutes must not reach the
//! exact stage. The suite scales with `PROPTEST_CASES`; at the default 32
//! cases it draws 32 × 32 = 1024 pairs and compares the 1 022 whose `Q2`
//! reads an inverse letter. Failures reproduce from the printed trial
//! number.

use regular_queries::automata::random::{random_regex, RegexConfig, SplitMix64};
use regular_queries::automata::{Alphabet, LabelId, Letter, Limits, Regex};
use regular_queries::core::containment::facade::check_quick;
use regular_queries::core::containment::{two_rpq, Outcome};
use regular_queries::core::TwoRpq;
use regular_queries::metrics::span::{self, TraceContext};

/// Per-property sample count: `PROPTEST_CASES` or 32.
fn cases() -> u64 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32)
}

fn letter(label: usize, inverse: bool) -> Regex {
    let l = LabelId(label as u32);
    Regex::letter(if inverse {
        Letter::backward(l)
    } else {
        Letter::forward(l)
    })
}

/// A random regex over `{a, b, c}` with inverse letters at probability
/// `inverse_prob`. Kept small so the exact reference stays fast in debug
/// builds.
fn random(rng: &mut SplitMix64, inverse_prob: f64) -> Regex {
    let cfg = RegexConfig {
        num_labels: 3,
        inverse_prob,
        leaves: 1 + rng.below(4),
        repeat_prob: 0.3,
    };
    random_regex(rng, &cfg)
}

/// A random regex that reads at least one inverse letter.
fn random_two_way(rng: &mut SplitMix64) -> Regex {
    let e = random(rng, 0.4);
    if e.is_forward_only() {
        let inv = letter(rng.below(3), true);
        if rng.chance(0.5) {
            e.then(inv)
        } else {
            e.or(inv)
        }
    } else {
        e
    }
}

/// `r r⁻ r`, the Lemma 2 detour: it folds onto every word of `r`.
fn detour(r: &Regex) -> Regex {
    r.clone().then(r.inverse()).then(r.clone())
}

/// A chain of the cold-eval shape: an end letter, `k` two-letter
/// disjunctions (`(a|b)` or `(b|a⁻)`), and another end letter.
fn cold_chain(rng: &mut SplitMix64) -> Regex {
    let end = |rng: &mut SplitMix64| letter(rng.below(2), rng.chance(0.5));
    let mut parts = vec![end(rng)];
    for _ in 0..3 + rng.below(2) {
        parts.push(if rng.chance(0.5) {
            letter(0, false).or(letter(1, false))
        } else {
            letter(1, false).or(letter(0, true))
        });
    }
    parts.push(end(rng));
    Regex::concat(parts)
}

/// Σ±* over `{a, b, c}`: contains every 2RPQ over those labels.
fn everything() -> Regex {
    let letters = (0..3).flat_map(|l| [letter(l, false), letter(l, true)]);
    Regex::union(letters).star()
}

/// Tallies of one run, so the suite can require that it exercised both
/// verdicts and that the rung under test actually refuted pairs.
#[derive(Default)]
struct Tally {
    pairs: usize,
    contained: usize,
    not_contained: usize,
    refuted_by_sample: usize,
    refuted_exactly: usize,
}

impl Tally {
    /// Decide `q1 ⊑ q2` through the ladder under a trace, and check the
    /// verdict, its witness and the deciding rung against the exact
    /// checker.
    fn compare(&mut self, q1: &TwoRpq, q2: &TwoRpq, al: &Alphabet, at: &str) -> Outcome {
        assert!(
            !q2.is_forward_only(),
            "{at}: Q2 must read an inverse letter"
        );
        self.pairs += 1;
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
        let verdict = |name: &str| {
            trace
                .spans
                .iter()
                .find(|s| s.name == name)
                .and_then(|s| s.fields.iter().find(|(k, _)| *k == "verdict"))
                .map(|(_, v)| v.as_str())
        };
        let reached_exact = verdict("ladder.full_check").is_some();
        match verdict("ladder.sample") {
            Some("not_contained") => {
                assert!(quick.is_not_contained(), "{pair}");
                assert!(
                    !reached_exact,
                    "{pair}: refuted, yet reached the exact stage"
                );
                self.refuted_by_sample += 1;
            }
            Some("pass") => {
                assert!(reached_exact, "{pair}: passed, yet never escalated");
                if quick.is_not_contained() {
                    self.refuted_exactly += 1;
                }
            }
            // Decided by a cheaper rung (empty left side, syntactic or
            // canonical-key equality): those only prove containment.
            None => assert!(quick.is_contained(), "{pair}: refuted before the rung"),
            Some(other) => panic!("{pair}: sample rung recorded {other}"),
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
fn handpicked_pairs_agree_with_the_exact_checker() {
    for (l, r, contained) in [
        ("p", "p p- p", true),
        ("p", "p (p- p)*", true),
        ("a b", "a b b- b", true),
        ("a", "a a a- a- a", false),
        ("p p- p", "p | p-", false),
        ("x y y- x", "x x | y-", false),
        ("a (a|b) (b|a-) (a|b) b", "b- (a|b) (a|b) (b|a-) a-", false),
        ("ε", "a a-", false),
        ("a*", "(a a-)* a*", true),
        ("∅", "a-", true),
    ] {
        assert_eq!(decide(l, r).decided(), Some(contained), "{l} ⊑ {r}");
    }
}

#[test]
fn words_past_the_length_cap_escalate_to_the_exact_stage() {
    // `L(Q1)` has no word short enough to sample, so the rung passes and
    // the exact stage refutes.
    let mut al = Alphabet::from_names(["a"]);
    let long = vec!["a"; 13].join(" ");
    let q1 = TwoRpq::parse(&long, &mut al).unwrap();
    let q2 = TwoRpq::parse("a-", &mut al).unwrap();
    let mut tally = Tally::default();
    assert!(tally.compare(&q1, &q2, &al, &long).is_not_contained());
    assert_eq!((tally.refuted_by_sample, tally.refuted_exactly), (0, 1));
}

#[test]
fn sample_rung_agrees_with_the_exact_checker_on_generated_pairs() {
    let al = Alphabet::from_names(["a", "b", "c"]);
    let mut rng = SplitMix64::new(0x5A3B_1E00);
    let mut tally = Tally::default();
    for trial in 0..cases() {
        for pair in 0..32 {
            let at = format!("trial {trial} pair {pair}");
            let (q1, q2) = match pair % 8 {
                0..=2 => (random(&mut rng, 0.4), random_two_way(&mut rng)),
                3 => {
                    let r = random_two_way(&mut rng);
                    let q2 = if rng.chance(0.5) {
                        detour(&r)
                    } else {
                        r.clone().or(detour(&r))
                    };
                    (r, q2)
                }
                4 => {
                    let r = random_two_way(&mut rng);
                    (random(&mut rng, 0.3), detour(&r))
                }
                5 => (cold_chain(&mut rng), cold_chain(&mut rng)),
                6 => {
                    let q1 = random(&mut rng, 0.3);
                    let q2 = q1.clone().or(letter(rng.below(3), true));
                    (q1, q2)
                }
                _ => (random(&mut rng, 0.4), everything()),
            };
            let (q1, q2) = (TwoRpq::new(q1), TwoRpq::new(q2));
            if q2.is_forward_only() {
                continue; // a cold chain without an inverse letter
            }
            tally.compare(&q1, &q2, &al, &at);
        }
    }
    assert!(
        tally.pairs >= 1000 * cases() as usize / 32,
        "acceptance floor: ≥1000 generated pairs at 32 cases, got {}",
        tally.pairs
    );
    let checks = tally.contained + tally.not_contained;
    println!(
        "{} pairs: {} contained, {} not contained ({} refuted by the sample rung, {} by the \
         exact stage)",
        tally.pairs,
        tally.contained,
        tally.not_contained,
        tally.refuted_by_sample,
        tally.refuted_exactly
    );
    // Agreement is vacuous unless both verdicts occur and the rung under
    // test refutes most of the refuted pairs.
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
        tally.refuted_by_sample > tally.not_contained / 2,
        "only {} of {} refutations came from the sample rung",
        tally.refuted_by_sample,
        tally.not_contained
    );
}
