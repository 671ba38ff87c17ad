//! A cheap-first containment facade for the serving path.
//!
//! The exact 2RPQ checker ([`super::two_rpq`]) is PSPACE machinery
//! (Lemmas 2–4 / Theorem 5); an engine probing its cache for subsuming
//! queries cannot afford to open with it. [`check_quick`] runs a ladder of
//! successively more expensive tests, each sound on its own:
//!
//! 1. empty left-hand language (`∅ ⊑ Q` always — [`Certificate::EmptyLeft`]);
//! 2. syntactic equality of the two regexes;
//! 3. cache-key equality: equal canonical keys mean the same minimal DFA,
//!    so the same word language, and equal `re:` fallback keys mean the
//!    same regex — containment both ways, which is exactly what the cache
//!    serves its exact hits on;
//! 4. Lemma 1, whenever `Q2` is one-way (span and stage `simple`): a
//!    forward walk cannot get past the backward edge of an inverse
//!    letter, so `fold(L(Q2)) = L(Q2)` and `Q1 ⊑ Q2` iff
//!    `L(Q1) ⊆ L(Q2)`, decided by [`super::rpq`]'s search over `Q2`'s
//!    stored minimal DFA (unmetered), or over `Q2`'s NFA (metered) when
//!    its key budget ran out — exact in both directions;
//! 5. sampled words, when `Q2` reads an inverse letter (span and stage
//!    `sample`): by Lemma 2 one word `u ∈ L(Q1)` outside `fold(L(Q2))`
//!    refutes `Q1 ⊑ Q2`, and `u`'s semipath database is the witness. The
//!    rung tests `Q1`'s stored shortlex words
//!    ([`CompiledQuery::sample_words`]) against `Q2`'s compiled automaton
//!    with the polynomial [`fold_membership`] (unmetered: the stored
//!    artefacts bound its work). It only refutes; when every word folds,
//!    the ladder escalates;
//! 6. the exact fold-based checker, metered, for the pairs the sample
//!    rung could not refute.
//!
//! The ladder runs on [`CompiledQuery`] pairs and never compiles: the
//! keys, minimal DFAs and sample words it reads were built once per
//! query, not once per check. Every rung runs under the caller's [`Limits`]; a
//! budget tripped anywhere surfaces as [`Outcome::Unknown`], which cache
//! callers treat as "no subsumption found" — the cache degrades to
//! exact-match instead of stalling the request.

use super::{rpq, two_rpq, Certificate, Outcome};
use crate::canonical::CompiledQuery;
use crate::rpq::TwoRpq;
use rq_automata::fold::fold_membership;
use rq_automata::governor::{Governor, Limits};
use rq_automata::Alphabet;
use rq_metrics::span;

/// Decide `q1 ⊑ q2` cheaply first, escalating to the exact 2RPQ checker
/// only when the fast rungs are inconclusive. Both queries are compiled
/// and checked under one governor spawned from `limits`.
pub fn check_quick(q1: &TwoRpq, q2: &TwoRpq, alphabet: &Alphabet, limits: &Limits) -> Outcome {
    let gov = Governor::new(limits.clone());
    let c1 = CompiledQuery::new(q1, alphabet, &gov);
    let c2 = CompiledQuery::new(q2, alphabet, &gov);
    check_quick_governed(&c1, &c2, alphabet, &gov)
}

/// [`check_quick`] on compiled queries against a caller-owned governor,
/// so callers (the semantic cache) can read back how much budget the
/// probe actually spent from [`Governor::counters`]. The rungs read the
/// compiled artefacts and build none (the sample words are enumerated
/// once per query, on its first use as `Q1`); only a search over an NFA
/// (the Lemma 1 rung for a `Q2` without a stored DFA, and the exact
/// stage) is metered by `gov`. Each rung records which stage of
/// the ladder decided the check in the `rq_containment_ladder_total`
/// metric, and opens a trace span (`ladder.*`, see ALGORITHMS.md)
/// annotated with the rung's verdict — `contained` / `not_contained` /
/// `unknown` when it decided, `pass` when it was inconclusive and the
/// ladder escalated.
pub fn check_quick_governed(
    c1: &CompiledQuery,
    c2: &CompiledQuery,
    alphabet: &Alphabet,
    gov: &Governor,
) -> Outcome {
    {
        let mut s = span::start("ladder.empty_left");
        if c1.query().regex().is_empty_language() {
            s.record("verdict", "contained");
            metrics::ladder_stage(metrics::Stage::EmptyLeft);
            return Outcome::Contained(Certificate::EmptyLeft);
        }
        s.record("verdict", "pass");
    }
    {
        let mut s = span::start("ladder.syntactic_eq");
        if c1.query().regex() == c2.query().regex() {
            s.record("verdict", "contained");
            metrics::ladder_stage(metrics::Stage::SyntacticEq);
            return Outcome::Contained(Certificate::LanguageContainment { states_explored: 0 });
        }
        s.record("verdict", "pass");
    }
    {
        let mut s = span::start("ladder.canonical_key");
        if c1.cache_key() == c2.cache_key() {
            s.record("verdict", "contained");
            metrics::ladder_stage(metrics::Stage::CanonicalKey);
            return Outcome::Contained(Certificate::LanguageContainment { states_explored: 0 });
        }
        s.record("verdict", "pass");
    }
    {
        // The Lemma 1 rung (span and stage `simple`): for a one-way `Q2`,
        // `fold(L(Q2)) = L(Q2)`, so `Q1 ⊑ Q2` iff `L(Q1) ⊆ L(Q2)`. Over
        // `Q2`'s stored DFA the product is unmetered, bounded by
        // `|Q1|·|D2|·|Σ±|`; a `Q2` without one (its key budget ran out,
        // or its language is empty) is searched over its NFA under `gov`.
        let mut s = span::start("ladder.simple");
        if c2.query().is_forward_only() {
            let (a1, a2) = (c1.query().nfa(), c2.query().nfa());
            match rpq::language_containment(a1, c2.dfa.as_ref(), a2, alphabet, gov) {
                Ok((outcome, states)) => {
                    s.record("states", states);
                    s.record("verdict", verdict(&outcome));
                    metrics::ladder_stage(metrics::Stage::Simple);
                    metrics::simple_result(outcome.is_contained());
                    return outcome;
                }
                Err(e) => {
                    s.record("verdict", "unknown");
                    metrics::ladder_stage(metrics::Stage::Exhausted);
                    return Outcome::exhausted(e);
                }
            }
        }
        s.record("verdict", "pass");
    }
    {
        // The sample rung: `Q2` reads an inverse letter. A stored word of
        // `Q1` that no word of `L(Q2)` folds onto refutes containment. The
        // fold depends only on the language, so `Q2`'s compiled automaton
        // — its minimal DFA when it has one — serves as well as its NFA.
        let mut s = span::start("ladder.sample");
        let a2 = c2.automaton();
        let words = c1.sample_words();
        if let Some(i) = words.iter().position(|u| !fold_membership(a2, u)) {
            s.record("words", i + 1);
            s.record("verdict", "not_contained");
            metrics::ladder_stage(metrics::Stage::Sample);
            return two_rpq::outside_fold(&words[i], alphabet);
        }
        s.record("words", words.len());
        s.record("verdict", "pass");
    }
    let mut s = span::start("ladder.full_check");
    let fuel_before = gov.fuel_spent();
    let result = two_rpq::check_governed(c1.query(), c2.query(), alphabet, gov);
    if s.active() {
        s.record("fuel", gov.fuel_spent() - fuel_before);
    }
    match result {
        Ok(outcome) => {
            s.record("verdict", verdict(&outcome));
            metrics::ladder_stage(metrics::Stage::FullCheck);
            outcome
        }
        Err(e) => {
            s.record("verdict", "unknown");
            metrics::ladder_stage(metrics::Stage::Exhausted);
            Outcome::exhausted(e)
        }
    }
}

/// The `verdict` a deciding rung records on its span.
fn verdict(outcome: &Outcome) -> &'static str {
    match outcome {
        Outcome::Contained(_) => "contained",
        Outcome::NotContained(_) => "not_contained",
        Outcome::Unknown(_) => "unknown",
    }
}

/// Which rung of the cheap-first ladder settled each `check_quick` call:
/// the language-level fast paths (`empty_left`, `syntactic_eq`,
/// `canonical_key`), the Lemma 1 rung for one-way right-hand sides
/// (`simple`), a refuting sample word (`sample`), the full fold/2NFA
/// pipeline (`full_check`), or a tripped budget (`exhausted`).
mod metrics {
    use rq_metrics::{global, Counter};
    use std::sync::{Arc, OnceLock};

    #[derive(Clone, Copy)]
    pub(super) enum Stage {
        EmptyLeft = 0,
        SyntacticEq = 1,
        CanonicalKey = 2,
        Simple = 3,
        Sample = 4,
        FullCheck = 5,
        Exhausted = 6,
    }

    pub(super) fn ladder_stage(stage: Stage) {
        static CELLS: OnceLock<[Arc<Counter>; 7]> = OnceLock::new();
        let cells = CELLS.get_or_init(|| {
            [
                "empty_left",
                "syntactic_eq",
                "canonical_key",
                "simple",
                "sample",
                "full_check",
                "exhausted",
            ]
            .map(|s| {
                global().counter_with(
                    "rq_containment_ladder_total",
                    &[("stage", s)],
                    "check_quick ladder outcomes, by deciding stage",
                )
            })
        });
        cells[stage as usize].inc();
    }

    /// Verdicts produced by the Lemma 1 rung.
    pub(super) fn simple_result(contained: bool) {
        static CELLS: OnceLock<[Arc<Counter>; 2]> = OnceLock::new();
        let cells = CELLS.get_or_init(|| {
            ["contained", "not_contained"].map(|s| {
                global().counter_with(
                    "rq_containment_simple_total",
                    &[("result", s)],
                    "Lemma 1 rung verdicts on one-way right-hand sides, by result",
                )
            })
        });
        cells[if contained { 0 } else { 1 }].inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_automata::Regex;

    #[test]
    fn empty_left_short_circuits() {
        let mut al = Alphabet::new();
        let empty = TwoRpq::new(Regex::Empty);
        let q = TwoRpq::parse("a*", &mut al).unwrap();
        let out = check_quick(&empty, &q, &al, &Limits::unlimited());
        assert!(matches!(out, Outcome::Contained(Certificate::EmptyLeft)));
    }

    #[test]
    fn syntactic_and_canonical_equality_are_free() {
        let mut al = Alphabet::new();
        let a = TwoRpq::parse("a b | a c", &mut al).unwrap();
        let b = TwoRpq::parse("a(b|c)", &mut al).unwrap();
        // Different syntax, same minimal DFA — rung 3 decides it even under
        // a budget far too small for the exact checker.
        let out = check_quick(&a, &b, &al, &Limits::unlimited().with_fuel(200));
        assert!(out.is_contained(), "{out}");
    }

    #[test]
    fn escalates_to_the_exact_checker() {
        let mut al = Alphabet::new();
        let p = TwoRpq::parse("p", &mut al).unwrap();
        let zigzag = TwoRpq::parse("p p- p", &mut al).unwrap();
        // Fold containment: only the exact checker can prove this.
        assert!(check_quick(&p, &zigzag, &al, &Limits::unlimited()).is_contained());
        assert!(check_quick(&zigzag, &p, &al, &Limits::unlimited()).is_not_contained());
    }

    #[test]
    fn ladder_stages_open_annotated_spans() {
        let ctx = span::TraceContext::start();
        let mut al = Alphabet::new();
        let a = TwoRpq::parse("a b | a c", &mut al).unwrap();
        let b = TwoRpq::parse("a(b|c)", &mut al).unwrap();
        {
            let _g = span::install(&ctx, 0);
            assert!(check_quick(&a, &b, &al, &Limits::unlimited()).is_contained());
        }
        let t = ctx.finish("ok", "");
        let verdict = |name: &str| {
            t.spans
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("missing span {name}"))
                .fields
                .iter()
                .find(|(k, _)| *k == "verdict")
                .map(|(_, v)| v.clone())
        };
        assert_eq!(verdict("ladder.empty_left").as_deref(), Some("pass"));
        assert_eq!(verdict("ladder.syntactic_eq").as_deref(), Some("pass"));
        assert_eq!(
            verdict("ladder.canonical_key").as_deref(),
            Some("contained")
        );
        assert!(
            !t.spans.iter().any(|s| s.name == "ladder.full_check"),
            "decided at rung 3 — the exact checker never ran"
        );
    }

    #[test]
    fn simple_pairs_decide_before_the_exact_checker() {
        let ctx = span::TraceContext::start();
        let mut al = Alphabet::new();
        let q = TwoRpq::parse("a a", &mut al).unwrap();
        let star = TwoRpq::parse("a*", &mut al).unwrap();
        {
            let _g = span::install(&ctx, 0);
            // Containment needs more than key equality, but `Q2` is
            // one-way — rung 4 decides without the 2NFA pipeline.
            assert!(check_quick(&q, &star, &al, &Limits::unlimited()).is_contained());
        }
        let t = ctx.finish("ok", "");
        let simple = t
            .spans
            .iter()
            .find(|s| s.name == "ladder.simple")
            .expect("simple rung opened a span");
        let field = |k: &str| {
            simple
                .fields
                .iter()
                .find(|(key, _)| *key == k)
                .map(|(_, v)| v.clone())
        };
        assert_eq!(field("verdict").as_deref(), Some("contained"));
        assert!(field("states").is_some(), "rung records its state count");
        assert!(
            !t.spans.iter().any(|s| s.name == "ladder.full_check"),
            "decided at the Lemma 1 rung — the exact checker never ran"
        );
    }

    #[test]
    fn non_simple_pairs_fall_through_with_a_reason() {
        let ctx = span::TraceContext::start();
        let mut al = Alphabet::new();
        let p = TwoRpq::parse("p", &mut al).unwrap();
        let zigzag = TwoRpq::parse("p p- p", &mut al).unwrap();
        {
            let _g = span::install(&ctx, 0);
            assert!(check_quick(&p, &zigzag, &al, &Limits::unlimited()).is_contained());
        }
        let t = ctx.finish("ok", "");
        assert!(
            t.spans.iter().any(|s| s.name == "ladder.simple"),
            "simple rung opened a span"
        );
        assert!(
            t.spans.iter().any(|s| s.name == "ladder.full_check"),
            "the inverse letter forces the exact checker"
        );
    }

    #[test]
    fn one_way_right_sides_decide_at_the_lemma1_rung() {
        // Neither side need be simple, and `Q1` may be two-way: a one-way
        // `Q2` is enough for Lemma 1.
        let mut al = Alphabet::new();
        let cases = [
            ("(a b)+", "a (b a)* b", true),
            ("a b | (a b)+", "(a|c)(b|c) (a b)*", true),
            ("a b- a", "(a|b)*", false),
            ("(a b)+", "a b | a b a b", false),
        ];
        for (s1, s2, expect) in cases {
            let q1 = TwoRpq::parse(s1, &mut al).unwrap();
            let q2 = TwoRpq::parse(s2, &mut al).unwrap();
            let ctx = span::TraceContext::start();
            let out = {
                let _g = span::install(&ctx, 0);
                check_quick(&q1, &q2, &al, &Limits::unlimited())
            };
            assert_eq!(out.decided(), Some(expect), "{s1} ⊑ {s2}: {out}");
            let t = ctx.finish("ok", "");
            assert!(
                !t.spans.iter().any(|s| s.name == "ladder.full_check"),
                "{s1} ⊑ {s2}: decided before the exact checker"
            );
            if let Some(w) = out.witness() {
                assert!(q1.contains_pair(&w.db, w.tuple[0], w.tuple[1]));
                assert!(!q2.contains_pair(&w.db, w.tuple[0], w.tuple[1]));
            }
        }
    }

    #[test]
    fn lemma1_rung_spends_no_probe_fuel_over_compiled_dfas() {
        let mut al = Alphabet::new();
        let q1 = TwoRpq::parse("(a b)+ | a b- a", &mut al).unwrap();
        let q2 = TwoRpq::parse("(a|b)+ b | a (b|a)*", &mut al).unwrap();
        let compile = |q: &TwoRpq| CompiledQuery::new(q, &al, &Governor::unlimited());
        let (c1, c2) = (compile(&q1), compile(&q2));
        let gov = Limits::unlimited().with_fuel(1).governor();
        let out = check_quick_governed(&c1, &c2, &al, &gov);
        assert!(out.is_not_contained(), "{out}");
        assert_eq!(gov.fuel_spent(), 0);
        // Without a stored key the rung searches `Q2`'s NFA under the
        // probe budget instead, and still decides.
        let starved = Limits::unlimited().with_fuel(1).governor();
        let c2_keyless = CompiledQuery::new(&q2, &al, &starved);
        assert!(c2_keyless.cache_key().starts_with("re:"));
        let gov = Governor::unlimited();
        let out = check_quick_governed(&c1, &c2_keyless, &al, &gov);
        assert!(out.is_not_contained(), "{out}");
        assert!(gov.fuel_spent() > 0, "the NFA search is metered");
    }

    #[test]
    fn simple_rung_refutes_with_a_checkable_witness() {
        let mut al = Alphabet::new();
        let star = TwoRpq::parse("a*", &mut al).unwrap();
        let q = TwoRpq::parse("a a", &mut al).unwrap();
        let out = check_quick(&star, &q, &al, &Limits::unlimited());
        let w = out.witness().expect("a* ⋢ a a");
        assert!(star.contains_pair(&w.db, w.tuple[0], w.tuple[1]));
        assert!(!q.contains_pair(&w.db, w.tuple[0], w.tuple[1]));
    }

    /// The spans `check_quick(q1, q2)` opens, and its outcome.
    fn traced(q1: &TwoRpq, q2: &TwoRpq, al: &Alphabet) -> (Outcome, Vec<span::SpanRecord>) {
        let ctx = span::TraceContext::start();
        let out = {
            let _g = span::install(&ctx, 0);
            check_quick(q1, q2, al, &Limits::unlimited())
        };
        (out, ctx.finish("ok", "").spans)
    }

    fn field(spans: &[span::SpanRecord], name: &str, key: &str) -> Option<String> {
        spans
            .iter()
            .find(|s| s.name == name)?
            .fields
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.clone())
    }

    #[test]
    fn sample_rung_refutes_cold_chains_before_the_exact_stage() {
        // Two chains of the cold-eval shape: distinct, incomparable, and
        // the right-hand one reads inverse letters.
        let mut al = Alphabet::new();
        let q1 = TwoRpq::parse("a (a|b) (b|a-) (a|b) b", &mut al).unwrap();
        let q2 = TwoRpq::parse("b- (a|b) (a|b) (b|a-) a-", &mut al).unwrap();
        let (out, spans) = traced(&q1, &q2, &al);
        assert!(out.is_not_contained(), "{out}");
        assert_eq!(
            field(&spans, "ladder.sample", "verdict").as_deref(),
            Some("not_contained")
        );
        assert_eq!(
            field(&spans, "ladder.sample", "words").as_deref(),
            Some("1")
        );
        assert!(
            !spans.iter().any(|s| s.name == "ladder.full_check"),
            "refuted by a sampled word — the exact checker never ran"
        );
        let w = out.witness().expect("a refutation carries a witness");
        assert!(w.description.contains("fold(L(Q2))"), "{}", w.description);
        assert!(q1.contains_pair(&w.db, w.tuple[0], w.tuple[1]));
        assert!(!q2.contains_pair(&w.db, w.tuple[0], w.tuple[1]));
    }

    #[test]
    fn sample_rung_passes_contained_pairs_to_the_exact_stage() {
        let mut al = Alphabet::new();
        let p = TwoRpq::parse("p", &mut al).unwrap();
        let zigzag = TwoRpq::parse("p p- p", &mut al).unwrap();
        let (out, spans) = traced(&p, &zigzag, &al);
        assert!(out.is_contained(), "{out}");
        // `p`, the one word of `L(p)`, folds from `p p⁻ p`.
        assert_eq!(
            field(&spans, "ladder.sample", "verdict").as_deref(),
            Some("pass")
        );
        assert_eq!(
            field(&spans, "ladder.sample", "words").as_deref(),
            Some("1")
        );
        assert_eq!(
            field(&spans, "ladder.full_check", "verdict").as_deref(),
            Some("contained")
        );
    }

    #[test]
    fn sample_rung_spends_no_probe_fuel() {
        let mut al = Alphabet::new();
        let q1 = TwoRpq::parse("a b (a|b)*", &mut al).unwrap();
        let q2 = TwoRpq::parse("a a- a b", &mut al).unwrap();
        let compile = |q: &TwoRpq| CompiledQuery::new(q, &al, &Governor::unlimited());
        let (c1, c2) = (compile(&q1), compile(&q2));
        // `a b` folds from `a a⁻ a b`, but `a b a` does not.
        assert!(fold_membership(c2.automaton(), &c1.sample_words()[0]));
        let gov = Limits::unlimited().with_fuel(1).governor();
        let out = check_quick_governed(&c1, &c2, &al, &gov);
        assert!(out.is_not_contained(), "{out}");
        assert_eq!(gov.fuel_spent(), 0);
    }

    #[test]
    fn one_way_right_sides_never_open_the_sample_rung() {
        let mut al = Alphabet::new();
        for (s1, s2) in [("a b- a", "(a|b)*"), ("a b", "a (b|c)"), ("a a", "a")] {
            let q1 = TwoRpq::parse(s1, &mut al).unwrap();
            let q2 = TwoRpq::parse(s2, &mut al).unwrap();
            let (_, spans) = traced(&q1, &q2, &al);
            assert!(
                !spans.iter().any(|s| s.name == "ladder.sample"),
                "{s1} ⊑ {s2}: one-way Q2 is decided by the Lemma 1 rung"
            );
        }
    }

    #[test]
    fn tight_budget_degrades_to_unknown() {
        let mut al = Alphabet::new();
        let p = TwoRpq::parse("p", &mut al).unwrap();
        let zigzag = TwoRpq::parse("p p- p", &mut al).unwrap();
        let out = check_quick(&p, &zigzag, &al, &Limits::unlimited().with_fuel(2));
        assert!(out.is_unknown(), "{out}");
    }
}
