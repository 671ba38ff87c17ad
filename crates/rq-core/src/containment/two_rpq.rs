//! 2RPQ containment (Lemmas 2–4, Theorem 5).
//!
//! `Q1 ⊑ Q2` iff `L(Q1) ⊆ fold(L(Q2))` (Lemma 2). The pipeline:
//!
//! 1. compile both queries to NFAs (linear);
//! 2. build the Lemma 3 2NFA for `fold(L(Q2))` with `n·(|Σ±|+1)` states;
//! 3. decide `L(Q1) ⊆ L(fold-2NFA)` on the fly against the lazily
//!    determinized two-way automaton (Shepherdson tables — the
//!    production stand-in for the Lemma 4 complementation, cross-validated
//!    against it in `rq-automata`);
//! 4. a BFS counterexample word `w` yields the canonical semipath database
//!    on which `(n0, n|w|) ∈ Q1 − Q2` — exactly the Lemma 2 construction.
//!
//! PSPACE-complete; always returns a definite verdict.

use super::{semipath_db, Certificate, Outcome, Witness};
use crate::rpq::TwoRpq;
use rq_automata::fold::fold_twonfa;
use rq_automata::governor::expect_unlimited;
use rq_automata::shepherdson::nfa_in_twonfa_governed;
use rq_automata::{Alphabet, Exhaustion, Governor, Letter};
use std::collections::BTreeSet;

/// Decide `q1 ⊑ q2`.
pub fn check(q1: &TwoRpq, q2: &TwoRpq, alphabet: &Alphabet) -> Outcome {
    expect_unlimited(check_governed(q1, q2, alphabet, &Governor::unlimited()))
}

/// [`check`] under a resource governor: Shepherdson table constructions
/// and product-state expansions are metered, and a tripped budget surfaces
/// as `Err`.
pub fn check_governed(
    q1: &TwoRpq,
    q2: &TwoRpq,
    alphabet: &Alphabet,
    gov: &Governor,
) -> Result<Outcome, Exhaustion> {
    // Σ± universe: all labels either query mentions, both polarities.
    // (The fold walk may guess any letter occurring in a candidate
    // counterexample word, and those words come from L(Q1).)
    let labels: BTreeSet<_> = q1
        .regex()
        .letters()
        .into_iter()
        .chain(q2.regex().letters())
        .map(|l| l.label)
        .collect();
    let sigma_pm: Vec<Letter> = labels
        .iter()
        .copied()
        .flat_map(|l| [Letter::forward(l), Letter::backward(l)])
        .collect();
    let fold2 = fold_twonfa(q2.nfa(), &sigma_pm);
    let run = nfa_in_twonfa_governed(q1.nfa(), &fold2, gov)?;
    if run.contained {
        return Ok(Outcome::Contained(Certificate::FoldContainment {
            states_explored: run.states_explored,
        }));
    }
    let Some(word) = run.counterexample else {
        return Ok(Outcome::unknown_with(
            "non-containment reported without a counterexample word",
            gov,
        ));
    };
    Ok(outside_fold(&word, alphabet))
}

/// The refutation a word `w ∈ L(Q1) − fold(L(Q2))` yields (Lemma 2): on
/// `w`'s semipath database `Q1` holds between its endpoints and `Q2`
/// does not.
pub(super) fn outside_fold(word: &[Letter], alphabet: &Alphabet) -> Outcome {
    let (db, s, t) = semipath_db(word, alphabet);
    let description = format!(
        "semipath database of the word {} (in L(Q1) − fold(L(Q2)))",
        alphabet.word_to_string(word)
    );
    Outcome::NotContained(Box::new(Witness {
        db,
        tuple: vec![s, t],
        description,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(s: &str, al: &mut Alphabet) -> TwoRpq {
        TwoRpq::parse(s, al).unwrap()
    }

    #[test]
    fn paper_example_p_in_ppinvp() {
        // The paper's example: p ⊑ p p⁻ p even though L(p) ⊄ L(p p⁻ p).
        let mut al = Alphabet::new();
        let q1 = q("p", &mut al);
        let q2 = q("p p- p", &mut al);
        assert!(check(&q1, &q2, &al).is_contained());
        // The converse fails: a semipath x→a, b→a, b→y matches p p⁻ p
        // without any direct p-edge from x to y (p p⁻ p does not fold
        // onto p when the zigzag visits distinct nodes).
        let out = check(&q2, &q1, &al);
        let w = out.witness().expect("p p⁻ p ⋢ p");
        assert!(q2.contains_pair(&w.db, w.tuple[0], w.tuple[1]));
        assert!(!q1.contains_pair(&w.db, w.tuple[0], w.tuple[1]));
    }

    #[test]
    fn plain_language_containment_still_works() {
        let mut al = Alphabet::new();
        let q1 = q("a b", &mut al);
        let q2 = q("a (b|c)", &mut al);
        assert!(check(&q1, &q2, &al).is_contained());
        assert!(check(&q2, &q1, &al).is_not_contained());
    }

    #[test]
    fn witnesses_are_real_counterexamples() {
        let mut al = Alphabet::new();
        let cases = [
            ("a a", "a"),
            ("a b-", "a b"),
            ("(a|b)(a|b)", "a a|b b"),
            ("a-", "a"),
        ];
        for (s1, s2) in cases {
            let q1 = q(s1, &mut al);
            let q2 = q(s2, &mut al);
            let out = check(&q1, &q2, &al);
            let w = out
                .witness()
                .unwrap_or_else(|| panic!("{s1} ⊑ {s2} should fail"));
            let (x, y) = (w.tuple[0], w.tuple[1]);
            assert!(q1.contains_pair(&w.db, x, y), "{s1} on witness");
            assert!(!q2.contains_pair(&w.db, x, y), "{s2} on witness");
        }
    }

    #[test]
    fn fold_aware_containments() {
        let mut al = Alphabet::new();
        // a ⊑ a a⁻ a and a ⊑ (a a⁻)* a.
        let q1 = q("a", &mut al);
        for s2 in ["a a- a", "(a a-)* a", "a (a- a)*"] {
            let q2 = q(s2, &mut al);
            assert!(check(&q1, &q2, &al).is_contained(), "a ⊑ {s2}");
        }
        // But a ⊄ a a a⁻ a⁻ a (needs a 2-path to fold over).
        let q2 = q("a a a- a- a", &mut al);
        let out = check(&q1, &q2, &al);
        assert!(out.is_not_contained());
    }

    #[test]
    fn inverse_rewritings_are_equivalent() {
        let mut al = Alphabet::new();
        // (a b)⁻ written directly vs as b⁻ a⁻.
        let q1 = q("b- a-", &mut al);
        let q2 = q("b- a-", &mut al);
        assert!(check(&q1, &q2, &al).is_contained());
        // x y y⁻ x vs x x: incomparable. The zigzag's y-edges may hang off
        // *different* nodes, so x y y⁻ x ⋢ x x; and x x has no y-edge at
        // all, so x x ⋢ x y y⁻ x.
        let q1 = q("x y y- x", &mut al);
        let q2 = q("x x", &mut al);
        for (a, b) in [(&q1, &q2), (&q2, &q1)] {
            let out = check(a, b, &al);
            let w = out.witness().expect("incomparable pair");
            assert!(a.contains_pair(&w.db, w.tuple[0], w.tuple[1]));
            assert!(!b.contains_pair(&w.db, w.tuple[0], w.tuple[1]));
        }
        // With the zigzag forced through the same midpoint the containment
        // does hold: x (y y⁻)? x ⊒ x x.
        let q3 = q("x (y y-)? x", &mut al);
        assert!(check(&q2, &q3, &al).is_contained());
    }

    #[test]
    fn governed_check_exhausts_and_matches() {
        use rq_automata::{Limits, Resource};
        let mut al = Alphabet::new();
        let q1 = q("p", &mut al);
        let q2 = q("p p- p", &mut al);
        // Shepherdson table builds alone outrun a two-step fuel budget.
        let gov = Limits::unlimited().with_fuel(2).governor();
        let e = check_governed(&q1, &q2, &al, &gov).unwrap_err();
        assert_eq!(e.resource, Resource::Fuel);
        assert!(e.counters.fuel_spent > 2);
        // Ample budget matches the ungoverned verdict, both directions.
        let gov = Limits::unlimited().with_fuel(1_000_000).governor();
        assert!(check_governed(&q1, &q2, &al, &gov).unwrap().is_contained());
        assert!(check_governed(&q2, &q1, &al, &gov)
            .unwrap()
            .is_not_contained());
    }

    #[test]
    fn epsilon_cases() {
        let mut al = Alphabet::new();
        let eps = q("ε", &mut al);
        let astar = q("a*", &mut al);
        let aplus = q("a+", &mut al);
        assert!(check(&eps, &astar, &al).is_contained());
        assert!(check(&eps, &aplus, &al).is_not_contained());
        // a a⁻ ⊑ ε fails: a a⁻ relates any two nodes sharing an a-target
        // (not just (x,x)!), while ε relates only (x,x). The witness is
        // the semipath database of a a⁻: a(n0,n1), a(n2,n1) with the
        // distinct pair (n0, n2).
        let aainv = q("a a-", &mut al);
        let out = check(&aainv, &eps, &al);
        let w = out.witness().expect("a a⁻ ⋢ ε");
        assert_ne!(w.tuple[0], w.tuple[1]);
        assert!(aainv.contains_pair(&w.db, w.tuple[0], w.tuple[1]));
        assert!(!eps.contains_pair(&w.db, w.tuple[0], w.tuple[1]));
        // But a a⁻ ⊑ ε | a a⁻ holds trivially.
        let union = q("ε|a a-", &mut al);
        assert!(check(&aainv, &union, &al).is_contained());
    }
}
