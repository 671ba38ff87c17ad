//! RPQ containment (Lemma 1 + the §3.2 algorithm).
//!
//! `Q1 ⊑ Q2` iff `L(Q1) ⊆ L(Q2)` — containment of regular path queries
//! *is* containment of regular languages, decided here by the paper's
//! steps 1–4 with the product constructed on the fly (PSPACE).
//!
//! The same Lemma 1 search decides every 2RPQ pair whose right-hand side
//! is one-way ([`language_containment`]): a forward walk cannot get past
//! the backward edge of an inverse letter, so `fold(L(Q2)) = L(Q2)` and
//! Lemma 2 reduces to Lemma 1 with Σ± letters read as plain symbols.

use super::{semipath_db, Certificate, Outcome, Witness};
use crate::rpq::Rpq;
use rq_automata::containment::{check_against_dfa, check_on_the_fly_governed};
use rq_automata::governor::expect_unlimited;
use rq_automata::{Alphabet, Dfa, Exhaustion, Governor, Nfa};

/// Decide `q1 ⊑ q2`. Always returns a definite verdict; a `NotContained`
/// witness is the path database of a *shortest* counterexample word.
pub fn check(q1: &Rpq, q2: &Rpq, alphabet: &Alphabet) -> Outcome {
    expect_unlimited(check_governed(q1, q2, alphabet, &Governor::unlimited()))
}

/// [`check`] under a resource governor: every product-state expansion is
/// metered, and a tripped budget surfaces as `Err`.
pub fn check_governed(
    q1: &Rpq,
    q2: &Rpq,
    alphabet: &Alphabet,
    gov: &Governor,
) -> Result<Outcome, Exhaustion> {
    let (q1, q2) = (q1.as_two_rpq(), q2.as_two_rpq());
    language_containment(q1.nfa(), None, q2.nfa(), alphabet, gov).map(|(outcome, _)| outcome)
}

/// Lemma 1 on automata, the one path both [`check_governed`] and the
/// `check_quick` ladder's `simple` rung take: decide `L(a1) ⊆ L(Q2)`,
/// with Σ± letters read as plain symbols. The search runs over `d2`, the
/// trimmed minimal DFA of `Q2`, when the caller has one; it is not
/// metered, since its work is bounded by `|a1|·|d2|·|Σ±|`. Otherwise it
/// runs over `a2`, the NFA of `Q2`, with the subset construction metered
/// by `gov`. Returns the verdict and the number of product states
/// explored. A refutation is the semipath database of a shortest word in
/// `L(a1) − L(Q2)`, which is a counterexample to `Q1 ⊑ Q2` whenever `Q2`
/// is one-way.
pub(crate) fn language_containment(
    a1: &Nfa,
    d2: Option<&Dfa>,
    a2: &Nfa,
    alphabet: &Alphabet,
    gov: &Governor,
) -> Result<(Outcome, usize), Exhaustion> {
    let run = match d2 {
        Some(d2) => check_against_dfa(a1, d2),
        None => check_on_the_fly_governed(a1, a2, gov)?,
    };
    let states = run.states_explored;
    let outcome = match run.counterexample {
        None => Outcome::Contained(Certificate::LanguageContainment {
            states_explored: states,
        }),
        Some(word) => {
            let (db, s, t) = semipath_db(&word, alphabet);
            let description = format!(
                "semipath database of the word {} (in L(Q1) − L(Q2))",
                alphabet.word_to_string(&word)
            );
            Outcome::NotContained(Box::new(Witness {
                db,
                tuple: vec![s, t],
                description,
            }))
        }
    };
    Ok((outcome, states))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rpq(s: &str, al: &mut Alphabet) -> Rpq {
        Rpq::parse(s, al).unwrap()
    }

    #[test]
    fn containment_mirrors_language_containment() {
        let mut al = Alphabet::new();
        let cases = [
            ("a", "a|b", true),
            ("(a b)*", "(a|b)*", true),
            ("a+", "a*", true),
            ("a*", "a+", false),
            ("a b", "a b|b a", true),
            ("(a|b)*", "(a b)*", false),
        ];
        for (s1, s2, expect) in cases {
            let q1 = rpq(s1, &mut al);
            let q2 = rpq(s2, &mut al);
            let out = check(&q1, &q2, &al);
            assert_eq!(out.decided(), Some(expect), "{s1} vs {s2}");
        }
    }

    #[test]
    fn witness_is_a_real_counterexample() {
        let mut al = Alphabet::new();
        let q1 = rpq("a(a|b)*", &mut al);
        let q2 = rpq("a a*", &mut al);
        let out = check(&q1, &q2, &al);
        let w = out.witness().expect("not contained");
        // The tuple is answered by q1 but not by q2 on the witness db.
        let (x, y) = (w.tuple[0], w.tuple[1]);
        assert!(q1.contains_pair(&w.db, x, y));
        assert!(!q2.contains_pair(&w.db, x, y));
    }

    #[test]
    fn equivalence_via_two_containments() {
        let mut al = Alphabet::new();
        let q1 = rpq("(a|b)*", &mut al);
        let q2 = rpq("(a*b*)*", &mut al);
        assert!(check(&q1, &q2, &al).is_contained());
        assert!(check(&q2, &q1, &al).is_contained());
    }

    #[test]
    fn governed_check_exhausts_and_matches() {
        use rq_automata::{Limits, Resource};
        let mut al = Alphabet::new();
        let q1 = rpq("(a b)*", &mut al);
        let q2 = rpq("(a|b)*", &mut al);
        // A starvation budget trips with a structured report.
        let gov = Limits::unlimited().with_fuel(2).governor();
        let e = check_governed(&q1, &q2, &al, &gov).unwrap_err();
        assert_eq!(e.resource, Resource::Fuel);
        // Ample budget matches the ungoverned verdict.
        let gov = Limits::unlimited().with_fuel(1_000_000).governor();
        let out = check_governed(&q1, &q2, &al, &gov).unwrap();
        assert_eq!(out.decided(), check(&q1, &q2, &al).decided());
    }

    #[test]
    fn empty_query_is_contained_in_everything() {
        let mut al = Alphabet::new();
        let q1 = rpq("∅", &mut al);
        let q2 = rpq("a", &mut al);
        assert!(check(&q1, &q2, &al).is_contained());
        assert!(check(&q2, &q1, &al).is_not_contained());
    }
}
