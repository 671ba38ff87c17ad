//! The *fold* relation and the Lemma 3 construction.
//!
//! Containment of 2RPQs is characterized language-theoretically by folding
//! (Lemma 2): `Q1 ⊑ Q2` iff `L(Q1) ⊆ fold(L(Q2))`, where `v ⇝ u` ("v folds
//! onto u") means a two-way walk over `u` spells `v` — formally there are
//! positions `i₀ = 0, …, iₘ = |u|` with, at each step, either
//! `iⱼ₊₁ = iⱼ + 1` and `vⱼ₊₁ = u_{iⱼ₊₁}` (a forward move) or
//! `iⱼ₊₁ = iⱼ − 1` and `vⱼ₊₁ = (u_{iⱼ})⁻` (a backward move). The paper's
//! example: `a b b⁻ b c ⇝ a b c` via positions `0,1,2,1,2,3`.
//!
//! This module provides:
//! * [`folds_onto`] — the word-level relation, by dynamic programming;
//! * [`fold_membership`] — `u ∈ fold(L(A))` for an NFA `A`, by product
//!   reachability (polynomial, used for cross-validation);
//! * [`fold_twonfa`] — **Lemma 3**: a 2NFA for `fold(L(A))` with exactly
//!   `n·(|Σ±|+1)` states.

use crate::alphabet::Letter;
use crate::nfa::Nfa;
use crate::twonfa::{Move, Tape, TwoNfa};
use std::collections::BTreeSet;

/// Whether `v ⇝ u` (v folds onto u).
///
/// Dynamic programming over prefixes of `v`: after reading `v₁…vⱼ` the set
/// of possible positions on `u` is tracked; `v ⇝ u` iff position `|u|` is
/// reachable after all of `v`.
pub fn folds_onto(v: &[Letter], u: &[Letter]) -> bool {
    let n = u.len();
    let mut positions: BTreeSet<usize> = BTreeSet::from([0]);
    for &x in v {
        let mut next = BTreeSet::new();
        for &i in &positions {
            // Forward: read u_{i+1}.
            if i < n && u[i] == x {
                next.insert(i + 1);
            }
            // Backward: read (u_i)⁻.
            if i > 0 && u[i - 1].inv() == x {
                next.insert(i - 1);
            }
        }
        if next.is_empty() {
            return false;
        }
        positions = next;
    }
    positions.contains(&n)
}

/// Whether `u ∈ fold(L(A))`, i.e., some `v ∈ L(A)` folds onto `u`.
///
/// Decided directly by reachability in the product of `A` with positions of
/// `u`: configurations are `(state of A, position on u)`; `A`'s transitions
/// on letter `x` pair with forward moves reading `u_{i+1} = x` and backward
/// moves reading `(u_i)⁻ = x`. Polynomial time; the reference oracle for
/// testing the Lemma 3 construction.
pub fn fold_membership(a: &Nfa, u: &[Letter]) -> bool {
    let a = a.epsilon_free();
    let n = u.len();
    let mut seen = vec![false; a.num_states() * (n + 1)];
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for s in a.initial_states() {
        seen[s * (n + 1)] = true;
        stack.push((s, 0));
    }
    while let Some((s, i)) = stack.pop() {
        if i == n && a.is_final(s) {
            return true;
        }
        for &(x, t) in a.transitions_from(s) {
            if i < n && u[i] == x && !seen[t * (n + 1) + i + 1] {
                seen[t * (n + 1) + i + 1] = true;
                stack.push((t, i + 1));
            }
            if i > 0 && u[i - 1].inv() == x && !seen[t * (n + 1) + i - 1] {
                seen[t * (n + 1) + i - 1] = true;
                stack.push((t, i - 1));
            }
        }
        // Acceptance requires consuming all of v, so a final state matters
        // only when the position is n — handled above. (Final states with
        // remaining transitions continue exploring.)
    }
    // ε ∈ L(A) folds onto ε only.
    false
}

/// **Lemma 3.** Build a 2NFA for `fold(L(a))` with exactly
/// `n·(|sigma_pm| + 1)` states, where `n` is the state count of the ε-free
/// trim of `a` and `sigma_pm` is the letter universe Σ± supplied.
///
/// State layout: for each NFA state `s` there is a *cruise* state `(s, ⊥)`
/// (the walk over `u` is at a definite position and `A` is in state `s`)
/// and, for each letter `b ∈ Σ±`, a *verify* state `(s, b)` entered after
/// guessing that the next move of the fold is backward over an occurrence
/// of `b` (reading `b⁻` in `v`); the verify state moves left and confirms
/// the guessed letter with a 0-move.
pub fn fold_twonfa(a: &Nfa, sigma_pm: &[Letter]) -> TwoNfa {
    let a = a.epsilon_free();
    let n = a.num_states();
    let k = sigma_pm.len();
    let letter_pos = |b: Letter| -> usize {
        sigma_pm
            .iter()
            .position(|&l| l == b)
            .expect("letter universe must cover the automaton's letters")
    };
    // State numbering: cruise(s) = s; verify(s, b) = n + s*k + pos(b).
    let cruise = |s: usize| s;
    let verify = |s: usize, bi: usize| n + s * k + bi;
    let mut m = TwoNfa::with_states(n * (k + 1));

    for s in 0..n {
        // Walk from the left endmarker onto the word (and on re-visits,
        // which cannot occur, it is harmless).
        m.add_transition(cruise(s), Tape::Left, cruise(s), Move::Right);
        for &(x, t) in a.transitions_from(s) {
            // Forward fold move: A reads x; the walk advances reading
            // u_{i+1} = x.
            m.add_transition(cruise(s), Tape::Letter(x), cruise(t), Move::Right);
            // Backward fold move: A reads x = b⁻ for some b ∈ Σ±; the walk
            // retreats over u_{iⱼ} = b. Guess b now, verify after moving
            // left. This transition is available at every cell except ⊢ —
            // including the right endmarker.
            let b = x.inv();
            let bi = letter_pos(b);
            for &u_sym in sigma_pm {
                m.add_transition(cruise(s), Tape::Letter(u_sym), verify(t, bi), Move::Left);
            }
            m.add_transition(cruise(s), Tape::Right, verify(t, bi), Move::Left);
        }
    }
    // Verify states: confirm the guessed letter, then resume cruising.
    for s in 0..n {
        for (bi, &b) in sigma_pm.iter().enumerate() {
            m.add_transition(verify(s, bi), Tape::Letter(b), cruise(s), Move::Stay);
            // On ⊢ or a different letter the verify state has no
            // transition: the guess was wrong and the branch dies.
        }
    }
    for s in a.initial_states() {
        m.set_initial(cruise(s));
    }
    for s in 0..n {
        if a.is_final(s) {
            m.set_final(cruise(s));
        }
    }
    m
}

/// The exact state count promised by Lemma 3 for an ε-free `a`.
pub fn lemma3_state_bound(nfa_states: usize, sigma_pm_len: usize) -> usize {
    nfa_states * (sigma_pm_len + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::{Alphabet, LabelId};
    use crate::regex::parse;

    fn al3() -> Alphabet {
        Alphabet::from_names(["a", "b", "c"])
    }

    fn lw(s: &str, al: &Alphabet) -> Vec<Letter> {
        // Single-char labels with optional '-' suffix.
        let mut out = Vec::new();
        let mut chars = s.chars().peekable();
        while let Some(c) = chars.next() {
            if c.is_whitespace() {
                continue;
            }
            let id = al.get(&c.to_string()).expect("label");
            let inv = chars.peek() == Some(&'-');
            if inv {
                chars.next();
            }
            out.push(if inv {
                Letter::backward(id)
            } else {
                Letter::forward(id)
            });
        }
        out
    }

    #[test]
    fn paper_fold_example() {
        // abb⁻bc ⇝ abc, via 0,1,2,1,2,3.
        let al = al3();
        assert!(folds_onto(&lw("abb-bc", &al), &lw("abc", &al)));
        assert!(!folds_onto(&lw("abb-bc", &al), &lw("ab", &al)));
        assert!(!folds_onto(&lw("ac", &al), &lw("abc", &al)));
    }

    #[test]
    fn fold_is_reflexive() {
        let al = al3();
        for s in ["", "a", "abc", "ab-c"] {
            let w = lw(s, &al);
            assert!(folds_onto(&w, &w), "{s} should fold onto itself");
        }
    }

    #[test]
    fn pp_inverse_p_folds_onto_p() {
        // The paper's 2RPQ example: p p⁻ p ⇝ p.
        let _al = Alphabet::from_names(["p"]);
        let p = Letter::forward(LabelId(0));
        assert!(folds_onto(&[p, p.inv(), p], &[p]));
        // And not the other way: p does not fold onto p p⁻ p (it would end
        // at position 1, not 3).
        assert!(!folds_onto(&[p], &[p, p.inv(), p]));
    }

    #[test]
    fn epsilon_folding() {
        let al = al3();
        assert!(folds_onto(&[], &[]));
        assert!(!folds_onto(&[], &lw("a", &al)));
        // aa⁻ folds onto ε? Positions must end at |u| = 0: a forward move
        // needs a letter in u, so no.
        assert!(!folds_onto(&lw("aa-", &al), &[]));
    }

    #[test]
    fn fold_membership_matches_dp() {
        // For L = L(regex), u ∈ fold(L) iff some enumerated v ∈ L folds
        // onto u (complete up to the enumeration horizon).
        let mut al = al3();
        for (re, u, expected) in [
            ("p p- p", "p", true),
            ("a b c", "abc", true),
            ("a b b- b c", "abc", true),
            ("a b c", "ac", false),
            ("a a- a", "aaa", false),
            ("(a b-)*", "", true),
        ] {
            let e = parse(re, &mut al).unwrap();
            let n = Nfa::from_regex(&e);
            let uw = lw(u, &al);
            assert_eq!(fold_membership(&n, &uw), expected, "{re} on {u}");
            // Cross-check against enumeration + DP.
            let any_fold = n
                .enumerate_words(8, 2000)
                .iter()
                .any(|v| folds_onto(v, &uw));
            assert_eq!(
                any_fold, expected,
                "enumeration cross-check for {re} on {u}"
            );
        }
    }

    #[test]
    fn lemma3_construction_has_exact_state_count() {
        let mut al = al3();
        let e = parse("a(b|c)*b-", &mut al).unwrap();
        let n = Nfa::from_regex(&e).eliminate_epsilon();
        let sigma_pm: Vec<Letter> = al.sigma_pm().collect();
        let m = fold_twonfa(&n, &sigma_pm);
        assert_eq!(
            m.num_states(),
            lemma3_state_bound(n.num_states(), sigma_pm.len())
        );
    }

    #[test]
    fn lemma3_twonfa_agrees_with_direct_membership() {
        let mut al = Alphabet::from_names(["a", "b"]);
        let sigma_pm: Vec<Letter> = al.sigma_pm().collect();
        let regexes = ["a", "a b", "a a- a", "(a|b-)*", "a(b a)*", "b- a"];
        // All words over Σ± up to length 3.
        let mut words: Vec<Vec<Letter>> = vec![vec![]];
        let mut frontier = vec![Vec::<Letter>::new()];
        for _ in 0..3 {
            let mut next = Vec::new();
            for w in &frontier {
                for &l in &sigma_pm {
                    let mut w2 = w.clone();
                    w2.push(l);
                    next.push(w2);
                }
            }
            words.extend(next.iter().cloned());
            frontier = next;
        }
        for re in regexes {
            let e = parse(re, &mut al).unwrap();
            let n = Nfa::from_regex(&e);
            let m = fold_twonfa(&n, &sigma_pm);
            for u in &words {
                assert_eq!(
                    m.accepts(u),
                    fold_membership(&n, u),
                    "fold 2NFA vs direct membership disagree: re={re}, u={u:?}"
                );
            }
        }
    }

    #[test]
    fn fold_language_contains_original_language() {
        // v ⇝ v, so L(A) ⊆ fold(L(A)).
        let mut al = al3();
        let e = parse("a(b|c)+", &mut al).unwrap();
        let n = Nfa::from_regex(&e);
        let sigma_pm: Vec<Letter> = al.sigma_pm().collect();
        let m = fold_twonfa(&n, &sigma_pm);
        for w in n.enumerate_words(4, 100) {
            assert!(m.accepts(&w));
        }
    }
}
