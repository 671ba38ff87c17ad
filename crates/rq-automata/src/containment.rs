//! Exact regular-language containment.
//!
//! Implements the paper's §3.2 recipe for `L(A1) ⊆ L(A2)`:
//!
//! 1. (done by the caller) convert regexes to NFAs;
//! 2. complement `A2` via the subset construction;
//! 3. take the product with `A1`;
//! 4. search for a path from a start state to a final state.
//!
//! "A naive application of steps (3–4) would require exponential space.
//! Instead, we construct A on the fly, constructing states only as we search
//! for a path" — [`check_on_the_fly`] does exactly that (and BFS yields a
//! *shortest* counterexample word). [`check_explicit`] is the naive eager
//! variant, kept so experiment E1 can measure the gap. When the right-hand
//! side is already deterministic (a compiled minimal DFA),
//! [`check_against_dfa`] skips step 2 and searches the plain product.

use crate::alphabet::Letter;
use crate::dfa::{Dfa, LazyDeterminizer, DEAD};
use crate::governor::{expect_unlimited, Exhaustion, Governor};
use crate::nfa::Nfa;
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap, VecDeque};

/// Outcome of a containment check, with search statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContainmentRun {
    /// Whether `L(A1) ⊆ L(A2)`.
    pub contained: bool,
    /// A shortest word in `L(A1) − L(A2)` when not contained.
    pub counterexample: Option<Vec<Letter>>,
    /// Number of product states materialized by the search.
    pub states_explored: usize,
}

impl ContainmentRun {
    fn contained_run(states: usize) -> Self {
        ContainmentRun {
            contained: true,
            counterexample: None,
            states_explored: states,
        }
    }
}

/// Decide `L(a1) ⊆ L(a2)` on the fly (lazy complement-product emptiness).
///
/// Returns a shortest counterexample word when containment fails.
pub fn check_on_the_fly(a1: &Nfa, a2: &Nfa) -> ContainmentRun {
    expect_unlimited(check_on_the_fly_governed(a1, a2, &Governor::unlimited()))
}

/// [`check_on_the_fly`] under a resource [`Governor`]: each product-state
/// expansion spends one fuel, every product state and lazy subset state is
/// charged as a constructed state, and the deadline/cancellation flag is
/// polled periodically. Exhaustion reports the budget that ran out plus a
/// full counter snapshot.
pub fn check_on_the_fly_governed(
    a1: &Nfa,
    a2: &Nfa,
    gov: &Governor,
) -> Result<ContainmentRun, Exhaustion> {
    let a1 = a1.epsilon_free();
    let a2 = a2.epsilon_free();
    let mut det = LazyDeterminizer::new_governed(&a2, gov)?;

    // Product state: (NFA state of a1, Option<lazy DFA state of a2>).
    // `None` is the dead state of the determinized a2 — i.e., a2 rejects.
    type Prod = (usize, Option<usize>);
    let mut pred: HashMap<Prod, (Prod, Letter)> = HashMap::new();
    let mut queue: VecDeque<Prod> = VecDeque::new();
    let mut seen: BTreeSet<Prod> = BTreeSet::new();
    let d0 = det.initial();
    for s in a1.initial_states() {
        let p = (s, Some(d0));
        if seen.insert(p) {
            gov.construct_state()?;
            queue.push_back(p);
        }
    }
    while let Some(p @ (s, d)) = queue.pop_front() {
        gov.tick()?;
        let a2_accepts = d.map(|d| det.is_final(d)).unwrap_or(false);
        if a1.is_final(s) && !a2_accepts {
            // Reconstruct the counterexample word.
            let mut word = Vec::new();
            let mut cur = p;
            while let Some(&(prev, l)) = pred.get(&cur) {
                word.push(l);
                cur = prev;
            }
            word.reverse();
            return Ok(ContainmentRun {
                contained: false,
                counterexample: Some(word),
                states_explored: seen.len(),
            });
        }
        for &(l, t) in a1.transitions_from(s) {
            gov.tick()?;
            let nd = match d {
                Some(d) => det.try_next(d, l)?,
                None => None,
            };
            let np = (t, nd);
            if seen.insert(np) {
                gov.construct_state()?;
                pred.insert(np, (p, l));
                queue.push_back(np);
            }
        }
    }
    Ok(ContainmentRun::contained_run(seen.len()))
}

/// Decide `L(a1) ⊆ L(d2)` against a deterministic right-hand side: BFS
/// over the product of `a1` with `d2`, where a missing transition leads
/// to the dead state. There is no subset construction, so the search
/// visits at most `|a1| · (|d2| + 1)` product states and is not metered;
/// BFS order still yields a shortest counterexample word.
pub fn check_against_dfa(a1: &Nfa, d2: &Dfa) -> ContainmentRun {
    let a1 = a1.epsilon_free();
    // Product state: (NFA state of a1, state of d2 or DEAD). Each seen
    // state maps to its BFS parent and the letter that reached it.
    type Prod = (usize, usize);
    let mut pred: HashMap<Prod, Option<(Prod, Letter)>> = HashMap::new();
    let mut queue: VecDeque<Prod> = VecDeque::new();
    for s in a1.initial_states() {
        let p = (s, d2.initial());
        if pred.insert(p, None).is_none() {
            queue.push_back(p);
        }
    }
    while let Some(p @ (s, d)) = queue.pop_front() {
        if a1.is_final(s) && (d == DEAD || !d2.is_final(d)) {
            let mut word = Vec::new();
            let mut cur = p;
            while let Some(&Some((prev, l))) = pred.get(&cur) {
                word.push(l);
                cur = prev;
            }
            word.reverse();
            return ContainmentRun {
                contained: false,
                counterexample: Some(word),
                states_explored: pred.len(),
            };
        }
        for &(l, t) in a1.transitions_from(s) {
            let np = (t, if d == DEAD { DEAD } else { d2.next(d, l) });
            if let Entry::Vacant(v) = pred.entry(np) {
                v.insert(Some((p, l)));
                queue.push_back(np);
            }
        }
    }
    ContainmentRun::contained_run(pred.len())
}

/// Decide `L(a1) ⊆ L(a2)` by eager construction: determinize `a2` over
/// `letters`, complement it, product with `a1`, emptiness. Same answer as
/// [`check_on_the_fly`]; exponentially more states on adversarial inputs.
pub fn check_explicit(a1: &Nfa, a2: &Nfa, letters: &[Letter]) -> ContainmentRun {
    expect_unlimited(check_explicit_governed(
        a1,
        a2,
        letters,
        &Governor::unlimited(),
    ))
}

/// [`check_explicit`] under a resource [`Governor`]. The eager subset
/// construction is metered by [`Dfa::determinize_governed`], so the
/// exponential complementation step exhausts gracefully instead of
/// allocating without bound; the product with the completed DFA is then
/// polynomial ([`check_against_dfa`]). The states explored count the
/// product states plus the complement's states.
pub fn check_explicit_governed(
    a1: &Nfa,
    a2: &Nfa,
    letters: &[Letter],
    gov: &Governor,
) -> Result<ContainmentRun, Exhaustion> {
    let d2 = Dfa::determinize_governed(a2, letters, gov)?.complete();
    let mut run = check_against_dfa(a1, &d2);
    run.states_explored += d2.num_states();
    Ok(run)
}

/// Whether `L(a1) = L(a2)`.
pub fn equivalent(a1: &Nfa, a2: &Nfa) -> bool {
    check_on_the_fly(a1, a2).contained && check_on_the_fly(a2, a1).contained
}

/// Whether `L(a) = letters*` (universality over the given alphabet).
pub fn universal(a: &Nfa, letters: &[Letter]) -> ContainmentRun {
    expect_unlimited(universal_governed(a, letters, &Governor::unlimited()))
}

/// [`universal`] under a resource [`Governor`]. Universality is the
/// PSPACE-hard face of containment (the right-hand side is complemented in
/// full), so adversarial inputs need the budget.
pub fn universal_governed(
    a: &Nfa,
    letters: &[Letter],
    gov: &Governor,
) -> Result<ContainmentRun, Exhaustion> {
    let mut all = Nfa::with_states(1);
    all.set_initial(0);
    all.set_final(0);
    for &l in letters {
        all.add_transition(0, l, 0);
    }
    check_on_the_fly_governed(&all, a, gov)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::regex::parse;

    fn pair(s1: &str, s2: &str) -> (Nfa, Nfa, Alphabet) {
        let mut a = Alphabet::new();
        let e1 = parse(s1, &mut a).unwrap();
        let e2 = parse(s2, &mut a).unwrap();
        (Nfa::from_regex(&e1), Nfa::from_regex(&e2), a)
    }

    #[test]
    fn contained_cases() {
        for (s1, s2) in [
            ("a", "a|b"),
            ("a b", "a(b|c)"),
            ("(a b)*", "(a|b)*"),
            ("a a|b b", "(a|b)(a|b)"),
            ("a+", "a*"),
            ("∅", "a"),
            ("ε", "a*"),
        ] {
            let (n1, n2, _) = pair(s1, s2);
            let run = check_on_the_fly(&n1, &n2);
            assert!(run.contained, "{s1} ⊆ {s2} should hold");
            assert!(run.counterexample.is_none());
        }
    }

    #[test]
    fn non_contained_cases_with_shortest_witness() {
        let (n1, n2, _) = pair("a*", "a");
        let run = check_on_the_fly(&n1, &n2);
        assert!(!run.contained);
        // Shortest counterexample is ε (a* accepts ε, a does not).
        assert_eq!(run.counterexample.unwrap(), vec![]);

        let (n1, n2, a) = pair("a b|b a", "a b");
        let run = check_on_the_fly(&n1, &n2);
        let ce = run.counterexample.unwrap();
        assert_eq!(ce.len(), 2);
        assert!(n1.accepts(&ce) && !n2.accepts(&ce));
        let _ = a;
    }

    #[test]
    fn explicit_agrees_with_on_the_fly() {
        let cases = [
            ("a(b|c)*", "(a|b|c)*"),
            ("(a|b)*a b b", "(a|b)*b b"),
            ("(a b)*", "(a b)*a b|ε"),
            ("a*b", "a*"),
            ("p p- p", "p (p- p)*"),
        ];
        for (s1, s2) in cases {
            let (n1, n2, al) = pair(s1, s2);
            let letters: Vec<_> = al.sigma_pm().collect();
            let fly = check_on_the_fly(&n1, &n2);
            let exp = check_explicit(&n1, &n2, &letters);
            assert_eq!(fly.contained, exp.contained, "{s1} vs {s2}");
            if let Some(ce) = &fly.counterexample {
                assert!(n1.accepts(ce) && !n2.accepts(ce));
            }
            if let Some(ce) = &exp.counterexample {
                assert!(n1.accepts(ce) && !n2.accepts(ce));
            }
        }
    }

    #[test]
    fn dfa_product_agrees_with_on_the_fly() {
        let cases = [
            ("a(b|c)*", "(a|b|c)*"),
            ("(a|b)*a b b", "(a|b)*b b"),
            ("(a b)*", "(a b)*a b|ε"),
            ("a*b", "a*"),
            ("p p- p", "p (p q)*"),
            ("a", "∅"),
        ];
        for (s1, s2) in cases {
            let (n1, n2, al) = pair(s1, s2);
            let letters: Vec<_> = al.sigma_pm().collect();
            let d2 = Dfa::determinize(&n2, &letters).minimize();
            let fly = check_on_the_fly(&n1, &n2);
            let dfa = check_against_dfa(&n1, &d2);
            assert_eq!(fly.contained, dfa.contained, "{s1} vs {s2}");
            assert_eq!(
                fly.counterexample.as_ref().map(Vec::len),
                dfa.counterexample.as_ref().map(Vec::len),
                "{s1} vs {s2}: both counterexamples are shortest"
            );
            if let Some(ce) = &dfa.counterexample {
                assert!(n1.accepts(ce) && !n2.accepts(ce));
            }
            // A trimmed DFA (missing transitions = dead) decides the same.
            if let Some(trimmed) = d2.trim() {
                assert_eq!(check_against_dfa(&n1, &trimmed).contained, dfa.contained);
            }
        }
    }

    #[test]
    fn equivalence() {
        let (n1, n2, _) = pair("(a|b)*", "(a*b*)*");
        assert!(equivalent(&n1, &n2));
        let (n1, n2, _) = pair("(a|b)*", "(ab)*");
        assert!(!equivalent(&n1, &n2));
    }

    #[test]
    fn universality() {
        let (n, _, al) = pair("(a|b)*", "a");
        let sigma: Vec<_> = al.sigma().collect();
        assert!(universal(&n, &sigma).contained);
        let (n, _, al) = pair("(a|b)*a", "a");
        let sigma: Vec<_> = al.sigma().collect();
        let run = universal(&n, &sigma);
        assert!(!run.contained);
        assert_eq!(run.counterexample.unwrap(), vec![]);
    }

    #[test]
    fn governed_check_exhausts_with_structured_report() {
        use crate::governor::{Limits, Resource};
        let (n1, n2, _) = pair("(a|b)*", "(a*b*)*");
        let gov = Limits::unlimited().with_fuel(3).governor();
        let e = check_on_the_fly_governed(&n1, &n2, &gov).unwrap_err();
        assert_eq!(e.resource, Resource::Fuel);
        assert!(e.counters.fuel_spent > 3);
        let gov = Limits::unlimited().with_states(1).governor();
        let e = check_on_the_fly_governed(&n1, &n2, &gov).unwrap_err();
        assert_eq!(e.resource, Resource::States);
    }

    #[test]
    fn governed_check_with_headroom_matches_ungoverned() {
        use crate::governor::Limits;
        for (s1, s2) in [("a", "a|b"), ("a*", "a"), ("(a|b)*", "(a*b*)*")] {
            let (n1, n2, al) = pair(s1, s2);
            let letters: Vec<_> = al.sigma_pm().collect();
            let gov = Limits::unlimited().with_fuel(1_000_000).governor();
            let governed = check_on_the_fly_governed(&n1, &n2, &gov).unwrap();
            assert_eq!(governed, check_on_the_fly(&n1, &n2), "{s1} vs {s2}");
            let gov = Limits::unlimited().with_fuel(1_000_000).governor();
            let governed = check_explicit_governed(&n1, &n2, &letters, &gov).unwrap();
            assert_eq!(governed, check_explicit(&n1, &n2, &letters), "{s1} vs {s2}");
        }
    }

    #[test]
    fn on_the_fly_explores_fewer_states_on_easy_refutations() {
        // A large union on the right, but the counterexample is found at
        // depth 1; the lazy search must not pay for the full complement.
        let mut al = Alphabet::new();
        let e1 = parse("z", &mut al).unwrap();
        let e2 = parse("(a|b|c|d|e|f|g|h)(a|b|c|d|e|f|g|h)*", &mut al).unwrap();
        let n1 = Nfa::from_regex(&e1);
        let n2 = Nfa::from_regex(&e2);
        let letters: Vec<_> = al.sigma().collect();
        let fly = check_on_the_fly(&n1, &n2);
        let exp = check_explicit(&n1, &n2, &letters);
        assert!(!fly.contained && !exp.contained);
        assert!(fly.states_explored <= exp.states_explored);
    }
}
