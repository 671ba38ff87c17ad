//! UC2RPQ containment (Theorem 6 territory — EXPSPACE-complete).
//!
//! The checker combines, as the paper prescribes, "automata-theoretic
//! techniques … with the homomorphism-based techniques developed in
//! [18, 50]":
//!
//! * **exact fast path** — when every disjunct on both sides collapses to
//!   a single 2RPQ chain, the problem *is* 2RPQ containment (Theorem 5),
//!   decided exactly;
//! * **proof** — a per-disjunct homomorphism: map the right conjunct's
//!   variables into the left conjunct's, and discharge each mapped atom
//!   `λ(u, v)` by finding a walk through the left conjunct's atoms whose
//!   concatenated language is fold-contained in `L(λ)` (each such test is
//!   an exact 2RPQ containment). Sound; incomplete in general;
//! * **refutation** — enumerate canonical expansions of each left
//!   disjunct (shortlex words per atom, budgeted) and evaluate the right
//!   query on them; a missing head tuple is a *sound* counterexample by
//!   the canonical-database property. Complete given the theoretical
//!   (doubly exponential) word-length bound; budgeted here;
//! * otherwise **Unknown**, with the budget that ran out.

use super::{Certificate, Config, Outcome, Witness};
use crate::crpq::{C2Rpq, Uc2Rpq};
use crate::expansion::{enumerate_word_choices, expand};
use crate::rpq::TwoRpq;
use rq_automata::governor::expect_unlimited;
use rq_automata::{Alphabet, Exhaustion, Governor, Regex};
use rq_graph::{GraphDb, NodeId};
use std::collections::BTreeSet;

/// Decide `q1 ⊑ q2` under the budgets in `cfg` (including
/// [`Config::limits`]: a tripped resource budget yields
/// [`Outcome::Unknown`] with an exhaustion report).
pub fn check(q1: &Uc2Rpq, q2: &Uc2Rpq, alphabet: &Alphabet, cfg: &Config) -> Outcome {
    let gov = cfg.limits.governor();
    match check_governed(q1, q2, alphabet, cfg, &gov) {
        Ok(out) => out,
        Err(e) => Outcome::exhausted(e),
    }
}

/// [`check`] against a caller-owned governor (shared across phases or
/// checks); a tripped budget surfaces as `Err`.
pub fn check_governed(
    q1: &Uc2Rpq,
    q2: &Uc2Rpq,
    alphabet: &Alphabet,
    cfg: &Config,
    gov: &Governor,
) -> Result<Outcome, Exhaustion> {
    // Coarse boundary: one wall-clock poll per check entry.
    gov.check_wall()?;
    if q1.arity() != q2.arity() {
        return Ok(Outcome::unknown(format!(
            "head arities differ ({} vs {}); the queries are incomparable",
            q1.arity(),
            q2.arity()
        )));
    }
    // Syntactic identity (reflexivity).
    if q1 == q2 {
        return Ok(Outcome::Contained(Certificate::Homomorphism {
            description: "syntactically identical queries".into(),
        }));
    }
    // Exact path: both sides collapse to single 2RPQs.
    if !cfg.disable_chain_collapse {
        if let (Some(t1), Some(t2)) = (q1.collapse_chains(), q2.collapse_chains()) {
            return super::two_rpq::check_governed(&t1, &t2, alphabet, gov);
        }
    }
    // Sound proof.
    if !cfg.disable_hom_prover && prove_governed(q1, q2, alphabet, cfg, gov)? {
        return Ok(Outcome::Contained(Certificate::Homomorphism {
            description: "per-disjunct atom-walk homomorphism".into(),
        }));
    }
    // Sound refutation by expansion search.
    for phi in &q1.disjuncts {
        if let Some(w) = refute_conjunct_governed(phi, alphabet, cfg, gov, |db| q2.evaluate(db))? {
            return Ok(Outcome::NotContained(Box::new(w)));
        }
    }
    Ok(Outcome::unknown_with(
        format!(
            "no homomorphism proof (walks ≤ {}) and no counterexample among expansions \
             (words ≤ {}, {} per atom, {} expansions per disjunct)",
            cfg.max_hom_path_len, cfg.max_word_len, cfg.words_per_atom, cfg.max_expansions
        ),
        gov,
    ))
}

/// Sound proof attempt: `true` implies `q1 ⊑ q2`.
pub fn prove(q1: &Uc2Rpq, q2: &Uc2Rpq, alphabet: &Alphabet, cfg: &Config) -> bool {
    expect_unlimited(prove_governed(
        q1,
        q2,
        alphabet,
        cfg,
        &Governor::unlimited(),
    ))
}

/// [`prove`] under a resource governor.
pub fn prove_governed(
    q1: &Uc2Rpq,
    q2: &Uc2Rpq,
    alphabet: &Alphabet,
    cfg: &Config,
    gov: &Governor,
) -> Result<bool, Exhaustion> {
    for phi in &q1.disjuncts {
        if !prove_disjunct(phi, q2, alphabet, cfg, gov)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Sound refutation attempt over all left disjuncts: a returned witness
/// refutes `q1 ⊑ eval-query`.
pub fn refute<F>(q1: &Uc2Rpq, alphabet: &Alphabet, cfg: &Config, eval2: F) -> Option<Witness>
where
    F: Fn(&GraphDb) -> BTreeSet<Vec<NodeId>>,
{
    expect_unlimited(refute_governed(
        q1,
        alphabet,
        cfg,
        &Governor::unlimited(),
        eval2,
    ))
}

/// [`refute`] under a resource governor: each enumerated expansion is
/// metered as one word.
pub fn refute_governed<F>(
    q1: &Uc2Rpq,
    alphabet: &Alphabet,
    cfg: &Config,
    gov: &Governor,
    eval2: F,
) -> Result<Option<Witness>, Exhaustion>
where
    F: Fn(&GraphDb) -> BTreeSet<Vec<NodeId>>,
{
    for phi in &q1.disjuncts {
        if let Some(w) = refute_conjunct_governed(phi, alphabet, cfg, gov, &eval2)? {
            return Ok(Some(w));
        }
    }
    Ok(None)
}

/// Whether a single left disjunct is provably contained in the union.
fn prove_disjunct(
    phi: &C2Rpq,
    q2: &Uc2Rpq,
    alphabet: &Alphabet,
    cfg: &Config,
    gov: &Governor,
) -> Result<bool, Exhaustion> {
    // An empty-language atom makes the disjunct unsatisfiable.
    if phi.atoms.iter().any(|a| a.rel.nfa().is_empty()) {
        return Ok(true);
    }
    // Exact pair decision when both conjuncts collapse.
    let phi_collapsed = if cfg.disable_chain_collapse {
        None
    } else {
        phi.collapse_chain()
    };
    for psi in &q2.disjuncts {
        if let (Some(t1), Some(t2)) = (&phi_collapsed, psi.collapse_chain()) {
            if super::two_rpq::check_governed(t1, &t2, alphabet, gov)?.is_contained() {
                return Ok(true);
            }
        }
        if hom_into(phi, psi, alphabet, cfg, gov)? {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Search for a homomorphism from `psi`'s variables into `phi`'s, mapping
/// heads positionally, such that every `psi` atom is discharged by a walk
/// in `phi` (see module docs). Sound for `phi ⊑ psi`.
fn hom_into(
    phi: &C2Rpq,
    psi: &C2Rpq,
    alphabet: &Alphabet,
    cfg: &Config,
    gov: &Governor,
) -> Result<bool, Exhaustion> {
    let phi_vars: Vec<&str> = phi.variables();
    // Seed the mapping with head correspondence.
    let mut map: Vec<(String, String)> = Vec::new();
    for (pv, fv) in psi.head.iter().zip(&phi.head) {
        match map.iter().find(|(k, _)| k == pv) {
            Some((_, prev)) if prev != fv => return Ok(false),
            Some(_) => {}
            None => map.push((pv.clone(), fv.clone())),
        }
    }
    let psi_vars: Vec<&str> = psi
        .variables()
        .into_iter()
        .filter(|v| !map.iter().any(|(k, _)| k == v))
        .collect();
    assign(
        phi, psi, &phi_vars, &psi_vars, 0, &mut map, alphabet, cfg, gov,
    )
}

#[allow(clippy::too_many_arguments)]
fn assign(
    phi: &C2Rpq,
    psi: &C2Rpq,
    phi_vars: &[&str],
    psi_vars: &[&str],
    next: usize,
    map: &mut Vec<(String, String)>,
    alphabet: &Alphabet,
    cfg: &Config,
    gov: &Governor,
) -> Result<bool, Exhaustion> {
    gov.tick()?;
    // Check all atoms whose endpoints are both mapped.
    let lookup = |v: &str, map: &Vec<(String, String)>| -> Option<String> {
        map.iter().find(|(k, _)| k == v).map(|(_, t)| t.clone())
    };
    for atom in &psi.atoms {
        if let (Some(u), Some(v)) = (lookup(&atom.from, map), lookup(&atom.to, map)) {
            if !atom_discharged(phi, &u, &v, &atom.rel, alphabet, cfg, gov)? {
                return Ok(false);
            }
        }
    }
    let Some(var) = psi_vars.get(next) else {
        return Ok(true);
    };
    for target in phi_vars {
        map.push(((*var).to_owned(), (*target).to_owned()));
        if assign(
            phi,
            psi,
            phi_vars,
            psi_vars,
            next + 1,
            map,
            alphabet,
            cfg,
            gov,
        )? {
            return Ok(true);
        }
        map.pop();
    }
    Ok(false)
}

/// Whether some walk `u → v` through `phi`'s atoms has its concatenated
/// language fold-contained in `L(lambda)`.
#[allow(clippy::too_many_arguments)]
fn atom_discharged(
    phi: &C2Rpq,
    u: &str,
    v: &str,
    lambda: &TwoRpq,
    alphabet: &Alphabet,
    cfg: &Config,
    gov: &Governor,
) -> Result<bool, Exhaustion> {
    for walk_re in walks(phi, u, v, cfg.max_hom_path_len) {
        let walk_q = TwoRpq::new(walk_re);
        if super::two_rpq::check_governed(&walk_q, lambda, alphabet, gov)?.is_contained() {
            return Ok(true);
        }
    }
    Ok(false)
}

/// All walk languages from `u` to `v` through `phi`'s atoms, up to
/// `max_len` atom traversals (each atom may be reused; both directions).
fn walks(phi: &C2Rpq, u: &str, v: &str, max_len: usize) -> Vec<Regex> {
    let mut out = Vec::new();
    if u == v {
        out.push(Regex::Epsilon);
    }
    // BFS over (current var, regex-so-far) up to max_len steps.
    let mut frontier: Vec<(String, Vec<Regex>)> = vec![(u.to_owned(), Vec::new())];
    for _ in 0..max_len {
        let mut next = Vec::new();
        for (cur, parts) in &frontier {
            for a in &phi.atoms {
                let steps: &[(&String, &String, bool)] =
                    &[(&a.from, &a.to, true), (&a.to, &a.from, false)];
                for &(from, to, fwd) in steps {
                    if from != cur {
                        continue;
                    }
                    let mut p = parts.clone();
                    p.push(if fwd {
                        a.rel.regex().clone()
                    } else {
                        a.rel.regex().inverse()
                    });
                    if to == v {
                        out.push(Regex::concat(p.clone()));
                    }
                    next.push((to.clone(), p));
                }
            }
        }
        frontier = next;
        if out.len() > 256 {
            break; // plenty of candidates; keep the prover bounded
        }
    }
    out
}

/// Expansion-search refutation of `phi ⊑ eval2-query`: returns a witness
/// database on which `phi` answers the head tuple but `eval2` does not.
/// Each enumerated expansion is metered by `gov` as one word (plus one
/// fuel).
pub fn refute_conjunct_governed<F>(
    phi: &C2Rpq,
    alphabet: &Alphabet,
    cfg: &Config,
    gov: &Governor,
    eval2: F,
) -> Result<Option<Witness>, Exhaustion>
where
    F: Fn(&GraphDb) -> BTreeSet<Vec<NodeId>>,
{
    for words in enumerate_word_choices(
        phi,
        cfg.max_word_len,
        cfg.words_per_atom,
        cfg.max_expansions,
    ) {
        gov.count_word()?;
        let Some(e) = expand(phi, &words, alphabet) else {
            return Ok(None);
        };
        debug_assert!(
            phi.evaluate(&e.db).contains(&e.head_nodes),
            "an expansion must satisfy its own conjunct"
        );
        let answers = eval2(&e.db);
        if !answers.contains(&e.head_nodes) {
            let words_str: Vec<String> = words.iter().map(|w| alphabet.word_to_string(w)).collect();
            return Ok(Some(Witness {
                db: e.db,
                tuple: e.head_nodes,
                description: format!(
                    "canonical expansion with atom words [{}]",
                    words_str.join(", ")
                ),
            }));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_graph::generate;

    #[allow(clippy::type_complexity)]
    fn u(disjuncts: &[(&[&str], &[(&str, &str, &str)])], al: &mut Alphabet) -> Uc2Rpq {
        Uc2Rpq::new(
            disjuncts
                .iter()
                .map(|(h, atoms)| C2Rpq::parse(h, atoms, al).unwrap())
                .collect(),
        )
        .unwrap()
    }

    /// Brute-force cross-validation: containment on a set of random small
    /// databases (refutes only; used to sanity-check Contained verdicts).
    fn no_random_counterexample(q1: &Uc2Rpq, q2: &Uc2Rpq, labels: &[&str]) -> bool {
        for seed in 0..30u64 {
            let db = generate::random_gnm(4, 7, labels, seed);
            let a1 = q1.evaluate(&db);
            let a2 = q2.evaluate(&db);
            if !a1.is_subset(&a2) {
                return false;
            }
        }
        true
    }

    #[test]
    fn chain_collapse_exact_path() {
        let mut al = Alphabet::new();
        // (x)-a->(m)-b->(y) ⊑ (x)-a b|c->(y).
        let q1 = u(
            &[(&["x", "y"], &[("a", "x", "m"), ("b", "m", "y")])],
            &mut al,
        );
        let q2 = u(&[(&["x", "y"], &[("a b|c", "x", "y")])], &mut al);
        let out = check(&q1, &q2, &al, &Config::default());
        assert!(out.is_contained(), "{out}");
        let out = check(&q2, &q1, &al, &Config::default());
        assert!(out.is_not_contained(), "{out}");
    }

    #[test]
    fn homomorphism_proof_for_branching_queries() {
        let mut al = Alphabet::new();
        // φ: x has both an a-child and a b-child; ψ: x has an a-child.
        let q1 = u(&[(&["x"], &[("a", "x", "y"), ("b", "x", "z")])], &mut al);
        let q2 = u(&[(&["x"], &[("a", "x", "y")])], &mut al);
        let out = check(&q1, &q2, &al, &Config::default());
        assert!(out.is_contained(), "{out}");
        assert!(no_random_counterexample(&q1, &q2, &["a", "b"]));
        // Converse fails: witness must be produced by expansion search.
        let out = check(&q2, &q1, &al, &Config::default());
        let w = out.witness().expect("not contained");
        assert!(q2.evaluate(&w.db).contains(&w.tuple));
        assert!(!q1.evaluate(&w.db).contains(&w.tuple));
    }

    #[test]
    fn union_absorbs_disjuncts() {
        let mut al = Alphabet::new();
        let q1 = u(&[(&["x", "y"], &[("a a", "x", "y")])], &mut al);
        let q2 = u(
            &[
                (&["x", "y"], &[("a", "x", "m"), ("a", "m", "y")]),
                (&["x", "y"], &[("b", "x", "y")]),
            ],
            &mut al,
        );
        let out = check(&q1, &q2, &al, &Config::default());
        assert!(out.is_contained(), "{out}");
    }

    #[test]
    fn triangle_queries_from_the_paper() {
        let mut al = Alphabet::new();
        // The triangle query is contained in the single-edge query.
        let tri = u(
            &[(
                &["x", "y"],
                &[("r", "x", "y"), ("r", "x", "z"), ("r", "y", "z")],
            )],
            &mut al,
        );
        let edge = u(&[(&["x", "y"], &[("r", "x", "y")])], &mut al);
        let out = check(&tri, &edge, &al, &Config::default());
        assert!(out.is_contained(), "{out}");
        // Converse fails.
        let out = check(&edge, &tri, &al, &Config::default());
        let w = out.witness().expect("edge ⋢ triangle");
        assert!(!tri.evaluate(&w.db).contains(&w.tuple));
    }

    #[test]
    fn fold_containment_through_conjuncts() {
        let mut al = Alphabet::new();
        // p(x,y) ⊑ ∃z: p(x,z) ∧ p(y,z)-ish? Use the paper's folding:
        // p(x,y) ⊑ p p⁻ p as chains (exercises the exact path through
        // conjuncts written with explicit middles).
        let q1 = u(&[(&["x", "y"], &[("p", "x", "y")])], &mut al);
        let q2 = u(
            &[(
                &["x", "y"],
                &[("p", "x", "m1"), ("p", "m2", "m1"), ("p", "m2", "y")],
            )],
            &mut al,
        );
        let out = check(&q1, &q2, &al, &Config::default());
        assert!(out.is_contained(), "{out}");
        assert!(no_random_counterexample(&q1, &q2, &["p"]));
    }

    #[test]
    fn unsatisfiable_left_disjunct_is_contained() {
        let mut al = Alphabet::new();
        let q1 = u(&[(&["x", "y"], &[("∅", "x", "y")])], &mut al);
        let q2 = u(&[(&["x", "y"], &[("a", "x", "y")])], &mut al);
        assert!(check(&q1, &q2, &al, &Config::default()).is_contained());
    }

    #[test]
    fn arity_mismatch_is_unknown() {
        let mut al = Alphabet::new();
        let q1 = u(&[(&["x"], &[("a", "x", "y")])], &mut al);
        let q2 = u(&[(&["x", "y"], &[("a", "x", "y")])], &mut al);
        assert!(check(&q1, &q2, &al, &Config::default()).is_unknown());
    }

    #[test]
    fn config_limits_surface_as_structured_unknown() {
        use rq_automata::{Limits, Resource};
        let mut al = Alphabet::new();
        let q1 = u(&[(&["x"], &[("a", "x", "y"), ("b", "x", "z")])], &mut al);
        let q2 = u(&[(&["x"], &[("a", "x", "y")])], &mut al);
        let cfg = Config {
            limits: Limits::unlimited().with_fuel(1),
            ..Config::default()
        };
        let out = check(&q1, &q2, &al, &cfg);
        let r = out
            .report()
            .expect("fuel starvation must surface as Unknown");
        assert_eq!(r.exhaustion.as_ref().unwrap().resource, Resource::Fuel);
        assert!(r.counters.fuel_spent > 0);
        // Unlimited default limits keep the definite verdict.
        assert!(check(&q1, &q2, &al, &Config::default()).is_contained());
    }

    #[test]
    fn refutation_finds_star_length_counterexamples() {
        let mut al = Alphabet::new();
        // a* ⊑ a|ε fails with witness word aa.
        let q1 = u(&[(&["x", "y"], &[("a*", "x", "y")])], &mut al);
        let q2 = u(&[(&["x", "y"], &[("a|ε", "x", "y")])], &mut al);
        let out = check(&q1, &q2, &al, &Config::default());
        let w = out.witness().expect("not contained");
        assert_eq!(w.db.num_edges(), 2, "shortest counterexample word is aa");
    }

    #[test]
    fn cyclic_conjunct_refutation() {
        let mut al = Alphabet::new();
        // "x on an a-cycle of length 2" vs "x has an a-self-loop".
        let cyc2 = u(&[(&["x"], &[("a", "x", "y"), ("a", "y", "x")])], &mut al);
        let selfloop = u(&[(&["x"], &[("a", "x", "x")])], &mut al);
        // cyc2 ⋢ selfloop (two distinct nodes beat it).
        let out = check(&cyc2, &selfloop, &al, &Config::default());
        assert!(out.is_not_contained(), "{out}");
        // selfloop ⊑ cyc2 (take y = x).
        let out = check(&selfloop, &cyc2, &al, &Config::default());
        assert!(out.is_contained(), "{out}");
    }

    #[test]
    fn definite_answers_agree_with_random_semantics() {
        // Fuzz: every definite verdict must be consistent with evaluation
        // on random databases.
        let mut al = Alphabet::new();
        let queries = [
            u(&[(&["x", "y"], &[("a+", "x", "y")])], &mut al),
            u(&[(&["x", "y"], &[("a", "x", "y")])], &mut al),
            u(&[(&["x", "y"], &[("a a*", "x", "y")])], &mut al),
            u(
                &[(&["x", "y"], &[("a", "x", "m"), ("a*", "m", "y")])],
                &mut al,
            ),
            u(
                &[(&["x", "y"], &[("a", "x", "y"), ("b", "x", "w")])],
                &mut al,
            ),
        ];
        let cfg = Config::default();
        for (i, q1) in queries.iter().enumerate() {
            for (j, q2) in queries.iter().enumerate() {
                let out = check(q1, q2, &al, &cfg);
                match out.decided() {
                    Some(true) => {
                        assert!(
                            no_random_counterexample(q1, q2, &["a", "b"]),
                            "claimed {i} ⊑ {j} but random db refutes"
                        );
                    }
                    Some(false) => {
                        let w = out.witness().unwrap();
                        assert!(q1.evaluate(&w.db).contains(&w.tuple), "{i} vs {j}");
                        assert!(!q2.evaluate(&w.db).contains(&w.tuple), "{i} vs {j}");
                    }
                    None => {}
                }
            }
        }
    }
}
