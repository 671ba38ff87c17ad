//! Containment of conjunctive queries and their unions.
//!
//! "A celebrated result in database theory is the decidability of query
//! containment for CQ — the problem is NP-complete [18]. This was extended
//! a few years later to UCQ [50]" (§2.3).
//!
//! * [`cq_contained`] — the Chandra–Merlin test: `Q1 ⊑ Q2` iff there is a
//!   homomorphism from `Q2` into the canonical database of `Q1` mapping
//!   distinguished terms accordingly;
//! * [`ucq_contained`] — Sagiv–Yannakakis: `∨ᵢφᵢ ⊑ ∨ⱼψⱼ` iff each `φᵢ` is
//!   contained in *some* `ψⱼ`;
//! * [`minimize_cq`] — the core of a CQ by redundant-atom elimination;
//! * [`minimize_ucq`] — drop disjuncts contained in other disjuncts.
//!
//! These work at arbitrary arity; `rq-core` reuses them for the relational
//! side of UC2RPQ/RQ containment.

use crate::ast::{Atom, Program, Query, Rule, Term};
use std::collections::BTreeMap;
use std::fmt;

/// A conjunctive query: `head(x̄) :- body₁, …, bodyₖ` where the body atoms
/// range over EDB predicates. Body variables not in the head are
/// existential.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cq {
    pub head: Atom,
    pub body: Vec<Atom>,
}

impl Cq {
    /// All distinct variables of the body, in first-occurrence order.
    pub fn body_variables(&self) -> Vec<&str> {
        let mut seen = Vec::new();
        for a in &self.body {
            for t in &a.terms {
                if let Term::Var(v) = t {
                    if !seen.contains(&v.as_str()) {
                        seen.push(v);
                    }
                }
            }
        }
        seen
    }
}

impl fmt::Display for Cq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", Rule::new(self.head.clone(), self.body.clone()))
    }
}

/// A union of conjunctive queries with compatible heads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ucq {
    pub disjuncts: Vec<Cq>,
}

impl Ucq {
    /// Package the UCQ as a (nonrecursive) Datalog query with goal
    /// predicate `goal`.
    pub fn to_query(&self, goal: &str) -> Query {
        let rules = self
            .disjuncts
            .iter()
            .map(|d| {
                let mut head = d.head.clone();
                head.predicate = goal.to_owned();
                Rule::new(head, d.body.clone())
            })
            .collect();
        Query::new(Program::new(rules), goal)
    }
}

impl fmt::Display for Ucq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.disjuncts {
            writeln!(f, "{d}")?;
        }
        Ok(())
    }
}

/// A homomorphism target value in the canonical database of the left query:
/// either one of its (frozen) variables or a constant.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Frozen<'a> {
    Var(&'a str),
    Const(&'a str),
}

fn freeze(t: &Term) -> Frozen<'_> {
    match t {
        Term::Var(v) => Frozen::Var(v),
        Term::Const(c) => Frozen::Const(c),
    }
}

/// Decide `q1 ⊑ q2` (same head predicate arity required; returns `false`
/// on arity mismatch). NP-complete in general; the search is a
/// backtracking homomorphism search from `q2` into `q1`'s canonical
/// database, seeded by the head correspondence.
pub fn cq_contained(q1: &Cq, q2: &Cq) -> bool {
    if q1.head.arity() != q2.head.arity() {
        return false;
    }
    // Mapping from q2 terms to frozen q1 terms, seeded by heads.
    let mut map: BTreeMap<&str, Frozen<'_>> = BTreeMap::new();
    for (t2, t1) in q2.head.terms.iter().zip(&q1.head.terms) {
        match t2 {
            Term::Var(v) => {
                let target = freeze(t1);
                if let Some(prev) = map.get(v.as_str()) {
                    if *prev != target {
                        return false;
                    }
                } else {
                    map.insert(v, target);
                }
            }
            Term::Const(c) => {
                // A constant in q2's head must match q1's head term exactly.
                if freeze(t1) != Frozen::Const(c) {
                    return false;
                }
            }
        }
    }
    hom_search(&q2.body, 0, &q1.body, &mut map)
}

/// Extend `map` to a homomorphism of `atoms[from..]` into the canonical
/// database given by `db_atoms`.
fn hom_search<'a>(
    atoms: &'a [Atom],
    from: usize,
    db_atoms: &'a [Atom],
    map: &mut BTreeMap<&'a str, Frozen<'a>>,
) -> bool {
    let Some(atom) = atoms.get(from) else {
        return true;
    };
    for target in db_atoms {
        if target.predicate != atom.predicate || target.arity() != atom.arity() {
            continue;
        }
        // Try mapping `atom` onto `target`.
        let mut added: Vec<&str> = Vec::new();
        let mut ok = true;
        for (t2, t1) in atom.terms.iter().zip(&target.terms) {
            let goal = freeze(t1);
            match t2 {
                Term::Var(v) => match map.get(v.as_str()) {
                    Some(prev) => {
                        if *prev != goal {
                            ok = false;
                            break;
                        }
                    }
                    None => {
                        map.insert(v, goal);
                        added.push(v);
                    }
                },
                Term::Const(c) => {
                    if goal != Frozen::Const(c) {
                        ok = false;
                        break;
                    }
                }
            }
        }
        if ok && hom_search(atoms, from + 1, db_atoms, map) {
            return true;
        }
        for v in added {
            map.remove(v);
        }
    }
    false
}

/// Decide `u1 ⊑ u2` for unions of conjunctive queries (Sagiv–Yannakakis):
/// every disjunct of `u1` must be contained in some disjunct of `u2`.
pub fn ucq_contained(u1: &Ucq, u2: &Ucq) -> bool {
    u1.disjuncts
        .iter()
        .all(|d1| u2.disjuncts.iter().any(|d2| cq_contained(d1, d2)))
}

/// Whether `q1 ≡ q2`.
pub fn cq_equivalent(q1: &Cq, q2: &Cq) -> bool {
    cq_contained(q1, q2) && cq_contained(q2, q1)
}

/// Compute the core of `q` by repeatedly dropping redundant body atoms:
/// an atom is redundant when the query without it is still contained in
/// the original (the reverse containment always holds, since dropping a
/// conjunct relaxes the query).
pub fn minimize_cq(q: &Cq) -> Cq {
    let mut cur = q.clone();
    loop {
        let mut changed = false;
        let mut i = 0;
        while i < cur.body.len() {
            if cur.body.len() == 1 {
                break;
            }
            let mut candidate = cur.clone();
            candidate.body.remove(i);
            // Safety: head variables must still occur in the body.
            let body_vars = candidate.body_variables();
            let safe = candidate
                .head
                .variables()
                .iter()
                .all(|v| body_vars.contains(v));
            if safe && cq_contained(&candidate, &cur) {
                cur = candidate;
                changed = true;
            } else {
                i += 1;
            }
        }
        if !changed {
            return cur;
        }
    }
}

/// Drop disjuncts of `u` that are contained in another disjunct, and
/// minimize each survivor.
pub fn minimize_ucq(u: &Ucq) -> Ucq {
    let mut kept: Vec<Cq> = Vec::new();
    for (i, d) in u.disjuncts.iter().enumerate() {
        let redundant = u.disjuncts.iter().enumerate().any(|(j, other)| {
            if i == j {
                return false;
            }
            // Keep the earlier of two equivalent disjuncts.
            cq_contained(d, other) && !(j > i && cq_contained(other, d))
        });
        if !redundant {
            kept.push(minimize_cq(d));
        }
    }
    Ucq { disjuncts: kept }
}

/// Containment of *nonrecursive* Datalog queries (decidable per §2.3, by
/// reduction to UCQ containment through unfolding — "as nonrecursive
/// Datalog is equivalent to UCQ, it follows that decidability of query
/// containment extends also to the former", at the cost of the unfolding
/// blow-up, which `budget` bounds).
pub fn nonrecursive_contained(
    q1: &Query,
    q2: &Query,
    budget: usize,
) -> Result<bool, crate::unfold::UnfoldError> {
    let u1 = crate::unfold::unfold_nonrecursive(q1, budget)?;
    let u2 = crate::unfold::unfold_nonrecursive(q2, budget)?;
    Ok(ucq_contained(&u1, &u2))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cq(head: (&str, &[&str]), body: &[(&str, &[&str])]) -> Cq {
        Cq {
            head: Atom::new(head.0, head.1),
            body: body.iter().map(|(p, vs)| Atom::new(*p, vs)).collect(),
        }
    }

    #[test]
    fn chandra_merlin_path_queries() {
        // Q1: path of length 2; Q2: edge exists from x (projected).
        let q1 = cq(
            ("Q", &["X", "Z"]),
            &[("E", &["X", "Y"]), ("E", &["Y", "Z"])],
        );
        let q2 = cq(("Q", &["X", "Z"]), &[("E", &["X", "Z"])]);
        // Q2 ⊑ Q1? hom from Q1 into {E(x,z)} needs E-path of length 2: no.
        assert!(!cq_contained(&q2, &q1));
        // Q1 ⊑ Q2? hom from Q2 (one edge x→z) into the path: needs edge
        // from X directly to Z: no.
        assert!(!cq_contained(&q1, &q2));
    }

    #[test]
    fn projection_containment() {
        // "x has an outgoing edge to some y with a self-loop" is contained
        // in "x has an outgoing edge".
        let q1 = cq(("Q", &["X"]), &[("E", &["X", "Y"]), ("E", &["Y", "Y"])]);
        let q2 = cq(("Q", &["X"]), &[("E", &["X", "Y"])]);
        assert!(cq_contained(&q1, &q2));
        assert!(!cq_contained(&q2, &q1));
    }

    #[test]
    fn classic_redundancy() {
        // E(x,y) ∧ E(x,z) is equivalent to E(x,y) when y and z are
        // both existential.
        let q1 = cq(("Q", &["X"]), &[("E", &["X", "Y"]), ("E", &["X", "Z"])]);
        let q2 = cq(("Q", &["X"]), &[("E", &["X", "Y"])]);
        assert!(cq_equivalent(&q1, &q2));
        let m = minimize_cq(&q1);
        assert_eq!(m.body.len(), 1);
    }

    #[test]
    fn triangle_vs_loop() {
        // Boolean-ish: triangle query contained in "some edge" query.
        let tri = cq(
            ("Q", &[]),
            &[("E", &["X", "Y"]), ("E", &["Y", "Z"]), ("E", &["Z", "X"])],
        );
        let edge = cq(("Q", &[]), &[("E", &["X", "Y"])]);
        assert!(cq_contained(&tri, &edge));
        assert!(!cq_contained(&edge, &tri));
        // A self-loop satisfies the triangle (x=y=z), so the query with a
        // self-loop is contained in the triangle query.
        let selfloop = cq(("Q", &[]), &[("E", &["X", "X"])]);
        assert!(cq_contained(&selfloop, &tri));
    }

    #[test]
    fn constants_must_match() {
        let q1 = Cq {
            head: Atom::new("Q", &["X"]),
            body: vec![Atom {
                predicate: "E".into(),
                terms: vec![Term::Var("X".into()), Term::Const("alice".into())],
            }],
        };
        let q2 = cq(("Q", &["X"]), &[("E", &["X", "Y"])]);
        // Fixing a constant is more restrictive.
        assert!(cq_contained(&q1, &q2));
        assert!(!cq_contained(&q2, &q1));
        let q3 = Cq {
            head: Atom::new("Q", &["X"]),
            body: vec![Atom {
                predicate: "E".into(),
                terms: vec![Term::Var("X".into()), Term::Const("bob".into())],
            }],
        };
        assert!(!cq_contained(&q1, &q3));
        assert!(!cq_contained(&q3, &q1));
    }

    #[test]
    fn ucq_containment_per_disjunct() {
        let path1 = cq(("Q", &["X", "Y"]), &[("E", &["X", "Y"])]);
        let path2 = cq(
            ("Q", &["X", "Z"]),
            &[("E", &["X", "Y"]), ("E", &["Y", "Z"])],
        );
        let u1 = Ucq {
            disjuncts: vec![path1.clone()],
        };
        let u12 = Ucq {
            disjuncts: vec![path1.clone(), path2.clone()],
        };
        assert!(ucq_contained(&u1, &u12));
        assert!(!ucq_contained(&u12, &u1));
        // Though each disjunct alone is not equivalent, a union can absorb.
        let u2 = Ucq {
            disjuncts: vec![path2],
        };
        assert!(ucq_contained(&u2, &u12));
    }

    #[test]
    fn minimize_ucq_drops_absorbed_disjuncts() {
        let narrow = cq(("Q", &["X"]), &[("E", &["X", "Y"]), ("E", &["Y", "Y"])]);
        let wide = cq(("Q", &["X"]), &[("E", &["X", "Y"])]);
        let u = Ucq {
            disjuncts: vec![narrow.clone(), wide.clone()],
        };
        let m = minimize_ucq(&u);
        assert_eq!(m.disjuncts.len(), 1);
        assert!(cq_equivalent(&m.disjuncts[0], &wide));
    }

    #[test]
    fn minimize_ucq_keeps_one_of_equivalent_pair() {
        let a = cq(("Q", &["X"]), &[("E", &["X", "Y"])]);
        let b = cq(("Q", &["X"]), &[("E", &["X", "Z"])]);
        let u = Ucq {
            disjuncts: vec![a, b],
        };
        let m = minimize_ucq(&u);
        assert_eq!(m.disjuncts.len(), 1);
    }

    #[test]
    fn repeated_head_variables() {
        // Q(x,x) :- E(x,x) vs Q(x,y) :- E(x,y).
        let diag = cq(("Q", &["X", "X"]), &[("E", &["X", "X"])]);
        let all = cq(("Q", &["X", "Y"]), &[("E", &["X", "Y"])]);
        assert!(cq_contained(&diag, &all));
        assert!(!cq_contained(&all, &diag));
    }

    #[test]
    fn nonrecursive_datalog_containment() {
        use crate::parser::parse_program;
        let q = |text: &str, goal: &str| Query::new(parse_program(text).unwrap(), goal);
        // Path-2 ∪ edge vs edge-reachability-by-≤2: equivalent programs.
        let a = q("P(X, Z) :- E(X, Y), E(Y, Z).\nP(X, Y) :- E(X, Y).", "P");
        let b = q(
            "Hop(X, Y) :- E(X, Y).\nP2(X, Z) :- Hop(X, Y), Hop(Y, Z).\n\
             Ans(X, Y) :- P2(X, Y).\nAns(X, Y) :- Hop(X, Y).",
            "Ans",
        );
        assert_eq!(nonrecursive_contained(&a, &b, 10_000), Ok(true));
        assert_eq!(nonrecursive_contained(&b, &a, 10_000), Ok(true));
        // Strictly smaller: only paths of length exactly 2.
        let c = q("P(X, Z) :- E(X, Y), E(Y, Z).", "P");
        assert_eq!(nonrecursive_contained(&c, &a, 10_000), Ok(true));
        assert_eq!(nonrecursive_contained(&a, &c, 10_000), Ok(false));
        // Recursive inputs are rejected.
        let r = q("T(X, Y) :- E(X, Y).\nT(X, Z) :- T(X, Y), E(Y, Z).", "T");
        assert!(nonrecursive_contained(&r, &a, 10_000).is_err());
    }
}
