//! Conjunctive 2RPQs and their unions (§3.3).
//!
//! "A C2RPQ is a conjunctive query where instead of atoms r(x, y) we have
//! atoms κ(x, y), where κ is a 2RPQ. To evaluate a C2RPQ Q over a graph
//! database D we first evaluate all the 2RPQs appearing in Q, instantiating
//! each as a binary relation over the elements of D, and then evaluate Q as
//! a conjunctive query over this collection of relations."
//!
//! [`Uc2Rpq`] is the class UC2RPQ: unions of C2RPQs — "not only natural as
//! the graph-database analog of UCQ, but also well-motivated by
//! graph-database applications".

use crate::rpq::TwoRpq;
use rq_automata::{Alphabet, Regex};
use rq_graph::{GraphDb, NodeId};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// An atom `κ(x, y)`: a 2RPQ between two variables (which may coincide).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct C2RpqAtom {
    pub rel: TwoRpq,
    pub from: String,
    pub to: String,
}

impl C2RpqAtom {
    /// Build an atom.
    pub fn new(rel: TwoRpq, from: impl Into<String>, to: impl Into<String>) -> Self {
        C2RpqAtom {
            rel,
            from: from.into(),
            to: to.into(),
        }
    }
}

/// A conjunctive 2RPQ with distinguished (head) variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct C2Rpq {
    /// Distinguished variables, in answer-tuple order.
    pub head: Vec<String>,
    pub atoms: Vec<C2RpqAtom>,
}

/// Error building a [`C2Rpq`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum C2RpqError {
    /// A head variable does not occur in any atom.
    UnsafeHead { variable: String },
    /// The body is empty.
    EmptyBody,
}

impl fmt::Display for C2RpqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            C2RpqError::UnsafeHead { variable } => {
                write!(f, "head variable {variable} does not occur in any atom")
            }
            C2RpqError::EmptyBody => write!(f, "a C2RPQ needs at least one atom"),
        }
    }
}

impl std::error::Error for C2RpqError {}

impl C2Rpq {
    /// Build and validate.
    pub fn new(head: Vec<String>, atoms: Vec<C2RpqAtom>) -> Result<C2Rpq, C2RpqError> {
        if atoms.is_empty() {
            return Err(C2RpqError::EmptyBody);
        }
        let vars: BTreeSet<&str> = atoms
            .iter()
            .flat_map(|a| [a.from.as_str(), a.to.as_str()])
            .collect();
        for h in &head {
            if !vars.contains(h.as_str()) {
                return Err(C2RpqError::UnsafeHead {
                    variable: h.clone(),
                });
            }
        }
        Ok(C2Rpq { head, atoms })
    }

    /// Convenience constructor from `(regex-text, from, to)` triples.
    pub fn parse(
        head: &[&str],
        atoms: &[(&str, &str, &str)],
        alphabet: &mut Alphabet,
    ) -> Result<C2Rpq, String> {
        let atoms = atoms
            .iter()
            .map(|(re, from, to)| {
                TwoRpq::parse(re, alphabet)
                    .map(|rel| C2RpqAtom::new(rel, *from, *to))
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        C2Rpq::new(head.iter().map(|s| (*s).to_string()).collect(), atoms)
            .map_err(|e| e.to_string())
    }

    /// All variables, in first-occurrence order.
    pub fn variables(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for a in &self.atoms {
            for v in [a.from.as_str(), a.to.as_str()] {
                if !out.contains(&v) {
                    out.push(v);
                }
            }
        }
        out
    }

    /// Existential variables: those not in the head.
    pub fn existential_variables(&self) -> Vec<&str> {
        self.variables()
            .into_iter()
            .filter(|v| !self.head.iter().any(|h| h == v))
            .collect()
    }

    /// Evaluate: materialize each atom's binary relation, then join.
    pub fn evaluate(&self, db: &GraphDb) -> BTreeSet<Vec<NodeId>> {
        // Materialize atoms.
        let rels: Vec<BTreeSet<(NodeId, NodeId)>> =
            self.atoms.iter().map(|a| a.rel.evaluate(db)).collect();
        // Greedy join order: repeatedly pick the atom with the most bound
        // variables (ties: smallest relation).
        let mut order: Vec<usize> = Vec::new();
        let mut used = vec![false; self.atoms.len()];
        let mut bound: BTreeSet<&str> = BTreeSet::new();
        while order.len() < self.atoms.len() {
            let mut best: Option<(isize, usize, usize)> = None;
            for (i, a) in self.atoms.iter().enumerate() {
                if used[i] {
                    continue;
                }
                let b = i32::from(bound.contains(a.from.as_str()))
                    + i32::from(bound.contains(a.to.as_str()));
                let key = (-(b as isize), rels[i].len(), i);
                if best.is_none_or(|k| key < k) {
                    best = Some(key);
                }
            }
            let (_, _, i) = best.expect("an unused atom remains");
            used[i] = true;
            bound.insert(self.atoms[i].from.as_str());
            bound.insert(self.atoms[i].to.as_str());
            order.push(i);
        }
        // Index relations by first column for bound-from lookups, and by
        // second column for bound-to lookups.
        let mut by_from: Vec<BTreeMap<NodeId, Vec<NodeId>>> = Vec::new();
        let mut by_to: Vec<BTreeMap<NodeId, Vec<NodeId>>> = Vec::new();
        for rel in &rels {
            let mut f: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
            let mut t: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
            for &(x, y) in rel {
                f.entry(x).or_default().push(y);
                t.entry(y).or_default().push(x);
            }
            by_from.push(f);
            by_to.push(t);
        }

        let mut out = BTreeSet::new();
        let mut bindings: BTreeMap<&str, NodeId> = BTreeMap::new();
        self.join(
            db,
            &order,
            0,
            &rels,
            &by_from,
            &by_to,
            &mut bindings,
            &mut out,
        );
        out
    }

    #[allow(clippy::too_many_arguments, clippy::only_used_in_recursion)]
    fn join<'a>(
        &'a self,
        db: &GraphDb,
        order: &[usize],
        depth: usize,
        rels: &[BTreeSet<(NodeId, NodeId)>],
        by_from: &[BTreeMap<NodeId, Vec<NodeId>>],
        by_to: &[BTreeMap<NodeId, Vec<NodeId>>],
        bindings: &mut BTreeMap<&'a str, NodeId>,
        out: &mut BTreeSet<Vec<NodeId>>,
    ) {
        if depth == order.len() {
            let tuple: Vec<NodeId> = self
                .head
                .iter()
                .map(|h| *bindings.get(h.as_str()).expect("head variables are safe"))
                .collect();
            out.insert(tuple);
            return;
        }
        let i = order[depth];
        let atom = &self.atoms[i];
        let (bf, bt) = (
            bindings.get(atom.from.as_str()).copied(),
            bindings.get(atom.to.as_str()).copied(),
        );
        // Candidate pairs under current bindings.
        let candidates: Vec<(NodeId, NodeId)> = match (bf, bt) {
            (Some(x), Some(y)) => {
                if rels[i].contains(&(x, y)) {
                    vec![(x, y)]
                } else {
                    vec![]
                }
            }
            (Some(x), None) => by_from[i]
                .get(&x)
                .into_iter()
                .flatten()
                .map(|&y| (x, y))
                .collect(),
            (None, Some(y)) => by_to[i]
                .get(&y)
                .into_iter()
                .flatten()
                .map(|&x| (x, y))
                .collect(),
            (None, None) => rels[i].iter().copied().collect(),
        };
        for (x, y) in candidates {
            // Respect κ(v, v) atoms: both endpoints share a variable.
            if atom.from == atom.to && x != y {
                continue;
            }
            let mut fresh: Vec<&str> = Vec::new();
            if bf.is_none() {
                bindings.insert(&atom.from, x);
                fresh.push(&atom.from);
            }
            if bindings.get(atom.to.as_str()) != Some(&y) {
                if bindings.contains_key(atom.to.as_str()) {
                    for v in fresh {
                        bindings.remove(v);
                    }
                    continue;
                }
                bindings.insert(&atom.to, y);
                fresh.push(&atom.to);
            }
            self.join(db, order, depth + 1, rels, by_from, by_to, bindings, out);
            for v in fresh {
                bindings.remove(v);
            }
        }
    }

    /// Chain collapsing: if the body is a simple path of atoms between the
    /// two head variables (binary head `(x, y)`, `x ≠ y`, every internal
    /// variable existential and of degree exactly 2, no branching), the
    /// whole conjunct is equivalent to the single 2RPQ obtained by
    /// concatenating the atom expressions along the path (inverting atoms
    /// traversed backwards). Returns that 2RPQ, or `None` if the conjunct
    /// is not chain-shaped.
    ///
    /// This is what lets the containment checker treat 2RPQ compositions
    /// exactly (Theorem 5) instead of falling back to the hybrid procedure.
    pub fn collapse_chain(&self) -> Option<TwoRpq> {
        if self.head.len() != 2 || self.head[0] == self.head[1] {
            return None;
        }
        let (src, dst) = (self.head[0].as_str(), self.head[1].as_str());
        // Occurrence counts; every variable's degree (counting κ(v,v) twice).
        let mut degree: BTreeMap<&str, usize> = BTreeMap::new();
        for a in &self.atoms {
            *degree.entry(&a.from).or_insert(0) += 1;
            *degree.entry(&a.to).or_insert(0) += 1;
        }
        if degree.get(src) != Some(&1) || degree.get(dst) != Some(&1) {
            return None;
        }
        for (v, d) in &degree {
            if *v != src && *v != dst {
                if *d != 2 {
                    return None;
                }
                if self.head.iter().any(|h| h == v) {
                    return None; // internal variables must be existential
                }
            }
        }
        // Walk the path.
        let mut used = vec![false; self.atoms.len()];
        let mut cur = src;
        let mut parts: Vec<Regex> = Vec::new();
        for _ in 0..self.atoms.len() {
            let (i, forward) = self.atoms.iter().enumerate().find_map(|(i, a)| {
                if used[i] {
                    return None;
                }
                if a.from == cur && a.from != a.to {
                    Some((i, true))
                } else if a.to == cur && a.from != a.to {
                    Some((i, false))
                } else {
                    None
                }
            })?;
            used[i] = true;
            let a = &self.atoms[i];
            if forward {
                parts.push(a.rel.regex().clone());
                cur = &a.to;
            } else {
                parts.push(a.rel.regex().inverse());
                cur = &a.from;
            }
        }
        if cur != dst {
            return None;
        }
        Some(TwoRpq::new(Regex::concat(parts)))
    }
}

impl fmt::Display for C2Rpq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q({})", self.head.join(", "))?;
        write!(f, " :- ")?;
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, " & ")?;
            }
            write!(f, "[{:?}]({}, {})", a.rel.regex(), a.from, a.to)?;
        }
        Ok(())
    }
}

/// A union of C2RPQs with equal head arity (the class UC2RPQ).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Uc2Rpq {
    pub disjuncts: Vec<C2Rpq>,
}

/// Error building a [`Uc2Rpq`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Uc2RpqError {
    /// Head arities differ across disjuncts.
    MixedArity,
    /// No disjuncts.
    Empty,
}

impl fmt::Display for Uc2RpqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Uc2RpqError::MixedArity => write!(f, "disjuncts have different head arities"),
            Uc2RpqError::Empty => write!(f, "a UC2RPQ needs at least one disjunct"),
        }
    }
}

impl std::error::Error for Uc2RpqError {}

impl Uc2Rpq {
    /// Build and validate.
    pub fn new(disjuncts: Vec<C2Rpq>) -> Result<Uc2Rpq, Uc2RpqError> {
        let Some(first) = disjuncts.first() else {
            return Err(Uc2RpqError::Empty);
        };
        let arity = first.head.len();
        if disjuncts.iter().any(|d| d.head.len() != arity) {
            return Err(Uc2RpqError::MixedArity);
        }
        Ok(Uc2Rpq { disjuncts })
    }

    /// A single-disjunct union.
    pub fn single(c: C2Rpq) -> Uc2Rpq {
        Uc2Rpq { disjuncts: vec![c] }
    }

    /// Head arity.
    pub fn arity(&self) -> usize {
        self.disjuncts[0].head.len()
    }

    /// Evaluate as the union of the disjuncts' answers.
    pub fn evaluate(&self, db: &GraphDb) -> BTreeSet<Vec<NodeId>> {
        let mut out = BTreeSet::new();
        for d in &self.disjuncts {
            out.extend(d.evaluate(db));
        }
        out
    }

    /// Collapse every disjunct to a single 2RPQ if possible (all disjuncts
    /// chain-shaped between the *same* head pair orientation).
    pub fn collapse_chains(&self) -> Option<TwoRpq> {
        let mut union = Vec::new();
        for d in &self.disjuncts {
            union.push(d.collapse_chain()?.regex().clone());
        }
        Some(TwoRpq::new(Regex::union(union)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_graph::generate;

    #[test]
    fn paper_example_triangle_queries() {
        // Example 1 of the paper.
        let mut al = Alphabet::new();
        let q1 = C2Rpq::parse(
            &["x", "y"],
            &[("r", "x", "y"), ("r", "x", "z"), ("r", "y", "z")],
            &mut al,
        )
        .unwrap();
        let mut db = GraphDb::new();
        let a = db.node("a");
        let b = db.node("b");
        let c = db.node("c");
        let r = db.label("r");
        db.add_edge(a, r, b);
        db.add_edge(a, r, c);
        db.add_edge(b, r, c);
        let ans = q1.evaluate(&db);
        assert!(ans.contains(&vec![a, b]));
        assert_eq!(ans.len(), 1);

        // Adding the cyclic-triangle disjunct gives a UC2RPQ.
        let q2 = C2Rpq::parse(
            &["x", "y"],
            &[("r", "x", "y"), ("r", "y", "z"), ("r", "z", "x")],
            &mut al,
        )
        .unwrap();
        let u = Uc2Rpq::new(vec![q1, q2]).unwrap();
        let mut db2 = GraphDb::new();
        let x = db2.node("x");
        let y = db2.node("y");
        let z = db2.node("z");
        let r2 = db2.label("r");
        db2.add_edge(x, r2, y);
        db2.add_edge(y, r2, z);
        db2.add_edge(z, r2, x);
        let ans = u.evaluate(&db2);
        // Cyclic triangle: every directed edge pair is an answer of the
        // second disjunct.
        assert!(ans.contains(&vec![x, y]));
        assert!(ans.contains(&vec![y, z]));
        assert!(ans.contains(&vec![z, x]));
    }

    #[test]
    fn conjunction_differs_from_intersection() {
        // §3.3: Q1(x,y) ∧ Q2(x,y) wants two (possibly different) paths,
        // while the intersection wants a single path matching both.
        let mut db = GraphDb::new();
        let x = db.node("x");
        let y = db.node("y");
        let a = db.label("a");
        let b = db.label("b");
        db.add_edge(x, a, y);
        db.add_edge(x, b, y);
        let mut al = db.alphabet().clone();
        let conj = C2Rpq::parse(&["x", "y"], &[("a", "x", "y"), ("b", "x", "y")], &mut al).unwrap();
        // Two different paths exist, so the conjunction holds...
        assert!(conj.evaluate(&db).contains(&vec![x, y]));
        // ...but no single edge is labeled both a and b: the "intersection"
        // RPQ a ∩ b would be empty (regular languages a and b are disjoint).
    }

    #[test]
    fn shared_variable_atoms() {
        // κ(v, v): a self-loop constraint.
        let mut db = GraphDb::new();
        let x = db.node("x");
        let y = db.node("y");
        let r = db.label("r");
        db.add_edge(x, r, x);
        db.add_edge(x, r, y);
        let mut al = db.alphabet().clone();
        let q = C2Rpq::parse(&["v"], &[("r", "v", "v")], &mut al).unwrap();
        let ans = q.evaluate(&db);
        assert_eq!(ans, BTreeSet::from([vec![x]]));
    }

    #[test]
    fn chain_collapse_forward_and_backward() {
        let mut al = Alphabet::new();
        // x -a-> m <-b- y collapses to a . b⁻ from x to y.
        let q = C2Rpq::parse(&["x", "y"], &[("a", "x", "m"), ("b", "y", "m")], &mut al).unwrap();
        let collapsed = q.collapse_chain().unwrap();
        let expect = TwoRpq::parse("a b-", &mut al).unwrap();
        assert_eq!(collapsed.regex(), expect.regex());

        // Semantics agree on random databases.
        let db = generate::random_gnm(10, 25, &["a", "b"], 3);
        let direct: BTreeSet<Vec<NodeId>> = q.evaluate(&db);
        let via: BTreeSet<Vec<NodeId>> = collapsed
            .evaluate(&db)
            .into_iter()
            .map(|(s, t)| vec![s, t])
            .collect();
        assert_eq!(direct, via);
    }

    #[test]
    fn chain_collapse_rejects_branching() {
        let mut al = Alphabet::new();
        let q = C2Rpq::parse(
            &["x", "y"],
            &[("a", "x", "y"), ("a", "x", "z"), ("a", "y", "z")],
            &mut al,
        )
        .unwrap();
        assert!(q.collapse_chain().is_none());
        // Head variable in the middle is fine only at the ends.
        let q = C2Rpq::parse(&["x", "y"], &[("a", "x", "m"), ("b", "m", "y")], &mut al).unwrap();
        assert!(q.collapse_chain().is_some());
        // Non-binary heads don't collapse.
        let q = C2Rpq::parse(&["x"], &[("a", "x", "m")], &mut al).unwrap();
        assert!(q.collapse_chain().is_none());
    }

    #[test]
    fn collapse_chains_of_union() {
        let mut al = Alphabet::new();
        let d1 = C2Rpq::parse(&["x", "y"], &[("a", "x", "y")], &mut al).unwrap();
        let d2 = C2Rpq::parse(&["x", "y"], &[("b", "x", "m"), ("c", "m", "y")], &mut al).unwrap();
        let u = Uc2Rpq::new(vec![d1, d2]).unwrap();
        let t = u.collapse_chains().unwrap();
        let db = generate::random_gnm(12, 30, &["a", "b", "c"], 17);
        let direct = u.evaluate(&db);
        let via: BTreeSet<Vec<NodeId>> = t
            .evaluate(&db)
            .into_iter()
            .map(|(s, t)| vec![s, t])
            .collect();
        assert_eq!(direct, via);
    }

    #[test]
    fn ucq_semantics_on_random_graphs() {
        // Cross-check the join against a brute-force evaluation.
        let db = generate::random_gnm(8, 16, &["a", "b"], 5);
        let mut al = db.alphabet().clone();
        let q = C2Rpq::parse(
            &["x", "z"],
            &[("a+", "x", "y"), ("b", "y", "z"), ("a", "z", "w")],
            &mut al,
        )
        .unwrap();
        let fast = q.evaluate(&db);
        // Brute force over all variable assignments.
        let aplus = TwoRpq::parse("a+", &mut al).unwrap().evaluate(&db);
        let bb = TwoRpq::parse("b", &mut al).unwrap().evaluate(&db);
        let aa = TwoRpq::parse("a", &mut al).unwrap().evaluate(&db);
        let mut slow = BTreeSet::new();
        for x in db.nodes() {
            for y in db.nodes() {
                for z in db.nodes() {
                    for w in db.nodes() {
                        if aplus.contains(&(x, y)) && bb.contains(&(y, z)) && aa.contains(&(z, w)) {
                            slow.insert(vec![x, z]);
                        }
                    }
                }
            }
        }
        assert_eq!(fast, slow);
    }

    #[test]
    fn validation_errors() {
        let mut al = Alphabet::new();
        assert!(C2Rpq::parse(&["x"], &[], &mut al).is_err());
        let atom = C2RpqAtom::new(TwoRpq::parse("a", &mut al).unwrap(), "x", "y");
        assert!(matches!(
            C2Rpq::new(vec!["zz".into()], vec![atom.clone()]),
            Err(C2RpqError::UnsafeHead { .. })
        ));
        let ok = C2Rpq::new(vec!["x".into(), "y".into()], vec![atom.clone()]).unwrap();
        assert!(Uc2Rpq::new(vec![]).is_err());
        let unary = C2Rpq::new(vec!["x".into()], vec![atom]).unwrap();
        assert!(matches!(
            Uc2Rpq::new(vec![ok, unary]),
            Err(Uc2RpqError::MixedArity)
        ));
    }
}
