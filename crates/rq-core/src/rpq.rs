//! Regular path queries and their two-way extension.
//!
//! "The answer Q(D) to an RPQ Q over D is the set of pairs of objects
//! connected in D by a directed path traversing a sequence of edges forming
//! a word in the regular language L(Q)" (§3.1); a 2RPQ answers pairs
//! connected by a *semipath* conforming to a regular language over Σ±.
//!
//! Evaluation is by BFS over the product of the database with the query
//! automaton — `O(|V| · (|V| + |E|) · |Q|)` for all pairs, the standard
//! product-graph algorithm.

use rq_automata::governor::{expect_unlimited, Exhaustion, Governor};
use rq_automata::regex::{parse, ParseError};
use rq_automata::{Alphabet, Nfa, Regex};
use rq_graph::{frontier, GraphDb, NodeId, Semipath};
use std::collections::BTreeSet;

/// A two-way regular path query: a regular expression over Σ±, compiled to
/// an ε-free NFA.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TwoRpq {
    regex: Regex,
    nfa: Nfa,
}

impl TwoRpq {
    /// Compile a regex into a 2RPQ.
    pub fn new(regex: Regex) -> TwoRpq {
        let nfa = Nfa::from_regex(&regex).eliminate_epsilon().trim();
        TwoRpq { regex, nfa }
    }

    /// Parse the textual syntax (`knows.worksAt-`, `p p- p`, …), interning
    /// labels into `alphabet`.
    pub fn parse(input: &str, alphabet: &mut Alphabet) -> Result<TwoRpq, ParseError> {
        Ok(TwoRpq::new(parse(input, alphabet)?))
    }

    /// The query's regular expression.
    pub fn regex(&self) -> &Regex {
        &self.regex
    }

    /// The compiled ε-free automaton.
    pub fn nfa(&self) -> &Nfa {
        &self.nfa
    }

    /// Whether the query uses only forward letters (i.e., is an RPQ).
    pub fn is_forward_only(&self) -> bool {
        self.regex.is_forward_only()
    }

    /// The 2RPQ for the inverse relation: `(x,y) ∈ Q(D)` iff
    /// `(y,x) ∈ Q.inverse()(D)`.
    pub fn inverse(&self) -> TwoRpq {
        TwoRpq::new(self.regex.inverse())
    }

    /// Whether ε ∈ L(Q) — in which case `Q(D)` contains `(x,x)` for every
    /// object `x` (the trivial semipath).
    pub fn nullable(&self) -> bool {
        self.nfa.accepts(&[])
    }

    /// Objects reachable from `source` by a conforming semipath.
    pub fn evaluate_from(&self, db: &GraphDb, source: NodeId) -> BTreeSet<NodeId> {
        expect_unlimited(self.evaluate_from_governed(db, source, &Governor::unlimited()))
    }

    /// Governed single-source evaluation: the product BFS spends one fuel
    /// unit per product-edge expansion and polls the deadline/cancellation
    /// flag, so a `serve-batch` worker can be cut off mid-search.
    pub fn evaluate_from_governed(
        &self,
        db: &GraphDb,
        source: NodeId,
        gov: &Governor,
    ) -> Result<BTreeSet<NodeId>, Exhaustion> {
        frontier::reachable_governed(db, &self.nfa, source, gov)
    }

    /// The full answer `Q(D)` as a set of pairs.
    pub fn evaluate(&self, db: &GraphDb) -> BTreeSet<(NodeId, NodeId)> {
        expect_unlimited(self.evaluate_governed(db, &Governor::unlimited()))
    }

    /// Governed all-pairs evaluation (sequential; the parallel engine in
    /// `rq-engine` partitions the same per-source searches across threads).
    pub fn evaluate_governed(
        &self,
        db: &GraphDb,
        gov: &Governor,
    ) -> Result<BTreeSet<(NodeId, NodeId)>, Exhaustion> {
        frontier::all_pairs_governed(db, &self.nfa, gov)
    }

    /// Whether `(x, y) ∈ Q(D)`.
    pub fn contains_pair(&self, db: &GraphDb, x: NodeId, y: NodeId) -> bool {
        expect_unlimited(self.contains_pair_governed(db, x, y, &Governor::unlimited()))
    }

    /// Governed membership re-check for one pair, with early exit on the
    /// first witnessing product state (the semantic cache filters a
    /// subsuming query's materialized answer through this).
    pub fn contains_pair_governed(
        &self,
        db: &GraphDb,
        x: NodeId,
        y: NodeId,
        gov: &Governor,
    ) -> Result<bool, Exhaustion> {
        frontier::pair_reachable_governed(db, &self.nfa, x, y, gov)
    }

    /// A shortest conforming semipath witnessing `(x, y) ∈ Q(D)`, if any.
    pub fn witness_semipath(&self, db: &GraphDb, x: NodeId, y: NodeId) -> Option<Semipath> {
        expect_unlimited(frontier::witness_governed(
            db,
            &self.nfa,
            x,
            y,
            &Governor::unlimited(),
        ))
    }
}

/// A (one-way) regular path query: a [`TwoRpq`] restricted to forward
/// letters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rpq(TwoRpq);

/// Error building an [`Rpq`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RpqError {
    /// The expression contains an inverse letter — use [`TwoRpq`].
    NotForwardOnly,
    /// The expression failed to parse.
    Parse(ParseError),
}

impl std::fmt::Display for RpqError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RpqError::NotForwardOnly => {
                write!(
                    f,
                    "RPQs are forward-only; the expression uses an inverse letter"
                )
            }
            RpqError::Parse(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RpqError {}

impl Rpq {
    /// Compile a forward-only regex into an RPQ.
    pub fn new(regex: Regex) -> Result<Rpq, RpqError> {
        if !regex.is_forward_only() {
            return Err(RpqError::NotForwardOnly);
        }
        Ok(Rpq(TwoRpq::new(regex)))
    }

    /// Parse the textual syntax, rejecting inverse letters.
    pub fn parse(input: &str, alphabet: &mut Alphabet) -> Result<Rpq, RpqError> {
        let regex = parse(input, alphabet).map_err(RpqError::Parse)?;
        Rpq::new(regex)
    }

    /// The underlying two-way query (every RPQ is a 2RPQ).
    pub fn as_two_rpq(&self) -> &TwoRpq {
        &self.0
    }

    /// The query's regular expression.
    pub fn regex(&self) -> &Regex {
        self.0.regex()
    }

    /// The full answer `Q(D)`.
    pub fn evaluate(&self, db: &GraphDb) -> BTreeSet<(NodeId, NodeId)> {
        self.0.evaluate(db)
    }

    /// Objects reachable from `source` by a conforming path.
    pub fn evaluate_from(&self, db: &GraphDb, source: NodeId) -> BTreeSet<NodeId> {
        self.0.evaluate_from(db, source)
    }

    /// Whether `(x, y) ∈ Q(D)`.
    pub fn contains_pair(&self, db: &GraphDb, x: NodeId, y: NodeId) -> bool {
        self.0.contains_pair(db, x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_graph::generate;

    fn social() -> (GraphDb, NodeId, NodeId, NodeId, NodeId) {
        let mut db = GraphDb::new();
        let a = db.node("alice");
        let b = db.node("bob");
        let c = db.node("carol");
        let d = db.node("dave");
        let knows = db.label("knows");
        let works = db.label("worksAt");
        db.add_edge(a, knows, b);
        db.add_edge(b, knows, c);
        db.add_edge(c, knows, d);
        let acme = db.node("acme");
        db.add_edge(a, works, acme);
        db.add_edge(c, works, acme);
        (db, a, b, c, d)
    }

    #[test]
    fn rpq_plus_on_chain() {
        let (db, a, b, c, d) = social();
        let mut al = db.alphabet().clone();
        let q = Rpq::parse("knows+", &mut al).unwrap();
        let ans = q.evaluate(&db);
        assert!(ans.contains(&(a, b)));
        assert!(ans.contains(&(a, d)));
        assert!(ans.contains(&(b, d)));
        assert!(!ans.contains(&(d, a)));
        assert_eq!(ans.len(), 6);
        let _ = c;
    }

    #[test]
    fn rpq_star_includes_trivial_pairs() {
        let (db, a, ..) = social();
        let mut al = db.alphabet().clone();
        let q = Rpq::parse("knows*", &mut al).unwrap();
        let ans = q.evaluate(&db);
        // Every node is knows*-related to itself.
        for n in db.nodes() {
            assert!(ans.contains(&(n, n)));
        }
        assert!(ans.contains(&(a, a)));
    }

    #[test]
    fn two_rpq_coworker_query() {
        // Colleagues: worksAt . worksAt⁻ relates people sharing an employer.
        let (db, a, _, c, d) = social();
        let mut al = db.alphabet().clone();
        let q = TwoRpq::parse("worksAt worksAt-", &mut al).unwrap();
        let ans = q.evaluate(&db);
        assert!(ans.contains(&(a, c)));
        assert!(ans.contains(&(c, a)));
        assert!(ans.contains(&(a, a)));
        assert!(!ans.contains(&(a, d)));
    }

    #[test]
    fn rpq_rejects_inverse() {
        let mut al = Alphabet::new();
        assert!(matches!(
            Rpq::parse("a-", &mut al),
            Err(RpqError::NotForwardOnly)
        ));
        assert!(TwoRpq::parse("a-", &mut al).is_ok());
    }

    #[test]
    fn paper_pp_inverse_p_equals_p_on_databases() {
        // Q1 = p and Q2 = p p⁻ p answer the same pairs on every database
        // where p-edges exist — the motivating 2RPQ containment example.
        let (p_db, _, _, _, _) = {
            let db = generate::random_gnm(12, 20, &["p"], 99);
            (db, (), (), (), ())
        };
        let mut al = p_db.alphabet().clone();
        let q1 = TwoRpq::parse("p", &mut al).unwrap();
        let q2 = TwoRpq::parse("p p- p", &mut al).unwrap();
        let a1 = q1.evaluate(&p_db);
        let a2 = q2.evaluate(&p_db);
        // Q1 ⊑ Q2 (every p-edge folds back and forth).
        for pair in &a1 {
            assert!(a2.contains(pair), "missing {pair:?}");
        }
    }

    #[test]
    fn witness_semipath_is_valid_and_conforming() {
        let (db, a, _, _, d) = social();
        let mut al = db.alphabet().clone();
        let q = TwoRpq::parse("knows+", &mut al).unwrap();
        let sp = q.witness_semipath(&db, a, d).unwrap();
        assert!(sp.is_valid_in(&db));
        assert!(sp.conforms_to(q.nfa()));
        assert_eq!(sp.source(), a);
        assert_eq!(sp.target(), d);
        assert_eq!(sp.len(), 3, "BFS returns a shortest witness");
        assert!(q.witness_semipath(&db, d, a).is_none());
    }

    #[test]
    fn evaluate_from_matches_evaluate() {
        let db = generate::random_gnm(30, 60, &["r", "s"], 7);
        let mut al = db.alphabet().clone();
        let q = TwoRpq::parse("r(s-|r)*", &mut al).unwrap();
        let all = q.evaluate(&db);
        for x in db.nodes() {
            let from = q.evaluate_from(&db, x);
            for y in db.nodes() {
                assert_eq!(from.contains(&y), all.contains(&(x, y)));
            }
        }
    }

    #[test]
    fn nullable_queries_answer_diagonal() {
        let db = generate::chain(4, "r");
        let mut al = db.alphabet().clone();
        let q = TwoRpq::parse("r?", &mut al).unwrap();
        assert!(q.nullable());
        let ans = q.evaluate(&db);
        assert_eq!(ans.len(), 4 + 3); // diagonal + chain edges
    }

    #[test]
    fn inverse_query_swaps_answers() {
        let db = generate::random_gnm(15, 30, &["r", "s"], 13);
        let mut al = db.alphabet().clone();
        let q = TwoRpq::parse("r s- r", &mut al).unwrap();
        let qi = q.inverse();
        let a = q.evaluate(&db);
        let b = qi.evaluate(&db);
        assert_eq!(a.len(), b.len());
        for &(x, y) in &a {
            assert!(b.contains(&(y, x)));
        }
    }
}
