//! Semipaths: the semantic object behind 2RPQ answers.
//!
//! "A semipath in D from x to y (labeled with p₁⋯pₙ) is a sequence of the
//! form (y₀, p₁, y₁, …, yₙ₋₁, pₙ, yₙ) where … if pᵢ = r then
//! (yᵢ₋₁, yᵢ) ∈ r(D), and if pᵢ = r⁻ then (yᵢ, yᵢ₋₁) ∈ r(D)" (§3.1).
//! Objects on a semipath need not be distinct.

use crate::db::{GraphDb, NodeId};
use rq_automata::{Letter, Nfa};

/// A semipath: interleaved nodes and letters, `nodes.len() == word.len()+1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Semipath {
    nodes: Vec<NodeId>,
    word: Vec<Letter>,
}

impl Semipath {
    /// The trivial semipath at `node` (labeled ε).
    pub fn trivial(node: NodeId) -> Self {
        Semipath {
            nodes: vec![node],
            word: Vec::new(),
        }
    }

    /// Build from interleaved parts; panics unless
    /// `nodes.len() == word.len() + 1`.
    pub fn new(nodes: Vec<NodeId>, word: Vec<Letter>) -> Self {
        assert_eq!(nodes.len(), word.len() + 1, "malformed semipath");
        Semipath { nodes, word }
    }

    /// Source object `y₀`.
    pub fn source(&self) -> NodeId {
        self.nodes[0]
    }

    /// Target object `yₙ`.
    pub fn target(&self) -> NodeId {
        *self.nodes.last().expect("nonempty by construction")
    }

    /// The label word `p₁⋯pₙ`.
    pub fn word(&self) -> &[Letter] {
        &self.word
    }

    /// The visited objects `y₀…yₙ` (not necessarily distinct).
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Number of steps `n`.
    pub fn len(&self) -> usize {
        self.word.len()
    }

    /// Whether this is the trivial (ε-labeled) semipath.
    pub fn is_empty(&self) -> bool {
        self.word.is_empty()
    }

    /// Extend by one navigation step.
    pub fn extend(&mut self, letter: Letter, node: NodeId) {
        self.word.push(letter);
        self.nodes.push(node);
    }

    /// Whether every step is a real edge of `db` (forward for `r`,
    /// backward for `r⁻`).
    pub fn is_valid_in(&self, db: &GraphDb) -> bool {
        self.word.iter().enumerate().all(|(i, &p)| {
            let (from, to) = (self.nodes[i], self.nodes[i + 1]);
            if p.inverse {
                db.has_edge(to, p.label, from)
            } else {
                db.has_edge(from, p.label, to)
            }
        })
    }

    /// Whether the semipath conforms to the 2RPQ given as `nfa`
    /// (its word is in the automaton's language).
    pub fn conforms_to(&self, nfa: &Nfa) -> bool {
        nfa.accepts(&self.word)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_automata::regex::parse;
    use rq_automata::Alphabet;

    #[test]
    fn validity_checks_edge_directions() {
        let mut db = GraphDb::new();
        let x = db.node("x");
        let y = db.node("y");
        let p = db.label("p");
        db.add_edge(x, p, y);
        let lp = Letter::forward(p);

        // (x, p, y) is valid; (x, p⁻, y) is not; (y, p⁻, x) is.
        assert!(Semipath::new(vec![x, y], vec![lp]).is_valid_in(&db));
        assert!(!Semipath::new(vec![x, y], vec![lp.inv()]).is_valid_in(&db));
        assert!(Semipath::new(vec![y, x], vec![lp.inv()]).is_valid_in(&db));
    }

    #[test]
    fn paper_pp_inverse_p_semipath() {
        // The paper's observation: the edge p(x, y) yields the semipath
        // (x, p, y, p⁻, x, p, y) conforming to p p⁻ p.
        let mut db = GraphDb::new();
        let x = db.node("x");
        let y = db.node("y");
        let p = db.label("p");
        db.add_edge(x, p, y);
        let lp = Letter::forward(p);
        let sp = Semipath::new(vec![x, y, x, y], vec![lp, lp.inv(), lp]);
        assert!(sp.is_valid_in(&db));
        let mut al: Alphabet = db.alphabet().clone();
        let q2 = parse("p p- p", &mut al).unwrap();
        assert!(sp.conforms_to(&Nfa::from_regex(&q2)));
        assert_eq!(sp.source(), x);
        assert_eq!(sp.target(), y);
        assert_eq!(sp.len(), 3);
    }

    #[test]
    fn trivial_semipath() {
        let mut db = GraphDb::new();
        let x = db.node("x");
        let sp = Semipath::trivial(x);
        assert!(sp.is_empty());
        assert!(sp.is_valid_in(&db));
        assert_eq!(sp.source(), sp.target());
    }

    #[test]
    fn extend_builds_navigation() {
        let mut db = GraphDb::new();
        let x = db.node("x");
        let y = db.node("y");
        let r = db.label("r");
        db.add_edge(x, r, y);
        let mut sp = Semipath::trivial(x);
        sp.extend(Letter::forward(r), y);
        sp.extend(Letter::backward(r), x);
        assert!(sp.is_valid_in(&db));
        assert_eq!(sp.target(), x);
    }
}
