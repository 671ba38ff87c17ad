//! The query-containment checker suite.
//!
//! "Query containment is a key database-theoretic problem" (§1): `Q1 ⊑ Q2`
//! iff `Q1(D) ⊆ Q2(D)` for every database `D`. The checkers here follow
//! the paper's ladder:
//!
//! * [`rpq`] — Lemma 1, exact (PSPACE algorithm, on the fly); it also
//!   decides every 2RPQ pair whose right-hand side is one-way;
//! * [`two_rpq`] — Lemmas 2–4 / Theorem 5, exact (fold + two-way
//!   determinization, on the fly);
//! * [`uc2rpq`] — Theorem 6 territory (EXPSPACE-complete): a *budgeted
//!   exact* procedure;
//! * [`rq`] — Theorem 7 territory (2EXPSPACE-complete): likewise;
//! * GRQ containment (Theorem 8) reduces to [`rq`] via
//!   [`crate::translate`].
//!
//! Budgeted checkers never guess: [`Outcome::Contained`] carries a
//! [`Certificate`], [`Outcome::NotContained`] carries a concrete
//! counterexample database ([`Witness`]) that callers can re-verify by
//! evaluation, and exhausted budgets surface as [`Outcome::Unknown`].
//!
//! ## Example
//!
//! ```
//! use rq_automata::Alphabet;
//! use rq_core::rpq::TwoRpq;
//! use rq_core::containment::two_rpq;
//!
//! let mut al = Alphabet::new();
//! let p = TwoRpq::parse("p", &mut al).unwrap();
//! let zigzag = TwoRpq::parse("p p- p", &mut al).unwrap();
//! // The paper's flagship example: containment holds through folding.
//! assert!(two_rpq::check(&p, &zigzag, &al).is_contained());
//! // The converse fails, with a machine-checkable witness database.
//! let out = two_rpq::check(&zigzag, &p, &al);
//! let w = out.witness().unwrap();
//! assert!(zigzag.contains_pair(&w.db, w.tuple[0], w.tuple[1]));
//! assert!(!p.contains_pair(&w.db, w.tuple[0], w.tuple[1]));
//! ```

pub mod facade;
pub mod rpq;
pub mod rq;
pub mod two_rpq;
pub mod uc2rpq;

use rq_automata::{Alphabet, Counters, Exhaustion, Governor, Letter, Limits};
use rq_graph::{GraphDb, NodeId};
use std::fmt;

/// A concrete counterexample to a containment `Q1 ⊑ Q2`: a database and a
/// tuple in `Q1(db) − Q2(db)`.
#[derive(Debug, Clone)]
pub struct Witness {
    pub db: GraphDb,
    pub tuple: Vec<NodeId>,
    pub description: String,
}

/// Evidence for a `Contained` verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Certificate {
    /// Word-language containment `L(Q1) ⊆ L(Q2)` (Lemma 1).
    LanguageContainment { states_explored: usize },
    /// Fold-language containment `L(Q1) ⊆ fold(L(Q2))` (Lemma 2).
    FoldContainment { states_explored: usize },
    /// A per-disjunct homomorphism into atom paths with fold-containment
    /// on each mapped atom.
    Homomorphism { description: String },
    /// An inductive certificate for a transitive closure:
    /// `P ⊑ R` and `R ∘ P ⊑ R` imply `P⁺ ⊑ R`.
    Induction { description: String },
    /// The left query has the empty answer on every database.
    EmptyLeft,
}

/// A structured account of why a check gave up: the human-readable
/// reason, the governor budget that tripped (if one did), and the
/// counter snapshot — states explored, words enumerated, fuel spent,
/// elapsed wall-clock — at the moment the search stopped.
#[derive(Debug, Clone)]
pub struct ExhaustionReport {
    /// What the checker was missing (a proof, a counterexample, a budget).
    pub reason: String,
    /// The resource budget that ran out, when the stop was governor-driven.
    pub exhaustion: Option<Exhaustion>,
    /// Snapshot of the governor's counters when the search stopped.
    pub counters: Counters,
}

impl fmt::Display for ExhaustionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Exhaustion's own Display already embeds the counters.
        if self.exhaustion.is_none() && self.counters != Counters::default() {
            write!(f, "{}; {}", self.reason, self.counters)
        } else {
            f.write_str(&self.reason)
        }
    }
}

/// The verdict of a containment check.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// `Q1 ⊑ Q2`, with evidence.
    Contained(Certificate),
    /// `Q1 ⋢ Q2`, with a counterexample database.
    NotContained(Box<Witness>),
    /// The search budget was exhausted before either a certificate or a
    /// counterexample was found (the problem is EXPSPACE/2EXPSPACE-complete;
    /// raise the [`Config`] budgets to push further). Carries a structured
    /// [`ExhaustionReport`] with the search counters.
    Unknown(Box<ExhaustionReport>),
}

impl Outcome {
    /// An `Unknown` verdict with a reason but no search counters (used for
    /// precondition failures such as arity mismatches or translation
    /// errors, where no search ran).
    pub fn unknown(reason: impl Into<String>) -> Outcome {
        Outcome::Unknown(Box::new(ExhaustionReport {
            reason: reason.into(),
            exhaustion: None,
            counters: Counters::default(),
        }))
    }

    /// An `Unknown` verdict snapshotting `gov`'s counters: the search ran
    /// to completion within budget but was inconclusive.
    pub fn unknown_with(reason: impl Into<String>, gov: &Governor) -> Outcome {
        Outcome::Unknown(Box::new(ExhaustionReport {
            reason: reason.into(),
            exhaustion: None,
            counters: gov.counters(),
        }))
    }

    /// An `Unknown` verdict from a tripped resource budget.
    pub fn exhausted(e: Exhaustion) -> Outcome {
        Outcome::Unknown(Box::new(ExhaustionReport {
            reason: e.to_string(),
            counters: e.counters,
            exhaustion: Some(e),
        }))
    }

    /// The exhaustion report of an `Unknown` verdict.
    pub fn report(&self) -> Option<&ExhaustionReport> {
        match self {
            Outcome::Unknown(r) => Some(r),
            _ => None,
        }
    }
    /// `Some(true)` / `Some(false)` for definite verdicts, `None` for
    /// `Unknown`.
    pub fn decided(&self) -> Option<bool> {
        match self {
            Outcome::Contained(_) => Some(true),
            Outcome::NotContained(_) => Some(false),
            Outcome::Unknown(_) => None,
        }
    }

    /// Whether the verdict is `Contained`.
    pub fn is_contained(&self) -> bool {
        matches!(self, Outcome::Contained(_))
    }

    /// Whether the verdict is `NotContained`.
    pub fn is_not_contained(&self) -> bool {
        matches!(self, Outcome::NotContained(_))
    }

    /// Whether the verdict is `Unknown`.
    pub fn is_unknown(&self) -> bool {
        matches!(self, Outcome::Unknown(_))
    }

    /// The witness of a `NotContained` verdict.
    pub fn witness(&self) -> Option<&Witness> {
        match self {
            Outcome::NotContained(w) => Some(w),
            _ => None,
        }
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Outcome::Contained(c) => write!(f, "contained ({c:?})"),
            Outcome::NotContained(w) => write!(f, "not contained ({})", w.description),
            Outcome::Unknown(r) => write!(f, "unknown ({r})"),
        }
    }
}

/// Budgets for the hybrid (UC2RPQ / RQ) checkers.
///
/// Setting every budget to the theoretical bounds from [48] would make the
/// procedures complete; the defaults are laptop-scale and resolve all
/// non-adversarial instances in the test suite and benches.
#[derive(Debug, Clone)]
pub struct Config {
    /// Max word length enumerated per atom during expansion search.
    pub max_word_len: usize,
    /// Max words enumerated per atom.
    pub words_per_atom: usize,
    /// Max expansions per disjunct.
    pub max_expansions: usize,
    /// Max walk length tried by the homomorphism prover.
    pub max_hom_path_len: usize,
    /// Transitive-closure unrolling depth for RQ refutation.
    pub unfold_depth: usize,
    /// Max disjuncts produced by unfolding.
    pub unfold_budget: usize,
    /// Recursion guard for the inductive TC prover.
    pub induction_depth: usize,
    /// Ablation: disable the chain-collapse fast path (UC2RPQ checker).
    pub disable_chain_collapse: bool,
    /// Ablation: disable the homomorphism prover (UC2RPQ checker).
    pub disable_hom_prover: bool,
    /// Ablation: disable the inductive TC prover (RQ checker).
    pub disable_induction: bool,
    /// Resource budgets (fuel, states, wall-clock deadline) enforced by a
    /// [`Governor`] spawned per check. Unlimited by default; when a budget
    /// trips, the verdict is [`Outcome::Unknown`] with an
    /// [`ExhaustionReport`].
    pub limits: Limits,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            max_word_len: 4,
            words_per_atom: 24,
            max_expansions: 4000,
            max_hom_path_len: 4,
            unfold_depth: 3,
            unfold_budget: 3000,
            induction_depth: 2,
            disable_chain_collapse: false,
            disable_hom_prover: false,
            disable_induction: false,
            limits: Limits::unlimited(),
        }
    }
}

/// Build the canonical semipath database of a word `w` over `alphabet`:
/// nodes `n0..n|w|`, with the i-th edge forward (`nᵢ₋₁ → nᵢ`) for a plain
/// letter and backward (`nᵢ → nᵢ₋₁`) for an inverse letter. Returns the
/// database and the endpoint nodes.
///
/// This is the Lemma 2 construction: `Q` answers `(n0, n|w|)` on this
/// database iff `w ∈ fold(L(Q))`.
pub fn semipath_db(word: &[Letter], alphabet: &Alphabet) -> (GraphDb, NodeId, NodeId) {
    let mut db = GraphDb::with_alphabet(alphabet.clone());
    let first = db.node("n0");
    let mut prev = first;
    for (i, &l) in word.iter().enumerate() {
        let next = db.node(&format!("n{}", i + 1));
        if l.inverse {
            db.add_edge(next, l.label, prev);
        } else {
            db.add_edge(prev, l.label, next);
        }
        prev = next;
    }
    (db, first, prev)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rpq::TwoRpq;

    #[test]
    fn semipath_db_realizes_fold_semantics() {
        // On the semipath db of w = p p⁻ p, the query p answers the
        // endpoints (since p ∈ fold-language sense: p p⁻ p ∈ fold(L... the
        // other way: the db of w admits exactly the foldings of w as
        // endpoint-connecting semipaths.
        let mut al = Alphabet::new();
        let q2 = TwoRpq::parse("p p- p", &mut al).unwrap();
        let q1 = TwoRpq::parse("p", &mut al).unwrap();
        let p = al.get("p").unwrap();
        let w = vec![Letter::forward(p)];
        let (db, s, t) = semipath_db(&w, &al);
        // Single p-edge: both p and p p⁻ p answer (s, t).
        assert!(q1.contains_pair(&db, s, t));
        assert!(q2.contains_pair(&db, s, t));
        // On the semipath db of w = p p (two forward edges), p p⁻ p does
        // not answer the endpoints.
        let w = vec![Letter::forward(p), Letter::forward(p)];
        let (db, s, t) = semipath_db(&w, &al);
        assert!(!q2.contains_pair(&db, s, t));
    }

    #[test]
    fn semipath_db_with_inverse_letters() {
        let mut al = Alphabet::new();
        let p = al.intern("p");
        let w = vec![Letter::forward(p), Letter::backward(p)];
        let (db, s, t) = semipath_db(&w, &al);
        assert_eq!(db.num_nodes(), 3);
        assert_eq!(db.num_edges(), 2);
        let q = TwoRpq::parse("p p-", &mut al).unwrap();
        assert!(q.contains_pair(&db, s, t));
        let q = TwoRpq::parse("p p", &mut al).unwrap();
        assert!(!q.contains_pair(&db, s, t));
    }

    #[test]
    fn outcome_accessors() {
        let o = Outcome::Contained(Certificate::EmptyLeft);
        assert_eq!(o.decided(), Some(true));
        assert!(o.is_contained() && !o.is_unknown());
        let o = Outcome::unknown("budget");
        assert_eq!(o.decided(), None);
        assert!(o.witness().is_none());
        let r = o.report().expect("unknown carries a report");
        assert_eq!(r.reason, "budget");
        assert!(r.exhaustion.is_none());
    }

    #[test]
    fn exhausted_outcome_carries_the_report() {
        use rq_automata::Resource;
        let gov = Limits::unlimited().with_fuel(1).governor();
        gov.tick().unwrap();
        let e = gov.tick().unwrap_err();
        let o = Outcome::exhausted(e);
        assert!(o.is_unknown());
        let r = o.report().unwrap();
        assert_eq!(r.exhaustion.as_ref().unwrap().resource, Resource::Fuel);
        assert_eq!(r.counters.fuel_spent, 2);
        assert!(o.to_string().contains("fuel exhausted"), "{o}");
    }
}
