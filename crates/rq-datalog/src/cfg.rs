//! Context-free grammars and the Shmueli reduction.
//!
//! "The syntactic similarity of Datalog programs and context-free grammars
//! suggests that the containment problem for context-free grammars can be
//! reduced to the containment problem for Datalog, implying undecidability
//! [52]" (§2.3). This module makes that reduction executable:
//!
//! * [`Grammar`] — ε-free context-free grammars;
//! * [`Grammar::to_datalog`] — the *chain program* of a grammar: each
//!   production `A → X₁…Xₖ` becomes `A(x₀,xₖ) :- X₁(x₀,x₁), …, Xₖ(xₖ₋₁,xₖ)`,
//!   with terminals as EDB edge predicates;
//! * [`chain_db`] — the chain database of a word, on which the chain
//!   program answers `(first, last)` iff the grammar derives the word;
//! * [`bounded_containment`] — compare `L(G1) ⊆ L(G2)` on all words up to a
//!   length bound (a semi-decision witness for the undecidable problem).

use crate::ast::{Atom, Program, Query, Rule};
use crate::relation::FactDb;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A grammar symbol.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Sym {
    /// A terminal (edge label in the chain encoding). Lowercase by
    /// convention.
    Terminal(String),
    /// A nonterminal. Uppercase by convention.
    NonTerminal(String),
}

/// An ε-free context-free grammar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grammar {
    pub start: String,
    pub productions: Vec<(String, Vec<Sym>)>,
}

/// Error building a grammar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GrammarError {
    /// ε-productions are not supported by the chain encoding.
    EpsilonProduction { nonterminal: String },
    /// The start symbol has no productions.
    UselessStart,
}

impl fmt::Display for GrammarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GrammarError::EpsilonProduction { nonterminal } => {
                write!(
                    f,
                    "ε-production for {nonterminal} (chain encoding requires ε-free grammars)"
                )
            }
            GrammarError::UselessStart => write!(f, "start symbol has no productions"),
        }
    }
}

impl std::error::Error for GrammarError {}

impl Grammar {
    /// Build and validate a grammar.
    pub fn new(
        start: impl Into<String>,
        productions: Vec<(String, Vec<Sym>)>,
    ) -> Result<Grammar, GrammarError> {
        let start = start.into();
        for (nt, rhs) in &productions {
            if rhs.is_empty() {
                return Err(GrammarError::EpsilonProduction {
                    nonterminal: nt.clone(),
                });
            }
        }
        if !productions.iter().any(|(nt, _)| *nt == start) {
            return Err(GrammarError::UselessStart);
        }
        Ok(Grammar { start, productions })
    }

    /// The terminal alphabet.
    pub fn terminals(&self) -> BTreeSet<&str> {
        self.productions
            .iter()
            .flat_map(|(_, rhs)| rhs.iter())
            .filter_map(|s| match s {
                Sym::Terminal(t) => Some(t.as_str()),
                Sym::NonTerminal(_) => None,
            })
            .collect()
    }

    /// The Shmueli chain program: a Datalog query whose answer on
    /// [`chain_db`]`(w)` contains the chain's endpoints iff `w ∈ L(G)`.
    ///
    /// Nonterminal names are prefixed with `Nt_` so they never collide
    /// with terminal (EDB) predicates.
    pub fn to_datalog(&self) -> Query {
        let nt_pred = |nt: &str| format!("Nt_{nt}");
        let mut rules = Vec::new();
        for (nt, rhs) in &self.productions {
            let vars: Vec<String> = (0..=rhs.len()).map(|i| format!("X{i}")).collect();
            let head = Atom::new(
                nt_pred(nt),
                &[&vars[0], &vars[rhs.len()]].map(|s| s as &str),
            );
            let body = rhs
                .iter()
                .enumerate()
                .map(|(i, sym)| {
                    let pred = match sym {
                        Sym::Terminal(t) => t.clone(),
                        Sym::NonTerminal(n) => nt_pred(n),
                    };
                    Atom::new(pred, &[vars[i].as_str(), vars[i + 1].as_str()])
                })
                .collect();
            rules.push(Rule::new(head, body));
        }
        Query::new(Program::new(rules), nt_pred(&self.start))
    }

    /// All words of `L(G)` of length ≤ `max_len`, by fixpoint over
    /// per-nonterminal word sets (exact, since the grammar is ε-free).
    pub fn language_up_to(&self, max_len: usize) -> BTreeSet<Vec<String>> {
        let mut words: BTreeMap<&str, BTreeSet<Vec<String>>> = BTreeMap::new();
        for (nt, _) in &self.productions {
            words.entry(nt).or_default();
        }
        loop {
            let mut changed = false;
            for (nt, rhs) in &self.productions {
                // Concatenate the word sets of rhs symbols, capped at
                // max_len.
                let mut partial: Vec<Vec<String>> = vec![Vec::new()];
                for sym in rhs {
                    let mut next = Vec::new();
                    match sym {
                        Sym::Terminal(t) => {
                            for w in &partial {
                                if w.len() < max_len {
                                    let mut w2 = w.clone();
                                    w2.push(t.clone());
                                    next.push(w2);
                                }
                            }
                        }
                        Sym::NonTerminal(n) => {
                            if let Some(set) = words.get(n.as_str()) {
                                for w in &partial {
                                    for s in set {
                                        if w.len() + s.len() <= max_len {
                                            let mut w2 = w.clone();
                                            w2.extend(s.iter().cloned());
                                            next.push(w2);
                                        }
                                    }
                                }
                            }
                        }
                    }
                    partial = next;
                    if partial.is_empty() {
                        break;
                    }
                }
                let set = words.get_mut(nt.as_str()).expect("seeded above");
                for w in partial {
                    if set.insert(w) {
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        words.remove(self.start.as_str()).unwrap_or_default()
    }

    /// Whether `word ∈ L(G)`, by evaluating the chain program on the
    /// word's chain database.
    pub fn derives(&self, word: &[&str]) -> bool {
        if word.is_empty() {
            return false; // ε-free grammars never derive ε
        }
        let q = self.to_datalog();
        let db = chain_db(word);
        let rel = crate::eval::evaluate(&q, &db);
        let first = db.find_value("n0").expect("chain_db interns n0");
        let last = db
            .find_value(&format!("n{}", word.len()))
            .expect("chain_db interns the last node");
        rel.contains(&[first, last])
    }
}

/// The chain database of `word`: nodes `n0..n|w|` and a fact
/// `wᵢ(nᵢ₋₁, nᵢ)` per position.
pub fn chain_db(word: &[&str]) -> FactDb {
    let mut db = FactDb::new();
    db.value("n0");
    for (i, t) in word.iter().enumerate() {
        db.add_fact(t, &[&format!("n{i}"), &format!("n{}", i + 1)]);
    }
    db
}

/// Compare `L(g1) ⊆ L(g2)` on all words of length ≤ `max_len`; returns a
/// counterexample word if one exists within the bound, `None` otherwise.
///
/// This is a *bounded* check: the full problem is undecidable, which is
/// exactly the paper's point about full Datalog containment.
pub fn bounded_containment(g1: &Grammar, g2: &Grammar, max_len: usize) -> Option<Vec<String>> {
    let l1 = g1.language_up_to(max_len);
    let l2 = g2.language_up_to(max_len);
    l1.into_iter().find(|w| !l2.contains(w))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: &str) -> Sym {
        Sym::Terminal(s.into())
    }
    fn n(s: &str) -> Sym {
        Sym::NonTerminal(s.into())
    }

    /// S → a S b | a b  (the language aⁿbⁿ).
    fn anbn() -> Grammar {
        Grammar::new(
            "S",
            vec![
                ("S".into(), vec![t("a"), n("S"), t("b")]),
                ("S".into(), vec![t("a"), t("b")]),
            ],
        )
        .unwrap()
    }

    /// S → a S | b S | a | b  (all nonempty words over {a,b}).
    fn sigma_plus() -> Grammar {
        Grammar::new(
            "S",
            vec![
                ("S".into(), vec![t("a"), n("S")]),
                ("S".into(), vec![t("b"), n("S")]),
                ("S".into(), vec![t("a")]),
                ("S".into(), vec![t("b")]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn language_enumeration() {
        let g = anbn();
        let l = g.language_up_to(6);
        assert!(l.contains(&vec!["a".to_string(), "b".to_string()]));
        assert!(l.contains(&vec!["a".into(), "a".into(), "b".into(), "b".into()]));
        assert!(!l.contains(&vec!["a".into(), "b".into(), "a".into(), "b".into()]));
        assert_eq!(l.len(), 3); // ab, aabb, aaabbb
    }

    #[test]
    fn derives_matches_enumeration() {
        let g = anbn();
        assert!(g.derives(&["a", "b"]));
        assert!(g.derives(&["a", "a", "b", "b"]));
        assert!(!g.derives(&["a", "b", "b"]));
        assert!(!g.derives(&["b", "a"]));
        assert!(!g.derives(&[]));
    }

    #[test]
    fn chain_program_shape() {
        let g = anbn();
        let q = g.to_datalog();
        assert_eq!(q.goal, "Nt_S");
        assert_eq!(q.program.rules.len(), 2);
        // A → a S b gives a 3-atom body chain.
        assert_eq!(q.program.rules[0].body.len(), 3);
        assert!(crate::validate::validate_query(&q).is_ok());
    }

    #[test]
    fn bounded_containment_finds_counterexamples() {
        // aⁿbⁿ ⊆ Σ⁺ holds on any bound; Σ⁺ ⊄ aⁿbⁿ with witness of length 1.
        assert_eq!(bounded_containment(&anbn(), &sigma_plus(), 8), None);
        let ce = bounded_containment(&sigma_plus(), &anbn(), 8).unwrap();
        assert!(ce.len() <= 2);
        // The chain programs agree with the grammar-level answer.
        let g1 = sigma_plus();
        let g2 = anbn();
        let ce_refs: Vec<&str> = ce.iter().map(String::as_str).collect();
        assert!(g1.derives(&ce_refs));
        assert!(!g2.derives(&ce_refs));
    }

    #[test]
    fn epsilon_productions_rejected() {
        let err = Grammar::new("S", vec![("S".into(), vec![])]).unwrap_err();
        assert!(matches!(err, GrammarError::EpsilonProduction { .. }));
    }

    #[test]
    fn datalog_equivalence_with_grammar_on_random_words() {
        // Cross-validate the two semantics on every word over {a,b} of
        // length ≤ 5.
        let g = anbn();
        let mut words: Vec<Vec<&str>> = vec![vec![]];
        let mut frontier: Vec<Vec<&str>> = vec![vec![]];
        for _ in 0..5 {
            let mut next = Vec::new();
            for w in &frontier {
                for s in ["a", "b"] {
                    let mut w2 = w.clone();
                    w2.push(s);
                    next.push(w2);
                }
            }
            words.extend(next.iter().cloned());
            frontier = next;
        }
        let lang = g.language_up_to(5);
        for w in words {
            if w.is_empty() {
                continue;
            }
            let in_lang = lang.contains(&w.iter().map(|s| s.to_string()).collect::<Vec<_>>());
            assert_eq!(g.derives(&w), in_lang, "word {w:?}");
        }
    }
}
