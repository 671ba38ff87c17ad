//! Canonical databases (expansions) of conjunctive 2RPQs.
//!
//! The database-theoretic half of the containment machinery: a C2RPQ
//! `φ` is contained in a query `Q2` iff for *every* expansion of `φ` —
//! replace each atom `κ(x, y)` by a fresh semipath spelling some word of
//! `L(κ)` — the distinguished tuple is in `Q2`'s answer on the expansion
//! (UC2RPQ and RQ answers are preserved under homomorphisms, and the
//! expansions are exactly the canonical databases). The refutation side of
//! the hybrid checkers enumerates expansions; any failure is a *sound*
//! counterexample.

use crate::crpq::C2Rpq;
use rq_automata::{Alphabet, Letter};
use rq_graph::{GraphDb, NodeId};
use std::collections::BTreeMap;

/// An expansion of a C2RPQ: the canonical graph database built from one
/// word choice per atom, plus the node images of the head variables.
///
/// The expansion shares the query's alphabet, so any query over the same
/// alphabet evaluates on it directly.
#[derive(Debug, Clone)]
pub struct Expansion {
    pub db: GraphDb,
    pub head_nodes: Vec<NodeId>,
    /// The word chosen for each atom (for diagnostics).
    pub words: Vec<Vec<Letter>>,
}

/// Build the expansion of `conjunct` for the given per-atom words, over
/// the query's `alphabet`.
///
/// Empty words equate their atom's endpoints: variables are merged with a
/// union–find before materializing nodes (the ε-semipath is a single
/// object). Inverse letters produce backward edges, so the fresh path is a
/// semipath spelling exactly the chosen word.
///
/// Returns `None` if `words.len() != conjunct.atoms.len()`.
pub fn expand(conjunct: &C2Rpq, words: &[Vec<Letter>], alphabet: &Alphabet) -> Option<Expansion> {
    if words.len() != conjunct.atoms.len() {
        return None;
    }
    // Union–find over variable names for ε-words.
    let vars: Vec<String> = conjunct
        .variables()
        .into_iter()
        .map(str::to_owned)
        .collect();
    let mut parent: BTreeMap<&str, &str> = vars.iter().map(|v| (v.as_str(), v.as_str())).collect();
    fn find<'a>(parent: &BTreeMap<&'a str, &'a str>, mut v: &'a str) -> &'a str {
        while parent[v] != v {
            v = parent[v];
        }
        v
    }
    for (atom, word) in conjunct.atoms.iter().zip(words) {
        if word.is_empty() {
            let a = find(&parent, atom.from.as_str());
            let b = find(&parent, atom.to.as_str());
            if a != b {
                parent.insert(a, b);
            }
        }
    }

    let mut db = GraphDb::with_alphabet(alphabet.clone());
    let mut node_of: BTreeMap<&str, NodeId> = BTreeMap::new();
    for v in &vars {
        let rep = find(&parent, v.as_str());
        if !node_of.contains_key(rep) {
            let n = db.node(&format!("var_{rep}"));
            node_of.insert(rep, n);
        }
        let n = node_of[rep];
        node_of.insert(v.as_str(), n);
    }

    for (i, (atom, word)) in conjunct.atoms.iter().zip(words).enumerate() {
        let start = node_of[atom.from.as_str()];
        let end = node_of[atom.to.as_str()];
        if word.is_empty() {
            debug_assert_eq!(start, end, "union–find merged ε endpoints");
            continue;
        }
        // Fresh interior nodes per atom.
        let mut cur = start;
        for (j, &l) in word.iter().enumerate() {
            let next = if j + 1 == word.len() {
                end
            } else {
                db.node(&format!("p{i}_{j}"))
            };
            if l.inverse {
                db.add_edge(next, l.label, cur);
            } else {
                db.add_edge(cur, l.label, next);
            }
            cur = next;
        }
    }
    let head_nodes = conjunct.head.iter().map(|h| node_of[h.as_str()]).collect();
    Some(Expansion {
        db,
        head_nodes,
        words: words.to_vec(),
    })
}

/// Enumerate per-atom word choices: the shortlex words of each atom's
/// language (up to `max_len`, at most `words_per_atom` each), combined as
/// a cartesian product capped at `max_expansions` total.
pub fn enumerate_word_choices(
    conjunct: &C2Rpq,
    max_len: usize,
    words_per_atom: usize,
    max_expansions: usize,
) -> Vec<Vec<Vec<Letter>>> {
    let per_atom: Vec<Vec<Vec<Letter>>> = conjunct
        .atoms
        .iter()
        .map(|a| a.rel.nfa().enumerate_words(max_len, words_per_atom))
        .collect();
    if per_atom.iter().any(Vec::is_empty) {
        return Vec::new(); // some atom has an empty language: no expansions
    }
    let mut out: Vec<Vec<Vec<Letter>>> = vec![Vec::new()];
    for choices in &per_atom {
        let mut next = Vec::new();
        for prefix in &out {
            for w in choices {
                let mut p = prefix.clone();
                p.push(w.clone());
                next.push(p);
                if next.len() >= max_expansions {
                    break;
                }
            }
            if next.len() >= max_expansions {
                break;
            }
        }
        out = next;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rpq::TwoRpq;

    fn atom_words(re: &str, al: &mut Alphabet, max: usize) -> Vec<Vec<Letter>> {
        TwoRpq::parse(re, al)
            .unwrap()
            .nfa()
            .enumerate_words(max, 100)
    }

    #[test]
    fn expansion_of_simple_path() {
        let mut al = Alphabet::new();
        let q = C2Rpq::parse(&["x", "y"], &[("a b", "x", "y")], &mut al).unwrap();
        let words = vec![atom_words("a b", &mut al.clone(), 3)[0].clone()];
        let e = expand(&q, &words, &al).unwrap();
        assert_eq!(e.db.num_nodes(), 3); // x, one interior, y
        assert_eq!(e.db.num_edges(), 2);
        assert_eq!(e.head_nodes.len(), 2);
        assert_ne!(e.head_nodes[0], e.head_nodes[1]);
    }

    #[test]
    fn empty_word_merges_endpoints() {
        let mut al = Alphabet::new();
        let q = C2Rpq::parse(&["x", "y"], &[("a*", "x", "y"), ("b", "x", "z")], &mut al).unwrap();
        let words = vec![vec![], atom_words("b", &mut al.clone(), 1)[0].clone()];
        let e = expand(&q, &words, &al).unwrap();
        // x and y merged; z separate.
        assert_eq!(e.head_nodes[0], e.head_nodes[1]);
        assert_eq!(e.db.num_nodes(), 2);
    }

    #[test]
    fn inverse_letters_make_backward_edges() {
        let mut al = Alphabet::new();
        let q = C2Rpq::parse(&["x", "y"], &[("a-", "x", "y")], &mut al).unwrap();
        let a = al.get("a").unwrap();
        let words = vec![vec![Letter::backward(a)]];
        let e = expand(&q, &words, &al).unwrap();
        // Edge points from y's node to x's node.
        let edges: Vec<_> = e.db.edges(a).collect();
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0], (e.head_nodes[1], e.head_nodes[0]));
    }

    #[test]
    fn expansion_satisfies_its_conjunct() {
        // The defining property: the head tuple is an answer of the
        // conjunct on its own expansion.
        let mut al = Alphabet::new();
        let q = C2Rpq::parse(
            &["x", "z"],
            &[("a+", "x", "y"), ("b c-", "y", "z")],
            &mut al,
        )
        .unwrap();
        let choices = enumerate_word_choices(&q, 3, 5, 50);
        assert!(!choices.is_empty());
        for words in choices {
            let e = expand(&q, &words, &al).unwrap();
            let ans = q.evaluate(&e.db);
            assert!(
                ans.contains(&e.head_nodes),
                "expansion must satisfy its conjunct: words={words:?}"
            );
        }
    }

    #[test]
    fn enumerate_word_choices_respects_caps() {
        let mut al = Alphabet::new();
        let q = C2Rpq::parse(&["x", "y"], &[("a*", "x", "y"), ("b*", "x", "y")], &mut al).unwrap();
        let choices = enumerate_word_choices(&q, 5, 4, 9);
        assert!(choices.len() <= 9);
        assert!(!choices.is_empty());
        // Empty-language atom yields no expansions.
        let q = C2Rpq::parse(&["x", "y"], &[("∅", "x", "y")], &mut al).unwrap();
        assert!(enumerate_word_choices(&q, 5, 4, 9).is_empty());
    }
}
