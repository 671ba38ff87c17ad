//! Canonical cache keys for 2RPQs.
//!
//! The semantic cache in `rq-engine` keys materialized answers by a
//! *canonical form* of the query so that syntactically different but
//! equivalent queries (`p`, `(p)`, `p | p`, `∅ | p`) share one entry. The
//! canonical form is the minimal complete DFA of the (folded-as-written)
//! regular language over Σ±, which is unique up to state numbering — we fix
//! the numbering by a BFS in sorted-letter order and serialize transitions
//! through label *names*, so the key is independent of both the regex's
//! syntax and the interning order of the alphabet.
//!
//! Two caveats keep this honest at serving time:
//!
//! * determinization is the paper's exponential step (§3.2), so
//!   [`canonical_key_governed`] meters it; callers fall back to the
//!   syntactic key ([`syntactic_key`]) on exhaustion, degrading the cache
//!   to exact-match rather than stalling the request path;
//! * the key canonicalizes the *language* of the expression, not its
//!   fold-closure — queries equivalent only over databases (like `p` and
//!   `p p- p`) get distinct keys and are instead related by the containment
//!   probes in [`crate::containment::facade`].
//!
//! [`CompiledQuery`] holds a query with everything the containment ladder
//! derives from it alone, so the cache, its probes and pre-flight build
//! those artefacts once per query instead of once per pair.

use crate::rpq::TwoRpq;
use rq_automata::governor::{expect_unlimited, Exhaustion, Governor};
use rq_automata::regex::simplify;
use rq_automata::simple::{classify, SimpleRe};
use rq_automata::{Alphabet, Dfa, Letter, Nfa, Regex};
use std::fmt::Write as _;

/// The canonical key of the empty-language query.
pub const EMPTY_KEY: &str = "dfa:empty";

/// Canonical key of `q` over `alphabet` (ungoverned; see
/// [`canonical_key_governed`] for the metered variant the engine uses).
pub fn canonical_key(q: &TwoRpq, alphabet: &Alphabet) -> String {
    expect_unlimited(canonical_key_governed(q, alphabet, &Governor::unlimited()))
}

/// Canonical key of `q`, with the subset construction metered by `gov`.
pub fn canonical_key_governed(
    q: &TwoRpq,
    alphabet: &Alphabet,
    gov: &Governor,
) -> Result<String, Exhaustion> {
    simplified_key(&simplify(q.regex()), alphabet, gov)
}

/// A query and its containment artefacts, built once by
/// [`CompiledQuery::new`]. The fields stay private so the artefacts can
/// only ever be the ones derived from `query`.
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    query: TwoRpq,
    /// The simplified regex.
    pub(crate) regex: Regex,
    /// The canonical key, or `None` when the key budget ran out.
    pub(crate) key: Option<String>,
    /// The simple-fragment class, or `None` outside the fragment.
    pub(crate) class: Option<SimpleRe>,
}

impl CompiledQuery {
    /// Simplify, key (metered by `gov`) and classify `q`.
    pub fn new(q: &TwoRpq, alphabet: &Alphabet, gov: &Governor) -> CompiledQuery {
        let regex = simplify(q.regex());
        CompiledQuery {
            query: q.clone(),
            key: simplified_key(&regex, alphabet, gov).ok(),
            class: classify(&regex).ok(),
            regex,
        }
    }

    /// The query as given.
    pub fn query(&self) -> &TwoRpq {
        &self.query
    }

    /// The cache key: the canonical key, or the syntactic key when the
    /// key budget ran out.
    pub fn cache_key(&self, alphabet: &Alphabet) -> String {
        self.key
            .clone()
            .unwrap_or_else(|| syntactic_key(&self.query, alphabet))
    }
}

/// Canonical key of an already simplified `regex`.
fn simplified_key(
    regex: &Regex,
    alphabet: &Alphabet,
    gov: &Governor,
) -> Result<String, Exhaustion> {
    if regex.is_empty_language() {
        return Ok(EMPTY_KEY.to_string());
    }
    // Sort the mentioned letters by (label name, direction) so the DFA's
    // column order — and hence the BFS renumbering below — is stable across
    // alphabets that intern the same names in different orders.
    let mut letters: Vec<Letter> = regex.letters().into_iter().collect();
    letters.sort_by_key(|l| (alphabet.name(l.label).to_string(), l.inverse));
    let nfa = Nfa::from_regex(regex).eliminate_epsilon().trim();
    let dfa = Dfa::determinize_governed(&nfa, &letters, gov)?.minimize();
    Ok(serialize(&dfa, alphabet))
}

/// The syntactic fallback key: the simplified regex rendered through label
/// names. Exact-match only, but never more expensive than simplification.
pub fn syntactic_key(q: &TwoRpq, alphabet: &Alphabet) -> String {
    format!("re:{}", simplify(q.regex()).display(alphabet))
}

/// Serialize a minimal complete DFA into a canonical string: states are
/// renumbered by BFS from the initial state in sorted-letter column order,
/// transitions into non-co-reachable (sink) states are dropped, and letters
/// are written as label names.
fn serialize(dfa: &Dfa, alphabet: &Alphabet) -> String {
    let n = dfa.num_states();
    // Co-reachable states: those from which some accepting state is
    // reachable. Dropping the rest erases the sink class `minimize`
    // materializes, so queries over different letter sets still agree.
    let mut live = vec![false; n];
    loop {
        let mut changed = false;
        for s in 0..n {
            if live[s] {
                continue;
            }
            let reaches = dfa.is_final(s)
                || (0..dfa.letters().len()).any(|k| {
                    let t = dfa.next_by_index(s, k);
                    t < n && live[t]
                });
            if reaches {
                live[s] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    if !live[dfa.initial()] {
        return EMPTY_KEY.to_string();
    }
    // BFS renumbering over live states only, in column (sorted-letter) order.
    let mut number = vec![usize::MAX; n];
    let mut order = vec![dfa.initial()];
    number[dfa.initial()] = 0;
    let mut i = 0;
    while i < order.len() {
        let s = order[i];
        for k in 0..dfa.letters().len() {
            let t = dfa.next_by_index(s, k);
            if t < n && live[t] && number[t] == usize::MAX {
                number[t] = order.len();
                order.push(t);
            }
        }
        i += 1;
    }
    let mut out = format!("dfa:{};", order.len());
    for (new, &s) in order.iter().enumerate() {
        if dfa.is_final(s) {
            let _ = write!(out, "f{new};");
        }
    }
    for &s in &order {
        for (k, &l) in dfa.letters().iter().enumerate() {
            let t = dfa.next_by_index(s, k);
            if t < n && live[t] {
                let _ = write!(
                    out,
                    "{}-{}{}>{};",
                    number[s],
                    alphabet.name(l.label),
                    if l.inverse { "~" } else { "" },
                    number[t]
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_automata::{Limits, Resource};

    fn key(s: &str, al: &mut Alphabet) -> String {
        canonical_key(&TwoRpq::parse(s, al).unwrap(), al)
    }

    #[test]
    fn equivalent_syntax_shares_a_key() {
        let mut al = Alphabet::new();
        let base = key("a b", &mut al);
        assert_eq!(key("(a)(b)", &mut al), base);
        assert_eq!(key("a b | a b", &mut al), base);
        assert_eq!(key("(a|a)b", &mut al), base);
        assert_ne!(key("b a", &mut al), base);
        assert_ne!(key("a b-", &mut al), base);
    }

    #[test]
    fn key_ignores_interning_order() {
        let mut al1 = Alphabet::from_names(["a", "b"]);
        let mut al2 = Alphabet::from_names(["z", "b", "a"]);
        assert_eq!(key("a* b", &mut al1), key("a* b", &mut al2));
    }

    #[test]
    fn star_unrollings_collapse() {
        let mut al = Alphabet::new();
        let base = key("a*", &mut al);
        assert_eq!(key("(a a)* a?", &mut al), base);
        assert_eq!(key("a* a*", &mut al), base);
        assert_ne!(key("a+", &mut al), base);
    }

    #[test]
    fn empty_language_is_the_empty_key() {
        let al = Alphabet::new();
        let q = TwoRpq::new(rq_automata::Regex::union([]));
        assert_eq!(canonical_key(&q, &al), EMPTY_KEY);
    }

    #[test]
    fn fold_equivalence_is_not_canonicalized() {
        // `p` and `p p- p` answer the same pairs on every database but have
        // different word languages — the cache finds them via containment
        // probes, not via the key.
        let mut al = Alphabet::new();
        assert_ne!(key("p", &mut al), key("p p- p", &mut al));
    }

    #[test]
    fn governed_key_exhausts_gracefully() {
        let mut al = Alphabet::new();
        let q = TwoRpq::parse("(a|b)(a|b)(a|b)(a|b)", &mut al).unwrap();
        let gov = Limits::unlimited().with_fuel(3).governor();
        let e = canonical_key_governed(&q, &al, &gov).unwrap_err();
        assert_eq!(e.resource, Resource::Fuel);
        // The fallback key is still available and deterministic.
        assert_eq!(syntactic_key(&q, &al), syntactic_key(&q, &al));
    }
}
