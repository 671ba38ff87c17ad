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
//!   [`CompiledQuery::new`] meters it; callers fall back to the
//!   syntactic key ([`syntactic_key`]) on exhaustion, degrading the cache
//!   to exact-match rather than stalling the request path;
//! * the key canonicalizes the *language* of the expression, not its
//!   fold-closure — queries equivalent only over databases (like `p` and
//!   `p p- p`) get distinct keys and are instead related by the containment
//!   probes in [`crate::containment::facade`].
//!
//! [`CompiledQuery`] holds a query with everything the containment ladder
//! derives from it alone, so the cache, its probes and pre-flight build
//! those artefacts once per query instead of once per pair. That includes
//! the trimmed minimal DFA the key serializes: the ladder's Lemma 1 rung
//! decides containment in a one-way query over it, and the engine
//! evaluates the query over it ([`CompiledQuery::automaton`]), with the
//! query's NFA as the fallback.

use crate::rpq::TwoRpq;
use rq_automata::dfa::DEAD;
use rq_automata::governor::{expect_unlimited, Exhaustion, Governor};
use rq_automata::regex::simplify;
use rq_automata::{Alphabet, Dfa, Letter, Nfa, Regex};
use std::borrow::Cow;
use std::fmt::Write as _;

/// The canonical key of the empty-language query.
pub const EMPTY_KEY: &str = "dfa:empty";

/// Canonical key of `q` over `alphabet`, unmetered. The engine keys
/// through [`CompiledQuery::new`], which meters the subset construction.
pub fn canonical_key(q: &TwoRpq, alphabet: &Alphabet) -> String {
    let gov = Governor::unlimited();
    expect_unlimited(simplified_key(&simplify(q.regex()), alphabet, &gov)).0
}

/// A query and its containment and evaluation artefacts, built once by
/// [`CompiledQuery::new`]. The fields stay private so the artefacts can
/// only ever be the ones derived from `query`.
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    query: TwoRpq,
    /// The simplified regex.
    pub(crate) regex: Regex,
    /// The canonical key, or `None` when the key budget ran out.
    pub(crate) key: Option<String>,
    /// The minimal DFA the key serializes, trimmed of its sink, or `None`
    /// when the key budget ran out or the language is empty.
    dfa: Option<Dfa>,
}

impl CompiledQuery {
    /// Simplify and key `q`, the key metered by `gov`.
    pub fn new(q: &TwoRpq, alphabet: &Alphabet, gov: &Governor) -> CompiledQuery {
        let regex = simplify(q.regex());
        let (key, dfa) = match simplified_key(&regex, alphabet, gov) {
            Ok((key, dfa)) => (Some(key), dfa),
            Err(_) => (None, None),
        };
        CompiledQuery {
            query: q.clone(),
            key,
            regex,
            dfa,
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
            .unwrap_or_else(|| render_syntactic(&self.regex, alphabet))
    }

    /// The canonical key with the trimmed minimal DFA it serializes: the
    /// stored pair, or, when the key budget ran out at compile time, a
    /// pair built now under `gov`.
    pub(crate) fn key_and_dfa(
        &self,
        alphabet: &Alphabet,
        gov: &Governor,
    ) -> Result<(Cow<'_, str>, Option<Cow<'_, Dfa>>), Exhaustion> {
        match &self.key {
            Some(key) => Ok((Cow::Borrowed(key), self.dfa.as_ref().map(Cow::Borrowed))),
            None => simplified_key(&self.regex, alphabet, gov)
                .map(|(key, dfa)| (Cow::Owned(key), dfa.map(Cow::Owned))),
        }
    }

    /// The automaton to evaluate the query over: the trimmed minimal DFA,
    /// as an ε-free [`Nfa`] (`Cow::Owned`), when it has no more
    /// transitions than the query's NFA; otherwise, or when there is no
    /// DFA, the query's NFA ([`TwoRpq::nfa`], `Cow::Borrowed`).
    pub fn automaton(&self) -> Cow<'_, Nfa> {
        let nfa = self.query.nfa();
        match self.dfa.as_ref().map(Dfa::to_nfa) {
            Some(dfa) if dfa.num_transitions() <= nfa.num_transitions() => Cow::Owned(dfa),
            _ => Cow::Borrowed(nfa),
        }
    }
}

/// Canonical key of an already simplified `regex`, with the trimmed
/// minimal DFA it serializes (`None` for the empty language).
fn simplified_key(
    regex: &Regex,
    alphabet: &Alphabet,
    gov: &Governor,
) -> Result<(String, Option<Dfa>), Exhaustion> {
    if regex.is_empty_language() {
        return Ok((EMPTY_KEY.to_string(), None));
    }
    // Sort the mentioned letters by (label name, direction) so the DFA's
    // column order — and hence the BFS renumbering of `Dfa::trim` — is
    // stable across alphabets that intern the same names in different
    // orders.
    let mut letters: Vec<Letter> = regex.letters().into_iter().collect();
    letters.sort_by_key(|l| (alphabet.name(l.label).to_string(), l.inverse));
    let nfa = Nfa::from_regex(regex).eliminate_epsilon().trim();
    let dfa = Dfa::determinize_governed(&nfa, &letters, gov)?
        .minimize()
        .trim();
    let key = dfa
        .as_ref()
        .map_or_else(|| EMPTY_KEY.to_string(), |d| serialize(d, alphabet));
    Ok((key, dfa))
}

/// The syntactic fallback key: the simplified regex rendered through label
/// names. Exact-match only, but never more expensive than simplification.
pub fn syntactic_key(q: &TwoRpq, alphabet: &Alphabet) -> String {
    render_syntactic(&simplify(q.regex()), alphabet)
}

/// The syntactic key of an already simplified `regex`.
fn render_syntactic(regex: &Regex, alphabet: &Alphabet) -> String {
    format!("re:{}", regex.display(alphabet))
}

/// Serialize a trimmed minimal DFA into a canonical string. [`Dfa::trim`]
/// has already dropped the sink — so queries over different letter sets
/// still agree — and numbered the states by BFS in sorted-letter column
/// order; letters are written as label names.
fn serialize(dfa: &Dfa, alphabet: &Alphabet) -> String {
    let n = dfa.num_states();
    let mut out = format!("dfa:{n};");
    for s in (0..n).filter(|&s| dfa.is_final(s)) {
        let _ = write!(out, "f{s};");
    }
    for s in 0..n {
        for (k, &l) in dfa.letters().iter().enumerate() {
            let t = dfa.next_by_index(s, k);
            if t != DEAD {
                let _ = write!(
                    out,
                    "{s}-{}{}>{t};",
                    alphabet.name(l.label),
                    if l.inverse { "~" } else { "" },
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
        let e = simplified_key(&simplify(q.regex()), &al, &gov).unwrap_err();
        assert_eq!(e.resource, Resource::Fuel);
        // The fallback key is still available and deterministic.
        assert_eq!(syntactic_key(&q, &al), syntactic_key(&q, &al));
    }

    #[test]
    fn starved_compile_keys_by_its_simplified_regex() {
        let mut al = Alphabet::new();
        // Simplification rewrites this text, so the fallback key must be
        // the stored simplified regex, rendered as `syntactic_key` does.
        let q = TwoRpq::parse("((a|b)(a|b)(a|b)(a|b) | ε)+", &mut al).unwrap();
        let starved = Limits::unlimited().with_fuel(1).governor();
        let compiled = CompiledQuery::new(&q, &al, &starved);
        assert!(compiled.key.is_none());
        assert_eq!(compiled.cache_key(&al), syntactic_key(&q, &al));
        assert_ne!(q.regex(), &compiled.regex, "the text simplifies");
    }

    #[test]
    fn evaluation_runs_the_smaller_minimal_dfa() {
        use rq_graph::{frontier, generate};
        let db = generate::random_gnm(60, 180, &["a", "b"], 7);
        let mut al = db.alphabet().clone();
        // A cold-eval-shaped chain: the Thompson NFA keeps a state per
        // union branch that the minimal DFA merges.
        let q = TwoRpq::parse("a (a|b) (b|a-) (a|b) b-", &mut al).unwrap();
        let compiled = CompiledQuery::new(&q, &al, &Governor::unlimited());
        let dfa = compiled.automaton();
        assert!(matches!(dfa, Cow::Owned(_)), "the DFA is evaluated");
        assert!(
            dfa.num_states() < q.nfa().num_states(),
            "{} DFA states vs {} NFA states",
            dfa.num_states(),
            q.nfa().num_states()
        );
        let all_pairs = |nfa: &Nfa| {
            let gov = Governor::unlimited();
            let answer = frontier::all_pairs_governed(&db, nfa, &gov).unwrap();
            (answer, gov.fuel_spent())
        };
        let (dfa_answer, dfa_fuel) = all_pairs(&dfa);
        let (nfa_answer, nfa_fuel) = all_pairs(q.nfa());
        assert!(!nfa_answer.is_empty());
        assert_eq!(dfa_answer, nfa_answer);
        assert!(dfa_fuel < nfa_fuel, "fuel {dfa_fuel} vs {nfa_fuel}");
    }

    #[test]
    fn exhausted_or_empty_keys_evaluate_the_nfa() {
        let mut al = Alphabet::new();
        let q = TwoRpq::parse("(a|b)(a|b)(a|b)(a|b)", &mut al).unwrap();
        let starved = Limits::unlimited().with_fuel(1).governor();
        let compiled = CompiledQuery::new(&q, &al, &starved);
        assert!(compiled.key.is_none());
        assert!(matches!(compiled.automaton(), Cow::Borrowed(n) if n == q.nfa()));
        let empty = TwoRpq::new(Regex::union([]));
        let compiled = CompiledQuery::new(&empty, &al, &Governor::unlimited());
        assert_eq!(compiled.key.as_deref(), Some(EMPTY_KEY));
        assert!(matches!(compiled.automaton(), Cow::Borrowed(_)));
    }
}
