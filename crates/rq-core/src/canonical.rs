//! Canonical cache keys for 2RPQs.
//!
//! The semantic cache in `rq-engine` keys materialized answers by a
//! *canonical form* of the query so that syntactically different but
//! equivalent queries (`p`, `(p)`, `p | p`, `∅ | p`) share one entry. The
//! canonical form is the minimal complete DFA of the (folded-as-written)
//! regular language over Σ±, which is unique up to state numbering — we fix
//! the numbering by a BFS in sorted-letter order and serialize transitions
//! through label *names*, so the key is independent of both the regex's
//! syntax and the interning order of the alphabet. It is built by
//! determinizing the query's own ε-free NFA ([`TwoRpq::nfa`]); no regex
//! rewriting runs first.
//!
//! Two caveats keep this honest at serving time:
//!
//! * determinization is the paper's exponential step (§3.2), so
//!   [`CompiledQuery::new`] meters it; on exhaustion the key falls back to
//!   `re:` plus the query's regex as written, degrading the cache to
//!   exact-match rather than stalling the request path;
//! * the key canonicalizes the *language* of the expression, not its
//!   fold-closure — queries equivalent only over databases (like `p` and
//!   `p p- p`) get distinct keys and are instead related by the containment
//!   probes in [`crate::containment::facade`].
//!
//! [`CompiledQuery`] holds a query with everything the containment ladder
//! and the engine derive from it alone, so the cache, its probes and
//! pre-flight build those artefacts once per query instead of once per
//! pair: the cache key, the trimmed minimal DFA the key serializes (the
//! ladder's Lemma 1 rung decides containment in a one-way query over it),
//! the automaton the engine evaluates the query over
//! ([`CompiledQuery::automaton`]), and — on first use — the few shortest
//! words of its language that the ladder's sample rung tests
//! ([`CompiledQuery::sample_words`]).

use crate::rpq::TwoRpq;
use rq_automata::dfa::DEAD;
use rq_automata::governor::Governor;
use rq_automata::{Alphabet, Dfa, Letter, Nfa};
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};

/// The canonical key of the empty-language query.
pub const EMPTY_KEY: &str = "dfa:empty";

/// At most this many words of `L(Q)` are kept for the sample rung.
pub const SAMPLE_WORDS: usize = 16;

/// The longest word, in letters, kept for the sample rung.
pub const SAMPLE_WORD_LEN: usize = 12;

/// A query and its containment and evaluation artefacts, built once by
/// [`CompiledQuery::new`]. The fields stay private so the artefacts can
/// only ever be the ones derived from `query`.
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    query: TwoRpq,
    /// The canonical key, or `re:` plus the query's regex when the key
    /// budget ran out.
    key: String,
    /// The minimal DFA the key serializes, trimmed of its sink, or `None`
    /// when the key budget ran out or the language is empty.
    pub(crate) dfa: Option<Dfa>,
    /// The automaton evaluation runs over: the DFA as an NFA when it has
    /// no more transitions than the query's NFA, otherwise the query's NFA.
    automaton: Arc<Nfa>,
    /// Whether `automaton` is the DFA.
    evaluates_dfa: bool,
    /// The shortlex words of [`CompiledQuery::sample_words`], enumerated
    /// on first use.
    words: OnceLock<Vec<Vec<Letter>>>,
}

impl CompiledQuery {
    /// Compile `q`: determinize its NFA under `gov` into the canonical key
    /// and the trimmed minimal DFA, and choose its evaluation automaton.
    pub fn new(q: &TwoRpq, alphabet: &Alphabet, gov: &Governor) -> CompiledQuery {
        let nfa = q.nfa();
        // Sort the letters the NFA reads by (label name, direction) so the
        // DFA's column order — and hence the BFS renumbering of
        // `Dfa::trim` — is stable across alphabets that intern the same
        // names in different orders.
        let mut letters: Vec<Letter> = nfa.letters().into_iter().collect();
        letters.sort_by_key(|l| (alphabet.name(l.label).to_string(), l.inverse));
        let (key, dfa) = if q.regex().is_empty_language() {
            (EMPTY_KEY.to_string(), None)
        } else {
            match Dfa::determinize_governed(nfa, &letters, gov) {
                Ok(dfa) => {
                    let dfa = dfa.minimize().trim();
                    let key = dfa
                        .as_ref()
                        .map_or_else(|| EMPTY_KEY.to_string(), |d| serialize(d, alphabet));
                    (key, dfa)
                }
                Err(_) => (format!("re:{}", q.regex().display(alphabet)), None),
            }
        };
        let (automaton, evaluates_dfa) = match dfa.as_ref().map(Dfa::to_nfa) {
            Some(d) if d.num_transitions() <= nfa.num_transitions() => (d, true),
            _ => (nfa.clone(), false),
        };
        CompiledQuery {
            query: q.clone(),
            key,
            dfa,
            automaton: Arc::new(automaton),
            evaluates_dfa,
            words: OnceLock::new(),
        }
    }

    /// The query as given.
    pub fn query(&self) -> &TwoRpq {
        &self.query
    }

    /// The cache key: the canonical key, or `re:` plus the query's regex
    /// when the key budget ran out.
    pub fn cache_key(&self) -> &str {
        &self.key
    }

    /// The ε-free automaton to evaluate the query over, chosen at compile
    /// time: the trimmed minimal DFA when it has no more transitions than
    /// the query's NFA ([`TwoRpq::nfa`]), otherwise that NFA.
    pub fn automaton(&self) -> &Arc<Nfa> {
        &self.automaton
    }

    /// The first [`SAMPLE_WORDS`] words of `L(Q)` in shortlex order, none
    /// longer than [`SAMPLE_WORD_LEN`] letters (fewer when the language has
    /// fewer). They are enumerated from [`CompiledQuery::automaton`] on the
    /// first call and kept, so a query that is never the left-hand side of
    /// a sample rung never pays for them.
    pub fn sample_words(&self) -> &[Vec<Letter>] {
        self.words.get_or_init(|| {
            self.automaton
                .enumerate_words(SAMPLE_WORD_LEN, SAMPLE_WORDS)
        })
    }

    /// Which automaton [`CompiledQuery::automaton`] is: `"dfa"` or `"nfa"`.
    pub fn automaton_kind(&self) -> &'static str {
        if self.evaluates_dfa {
            "dfa"
        } else {
            "nfa"
        }
    }
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
    use rq_automata::{Limits, Regex};

    fn compile(q: &TwoRpq, al: &Alphabet) -> CompiledQuery {
        CompiledQuery::new(q, al, &Governor::unlimited())
    }

    fn key(s: &str, al: &mut Alphabet) -> String {
        let q = TwoRpq::parse(s, al).unwrap();
        compile(&q, al).cache_key().to_string()
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
        let q = TwoRpq::new(Regex::union([]));
        assert_eq!(compile(&q, &al).cache_key(), EMPTY_KEY);
        // Even a budget that affords no subset state keys ∅ canonically.
        let starved = Limits::unlimited().with_fuel(0).governor();
        assert_eq!(CompiledQuery::new(&q, &al, &starved).cache_key(), EMPTY_KEY);
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
        let starve = || Limits::unlimited().with_fuel(3).governor();
        let compiled = CompiledQuery::new(&q, &al, &starve());
        assert!(compiled.dfa.is_none());
        assert!(compiled.cache_key().starts_with("re:"));
        // The fallback key is deterministic.
        let again = CompiledQuery::new(&q, &al, &starve());
        assert_eq!(compiled.cache_key(), again.cache_key());
    }

    #[test]
    fn starved_compile_keys_by_its_own_regex() {
        let mut al = Alphabet::new();
        // The fallback key is the query's regex as written, not a
        // rewritten form of it.
        let text = "((a|b)(a|b)(a|b)(a|b) | ε)+";
        let q = TwoRpq::parse(text, &mut al).unwrap();
        let starved = Limits::unlimited().with_fuel(1).governor();
        let compiled = CompiledQuery::new(&q, &al, &starved);
        assert_eq!(
            compiled.cache_key(),
            format!("re:{}", q.regex().display(&al))
        );
        let simplified = TwoRpq::new(rq_automata::regex::simplify(q.regex()));
        assert_ne!(q.regex(), simplified.regex(), "the text simplifies");
        let starved = Limits::unlimited().with_fuel(1).governor();
        let other = CompiledQuery::new(&simplified, &al, &starved);
        assert_ne!(compiled.cache_key(), other.cache_key());
    }

    #[test]
    fn evaluation_runs_the_smaller_minimal_dfa() {
        use rq_graph::{frontier, generate};
        let db = generate::random_gnm(60, 180, &["a", "b"], 7);
        let mut al = db.alphabet().clone();
        // A cold-eval-shaped chain: the Thompson NFA keeps a state per
        // union branch that the minimal DFA merges.
        let q = TwoRpq::parse("a (a|b) (b|a-) (a|b) b-", &mut al).unwrap();
        let compiled = compile(&q, &al);
        assert_eq!(compiled.automaton_kind(), "dfa", "the DFA is evaluated");
        let dfa = compiled.automaton();
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
        let (dfa_answer, dfa_fuel) = all_pairs(dfa);
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
        assert!(compiled.cache_key().starts_with("re:"));
        assert_eq!(compiled.automaton_kind(), "nfa");
        assert_eq!(**compiled.automaton(), *q.nfa());
        let empty = TwoRpq::new(Regex::union([]));
        let compiled = compile(&empty, &al);
        assert_eq!(compiled.cache_key(), EMPTY_KEY);
        assert_eq!(compiled.automaton_kind(), "nfa");
    }

    #[test]
    fn sample_words_are_the_capped_shortlex_prefix_of_the_language() {
        let mut al = Alphabet::new();
        let q = TwoRpq::parse("a b- | (a|b)+ c", &mut al).unwrap();
        let compiled = compile(&q, &al);
        let words = compiled.sample_words();
        assert_eq!(
            words,
            q.nfa().enumerate_words(SAMPLE_WORD_LEN, SAMPLE_WORDS)
        );
        assert_eq!(words.len(), SAMPLE_WORDS);
        assert!(words.iter().all(|w| q.nfa().accepts(w)));
        // Kept: a second call returns the same stored words.
        assert!(std::ptr::eq(words, compiled.sample_words()));
        // No word of a long chain fits under the length cap.
        let long = TwoRpq::parse(&"(a|b) ".repeat(SAMPLE_WORD_LEN + 1), &mut al).unwrap();
        assert!(compile(&long, &al).sample_words().is_empty());
    }
}
