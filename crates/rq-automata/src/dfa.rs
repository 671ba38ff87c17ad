//! Deterministic finite automata and the subset construction.
//!
//! The paper's complementation step (§3.2 step 2) "involves an exponential
//! blow-up, as complementation requires an application of the subset
//! construction". Both the eager construction ([`Dfa::determinize`]) and
//! the lazy, on-the-fly variant ([`LazyDeterminizer`]) are provided; the
//! containment algorithms use the lazy one to stay in polynomial space in
//! practice (E1 measures the difference).

use crate::alphabet::Letter;
use crate::governor::{expect_unlimited, Exhaustion, Governor};
use crate::nfa::{Nfa, State};
use std::collections::{BTreeSet, HashMap, VecDeque};

/// Sentinel for a missing transition in a (possibly incomplete) DFA.
pub const DEAD: usize = usize::MAX;

/// A deterministic finite automaton over an explicit letter list.
///
/// Transitions are stored densely: `transitions[state][letter_index]`.
/// Missing transitions ([`DEAD`]) mean "reject"; call [`Dfa::complete`] to
/// materialize an explicit sink state instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dfa {
    letters: Vec<Letter>,
    transitions: Vec<Vec<usize>>,
    initial: usize,
    finals: Vec<bool>,
}

impl Dfa {
    /// Eagerly determinize `nfa` over exactly `letters` (the DFA's alphabet;
    /// transitions of `nfa` on letters outside the list are ignored).
    pub fn determinize(nfa: &Nfa, letters: &[Letter]) -> Dfa {
        expect_unlimited(Dfa::determinize_governed(
            nfa,
            letters,
            &Governor::unlimited(),
        ))
    }

    /// [`Dfa::determinize`] under a resource [`Governor`]: every subset
    /// state constructed is metered, every `(state, letter)` expansion
    /// spends one fuel, and the deadline/cancellation flag is polled
    /// periodically. The subset construction is the paper's exponential
    /// step (§3.2), so this is where budgets matter most.
    pub fn determinize_governed(
        nfa: &Nfa,
        letters: &[Letter],
        gov: &Governor,
    ) -> Result<Dfa, Exhaustion> {
        let nfa = nfa.epsilon_free();
        let start: BTreeSet<State> = nfa.epsilon_closure(nfa.initial_states());
        let mut index: HashMap<BTreeSet<State>, usize> = HashMap::new();
        let mut sets: Vec<BTreeSet<State>> = vec![start.clone()];
        index.insert(start, 0);
        gov.construct_state()?;
        let mut transitions: Vec<Vec<usize>> = Vec::new();
        let mut i = 0;
        while i < sets.len() {
            let mut row = vec![DEAD; letters.len()];
            for (k, &l) in letters.iter().enumerate() {
                gov.tick()?;
                let mut next = BTreeSet::new();
                for &s in &sets[i] {
                    for &(tl, t) in nfa.transitions_from(s) {
                        if tl == l {
                            next.insert(t);
                        }
                    }
                }
                if next.is_empty() {
                    continue;
                }
                let id = match index.get(&next) {
                    Some(&id) => id,
                    None => {
                        gov.construct_state()?;
                        sets.push(next.clone());
                        index.insert(next, sets.len() - 1);
                        sets.len() - 1
                    }
                };
                row[k] = id;
            }
            transitions.push(row);
            i += 1;
        }
        let finals = sets
            .iter()
            .map(|set| set.iter().any(|&s| nfa.is_final(s)))
            .collect();
        Ok(Dfa {
            letters: letters.to_vec(),
            transitions,
            initial: 0,
            finals,
        })
    }

    /// The DFA's letter list (column order of the transition table).
    pub fn letters(&self) -> &[Letter] {
        &self.letters
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.transitions.len()
    }

    /// The initial state.
    pub fn initial(&self) -> usize {
        self.initial
    }

    /// Whether `s` is accepting.
    pub fn is_final(&self, s: usize) -> bool {
        self.finals[s]
    }

    /// The successor of `s` on `letter`, or [`DEAD`].
    pub fn next(&self, s: usize, letter: Letter) -> usize {
        match self.letters.iter().position(|&l| l == letter) {
            Some(k) => self.transitions[s][k],
            None => DEAD,
        }
    }

    /// Successor by letter *index* (faster when iterating the alphabet).
    pub fn next_by_index(&self, s: usize, letter_index: usize) -> usize {
        self.transitions[s][letter_index]
    }

    /// Whether `word ∈ L(self)` (letters outside the alphabet reject).
    pub fn accepts(&self, word: &[Letter]) -> bool {
        let mut s = self.initial;
        for &l in word {
            s = self.next(s, l);
            if s == DEAD {
                return false;
            }
        }
        self.finals[s]
    }

    /// Make the DFA complete by adding an explicit non-accepting sink.
    pub fn complete(&self) -> Dfa {
        if self
            .transitions
            .iter()
            .all(|row| row.iter().all(|&t| t != DEAD))
        {
            return self.clone();
        }
        let mut out = self.clone();
        let sink = out.transitions.len();
        out.transitions.push(vec![sink; out.letters.len()]);
        out.finals.push(false);
        for row in &mut out.transitions {
            for t in row.iter_mut() {
                if *t == DEAD {
                    *t = sink;
                }
            }
        }
        out
    }

    /// The complement DFA over the same letter list: `L' = letters* − L`.
    pub fn complement(&self) -> Dfa {
        let mut out = self.complete();
        for f in &mut out.finals {
            *f = !*f;
        }
        out
    }

    /// The product DFA accepting `L(self) ∩ L(other)`.
    ///
    /// Both automata must share the same letter list.
    pub fn intersect(&self, other: &Dfa) -> Dfa {
        assert_eq!(
            self.letters, other.letters,
            "product requires equal alphabets"
        );
        let a = self.complete();
        let b = other.complete();
        let mut index: HashMap<(usize, usize), usize> = HashMap::new();
        let mut pairs = vec![(a.initial, b.initial)];
        index.insert((a.initial, b.initial), 0);
        let mut transitions = Vec::new();
        let mut finals = Vec::new();
        let mut i = 0;
        while i < pairs.len() {
            let (x, y) = pairs[i];
            finals.push(a.finals[x] && b.finals[y]);
            let mut row = Vec::with_capacity(a.letters.len());
            for k in 0..a.letters.len() {
                let np = (a.transitions[x][k], b.transitions[y][k]);
                let id = *index.entry(np).or_insert_with(|| {
                    pairs.push(np);
                    pairs.len() - 1
                });
                row.push(id);
            }
            transitions.push(row);
            i += 1;
        }
        Dfa {
            letters: a.letters,
            transitions,
            initial: 0,
            finals,
        }
    }

    /// Whether `L(self) = ∅`.
    pub fn is_empty(&self) -> bool {
        // BFS from the initial state looking for an accepting state.
        let mut seen = vec![false; self.num_states()];
        let mut queue = VecDeque::from([self.initial]);
        seen[self.initial] = true;
        while let Some(s) = queue.pop_front() {
            if self.finals[s] {
                return false;
            }
            for &t in &self.transitions[s] {
                if t != DEAD && !seen[t] {
                    seen[t] = true;
                    queue.push_back(t);
                }
            }
        }
        true
    }

    /// Convert back to an NFA (for uniform downstream APIs).
    pub fn to_nfa(&self) -> Nfa {
        let mut out = Nfa::with_states(self.num_states());
        for (s, row) in self.transitions.iter().enumerate() {
            for (k, &t) in row.iter().enumerate() {
                if t != DEAD {
                    out.add_transition(s, self.letters[k], t);
                }
            }
        }
        out.set_initial(self.initial);
        for (s, &f) in self.finals.iter().enumerate() {
            if f {
                out.set_final(s);
            }
        }
        out
    }

    /// Minimize by Moore partition refinement (states unreachable from the
    /// initial state are dropped first). The result is the canonical minimal
    /// complete DFA for the language, up to state numbering.
    pub fn minimize(&self) -> Dfa {
        let d = self.complete();
        // Keep only reachable states.
        let mut reach = vec![false; d.num_states()];
        let mut queue = VecDeque::from([d.initial]);
        reach[d.initial] = true;
        while let Some(s) = queue.pop_front() {
            for &t in &d.transitions[s] {
                if !reach[t] {
                    reach[t] = true;
                    queue.push_back(t);
                }
            }
        }
        let states: Vec<usize> = (0..d.num_states()).filter(|&s| reach[s]).collect();
        // Initial partition: accepting vs not.
        let mut class = vec![0usize; d.num_states()];
        for &s in &states {
            class[s] = usize::from(d.finals[s]);
        }
        let mut num_classes = 2;
        loop {
            // Signature of a state: (class, classes of successors).
            let mut sig_index: HashMap<(usize, Vec<usize>), usize> = HashMap::new();
            let mut new_class = vec![0usize; d.num_states()];
            for &s in &states {
                let sig = (
                    class[s],
                    d.transitions[s]
                        .iter()
                        .map(|&t| class[t])
                        .collect::<Vec<_>>(),
                );
                let next = sig_index.len();
                let id = *sig_index.entry(sig).or_insert(next);
                new_class[s] = id;
            }
            let new_count = sig_index.len();
            class = new_class;
            if new_count == num_classes {
                break;
            }
            num_classes = new_count;
        }
        // Build the quotient.
        let mut transitions = vec![vec![DEAD; d.letters.len()]; num_classes];
        let mut finals = vec![false; num_classes];
        for &s in &states {
            let c = class[s];
            finals[c] = d.finals[s];
            for (k, &t) in d.transitions[s].iter().enumerate() {
                transitions[c][k] = class[t];
            }
        }
        Dfa {
            letters: d.letters,
            transitions,
            initial: class[d.initial],
            finals,
        }
    }

    /// Drop every state that cannot reach an accepting state (such as the
    /// sink [`Dfa::minimize`] materializes), making transitions into them
    /// [`DEAD`], and renumber the rest by BFS from the initial state in
    /// letter-list order. `None` when `L(self) = ∅`. On a minimal DFA the
    /// result depends only on the language and the letter list.
    pub fn trim(mut self) -> Option<Dfa> {
        let n = self.num_states();
        // Co-reachability by fixpoint: the DFAs trimmed here are small.
        let mut live = self.finals.clone();
        loop {
            let mut changed = false;
            for s in 0..n {
                if !live[s] && self.transitions[s].iter().any(|&t| t != DEAD && live[t]) {
                    live[s] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        if !live[self.initial] {
            return None;
        }
        let mut number = vec![DEAD; n];
        number[self.initial] = 0;
        let mut order = vec![self.initial];
        let mut i = 0;
        while i < order.len() {
            for &t in &self.transitions[order[i]] {
                if t != DEAD && live[t] && number[t] == DEAD {
                    number[t] = order.len();
                    order.push(t);
                }
            }
            i += 1;
        }
        let transitions = order
            .iter()
            .map(|&s| {
                let mut row = std::mem::take(&mut self.transitions[s]);
                for t in row.iter_mut().filter(|t| **t != DEAD) {
                    *t = number[*t];
                }
                row
            })
            .collect();
        Some(Dfa {
            letters: self.letters,
            transitions,
            initial: 0,
            finals: order.iter().map(|&s| self.finals[s]).collect(),
        })
    }

    /// Language equivalence via minimization and isomorphism of canonical
    /// forms (both DFAs must share the same letter list).
    pub fn equivalent(&self, other: &Dfa) -> bool {
        assert_eq!(
            self.letters, other.letters,
            "equivalence requires equal alphabets"
        );
        let a = self.minimize();
        let b = other.minimize();
        if a.num_states() != b.num_states() {
            return false;
        }
        // Parallel walk from the initial states; the canonical DFAs are
        // isomorphic iff the languages agree.
        let mut map = vec![DEAD; a.num_states()];
        let mut queue = VecDeque::from([(a.initial, b.initial)]);
        map[a.initial] = b.initial;
        while let Some((x, y)) = queue.pop_front() {
            if a.finals[x] != b.finals[y] {
                return false;
            }
            for k in 0..a.letters.len() {
                let (nx, ny) = (a.transitions[x][k], b.transitions[y][k]);
                if map[nx] == DEAD {
                    map[nx] = ny;
                    queue.push_back((nx, ny));
                } else if map[nx] != ny {
                    return false;
                }
            }
        }
        true
    }
}

/// On-the-fly subset construction over a borrowed NFA.
///
/// States are discovered and memoized on demand; this is the "construct A on
/// the fly" device that lets the paper's containment algorithm run in
/// polynomial space (§3.2): callers explore only the subset states an actual
/// search touches.
pub struct LazyDeterminizer<'a> {
    nfa: &'a Nfa,
    sets: Vec<BTreeSet<State>>,
    index: HashMap<BTreeSet<State>, usize>,
    /// Memoized successors: `succ[state][letter] -> Option<usize>`.
    succ: Vec<HashMap<Letter, Option<usize>>>,
    /// Meters subset-state construction when present ([`Self::try_next`]).
    gov: Option<&'a Governor>,
}

impl<'a> LazyDeterminizer<'a> {
    /// Start a lazy determinization of `nfa` (which must be ε-free; call
    /// [`Nfa::eliminate_epsilon`] first — enforced by assertion).
    pub fn new(nfa: &'a Nfa) -> Self {
        assert!(
            !nfa.has_epsilon(),
            "LazyDeterminizer requires an ε-free NFA"
        );
        let start: BTreeSet<State> = nfa.initial_states().collect();
        let mut index = HashMap::new();
        index.insert(start.clone(), 0);
        LazyDeterminizer {
            nfa,
            sets: vec![start],
            index,
            succ: vec![HashMap::new()],
            gov: None,
        }
    }

    /// Like [`LazyDeterminizer::new`], but every subset state discovered by
    /// [`Self::try_next`] is charged to `gov` as a constructed state.
    pub fn new_governed(nfa: &'a Nfa, gov: &'a Governor) -> Result<Self, Exhaustion> {
        gov.construct_state()?;
        let mut det = LazyDeterminizer::new(nfa);
        det.gov = Some(gov);
        Ok(det)
    }

    /// The initial DFA state.
    pub fn initial(&self) -> usize {
        0
    }

    /// Number of subset states materialized so far.
    pub fn discovered(&self) -> usize {
        self.sets.len()
    }

    /// Whether DFA state `s` is accepting.
    pub fn is_final(&self, s: usize) -> bool {
        self.sets[s].iter().any(|&q| self.nfa.is_final(q))
    }

    /// The successor of `s` on `letter`; `None` is the dead (reject) state.
    pub fn next(&mut self, s: usize, letter: Letter) -> Option<usize> {
        expect_unlimited(self.next_impl(s, letter, None))
    }

    /// [`Self::next`] under the governor supplied at construction
    /// ([`Self::new_governed`]): charges one constructed state per fresh
    /// subset state. Without a governor this is exactly [`Self::next`].
    pub fn try_next(&mut self, s: usize, letter: Letter) -> Result<Option<usize>, Exhaustion> {
        let gov = self.gov;
        self.next_impl(s, letter, gov)
    }

    fn next_impl(
        &mut self,
        s: usize,
        letter: Letter,
        gov: Option<&Governor>,
    ) -> Result<Option<usize>, Exhaustion> {
        if let Some(&cached) = self.succ[s].get(&letter) {
            return Ok(cached);
        }
        let mut next = BTreeSet::new();
        for &q in &self.sets[s] {
            for &(l, t) in self.nfa.transitions_from(q) {
                if l == letter {
                    next.insert(t);
                }
            }
        }
        let result = if next.is_empty() {
            None
        } else if let Some(&id) = self.index.get(&next) {
            Some(id)
        } else {
            if let Some(g) = gov {
                g.construct_state()?;
            }
            let id = self.sets.len();
            self.index.insert(next.clone(), id);
            self.sets.push(next);
            self.succ.push(HashMap::new());
            Some(id)
        };
        self.succ[s].insert(letter, result);
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::regex::parse;

    fn setup(s: &str) -> (Nfa, Vec<Letter>, Alphabet) {
        let mut a = Alphabet::new();
        let e = parse(s, &mut a).unwrap();
        let n = Nfa::from_regex(&e);
        let letters: Vec<Letter> = a.sigma_pm().collect();
        (n, letters, a)
    }

    #[test]
    fn determinize_preserves_language() {
        for s in ["a(b|c)*", "(a|b)*abb", "a?b?c?", "p p- p"] {
            let (n, letters, _) = setup(s);
            let d = Dfa::determinize(&n, &letters);
            for word in n.enumerate_words(5, 500) {
                assert!(d.accepts(&word), "{s}");
            }
            assert_eq!(
                n.count_words_per_length(5),
                d.to_nfa().count_words_per_length(5),
                "{s}"
            );
        }
    }

    #[test]
    fn complement_flips_membership() {
        let (n, letters, _) = setup("(a|b)*a");
        let d = Dfa::determinize(&n, &letters);
        let c = d.complement();
        // Every word over {a,b} of length <= 4 is in exactly one language.
        let sigma: Vec<Letter> = letters.iter().copied().filter(|l| !l.inverse).collect();
        let mut all: Vec<Vec<Letter>> = vec![vec![]];
        let mut frontier: Vec<Vec<Letter>> = vec![vec![]];
        for _ in 0..4 {
            let mut next = Vec::new();
            for w in &frontier {
                for &l in &sigma {
                    let mut w2 = w.clone();
                    w2.push(l);
                    next.push(w2);
                }
            }
            all.extend(next.iter().cloned());
            frontier = next;
        }
        for w in &all {
            assert_ne!(d.accepts(w), c.accepts(w));
        }
    }

    #[test]
    fn intersect_is_intersection() {
        let (n1, letters, _) = setup("(a|b)*a");
        let mut a2 = Alphabet::from_names(["a", "b"]);
        let e2 = parse("a(a|b)*", &mut a2).unwrap();
        let n2 = Nfa::from_regex(&e2);
        let d1 = Dfa::determinize(&n1, &letters);
        let d2 = Dfa::determinize(&n2, &letters);
        let i = d1.intersect(&d2);
        for w in n1.enumerate_words(4, 100) {
            assert_eq!(i.accepts(&w), d2.accepts(&w));
        }
        for w in n2.enumerate_words(4, 100) {
            assert_eq!(i.accepts(&w), d1.accepts(&w));
        }
    }

    #[test]
    fn minimize_is_minimal_for_known_case() {
        // (a|b)*abb needs exactly 4 states (plus possibly a sink; complete
        // DFA over {a,b} has 4 states, no sink needed).
        let (n, _, a) = setup("(a|b)*a.b.b");
        let sigma: Vec<Letter> = a.sigma().collect();
        let d = Dfa::determinize(&n, &sigma);
        let m = d.minimize();
        assert_eq!(m.num_states(), 4);
        assert!(d.equivalent(&m));
    }

    #[test]
    fn trim_drops_the_sink_and_keeps_the_language() {
        let (n, _, a) = setup("a.b");
        let sigma: Vec<Letter> = a.sigma().collect();
        let m = Dfa::determinize(&n, &sigma).minimize();
        let t = m.clone().trim().expect("nonempty language");
        // `a b` over {a, b}: three live states plus the sink.
        assert_eq!((m.num_states(), t.num_states()), (4, 3));
        assert_eq!(t.initial(), 0);
        for w in n.enumerate_words(4, 100) {
            assert!(t.accepts(&w));
        }
        assert!(!t.accepts(&[sigma[1]]));
        assert!(t.complete().equivalent(&m));
        let (n, letters, _) = setup("∅");
        assert!(Dfa::determinize(&n, &letters).minimize().trim().is_none());
    }

    #[test]
    fn equivalence_detects_difference() {
        let (n1, _, a) = setup("(a b)*");
        let sigma: Vec<Letter> = a.sigma().collect();
        let mut a2 = a.clone();
        let e2 = parse("(a b)*a b", &mut a2).unwrap();
        let n2 = Nfa::from_regex(&e2);
        let d1 = Dfa::determinize(&n1, &sigma);
        let d2 = Dfa::determinize(&n2, &sigma);
        assert!(!d1.equivalent(&d2));
        // But (a|b)* and (b|a)* are equivalent.
        let e3 = parse("(b|a)*", &mut a2).unwrap();
        let e4 = parse("(a|b)*", &mut a2).unwrap();
        let d3 = Dfa::determinize(&Nfa::from_regex(&e3), &sigma);
        let d4 = Dfa::determinize(&Nfa::from_regex(&e4), &sigma);
        assert!(d3.equivalent(&d4));
    }

    #[test]
    fn is_empty_works() {
        let (n, letters, _) = setup("∅");
        assert!(Dfa::determinize(&n, &letters).is_empty());
        let (n, letters, _) = setup("a*");
        assert!(!Dfa::determinize(&n, &letters).is_empty());
    }

    #[test]
    fn lazy_matches_eager() {
        let (n, letters, _) = setup("(a|b)*a.b.b");
        let ne = n.eliminate_epsilon().trim();
        let mut lazy = LazyDeterminizer::new(&ne);
        let eager = Dfa::determinize(&ne, &letters);
        // Walk a few words through both.
        for word in n.enumerate_words(6, 200) {
            let mut ls = Some(lazy.initial());
            let mut es = eager.initial();
            for &l in &word {
                ls = ls.and_then(|s| lazy.next(s, l));
                es = eager.next(es, l);
            }
            let lacc = ls.map(|s| lazy.is_final(s)).unwrap_or(false);
            let eacc = es != DEAD && eager.is_final(es);
            assert_eq!(lacc, eacc);
            assert!(lacc, "both must accept enumerated words");
        }
        assert!(lazy.discovered() <= eager.num_states() + 1);
    }
}
