//! Nondeterministic finite automata over Σ±.
//!
//! The paper's containment algorithms (§3.2) start by converting regular
//! expressions to NFAs ("this step involves a linear blow-up"); this module
//! provides that Thompson construction plus the standard toolbox:
//! ε-elimination, trimming, reversal, boolean combinators, membership,
//! emptiness with witness, and shortlex language enumeration (used by the
//! expansion-search refutation engine in `rq-core`).

use crate::alphabet::Letter;
use crate::regex::Regex;
use std::borrow::Cow;
use std::collections::{BTreeSet, VecDeque};

/// State index within an [`Nfa`].
pub type State = usize;

/// A nondeterministic finite automaton with optional ε-transitions.
///
/// States are dense indices `0..num_states()`. Multiple initial states are
/// allowed (convenient for unions and subset products).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Nfa {
    transitions: Vec<Vec<(Letter, State)>>,
    epsilon: Vec<Vec<State>>,
    initial: BTreeSet<State>,
    finals: BTreeSet<State>,
}

impl Nfa {
    /// An automaton with `n` states and no transitions.
    pub fn with_states(n: usize) -> Self {
        Nfa {
            transitions: vec![Vec::new(); n],
            epsilon: vec![Vec::new(); n],
            initial: BTreeSet::new(),
            finals: BTreeSet::new(),
        }
    }

    /// Add a fresh state, returning its index.
    pub fn add_state(&mut self) -> State {
        self.transitions.push(Vec::new());
        self.epsilon.push(Vec::new());
        self.transitions.len() - 1
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.transitions.len()
    }

    /// Add a transition `from --letter--> to`.
    pub fn add_transition(&mut self, from: State, letter: Letter, to: State) {
        if !self.transitions[from].contains(&(letter, to)) {
            self.transitions[from].push((letter, to));
        }
    }

    /// Add an ε-transition `from --ε--> to`.
    pub fn add_epsilon(&mut self, from: State, to: State) {
        if from != to && !self.epsilon[from].contains(&to) {
            self.epsilon[from].push(to);
        }
    }

    /// Mark `s` initial.
    pub fn set_initial(&mut self, s: State) {
        self.initial.insert(s);
    }

    /// Mark `s` final.
    pub fn set_final(&mut self, s: State) {
        self.finals.insert(s);
    }

    /// The initial states.
    pub fn initial_states(&self) -> impl Iterator<Item = State> + '_ {
        self.initial.iter().copied()
    }

    /// The final states.
    pub fn final_states(&self) -> impl Iterator<Item = State> + '_ {
        self.finals.iter().copied()
    }

    /// Whether `s` is final.
    pub fn is_final(&self, s: State) -> bool {
        self.finals.contains(&s)
    }

    /// Letter transitions out of `s`.
    pub fn transitions_from(&self, s: State) -> &[(Letter, State)] {
        &self.transitions[s]
    }

    /// Number of letter transitions.
    pub fn num_transitions(&self) -> usize {
        self.transitions.iter().map(Vec::len).sum()
    }

    /// Whether the automaton has any ε-transitions.
    pub fn has_epsilon(&self) -> bool {
        self.epsilon.iter().any(|v| !v.is_empty())
    }

    /// The set of letters occurring on transitions (the effective alphabet).
    pub fn letters(&self) -> BTreeSet<Letter> {
        self.transitions
            .iter()
            .flat_map(|v| v.iter().map(|&(l, _)| l))
            .collect()
    }

    /// ε-closure of a set of states.
    pub fn epsilon_closure(&self, states: impl IntoIterator<Item = State>) -> BTreeSet<State> {
        let mut out: BTreeSet<State> = states.into_iter().collect();
        let mut stack: Vec<State> = out.iter().copied().collect();
        while let Some(s) = stack.pop() {
            for &t in &self.epsilon[s] {
                if out.insert(t) {
                    stack.push(t);
                }
            }
        }
        out
    }

    /// Successors of a state set on `letter` (without closing under ε).
    fn step(&self, states: &BTreeSet<State>, letter: Letter) -> BTreeSet<State> {
        let mut out = BTreeSet::new();
        for &s in states {
            for &(l, t) in &self.transitions[s] {
                if l == letter {
                    out.insert(t);
                }
            }
        }
        out
    }

    /// Whether `word ∈ L(self)` (subset simulation; handles ε).
    pub fn accepts(&self, word: &[Letter]) -> bool {
        let mut current = self.epsilon_closure(self.initial.iter().copied());
        for &l in word {
            if current.is_empty() {
                return false;
            }
            current = self.epsilon_closure(self.step(&current, l));
        }
        current.iter().any(|s| self.finals.contains(s))
    }

    /// [`Nfa::accepts`] under a resource [`Governor`]: each simulation step
    /// spends one fuel unit per active state, so adversarially long words
    /// (or wide subset frontiers) respect fuel/deadline budgets. Used by
    /// the serving engine's cache-filtering membership re-checks.
    pub fn accepts_governed(
        &self,
        word: &[Letter],
        gov: &crate::governor::Governor,
    ) -> Result<bool, crate::governor::Exhaustion> {
        let mut current = self.epsilon_closure(self.initial.iter().copied());
        for &l in word {
            if current.is_empty() {
                return Ok(false);
            }
            gov.spend(current.len() as u64)?;
            current = self.epsilon_closure(self.step(&current, l));
        }
        Ok(current.iter().any(|s| self.finals.contains(s)))
    }

    // ------------------------------------------------------------------
    // Thompson construction
    // ------------------------------------------------------------------

    /// Build an NFA for `regex` by the Thompson construction (linear size).
    pub fn from_regex(regex: &Regex) -> Nfa {
        let mut nfa = Nfa::with_states(0);
        let (start, end) = nfa.thompson(regex);
        nfa.set_initial(start);
        nfa.set_final(end);
        nfa
    }

    /// Recursively build the fragment for `e`; returns (entry, exit).
    fn thompson(&mut self, e: &Regex) -> (State, State) {
        match e {
            Regex::Empty => {
                let s = self.add_state();
                let t = self.add_state();
                (s, t)
            }
            Regex::Epsilon => {
                let s = self.add_state();
                let t = self.add_state();
                self.add_epsilon(s, t);
                (s, t)
            }
            Regex::Letter(l) => {
                let s = self.add_state();
                let t = self.add_state();
                self.add_transition(s, *l, t);
                (s, t)
            }
            Regex::Concat(parts) => {
                let mut entry = None;
                let mut prev_exit: Option<State> = None;
                for p in parts {
                    let (s, t) = self.thompson(p);
                    if let Some(pe) = prev_exit {
                        self.add_epsilon(pe, s);
                    } else {
                        entry = Some(s);
                    }
                    prev_exit = Some(t);
                }
                (
                    entry.expect("concat invariant: >=2 parts"),
                    prev_exit.expect("nonempty"),
                )
            }
            Regex::Union(parts) => {
                let s = self.add_state();
                let t = self.add_state();
                for p in parts {
                    let (ps, pt) = self.thompson(p);
                    self.add_epsilon(s, ps);
                    self.add_epsilon(pt, t);
                }
                (s, t)
            }
            Regex::Star(inner) => {
                let s = self.add_state();
                let t = self.add_state();
                let (is, it) = self.thompson(inner);
                self.add_epsilon(s, is);
                self.add_epsilon(it, t);
                self.add_epsilon(s, t);
                self.add_epsilon(it, is);
                (s, t)
            }
            Regex::Plus(inner) => {
                let s = self.add_state();
                let t = self.add_state();
                let (is, it) = self.thompson(inner);
                self.add_epsilon(s, is);
                self.add_epsilon(it, t);
                self.add_epsilon(it, is);
                (s, t)
            }
            Regex::Optional(inner) => {
                let s = self.add_state();
                let t = self.add_state();
                let (is, it) = self.thompson(inner);
                self.add_epsilon(s, is);
                self.add_epsilon(it, t);
                self.add_epsilon(s, t);
                (s, t)
            }
        }
    }

    // ------------------------------------------------------------------
    // Transformations
    // ------------------------------------------------------------------

    /// This automaton without ε-transitions: borrowed when it has none,
    /// otherwise [`Nfa::eliminate_epsilon`]'s copy.
    pub fn epsilon_free(&self) -> Cow<'_, Nfa> {
        if self.has_epsilon() {
            Cow::Owned(self.eliminate_epsilon())
        } else {
            Cow::Borrowed(self)
        }
    }

    /// An equivalent automaton without ε-transitions.
    pub fn eliminate_epsilon(&self) -> Nfa {
        if !self.has_epsilon() {
            return self.clone();
        }
        let n = self.num_states();
        let mut out = Nfa::with_states(n);
        // `seen[u] == s` marks `u` as in the closure of `s`, so one buffer
        // serves every state's closure.
        let mut seen = vec![usize::MAX; n];
        let mut closure = Vec::new();
        let mut stack = Vec::new();
        for s in 0..n {
            closure.clear();
            seen[s] = s;
            stack.push(s);
            while let Some(u) = stack.pop() {
                closure.push(u);
                for &t in &self.epsilon[u] {
                    if seen[t] != s {
                        seen[t] = s;
                        stack.push(t);
                    }
                }
            }
            // Ascending, as `epsilon_closure` iterates, so the transition
            // order is the same.
            closure.sort_unstable();
            for &u in &closure {
                for &(l, t) in &self.transitions[u] {
                    out.add_transition(s, l, t);
                }
                if self.finals.contains(&u) {
                    out.set_final(s);
                }
            }
        }
        for &s in &self.initial {
            out.set_initial(s);
        }
        out
    }

    /// Restrict to states that are both reachable from an initial state and
    /// co-reachable to a final state; renumbers states densely.
    pub fn trim(&self) -> Nfa {
        let n = self.num_states();
        // Forward reachability (following ε too).
        let mut fwd = vec![false; n];
        let mut queue: VecDeque<State> = self.initial.iter().copied().collect();
        for &s in &self.initial {
            fwd[s] = true;
        }
        while let Some(s) = queue.pop_front() {
            for &(_, t) in &self.transitions[s] {
                if !fwd[t] {
                    fwd[t] = true;
                    queue.push_back(t);
                }
            }
            for &t in &self.epsilon[s] {
                if !fwd[t] {
                    fwd[t] = true;
                    queue.push_back(t);
                }
            }
        }
        // Backward reachability from finals.
        let mut rev_edges: Vec<Vec<State>> = vec![Vec::new(); n];
        for s in 0..n {
            for &(_, t) in &self.transitions[s] {
                rev_edges[t].push(s);
            }
            for &t in &self.epsilon[s] {
                rev_edges[t].push(s);
            }
        }
        let mut bwd = vec![false; n];
        let mut queue: VecDeque<State> = self.finals.iter().copied().collect();
        for &s in &self.finals {
            bwd[s] = true;
        }
        while let Some(s) = queue.pop_front() {
            for &t in &rev_edges[s] {
                if !bwd[t] {
                    bwd[t] = true;
                    queue.push_back(t);
                }
            }
        }
        // Renumber.
        let mut map = vec![usize::MAX; n];
        let mut count = 0;
        for s in 0..n {
            if fwd[s] && bwd[s] {
                map[s] = count;
                count += 1;
            }
        }
        let mut out = Nfa::with_states(count);
        for s in 0..n {
            if map[s] == usize::MAX {
                continue;
            }
            for &(l, t) in &self.transitions[s] {
                if map[t] != usize::MAX {
                    out.add_transition(map[s], l, map[t]);
                }
            }
            for &t in &self.epsilon[s] {
                if map[t] != usize::MAX {
                    out.add_epsilon(map[s], map[t]);
                }
            }
            if self.initial.contains(&s) {
                out.set_initial(map[s]);
            }
            if self.finals.contains(&s) {
                out.set_final(map[s]);
            }
        }
        out
    }

    /// The reversal automaton: `L(rev) = {reverse(w) : w ∈ L}`.
    ///
    /// Note this reverses *words*; it does not invert letters. For the
    /// semantic inverse of a 2RPQ use [`Regex::inverse`].
    pub fn reverse(&self) -> Nfa {
        let n = self.num_states();
        let mut out = Nfa::with_states(n);
        for s in 0..n {
            for &(l, t) in &self.transitions[s] {
                out.add_transition(t, l, s);
            }
            for &t in &self.epsilon[s] {
                out.add_epsilon(t, s);
            }
        }
        for &s in &self.initial {
            out.set_final(s);
        }
        for &s in &self.finals {
            out.set_initial(s);
        }
        out
    }

    /// Union automaton (disjoint sum): `L = L(self) ∪ L(other)`.
    pub fn union(&self, other: &Nfa) -> Nfa {
        let mut out = self.clone();
        let offset = out.num_states();
        for _ in 0..other.num_states() {
            out.add_state();
        }
        for s in 0..other.num_states() {
            for &(l, t) in &other.transitions[s] {
                out.add_transition(s + offset, l, t + offset);
            }
            for &t in &other.epsilon[s] {
                out.add_epsilon(s + offset, t + offset);
            }
        }
        for &s in &other.initial {
            out.set_initial(s + offset);
        }
        for &s in &other.finals {
            out.set_final(s + offset);
        }
        out
    }

    /// The product automaton accepting `L(self) ∩ L(other)`.
    ///
    /// Over *words*, conjunction coincides with intersection and regular
    /// languages are closed under it (§3.3) — this is that closure,
    /// constructed directly on NFA pairs (no determinization), visiting
    /// only reachable pairs.
    pub fn intersect(&self, other: &Nfa) -> Nfa {
        let a = self.epsilon_free();
        let b = other.epsilon_free();
        let mut out = Nfa::with_states(0);
        let mut index: std::collections::HashMap<(State, State), State> =
            std::collections::HashMap::new();
        let mut queue: VecDeque<(State, State)> = VecDeque::new();
        for sa in a.initial_states() {
            for sb in b.initial_states() {
                let id = *index.entry((sa, sb)).or_insert_with(|| {
                    queue.push_back((sa, sb));
                    out.add_state()
                });
                out.set_initial(id);
            }
        }
        while let Some((sa, sb)) = queue.pop_front() {
            let id = index[&(sa, sb)];
            if a.is_final(sa) && b.is_final(sb) {
                out.set_final(id);
            }
            for &(la, ta) in a.transitions_from(sa) {
                for &(lb, tb) in b.transitions_from(sb) {
                    if la != lb {
                        continue;
                    }
                    let tid = *index.entry((ta, tb)).or_insert_with(|| {
                        queue.push_back((ta, tb));
                        out.add_state()
                    });
                    out.add_transition(id, la, tid);
                }
            }
        }
        out
    }

    /// An automaton for `L(self) − L(other)`, over the letter universe
    /// `letters` (needed to complement `other`).
    pub fn difference(&self, other: &Nfa, letters: &[Letter]) -> Nfa {
        let comp = crate::dfa::Dfa::determinize(other, letters)
            .complement()
            .to_nfa();
        self.intersect(&comp)
    }

    /// Map every letter through `f` (e.g., to invert polarities).
    pub fn map_letters(&self, mut f: impl FnMut(Letter) -> Letter) -> Nfa {
        let mut out = self.clone();
        for v in &mut out.transitions {
            for (l, _) in v.iter_mut() {
                *l = f(*l);
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Decision procedures
    // ------------------------------------------------------------------

    /// Whether `L(self) = ∅`.
    pub fn is_empty(&self) -> bool {
        self.shortest_word().is_none()
    }

    /// A shortest accepted word, if any (BFS over states).
    pub fn shortest_word(&self) -> Option<Vec<Letter>> {
        // BFS over single states suffices: a word is accepted iff some path
        // from an initial to a final state spells it.
        let n = self.num_states();
        let mut pred: Vec<Option<(State, Option<Letter>)>> = vec![None; n];
        let mut seen = vec![false; n];
        let mut queue = VecDeque::new();
        for &s in &self.initial {
            if !seen[s] {
                seen[s] = true;
                queue.push_back(s);
            }
        }
        let mut hit = None;
        'bfs: while let Some(s) = queue.pop_front() {
            if self.finals.contains(&s) {
                hit = Some(s);
                break 'bfs;
            }
            for &t in &self.epsilon[s] {
                if !seen[t] {
                    seen[t] = true;
                    pred[t] = Some((s, None));
                    queue.push_back(t);
                }
            }
            for &(l, t) in &self.transitions[s] {
                if !seen[t] {
                    seen[t] = true;
                    pred[t] = Some((s, Some(l)));
                    queue.push_back(t);
                }
            }
        }
        let mut s = hit?;
        let mut word = Vec::new();
        while let Some((p, l)) = pred[s] {
            if let Some(l) = l {
                word.push(l);
            }
            s = p;
        }
        word.reverse();
        Some(word)
    }

    /// Enumerate accepted words in shortlex order (shorter first; within a
    /// length, by `Letter` order), up to `max_len`, yielding at most `limit`
    /// words. Exact and duplicate-free.
    ///
    /// Each length is searched depth-first in letter order over state sets
    /// restricted to the states that can still accept in exactly the
    /// letters left, so every branch ends in a word: the work is bounded by
    /// `limit · max_len · |letters|` subset steps, however many prefixes of
    /// length ≤ `max_len` the language has.
    pub fn enumerate_words(&self, max_len: usize, limit: usize) -> Vec<Vec<Letter>> {
        let clean = self.epsilon_free();
        let letters: Vec<Letter> = clean.letters().into_iter().collect();
        let n = clean.num_states();
        // `ends[r][s]`: some run from `s` accepts after exactly `r` letters.
        let mut ends: Vec<Vec<bool>> = vec![(0..n).map(|s| clean.is_final(s)).collect()];
        // States reachable in exactly `len` letters; once empty, the
        // language has no longer words.
        let mut reach: BTreeSet<State> = clean.initial.clone();
        let mut out = Vec::new();
        let mut word = Vec::new();
        for len in 0..=max_len {
            if out.len() >= limit || reach.is_empty() {
                break;
            }
            if len > 0 {
                let prev = &ends[len - 1];
                let row = (0..n)
                    .map(|s| clean.transitions[s].iter().any(|&(_, t)| prev[t]))
                    .collect();
                ends.push(row);
                reach = reach
                    .iter()
                    .flat_map(|&s| clean.transitions[s].iter().map(|&(_, t)| t))
                    .collect();
            }
            let start: BTreeSet<State> = clean
                .initial
                .iter()
                .copied()
                .filter(|&s| ends[len][s])
                .collect();
            if !start.is_empty() {
                clean.extend_words(&letters, &ends, &start, len, &mut word, &mut out, limit);
            }
        }
        out
    }

    /// Append to `out`, in letter order, every word `word · x` with
    /// `|x| = remaining` that `states` accepts, until `out` holds `limit`
    /// words. Every state in `states` accepts some such `x`.
    #[allow(clippy::too_many_arguments)]
    fn extend_words(
        &self,
        letters: &[Letter],
        ends: &[Vec<bool>],
        states: &BTreeSet<State>,
        remaining: usize,
        word: &mut Vec<Letter>,
        out: &mut Vec<Vec<Letter>>,
        limit: usize,
    ) {
        if remaining == 0 {
            out.push(word.clone());
            return;
        }
        for &l in letters {
            if out.len() >= limit {
                return;
            }
            let mut next = self.step(states, l);
            next.retain(|&t| ends[remaining - 1][t]);
            if next.is_empty() {
                continue;
            }
            word.push(l);
            self.extend_words(letters, ends, &next, remaining - 1, word, out, limit);
            word.pop();
        }
    }

    /// Count distinct accepted words of each length `0..=max_len`.
    ///
    /// Used by tests as a language fingerprint: two automata with equal
    /// counts and equal membership on enumerated words up to `max_len` agree
    /// on all words up to that length.
    pub fn count_words_per_length(&self, max_len: usize) -> Vec<usize> {
        // Determinize lazily and do DP over DFA states per length.
        let clean = self.epsilon_free();
        let letters: Vec<Letter> = clean.letters().into_iter().collect();
        let start: BTreeSet<State> = clean.epsilon_closure(clean.initial.iter().copied());
        let mut states: Vec<BTreeSet<State>> = vec![start.clone()];
        let mut index: std::collections::HashMap<BTreeSet<State>, usize> =
            std::collections::HashMap::new();
        index.insert(start, 0);
        let mut trans: Vec<Vec<usize>> = Vec::new();
        let mut i = 0;
        while i < states.len() {
            let mut row = Vec::with_capacity(letters.len());
            for &l in &letters {
                let next = clean.step(&states[i], l);
                let id = if next.is_empty() {
                    usize::MAX
                } else {
                    *index.entry(next.clone()).or_insert_with(|| {
                        states.push(next.clone());
                        states.len() - 1
                    })
                };
                row.push(id);
            }
            trans.push(row);
            i += 1;
        }
        let is_final: Vec<bool> = states
            .iter()
            .map(|set| set.iter().any(|s| clean.finals.contains(s)))
            .collect();
        let mut counts = Vec::with_capacity(max_len + 1);
        // dist[q] = number of words of current length leading to q.
        let mut dist = vec![0usize; states.len()];
        dist[0] = 1;
        counts.push(if is_final[0] { 1 } else { 0 });
        for _ in 1..=max_len {
            let mut next = vec![0usize; states.len()];
            for (q, &c) in dist.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                for &t in &trans[q] {
                    if t != usize::MAX {
                        next[t] = next[t].saturating_add(c);
                    }
                }
            }
            dist = next;
            counts.push(
                dist.iter()
                    .zip(&is_final)
                    .filter(|(_, &f)| f)
                    .map(|(&c, _)| c)
                    .sum(),
            );
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::regex::parse;

    fn nfa_of(s: &str) -> (Nfa, Alphabet) {
        let mut a = Alphabet::new();
        let e = parse(s, &mut a).unwrap();
        (Nfa::from_regex(&e), a)
    }

    fn w(a: &Alphabet, s: &str) -> Vec<Letter> {
        // Parse a word: identifiers with optional '-' suffix, dot/space separated.
        let mut out = Vec::new();
        let mut cur = String::new();
        let mut chars = s.chars().peekable();
        while let Some(c) = chars.next() {
            if c.is_ascii_alphanumeric() || c == '_' {
                cur.push(c);
                let inverse = chars.peek() == Some(&'-');
                let end_of_ident =
                    !matches!(chars.peek(), Some(c) if c.is_ascii_alphanumeric() || *c == '_');
                if end_of_ident && !cur.is_empty() {
                    if inverse {
                        chars.next();
                    }
                    let id = a.get(&cur).expect("label must exist");
                    out.push(if inverse {
                        Letter::backward(id)
                    } else {
                        Letter::forward(id)
                    });
                    cur.clear();
                }
            }
        }
        out
    }

    #[test]
    fn thompson_accepts_expected_words() {
        let (n, a) = nfa_of("a(b|c)*");
        assert!(n.accepts(&w(&a, "a")));
        assert!(n.accepts(&w(&a, "a.b")));
        assert!(n.accepts(&w(&a, "a.c.b.b")));
        assert!(!n.accepts(&w(&a, "b")));
        assert!(!n.accepts(&[]));
    }

    #[test]
    fn epsilon_language() {
        let (n, _) = nfa_of("ε");
        assert!(n.accepts(&[]));
        let (n, _) = nfa_of("∅");
        assert!(!n.accepts(&[]));
        assert!(n.is_empty());
    }

    #[test]
    fn inverse_letters_are_distinct() {
        let (n, a) = nfa_of("p p- p");
        assert!(n.accepts(&w(&a, "p p- p")));
        assert!(!n.accepts(&w(&a, "p p p")));
        assert!(!n.accepts(&w(&a, "p")));
    }

    #[test]
    fn eliminate_epsilon_is_the_closure_construction() {
        // Each state takes the transitions and finality of its ε-closure,
        // visited in ascending order: the same automaton, transition for
        // transition, as building it from `epsilon_closure`.
        use crate::random::{random_nfa, SplitMix64};
        let mut cases: Vec<Nfa> = ["a(b|c)*", "(a|b)+c?", "(a* b*)* | ε", "((a|b-)* c)*"]
            .iter()
            .map(|s| nfa_of(s).0)
            .collect();
        for seed in 0..20 {
            let mut rng = SplitMix64::new(seed);
            let mut n = random_nfa(&mut rng, 2 + seed as usize % 6, 2, 0.3, 1.5);
            for k in 0..n.num_states() {
                n.add_epsilon(k, (k * 7 + seed as usize) % n.num_states());
            }
            cases.push(n);
        }
        for n in cases.into_iter().filter(Nfa::has_epsilon) {
            let mut expect = Nfa::with_states(n.num_states());
            for s in 0..n.num_states() {
                for u in n.epsilon_closure([s]) {
                    for &(l, t) in &n.transitions[u] {
                        expect.add_transition(s, l, t);
                    }
                    if n.is_final(u) {
                        expect.set_final(s);
                    }
                }
            }
            for s in n.initial_states() {
                expect.set_initial(s);
            }
            assert_eq!(n.eliminate_epsilon(), expect);
        }
    }

    #[test]
    fn eliminate_epsilon_preserves_language() {
        for s in ["a(b|c)*", "(a|b)+c?", "a*b*", "ε", "(a b)*(b a)*"] {
            let (n, _) = nfa_of(s);
            let ne = n.eliminate_epsilon();
            assert!(!ne.has_epsilon());
            for word in n.enumerate_words(5, 200) {
                assert!(ne.accepts(&word), "{s}: ε-free must accept enumerated word");
            }
            assert_eq!(
                n.count_words_per_length(5),
                ne.count_words_per_length(5),
                "{s}: counts differ"
            );
        }
    }

    #[test]
    fn trim_preserves_language_and_shrinks() {
        let (n, _) = nfa_of("a(b|c)*");
        let t = n.trim();
        assert!(t.num_states() <= n.num_states());
        assert_eq!(n.count_words_per_length(4), t.count_words_per_length(4));
    }

    #[test]
    fn shortest_word_is_shortest() {
        let (n, a) = nfa_of("a a a|a b");
        let sw = n.shortest_word().unwrap();
        assert_eq!(sw, w(&a, "a.b"));
        let (n, _) = nfa_of("a*");
        assert_eq!(n.shortest_word().unwrap(), Vec::<Letter>::new());
    }

    #[test]
    fn enumerate_words_is_shortlex_and_exact() {
        let (n, a) = nfa_of("a|a b|b");
        let words = n.enumerate_words(3, 100);
        assert_eq!(words, vec![w(&a, "a"), w(&a, "b"), w(&a, "a.b")],);
    }

    #[test]
    fn enumerate_respects_limit() {
        let (n, _) = nfa_of("a*");
        assert_eq!(n.enumerate_words(100, 5).len(), 5);
    }

    #[test]
    fn enumerate_skips_prefixes_that_cannot_finish_in_time() {
        // 8¹² prefixes of length ≤ 12, none of them accepted: a
        // prefix-by-prefix search would never return.
        let byte = "(a|b|c|d|e|f|g|h)";
        let (n, _) = nfa_of(&byte.repeat(13));
        assert!(n.enumerate_words(12, 16).is_empty());
        // The accepted words still come out shortlex, after the prefixes
        // of the long branch are skipped.
        let (n, a) = nfa_of(&format!("{} | z (y|x)", byte.repeat(13)));
        let words = n.enumerate_words(12, 16);
        // Letters order by interning: `y` before `x`.
        assert_eq!(words, vec![w(&a, "z.y"), w(&a, "z.x")]);
        assert_eq!(n.enumerate_words(13, 3).len(), 3);
    }

    #[test]
    fn enumerate_matches_brute_force_shortlex() {
        use crate::random::{random_nfa, SplitMix64};
        for seed in 0..40 {
            let mut rng = SplitMix64::new(seed);
            let mut n = random_nfa(&mut rng, 1 + seed as usize % 5, 2, 0.3, 1.5);
            if seed % 3 == 0 {
                n.add_epsilon(0, n.num_states() - 1);
            }
            let letters: Vec<Letter> = n.letters().into_iter().collect();
            // Every word of length ≤ 4 over the automaton's letters, in
            // shortlex order, filtered by membership.
            let mut level = vec![Vec::new()];
            let mut expect = Vec::new();
            for len in 0..=4 {
                expect.extend(level.iter().filter(|v| n.accepts(v)).cloned());
                if len < 4 {
                    level = level
                        .iter()
                        .flat_map(|v| {
                            letters.iter().map(move |&l| {
                                let mut v = v.clone();
                                v.push(l);
                                v
                            })
                        })
                        .collect();
                }
            }
            for limit in [0, 1, 3, 1000] {
                let got = n.enumerate_words(4, limit);
                assert_eq!(got, expect[..expect.len().min(limit)], "seed {seed}");
            }
        }
    }

    #[test]
    fn count_words_per_length_star() {
        let (n, _) = nfa_of("(a|b)*");
        assert_eq!(n.count_words_per_length(4), vec![1, 2, 4, 8, 16]);
    }

    #[test]
    fn reverse_reverses() {
        let (n, a) = nfa_of("a b* c");
        let r = n.reverse();
        assert!(r.accepts(&w(&a, "c.b.a")));
        assert!(r.accepts(&w(&a, "c.a")));
        assert!(!r.accepts(&w(&a, "a.c")));
    }

    #[test]
    fn union_of_automata() {
        let (n1, a) = nfa_of("a a");
        let mut a2 = a.clone();
        let e2 = parse("b b", &mut a2).unwrap();
        let n2 = Nfa::from_regex(&e2);
        let u = n1.union(&n2);
        assert!(u.accepts(&w(&a2, "a.a")));
        assert!(u.accepts(&w(&a2, "b.b")));
        assert!(!u.accepts(&w(&a2, "a.b")));
    }

    #[test]
    fn intersection_is_language_intersection() {
        let (n1, a) = nfa_of("(a|b)*a");
        let mut a2 = a.clone();
        let e2 = parse("a(a|b)*", &mut a2).unwrap();
        let n2 = Nfa::from_regex(&e2);
        let i = n1.intersect(&n2);
        for word in i.enumerate_words(4, 200) {
            assert!(n1.accepts(&word) && n2.accepts(&word));
        }
        for word in n1.enumerate_words(4, 200) {
            assert_eq!(i.accepts(&word), n2.accepts(&word));
        }
        // Disjoint languages intersect to ∅.
        let (x, ax) = nfa_of("a a");
        let mut ax2 = ax.clone();
        let y = Nfa::from_regex(&parse("b b", &mut ax2).unwrap());
        assert!(x.intersect(&y).is_empty());
    }

    #[test]
    fn difference_removes_the_other_language() {
        let (n1, al) = nfa_of("(a|b)*");
        let mut al2 = al.clone();
        let n2 = Nfa::from_regex(&parse("(a|b)*a", &mut al2).unwrap());
        let letters: Vec<Letter> = al2.sigma().collect();
        let d = n1.difference(&n2, &letters);
        // Words not ending in a: ε, b, ab, bb, …
        assert!(d.accepts(&[]));
        for w in d.enumerate_words(4, 100) {
            assert!(n1.accepts(&w) && !n2.accepts(&w));
        }
        for w in n2.enumerate_words(4, 100) {
            assert!(!d.accepts(&w));
        }
    }

    #[test]
    fn map_letters_inverts() {
        let (n, a) = nfa_of("p");
        let inv = n.map_letters(Letter::inv);
        assert!(inv.accepts(&w(&a, "p-")));
        assert!(!inv.accepts(&w(&a, "p")));
    }

    #[test]
    fn accepts_governed_matches_and_exhausts() {
        use crate::governor::{Governor, Limits, Resource};
        let (n, a) = nfa_of("(a|b)*a b b");
        for word in ["a b b", "a b", "b a b b", ""] {
            let word = w(&a, word);
            assert_eq!(
                n.accepts_governed(&word, &Governor::unlimited()).unwrap(),
                n.accepts(&word)
            );
        }
        let long = w(&a, &"a ".repeat(600));
        let gov = Limits::unlimited().with_fuel(10).governor();
        let e = n.accepts_governed(&long, &gov).unwrap_err();
        assert_eq!(e.resource, Resource::Fuel);
    }
}
