//! Lazy determinization of 2NFAs via Shepherdson tables.
//!
//! Shepherdson's classic argument (the same device Vardi's Lemma 4 proof
//! family builds on) summarizes the behaviour of a two-way automaton on a
//! tape *prefix* by a table:
//!
//! * `enter` — the states in which a run that starts in an initial
//!   configuration (head on ⊢) can exit the prefix rightward, and
//! * `cross[q]` — the states in which a run that *enters* the prefix at its
//!   last cell in state `q` can exit rightward again.
//!
//! Tables compose left to right, so scanning the input once while updating
//! the table is a *deterministic* one-way simulation of the 2NFA. This
//! module implements that simulation lazily: tables are discovered and
//! memoized on demand, which is what makes `L(NFA) ⊆ L(2NFA)` containment
//! ([`nfa_in_twonfa`]) practical — the production path of the Theorem 5
//! pipeline in `rq-core`. The explicit Lemma 4 construction lives in
//! [`crate::complement2`] and is cross-validated against this one.

use crate::alphabet::Letter;
use crate::containment::ContainmentRun;
use crate::governor::{expect_unlimited, Exhaustion, Governor};
use crate::nfa::{Nfa, State};
use crate::twonfa::{Move, Tape, TwoNfa};
use std::collections::{BTreeSet, HashMap, VecDeque};

/// Behaviour summary of a 2NFA on a tape prefix.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Table {
    /// States exiting the prefix rightward from an initial configuration.
    pub enter: BTreeSet<State>,
    /// `cross[q]`: states exiting rightward after entering the prefix's
    /// last cell in state `q`.
    pub cross: Vec<BTreeSet<State>>,
}

/// Lazily determinized view of a [`TwoNfa`]: a complete DFA whose states
/// are [`Table`]s, discovered on demand.
pub struct ShepherdsonDfa<'a> {
    m: &'a TwoNfa,
    tables: Vec<Table>,
    index: HashMap<Table, usize>,
    succ: Vec<HashMap<Letter, usize>>,
    accepting: Vec<Option<bool>>,
    /// Meters table construction when present ([`Self::try_next`]).
    gov: Option<&'a Governor>,
}

impl<'a> ShepherdsonDfa<'a> {
    /// Start determinizing `m`.
    pub fn new(m: &'a TwoNfa) -> Self {
        let initial = initial_table(m);
        let mut index = HashMap::new();
        index.insert(initial.clone(), 0);
        ShepherdsonDfa {
            m,
            tables: vec![initial],
            index,
            succ: vec![HashMap::new()],
            accepting: vec![None],
            gov: None,
        }
    }

    /// Like [`ShepherdsonDfa::new`], but every table discovered by
    /// [`Self::try_next`] is charged to `gov` as a constructed state, and
    /// each fresh table build spends fuel proportional to the 2NFA size
    /// (a table holds one crossing set per 2NFA state).
    pub fn new_governed(m: &'a TwoNfa, gov: &'a Governor) -> Result<Self, Exhaustion> {
        gov.construct_state()?;
        gov.spend(m.num_states() as u64)?;
        let mut det = ShepherdsonDfa::new(m);
        det.gov = Some(gov);
        Ok(det)
    }

    /// The initial DFA state (the table of the prefix `⊢`).
    pub fn initial(&self) -> usize {
        0
    }

    /// Number of tables materialized so far.
    pub fn discovered(&self) -> usize {
        self.tables.len()
    }

    /// The table of DFA state `s`.
    pub fn table(&self, s: usize) -> &Table {
        &self.tables[s]
    }

    /// The successor of state `s` on `letter`. Total: the DFA is complete
    /// (an all-empty table acts as the dead state).
    pub fn next(&mut self, s: usize, letter: Letter) -> usize {
        expect_unlimited(self.next_impl(s, letter, None))
    }

    /// [`Self::next`] under the governor supplied at construction
    /// ([`Self::new_governed`]): building a fresh table spends fuel
    /// proportional to the 2NFA size and charges one constructed state.
    /// Without a governor this is exactly [`Self::next`].
    pub fn try_next(&mut self, s: usize, letter: Letter) -> Result<usize, Exhaustion> {
        let gov = self.gov;
        self.next_impl(s, letter, gov)
    }

    fn next_impl(
        &mut self,
        s: usize,
        letter: Letter,
        gov: Option<&Governor>,
    ) -> Result<usize, Exhaustion> {
        if let Some(&t) = self.succ[s].get(&letter) {
            return Ok(t);
        }
        if let Some(g) = gov {
            // A table build runs one closure per 2NFA state.
            g.spend(self.m.num_states() as u64)?;
        }
        let table = step_table(self.m, &self.tables[s], letter);
        let id = match self.index.get(&table) {
            Some(&id) => id,
            None => {
                if let Some(g) = gov {
                    g.construct_state()?;
                }
                let id = self.tables.len();
                self.index.insert(table.clone(), id);
                self.tables.push(table);
                self.succ.push(HashMap::new());
                self.accepting.push(None);
                id
            }
        };
        self.succ[s].insert(letter, id);
        Ok(id)
    }

    /// Whether the word driving the DFA into state `s` is accepted by the
    /// 2NFA (the remaining tape is exactly `⊣`).
    pub fn is_accepting(&mut self, s: usize) -> bool {
        if let Some(b) = self.accepting[s] {
            return b;
        }
        let table = &self.tables[s];
        let closure = closure_at(self.m, Tape::Right, table.enter.clone(), Some(table));
        let b = closure.iter().any(|&q| self.m.is_final(q));
        self.accepting[s] = Some(b);
        b
    }

    /// Whether `word ∈ L(m)` via the deterministic simulation.
    pub fn accepts(&mut self, word: &[Letter]) -> bool {
        let mut s = self.initial();
        for &l in word {
            s = self.next(s, l);
        }
        self.is_accepting(s)
    }
}

/// States reachable *at the current cell* (holding `sym`) starting from
/// `seed` at that cell, closing under 0-moves and left-excursions resolved
/// through the previous prefix's table.
fn closure_at(
    m: &TwoNfa,
    sym: Tape,
    seed: BTreeSet<State>,
    prev: Option<&Table>,
) -> BTreeSet<State> {
    let mut out = seed;
    let mut stack: Vec<State> = out.iter().copied().collect();
    while let Some(q) = stack.pop() {
        for &(t, mv) in m.transitions(q, sym) {
            match mv {
                Move::Stay => {
                    if out.insert(t) {
                        stack.push(t);
                    }
                }
                Move::Left => {
                    // Enter the previous prefix in state t; it re-exits
                    // rightward in states cross[t], arriving back here.
                    if let Some(prev) = prev {
                        for &r in &prev.cross[t] {
                            if out.insert(r) {
                                stack.push(r);
                            }
                        }
                    }
                    // With no previous prefix the symbol is ⊢ and left
                    // moves are impossible (enforced at construction).
                }
                Move::Right => {} // handled by `exits`
            }
        }
    }
    out
}

/// States in which runs exit the current cell rightward, given the closure.
fn exits(m: &TwoNfa, sym: Tape, closure: &BTreeSet<State>) -> BTreeSet<State> {
    let mut out = BTreeSet::new();
    for &q in closure {
        for &(t, mv) in m.transitions(q, sym) {
            if mv == Move::Right {
                out.insert(t);
            }
        }
    }
    out
}

/// The table of the prefix `⊢`.
fn initial_table(m: &TwoNfa) -> Table {
    let n = m.num_states();
    let seed: BTreeSet<State> = m.initial_states().collect();
    let c = closure_at(m, Tape::Left, seed, None);
    let enter = exits(m, Tape::Left, &c);
    let cross = (0..n)
        .map(|q| {
            let c = closure_at(m, Tape::Left, BTreeSet::from([q]), None);
            exits(m, Tape::Left, &c)
        })
        .collect();
    Table { enter, cross }
}

/// Extend `prev`'s prefix by one cell holding `letter`.
fn step_table(m: &TwoNfa, prev: &Table, letter: Letter) -> Table {
    let n = m.num_states();
    let sym = Tape::Letter(letter);
    let cross: Vec<BTreeSet<State>> = (0..n)
        .map(|q| {
            let c = closure_at(m, sym, BTreeSet::from([q]), Some(prev));
            exits(m, sym, &c)
        })
        .collect();
    let mut enter = BTreeSet::new();
    for &q in &prev.enter {
        enter.extend(cross[q].iter().copied());
    }
    Table { enter, cross }
}

/// Decide `L(a1) ⊆ L(m)` for an NFA `a1` and 2NFA `m`, on the fly.
///
/// BFS over the product of `a1` with the lazily determinized `m`; a product
/// state with `a1` accepting and `m`'s table rejecting yields a *shortest*
/// counterexample word.
pub fn nfa_in_twonfa(a1: &Nfa, m: &TwoNfa) -> ContainmentRun {
    expect_unlimited(nfa_in_twonfa_governed(a1, m, &Governor::unlimited()))
}

/// [`nfa_in_twonfa`] under a resource [`Governor`]: each product-state
/// expansion spends one fuel, every product state and Shepherdson table is
/// charged as a constructed state (tables additionally cost fuel
/// proportional to the 2NFA size), and the deadline/cancellation flag is
/// polled periodically. This is the production engine of the Theorem 5
/// pipeline, so it is the budget surface for 2RPQ containment.
pub fn nfa_in_twonfa_governed(
    a1: &Nfa,
    m: &TwoNfa,
    gov: &Governor,
) -> Result<ContainmentRun, Exhaustion> {
    let a1 = a1.epsilon_free();
    let mut det = ShepherdsonDfa::new_governed(m, gov)?;
    type Prod = (usize, usize);
    let mut pred: HashMap<Prod, (Prod, Letter)> = HashMap::new();
    let mut seen: BTreeSet<Prod> = BTreeSet::new();
    let mut queue: VecDeque<Prod> = VecDeque::new();
    for s in a1.initial_states() {
        let p = (s, det.initial());
        if seen.insert(p) {
            gov.construct_state()?;
            queue.push_back(p);
        }
    }
    while let Some(p @ (s, d)) = queue.pop_front() {
        gov.tick()?;
        if a1.is_final(s) && !det.is_accepting(d) {
            let mut word = Vec::new();
            let mut cur = p;
            while let Some(&(prevp, l)) = pred.get(&cur) {
                word.push(l);
                cur = prevp;
            }
            word.reverse();
            return Ok(ContainmentRun {
                contained: false,
                counterexample: Some(word),
                states_explored: seen.len(),
            });
        }
        for &(l, t) in a1.transitions_from(s) {
            gov.tick()?;
            let nd = det.try_next(d, l)?;
            let np = (t, nd);
            if seen.insert(np) {
                gov.construct_state()?;
                pred.insert(np, (p, l));
                queue.push_back(np);
            }
        }
    }
    Ok(ContainmentRun {
        contained: true,
        counterexample: None,
        states_explored: seen.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::fold::{fold_membership, fold_twonfa};
    use crate::regex::parse;

    fn all_words(sigma: &[Letter], max_len: usize) -> Vec<Vec<Letter>> {
        let mut all: Vec<Vec<Letter>> = vec![vec![]];
        let mut frontier = vec![Vec::<Letter>::new()];
        for _ in 0..max_len {
            let mut next = Vec::new();
            for w in &frontier {
                for &l in sigma {
                    let mut w2 = w.clone();
                    w2.push(l);
                    next.push(w2);
                }
            }
            all.extend(next.iter().cloned());
            frontier = next;
        }
        all
    }

    #[test]
    fn shepherdson_membership_matches_configuration_bfs() {
        let mut al = Alphabet::from_names(["a", "b"]);
        let sigma_pm: Vec<Letter> = al.sigma_pm().collect();
        for re in ["a", "a a- a", "(a|b-)*", "a(b a)*", "b- a", "(a b)+"] {
            let e = parse(re, &mut al).unwrap();
            let n = Nfa::from_regex(&e);
            let m = fold_twonfa(&n, &sigma_pm);
            let mut det = ShepherdsonDfa::new(&m);
            for w in all_words(&sigma_pm, 3) {
                assert_eq!(
                    det.accepts(&w),
                    m.accepts(&w),
                    "Shepherdson vs config BFS disagree: re={re}, w={w:?}"
                );
            }
        }
    }

    #[test]
    fn shepherdson_on_one_way_embedding() {
        let mut al = Alphabet::from_names(["a", "b"]);
        let sigma: Vec<Letter> = al.sigma().collect();
        let e = parse("(a|b)*abb", &mut al).unwrap();
        let n = Nfa::from_regex(&e);
        let m = TwoNfa::from_nfa(&n);
        let mut det = ShepherdsonDfa::new(&m);
        for w in all_words(&sigma, 5) {
            assert_eq!(det.accepts(&w), n.accepts(&w), "w={w:?}");
        }
    }

    #[test]
    fn containment_nfa_in_fold_twonfa() {
        // The paper's example: L(p) ⊆ fold(L(p p⁻ p)).
        let mut al = Alphabet::from_names(["p"]);
        let sigma_pm: Vec<Letter> = al.sigma_pm().collect();
        let q1 = Nfa::from_regex(&parse("p", &mut al).unwrap());
        let q2 = Nfa::from_regex(&parse("p p- p", &mut al).unwrap());
        let fold2 = fold_twonfa(&q2, &sigma_pm);
        let run = nfa_in_twonfa(&q1, &fold2);
        assert!(run.contained, "p ⊑ p p⁻ p must hold (fold)");
        // And not vice versa: L(p p⁻ p) ⊄ fold(L(p))? Actually p p⁻ p ⇝ p
        // shows every word of L(p p⁻ p)... the single word p p⁻ p IS in
        // fold(L(p p⁻ p))? We test L(p p⁻ p) ⊆ fold(L(p)): the word
        // p p⁻ p folds onto... fold(L(p)) = {u : p ⇝ u} = {p}. So the word
        // p p⁻ p ∉ fold(L(p)) and containment fails.
        let fold1 = fold_twonfa(&q1, &sigma_pm);
        let run = nfa_in_twonfa(&q2, &fold1);
        assert!(!run.contained);
        let ce = run.counterexample.unwrap();
        assert!(q2.accepts(&ce));
        assert!(!fold_membership(&q1, &ce));
    }

    #[test]
    fn counterexample_is_shortest() {
        let mut al = Alphabet::from_names(["a", "b"]);
        // L(a|bb) vs fold-language of a: 'a' is contained, 'bb' is the
        // shortest counterexample? 'bb' has length 2; but ε... a|bb has no ε.
        let q1 = Nfa::from_regex(&parse("a|b b", &mut al).unwrap());
        let q2 = Nfa::from_regex(&parse("a", &mut al).unwrap());
        let sigma_pm: Vec<Letter> = al.sigma_pm().collect();
        let fold2 = fold_twonfa(&q2, &sigma_pm);
        let run = nfa_in_twonfa(&q1, &fold2);
        assert!(!run.contained);
        assert_eq!(run.counterexample.unwrap().len(), 2);
    }

    #[test]
    fn governed_containment_exhausts_and_matches() {
        use crate::governor::{Limits, Resource};
        let mut al = Alphabet::from_names(["p"]);
        let sigma_pm: Vec<Letter> = al.sigma_pm().collect();
        let q1 = Nfa::from_regex(&parse("p", &mut al).unwrap());
        let q2 = Nfa::from_regex(&parse("p p- p", &mut al).unwrap());
        let fold2 = fold_twonfa(&q2, &sigma_pm);
        // Tiny fuel budget: structured exhaustion, no panic.
        let gov = Limits::unlimited().with_fuel(2).governor();
        let e = nfa_in_twonfa_governed(&q1, &fold2, &gov).unwrap_err();
        assert_eq!(e.resource, Resource::Fuel);
        // Ample budget: same verdict as the ungoverned path.
        let gov = Limits::unlimited().with_fuel(1_000_000).governor();
        let run = nfa_in_twonfa_governed(&q1, &fold2, &gov).unwrap();
        assert_eq!(run, nfa_in_twonfa(&q1, &fold2));
        assert!(gov.counters().states_constructed > 0);
    }

    #[test]
    fn fold_language_is_larger_than_language() {
        // fold(L(a a- a)) contains both 'a a- a' and 'a'.
        let mut al = Alphabet::from_names(["a"]);
        let sigma_pm: Vec<Letter> = al.sigma_pm().collect();
        let q = Nfa::from_regex(&parse("a a- a", &mut al).unwrap());
        let m = fold_twonfa(&q, &sigma_pm);
        let mut det = ShepherdsonDfa::new(&m);
        let a = Letter::forward(al.get("a").unwrap());
        assert!(det.accepts(&[a]));
        assert!(det.accepts(&[a, a.inv(), a]));
        assert!(!det.accepts(&[a, a]));
        assert!(!det.accepts(&[]));
    }
}
