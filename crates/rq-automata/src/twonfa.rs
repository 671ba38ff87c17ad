//! Two-way nondeterministic finite automata (2NFAs).
//!
//! A 2NFA reads its input on a tape delimited by endmarkers `⊢ w ⊣` and may
//! move its head left, right, or stay (directions {−1, 0, +1}, matching the
//! paper's definition in §3.2). Conventions used throughout this crate:
//!
//! * the tape of `w = w₁…wₙ` has cells `0..=n+1`; cell 0 holds [`Tape::Left`],
//!   cell `i` holds `wᵢ`, cell `n+1` holds [`Tape::Right`];
//! * a run starts in an initial state with the head on cell 0;
//! * the automaton accepts iff it ever reaches a final state with the head
//!   on the right endmarker (cell `n+1`).
//!
//! Membership is decided in polynomial time by reachability in the
//! configuration graph. For complementation see [`crate::complement2`]
//! (Lemma 4) and [`crate::shepherdson`] (table-based determinization).

use crate::alphabet::Letter;
use crate::nfa::{Nfa, State};
use std::collections::{BTreeSet, HashMap, VecDeque};

/// Head movement of a 2NFA transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Move {
    /// Move the head one cell left (−1).
    Left,
    /// Keep the head in place (0).
    Stay,
    /// Move the head one cell right (+1).
    Right,
}

impl Move {
    /// The head displacement as a signed offset.
    #[inline]
    pub fn delta(self) -> isize {
        match self {
            Move::Left => -1,
            Move::Stay => 0,
            Move::Right => 1,
        }
    }
}

/// A tape symbol: an input letter or an endmarker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tape {
    /// The left endmarker ⊢ (cell 0).
    Left,
    /// An input letter.
    Letter(Letter),
    /// The right endmarker ⊣ (cell n+1).
    Right,
}

/// A two-way NFA with endmarkers.
#[derive(Debug, Clone, Default)]
pub struct TwoNfa {
    on_letter: Vec<HashMap<Letter, Vec<(State, Move)>>>,
    on_left: Vec<Vec<(State, Move)>>,
    on_right: Vec<Vec<(State, Move)>>,
    initial: BTreeSet<State>,
    finals: BTreeSet<State>,
}

impl TwoNfa {
    /// An automaton with `n` states and no transitions.
    pub fn with_states(n: usize) -> Self {
        TwoNfa {
            on_letter: vec![HashMap::new(); n],
            on_left: vec![Vec::new(); n],
            on_right: vec![Vec::new(); n],
            initial: BTreeSet::new(),
            finals: BTreeSet::new(),
        }
    }

    /// Add a fresh state, returning its index.
    pub fn add_state(&mut self) -> State {
        self.on_letter.push(HashMap::new());
        self.on_left.push(Vec::new());
        self.on_right.push(Vec::new());
        self.on_letter.len() - 1
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.on_letter.len()
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
    pub fn final_states(&self) -> &BTreeSet<State> {
        &self.finals
    }

    /// Whether `s` is final.
    pub fn is_final(&self, s: State) -> bool {
        self.finals.contains(&s)
    }

    /// Add a transition on tape symbol `sym`. Transitions that would move
    /// the head off the tape (left of ⊢, right of ⊣) are rejected with a
    /// panic — they can never be part of a valid run.
    pub fn add_transition(&mut self, from: State, sym: Tape, to: State, mv: Move) {
        match sym {
            Tape::Left => {
                assert!(mv != Move::Left, "cannot move left off the left endmarker");
                if !self.on_left[from].contains(&(to, mv)) {
                    self.on_left[from].push((to, mv));
                }
            }
            Tape::Right => {
                assert!(
                    mv != Move::Right,
                    "cannot move right off the right endmarker"
                );
                if !self.on_right[from].contains(&(to, mv)) {
                    self.on_right[from].push((to, mv));
                }
            }
            Tape::Letter(l) => {
                let v = self.on_letter[from].entry(l).or_default();
                if !v.contains(&(to, mv)) {
                    v.push((to, mv));
                }
            }
        }
    }

    /// The transitions available from `s` reading `sym`.
    pub fn transitions(&self, s: State, sym: Tape) -> &[(State, Move)] {
        match sym {
            Tape::Left => &self.on_left[s],
            Tape::Right => &self.on_right[s],
            Tape::Letter(l) => self.on_letter[s].get(&l).map(Vec::as_slice).unwrap_or(&[]),
        }
    }

    /// The set of letters with at least one transition.
    pub fn letters(&self) -> BTreeSet<Letter> {
        self.on_letter
            .iter()
            .flat_map(|m| m.keys().copied())
            .collect()
    }

    /// Embed a one-way ε-free NFA as a 2NFA (used by tests to cross-check
    /// the two membership procedures).
    pub fn from_nfa(nfa: &Nfa) -> TwoNfa {
        let nfa = nfa.epsilon_free();
        let mut m = TwoNfa::with_states(nfa.num_states());
        for s in 0..nfa.num_states() {
            for &(l, t) in nfa.transitions_from(s) {
                m.add_transition(s, Tape::Letter(l), t, Move::Right);
            }
        }
        for s in nfa.initial_states() {
            m.set_initial(s);
            // Walk off the left endmarker onto the word.
            m.add_transition(s, Tape::Left, s, Move::Right);
        }
        for s in 0..nfa.num_states() {
            if nfa.is_final(s) {
                m.set_final(s);
            }
        }
        m
    }

    /// The tape symbol at `cell` for input `word`.
    fn tape_symbol(word: &[Letter], cell: usize) -> Tape {
        if cell == 0 {
            Tape::Left
        } else if cell == word.len() + 1 {
            Tape::Right
        } else {
            Tape::Letter(word[cell - 1])
        }
    }

    /// Whether `word ∈ L(self)`: BFS over the configuration graph
    /// `(state, cell)`, accepting when a final state reaches the right
    /// endmarker. Runs in `O(|Q| · |w| · transitions)`.
    pub fn accepts(&self, word: &[Letter]) -> bool {
        let cells = word.len() + 2;
        let n = self.num_states();
        let mut seen = vec![false; n * cells];
        let mut queue: VecDeque<(State, usize)> = VecDeque::new();
        for &s in &self.initial {
            if !seen[s * cells] {
                seen[s * cells] = true;
                queue.push_back((s, 0));
            }
        }
        while let Some((s, cell)) = queue.pop_front() {
            if cell == cells - 1 && self.finals.contains(&s) {
                return true;
            }
            let sym = Self::tape_symbol(word, cell);
            for &(t, mv) in self.transitions(s, sym) {
                let nc = cell as isize + mv.delta();
                if nc < 0 || nc as usize >= cells {
                    continue; // defensively skip off-tape moves
                }
                let nc = nc as usize;
                if !seen[t * cells + nc] {
                    seen[t * cells + nc] = true;
                    queue.push_back((t, nc));
                }
            }
        }
        false
    }

    /// An accepting run (sequence of `(state, cell)` configurations), if one
    /// exists. Useful for debugging constructions and in doc examples.
    pub fn accepting_run(&self, word: &[Letter]) -> Option<Vec<(State, usize)>> {
        let cells = word.len() + 2;
        let n = self.num_states();
        let mut pred: Vec<Option<(State, usize)>> = vec![None; n * cells];
        let mut seen = vec![false; n * cells];
        let mut queue: VecDeque<(State, usize)> = VecDeque::new();
        for &s in &self.initial {
            if !seen[s * cells] {
                seen[s * cells] = true;
                queue.push_back((s, 0));
            }
        }
        let mut hit = None;
        'bfs: while let Some((s, cell)) = queue.pop_front() {
            if cell == cells - 1 && self.finals.contains(&s) {
                hit = Some((s, cell));
                break 'bfs;
            }
            let sym = Self::tape_symbol(word, cell);
            for &(t, mv) in self.transitions(s, sym) {
                let nc = cell as isize + mv.delta();
                if nc < 0 || nc as usize >= cells {
                    continue;
                }
                let nc = nc as usize;
                if !seen[t * cells + nc] {
                    seen[t * cells + nc] = true;
                    pred[t * cells + nc] = Some((s, cell));
                    queue.push_back((t, nc));
                }
            }
        }
        let mut cur = hit?;
        let mut run = vec![cur];
        while let Some(p) = pred[cur.0 * cells + cur.1] {
            run.push(p);
            cur = p;
        }
        run.reverse();
        Some(run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::{Alphabet, LabelId};
    use crate::regex::parse;

    fn letters2() -> (Letter, Letter) {
        (Letter::forward(LabelId(0)), Letter::forward(LabelId(1)))
    }

    #[test]
    fn from_nfa_agrees_with_nfa() {
        for s in ["a(b|c)*", "(a|b)*abb", "ε", "a+b+"] {
            let mut al = Alphabet::new();
            let e = parse(s, &mut al).unwrap();
            let n = Nfa::from_regex(&e);
            let m = TwoNfa::from_nfa(&n);
            for w in n.enumerate_words(5, 200) {
                assert!(m.accepts(&w), "{s} should accept via 2NFA");
            }
            // And some non-members.
            let (a, b) = letters2();
            for w in [vec![], vec![a], vec![b, a], vec![a, a, a, a]] {
                assert_eq!(n.accepts(&w), m.accepts(&w), "{s} on {w:?}");
            }
        }
    }

    #[test]
    fn two_way_movement_is_usable() {
        // A 2NFA for {a^k : k >= 1} that walks to the end, walks back to the
        // left marker, and walks forward again before accepting. State 1
        // witnesses that at least one 'a' was read before the bounce.
        let (a, _) = letters2();
        let mut m = TwoNfa::with_states(5);
        m.set_initial(0);
        m.set_final(4);
        m.add_transition(0, Tape::Left, 0, Move::Right);
        m.add_transition(0, Tape::Letter(a), 1, Move::Right); // first 'a'
        m.add_transition(1, Tape::Letter(a), 1, Move::Right); // to the right end
        m.add_transition(1, Tape::Right, 2, Move::Left); // bounce
        m.add_transition(2, Tape::Letter(a), 2, Move::Left); // back to start
        m.add_transition(2, Tape::Left, 3, Move::Right); // bounce again
        m.add_transition(3, Tape::Letter(a), 3, Move::Right);
        m.add_transition(3, Tape::Right, 4, Move::Stay); // arrive final at ⊣
        assert!(!m.accepts(&[]));
        assert!(m.accepts(&[a]));
        assert!(m.accepts(&[a, a, a]));
        let run = m.accepting_run(&[a, a]).unwrap();
        assert_eq!(run.first(), Some(&(0, 0)));
        assert_eq!(run.last().map(|&(s, c)| (s, c)), Some((4, 3)));
    }

    #[test]
    fn empty_word_needs_final_reachable_at_right_marker() {
        let (a, _) = letters2();
        let mut m = TwoNfa::with_states(2);
        m.set_initial(0);
        m.set_final(1);
        m.add_transition(0, Tape::Left, 0, Move::Right);
        m.add_transition(0, Tape::Right, 1, Move::Stay);
        assert!(m.accepts(&[]));
        assert!(!m.accepts(&[a]));
    }

    #[test]
    #[should_panic(expected = "cannot move left off the left endmarker")]
    fn off_tape_transitions_rejected() {
        let mut m = TwoNfa::with_states(1);
        m.add_transition(0, Tape::Left, 0, Move::Left);
    }

    #[test]
    fn stay_moves_do_not_loop_forever() {
        // 0-moves forming a cycle must not hang membership.
        let (a, _) = letters2();
        let mut m = TwoNfa::with_states(2);
        m.set_initial(0);
        m.set_final(1);
        m.add_transition(0, Tape::Letter(a), 0, Move::Stay);
        m.add_transition(0, Tape::Left, 0, Move::Right);
        assert!(!m.accepts(&[a]));
    }
}
