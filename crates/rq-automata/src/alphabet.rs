//! Edge alphabets Σ and their two-way extensions Σ±.
//!
//! A graph database is edge-labeled by a finite alphabet Σ of relation
//! names. Two-way queries navigate edges both forward and backward, so they
//! are written over Σ± = Σ ∪ {r⁻ | r ∈ Σ}. A [`Letter`] is an element of
//! Σ±: a [`LabelId`] plus a polarity. Forward-only machinery simply never
//! produces inverse letters.

use std::collections::HashMap;
use std::fmt;

/// Identifier of a base relation name in an [`Alphabet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LabelId(pub u32);

impl LabelId {
    /// Index into per-label tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An element of Σ±: a relation name, navigated forward (`r`) or backward
/// (`r⁻`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Letter {
    pub label: LabelId,
    /// `true` for the inverse letter `r⁻`.
    pub inverse: bool,
}

impl Letter {
    /// The forward letter `r`.
    #[inline]
    pub fn forward(label: LabelId) -> Self {
        Letter {
            label,
            inverse: false,
        }
    }

    /// The backward letter `r⁻`.
    #[inline]
    pub fn backward(label: LabelId) -> Self {
        Letter {
            label,
            inverse: true,
        }
    }

    /// The inverse `p⁻` of this letter: `r ↦ r⁻` and `r⁻ ↦ r`.
    #[inline]
    pub fn inv(self) -> Self {
        Letter {
            label: self.label,
            inverse: !self.inverse,
        }
    }

    /// Dense index of this letter in `0..2·|Σ|`: forward letters first.
    #[inline]
    pub fn dense_index(self, num_labels: usize) -> usize {
        self.label.index() + if self.inverse { num_labels } else { 0 }
    }
}

/// A finite alphabet of relation names, interning strings to [`LabelId`]s.
///
/// The alphabet doubles as the relational schema of a graph database (§3.1
/// of the paper): "the edge alphabet Σ can be viewed as the relational
/// schema of the database".
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Alphabet {
    names: Vec<String>,
    index: HashMap<String, LabelId>,
}

impl Alphabet {
    /// An empty alphabet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build an alphabet from a list of names (duplicates are merged).
    pub fn from_names<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut a = Self::new();
        for n in names {
            a.intern(n.as_ref());
        }
        a
    }

    /// Intern `name`, returning its id (existing or fresh).
    pub fn intern(&mut self, name: &str) -> LabelId {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = LabelId(self.names.len() as u32);
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), id);
        id
    }

    /// Look up a name without interning.
    pub fn get(&self, name: &str) -> Option<LabelId> {
        self.index.get(name).copied()
    }

    /// The name of `id`. Panics if `id` is not from this alphabet.
    pub fn name(&self, id: LabelId) -> &str {
        &self.names[id.index()]
    }

    /// Number of base labels |Σ|.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the alphabet is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// All base labels, in id order.
    pub fn labels(&self) -> impl Iterator<Item = LabelId> + '_ {
        (0..self.names.len() as u32).map(LabelId)
    }

    /// All letters of Σ (forward only).
    pub fn sigma(&self) -> impl Iterator<Item = Letter> + '_ {
        self.labels().map(Letter::forward)
    }

    /// All letters of Σ± (forward then backward), 2·|Σ| letters.
    pub fn sigma_pm(&self) -> impl Iterator<Item = Letter> + '_ {
        self.labels()
            .map(Letter::forward)
            .chain(self.labels().map(Letter::backward))
    }

    /// Render a letter, using `-` as the ASCII inverse marker (`r-` for r⁻).
    pub fn letter_name(&self, l: Letter) -> String {
        if l.inverse {
            format!("{}-", self.name(l.label))
        } else {
            self.name(l.label).to_owned()
        }
    }

    /// Render a word as space-free concatenation when all labels are single
    /// characters, otherwise dot-separated.
    pub fn word_to_string(&self, word: &[Letter]) -> String {
        if word.is_empty() {
            return "ε".to_owned();
        }
        let compact = word.iter().all(|l| self.name(l.label).chars().count() == 1);
        let parts: Vec<String> = word.iter().map(|&l| self.letter_name(l)).collect();
        if compact {
            parts.concat()
        } else {
            parts.join(".")
        }
    }
}

impl fmt::Display for Alphabet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{}}}", self.names.join(", "))
    }
}

/// Convenience: invert a word (reverse it and invert each letter).
///
/// If a semipath from `x` to `y` spells `w`, the same semipath traversed
/// from `y` to `x` spells `invert_word(w)`.
pub fn invert_word(word: &[Letter]) -> Vec<Letter> {
    word.iter().rev().map(|l| l.inv()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut a = Alphabet::new();
        let r = a.intern("r");
        let s = a.intern("s");
        assert_eq!(a.intern("r"), r);
        assert_ne!(r, s);
        assert_eq!(a.len(), 2);
        assert_eq!(a.name(r), "r");
        assert_eq!(a.get("s"), Some(s));
        assert_eq!(a.get("t"), None);
    }

    #[test]
    fn letter_inverse_is_involutive() {
        let l = Letter::forward(LabelId(3));
        assert_eq!(l.inv().inv(), l);
        assert!(l.inv().inverse);
        assert_eq!(l.inv().label, l.label);
    }

    #[test]
    fn sigma_pm_enumerates_both_polarities() {
        let a = Alphabet::from_names(["r", "s"]);
        let pm: Vec<Letter> = a.sigma_pm().collect();
        assert_eq!(pm.len(), 4);
        assert!(pm.contains(&Letter::backward(LabelId(1))));
    }

    #[test]
    fn dense_index_is_a_bijection() {
        let a = Alphabet::from_names(["r", "s", "t"]);
        let mut seen = vec![false; 2 * a.len()];
        for l in a.sigma_pm() {
            let i = l.dense_index(a.len());
            assert!(!seen[i]);
            seen[i] = true;
        }
        assert!(seen.into_iter().all(|b| b));
    }

    #[test]
    fn invert_word_roundtrip() {
        let a = Alphabet::from_names(["p", "q"]);
        let p = Letter::forward(a.get("p").unwrap());
        let q = Letter::forward(a.get("q").unwrap());
        let w = vec![p, q.inv(), p];
        assert_eq!(invert_word(&invert_word(&w)), w);
        assert_eq!(invert_word(&w), vec![p.inv(), q, p.inv()]);
    }

    #[test]
    fn word_rendering() {
        let a = Alphabet::from_names(["p", "knows"]);
        let p = Letter::forward(LabelId(0));
        assert_eq!(a.word_to_string(&[]), "ε");
        assert_eq!(a.word_to_string(&[p, p.inv(), p]), "pp-p");
        let k = Letter::forward(LabelId(1));
        assert_eq!(a.word_to_string(&[k, p]), "knows.p");
    }
}
