//! The simple-RPQ (SCRPQ) fragment classifier.
//!
//! A *simple regular expression* (Figueira, Godbole, Krishna, Martens,
//! Niewerth, Trautner, *Containment of Simple Conjunctive Regular Path
//! Queries*, 2020) is a concatenation of atoms of two shapes over a
//! letter set `S ⊆ Σ`:
//!
//! * `D(S)` — a letter disjunction `(a₁ + … + aₖ)`: exactly one letter
//!   drawn from `S`;
//! * `St(S)` — a starred disjunction `(a₁ + … + aₖ)*`: any word over `S`,
//!   including ε.
//!
//! A single letter `a` is the singleton disjunction `D({a})`, `A⁺`
//! normalizes to `D(A)·St(A)`, and ε is the empty concatenation. For
//! queries in this fragment, containment drops from the general
//! EXPSPACE bound to tractable complexity.
//!
//! **The fragment is forward-only by design.** For forward RPQs,
//! query containment coincides with word-language containment (the
//! Lemma 1 reduction), so a word-level decision procedure returns
//! *exact* verdicts in both directions. With inverse letters that
//! equivalence breaks — `p ⊑ p p⁻ p` holds as 2RPQs even though
//! `L(p) ⊄ L(p p⁻ p)` (fold containment, Lemma 2). The serving ladder
//! does not classify: `rq-core`'s `check_quick` takes its Lemma 1 rung
//! whenever the right-hand side is one-way, simple or not. The class
//! feeds the `RQA006`/`RQA007` lints.
//!
//! [`classify`] either produces the normalized atom sequence
//! ([`SimpleRe`]) or a structured [`SimpleViolation`] naming the first
//! offending subterm and why it breaks the fragment — the witness the
//! `RQA007` lint surfaces, with a source span when the original query
//! text is available (see [`crate::regex::parser::parse_with_spans`]).

use crate::alphabet::{Alphabet, LabelId};
use crate::regex::Regex;
use std::collections::BTreeSet;
use std::fmt;

/// One atom of a simple regular expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimpleAtom {
    /// `D(S)`: exactly one letter from `S`.
    Disj(BTreeSet<LabelId>),
    /// `St(S)`: any word over `S` (including ε).
    Star(BTreeSet<LabelId>),
}

impl SimpleAtom {
    /// The letter set the atom draws from.
    pub fn labels(&self) -> &BTreeSet<LabelId> {
        match self {
            SimpleAtom::Disj(s) | SimpleAtom::Star(s) => s,
        }
    }

    /// Whether the atom accepts ε (only `St` does).
    pub fn nullable(&self) -> bool {
        matches!(self, SimpleAtom::Star(_))
    }
}

/// A classified simple regular expression: a concatenation of atoms.
/// The empty sequence is ε.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SimpleRe {
    pub atoms: Vec<SimpleAtom>,
}

impl SimpleRe {
    /// Every label mentioned by any atom.
    pub fn labels(&self) -> BTreeSet<LabelId> {
        self.atoms
            .iter()
            .flat_map(|a| a.labels().iter().copied())
            .collect()
    }

    /// Whether the whole expression accepts ε.
    pub fn nullable(&self) -> bool {
        self.atoms.iter().all(SimpleAtom::nullable)
    }

    /// Render in the paper's `D{…}·St{…}` notation (for diagnostics).
    pub fn display(&self, alphabet: &Alphabet) -> String {
        if self.atoms.is_empty() {
            return "ε".to_owned();
        }
        self.atoms
            .iter()
            .map(|a| {
                let names: Vec<&str> = a.labels().iter().map(|&l| alphabet.name(l)).collect();
                match a {
                    SimpleAtom::Disj(_) => format!("D({})", names.join("+")),
                    SimpleAtom::Star(_) => format!("St({})", names.join("+")),
                }
            })
            .collect::<Vec<_>>()
            .join("·")
    }
}

/// Why a subterm breaks the simple fragment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimpleReason {
    /// An inverse letter: the fragment is forward-only because the word
    /// containment = query containment equivalence (Lemma 1) fails for
    /// 2RPQs (fold containment, Lemma 2).
    InverseLetter,
    /// The ∅ subexpression: the empty language is not a concatenation of
    /// `D`/`St` atoms (and is short-circuited earlier anyway).
    EmptyLanguage,
    /// An `r?` subterm: optionality is not expressible as `D`/`St`.
    Optional,
    /// A union branch that is not a single forward letter — unions are
    /// simple only as letter disjunctions.
    NonLetterDisjunct,
    /// A `*`/`+` applied to something other than a letter or letter
    /// disjunction.
    NonDisjunctionRepeat,
}

impl SimpleReason {
    /// Short human phrase used in diagnostics.
    pub fn phrase(self) -> &'static str {
        match self {
            SimpleReason::InverseLetter => {
                "an inverse letter (the fragment is forward-only: word-level reasoning is \
                 exact only without Lemma 2 fold effects)"
            }
            SimpleReason::EmptyLanguage => "the empty-language expression ∅",
            SimpleReason::Optional => "an optional subterm (`?` is not a D/St atom)",
            SimpleReason::NonLetterDisjunct => {
                "a union branch that is not a single letter (unions are simple only as \
                 letter disjunctions)"
            }
            SimpleReason::NonDisjunctionRepeat => {
                "a repetition over something other than a letter disjunction"
            }
        }
    }
}

/// The structured witness for a failed classification: the first
/// offending subterm (in pre-order) and the reason it is outside the
/// fragment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimpleViolation {
    pub subterm: Regex,
    pub reason: SimpleReason,
}

impl SimpleViolation {
    fn new(subterm: &Regex, reason: SimpleReason) -> SimpleViolation {
        SimpleViolation {
            subterm: subterm.clone(),
            reason,
        }
    }

    /// Render the violation for a diagnostic message.
    pub fn display(&self, alphabet: &Alphabet) -> String {
        format!(
            "subterm `{}` is {}",
            self.subterm.display(alphabet),
            self.reason.phrase()
        )
    }
}

impl fmt::Display for SimpleReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.phrase())
    }
}

/// Decide membership of `e` in the simple fragment, normalizing into the
/// atom sequence on success (`a⁺` becomes `D(A)·St(A)`; ε contributes no
/// atom). On failure, returns the first offending subterm with a reason.
pub fn classify(e: &Regex) -> Result<SimpleRe, SimpleViolation> {
    let mut atoms = Vec::new();
    classify_into(e, &mut atoms)?;
    Ok(SimpleRe { atoms })
}

fn classify_into(e: &Regex, out: &mut Vec<SimpleAtom>) -> Result<(), SimpleViolation> {
    match e {
        Regex::Empty => Err(SimpleViolation::new(e, SimpleReason::EmptyLanguage)),
        Regex::Epsilon => Ok(()),
        Regex::Letter(l) => {
            if l.inverse {
                return Err(SimpleViolation::new(e, SimpleReason::InverseLetter));
            }
            out.push(SimpleAtom::Disj(BTreeSet::from([l.label])));
            Ok(())
        }
        Regex::Concat(parts) => {
            for p in parts {
                classify_into(p, out)?;
            }
            Ok(())
        }
        Regex::Union(_) => {
            out.push(SimpleAtom::Disj(letter_set(e)?));
            Ok(())
        }
        Regex::Star(inner) => {
            out.push(SimpleAtom::Star(repeat_set(inner)?));
            Ok(())
        }
        Regex::Plus(inner) => {
            let s = repeat_set(inner)?;
            out.push(SimpleAtom::Disj(s.clone()));
            out.push(SimpleAtom::Star(s));
            Ok(())
        }
        Regex::Optional(_) => Err(SimpleViolation::new(e, SimpleReason::Optional)),
    }
}

/// The letter set of a `*`/`+` body: a single forward letter or a letter
/// disjunction.
fn repeat_set(inner: &Regex) -> Result<BTreeSet<LabelId>, SimpleViolation> {
    match inner {
        Regex::Letter(l) if !l.inverse => Ok(BTreeSet::from([l.label])),
        Regex::Letter(_) => Err(SimpleViolation::new(inner, SimpleReason::InverseLetter)),
        Regex::Union(_) => letter_set(inner),
        _ => Err(SimpleViolation::new(
            inner,
            SimpleReason::NonDisjunctionRepeat,
        )),
    }
}

/// The letter set of a union whose branches must all be forward letters.
fn letter_set(e: &Regex) -> Result<BTreeSet<LabelId>, SimpleViolation> {
    let Regex::Union(parts) = e else {
        unreachable!("letter_set is only called on unions");
    };
    let mut set = BTreeSet::new();
    for p in parts {
        match p {
            Regex::Letter(l) if !l.inverse => {
                set.insert(l.label);
            }
            Regex::Letter(_) => {
                return Err(SimpleViolation::new(p, SimpleReason::InverseLetter));
            }
            other => {
                return Err(SimpleViolation::new(other, SimpleReason::NonLetterDisjunct));
            }
        }
    }
    Ok(set)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regex::parse;

    fn cl(text: &str) -> Result<SimpleRe, SimpleViolation> {
        let mut al = Alphabet::from_names(["a", "b", "c"]);
        classify(&parse(text, &mut al).unwrap())
    }

    #[test]
    fn letters_disjunctions_and_stars_classify() {
        let s = cl("a (a|b) (a|b)* c*").unwrap();
        assert_eq!(s.atoms.len(), 4);
        assert!(matches!(&s.atoms[0], SimpleAtom::Disj(x) if x.len() == 1));
        assert!(matches!(&s.atoms[1], SimpleAtom::Disj(x) if x.len() == 2));
        assert!(matches!(&s.atoms[2], SimpleAtom::Star(x) if x.len() == 2));
        assert!(matches!(&s.atoms[3], SimpleAtom::Star(x) if x.len() == 1));
        assert!(!s.nullable());
    }

    #[test]
    fn plus_normalizes_to_disj_then_star() {
        let s = cl("(a|b)+").unwrap();
        assert_eq!(
            s.atoms,
            vec![
                SimpleAtom::Disj(BTreeSet::from([LabelId(0), LabelId(1)])),
                SimpleAtom::Star(BTreeSet::from([LabelId(0), LabelId(1)])),
            ]
        );
    }

    #[test]
    fn epsilon_is_the_empty_concatenation() {
        let s = cl("ε").unwrap();
        assert!(s.atoms.is_empty());
        assert!(s.nullable());
    }

    #[test]
    fn inverse_letters_are_rejected_with_the_letter_as_witness() {
        let v = cl("a b- a").unwrap_err();
        assert_eq!(v.reason, SimpleReason::InverseLetter);
        let mut al = Alphabet::from_names(["a", "b"]);
        assert_eq!(
            v.subterm,
            parse("b-", &mut al).unwrap(),
            "the witness is the inverse letter itself"
        );
        // …also inside unions and repeats.
        assert_eq!(
            cl("(a|b-)").unwrap_err().reason,
            SimpleReason::InverseLetter
        );
        assert_eq!(
            cl("(a|b-)*").unwrap_err().reason,
            SimpleReason::InverseLetter
        );
    }

    #[test]
    fn non_fragment_shapes_are_rejected() {
        assert_eq!(cl("a?").unwrap_err().reason, SimpleReason::Optional);
        assert_eq!(
            cl("(a b)*").unwrap_err().reason,
            SimpleReason::NonDisjunctionRepeat
        );
        assert_eq!(
            cl("(a b | c)").unwrap_err().reason,
            SimpleReason::NonLetterDisjunct
        );
        assert_eq!(
            cl("a b | c").unwrap_err().reason,
            SimpleReason::NonLetterDisjunct
        );
    }

    #[test]
    fn violation_is_the_first_offender_in_preorder() {
        let v = cl("a (b c)* d?").unwrap_err();
        assert_eq!(v.reason, SimpleReason::NonDisjunctionRepeat);
    }

    #[test]
    fn display_uses_the_paper_notation() {
        let al = Alphabet::from_names(["a", "b"]);
        let s = cl("a (a|b)*").unwrap();
        assert_eq!(s.display(&al), "D(a)·St(a+b)");
        assert_eq!(SimpleRe::default().display(&al), "ε");
    }
}
