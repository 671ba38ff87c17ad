//! Regular expressions over Σ±.
//!
//! RPQs are "simply regular expressions over the edge alphabet of the graph
//! database" (§3.1); 2RPQs are regular expressions over the extended
//! alphabet Σ±. This module provides the shared AST, smart constructors
//! that keep expressions in a light normal form, a pretty-printer, and a
//! hand-written parser ([`parser`]).

pub mod parser;
pub mod simplify;

use crate::alphabet::{Alphabet, Letter};
use std::collections::BTreeSet;

pub use parser::{parse, parse_with_spans, ParseError};
pub use simplify::simplify;

/// A regular expression over letters of Σ±.
///
/// Constructed via the smart constructors ([`Regex::concat`],
/// [`Regex::union`], [`Regex::star`], ...) which perform cheap local
/// simplifications (identity/absorbing elements, flattening), or parsed from
/// text with [`parse`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Regex {
    /// The empty language ∅.
    Empty,
    /// The language {ε}.
    Epsilon,
    /// A single letter of Σ±.
    Letter(Letter),
    /// Concatenation, in order. Invariant: ≥ 2 children, none `Epsilon`,
    /// none `Concat`, none `Empty`.
    Concat(Vec<Regex>),
    /// Union. Invariant: ≥ 2 children, none `Union`, none `Empty`.
    Union(Vec<Regex>),
    /// Kleene star.
    Star(Box<Regex>),
    /// One-or-more repetitions.
    Plus(Box<Regex>),
    /// Zero-or-one.
    Optional(Box<Regex>),
}

impl Regex {
    /// The single-letter expression.
    pub fn letter(l: Letter) -> Regex {
        Regex::Letter(l)
    }

    /// Concatenation of `parts`, simplifying ε and ∅.
    pub fn concat(parts: impl IntoIterator<Item = Regex>) -> Regex {
        let mut out: Vec<Regex> = Vec::new();
        for p in parts {
            match p {
                Regex::Empty => return Regex::Empty,
                Regex::Epsilon => {}
                Regex::Concat(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Regex::Epsilon,
            1 => out.pop().expect("len checked"),
            _ => Regex::Concat(out),
        }
    }

    /// Union of `parts`, simplifying ∅ and deduplicating syntactically equal
    /// alternatives (order of first occurrence is kept).
    pub fn union(parts: impl IntoIterator<Item = Regex>) -> Regex {
        let mut out: Vec<Regex> = Vec::new();
        for p in parts {
            match p {
                Regex::Empty => {}
                Regex::Union(inner) => {
                    for q in inner {
                        if !out.contains(&q) {
                            out.push(q);
                        }
                    }
                }
                other => {
                    if !out.contains(&other) {
                        out.push(other);
                    }
                }
            }
        }
        match out.len() {
            0 => Regex::Empty,
            1 => out.pop().expect("len checked"),
            _ => Regex::Union(out),
        }
    }

    /// Kleene star, simplifying `∅* = ε* = ε`, `(e*)* = e*`, `(e+)* = e*`,
    /// `(e?)* = e*`.
    pub fn star(self) -> Regex {
        match self {
            Regex::Empty | Regex::Epsilon => Regex::Epsilon,
            Regex::Star(e) => Regex::Star(e),
            Regex::Plus(e) | Regex::Optional(e) => Regex::Star(e),
            e => Regex::Star(Box::new(e)),
        }
    }

    /// One-or-more, simplifying `∅+ = ∅`, `ε+ = ε`, `(e*)+ = e*`,
    /// `(e+)+ = e+`.
    pub fn plus(self) -> Regex {
        match self {
            Regex::Empty => Regex::Empty,
            Regex::Epsilon => Regex::Epsilon,
            Regex::Star(e) => Regex::Star(e),
            Regex::Plus(e) => Regex::Plus(e),
            Regex::Optional(e) => Regex::Star(e),
            e => Regex::Plus(Box::new(e)),
        }
    }

    /// Zero-or-one, simplifying `∅? = ε`, `ε? = ε`, `(e*)? = e*`,
    /// `(e?)? = e?`, `(e+)? = e*`.
    pub fn optional(self) -> Regex {
        match self {
            Regex::Empty | Regex::Epsilon => Regex::Epsilon,
            Regex::Star(e) => Regex::Star(e),
            Regex::Plus(e) => Regex::Star(e),
            Regex::Optional(e) => Regex::Optional(e),
            e => Regex::Optional(Box::new(e)),
        }
    }

    /// Concatenation of exactly two expressions.
    pub fn then(self, other: Regex) -> Regex {
        Regex::concat([self, other])
    }

    /// Union of exactly two expressions.
    pub fn or(self, other: Regex) -> Regex {
        Regex::union([self, other])
    }

    /// The word `w` as a concatenation of letters.
    pub fn word(w: &[Letter]) -> Regex {
        Regex::concat(w.iter().copied().map(Regex::Letter))
    }

    /// Number of AST nodes (a syntactic size measure used in benches).
    pub fn size(&self) -> usize {
        match self {
            Regex::Empty | Regex::Epsilon | Regex::Letter(_) => 1,
            Regex::Concat(v) | Regex::Union(v) => 1 + v.iter().map(Regex::size).sum::<usize>(),
            Regex::Star(e) | Regex::Plus(e) | Regex::Optional(e) => 1 + e.size(),
        }
    }

    /// Whether ε ∈ L(e), computed syntactically.
    pub fn nullable(&self) -> bool {
        match self {
            Regex::Empty | Regex::Letter(_) | Regex::Plus(_) => match self {
                Regex::Plus(e) => e.nullable(),
                _ => false,
            },
            Regex::Epsilon | Regex::Star(_) | Regex::Optional(_) => true,
            Regex::Concat(v) => v.iter().all(Regex::nullable),
            Regex::Union(v) => v.iter().any(Regex::nullable),
        }
    }

    /// Whether L(e) = ∅, computed syntactically (sound and complete because
    /// letters are nonempty).
    pub fn is_empty_language(&self) -> bool {
        match self {
            Regex::Empty => true,
            Regex::Epsilon | Regex::Letter(_) => false,
            Regex::Concat(v) => v.iter().any(Regex::is_empty_language),
            Regex::Union(v) => v.iter().all(Regex::is_empty_language),
            Regex::Star(_) | Regex::Optional(_) => false,
            Regex::Plus(e) => e.is_empty_language(),
        }
    }

    /// The set of letters that occur syntactically.
    pub fn letters(&self) -> BTreeSet<Letter> {
        let mut out = BTreeSet::new();
        self.collect_letters(&mut out);
        out
    }

    fn collect_letters(&self, out: &mut BTreeSet<Letter>) {
        match self {
            Regex::Empty | Regex::Epsilon => {}
            Regex::Letter(l) => {
                out.insert(*l);
            }
            Regex::Concat(v) | Regex::Union(v) => {
                for e in v {
                    e.collect_letters(out);
                }
            }
            Regex::Star(e) | Regex::Plus(e) | Regex::Optional(e) => e.collect_letters(out),
        }
    }

    /// Rebuild the expression with every letter *occurrence* passed through
    /// `f`, left to right. Unlike [`Nfa::map_letters`](crate::Nfa), `f` is
    /// called once per occurrence, not once per distinct letter — so a
    /// counter closure yields a position-marked regex (each occurrence gets
    /// a unique label), the substrate of position-automaton analyses like
    /// dead-occurrence detection in `rq-analyze`.
    pub fn map_letters(&self, f: &mut impl FnMut(Letter) -> Letter) -> Regex {
        match self {
            Regex::Empty => Regex::Empty,
            Regex::Epsilon => Regex::Epsilon,
            Regex::Letter(l) => Regex::Letter(f(*l)),
            Regex::Concat(v) => Regex::Concat(v.iter().map(|e| e.map_letters(f)).collect()),
            Regex::Union(v) => Regex::Union(v.iter().map(|e| e.map_letters(f)).collect()),
            Regex::Star(e) => Regex::Star(Box::new(e.map_letters(f))),
            Regex::Plus(e) => Regex::Plus(Box::new(e.map_letters(f))),
            Regex::Optional(e) => Regex::Optional(Box::new(e.map_letters(f))),
        }
    }

    /// Whether the expression uses only forward letters (i.e., is an RPQ
    /// rather than a proper 2RPQ).
    pub fn is_forward_only(&self) -> bool {
        self.letters().iter().all(|l| !l.inverse)
    }

    /// The expression for the *inverse language* {w⁻ : w ∈ L(e)}, where
    /// `w⁻` reverses the word and inverts every letter.
    ///
    /// Semantically: if a semipath from `x` to `y` conforms to `e`, the same
    /// semipath read from `y` to `x` conforms to `e.inverse()`.
    pub fn inverse(&self) -> Regex {
        match self {
            Regex::Empty => Regex::Empty,
            Regex::Epsilon => Regex::Epsilon,
            Regex::Letter(l) => Regex::Letter(l.inv()),
            Regex::Concat(v) => Regex::concat(v.iter().rev().map(Regex::inverse)),
            Regex::Union(v) => Regex::union(v.iter().map(Regex::inverse)),
            Regex::Star(e) => e.inverse().star(),
            Regex::Plus(e) => e.inverse().plus(),
            Regex::Optional(e) => e.inverse().optional(),
        }
    }

    /// Render with the given alphabet. Inverse letters print as `r-`;
    /// multi-character labels are joined with `.` inside concatenations.
    pub fn display<'a>(&'a self, alphabet: &'a Alphabet) -> DisplayRegex<'a> {
        DisplayRegex {
            regex: self,
            alphabet,
        }
    }
}

/// Binding precedence used by the printer: union < concat < repeat < atom.
fn precedence(e: &Regex) -> u8 {
    match e {
        Regex::Union(_) => 0,
        Regex::Concat(_) => 1,
        Regex::Star(_) | Regex::Plus(_) | Regex::Optional(_) => 2,
        _ => 3,
    }
}

/// Display adapter returned by [`Regex::display`].
pub struct DisplayRegex<'a> {
    regex: &'a Regex,
    alphabet: &'a Alphabet,
}

struct DisplayChild<'a> {
    regex: &'a Regex,
    parent_prec: u8,
    alphabet: &'a Alphabet,
}

impl std::fmt::Display for DisplayChild<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fmt_child(self.regex, self.parent_prec, self.alphabet, f)
    }
}

impl std::fmt::Display for DisplayRegex<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fmt_regex(self.regex, self.alphabet, f)
    }
}

fn fmt_child(
    child: &Regex,
    parent_prec: u8,
    alphabet: &Alphabet,
    f: &mut std::fmt::Formatter<'_>,
) -> std::fmt::Result {
    if precedence(child) < parent_prec {
        write!(f, "(")?;
        fmt_regex(child, alphabet, f)?;
        write!(f, ")")
    } else {
        fmt_regex(child, alphabet, f)
    }
}

fn fmt_regex(e: &Regex, a: &Alphabet, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
    match e {
        Regex::Empty => write!(f, "∅"),
        Regex::Epsilon => write!(f, "ε"),
        Regex::Letter(l) => write!(f, "{}", a.letter_name(*l)),
        Regex::Concat(v) => {
            // Identifiers are multi-character, so adjacent letters must be
            // separated by a dot to reparse unambiguously ("a.b", not "ab").
            let mut prev_ends_ident = false;
            for c in v.iter() {
                let rendered = format!(
                    "{}",
                    DisplayChild {
                        regex: c,
                        parent_prec: 1,
                        alphabet: a
                    }
                );
                let starts_ident = rendered
                    .chars()
                    .next()
                    .is_some_and(|ch| ch.is_ascii_alphanumeric() || ch == '_');
                if prev_ends_ident && starts_ident {
                    write!(f, ".")?;
                }
                write!(f, "{rendered}")?;
                prev_ends_ident = rendered
                    .chars()
                    .last()
                    .is_some_and(|ch| ch.is_ascii_alphanumeric() || ch == '_');
            }
            Ok(())
        }
        Regex::Union(v) => {
            for (i, c) in v.iter().enumerate() {
                if i > 0 {
                    write!(f, "|")?;
                }
                fmt_child(c, 1, a, f)?;
            }
            Ok(())
        }
        Regex::Star(e) => {
            fmt_child(e, 3, a, f)?;
            write!(f, "*")
        }
        Regex::Plus(e) => {
            fmt_child(e, 3, a, f)?;
            write!(f, "+")
        }
        Regex::Optional(e) => {
            fmt_child(e, 3, a, f)?;
            write!(f, "?")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::LabelId;

    fn l(i: u32) -> Regex {
        Regex::Letter(Letter::forward(LabelId(i)))
    }

    #[test]
    fn concat_identities() {
        assert_eq!(Regex::concat([Regex::Epsilon, l(0)]), l(0));
        assert_eq!(Regex::concat([l(0), Regex::Empty]), Regex::Empty);
        assert_eq!(Regex::concat(std::iter::empty()), Regex::Epsilon);
        // Flattening keeps order.
        let e = Regex::concat([l(0).then(l(1)), l(2)]);
        assert_eq!(e, Regex::Concat(vec![l(0), l(1), l(2)]));
    }

    #[test]
    fn union_identities() {
        assert_eq!(Regex::union([Regex::Empty, l(0)]), l(0));
        assert_eq!(Regex::union(std::iter::empty()), Regex::Empty);
        assert_eq!(Regex::union([l(0), l(0)]), l(0));
        let e = Regex::union([l(0).or(l(1)), l(1), l(2)]);
        assert_eq!(e, Regex::Union(vec![l(0), l(1), l(2)]));
    }

    #[test]
    fn star_simplifications() {
        assert_eq!(Regex::Empty.star(), Regex::Epsilon);
        assert_eq!(l(0).star().star(), l(0).star());
        assert_eq!(l(0).plus().star(), l(0).star());
        assert_eq!(l(0).optional().plus(), l(0).star());
        assert_eq!(l(0).plus().optional(), l(0).star());
    }

    #[test]
    fn nullable_and_empty() {
        assert!(Regex::Epsilon.nullable());
        assert!(!l(0).nullable());
        assert!(l(0).star().nullable());
        assert!(l(0).or(Regex::Epsilon).nullable());
        assert!(!l(0).then(l(1)).nullable());
        assert!(Regex::Empty.is_empty_language());
        assert!(Regex::Concat(vec![l(0), Regex::Empty]).is_empty_language());
        assert!(!l(0).star().is_empty_language());
    }

    #[test]
    fn inverse_is_involutive() {
        let e = l(0).then(l(1).star()).or(l(2).plus());
        assert_eq!(e.inverse().inverse(), e);
    }

    #[test]
    fn inverse_of_concat_reverses() {
        let a = Letter::forward(LabelId(0));
        let b = Letter::forward(LabelId(1));
        let e = Regex::word(&[a, b]);
        assert_eq!(e.inverse(), Regex::word(&[b.inv(), a.inv()]));
    }

    #[test]
    fn display_minimal_parens() {
        let al = Alphabet::from_names(["a", "b", "c"]);
        let a = || Regex::Letter(Letter::forward(LabelId(0)));
        let b = || Regex::Letter(Letter::forward(LabelId(1)));
        let e = a().or(b()).star().then(a());
        assert_eq!(e.display(&al).to_string(), "(a|b)*a");
        let e2 = a().then(b()).or(a());
        assert_eq!(e2.display(&al).to_string(), "a.b|a");
        let inv = Regex::Letter(Letter::backward(LabelId(0)));
        assert_eq!(inv.display(&al).to_string(), "a-");
    }

    #[test]
    fn size_counts_nodes() {
        let e = l(0).then(l(1)).star();
        assert_eq!(e.size(), 4);
    }
}
