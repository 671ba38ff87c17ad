//! Hand-written recursive-descent parser for regular expressions.
//!
//! Grammar (whitespace insignificant between tokens):
//!
//! ```text
//! union   := concat ('|' concat)*
//! concat  := repeat (('.')? repeat)*        -- juxtaposition concatenates
//! repeat  := atom ('*' | '+' | '?')*
//! atom    := letter | '(' union ')' | 'ε' | '()' | '∅'
//! letter  := ident '-'?                      -- trailing '-' is the inverse
//! ident   := [A-Za-z_][A-Za-z0-9_]*
//! ```
//!
//! Labels are interned into the supplied [`Alphabet`], so parsing two
//! queries against the same alphabet yields compatible [`Letter`]s.
//! Examples: `a(b|c)*`, `knows.worksAt-`, `p p- p`, `(a|b)+c?`.

use crate::alphabet::{Alphabet, Letter};
use crate::regex::Regex;
use std::fmt;

/// Error raised by [`parse`], with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub position: usize,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "regex parse error at byte {}: {}",
            self.position, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parse `input` as a regular expression over `alphabet`, interning any new
/// labels it mentions.
pub fn parse(input: &str, alphabet: &mut Alphabet) -> Result<Regex, ParseError> {
    run(input, alphabet, false).map(|(e, _)| e)
}

/// Like [`parse`], but also returns a trace of every grammar node the
/// parser built, as `(subterm, start, end)` byte offsets into `input`.
///
/// The recorded subterms are the *lowered* results of the smart
/// constructors, so a consumer holding some subexpression of the parsed
/// regex (e.g. a lint witness) can look up where it came from by
/// structural equality; when several trace entries match, the narrowest
/// span is the tightest source location. Trailing whitespace is trimmed
/// from every recorded span.
pub fn parse_with_spans(
    input: &str,
    alphabet: &mut Alphabet,
) -> Result<(Regex, Trace), ParseError> {
    run(input, alphabet, true).map(|(e, t)| (e, t.unwrap_or_default()))
}

/// The span trace [`parse_with_spans`] returns: `(subterm, start, end)`.
pub type Trace = Vec<(Regex, usize, usize)>;

fn run(
    input: &str,
    alphabet: &mut Alphabet,
    tracing: bool,
) -> Result<(Regex, Option<Trace>), ParseError> {
    let mut p = Parser {
        input,
        pos: 0,
        alphabet,
        trace: if tracing { Some(Vec::new()) } else { None },
    };
    p.skip_ws();
    if p.at_end() {
        return Err(p.error("empty input"));
    }
    let e = p.parse_union()?;
    p.skip_ws();
    if !p.at_end() {
        return Err(p.error("trailing input"));
    }
    Ok((e, p.trace))
}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
    alphabet: &'a mut Alphabet,
    trace: Option<Trace>,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            position: self.pos,
            message: message.into(),
        }
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn at_end(&self) -> bool {
        self.pos >= self.input.len()
    }

    fn peek(&self) -> Option<char> {
        self.rest().chars().next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    fn skip_ws(&mut self) {
        while let Some(c) = self.peek() {
            if c.is_whitespace() {
                self.bump();
            } else {
                break;
            }
        }
    }

    fn eat(&mut self, c: char) -> bool {
        if self.peek() == Some(c) {
            self.bump();
            true
        } else {
            false
        }
    }

    /// Record `(e, start, pos)` in the span trace, trimming trailing
    /// whitespace the concat/repeat loops may have skipped past.
    fn record(&mut self, start: usize, e: &Regex) {
        if let Some(trace) = self.trace.as_mut() {
            let end = start + self.input[start..self.pos].trim_end().len();
            trace.push((e.clone(), start, end));
        }
    }

    fn parse_union(&mut self) -> Result<Regex, ParseError> {
        self.skip_ws();
        let start = self.pos;
        let mut parts = vec![self.parse_concat()?];
        loop {
            self.skip_ws();
            if self.eat('|') {
                parts.push(self.parse_concat()?);
            } else {
                let e = Regex::union(parts);
                self.record(start, &e);
                return Ok(e);
            }
        }
    }

    fn parse_concat(&mut self) -> Result<Regex, ParseError> {
        self.skip_ws();
        let start = self.pos;
        let mut parts = vec![self.parse_repeat()?];
        loop {
            self.skip_ws();
            match self.peek() {
                Some('.') => {
                    self.bump();
                    self.skip_ws();
                    parts.push(self.parse_repeat()?);
                }
                Some(c) if starts_atom(c) => parts.push(self.parse_repeat()?),
                _ => {
                    let e = Regex::concat(parts);
                    self.record(start, &e);
                    return Ok(e);
                }
            }
        }
    }

    fn parse_repeat(&mut self) -> Result<Regex, ParseError> {
        self.skip_ws();
        let start = self.pos;
        let mut e = self.parse_atom()?;
        loop {
            self.skip_ws();
            match self.peek() {
                Some('*') => {
                    self.bump();
                    e = e.star();
                    self.record(start, &e);
                }
                Some('+') => {
                    self.bump();
                    e = e.plus();
                    self.record(start, &e);
                }
                Some('?') => {
                    self.bump();
                    e = e.optional();
                    self.record(start, &e);
                }
                _ => return Ok(e),
            }
        }
    }

    fn parse_atom(&mut self) -> Result<Regex, ParseError> {
        self.skip_ws();
        let start = self.pos;
        let e = match self.peek() {
            None => return Err(self.error("expected an atom, found end of input")),
            Some('(') => {
                self.bump();
                self.skip_ws();
                if self.eat(')') {
                    // `()` is an ASCII spelling of ε.
                    Regex::Epsilon
                } else {
                    let e = self.parse_union()?;
                    self.skip_ws();
                    if !self.eat(')') {
                        return Err(self.error("expected ')'"));
                    }
                    e
                }
            }
            Some('ε') => {
                self.bump();
                Regex::Epsilon
            }
            Some('∅') => {
                self.bump();
                Regex::Empty
            }
            Some(c) if is_ident_start(c) => self.parse_letter()?,
            Some(c) => return Err(self.error(format!("unexpected character {c:?}"))),
        };
        self.record(start, &e);
        Ok(e)
    }

    fn parse_letter(&mut self) -> Result<Regex, ParseError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if is_ident_continue(c) {
                self.bump();
            } else {
                break;
            }
        }
        let name = &self.input[start..self.pos];
        debug_assert!(!name.is_empty());
        let id = self.alphabet.intern(name);
        // A '-' immediately after the identifier (no whitespace) marks the
        // inverse letter, as in the paper's ASCII rendering `r-` of r⁻.
        let inverse = self.eat('-');
        Ok(Regex::Letter(if inverse {
            Letter::backward(id)
        } else {
            Letter::forward(id)
        }))
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

fn starts_atom(c: char) -> bool {
    is_ident_start(c) || c == '(' || c == 'ε' || c == '∅'
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::LabelId;

    fn pa(s: &str) -> (Regex, Alphabet) {
        let mut a = Alphabet::new();
        let e = parse(s, &mut a).expect("parse");
        (e, a)
    }

    #[test]
    fn parses_single_letter() {
        let (e, a) = pa("a");
        assert_eq!(e, Regex::Letter(Letter::forward(a.get("a").unwrap())));
    }

    #[test]
    fn parses_inverse_letter() {
        let (e, a) = pa("a-");
        assert_eq!(e, Regex::Letter(Letter::backward(a.get("a").unwrap())));
    }

    #[test]
    fn parses_juxtaposition_and_dot() {
        let (e1, _) = pa("a.b");
        let (e2, _) = pa("a b");
        assert_eq!(e1, e2);
        // NOTE: "ab" is a single multi-character label, not a·b.
        let (e3, a3) = pa("ab");
        assert_eq!(e3, Regex::Letter(Letter::forward(a3.get("ab").unwrap())));
        match e1 {
            Regex::Concat(v) => assert_eq!(v.len(), 2),
            other => panic!("expected concat, got {other:?}"),
        }
    }

    #[test]
    fn multichar_labels_are_single_letters() {
        let (e, a) = pa("knows.worksAt-");
        assert_eq!(
            e,
            Regex::Concat(vec![
                Regex::Letter(Letter::forward(a.get("knows").unwrap())),
                Regex::Letter(Letter::backward(a.get("worksAt").unwrap())),
            ])
        );
    }

    #[test]
    fn precedence_star_binds_tightest() {
        let (e, a) = pa("a b*|c");
        let la = Letter::forward(a.get("a").unwrap());
        let lb = Letter::forward(a.get("b").unwrap());
        let lc = Letter::forward(a.get("c").unwrap());
        assert_eq!(
            e,
            Regex::union([
                Regex::concat([Regex::Letter(la), Regex::Letter(lb).star()]),
                Regex::Letter(lc)
            ])
        );
    }

    #[test]
    fn parses_paper_example() {
        // The paper's 2RPQ example: Q2 = p p⁻ p.
        let (e, a) = pa("p p- p");
        let p = Letter::forward(a.get("p").unwrap());
        assert_eq!(e, Regex::word(&[p, p.inv(), p]));
    }

    #[test]
    fn epsilon_and_empty() {
        assert_eq!(pa("ε").0, Regex::Epsilon);
        assert_eq!(pa("()").0, Regex::Epsilon);
        assert_eq!(pa("∅").0, Regex::Empty);
        assert!(pa("a|ε").0.nullable());
    }

    #[test]
    fn rejects_garbage() {
        let mut a = Alphabet::new();
        assert!(parse("", &mut a).is_err());
        assert!(parse("a)", &mut a).is_err());
        assert!(parse("(a", &mut a).is_err());
        assert!(parse("*a", &mut a).is_err());
        assert!(parse("a||b", &mut a).is_err());
        assert!(parse("a&b", &mut a).is_err());
    }

    #[test]
    fn print_parse_roundtrip_samples() {
        let samples = [
            "a(b|c)*",
            "p p- p",
            "(a|b)+c?",
            "a-b-|c",
            "((a|b)(c|d))*",
            "a*b*c*",
        ];
        for s in samples {
            let mut al = Alphabet::new();
            let e = parse(s, &mut al).unwrap();
            let printed = e.display(&al).to_string();
            let mut al2 = al.clone();
            let e2 = parse(&printed, &mut al2).unwrap();
            assert_eq!(e, e2, "roundtrip failed for {s} -> {printed}");
        }
    }

    #[test]
    fn span_trace_locates_subterms() {
        let mut a = Alphabet::new();
        let input = "a (b c)* d";
        let (e, trace) = parse_with_spans(input, &mut a).unwrap();
        assert_eq!(e, parse(input, &mut Alphabet::new()).unwrap());
        // The starred group is recorded with its exact source extent.
        let mut a2 = a.clone();
        let needle = parse("(b c)*", &mut a2).unwrap();
        let (_, start, end) = trace
            .iter()
            .filter(|(sub, _, _)| *sub == needle)
            .min_by_key(|(_, s, e)| e - s)
            .expect("starred group recorded");
        assert_eq!(&input[*start..*end], "(b c)*");
        // Single letters are recorded too, at their own offsets.
        let letter_d = parse("d", &mut a.clone()).unwrap();
        assert!(trace
            .iter()
            .any(|(sub, s, e)| *sub == letter_d && &input[*s..*e] == "d"));
    }

    #[test]
    fn span_trace_trims_trailing_whitespace() {
        let mut a = Alphabet::new();
        let input = "a | b c ";
        let (_, trace) = parse_with_spans(input, &mut a).unwrap();
        for (_, start, end) in &trace {
            assert_eq!(
                input[*start..*end].trim(),
                &input[*start..*end],
                "span [{start}, {end}) not trimmed"
            );
        }
    }

    #[test]
    fn plain_parse_records_no_trace() {
        let mut a = Alphabet::new();
        let (_, trace) = parse_with_spans("a", &mut a).unwrap();
        assert!(!trace.is_empty());
        // And parse() agrees with parse_with_spans() on the result.
        let mut a2 = Alphabet::new();
        assert_eq!(
            parse("a(b|c)*", &mut a2).unwrap(),
            parse_with_spans("a(b|c)*", &mut Alphabet::new()).unwrap().0
        );
    }

    #[test]
    fn interning_is_shared_across_parses() {
        let mut a = Alphabet::new();
        let e1 = parse("a b", &mut a).unwrap();
        let e2 = parse("b a", &mut a).unwrap();
        let la = Regex::Letter(Letter::forward(LabelId(0)));
        let lb = Regex::Letter(Letter::forward(LabelId(1)));
        assert_eq!(e1, la.clone().then(lb.clone()));
        assert_eq!(e2, lb.then(la));
    }
}
